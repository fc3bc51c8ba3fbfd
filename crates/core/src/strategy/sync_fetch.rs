//! "Multiple queues, no IO thread" — synchronous parallel fetch/evict.
//!
//! §IV-B: *"When a task arrives on a PE, if there is sufficient
//! allocation space in HBM, it fetches its own data in the preprocessing
//! step. If it is able to bring in all its dependences to HBM, then it
//! schedules itself by adding itself to the corresponding PE's run
//! queue. If there is no space in HBM, it adds itself to the PE's wait
//! queue. When a task finishes executing, it calls its postprocessing
//! step, where it evicts its own data dependences ... After evicting its
//! own data, it checks in the wait queue on its PE, to see if there are
//! any tasks waiting to be scheduled on the PE."*
//!
//! Both the fetch and the evict run *on the worker thread*, so their
//! full cost lands in the task's critical path — the ~20 ms
//! pre-processing stalls visible in the paper's Figure 6a. The upside
//! over a single IO thread is parallelism: every worker fetches its own
//! data concurrently.

use super::Shared;
use crate::task::OocTask;

/// Pre-processing on the worker thread.
///
/// Parking a task that failed admission races against the *last*
/// completion's wait-queue rescan: if the rescan runs between our
/// failed fetch and our push, nobody ever wakes the task again (there
/// is no backstop IO thread in this strategy). The admission lock plus
/// the completion-counter check close that window — a completion that
/// sneaks in between the failed fetch and the lock is detected and the
/// fetch retried. The fetch on this path stays outside the lock so
/// workers still fetch their own data concurrently (the point of this
/// strategy over a single IO thread); only the completion-side rescan
/// in [`after_complete`] fetches while holding it.
pub(super) fn intercept(shared: &Shared, mut task: OocTask) {
    let tracer = shared.worker_tracer(task.pe);
    loop {
        let completed = shared.stats.completed();
        // Synchronous fetch: runs right here, on the PE's thread.
        match shared.try_admit(task, tracer) {
            Ok(()) => return,
            Err(t) => {
                let _gate = shared.admission.lock();
                if shared.stats.completed() != completed {
                    // A task completed (and evicted) since the failed
                    // fetch began; its rescan may have already missed
                    // us. Retry with the freed space.
                    task = t;
                    continue;
                }
                shared.waitq.push(t);
                return;
            }
        }
    }
}

/// Post-processing on the worker thread: after this task's eviction
/// (done in `Shared::finish_task`), admit whatever now fits.
///
/// The paper checks only the finishing task's own PE's wait queue. That
/// is almost always sufficient (every PE continuously completes tasks),
/// but it can strand the very last waiting tasks of a run if their home
/// PE never completes another task. We therefore scan all wait queues,
/// *starting with* the finishing PE, and stop at the first queue head
/// that does not fit — preserving the paper's behaviour in the common
/// case while guaranteeing liveness.
pub(super) fn after_complete(shared: &Shared, pe: usize) {
    // Taken after `finish_task` bumped `completed`, so a concurrent
    // failed admission either sees the bump (and retries) or parked
    // its task before we got the lock (and the scan below finds it).
    let _gate = shared.admission.lock();
    let nqueues = shared.waitq.queue_count();
    let tracer = shared.worker_tracer(pe);
    for offset in 0..nqueues {
        let q = (shared.waitq.queue_for_pe(pe) + offset) % nqueues;
        // Drain this queue until a head does not fit.
        loop {
            let Some(task) = shared.waitq.pop(q) else {
                break;
            };
            match shared.try_admit(task, tracer) {
                Ok(()) => continue,
                Err(task) => {
                    shared.waitq.push_front(task);
                    return; // no space; later completions will retry
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::config::{OocConfig, StrategyKind};
    use crate::handle::IoHandle;
    use crate::placement::Placement;
    use crate::strategy::OocHook;
    use converse::{
        ArrayId, Chare, CompletionLatch, Dep, EntryId, EntryOptions, ExecCtx, RuntimeBuilder,
    };
    use hetmem::{AccessMode, Memory, Topology, DDR4, HBM};
    use std::sync::Arc;

    const EP_COMPUTE: EntryId = EntryId(0);

    /// A chare that sums its block when executed — and asserts that the
    /// runtime really did stage the block into HBM first.
    struct Summer {
        data: IoHandle<f64>,
        latch: Arc<CompletionLatch>,
        sum: f64,
    }

    impl Chare for Summer {
        type Msg = ();
        fn execute(&mut self, _entry: EntryId, _msg: (), _ctx: &mut ExecCtx<'_>) {
            assert_eq!(
                self.data.node(),
                Some(HBM),
                "prefetch must have staged the block into HBM"
            );
            self.sum = self.data.read(|xs| xs.iter().sum());
            self.latch.count_down();
        }
        fn deps(&self, _entry: EntryId, _msg: &()) -> Vec<Dep> {
            vec![self.data.dep(AccessMode::ReadWrite)]
        }
    }

    #[test]
    fn sync_strategy_stages_blocks_and_evicts_after() {
        // HBM fits only 2 of the 6 blocks at a time.
        let block_elems = 1024usize;
        let block_bytes = (block_elems * 8) as u64;
        let topo = Topology::knl_flat_scaled_with(2 * block_bytes + 64, 1 << 24);
        let mem = Memory::new(topo);
        let rt = RuntimeBuilder::new(2)
            .clock(Arc::clone(mem.clock()))
            .build();

        let n = 6;
        let latch = Arc::new(CompletionLatch::new(n));
        let mut handles = Vec::new();
        for i in 0..n {
            let h: IoHandle<f64> =
                IoHandle::new(&mem, block_elems, Placement::DdrOnly, format!("b{i}")).unwrap();
            h.write(|xs| xs.iter_mut().for_each(|x| *x = 1.0));
            handles.push(h);
        }
        let l2 = Arc::clone(&latch);
        let hs = handles.clone();
        let array = rt
            .array_builder::<Summer>()
            .entry(EP_COMPUTE, EntryOptions::prefetch())
            .build(n, move |i| Summer {
                data: hs[i].clone(),
                latch: Arc::clone(&l2),
                sum: 0.0,
            });

        let hook = OocHook::new(
            Arc::clone(&rt),
            Arc::clone(&mem),
            StrategyKind::SyncFetch,
            OocConfig::default(),
            None,
        )
        .unwrap();
        rt.set_hook(hook.clone());

        for i in 0..n {
            rt.send(array, i, EP_COMPUTE, ());
        }
        assert!(latch.wait_timeout_ms(30_000), "tasks never completed");
        assert!(rt.wait_quiescence_ms(10_000));

        // Every task computed the right sum.
        let arr = rt.array::<Summer>(array);
        for i in 0..n {
            assert_eq!(arr.with_chare(i, |c| c.sum), block_elems as f64);
        }
        // All blocks evicted back to DDR4 (refcounts hit zero).
        for h in &handles {
            assert_eq!(h.node(), Some(DDR4), "{h:?} not evicted");
        }
        let stats = hook.stats();
        assert_eq!(stats.intercepted, n as u64);
        assert_eq!(stats.completed, n as u64);
        assert_eq!(stats.fetches, n as u64);
        assert_eq!(stats.evictions, n as u64);
        // HBM capacity was respected throughout.
        let hbm_stats = &mem.stats().nodes[HBM.index()];
        assert!(hbm_stats.peak_used_bytes <= 2 * block_bytes + 64);
        hook.shutdown();
        rt.shutdown();
    }

    #[test]
    fn shared_read_only_blocks_are_fetched_once() {
        let block_elems = 512usize;
        let topo = Topology::knl_flat_scaled_with(1 << 20, 1 << 24);
        let mem = Memory::new(topo);
        let rt = RuntimeBuilder::new(2)
            .clock(Arc::clone(mem.clock()))
            .build();

        let shared: IoHandle<f64> =
            IoHandle::new(&mem, block_elems, Placement::DdrOnly, "shared").unwrap();
        shared.write(|xs| xs.iter_mut().for_each(|x| *x = 0.5));

        struct Reader {
            data: IoHandle<f64>,
            latch: Arc<CompletionLatch>,
        }
        impl Chare for Reader {
            type Msg = ();
            fn execute(&mut self, _e: EntryId, _m: (), _c: &mut ExecCtx<'_>) {
                assert_eq!(self.data.node(), Some(HBM));
                let _sum: f64 = self.data.read(|xs| xs.iter().sum());
                self.latch.count_down();
            }
            fn deps(&self, _e: EntryId, _m: &()) -> Vec<Dep> {
                vec![self.data.dep(AccessMode::ReadOnly)]
            }
        }

        let n = 8;
        let latch = Arc::new(CompletionLatch::new(n));
        let (l2, s2) = (Arc::clone(&latch), shared.clone());
        let array = rt
            .array_builder::<Reader>()
            .entry(EP_COMPUTE, EntryOptions::prefetch())
            .build(n, move |_| Reader {
                data: s2.clone(),
                latch: Arc::clone(&l2),
            });

        let hook = OocHook::new(
            Arc::clone(&rt),
            Arc::clone(&mem),
            StrategyKind::SyncFetch,
            OocConfig::default(),
            None,
        )
        .unwrap();
        rt.set_hook(hook.clone());
        let _ = ArrayId(0); // silence unused import in some cfgs

        for i in 0..n {
            rt.send(array, i, EP_COMPUTE, ());
        }
        assert!(latch.wait_timeout_ms(30_000));
        assert!(rt.wait_quiescence_ms(10_000));
        let stats = hook.stats();
        // The block is fetched far fewer times than it is used: tasks
        // overlapping in flight share the single resident copy (the
        // paper's matmul nodegroup reuse).
        assert!(stats.fetches < n as u64, "fetches={}", stats.fetches);
        assert_eq!(stats.completed, n as u64);
        hook.shutdown();
        rt.shutdown();
    }
}
