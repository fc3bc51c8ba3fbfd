//! Cache-mode emulation: MCDRAM as a direct-mapped block cache.
//!
//! The paper runs KNL in *Flat* mode and manages placement in the
//! runtime; §VI defers "comparisons with cache mode in KNL" to future
//! work. This module supplies that comparison: HBM behaves as a
//! direct-mapped, demand-filled cache of DDR4-homed blocks,
//!
//! * a task's dependence **hits** if its block already occupies its set;
//! * a **miss** fills the set on the worker's critical path (demand
//!   latency — there is no prefetch in cache mode), evicting the
//!   previous occupant;
//! * a **conflict** against an in-use occupant (or a capacity failure)
//!   **bypasses**: the dependence is simply accessed from DDR4 at DDR4
//!   bandwidth, the cache-mode analogue of a line that cannot be
//!   allocated.
//!
//! Tasks are always admitted immediately — cache mode never waits for
//! space — so its cost shows up as conflict-miss churn and slow
//! bypassed accesses, exactly the pathologies the paper's Flat-mode
//! runtime avoids ("caching could result in increased latency from
//! conflict misses or capacity misses", §I).

use super::Shared;
use crate::task::OocTask;
use hetmem::BlockId;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// Direct-mapped set table plus hit/miss counters.
pub struct CacheState {
    sets: Mutex<Vec<Option<BlockId>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    bypasses: AtomicU64,
    conflict_evictions: AtomicU64,
}

/// Cache statistics snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Dependences found resident in their set.
    pub hits: u64,
    /// Dependences demand-filled into their set.
    pub misses: u64,
    /// Dependences served from DDR4 (set in use or no capacity).
    pub bypasses: u64,
    /// Resident blocks displaced by a conflicting fill.
    pub conflict_evictions: u64,
}

impl CacheState {
    pub(super) fn new(sets: usize) -> Self {
        assert!(sets > 0, "cache needs at least one set");
        Self {
            sets: Mutex::new(vec![None; sets]),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            bypasses: AtomicU64::new(0),
            conflict_evictions: AtomicU64::new(0),
        }
    }

    /// Snapshot the counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            bypasses: self.bypasses.load(Ordering::Relaxed),
            conflict_evictions: self.conflict_evictions.load(Ordering::Relaxed),
        }
    }

    fn set_of(&self, block: BlockId, nsets: usize) -> usize {
        block.0 as usize % nsets
    }
}

/// Pre-processing: demand-fill each dependence's set, bypassing on
/// conflict; always admit.
pub(super) fn intercept(shared: &Shared, cache: &CacheState, task: OocTask) {
    let tracer = shared.worker_tracer(task.pe);
    let tag = task.env.index as u32;
    let registry = shared.memory().registry();
    let nsets = cache.sets.lock().len();

    shared.engine.add_refs(&task.deps);
    for dep in &task.deps {
        let set = cache.set_of(dep.block, nsets);
        // Fast path: already the occupant (and resident in HBM).
        {
            let sets = cache.sets.lock();
            if sets[set] == Some(dep.block) {
                cache.hits.fetch_add(1, Ordering::Relaxed);
                continue;
            }
        }
        // Miss: displace the occupant if it is idle, else bypass.
        let occupant = {
            let mut sets = cache.sets.lock();
            let old = sets[set];
            if let Some(old) = old {
                if registry.refcount(old) > 0 {
                    // Set is pinned by a running task: bypass this dep.
                    cache.bypasses.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
            }
            sets[set] = Some(dep.block);
            old
        };
        if let Some(old) = occupant {
            // Write the victim back to DDR4 (demand eviction).
            match evict_block(shared, old, &tracer, tag) {
                Ok(()) => {
                    cache.conflict_evictions.fetch_add(1, Ordering::Relaxed);
                }
                Err(_) => {
                    // Lost a race (victim re-referenced): restore it and
                    // bypass the new dependence.
                    cache.sets.lock()[set] = Some(old);
                    cache.bypasses.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
            }
        }
        // Fill on the critical path (cache mode has no prefetch).
        match shared
            .engine
            .fetch_all(std::slice::from_ref(dep), &tracer, tag)
        {
            Ok(()) => {
                cache.misses.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                // No capacity (oddly-sized blocks): serve from DDR4.
                cache.sets.lock()[set] = None;
                cache.bypasses.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
    // Cache mode always admits: un-staged deps run from DDR4.
    shared.admit(task);
}

/// Post-processing: cached blocks stay resident; only refs drop.
pub(super) fn after_complete(_shared: &Shared, _pe: usize, _cache: &CacheState) {}

fn evict_block(
    shared: &Shared,
    block: BlockId,
    tracer: &projections::Tracer,
    tag: u32,
) -> Result<(), crate::FetchError> {
    shared.engine.force_evict(block, tracer, tag)
}

#[cfg(test)]
mod tests {
    use crate::config::{OocConfig, StrategyKind};
    use crate::handle::IoHandle;
    use crate::placement::Placement;
    use crate::strategy::OocHook;
    use converse::{Chare, CompletionLatch, Dep, EntryId, EntryOptions, ExecCtx, RuntimeBuilder};
    use hetmem::{AccessMode, Memory, Topology};
    use std::sync::Arc;

    const EP: EntryId = EntryId(0);

    struct Toucher {
        data: IoHandle<f64>,
        latch: Arc<CompletionLatch>,
    }
    impl Chare for Toucher {
        type Msg = ();
        fn execute(&mut self, _e: EntryId, _m: (), _c: &mut ExecCtx<'_>) {
            // In cache mode the block may legitimately be on either node
            // (bypass serves from DDR4).
            self.data.write(|xs| xs[0] += 1.0);
            self.latch.count_down();
        }
        fn deps(&self, _e: EntryId, _m: &()) -> Vec<Dep> {
            vec![self.data.dep(AccessMode::ReadWrite)]
        }
    }

    fn run_cache(sets: usize, n: usize, rounds: usize) -> (crate::OocStats, super::CacheStats) {
        let block_elems = 256usize;
        let topo = Topology::knl_flat_scaled_with(1 << 20, 1 << 24);
        let mem = Memory::new(topo);
        let rt = RuntimeBuilder::new(2)
            .clock(Arc::clone(mem.clock()))
            .build();
        let latch = Arc::new(CompletionLatch::new(n * rounds));
        let blocks: Vec<IoHandle<f64>> = (0..n)
            .map(|i| IoHandle::new(&mem, block_elems, Placement::DdrOnly, format!("c{i}")).unwrap())
            .collect();
        let (l2, b2) = (Arc::clone(&latch), blocks.clone());
        let array = rt
            .array_builder::<Toucher>()
            .entry(EP, EntryOptions::prefetch())
            .build(n, move |i| Toucher {
                data: b2[i].clone(),
                latch: Arc::clone(&l2),
            });
        let hook = OocHook::new(
            Arc::clone(&rt),
            Arc::clone(&mem),
            StrategyKind::CacheMode { sets },
            OocConfig::default(),
        )
        .unwrap();
        rt.set_hook(hook.clone());
        for _ in 0..rounds {
            for i in 0..n {
                rt.send(array, i, EP, ());
            }
        }
        assert!(latch.wait_timeout_ms(60_000), "cache-mode run stalled");
        assert!(rt.wait_quiescence_ms(10_000));
        let arr = rt.array::<Toucher>(array);
        for i in 0..n {
            assert_eq!(
                arr.with_chare(i, |c| c.data.read(|xs| xs[0])),
                rounds as f64,
                "block {i} lost updates"
            );
        }
        let stats = hook.stats();
        let cstats = hook.cache_stats().expect("cache-mode stats");
        hook.shutdown();
        rt.shutdown();
        (stats, cstats)
    }

    #[test]
    fn disjoint_sets_hit_after_first_round() {
        // 4 blocks over 8 sets: no conflicts; round 2+ are pure hits.
        let (stats, cstats) = run_cache(8, 4, 3);
        assert_eq!(stats.completed, 12);
        assert_eq!(cstats.misses, 4, "one fill per block");
        assert_eq!(cstats.hits, 8, "subsequent rounds hit");
        assert_eq!(cstats.conflict_evictions, 0);
    }

    #[test]
    fn colliding_blocks_thrash_the_set() {
        // 4 blocks over 1 set: every access displaces the previous
        // block (or bypasses while it is pinned).
        let (stats, cstats) = run_cache(1, 4, 2);
        assert_eq!(stats.completed, 8);
        assert!(
            cstats.conflict_evictions + cstats.bypasses >= 4,
            "a single set must thrash: {cstats:?}"
        );
        assert!(cstats.hits < 8);
    }

    #[test]
    fn cached_blocks_stay_resident_after_completion() {
        let (_, cstats) = run_cache(8, 2, 1);
        assert_eq!(cstats.misses, 2);
        // No one evicts at completion in cache mode.
        assert_eq!(cstats.conflict_evictions, 0);
    }
}
