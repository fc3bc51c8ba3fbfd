//! Block migration: the paper's §IV-C data-movement methodology.
//!
//! > "We use two operations to allow data movement across HBM and DDR4:
//! > create space in destination memory and then move the data to the
//! > destination location. Here move itself is a two step process,
//! > consisting of copy to destination and then freeing the source."
//!
//! [`MigrationEngine::migrate`] implements exactly that:
//! `alloc_on_node(dst)` → charged `memcpy` → free source, updating the
//! registry's residency state around it. The `memcpy` is a real byte
//! copy *and* is charged against both nodes' bandwidth regulators (read
//! from the source, penalised write to the destination), which is what
//! produces the Figure 7 cost curves.
//!
//! When built with a [`MemoryPool`] (the paper's future-work
//! optimisation) destination buffers come from a per-node freelist,
//! skipping the allocate/free pair.

use crate::block::BlockId;
use crate::clock::TimeNs;
use crate::error::MemError;
use crate::faults::FaultAction;
use crate::node::NodeId;
use crate::pool::MemoryPool;
use crate::Memory;
use std::sync::Arc;

/// Moves registered blocks between memory nodes.
pub struct MigrationEngine {
    mem: Arc<Memory>,
    pools: Option<Vec<MemoryPool>>,
}

impl MigrationEngine {
    /// An engine that allocates destination buffers directly.
    pub fn new(mem: Arc<Memory>) -> Self {
        Self { mem, pools: None }
    }

    /// An engine that recycles destination buffers through per-node
    /// memory pools (ablation A2 / the paper's future-work §IV-C note).
    pub fn with_pools(mem: Arc<Memory>) -> Self {
        let pools = (0..mem.node_count()).map(|_| MemoryPool::new()).collect();
        Self {
            mem,
            pools: Some(pools),
        }
    }

    /// The memory subsystem this engine operates on.
    pub fn memory(&self) -> &Arc<Memory> {
        &self.mem
    }

    /// Move block `id` to node `dst`.
    ///
    /// `require_unreferenced` should be true for evictions (the paper
    /// only evicts blocks whose reference count is zero) and false for
    /// fetches. `copy_contents` should be false only for `writeonly`
    /// dependences, whose old bytes the kernel never reads.
    ///
    /// Returns the duration of the move. Fails without changing
    /// residency if the destination has no capacity.
    pub fn migrate(
        &self,
        id: BlockId,
        dst: NodeId,
        require_unreferenced: bool,
        copy_contents: bool,
    ) -> Result<TimeNs, MemError> {
        let t0 = self.mem.clock().now();

        // Fault injection happens before any registry state changes, so
        // a failed attempt leaves the block exactly where it was.
        match self.mem.faults().on_migration(id, dst) {
            FaultAction::Proceed => {}
            FaultAction::Delay(ns) => self.mem.clock().sleep(ns),
            FaultAction::Fail => {
                return Err(MemError::Transient {
                    op: "migrate",
                    block: Some(id.0 as u64),
                });
            }
        }

        let registry = self.mem.registry();
        let (src_buf, src_node) = registry.begin_move(id, dst, require_unreferenced)?;
        let size = src_buf.len();

        // Step 1: create space in the destination memory.
        let mut dst_buf = match self.acquire_dst(size, dst) {
            Ok(b) => b,
            Err(e) => {
                registry.abort_move(id, src_buf);
                return Err(e);
            }
        };

        // Step 2: memcpy, charged against both memory controllers and
        // against the copying *thread*'s own rate — a single core
        // cannot saturate the aggregate bandwidth (Perarnau et al.,
        // the paper's [11]), which is exactly why one IO thread is a
        // fetch bottleneck while many are not.
        if copy_contents && size > 0 {
            let copy_start = self.mem.regulator(src_node).charge(size as u64).issued_at;
            self.mem.regulator(dst).charge_write(size as u64);
            dst_buf.as_mut_slice().copy_from_slice(src_buf.as_slice());
            if let Some(rate) = self.mem.topology().migrate_thread_bytes_per_sec() {
                let thread_ns = (size as f64 * 1e9 / rate as f64).ceil() as u64;
                self.mem.clock().sleep_until(copy_start + thread_ns);
            }
        }

        // Step 3: free the source (numa_free) — via the pool if enabled.
        self.release_src(src_buf);

        registry.complete_move(id, dst_buf);

        Ok(self.mem.clock().now().saturating_sub(t0))
    }

    /// A `size`-byte buffer on `dst`: a pooled one of exactly that size
    /// if there is one, else a fresh allocation. Pooled buffers keep
    /// their budget reserved, so when `dst` is out of capacity the pool
    /// is drained (returning the budget of every retired buffer of any
    /// size) and the allocation is tried once more. A transient fault
    /// does not drain the pool.
    fn acquire_dst(&self, size: usize, dst: NodeId) -> Result<crate::alloc::AlignedBuf, MemError> {
        let Some(pools) = &self.pools else {
            return self.mem.alloc_on_node(size, dst);
        };
        let pool = &pools[dst.index()];
        if let Some(buf) = pool.take(size) {
            return Ok(buf);
        }
        match self.mem.alloc_on_node(size, dst) {
            Err(MemError::CapacityExceeded { .. }) if pool.pooled() > 0 => {
                pool.drain();
                self.mem.alloc_on_node(size, dst)
            }
            result => result,
        }
    }

    fn release_src(&self, buf: crate::alloc::AlignedBuf) {
        if let Some(pools) = &self.pools {
            pools[buf.node().index()].put(buf);
        } else {
            drop(buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultInjector;
    use crate::node::{DDR4, HBM};
    use crate::topology::{NodeSpec, Topology};
    use crate::{AccessMode, VirtualClock};

    fn small_mem() -> Arc<Memory> {
        let topo = Topology::new(vec![
            NodeSpec::new("DDR4", 1 << 20, 1_000_000_000).with_write_penalty(1.06),
            NodeSpec::new("HBM", 1 << 16, 4_000_000_000),
        ]);
        Memory::with_clock(topo, Arc::new(VirtualClock::new()))
    }

    #[test]
    fn migrate_moves_bytes_and_accounting() {
        let mem = small_mem();
        let engine = mem.migration_engine();
        let mut buf = mem.alloc_on_node(1024, DDR4).unwrap();
        buf.as_mut_slice()[123] = 7;
        let id = mem.registry().register(buf, "m");

        let dt = engine.migrate(id, HBM, true, true).unwrap();
        assert!(dt > 0);
        assert_eq!(mem.registry().node_of(id), Some(HBM));
        assert_eq!(mem.stats().nodes[DDR4.index()].used_bytes, 0);
        assert_eq!(mem.stats().nodes[HBM.index()].used_bytes, 1024);
        let g = mem.registry().access(id, AccessMode::ReadOnly);
        assert_eq!(g.bytes()[123], 7);
    }

    #[test]
    fn migrate_charges_both_nodes() {
        let mem = small_mem();
        let engine = mem.migration_engine();
        let buf = mem.alloc_on_node(4096, DDR4).unwrap();
        let id = mem.registry().register(buf, "m");
        engine.migrate(id, HBM, true, true).unwrap();
        let stats = mem.stats();
        assert_eq!(stats.nodes[DDR4.index()].bytes_charged, 4096);
        assert_eq!(stats.nodes[HBM.index()].bytes_charged, 4096);
    }

    #[test]
    fn hbm_to_ddr_costs_more_than_ddr_to_hbm() {
        // Figure 7: "memcpy costs for HBM to DDR4 to be slightly higher"
        // — the slow node's rate dominates, and its write penalty makes
        // the write direction worse.
        let mem = small_mem();
        let engine = mem.migration_engine();
        let buf = mem.alloc_on_node(32 * 1024, DDR4).unwrap();
        let id = mem.registry().register(buf, "m");
        let to_hbm = engine.migrate(id, HBM, true, true).unwrap();
        let to_ddr = engine.migrate(id, DDR4, true, true).unwrap();
        assert!(
            to_ddr > to_hbm,
            "to_ddr={to_ddr} should exceed to_hbm={to_hbm}"
        );
    }

    #[test]
    fn migrate_fails_cleanly_when_destination_full() {
        let mem = small_mem();
        let engine = mem.migration_engine();
        // Fill HBM completely.
        let hog = mem.alloc_on_node(1 << 16, HBM).unwrap();
        let buf = mem.alloc_on_node(1024, DDR4).unwrap();
        let id = mem.registry().register(buf, "m");
        let err = engine.migrate(id, HBM, true, true).unwrap_err();
        assert!(matches!(err, MemError::CapacityExceeded { .. }));
        // Residency restored; block still usable.
        assert_eq!(mem.registry().node_of(id), Some(DDR4));
        drop(hog);
        assert!(engine.migrate(id, HBM, true, true).is_ok());
    }

    #[test]
    fn writeonly_fetch_skips_copy_charges() {
        let mem = small_mem();
        let engine = mem.migration_engine();
        let buf = mem.alloc_on_node(2048, DDR4).unwrap();
        let id = mem.registry().register(buf, "m");
        engine.migrate(id, HBM, false, false).unwrap();
        assert_eq!(mem.registry().node_of(id), Some(HBM));
        // No bytes were charged: the contents were not transferred.
        assert_eq!(mem.stats().nodes[DDR4.index()].bytes_charged, 0);
        assert_eq!(mem.stats().nodes[HBM.index()].bytes_charged, 0);
    }

    #[test]
    fn injected_migration_fault_leaves_block_usable() {
        let topo = Topology::new(vec![
            NodeSpec::new("DDR4", 1 << 20, 1_000_000_000),
            NodeSpec::new("HBM", 1 << 16, 4_000_000_000),
        ]);
        let faults = Arc::new(
            crate::SeededFaults::new(11)
                .with_migration_fail_rate(1.0)
                .with_alloc_fault_node(None),
        );
        let mem =
            Memory::with_clock_and_faults(topo, Arc::new(VirtualClock::new()), faults.clone());
        let engine = mem.migration_engine();
        let mut buf = mem.alloc_on_node(1024, DDR4).unwrap();
        buf.as_mut_slice()[9] = 42;
        let id = mem.registry().register(buf, "m");

        let err = engine.migrate(id, HBM, true, true).unwrap_err();
        assert!(err.is_transient());
        // Residency untouched, contents intact, nothing allocated on
        // the destination, and the injector counted the failure.
        assert_eq!(mem.registry().node_of(id), Some(DDR4));
        let g = mem.registry().access(id, AccessMode::ReadOnly);
        assert_eq!(g.bytes()[9], 42);
        drop(g);
        assert_eq!(mem.stats().nodes[HBM.index()].alloc_count, 0);
        assert_eq!(faults.stats().migration_failures, 1);
    }

    #[test]
    fn injected_latency_spike_slows_but_completes() {
        let topo = Topology::new(vec![
            NodeSpec::new("DDR4", 1 << 20, 1_000_000_000),
            NodeSpec::new("HBM", 1 << 16, 4_000_000_000),
        ]);
        let faults = Arc::new(crate::SeededFaults::new(5).with_latency_spike(1.0, 1_000_000));
        let mem =
            Memory::with_clock_and_faults(topo, Arc::new(VirtualClock::new()), faults.clone());
        let engine = mem.migration_engine();
        let buf = mem.alloc_on_node(1024, DDR4).unwrap();
        let id = mem.registry().register(buf, "m");
        let dt = engine.migrate(id, HBM, true, true).unwrap();
        assert!(dt >= 1_000_000, "spike not charged: dt={dt}");
        assert_eq!(mem.registry().node_of(id), Some(HBM));
        assert_eq!(faults.stats().delay_ns, 1_000_000);
    }

    #[test]
    fn pooled_engine_recycles_buffers() {
        let mem = small_mem();
        let engine = MigrationEngine::with_pools(Arc::clone(&mem));
        let buf = mem.alloc_on_node(1024, DDR4).unwrap();
        let id = mem.registry().register(buf, "m");
        engine.migrate(id, HBM, true, true).unwrap();
        engine.migrate(id, DDR4, true, true).unwrap();
        // Going back to HBM should reuse the pooled HBM buffer: no new
        // allocation beyond the ones already made.
        let allocs_before = mem.stats().nodes[HBM.index()].alloc_count;
        engine.migrate(id, HBM, true, true).unwrap();
        let allocs_after = mem.stats().nodes[HBM.index()].alloc_count;
        assert_eq!(allocs_before, allocs_after);
    }

    #[test]
    fn pooled_engine_drains_pool_when_destination_full() {
        // An 8 KiB HBM: a 4 KiB block goes in and back out, leaving its
        // HBM buffer in the pool. An 8 KiB block must still fit: the
        // pooled buffer's budget is returned rather than stranded.
        let topo = Topology::new(vec![
            NodeSpec::new("DDR4", 1 << 20, 1_000_000_000),
            NodeSpec::new("HBM", 8 << 10, 4_000_000_000),
        ]);
        let mem = Memory::with_clock(topo, Arc::new(VirtualClock::new()));
        let engine = MigrationEngine::with_pools(Arc::clone(&mem));
        let small = mem
            .registry()
            .register(mem.alloc_on_node(4 << 10, DDR4).unwrap(), "s");
        engine.migrate(small, HBM, true, true).unwrap();
        engine.migrate(small, DDR4, true, true).unwrap();
        let mut buf = mem.alloc_on_node(8 << 10, DDR4).unwrap();
        buf.as_mut_slice()[8191] = 3;
        let big = mem.registry().register(buf, "b");
        engine.migrate(big, HBM, true, true).unwrap();
        assert_eq!(mem.registry().node_of(big), Some(HBM));
        assert_eq!(mem.stats().nodes[HBM.index()].used_bytes, 8 << 10);
        let g = mem.registry().access(big, AccessMode::ReadOnly);
        assert_eq!(g.bytes()[8191], 3);
    }

    #[test]
    fn transient_alloc_fault_does_not_drain_the_pool() {
        #[derive(Debug, Default)]
        struct FailAllocs(std::sync::atomic::AtomicBool);
        impl FaultInjector for FailAllocs {
            fn on_alloc(&self, _node: NodeId, _size: usize) -> FaultAction {
                if self.0.load(std::sync::atomic::Ordering::Relaxed) {
                    FaultAction::Fail
                } else {
                    FaultAction::Proceed
                }
            }
        }
        let topo = Topology::new(vec![
            NodeSpec::new("DDR4", 1 << 20, 1_000_000_000),
            NodeSpec::new("HBM", 8 << 10, 4_000_000_000),
        ]);
        let faults = Arc::new(FailAllocs::default());
        let mem =
            Memory::with_clock_and_faults(topo, Arc::new(VirtualClock::new()), faults.clone());
        let engine = MigrationEngine::with_pools(Arc::clone(&mem));
        let small = mem
            .registry()
            .register(mem.alloc_on_node(4 << 10, DDR4).unwrap(), "s");
        engine.migrate(small, HBM, true, true).unwrap();
        engine.migrate(small, DDR4, true, true).unwrap();
        let big = mem
            .registry()
            .register(mem.alloc_on_node(8 << 10, DDR4).unwrap(), "b");
        faults.0.store(true, std::sync::atomic::Ordering::Relaxed);
        assert!(engine
            .migrate(big, HBM, true, true)
            .unwrap_err()
            .is_transient());
        // The pooled 4 KiB HBM buffer still holds its budget.
        assert_eq!(mem.stats().nodes[HBM.index()].used_bytes, 4 << 10);
        faults.0.store(false, std::sync::atomic::Ordering::Relaxed);
        engine.migrate(big, HBM, true, true).unwrap();
        assert_eq!(mem.stats().nodes[HBM.index()].used_bytes, 8 << 10);
    }
}
