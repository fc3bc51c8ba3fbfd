//! Initial data placement policies.
//!
//! The paper's baseline (§IV-B, "No Prefetch/Evict") allocates blocks on
//! HBM until ~15 GB of the 16 GB is used and places the overflow on
//! DDR4 ("numactl --preferred 1" semantics, implemented with
//! `numa_alloc_onnode` for consistency with the runtime's own API —
//! which is exactly what [`Placement::PreferHbm`] does here). The
//! managed strategies instead allocate everything on DDR4 and let the
//! runtime move blocks in and out of HBM.

use hetmem::{MemError, Memory, DDR4, HBM};

/// Where new application blocks are allocated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Fill the fast node first, overflow to the slow node — the
    /// paper's *Naive* baseline. `reserve` bytes of HBM are kept free
    /// (the paper keeps ~1 GB free to avoid over-subscription).
    PreferHbm {
        /// HBM bytes to leave unallocated.
        reserve: u64,
    },
    /// Everything on the slow node — the paper's *DDR4only* case, and
    /// the starting state for all managed strategies.
    DdrOnly,
    /// Everything on the fast node — only valid when the working set
    /// fits (used for Figure 2's "fits in HBM" runs).
    HbmOnly,
}

impl Placement {
    /// Decide the node for a block of `size` bytes and allocate it.
    pub fn alloc(&self, mem: &Memory, size: usize) -> Result<hetmem::AlignedBuf, MemError> {
        match self {
            Placement::PreferHbm { reserve } => {
                if mem.allocator(HBM).available() >= size as u64 + reserve {
                    mem.alloc_on_node(size, HBM)
                } else {
                    mem.alloc_on_node(size, DDR4)
                }
            }
            Placement::DdrOnly => mem.alloc_on_node(size, DDR4),
            Placement::HbmOnly => mem.alloc_on_node(size, HBM),
        }
    }

    /// Label for experiment reports.
    pub fn label(&self) -> &'static str {
        match self {
            Placement::PreferHbm { .. } => "naive(prefer-hbm)",
            Placement::DdrOnly => "ddr4-only",
            Placement::HbmOnly => "hbm-only",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetmem::Topology;

    fn mem() -> std::sync::Arc<Memory> {
        Memory::new(Topology::knl_flat_scaled_with(1000, 10_000))
    }

    #[test]
    fn prefer_hbm_fills_then_overflows() {
        let m = mem();
        let p = Placement::PreferHbm { reserve: 0 };
        let a = p.alloc(&m, 600).unwrap();
        assert_eq!(a.node(), HBM);
        let b = p.alloc(&m, 600).unwrap();
        assert_eq!(b.node(), DDR4, "overflow must land on DDR4");
    }

    #[test]
    fn prefer_hbm_respects_reserve() {
        let m = mem();
        let p = Placement::PreferHbm { reserve: 500 };
        let a = p.alloc(&m, 600).unwrap();
        assert_eq!(a.node(), DDR4, "600+500 > 1000 so HBM is skipped");
    }

    #[test]
    fn ddr_only_never_touches_hbm() {
        let m = mem();
        let p = Placement::DdrOnly;
        for _ in 0..3 {
            assert_eq!(p.alloc(&m, 100).unwrap().node(), DDR4);
        }
        assert_eq!(m.stats().nodes[HBM.index()].used_bytes, 0);
    }

    #[test]
    fn hbm_only_fails_when_full() {
        let m = mem();
        let p = Placement::HbmOnly;
        let _a = p.alloc(&m, 1000).unwrap();
        assert!(p.alloc(&m, 1).is_err());
    }

    #[test]
    fn labels() {
        assert_eq!(Placement::DdrOnly.label(), "ddr4-only");
        assert_eq!(
            Placement::PreferHbm { reserve: 0 }.label(),
            "naive(prefer-hbm)"
        );
        assert_eq!(Placement::HbmOnly.label(), "hbm-only");
    }
}
