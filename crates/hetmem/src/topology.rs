//! Topology descriptions: the capacity and bandwidth of the two memory
//! nodes, [`DDR4`] (node 0) and [`HBM`] (node 1).
//!
//! Two presets matter for the reproduction:
//!
//! * [`Topology::knl_flat_paper`] — the paper's literal testbed numbers
//!   (Stampede 2.0 KNL, Flat / All-to-All): 16 GB MCDRAM at ~420 GB/s
//!   aggregate STREAM-triad bandwidth vs 96 GB DDR4 at ~90 GB/s (the
//!   "over 4X" of §III-B / Figure 1). This is what `vtsim` uses for the
//!   full-scale virtual-time runs.
//! * [`Topology::knl_flat_scaled`] — the same *ratios* scaled down by
//!   `1 paper-GB : 1 sim-MB` in capacity and about a hundredfold in
//!   bandwidth so that the threaded runtime regenerates every figure in
//!   wall-clock seconds on a laptop.

use crate::node::{NodeId, DDR4, HBM};
use serde::{Deserialize, Serialize};

/// Description of a single memory node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeSpec {
    /// Human-readable name ("DDR4", "MCDRAM"...).
    pub name: String,
    /// Capacity budget in bytes.
    pub capacity_bytes: u64,
    /// Aggregate streaming bandwidth in bytes per second.
    pub bandwidth_bytes_per_sec: u64,
    /// Multiplier applied to traffic *written* to this node, modelling
    /// the small write-side penalty that makes HBM→DDR4 migration
    /// slightly more expensive than DDR4→HBM in the paper's Figure 7.
    pub write_penalty: f64,
}

impl NodeSpec {
    /// Convenience constructor with no write penalty.
    pub fn new(name: &str, capacity_bytes: u64, bandwidth_bytes_per_sec: u64) -> Self {
        Self {
            name: name.to_string(),
            capacity_bytes,
            bandwidth_bytes_per_sec,
            write_penalty: 1.0,
        }
    }

    /// Set the write-side penalty multiplier.
    pub fn with_write_penalty(mut self, penalty: f64) -> Self {
        assert!(penalty >= 1.0, "write penalty must be >= 1.0");
        self.write_penalty = penalty;
        self
    }
}

/// A full memory topology: the two nodes in NUMA-number order (DDR4,
/// then HBM) plus model-wide knobs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Topology {
    nodes: Vec<NodeSpec>,
    /// Charges are split into slices of this many bytes so that many
    /// concurrent streams interleave through the reservation pipe,
    /// approximating the processor-sharing behaviour of a real memory
    /// controller. Smaller slices share more fairly but cost more
    /// bookkeeping.
    slice_bytes: u64,
    /// Fixed per-charge overhead in nanoseconds (models per-transfer
    /// setup cost; keeps tiny transfers from being free).
    per_charge_overhead_ns: u64,
    /// Copy rate achievable by a *single thread* doing `memcpy`
    /// (bytes/sec). On KNL a single slow core cannot saturate the
    /// aggregate memory bandwidth (Perarnau et al., cited as [11] in
    /// the paper) — this cap is what makes one IO thread a fetch
    /// bottleneck. `None` disables the cap.
    migrate_thread_bytes_per_sec: Option<u64>,
}

pub const MIB: u64 = 1024 * 1024;
pub const GIB: u64 = 1024 * MIB;

impl Topology {
    /// Build a topology from explicit node specs: DDR4 first, then HBM.
    pub fn new(nodes: Vec<NodeSpec>) -> Self {
        assert_eq!(
            nodes.len(),
            2,
            "topology needs exactly two nodes: DDR4, HBM"
        );
        Self {
            nodes,
            slice_bytes: MIB,
            per_charge_overhead_ns: 0,
            migrate_thread_bytes_per_sec: None,
        }
    }

    /// The paper's KNL testbed, literal sizes (used by `vtsim`).
    ///
    /// Bandwidths follow the paper's Figure 1 STREAM measurements:
    /// MCDRAM ≈ 420 GB/s, DDR4 ≈ 90 GB/s ("over 4X"); capacities are
    /// 96 GB DDR4 and 16 GB MCDRAM (§III-B). The 6% write penalty on
    /// DDR4 reproduces Figure 7's slightly-higher HBM→DDR4 memcpy cost.
    pub fn knl_flat_paper() -> Self {
        let mut t = Self::new(vec![
            NodeSpec::new("DDR4", 96 * GIB, 90 * GIB).with_write_penalty(1.06),
            NodeSpec::new("MCDRAM", 16 * GIB, 420 * GIB),
        ]);
        // Single KNL core memcpy rate, per Perarnau et al. [11].
        t.migrate_thread_bytes_per_sec = Some(12 * GIB);
        t
    }

    /// The scaled-down twin of [`Topology::knl_flat_paper`] used by the
    /// threaded runtime: `1 paper-GB = 1 sim-MB` of capacity and
    /// `1 paper-GB/s = 1 sim-MB/s` of bandwidth, so a Figure-8 style
    /// run (32-unit working set) completes in wall-clock seconds while
    /// keeping every paper ratio: 4.67:1 node bandwidth, 6:1 capacity,
    /// and a single-thread copy rate ~1/15 of aggregate DDR4 bandwidth.
    /// Because bandwidth costs are enforced by sleeping, the shapes are
    /// host-independent — even a single host core reproduces them.
    pub fn knl_flat_scaled() -> Self {
        let mut t = Self::new(vec![
            NodeSpec::new("DDR4", 96 * MIB, 90 * MIB).with_write_penalty(1.06),
            NodeSpec::new("MCDRAM", 16 * MIB, 420 * MIB),
        ]);
        t.slice_bytes = 64 * 1024;
        t.per_charge_overhead_ns = 2_000;
        t.migrate_thread_bytes_per_sec = Some(12 * MIB);
        t
    }

    /// A scaled topology with custom capacities (still MiB-scale
    /// bandwidth model); used by experiments that sweep capacity.
    pub fn knl_flat_scaled_with(hbm_capacity: u64, ddr_capacity: u64) -> Self {
        let mut t = Self::knl_flat_scaled();
        t.nodes[DDR4.index()].capacity_bytes = ddr_capacity;
        t.nodes[HBM.index()].capacity_bytes = hbm_capacity;
        t
    }

    /// Node specs in NUMA-number order.
    pub fn nodes(&self) -> &[NodeSpec] {
        &self.nodes
    }

    /// Spec for one node.
    pub fn node(&self, id: NodeId) -> &NodeSpec {
        &self.nodes[id.index()]
    }

    /// Charge slicing granularity (bytes).
    pub fn slice_bytes(&self) -> u64 {
        self.slice_bytes
    }

    /// Override the charge slicing granularity.
    pub fn with_slice_bytes(mut self, slice: u64) -> Self {
        assert!(slice > 0);
        self.slice_bytes = slice;
        self
    }

    /// Fixed per-charge overhead (ns).
    pub fn per_charge_overhead_ns(&self) -> u64 {
        self.per_charge_overhead_ns
    }

    /// Override the per-charge overhead.
    pub fn with_per_charge_overhead_ns(mut self, ns: u64) -> Self {
        self.per_charge_overhead_ns = ns;
        self
    }

    /// Single-thread memcpy rate cap for migrations (None = uncapped).
    pub fn migrate_thread_bytes_per_sec(&self) -> Option<u64> {
        self.migrate_thread_bytes_per_sec
    }

    /// Override the single-thread memcpy rate cap.
    pub fn with_migrate_thread_rate(mut self, rate: Option<u64>) -> Self {
        self.migrate_thread_bytes_per_sec = rate;
        self
    }

    /// Bandwidth ratio between two nodes (a:b).
    pub fn bandwidth_ratio(&self, a: NodeId, b: NodeId) -> f64 {
        self.node(a).bandwidth_bytes_per_sec as f64 / self.node(b).bandwidth_bytes_per_sec as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_topology_matches_section_iii() {
        let t = Topology::knl_flat_paper();
        assert_eq!(t.node(HBM).capacity_bytes, 16 * GIB);
        assert_eq!(t.node(DDR4).capacity_bytes, 96 * GIB);
        // "MCDRAM has over 4X higher bandwidth than DRAM."
        assert!(t.bandwidth_ratio(HBM, DDR4) > 4.0);
        // "the capacity of DDR4 is 96 GB, 6 times that of HBM."
        assert_eq!(t.node(DDR4).capacity_bytes / t.node(HBM).capacity_bytes, 6);
    }

    #[test]
    fn scaled_topology_preserves_ratios() {
        let paper = Topology::knl_flat_paper();
        let scaled = Topology::knl_flat_scaled();
        let paper_ratio = paper.bandwidth_ratio(HBM, DDR4);
        let scaled_ratio = scaled.bandwidth_ratio(HBM, DDR4);
        assert!((paper_ratio - scaled_ratio).abs() < 0.01);
        assert_eq!(
            scaled.node(DDR4).capacity_bytes / scaled.node(HBM).capacity_bytes,
            6
        );
    }

    #[test]
    #[should_panic(expected = "exactly two nodes")]
    fn topology_needs_exactly_two_nodes() {
        let _ = Topology::new(vec![NodeSpec::new("DDR4", GIB, GIB)]);
    }

    #[test]
    #[should_panic(expected = "write penalty")]
    fn write_penalty_below_one_rejected() {
        let _ = NodeSpec::new("x", 1, 1).with_write_penalty(0.5);
    }
}
