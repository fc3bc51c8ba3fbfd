//! Simulation results.

use crate::model::SimStrategy;
use serde::{Deserialize, Serialize};

/// Outcome of one simulated run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimReport {
    /// Strategy simulated.
    pub strategy: SimStrategy,
    /// Workload label.
    pub workload: String,
    /// Virtual makespan, ns.
    pub makespan_ns: u64,
    /// Tasks completed.
    pub tasks: usize,
    /// Block fetches (DDR4 → HBM moves).
    pub fetches: u64,
    /// Bytes copied by fetches.
    pub fetch_bytes: u64,
    /// Block evictions (HBM → DDR4 moves).
    pub evictions: u64,
    /// Bytes copied by evictions.
    pub evict_bytes: u64,
    /// Total task wait between arrival and admission, ns.
    pub queue_wait_ns: u64,
    /// Per-PE busy time, ns: inline fetches, compute and the eviction
    /// after each task. The eviction may overlap the PE's next task
    /// (see [`SimReport::pe_utilization`]).
    pub pe_busy_ns: Vec<u64>,
    /// Per-IO-thread busy time, ns.
    pub io_busy_ns: Vec<u64>,
    /// Total bytes through the DDR4 pipe.
    pub ddr_bytes: u64,
    /// Total bytes through the HBM pipe.
    pub hbm_bytes: u64,
}

impl SimReport {
    /// Virtual makespan in seconds.
    pub fn makespan_sec(&self) -> f64 {
        self.makespan_ns as f64 / 1e9
    }

    /// Mean PE busy time over the makespan, as a fraction of it.
    ///
    /// Not bounded by 1 under managed strategies: the simulator frees a
    /// PE at compute end while its trailing eviction still reserves
    /// pipe time, so the PE can start its next task during that
    /// eviction, and both count as busy. The paper-scale Fig. 8
    /// SyncFetch and 64-IO-thread runs read 1.96–1.99. DESIGN.md
    /// (`vtsim`) records this modelling gap.
    pub fn pe_utilization(&self) -> f64 {
        if self.makespan_ns == 0 || self.pe_busy_ns.is_empty() {
            return 0.0;
        }
        let total: u64 = self.pe_busy_ns.iter().sum();
        total as f64 / (self.makespan_ns as f64 * self.pe_busy_ns.len() as f64)
    }

    /// Mean queue wait per task, ms.
    pub fn mean_queue_wait_ms(&self) -> f64 {
        if self.tasks == 0 {
            0.0
        } else {
            self.queue_wait_ns as f64 / self.tasks as f64 / 1e6
        }
    }

    /// Speedup of this run relative to `baseline` (>1 means faster).
    pub fn speedup_over(&self, baseline: &SimReport) -> f64 {
        baseline.makespan_ns as f64 / self.makespan_ns as f64
    }

    /// One-line rendering for experiment tables.
    pub fn render_row(&self) -> String {
        format!(
            "{:<22} {:>10.3}s  util {:>5.1}%  wait {:>8.2}ms/task  fetch {:>6} ({:>8} MB)  evict {:>6}",
            self.strategy.label(),
            self.makespan_sec(),
            self.pe_utilization() * 100.0,
            self.mean_queue_wait_ms(),
            self.fetches,
            self.fetch_bytes >> 20,
            self.evictions,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(makespan: u64) -> SimReport {
        SimReport {
            strategy: SimStrategy::Baseline,
            workload: "w".into(),
            makespan_ns: makespan,
            tasks: 10,
            fetches: 5,
            fetch_bytes: 5 << 20,
            evictions: 5,
            evict_bytes: 5 << 20,
            queue_wait_ns: 20_000_000,
            pe_busy_ns: vec![makespan / 2, makespan / 2],
            io_busy_ns: vec![],
            ddr_bytes: 1,
            hbm_bytes: 2,
        }
    }

    #[test]
    fn derived_metrics() {
        let r = report(2_000_000_000);
        assert_eq!(r.makespan_sec(), 2.0);
        assert!((r.pe_utilization() - 0.5).abs() < 1e-12);
        assert_eq!(r.mean_queue_wait_ms(), 2.0);
        let faster = report(1_000_000_000);
        assert_eq!(faster.speedup_over(&r), 2.0);
        assert!(r.render_row().contains("baseline"));
    }

    #[test]
    fn degenerate_cases() {
        let mut r = report(0);
        r.tasks = 0;
        r.pe_busy_ns.clear();
        assert_eq!(r.pe_utilization(), 0.0);
        assert_eq!(r.mean_queue_wait_ms(), 0.0);
    }
}
