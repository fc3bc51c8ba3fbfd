//! Metric arithmetic: order statistics over repeated samples, the
//! derived per-layer ratios, and failure counting. Kept free of any
//! runtime types so the self-tests below pin down every formula.

/// Order statistics of one metric's samples within a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median (mean of the middle two for an even count).
    pub median: f64,
    /// Highest percentile with at least ten samples beyond it, as
    /// `(percentile, value)`; `None` when there are fewer than eleven
    /// samples, so no percentile qualifies.
    pub tail: Option<(u32, f64)>,
    /// Number of samples.
    pub n: usize,
}

/// Median of `xs`; `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    })
}

/// Nearest-rank percentile `p` (0..=100) of `xs`; `None` when empty.
pub fn percentile(xs: &[f64], p: u32) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (f64::from(p.min(100)) / 100.0 * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

/// Median, sample count, and the highest whole percentile that leaves
/// at least ten samples strictly above its rank.
pub fn summarize(xs: &[f64]) -> Option<Summary> {
    let median = median(xs)?;
    let n = xs.len();
    let tail = (50..=99).rev().find_map(|p| {
        let rank = (f64::from(p) / 100.0 * n as f64).ceil() as usize;
        (n.saturating_sub(rank.max(1)) >= 10).then(|| (p, percentile(xs, p).expect("non-empty")))
    });
    Some(Summary { median, tail, n })
}

/// `num / den`, or 0 when the denominator is 0 (nothing attempted).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Share of all charged bytes that were charged against HBM: the
/// useful outcome of every fetch the runtime made.
pub fn hbm_share(hbm_bytes: u64, ddr_bytes: u64) -> f64 {
    ratio(hbm_bytes as f64, (hbm_bytes + ddr_bytes) as f64)
}

/// `1 − fetches / declared dependences`: the share of declared block
/// uses served without a fetch of their own.
pub fn reuse_ratio(fetches: u64, declared_deps: u64) -> f64 {
    if declared_deps == 0 {
        0.0
    } else {
        1.0 - fetches as f64 / declared_deps as f64
    }
}

/// No-space events per fetch attempt; an attempt is either a fetch
/// that moved a block or one refused because HBM was full.
pub fn no_space_ratio(no_space: u64, fetches: u64) -> f64 {
    ratio(no_space as f64, (no_space + fetches) as f64)
}

/// Wall-clock microseconds per completed task.
pub fn us_per_task(solve_s: f64, tasks: u64) -> f64 {
    ratio(solve_s * 1e6, tasks as f64)
}

/// Outcome tally over the solves of one run.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Tally {
    /// Solves started.
    pub attempted: u64,
    /// Solves with at least one failed check.
    pub failed: u64,
    /// Every failed check, `solve #i: reason`.
    pub reasons: Vec<String>,
}

impl Tally {
    /// Record one solve; it fails if `misses` is non-empty. Every miss
    /// is kept, but a solve counts once however many checks it missed.
    pub fn record(&mut self, misses: &[String]) {
        let index = self.attempted;
        self.attempted += 1;
        if !misses.is_empty() {
            self.failed += 1;
            self.reasons
                .extend(misses.iter().map(|m| format!("solve #{index}: {m}")));
        }
    }

    /// Failed solves / attempted solves.
    pub fn fail_ratio(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }
}

/// Checks shared by the threaded workloads; returns one line per miss.
#[derive(Debug, Clone, Copy)]
pub struct SolveCheck {
    /// Checksum the solve produced.
    pub checksum: f64,
    /// Single-PE reference checksum of the same problem.
    pub reference: f64,
    /// Allowed relative error.
    pub rel_tol: f64,
    /// Tasks completed, and tasks expected.
    pub completed: (u64, u64),
    /// Tasks that ran degraded from DDR4.
    pub degraded: u64,
    /// Tasks refused by the admission guard.
    pub rejected: u64,
    /// HBM high-water mark and capacity, bytes.
    pub hbm_peak: (u64, u64),
}

impl SolveCheck {
    /// Every check this solve misses.
    pub fn misses(&self) -> Vec<String> {
        let mut out = Vec::new();
        let err = (self.checksum - self.reference).abs();
        if err.is_nan() || err > self.rel_tol * self.reference.abs().max(1.0) {
            out.push(format!(
                "checksum {} vs reference {} (relative tolerance {})",
                self.checksum, self.reference, self.rel_tol
            ));
        }
        if self.completed.0 != self.completed.1 {
            out.push(format!(
                "completed {} tasks, expected {}",
                self.completed.0, self.completed.1
            ));
        }
        if self.degraded > 0 {
            out.push(format!("{} tasks ran degraded", self.degraded));
        }
        if self.rejected > 0 {
            out.push(format!("{} tasks rejected", self.rejected));
        }
        if self.hbm_peak.0 > self.hbm_peak.1 {
            out.push(format!(
                "HBM peak {} B above capacity {} B",
                self.hbm_peak.0, self.hbm_peak.1
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_nearest_rank() {
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50), Some(10.0));
        assert_eq!(percentile(&xs, 90), Some(18.0));
        assert_eq!(percentile(&xs, 100), Some(20.0));
        assert_eq!(percentile(&xs, 0), Some(1.0));
        assert_eq!(percentile(&[], 50), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // Ten samples: not even the median leaves ten above it.
        let ten: Vec<f64> = (0..10).map(f64::from).collect();
        let s = summarize(&ten).unwrap();
        assert_eq!((s.n, s.tail), (10, None));
        assert_eq!(s.median, 4.5);
        // Twenty samples: p50 has rank 10 and leaves exactly 10 above.
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(summarize(&twenty).unwrap().tail, Some((50, 10.0)));
        // A hundred samples: p90 leaves 10 above, p91 leaves 9.
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(summarize(&hundred).unwrap().tail, Some((90, 90.0)));
        assert_eq!(summarize(&[]), None);
    }

    #[test]
    fn derived_ratios() {
        assert_eq!(hbm_share(3, 1), 0.75);
        assert_eq!(hbm_share(0, 0), 0.0);
        // matmul-shared geometry: 100 tasks x 21 declared dependences.
        assert!((reuse_ratio(1230, 2100) - (1.0 - 1230.0 / 2100.0)).abs() < 1e-15);
        assert_eq!(reuse_ratio(5, 0), 0.0);
        assert_eq!(no_space_ratio(1, 3), 0.25);
        assert_eq!(no_space_ratio(0, 0), 0.0);
        assert!((us_per_task(0.8, 51_200) - 15.625).abs() < 1e-12);
        assert_eq!(us_per_task(1.0, 0), 0.0);
    }

    fn clean() -> SolveCheck {
        SolveCheck {
            checksum: 100.0,
            reference: 100.0 + 1e-8,
            rel_tol: 1e-9,
            completed: (192, 192),
            degraded: 0,
            rejected: 0,
            hbm_peak: (16, 16),
        }
    }

    #[test]
    fn solve_check_flags_each_miss() {
        assert!(clean().misses().is_empty());
        let bad = SolveCheck {
            checksum: f64::NAN,
            completed: (191, 192),
            degraded: 1,
            rejected: 2,
            hbm_peak: (17, 16),
            ..clean()
        };
        assert_eq!(bad.misses().len(), 5);
        let off = SolveCheck {
            checksum: 100.1,
            ..clean()
        };
        assert_eq!(off.misses().len(), 1);
    }

    #[test]
    fn tally_counts_solves_not_misses() {
        let mut t = Tally::default();
        t.record(&[]);
        t.record(&["a".into(), "b".into()]);
        t.record(&[]);
        t.record(&["c".into()]);
        assert_eq!((t.attempted, t.failed), (4, 2));
        assert_eq!(t.fail_ratio(), 0.5);
        assert_eq!(t.reasons.len(), 3);
        assert!(t.reasons[0].starts_with("solve #1"));
        assert_eq!(Tally::default().fail_ratio(), 0.0);
    }
}
