//! Percentiles, medians and the counters summed from the public stats
//! APIs.
//!
//! Quantiles are integer basis points (`9900` = p99) so that ranks are
//! exact: a percentile is the nearest-rank sample, and a percentile is
//! *supported* by `n` samples only when at least [`MIN_BEYOND`] samples
//! lie beyond it.

use hcf_core::ExecStatsSnapshot;
use hcf_tmem::stats::TxStatsSnapshot;

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: u64 = 10;

/// Median, in basis points.
pub const P50: u32 = 5_000;
/// 99th percentile, in basis points.
pub const P99: u32 = 9_900;

/// Candidate tail percentiles, highest first.
const LADDER: [u32; 5] = [9_999, 9_990, 9_900, 9_000, 5_000];

/// 1-based nearest rank of quantile `bp` among `n` samples.
fn rank(n: u64, bp: u32) -> u64 {
    let r = (u128::from(n) * u128::from(bp)).div_ceil(10_000) as u64;
    r.clamp(1, n.max(1))
}

/// Samples strictly beyond the `bp` percentile of `n` samples.
pub fn beyond(n: u64, bp: u32) -> u64 {
    if n == 0 {
        0
    } else {
        n - rank(n, bp)
    }
}

/// Whether `n` samples support reporting the `bp` percentile.
pub fn supported(n: u64, bp: u32) -> bool {
    beyond(n, bp) >= MIN_BEYOND
}

/// The highest percentile that `n` samples support, if any.
pub fn highest_supported(n: u64) -> Option<u32> {
    LADDER.into_iter().find(|&bp| supported(n, bp))
}

/// `"p99.9"`-style label of a basis-point quantile.
pub fn label(bp: u32) -> String {
    let s = format!("{}", f64::from(bp) / 100.0);
    format!("p{s}")
}

/// Nearest-rank percentile of ascending `sorted`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[u64], bp: u32) -> u64 {
    sorted[(rank(sorted.len() as u64, bp) - 1) as usize]
}

/// Median of `v` (mean of the middle pair for even lengths); 0 if empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// Median of integer samples, in the same units; 0 if empty.
pub fn median_u64(v: &[u64]) -> f64 {
    let f: Vec<f64> = v.iter().map(|&x| x as f64).collect();
    median(&f)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Engine counters summed over engines or rounds.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineCounters {
    /// Completions per phase: private, visible, combining, under lock.
    pub phase: [u64; 4],
    /// Combiner sessions.
    pub sessions: u64,
    /// Operations applied by a combiner on another thread's behalf.
    pub helped: u64,
    /// Fallback-lock acquisitions.
    pub lock_acqs: u64,
}

impl EngineCounters {
    /// Adds one snapshot.
    pub fn add(&mut self, s: &ExecStatsSnapshot) {
        for (acc, c) in self.phase.iter_mut().zip(s.completed_by_phase()) {
            *acc += c;
        }
        self.sessions += s.arrays.iter().map(|a| a.sessions).sum::<u64>();
        self.helped += s.arrays.iter().map(|a| a.helped_ops).sum::<u64>();
        self.lock_acqs += s.lock_acqs;
    }

    /// Counts accrued since `before`.
    pub fn minus(&self, before: &Self) -> Self {
        EngineCounters {
            phase: std::array::from_fn(|i| self.phase[i] - before.phase[i]),
            sessions: self.sessions - before.sessions,
            helped: self.helped - before.helped,
            lock_acqs: self.lock_acqs - before.lock_acqs,
        }
    }

    /// Completed operations.
    pub fn ops(&self) -> u64 {
        self.phase.iter().sum()
    }
}

/// Transactional-memory counters summed over instances or rounds.
#[derive(Clone, Copy, Debug, Default)]
pub struct TmemCounters {
    /// Committed transactions.
    pub commits: u64,
    /// Aborts by cause: conflict, capacity (incl. out of memory), explicit.
    pub aborts: [u64; 3],
    /// Transactional loads.
    pub reads: u64,
    /// Transactional stores.
    pub writes: u64,
}

impl TmemCounters {
    /// Adds one snapshot.
    pub fn add(&mut self, s: &TxStatsSnapshot) {
        self.commits += s.commits;
        self.aborts[0] += s.aborts_conflict;
        self.aborts[1] += s.aborts_capacity + s.aborts_oom;
        self.aborts[2] += s.aborts_explicit;
        self.reads += s.tx_reads;
        self.writes += s.tx_writes;
    }

    /// Counts accrued since `before`.
    pub fn minus(&self, before: &Self) -> Self {
        TmemCounters {
            commits: self.commits - before.commits,
            aborts: std::array::from_fn(|i| self.aborts[i] - before.aborts[i]),
            reads: self.reads - before.reads,
            writes: self.writes - before.writes,
        }
    }

    /// Committed share of finished transactions.
    pub fn commit_ratio(&self) -> f64 {
        let total = self.commits + self.aborts.iter().sum::<u64>();
        ratio(self.commits as f64, total as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // 1000 samples: rank 990 leaves exactly 10 beyond p99.
        assert_eq!(beyond(1_000, P99), 10);
        assert!(supported(1_000, P99));
        assert_eq!(highest_supported(1_000), Some(P99));
        // One fewer sample and p99 is no longer supported.
        assert_eq!(beyond(999, P99), 9);
        assert_eq!(highest_supported(999), Some(9_000));
        assert_eq!(highest_supported(10_000), Some(9_990));
        assert_eq!(highest_supported(100_000), Some(9_999));
        assert_eq!(highest_supported(20), Some(P50));
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(0), None);
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<u64> = (1..=1_000).collect();
        assert_eq!(percentile(&v, P50), 500);
        assert_eq!(percentile(&v, P99), 990);
        assert_eq!(percentile(&v, 9_990), 999);
        assert_eq!(percentile(&[7], P99), 7);
        assert_eq!(label(9_990), "p99.9");
        assert_eq!(label(P99), "p99");
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
