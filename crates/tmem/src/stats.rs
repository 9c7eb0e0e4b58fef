//! Per-thread transactional-memory statistics.
//!
//! Every transaction and direct access is counted here, so the counters
//! are kept per thread ([`Striped`]): a thread's bumps stay on its own
//! cache line, as an HTM's read/write-set bookkeeping stays in its own
//! core, and [`TxStats::snapshot`] sums the stripes. A transaction counts
//! its own loads and stores in plain fields and adds them here once, when
//! it ends.

use std::sync::atomic::{AtomicU64, Ordering};

use hcf_util::pad::Striped;

use crate::error::AbortCause;

/// Monotonic counters kept by a [`TMem`](crate::TMem) instance.
///
/// These are *substrate-level* statistics (the HCF framework keeps its own
/// per-phase accounting on top). Each thread counts into its own stripe
/// with relaxed atomics; snapshots sum the stripes, and are exact once
/// the counting threads are joined (and always in the deterministic
/// lockstep runtime).
#[derive(Debug, Default)]
pub struct TxStats {
    stripes: Striped<TxCounters>,
}

/// One thread's stripe of [`TxStats`]: nine counters, 72 bytes, inside
/// one 128-byte padding unit. A [`Txn`](crate::Txn) resolves its stripe
/// once at begin and adds its access counts to it once, when dropped.
#[derive(Debug, Default)]
pub(crate) struct TxCounters {
    commits: AtomicU64,
    aborts_conflict: AtomicU64,
    aborts_capacity: AtomicU64,
    aborts_explicit: AtomicU64,
    aborts_oom: AtomicU64,
    tx_reads: AtomicU64,
    tx_writes: AtomicU64,
    direct_reads: AtomicU64,
    direct_writes: AtomicU64,
}

/// A point-in-time copy of [`TxStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TxStatsSnapshot {
    /// Committed transactions.
    pub commits: u64,
    /// Aborts due to data conflicts.
    pub aborts_conflict: u64,
    /// Aborts due to footprint capacity.
    pub aborts_capacity: u64,
    /// Explicit aborts (lock subscription, status changes, ...).
    pub aborts_explicit: u64,
    /// Aborts due to word-pool exhaustion.
    pub aborts_oom: u64,
    /// Transactional loads.
    pub tx_reads: u64,
    /// Transactional stores.
    pub tx_writes: u64,
    /// Direct (non-transactional) loads.
    pub direct_reads: u64,
    /// Direct (non-transactional) stores.
    pub direct_writes: u64,
}

impl TxStatsSnapshot {
    /// Total aborts of any cause.
    pub fn aborts(&self) -> u64 {
        self.aborts_conflict + self.aborts_capacity + self.aborts_explicit + self.aborts_oom
    }

    /// Commit ratio among finished transactions, in `[0, 1]`; `1.0` when no
    /// transaction finished yet.
    pub fn commit_ratio(&self) -> f64 {
        let total = self.commits + self.aborts();
        if total == 0 {
            1.0
        } else {
            self.commits as f64 / total as f64
        }
    }
}

impl TxCounters {
    pub(crate) fn record_commit(&self) {
        self.commits.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_abort(&self, cause: AbortCause) {
        let ctr = match cause {
            AbortCause::Conflict => &self.aborts_conflict,
            AbortCause::Capacity => &self.aborts_capacity,
            AbortCause::Explicit(_) => &self.aborts_explicit,
            AbortCause::OutOfMemory => &self.aborts_oom,
        };
        ctr.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds one finished transaction's loads and stores. Skips zero
    /// counts: a read-only transaction then does one RMW, not two.
    pub(crate) fn record_tx_accesses(&self, reads: u64, writes: u64) {
        if reads != 0 {
            self.tx_reads.fetch_add(reads, Ordering::Relaxed);
        }
        if writes != 0 {
            self.tx_writes.fetch_add(writes, Ordering::Relaxed);
        }
    }

    pub(crate) fn record_direct_read(&self) {
        self.direct_reads.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_direct_write(&self) {
        self.direct_writes.fetch_add(1, Ordering::Relaxed);
    }
}

impl TxStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// The calling thread's stripe.
    #[inline]
    pub(crate) fn local(&self) -> &TxCounters {
        self.stripes.local()
    }

    /// Takes a snapshot of all counters, summed over the stripes.
    ///
    /// Memory-ordering note: all counters are independent monotonic
    /// `Relaxed` `fetch_add`s — no code synchronizes through them, so
    /// relaxed loads suffice. End-of-run snapshots are exact (the caller
    /// joins worker threads first, which orders all their increments
    /// before the loads, whichever stripes they went to; a transaction
    /// still open is not counted yet); concurrent snapshots may tear
    /// across counters and stripes, but every derived
    /// metric here ([`TxStatsSnapshot::aborts`],
    /// [`TxStatsSnapshot::commit_ratio`]) only *adds* counters, so a torn
    /// snapshot can under-count but never underflow.
    pub fn snapshot(&self) -> TxStatsSnapshot {
        let mut out = TxStatsSnapshot::default();
        for c in self.stripes.iter() {
            out.commits += c.commits.load(Ordering::Relaxed);
            out.aborts_conflict += c.aborts_conflict.load(Ordering::Relaxed);
            out.aborts_capacity += c.aborts_capacity.load(Ordering::Relaxed);
            out.aborts_explicit += c.aborts_explicit.load(Ordering::Relaxed);
            out.aborts_oom += c.aborts_oom.load(Ordering::Relaxed);
            out.tx_reads += c.tx_reads.load(Ordering::Relaxed);
            out.tx_writes += c.tx_writes.load(Ordering::Relaxed);
            out.direct_reads += c.direct_reads.load(Ordering::Relaxed);
            out.direct_writes += c.direct_writes.load(Ordering::Relaxed);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abort_causes_counted_separately() {
        let stats = TxStats::new();
        let s = stats.local();
        s.record_abort(AbortCause::Conflict);
        s.record_abort(AbortCause::Conflict);
        s.record_abort(AbortCause::Capacity);
        s.record_abort(AbortCause::Explicit(1));
        s.record_abort(AbortCause::OutOfMemory);
        let snap = stats.snapshot();
        assert_eq!(snap.aborts_conflict, 2);
        assert_eq!(snap.aborts_capacity, 1);
        assert_eq!(snap.aborts_explicit, 1);
        assert_eq!(snap.aborts_oom, 1);
        assert_eq!(snap.aborts(), 5);
    }

    #[test]
    fn commit_ratio() {
        let stats = TxStats::new();
        let s = stats.local();
        assert_eq!(stats.snapshot().commit_ratio(), 1.0);
        s.record_commit();
        s.record_abort(AbortCause::Conflict);
        assert!((stats.snapshot().commit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn access_counters() {
        let stats = TxStats::new();
        let s = stats.local();
        s.record_tx_accesses(2, 3);
        s.record_tx_accesses(1, 0);
        s.record_direct_read();
        s.record_direct_write();
        let snap = stats.snapshot();
        assert_eq!(
            (
                snap.tx_reads,
                snap.tx_writes,
                snap.direct_reads,
                snap.direct_writes
            ),
            (3, 3, 1, 1)
        );
    }
}
