//! The transactional memory instance.
//!
//! ## Memory-ordering discipline
//!
//! The orec protocol uses the weakest orderings that keep the TL2
//! argument sound (the full argument lives in `DESIGN.md`, "TM hot
//! path"); the building blocks are:
//!
//! * **Publish/consume pairs.** Every store that *publishes* data (a
//!   commit's word stores, a direct write's word store, an orec unlock)
//!   is `Release`; every load that can *observe* published data (a
//!   reader's orec and word loads, a commit's lock CAS on success) is
//!   `Acquire`. A reader that sees published data therefore also sees
//!   the locked/bumped orec that guards it, and aborts.
//! * **One Dekker pair.** `writeback_enter` vs [`TMem::quiesce`] is a
//!   store-buffering race (committer: *enter window, then validate the
//!   lock word*; lock acquirer: *bump lock word, then read the
//!   window counter*). Release/Acquire cannot exclude the case where
//!   both sides miss each other's store, so both sides carry a
//!   `SeqCst` fence between their store and their load. These are the
//!   only sequentially-consistent operations on the hot path.
//! * **Counters.** The clock is `Acquire`/`AcqRel` (its values order
//!   commits against snapshots; data visibility rides on the orec
//!   pairs above, so `SeqCst` buys nothing).

use std::fmt;
use std::sync::atomic::{fence, AtomicU64, AtomicUsize, Ordering};

use hcf_util::pad::CachePadded;

use crate::addr::Addr;
use crate::alloc::Allocator;
use crate::config::TMemConfig;
use crate::error::TxResult;
use crate::orec::OrecValue;
use crate::runtime::{AccessKind, Runtime};
use crate::stats::{TxStats, TxStatsSnapshot};
use crate::txn::Txn;

/// A word-addressable transactional memory with line-granularity conflict
/// detection. See the [crate docs](crate) for the overall model.
///
/// All state lives in pre-sized arrays of atomics, so the structure is
/// `Send + Sync` and fully safe Rust. The global metadata words (clock,
/// write-back window counter) and each orec are [`CachePadded`]: orecs
/// are the single most contended array in the system — every
/// transactional access touches one — and without padding sixteen
/// *logically disjoint* orecs share each physical cache line, so
/// transactions on disjoint data still ping-pong metadata lines.
///
/// Every field written after [`TMem::new`] is padded; the unpadded fields
/// (`cfg`, `words`, `orecs`) are read-only, so no field order rustc picks
/// can put a read-mostly pointer on a line other threads keep writing.
pub struct TMem {
    cfg: TMemConfig,
    words: Box<[AtomicU64]>,
    /// One ownership record per line, each owning a real cache line.
    orecs: Box<[CachePadded<AtomicU64>]>,
    /// TL2 global version clock. Padded: every writer commit writes it,
    /// and nothing else may share its line.
    clock: CachePadded<AtomicU64>,
    /// Number of transactions currently between read-set validation and the
    /// end of write-back. [`TMem::quiesce`] waits for this to reach zero;
    /// see [`ElidableLock`](crate::ElidableLock) for the protocol.
    writeback_active: CachePadded<AtomicUsize>,
    /// Padded: allocs and frees write its bump pointer and free lists.
    alloc: CachePadded<Allocator>,
    /// Padded: every transactional access increments a counter here.
    stats: CachePadded<TxStats>,
}

impl TMem {
    /// Creates a memory per `cfg`, zero-initialized.
    pub fn new(cfg: TMemConfig) -> Self {
        let words = (0..cfg.words).map(|_| AtomicU64::new(0)).collect();
        let orecs = (0..cfg.lines())
            .map(|_| CachePadded::new(AtomicU64::new(0)))
            .collect();
        let alloc = Allocator::new(cfg.words);
        TMem {
            cfg,
            words,
            orecs,
            clock: CachePadded::new(AtomicU64::new(0)),
            writeback_active: CachePadded::new(AtomicUsize::new(0)),
            alloc: CachePadded::new(alloc),
            stats: CachePadded::new(TxStats::new()),
        }
    }

    /// This memory's configuration.
    pub fn config(&self) -> &TMemConfig {
        &self.cfg
    }

    /// The conflict-detection line containing `addr`.
    #[inline]
    pub fn line_of(&self, addr: Addr) -> usize {
        (addr.0 as usize) >> self.cfg.words_per_line_log2
    }

    /// Current value of the global version clock.
    ///
    /// `Acquire`: pairs with the `AcqRel` bumps, so a thread that reads
    /// clock value `V` as its snapshot also observes everything that
    /// happened before the bump to `V` (smaller values would only cause
    /// spurious aborts, but the pairing keeps snapshots monotone across
    /// threads that synchronize through the clock).
    #[inline]
    pub fn clock(&self) -> u64 {
        self.clock.load(Ordering::Acquire)
    }

    /// Advances the clock and returns the new value. `AcqRel`: the bump
    /// both publishes the bumping thread's prior work to later snapshot
    /// readers (`Release` half) and orders it after earlier bumps it
    /// builds on (`Acquire` half).
    pub(crate) fn bump_clock(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::AcqRel) + 1
    }

    #[inline]
    pub(crate) fn word(&self, addr: Addr) -> &AtomicU64 {
        &self.words[addr.0 as usize]
    }

    #[inline]
    pub(crate) fn orec(&self, line: usize) -> &AtomicU64 {
        &self.orecs[line]
    }

    pub(crate) fn stats_ref(&self) -> &TxStats {
        &self.stats
    }

    /// Enters the commit write-back window.
    ///
    /// The `SeqCst` fence forms a Dekker pair with the one in
    /// [`TMem::quiesce`]: the committer *stores* the window counter then
    /// *loads* orecs (read validation, including any subscribed lock
    /// word); a lock acquirer *stores* its lock word then *loads* the
    /// window counter. With weaker orderings both loads could read the
    /// old values — the committer misses the acquisition and the
    /// acquirer misses the in-flight write-back — and the lock holder
    /// would read half-published data.
    pub(crate) fn writeback_enter(&self) {
        self.writeback_active.fetch_add(1, Ordering::Relaxed);
        // hcf-lint: allow(seqcst) — Dekker pair with `quiesce`, see above.
        fence(Ordering::SeqCst);
    }

    /// Leaves the write-back window. `Release`: pairs with the `Acquire`
    /// loads in [`TMem::quiesce`], so a quiescer that observes the
    /// counter at zero also observes every word/orec store the exiting
    /// committer published.
    pub(crate) fn writeback_exit(&self) {
        self.writeback_active.fetch_sub(1, Ordering::Release);
    }

    /// Begins a transaction. The returned [`Txn`] borrows this memory and
    /// the runtime; commit or drop it before starting another on the same
    /// thread.
    pub fn begin<'m>(&'m self, rt: &'m dyn Runtime) -> Txn<'m> {
        Txn::new(self, rt)
    }

    /// Non-transactional load.
    ///
    /// Safe to call concurrently with transactions, but the caller only
    /// gets *consistency across multiple reads* when it holds an
    /// [`ElidableLock`](crate::ElidableLock) that all transactions
    /// subscribe to (the lock's acquire quiesces in-flight write-backs), or
    /// when no other thread is running. A lone `read_direct` is always
    /// atomic at word granularity and is appropriate for heuristics
    /// (spin-waiting on a status word, reading a look-aside hint).
    pub fn read_direct(&self, rt: &dyn Runtime, addr: Addr) -> u64 {
        self.stats.record_direct_read();
        rt.mem_access(self.line_of(addr), AccessKind::Read);
        // Acquire: pairs with the Release word stores of commits and
        // direct writes, so observing a published value also makes
        // everything the writer did before it visible to this thread.
        self.word(addr).load(Ordering::Acquire)
    }

    /// Non-transactional store. Bumps the line version so every in-flight
    /// transaction that read the line aborts — this is what makes direct
    /// writes by a lock holder (or by an HCF combiner during selection)
    /// visible as conflicts to speculating transactions.
    pub fn write_direct(&self, rt: &dyn Runtime, addr: Addr, value: u64) {
        self.stats.record_direct_write();
        rt.mem_access(self.line_of(addr), AccessKind::Write);
        let line = self.line_of(addr);
        let old = self.lock_orec_spin(line);
        // Release: a transactional reader whose Acquire word load sees
        // this value must also see the locked orec stored before it
        // (lock CAS ≺ word store by the CAS's Acquire), so its o2
        // re-check fails and it aborts instead of keeping the new data
        // under the old version.
        self.word(addr).store(value, Ordering::Release);
        let wv = self.bump_clock();
        // The clock is strictly ahead of every published version.
        debug_assert!(wv > old.version());
        // Release: publishes the word store above to readers whose
        // Acquire orec load observes the new version.
        self.orec(line).store(OrecValue::unlocked(wv).raw(), Ordering::Release);
        // Guarded: when dormant the hook must not evaluate `thread_id()`
        // (the real runtime assigns dense ids on first touch, and the
        // sanitizer must not perturb that order).
        #[cfg(feature = "txsan")]
        if crate::san::enabled() {
            crate::san::log(crate::san::SanEvent::DirectWrite {
                tid: rt.thread_id() as u64,
                addr: addr.0,
                value,
                wv,
            });
        }
    }

    /// Fault-injection hook for the sanitizer's negative tests: stores
    /// `value` **without** locking the line's orec or bumping its version,
    /// so in-flight readers of the line do not abort — a torn write. The
    /// store is still logged, which is how the replay checker proves it
    /// breaks serializability.
    #[cfg(feature = "txsan")]
    pub fn torn_write_direct(&self, rt: &dyn Runtime, addr: Addr, value: u64) {
        rt.mem_access(self.line_of(addr), AccessKind::Write);
        // Release matches `write_direct`'s word store; the injected
        // fault is the *missing orec protocol*, not a weaker ordering.
        self.word(addr).store(value, Ordering::Release);
        if crate::san::enabled() {
            crate::san::log(crate::san::SanEvent::DirectWrite {
                tid: rt.thread_id() as u64,
                addr: addr.0,
                value,
                wv: 0,
            });
        }
    }

    /// Non-transactional compare-and-swap on a word. On success the line
    /// version is bumped (like [`TMem::write_direct`]); on failure the
    /// current value is returned and the line is left untouched.
    pub fn cas_direct(
        &self,
        rt: &dyn Runtime,
        addr: Addr,
        expected: u64,
        new: u64,
    ) -> Result<(), u64> {
        rt.mem_access(self.line_of(addr), AccessKind::Write);
        let line = self.line_of(addr);
        let old = self.lock_orec_spin(line);
        // Acquire: pairs with the Release stores of whichever writer
        // published the current value (belt on top of the lock CAS's
        // Acquire, which already orders us after the previous owner).
        let cur = self.word(addr).load(Ordering::Acquire);
        if cur != expected {
            // Release: restoring the original orec value unlocks the
            // line; waiters' Acquire loads must see our (lack of)
            // changes before treating it as free.
            self.orec(line).store(old.raw(), Ordering::Release);
            return Err(cur);
        }
        self.stats.record_direct_write();
        // Release/Release: same publish pair as `write_direct`.
        self.word(addr).store(new, Ordering::Release);
        let wv = self.bump_clock();
        self.orec(line).store(OrecValue::unlocked(wv).raw(), Ordering::Release);
        // Guarded like `write_direct`: no `thread_id()` while dormant.
        #[cfg(feature = "txsan")]
        if crate::san::enabled() {
            crate::san::log(crate::san::SanEvent::DirectWrite {
                tid: rt.thread_id() as u64,
                addr: addr.0,
                value: new,
                wv,
            });
        }
        Ok(())
    }

    /// Spin-locks `line`'s orec and returns the previous (unlocked) value.
    ///
    /// Orec locks are only ever held for a bounded, yield-free critical
    /// section (commit write-back or a single direct store), so spinning
    /// here cannot deadlock — including under the lockstep runtime, where
    /// holders never park while a lock is held.
    fn lock_orec_spin(&self, line: usize) -> OrecValue {
        loop {
            // Relaxed: the value is only a CAS candidate; the CAS
            // re-validates it.
            let cur = OrecValue(self.orec(line).load(Ordering::Relaxed));
            if !cur.is_locked()
                && self
                    .orec(line)
                    .compare_exchange(
                        cur.raw(),
                        cur.locked().raw(),
                        // Acquire on success: synchronizes with the
                        // previous owner's Release unlock, so our
                        // subsequent word accesses see its published
                        // data; it also pins our later word store after
                        // the lock in program order (a reader observing
                        // that store therefore observes a locked orec).
                        Ordering::Acquire,
                        // Relaxed on failure: we just retry.
                        Ordering::Relaxed,
                    )
                    .is_ok()
            {
                return cur;
            }
            std::hint::spin_loop();
        }
    }

    /// Waits until no transaction is in its commit write-back window.
    ///
    /// Called by [`ElidableLock`](crate::ElidableLock) right after the lock
    /// word is set: transactions that validated *before* the acquisition
    /// may still be publishing their writes; once they drain, the holder's
    /// direct reads observe a consistent memory (all later transactions
    /// fail validation against the bumped lock word).
    pub fn quiesce(&self, rt: &dyn Runtime) {
        // Dekker pair with `writeback_enter` (see there): the caller
        // stored its lock word just before quiescing, and that store
        // must be globally visible before we conclude no write-back is
        // in flight.
        // hcf-lint: allow(seqcst) — Dekker pair with `writeback_enter`.
        fence(Ordering::SeqCst);
        let mut attempt = 0u32;
        // Acquire: pairs with `writeback_exit`'s Release, so reading
        // zero proves every draining committer's publishes are visible.
        while self.writeback_active.load(Ordering::Acquire) != 0 {
            rt.backoff(attempt);
            attempt = attempt.saturating_add(1);
        }
    }

    /// Allocates and zeroes a block outside any transaction.
    ///
    /// # Errors
    ///
    /// [`AbortCause::OutOfMemory`](crate::AbortCause::OutOfMemory) when the
    /// pool is exhausted.
    pub fn alloc_direct(&self, words: usize) -> TxResult<Addr> {
        let a = self.alloc.alloc(words)?;
        // Zero through the orec protocol so stale readers of a recycled
        // block abort (the version bump invalidates them).
        for i in 0..words as u64 {
            let line = self.line_of(a + i);
            let _old = self.lock_orec_spin(line);
            // Release/Release: same publish pair as `write_direct`.
            self.word(a + i).store(0, Ordering::Release);
            let wv = self.bump_clock();
            self.orec(line).store(OrecValue::unlocked(wv).raw(), Ordering::Release);
            #[cfg(feature = "txsan")]
            crate::san::log(crate::san::SanEvent::DirectWrite {
                tid: crate::san::TID_NONE,
                addr: (a + i).0,
                value: 0,
                wv,
            });
        }
        Ok(a)
    }

    /// Allocates a block aligned to a line boundary (for headers and locks
    /// that should not share a line with unrelated data).
    pub fn alloc_line_direct(&self, words: usize) -> TxResult<Addr> {
        let a = self.alloc.alloc_aligned(words, self.cfg.words_per_line())?;
        for i in 0..words as u64 {
            // Release: fresh-block zeroing is published the same way as
            // any other direct store (readers pair with Acquire loads).
            self.word(a + i).store(0, Ordering::Release);
            #[cfg(feature = "txsan")]
            crate::san::log(crate::san::SanEvent::DirectWrite {
                tid: crate::san::TID_NONE,
                addr: (a + i).0,
                value: 0,
                wv: 0,
            });
        }
        Ok(a)
    }

    /// Returns a block to the pool. See [`Allocator::free`] for why the
    /// contents are left untouched.
    pub fn free_direct(&self, addr: Addr, words: usize) {
        self.alloc.free(addr, words);
    }

    pub(crate) fn allocator(&self) -> &Allocator {
        &self.alloc
    }

    /// Substrate statistics accumulated so far.
    pub fn stats(&self) -> TxStatsSnapshot {
        self.stats.snapshot()
    }
}

impl fmt::Debug for TMem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TMem")
            .field("words", &self.cfg.words)
            .field("lines", &self.cfg.lines())
            .field("clock", &self.clock())
            .field("alloc", &self.alloc)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::RealRuntime;

    fn setup() -> (TMem, RealRuntime) {
        (TMem::new(TMemConfig::small_word_granular()), RealRuntime::new())
    }

    #[test]
    fn direct_read_write_round_trip() {
        let (m, rt) = setup();
        let a = m.alloc_direct(1).unwrap();
        m.write_direct(&rt, a, 1234);
        assert_eq!(m.read_direct(&rt, a), 1234);
    }

    #[test]
    fn direct_write_bumps_line_version() {
        let (m, rt) = setup();
        let a = m.alloc_direct(1).unwrap();
        let before = OrecValue(m.orec(m.line_of(a)).load(Ordering::Relaxed));
        m.write_direct(&rt, a, 7);
        let after = OrecValue(m.orec(m.line_of(a)).load(Ordering::Relaxed));
        assert!(after.version() > before.version());
        assert!(!after.is_locked());
    }

    #[test]
    fn cas_direct_success_and_failure() {
        let (m, rt) = setup();
        let a = m.alloc_direct(1).unwrap();
        assert_eq!(m.cas_direct(&rt, a, 0, 5), Ok(()));
        assert_eq!(m.cas_direct(&rt, a, 0, 9), Err(5));
        assert_eq!(m.read_direct(&rt, a), 5);
    }

    #[test]
    fn cas_failure_does_not_bump_version() {
        let (m, rt) = setup();
        let a = m.alloc_direct(1).unwrap();
        m.write_direct(&rt, a, 1);
        let before = m.orec(m.line_of(a)).load(Ordering::Relaxed);
        let _ = m.cas_direct(&rt, a, 99, 100);
        let after = m.orec(m.line_of(a)).load(Ordering::Relaxed);
        assert_eq!(before, after);
    }

    #[test]
    fn line_mapping_respects_granularity() {
        let m = TMem::new(TMemConfig {
            words: 64,
            words_per_line_log2: 3,
            ..TMemConfig::default()
        });
        assert_eq!(m.line_of(Addr(0)), 0);
        assert_eq!(m.line_of(Addr(7)), 0);
        assert_eq!(m.line_of(Addr(8)), 1);
    }

    #[test]
    fn alloc_direct_zeroes_recycled_blocks() {
        let (m, rt) = setup();
        let a = m.alloc_direct(2).unwrap();
        m.write_direct(&rt, a, 11);
        m.write_direct(&rt, a + 1, 22);
        m.free_direct(a, 2);
        let b = m.alloc_direct(2).unwrap();
        assert_eq!(b, a, "size-class recycling");
        assert_eq!(m.read_direct(&rt, b), 0);
        assert_eq!(m.read_direct(&rt, b + 1), 0);
    }

    #[test]
    fn quiesce_returns_when_no_writebacks() {
        let (m, rt) = setup();
        m.quiesce(&rt); // must not hang
    }

    #[test]
    fn stats_track_direct_accesses() {
        let (m, rt) = setup();
        let a = m.alloc_direct(1).unwrap();
        m.write_direct(&rt, a, 1);
        let _ = m.read_direct(&rt, a);
        let s = m.stats();
        assert!(s.direct_writes >= 1);
        assert!(s.direct_reads >= 1);
    }
}
