//! TL2-style transactions with opacity.

use std::fmt;
use std::sync::atomic::Ordering;

use crate::addr::Addr;
use crate::error::{AbortCause, TxResult};
use crate::mem::TMem;
use crate::orec::OrecValue;
use crate::runtime::{AccessKind, Runtime, TxEvent};
use crate::txset::TxnScratch;

/// An in-flight transaction.
///
/// Reads validate the line version against the begin-time clock snapshot
/// (opacity: a transaction never observes an inconsistent state, so no
/// "zombie" executions loop on garbage). Writes are buffered and published
/// at [`Txn::commit`] after write-locking the affected lines and
/// re-validating the read set.
///
/// The `Err(AbortCause)` returned by [`read`](Txn::read)/[`write`](Txn::write)
/// is sticky: once poisoned, every subsequent operation fails with the same
/// cause, so user code can simply propagate with `?` and let the retry loop
/// inspect the cause.
///
/// All heap-backed state lives in a pooled [`TxnScratch`] taken from the
/// runtime at begin and returned at drop, so after per-thread warm-up the
/// whole begin/read/write/commit cycle allocates nothing.
pub struct Txn<'m> {
    mem: &'m TMem,
    rt: &'m dyn Runtime,
    /// Begin-time snapshot of the global clock.
    rv: u64,
    /// Read set, write set, line bookkeeping and commit scratch (pooled).
    scratch: TxnScratch,
    poisoned: Option<AbortCause>,
    finished: bool,
    /// Sanitizer identity of this transaction (see [`crate::san`]).
    #[cfg(feature = "txsan")]
    san_id: u64,
}

impl<'m> Txn<'m> {
    pub(crate) fn new(mem: &'m TMem, rt: &'m dyn Runtime) -> Self {
        rt.tx_event(TxEvent::Begin);
        let rv = mem.clock();
        #[cfg(feature = "txsan")]
        let san_id = crate::san::fresh_id();
        // When dormant the hook must not even *evaluate* `thread_id()`:
        // `RealRuntime` assigns dense ids on first touch, and perturbing
        // that order would change uninstrumented behavior.
        #[cfg(feature = "txsan")]
        if crate::san::enabled() {
            crate::san::log(crate::san::SanEvent::TxBegin {
                txid: san_id,
                tid: rt.thread_id() as u64,
                rv,
            });
        }
        Txn {
            mem,
            rt,
            rv,
            scratch: rt.take_scratch(),
            poisoned: None,
            finished: false,
            #[cfg(feature = "txsan")]
            san_id,
        }
    }

    #[cfg(feature = "txsan")]
    fn san_abort(&self, cause: AbortCause) {
        crate::san::log(crate::san::SanEvent::TxAborted {
            txid: self.san_id,
            cause: crate::san::encode_cause(cause),
        });
    }

    fn poison(&mut self, cause: AbortCause) -> AbortCause {
        *self.poisoned.get_or_insert(cause)
    }

    fn check_poison(&self) -> TxResult<()> {
        match self.poisoned {
            Some(c) => Err(c),
            None => Ok(()),
        }
    }

    /// The abort cause if this transaction has already failed.
    pub fn abort_cause(&self) -> Option<AbortCause> {
        self.poisoned
    }

    /// Number of distinct lines read so far.
    pub fn read_footprint(&self) -> usize {
        self.scratch.reads.len()
    }

    /// Number of distinct lines written so far (O(1): the line set is
    /// maintained incrementally by [`write`](Txn::write)).
    pub fn write_footprint(&self) -> usize {
        self.scratch.write_lines.len()
    }

    /// Transactional load.
    ///
    /// # Errors
    ///
    /// [`AbortCause::Conflict`] if the line is write-locked or changed
    /// since the transaction began; [`AbortCause::Capacity`] if the read
    /// footprint exceeds the configured limit.
    pub fn read(&mut self, addr: Addr) -> TxResult<u64> {
        self.check_poison()?;
        if let Some(v) = self.scratch.writes.get(addr.0) {
            return Ok(v);
        }
        self.mem.stats_ref().record_tx_read();
        let line = self.mem.line_of(addr);
        self.rt.mem_access(line, AccessKind::Read);
        // The o1/data/o2 sandwich. Orderings:
        //  * o1 Acquire — pairs with a committer's Release publish, so a
        //    version we accept comes with the data stores it guards;
        //  * data Acquire — (a) keeps the o2 load below from being
        //    hoisted above the data read, and (b) pairs with the
        //    Release word store of a concurrent writer, so if we *do*
        //    observe in-flight data the happens-before edge forces o2
        //    to observe that writer's lock CAS and the check fails;
        //  * o2 Relaxed — it is ordered after the data load by the data
        //    load's Acquire, and per-location coherence already
        //    guarantees it reads a value no older than o1.
        let o1 = OrecValue(self.mem.orec(line).load(Ordering::Acquire));
        if o1.is_locked() || o1.version() > self.rv {
            return Err(self.poison(AbortCause::Conflict));
        }
        let v = self.mem.word(addr).load(Ordering::Acquire);
        let o2 = OrecValue(self.mem.orec(line).load(Ordering::Relaxed));
        if o1 != o2 {
            return Err(self.poison(AbortCause::Conflict));
        }
        match self.scratch.reads.get(line as u64) {
            Some(rec) if rec != o1.raw() => return Err(self.poison(AbortCause::Conflict)),
            Some(_) => {}
            None => {
                if self.scratch.reads.len() >= self.mem.config().read_cap_lines {
                    return Err(self.poison(AbortCause::Capacity));
                }
                self.scratch.reads.insert(line as u64, o1.raw());
            }
        }
        #[cfg(feature = "txsan")]
        crate::san::log(crate::san::SanEvent::TxRead {
            txid: self.san_id,
            addr: addr.0,
            value: v,
            orec: o1.raw(),
            line: line as u64,
        });
        Ok(v)
    }

    /// Transactional (buffered) store.
    ///
    /// # Errors
    ///
    /// [`AbortCause::Capacity`] if the write footprint exceeds the
    /// configured limit.
    pub fn write(&mut self, addr: Addr, value: u64) -> TxResult<()> {
        self.check_poison()?;
        self.mem.stats_ref().record_tx_write();
        let line = self.mem.line_of(addr);
        if self.scratch.writes.get(addr.0).is_none() {
            // Encounter-time coherence event: TSX takes lines exclusive at
            // first write, which is what perturbs other threads' caches.
            self.rt.mem_access(line, AccessKind::Write);
            if !self.scratch.write_lines.contains(line) {
                if self.scratch.write_lines.len() >= self.mem.config().write_cap_lines {
                    return Err(self.poison(AbortCause::Capacity));
                }
                self.scratch.write_lines.insert(line);
            }
        }
        self.scratch.writes.insert(addr.0, value);
        #[cfg(feature = "txsan")]
        crate::san::log(crate::san::SanEvent::TxWrite {
            txid: self.san_id,
            addr: addr.0,
            value,
        });
        Ok(())
    }

    /// Explicitly aborts with code `code` (the `xabort` analogue).
    ///
    /// Always returns `Err`, so call sites can write
    /// `return tx_ctx.explicit_abort(code).map(|_| unreachable)`-free code
    /// by propagating the error.
    pub fn explicit_abort(&mut self, code: u8) -> TxResult<()> {
        self.check_poison()?;
        Err(self.poison(AbortCause::Explicit(code)))
    }

    /// Allocates a zeroed block inside this transaction. The zeroed words
    /// enter the write set (a TSX transaction would buffer them in L1 the
    /// same way), so reads of the fresh block hit the write buffer, and the
    /// block is published — with its line versions bumped — only on commit.
    /// On abort the block is returned to the pool.
    ///
    /// # Errors
    ///
    /// [`AbortCause::OutOfMemory`] or [`AbortCause::Capacity`].
    pub fn alloc(&mut self, words: usize) -> TxResult<Addr> {
        self.check_poison()?;
        let a = self.mem.allocator().alloc(words).map_err(|e| self.poison(e))?;
        self.scratch.allocs.push((a, words));
        for i in 0..words as u64 {
            self.write(a + i, 0)?;
        }
        Ok(a)
    }

    /// Allocates one zeroed word on a cache line of its own (padding for
    /// contended words such as per-end deque anchors). The whole line is
    /// reserved; free with the line's word count.
    ///
    /// # Errors
    ///
    /// [`AbortCause::OutOfMemory`] or [`AbortCause::Capacity`].
    pub fn alloc_line(&mut self) -> TxResult<Addr> {
        self.check_poison()?;
        let wpl = self.mem.config().words_per_line();
        let a = self
            .mem
            .allocator()
            .alloc_aligned(wpl, wpl)
            .map_err(|e| self.poison(e))?;
        self.scratch.allocs.push((a, wpl));
        for i in 0..wpl as u64 {
            self.write(a + i, 0)?;
        }
        Ok(a)
    }

    /// Schedules a block to be freed if (and only if) this transaction
    /// commits.
    pub fn free(&mut self, addr: Addr, words: usize) {
        self.scratch.frees.push((addr, words));
    }

    /// Attempts to commit. Consumes the transaction.
    ///
    /// # Errors
    ///
    /// Returns the abort cause on failure; buffered writes are discarded
    /// and blocks allocated inside the transaction are returned to the
    /// pool.
    pub fn commit(mut self) -> Result<(), AbortCause> {
        if let Some(c) = self.poisoned {
            #[cfg(feature = "txsan")]
            self.san_abort(c);
            self.rollback_internal();
            return Err(c);
        }
        // Charge the commit cost up front: `advance` may park us in the
        // lockstep runtime and nothing below may hold a lock across a park.
        self.rt.tx_event(TxEvent::Commit);
        if self.scratch.writes.is_empty() {
            // Read-only transactions were validated read-by-read against
            // `rv`; nothing to publish.
            self.finished = true;
            self.mem.stats_ref().record_commit();
            // Guarded: `thread_id()` must not be evaluated while dormant
            // (it assigns ids on the real runtime).
            #[cfg(feature = "txsan")]
            if crate::san::enabled() {
                crate::san::log(crate::san::SanEvent::TxCommitted {
                    txid: self.san_id,
                    tid: self.rt.thread_id() as u64,
                    wv: 0,
                    n_writes: 0,
                });
            }
            self.execute_frees();
            return Ok(());
        }

        let mem = self.mem;

        // Phase 1: write-lock the write lines. `write_lines` is
        // maintained sorted, which is both the deadlock-free global lock
        // order and free of the collect/sort/dedup the old code did per
        // commit. No yields or advances from here to release, so lock
        // holders never park.
        let failed = {
            let scratch = &mut self.scratch;
            debug_assert!(scratch.locked.is_empty());
            let mut failed = false;
            for &line in scratch.write_lines.as_slice() {
                // Relaxed load: only a CAS candidate, re-validated by the
                // CAS itself.
                let cur = OrecValue(mem.orec(line).load(Ordering::Relaxed));
                let consistent_with_reads = match scratch.reads.get(line as u64) {
                    Some(rec) => rec == cur.raw(),
                    None => true,
                };
                if cur.is_locked()
                    || !consistent_with_reads
                    || mem
                        .orec(line)
                        .compare_exchange(
                            cur.raw(),
                            cur.locked().raw(),
                            // Acquire on success: synchronizes with the
                            // previous owner's Release unlock so our word
                            // stores (and validation loads) are ordered
                            // after its published data; failure is just a
                            // retry-later, Relaxed.
                            Ordering::Acquire,
                            Ordering::Relaxed,
                        )
                        .is_err()
                {
                    for &(l, orig) in &scratch.locked {
                        // Release: unlocking must publish nothing-changed
                        // to the next Acquire locker.
                        mem.orec(l).store(orig, Ordering::Release);
                    }
                    failed = true;
                    break;
                }
                scratch.locked.push((line, cur.raw()));
            }
            failed
        };
        if failed {
            return Err(self.abort_commit(false));
        }

        // Phase 2: enter the write-back window *before* validating, so a
        // lock acquirer that bumps its lock word after our validation
        // passes will wait for us in `quiesce` (the SeqCst Dekker pair
        // lives inside `writeback_enter`/`quiesce`). Every writer commit
        // advances the global clock and publishes with the new value.
        mem.writeback_enter();
        let wv = mem.bump_clock();

        // Phase 3: validate the read set.
        let failed = {
            let scratch = &mut self.scratch;
            let mut failed = false;
            for &(line, rec) in scratch.reads.iter() {
                if scratch.write_lines.contains(line as usize) {
                    continue; // we hold this line's write lock
                }
                // Acquire: pairs with writers' Release publishes; an
                // unchanged orec here proves the line's data is still the
                // begin-snapshot version. (The load is ordered after the
                // writeback_enter fence, closing the Dekker race with
                // lock acquirers.)
                let cur = mem.orec(line as usize).load(Ordering::Acquire);
                if cur != rec {
                    for &(l, orig) in &scratch.locked {
                        mem.orec(l).store(orig, Ordering::Release);
                    }
                    failed = true;
                    break;
                }
            }
            failed
        };
        if failed {
            mem.writeback_exit();
            return Err(self.abort_commit(true));
        }

        // Phase 4: publish. Word stores are Release: a reader's Acquire
        // data load that observes one of them is then guaranteed to
        // observe our lock CAS in its o2 re-check and abort. The final
        // orec stores are Release so that a reader accepting the new
        // version also sees all the data published under it.
        {
            let scratch = &self.scratch;
            for &(addr, val) in scratch.writes.iter() {
                mem.word(Addr(addr)).store(val, Ordering::Release);
            }
            let unlocked = OrecValue::unlocked(wv).raw();
            for &(line, _) in &scratch.locked {
                mem.orec(line).store(unlocked, Ordering::Release);
            }
        }
        mem.writeback_exit();

        // Guarded: `thread_id()` must not be evaluated while dormant (it
        // assigns ids on the real runtime).
        #[cfg(feature = "txsan")]
        if crate::san::enabled() {
            for &(addr, val) in self.scratch.writes.iter() {
                crate::san::log(crate::san::SanEvent::TxCommitWrite {
                    txid: self.san_id,
                    addr,
                    value: val,
                    wv,
                });
            }
            crate::san::log(crate::san::SanEvent::TxCommitted {
                txid: self.san_id,
                tid: self.rt.thread_id() as u64,
                wv,
                n_writes: self.scratch.writes.len() as u64,
            });
        }

        self.finished = true;
        self.mem.stats_ref().record_commit();
        self.execute_frees();
        Ok(())
    }

    /// Shared tail of the two in-commit abort paths (locks already
    /// released by the caller; `exited_writeback` tells whether phase 2
    /// was reached). Keeps the runtime-hook order identical to the
    /// pre-scratch code: unlock stores, then `TxEvent::Abort`.
    fn abort_commit(&mut self, _exited_writeback: bool) -> AbortCause {
        self.rt.tx_event(TxEvent::Abort);
        self.mem.stats_ref().record_abort(AbortCause::Conflict);
        #[cfg(feature = "txsan")]
        self.san_abort(AbortCause::Conflict);
        self.rollback_internal();
        AbortCause::Conflict
    }

    /// Abandons the transaction, returning its abort cause (or the given
    /// default if the body failed without poisoning, which happens when the
    /// caller decides to abort for its own reasons).
    pub fn rollback(mut self, default_cause: AbortCause) -> AbortCause {
        let cause = self.poisoned.unwrap_or(default_cause);
        self.rt.tx_event(TxEvent::Abort);
        self.mem.stats_ref().record_abort(cause);
        #[cfg(feature = "txsan")]
        self.san_abort(cause);
        self.rollback_internal();
        cause
    }

    fn rollback_internal(&mut self) {
        self.finished = true;
        for (a, w) in self.scratch.allocs.drain(..) {
            self.mem.allocator().free(a, w);
        }
        self.scratch.reset();
    }

    fn execute_frees(&mut self) {
        for (a, w) in self.scratch.frees.drain(..) {
            self.mem.allocator().free(a, w);
        }
        self.scratch.allocs.clear();
    }
}

impl fmt::Debug for Txn<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Txn")
            .field("rv", &self.rv)
            .field("reads", &self.scratch.reads.len())
            .field("writes", &self.scratch.writes.len())
            .field("poisoned", &self.poisoned)
            .finish()
    }
}

impl Drop for Txn<'_> {
    fn drop(&mut self) {
        if !self.finished {
            // Dropped without commit/rollback (e.g. `?` propagation past
            // the transaction): count it as an abort and recycle allocs.
            self.rt.tx_event(TxEvent::Abort);
            self.mem
                .stats_ref()
                .record_abort(self.poisoned.unwrap_or(AbortCause::Conflict));
            #[cfg(feature = "txsan")]
            self.san_abort(self.poisoned.unwrap_or(AbortCause::Conflict));
            self.rollback_internal();
        }
        // Return the scratch (reset by the pool) for the next transaction
        // on this thread.
        self.rt.put_scratch(std::mem::take(&mut self.scratch));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TMemConfig;
    use crate::runtime::RealRuntime;

    fn setup() -> (TMem, RealRuntime) {
        (TMem::new(TMemConfig::small_word_granular()), RealRuntime::new())
    }

    #[test]
    fn read_write_commit() {
        let (m, rt) = setup();
        let a = m.alloc_direct(2).unwrap();
        let mut tx = m.begin(&rt);
        tx.write(a, 10).unwrap();
        tx.write(a + 1, 20).unwrap();
        assert_eq!(tx.read(a).unwrap(), 10, "read-your-own-write");
        tx.commit().unwrap();
        assert_eq!(m.read_direct(&rt, a), 10);
        assert_eq!(m.read_direct(&rt, a + 1), 20);
    }

    #[test]
    fn buffered_writes_invisible_until_commit() {
        let (m, rt) = setup();
        let a = m.alloc_direct(1).unwrap();
        let mut tx = m.begin(&rt);
        tx.write(a, 99).unwrap();
        assert_eq!(m.read_direct(&rt, a), 0);
        tx.commit().unwrap();
        assert_eq!(m.read_direct(&rt, a), 99);
    }

    #[test]
    fn rollback_discards_writes() {
        let (m, rt) = setup();
        let a = m.alloc_direct(1).unwrap();
        let mut tx = m.begin(&rt);
        tx.write(a, 99).unwrap();
        let cause = tx.rollback(AbortCause::Explicit(1));
        assert_eq!(cause, AbortCause::Explicit(1));
        assert_eq!(m.read_direct(&rt, a), 0);
    }

    #[test]
    fn direct_write_conflicts_reader() {
        let (m, rt) = setup();
        let a = m.alloc_direct(1).unwrap();
        let mut tx = m.begin(&rt);
        assert_eq!(tx.read(a).unwrap(), 0);
        m.write_direct(&rt, a, 5); // lock holder / combiner writes
        // The read set is now stale; commit of a dependent write must fail.
        tx.write(a, 1).unwrap();
        assert_eq!(tx.commit().unwrap_err(), AbortCause::Conflict);
        assert_eq!(m.read_direct(&rt, a), 5);
    }

    #[test]
    fn read_after_direct_write_aborts_eagerly() {
        let (m, rt) = setup();
        let a = m.alloc_direct(1).unwrap();
        let mut tx = m.begin(&rt);
        m.write_direct(&rt, a, 5);
        // Version is now newer than the begin snapshot: opacity demands an
        // immediate conflict rather than returning a possibly-inconsistent
        // value.
        assert_eq!(tx.read(a).unwrap_err(), AbortCause::Conflict);
    }

    #[test]
    fn committed_writer_aborts_overlapping_reader() {
        let (m, rt) = setup();
        let a = m.alloc_direct(1).unwrap();
        let b = m.alloc_direct(1).unwrap();
        let mut t1 = m.begin(&rt);
        assert_eq!(t1.read(a).unwrap(), 0);
        let mut t2 = m.begin(&rt);
        t2.write(a, 1).unwrap();
        t2.commit().unwrap();
        t1.write(b, 1).unwrap();
        assert_eq!(t1.commit().unwrap_err(), AbortCause::Conflict);
    }

    #[test]
    fn disjoint_writers_both_commit() {
        let (m, rt) = setup();
        let a = m.alloc_direct(1).unwrap();
        let b = m.alloc_direct(1).unwrap();
        let mut t1 = m.begin(&rt);
        t1.write(a, 1).unwrap();
        let mut t2 = m.begin(&rt);
        t2.write(b, 2).unwrap();
        t2.commit().unwrap();
        t1.commit().unwrap();
        assert_eq!(m.read_direct(&rt, a), 1);
        assert_eq!(m.read_direct(&rt, b), 2);
    }

    #[test]
    fn read_only_tx_commits_without_clock_bump() {
        let (m, rt) = setup();
        let a = m.alloc_direct(1).unwrap();
        let clock_before = m.clock();
        let mut tx = m.begin(&rt);
        tx.read(a).unwrap();
        tx.commit().unwrap();
        assert_eq!(m.clock(), clock_before);
    }

    #[test]
    fn explicit_abort_is_sticky() {
        let (m, rt) = setup();
        let a = m.alloc_direct(1).unwrap();
        let mut tx = m.begin(&rt);
        assert_eq!(
            tx.explicit_abort(7).unwrap_err(),
            AbortCause::Explicit(7)
        );
        assert_eq!(tx.read(a).unwrap_err(), AbortCause::Explicit(7));
        assert_eq!(tx.write(a, 1).unwrap_err(), AbortCause::Explicit(7));
        assert_eq!(tx.commit().unwrap_err(), AbortCause::Explicit(7));
    }

    #[test]
    fn write_capacity_abort() {
        let m = TMem::new(TMemConfig {
            words: 1 << 12,
            words_per_line_log2: 0,
            read_cap_lines: 1 << 12,
            write_cap_lines: 4,
        });
        let rt = RealRuntime::new();
        let a = m.alloc_direct(8).unwrap();
        let mut tx = m.begin(&rt);
        for i in 0..4 {
            tx.write(a + i, i).unwrap();
        }
        assert_eq!(tx.write(a + 4, 4).unwrap_err(), AbortCause::Capacity);
    }

    #[test]
    fn read_capacity_abort() {
        let m = TMem::new(TMemConfig {
            words: 1 << 12,
            words_per_line_log2: 0,
            read_cap_lines: 4,
            write_cap_lines: 1 << 12,
        });
        let rt = RealRuntime::new();
        let a = m.alloc_direct(8).unwrap();
        let mut tx = m.begin(&rt);
        for i in 0..4 {
            tx.read(a + i).unwrap();
        }
        assert_eq!(tx.read(a + 4).unwrap_err(), AbortCause::Capacity);
    }

    #[test]
    fn tx_alloc_rolls_back_on_abort() {
        let (m, rt) = setup();
        let hw_before;
        {
            let mut tx = m.begin(&rt);
            let n = tx.alloc(3).unwrap();
            tx.write(n, 42).unwrap();
            hw_before = m.allocator().high_water();
            let _ = tx.rollback(AbortCause::Conflict);
        }
        // The block is back on the free list; allocating again reuses it.
        assert_eq!(m.allocator().free_block_count(), 1);
        let again = m.alloc_direct(3).unwrap();
        assert!(again.0 < hw_before, "recycled, not bumped");
        assert_eq!(m.read_direct(&rt, again), 0, "zeroed on realloc");
    }

    #[test]
    fn tx_alloc_published_on_commit() {
        let (m, rt) = setup();
        let root = m.alloc_direct(1).unwrap();
        let mut tx = m.begin(&rt);
        let n = tx.alloc(2).unwrap();
        tx.write(n, 7).unwrap();
        tx.write(root, n.0).unwrap();
        tx.commit().unwrap();
        let n_addr = Addr(m.read_direct(&rt, root));
        assert_eq!(m.read_direct(&rt, n_addr), 7);
        assert_eq!(m.allocator().free_block_count(), 0);
    }

    #[test]
    fn tx_free_deferred_to_commit() {
        let (m, rt) = setup();
        let blk = m.alloc_direct(2).unwrap();
        {
            let mut tx = m.begin(&rt);
            tx.free(blk, 2);
            let _ = tx.rollback(AbortCause::Conflict);
        }
        assert_eq!(m.allocator().free_block_count(), 0, "free dropped on abort");
        {
            let mut tx = m.begin(&rt);
            tx.free(blk, 2);
            // A free alone is a read-only commit.
            tx.commit().unwrap();
        }
        assert_eq!(m.allocator().free_block_count(), 1);
    }

    #[test]
    fn fresh_alloc_read_does_not_conflict() {
        let (m, rt) = setup();
        let mut tx = m.begin(&rt);
        let n = tx.alloc(2).unwrap();
        assert_eq!(tx.read(n).unwrap(), 0);
        assert_eq!(tx.read(n + 1).unwrap(), 0);
        tx.commit().unwrap();
    }

    #[test]
    fn drop_without_commit_counts_abort_and_recycles() {
        let (m, rt) = setup();
        {
            let mut tx = m.begin(&rt);
            let _ = tx.alloc(4).unwrap();
            // dropped here
        }
        assert_eq!(m.allocator().free_block_count(), 1);
        assert!(m.stats().aborts() >= 1);
    }

    #[test]
    fn footprint_reporting() {
        let (m, rt) = setup();
        let a = m.alloc_direct(4).unwrap();
        let mut tx = m.begin(&rt);
        tx.read(a).unwrap();
        tx.read(a + 1).unwrap();
        tx.write(a + 2, 1).unwrap();
        assert_eq!(tx.read_footprint(), 2);
        assert_eq!(tx.write_footprint(), 1);
        tx.commit().unwrap();
    }

    #[test]
    fn footprint_counts_lines_not_words() {
        // Several words on one line are one unit of footprint, kept
        // correct by the incremental line bookkeeping.
        let m = TMem::new(TMemConfig {
            words: 1 << 10,
            words_per_line_log2: 2, // 4 words per line
            ..TMemConfig::default()
        });
        let rt = RealRuntime::new();
        // Line-aligned so the 8 words straddle exactly two lines.
        let a = m.alloc_line_direct(8).unwrap();
        let mut tx = m.begin(&rt);
        for i in 0..8 {
            tx.write(a + i, i).unwrap();
        }
        assert_eq!(tx.write_footprint(), 2, "8 words on 2 lines");
        // Rewriting the same words must not inflate the footprint.
        for i in 0..8 {
            tx.write(a + i, i + 1).unwrap();
        }
        assert_eq!(tx.write_footprint(), 2);
        tx.commit().unwrap();
    }

    #[test]
    fn concurrent_counter_increments_are_exact() {
        use std::sync::Arc;
        let m = Arc::new(TMem::new(TMemConfig::default()));
        let rt = Arc::new(RealRuntime::new());
        let a = m.alloc_direct(1).unwrap();
        let threads = 4;
        let per = 250;
        let mut handles = Vec::new();
        for _ in 0..threads {
            let m = m.clone();
            let rt = rt.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..per {
                    loop {
                        let mut tx = m.begin(rt.as_ref());
                        let body = (|| {
                            let v = tx.read(a)?;
                            tx.write(a, v + 1)
                        })();
                        match body {
                            Ok(()) => {
                                if tx.commit().is_ok() {
                                    break;
                                }
                            }
                            Err(_) => {
                                let _ = tx.rollback(AbortCause::Conflict);
                            }
                        }
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.read_direct(rt.as_ref(), a), (threads * per) as u64);
    }

    #[test]
    fn lone_thread_never_conflicts() {
        // Best-effort HTM aborts only on a conflict with another thread,
        // on capacity overflow or explicitly: a thread running alone must
        // never abort on its own earlier commits or direct writes. The
        // clock advances once per writer commit and once per direct write.
        let (m, rt) = setup();
        let a = m.alloc_direct(1).unwrap();
        let clock_before = m.clock();
        let (txs, every) = (1000u64, 100u64);
        for i in 1..=txs {
            let mut tx = m.begin(&rt);
            let v = tx.read(a).unwrap();
            tx.write(a, v + 1).unwrap();
            tx.commit().unwrap();
            if i % every == 0 {
                m.write_direct(&rt, a, i);
            }
        }
        assert_eq!(m.read_direct(&rt, a), txs);
        let s = m.stats();
        assert_eq!(s.commits, txs);
        assert_eq!(s.aborts_conflict, 0);
        assert_eq!(m.clock(), clock_before + txs + txs / every);
    }
}
