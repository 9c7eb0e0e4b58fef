//! A data structure behind its fallback lock: the two ways every
//! executor runs an operation (§2.1).
//!
//! Every phase of HCF, and every baseline built from the same parts,
//! either runs the operation in a hardware transaction that subscribes to
//! the data-structure lock ([`Guarded::speculate`]) or runs it while
//! holding that lock ([`Guarded::locked`]). This module writes each of the
//! two exactly once, with its accounting; callers keep their own retry
//! policy.

use std::sync::Arc;

use hcf_tmem::{AbortCause, DirectCtx, ElidableLock, MemCtx, Runtime, TMem, TxCtx, TxResult};

use crate::ds::DataStructure;
use crate::stats::ExecStats;

/// A data structure, its memory and runtime, the lock every transaction
/// on it subscribes to, and the executor's statistics.
pub(crate) struct Guarded<D> {
    pub(crate) ds: Arc<D>,
    pub(crate) mem: Arc<TMem>,
    pub(crate) rt: Arc<dyn Runtime>,
    /// The data-structure (fallback) lock.
    pub(crate) lock: ElidableLock,
    pub(crate) stats: ExecStats,
}

impl<D: DataStructure> Guarded<D> {
    /// Allocates the fallback lock in `mem` and statistics for
    /// `num_arrays` publication arrays.
    pub(crate) fn new(
        ds: Arc<D>,
        mem: Arc<TMem>,
        rt: Arc<dyn Runtime>,
        num_arrays: usize,
    ) -> TxResult<Self> {
        let lock = ElidableLock::new(mem.clone())?;
        Ok(Guarded {
            ds,
            mem,
            rt,
            lock,
            stats: ExecStats::new(num_arrays),
        })
    }

    /// One speculative attempt on array `aid`: begins a transaction,
    /// subscribes to the lock, runs `body`, then commits or rolls back.
    /// Counts the attempt and its commit, or its abort by cause.
    pub(crate) fn speculate<R>(
        &self,
        aid: usize,
        body: impl FnOnce(&mut dyn MemCtx) -> TxResult<R>,
    ) -> Result<R, AbortCause> {
        self.stats.attempt(aid);
        let mut tx = self.mem.begin(self.rt.as_ref());
        let out = {
            let mut ctx = TxCtx::new(&mut tx);
            ctx.subscribe(&self.lock).and_then(|()| body(&mut ctx))
        };
        let out = match out {
            Ok(res) => tx.commit().map(|()| res),
            Err(c) => Err(tx.rollback(c)),
        };
        match &out {
            Ok(_) => self.stats.commit(aid),
            Err(c) => self.stats.abort(*c),
        }
        out
    }

    /// Runs `f` on direct memory while holding the lock, counting the
    /// acquisition.
    pub(crate) fn locked<R>(&self, f: impl FnOnce(&mut dyn MemCtx) -> R) -> R {
        let rt = self.rt.as_ref();
        self.lock.with(rt, || {
            self.stats.lock_acquired();
            f(&mut DirectCtx::new(&self.mem, rt))
        })
    }
}

#[cfg(test)]
mod tests {
    //! Exactness of the per-thread (striped) counters: whatever stripes
    //! the threads counted in, the totals after `join` are exact.
    use super::*;
    use crate::stats::{ExecStatsSnapshot, Phase};
    use hcf_tmem::stats::TxStatsSnapshot;
    use hcf_tmem::{Addr, RealRuntime, TMemConfig};
    use hcf_util::pad::COUNTER_STRIPES;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    /// Owns no data: the tests drive `Guarded` directly.
    struct Nothing;

    impl DataStructure for Nothing {
        type Op = ();
        type Res = ();

        fn num_arrays(&self) -> usize {
            2
        }

        fn run_seq(&self, _ctx: &mut dyn MemCtx, _op: &()) -> TxResult<()> {
            Ok(())
        }
    }

    const COMMITS: u64 = 60;
    const EXPLICIT: u64 = 20;
    const CAPACITY: u64 = 10;
    const LOCKED: u64 = 5;
    /// Lines each thread writes in a capacity-aborting attempt: one more
    /// than the write capacity.
    const WRITE_CAP: usize = 2;

    fn guarded() -> Guarded<Nothing> {
        let cfg = TMemConfig {
            write_cap_lines: WRITE_CAP,
            ..TMemConfig::default()
        };
        let mem = Arc::new(TMem::new(cfg));
        Guarded::new(Arc::new(Nothing), mem, Arc::new(RealRuntime::new()), 2).unwrap()
    }

    /// One thread's data: `WRITE_CAP + 1` words, each on its own line.
    fn lines(g: &Guarded<Nothing>) -> Vec<Addr> {
        (0..=WRITE_CAP)
            .map(|_| g.mem.alloc_line_direct(1).unwrap())
            .collect()
    }

    /// The speculative part of one thread's known workload on its own
    /// lines: `COMMITS` read-write commits, `EXPLICIT` explicit aborts and
    /// `CAPACITY` capacity aborts, alternating between the two arrays,
    /// each success also counted as a completion and every tenth as a
    /// combiner session.
    fn speculate_all(g: &Guarded<Nothing>, mine: &[Addr]) {
        for i in 0..COMMITS {
            let aid = (i % 2) as usize;
            let r = g.speculate(aid, |ctx| {
                let v = ctx.read(mine[0])?;
                ctx.write(mine[0], v + 1)
            });
            assert_eq!(r, Ok(()));
            g.stats.completed(aid, Phase::Private);
            if i % 10 == 0 {
                g.stats.session(aid, 3);
            }
        }
        for i in 0..EXPLICIT {
            let r = g.speculate((i % 2) as usize, |ctx| {
                ctx.read(mine[0])?;
                ctx.explicit_abort(7)
            });
            assert_eq!(r, Err(AbortCause::Explicit(7)));
        }
        for i in 0..CAPACITY {
            let r = g.speculate((i % 2) as usize, |ctx| {
                mine.iter().try_for_each(|&a| ctx.write(a, i))
            });
            assert_eq!(r, Err(AbortCause::Capacity));
        }
    }

    /// The locked part: `LOCKED` runs under the lock, completed in
    /// CombineUnderLock.
    fn lock_all(g: &Guarded<Nothing>, mine: &[Addr]) {
        for i in 0..LOCKED {
            g.locked(|ctx| ctx.write(mine[1], i)).unwrap();
            g.stats.completed(1, Phase::Lock);
        }
    }

    /// Every counter of the two striped users: `TxStats` and `ExecStats`.
    struct Counts {
        tx: TxStatsSnapshot,
        exec: ExecStatsSnapshot,
    }

    fn counts(g: &Guarded<Nothing>) -> Counts {
        Counts {
            tx: g.mem.stats(),
            exec: g.stats.snapshot(),
        }
    }

    /// `after - before`, field by field, checking that no counter fell.
    fn delta(before: &Counts, after: &Counts) -> Vec<u64> {
        let flat = |c: &Counts| {
            let t = &c.tx;
            let e = &c.exec;
            let mut v = vec![
                t.commits,
                t.aborts_conflict,
                t.aborts_capacity,
                t.aborts_explicit,
                t.aborts_oom,
                t.tx_reads,
                t.tx_writes,
                t.direct_reads,
                t.direct_writes,
                e.lock_acqs,
                e.htm_attempts,
                e.htm_commits,
                e.htm_conflicts,
                e.htm_capacity,
                e.htm_explicit,
            ];
            for a in &e.arrays {
                v.extend(a.completed);
                v.extend([a.sessions, a.helped_ops, a.attempts, a.commits]);
                v.extend(a.degree_hist);
            }
            v
        };
        flat(before)
            .iter()
            .zip(flat(after))
            .map(|(b, a)| a.checked_sub(*b).expect("a counter fell"))
            .collect()
    }

    /// One thread's counts, run alone on a fresh instance.
    fn one_thread() -> Vec<u64> {
        let g = guarded();
        let mine = lines(&g);
        let before = counts(&g);
        speculate_all(&g, &mine);
        lock_all(&g, &mine);
        delta(&before, &counts(&g))
    }

    #[test]
    fn striped_counters_are_exact_across_threads() {
        const THREADS: u64 = 4;
        let one = one_thread();
        let g = guarded();
        let mine: Vec<Vec<Addr>> = (0..THREADS).map(|_| lines(&g)).collect();
        let before = counts(&g);
        let speculated = Barrier::new(THREADS as usize);
        // Locked runs take turns, so no thread spins on the lock (a
        // spin's direct reads are not a known number) and no speculation
        // sees it held.
        let turn = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for (t, mine) in mine.iter().enumerate() {
                let (g, speculated, turn) = (&g, &speculated, &turn);
                s.spawn(move || {
                    speculate_all(g, mine);
                    speculated.wait();
                    while turn.load(Ordering::Acquire) != t {
                        std::thread::yield_now();
                    }
                    lock_all(g, mine);
                    turn.store(t + 1, Ordering::Release);
                });
            }
        });
        let after = counts(&g);
        let scaled: Vec<u64> = one.iter().map(|c| c * THREADS).collect();
        assert_eq!(delta(&before, &after), scaled);

        // The known workload, spelled out.
        let (tx, exec) = (&after.tx, &after.exec);
        let n = THREADS;
        assert_eq!(tx.commits, n * COMMITS);
        assert_eq!(tx.aborts_explicit, n * EXPLICIT);
        assert_eq!(tx.aborts_capacity, n * CAPACITY);
        assert_eq!((tx.aborts_conflict, tx.aborts_oom), (0, 0));
        assert_eq!(exec.htm_commits, n * COMMITS);
        assert_eq!(exec.htm_explicit, n * EXPLICIT);
        assert_eq!(exec.htm_capacity, n * CAPACITY);
        assert_eq!(exec.htm_conflicts, 0);
        assert_eq!(
            exec.htm_attempts,
            exec.htm_commits + exec.htm_conflicts + exec.htm_capacity + exec.htm_explicit
        );
        assert_eq!(exec.lock_acqs, n * LOCKED);
        assert_eq!(exec.total_ops(), n * (COMMITS + LOCKED));
        assert_eq!(exec.completed_by_phase(), [n * COMMITS, 0, 0, n * LOCKED]);
        let sessions = n * COMMITS / 10;
        assert_eq!(exec.arrays.iter().map(|a| a.sessions).sum::<u64>(), sessions);
        assert_eq!(exec.arrays[0].helped_ops, 3 * sessions);
        assert_eq!(exec.arrays.iter().map(|a| a.attempts).sum::<u64>(), exec.htm_attempts);
        assert_eq!(tx.commits + tx.aborts(), exec.htm_attempts);
    }

    #[test]
    fn striped_counters_stay_exact_when_stripes_wrap() {
        // More threads than stripes, one alive at a time: later threads
        // reuse the stripes of earlier ones, and every count still lands.
        const THREADS: u64 = COUNTER_STRIPES as u64 + 6;
        let one = one_thread();
        let g = guarded();
        let mine = lines(&g);
        let before = counts(&g);
        for _ in 0..THREADS {
            std::thread::scope(|s| {
                s.spawn(|| {
                    speculate_all(&g, &mine);
                    lock_all(&g, &mine);
                });
            });
        }
        let scaled: Vec<u64> = one.iter().map(|c| c * THREADS).collect();
        assert_eq!(delta(&before, &counts(&g)), scaled);
    }
}
