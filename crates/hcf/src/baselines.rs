//! The standalone baselines evaluated in §3: TLE, the global lock, and
//! SCM.
//!
//! Both are built from the same two primitives as the HCF engine: one
//! speculative attempt that subscribes to the data-structure lock, and
//! one run under that lock. The global lock is TLE with a zero budget.
//! FC and the naive TLE+FC composition need publication arrays, so they
//! are not here: they are the §2.4 [`HcfEngine`](crate::HcfEngine)
//! configurations [`HcfConfig::fc`](crate::HcfConfig::fc) and
//! [`HcfConfig::tle_fc`](crate::HcfConfig::tle_fc).

use std::fmt;
use std::sync::Arc;

use hcf_tmem::{ElidableLock, Runtime, TMem, TxResult};

use crate::ds::DataStructure;
use crate::executor::Executor;
use crate::guarded::Guarded;
use crate::stats::{ExecStatsSnapshot, Phase};

/// Runs `op` under the data-structure lock.
fn run_locked<D: DataStructure>(g: &Guarded<D>, op: &D::Op) -> D::Res {
    g.locked(|ctx| {
        g.ds.run_seq(ctx, op)
            .expect("run_seq cannot abort under the lock")
    })
}

/// Transactional lock elision: speculate up to `attempts` times, then take
/// the lock. With a zero budget every operation takes the lock: that is
/// the global-lock baseline, [`Variant::Lock`](crate::Variant::Lock).
pub struct TleExecutor<D: DataStructure> {
    g: Guarded<D>,
    attempts: u32,
    name: &'static str,
}

impl<D: DataStructure> TleExecutor<D> {
    /// Builds the executor with the given HTM attempt budget.
    ///
    /// # Errors
    ///
    /// Propagates pool exhaustion.
    pub fn new(ds: Arc<D>, mem: Arc<TMem>, rt: Arc<dyn Runtime>, attempts: u32) -> TxResult<Self> {
        Self::named(ds, mem, rt, attempts, "TLE")
    }

    /// [`TleExecutor::new`] reporting `name` from [`Executor::name`].
    pub(crate) fn named(
        ds: Arc<D>,
        mem: Arc<TMem>,
        rt: Arc<dyn Runtime>,
        attempts: u32,
        name: &'static str,
    ) -> TxResult<Self> {
        Ok(TleExecutor {
            g: Guarded::new(ds, mem, rt, 1)?,
            attempts,
            name,
        })
    }
}

impl<D: DataStructure> Executor<D> for TleExecutor<D> {
    fn execute(&self, op: D::Op) -> D::Res {
        let g = &self.g;
        for attempt in 0..self.attempts {
            // TLE retries through every abort, transient or not.
            if let Ok(res) = g.speculate(0, |ctx| g.ds.run_seq(ctx, &op)) {
                g.stats.completed(0, Phase::Private);
                return res;
            }
            g.rt.backoff(attempt);
        }
        let res = run_locked(g, &op);
        g.stats.completed(0, Phase::Lock);
        res
    }

    fn exec_stats(&self) -> ExecStatsSnapshot {
        self.g.stats.snapshot()
    }

    fn name(&self) -> &'static str {
        self.name
    }
}

impl<D: DataStructure> fmt::Debug for TleExecutor<D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TleExecutor")
            .field("name", &self.name)
            .field("attempts", &self.attempts)
            .finish_non_exhaustive()
    }
}

/// Software-assisted conflict management (Afek et al., reference 1 of
/// the paper): TLE plus an
/// *auxiliary lock* that serializes threads whose transactions abort, so
/// they retry speculatively one at a time instead of stampeding to the
/// fallback lock. Transactions do not subscribe to the auxiliary lock —
/// it throttles threads, it does not forbid speculation.
pub struct ScmExecutor<D: DataStructure> {
    g: Guarded<D>,
    aux: ElidableLock,
    attempts: u32,
}

impl<D: DataStructure> ScmExecutor<D> {
    /// Builds the executor with the given total HTM attempt budget.
    ///
    /// # Errors
    ///
    /// Propagates pool exhaustion.
    pub fn new(ds: Arc<D>, mem: Arc<TMem>, rt: Arc<dyn Runtime>, attempts: u32) -> TxResult<Self> {
        let g = Guarded::new(ds, mem.clone(), rt, 1)?;
        let aux = ElidableLock::new(mem)?;
        Ok(ScmExecutor { g, aux, attempts })
    }
}

impl<D: DataStructure> Executor<D> for ScmExecutor<D> {
    fn execute(&self, op: D::Op) -> D::Res {
        let g = &self.g;
        let rt = g.rt.as_ref();
        let mut aux_held = false;
        let mut result = None;
        for attempt in 0..self.attempts {
            match g.speculate(0, |ctx| g.ds.run_seq(ctx, &op)) {
                Ok(res) => {
                    result = Some(res);
                    break;
                }
                Err(c) if !c.is_transient() => break,
                Err(_) => {
                    // After the first failed attempt, serialize behind the
                    // auxiliary lock before retrying speculatively.
                    if !aux_held && attempt + 1 < self.attempts {
                        self.aux.lock(rt);
                        aux_held = true;
                    }
                    rt.backoff(attempt);
                }
            }
        }
        let res = match result {
            Some(res) => {
                g.stats.completed(0, Phase::Private);
                res
            }
            None => {
                let res = run_locked(g, &op);
                g.stats.completed(0, Phase::Lock);
                res
            }
        };
        if aux_held {
            self.aux.unlock(rt);
        }
        res
    }

    fn exec_stats(&self) -> ExecStatsSnapshot {
        self.g.stats.snapshot()
    }

    fn name(&self) -> &'static str {
        "SCM"
    }
}

impl<D: DataStructure> fmt::Debug for ScmExecutor<D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ScmExecutor")
            .field("attempts", &self.attempts)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::HcfConfig;
    use crate::executor::Variant;
    use hcf_tmem::{Addr, MemCtx, RealRuntime, TMemConfig};

    struct OneCounter {
        a: Addr,
    }

    #[derive(Clone, Debug)]
    enum Op {
        Add(u64),
        Get,
    }

    impl DataStructure for OneCounter {
        type Op = Op;
        type Res = u64;
        fn run_seq(&self, ctx: &mut dyn MemCtx, op: &Op) -> hcf_tmem::TxResult<u64> {
            match op {
                Op::Add(d) => {
                    let v = ctx.read(self.a)?;
                    ctx.write(self.a, v + d)?;
                    Ok(v + d)
                }
                Op::Get => ctx.read(self.a),
            }
        }
    }

    fn build(v: Variant) -> Arc<dyn Executor<OneCounter>> {
        let rt = Arc::new(RealRuntime::new());
        let mem = Arc::new(TMem::new(TMemConfig::default()));
        let a = mem.alloc_direct(1).unwrap();
        let ds = Arc::new(OneCounter { a });
        v.build(ds, mem, rt, 8, 10, HcfConfig::new(8)).unwrap()
    }

    #[test]
    fn every_variant_computes_the_same_answers() {
        for v in Variant::ALL {
            let e = build(v);
            assert_eq!(e.execute(Op::Add(3)), 3, "{v}");
            assert_eq!(e.execute(Op::Add(4)), 7, "{v}");
            assert_eq!(e.execute(Op::Get), 7, "{v}");
            assert_eq!(e.name(), v.name());
        }
    }

    #[test]
    fn every_variant_is_exact_under_contention() {
        for v in Variant::ALL {
            let e = build(v);
            let threads = 4;
            let per = 100;
            let mut hs = Vec::new();
            for _ in 0..threads {
                let e = e.clone();
                hs.push(std::thread::spawn(move || {
                    for _ in 0..per {
                        e.execute(Op::Add(1));
                    }
                }));
            }
            for h in hs {
                h.join().unwrap();
            }
            assert_eq!(e.execute(Op::Get), (threads * per) as u64, "{v}");
        }
    }

    #[test]
    fn lock_variant_never_speculates() {
        let e = build(Variant::Lock);
        e.execute(Op::Add(1));
        let s = e.exec_stats();
        assert_eq!(s.htm_attempts, 0);
        assert_eq!(s.lock_acqs, 1);
        assert_eq!(s.completed_by_phase(), [0, 0, 0, 1]);
    }

    #[test]
    fn tle_uncontended_never_locks() {
        let e = build(Variant::Tle);
        for _ in 0..50 {
            e.execute(Op::Add(1));
        }
        let s = e.exec_stats();
        assert_eq!(s.lock_acqs, 0);
        assert_eq!(s.completed_by_phase(), [50, 0, 0, 0]);
    }

    #[test]
    fn scm_uncontended_never_locks() {
        let e = build(Variant::Scm);
        for _ in 0..50 {
            e.execute(Op::Add(1));
        }
        let s = e.exec_stats();
        assert_eq!(s.lock_acqs, 0);
        assert_eq!(s.htm_commits, 50);
    }

    #[test]
    fn fc_always_locks() {
        let e = build(Variant::Fc);
        for _ in 0..10 {
            e.execute(Op::Add(1));
        }
        let s = e.exec_stats();
        assert_eq!(s.htm_attempts, 0);
        assert_eq!(s.completed_by_phase(), [0, 0, 0, 10]);
    }

    #[test]
    fn tle_fc_uncontended_behaves_like_tle() {
        let e = build(Variant::TleFc);
        for _ in 0..50 {
            e.execute(Op::Add(1));
        }
        let s = e.exec_stats();
        assert_eq!(s.lock_acqs, 0);
        assert_eq!(s.completed_by_phase(), [50, 0, 0, 0]);
    }
}
