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
