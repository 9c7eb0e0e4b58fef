//! The four-phase HCF execution engine (§2.1–§2.4 of the paper).

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use hcf_util::sync::Mutex;

use hcf_tmem::{AbortCause, DirectCtx, ElidableLock, Runtime, TMem, TxResult};

use crate::ds::DataStructure;
use crate::guarded::Guarded;
use crate::policy::{PhasePolicy, SelectPolicy};
use crate::pubarray::PubArray;
use crate::record::{OpRecord, OpStatus};
use crate::stats::{ExecStatsSnapshot, Phase};

type Rec<D> = Arc<OpRecord<<D as DataStructure>::Op, <D as DataStructure>::Res>>;

/// Construction-time configuration of an [`HcfEngine`].
#[derive(Clone, Debug)]
pub struct HcfConfig {
    /// Upper bound on concurrently participating threads (sizes the
    /// publication arrays; thread ids must stay below it).
    pub max_threads: usize,
    default_policy: PhasePolicy,
    overrides: Vec<(usize, PhasePolicy)>,
    name: &'static str,
}

impl HcfConfig {
    /// Full HCF with the paper's default 2/3/5 budgets on every array.
    pub fn new(max_threads: usize) -> Self {
        HcfConfig {
            max_threads,
            default_policy: PhasePolicy::hcf_default(),
            overrides: Vec::new(),
            name: "HCF",
        }
    }

    /// Flat combining expressed as an HCF configuration (§2.4).
    pub fn fc(max_threads: usize) -> Self {
        HcfConfig {
            max_threads,
            default_policy: PhasePolicy::fc_like(),
            overrides: Vec::new(),
            name: "FC",
        }
    }

    /// The naive TLE+FC composition of §3.3.
    pub fn tle_fc(max_threads: usize, attempts: u32) -> Self {
        HcfConfig {
            max_threads,
            default_policy: PhasePolicy::tle_fc_like(attempts),
            overrides: Vec::new(),
            name: "TLE+FC",
        }
    }

    /// Overrides the policy used for every array without an explicit
    /// override.
    pub fn with_default_policy(mut self, p: PhasePolicy) -> Self {
        self.default_policy = p;
        self
    }

    /// Overrides the policy for one publication array.
    pub fn with_policy(mut self, array: usize, p: PhasePolicy) -> Self {
        self.overrides.retain(|&(a, _)| a != array);
        self.overrides.push((array, p));
        self
    }

    /// Sets the display name reported by [`Executor::name`](crate::Executor::name).
    pub fn named(mut self, name: &'static str) -> Self {
        self.name = name;
        self
    }

    fn policy_for(&self, array: usize) -> PhasePolicy {
        self.overrides
            .iter()
            .find(|&&(a, _)| a == array)
            .map(|&(_, p)| p)
            .unwrap_or(self.default_policy)
    }
}

/// The HCF engine: executes operations of a [`DataStructure`] through the
/// TryPrivate → TryVisible → TryCombining → CombineUnderLock pipeline.
pub struct HcfEngine<D: DataStructure> {
    /// The data structure behind the lock every transaction subscribes to.
    g: Guarded<D>,
    arrays: Vec<PubArray>,
    /// Packed [`PhasePolicy`] per array; mutable at run time (§2.4: "the
    /// customization may be dynamic") — see [`HcfEngine::set_policy`].
    policies: Vec<AtomicU64>,
    /// Per-thread descriptor registry: `registry[t]` holds thread `t`'s
    /// announced operation. Slots in publication arrays store thread ids;
    /// combiners resolve them here. An entry is guaranteed live while the
    /// thread's slot is non-zero (see `choose_ops_to_help`).
    registry: Vec<Mutex<Option<Rec<D>>>>,
    name: &'static str,
    max_threads: usize,
}

enum VisibleOutcome<R> {
    Applied(R),
    Helped,
    Exhausted,
}

impl<D: DataStructure> HcfEngine<D> {
    /// Builds an engine over `ds`, allocating the lock and
    /// `ds.num_arrays()` publication arrays in `mem`.
    ///
    /// # Errors
    ///
    /// Propagates pool exhaustion from the allocations.
    pub fn new(
        ds: Arc<D>,
        mem: Arc<TMem>,
        rt: Arc<dyn Runtime>,
        config: HcfConfig,
    ) -> TxResult<Self> {
        let n = ds.num_arrays().max(1);
        let g = Guarded::new(ds, mem.clone(), rt, n)?;
        // The ds lock is the fallback lock of §2.1: every phase's
        // transactions subscribe to it, which the sanitizer verifies.
        #[cfg(feature = "txsan")]
        g.lock.mark_fallback();
        let mut arrays = Vec::with_capacity(n);
        let mut policies = Vec::with_capacity(n);
        for a in 0..n {
            arrays.push(PubArray::new(mem.clone(), config.max_threads)?);
            policies.push(AtomicU64::new(config.policy_for(a).pack()));
        }
        Ok(HcfEngine {
            g,
            arrays,
            policies,
            registry: (0..config.max_threads).map(|_| Mutex::new(None)).collect(),
            name: config.name,
            max_threads: config.max_threads,
        })
    }

    /// The underlying data structure.
    pub fn ds(&self) -> &Arc<D> {
        &self.g.ds
    }

    /// The data-structure lock (exposed for tests and diagnostics).
    pub fn ds_lock(&self) -> &ElidableLock {
        &self.g.lock
    }

    /// Framework statistics accumulated so far.
    pub fn stats(&self) -> ExecStatsSnapshot {
        self.g.stats.snapshot()
    }

    /// Operations of array `aid` completed so far, in any phase.
    pub(crate) fn completed_ops(&self, aid: usize) -> u64 {
        self.g.stats.completed_ops(aid)
    }

    /// The policy currently in force for array `aid`.
    pub fn policy(&self, aid: usize) -> PhasePolicy {
        PhasePolicy::unpack(self.policies[aid].load(Ordering::Relaxed))
    }

    /// Replaces array `aid`'s policy at run time. Operations already in
    /// flight finish under the policy they started with; correctness is
    /// unaffected either way (§2.2: configuration "cannot affect the
    /// correctness, but only the performance").
    pub fn set_policy(&self, aid: usize, p: PhasePolicy) {
        self.policies[aid].store(p.pack(), Ordering::Relaxed);
    }

    /// Number of publication arrays.
    pub fn num_arrays(&self) -> usize {
        self.arrays.len()
    }

    /// Executes one operation to completion, possibly delegating it to (or
    /// acting as) a combiner. Linearizes between invocation and return
    /// (§2.3).
    pub fn execute(&self, op: D::Op) -> D::Res {
        let tid = self.g.rt.thread_id();
        assert!(
            tid < self.max_threads,
            "thread id {tid} exceeds configured max_threads {}",
            self.max_threads
        );
        let aid = self.g.ds.array_of(&op);
        let pol = self.policy(aid);
        let rec: Rec<D> = Arc::new(OpRecord::new(op));

        // Phase 1: TryPrivate.
        if let Some(res) = self.try_private(&rec, aid, &pol) {
            self.g.stats.completed(aid, Phase::Private);
            return res;
        }

        // Announce: registry entry first, then status, then the slot; a
        // combiner that observes the slot is guaranteed to find the entry.
        *self.registry[tid].lock() = Some(rec.clone());
        rec.set_status(OpStatus::Announced);
        self.arrays[aid].announce(self.g.rt.as_ref(), tid);

        // Phase 2: TryVisible.
        match self.try_visible(&rec, tid, aid, &pol) {
            VisibleOutcome::Applied(res) => {
                self.g.stats.completed(aid, Phase::Visible);
                self.clear_registry(tid);
                return res;
            }
            VisibleOutcome::Helped => return self.await_result(&rec, tid),
            VisibleOutcome::Exhausted => {}
        }

        // Phases 3 and 4: TryCombining, CombineUnderLock.
        self.combine(&rec, tid, aid, &pol)
    }

    fn try_private(&self, rec: &Rec<D>, aid: usize, pol: &PhasePolicy) -> Option<D::Res> {
        for attempt in 0..pol.try_private {
            match self.g.speculate(aid, |ctx| self.g.ds.run_seq(ctx, &rec.op)) {
                Ok(res) => return Some(res),
                Err(c) if !c.is_transient() => break,
                Err(_) => self.g.rt.backoff(attempt),
            }
        }
        None
    }

    fn try_visible(
        &self,
        rec: &Rec<D>,
        tid: usize,
        aid: usize,
        pol: &PhasePolicy,
    ) -> VisibleOutcome<D::Res> {
        let pa = &self.arrays[aid];
        let slot = pa.slot(tid);
        for attempt in 0..pol.try_visible {
            if rec.status() != OpStatus::Announced {
                return VisibleOutcome::Helped;
            }
            let out = self.g.speculate(aid, |ctx| {
                ctx.subscribe(&pa.selection)?;
                if rec.status() != OpStatus::Announced {
                    ctx.explicit_abort(AbortCause::STATUS_CHANGED)?;
                }
                // Exactly-once linchpin: read-and-clear our slot inside
                // the transaction. A combiner's selection clears the slot
                // with a version-bumping direct write, so this transaction
                // cannot commit once we have been selected.
                let tag = ctx.read(slot)?;
                debug_assert_eq!(tag, PubArray::tag(tid));
                let res = self.g.ds.run_seq(ctx, &rec.op)?;
                ctx.write(slot, 0)?;
                Ok(res)
            });
            match out {
                Ok(res) => {
                    rec.complete(res.clone());
                    return VisibleOutcome::Applied(res);
                }
                Err(AbortCause::Explicit(AbortCause::STATUS_CHANGED)) => {
                    return VisibleOutcome::Helped
                }
                Err(c) if !c.is_transient() => break,
                Err(_) => self.g.rt.backoff(attempt),
            }
        }
        VisibleOutcome::Exhausted
    }

    /// Phases 3 and 4: become a combiner for array `aid`.
    fn combine(&self, rec: &Rec<D>, tid: usize, aid: usize, pol: &PhasePolicy) -> D::Res {
        let rt = self.g.rt.as_ref();
        let pa = &self.arrays[aid];

        pa.selection.lock(rt);
        // While we competed for the selection lock another combiner may
        // have selected (and perhaps completed) our operation.
        if rec.status() != OpStatus::Announced {
            pa.selection.unlock(rt);
            return self.await_result(rec, tid);
        }
        let mut pending = self.choose_ops_to_help(tid, aid, rec, pol);
        if !pol.specialized {
            pa.selection.unlock(rt);
        }
        self.g.stats.session(aid, pending.len());

        // Phase 3: apply selected operations in transactions.
        let mut attempts = 0;
        while !pending.is_empty() && attempts < pol.try_combining {
            attempts += 1;
            let ops = self.next_chunk(&pending);
            match self.g.speculate(aid, |ctx| self.g.ds.run_multi(ctx, &ops)) {
                Ok(results) => self.retire(aid, &mut pending, ops.len(), results, Phase::Combining),
                Err(c) if !c.is_transient() => break,
                Err(_) => rt.backoff(attempts),
            }
        }

        // Phase 4: apply the rest under the data-structure lock.
        if !pending.is_empty() {
            self.g.locked(|ctx| {
                while !pending.is_empty() {
                    let ops = self.next_chunk(&pending);
                    let results = self
                        .g
                        .ds
                        .run_multi(ctx, &ops)
                        .expect("run_multi cannot abort under the lock");
                    assert!(
                        !results.is_empty(),
                        "run_multi must make progress under the lock"
                    );
                    self.retire(aid, &mut pending, ops.len(), results, Phase::Lock);
                }
            });
        }
        if pol.specialized {
            pa.selection.unlock(rt);
        }

        debug_assert_eq!(rec.status(), OpStatus::Done);
        self.clear_registry(tid);
        rec.take_result()
    }

    /// `chooseOpsToHelp` (§2.2): select announced operations from the
    /// array, always including our own. Caller holds the selection lock,
    /// which (a) serializes selection per array, and (b) — because its
    /// acquisition quiesced in-flight commits and TryVisible transactions
    /// subscribe to it — freezes slot removals for the duration of the
    /// scan. New announcements may appear mid-scan and are simply picked
    /// up or left for the next combiner.
    fn choose_ops_to_help(
        &self,
        tid: usize,
        aid: usize,
        my: &Rec<D>,
        pol: &PhasePolicy,
    ) -> Vec<Rec<D>> {
        let rt = self.g.rt.as_ref();
        let pa = &self.arrays[aid];
        let mut chosen: Vec<Rec<D>> = Vec::new();

        debug_assert!(pa.is_announced(rt, tid), "own slot vanished");
        my.set_status(OpStatus::BeingHelped);
        pa.clear(rt, tid);
        chosen.push(my.clone());

        if pol.select != SelectPolicy::OwnOnly {
            let mut heur = DirectCtx::new(&self.g.mem, rt);
            for t in pa.scan(rt) {
                if t == tid {
                    continue;
                }
                let other: Option<Rec<D>> = self.registry[t].lock().clone();
                let Some(other) = other else {
                    debug_assert!(false, "occupied slot without registry entry");
                    continue;
                };
                debug_assert_eq!(other.status(), OpStatus::Announced);
                let take = pol.select == SelectPolicy::All
                    || self.g.ds.should_help(&mut heur, &my.op, &other.op);
                if take {
                    other.set_status(OpStatus::BeingHelped);
                    pa.clear(rt, t);
                    chosen.push(other);
                }
            }
        }
        chosen
    }

    /// The operations of the next `run_multi` call: a prefix of `pending`
    /// of at most `max_multi` operations.
    fn next_chunk(&self, pending: &[Rec<D>]) -> Vec<D::Op> {
        let chunk = pending.len().min(self.g.ds.max_multi().max(1));
        pending[..chunk].iter().map(|r| r.op.clone()).collect()
    }

    /// Publishes the results of one successful `run_multi` call over the
    /// first `chunk` operations of `pending` and drops the applied ones.
    fn retire(
        &self,
        aid: usize,
        pending: &mut Vec<Rec<D>>,
        chunk: usize,
        results: Vec<(usize, D::Res)>,
        phase: Phase,
    ) {
        let mut applied: Vec<usize> = results.iter().map(|&(i, _)| i).collect();
        applied.sort_unstable();
        debug_assert!(
            applied.last().is_none_or(|&i| i < chunk),
            "run_multi returned an index outside the chunk"
        );
        debug_assert!(
            applied.windows(2).all(|w| w[0] != w[1]),
            "run_multi returned duplicate indices"
        );
        for (i, res) in results {
            pending[i].complete(res);
            self.g.stats.completed(aid, phase);
        }
        for &i in applied.iter().rev() {
            pending.remove(i);
        }
    }

    /// Spin until a combiner finishes our operation, then return its
    /// result. (§2.2: "the owner waits for the combiner to complete the
    /// operation by spinning on the status field".)
    fn await_result(&self, rec: &Rec<D>, tid: usize) -> D::Res {
        let mut attempt = 0u32;
        while rec.status() != OpStatus::Done {
            self.g.rt.backoff(attempt);
            attempt = attempt.saturating_add(1);
        }
        self.clear_registry(tid);
        rec.take_result()
    }

    fn clear_registry(&self, tid: usize) {
        *self.registry[tid].lock() = None;
    }
}

impl<D: DataStructure> fmt::Debug for HcfEngine<D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HcfEngine")
            .field("name", &self.name)
            .field("arrays", &self.arrays.len())
            .field("max_threads", &self.max_threads)
            .finish()
    }
}

impl<D: DataStructure> crate::executor::Executor<D> for HcfEngine<D> {
    fn execute(&self, op: D::Op) -> D::Res {
        HcfEngine::execute(self, op)
    }

    fn exec_stats(&self) -> ExecStatsSnapshot {
        self.stats()
    }

    fn name(&self) -> &'static str {
        self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcf_tmem::{Addr, MemCtx, RealRuntime, TMemConfig};

    /// Counters with per-op array routing: even slots -> array 0, odd ->
    /// array 1. Lets tests drive multi-array behaviour.
    struct Counters {
        base: Addr,
        n: u64,
        arrays: usize,
    }

    #[derive(Clone, Debug)]
    enum COp {
        Add(u64, u64),
        Get(u64),
    }

    impl DataStructure for Counters {
        type Op = COp;
        type Res = u64;

        fn num_arrays(&self) -> usize {
            self.arrays
        }

        fn array_of(&self, op: &COp) -> usize {
            let s = match op {
                COp::Add(s, _) | COp::Get(s) => *s,
            };
            (s as usize) % self.arrays
        }

        fn run_seq(&self, ctx: &mut dyn MemCtx, op: &COp) -> TxResult<u64> {
            match op {
                COp::Add(s, d) => {
                    let a = self.base + (s % self.n);
                    let v = ctx.read(a)?;
                    ctx.write(a, v + d)?;
                    Ok(v + d)
                }
                COp::Get(s) => ctx.read(self.base + (s % self.n)),
            }
        }
    }

    fn setup(arrays: usize, cfg: HcfConfig) -> (Arc<TMem>, Arc<RealRuntime>, HcfEngine<Counters>) {
        let rt = Arc::new(RealRuntime::new());
        let mem = Arc::new(TMem::new(TMemConfig::default()));
        let base = mem.alloc_direct(16).unwrap();
        let ds = Arc::new(Counters {
            base,
            n: 16,
            arrays,
        });
        let engine = HcfEngine::new(ds, mem.clone(), rt.clone(), cfg).unwrap();
        (mem, rt, engine)
    }

    #[test]
    fn single_thread_all_phases_private() {
        let (_m, _rt, e) = setup(1, HcfConfig::new(4));
        for i in 0..10 {
            assert_eq!(e.execute(COp::Add(0, 1)), i + 1);
        }
        let s = e.stats();
        assert_eq!(s.total_ops(), 10);
        assert_eq!(s.completed_by_phase(), [10, 0, 0, 0]);
        assert_eq!(s.lock_acqs, 0);
    }

    #[test]
    fn fc_config_completes_under_lock() {
        let (_m, _rt, e) = setup(1, HcfConfig::fc(4));
        assert_eq!(e.execute(COp::Add(0, 5)), 5);
        assert_eq!(e.execute(COp::Get(0)), 5);
        let s = e.stats();
        assert_eq!(s.completed_by_phase(), [0, 0, 0, 2]);
        assert_eq!(s.lock_acqs, 2);
        assert_eq!(s.htm_attempts, 0);
    }

    #[test]
    fn tle_config_uses_private_phase() {
        let (_m, _rt, e) = setup(
            1,
            HcfConfig::new(4)
                .with_default_policy(PhasePolicy::tle_like(10))
                .named("TLE(hcf)"),
        );
        assert_eq!(e.execute(COp::Add(1, 2)), 2);
        let s = e.stats();
        assert_eq!(s.completed_by_phase(), [1, 0, 0, 0]);
    }

    #[test]
    fn combining_first_goes_to_phase_three() {
        let (_m, _rt, e) = setup(
            1,
            HcfConfig::new(4).with_default_policy(PhasePolicy::combining_first(5)),
        );
        assert_eq!(e.execute(COp::Add(0, 3)), 3);
        let s = e.stats();
        // Single thread: the combiner helps only itself, on HTM.
        assert_eq!(s.completed_by_phase(), [0, 0, 1, 0]);
        assert_eq!(s.arrays[0].sessions, 1);
        assert!((s.arrays[0].avg_degree() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn multiple_arrays_route_operations() {
        let (_m, _rt, e) = setup(2, HcfConfig::fc(4));
        e.execute(COp::Add(0, 1)); // array 0
        e.execute(COp::Add(1, 1)); // array 1
        e.execute(COp::Add(3, 1)); // array 1
        let s = e.stats();
        assert_eq!(s.arrays[0].total(), 1);
        assert_eq!(s.arrays[1].total(), 2);
    }

    #[test]
    fn results_are_correct_under_contention() {
        let (_m, _rt, e) = setup(2, HcfConfig::new(8));
        let e = Arc::new(e);
        let threads = 4;
        let per = 200;
        let mut hs = Vec::new();
        for t in 0..threads {
            let e = e.clone();
            hs.push(std::thread::spawn(move || {
                for i in 0..per {
                    // Everyone hammers slots 0 and 1 to force conflicts.
                    e.execute(COp::Add((t + i) % 2, 1));
                }
            }));
        }
        for h in hs {
            h.join().unwrap();
        }
        let total = e.execute(COp::Get(0)) + e.execute(COp::Get(1));
        assert_eq!(total, threads * per);
        let s = e.stats();
        assert_eq!(s.total_ops(), threads * per + 2);
    }

    #[test]
    fn specialized_variant_is_correct() {
        let (_m, _rt, e) = setup(
            1,
            HcfConfig::new(8)
                .with_default_policy(PhasePolicy::combining_first(3).specialized(true)),
        );
        let e = Arc::new(e);
        let mut hs = Vec::new();
        for _ in 0..4 {
            let e = e.clone();
            hs.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    e.execute(COp::Add(0, 1));
                }
            }));
        }
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(e.execute(COp::Get(0)), 400);
    }

    #[test]
    #[should_panic(expected = "max_threads")]
    fn too_many_threads_panics() {
        let (_m, _rt, e) = setup(1, HcfConfig::new(1));
        let e = Arc::new(e);
        // Consume tid 0 on this thread...
        e.execute(COp::Get(0));
        // ...then a second thread must trip the assertion.
        let e2 = e.clone();
        let r = std::thread::spawn(move || e2.execute(COp::Get(0))).join();
        std::panic::resume_unwind(r.unwrap_err());
    }
}
