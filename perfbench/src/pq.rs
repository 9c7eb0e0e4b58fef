//! native-pq: `hcf_sim::native::run_native` with variant HCF and two
//! threads on the skip-list priority queue, 50% Insert and 50%
//! RemoveMin.
//!
//! A run is a sequence of rounds of a fixed operation count, each with
//! its own build and prefill. The watchdog polls every millisecond and a
//! round lasts hundreds of milliseconds, so rounding the elapsed time up
//! to the next poll moves it by well under 1%.

use std::collections::HashMap;
use std::sync::Arc;

use hcf_core::{DataStructure, ExecStatsSnapshot, Executor, HcfConfig, Variant};
use hcf_ds::{PqOp, SkipListPq, SkipListPqDs};
use hcf_sim::native::{run_native, run_native_with, NativeConfig, NativeRunResult};
use hcf_sim::workload::PqWorkload;
use hcf_tmem::{DirectCtx, MemCtx, RealRuntime, Runtime, TMem, TMemConfig, TxResult};
use hcf_util::rng::{Rng, SplitMix64, StdRng};
use hcf_util::sync::Mutex;

use crate::stats::{EngineCounters, TmemCounters};
use crate::trace::{now_ns, Span};

/// Worker threads.
pub const THREADS: usize = 2;
/// Items in the queue before a round starts.
const PREFILL: usize = 4_096;
/// Insert keys are drawn from `0..KEY_RANGE`.
const KEY_RANGE: u64 = 1 << 20;
/// Operations per thread per round.
pub const OPS_PER_THREAD: u64 = 100_000;
/// Watchdog poll period; a round must last at least 100 polls.
const POLL_MS: u64 = 1;

fn tmem_config() -> TMemConfig {
    TMemConfig::default().with_words(1 << 21)
}

/// The distinct `(key, value)` prefill of a round.
fn prefill(seed: u64) -> Vec<(u64, u64)> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xACE);
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::with_capacity(PREFILL);
    while out.len() < PREFILL {
        let k = rng.random_range(0..KEY_RANGE);
        if seen.insert(k) {
            out.push((k, rng.random()));
        }
    }
    out
}

fn build(
    ctx: &mut dyn MemCtx,
    threads: usize,
    items: &[(u64, u64)],
) -> TxResult<(Arc<SkipListPqDs>, HcfConfig)> {
    let pq = SkipListPq::create(ctx)?;
    for &(k, v) in items {
        pq.insert(ctx, k, v)?;
    }
    Ok((
        Arc::new(SkipListPqDs::new(pq)),
        SkipListPqDs::hcf_config(threads),
    ))
}

fn gen() -> impl Fn(usize, &mut StdRng) -> PqOp + Send + Sync + 'static {
    let w = PqWorkload {
        key_range: KEY_RANGE,
        insert_pct: 50,
    };
    move |_tid, rng| w.op(rng)
}

fn config(seed: u64) -> NativeConfig {
    let mut cfg = NativeConfig::new(THREADS)
        .with_ops(OPS_PER_THREAD)
        .with_seed(seed)
        .with_tmem(tmem_config());
    cfg.poll_ms = POLL_MS;
    cfg
}

/// The seed of round `r` of a run seeded with `seed`.
fn round_seed(seed: u64, r: u64) -> u64 {
    SplitMix64::new(seed ^ (r << 40)).next_u64()
}

/// One finished round.
#[derive(Debug)]
pub struct Round {
    /// What `run_native` returned.
    pub result: NativeRunResult,
    /// Seconds from the call to the end of the build and prefill.
    pub setup_s: f64,
    /// Share of CPU time the hypervisor took during the round.
    pub steal: f64,
}

/// Checks that hold for every round.
fn check(round: &NativeRunResult, violations: &mut Vec<String>) {
    let issued = THREADS as u64 * OPS_PER_THREAD;
    if round.exec.total_ops() != issued || round.total_ops != issued {
        violations.push(format!(
            "round completed {} (engine counted {}) of {issued} ops",
            round.total_ops,
            round.exec.total_ops()
        ));
    }
    if round.elapsed_ns < 100 * POLL_MS * 1_000_000 {
        violations.push(format!(
            "round lasted {} ns, too short for the {POLL_MS} ms watchdog poll",
            round.elapsed_ns
        ));
    }
}

/// Runs one untraced round.
pub fn round(seed: u64, r: u64, violations: &mut Vec<String>) -> Option<Round> {
    let seed = round_seed(seed, r);
    let items = prefill(seed);
    let t0 = now_ns();
    let mut setup_ns = 0;
    let build = |ctx: &mut dyn MemCtx, threads| {
        let b = build(ctx, threads, &items);
        setup_ns = now_ns() - t0;
        b
    };
    let (run, steal) =
        crate::host::steal_during(|| run_native(&config(seed), Variant::Hcf, build, gen()));
    match run {
        Ok((result, _)) => {
            check(&result, violations);
            Some(Round {
                result,
                setup_s: setup_ns as f64 / 1e9,
                steal,
            })
        }
        Err(e) => {
            violations.push(format!("native run failed: {e}"));
            None
        }
    }
}

/// One executed operation, as the traced executor saw it.
#[derive(Clone, Copy, Debug)]
struct Rec {
    start: u64,
    end: u64,
    op: PqOp,
    res: Option<u64>,
}

/// An executor that records a span around every `execute` of the one
/// it wraps.
struct Traced<D: DataStructure<Op = PqOp, Res = Option<u64>>> {
    inner: Arc<dyn Executor<D>>,
    rt: Arc<dyn Runtime>,
    logs: Vec<Mutex<Vec<Rec>>>,
}

impl<D: DataStructure<Op = PqOp, Res = Option<u64>>> Executor<D> for Traced<D> {
    fn execute(&self, op: PqOp) -> Option<u64> {
        let start = now_ns();
        let res = self.inner.execute(op);
        let end = now_ns();
        self.logs[self.rt.thread_id()].lock().push(Rec {
            start,
            end,
            op,
            res,
        });
        res
    }

    fn exec_stats(&self) -> ExecStatsSnapshot {
        self.inner.exec_stats()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// What a traced round measured.
#[derive(Debug, Default)]
pub struct TracedRound {
    /// Per-op latency p50 as `run_native` measured it, with tracing on.
    pub p50_ns: u64,
    /// `execute` duration of every operation, ns.
    pub execute_ns: Vec<u64>,
    /// `run_seq` inside one transaction, single-threaded, per op, ns.
    pub run_seq_ns: Vec<u64>,
    /// Spans, one per operation.
    pub spans: Vec<Span>,
    /// Share of CPU time the hypervisor took during the round.
    pub steal: f64,
}

/// Runs one traced round: spans around every `execute`, the multiset
/// check, and a single-threaded `run_seq` replay of the same ops.
pub fn traced_round(seed: u64, r: u64, violations: &mut Vec<String>) -> Option<TracedRound> {
    let seed = round_seed(seed, r);
    let items = prefill(seed);
    let mut traced: Option<Arc<Traced<SkipListPqDs>>> = None;
    let make = |ds,
                mem,
                rt: Arc<dyn Runtime>,
                threads,
                hcf: HcfConfig|
     -> Arc<dyn Executor<SkipListPqDs>> {
        let inner = Variant::Hcf
            .build(ds, mem, rt.clone(), threads, 10, hcf)
            .expect("executor construction");
        let t = Arc::new(Traced {
            inner,
            rt,
            logs: (0..threads).map(|_| Mutex::new(Vec::new())).collect(),
        });
        traced = Some(t.clone());
        t
    };
    let build = |ctx: &mut dyn MemCtx, threads| build(ctx, threads, &items);
    let (run, steal) = crate::host::steal_during(|| {
        run_native_with(&config(seed), Variant::Hcf, build, make, gen())
    });
    let result = match run {
        Ok((result, _)) => result,
        Err(e) => {
            violations.push(format!("traced native run failed: {e}"));
            return None;
        }
    };
    check(&result, violations);
    let traced = traced.expect("executor was built");
    let mut recs: Vec<(usize, Rec)> = Vec::new();
    for (tid, log) in traced.logs.iter().enumerate() {
        recs.extend(log.lock().drain(..).map(|r| (tid, r)));
    }
    recs.sort_by_key(|(_, r)| r.start);

    // No key may be removed more often than it was inserted.
    let mut balance: HashMap<u64, i64> = items.iter().map(|&(k, _)| (k, 1)).collect();
    for (_, r) in &recs {
        match (r.op, r.res) {
            (PqOp::Insert(..), Some(k)) => *balance.entry(k).or_default() += 1,
            (PqOp::RemoveMin, Some(k)) => *balance.entry(k).or_default() -= 1,
            _ => {}
        }
    }
    let over = balance.values().filter(|&&b| b < 0).count();
    if over > 0 {
        violations.push(format!("{over} keys were removed more often than inserted"));
    }

    let spans = recs
        .iter()
        .enumerate()
        .map(|(i, (tid, r))| Span {
            id: crate::trace::next_id(),
            name: "engine.execute",
            start: r.start,
            end: r.end,
            parent: None,
            req: ((*tid as u64) << 40) | i as u64,
        })
        .collect();
    let ops: Vec<PqOp> = recs.iter().map(|(_, r)| r.op).collect();
    Some(TracedRound {
        p50_ns: result.latency.p50_ns,
        execute_ns: recs.iter().map(|(_, r)| r.end - r.start).collect(),
        run_seq_ns: run_seq_replay(&items, &ops),
        spans,
        steal,
    })
}

/// Replays `ops` in order on one thread, each through
/// `SkipListPqDs::run_seq` inside its own transaction.
fn run_seq_replay(items: &[(u64, u64)], ops: &[PqOp]) -> Vec<u64> {
    let mem = TMem::new(tmem_config());
    let rt = RealRuntime::new();
    let (ds, _) = {
        let mut ctx = DirectCtx::new(&mem, &rt);
        build(&mut ctx, 1, items).expect("replay build")
    };
    ops.iter()
        .map(|op| crate::trace::run_seq_in_txn(&mem, &rt, ds.as_ref(), op))
        .collect()
}

/// Engine and memory counters summed over rounds.
pub fn counters(rounds: &[&Round]) -> (EngineCounters, TmemCounters) {
    let mut e = EngineCounters::default();
    let mut t = TmemCounters::default();
    for r in rounds {
        e.add(&r.result.exec);
        t.add(&r.result.tmem);
    }
    (e, t)
}
