//! The traced replay of a KV request stream.
//!
//! Each request goes through the service's public layer functions in the
//! server's order, with a span around each call: request framing and
//! parsing, routing, the queue hand-off to a second thread, value
//! encoding, `HcfEngine::<KvShardDs>::execute` on shard engines built
//! like the server's, value decoding, then the reply's construction,
//! framing and parsing. A second pass times the same batches through
//! `DataStructure::run_seq` inside one transaction each.

use std::collections::BTreeMap;
use std::sync::Arc;

use hcf_core::{DataStructure, HcfConfig, HcfEngine};
use hcf_ds::HashTable;
use hcf_kv::queue::{BoundedQueue, Gate};
use hcf_kv::store::{decode_value, encode_value, Arena, KvOp, KvRes, KvShardDs, INLINE_TAG};
use hcf_kv::{Command, KvConfig, Reply};
use hcf_tmem::{DirectCtx, RealRuntime, Runtime, TMem, TMemConfig};
use hcf_util::frame::{read_frame, write_frame_owned, FrameLimits};
use hcf_util::shard::{shard_of, table_key};

use crate::kvgen::{preload, Checker, Req, Shape, SHARDS};
use crate::stats::{EngineCounters, TmemCounters};
use crate::trace::{layer_self_times, next_id, now_ns, run_seq_in_txn, Span, SpanLog};

/// One per-key operation as the server routes it.
#[derive(Clone, Debug)]
enum ShardOp {
    Get(u64),
    Set(u64, Vec<u8>),
    Del(u64),
    Incr(u64),
}

/// One per-key outcome as the server hands it back.
#[derive(Debug)]
enum Out {
    Done,
    Nil,
    Bytes(Vec<u8>),
    Int(u64),
    NotInt,
}

/// A queued shard sub-request.
struct Job {
    req: u64,
    parent: u64,
    pushed: u64,
    traced: bool,
    ops: Vec<ShardOp>,
}

struct Shard {
    engine: HcfEngine<KvShardDs>,
    mem: Arc<TMem>,
    arena: Arena,
    queue: BoundedQueue<Job>,
}

/// A shard table built as `KvServer::start` builds one.
fn shard_table(cfg: &KvConfig) -> (Arc<TMem>, KvShardDs) {
    let mem = Arc::new(TMem::new(
        TMemConfig::default().with_words(cfg.words_per_shard),
    ));
    let setup_rt = RealRuntime::new();
    let table = {
        let mut ctx = DirectCtx::new(&mem, &setup_rt);
        HashTable::create(&mut ctx, cfg.buckets_per_shard).expect("shard table allocation")
    };
    (mem, KvShardDs::new(table))
}

fn build_shards(cfg: &KvConfig) -> Vec<Shard> {
    (0..cfg.shards)
        .map(|_| {
            let (mem, ds) = shard_table(cfg);
            let rt: Arc<dyn Runtime> = Arc::new(RealRuntime::new());
            let engine = HcfEngine::new(
                Arc::new(ds),
                mem.clone(),
                rt,
                HcfConfig::new(2).named("HCF-KV"),
            )
            .expect("shard engine allocation");
            Shard {
                engine,
                mem,
                arena: Arena::new(),
                queue: BoundedQueue::new(cfg.queue_cap),
            }
        })
        .collect()
}

fn span(log: &mut SpanLog, on: bool, name: &'static str, req: u64, parent: u64, start: u64) {
    if on {
        log.record(name, req, Some(parent), start);
    }
}

/// Lowers routed ops to engine ops; values go to the arena here,
/// outside any transaction, as in the server.
fn lower(ops: &[ShardOp], arena: &Arena) -> Vec<KvOp> {
    ops.iter()
        .map(|op| match op {
            ShardOp::Get(k) => KvOp::Get(*k),
            ShardOp::Set(k, v) => KvOp::Set(*k, encode_value(v, arena)),
            ShardOp::Del(k) => KvOp::Del(*k),
            ShardOp::Incr(k) => KvOp::Incr(*k),
        })
        .collect()
}

fn retire(arena: &Arena, old: Option<u64>) {
    if let Some(w) = old {
        if w & INLINE_TAG == 0 {
            arena.retire(w);
        }
    }
}

/// The worker side: drain, encode, execute, decode, hand back.
fn process(shard: &Shard, job: Job, log: &mut SpanLog) -> Vec<Out> {
    let (on, req, parent) = (job.traced, job.req, job.parent);
    span(log, on, "queue.handoff", req, parent, job.pushed);
    let t = now_ns();
    let ops = lower(&job.ops, &shard.arena);
    span(log, on, "store.encode", req, parent, t);
    let t = now_ns();
    let res = shard.engine.execute(Arc::new(ops));
    span(log, on, "engine.execute", req, parent, t);
    let t = now_ns();
    let outs = job
        .ops
        .iter()
        .zip(res.iter())
        .map(|(op, res)| match (op, *res) {
            (ShardOp::Get(_), KvRes::Word(None)) => Out::Nil,
            (ShardOp::Get(_), KvRes::Word(Some(w))) => Out::Bytes(decode_value(w, &shard.arena)),
            (ShardOp::Set(..), KvRes::Word(old)) => {
                retire(&shard.arena, old);
                Out::Done
            }
            (ShardOp::Del(_), KvRes::Word(old)) => {
                retire(&shard.arena, old);
                Out::Int(u64::from(old.is_some()))
            }
            (ShardOp::Incr(_), KvRes::Int(n)) => Out::Int(n),
            (_, _) => Out::NotInt,
        })
        .collect();
    span(log, on, "store.decode", req, parent, t);
    outs
}

fn worker(
    shards: &[Shard],
    gate: &Gate,
    back: &BoundedQueue<Vec<Out>>,
    back_gate: &Gate,
) -> SpanLog {
    let mut log = SpanLog::default();
    let mut batch = Vec::new();
    loop {
        let mut drained = 0;
        let mut all_closed = true;
        for shard in shards {
            batch.clear();
            all_closed &= !shard.queue.drain(64, &mut batch);
            for job in batch.drain(..) {
                drained += 1;
                let outs = process(shard, job, &mut log);
                if back.try_push(outs).is_err() {
                    panic!("reply queue refused a reply");
                }
                back_gate.notify();
            }
        }
        if drained == 0 {
            if all_closed {
                return log;
            }
            gate.wait();
        }
    }
}

/// Shard groups of a request: `(shard, positions, ops)`.
fn route(cmd: &Command) -> Vec<(usize, Vec<usize>, Vec<ShardOp>)> {
    let one = |k: &[u8], op: ShardOp| vec![(shard_of(k, SHARDS), vec![0], vec![op])];
    match cmd {
        Command::Get(k) => one(k, ShardOp::Get(table_key(k))),
        Command::Set(k, v) => one(k, ShardOp::Set(table_key(k), v.clone())),
        Command::Del(k) => one(k, ShardOp::Del(table_key(k))),
        Command::Incr(k) => one(k, ShardOp::Incr(table_key(k))),
        Command::MGet(keys) => {
            let mut groups: Vec<(usize, Vec<usize>, Vec<ShardOp>)> = Vec::new();
            for (i, k) in keys.iter().enumerate() {
                let s = shard_of(k, SHARDS);
                match groups.iter_mut().find(|g| g.0 == s) {
                    Some(g) => {
                        g.1.push(i);
                        g.2.push(ShardOp::Get(table_key(k)));
                    }
                    None => groups.push((s, vec![i], vec![ShardOp::Get(table_key(k))])),
                }
            }
            groups
        }
        Command::Stats | Command::Shutdown => Vec::new(),
    }
}

/// The reply the server builds from the per-key outcomes.
fn reply_of(cmd: &Command, outs: Vec<(usize, Out)>) -> Reply {
    if let Command::MGet(keys) = cmd {
        let mut vals = vec![None; keys.len()];
        for (p, out) in outs {
            if let Out::Bytes(b) = out {
                vals[p] = Some(b);
            }
        }
        return Reply::MVal(vals);
    }
    match outs.into_iter().next().map(|(_, o)| o) {
        Some(Out::Done) => Reply::Ok,
        Some(Out::Nil) => Reply::Nil,
        Some(Out::Bytes(b)) => Reply::Val(b),
        Some(Out::Int(n)) => Reply::Int(n),
        Some(Out::NotInt) => Reply::Err("value is not an integer".into()),
        None => Reply::Err("empty result batch".into()),
    }
}

/// What the replay measured.
#[derive(Debug, Default)]
pub struct Replay {
    /// Per layer, self time per request, ns.
    pub layers: BTreeMap<&'static str, Vec<u64>>,
    /// Request plus reply frame bytes, per request.
    pub frame_bytes: Vec<u64>,
    /// Engine counters of the replayed requests.
    pub engine: EngineCounters,
    /// Transactional-memory counters of the replayed requests.
    pub tmem: TmemCounters,
    /// `run_seq` inside one transaction, per request, ns.
    pub run_seq_ns: Vec<u64>,
    /// Every span recorded.
    pub spans: Vec<Span>,
    /// Check violations.
    pub violations: Vec<String>,
}

fn counters(shards: &[Shard]) -> (EngineCounters, TmemCounters) {
    let mut e = EngineCounters::default();
    let mut t = TmemCounters::default();
    for s in shards {
        e.add(&s.engine.stats());
        t.add(&s.mem.stats());
    }
    (e, t)
}

/// Replays the preload, untraced, then `reqs` traced.
pub fn replay(shape: Shape, reqs: &[Req]) -> Replay {
    let cfg = KvConfig::default();
    let limits = FrameLimits::default();
    let shards = build_shards(&cfg);
    let (gate, back_gate) = (Gate::new(), Gate::new());
    let back: BoundedQueue<Vec<Out>> = BoundedQueue::new(4);
    let mut out = Replay::default();
    let mut log = SpanLog::default();
    let mut checker = Checker::new(shape);
    let (mut before_e, mut before_t) = (EngineCounters::default(), TmemCounters::default());

    let worker_log = std::thread::scope(|s| {
        let w = s.spawn(|| worker(&shards, &gate, &back, &back_gate));
        let preload = preload(shape);
        let all = preload
            .iter()
            .map(|r| (r, false))
            .chain(reqs.iter().map(|r| (r, true)));
        let (mut buf, mut rbuf, mut got) = (Vec::new(), Vec::new(), Vec::new());
        for (n, (r, on)) in all.enumerate() {
            if on && n == preload.len() {
                (before_e, before_t) = counters(&shards);
            }
            let (req, root, t_root) = (n as u64, next_id(), now_ns());
            // Client: build and frame the request.
            let t = now_ns();
            let args = r.cmd.to_args();
            span(&mut log, on, "proto.parse", req, root, t);
            let t = now_ns();
            buf.clear();
            write_frame_owned(&mut buf, &args).expect("framing into a Vec");
            span(&mut log, on, "frame.encode", req, root, t);
            // Server: unframe, parse, route.
            let t = now_ns();
            let args = read_frame(&mut &buf[..], limits)
                .expect("own frame")
                .expect("one frame");
            span(&mut log, on, "frame.decode", req, root, t);
            let t = now_ns();
            let cmd = Command::parse(&args).expect("own command");
            span(&mut log, on, "proto.parse", req, root, t);
            let t = now_ns();
            let groups = route(&cmd);
            span(&mut log, on, "shard.route", req, root, t);
            // Each shard group through the queue to the worker and back.
            // Groups go one at a time, so their spans do not overlap.
            let mut outs = Vec::new();
            for (sidx, pos, ops) in groups {
                let job = Job {
                    req,
                    parent: root,
                    pushed: now_ns(),
                    traced: on,
                    ops,
                };
                if shards[sidx].queue.try_push(job).is_err() {
                    panic!("replay queue refused a request");
                }
                gate.notify();
                loop {
                    back.drain(1, &mut got);
                    if let Some(o) = got.pop() {
                        outs.extend(pos.into_iter().zip(o));
                        break;
                    }
                    back_gate.wait();
                }
            }
            // Server: build and frame the reply.
            let t = now_ns();
            let reply = reply_of(&cmd, outs);
            let rargs = reply.to_args();
            span(&mut log, on, "proto.reply", req, root, t);
            let t = now_ns();
            rbuf.clear();
            write_frame_owned(&mut rbuf, &rargs).expect("framing into a Vec");
            span(&mut log, on, "frame.encode", req, root, t);
            // Client: unframe and parse the reply.
            let t = now_ns();
            let rargs = read_frame(&mut &rbuf[..], limits)
                .expect("own frame")
                .expect("one frame");
            span(&mut log, on, "frame.decode", req, root, t);
            let t = now_ns();
            let reply = Reply::parse(&rargs).expect("own reply");
            span(&mut log, on, "proto.reply", req, root, t);
            if on {
                log.record_as(root, "request", req, None, t_root, now_ns());
                out.frame_bytes.push((buf.len() + rbuf.len()) as u64);
                checker.check(r, &reply);
            } else if reply != Reply::Ok {
                out.violations
                    .push(format!("replay preload reply {reply:?}"));
            }
        }
        for shard in &shards {
            shard.queue.close();
        }
        gate.notify();
        w.join().expect("replay worker panicked")
    });

    let (after_e, after_t) = counters(&shards);
    out.engine = after_e.minus(&before_e);
    out.tmem = after_t.minus(&before_t);
    out.spans = log.spans;
    out.spans.extend(worker_log.spans);
    out.layers = layer_self_times(&out.spans);
    out.violations.extend(checker.violations);
    if checker.failed > 0 {
        out.violations
            .push(format!("{} replayed requests failed", checker.failed));
    }
    out.run_seq_ns = run_seq_pass(&cfg, shape, reqs);
    out
}

/// Times each request's shard batches through `KvShardDs::run_seq`
/// inside one transaction, single-threaded, on tables preloaded alike.
fn run_seq_pass(cfg: &KvConfig, shape: Shape, reqs: &[Req]) -> Vec<u64> {
    let rt = RealRuntime::new();
    let tables: Vec<(Arc<TMem>, KvShardDs, Arena)> = (0..cfg.shards)
        .map(|_| {
            let (mem, ds) = shard_table(cfg);
            (mem, ds, Arena::new())
        })
        .collect();
    for r in preload(shape) {
        for (sidx, _, ops) in route(&r.cmd) {
            let (mem, ds, arena) = &tables[sidx];
            let batch = Arc::new(lower(&ops, arena));
            let mut ctx = DirectCtx::new(mem, &rt);
            ds.run_seq(&mut ctx, &batch).expect("direct preload");
        }
    }
    reqs.iter()
        .map(|r| {
            route(&r.cmd)
                .into_iter()
                .map(|(sidx, _, ops)| {
                    let (mem, ds, arena) = &tables[sidx];
                    let batch = Arc::new(lower(&ops, arena));
                    run_seq_in_txn(mem, &rt, ds, &batch)
                })
                .sum()
        })
        .collect()
}
