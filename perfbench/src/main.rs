//! `hcf-perfbench` — one benchmark for the hcf-kv service and the HCF
//! engine, end to end and layer by layer.
//!
//! Usage: `hcf-perfbench --workload <kv-read-closed|kv-churn-open|native-pq>
//! --seed <n> --seconds <s> --trace <0|1> [--rev <revision>] [--out <dir>]`
//!
//! With `--trace 0` the run measures the end-to-end metrics; with
//! `--trace 1` it measures the per-layer metrics and the tracing
//! overhead. The last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`; the exit code is 0
//! only when every output check passed. See `README.md` beside this
//! package for the workloads and the metric-to-layer map.

mod host;
mod kvgen;
mod kvlive;
mod kvtrace;
mod openloop;
mod pq;
mod report;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use kvgen::{Gen, Shape};
use report::{Outcome, RunInfo};
use stats::{median, median_u64, percentile, ratio, EngineCounters, TmemCounters, P50, P99};

/// A seed kept out of tuning, on which claimed gains must also hold.
const HELD_OUT_SEED: u64 = 0x6F1D_5EED;

/// Length of one KV segment, ns. A KV run is a sequence of segments,
/// each with fresh connections served by fresh server threads, and each
/// KV metric is the median of the segments' figures.
const SEGMENT_NS: u64 = 1_000_000_000;

/// Start of each KV segment that is not timed, ns.
const SEGMENT_WARM_NS: u64 = 100_000_000;

/// Server set-ups per untraced KV run; `setup_s` is their median.
const KV_SETUPS: usize = 11;

/// Requests replayed through the layer functions in a traced KV run.
const REPLAY_REQS: usize = 20_000;

/// Offered rate of each kv-churn-open connection, requests per second.
const CHURN_RATE: f64 = 6_000.0;

/// The largest generator lag p99, as a share of the latency p99, at
/// which an open-loop run is still valid.
const LAG_SHARE: f64 = 0.25;

/// Layers, by span name and metric, whose self times with
/// `kv.residual_ns` add up to the untraced p50.
const KV_LAYERS: &[(&str, &str)] = &[
    ("frame.encode", "frame.encode_ns"),
    ("frame.decode", "frame.decode_ns"),
    ("proto.parse", "proto.parse_ns"),
    ("proto.reply", "proto.reply_ns"),
    ("shard.route", "shard.route_ns"),
    ("queue.handoff", "queue.handoff_ns"),
    ("store.encode", "store.encode_ns"),
    ("engine.execute", "engine.execute_ns"),
    ("store.decode", "store.decode_ns"),
];

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    rev: String,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        rev: "unknown".into(),
        out: PathBuf::from("perfbench/results"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => args.seconds = value.parse().map_err(bad)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            "--rev" => args.rev = value.clone(),
            "--out" => args.out = PathBuf::from(&value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

/// Sorted latencies of every segment given.
fn all_latencies(segs: &[&kvlive::Phase]) -> Vec<u64> {
    let mut lat: Vec<u64> = segs.iter().flat_map(|p| p.lat.iter().copied()).collect();
    lat.sort_unstable();
    lat
}

/// The items that count (see [`host`]), noting how many were left out
/// and marking the run invalid if every one lost too much CPU time.
fn counted<'a, T>(
    o: &mut Outcome,
    what: &str,
    items: &'a [T],
    steal: impl Fn(&T) -> f64,
) -> Vec<&'a T> {
    let stolen = items.iter().filter(|i| !host::clean(steal(i))).count();
    let limit = 100.0 * host::STEAL_LIMIT;
    if stolen > 0 && stolen == items.len() {
        o.invalid.push(format!(
            "the hypervisor took over {limit}% of CPU time in every {what}"
        ));
    } else if stolen > 0 {
        o.notes.push(format!(
            "{stolen} of {} {what}s left out: the hypervisor took over {limit}% of CPU time in them",
            items.len()
        ));
    }
    host::counted(items, steal)
}

/// Sets the KV latency and throughput metrics: each is the median over
/// segments of the segment's own figure, so a stall of the host moves
/// only the segments it falls in.
fn kv_metrics(o: &mut Outcome, all: &[kvlive::Phase]) {
    let segs = counted(o, "segment", all, |p| p.steal);
    let (mut tput, mut p50s, mut p99s) = (Vec::new(), Vec::new(), Vec::new());
    for p in &segs {
        let mut lat = p.lat.clone();
        lat.sort_unstable();
        if !stats::supported(lat.len() as u64, P99) {
            continue;
        }
        tput.push(lat.len() as f64 * 1e9 / p.window_ns.max(1) as f64);
        p50s.push(percentile(&lat, P50) as f64);
        p99s.push(percentile(&lat, P99) as f64);
    }
    let lat = all_latencies(&segs);
    let n = lat.len() as u64;
    if tput.is_empty() {
        o.violation(format!("no segment of {n} latency samples supports a p99"));
        return;
    }
    o.set_n("throughput_ops_s", median(&tput), n);
    o.set_n("p50_us", median(&p50s) / 1e3, n);
    o.set_n("p99_us", median(&p99s) / 1e3, n);
    o.notes.push(format!(
        "medians over {} of {} segments; over all segments p50 {:.3} us, p99 {:.3} us",
        tput.len(),
        segs.len(),
        percentile(&lat, P50) as f64 / 1e3,
        percentile(&lat, P99) as f64 / 1e3
    ));
    if let Some(bp) = stats::highest_supported(n) {
        o.notes.push(format!(
            "highest supported percentile: {} = {:.3} us ({} samples beyond it)",
            stats::label(bp),
            percentile(&lat, bp) as f64 / 1e3,
            stats::beyond(n, bp)
        ));
    }
}

fn set_rss(o: &mut Outcome) {
    match host::peak_rss_mb() {
        Some(mb) => o.set("peak_rss_mb", mb),
        None => o.violation("VmHWM unavailable in /proc/self/status"),
    }
}

fn engine_metrics(o: &mut Outcome, e: &EngineCounters, t: &TmemCounters) {
    let ops = e.ops() as f64;
    for (name, i) in [
        ("engine.phase.private", 0),
        ("engine.phase.visible", 1),
        ("engine.phase.combining", 2),
        ("engine.phase.under_lock", 3),
    ] {
        o.set_n(name, ratio(e.phase[i] as f64, ops), e.ops());
    }
    o.set(
        "engine.avg_degree",
        ratio(e.helped as f64, e.sessions as f64),
    );
    o.set("engine.lock_acqs_per_op", ratio(e.lock_acqs as f64, ops));
    o.set("engine.helped_ops", ratio(e.helped as f64, ops));
    o.set("tmem.commit_ratio", t.commit_ratio());
    o.set(
        "tmem.aborts_per_op.conflict",
        ratio(t.aborts[0] as f64, ops),
    );
    o.set(
        "tmem.aborts_per_op.capacity",
        ratio(t.aborts[1] as f64, ops),
    );
    o.set(
        "tmem.aborts_per_op.explicit",
        ratio(t.aborts[2] as f64, ops),
    );
    o.set("tmem.reads_per_op", ratio(t.reads as f64, ops));
    o.set("tmem.writes_per_op", ratio(t.writes as f64, ops));
}

/// The generator's lag p99, µs; the run is marked invalid if the
/// generator's own part of it exceeds `LAG_SHARE` of the latency p99.
fn lag_check(o: &mut Outcome, segs: &[&kvlive::Phase], p99_us: f64) -> Option<f64> {
    let mut lag: Vec<u64> = segs.iter().flat_map(|p| p.lag.iter().copied()).collect();
    let mut own: Vec<u64> = segs
        .iter()
        .flat_map(|p| p.own_lag.iter().copied())
        .collect();
    if lag.is_empty() {
        return None;
    }
    lag.sort_unstable();
    own.sort_unstable();
    let lag_p99 = percentile(&lag, P99) as f64 / 1e3;
    let own_p99 = percentile(&own, P99) as f64 / 1e3;
    o.notes.push(format!(
        "gen.lag_p99_us = {lag_p99:.3}, of it the generator's own p99 = {own_p99:.3} (n={}, limit {:.3} = {LAG_SHARE} x p99)",
        lag.len(),
        LAG_SHARE * p99_us
    ));
    if own_p99 > LAG_SHARE * p99_us {
        o.invalid.push(format!(
            "generator's own lag p99 {own_p99:.1} us exceeds {LAG_SHARE} x latency p99 {p99_us:.1} us"
        ));
    }
    Some(lag_p99)
}

/// Drives `ns` of segments, and more while too few count (see
/// [`host::more`]); `phase` selects their request streams.
fn kv_segments(
    o: &mut Outcome,
    live: &kvlive::Live,
    shape: Shape,
    seed: u64,
    phase: u64,
    ns: u64,
    traced: bool,
) -> Vec<kvlive::Phase> {
    let budget = (ns / SEGMENT_NS).max(1) * SEGMENT_NS;
    let mut segs: Vec<kvlive::Phase> = Vec::new();
    let mut clean = 0;
    while host::more(segs.len() as u64 * SEGMENT_NS, budget, clean) {
        let spec = kvlive::Spec {
            addr: live.server.local_addr(),
            shape,
            seed,
            phase: (phase << 16) | segs.len() as u64,
            warm_ns: SEGMENT_WARM_NS,
            measure_ns: SEGMENT_NS - SEGMENT_WARM_NS,
            traced,
        };
        let (mut p, steal) = host::steal_during(|| match shape {
            Shape::Read => kvlive::closed(spec),
            Shape::Churn => kvlive::open(spec, CHURN_RATE),
        });
        p.steal = steal;
        clean += usize::from(host::clean(steal));
        o.attempted += p.attempted;
        o.failed += p.failed;
        o.violations.extend(p.violations.iter().cloned());
        segs.push(p);
    }
    segs
}

fn shard_reqs(segs: &[kvlive::Phase]) -> u64 {
    segs.iter().map(|p| p.shard_reqs).sum()
}

/// Checks the server's request count and joins it.
fn kv_stop(o: &mut Outcome, live: kvlive::Live, sent: u64) {
    let served: u64 = live.server.shard_batch_stats().iter().map(|s| s.reqs).sum();
    if o.failed == 0 && served != sent {
        o.violation(format!(
            "server counted {served} shard requests, {sent} were sent"
        ));
    }
    if let Err(e) = live.stop() {
        o.violation(format!("KvServer::join: {e}"));
    }
}

fn kv_run(shape: Shape, args: &Args) -> Outcome {
    let mut o = Outcome::default();
    let mut setups = Vec::new();
    // Each earlier set-up is stopped before the next starts, so only the
    // measured server counts towards peak memory.
    let runs = if args.trace { 1 } else { KV_SETUPS };
    let mut live = None;
    for i in 0..runs {
        match host::steal_during(|| kvlive::setup(shape)) {
            (Ok((l, secs)), steal) => {
                setups.push((secs, steal));
                if i + 1 < runs {
                    let sent = l.sent_shard_reqs;
                    kv_stop(&mut o, l, sent);
                } else {
                    live = Some(l);
                }
            }
            (Err(e), _) => {
                o.violation(format!("set-up failed: {e}"));
                return o;
            }
        }
    }
    let live = live.expect("the last set-up is kept");
    let ns = args.seconds * 1_000_000_000;
    if !args.trace {
        let kept: Vec<f64> = host::counted(&setups, |s| s.1)
            .iter()
            .map(|s| s.0)
            .collect();
        o.set_n("setup_s", median(&kept), kept.len() as u64);
        let segs = kv_segments(&mut o, &live, shape, args.seed, 0, ns, false);
        let sent = live.sent_shard_reqs + shard_reqs(&segs);
        kv_stop(&mut o, live, sent);
        kv_metrics(&mut o, &segs);
        let p99 = o.metrics.get("p99_us").copied().unwrap_or(0.0);
        let kept = host::counted(&segs, |p| p.steal);
        lag_check(&mut o, &kept, p99);
        set_rss(&mut o);
        return o;
    }

    // Traced: untraced segments, then traced ones, then the replay.
    let plain = kv_segments(&mut o, &live, shape, args.seed, 0, ns / 2, false);
    let before = live.server.shard_batch_stats();
    let traced = kv_segments(&mut o, &live, shape, args.seed, 1, ns / 2, true);
    let after = live.server.shard_batch_stats();
    let doc = live.server.stats_json();
    let sent = live.sent_shard_reqs + shard_reqs(&plain) + shard_reqs(&traced);
    kv_stop(&mut o, live, sent);

    let plain = counted(&mut o, "segment", &plain, |p| p.steal);
    let traced = counted(&mut o, "segment", &traced, |p| p.steal);
    let (lat_plain, lat_traced) = (all_latencies(&plain), all_latencies(&traced));
    if lat_plain.is_empty() || lat_traced.is_empty() {
        o.violation("a traced run completed no request");
        return o;
    }
    let p50_plain = percentile(&lat_plain, P50) as f64;
    let p50_traced = percentile(&lat_traced, P50) as f64;
    o.set(
        "trace.overhead_pct",
        100.0 * (p50_traced - p50_plain) / p50_plain,
    );
    let p99_plain = percentile(&lat_plain, P99) as f64 / 1e3;
    if let Some(lag) = lag_check(&mut o, &plain, p99_plain) {
        o.set("gen.lag_p99_us", lag);
    }
    let spans: Vec<trace::Span> = traced
        .iter()
        .flat_map(|p| p.spans.iter().cloned())
        .collect();
    let client = trace::layer_self_times(&spans);
    for (layer, metric) in [
        ("client.send", "client.send_ns"),
        ("client.recv_wait", "client.recv_wait_ns"),
    ] {
        let v = client.get(layer).map_or(&[][..], Vec::as_slice);
        o.set_n(metric, median_u64(v), v.len() as u64);
    }
    let d = kvlive::shard_delta(&before, &after);
    o.set("queue.avg_batch", ratio(d.reqs as f64, d.batches as f64));
    o.set(
        "queue.busy_frac",
        ratio(d.busy as f64, (d.reqs + d.busy) as f64),
    );
    o.set("shard.max_over_mean", d.max_over_mean);
    o.set(
        "store.live_bytes",
        kvlive::stats_sum(&doc, "live_bytes") as f64,
    );
    o.set(
        "store.dead_bytes",
        kvlive::stats_sum(&doc, "dead_bytes") as f64,
    );

    // The first traced segment's first connection, replayed.
    let mut gen = Gen::new(shape, args.seed, 0, 1 << 16);
    let reqs: Vec<_> = (0..REPLAY_REQS).map(|_| gen.next_req()).collect();
    let replay = kvtrace::replay(shape, &reqs);
    o.violations.extend(replay.violations.iter().cloned());
    let mut layer_sum = 0.0;
    for &(layer, metric) in KV_LAYERS {
        let v = replay.layers.get(layer).map_or(&[][..], Vec::as_slice);
        let m = median_u64(v);
        layer_sum += m;
        o.set_n(metric, m, v.len() as u64);
    }
    let mut exec = replay
        .layers
        .get("engine.execute")
        .cloned()
        .unwrap_or_default();
    exec.sort_unstable();
    if !exec.is_empty() {
        o.set_n(
            "engine.execute_p99_ns",
            percentile(&exec, P99) as f64,
            exec.len() as u64,
        );
    }
    let bytes = &replay.frame_bytes;
    o.set_n(
        "frame.bytes_per_req",
        ratio(bytes.iter().sum::<u64>() as f64, bytes.len() as f64),
        bytes.len() as u64,
    );
    engine_metrics(&mut o, &replay.engine, &replay.tmem);
    o.set_n(
        "tmem.run_seq_ns",
        median_u64(&replay.run_seq_ns),
        replay.run_seq_ns.len() as u64,
    );
    let residual = p50_plain - layer_sum;
    o.set("kv.residual_ns", residual);
    o.set("kv.residual_share", residual / p50_plain);
    o.notes.push(format!(
        "budget: untraced p50 {p50_plain:.0} ns = layer self times {layer_sum:.0} ns + residual {residual:.0} ns ({:.1}% of p50: syscalls and wake-ups)",
        100.0 * residual / p50_plain
    ));
    o.attempted += reqs.len() as u64;
    o.spans = spans;
    o.spans.extend(replay.spans);
    o
}

fn pq_run(args: &Args) -> Outcome {
    let mut o = Outcome::default();
    let budget = args.seconds * 1_000_000_000;
    let issued = pq::THREADS as u64 * pq::OPS_PER_THREAD;
    let untraced_budget = if args.trace { budget / 2 } else { budget };
    let mut rounds: Vec<pq::Round> = Vec::new();
    let mut clean = 0;
    let t0 = trace::now_ns();
    while rounds.len() < 3 || host::more(trace::now_ns() - t0, untraced_budget, clean) {
        o.attempted += issued;
        match pq::round(args.seed, rounds.len() as u64, &mut o.violations) {
            Some(r) => {
                clean += usize::from(host::clean(r.steal));
                rounds.push(r);
            }
            None => return o,
        }
    }
    let rounds = counted(&mut o, "round", &rounds, |r| r.steal);
    let p50s: Vec<f64> = rounds
        .iter()
        .map(|r| r.result.latency.p50_ns as f64)
        .collect();
    let p99s: Vec<f64> = rounds
        .iter()
        .map(|r| r.result.latency.p99_ns as f64)
        .collect();
    let samples: u64 = rounds.iter().map(|r| r.result.latency.count).sum();
    for r in &rounds {
        if !stats::supported(r.result.latency.count, P99) {
            o.violation(format!(
                "{} samples cannot support p99",
                r.result.latency.count
            ));
        }
    }
    if !args.trace {
        let ops: u64 = rounds.iter().map(|r| r.result.total_ops).sum();
        let tput: Vec<f64> = rounds.iter().map(|r| r.result.ops_per_sec()).collect();
        o.set_n("throughput_ops_s", median(&tput), ops);
        o.set_n("p50_us", median(&p50s) / 1e3, samples);
        o.set_n("p99_us", median(&p99s) / 1e3, samples);
        let setups: Vec<f64> = rounds.iter().map(|r| r.setup_s).collect();
        o.set_n("setup_s", median(&setups), setups.len() as u64);
        o.notes.push(format!(
            "{} rounds of {issued} ops; throughput, p50 and p99 are the medians of the rounds' figures",
            rounds.len()
        ));
        set_rss(&mut o);
        return o;
    }

    let (e, t) = pq::counters(&rounds);
    engine_metrics(&mut o, &e, &t);
    let mut traced: Vec<pq::TracedRound> = Vec::new();
    let mut clean = 0;
    let t1 = trace::now_ns();
    while traced.is_empty() || host::more(trace::now_ns() - t1, budget / 2, clean) {
        o.attempted += issued;
        let r = 1_000 + traced.len() as u64;
        let Some(mut tr) = pq::traced_round(args.seed, r, &mut o.violations) else {
            return o;
        };
        if traced.is_empty() {
            o.spans = std::mem::take(&mut tr.spans);
        } else {
            tr.spans = Vec::new();
        }
        clean += usize::from(host::clean(tr.steal));
        traced.push(tr);
    }
    let traced = counted(&mut o, "traced round", &traced, |r| r.steal);
    let mut exec: Vec<u64> = traced
        .iter()
        .flat_map(|r| r.execute_ns.iter().copied())
        .collect();
    let run_seq: Vec<u64> = traced
        .iter()
        .flat_map(|r| r.run_seq_ns.iter().copied())
        .collect();
    let traced_p50: Vec<f64> = traced.iter().map(|r| r.p50_ns as f64).collect();
    exec.sort_unstable();
    o.set_n(
        "engine.execute_ns",
        percentile(&exec, P50) as f64,
        exec.len() as u64,
    );
    o.set_n(
        "engine.execute_p99_ns",
        percentile(&exec, P99) as f64,
        exec.len() as u64,
    );
    o.set_n(
        "tmem.run_seq_ns",
        median_u64(&run_seq),
        run_seq.len() as u64,
    );
    let (plain, traced) = (median(&p50s), median(&traced_p50));
    o.set("trace.overhead_pct", 100.0 * (traced - plain) / plain);
    o
}

fn main() -> ExitCode {
    host::fix_mmap_threshold();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hcf-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (outcome, steal) = host::steal_during(|| match args.workload.as_str() {
        "kv-read-closed" => Some(kv_run(Shape::Read, &args)),
        "kv-churn-open" => Some(kv_run(Shape::Churn, &args)),
        "native-pq" => Some(pq_run(&args)),
        _ => None,
    });
    let Some(mut outcome) = outcome else {
        eprintln!("hcf-perfbench: unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    };
    outcome.notes.push(format!(
        "the hypervisor took {:.2}% of this machine's CPU time during the run (steal)",
        100.0 * steal
    ));
    let info = RunInfo {
        workload: &args.workload,
        seed: args.seed,
        held_out_seed: HELD_OUT_SEED,
        seconds: args.seconds,
        trace: args.trace,
        rev: &args.rev,
    };
    if report::finish(&info, outcome, &args.out) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
