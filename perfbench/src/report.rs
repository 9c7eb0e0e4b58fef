//! Metric names, the printed report, the results file and the final
//! JSON line.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use crate::trace::{write_jsonl, Span};

/// End-to-end metrics, reported by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput_ops_s", "1/s"),
    ("p50_us", "us"),
    ("p99_us", "us"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, reported by every traced run. A layer that a
/// workload does not run reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("client.send_ns", "ns"),
    ("client.recv_wait_ns", "ns"),
    ("frame.encode_ns", "ns"),
    ("frame.decode_ns", "ns"),
    ("frame.bytes_per_req", "B"),
    ("proto.parse_ns", "ns"),
    ("proto.reply_ns", "ns"),
    ("shard.route_ns", "ns"),
    ("shard.max_over_mean", "ratio"),
    ("queue.handoff_ns", "ns"),
    ("queue.avg_batch", "reqs/batch"),
    ("queue.busy_frac", "fraction"),
    ("store.encode_ns", "ns"),
    ("store.decode_ns", "ns"),
    ("store.live_bytes", "B"),
    ("store.dead_bytes", "B"),
    ("engine.execute_ns", "ns"),
    ("engine.execute_p99_ns", "ns"),
    ("engine.phase.private", "fraction"),
    ("engine.phase.visible", "fraction"),
    ("engine.phase.combining", "fraction"),
    ("engine.phase.under_lock", "fraction"),
    ("engine.avg_degree", "ops/session"),
    ("engine.lock_acqs_per_op", "1/op"),
    ("engine.helped_ops", "1/op"),
    ("tmem.run_seq_ns", "ns"),
    ("tmem.commit_ratio", "fraction"),
    ("tmem.aborts_per_op.conflict", "1/op"),
    ("tmem.aborts_per_op.capacity", "1/op"),
    ("tmem.aborts_per_op.explicit", "1/op"),
    ("tmem.reads_per_op", "1/op"),
    ("tmem.writes_per_op", "1/op"),
    ("kv.residual_ns", "ns"),
    ("kv.residual_share", "fraction"),
    ("gen.lag_p99_us", "us"),
    ("trace.overhead_pct", "%"),
];

/// Spans written to the spans file at most.
const MAX_WRITTEN_SPANS: usize = 50_000;

/// Everything a run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed: BUSY, ERR or disconnect.
    pub failed: u64,
    /// Output-check violations; any one makes the run incorrect.
    pub violations: Vec<String>,
    /// Reasons the run's figures may not measure the program; the run
    /// is marked invalid but its outputs may still be correct.
    pub invalid: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Samples behind each metric that has them.
    pub samples: BTreeMap<&'static str, u64>,
    /// Lines printed with the report.
    pub notes: Vec<String>,
    /// Spans, written to the spans file.
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Sets a metric measured over `n` samples.
    pub fn set_n(&mut self, name: &'static str, value: f64, n: u64) {
        self.metrics.insert(name, value);
        self.samples.insert(name, n);
    }

    /// Records a violation.
    pub fn violation(&mut self, v: impl Into<String>) {
        self.violations.push(v.into());
    }
}

/// Identity of a run.
#[derive(Debug)]
pub struct RunInfo<'a> {
    /// Workload name.
    pub workload: &'a str,
    /// Seed argument.
    pub seed: u64,
    /// Held-out seed for confirming claims.
    pub held_out_seed: u64,
    /// Seconds measured.
    pub seconds: u64,
    /// Traced run.
    pub trace: bool,
    /// Source revision.
    pub rev: &'a str,
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Prints the report, writes the results and spans files under `out`,
/// prints the final JSON line and returns whether the run is correct.
pub fn finish(info: &RunInfo, mut o: Outcome, out: &Path) -> bool {
    let names = if info.trace { PER_LAYER } else { END_TO_END };
    for (name, _) in names {
        if !o.metrics.contains_key(name) {
            o.metrics.insert(name, 0.0);
            o.notes.push(format!(
                "{name}: layer not on this workload's path, reported as 0"
            ));
        }
    }
    if o.attempted == 0 {
        o.violations.push("no operation was attempted".into());
    }
    for (name, v) in &o.metrics {
        if !v.is_finite() {
            o.violations.push(format!("{name} is not a finite number"));
        }
    }
    let correct = o.violations.is_empty();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let clock = std::env::var("HCF_CLOCK_MODE").unwrap_or_else(|_| "unset (GV1)".into());

    println!(
        "perfbench {} seed={} held_out_seed={} seconds={} trace={} rev={} nproc={} HCF_CLOCK_MODE={}",
        info.workload,
        info.seed,
        info.held_out_seed,
        info.seconds,
        u8::from(info.trace),
        info.rev,
        nproc,
        clock
    );
    for (name, unit) in names {
        let n = o
            .samples
            .get(name)
            .map_or(String::new(), |n| format!("  (n={n})"));
        println!("  {name:<30} {:>16.4} {unit}{n}", o.metrics[name]);
    }
    for note in &o.notes {
        println!("  note: {note}");
    }
    let failed_frac = crate::stats::ratio(o.failed as f64, o.attempted as f64);
    println!(
        "  failed_frac = {failed_frac} ({} failed of {} attempted)",
        o.failed, o.attempted
    );
    for v in &o.violations {
        eprintln!("perfbench: check failed: {v}");
    }
    for v in &o.invalid {
        println!("  INVALID RUN: {v}");
    }

    let mut metrics = String::new();
    let mut all = String::new();
    for (name, unit) in names {
        let v = json_num(o.metrics[name]);
        let sep = if metrics.is_empty() { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        );
    }
    for (name, v) in &o.metrics {
        let sep = if all.is_empty() { "" } else { ", " };
        let n = o.samples.get(name).map_or("null".into(), |n| n.to_string());
        let _ = write!(
            all,
            "{sep}\"{name}\": {{\"value\": {}, \"samples\": {n}}}",
            json_num(*v)
        );
    }
    let stem = format!(
        "{}-seed{}-trace{}",
        info.workload,
        info.seed,
        u8::from(info.trace)
    );
    let mut written = 0;
    if let Err(e) = std::fs::create_dir_all(out) {
        eprintln!("perfbench: cannot create {}: {e}", out.display());
    } else {
        if !o.spans.is_empty() {
            let path = out.join(format!("{stem}.spans.jsonl"));
            match write_jsonl(&path, &o.spans, MAX_WRITTEN_SPANS) {
                Ok(n) => written = n,
                Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
            }
        }
        let violations: Vec<String> = o.violations.iter().map(|v| json_str(v)).collect();
        let notes: Vec<String> = o.notes.iter().map(|v| json_str(v)).collect();
        let invalid: Vec<String> = o.invalid.iter().map(|v| json_str(v)).collect();
        let doc = format!(
            concat!(
                "{{\"workload\": {}, \"seed\": {}, \"held_out_seed\": {}, \"seconds\": {}, ",
                "\"trace\": {}, \"rev\": {}, \"nproc\": {}, \"hcf_clock_mode\": {}, ",
                "\"correct\": {}, \"valid\": {}, \"attempted\": {}, \"failed\": {}, \"spans_kept\": {}, ",
                "\"spans_written\": {}, \"metrics\": {{{}}}, \"violations\": [{}], \"invalid\": [{}], \"notes\": [{}]}}\n"
            ),
            json_str(info.workload),
            info.seed,
            info.held_out_seed,
            info.seconds,
            info.trace,
            json_str(info.rev),
            nproc,
            json_str(&clock),
            correct,
            o.invalid.is_empty(),
            o.attempted,
            o.failed,
            o.spans.len(),
            written,
            all,
            violations.join(", "),
            invalid.join(", "),
            notes.join(", "),
        );
        let path = out.join(format!("{stem}.json"));
        if let Err(e) = std::fs::write(&path, doc) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        o.attempted, o.failed
    );
    correct
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists match `BENCHMARK.json` at the repository root.
    #[test]
    fn metric_names_match_the_benchmark_file() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let count = doc.matches("\"unit\"").count();
        assert_eq!(count, END_TO_END.len() + PER_LAYER.len());
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(doc.contains(&entry), "{entry} missing from BENCHMARK.json");
        }
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(json_num(f64::NAN), "null");
        assert_eq!(json_num(1.5), "1.5");
    }
}
