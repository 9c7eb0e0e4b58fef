//! The KV service driven over loopback: set-up, the closed and open
//! loops, and the server's own counters.

use std::net::SocketAddr;

use hcf_kv::{KvClient, KvConfig, KvServer, Reply, ShardBatchStats};

use crate::kvgen::{preload, Checker, Gen, Req, Shape};
use crate::openloop::{self, Clock, Link};
use crate::trace::{next_id, now_ns, Span, SpanLog};

/// Closed-loop client connections. One: with two, the connections'
/// requests fell into and out of step with each other from segment to
/// segment, and a segment's throughput ranged over ±25% with it.
const CLOSED_CONNS: u64 = 1;

/// Open-loop client connections, each on its own schedule.
const OPEN_CONNS: u64 = 2;

/// Requests kept in flight while preloading.
const PRELOAD_WINDOW: usize = 64;

/// A started and preloaded server.
pub struct Live {
    /// The server.
    pub server: KvServer,
    /// The connection that preloaded it; it also sends SHUTDOWN.
    pub loader: KvClient,
    /// Shard sub-requests sent so far, to check against the server's.
    pub sent_shard_reqs: u64,
}

/// Starts a default server and preloads it; returns it with the
/// seconds that took.
///
/// # Errors
///
/// Start, connect or preload failures.
pub fn setup(shape: Shape) -> Result<(Live, f64), String> {
    let t0 = now_ns();
    let server = KvServer::start(KvConfig::default()).map_err(|e| format!("start: {e}"))?;
    let mut loader = KvClient::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
    let reqs = preload(shape);
    let mut sent_shard_reqs = 0;
    let mut acked = 0;
    for (i, r) in reqs.iter().enumerate() {
        loader
            .send(&r.cmd)
            .map_err(|e| format!("preload send: {e}"))?;
        sent_shard_reqs += r.shard_reqs();
        while i + 1 - acked >= PRELOAD_WINDOW || (i + 1 == reqs.len() && acked < reqs.len()) {
            match loader.recv() {
                Ok(Reply::Ok) => acked += 1,
                other => return Err(format!("preload reply {other:?}")),
            }
        }
    }
    let secs = (now_ns() - t0) as f64 / 1e9;
    Ok((
        Live {
            server,
            loader,
            sent_shard_reqs,
        },
        secs,
    ))
}

impl Live {
    /// Sends SHUTDOWN and joins the server.
    ///
    /// # Errors
    ///
    /// The SHUTDOWN reply or the server's join error.
    pub fn stop(mut self) -> Result<(), String> {
        self.loader
            .shutdown()
            .map_err(|e| format!("SHUTDOWN: {e}"))?;
        self.server.join().map_err(|e| format!("join: {e}"))
    }
}

/// What the connections of one phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Latency of each request timed, ns.
    pub lat: Vec<u64>,
    /// Lateness of each open-loop send in the measured window, ns.
    pub lag: Vec<u64>,
    /// The generator's own part of that lateness, ns.
    pub own_lag: Vec<u64>,
    /// Length of the measured window, ns.
    pub window_ns: u64,
    /// Requests sent, warm-up included.
    pub attempted: u64,
    /// Requests that failed: BUSY, ERR or lost to a disconnect.
    pub failed: u64,
    /// Shard sub-requests sent.
    pub shard_reqs: u64,
    /// Check violations.
    pub violations: Vec<String>,
    /// Client spans, when traced.
    pub spans: Vec<Span>,
    /// Share of CPU time the hypervisor took during the phase.
    pub steal: f64,
}

impl Phase {
    fn absorb(&mut self, c: Conn) {
        self.lat.extend(c.lat);
        self.lag.extend(c.lag);
        self.own_lag.extend(c.own_lag);
        self.window_ns = self.window_ns.max(c.window_ns);
        self.attempted += c.attempted;
        self.failed += c.checker.failed + c.attempted - c.checker.replies;
        self.shard_reqs += c.shard_reqs;
        self.violations.extend(c.checker.violations);
        self.spans.extend(c.log.spans);
    }
}

/// One connection's share of a phase.
struct Conn {
    lat: Vec<u64>,
    lag: Vec<u64>,
    own_lag: Vec<u64>,
    window_ns: u64,
    attempted: u64,
    shard_reqs: u64,
    checker: Checker,
    log: SpanLog,
}

impl Conn {
    fn new(shape: Shape) -> Conn {
        Conn {
            lat: Vec::new(),
            lag: Vec::new(),
            own_lag: Vec::new(),
            window_ns: 0,
            attempted: 0,
            shard_reqs: 0,
            checker: Checker::new(shape),
            log: SpanLog::default(),
        }
    }

    fn sent(&mut self, r: &Req) {
        self.attempted += 1;
        self.shard_reqs += r.shard_reqs();
    }
}

fn run_conns(conns: u64, f: impl Fn(u64) -> Conn + Sync) -> Phase {
    let mut phase = Phase::default();
    let f = &f;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns).map(|c| s.spawn(move || f(c))).collect();
        for h in handles {
            phase.absorb(h.join().expect("client thread panicked"));
        }
    });
    phase
}

/// Request id of the `seq`-th request of connection `conn` in phase
/// `phase`, unique across the phases of a run.
fn req_id(phase: u64, conn: u64, seq: u64) -> u64 {
    (phase << 41) | (conn << 40) | seq
}

/// What one phase drives, and for how long. Each phase opens fresh
/// connections, so the server serves them from fresh threads.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// The server.
    pub addr: SocketAddr,
    /// The workload.
    pub shape: Shape,
    /// The run's seed.
    pub seed: u64,
    /// The phase's number, which selects its request streams.
    pub phase: u64,
    /// Time before timing starts, ns.
    pub warm_ns: u64,
    /// Time measured, ns.
    pub measure_ns: u64,
    /// Whether spans wrap `KvClient::send` and `recv`.
    pub traced: bool,
}

/// Closed loop: each connection sends its next request when the
/// previous reply is in. Requests finishing in the warm-up are not
/// timed.
pub fn closed(spec: Spec) -> Phase {
    let Spec {
        addr,
        shape,
        seed,
        phase: phase_no,
        warm_ns,
        measure_ns,
        traced,
    } = spec;
    let start = now_ns();
    let (from, until) = (start + warm_ns, start + warm_ns + measure_ns);
    let mut phase = run_conns(CLOSED_CONNS, |conn| {
        let mut c = Conn::new(shape);
        let Ok(mut client) = KvClient::connect(addr) else {
            c.checker.violations.push("connect failed".into());
            return c;
        };
        let mut gen = Gen::new(shape, seed, conn, phase_no);
        loop {
            let t0 = now_ns();
            if t0 >= until {
                break;
            }
            let r = gen.next_req();
            let id = req_id(phase_no, conn, c.attempted);
            c.sent(&r);
            let root = next_id();
            if client.send(&r.cmd).is_err() {
                break;
            }
            let t1 = now_ns();
            let Ok(reply) = client.recv() else { break };
            let t2 = now_ns();
            if traced {
                c.log
                    .record_as(next_id(), "client.send", id, Some(root), t0, t1);
                c.log
                    .record_as(next_id(), "client.recv_wait", id, Some(root), t1, t2);
                c.log.record_as(root, "request", id, None, t0, t2);
            }
            if t2 >= from {
                c.lat.push(t2 - t0);
            }
            c.checker.check(&r, &reply);
        }
        c
    });
    phase.window_ns = now_ns().saturating_sub(from);
    phase
}

/// Makes this thread's timed sleeps end within a nanosecond of their
/// deadline rather than within Linux's default 50 µs slack, so that a
/// pacing sleep overshoots by the wake-up latency alone.
#[cfg(target_os = "linux")]
fn tighten_timer_slack() {
    use std::os::raw::{c_int, c_ulong};
    extern "C" {
        fn prctl(option: c_int, ...) -> c_int;
    }
    const PR_SET_TIMERSLACK: c_int = 29;
    // SAFETY: PR_SET_TIMERSLACK reads one unsigned long argument and
    // changes only the calling thread's timer slack; failure is harmless
    // (the default slack stays) and shows in the generator's own lag.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1 as c_ulong);
    }
}

#[cfg(not(target_os = "linux"))]
fn tighten_timer_slack() {}

struct SleepClock;

impl Clock for SleepClock {
    fn now(&mut self) -> u64 {
        now_ns()
    }
    fn sleep_until(&mut self, t: u64) {
        let now = now_ns();
        if t > now {
            std::thread::sleep(std::time::Duration::from_nanos(t - now));
        }
    }
}

/// A `KvClient` as an open-loop link, optionally wrapping `send` and
/// `recv` in spans.
struct ClientLink<'a> {
    client: KvClient,
    log: Option<&'a mut SpanLog>,
}

impl Link for ClientLink<'_> {
    type Req = (u64, Req);
    type Rep = Reply;

    fn send(&mut self, (id, r): &(u64, Req)) -> std::io::Result<()> {
        let t0 = now_ns();
        let res = self.client.send(&r.cmd);
        if let Some(log) = self.log.as_deref_mut() {
            log.record("client.send", *id, None, t0);
        }
        res
    }

    fn recv(&mut self) -> std::io::Result<Reply> {
        let t0 = now_ns();
        let res = self.client.recv();
        if let Some(log) = self.log.as_deref_mut() {
            // The reply is for the oldest outstanding request; the id is
            // filled in by the caller, which knows which one that is.
            log.record("client.recv_wait", u64::MAX, None, t0);
        }
        res
    }
}

/// Open loop: each connection sends on its own Poisson schedule of
/// `rate` requests per second. Requests due in the warm-up are not
/// timed; the measured window runs from then until the last reply of a
/// request due in it.
pub fn open(spec: Spec, rate: f64) -> Phase {
    let Spec {
        addr,
        shape,
        seed,
        phase: phase_no,
        warm_ns,
        measure_ns,
        traced,
    } = spec;
    let start = now_ns();
    let (from, until) = (start + warm_ns, start + warm_ns + measure_ns);
    run_conns(OPEN_CONNS, |conn| {
        let mut c = Conn::new(shape);
        let Ok(client) = KvClient::connect(addr) else {
            c.checker.violations.push("connect failed".into());
            return c;
        };
        tighten_timer_slack();
        let mut log = SpanLog::default();
        let mut link = ClientLink {
            client,
            log: traced.then_some(&mut log),
        };
        let mut gen = Gen::new(shape, seed, conn, phase_no);
        let mut sched = openloop::Poisson::new(seed ^ (conn << 56) ^ phase_no, rate, start);
        let (mut attempted, mut shard_reqs, mut seq) = (0u64, 0u64, 0u64);
        let mut replied = Vec::new();
        let next = || {
            let due = sched.next_due();
            (due < until).then(|| {
                let r = gen.next_req();
                attempted += 1;
                shard_reqs += r.shard_reqs();
                seq += 1;
                (due, (req_id(phase_no, conn, seq), r))
            })
        };
        let checker = &mut c.checker;
        let ledger = openloop::drive(&mut SleepClock, &mut link, next, |(id, r), reply| {
            checker.check(&r, &reply);
            replied.push(id);
        });
        c.attempted = attempted;
        c.shard_reqs = shard_reqs;
        match ledger {
            Ok(ledger) => {
                c.lat = ledger.latencies(from);
                c.lag = ledger.lags(from);
                c.own_lag = ledger.own_lags(from);
                let last = ledger.dones.iter().map(|&(_, done)| done).max();
                c.window_ns = last.unwrap_or(from).saturating_sub(from);
            }
            Err(e) => c.checker.violations.push(format!("connection lost: {e}")),
        }
        // Replies arrive in send order, so the k-th recv span belongs to
        // the k-th replied request.
        let mut ids = replied.into_iter();
        for s in &mut log.spans {
            if s.name == "client.recv_wait" {
                s.req = ids.next().unwrap_or(u64::MAX);
            }
        }
        c.log = log;
        c
    })
}

/// Sums of the server's per-shard counters between two snapshots.
#[derive(Clone, Copy, Debug, Default)]
pub struct ShardDelta {
    /// Engine operations (drained batches).
    pub batches: u64,
    /// Shard sub-requests served.
    pub reqs: u64,
    /// Sub-requests shed with BUSY.
    pub busy: u64,
    /// Busiest shard's requests over the mean shard's.
    pub max_over_mean: f64,
}

/// Counter movement from `before` to `after`.
pub fn shard_delta(before: &[ShardBatchStats], after: &[ShardBatchStats]) -> ShardDelta {
    let per: Vec<u64> = after
        .iter()
        .zip(before)
        .map(|(a, b)| a.reqs - b.reqs)
        .collect();
    let reqs: u64 = per.iter().sum();
    let mean = reqs as f64 / per.len().max(1) as f64;
    ShardDelta {
        batches: after
            .iter()
            .zip(before)
            .map(|(a, b)| a.batches - b.batches)
            .sum(),
        reqs,
        busy: after
            .iter()
            .zip(before)
            .map(|(a, b)| a.busy_rejects - b.busy_rejects)
            .sum(),
        max_over_mean: crate::stats::ratio(per.iter().copied().max().unwrap_or(0) as f64, mean),
    }
}

/// Sums every `"<field>":<integer>` in the server's STATS document.
pub fn stats_sum(json: &str, field: &str) -> u64 {
    let pat = format!("\"{field}\":");
    json.match_indices(&pat)
        .filter_map(|(i, _)| {
            let rest = &json[i + pat.len()..];
            let end = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            rest[..end].parse::<u64>().ok()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_ids_differ_across_phases_and_connections() {
        let ids = [
            req_id(0, 0, 5),
            req_id(1, 0, 5),
            req_id(0, 1, 5),
            req_id(1 << 16, 1, 5),
        ];
        for (i, a) in ids.iter().enumerate() {
            assert!(ids[i + 1..].iter().all(|b| b != a), "{ids:?}");
        }
    }

    #[test]
    fn stats_fields_are_summed_across_shards() {
        let json = r#"{"per_shard":[{"arena":{"live_bytes":10,"dead_bytes":2}},{"arena":{"live_bytes":5,"dead_bytes":0}}]}"#;
        assert_eq!(stats_sum(json, "live_bytes"), 15);
        assert_eq!(stats_sum(json, "dead_bytes"), 2);
        assert_eq!(stats_sum(json, "missing"), 0);
    }
}
