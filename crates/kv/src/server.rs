//! The sharded KV server: TCP front-end, per-shard HCF engines,
//! connection admission, watchdog, and graceful shutdown.
//!
//! # Architecture
//!
//! ```text
//! conn threads (1/connection, each holding a runtime ThreadSlot)
//!   parse frame → Command
//!   route keys by shard hash ──→ shard s: encode values into s's arena
//!                                         engine.execute(ops)  ← HCF phases
//!                                         decode, retire old handles
//!   write reply
//! ```
//!
//! Every shard is an independent [`HcfEngine`] over its own
//! transactional memory, publication arrays, and fallback lock. There
//! is no request queue and no worker pool: the connection thread that
//! read a request executes it itself, and **the engine combines across
//! connections** — a thread that fails TryPrivate announces its
//! request, and a combiner applies it with its own (§2.2).
//!
//! All engines share one [`RealRuntime`], so a connection's dense id
//! (held by a [`ThreadSlot`] for its lifetime, reused once it closes)
//! serves every shard. At most [`KvConfig::queue_cap`] connections are
//! admitted, which is also every engine's `max_threads`; the next one
//! gets `BUSY` and is closed. A monitor declares a stall when requests
//! are in flight yet none completes for [`KvConfig::watchdog_ms`]
//! ([`hcf_util::progress`]).
//!
//! [`ThreadSlot`]: hcf_tmem::runtime::ThreadSlot

use std::collections::HashMap;
use std::io::{self, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use hcf_core::{ExecStatsSnapshot, HcfConfig, HcfEngine};
use hcf_ds::HashTable;
use hcf_tmem::runtime::Runtime;
use hcf_tmem::{DirectCtx, RealRuntime, TMem, TMemConfig};
use hcf_util::frame::{read_frame, write_frame_owned, FrameLimits};
use hcf_util::progress::{Liveness, StallTracker};
use hcf_util::shard::{shard_of, table_key};
use hcf_util::sync::Mutex;

use crate::proto::{Command, Reply};
use crate::store::{decode_value, encode_value, Arena, KvBatchRes, KvOp, KvRes, KvShardDs};

/// Server configuration. `Default` gives a loopback server on an
/// ephemeral port with 8 shards and room for 128 connections.
#[derive(Clone, Debug)]
pub struct KvConfig {
    /// Bind address, e.g. `"127.0.0.1:0"` for an ephemeral port.
    pub addr: String,
    /// Number of independent storage shards (engines).
    pub shards: usize,
    /// The most requests outstanding at one shard. A connection has at
    /// most one request in flight, so this is also the connection cap
    /// (and every engine's `max_threads`); connections beyond it are
    /// shed with `BUSY`.
    pub queue_cap: usize,
    /// Hash-table buckets per shard.
    pub buckets_per_shard: u64,
    /// Transactional-memory words per shard. This is reserved address
    /// space, not resident memory: the default 512 Ki words reserve
    /// 12 MiB per shard (words and orecs), of which only the pages the
    /// shard's table and values touch become resident.
    pub words_per_shard: usize,
    /// Stall deadline: requests in flight but none completing.
    pub watchdog_ms: u64,
    /// Monitor polling period.
    pub poll_ms: u64,
    /// Wire-format limits (max args per frame, max bytes per arg).
    pub limits: FrameLimits,
}

impl Default for KvConfig {
    fn default() -> Self {
        KvConfig {
            addr: "127.0.0.1:0".into(),
            shards: 8,
            queue_cap: 128,
            buckets_per_shard: 1024,
            words_per_shard: 1 << 19,
            watchdog_ms: 5_000,
            poll_ms: 10,
            limits: FrameLimits::default(),
        }
    }
}

impl KvConfig {
    /// Builder-style bind-address override.
    pub fn with_addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    /// Builder-style shard-count override.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Builder-style connection-cap override (see [`KvConfig::queue_cap`]).
    pub fn with_queue_cap(mut self, cap: usize) -> Self {
        self.queue_cap = cap.max(1);
        self
    }

    /// Builder-style watchdog-deadline override.
    pub fn with_watchdog_ms(mut self, ms: u64) -> Self {
        self.watchdog_ms = ms.max(1);
        self
    }
}

/// One storage shard: engine + arena + counters.
struct KvShard {
    engine: HcfEngine<KvShardDs>,
    arena: Arena,
    /// Requests inside `execute` right now (the watchdog's backlog).
    in_flight: AtomicU64,
    /// Requests served; each is exactly one `execute` call.
    reqs: AtomicU64,
    ops: AtomicU64,
}

impl KvShard {
    /// Runs one request's operations as one engine operation on the
    /// calling connection thread.
    fn execute(&self, ops: Vec<KvOp>) -> KvBatchRes {
        let n = ops.len() as u64;
        self.in_flight.fetch_add(1, Ordering::Relaxed);
        let res = self.engine.execute(Arc::new(ops));
        // Counted before the reply is written, so a client never sees a
        // reply the counters do not include yet.
        self.reqs.fetch_add(1, Ordering::Relaxed);
        self.ops.fetch_add(n, Ordering::Relaxed);
        self.in_flight.fetch_sub(1, Ordering::Relaxed);
        res
    }

    /// Retires an overwritten or deleted value's arena slot. Only the
    /// thread whose committed operation returned `old` calls this, so
    /// every handle is retired exactly once.
    fn retire(&self, old: Option<u64>) {
        if let Some(w) = old {
            if w & crate::store::INLINE_TAG == 0 {
                self.arena.retire(w);
            }
        }
    }
}

/// Point-in-time request counters for one shard. How much the engine
/// combined across connections is in [`KvServer::engine_stats`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ShardBatchStats {
    /// Engine operations executed; equals `reqs`, since each request
    /// (or each shard group of an MGET) is one `execute` call.
    pub batches: u64,
    /// Requests served, counting one per shard an MGET touches.
    pub reqs: u64,
    /// Per-key operations applied (MGET fans out several per request).
    pub ops: u64,
    /// Most requests in one engine operation: 1 once any ran.
    pub max_batch: u64,
    /// Requests shed with `BUSY` at this shard. Admission sheds whole
    /// connections before any request is routed (counted server-wide
    /// as `busy_conns` in `STATS`), so this stays 0.
    pub busy_rejects: u64,
}

/// Diagnostics captured when the watchdog declares a stall.
#[derive(Clone, Debug)]
pub struct StallInfo {
    /// Requests completed before the stall.
    pub completed_reqs: u64,
    /// Per-shard completion counts at stall time.
    pub per_shard: Vec<u64>,
    /// Requests inside an engine operation at stall time.
    pub in_flight: u64,
    /// How long nothing completed, in milliseconds.
    pub stalled_for_ms: u64,
}

/// Structured server failure, mirroring `hcf_sim::native::NativeError`.
#[derive(Clone, Debug)]
pub enum KvError {
    /// The watchdog saw requests in flight make no progress for the
    /// deadline. Stuck connection threads cannot be cancelled and are
    /// left detached — treat this as fatal diagnostics, not a
    /// recoverable condition.
    Stalled(StallInfo),
}

impl std::fmt::Display for KvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KvError::Stalled(s) => write!(
                f,
                "kv: no progress for {} ms with {} requests in flight \
                 ({} reqs completed, per-shard {:?})",
                s.stalled_for_ms, s.in_flight, s.completed_reqs, s.per_shard
            ),
        }
    }
}

impl std::error::Error for KvError {}

/// A live connection: the server's handle on its socket (for the
/// shutdown kick) and on its thread.
struct Conn {
    stream: TcpStream,
    thread: JoinHandle<()>,
}

struct ServerInner {
    cfg: KvConfig,
    shards: Vec<KvShard>,
    /// Shared by every shard engine; also the monitor's clock.
    rt: Arc<RealRuntime>,
    /// Live connections by id. Its length is the admission count.
    conns: Mutex<HashMap<u64, Conn>>,
    busy_conns: AtomicU64,
    stop: AtomicBool,
    stall: Mutex<Option<StallInfo>>,
}

impl ServerInner {
    fn begin_shutdown(&self) {
        self.stop.store(true, Ordering::Release);
    }

    /// One counter's value at every shard.
    fn per_shard(&self, counter: impl Fn(&KvShard) -> &AtomicU64) -> Vec<u64> {
        let load = |s| counter(s).load(Ordering::Relaxed);
        self.shards.iter().map(load).collect()
    }

    fn handle(&self, cmd: Command) -> Reply {
        match cmd {
            Command::Get(key) => self.single(&key, |k, _| KvOp::Get(k)),
            Command::Set(key, val) => {
                self.single(&key, |k, arena| KvOp::Set(k, encode_value(&val, arena)))
            }
            Command::Del(key) => self.single(&key, |k, _| KvOp::Del(k)),
            Command::Incr(key) => self.single(&key, |k, _| KvOp::Incr(k)),
            Command::MGet(keys) => self.mget(&keys),
            Command::Stats => Reply::Val(self.stats_json().into_bytes()),
            // The connection loop intercepts SHUTDOWN before `handle`.
            Command::Shutdown => Reply::Ok,
        }
    }

    /// One-key request. Values are encoded into the shard's arena here,
    /// once, outside the transaction (speculative retries must not
    /// re-push).
    fn single(&self, key: &[u8], op: impl FnOnce(u64, &Arena) -> KvOp) -> Reply {
        let shard = &self.shards[shard_of(key, self.shards.len())];
        let op = op(table_key(key), &shard.arena);
        match (op, shard.execute(vec![op])[0]) {
            (KvOp::Get(_), KvRes::Word(None)) => Reply::Nil,
            (KvOp::Get(_), KvRes::Word(Some(w))) => Reply::Val(decode_value(w, &shard.arena)),
            (KvOp::Set(..), KvRes::Word(old)) => {
                shard.retire(old);
                Reply::Ok
            }
            (KvOp::Del(_), KvRes::Word(old)) => {
                shard.retire(old);
                Reply::Int(u64::from(old.is_some()))
            }
            (KvOp::Incr(_), KvRes::Int(n)) => Reply::Int(n),
            (KvOp::Incr(_), KvRes::NotInt) => Reply::Err("value is not an integer".into()),
            (op, res) => unreachable!("op/result mismatch: {op:?} -> {res:?}"),
        }
    }

    fn mget(&self, keys: &[Vec<u8>]) -> Reply {
        // Group keys per shard, preserving original positions. Each
        // group is one engine operation, so it is atomic within its
        // shard; MGET across shards is not atomic (documented).
        let n_shards = self.shards.len();
        let mut groups: Vec<(Vec<usize>, Vec<KvOp>)> = Vec::new();
        groups.resize_with(n_shards, Default::default);
        for (i, key) in keys.iter().enumerate() {
            let s = shard_of(key, n_shards);
            groups[s].0.push(i);
            groups[s].1.push(KvOp::Get(table_key(key)));
        }
        let mut vals: Vec<Option<Vec<u8>>> = vec![None; keys.len()];
        for (shard, (pos, ops)) in self.shards.iter().zip(groups) {
            if ops.is_empty() {
                continue;
            }
            for (p, res) in pos.into_iter().zip(shard.execute(ops).iter()) {
                if let KvRes::Word(Some(w)) = *res {
                    vals[p] = Some(decode_value(w, &shard.arena));
                }
            }
        }
        Reply::MVal(vals)
    }

    fn stats_json(&self) -> String {
        let mut per = Vec::with_capacity(self.shards.len());
        for shard in &self.shards {
            let a = shard.arena.stats();
            per.push(format!(
                concat!(
                    "{{\"in_flight\":{},\"reqs\":{},\"ops\":{},",
                    "\"arena\":{{\"slots\":{},\"retired_slots\":{},",
                    "\"live_bytes\":{},\"dead_bytes\":{}}},\"engine\":{}}}"
                ),
                shard.in_flight.load(Ordering::Relaxed),
                shard.reqs.load(Ordering::Relaxed),
                shard.ops.load(Ordering::Relaxed),
                a.slots,
                a.retired_slots,
                a.live_bytes,
                a.dead_bytes,
                shard.engine.stats().to_json(),
            ));
        }
        format!(
            concat!(
                "{{\"shards\":{},\"queue_cap\":{},\"conns\":{},\"busy_conns\":{},",
                "\"total_reqs\":{},\"stalled\":{},\"per_shard\":[{}]}}"
            ),
            self.shards.len(),
            self.cfg.queue_cap,
            self.conns.lock().len(),
            self.busy_conns.load(Ordering::Relaxed),
            self.per_shard(|s| &s.reqs).iter().sum::<u64>(),
            self.stall.lock().is_some(),
            per.join(","),
        )
    }
}

/// A running KV server. Create with [`KvServer::start`]; stop with a
/// `SHUTDOWN` command or [`KvServer::begin_shutdown`], then call
/// [`KvServer::join`].
pub struct KvServer {
    inner: Arc<ServerInner>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    monitor: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for KvServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KvServer")
            .field("addr", &self.addr)
            .field("shards", &self.inner.shards.len())
            .finish()
    }
}

impl KvServer {
    /// Builds the shards, binds the listener, and spawns the acceptor
    /// and the monitor.
    ///
    /// # Errors
    ///
    /// I/O errors from binding the listener.
    ///
    /// # Panics
    ///
    /// Panics if shard construction exhausts the configured
    /// transactional memory (a static misconfiguration).
    pub fn start(cfg: KvConfig) -> io::Result<KvServer> {
        let rt = Arc::new(RealRuntime::new());
        // Setup uses its own throwaway runtime so the constructing
        // thread never consumes a dense id on the shared runtime: only
        // admitted connections may hold one.
        let setup_rt = RealRuntime::new();
        let mut shards = Vec::with_capacity(cfg.shards);
        for _ in 0..cfg.shards.max(1) {
            let mem = Arc::new(TMem::new(
                TMemConfig::default().with_words(cfg.words_per_shard),
            ));
            let table = {
                let mut ctx = DirectCtx::new(&mem, &setup_rt);
                HashTable::create(&mut ctx, cfg.buckets_per_shard)
                    .expect("shard table allocation failed")
            };
            let engine = HcfEngine::new(
                Arc::new(KvShardDs::new(table)),
                mem,
                rt.clone(),
                HcfConfig::new(cfg.queue_cap.max(1)).named("HCF-KV"),
            )
            .expect("shard engine allocation failed");
            shards.push(KvShard {
                engine,
                arena: Arena::new(),
                in_flight: AtomicU64::new(0),
                reqs: AtomicU64::new(0),
                ops: AtomicU64::new(0),
            });
        }

        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let inner = Arc::new(ServerInner {
            shards,
            rt,
            conns: Mutex::new(HashMap::new()),
            busy_conns: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            stall: Mutex::new(None),
            cfg,
        });
        let acceptor = {
            let inner = inner.clone();
            std::thread::spawn(move || acceptor_loop(&inner, &listener))
        };
        let monitor = {
            let inner = inner.clone();
            std::thread::spawn(move || monitor_loop(&inner))
        };
        Ok(KvServer {
            inner,
            addr,
            acceptor: Some(acceptor),
            monitor: Some(monitor),
        })
    }

    /// The bound address (resolves `:0` to the ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current statistics as JSON — the same document the `STATS`
    /// command returns.
    pub fn stats_json(&self) -> String {
        self.inner.stats_json()
    }

    /// Per-shard request counters.
    pub fn shard_batch_stats(&self) -> Vec<ShardBatchStats> {
        self.inner
            .shards
            .iter()
            .map(|s| {
                let reqs = s.reqs.load(Ordering::Relaxed);
                ShardBatchStats {
                    batches: reqs,
                    reqs,
                    ops: s.ops.load(Ordering::Relaxed),
                    max_batch: reqs.min(1),
                    busy_rejects: 0,
                }
            })
            .collect()
    }

    /// Per-shard engine statistics (the `engine` objects of `STATS`):
    /// completions by HCF phase and the combining degree.
    pub fn engine_stats(&self) -> Vec<ExecStatsSnapshot> {
        self.inner.shards.iter().map(|s| s.engine.stats()).collect()
    }

    /// Initiates shutdown: the acceptor stops taking connections and
    /// [`KvServer::join`] may proceed. Idempotent; also triggered by a
    /// client `SHUTDOWN` command.
    pub fn begin_shutdown(&self) {
        self.inner.begin_shutdown();
    }

    /// Waits for a shutdown trigger, then stops accepting, kicks every
    /// connection off its next read, and joins every thread. A request
    /// already read still gets its reply (the kick only shuts the read
    /// side).
    ///
    /// # Errors
    ///
    /// [`KvError::Stalled`] if the watchdog declared a stall; the stuck
    /// connection threads are left detached.
    ///
    /// # Panics
    ///
    /// Panics if a connection or service thread panicked.
    pub fn join(mut self) -> Result<(), KvError> {
        while !self.inner.stop.load(Ordering::Acquire) {
            std::thread::sleep(Duration::from_millis(2));
        }
        if let Some(h) = self.acceptor.take() {
            h.join().expect("kv acceptor panicked");
        }
        if let Some(h) = self.monitor.take() {
            h.join().expect("kv monitor panicked");
        }
        // After the acceptor exits the connection set only shrinks.
        let stall = self.inner.stall.lock().clone();
        let kick = stall.as_ref().map_or(Shutdown::Read, |_| Shutdown::Both);
        for c in self.inner.conns.lock().values() {
            let _ = c.stream.shutdown(kick);
        }
        if let Some(info) = stall {
            return Err(KvError::Stalled(info));
        }
        let conns = std::mem::take(&mut *self.inner.conns.lock());
        for c in conns.into_values() {
            c.thread.join().expect("kv connection thread panicked");
        }
        Ok(())
    }
}

fn acceptor_loop(inner: &Arc<ServerInner>, listener: &TcpListener) {
    let mut next_id = 0u64;
    while !inner.stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // The listener is non-blocking (for the stop poll); the
                // accepted connection must block normally. The write
                // timeout bounds a reply to a client that stopped
                // reading, which the read-side shutdown kick cannot.
                let wd = Duration::from_millis(inner.cfg.watchdog_ms);
                if stream.set_nonblocking(false).is_err()
                    || stream.set_nodelay(true).is_err()
                    || stream.set_write_timeout(Some(wd)).is_err()
                {
                    continue;
                }
                let mut conns = inner.conns.lock();
                if conns.len() >= inner.cfg.queue_cap {
                    drop(conns);
                    inner.busy_conns.fetch_add(1, Ordering::Relaxed);
                    let _ = write_reply(&mut &stream, &Reply::Busy, &mut Vec::new());
                    continue;
                }
                let Ok(own) = stream.try_clone() else {
                    continue;
                };
                let (id, conn_inner) = (next_id, inner.clone());
                next_id += 1;
                // Spawned under the lock: the thread's exit path removes
                // its entry, which must already be there.
                let thread = std::thread::spawn(move || conn_loop(&conn_inner, id, own));
                conns.insert(id, Conn { stream, thread });
            }
            Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(_) => return,
        }
    }
}

fn write_reply(w: &mut impl Write, reply: &Reply, buf: &mut Vec<u8>) -> io::Result<()> {
    buf.clear();
    // Infallible: writing into a Vec.
    write_frame_owned(buf, &reply.to_args()).expect("vec write");
    w.write_all(buf)
}

/// Leaves the connection set when a connection thread ends normally. A
/// panicking thread closes its socket, so the client is not left
/// waiting, but keeps its entry, so [`KvServer::join`] joins it and
/// propagates the panic.
struct ConnExit<'a> {
    inner: &'a ServerInner,
    id: u64,
}

impl Drop for ConnExit<'_> {
    fn drop(&mut self) {
        let mut conns = self.inner.conns.lock();
        if !std::thread::panicking() {
            conns.remove(&self.id);
        } else if let Some(c) = conns.get(&self.id) {
            let _ = c.stream.shutdown(Shutdown::Both);
        }
    }
}

fn conn_loop(inner: &Arc<ServerInner>, id: u64, stream: TcpStream) {
    let _exit = ConnExit { inner, id };
    // Declared after `_exit`, so dropped before it: the dense id returns
    // to the runtime before the admission slot frees, keeping every
    // live id below the engines' `max_threads`.
    let _slot = inner.rt.register();
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let mut out_buf: Vec<u8> = Vec::with_capacity(256);
    // The loop ends on clean disconnect, framing violation, or the
    // shutdown kick (which turns the next blocked read into EOF).
    while let Ok(Some(args)) = read_frame(&mut reader, inner.cfg.limits) {
        let (reply, shutdown) = match Command::parse(&args) {
            Ok(Command::Shutdown) => (Reply::Ok, true),
            Ok(cmd) => (inner.handle(cmd), false),
            Err(msg) => (Reply::Err(msg), false),
        };
        if write_reply(&mut writer, &reply, &mut out_buf).is_err() {
            break;
        }
        if shutdown {
            inner.begin_shutdown();
            break;
        }
    }
}

fn monitor_loop(inner: &Arc<ServerInner>) {
    let deadline_ns = inner.cfg.watchdog_ms.saturating_mul(1_000_000);
    let mut tracker = StallTracker::new(deadline_ns, inner.rt.now());
    while !inner.stop.load(Ordering::Acquire) {
        std::thread::sleep(Duration::from_millis(inner.cfg.poll_ms.max(1)));
        let in_flight: u64 = inner.per_shard(|s| &s.in_flight).iter().sum();
        if in_flight == 0 {
            // An idle server is waiting, not stalled.
            tracker.reset(inner.rt.now());
            continue;
        }
        let per_shard = inner.per_shard(|s| &s.reqs);
        let completed_reqs = per_shard.iter().sum();
        if let Liveness::Stalled(idle_ns) = tracker.observe(completed_reqs, inner.rt.now()) {
            *inner.stall.lock() = Some(StallInfo {
                completed_reqs,
                per_shard,
                in_flight,
                stalled_for_ms: idle_ns / 1_000_000,
            });
            inner.begin_shutdown();
            return;
        }
    }
}
