//! KV request streams and the checks applied to every reply.
//!
//! Keys are `k<id>`. Every value a workload writes embeds the id of the
//! key it is written to, so a reply carrying another key's value, or a
//! value torn from two writes, is caught:
//!
//! * *counter* keys hold canonical integers `(id << 32) + n`. They are
//!   preloaded, then only read and incremented, never set or deleted, so
//!   every INCR result embeds the id and, per connection, strictly grows.
//! * *data* keys hold `K<id:9>V<ver:13>` followed by filler whose byte
//!   and length are functions of `(id, ver)`, or (on kv-read-closed
//!   only) canonical integers `(id << 32) | r`.

use std::collections::HashMap;

use hcf_kv::{Command, Reply};
use hcf_util::dist::Zipf;
use hcf_util::rng::{Rng, SplitMix64, StdRng};
use hcf_util::shard::shard_of;

/// Shards of the default server configuration.
pub const SHARDS: usize = 8;

/// Length of the `K<id>V<ver>` blob prefix.
const PREFIX: usize = 24;

/// Which KV workload a stream belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// kv-read-closed: Zipf keys, 90% GET, 24-byte blobs or integers.
    Read,
    /// kv-churn-open: uniform keys, writes beside reads, 64–1024 B blobs.
    Churn,
}

impl Shape {
    /// Size of the key space.
    pub fn keys(self) -> u64 {
        match self {
            Shape::Read => 4_096,
            Shape::Churn => 65_536,
        }
    }

    /// Whether `id` is a counter key.
    pub fn is_counter(self, id: u64) -> bool {
        match self {
            Shape::Read => id < 2_048 && id.is_multiple_of(2),
            Shape::Churn => id.is_multiple_of(8),
        }
    }

    /// Whether `id` is written before the run starts.
    pub fn is_preloaded(self, id: u64) -> bool {
        match self {
            Shape::Read => id < 2_048,
            Shape::Churn => self.is_counter(id) || id % 4 == 1,
        }
    }

    /// Length of the blob written with version `ver`.
    pub fn blob_len(self, ver: u64) -> usize {
        match self {
            Shape::Read => PREFIX,
            Shape::Churn => 64 + (SplitMix64::new(ver).next_u64() % 961) as usize,
        }
    }
}

/// The key name of `id`.
pub fn key(id: u64) -> Vec<u8> {
    format!("k{id}").into_bytes()
}

fn fill_byte(id: u64, ver: u64) -> u8 {
    b'a' + ((id ^ ver) % 26) as u8
}

/// The blob for key `id` at version `ver`.
pub fn blob(shape: Shape, id: u64, ver: u64) -> Vec<u8> {
    let mut v = format!("K{id:09}V{ver:013}").into_bytes();
    v.resize(shape.blob_len(ver), fill_byte(id, ver));
    v
}

/// Whether `value` is one this workload could have written to key `id`.
pub fn value_embeds(shape: Shape, id: u64, value: &[u8]) -> bool {
    if let Some(n) = hcf_kv::store::parse_inline_int(value) {
        return n >> 32 == id;
    }
    if value.len() < PREFIX || value[0] != b'K' || value[10] != b'V' {
        return false;
    }
    let (Some(got), Some(ver)) = (digits(&value[1..10]), digits(&value[11..PREFIX])) else {
        return false;
    };
    got == id
        && value.len() == shape.blob_len(ver)
        && value[PREFIX..].iter().all(|&b| b == fill_byte(id, ver))
}

fn digits(b: &[u8]) -> Option<u64> {
    if !b.iter().all(u8::is_ascii_digit) {
        return None;
    }
    std::str::from_utf8(b).ok()?.parse().ok()
}

/// One generated request.
#[derive(Clone, Debug)]
pub struct Req {
    /// What goes on the wire.
    pub cmd: Command,
    /// Key ids, positionally (several for MGET).
    pub ids: Vec<u64>,
}

impl Req {
    fn single(cmd: Command, id: u64) -> Req {
        Req { cmd, ids: vec![id] }
    }

    /// Shard sub-requests the server counts for this request.
    pub fn shard_reqs(&self) -> u64 {
        let mut hit = [false; SHARDS];
        for &id in &self.ids {
            hit[shard_of(&key(id), SHARDS)] = true;
        }
        hit.iter().filter(|&&h| h).count() as u64
    }
}

/// The preload: every preloaded key set once, counters to `id << 32`.
pub fn preload(shape: Shape) -> Vec<Req> {
    (0..shape.keys())
        .filter(|&id| shape.is_preloaded(id))
        .map(|id| {
            let v = if shape.is_counter(id) {
                (id << 32).to_string().into_bytes()
            } else {
                blob(shape, id, 0)
            };
            Req::single(Command::Set(key(id), v), id)
        })
        .collect()
}

/// A seeded request stream of one connection.
#[derive(Debug)]
pub struct Gen {
    shape: Shape,
    rng: StdRng,
    zipf: Option<Zipf>,
    conn: u64,
    seq: u64,
}

impl Gen {
    /// The stream of connection `conn` in phase `phase` of a run seeded
    /// with `seed`.
    pub fn new(shape: Shape, seed: u64, conn: u64, phase: u64) -> Gen {
        let mix = SplitMix64::new(seed ^ (conn << 32) ^ (phase << 48)).next_u64();
        Gen {
            shape,
            rng: StdRng::seed_from_u64(mix),
            zipf: (shape == Shape::Read).then(|| Zipf::new(shape.keys(), 0.99)),
            conn,
            seq: 0,
        }
    }

    fn draw(&mut self) -> u64 {
        match &self.zipf {
            Some(z) => z.sample(&mut self.rng),
            None => self.rng.random_range(0..self.shape.keys()),
        }
    }

    /// A data key near `id`.
    fn data(&self, id: u64) -> u64 {
        if self.shape.is_counter(id) {
            id + 1
        } else {
            id
        }
    }

    /// A counter key near `id`.
    fn counter(&self, id: u64) -> u64 {
        match self.shape {
            Shape::Read => (id % 2_048) & !1,
            Shape::Churn => id & !7,
        }
    }

    fn version(&mut self) -> u64 {
        self.seq += 1;
        self.conn * 1_000_000_000_000 + self.seq
    }

    /// The next request.
    pub fn next_req(&mut self) -> Req {
        let id = self.draw();
        let roll = self.rng.random_range(0..100u32);
        match (self.shape, roll) {
            (_, 0..=39) | (Shape::Read, 40..=89) => Req::single(Command::Get(key(id)), id),
            (Shape::Churn, 40..=49) => {
                let mut ids = vec![id];
                ids.extend((1..8).map(|_| self.draw()));
                Req {
                    cmd: Command::MGet(ids.iter().map(|&i| key(i)).collect()),
                    ids,
                }
            }
            (Shape::Read, 90..=94) | (Shape::Churn, 50..=74) => {
                let id = self.data(id);
                let v = if self.shape == Shape::Read && self.rng.random_bool(0.5) {
                    ((id << 32) | (self.rng.next_u64() >> 33))
                        .to_string()
                        .into_bytes()
                } else {
                    let ver = self.version();
                    blob(self.shape, id, ver)
                };
                Req::single(Command::Set(key(id), v), id)
            }
            (Shape::Churn, 75..=89) => {
                let id = self.data(id);
                Req::single(Command::Del(key(id)), id)
            }
            _ => {
                let id = self.counter(id);
                Req::single(Command::Incr(key(id)), id)
            }
        }
    }
}

/// Reply checks of one connection.
#[derive(Debug)]
pub struct Checker {
    shape: Shape,
    last_incr: HashMap<u64, u64>,
    /// Requests whose reply arrived.
    pub replies: u64,
    /// BUSY or ERR replies.
    pub failed: u64,
    /// Check violations (wrong reply type, foreign or torn value, INCR
    /// going backwards).
    pub violations: Vec<String>,
}

impl Checker {
    /// A checker for `shape`.
    pub fn new(shape: Shape) -> Checker {
        Checker {
            shape,
            last_incr: HashMap::new(),
            replies: 0,
            failed: 0,
            violations: Vec::new(),
        }
    }

    fn violation(&mut self, req: &Req, why: &str, reply: &Reply) {
        if self.violations.len() < 20 {
            let reply = format!("{reply:?}");
            let reply: String = reply.chars().take(120).collect();
            let cmd = String::from_utf8_lossy(&req.cmd.to_args()[0]).into_owned();
            self.violations.push(format!("{why}: {cmd} -> {reply}"));
        }
    }

    /// Checks one reply against its request.
    pub fn check(&mut self, req: &Req, reply: &Reply) {
        self.replies += 1;
        let ok = match (&req.cmd, reply) {
            (_, Reply::Busy | Reply::Err(_)) => {
                self.failed += 1;
                return;
            }
            (Command::Get(_), Reply::Nil) | (Command::Set(..), Reply::Ok) => true,
            (Command::Del(_), Reply::Int(n)) => *n <= 1,
            (Command::Get(_), Reply::Val(v)) => {
                if !value_embeds(self.shape, req.ids[0], v) {
                    return self.violation(req, "value of another key or torn", reply);
                }
                true
            }
            (Command::MGet(_), Reply::MVal(vals)) => {
                if vals.len() != req.ids.len() {
                    return self.violation(req, "MGET arity", reply);
                }
                let shape = self.shape;
                if !vals
                    .iter()
                    .zip(&req.ids)
                    .all(|(v, &id)| v.as_ref().is_none_or(|v| value_embeds(shape, id, v)))
                {
                    return self.violation(req, "MGET value of another key or torn", reply);
                }
                true
            }
            (Command::Incr(_), Reply::Int(n)) => {
                let id = req.ids[0];
                if n >> 32 != id {
                    return self.violation(req, "INCR result of another key", reply);
                }
                match self.last_incr.insert(id, *n) {
                    Some(prev) if prev >= *n => {
                        return self.violation(req, "INCR did not increase", reply)
                    }
                    _ => true,
                }
            }
            _ => false,
        };
        if !ok {
            self.violation(req, "reply type does not match command", reply);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_value_carrying_another_keys_id_is_rejected() {
        for shape in [Shape::Read, Shape::Churn] {
            let good = blob(shape, 42, 7);
            assert!(value_embeds(shape, 42, &good));
            assert!(!value_embeds(shape, 43, &good), "foreign blob accepted");
            let int = ((42u64 << 32) + 5).to_string().into_bytes();
            assert!(value_embeds(shape, 42, &int));
            assert!(!value_embeds(shape, 41, &int), "foreign integer accepted");
        }
        // Torn: the prefix of one write with the tail of another.
        let a = blob(Shape::Churn, 9, 1);
        let b = blob(Shape::Churn, 9, 2);
        let mut torn = a[..PREFIX].to_vec();
        torn.extend_from_slice(&b[PREFIX..]);
        assert!(!value_embeds(Shape::Churn, 9, &torn));

        let mut c = Checker::new(Shape::Read);
        let req = Req::single(Command::Get(key(5)), 5);
        c.check(&req, &Reply::Val(blob(Shape::Read, 5, 3)));
        assert!(c.violations.is_empty());
        c.check(&req, &Reply::Val(blob(Shape::Read, 6, 3)));
        assert_eq!(c.violations.len(), 1);
    }

    #[test]
    fn replies_must_match_commands_and_incr_must_grow() {
        let mut c = Checker::new(Shape::Churn);
        let incr = Req::single(Command::Incr(key(8)), 8);
        c.check(&incr, &Reply::Int((8 << 32) + 1));
        c.check(&incr, &Reply::Int((8 << 32) + 3));
        assert!(c.violations.is_empty());
        c.check(&incr, &Reply::Int((8 << 32) + 3));
        c.check(&Req::single(Command::Set(key(1), vec![]), 1), &Reply::Nil);
        assert_eq!(c.violations.len(), 2);
        c.check(&incr, &Reply::Busy);
        assert_eq!((c.failed, c.replies), (1, 5));
    }

    #[test]
    fn streams_are_seeded_and_respect_key_classes() {
        let stream = |seed| {
            let mut g = Gen::new(Shape::Churn, seed, 0, 0);
            (0..500).map(|_| g.next_req().cmd).collect::<Vec<_>>()
        };
        assert_eq!(stream(1), stream(1));
        assert_ne!(stream(1), stream(2));
        for shape in [Shape::Read, Shape::Churn] {
            let mut g = Gen::new(shape, 9, 1, 0);
            for _ in 0..5_000 {
                let r = g.next_req();
                match r.cmd {
                    Command::Incr(_) => assert!(shape.is_counter(r.ids[0])),
                    Command::Set(..) | Command::Del(_) => assert!(!shape.is_counter(r.ids[0])),
                    _ => {}
                }
            }
        }
        assert!(preload(Shape::Read).iter().all(|r| r.shard_reqs() == 1));
    }
}
