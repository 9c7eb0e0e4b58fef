//! Linearizability of KV traffic over loopback TCP. Several clients
//! share a few keys, each request span is timestamped on one monotonic
//! clock, and the history is checked against a sequential map with the
//! Wing & Gong checker. Connection threads execute on the shard engines
//! themselves, so every engine is entered by several threads at once.

use std::collections::BTreeMap;
use std::sync::Arc;

use hcf_kv::store::parse_inline_int;
use hcf_kv::{Command, KvClient, KvConfig, KvServer, Reply};
use hcf_sim::lincheck::{check_linearizable, OpSpan, SeqSpec};
use hcf_tmem::runtime::Runtime;
use hcf_tmem::RealRuntime;
use hcf_util::rng::{Rng, SplitMix64};
use hcf_util::shard::shard_of;

const CLIENTS: usize = 4;

/// The sequential specification: a byte map, where INCR treats a
/// missing key as 0 and fails on a non-integer.
#[derive(Clone, Default, PartialEq, Eq, Hash)]
struct KvMap(BTreeMap<Vec<u8>, Vec<u8>>);

impl SeqSpec for KvMap {
    type Op = Command;
    type Res = Reply;

    fn apply(&mut self, op: &Command) -> Reply {
        match op {
            Command::Get(k) => self.0.get(k).map_or(Reply::Nil, |v| Reply::Val(v.clone())),
            Command::Set(k, v) => {
                self.0.insert(k.clone(), v.clone());
                Reply::Ok
            }
            Command::Del(k) => Reply::Int(u64::from(self.0.remove(k).is_some())),
            Command::Incr(k) => {
                let n = match self.0.get(k).map(|v| parse_inline_int(v)) {
                    None => 0,
                    Some(Some(n)) => n,
                    Some(None) => return Reply::Err("value is not an integer".into()),
                };
                self.0.insert(k.clone(), (n + 1).to_string().into_bytes());
                Reply::Int(n + 1)
            }
            other => unreachable!("not generated: {other:?}"),
        }
    }
}

/// Runs `per_client` requests from `gen` on each of [`CLIENTS`]
/// connections against a fresh `shards`-shard server and checks the
/// history.
fn check_history(
    shards: usize,
    per_client: usize,
    gen: impl Fn(&mut SplitMix64) -> Command + Sync,
) {
    let server = KvServer::start(
        KvConfig::default()
            .with_shards(shards)
            .with_watchdog_ms(10_000),
    )
    .expect("server start");
    let addr = server.local_addr();
    let clock = Arc::new(RealRuntime::new());

    let mut history: Vec<OpSpan<Command, Reply>> = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|tid| {
                let (clock, gen) = (clock.clone(), &gen);
                s.spawn(move || {
                    let mut client = KvClient::connect(addr).expect("connect");
                    let mut rng = SplitMix64::new(0x0011_C4E7 ^ tid as u64);
                    (0..per_client)
                        .map(|_| {
                            let op = gen(&mut rng);
                            let invoke = clock.now();
                            let res = client.request(&op).expect("request");
                            let response = clock.now();
                            OpSpan {
                                tid,
                                invoke,
                                response,
                                op,
                                res,
                            }
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            history.extend(h.join().expect("client thread"));
        }
    });
    assert_eq!(history.len(), CLIENTS * per_client);
    assert!(
        check_linearizable(KvMap::default(), &history),
        "history is not linearizable"
    );

    let mut client = KvClient::connect(addr).expect("connect");
    client.shutdown().expect("SHUTDOWN");
    server.join().expect("clean join");
}

#[test]
fn concurrent_incrs_on_one_key_linearize() {
    // One shard concentrates every client on a single engine, the worst
    // case for the INCR read-modify-write. A linearizable history of
    // INCRs alone also proves none was lost or applied twice.
    check_history(1, 25, |_| Command::Incr(b"ctr".to_vec()));
}

#[test]
fn mixed_ops_on_keys_across_shards_linearize() {
    // One key per shard, so every engine serves contended traffic.
    const SHARDS: usize = 4;
    let mut keys: Vec<Option<Vec<u8>>> = vec![None; SHARDS];
    for i in 0.. {
        let k = format!("key{i}").into_bytes();
        keys[shard_of(&k, SHARDS)].get_or_insert(k);
        if keys.iter().all(Option::is_some) {
            break;
        }
    }
    let keys: Vec<Vec<u8>> = keys.into_iter().flatten().collect();
    check_history(SHARDS, 50, |rng| {
        let k = keys[(rng.next_u64() % SHARDS as u64) as usize].clone();
        match rng.next_u64() % 8 {
            0 | 1 => Command::Get(k),
            2 => Command::Set(k, (rng.next_u64() % 10).to_string().into_bytes()),
            3 => Command::Set(k, b"blob".to_vec()),
            4 => Command::Del(k),
            _ => Command::Incr(k),
        }
    });
}
