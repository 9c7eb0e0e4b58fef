//! # hcf-kv — a sharded KV service where the engine combines across connections
//!
//! An in-memory key-value service layered on the HCF engine. Storage is
//! `N` independent shards, each a transactional hash table driven by
//! its **own** engine instance (own publication arrays, own fallback
//! lock) — the paper's multiple-lock design surfaced as a service
//! topology. Keys route to shards by a SplitMix64-based hash
//! ([`hcf_util::shard`]).
//!
//! The front end is a dependency-free length-prefixed text protocol
//! ([`proto`]) over plain TCP, one thread per connection. That thread
//! executes its own requests on the target shard's engine
//! ([`store::KvShardDs`]), so the engine is the service's only
//! combining layer: connections that contend on a shard are announced
//! and combined into shared transactions by HCF itself (§2.2). The
//! resulting combining degree and per-phase completions are reported
//! per shard by the `STATS` command.
//!
//! Overload is handled by admission (a connection beyond
//! [`KvConfig::queue_cap`] gets `BUSY` and is closed), shutdown by
//! answering every request already sent, and liveness by a watchdog
//! built on [`hcf_util::progress`]. The server uses no queue: [`queue`]
//! stays only as perfbench's model of the removed hand-off.
//!
//! ```no_run
//! use hcf_kv::{KvClient, KvConfig, KvServer};
//!
//! let server = KvServer::start(KvConfig::default()).unwrap();
//! let mut client = KvClient::connect(server.local_addr()).unwrap();
//! client.set(b"greeting", b"hello").unwrap();
//! assert_eq!(client.get(b"greeting").unwrap().as_deref(), Some(&b"hello"[..]));
//! client.shutdown().unwrap();
//! server.join().unwrap();
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod proto;
pub mod queue;
pub mod server;
pub mod store;

pub use client::KvClient;
pub use proto::{Command, Reply};
pub use server::{KvConfig, KvError, KvServer, ShardBatchStats, StallInfo};
