//! # hcf-tmem — software transactional memory with TSX-like semantics
//!
//! This crate is the hardware-transactional-memory substitute used by the
//! HCF reproduction (see the workspace `DESIGN.md`). It provides a
//! word-addressable transactional memory with *cache-line-granularity*
//! conflict detection, emulating the observable behaviour of a best-effort
//! HTM such as Intel TSX:
//!
//! * transactions may abort because of **data conflicts** with other
//!   transactions or with non-transactional (*direct*) writes,
//! * transactions may abort because their read or write footprint exceeds a
//!   configurable **capacity** (TSX buffers writes in L1),
//! * transactions may abort **explicitly** (the mechanism lock elision uses
//!   to "subscribe" to a lock: read the lock word inside the transaction and
//!   abort if it is held).
//!
//! The implementation is a TL2-style software TM: reads validate a per-line
//! versioned ownership record ("orec") against the transaction's begin-time
//! snapshot of a global clock (giving opacity — no zombie executions), and
//! writes are buffered and published atomically at commit after write-locking
//! the affected lines and re-validating the read set.
//!
//! ## Direct access and lock elision
//!
//! Code that holds the fallback lock accesses memory *directly* (no
//! transaction). Direct writes bump the line version so that every in-flight
//! transaction that has read the line aborts — exactly the interaction
//! transactional lock elision relies on. Two rules make the combination
//! safe, and both are enforced by [`ElidableLock`]:
//!
//! 1. every transaction accessing lock-protected data must *subscribe* to
//!    the lock ([`ctx::MemCtx::subscribe`]) so that a lock acquisition
//!    invalidates it, and
//! 2. a lock acquisition waits for in-flight commit write-backs to drain
//!    ([`TMem::quiesce`]) before the holder performs direct reads.
//!
//! ## Example
//!
//! ```
//! use hcf_tmem::{TMem, TMemConfig, runtime::RealRuntime, ctx::MemCtx};
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), hcf_tmem::AbortCause> {
//! let rt = Arc::new(RealRuntime::new());
//! let mem = Arc::new(TMem::new(TMemConfig::default()));
//! let a = mem.alloc_direct(2).unwrap();
//!
//! // Run a transaction with automatic retry.
//! let sum = loop {
//!     let mut tx = mem.begin(rt.as_ref());
//!     let result = (|| {
//!         tx.write(a, 20)?;
//!         tx.write(a + 1, 22)?;
//!         let x = tx.read(a)?;
//!         let y = tx.read(a + 1)?;
//!         Ok::<u64, hcf_tmem::AbortCause>(x + y)
//!     })();
//!     match result {
//!         Ok(v) => match tx.commit() {
//!             Ok(()) => break v,
//!             Err(_) => continue,
//!         },
//!         Err(_) => continue,
//!     }
//! };
//! assert_eq!(sum, 42);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod addr;
pub mod alloc;
pub mod config;
pub mod ctx;
pub mod error;
pub mod lock;
pub mod mem;
pub mod orec;
pub mod runtime;
pub mod san;
pub mod stats;
pub mod txn;
pub mod txset;

pub use addr::Addr;
pub use config::TMemConfig;
pub use ctx::{DirectCtx, MemCtx, TxCtx};
pub use error::{AbortCause, TxResult};
pub use lock::ElidableLock;
pub use mem::TMem;
pub use runtime::{AccessKind, RealRuntime, Runtime, ThreadSlot, TxEvent};
pub use stats::TxStats;
pub use txn::Txn;
pub use txset::TxnScratch;
