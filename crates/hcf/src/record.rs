//! Operation descriptors shared between owners and combiners.

use std::fmt;
use std::sync::atomic::{AtomicU8, Ordering};

use hcf_util::sync::Mutex;

/// Lifecycle of an announced operation (§2.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum OpStatus {
    /// Not yet visible to other threads (TryPrivate phase).
    Unannounced = 0,
    /// Published in a publication array; the owner may still apply it
    /// itself (TryVisible) or a combiner may select it.
    Announced = 1,
    /// Selected by a combiner; the owner must wait for `Done`.
    BeingHelped = 2,
    /// Applied; the result is available in the descriptor.
    Done = 3,
}

impl OpStatus {
    fn from_u8(v: u8) -> OpStatus {
        match v {
            0 => OpStatus::Unannounced,
            1 => OpStatus::Announced,
            2 => OpStatus::BeingHelped,
            3 => OpStatus::Done,
            _ => unreachable!("invalid status {v}"),
        }
    }
}

/// The shared descriptor for one in-flight operation: its arguments, its
/// status, and a cell for its result.
///
/// Synchronization contract: a combiner stores the result *before* setting
/// the status to [`OpStatus::Done`] with release ordering; the owner reads
/// the status with acquire ordering before taking the result. The status
/// word is a plain process atomic (not a `tmem` word) — the exactly-once
/// argument (§2.3) rests on the *publication-array slot* being read
/// transactionally, see `engine.rs`.
pub struct OpRecord<Op, Res> {
    /// The operation's arguments.
    pub op: Op,
    status: AtomicU8,
    result: Mutex<Option<Res>>,
    /// Sanitizer identity of this record (see `hcf_tmem::san`).
    #[cfg(feature = "txsan")]
    san_id: u64,
}

impl<Op, Res> OpRecord<Op, Res> {
    /// Creates a descriptor in the [`OpStatus::Unannounced`] state.
    pub fn new(op: Op) -> Self {
        OpRecord {
            op,
            status: AtomicU8::new(OpStatus::Unannounced as u8),
            result: Mutex::new(None),
            #[cfg(feature = "txsan")]
            san_id: hcf_tmem::san::fresh_id(),
        }
    }

    /// Current status (acquire ordering, pairs with
    /// [`OpRecord::complete`]).
    pub fn status(&self) -> OpStatus {
        OpStatus::from_u8(self.status.load(Ordering::Acquire))
    }

    /// Transitions to a new status. Only the transitions of §2.2 are
    /// legal; debug builds check them, and under `txsan` every transition
    /// is logged for the replay checker.
    pub fn set_status(&self, s: OpStatus) {
        if cfg!(debug_assertions) {
            let cur = self.status();
            let ok = matches!(
                (cur, s),
                (OpStatus::Unannounced, OpStatus::Announced)
                    | (OpStatus::Announced, OpStatus::BeingHelped)
                    | (OpStatus::Announced, OpStatus::Done)
                    | (OpStatus::BeingHelped, OpStatus::Done)
            );
            debug_assert!(ok, "illegal status transition {cur:?} -> {s:?}");
        }
        #[cfg(feature = "txsan")]
        hcf_tmem::san::log(hcf_tmem::san::SanEvent::RecTransition {
            rec: self.san_id,
            from: self.status.load(Ordering::Acquire) as u64,
            to: s as u64,
        });
        self.status.store(s as u8, Ordering::Release);
    }

    /// Fault-injection hook for the sanitizer's negative tests: stores an
    /// arbitrary status, bypassing the legality debug-assert, while still
    /// logging the transition. The replay checker must flag the illegal
    /// edge.
    #[cfg(feature = "txsan")]
    pub fn force_status(&self, s: OpStatus) {
        hcf_tmem::san::log(hcf_tmem::san::SanEvent::RecTransition {
            rec: self.san_id,
            from: self.status.load(Ordering::Acquire) as u64,
            to: s as u64,
        });
        self.status.store(s as u8, Ordering::Release);
    }

    /// Stores the result and marks the operation [`OpStatus::Done`], in
    /// that order.
    pub fn complete(&self, res: Res) {
        *self.result.lock() = Some(res);
        self.set_status(OpStatus::Done);
    }

    /// Takes the result of a completed operation.
    ///
    /// # Panics
    ///
    /// Panics if the operation is not [`OpStatus::Done`] or the result was
    /// already taken.
    pub fn take_result(&self) -> Res {
        assert_eq!(self.status(), OpStatus::Done, "result not ready");
        self.result
            .lock()
            .take()
            .expect("result taken twice or never stored")
    }
}

impl<Op: fmt::Debug, Res> fmt::Debug for OpRecord<Op, Res> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OpRecord")
            .field("op", &self.op)
            .field("status", &self.status())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle() {
        let r: OpRecord<u32, u32> = OpRecord::new(7);
        assert_eq!(r.status(), OpStatus::Unannounced);
        r.set_status(OpStatus::Announced);
        r.set_status(OpStatus::BeingHelped);
        r.complete(42);
        assert_eq!(r.status(), OpStatus::Done);
        assert_eq!(r.take_result(), 42);
    }

    #[test]
    fn announced_to_done_directly() {
        let r: OpRecord<u32, u32> = OpRecord::new(7);
        r.set_status(OpStatus::Announced);
        r.complete(1);
        assert_eq!(r.take_result(), 1);
    }

    // The checked assertion is a `debug_assert!`, compiled out of
    // release builds.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "illegal status transition")]
    fn illegal_transition_panics_in_debug() {
        let r: OpRecord<u32, u32> = OpRecord::new(7);
        r.set_status(OpStatus::Done); // skipping Announced
    }

    #[test]
    #[should_panic(expected = "result not ready")]
    fn take_before_done_panics() {
        let r: OpRecord<u32, u32> = OpRecord::new(7);
        let _ = r.take_result();
    }

    #[test]
    fn cross_thread_handoff() {
        use std::sync::Arc;
        let r: Arc<OpRecord<u32, u32>> = Arc::new(OpRecord::new(7));
        r.set_status(OpStatus::Announced);
        let r2 = r.clone();
        let helper = std::thread::spawn(move || {
            r2.set_status(OpStatus::BeingHelped);
            r2.complete(99);
        });
        while r.status() != OpStatus::Done {
            std::thread::yield_now();
        }
        assert_eq!(r.take_result(), 99);
        helper.join().unwrap();
    }
}
