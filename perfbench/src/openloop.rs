//! The open-loop generator: requests are due on a seeded Poisson schedule,
//! sent when due whether or not earlier replies have arrived, and timed
//! from when they were due.
//!
//! One thread drives one connection. It sends every due request, reads
//! a reply when nothing is due, and sleeps when nothing is due or
//! outstanding. Timing from the due time counts the wait a stall
//! imposes on every later request; how late each send went out is
//! recorded separately as the generator's lag.
//!
//! A request that falls due while the generator is blocked reading an
//! earlier reply goes out when that reply arrives. The server handles a
//! connection's requests one at a time, so it could not have started
//! the request sooner than it finished the earlier one; that part of
//! the lag is the connection's wait, not the generator's. The rest —
//! sleeping past a due time, sending earlier requests of a burst — is
//! the generator's *own* lag, which is what bounds a run's validity.

use std::collections::VecDeque;
use std::io;

use hcf_util::rng::{Rng, StdRng};

/// Time source of the generator (a fake one in tests).
pub trait Clock {
    /// Current time in nanoseconds.
    fn now(&mut self) -> u64;
    /// Blocks until `t`.
    fn sleep_until(&mut self, t: u64);
}

/// The connection being driven.
pub trait Link {
    /// A request.
    type Req;
    /// A reply.
    type Rep;
    /// Sends without waiting for the reply.
    ///
    /// # Errors
    ///
    /// Transport errors.
    fn send(&mut self, req: &Self::Req) -> io::Result<()>;
    /// Receives the oldest outstanding reply.
    ///
    /// # Errors
    ///
    /// Transport errors.
    fn recv(&mut self) -> io::Result<Self::Rep>;
}

/// Exponential inter-arrival times at a fixed mean rate.
#[derive(Debug)]
pub struct Poisson {
    rng: StdRng,
    mean_gap_ns: f64,
    next: u64,
}

impl Poisson {
    /// A schedule of `rate` requests per second starting at `start`.
    pub fn new(seed: u64, rate: f64, start: u64) -> Self {
        let mut p = Poisson {
            rng: StdRng::seed_from_u64(seed),
            mean_gap_ns: 1e9 / rate,
            next: start,
        };
        p.next += p.gap();
        p
    }

    fn gap(&mut self) -> u64 {
        let u: f64 = self.rng.random();
        (-(1.0 - u).ln() * self.mean_gap_ns) as u64
    }

    /// The next due time; advances the schedule.
    pub fn next_due(&mut self) -> u64 {
        let t = self.next;
        self.next += self.gap();
        t
    }
}

/// Per-request timing of one driven connection.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Ledger {
    /// `(due, ready, sent)` per request, in send order: `ready` is the
    /// due time or, if later, when the generator's last blocking read of a
    /// reply returned.
    pub sends: Vec<(u64, u64, u64)>,
    /// `(due, done)` per completed request, in completion order.
    pub dones: Vec<(u64, u64)>,
}

impl Ledger {
    /// Lateness of each send past its due time.
    pub fn lags(&self, from_due: u64) -> Vec<u64> {
        self.sends
            .iter()
            .filter(|&&(due, ..)| due >= from_due)
            .map(|&(due, _, sent)| sent.saturating_sub(due))
            .collect()
    }

    /// The generator's own lateness of each send: past its due time or
    /// the end of the read it was blocked in, whichever is later.
    pub fn own_lags(&self, from_due: u64) -> Vec<u64> {
        self.sends
            .iter()
            .filter(|&&(due, ..)| due >= from_due)
            .map(|&(_, ready, sent)| sent.saturating_sub(ready))
            .collect()
    }

    /// Latency of each completed request, from its due time.
    pub fn latencies(&self, from_due: u64) -> Vec<u64> {
        self.dones
            .iter()
            .filter(|&&(due, _)| due >= from_due)
            .map(|&(due, done)| done.saturating_sub(due))
            .collect()
    }
}

/// Drives `link` until `next` runs out of requests and every reply is
/// in. `next` yields `(due, request)` in due order; `on_reply` sees each
/// request with its reply.
///
/// # Errors
///
/// The first transport error; the ledger up to it is lost with it.
pub fn drive<C, L>(
    clock: &mut C,
    link: &mut L,
    mut next: impl FnMut() -> Option<(u64, L::Req)>,
    mut on_reply: impl FnMut(L::Req, L::Rep),
) -> io::Result<Ledger>
where
    C: Clock,
    L: Link,
{
    let mut ledger = Ledger::default();
    let mut outstanding: VecDeque<(u64, L::Req)> = VecDeque::new();
    let mut upcoming = next();
    let mut read_done = 0;
    loop {
        let now = clock.now();
        if let Some((due, _)) = upcoming {
            if due <= now {
                let (due, req) = upcoming.take().expect("checked above");
                link.send(&req)?;
                ledger.sends.push((due, due.max(read_done), now));
                outstanding.push_back((due, req));
                upcoming = next();
                continue;
            }
        }
        if let Some((due, req)) = outstanding.pop_front() {
            let rep = link.recv()?;
            read_done = clock.now();
            ledger.dones.push((due, read_done));
            on_reply(req, rep);
            continue;
        }
        match upcoming {
            Some((due, _)) => clock.sleep_until(due),
            None => return Ok(ledger),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;

    struct FakeClock(Rc<Cell<u64>>);

    impl Clock for FakeClock {
        fn now(&mut self) -> u64 {
            self.0.get()
        }
        fn sleep_until(&mut self, t: u64) {
            self.0.set(self.0.get().max(t));
        }
    }

    /// A server that handles one request at a time, each taking
    /// `service[i]`, and whose `recv` advances the shared clock to the
    /// reply's arrival.
    struct SerialServer {
        clock: Rc<Cell<u64>>,
        service: Vec<u64>,
        free_at: u64,
        replies: VecDeque<u64>,
    }

    impl Link for SerialServer {
        type Req = usize;
        type Rep = u64;
        fn send(&mut self, req: &usize) -> io::Result<()> {
            let start = self.clock.get().max(self.free_at);
            self.free_at = start + self.service[*req];
            self.replies.push_back(self.free_at);
            Ok(())
        }
        fn recv(&mut self) -> io::Result<u64> {
            let at = self.replies.pop_front().expect("a reply is outstanding");
            self.clock.set(self.clock.get().max(at));
            Ok(at)
        }
    }

    #[test]
    fn a_stall_is_charged_to_every_request_it_delays() {
        let clock = Rc::new(Cell::new(0));
        // Due every 100 ns; request 1 stalls the server for 350 ns.
        let service = vec![10, 350, 10, 10, 10];
        let mut link = SerialServer {
            clock: clock.clone(),
            service,
            free_at: 0,
            replies: VecDeque::new(),
        };
        let mut i = 0;
        let next = || {
            let r = (i < 5).then(|| (i as u64 * 100, i));
            i += 1;
            r
        };
        let mut seen = Vec::new();
        let ledger = drive(&mut FakeClock(clock), &mut link, next, |req, _| {
            seen.push(req)
        })
        .unwrap();
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
        // Requests 2 to 4 fell due while the generator waited on reply 1:
        // they went out late, and their latency counts from the due time.
        assert_eq!(ledger.lags(0), vec![0, 0, 250, 150, 50]);
        // None of that lateness was the generator's own: each went out
        // as soon as the read it was blocked in returned.
        assert_eq!(ledger.own_lags(0), vec![0; 5]);
        assert_eq!(ledger.latencies(0), vec![10, 350, 260, 170, 80]);
        // A warm-up cut drops requests due before it.
        assert_eq!(ledger.latencies(200), vec![260, 170, 80]);
        assert_eq!(ledger.lags(300), vec![150, 50]);
    }

    /// A clock whose sleeps overshoot by a fixed amount.
    struct LateClock(Rc<Cell<u64>>, u64);

    impl Clock for LateClock {
        fn now(&mut self) -> u64 {
            self.0.get()
        }
        fn sleep_until(&mut self, t: u64) {
            self.0.set(self.0.get().max(t + self.1));
        }
    }

    #[test]
    fn oversleeping_is_the_generators_own_lag() {
        let clock = Rc::new(Cell::new(0));
        let mut link = SerialServer {
            clock: clock.clone(),
            service: vec![10; 3],
            free_at: 0,
            replies: VecDeque::new(),
        };
        let mut i = 0;
        let next = || {
            let r = (i < 3).then(|| (100 + i as u64 * 100, i));
            i += 1;
            r
        };
        let ledger = drive(&mut LateClock(clock, 30), &mut link, next, |_, _| {}).unwrap();
        assert_eq!(ledger.own_lags(0), vec![30, 30, 30]);
        assert_eq!(ledger.lags(0), vec![30, 30, 30]);
        assert_eq!(ledger.latencies(0), vec![40, 40, 40]);
    }

    #[test]
    fn an_idle_generator_sends_on_time() {
        let clock = Rc::new(Cell::new(0));
        let mut link = SerialServer {
            clock: clock.clone(),
            service: vec![5; 50],
            free_at: 0,
            replies: VecDeque::new(),
        };
        let mut sched = Poisson::new(3, 1e6, 0);
        let mut i = 0;
        let next = || {
            let r = (i < 50).then(|| (sched.next_due(), i));
            i += 1;
            r
        };
        let ledger = drive(&mut FakeClock(clock), &mut link, next, |_, _| {}).unwrap();
        let lags = ledger.lags(0);
        assert_eq!(lags.len(), 50);
        assert!(ledger.own_lags(0).iter().all(|&l| l == 0));
        // Whenever the previous reply was in before the next due time,
        // the send went out exactly on time.
        let on_time = lags.iter().filter(|&&l| l == 0).count();
        assert!(on_time >= 40, "{lags:?}");
        assert!(ledger.latencies(0).iter().all(|&l| l >= 5));
    }
}
