//! Cache-line padding for contended shared state.
//!
//! [`CachePadded<T>`] aligns (and therefore sizes) its contents to 128
//! bytes, so two adjacent padded values never share a cache line and —
//! on processors whose L2 spatial prefetcher pulls line *pairs*, such
//! as recent Intel parts — never share a prefetched pair either. This
//! is the standard remedy for *false sharing*: independent atomics that
//! happen to be neighbours in memory otherwise ping-pong one physical
//! line between writer cores, serializing logically disjoint updates.
//!
//! Pad state that is written by one thread and merely *read* (or rarely
//! written) by others: global clocks, per-thread statistics slots,
//! ownership-record arrays. Do not pad large read-mostly data — padding
//! multiplies the footprint and wastes cache capacity.
//!
//! [`Striped<T>`] applies the same remedy to counters that *every*
//! thread writes: one padded copy of `T` per thread (up to
//! [`COUNTER_STRIPES`]), written through [`Striped::local`] and summed
//! by readers through [`Striped::iter`].

use std::cell::Cell;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Wraps a value, aligning it to its own 128-byte cache-line pair.
///
/// The wrapper is transparent in use: it `Deref`s to `T`, so
/// `CachePadded<AtomicU64>` can be loaded and stored like the bare
/// atomic.
///
/// 128 rather than 64: on Intel processors the L2 adjacent-line
/// prefetcher treats aligned 128-byte pairs as a unit, so 64-byte
/// padding still allows destructive interference between neighbours
/// (the same constant crossbeam uses on x86).
#[derive(Clone, Copy, Default, PartialEq, Eq)]
#[repr(align(128))]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Pads `value`.
    #[inline]
    pub const fn new(value: T) -> Self {
        CachePadded { value }
    }

    /// Unwraps the padded value.
    #[inline]
    pub fn into_inner(self) -> T {
        self.value
    }
}

impl<T> Deref for CachePadded<T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> DerefMut for CachePadded<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

impl<T> From<T> for CachePadded<T> {
    #[inline]
    fn from(value: T) -> Self {
        CachePadded::new(value)
    }
}

impl<T: fmt::Debug> fmt::Debug for CachePadded<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.value, f)
    }
}

/// Number of stripes in every [`Striped`] (a power of two). Threads pick
/// stripes round-robin on first use, so up to this many threads count
/// without ever touching a shared cache line; beyond that, threads share
/// stripes, which stays exact for atomic counters but contends again.
pub const COUNTER_STRIPES: usize = 64;

/// Round-robin source of stripe indices (see [`STRIPE_IDX`]).
static STRIPE_SEQ: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// The calling thread's stripe index, assigned round-robin on first
    /// use and shared by every [`Striped`] value. Deliberately not a
    /// runtime's dense thread id (`hcf_tmem::Runtime::thread_id`): the
    /// counters are bumped on paths such as a direct memory access, and
    /// resolving a dense id there would *implicitly register* threads
    /// (such as a main thread doing direct setup) that previously never
    /// got one, shifting every later thread's id — observable through
    /// engine `max_threads` checks and the lockstep/sanitizer id order.
    static STRIPE_IDX: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// The calling thread's stripe index in `0..COUNTER_STRIPES`.
#[inline]
pub fn stripe_index() -> usize {
    let cached = STRIPE_IDX.get();
    if cached != usize::MAX {
        return cached;
    }
    // Relaxed: the sequence only hands out distinct numbers; nothing is
    // published through it.
    let idx = STRIPE_SEQ.fetch_add(1, Ordering::Relaxed) & (COUNTER_STRIPES - 1);
    STRIPE_IDX.set(idx);
    idx
}

/// [`COUNTER_STRIPES`] cache-padded copies of `T`, one per thread.
///
/// Writers update their own copy through [`local`](Striped::local), so
/// threads that all count the same events never share a cache line;
/// readers combine the copies through [`iter`](Striped::iter). With
/// atomic counters in `T`, a sum over `iter` after the writers are
/// joined is exact, also when more than [`COUNTER_STRIPES`] threads have
/// counted and some of them shared a stripe.
pub struct Striped<T> {
    stripes: Box<[CachePadded<T>]>,
}

impl<T> Striped<T> {
    /// Builds every stripe with `f`.
    pub fn from_fn(mut f: impl FnMut() -> T) -> Self {
        Striped {
            stripes: (0..COUNTER_STRIPES).map(|_| CachePadded::new(f())).collect(),
        }
    }

    /// The calling thread's stripe.
    #[inline]
    pub fn local(&self) -> &T {
        &self.stripes[stripe_index()]
    }

    /// Every stripe, in index order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.stripes.iter().map(|s| &**s)
    }
}

impl<T: Default> Default for Striped<T> {
    fn default() -> Self {
        Striped::from_fn(T::default)
    }
}

impl<T: fmt::Debug> fmt::Debug for Striped<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn layout_isolates_neighbours() {
        assert_eq!(std::mem::align_of::<CachePadded<AtomicU64>>(), 128);
        assert!(std::mem::size_of::<CachePadded<AtomicU64>>() >= 128);
        // Adjacent array elements land on distinct 128-byte units.
        let pair = [CachePadded::new(0u64), CachePadded::new(0u64)];
        let a = &pair[0] as *const _ as usize;
        let b = &pair[1] as *const _ as usize;
        assert!(b - a >= 128);
    }

    #[test]
    fn transparent_access() {
        let c = CachePadded::new(AtomicU64::new(7));
        assert_eq!(c.load(Ordering::Relaxed), 7);
        c.store(9, Ordering::Relaxed);
        assert_eq!(c.into_inner().into_inner(), 9);
    }

    #[test]
    fn value_semantics() {
        let mut c = CachePadded::new(41u64);
        *c += 1;
        assert_eq!(*c, 42);
        assert_eq!(CachePadded::from(42u64), c);
        assert_eq!(format!("{c:?}"), "42");
    }

    #[test]
    fn two_threads_stripes_are_a_padding_unit_apart() {
        let s = Striped::<AtomicU64>::default();
        let mine = s.local() as *const AtomicU64 as usize;
        // Another thread gets another index unless the round-robin
        // sequence, which threads of other tests advance too, wrapped onto
        // ours in between; retry past such a wrap.
        let theirs = std::thread::scope(|sc| loop {
            let p = sc
                .spawn(|| s.local() as *const AtomicU64 as usize)
                .join()
                .unwrap();
            if p != mine {
                break p;
            }
        });
        assert!(mine.abs_diff(theirs) >= 128, "{mine:#x} vs {theirs:#x}");
        let addrs: Vec<usize> = s.iter().map(|c| c as *const AtomicU64 as usize).collect();
        assert_eq!(addrs.len(), COUNTER_STRIPES);
        assert!(addrs.windows(2).all(|w| w[1] - w[0] >= 128));
        assert!(addrs.contains(&mine) && addrs.contains(&theirs));
    }
}
