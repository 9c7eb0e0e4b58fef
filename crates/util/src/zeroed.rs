//! Zero-filled atomic arrays that cost only the pages they touch.
//!
//! Building a large `Box<[AtomicU64]>` with `(0..n).map(..).collect()`
//! writes every element, so every page of the array is resident before
//! anything uses it. [`atomic_u64s`] instead asks the allocator for
//! already-zeroed memory. At the atomics' own 8-byte alignment the
//! standard allocator forwards that request to `calloc`, and glibc hands
//! large blocks back as fresh anonymous mappings, which the kernel
//! supplies zeroed on first touch. An array nobody touches then stays
//! out of the resident set, however large it is.

use std::alloc::{self, Layout};
use std::ptr;
use std::sync::atomic::AtomicU64;

/// `n` atomics, all zero, allocated without writing them.
///
/// Equivalent to `(0..n).map(|_| AtomicU64::new(0)).collect()`, except
/// that the pages behind the array become resident only when first
/// read or written.
///
/// # Panics
///
/// If `n` words do not fit in `isize::MAX` bytes. Allocation failure
/// aborts through [`alloc::handle_alloc_error`], as `Box` does.
pub fn atomic_u64s(n: usize) -> Box<[AtomicU64]> {
    if n == 0 {
        // A zero-size layout must not reach the allocator.
        return Box::new([]);
    }
    let layout = Layout::array::<AtomicU64>(n).expect("atomic array size overflows isize");
    // SAFETY: `layout` is non-zero-sized, as `alloc_zeroed` requires. A
    // non-null result holds `n` aligned zero words, all-zero bits are a
    // valid `AtomicU64`, and `Box` frees an `n`-slice with this `layout`.
    unsafe {
        let p = alloc::alloc_zeroed(layout).cast::<AtomicU64>();
        if p.is_null() {
            alloc::handle_alloc_error(layout);
        }
        Box::from_raw(ptr::slice_from_raw_parts_mut(p, n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    #[test]
    fn has_the_requested_length() {
        for n in [1, 2, 7, 4096, 1 << 16] {
            assert_eq!(atomic_u64s(n).len(), n);
        }
    }

    #[test]
    fn every_element_starts_at_zero() {
        // Large enough to come from a fresh mapping, and a small one that
        // may reuse freed heap memory (which `calloc` must clear).
        for n in [1 << 18, 300] {
            let a = atomic_u64s(n);
            assert!(a.iter().all(|w| w.load(Ordering::Relaxed) == 0));
        }
    }

    #[test]
    fn zero_length_is_empty() {
        let a = atomic_u64s(0);
        assert!(a.is_empty());
        drop(a);
    }

    #[test]
    fn elements_are_usable_and_drop_frees() {
        // Allocate, write, drop and allocate again many times: a layout
        // mismatch between allocation and `Box`'s free would corrupt the
        // heap well within this loop.
        for round in 0..64u64 {
            let a = atomic_u64s(1000 + round as usize);
            a[0].store(round, Ordering::Relaxed);
            a[a.len() - 1].fetch_add(1, Ordering::Relaxed);
            assert_eq!(a[0].load(Ordering::Relaxed), round);
            assert_eq!(a[a.len() - 1].load(Ordering::Relaxed), 1);
            let b = atomic_u64s(1000 + round as usize);
            assert!(b.iter().all(|w| w.load(Ordering::Relaxed) == 0));
        }
    }

    #[test]
    fn is_aligned_for_atomics() {
        let a = atomic_u64s(3);
        assert_eq!(a.as_ptr() as usize % std::mem::align_of::<AtomicU64>(), 0);
    }
}
