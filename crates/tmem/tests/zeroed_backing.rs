//! A transactional memory is resident only where it is used.
//!
//! `TMem::new` allocates its words and orecs already zeroed and writes
//! neither, so building a large memory must not grow the process's
//! resident set by anything like its size. This is a test binary of its
//! own, with one test, so no other test allocates while it measures.

use hcf_tmem::{Addr, RealRuntime, TMem, TMemConfig};

/// Resident set size of this process in kB, or `None` where
/// `/proc/self/status` does not exist or has no `VmRSS` line.
fn rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[test]
fn a_large_memory_costs_only_the_pages_it_touches() {
    let Some(before) = rss_kb() else {
        eprintln!("skipped: no VmRSS in /proc/self/status on this platform");
        return;
    };
    // 4 Mi words: 32 MiB of words plus 64 MiB of orecs (one 128-byte
    // unit per 8-word line), 96 MiB in all if every page were written.
    let words = 1usize << 22;
    let mem = TMem::new(TMemConfig::default().with_words(words));
    let grown_kb = rss_kb()
        .expect("VmRSS readable a moment ago")
        .saturating_sub(before);
    assert!(
        grown_kb < 8 * 1024,
        "TMem::new grew RSS by {grown_kb} kB for a 96 MiB memory nothing has used"
    );

    let rt = RealRuntime::new();
    let (first, last) = (Addr(0), Addr(words as u64 - 1));
    // A transaction begun at clock 0 reads a word only if its line's orec
    // is unlocked at version 0, so these reads check the first and last
    // orec as well as the words.
    assert_eq!(mem.clock(), 0);
    let mut tx = mem.begin(&rt);
    assert_eq!(tx.read(first), Ok(0));
    assert_eq!(tx.read(last), Ok(0));
    assert_eq!(tx.commit(), Ok(()));
    assert_eq!(mem.read_direct(&rt, first), 0);
    assert_eq!(mem.read_direct(&rt, last), 0);
    assert_eq!(mem.stats().commits, 1);
    assert_eq!(mem.stats().tx_reads, 2);
}
