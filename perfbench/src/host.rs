//! What the host did to the run: peak memory, and CPU time taken by the
//! hypervisor.
//!
//! The benchmark runs on a shared VM whose hypervisor at times takes a
//! large share of its CPU time ("steal" in `/proc/stat`): episodes of
//! about a minute with 20–30% steal were seen every few minutes, and a
//! KV run inside one read up to a thousand times slower. A segment,
//! round or set-up during which steal exceeded [`STEAL_LIMIT`] measures
//! the host, not the program, so it is left out of the medians; the
//! work it did is not replaced, so every run does the same work.

/// Largest share of CPU time the hypervisor may take during a measured
/// piece of work for it to count.
pub const STEAL_LIMIT: f64 = 0.05;

/// `(steal, total)` CPU ticks of this machine so far, from `/proc/stat`.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Runs `f` and returns its result with the share of CPU time the
/// hypervisor took meanwhile (0 where `/proc/stat` is unavailable).
pub fn steal_during<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let before = cpu_ticks();
    let out = f();
    let share = match (before, cpu_ticks()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    };
    (out, share)
}

/// Clean pieces of work (segments, rounds) a run wants; see [`more`].
pub const MIN_CLEAN: usize = 5;

/// Whether a run that has spent `spent` of its `budget` and done `clean`
/// pieces of work that count should do another: always within the
/// budget, and past it, for up to half the budget again, while it has
/// fewer than [`MIN_CLEAN`]. A steal episode can last a whole run; this
/// lets a run that began in one measure the program after it ends.
pub fn more(spent: u64, budget: u64, clean: usize) -> bool {
    spent < budget || (clean < MIN_CLEAN && spent < budget + budget / 2)
}

/// Whether a piece of work with this steal share counts.
pub fn clean(steal: f64) -> bool {
    steal <= STEAL_LIMIT
}

/// The items whose steal share counts, or all of them if none does.
pub fn counted<T>(items: &[T], steal: impl Fn(&T) -> f64) -> Vec<&T> {
    let kept: Vec<&T> = items.iter().filter(|i| clean(steal(i))).collect();
    if kept.is_empty() {
        items.iter().collect()
    } else {
        kept
    }
}

/// Turns off glibc's sliding mmap threshold, so that every allocation of
/// 128 KiB or more is mapped on its own and unmapped when freed.
///
/// By default the threshold rises to the size of the largest mapped
/// block freed so far, after which blocks of that size come from the
/// heap and stay resident once freed, at offsets set by the order of
/// allocations. native-pq frees and rebuilds a 16 MB transactional
/// memory every round, so its `VmHWM` then drifted from 54 to 69 MB over
/// a run, by chance; with the threshold fixed it stays within 1%.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn fix_mmap_threshold() {
    use std::os::raw::c_int;
    extern "C" {
        fn mallopt(param: c_int, value: c_int) -> c_int;
    }
    const M_MMAP_THRESHOLD: c_int = -3;
    // SAFETY: mallopt only sets an allocator parameter, is called before
    // any other thread starts, and on failure leaves the default, which
    // shows as a drifting `peak_rss_mb`.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn fix_mmap_threshold() {}

/// Peak resident set size of this process, in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_measure_on_past_their_budget_only_to_find_clean_work() {
        assert!(more(9, 10, 0));
        assert!(more(9, 10, MIN_CLEAN));
        assert!(!more(10, 10, MIN_CLEAN));
        assert!(more(10, 10, MIN_CLEAN - 1));
        assert!(more(14, 10, 0));
        assert!(!more(15, 10, 0));
    }

    #[test]
    fn stolen_items_are_left_out_unless_all_are() {
        let items = [0.01, 0.3, 0.05, 0.06];
        let kept = counted(&items, |&s| s);
        assert_eq!(kept, vec![&0.01, &0.05]);
        let all_stolen = [0.2, 0.3];
        assert_eq!(counted(&all_stolen, |&s| s).len(), 2);
    }
}
