//! Cross-crate integration: full-stack simulated runs are deterministic,
//! account every operation, and reproduce the paper's headline
//! qualitative claims at miniature scale.

use std::sync::Arc;

use hcf_core::{HcfConfig, Phase, Variant};
use hcf_ds::{AvlDs, AvlMode, AvlTree, HashTable, HashTableDs};
use hcf_sim::driver::{run, SimConfig};
use hcf_sim::workload::{MapWorkload, SetWorkload};
use hcf_tmem::{MemCtx, TMemConfig, TxResult};
use hcf_util::rng::*;

const KEYS: u64 = 1024;

fn build_table(ctx: &mut dyn MemCtx, threads: usize) -> TxResult<(Arc<HashTableDs>, HcfConfig)> {
    let t = HashTable::create(ctx, KEYS)?;
    let mut rng = StdRng::seed_from_u64(1);
    let mut n = 0;
    while n < KEYS / 2 {
        if t.insert(ctx, rng.random_range(0..KEYS), 0)?.is_none() {
            n += 1;
        }
    }
    Ok((Arc::new(HashTableDs::new(t)), HashTableDs::hcf_config(threads)))
}

fn table_point(threads: usize, variant: Variant, find_pct: u32, duration: u64) -> hcf_sim::RunResult {
    let mut cfg = SimConfig::new(threads).with_duration(duration);
    cfg.tmem = TMemConfig::default().with_words(1 << 20);
    let w = MapWorkload {
        key_range: KEYS,
        find_pct,
    };
    run(&cfg, variant, build_table, move |_t, rng: &mut StdRng| {
        w.op(rng)
    })
}

#[test]
fn deterministic_full_stack() {
    for v in [Variant::Hcf, Variant::Scm, Variant::TleFc] {
        let a = table_point(6, v, 40, 150_000);
        let b = table_point(6, v, 40, 150_000);
        assert_eq!(a.total_ops, b.total_ops, "{v}");
        assert_eq!(a.elapsed, b.elapsed, "{v}");
        assert_eq!(a.exec, b.exec, "{v}");
        assert_eq!(a.tmem, b.tmem, "{v}");
    }
}

/// Every variant's results at one contended point, pinned. The lockstep
/// simulation is deterministic, so any change to an executor's sequence of
/// memory accesses, backoffs or retries moves these numbers (and the
/// figure CSVs with them). Debug assertions read shared memory (e.g.
/// the lock word on unlock), which the simulator charges, so each build
/// profile has its own table.
#[test]
fn lockstep_results_are_pinned() {
    // (variant, total_ops, elapsed, completed_by_phase, lock_acqs,
    //  htm_attempts, htm_commits)
    type Pinned = (Variant, u64, u64, [u64; 4], u64, u64, u64);
    let debug: [Pinned; 6] = [
        (Variant::Hcf, 2475, 152281, [2327, 48, 89, 11], 5, 3243, 2416),
        (Variant::Lock, 661, 151841, [0, 0, 0, 661], 661, 0, 0),
        (Variant::Tle, 2370, 152373, [2345, 0, 0, 25], 25, 3536, 2345),
        (Variant::Fc, 734, 150856, [0, 0, 0, 734], 431, 0, 0),
        (Variant::Scm, 2164, 152688, [2164, 0, 0, 0], 0, 2497, 2164),
        (Variant::TleFc, 2391, 151197, [2368, 0, 0, 23], 23, 3502, 2368),
    ];
    let release: [Pinned; 6] = [
        (Variant::Hcf, 2523, 151925, [2382, 29, 100, 12], 5, 3281, 2454),
        (Variant::Lock, 663, 151562, [0, 0, 0, 663], 663, 0, 0),
        (Variant::Tle, 2368, 151534, [2342, 0, 0, 26], 26, 3512, 2342),
        (Variant::Fc, 735, 150992, [0, 0, 0, 735], 416, 0, 0),
        (Variant::Scm, 2128, 152213, [2128, 0, 0, 0], 0, 2455, 2128),
        (Variant::TleFc, 2415, 151475, [2387, 0, 0, 28], 26, 3535, 2387),
    ];
    let pinned = if cfg!(debug_assertions) { debug } else { release };
    for (v, ops, elapsed, phases, locks, attempts, commits) in pinned {
        let r = table_point(8, v, 40, 150_000);
        let got = (
            r.total_ops,
            r.elapsed,
            r.exec.completed_by_phase(),
            r.exec.lock_acqs,
            r.exec.htm_attempts,
            r.exec.htm_commits,
        );
        assert_eq!(got, (ops, elapsed, phases, locks, attempts, commits), "{v}");
    }
}

/// Every issued operation completes in exactly one phase, and every
/// speculative attempt ends in exactly one commit or one abort.
#[test]
fn phase_accounting_is_exact() {
    for v in Variant::ALL {
        let r = table_point(4, v, 40, 120_000);
        let e = &r.exec;
        assert_eq!(
            e.total_ops(),
            r.total_ops,
            "{v}: phase completions must sum to op count"
        );
        assert_eq!(
            e.htm_attempts,
            e.htm_commits + e.htm_conflicts + e.htm_capacity + e.htm_explicit,
            "{v}: attempts must equal commits plus aborts"
        );
    }
}

#[test]
fn read_only_workload_scales_on_htm_variants() {
    // Figure 2(a)'s claim: with 100% finds, HCF scales like TLE; Lock and
    // FC do not scale.
    let t1 = [
        table_point(1, Variant::Hcf, 100, 150_000),
        table_point(1, Variant::Tle, 100, 150_000),
        table_point(1, Variant::Lock, 100, 150_000),
    ];
    let t8 = [
        table_point(8, Variant::Hcf, 100, 150_000),
        table_point(8, Variant::Tle, 100, 150_000),
        table_point(8, Variant::Lock, 100, 150_000),
    ];
    assert!(t8[0].throughput() > 3.0 * t1[0].throughput(), "HCF must scale");
    assert!(t8[1].throughput() > 3.0 * t1[1].throughput(), "TLE must scale");
    assert!(
        t8[2].throughput() < 2.0 * t1[2].throughput(),
        "Lock must not scale"
    );
    // And HCF carries no overhead vs TLE here (within noise).
    let ratio = t8[0].throughput() / t8[1].throughput();
    assert!((0.7..1.4).contains(&ratio), "HCF/TLE = {ratio}");
}

#[test]
fn update_heavy_workload_favors_hcf_over_tle() {
    // Figure 2(c)'s claim, miniaturized: under updates and enough
    // threads, TLE's lock stampede costs it; HCF keeps combining.
    let hcf = table_point(16, Variant::Hcf, 40, 250_000);
    let tle = table_point(16, Variant::Tle, 40, 250_000);
    assert!(
        hcf.throughput() > tle.throughput(),
        "HCF {:.0} must beat TLE {:.0} at 16 threads with 60% updates",
        hcf.throughput(),
        tle.throughput()
    );
    // The mechanism: TLE acquires the lock far more often per op.
    let tle_locks = tle.exec.lock_acqs as f64 / tle.total_ops as f64;
    let hcf_locks = hcf.exec.lock_acqs as f64 / hcf.total_ops as f64;
    assert!(
        hcf_locks < tle_locks,
        "HCF locks/op {hcf_locks:.4} must be below TLE {tle_locks:.4}"
    );
    // And HCF actually combines.
    assert!(hcf.exec.avg_degree() > 1.2, "degree {}", hcf.exec.avg_degree());
}

#[test]
fn inserts_complete_in_combining_phases_under_contention() {
    // Figure 3's claim: as threads grow, Insert operations shift to the
    // combining phases while Find/Remove stay in TryPrivate.
    let r = table_point(16, Variant::Hcf, 40, 250_000);
    let readers = &r.exec.arrays[hcf_ds::hashtable::ARRAY_READERS];
    let inserts = &r.exec.arrays[hcf_ds::hashtable::ARRAY_INSERTS];
    assert!(
        readers.phase_fraction(Phase::Private) > 0.9,
        "find/remove should succeed privately: {readers:?}"
    );
    let insert_combined = inserts.phase_fraction(Phase::Combining)
        + inserts.phase_fraction(Phase::Lock)
        + inserts.phase_fraction(Phase::Visible);
    assert!(
        insert_combined > 0.2,
        "inserts should need the later phases: {inserts:?}"
    );
}

#[test]
fn zipf_avl_hcf_survives_high_contention() {
    // Figure 5's claim, miniaturized: under the skewed workload TLE
    // collapses at high thread counts; HCF holds a multiple of it.
    let build = |ctx: &mut dyn MemCtx, threads: usize| {
        let t = AvlTree::create(ctx)?;
        let mut rng = StdRng::seed_from_u64(2);
        let mut n = 0;
        while n < 256 {
            if t.insert(ctx, rng.random_range(0..512))? {
                n += 1;
            }
        }
        Ok((
            Arc::new(AvlDs::new(t, AvlMode::Selective)),
            AvlDs::hcf_config(threads, &AvlMode::Selective),
        ))
    };
    let point = |v: Variant| {
        let w = SetWorkload::new(512, 0.9, 20);
        let cfg = SimConfig::new(24).with_duration(250_000);
        run(&cfg, v, build, move |_t, rng: &mut StdRng| w.op(rng))
    };
    let hcf = point(Variant::Hcf);
    let tle = point(Variant::Tle);
    assert!(
        hcf.throughput() > 1.5 * tle.throughput(),
        "HCF {:.0} vs TLE {:.0}",
        hcf.throughput(),
        tle.throughput()
    );
}

#[test]
fn hcf_configured_as_tle_behaves_like_tle() {
    // §2.4: "TLE is achieved when the number of HTM attempts in the
    // second and third phases are set to 0, while chooseOpsToHelp
    // returns only the operation of the combiner". The config preset
    // must track the standalone baseline in both throughput and
    // mechanism (lock acquisitions, private-phase completions).
    use hcf_core::PhasePolicy;

    let build_as_tle = |ctx: &mut dyn MemCtx, threads: usize| {
        let (ds, _cfg) = build_table(ctx, threads)?;
        Ok((
            ds,
            HcfConfig::new(threads).with_default_policy(PhasePolicy::tle_like(10)),
        ))
    };
    for threads in [4usize, 12] {
        let mut cfg = SimConfig::new(threads).with_duration(250_000);
        cfg.tmem = TMemConfig::default().with_words(1 << 20);
        let w = MapWorkload {
            key_range: KEYS,
            find_pct: 40,
        };
        let w2 = w.clone();
        let as_tle = run(&cfg, Variant::Hcf, build_as_tle, move |_t, rng: &mut StdRng| {
            w.op(rng)
        });
        let baseline = run(&cfg, Variant::Tle, build_table, move |_t, rng: &mut StdRng| {
            w2.op(rng)
        });
        let ratio = as_tle.throughput() / baseline.throughput();
        assert!(
            (0.75..1.33).contains(&ratio),
            "HCF-as-TLE throughput diverged from TLE at {threads} threads: {ratio:.2}"
        );
        // Mechanism: everything completes privately or under the lock,
        // never in a combining transaction (budget 0).
        let phases = as_tle.exec.completed_by_phase();
        assert_eq!(phases[1], 0, "no TryVisible completions with budget 0");
        assert_eq!(phases[2], 0, "no TryCombining completions with budget 0");
        // Lock pressure tracks the baseline within a factor.
        let a = as_tle.exec.lock_acqs as f64 / as_tle.total_ops.max(1) as f64;
        let b = baseline.exec.lock_acqs as f64 / baseline.total_ops.max(1) as f64;
        assert!(
            (a - b).abs() < 0.15,
            "locks/op diverged at {threads} threads: {a:.3} vs {b:.3}"
        );
    }
}
