//! Extension S3: HTM capacity limits — the *other* TLE failure mode.
//!
//! The paper (§4, citing Diegues et al.) notes TLE "performance
//! deteriorates substantially when … capacity limits are reached". This
//! experiment makes operation footprints a parameter: each operation
//! scans `footprint` words before updating one uncontended slot. Once
//! the scan exceeds the transactional read capacity, every speculative
//! attempt aborts with `Capacity` and the HTM variants degrade toward
//! the Lock baseline — while FC/Lock, which never speculate, are
//! unaffected.

use std::sync::Arc;

use hcf_bench::{sim_config, Csv};
use hcf_core::{DataStructure, HcfConfig, Variant};
use hcf_sim::driver::run;
use hcf_tmem::{Addr, MemCtx, TMemConfig, TxResult};
use hcf_util::rng::*;

/// Scan `footprint` words (line-spaced, so each costs a read-set line),
/// then add into one of `slots` counters.
struct ScanThenAdd {
    scratch: Addr,
    footprint: u64,
    slots: Addr,
    n_slots: u64,
    stride: u64,
}

impl DataStructure for ScanThenAdd {
    type Op = u64; // slot selector
    type Res = u64;

    fn run_seq(&self, ctx: &mut dyn MemCtx, op: &u64) -> TxResult<u64> {
        // The scratch area is all zeroes; the reads only exist to grow
        // the read set past capacity.
        let mut acc = 0u64;
        for i in 0..self.footprint {
            acc = acc.wrapping_add(ctx.read(self.scratch + i * self.stride)?);
        }
        debug_assert_eq!(acc, 0);
        let slot = self.slots + (op % self.n_slots) * self.stride;
        let v = ctx.read(slot)?;
        ctx.write(slot, v.wrapping_add(1))?;
        Ok(v + 1)
    }
}

fn main() {
    // Read capacity of 256 lines; footprints sweep across it.
    let read_cap = 256usize;
    let mut csv = Csv::new(
        "extra_capacity",
        "figure,footprint_lines,variant,threads,ops_per_mcycle,capacity_aborts,lock_acqs",
    );
    let threads = 8;
    for &footprint in &[32u64, 128, 240, 512, 1024] {
        for v in [Variant::Hcf, Variant::Tle, Variant::Lock, Variant::Fc] {
            let mut cfg = sim_config(threads);
            cfg.tmem = TMemConfig {
                words: 1 << 21,
                words_per_line_log2: 3,
                read_cap_lines: read_cap,
                write_cap_lines: 64,
            };
            let stride = cfg.tmem.words_per_line() as u64;
            let r = run(
                &cfg,
                v,
                move |ctx, th| {
                    let scratch = ctx.alloc((1024 * stride) as usize)?;
                    let slots = ctx.alloc((64 * stride) as usize)?;
                    Ok((
                        Arc::new(ScanThenAdd {
                            scratch,
                            footprint,
                            slots,
                            n_slots: 64,
                            stride,
                        }),
                        HcfConfig::new(th),
                    ))
                },
                move |_tid, rng: &mut StdRng| rng.random_range(0..64u64),
            );
            csv.line(&format!(
                "S3,{footprint},{v},{threads},{:.2},{},{}",
                r.throughput(),
                r.exec.htm_capacity,
                r.exec.lock_acqs,
            ));
        }
    }
}
