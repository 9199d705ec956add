//! Per-warp register dataflow: def-use chains over `Reg` operands.
//!
//! A trace-driven model never executes values, but it *does* replay the
//! register dependencies — the scoreboard stalls consumers on producers.
//! That makes dataflow statically checkable: a register read with no
//! earlier def in the warp has no producer the scoreboard could ever have
//! tracked (the modelled latency is fiction), a def overwritten before any
//! read is dead trace weight, and a load repeating an identical earlier
//! load (same space, width, lane addresses, with no intervening store to
//! that space or barrier) fetches a value that cannot have changed.
//!
//! The pass also measures scoreboard pressure: a backward liveness sweep
//! per warp (live = will be read before the next redefinition) whose peak
//! population count is the register count a scoreboard actually needs —
//! comparable against the kernel's declared `regs_per_thread`.

use crisp_trace::{
    AddrHashMap, KernelTrace, Op, Space, StreamId, TraceErrorSite, WarpTrace, SCOREBOARD_REGS,
};

use crate::config::AnalysisConfig;
use crate::diag::{Diagnostic, LintCode};

/// Scoreboard-pressure numbers accumulated over a kernel's warps.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PressureStats {
    /// Peak live registers over any warp.
    pub max_live: u32,
    /// Sum over warps of each warp's peak live count (for the mean).
    pub sum_warp_peaks: u64,
    /// Warps measured.
    pub warps: usize,
}

impl PressureStats {
    /// Mean over warps of the per-warp peak live-register count.
    pub fn mean_live(&self) -> f64 {
        if self.warps == 0 {
            0.0
        } else {
            self.sum_warp_peaks as f64 / self.warps as f64
        }
    }
}

fn site(
    stream: Option<StreamId>,
    kernel: &str,
    cta: usize,
    warp: usize,
    instr: usize,
) -> TraceErrorSite {
    TraceErrorSite {
        stream,
        kernel: Some(kernel.to_string()),
        cta: Some(cta),
        warp: Some(warp),
        instr: Some(instr),
    }
}

/// Run the dataflow pass over every warp of `k`, appending diagnostics and
/// returning scoreboard-pressure statistics. A `trimmed` walk tracks only
/// use-before-def: dead writes and redundant loads only warn, and its
/// pressure statistics are 0.
pub(crate) fn check_kernel(
    stream: Option<StreamId>,
    k: &KernelTrace,
    cfg: &AnalysisConfig,
    trimmed: bool,
    out: &mut Vec<Diagnostic>,
) -> PressureStats {
    let mut stats = PressureStats::default();
    for (ci, cta) in k.ctas.iter().enumerate() {
        for (wi, w) in cta.warps.iter().enumerate() {
            let peak = check_warp(stream, k, ci, wi, w, cfg, trimmed, out);
            stats.max_live = stats.max_live.max(peak);
            stats.sum_warp_peaks += peak as u64;
            stats.warps += 1;
        }
    }
    stats
}

#[allow(clippy::too_many_arguments)]
fn check_warp(
    stream: Option<StreamId>,
    k: &KernelTrace,
    ci: usize,
    wi: usize,
    w: &WarpTrace,
    cfg: &AnalysisConfig,
    trimmed: bool,
    out: &mut Vec<Diagnostic>,
) -> u32 {
    let bit = |r: crisp_trace::Reg| -> Option<u128> {
        // Out-of-range ids are the structural validator's finding, not ours.
        (r.0 < SCOREBOARD_REGS).then(|| 1u128 << r.0)
    };

    // Forward pass: use-before-def, dead writes, redundant loads.
    let mut defined: u128 = 0;
    let mut ubd_reported: u128 = 0; // one report per register per warp
    let mut last_def: [Option<usize>; SCOREBOARD_REGS as usize] = [None; SCOREBOARD_REGS as usize];
    let mut read_since_def: u128 = 0;
    // (space, width, lane addresses) of loads seen since the last barrier /
    // conflicting store, keyed to the instr index of the first occurrence.
    let mut loads_seen: AddrHashMap<(u8, u8, &[u64]), usize> = AddrHashMap::default();
    let space_tag = |s: Space| -> u8 {
        match s {
            Space::Global => 0,
            Space::Shared => 1,
            Space::Local => 2,
            Space::Tex => 3,
        }
    };

    for (ii, instr) in w.iter().enumerate() {
        for r in instr.src_regs() {
            let Some(b) = bit(r) else { continue };
            read_since_def |= b;
            if defined & b == 0 && ubd_reported & b == 0 {
                ubd_reported |= b;
                if let Some(severity) = cfg.severity_for(LintCode::UseBeforeDef, Some(&k.name)) {
                    out.push(Diagnostic {
                        code: LintCode::UseBeforeDef,
                        severity,
                        site: site(stream, &k.name, ci, wi, ii),
                        related: None,
                        message: format!(
                            "r{} is read before any instruction of this warp defines \
                             it — the scoreboard has no producer to wait on",
                            r.0
                        ),
                        hint: LintCode::UseBeforeDef.hint(),
                    });
                }
            }
        }

        match instr.op {
            _ if trimmed => {}
            Op::Bar(_) => {
                // Another warp's stores become visible: earlier loads no
                // longer prove anything. Conservatively forget all spaces.
                loads_seen.clear();
            }
            Op::Ld(space) => {
                if let Some(mem) = &instr.mem {
                    let key = (space_tag(space), mem.width, mem.addrs);
                    match loads_seen.get(&key) {
                        Some(&prev) => {
                            if let Some(severity) =
                                cfg.severity_for(LintCode::RedundantLoad, Some(&k.name))
                            {
                                out.push(Diagnostic {
                                    code: LintCode::RedundantLoad,
                                    severity,
                                    site: site(stream, &k.name, ci, wi, ii),
                                    related: Some(site(stream, &k.name, ci, wi, prev)),
                                    message: format!(
                                        "load repeats instr {prev} exactly (same space, \
                                         width, lane addresses) with no store or barrier \
                                         in between — the value cannot have changed"
                                    ),
                                    hint: LintCode::RedundantLoad.hint(),
                                });
                            }
                        }
                        None => {
                            loads_seen.insert(key, ii);
                        }
                    }
                }
            }
            Op::St(space) => {
                // A store may overwrite anything previously loaded from its
                // space; drop those entries.
                let tag = space_tag(space);
                loads_seen.retain(|(s, _, _), _| *s != tag);
            }
            _ => {}
        }

        if let Some(d) = instr.dst {
            let Some(b) = bit(d) else { continue };
            if let Some(prev) = last_def[d.0 as usize].filter(|_| !trimmed) {
                if read_since_def & b == 0 {
                    if let Some(severity) = cfg.severity_for(LintCode::DeadWrite, Some(&k.name)) {
                        out.push(Diagnostic {
                            code: LintCode::DeadWrite,
                            severity,
                            site: site(stream, &k.name, ci, wi, prev),
                            related: Some(site(stream, &k.name, ci, wi, ii)),
                            message: format!(
                                "r{} written here is overwritten at instr {ii} without \
                                 ever being read",
                                d.0
                            ),
                            hint: LintCode::DeadWrite.hint(),
                        });
                    }
                }
            }
            last_def[d.0 as usize] = Some(ii);
            read_since_def &= !b;
            defined |= b;
        }
    }
    // Defs still unread at Exit are *not* flagged: a warp's final register
    // state can model externally-visible values (e.g. stores the generator
    // elided), so only the overwrite-without-read chain is provably dead.

    // Backward liveness sweep for scoreboard pressure.
    if trimmed {
        return 0;
    }
    let mut live: u128 = 0;
    let mut peak: u32 = 0;
    for instr in w.iter().rev() {
        if let Some(d) = instr.dst {
            if let Some(b) = bit(d) {
                live &= !b;
            }
        }
        for r in instr.src_regs() {
            if let Some(b) = bit(r) {
                live |= b;
            }
        }
        peak = peak.max(live.count_ones());
    }
    peak
}

#[cfg(test)]
mod tests {
    use super::*;
    use crisp_trace::{CtaTrace, DataClass, Instr, MemAccess, Reg};

    fn sealed(instrs: Vec<Instr>) -> WarpTrace {
        let mut w = WarpTrace::new();
        w.extend(instrs);
        w.seal();
        w
    }

    fn kernel_of(warps: Vec<WarpTrace>) -> KernelTrace {
        let threads = 32 * warps.len() as u32;
        KernelTrace::new("k", threads, 16, 0, vec![CtaTrace::new(warps)])
    }

    fn run(k: &KernelTrace) -> (Vec<Diagnostic>, PressureStats) {
        let mut out = Vec::new();
        let stats = check_kernel(None, k, &AnalysisConfig::new(), false, &mut out);
        (out, stats)
    }

    fn load_at(dst: u16, base: u64) -> Instr {
        Instr::load(
            Reg(dst),
            MemAccess::coalesced(Space::Global, DataClass::Compute, 4, base, 32),
        )
    }

    #[test]
    fn use_before_def_is_reported_once_per_reg() {
        let w = sealed(vec![
            Instr::alu(Op::FpAlu, Reg(1), &[Reg(7)]),
            Instr::alu(Op::FpAlu, Reg(2), &[Reg(7)]), // same undefined reg: no second report
            Instr::alu(Op::FpAlu, Reg(3), &[Reg(8)]),
        ]);
        let (d, _) = run(&kernel_of(vec![w]));
        let ubd: Vec<_> = d
            .iter()
            .filter(|x| x.code == LintCode::UseBeforeDef)
            .collect();
        assert_eq!(ubd.len(), 2, "{d:?}");
        assert_eq!(ubd[0].site.instr, Some(0));
        assert_eq!(ubd[1].site.instr, Some(2));
    }

    #[test]
    fn defined_regs_do_not_trip() {
        let w = sealed(vec![
            load_at(1, 0),
            Instr::alu(Op::FpFma, Reg(2), &[Reg(1)]),
            Instr::store(
                Reg(2),
                MemAccess::coalesced(Space::Global, DataClass::Compute, 4, 0x100, 32),
            ),
        ]);
        let (d, _) = run(&kernel_of(vec![w]));
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn dead_write_chain_flags_each_overwritten_def() {
        let w = sealed(vec![
            Instr::alu(Op::IntAlu, Reg(5), &[]),
            Instr::alu(Op::IntAlu, Reg(5), &[]),
            Instr::alu(Op::IntAlu, Reg(5), &[]),
            Instr::alu(Op::IntAlu, Reg(0), &[Reg(5)]),
        ]);
        let (d, _) = run(&kernel_of(vec![w]));
        let dead: Vec<_> = d.iter().filter(|x| x.code == LintCode::DeadWrite).collect();
        assert_eq!(dead.len(), 2, "{d:?}");
        assert_eq!(dead[0].site.instr, Some(0));
        assert_eq!(dead[1].site.instr, Some(1));
    }

    #[test]
    fn read_between_defs_keeps_the_write_live() {
        let w = sealed(vec![
            Instr::alu(Op::IntAlu, Reg(5), &[]),
            Instr::alu(Op::IntAlu, Reg(6), &[Reg(5)]),
            Instr::alu(Op::IntAlu, Reg(5), &[]),
            Instr::alu(Op::IntAlu, Reg(7), &[Reg(5), Reg(6)]),
        ]);
        let (d, _) = run(&kernel_of(vec![w]));
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn final_unread_def_is_not_flagged() {
        let w = sealed(vec![Instr::alu(Op::IntAlu, Reg(5), &[])]);
        let (d, _) = run(&kernel_of(vec![w]));
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn identical_reload_is_redundant() {
        let w = sealed(vec![load_at(1, 0), load_at(2, 0)]);
        let (d, _) = run(&kernel_of(vec![w]));
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, LintCode::RedundantLoad);
        assert_eq!(d[0].site.instr, Some(1));
        assert_eq!(d[0].related.as_ref().unwrap().instr, Some(0));
    }

    #[test]
    fn barrier_or_store_invalidates_reload() {
        let st = Instr::store(
            Reg(1),
            MemAccess::coalesced(Space::Global, DataClass::Compute, 4, 0, 32),
        );
        let w = sealed(vec![load_at(1, 0), Instr::bar(), load_at(2, 0)]);
        let (d, _) = run(&kernel_of(vec![w.clone(), w]));
        assert!(d.is_empty(), "{d:?}");
        let w = sealed(vec![load_at(1, 0), st, load_at(2, 0)]);
        let (d, _) = run(&kernel_of(vec![w]));
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn pressure_counts_peak_live_registers() {
        // r1..r4 all live until the final consumer.
        let w = sealed(vec![
            Instr::alu(Op::IntAlu, Reg(1), &[]),
            Instr::alu(Op::IntAlu, Reg(2), &[]),
            Instr::alu(Op::IntAlu, Reg(3), &[]),
            Instr::alu(Op::FpFma, Reg(4), &[Reg(1), Reg(2), Reg(3)]),
            Instr::store(
                Reg(4),
                MemAccess::coalesced(Space::Global, DataClass::Compute, 4, 0, 32),
            ),
        ]);
        let (_, stats) = run(&kernel_of(vec![w]));
        assert_eq!(stats.max_live, 3);
        assert_eq!(stats.warps, 1);
        assert!((stats.mean_live() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn out_of_range_regs_are_ignored_here() {
        // Reg 200 is the structural validator's problem; the dataflow pass
        // must not panic or double-report it.
        let w = sealed(vec![Instr::alu(Op::IntAlu, Reg(0), &[Reg(200)])]);
        let (d, _) = run(&kernel_of(vec![w]));
        assert!(d.is_empty(), "{d:?}");
    }
}
