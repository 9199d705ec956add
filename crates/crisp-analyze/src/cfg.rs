//! CFG-level barrier analysis: a deadlock *prover* plus divergence lints.
//!
//! The structural validator guarantees every warp of a CTA executes the
//! same *number* of `Op::Bar`s; with named barrier slots that is no longer
//! enough — warp 0 running `bar.sync 0; bar.sync 1` and warp 1 running
//! `bar.sync 1; bar.sync 0` have equal totals, pass validation, and wedge
//! the runtime forever (a slot only releases when its own arrival count
//! reaches the CTA's live-warp count).
//!
//! [`check_kernel`] closes that gap with an exact abstract machine per
//! CTA. The machine is *confluent*: a slot releases exactly when its
//! arrival count reaches the live-warp count, arrival counts only grow
//! between releases, the live count only shrinks, and each warp's slot
//! sequence is fixed by its trace — so greedy lock-step advancement fires
//! the same set of releases as any real interleaving, and its verdict
//! (completes / wedges) is a proof about *every* schedule, not a
//! heuristic about one. A wedge is reported as
//! [`LintCode::CfgBarrierDivergence`] naming the culprit warps, their
//! slots, and their barrier instruction sites — the same CTA the runtime
//! watchdog would name after burning the whole cycle budget.
//!
//! Two warnings ride on the same per-warp walk:
//!
//! * [`LintCode::CfgUnboundedLoop`] — one branch-terminated basic block
//!   repeating `loop_trip_threshold`-or-more consecutive times (an
//!   unbounded-looking back-edge).
//! * [`LintCode::CfgDivergenceHostile`] — one barrier interval with
//!   `divergence_paths`-or-more distinct per-warp control paths
//!   (reconvergence-hostile divergence).

use crisp_trace::{
    CtaTrace, InstrRef, KernelTrace, Op, Space, StreamId, TraceErrorSite, NUM_BARRIERS,
};

use crate::config::AnalysisConfig;
use crate::diag::{Diagnostic, LintCode};

/// One barrier arrival in a warp's trace: the dynamic instruction index
/// and the `bar.sync` slot it parks at.
#[derive(Debug, Clone, Copy)]
struct BarEvent {
    instr: usize,
    slot: u8,
}

fn site(
    stream: Option<StreamId>,
    kernel: &str,
    cta: usize,
    warp: Option<usize>,
    instr: Option<usize>,
) -> TraceErrorSite {
    TraceErrorSite {
        stream,
        kernel: Some(kernel.to_string()),
        cta: Some(cta),
        warp,
        instr,
    }
}

/// FNV-1a over a byte — the whole pass hashes through this so block and
/// path signatures are deterministic and dependency-free.
fn fnv(h: &mut u64, b: u8) {
    *h ^= u64::from(b);
    *h = h.wrapping_mul(0x100_0000_01b3);
}

const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

fn space_byte(s: Space) -> u8 {
    match s {
        Space::Global => 0,
        Space::Shared => 1,
        Space::Local => 2,
        Space::Tex => 3,
    }
}

/// Fold one instruction into a signature: opcode class (+ operand
/// sub-tag) and the register shape, but not addresses — the same code
/// walked with different data must hash identically.
fn sig_instr(h: &mut u64, i: InstrRef<'_>) {
    let (a, b) = match i.op {
        Op::IntAlu => (0, 0),
        Op::FpAlu => (1, 0),
        Op::FpMul => (2, 0),
        Op::FpFma => (3, 0),
        Op::Sfu => (4, 0),
        Op::Tensor => (5, 0),
        Op::Branch => (6, 0),
        Op::Bar(id) => (7, id),
        Op::Exit => (8, 0),
        Op::Ld(s) => (9, space_byte(s)),
        Op::St(s) => (10, space_byte(s)),
    };
    fnv(h, a);
    fnv(h, b);
    let reg = |h: &mut u64, r: Option<crisp_trace::Reg>| {
        for byte in r.map_or(u16::MAX, |r| r.0).to_le_bytes() {
            fnv(h, byte);
        }
    };
    reg(h, i.dst);
    for s in i.srcs {
        reg(h, s);
    }
}

/// Run the abstract barrier machine over one CTA's per-warp slot
/// sequences. Returns the parked frontier `(warp, event)` of the wedged
/// terminal state, or `None` when every warp provably exits.
fn prove_cta(events: &[Vec<BarEvent>]) -> Option<Vec<(usize, BarEvent)>> {
    let n = events.len();
    let mut cursor = vec![0usize; n];
    let mut parked: Vec<Option<u8>> = vec![None; n];
    let mut alive = vec![true; n];
    let mut live = n;
    let mut arrivals = [0usize; NUM_BARRIERS];
    loop {
        // Advance every runnable warp to its next barrier or its exit.
        for w in 0..n {
            if alive[w] && parked[w].is_none() {
                match events[w].get(cursor[w]) {
                    Some(e) => {
                        parked[w] = Some(e.slot);
                        arrivals[e.slot as usize] += 1;
                    }
                    None => {
                        alive[w] = false;
                        live -= 1;
                    }
                }
            }
        }
        // Fire every release the new arrivals (and exits) enable. A
        // release can drop `live` no further, but unparks warps that may
        // immediately complete another slot on the next sweep.
        let mut fired = true;
        while fired {
            fired = false;
            for (slot, arrived) in arrivals.iter_mut().enumerate() {
                if *arrived > 0 && *arrived >= live {
                    *arrived = 0;
                    for w in 0..n {
                        if parked[w] == Some(slot as u8) {
                            parked[w] = None;
                            cursor[w] += 1;
                        }
                    }
                    fired = true;
                }
            }
        }
        if live == 0 {
            return None;
        }
        if (0..n).all(|w| !alive[w] || parked[w].is_some()) {
            // Terminal: every live warp parked, no slot at quorum. The
            // machine can never move again — neither can any schedule.
            return Some(
                (0..n)
                    .filter(|&w| alive[w])
                    .map(|w| (w, events[w][cursor[w]]))
                    .collect(),
            );
        }
    }
}

/// Render the wedge as a diagnostic: primary site is the lowest parked
/// warp's barrier, related site the lowest warp parked at a *different*
/// slot (one always exists — a single-slot frontier would be at quorum).
fn wedge_diagnostic(
    stream: Option<StreamId>,
    k: &KernelTrace,
    ci: usize,
    frontier: &[(usize, BarEvent)],
    cfg: &AnalysisConfig,
) -> Option<Diagnostic> {
    let severity = cfg.severity_for(LintCode::CfgBarrierDivergence, Some(&k.name))?;
    let (w0, e0) = frontier.first()?;
    let other = frontier.iter().find(|(_, e)| e.slot != e0.slot);
    let mut per_slot = [0usize; NUM_BARRIERS];
    for (_, e) in frontier {
        per_slot[e.slot as usize] += 1;
    }
    let spread = per_slot
        .iter()
        .enumerate()
        .filter(|(_, &n)| n > 0)
        .map(|(slot, &n)| format!("{n} at slot {slot}"))
        .collect::<Vec<_>>()
        .join(", ");
    let live = frontier.len();
    let message = match other {
        Some((w1, e1)) => format!(
            "provable barrier deadlock: warp {w0} parks at bar.sync {} \
             (instr {}) while warp {w1} parks at bar.sync {} (instr {}); \
             the {live} live warps split {spread}, so no slot can reach \
             {live} arrivals under any schedule",
            e0.slot, e0.instr, e1.slot, e1.instr
        ),
        None => format!(
            "provable barrier deadlock: all {live} live warps park at \
             bar.sync {} (instr {}) with no releasing arrival left",
            e0.slot, e0.instr
        ),
    };
    Some(Diagnostic {
        code: LintCode::CfgBarrierDivergence,
        severity,
        site: site(stream, &k.name, ci, Some(*w0), Some(e0.instr)),
        related: other.map(|(w1, e1)| site(stream, &k.name, ci, Some(*w1), Some(e1.instr))),
        message,
        hint: LintCode::CfgBarrierDivergence.hint(),
    })
}

/// Longest consecutive run of one branch-terminated block signature in a
/// warp: `(first instr of the run's first block, trip count)`.
fn hottest_back_edge(warp: &crisp_trace::WarpTrace) -> Option<(usize, usize)> {
    let mut block_start = 0usize;
    let mut h = FNV_SEED;
    let mut last: Option<(u64, usize)> = None; // (sig, run start instr)
    let mut run = 0usize;
    let mut best: Option<(usize, usize)> = None;
    for (ii, instr) in warp.iter().enumerate() {
        sig_instr(&mut h, instr);
        match instr.op {
            Op::Branch => {
                match last {
                    Some((sig, start)) if sig == h => {
                        run += 1;
                        if best.is_none_or(|(_, n)| run > n) {
                            best = Some((start, run));
                        }
                    }
                    _ => {
                        last = Some((h, block_start));
                        run = 1;
                    }
                }
                h = FNV_SEED;
                block_start = ii + 1;
            }
            Op::Bar(_) | Op::Exit => {
                // A barrier or exit ends the pattern: a barrier'd loop is
                // paced by its own arrivals and is not the runaway shape
                // this lint hunts.
                last = None;
                run = 0;
                h = FNV_SEED;
                block_start = ii + 1;
            }
            _ => {}
        }
    }
    best
}

/// Distinct per-warp control paths inside each barrier interval of a CTA:
/// `(interval index, distinct paths, warps)` for the most divergent
/// interval.
fn most_divergent_interval(cta: &CtaTrace) -> Option<(usize, usize, usize)> {
    // paths[p] = signatures of interval p, one per warp that reached it.
    let mut paths: Vec<Vec<u64>> = Vec::new();
    for w in &cta.warps {
        let mut p = 0usize;
        let mut h = FNV_SEED;
        for instr in w.iter() {
            sig_instr(&mut h, instr);
            if matches!(instr.op, Op::Bar(_) | Op::Exit) {
                if paths.len() <= p {
                    paths.resize(p + 1, Vec::new());
                }
                paths[p].push(h);
                p += 1;
                h = FNV_SEED;
            }
        }
    }
    paths
        .iter()
        .enumerate()
        .map(|(p, sigs)| {
            let warps = sigs.len();
            let mut distinct = sigs.clone();
            distinct.sort_unstable();
            distinct.dedup();
            (p, distinct.len(), warps)
        })
        .max_by_key(|&(_, distinct, _)| distinct)
}

fn check_cta(
    stream: Option<StreamId>,
    k: &KernelTrace,
    ci: usize,
    cta: &CtaTrace,
    cfg: &AnalysisConfig,
    trimmed: bool,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();

    let events: Vec<Vec<BarEvent>> = cta
        .warps
        .iter()
        .map(|w| {
            w.iter()
                .enumerate()
                .filter_map(|(ii, i)| match i.op {
                    Op::Bar(slot) => Some(BarEvent { instr: ii, slot }),
                    _ => None,
                })
                .collect()
        })
        .collect();
    if let Some(frontier) = prove_cta(&events) {
        out.extend(wedge_diagnostic(stream, k, ci, &frontier, cfg));
    }
    if trimmed {
        return out;
    }

    for (wi, w) in cta.warps.iter().enumerate() {
        if let Some((start, trips)) = hottest_back_edge(w) {
            if trips >= cfg.loop_trip_threshold {
                if let Some(severity) = cfg.severity_for(LintCode::CfgUnboundedLoop, Some(&k.name))
                {
                    out.push(Diagnostic {
                        code: LintCode::CfgUnboundedLoop,
                        severity,
                        site: site(stream, &k.name, ci, Some(wi), Some(start)),
                        related: None,
                        message: format!(
                            "one basic block repeats {trips} consecutive times \
                             (threshold {}) — an unbounded-looking back-edge",
                            cfg.loop_trip_threshold
                        ),
                        hint: LintCode::CfgUnboundedLoop.hint(),
                    });
                }
            }
        }
    }

    if let Some((interval, distinct, warps)) = most_divergent_interval(cta) {
        if distinct >= cfg.divergence_paths {
            if let Some(severity) = cfg.severity_for(LintCode::CfgDivergenceHostile, Some(&k.name))
            {
                out.push(Diagnostic {
                    code: LintCode::CfgDivergenceHostile,
                    severity,
                    site: site(stream, &k.name, ci, None, None),
                    related: None,
                    message: format!(
                        "barrier interval {interval} splits {warps} warps across \
                         {distinct} distinct control paths (threshold {}) — \
                         reconvergence-hostile divergence",
                        cfg.divergence_paths
                    ),
                    hint: LintCode::CfgDivergenceHostile.hint(),
                });
            }
        }
    }

    out
}

/// Run the CFG pass over every CTA of `k` in CTA order, appending
/// diagnostics. A `trimmed` walk runs only the barrier prover: the loop
/// and divergence heuristics only warn.
pub(crate) fn check_kernel(
    stream: Option<StreamId>,
    k: &KernelTrace,
    cfg: &AnalysisConfig,
    trimmed: bool,
    out: &mut Vec<Diagnostic>,
) {
    for (ci, cta) in k.ctas.iter().enumerate() {
        out.extend(check_cta(stream, k, ci, cta, cfg, trimmed));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crisp_trace::{CtaTrace, Instr, Reg, WarpTrace};

    fn sealed(instrs: Vec<Instr>) -> WarpTrace {
        let mut w = WarpTrace::new();
        w.extend(instrs);
        w.seal();
        w
    }

    fn kernel_of(warps: Vec<WarpTrace>) -> KernelTrace {
        let threads = 32 * warps.len() as u32;
        KernelTrace::new("k", threads, 8, 0, vec![CtaTrace::new(warps)])
    }

    fn run(k: &KernelTrace) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        check_kernel(None, k, &AnalysisConfig::new(), false, &mut out);
        out
    }

    #[test]
    fn matched_named_barriers_prove_clean() {
        let warp = || {
            sealed(vec![
                Instr::alu(Op::IntAlu, Reg(1), &[]),
                Instr::bar_at(0),
                Instr::bar_at(1),
            ])
        };
        let d = run(&kernel_of(vec![warp(), warp()]));
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn swapped_slot_order_is_a_proven_deadlock() {
        // Equal totals (2 bars each) — the structural validator passes —
        // but the slot sequences can never release each other.
        let a = sealed(vec![Instr::bar_at(0), Instr::bar_at(1)]);
        let b = sealed(vec![Instr::bar_at(1), Instr::bar_at(0)]);
        let k = kernel_of(vec![a, b]);
        assert!(crisp_trace::validate_kernel(&k).is_ok());
        let d = run(&k);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].code, LintCode::CfgBarrierDivergence);
        assert_eq!(d[0].site.warp, Some(0));
        assert_eq!(d[0].site.instr, Some(0));
        let related = d[0].related.as_ref().unwrap();
        assert_eq!(related.warp, Some(1));
        assert!(d[0].message.contains("bar.sync 0"), "{}", d[0].message);
        assert!(d[0].message.contains("bar.sync 1"), "{}", d[0].message);
    }

    #[test]
    fn early_exit_releases_the_stragglers() {
        // Warp B exits without any barrier; the machine must drop `live`
        // to 1 so warp A's solo arrivals reach quorum — mirroring
        // issue_exit's release scan in the runtime.
        let a = sealed(vec![Instr::bar_at(3), Instr::bar_at(3)]);
        let b = sealed(vec![Instr::alu(Op::IntAlu, Reg(1), &[])]);
        let d = run(&kernel_of(vec![a, b]));
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn three_way_wedge_names_two_culprit_sites() {
        let a = sealed(vec![Instr::bar_at(0)]);
        let b = sealed(vec![Instr::bar_at(1)]);
        let c = sealed(vec![Instr::bar_at(2)]);
        let d = run(&kernel_of(vec![a, b, c]));
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(
            d[0].message
                .contains("1 at slot 0, 1 at slot 1, 1 at slot 2"),
            "{}",
            d[0].message
        );
    }

    #[test]
    fn interleaved_phases_with_shared_slots_complete() {
        // Producer/consumer ping-pong on two slots, same order in both
        // warps — four releases, no wedge.
        let warp = || {
            sealed(vec![
                Instr::bar_at(0),
                Instr::bar_at(1),
                Instr::bar_at(0),
                Instr::bar_at(1),
            ])
        };
        let d = run(&kernel_of(vec![warp(), warp()]));
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn hot_back_edge_is_flagged_past_the_threshold() {
        let body = vec![
            Instr::alu(Op::FpFma, Reg(2), &[Reg(1), Reg(2)]),
            Instr::branch(),
        ];
        let mut instrs = Vec::new();
        for _ in 0..40 {
            instrs.extend(body.clone());
        }
        let k = kernel_of(vec![sealed(instrs)]);
        let mut out = Vec::new();
        let cfg = AnalysisConfig {
            loop_trip_threshold: 32,
            ..AnalysisConfig::new()
        };
        check_kernel(None, &k, &cfg, false, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].code, LintCode::CfgUnboundedLoop);
        assert_eq!(out[0].site.instr, Some(0));
        assert!(
            out[0].message.contains("40 consecutive"),
            "{}",
            out[0].message
        );
    }

    #[test]
    fn short_loops_stay_quiet_under_the_default_threshold() {
        let body = vec![Instr::alu(Op::IntAlu, Reg(1), &[]), Instr::branch()];
        let mut instrs = Vec::new();
        for _ in 0..100 {
            instrs.extend(body.clone());
        }
        let d = run(&kernel_of(vec![sealed(instrs)]));
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn divergent_interval_paths_warn_once_per_cta() {
        // Eight warps, each with a unique op mix before the barrier.
        let warps: Vec<WarpTrace> = (0..8)
            .map(|wi| {
                let mut instrs = Vec::new();
                for j in 0..=wi {
                    instrs.push(Instr::alu(Op::IntAlu, Reg(1 + j as u16), &[]));
                }
                instrs.push(Instr::bar_at(0));
                sealed(instrs)
            })
            .collect();
        let d = run(&kernel_of(warps));
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].code, LintCode::CfgDivergenceHostile);
        assert_eq!(d[0].site.cta, Some(0));
        assert_eq!(d[0].site.warp, None);
        assert!(d[0].message.contains("8 distinct"), "{}", d[0].message);
    }

    #[test]
    fn uniform_warps_are_not_divergence_hostile() {
        let warp = || sealed(vec![Instr::alu(Op::IntAlu, Reg(1), &[]), Instr::bar_at(0)]);
        let d = run(&kernel_of((0..8).map(|_| warp()).collect()));
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn wedged_ctas_are_reported_in_cta_order() {
        let wedged = |slot_a: u8, slot_b: u8| {
            CtaTrace::new(vec![
                sealed(vec![Instr::bar_at(slot_a)]),
                sealed(vec![Instr::bar_at(slot_b)]),
            ])
        };
        let k = KernelTrace::new(
            "k",
            64,
            8,
            0,
            vec![wedged(0, 1), wedged(2, 3), wedged(4, 5), wedged(6, 7)],
        );
        let mut out = Vec::new();
        check_kernel(None, &k, &AnalysisConfig::new(), false, &mut out);
        let ctas: Vec<_> = out.iter().map(|d| d.site.cta).collect();
        assert_eq!(ctas, [Some(0), Some(1), Some(2), Some(3)]);
    }
}
