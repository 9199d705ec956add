//! Cross-stream L2 interference estimation.
//!
//! The simulator's partition policies (`crisp-sim`'s `PartitionSpec`) decide
//! how concurrent rendering and compute share the L2; this pass predicts,
//! *before any cycle is simulated*, whether that sharing can work. It
//! accumulates each stream's L2 working set — distinct 32 B sectors per
//! [`DataClass`] — per *concurrent phase* (the spans between `Marker`
//! commands, which is how CRISP bundles align frame boundaries across
//! streams), then scores every phase against an [`InterferenceSpec`]:
//!
//! * [`LintCode::InterferenceL2Oversubscribed`] — a single stream's phase
//!   working set exceeds the capacity its share grants it; it thrashes even
//!   alone.
//! * [`LintCode::InterferenceFootprintCollision`] — each stream fits by
//!   itself but the combined working set of a phase exceeds the shared
//!   capacity; the streams evict each other.
//! * [`LintCode::InterferenceLatencyVictim`] — a graphics stream shares an
//!   unpartitioned L2 with a compute stream whose *streaming-store*
//!   footprint is large; stores allocate-on-write and flush the latency-
//!   sensitive texture working set (the paper's motivating failure mode).
//!
//! The accumulator is fed in launch order by
//! [`analyze_bundle`](crate::analyze_bundle) /
//! [`analyze_source`](crate::analyze_source).

use std::collections::BTreeMap;

use crisp_trace::{
    AddrHashSet, DataClass, KernelTrace, StreamId, StreamKind, TraceErrorSite, SECTOR_BYTES,
};

use crate::config::AnalysisConfig;
use crate::diag::{Diagnostic, LintCode};

/// How the L2 is carved between concurrent streams — the analyzer-side
/// mirror of the simulator's `L2Policy`. `crisp-sim` depends on this crate,
/// so its builder maps the configured policy into this enum at preflight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L2Share {
    /// One unpartitioned cache; every stream contends for all of it.
    Shared,
    /// Static bank split: each stream owns an equal slice of the capacity
    /// and cannot touch — or be evicted by — the others'.
    BankSplit,
    /// TAP-style dynamic set partitioning: contention is bounded but the
    /// split adapts, so capacity is scored like [`L2Share::Shared`] while
    /// the latency-victim lint is suppressed (protecting graphics latency
    /// is exactly what TAP is for).
    Tap,
}

impl L2Share {
    /// Short label used in diagnostics.
    pub fn label(self) -> &'static str {
        match self {
            L2Share::Shared => "shared",
            L2Share::BankSplit => "bank-split",
            L2Share::Tap => "tap",
        }
    }
}

/// The capacity model the interference pass scores against. `None` in
/// [`AnalysisConfig::interference`] (the default) disables the pass —
/// standalone lint runs have no GPU in hand, so footprints without a
/// capacity are not findings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InterferenceSpec {
    /// Total L2 capacity in bytes.
    pub l2_bytes: u64,
    /// How concurrent streams share it.
    pub share: L2Share,
}

impl InterferenceSpec {
    /// A fully shared L2 of `l2_bytes`.
    pub fn shared(l2_bytes: u64) -> Self {
        InterferenceSpec {
            l2_bytes,
            share: L2Share::Shared,
        }
    }

    /// A statically bank-split L2 of `l2_bytes` total.
    pub fn bank_split(l2_bytes: u64) -> Self {
        InterferenceSpec {
            l2_bytes,
            share: L2Share::BankSplit,
        }
    }

    /// A TAP set-partitioned L2 of `l2_bytes`.
    pub fn tap(l2_bytes: u64) -> Self {
        InterferenceSpec {
            l2_bytes,
            share: L2Share::Tap,
        }
    }
}

/// One stream's footprint within one phase.
#[derive(Default)]
struct PhaseFootprint {
    /// Distinct 32 B sectors per data class (absolute sector indices, so
    /// unions across classes and streams deduplicate genuinely).
    sectors: BTreeMap<DataClass, AddrHashSet<u64>>,
    /// Distinct sectors written by global/local stores — the streaming-write
    /// traffic that evicts a co-tenant's read working set.
    store_sectors: AddrHashSet<u64>,
    /// First kernel launched by this stream in this phase; diagnostics
    /// anchor here.
    first_kernel: Option<String>,
}

impl PhaseFootprint {
    /// Distinct sectors over every class.
    fn all_sectors(&self) -> AddrHashSet<u64> {
        let mut u = AddrHashSet::default();
        for set in self.sectors.values() {
            u.extend(set.iter().copied());
        }
        u
    }

    fn class_breakdown(&self) -> String {
        let mut parts = Vec::new();
        for &c in DataClass::ALL.iter() {
            if let Some(set) = self.sectors.get(&c) {
                if !set.is_empty() {
                    parts.push(format!(
                        "{} {}",
                        c.label(),
                        fmt_kib(set.len() as u64 * SECTOR_BYTES)
                    ));
                }
            }
        }
        parts.join(" + ")
    }
}

/// Per-stream accumulation state.
struct StreamAcc {
    kind: StreamKind,
    /// Phase the stream is currently in (markers seen so far).
    cursor: usize,
    /// Footprints indexed by phase; grown lazily on the first launch of a
    /// phase, so marker-only tails allocate nothing.
    phases: Vec<PhaseFootprint>,
}

/// Sequential working-set accumulator. Fed command-by-command by the
/// driving thread; [`finish`](Self::finish) scores the phases.
#[derive(Default)]
pub(crate) struct InterferenceAcc {
    streams: BTreeMap<StreamId, StreamAcc>,
}

impl InterferenceAcc {
    fn stream(&mut self, id: StreamId, kind: StreamKind) -> &mut StreamAcc {
        self.streams.entry(id).or_insert_with(|| StreamAcc {
            kind,
            cursor: 0,
            phases: Vec::new(),
        })
    }

    /// A `Marker` command: the stream enters its next phase.
    pub(crate) fn on_marker(&mut self, id: StreamId, kind: StreamKind) {
        self.stream(id, kind).cursor += 1;
    }

    /// A kernel launch: fold its cached-space footprint into the stream's
    /// current phase.
    pub(crate) fn on_kernel(&mut self, id: StreamId, kind: StreamKind, k: &KernelTrace) {
        let s = self.stream(id, kind);
        let phase = s.cursor;
        while s.phases.len() <= phase {
            s.phases.push(PhaseFootprint::default());
        }
        let fp = &mut s.phases[phase];
        if fp.first_kernel.is_none() {
            fp.first_kernel = Some(k.name.clone());
        }
        let mut chunks = Vec::new();
        for cta in &k.ctas {
            for w in &cta.warps {
                for i in w.iter() {
                    let Some(m) = &i.mem else { continue };
                    if !m.space.is_cached() {
                        continue;
                    }
                    m.distinct_chunks_into(SECTOR_BYTES, &mut chunks);
                    if matches!(i.op, crisp_trace::Op::St(sp) if sp != crisp_trace::Space::Shared) {
                        fp.store_sectors.extend(&chunks);
                    }
                    fp.sectors.entry(m.class).or_default().extend(&chunks);
                }
            }
        }
    }

    /// Score every phase against `spec`, appending findings to `out` and
    /// returning the interference score: the worst phase's combined working
    /// set as a fraction of its effective capacity (0.0 = no cached
    /// traffic; > 1.0 = provable oversubscription).
    pub(crate) fn finish(
        &self,
        spec: &InterferenceSpec,
        cfg: &AnalysisConfig,
        out: &mut Vec<Diagnostic>,
    ) -> f64 {
        let n_streams = self.streams.len().max(1) as u64;
        // A static bank split grants each stream an equal slice; shared and
        // TAP leave the whole capacity contended.
        let grant = match spec.share {
            L2Share::BankSplit => (spec.l2_bytes / n_streams).max(1),
            L2Share::Shared | L2Share::Tap => spec.l2_bytes.max(1),
        };
        let n_phases = self
            .streams
            .values()
            .map(|s| s.phases.len())
            .max()
            .unwrap_or(0);

        let mut score = 0.0f64;
        for phase in 0..n_phases {
            // (id, kind, footprint, working-set bytes) of every stream
            // active in this phase; each stream's union is built once, into
            // the phase's combined set.
            let mut combined: AddrHashSet<u64> = AddrHashSet::default();
            let active: Vec<(StreamId, StreamKind, &PhaseFootprint, u64)> = self
                .streams
                .iter()
                .filter_map(|(&id, s)| {
                    let fp = s.phases.get(phase).filter(|fp| !fp.sectors.is_empty())?;
                    let union = fp.all_sectors();
                    let bytes = union.len() as u64 * SECTOR_BYTES;
                    combined.extend(union);
                    Some((id, s.kind, fp, bytes))
                })
                .collect();
            if active.is_empty() {
                continue;
            }

            let mut all_fit = true;
            for &(id, _, fp, bytes) in &active {
                if bytes > grant {
                    all_fit = false;
                    self.push(
                        out,
                        cfg,
                        LintCode::InterferenceL2Oversubscribed,
                        id,
                        fp,
                        None,
                        format!(
                            "stream{} phase {phase}: L2 working set {} ({}) exceeds \
                             its {} grant under the {} policy — the stream thrashes \
                             even running alone",
                            id.0,
                            fmt_kib(bytes),
                            fp.class_breakdown(),
                            fmt_kib(grant),
                            spec.share.label(),
                        ),
                    );
                }
            }

            let combined_bytes = combined.len() as u64 * SECTOR_BYTES;
            let pressure = match spec.share {
                L2Share::BankSplit => active
                    .iter()
                    .map(|&(_, _, _, bytes)| bytes as f64 / grant as f64)
                    .fold(0.0, f64::max),
                L2Share::Shared | L2Share::Tap => combined_bytes as f64 / grant as f64,
            };
            score = score.max(pressure);

            if spec.share != L2Share::BankSplit
                && active.len() >= 2
                && combined_bytes > spec.l2_bytes
                && all_fit
            {
                // Anchor at the largest stream, point at the runner-up.
                let mut by_size: Vec<_> = active.iter().collect();
                by_size.sort_by_key(|(id, _, _, bytes)| (std::cmp::Reverse(*bytes), id.0));
                let &(id0, _, fp0, bytes0) = by_size[0];
                let &(id1, _, fp1, bytes1) = by_size[1];
                self.push(
                    out,
                    cfg,
                    LintCode::InterferenceFootprintCollision,
                    id0,
                    fp0,
                    Some(site(id1, fp1)),
                    format!(
                        "phase {phase}: {} concurrent streams each fit the L2 alone \
                         but together need {} of {} — stream{} ({}) and stream{} ({}) \
                         evict each other under the {} policy",
                        active.len(),
                        fmt_kib(combined_bytes),
                        fmt_kib(spec.l2_bytes),
                        id0.0,
                        fmt_kib(bytes0),
                        id1.0,
                        fmt_kib(bytes1),
                        spec.share.label(),
                    ),
                );
            }

            if spec.share == L2Share::Shared {
                // Largest streaming-store compute tenant, if any crosses the
                // victim threshold.
                let threshold =
                    (cfg.latency_victim_fraction * spec.l2_bytes as f64).max(1.0) as u64;
                let offender = active
                    .iter()
                    .filter(|(_, kind, fp, _)| {
                        *kind == StreamKind::Compute
                            && fp.store_sectors.len() as u64 * SECTOR_BYTES >= threshold
                    })
                    .max_by_key(|(id, _, fp, _)| (fp.store_sectors.len(), std::cmp::Reverse(id.0)));
                if let Some(&(cid, _, cfp, _)) = offender {
                    for &(gid, kind, gfp, _) in &active {
                        if kind != StreamKind::Graphics {
                            continue;
                        }
                        self.push(
                            out,
                            cfg,
                            LintCode::InterferenceLatencyVictim,
                            gid,
                            gfp,
                            Some(site(cid, cfp)),
                            format!(
                                "phase {phase}: graphics stream{} ({}) shares an \
                                 unpartitioned L2 with compute stream{}, whose \
                                 streaming stores touch {} (≥ {:.0}% of capacity) — \
                                 allocate-on-write evicts the latency-critical \
                                 working set",
                                gid.0,
                                gfp.class_breakdown(),
                                cid.0,
                                fmt_kib(cfp.store_sectors.len() as u64 * SECTOR_BYTES),
                                cfg.latency_victim_fraction * 100.0,
                            ),
                        );
                    }
                }
            }
        }
        score
    }

    #[allow(clippy::too_many_arguments)]
    fn push(
        &self,
        out: &mut Vec<Diagnostic>,
        cfg: &AnalysisConfig,
        code: LintCode,
        id: StreamId,
        fp: &PhaseFootprint,
        related: Option<TraceErrorSite>,
        message: String,
    ) {
        let Some(severity) = cfg.severity_for(code, fp.first_kernel.as_deref()) else {
            return;
        };
        out.push(Diagnostic {
            code,
            severity,
            site: site(id, fp),
            related,
            message,
            hint: code.hint(),
        });
    }
}

fn site(id: StreamId, fp: &PhaseFootprint) -> TraceErrorSite {
    TraceErrorSite {
        stream: Some(id),
        kernel: fp.first_kernel.clone(),
        cta: None,
        warp: None,
        instr: None,
    }
}

/// Deterministic KiB rendering for diagnostics (exact integer arithmetic
/// below 10 KiB would lose too much; one decimal is stable and readable).
fn fmt_kib(bytes: u64) -> String {
    format!("{:.1} KiB", bytes as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analyze_bundle, AnalysisConfig};
    use crisp_trace::{CtaTrace, Instr, MemAccess, Reg, Space, Stream, TraceBundle, WarpTrace};

    const KIB: u64 = 1024;

    /// A kernel whose single warp loads `bytes` of distinct global data
    /// starting at `base`, optionally as stores.
    fn touch(name: &str, class: DataClass, base: u64, bytes: u64, store: bool) -> KernelTrace {
        let mut w = WarpTrace::new();
        w.push(Instr::alu(crisp_trace::Op::IntAlu, Reg(1), &[]));
        let space = if class == DataClass::Texture {
            Space::Tex
        } else {
            Space::Global
        };
        // 32 lanes × 4 B = 128 B per instruction.
        let mut addr = base;
        while addr < base + bytes {
            let m = MemAccess::coalesced(space, class, 4, addr, 32);
            if store && space == Space::Global {
                w.push(Instr::store(Reg(1), m));
            } else {
                w.push(Instr::load(Reg(1), m));
            }
            addr += 128;
        }
        w.seal();
        KernelTrace::new(name, 32, 8, 0, vec![CtaTrace::new(vec![w])])
    }

    fn two_stream_bundle(gfx_bytes: u64, compute_bytes: u64, stores: bool) -> TraceBundle {
        let mut g = Stream::new(StreamId(0), StreamKind::Graphics);
        g.launch(touch(
            "draw",
            DataClass::Texture,
            0x1000_0000,
            gfx_bytes,
            false,
        ));
        let mut c = Stream::new(StreamId(1), StreamKind::Compute);
        c.launch(touch(
            "gemm",
            DataClass::Compute,
            0x2000_0000,
            compute_bytes,
            stores,
        ));
        TraceBundle::from_streams(vec![g, c])
    }

    /// The pure-load fixtures redefine r1 every instruction; silence the
    /// dataflow lint so interference findings stand alone.
    fn cfg_with(spec: InterferenceSpec) -> AnalysisConfig {
        let mut cfg = AnalysisConfig::new().allow(LintCode::DeadWrite);
        cfg.interference = Some(spec);
        cfg
    }

    #[test]
    fn no_spec_means_no_interference_pass() {
        let b = two_stream_bundle(512 * KIB, 512 * KIB, false);
        let r = analyze_bundle(&b, &AnalysisConfig::new().allow(LintCode::DeadWrite));
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
        assert_eq!(r.interference, None);
    }

    #[test]
    fn fitting_workloads_score_below_one() {
        let b = two_stream_bundle(16 * KIB, 16 * KIB, false);
        let r = analyze_bundle(&b, &cfg_with(InterferenceSpec::shared(128 * KIB)));
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
        let score = r.interference.expect("spec set → score present");
        assert!((score - 0.25).abs() < 1e-9, "{score}");
    }

    #[test]
    fn single_oversized_stream_is_oversubscribed() {
        let b = two_stream_bundle(256 * KIB, 16 * KIB, false);
        let r = analyze_bundle(&b, &cfg_with(InterferenceSpec::shared(128 * KIB)));
        let d: Vec<_> = r
            .diagnostics
            .iter()
            .filter(|d| d.code == LintCode::InterferenceL2Oversubscribed)
            .collect();
        assert_eq!(d.len(), 1, "{:?}", r.diagnostics);
        assert_eq!(d[0].site.stream, Some(StreamId(0)));
        assert_eq!(d[0].site.kernel.as_deref(), Some("draw"));
        assert!(d[0].message.contains("256.0 KiB"), "{}", d[0].message);
        assert!(r.interference.unwrap() > 2.0);
    }

    #[test]
    fn collision_fires_only_when_each_fits_alone() {
        // 96 + 96 KiB against a 128 KiB shared L2: each fits, together they
        // thrash.
        let b = two_stream_bundle(96 * KIB, 96 * KIB, false);
        let r = analyze_bundle(&b, &cfg_with(InterferenceSpec::shared(128 * KIB)));
        let d: Vec<_> = r
            .diagnostics
            .iter()
            .filter(|d| d.code == LintCode::InterferenceFootprintCollision)
            .collect();
        assert_eq!(d.len(), 1, "{:?}", r.diagnostics);
        assert!(d[0].related.is_some());
        assert!(
            d[0].message.contains("192.0 KiB of 128.0 KiB"),
            "{}",
            d[0].message
        );
        assert_eq!(
            r.diagnostics
                .iter()
                .filter(|d| d.code == LintCode::InterferenceL2Oversubscribed)
                .count(),
            0,
            "neither stream is oversubscribed alone"
        );
        assert!((r.interference.unwrap() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn bank_split_isolates_the_collision() {
        // Same 96+96 working sets, but a static split means neither can
        // touch the other — only the per-stream grant matters (64 KiB each,
        // so both oversubscribe *their slice* instead).
        let b = two_stream_bundle(96 * KIB, 96 * KIB, false);
        let r = analyze_bundle(&b, &cfg_with(InterferenceSpec::bank_split(128 * KIB)));
        assert_eq!(
            r.diagnostics
                .iter()
                .filter(|d| d.code == LintCode::InterferenceFootprintCollision)
                .count(),
            0
        );
        assert_eq!(
            r.diagnostics
                .iter()
                .filter(|d| d.code == LintCode::InterferenceL2Oversubscribed)
                .count(),
            2,
            "{:?}",
            r.diagnostics
        );
    }

    #[test]
    fn streaming_compute_stores_victimize_graphics() {
        let b = two_stream_bundle(16 * KIB, 64 * KIB, true);
        let r = analyze_bundle(&b, &cfg_with(InterferenceSpec::shared(128 * KIB)));
        let d: Vec<_> = r
            .diagnostics
            .iter()
            .filter(|d| d.code == LintCode::InterferenceLatencyVictim)
            .collect();
        assert_eq!(d.len(), 1, "{:?}", r.diagnostics);
        assert_eq!(
            d[0].site.stream,
            Some(StreamId(0)),
            "graphics is the victim"
        );
        assert_eq!(
            d[0].related.as_ref().unwrap().stream,
            Some(StreamId(1)),
            "compute is the offender"
        );
    }

    #[test]
    fn tap_partitioning_suppresses_the_victim_lint() {
        let b = two_stream_bundle(16 * KIB, 64 * KIB, true);
        let r = analyze_bundle(&b, &cfg_with(InterferenceSpec::tap(128 * KIB)));
        assert_eq!(
            r.diagnostics
                .iter()
                .filter(|d| d.code == LintCode::InterferenceLatencyVictim)
                .count(),
            0,
            "{:?}",
            r.diagnostics
        );
    }

    #[test]
    fn phases_are_scored_independently() {
        // Phase 0: both small. Phase 1: both large. Markers advance phases.
        let mut g = Stream::new(StreamId(0), StreamKind::Graphics);
        g.launch(touch(
            "draw0",
            DataClass::Texture,
            0x1000_0000,
            8 * KIB,
            false,
        ));
        g.marker("frame");
        g.launch(touch(
            "draw1",
            DataClass::Texture,
            0x3000_0000,
            96 * KIB,
            false,
        ));
        let mut c = Stream::new(StreamId(1), StreamKind::Compute);
        c.launch(touch("k0", DataClass::Compute, 0x2000_0000, 8 * KIB, false));
        c.marker("frame");
        c.launch(touch(
            "k1",
            DataClass::Compute,
            0x4000_0000,
            96 * KIB,
            false,
        ));
        let b = TraceBundle::from_streams(vec![g, c]);

        let r = analyze_bundle(&b, &cfg_with(InterferenceSpec::shared(128 * KIB)));
        let d: Vec<_> = r
            .diagnostics
            .iter()
            .filter(|d| d.code == LintCode::InterferenceFootprintCollision)
            .collect();
        assert_eq!(d.len(), 1, "only phase 1 collides: {:?}", r.diagnostics);
        assert!(d[0].message.contains("phase 1"), "{}", d[0].message);
        assert_eq!(d[0].site.kernel.as_deref(), Some("draw1"));
    }

    #[test]
    fn shared_sectors_across_streams_are_counted_once() {
        // Both streams read the SAME 96 KiB region: combined footprint is
        // 96 KiB, not 192 — no collision against a 128 KiB L2.
        let mut g = Stream::new(StreamId(0), StreamKind::Graphics);
        g.launch(touch(
            "draw",
            DataClass::Texture,
            0x1000_0000,
            96 * KIB,
            false,
        ));
        let mut c = Stream::new(StreamId(1), StreamKind::Compute);
        c.launch(touch(
            "gemm",
            DataClass::Compute,
            0x1000_0000,
            96 * KIB,
            false,
        ));
        let b = TraceBundle::from_streams(vec![g, c]);
        let r = analyze_bundle(&b, &cfg_with(InterferenceSpec::shared(128 * KIB)));
        assert_eq!(
            r.diagnostics
                .iter()
                .filter(|d| d.code == LintCode::InterferenceFootprintCollision)
                .count(),
            0,
            "{:?}",
            r.diagnostics
        );
        assert!((r.interference.unwrap() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn allow_suppresses_interference_codes() {
        let b = two_stream_bundle(96 * KIB, 96 * KIB, false);
        let mut cfg = cfg_with(InterferenceSpec::shared(128 * KIB));
        cfg = cfg.allow(LintCode::InterferenceFootprintCollision);
        let r = analyze_bundle(&b, &cfg);
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
        // The score is a measurement, not a lint — allows don't erase it.
        assert!((r.interference.unwrap() - 1.5).abs() < 1e-9);
    }
}
