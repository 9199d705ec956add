//! Pre-flight structural validation of trace bundles.
//!
//! A malformed trace — a warp that never exits, a barrier with a missing
//! participant, a register id past the scoreboard's range — would otherwise
//! surface mid-run as a watchdog trip or a panic millions of cycles in.
//! [`validate_bundle`] lints a loaded [`TraceBundle`] in one linear pass so
//! bad inputs fail in milliseconds with a named, located error instead.
//!
//! The checks mirror the invariants the timing model in `crisp-sm` /
//! `crisp-sim` actually relies on:
//!
//! * every warp trace is non-empty and ends with exactly one [`Op::Exit`]
//!   (an unterminated warp parks its CTA forever — the canonical deadlock);
//! * all warps of a CTA execute the same number of barriers (a dropped
//!   arrival means the barrier only releases when the short warp exits,
//!   which silently skews timing even when it does not deadlock);
//! * register ids stay below [`SCOREBOARD_REGS`] (the scoreboard is a
//!   128-bit mask);
//! * memory opcodes carry a [`MemAccess`](crate::MemAccess) payload with
//!   1..=32 lane addresses, a non-zero width, and a space tag matching the
//!   opcode — and non-memory opcodes carry none;
//! * stream ids are unique and marker labels are non-empty.

use std::fmt;

use crate::isa::{Op, Space, WARP_SIZE};
use crate::kernel::{CtaTrace, KernelTrace};
use crate::source::{CommandMeta, TraceSource};
use crate::stream::{StreamId, StreamKind, TraceBundle};

/// Number of architectural registers the timing model's scoreboard tracks
/// per warp. The scoreboard in `crisp-sm` is a `u128` bitmask, so register
/// ids must stay below this bound; the validator rejects traces that
/// violate it before they can reach the hot path.
pub const SCOREBOARD_REGS: u16 = 128;

/// Where in the bundle a [`TraceError`] was found. Fields are filled
/// outside-in; `None` means the error is not specific to that level.
///
/// Sites order outside-in (stream, kernel, cta, warp, instr) so error
/// lists and analyzer reports can sort deterministically by location.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct TraceErrorSite {
    /// Stream the offending kernel/command belongs to.
    pub stream: Option<StreamId>,
    /// Kernel name.
    pub kernel: Option<String>,
    /// CTA index within the kernel's grid.
    pub cta: Option<usize>,
    /// Warp index within the CTA.
    pub warp: Option<usize>,
    /// Dynamic instruction index within the warp trace.
    pub instr: Option<usize>,
}

impl fmt::Display for TraceErrorSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        let mut sep = |f: &mut fmt::Formatter<'_>| -> fmt::Result {
            if !first {
                write!(f, " ")?;
            }
            first = false;
            Ok(())
        };
        if let Some(s) = self.stream {
            sep(f)?;
            write!(f, "{s}")?;
        }
        if let Some(k) = &self.kernel {
            sep(f)?;
            write!(f, "kernel '{k}'")?;
        }
        if let Some(c) = self.cta {
            sep(f)?;
            write!(f, "cta {c}")?;
        }
        if let Some(w) = self.warp {
            sep(f)?;
            write!(f, "warp {w}")?;
        }
        if let Some(i) = self.instr {
            sep(f)?;
            write!(f, "instr {i}")?;
        }
        if first {
            write!(f, "bundle")?;
        }
        Ok(())
    }
}

/// What exactly is wrong at a [`TraceErrorSite`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceErrorKind {
    /// Two streams in the bundle share an id.
    DuplicateStreamId,
    /// A marker command has an empty label (unreferenceable by
    /// `fast_forward_to` / `run_to_marker`).
    EmptyMarkerLabel,
    /// A CTA has no warps; it could never launch or commit.
    EmptyCta,
    /// A CTA has more warps than its kernel's `block_threads` allow.
    OverfullCta {
        /// Warps present in the CTA trace.
        warps: usize,
        /// Warps the launch geometry permits.
        max: usize,
    },
    /// A warp trace has no instructions at all.
    EmptyWarp,
    /// A warp trace does not end with [`Op::Exit`]: the warp would stay
    /// resident forever, pinning its CTA — the canonical deadlock.
    UnterminatedWarp,
    /// Instructions appear after an [`Op::Exit`]; they could never issue.
    CodeAfterExit {
        /// Index of the first `Exit`.
        exit_at: usize,
    },
    /// The warps of one CTA disagree on how many barriers they execute.
    BarrierMismatch {
        /// Per-warp barrier counts, index = warp.
        counts: Vec<usize>,
    },
    /// A register id is outside the scoreboard's range.
    RegOutOfRange {
        /// The offending register id.
        reg: u16,
    },
    /// A load/store carries no [`MemAccess`](crate::MemAccess) payload.
    MissingMemPayload,
    /// A non-memory opcode carries a [`MemAccess`](crate::MemAccess).
    UnexpectedMemPayload,
    /// The payload's address space disagrees with the opcode's.
    SpaceMismatch {
        /// Space tagged on the opcode.
        op: Space,
        /// Space tagged on the payload.
        mem: Space,
    },
    /// A memory access has no lane addresses.
    NoActiveLanes,
    /// A memory access has more lane addresses than a warp has lanes.
    TooManyLanes {
        /// Lane addresses present.
        lanes: usize,
    },
    /// A memory access with a zero byte width.
    ZeroWidthAccess,
    /// A semantic defect reported by a downstream analysis pass (the
    /// `crisp-analyze` crate) rather than this structural validator. `code`
    /// is the analyzer's stable lint name (e.g. `race/shared-write-write`);
    /// `message` describes the specific finding. Carried here so analyzer
    /// errors can ride in `SimError::InvalidTrace` next to structural ones.
    Semantic {
        /// Stable lint name of the originating analysis.
        code: String,
        /// Rendered description of the finding.
        message: String,
    },
}

impl TraceErrorKind {
    /// Whether the defect can only stall a run — the forward-progress
    /// watchdog turns it into a typed deadlock error — rather than break an
    /// invariant the timing model indexes or asserts on. A simulation built
    /// without pre-flight may hold such a trace, and its checkpoints must
    /// still load.
    pub fn only_stalls(&self) -> bool {
        matches!(
            self,
            TraceErrorKind::UnterminatedWarp | TraceErrorKind::BarrierMismatch { .. }
        )
    }
}

impl fmt::Display for TraceErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceErrorKind::DuplicateStreamId => write!(f, "duplicate stream id"),
            TraceErrorKind::EmptyMarkerLabel => write!(f, "marker with an empty label"),
            TraceErrorKind::EmptyCta => write!(f, "CTA has no warps"),
            TraceErrorKind::OverfullCta { warps, max } => write!(
                f,
                "CTA has {warps} warps but its launch geometry allows {max}"
            ),
            TraceErrorKind::EmptyWarp => write!(f, "warp trace is empty"),
            TraceErrorKind::UnterminatedWarp => write!(
                f,
                "warp trace does not end with Exit — the warp would never \
                 retire and its CTA would never commit (deadlock)"
            ),
            TraceErrorKind::CodeAfterExit { exit_at } => write!(
                f,
                "instructions after the Exit at index {exit_at} can never issue"
            ),
            TraceErrorKind::BarrierMismatch { counts } => write!(
                f,
                "warps of this CTA disagree on barrier count ({counts:?}) — \
                 a dropped barrier arrival"
            ),
            TraceErrorKind::RegOutOfRange { reg } => write!(
                f,
                "register id {reg} is outside the scoreboard's range \
                 0..{SCOREBOARD_REGS}"
            ),
            TraceErrorKind::MissingMemPayload => {
                write!(f, "memory opcode carries no address payload")
            }
            TraceErrorKind::UnexpectedMemPayload => {
                write!(f, "non-memory opcode carries an address payload")
            }
            TraceErrorKind::SpaceMismatch { op, mem } => write!(
                f,
                "opcode space {op:?} disagrees with payload space {mem:?}"
            ),
            TraceErrorKind::NoActiveLanes => write!(f, "memory access has no lane addresses"),
            TraceErrorKind::TooManyLanes { lanes } => write!(
                f,
                "memory access has {lanes} lane addresses but a warp has {WARP_SIZE} lanes"
            ),
            TraceErrorKind::ZeroWidthAccess => write!(f, "memory access width is zero bytes"),
            TraceErrorKind::Semantic { code, message } => write!(f, "{code}: {message}"),
        }
    }
}

/// One structural defect found by [`validate_bundle`], with its location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceError {
    /// Where the defect sits in the bundle.
    pub site: TraceErrorSite,
    /// What the defect is.
    pub kind: TraceErrorKind,
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.site, self.kind)
    }
}

impl std::error::Error for TraceError {}

/// Collects [`TraceError`]s with their location context.
struct Lint {
    errors: Vec<TraceError>,
    site: TraceErrorSite,
}

impl Lint {
    fn push(&mut self, kind: TraceErrorKind) {
        self.errors.push(TraceError {
            site: self.site.clone(),
            kind,
        });
    }
}

/// Validate a whole bundle. Returns every defect found (not just the
/// first), so a report names all problems of a bad trace at once; an empty
/// `Ok(())` means the bundle satisfies every invariant the timing model
/// relies on. This is [`validate_source`] over
/// [`TraceSource::from_bundle`]; the clone only bumps the CTAs' `Arc`
/// counts.
///
/// # Errors
///
/// Returns the full list of [`TraceError`]s when any check fails.
pub fn validate_bundle(bundle: &TraceBundle) -> Result<(), Vec<TraceError>> {
    validate_source(&mut TraceSource::from_bundle(bundle.clone()))
}

/// Validate a [`TraceSource`] incrementally: kernels are paged in one at
/// a time (and their CTAs released again on streaming sources), so a
/// bundle far larger than RAM lints in bounded memory.
///
/// # Errors
///
/// Returns the full list of [`TraceError`]s when any check fails. An I/O
/// failure while paging a kernel in surfaces as a
/// [`TraceErrorKind::Semantic`] with code `trace-io`.
pub fn validate_source(src: &mut TraceSource) -> Result<(), Vec<TraceError>> {
    validate_source_from(src, |_| 0, |_, _, _| {})
}

/// What [`validate_source_from`] hands its consumer, in directory order.
#[derive(Debug, Clone, Copy)]
pub enum WalkStep<'a> {
    /// A marker command.
    Marker,
    /// A kernel launch that validated clean.
    Kernel(&'a KernelTrace),
}

/// The pre-flight walk: [`validate_source`] over only the commands a
/// partly run source can still execute, handing each step to `visit`.
///
/// Each stream is checked from command index `first(stream)` on; a
/// restored checkpoint uses this to skip the kernels that already
/// finished. Every kernel is paged in once and validated in memory; `visit`
/// receives the stream's id and kind with each marker and each kernel that
/// validated clean. A kernel with a defect is reported and not handed on,
/// so a consumer such as the static analyzer never sees an unsound kernel.
///
/// # Errors
///
/// As [`validate_source`].
pub fn validate_source_from(
    src: &mut TraceSource,
    first: impl Fn(StreamId) -> usize,
    mut visit: impl FnMut(StreamId, StreamKind, WalkStep<'_>),
) -> Result<(), Vec<TraceError>> {
    let mut lint = Lint {
        errors: Vec::new(),
        site: TraceErrorSite::default(),
    };
    let mut seen: Vec<StreamId> = Vec::new();
    for si in 0..src.streams().len() {
        let (id, kind) = (src.streams()[si].id, src.streams()[si].kind);
        lint.site = TraceErrorSite {
            stream: Some(id),
            ..Default::default()
        };
        if seen.contains(&id) {
            lint.push(TraceErrorKind::DuplicateStreamId);
        }
        seen.push(id);
        for ci in first(id)..src.streams()[si].commands.len() {
            let kernel = match &src.streams()[si].commands[ci] {
                CommandMeta::Marker(label) => {
                    if label.is_empty() {
                        lint.push(TraceErrorKind::EmptyMarkerLabel);
                    }
                    visit(id, kind, WalkStep::Marker);
                    continue;
                }
                CommandMeta::Launch { kernel, .. } => *kernel,
            };
            let before = lint.errors.len();
            match src.materialize_kernel(kernel) {
                Ok(k) => {
                    validate_kernel_into(&k, &mut lint);
                    if lint.errors.len() == before {
                        visit(id, kind, WalkStep::Kernel(&k));
                    }
                }
                Err(e) => {
                    lint.site.kernel = src.kernel_info(kernel).map(|i| i.name.clone());
                    lint.push(TraceErrorKind::Semantic {
                        code: "trace-io".into(),
                        message: e.to_string(),
                    });
                }
            }
            lint.site = TraceErrorSite {
                stream: Some(id),
                ..Default::default()
            };
        }
    }
    if lint.errors.is_empty() {
        Ok(())
    } else {
        Err(lint.errors)
    }
}

/// Validate a single kernel trace outside any bundle context.
///
/// # Errors
///
/// Returns the full list of [`TraceError`]s when any check fails.
pub fn validate_kernel(k: &KernelTrace) -> Result<(), Vec<TraceError>> {
    let mut lint = Lint {
        errors: Vec::new(),
        site: TraceErrorSite::default(),
    };
    validate_kernel_into(k, &mut lint);
    if lint.errors.is_empty() {
        Ok(())
    } else {
        Err(lint.errors)
    }
}

/// The checks on every CTA of `k`, sited in `lint`'s stream.
fn validate_kernel_into(k: &KernelTrace, lint: &mut Lint) {
    let stream = lint.site.stream;
    let max_warps = k.warps_per_cta() as usize;
    for (ci, cta) in k.ctas.iter().enumerate() {
        lint.site = TraceErrorSite {
            stream,
            kernel: Some(k.name.clone()),
            cta: Some(ci),
            ..Default::default()
        };
        validate_cta_of_kernel(cta, max_warps, lint);
    }
}

/// The checks on one CTA of a kernel whose CTAs hold at most `max_warps`.
fn validate_cta_of_kernel(cta: &CtaTrace, max_warps: usize, lint: &mut Lint) {
    if cta.warps.is_empty() {
        lint.push(TraceErrorKind::EmptyCta);
        return;
    }
    if cta.warp_count() > max_warps {
        lint.push(TraceErrorKind::OverfullCta {
            warps: cta.warp_count(),
            max: max_warps,
        });
    }
    validate_cta_into(cta, lint);
}

fn validate_cta_into(cta: &CtaTrace, lint: &mut Lint) {
    let mut bar_counts: Vec<usize> = Vec::with_capacity(cta.warps.len());
    let mut warp_broken = false;
    for (wi, w) in cta.warps.iter().enumerate() {
        lint.site.warp = Some(wi);
        lint.site.instr = None;
        if w.is_empty() {
            lint.push(TraceErrorKind::EmptyWarp);
            warp_broken = true;
            bar_counts.push(0);
            continue;
        }
        let mut bars = 0usize;
        let mut exit_at: Option<usize> = None;
        for (ii, instr) in w.iter().enumerate() {
            lint.site.instr = Some(ii);
            if let Some(at) = exit_at {
                lint.push(TraceErrorKind::CodeAfterExit { exit_at: at });
                warp_broken = true;
                break;
            }
            match instr.op {
                Op::Bar(_) => bars += 1,
                Op::Exit => exit_at = Some(ii),
                _ => {}
            }
            validate_instr_into(instr, lint);
        }
        lint.site.instr = None;
        if exit_at.is_none() {
            lint.push(TraceErrorKind::UnterminatedWarp);
            warp_broken = true;
        }
        bar_counts.push(bars);
    }
    lint.site.warp = None;
    lint.site.instr = None;
    // Barrier-count comparison is only meaningful over structurally sound
    // warps; a truncated warp already got its own error above.
    if !warp_broken && bar_counts.windows(2).any(|w| w[0] != w[1]) {
        lint.push(TraceErrorKind::BarrierMismatch { counts: bar_counts });
    }
}

fn validate_instr_into(instr: crate::InstrRef<'_>, lint: &mut Lint) {
    for r in instr.src_regs().chain(instr.dst) {
        if r.0 >= SCOREBOARD_REGS {
            lint.push(TraceErrorKind::RegOutOfRange { reg: r.0 });
        }
    }
    match (&instr.mem, instr.op.is_mem()) {
        (None, true) => lint.push(TraceErrorKind::MissingMemPayload),
        (Some(_), false) => lint.push(TraceErrorKind::UnexpectedMemPayload),
        (Some(mem), true) => {
            let op_space = match instr.op {
                Op::Ld(s) | Op::St(s) => s,
                _ => unreachable!("is_mem() implies Ld/St"),
            };
            if mem.space != op_space {
                lint.push(TraceErrorKind::SpaceMismatch {
                    op: op_space,
                    mem: mem.space,
                });
            }
            if mem.addrs.is_empty() {
                lint.push(TraceErrorKind::NoActiveLanes);
            } else if mem.addrs.len() > WARP_SIZE {
                lint.push(TraceErrorKind::TooManyLanes {
                    lanes: mem.addrs.len(),
                });
            }
            if mem.width == 0 {
                lint.push(TraceErrorKind::ZeroWidthAccess);
            }
        }
        (None, false) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{DataClass, Instr, MemAccess, Reg};
    use crate::kernel::WarpTrace;
    use crate::stream::{Stream, StreamKind};
    use std::sync::Arc;

    fn sealed_warp(instrs: Vec<Instr>) -> WarpTrace {
        let mut w = WarpTrace::new();
        w.extend(instrs);
        w.seal();
        w
    }

    fn kernel_of(warps: Vec<WarpTrace>) -> KernelTrace {
        let threads = 32 * warps.len() as u32;
        KernelTrace::new("k", threads, 8, 0, vec![CtaTrace::new(warps)])
    }

    fn bundle_of(k: KernelTrace) -> TraceBundle {
        let mut s = Stream::new(StreamId(0), StreamKind::Compute);
        s.launch(k);
        TraceBundle::from_streams(vec![s])
    }

    fn kinds(errs: &[TraceError]) -> Vec<&TraceErrorKind> {
        errs.iter().map(|e| &e.kind).collect()
    }

    #[test]
    fn clean_bundle_passes() {
        let w = sealed_warp(vec![
            Instr::load(
                Reg(1),
                MemAccess::coalesced(Space::Global, DataClass::Compute, 4, 0, 32),
            ),
            Instr::alu(Op::FpFma, Reg(2), &[Reg(1)]),
            Instr::bar(),
        ]);
        let k = kernel_of(vec![w.clone(), w]);
        assert_eq!(validate_bundle(&bundle_of(k)), Ok(()));
    }

    #[test]
    fn unterminated_warp_is_flagged() {
        let mut w = WarpTrace::new();
        w.push(Instr::alu(Op::IntAlu, Reg(0), &[]));
        // no seal(): the warp never exits
        let errs = validate_kernel(&kernel_of(vec![w])).unwrap_err();
        assert!(matches!(errs[0].kind, TraceErrorKind::UnterminatedWarp));
        assert_eq!(errs[0].site.warp, Some(0));
    }

    #[test]
    fn barrier_mismatch_is_flagged_with_counts() {
        let a = sealed_warp(vec![Instr::bar(), Instr::bar()]);
        let b = sealed_warp(vec![Instr::bar()]);
        let errs = validate_kernel(&kernel_of(vec![a, b])).unwrap_err();
        assert_eq!(
            kinds(&errs),
            vec![&TraceErrorKind::BarrierMismatch { counts: vec![2, 1] }]
        );
    }

    #[test]
    fn register_out_of_scoreboard_range_is_flagged() {
        let w = sealed_warp(vec![Instr::alu(Op::IntAlu, Reg(200), &[Reg(3)])]);
        let errs = validate_kernel(&kernel_of(vec![w])).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| e.kind == TraceErrorKind::RegOutOfRange { reg: 200 }));
    }

    #[test]
    fn malformed_mem_payloads_are_flagged() {
        // Missing payload on a load.
        let naked_load = Instr {
            op: Op::Ld(Space::Global),
            dst: Some(Reg(1)),
            srcs: [None; crate::MAX_SRCS],
            mem: None,
        };
        // Payload on an ALU op.
        let alu_with_mem = Instr {
            op: Op::IntAlu,
            dst: Some(Reg(2)),
            srcs: [None; crate::MAX_SRCS],
            mem: Some(MemAccess {
                space: Space::Global,
                class: DataClass::Compute,
                width: 4,
                addrs: vec![0],
            }),
        };
        // Too many lanes, zero width, space mismatch.
        let bad_access = Instr {
            op: Op::Ld(Space::Global),
            dst: Some(Reg(3)),
            srcs: [None; crate::MAX_SRCS],
            mem: Some(MemAccess {
                space: Space::Shared,
                class: DataClass::Compute,
                width: 0,
                addrs: vec![0; 33],
            }),
        };
        // No lanes at all.
        let no_lanes = Instr::load(
            Reg(4),
            MemAccess {
                space: Space::Global,
                class: DataClass::Compute,
                width: 4,
                addrs: Vec::new(),
            },
        );
        let w = sealed_warp(vec![naked_load, alu_with_mem, bad_access, no_lanes]);
        let errs = validate_kernel(&kernel_of(vec![w])).unwrap_err();
        let ks = kinds(&errs);
        assert!(ks.contains(&&TraceErrorKind::MissingMemPayload));
        assert!(ks.contains(&&TraceErrorKind::UnexpectedMemPayload));
        assert!(ks.contains(&&TraceErrorKind::TooManyLanes { lanes: 33 }));
        assert!(ks.contains(&&TraceErrorKind::ZeroWidthAccess));
        assert!(ks.contains(&&TraceErrorKind::NoActiveLanes));
        assert!(ks.contains(&&TraceErrorKind::SpaceMismatch {
            op: Space::Global,
            mem: Space::Shared,
        }));
    }

    #[test]
    fn code_after_exit_is_flagged_once_per_warp() {
        let mut w = WarpTrace::new();
        w.push(Instr::exit());
        w.push(Instr::alu(Op::IntAlu, Reg(0), &[]));
        w.push(Instr::alu(Op::IntAlu, Reg(0), &[]));
        let errs = validate_kernel(&kernel_of(vec![w])).unwrap_err();
        assert_eq!(
            kinds(&errs),
            vec![&TraceErrorKind::CodeAfterExit { exit_at: 0 }]
        );
    }

    #[test]
    fn duplicate_stream_ids_and_empty_markers_are_flagged() {
        // Constructed directly: TraceBundle::push would panic.
        let mut a = Stream::new(StreamId(3), StreamKind::Compute);
        a.marker("");
        let b = Stream::new(StreamId(3), StreamKind::Graphics);
        let bundle = TraceBundle {
            streams: vec![a, b],
        };
        let errs = validate_bundle(&bundle).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| e.kind == TraceErrorKind::EmptyMarkerLabel));
        assert!(errs
            .iter()
            .any(|e| e.kind == TraceErrorKind::DuplicateStreamId
                && e.site.stream == Some(StreamId(3))));
    }

    #[test]
    fn empty_and_overfull_ctas_are_flagged() {
        let empty = KernelTrace {
            name: "empty-cta".into(),
            block_threads: 32,
            regs_per_thread: 8,
            smem_per_cta: 0,
            ctas: vec![Arc::new(CtaTrace::new(vec![]))],
        };
        let errs = validate_kernel(&empty).unwrap_err();
        assert_eq!(kinds(&errs), vec![&TraceErrorKind::EmptyCta]);

        // Overfull constructed directly: KernelTrace::new would panic.
        let w = sealed_warp(vec![Instr::branch()]);
        let overfull = KernelTrace {
            name: "overfull".into(),
            block_threads: 32,
            regs_per_thread: 8,
            smem_per_cta: 0,
            ctas: vec![Arc::new(CtaTrace::new(vec![w.clone(), w.clone()]))],
        };
        let errs = validate_kernel(&overfull).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| e.kind == TraceErrorKind::OverfullCta { warps: 2, max: 1 }));

        let errs = validate_kernel(&kernel_of(vec![WarpTrace::new(), w])).unwrap_err();
        assert_eq!(kinds(&errs), vec![&TraceErrorKind::EmptyWarp]);
        assert_eq!(errs[0].site.warp, Some(0));
    }

    #[test]
    fn source_validation_matches_bundle_validation() {
        let mut bad = WarpTrace::new();
        bad.push(Instr::alu(Op::IntAlu, Reg(200), &[]));
        // no seal(): unterminated, plus an out-of-range register
        let k = kernel_of(vec![bad]);
        let bundle = bundle_of(k);
        let expected = validate_bundle(&bundle).unwrap_err();

        let mut bytes = Vec::new();
        crate::codec::write_bundle(&bundle, &mut bytes).unwrap();
        let mut src = crate::TraceInput::reader(std::io::Cursor::new(bytes))
            .open()
            .unwrap();
        assert!(src.is_streaming());
        assert_eq!(validate_source(&mut src).unwrap_err(), expected);
        // Incremental validation leaves no CTAs resident.
        assert_eq!(src.stats().resident_ctas, 0);

        let clean = sealed_warp(vec![Instr::alu(Op::FpFma, Reg(1), &[])]);
        let mut src = crate::TraceInput::from(bundle_of(kernel_of(vec![clean])))
            .open()
            .unwrap();
        assert_eq!(validate_source(&mut src), Ok(()));
    }

    #[test]
    fn errors_render_with_their_site() {
        let mut w = WarpTrace::new();
        w.push(Instr::alu(Op::IntAlu, Reg(0), &[]));
        let k = kernel_of(vec![w]);
        let errs = validate_bundle(&bundle_of(k)).unwrap_err();
        let text = errs[0].to_string();
        assert!(text.contains("stream0"), "{text}");
        assert!(text.contains("kernel 'k'"), "{text}");
        assert!(text.contains("warp 0"), "{text}");
        assert!(text.contains("Exit"), "{text}");
    }
}
