//! Trace ISA and stream model for the CRISP GPU simulator.
//!
//! CRISP is trace-driven, like Accel-Sim: frontends (the functional graphics
//! pipeline in `crisp-gfx`, the compute-workload generators in `crisp-scenes`)
//! produce instruction traces, and the timing model (`crisp-sim`) replays them
//! cycle by cycle. This crate defines the interchange format.
//!
//! A trace records, per warp, the dynamic instruction stream with
//! register-level dependencies and per-lane memory addresses — exactly the
//! information Accel-Sim's SASS tracer captures on silicon, and all that a
//! cycle-level timing model needs. Traces are organised as
//! [`Instr`] → [`WarpTrace`] → [`CtaTrace`] → [`KernelTrace`] →
//! [`Stream`] → [`TraceBundle`]. A warp stores each instruction as a
//! fixed-size record and all its lane addresses in one flat buffer; it
//! hands instructions back as borrowed [`InstrRef`] views.
//!
//! # Example
//!
//! ```
//! use crisp_trace::{Instr, Op, Reg, Space, DataClass, MemAccess, WarpTrace};
//!
//! let mut w = WarpTrace::new();
//! // A global load into r1 followed by a dependent FMA.
//! w.push(Instr::load(
//!     Reg(1),
//!     MemAccess::coalesced(Space::Global, DataClass::Compute, 4, 0x1000, 32),
//! ));
//! w.push(Instr::alu(Op::FpFma, Reg(2), &[Reg(1), Reg(2)]));
//! w.push(Instr::exit());
//! assert_eq!(w.len(), 3);
//! ```

mod analysis;
pub mod codec;
mod hash;
mod isa;
mod kernel;
mod source;
mod stream;
pub mod validate;

pub use analysis::{
    ClassFootprint, InstrMix, ReuseHistogram, TexLinesHistogram, LINE_BYTES, SECTOR_BYTES,
};
pub use hash::{AddrHashMap, AddrHashSet, AddrHasher, AddrState};
pub use isa::{
    DataClass, Instr, InstrRef, MemAccess, MemRef, Op, Reg, Space, MAX_SRCS, NUM_BARRIERS,
    WARP_SIZE,
};
pub use kernel::{CtaTrace, KernelTrace, WarpTrace};
pub use source::{
    cta_resident_cost, CommandMeta, KernelId, KernelInfo, StreamMeta, TraceInput, TraceSource,
    TraceStats,
};
pub use stream::{Command, Stream, StreamId, StreamKind, TraceBundle};
pub use validate::{
    validate_bundle, validate_kernel, validate_source, validate_source_from, TraceError,
    TraceErrorKind, TraceErrorSite, SCOREBOARD_REGS,
};
