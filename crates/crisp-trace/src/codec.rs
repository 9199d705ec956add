//! Compact binary serialization for trace bundles.
//!
//! Trace-driven simulation lives and dies by trace files — the CRISP
//! artifact ships hundreds of gigabytes of them. This codec stores a
//! [`TraceBundle`] in a dense binary form: one byte per opcode,
//! LEB128 varints for counts, and zig-zag delta encoding for per-lane
//! addresses (consecutive lanes usually touch consecutive addresses, so
//! deltas are tiny). No external crates; plain `std::io`.
//!
//! Since format version 2 the container also carries a **kernel/CTA offset
//! index**: the stream directory stores, per kernel launch, the byte span of
//! every CTA's instruction payload. [`TraceSource`](crate::TraceSource) uses
//! that index to demand-page individual CTAs out of a file without
//! materializing the whole bundle; this module keeps reading version-1
//! (index-less) files through a compatibility scan.
//!
//! # Example
//!
//! ```
//! # use crisp_trace::*;
//! # use crisp_trace::codec::write_bundle;
//! let mut s = Stream::new(StreamId(0), StreamKind::Compute);
//! let mut w = WarpTrace::new();
//! w.push(Instr::alu(Op::FpFma, Reg(1), &[Reg(2)]));
//! w.seal();
//! s.launch(KernelTrace::new("k", 32, 8, 0, vec![CtaTrace::new(vec![w])]));
//! let bundle = TraceBundle::from_streams(vec![s]);
//!
//! let mut buf = Vec::new();
//! write_bundle(&bundle, &mut buf)?;
//! let mut src = TraceInput::reader(std::io::Cursor::new(buf)).open()?;
//! assert_eq!(src.to_bundle()?, bundle);
//! # Ok::<(), std::io::Error>(())
//! ```

use std::io::{self, Read, Write};

use crate::isa::{DataClass, InstrRef, Op, Reg, Space, MAX_SRCS};
use crate::kernel::{CtaTrace, KernelTrace, WarpTrace};
use crate::stream::{Command, Stream, StreamId, StreamKind, TraceBundle};

pub(crate) const MAGIC: &[u8; 4] = b"CRSP";
/// The original, index-less container layout (kernels inline in the stream
/// directory). Still readable; no longer written.
pub(crate) const VERSION_V1: u32 = 1;
/// The indexed layout: a stream directory with per-CTA `(offset, len)` spans
/// followed by one contiguous payload of self-contained CTA blobs.
pub(crate) const VERSION_V2: u32 = 2;

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// Read and validate a 4-byte magic tag, reporting found-vs-expected on a
/// mismatch. `what` names the format (e.g. `"CRSP trace"`) so that feeding a
/// checkpoint to the trace reader — or vice versa — fails with a message that
/// identifies both files.
///
/// # Errors
///
/// `InvalidData` when the tag differs from `expected`; I/O errors otherwise.
pub fn check_magic<R: Read>(r: &mut R, expected: &[u8; 4], what: &str) -> io::Result<()> {
    let mut found = [0u8; 4];
    r.read_exact(&mut found)?;
    if &found != expected {
        return Err(bad(&format!(
            "not a {what} file: found magic `{}`, expected `{}`",
            found.escape_ascii(),
            expected.escape_ascii()
        )));
    }
    Ok(())
}

/// Read a little-endian `u32` version field and require it to equal
/// `expected`, reporting found-vs-expected on a mismatch.
///
/// # Errors
///
/// `InvalidData` when the version differs from `expected`; I/O errors
/// otherwise.
pub fn check_version<R: Read>(r: &mut R, expected: u32, what: &str) -> io::Result<()> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    let found = u32::from_le_bytes(buf);
    if found != expected {
        return Err(bad(&format!(
            "unsupported {what} version: found {found}, expected {expected}"
        )));
    }
    Ok(())
}

/// Write `v` as an LEB128 varint.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_varint<W: Write>(w: &mut W, mut v: u64) -> io::Result<()> {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            return w.write_all(&[byte]);
        }
        w.write_all(&[byte | 0x80])?;
    }
}

/// Read an LEB128 varint written by [`write_varint`].
///
/// # Errors
///
/// `InvalidData` on a varint longer than 64 bits; I/O errors otherwise.
pub fn read_varint<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut v = 0u64;
    let mut shift = 0;
    loop {
        let mut b = [0u8; 1];
        r.read_exact(&mut b)?;
        if shift >= 64 {
            return Err(bad("varint overflow"));
        }
        v |= ((b[0] & 0x7F) as u64) << shift;
        if b[0] & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Zig-zag map a signed value onto an unsigned one so small magnitudes of
/// either sign encode as short varints.
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn space_tag(s: Space) -> u8 {
    match s {
        Space::Global => 0,
        Space::Shared => 1,
        Space::Local => 2,
        Space::Tex => 3,
    }
}

fn tag_space(t: u8) -> io::Result<Space> {
    Ok(match t {
        0 => Space::Global,
        1 => Space::Shared,
        2 => Space::Local,
        3 => Space::Tex,
        _ => return Err(bad("bad space tag")),
    })
}

/// Op tag 7 is the classic slot-0 barrier — containers carrying only
/// `bar.sync 0` stay byte-identical to what pre-named-barrier readers
/// expect. Named slots (1..=15) encode as [`OP_TAG_NAMED_BAR`] followed by
/// one id byte, which old readers reject cleanly as a bad op tag.
const OP_TAG_NAMED_BAR: u8 = 17;

fn op_tag(op: Op) -> u8 {
    match op {
        Op::IntAlu => 0,
        Op::FpAlu => 1,
        Op::FpMul => 2,
        Op::FpFma => 3,
        Op::Sfu => 4,
        Op::Tensor => 5,
        Op::Branch => 6,
        Op::Bar(0) => 7,
        Op::Bar(_) => OP_TAG_NAMED_BAR,
        Op::Exit => 8,
        Op::Ld(s) => 9 + space_tag(s),
        Op::St(s) => 13 + space_tag(s),
    }
}

fn tag_op(t: u8) -> io::Result<Op> {
    Ok(match t {
        0 => Op::IntAlu,
        1 => Op::FpAlu,
        2 => Op::FpMul,
        3 => Op::FpFma,
        4 => Op::Sfu,
        5 => Op::Tensor,
        6 => Op::Branch,
        7 => Op::Bar(0),
        8 => Op::Exit,
        9..=12 => Op::Ld(tag_space(t - 9)?),
        13..=16 => Op::St(tag_space(t - 13)?),
        _ => return Err(bad("bad op tag")),
    })
}

fn class_tag(c: DataClass) -> u8 {
    match c {
        DataClass::Texture => 0,
        DataClass::Pipeline => 1,
        DataClass::Compute => 2,
    }
}

fn tag_class(t: u8) -> io::Result<DataClass> {
    Ok(match t {
        0 => DataClass::Texture,
        1 => DataClass::Pipeline,
        2 => DataClass::Compute,
        _ => return Err(bad("bad class tag")),
    })
}

fn write_instr<W: Write>(w: &mut W, i: InstrRef<'_>) -> io::Result<()> {
    w.write_all(&[op_tag(i.op)])?;
    if let Op::Bar(id @ 1..) = i.op {
        w.write_all(&[id])?;
    }
    let dst = i.dst.map_or(u16::MAX, |r| r.0);
    w.write_all(&dst.to_le_bytes())?;
    for s in &i.srcs {
        let v = s.map_or(u16::MAX, |r| r.0);
        w.write_all(&v.to_le_bytes())?;
    }
    if let Some(m) = &i.mem {
        w.write_all(&[space_tag(m.space), class_tag(m.class), m.width])?;
        write_varint(w, m.addrs.len() as u64)?;
        let mut prev = 0i64;
        for &a in m.addrs {
            let delta = a as i64 - prev;
            write_varint(w, zigzag(delta))?;
            prev = a as i64;
        }
    }
    Ok(())
}

/// Decode one instruction and append it to `warp`, its lane addresses
/// straight into the warp's address buffer.
fn read_instr<R: Read>(r: &mut R, warp: &mut WarpTrace) -> io::Result<()> {
    let mut tag = [0u8; 1];
    r.read_exact(&mut tag)?;
    let op = if tag[0] == OP_TAG_NAMED_BAR {
        let mut id = [0u8; 1];
        r.read_exact(&mut id)?;
        // Slot 0 must use tag 7 (canonical encoding) and slots stop at 15.
        if id[0] == 0 || id[0] as usize >= crate::NUM_BARRIERS {
            return Err(bad("bad barrier slot"));
        }
        Op::Bar(id[0])
    } else {
        tag_op(tag[0])?
    };
    let mut u16buf = [0u8; 2];
    r.read_exact(&mut u16buf)?;
    let dst_raw = u16::from_le_bytes(u16buf);
    let dst = (dst_raw != u16::MAX).then_some(Reg(dst_raw));
    let mut srcs = [None; MAX_SRCS];
    for s in &mut srcs {
        r.read_exact(&mut u16buf)?;
        let v = u16::from_le_bytes(u16buf);
        *s = (v != u16::MAX).then_some(Reg(v));
    }
    if !op.is_mem() {
        warp.push_parts(op, dst, srcs, None, []);
        return Ok(());
    }
    let mut hdr = [0u8; 3];
    r.read_exact(&mut hdr)?;
    let space = tag_space(hdr[0])?;
    let class = tag_class(hdr[1])?;
    let width = hdr[2];
    let n = read_varint(r)? as usize;
    if n == 0 || n > crate::WARP_SIZE {
        return Err(bad("bad lane count"));
    }
    let mut lanes = [0u64; crate::WARP_SIZE];
    let mut prev = 0i64;
    for a in &mut lanes[..n] {
        let delta = unzigzag(read_varint(r)?);
        prev = prev.wrapping_add(delta);
        *a = prev as u64;
    }
    let mem = Some((space, class, width));
    warp.push_parts(op, dst, srcs, mem, lanes[..n].iter().copied());
    Ok(())
}

/// Write a length-prefixed UTF-8 string.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_string<W: Write>(w: &mut W, s: &str) -> io::Result<()> {
    write_varint(w, s.len() as u64)?;
    w.write_all(s.as_bytes())
}

/// Read a string written by [`write_string`]. Lengths above 1 MiB are
/// rejected before allocating, so corrupt length prefixes cannot OOM.
///
/// # Errors
///
/// `InvalidData` on an oversized length or invalid UTF-8.
pub fn read_string<R: Read>(r: &mut R) -> io::Result<String> {
    let n = read_varint(r)? as usize;
    if n > 1 << 20 {
        return Err(bad("string too long"));
    }
    let mut buf = vec![0u8; n];
    r.read_exact(&mut buf)?;
    String::from_utf8(buf).map_err(|_| bad("invalid utf-8"))
}

/// Write one [`KernelTrace`] in the CRSP per-kernel layout (also reused by
/// the checkpoint format for in-flight kernels).
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_kernel<W: Write>(w: &mut W, k: &KernelTrace) -> io::Result<()> {
    write_string(w, &k.name)?;
    w.write_all(&k.block_threads.to_le_bytes())?;
    w.write_all(&k.regs_per_thread.to_le_bytes())?;
    w.write_all(&k.smem_per_cta.to_le_bytes())?;
    write_varint(w, k.ctas.len() as u64)?;
    for cta in &k.ctas {
        write_cta_blob(w, cta)?;
    }
    Ok(())
}

/// Read a kernel written by [`write_kernel`].
///
/// # Errors
///
/// `InvalidData` on structural corruption — including CTAs with more warps
/// than the block geometry allows, which would otherwise trip the
/// [`KernelTrace::new`] assertion.
pub fn read_kernel<R: Read>(r: &mut R) -> io::Result<KernelTrace> {
    let name = read_string(r)?;
    let mut u32buf = [0u8; 4];
    r.read_exact(&mut u32buf)?;
    let block_threads = u32::from_le_bytes(u32buf);
    r.read_exact(&mut u32buf)?;
    let regs = u32::from_le_bytes(u32buf);
    r.read_exact(&mut u32buf)?;
    let smem = u32::from_le_bytes(u32buf);
    let max_warps = block_threads
        .max(crate::WARP_SIZE as u32)
        .div_ceil(crate::WARP_SIZE as u32) as usize;
    let grid = read_varint(r)? as usize;
    let mut ctas = Vec::with_capacity(grid.min(1 << 20));
    let mut scratch = WarpTrace::new();
    for _ in 0..grid {
        ctas.push(read_cta_blob(r, max_warps, &mut scratch)?);
    }
    Ok(KernelTrace::new(name, block_threads, regs, smem, ctas))
}

/// Encode one CTA's instruction streams as a self-contained blob:
/// `n_warps` varint, then per warp `n_instrs` varint + instructions.
pub(crate) fn write_cta_blob<W: Write>(w: &mut W, cta: &CtaTrace) -> io::Result<()> {
    write_varint(w, cta.warps.len() as u64)?;
    for warp in &cta.warps {
        write_varint(w, warp.len() as u64)?;
        for i in warp.iter() {
            write_instr(w, i)?;
        }
    }
    Ok(())
}

/// Decode a blob written by [`write_cta_blob`]. `max_warps` comes from the
/// launch geometry; a blob claiming more is structural corruption.
///
/// Each warp is decoded into `scratch` first: its buffers grow to the
/// longest warp once per caller, and each decoded warp is a clone of
/// exactly its own size, so a warp costs two allocations whatever its
/// length (and a corrupt instruction count reserves nothing).
pub(crate) fn read_cta_blob<R: Read>(
    r: &mut R,
    max_warps: usize,
    scratch: &mut WarpTrace,
) -> io::Result<CtaTrace> {
    let n_warps = read_varint(r)? as usize;
    if n_warps > max_warps {
        return Err(bad("cta has more warps than the block geometry allows"));
    }
    let mut warps = Vec::with_capacity(n_warps.min(64));
    for _ in 0..n_warps {
        let n_instrs = read_varint(r)?;
        scratch.clear();
        for _ in 0..n_instrs {
            read_instr(r, scratch)?;
        }
        warps.push(scratch.clone());
    }
    Ok(CtaTrace::new(warps))
}

/// Maximum warps per CTA implied by a block size (matches
/// [`KernelTrace::new`]'s clamping).
pub(crate) fn max_warps_of(block_threads: u32) -> usize {
    block_threads
        .max(crate::WARP_SIZE as u32)
        .div_ceil(crate::WARP_SIZE as u32) as usize
}

/// One kernel entry of a version-2 stream directory: launch geometry plus
/// the byte span of every CTA blob, relative to the payload start.
#[derive(Debug, Clone)]
pub(crate) struct DirKernel {
    pub name: String,
    pub block_threads: u32,
    pub regs_per_thread: u32,
    pub smem_per_cta: u32,
    /// Per-CTA `(offset, len)` into the payload; the grid size is the length.
    pub spans: Vec<(u64, u64)>,
}

/// One command of a version-2 stream directory.
#[derive(Debug, Clone)]
pub(crate) enum DirCmd {
    Launch(DirKernel),
    Marker(String),
}

/// One stream of a version-2 directory.
#[derive(Debug, Clone)]
pub(crate) struct DirStream {
    pub id: StreamId,
    pub kind: StreamKind,
    pub cmds: Vec<DirCmd>,
}

/// Serialize a bundle in the version-2 indexed layout, with a hook that lets
/// tests corrupt the index on the way out: `mutate_span` sees
/// every CTA span (global index order) and may rewrite it, and `payload_pad`
/// appends bytes to the payload that no span covers.
fn write_bundle_v2_core<W: Write>(
    bundle: &TraceBundle,
    w: &mut W,
    mutate_span: &mut dyn FnMut(usize, (u64, u64)) -> (u64, u64),
    payload_pad: &[u8],
) -> io::Result<()> {
    // Encode every CTA blob into the payload first, recording spans.
    let mut payload = Vec::new();
    let mut spans: Vec<(u64, u64)> = Vec::new();
    for s in &bundle.streams {
        for c in &s.commands {
            if let Command::Launch(k) = c {
                for cta in &k.ctas {
                    let offset = payload.len() as u64;
                    write_cta_blob(&mut payload, cta)?;
                    spans.push((offset, payload.len() as u64 - offset));
                }
            }
        }
    }
    w.write_all(MAGIC)?;
    w.write_all(&VERSION_V2.to_le_bytes())?;
    write_varint(w, bundle.streams.len() as u64)?;
    let mut span_idx = 0usize;
    for s in &bundle.streams {
        w.write_all(&s.id.0.to_le_bytes())?;
        w.write_all(&[match s.kind {
            StreamKind::Graphics => 0,
            StreamKind::Compute => 1,
        }])?;
        write_varint(w, s.commands.len() as u64)?;
        for c in &s.commands {
            match c {
                Command::Launch(k) => {
                    w.write_all(&[0])?;
                    write_string(w, &k.name)?;
                    w.write_all(&k.block_threads.to_le_bytes())?;
                    w.write_all(&k.regs_per_thread.to_le_bytes())?;
                    w.write_all(&k.smem_per_cta.to_le_bytes())?;
                    write_varint(w, k.ctas.len() as u64)?;
                    for _ in &k.ctas {
                        let (off, len) = mutate_span(span_idx, spans[span_idx]);
                        span_idx += 1;
                        write_varint(w, off)?;
                        write_varint(w, len)?;
                    }
                }
                Command::Marker(m) => {
                    w.write_all(&[1])?;
                    write_string(w, m)?;
                }
            }
        }
    }
    write_varint(w, payload.len() as u64 + payload_pad.len() as u64)?;
    w.write_all(&payload)?;
    w.write_all(payload_pad)
}

/// Write a bundle in the CRSP binary format (version 2, indexed).
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_bundle<W: Write>(bundle: &TraceBundle, w: &mut W) -> io::Result<()> {
    write_bundle_v2_core(bundle, w, &mut |_, s| s, &[])
}

/// Write a bundle with a corrupted CTA index — the fault-injection hook
/// behind the corrupt-index tests. `mutate_span` may rewrite any `(offset, len)`
/// span (called once per CTA in global index order); a non-empty
/// `payload_pad` leaves payload bytes no span covers.
#[doc(hidden)]
pub fn write_bundle_mutated<W: Write>(
    bundle: &TraceBundle,
    w: &mut W,
    mut mutate_span: impl FnMut(usize, (u64, u64)) -> (u64, u64),
    payload_pad: &[u8],
) -> io::Result<()> {
    write_bundle_v2_core(bundle, w, &mut mutate_span, payload_pad)
}

/// Write a bundle in the legacy version-1 (index-less) layout. Only useful
/// for exercising the compatibility reader; new files are always version 2.
#[doc(hidden)]
pub fn write_bundle_v1<W: Write>(bundle: &TraceBundle, w: &mut W) -> io::Result<()> {
    w.write_all(MAGIC)?;
    w.write_all(&VERSION_V1.to_le_bytes())?;
    write_varint(w, bundle.streams.len() as u64)?;
    for s in &bundle.streams {
        w.write_all(&s.id.0.to_le_bytes())?;
        w.write_all(&[match s.kind {
            StreamKind::Graphics => 0,
            StreamKind::Compute => 1,
        }])?;
        write_varint(w, s.commands.len() as u64)?;
        for c in &s.commands {
            match c {
                Command::Launch(k) => {
                    w.write_all(&[0])?;
                    write_kernel(w, k)?;
                }
                Command::Marker(m) => {
                    w.write_all(&[1])?;
                    write_string(w, m)?;
                }
            }
        }
    }
    Ok(())
}

/// Read the little-endian `u32` version field after the magic.
pub(crate) fn read_version<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

pub(crate) fn unsupported_version(found: u32) -> io::Error {
    bad(&format!(
        "unsupported CRSP trace version: found {found}, expected 1 or 2"
    ))
}

/// Read the stream directory and payload length of a version-2 container
/// (everything between the version field and the payload bytes), validating
/// the CTA index: every span must lie inside the payload, spans must not
/// overlap, and together they must cover the payload exactly.
pub(crate) fn read_directory_v2<R: Read>(r: &mut R) -> io::Result<(Vec<DirStream>, u64)> {
    let mut u32buf = [0u8; 4];
    let n_streams = read_varint(r)? as usize;
    let mut streams = Vec::with_capacity(n_streams.min(1024));
    for _ in 0..n_streams {
        r.read_exact(&mut u32buf)?;
        let id = StreamId(u32::from_le_bytes(u32buf));
        let mut kind = [0u8; 1];
        r.read_exact(&mut kind)?;
        let kind = match kind[0] {
            0 => StreamKind::Graphics,
            1 => StreamKind::Compute,
            _ => return Err(bad("bad stream kind")),
        };
        let n_cmds = read_varint(r)? as usize;
        let mut cmds = Vec::with_capacity(n_cmds.min(1 << 16));
        for _ in 0..n_cmds {
            let mut tag = [0u8; 1];
            r.read_exact(&mut tag)?;
            match tag[0] {
                0 => {
                    let name = read_string(r)?;
                    r.read_exact(&mut u32buf)?;
                    let block_threads = u32::from_le_bytes(u32buf);
                    r.read_exact(&mut u32buf)?;
                    let regs_per_thread = u32::from_le_bytes(u32buf);
                    r.read_exact(&mut u32buf)?;
                    let smem_per_cta = u32::from_le_bytes(u32buf);
                    let grid = read_varint(r)? as usize;
                    let mut spans = Vec::with_capacity(grid.min(1 << 20));
                    for _ in 0..grid {
                        let off = read_varint(r)?;
                        let len = read_varint(r)?;
                        spans.push((off, len));
                    }
                    cmds.push(DirCmd::Launch(DirKernel {
                        name,
                        block_threads,
                        regs_per_thread,
                        smem_per_cta,
                        spans,
                    }));
                }
                1 => cmds.push(DirCmd::Marker(read_string(r)?)),
                _ => return Err(bad("bad command tag")),
            }
        }
        if streams.iter().any(|s: &DirStream| s.id == id) {
            return Err(bad(&format!("duplicate stream id {id} in directory")));
        }
        streams.push(DirStream { id, kind, cmds });
    }
    let payload_len = read_varint(r)?;
    validate_index(&streams, payload_len)?;
    Ok((streams, payload_len))
}

/// The three structural invariants of the CTA index, each with its own
/// error so fault injection (and users debugging corrupt files) can tell
/// them apart: spans in bounds, no overlap, exact payload coverage.
fn validate_index(streams: &[DirStream], payload_len: u64) -> io::Result<()> {
    let mut all: Vec<(u64, u64)> = Vec::new();
    for s in streams {
        for c in &s.cmds {
            if let DirCmd::Launch(k) = c {
                all.extend_from_slice(&k.spans);
            }
        }
    }
    for &(off, len) in &all {
        let end = off
            .checked_add(len)
            .ok_or_else(|| bad("CTA span offset overflow"))?;
        if end > payload_len {
            return Err(bad(&format!(
                "CTA span out of bounds: offset {off} + len {len} exceeds payload of \
                 {payload_len} bytes"
            )));
        }
    }
    all.sort_unstable();
    let mut covered = 0u64;
    for &(off, len) in &all {
        if off < covered {
            return Err(bad("overlapping CTA spans in trace index"));
        }
        if off > covered {
            return Err(bad(&format!(
                "trace index does not cover the payload: gap at byte {covered}"
            )));
        }
        covered = off + len;
    }
    if covered != payload_len {
        return Err(bad(&format!(
            "trace index does not cover the payload: {covered} of {payload_len} bytes indexed"
        )));
    }
    Ok(())
}

/// Read the rest of a version-1 container (after magic + version).
pub(crate) fn read_bundle_rest_v1<R: Read>(r: &mut R) -> io::Result<TraceBundle> {
    let mut u32buf = [0u8; 4];
    let n_streams = read_varint(r)? as usize;
    let mut streams = Vec::with_capacity(n_streams.min(1024));
    for _ in 0..n_streams {
        r.read_exact(&mut u32buf)?;
        let id = StreamId(u32::from_le_bytes(u32buf));
        let mut kind = [0u8; 1];
        r.read_exact(&mut kind)?;
        let kind = match kind[0] {
            0 => StreamKind::Graphics,
            1 => StreamKind::Compute,
            _ => return Err(bad("bad stream kind")),
        };
        let n_cmds = read_varint(r)? as usize;
        let mut s = Stream::new(id, kind);
        for _ in 0..n_cmds {
            let mut tag = [0u8; 1];
            r.read_exact(&mut tag)?;
            match tag[0] {
                0 => {
                    s.launch(read_kernel(r)?);
                }
                1 => {
                    s.marker(read_string(r)?);
                }
                _ => return Err(bad("bad command tag")),
            }
        }
        if streams.iter().any(|x: &Stream| x.id == id) {
            return Err(bad(&format!("duplicate stream id {id} in directory")));
        }
        streams.push(s);
    }
    Ok(TraceBundle::from_streams(streams))
}

/// Write a bundle to a file.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn save(bundle: &TraceBundle, path: impl AsRef<std::path::Path>) -> io::Result<()> {
    let mut f = io::BufWriter::new(std::fs::File::create(path)?);
    write_bundle(bundle, &mut f)?;
    f.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{DataClass, Instr, MemAccess, Op, Reg, Space};

    /// Read the rest of a version-2 container (after magic + version),
    /// materializing every CTA. The payload is consumed sequentially — the
    /// index validation guarantees spans tile it in offset order — so this
    /// works on plain non-seekable readers.
    fn read_bundle_rest_v2<R: Read>(r: &mut R) -> io::Result<TraceBundle> {
        let (dir, payload_len) = read_directory_v2(r)?;
        // Decode blobs in payload order, then hand them back out in index order.
        let mut order: Vec<(u64, u64, usize, usize, usize)> = Vec::new(); // (off, len, stream, cmd, cta)
        for (si, s) in dir.iter().enumerate() {
            for (ci, c) in s.cmds.iter().enumerate() {
                if let DirCmd::Launch(k) = c {
                    for (cta, &(off, len)) in k.spans.iter().enumerate() {
                        order.push((off, len, si, ci, cta));
                    }
                }
            }
        }
        order.sort_unstable();
        let mut decoded: std::collections::BTreeMap<(usize, usize, usize), CtaTrace> =
            std::collections::BTreeMap::new();
        let mut pos = 0u64;
        for &(off, len, si, ci, cta) in &order {
            debug_assert_eq!(off, pos, "index validation guarantees exact tiling");
            let max_warps = match &dir[si].cmds[ci] {
                DirCmd::Launch(k) => max_warps_of(k.block_threads),
                DirCmd::Marker(_) => unreachable!("order only holds launches"),
            };
            let mut lim = r.take(len);
            let blob = read_cta_blob(&mut lim, max_warps, &mut WarpTrace::new())?;
            if lim.limit() != 0 {
                return Err(bad("CTA blob shorter than its indexed span"));
            }
            decoded.insert((si, ci, cta), blob);
            pos = off + len;
        }
        debug_assert_eq!(pos, payload_len);
        let mut streams = Vec::with_capacity(dir.len());
        for (si, d) in dir.into_iter().enumerate() {
            let mut s = Stream::new(d.id, d.kind);
            for (ci, c) in d.cmds.into_iter().enumerate() {
                match c {
                    DirCmd::Launch(k) => {
                        let ctas: Vec<CtaTrace> = (0..k.spans.len())
                            .map(|cta| decoded.remove(&(si, ci, cta)).expect("decoded above"))
                            .collect();
                        s.launch(KernelTrace::new(
                            k.name,
                            k.block_threads,
                            k.regs_per_thread,
                            k.smem_per_cta,
                            ctas,
                        ));
                    }
                    DirCmd::Marker(m) => {
                        s.marker(m);
                    }
                }
            }
            streams.push(s);
        }
        Ok(TraceBundle::from_streams(streams))
    }

    /// Whole-bundle reference decoder: dispatches on the version field and
    /// materializes every CTA, independent of the demand-paging source.
    fn read_bundle_impl<R: Read>(r: &mut R) -> io::Result<TraceBundle> {
        check_magic(r, MAGIC, "CRSP trace")?;
        match read_version(r)? {
            VERSION_V1 => read_bundle_rest_v1(r),
            VERSION_V2 => read_bundle_rest_v2(r),
            found => Err(unsupported_version(found)),
        }
    }

    fn sample_bundle() -> TraceBundle {
        let mut w = WarpTrace::new();
        w.push(Instr::alu(Op::FpFma, Reg(3), &[Reg(1), Reg(2)]));
        w.push(Instr::load(
            Reg(4),
            MemAccess::coalesced(Space::Global, DataClass::Compute, 4, 0x1234_5678, 32),
        ));
        w.push(Instr::load(
            Reg(5),
            MemAccess::scattered(Space::Tex, DataClass::Texture, 8, vec![500, 100, 900_000]),
        ));
        w.push(Instr::store(
            Reg(3),
            MemAccess::coalesced(Space::Shared, DataClass::Compute, 4, 0, 16),
        ));
        w.push(Instr::bar());
        w.push(Instr::branch());
        w.seal();
        let k = KernelTrace::new(
            "kern",
            64,
            24,
            4096,
            vec![CtaTrace::new(vec![w.clone(), w])],
        );
        let mut g = Stream::new(StreamId(0), StreamKind::Graphics);
        g.marker("draw:x").launch(k.clone());
        let mut c = Stream::new(StreamId(1), StreamKind::Compute);
        c.launch(k);
        TraceBundle::from_streams(vec![g, c])
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let b = sample_bundle();
        let mut buf = Vec::new();
        write_bundle(&b, &mut buf).unwrap();
        let back = read_bundle_impl(&mut buf.as_slice()).unwrap();
        assert_eq!(b, back);
    }

    #[test]
    fn v1_compat_roundtrip_preserves_everything() {
        let b = sample_bundle();
        let mut buf = Vec::new();
        write_bundle_v1(&b, &mut buf).unwrap();
        let back = read_bundle_impl(&mut buf.as_slice()).unwrap();
        assert_eq!(b, back);
    }

    #[test]
    fn encoding_is_compact() {
        let b = sample_bundle();
        let mut buf = Vec::new();
        write_bundle(&b, &mut buf).unwrap();
        // 2 streams × (7 instrs × 2 warps); a coalesced 32-lane access costs
        // a couple of bytes per lane, not 8. The CTA index adds a few bytes
        // per CTA on top of the v1 size.
        assert!(buf.len() < 900, "encoding too large: {} bytes", buf.len());
    }

    #[test]
    fn varint_roundtrip_extremes() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v).unwrap();
            assert_eq!(read_varint(&mut buf.as_slice()).unwrap(), v);
        }
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN + 1] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut buf = b"NOPE".to_vec();
        buf.extend_from_slice(&1u32.to_le_bytes());
        assert!(read_bundle_impl(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn magic_errors_report_found_and_expected() {
        let mut buf = b"CKPT".to_vec();
        buf.extend_from_slice(&1u32.to_le_bytes());
        let err = read_bundle_impl(&mut buf.as_slice())
            .unwrap_err()
            .to_string();
        assert!(err.contains("CKPT"), "found magic missing: {err}");
        assert!(err.contains("CRSP"), "expected magic missing: {err}");
    }

    #[test]
    fn version_errors_report_found_and_expected() {
        let mut buf = MAGIC.to_vec();
        buf.extend_from_slice(&42u32.to_le_bytes());
        let err = read_bundle_impl(&mut buf.as_slice())
            .unwrap_err()
            .to_string();
        assert!(err.contains("found 42"), "found version missing: {err}");
        assert!(
            err.contains("expected 1 or 2"),
            "expected versions missing: {err}"
        );
    }

    #[test]
    fn out_of_bounds_span_is_a_distinct_error() {
        let b = sample_bundle();
        let mut buf = Vec::new();
        write_bundle_mutated(
            &b,
            &mut buf,
            |i, (off, len)| {
                if i == 0 {
                    (off + (1 << 20), len)
                } else {
                    (off, len)
                }
            },
            &[],
        )
        .unwrap();
        let err = read_bundle_impl(&mut buf.as_slice())
            .unwrap_err()
            .to_string();
        assert!(err.contains("out of bounds"), "wrong error: {err}");
    }

    #[test]
    fn overlapping_spans_are_a_distinct_error() {
        let b = sample_bundle();
        let mut buf = Vec::new();
        // Point the second CTA span at the first one's bytes.
        let mut first: Option<(u64, u64)> = None;
        write_bundle_mutated(
            &b,
            &mut buf,
            |i, span| {
                if i == 0 {
                    first = Some(span);
                    span
                } else {
                    first.unwrap()
                }
            },
            &[],
        )
        .unwrap();
        let err = read_bundle_impl(&mut buf.as_slice())
            .unwrap_err()
            .to_string();
        assert!(err.contains("overlapping"), "wrong error: {err}");
    }

    #[test]
    fn uncovered_payload_is_a_distinct_error() {
        let b = sample_bundle();
        let mut buf = Vec::new();
        write_bundle_mutated(&b, &mut buf, |_, s| s, &[0xAA; 7]).unwrap();
        let err = read_bundle_impl(&mut buf.as_slice())
            .unwrap_err()
            .to_string();
        assert!(err.contains("does not cover"), "wrong error: {err}");
    }

    #[test]
    fn overfull_cta_in_stream_is_an_error_not_a_panic() {
        // Hand-craft a kernel whose CTA claims 2 warps in a 32-thread block.
        let mut buf = Vec::new();
        write_string(&mut buf, "k").unwrap();
        buf.extend_from_slice(&32u32.to_le_bytes()); // block_threads
        buf.extend_from_slice(&8u32.to_le_bytes()); // regs
        buf.extend_from_slice(&0u32.to_le_bytes()); // smem
        write_varint(&mut buf, 1).unwrap(); // grid
        write_varint(&mut buf, 2).unwrap(); // warps in cta 0: too many
        assert!(read_kernel(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn huge_instruction_count_is_an_error_not_an_allocation() {
        // A warp claiming 2^60 instructions must fail on the missing bytes,
        // not reserve room for all of them up front.
        let mut blob = Vec::new();
        write_varint(&mut blob, 1).unwrap(); // warps
        write_varint(&mut blob, 1 << 60).unwrap(); // instructions in warp 0
        assert!(read_cta_blob(&mut blob.as_slice(), 1, &mut WarpTrace::new()).is_err());
        let mut buf = Vec::new();
        write_string(&mut buf, "k").unwrap();
        buf.extend_from_slice(&32u32.to_le_bytes()); // block_threads
        buf.extend_from_slice(&8u32.to_le_bytes()); // regs
        buf.extend_from_slice(&0u32.to_le_bytes()); // smem
        write_varint(&mut buf, 1).unwrap(); // grid
        buf.extend_from_slice(&blob);
        assert!(read_kernel(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn truncated_stream_is_an_error_not_a_panic() {
        let b = sample_bundle();
        let mut buf = Vec::new();
        write_bundle(&b, &mut buf).unwrap();
        for cut in [5, 10, buf.len() / 2, buf.len() - 1] {
            assert!(
                read_bundle_impl(&mut buf[..cut].to_vec().as_slice()).is_err(),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn file_roundtrip() {
        let b = sample_bundle();
        let p = std::env::temp_dir().join("crisp_codec_test.crsp");
        save(&b, &p).unwrap();
        let back = crate::TraceInput::from(p.clone())
            .open()
            .and_then(|mut src| src.to_bundle())
            .unwrap();
        assert_eq!(b, back);
        let _ = std::fs::remove_file(p);
    }

    #[test]
    fn all_op_tags_roundtrip() {
        let spaces = [Space::Global, Space::Shared, Space::Local, Space::Tex];
        let mut ops = vec![
            Op::IntAlu,
            Op::FpAlu,
            Op::FpMul,
            Op::FpFma,
            Op::Sfu,
            Op::Tensor,
            Op::Branch,
            Op::Bar(0),
            Op::Exit,
        ];
        for s in spaces {
            ops.push(Op::Ld(s));
            ops.push(Op::St(s));
        }
        for op in ops {
            assert_eq!(tag_op(op_tag(op)).unwrap(), op);
        }
    }

    #[test]
    fn named_barrier_instr_roundtrips() {
        for id in 0..crate::NUM_BARRIERS as u8 {
            let mut bytes = Vec::new();
            write_instr(&mut bytes, Instr::bar_at(id).view()).unwrap();
            if id == 0 {
                // Slot 0 keeps the classic one-byte tag: pre-named-barrier
                // containers and their readers stay byte-compatible.
                assert_eq!(bytes[0], 7);
            } else {
                assert_eq!(&bytes[..2], &[OP_TAG_NAMED_BAR, id]);
            }
            let mut back = WarpTrace::new();
            read_instr(&mut bytes.as_slice(), &mut back).unwrap();
            assert_eq!(back.get(0).unwrap().op, Op::Bar(id));
        }
    }

    #[test]
    fn non_canonical_or_out_of_range_barrier_slots_are_rejected() {
        for bad_id in [0u8, 16, 200] {
            let mut bytes = Vec::new();
            write_instr(&mut bytes, Instr::bar().view()).unwrap();
            bytes[0] = OP_TAG_NAMED_BAR;
            bytes.insert(1, bad_id);
            let err = read_instr(&mut bytes.as_slice(), &mut WarpTrace::new()).unwrap_err();
            assert!(err.to_string().contains("barrier slot"), "{err}");
        }
    }
}
