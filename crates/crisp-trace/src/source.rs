//! Streaming trace sources: demand-paged access to CRSP containers.
//!
//! A [`TraceSource`] is the unified entry point for trace input. It exposes
//! the *shape* of a bundle — streams, commands, launch geometry — eagerly,
//! but decodes per-CTA instruction payloads lazily: a CTA is paged in on
//! first [`fetch_cta`](TraceSource::fetch_cta) and dropped again on
//! [`release_cta`](TraceSource::release_cta) (the simulator releases when
//! the CTA retires). For a version-2 container this keeps peak memory at
//! the *live window* of the trace instead of the whole file; version-1
//! files and in-memory bundles are held fully materialized behind the same
//! API — running the same fetch/release accounting — so consumers never
//! branch on the input kind and statistics match across backings.
//!
//! Construction goes through [`TraceInput`], which accepts an in-memory
//! [`TraceBundle`], a filesystem path, or any `Read + Seek` reader:
//!
//! ```
//! use crisp_trace::{codec, CtaTrace, Instr, KernelTrace, Op, Reg, Stream,
//!                   StreamId, StreamKind, TraceBundle, TraceInput, WarpTrace};
//!
//! let mut w = WarpTrace::new();
//! w.push(Instr::alu(Op::FpFma, Reg(1), &[]));
//! w.seal();
//! let k = KernelTrace::new("k", 32, 8, 0, vec![CtaTrace::new(vec![w])]);
//! let mut s = Stream::new(StreamId(0), StreamKind::Compute);
//! s.launch(k);
//! let bundle = TraceBundle::from_streams(vec![s]);
//!
//! // Serialize, then stream it back one CTA at a time.
//! let mut bytes = Vec::new();
//! codec::write_bundle(&bundle, &mut bytes)?;
//! let mut src = TraceInput::reader(std::io::Cursor::new(bytes)).open()?;
//! let kernel = match &src.streams()[0].commands[0] {
//!     crisp_trace::CommandMeta::Launch { kernel, .. } => *kernel,
//!     _ => unreachable!(),
//! };
//! let cta = src.fetch_cta(kernel, 0)?;
//! assert_eq!(cta.warps.len(), 1);
//! src.release_cta(kernel, 0);
//! assert_eq!(src.stats().resident_ctas, 0);
//! # Ok::<(), std::io::Error>(())
//! ```

use std::collections::{BTreeMap, BTreeSet};
use std::io::{self, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::codec::{self, DirCmd, DirStream};
use crate::kernel::{CtaTrace, KernelTrace, WarpTrace};
use crate::stream::{Command, Stream, StreamId, StreamKind, TraceBundle};
use crate::WARP_SIZE;

fn bad(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// A byte source a [`TraceSource`] can stream from: readable, seekable, and
/// movable across threads. Blanket-implemented; `io::Cursor<Vec<u8>>`,
/// `BufReader<File>`, and friends all qualify.
pub trait TraceRead: Read + Seek + Send {}

impl<T: Read + Seek + Send> TraceRead for T {}

/// Identifier of one kernel launch within a [`TraceSource`] — the position
/// of the launch in the container's directory (streams in stored order,
/// commands in stream order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct KernelId(pub u32);

impl std::fmt::Display for KernelId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "kernel{}", self.0)
    }
}

/// Launch geometry and per-thread resource usage of one kernel — everything
/// the scheduler needs to place CTAs, without the instruction payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelInfo {
    /// Human-readable kernel name from the trace.
    pub name: String,
    /// Threads per CTA (clamped up to one full warp, like
    /// [`KernelTrace::new`]).
    pub block_threads: u32,
    /// Architectural registers per thread.
    pub regs_per_thread: u32,
    /// Shared memory bytes per CTA.
    pub smem_per_cta: u32,
    /// Grid size in CTAs.
    pub grid: usize,
}

impl KernelInfo {
    /// The info of a materialized kernel trace.
    pub fn of(k: &KernelTrace) -> Self {
        KernelInfo {
            name: k.name.clone(),
            block_threads: k.block_threads,
            regs_per_thread: k.regs_per_thread,
            smem_per_cta: k.smem_per_cta,
            grid: k.grid(),
        }
    }

    /// Warps per CTA implied by the launch geometry.
    pub fn warps_per_cta(&self) -> u32 {
        self.block_threads.div_ceil(WARP_SIZE as u32)
    }

    /// Registers required by one CTA (allocated at warp granularity).
    /// Saturates for geometry no SM can hold, so placement checks reject it.
    pub fn regs_per_cta(&self) -> u32 {
        self.warps_per_cta()
            .saturating_mul(WARP_SIZE as u32)
            .saturating_mul(self.regs_per_thread)
    }

    /// Total threads launched (grid × block).
    pub fn threads_launched(&self) -> u64 {
        self.grid as u64 * self.block_threads as u64
    }
}

/// One command of a stream, with kernel launches reduced to their metadata.
#[derive(Debug, Clone)]
pub enum CommandMeta {
    /// A kernel launch; fetch its CTAs from the owning [`TraceSource`].
    Launch {
        /// Handle for [`TraceSource::fetch_cta`] and friends.
        kernel: KernelId,
        /// Launch geometry, shared with the source's directory.
        info: Arc<KernelInfo>,
    },
    /// A boundary marker (drawcall or API event).
    Marker(String),
}

/// The command list of one stream, mirroring [`Stream`] without payloads.
#[derive(Debug, Clone)]
pub struct StreamMeta {
    /// Stream identifier; unique within the source.
    pub id: StreamId,
    /// Work classification.
    pub kind: StreamKind,
    /// Ordered commands.
    pub commands: Vec<CommandMeta>,
}

impl StreamMeta {
    /// Number of kernel launches in the stream.
    pub fn kernel_count(&self) -> usize {
        self.commands
            .iter()
            .filter(|c| matches!(c, CommandMeta::Launch { .. }))
            .count()
    }
}

/// Residency and decode accounting of a [`TraceSource`].
///
/// The counters track the *logical* fetch/release window: every backing
/// runs the same bookkeeping on [`fetch_cta`](TraceSource::fetch_cta) and
/// [`release_cta`](TraceSource::release_cta), so a materialized source —
/// which physically keeps the whole bundle in memory — reports exactly the
/// window a streaming run over the same trace would keep. That makes
/// simulation results (and their telemetry exports) bit-identical across
/// backings, and keeps resumed runs bit-identical after checkpoint restore.
///
/// `resident_bytes` is a deterministic in-memory estimate of the window
/// (instruction count × instruction size plus per-warp/CTA overhead); see
/// [`cta_resident_cost`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// CTAs currently decoded and held in memory.
    pub resident_ctas: u64,
    /// Estimated bytes of decoded trace currently held in memory.
    pub resident_bytes: u64,
    /// High-water mark of `resident_ctas`.
    pub peak_resident_ctas: u64,
    /// High-water mark of `resident_bytes`.
    pub peak_resident_bytes: u64,
    /// Total CTA decodes performed (a CTA fetched, released, and fetched
    /// again counts twice).
    pub ctas_decoded: u64,
    /// Estimated bytes decoded in total, in the same units as
    /// `resident_bytes`.
    pub bytes_decoded: u64,
}

impl TraceStats {
    /// One CTA entered the resident window.
    fn on_decode(&mut self, cost: u64) {
        self.resident_ctas += 1;
        self.resident_bytes += cost;
        self.ctas_decoded += 1;
        self.bytes_decoded += cost;
        self.peak_resident_ctas = self.peak_resident_ctas.max(self.resident_ctas);
        self.peak_resident_bytes = self.peak_resident_bytes.max(self.resident_bytes);
    }

    /// One CTA left the resident window.
    fn on_release(&mut self, cost: u64) {
        self.resident_ctas -= 1;
        self.resident_bytes -= cost;
    }
}

/// Deterministic in-memory cost estimate of one decoded CTA — the unit of
/// [`TraceStats::resident_bytes`]. Exposed so tools can compute a
/// materialized baseline (the sum over every CTA in a bundle) to compare a
/// streaming run's peak window against.
pub fn cta_resident_cost(cta: &CtaTrace) -> u64 {
    cta_cost(cta)
}

/// Bytes [`cta_resident_cost`] charges per CTA, per warp, per instruction
/// and per lane address. They are the sizes of the trace layout the cost
/// model was defined on (an owned instruction of 56 bytes with its own
/// address `Vec`), frozen: `TraceStats` is checkpointed and cross-checked
/// on restore, so the unit must not move when the in-memory layout does.
const CTA_BYTES: u64 = 24;
const WARP_BYTES: u64 = 24;
const INSTR_BYTES: u64 = 56;
const ADDR_BYTES: u64 = 8;

/// Deterministic in-memory cost estimate of one decoded CTA.
fn cta_cost(cta: &CtaTrace) -> u64 {
    let warps = cta
        .warps
        .iter()
        .map(|w| WARP_BYTES + w.len() as u64 * INSTR_BYTES + w.addr_count() as u64 * ADDR_BYTES);
    CTA_BYTES + warps.sum::<u64>()
}

/// Any trace input the simulator accepts: an in-memory bundle, a path to a
/// CRSP file, or an arbitrary seekable reader. Every form opens into the
/// same [`TraceSource`]; files and readers carrying a version-2 container
/// stream (demand-page CTAs), everything else materializes.
pub enum TraceInput {
    /// An already-materialized bundle.
    Bundle(TraceBundle),
    /// A CRSP container on the filesystem.
    Path(PathBuf),
    /// A seekable reader over a CRSP container.
    Reader(Box<dyn TraceRead>),
}

impl std::fmt::Debug for TraceInput {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceInput::Bundle(b) => f.debug_tuple("Bundle").field(b).finish(),
            TraceInput::Path(p) => f.debug_tuple("Path").field(p).finish(),
            TraceInput::Reader(_) => f.write_str("Reader(..)"),
        }
    }
}

impl From<TraceBundle> for TraceInput {
    fn from(b: TraceBundle) -> Self {
        TraceInput::Bundle(b)
    }
}

impl From<PathBuf> for TraceInput {
    fn from(p: PathBuf) -> Self {
        TraceInput::Path(p)
    }
}

impl From<&Path> for TraceInput {
    fn from(p: &Path) -> Self {
        TraceInput::Path(p.to_path_buf())
    }
}

impl From<&str> for TraceInput {
    fn from(p: &str) -> Self {
        TraceInput::Path(PathBuf::from(p))
    }
}

impl From<String> for TraceInput {
    fn from(p: String) -> Self {
        TraceInput::Path(PathBuf::from(p))
    }
}

impl TraceInput {
    /// Wrap a seekable reader (e.g. an `io::Cursor` over container bytes).
    pub fn reader(r: impl Read + Seek + Send + 'static) -> Self {
        TraceInput::Reader(Box::new(r))
    }

    /// Open the input as a [`TraceSource`]. Bundles materialize; paths and
    /// readers are sniffed: version-2 containers stream, version-1 files go
    /// through the compatibility scan and materialize.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors, and returns `InvalidData` for malformed
    /// containers — including a corrupt CTA index (spans out of bounds,
    /// overlapping, or not covering the payload).
    pub fn open(self) -> io::Result<TraceSource> {
        match self {
            TraceInput::Bundle(b) => Ok(TraceSource::from_bundle(b)),
            TraceInput::Path(p) => {
                let f = std::fs::File::open(&p)?;
                TraceSource::open_reader(Box::new(io::BufReader::new(f)), Provenance::Path(p))
            }
            TraceInput::Reader(r) => TraceSource::open_reader(r, Provenance::Reader),
        }
    }
}

/// Where a source came from, for re-opening at checkpoint restore.
#[derive(Debug)]
enum Provenance {
    /// Opened from a filesystem path (re-open by path).
    Path(PathBuf),
    /// Opened from a caller-supplied reader (copy the raw container bytes).
    Reader,
    /// Built from an in-memory bundle (re-encode on demand).
    Ephemeral,
}

enum CtaStore {
    /// Fully materialized (bundle-backed or version-1 compat). `window`
    /// tracks which CTAs are *logically* fetched so accounting matches a
    /// streaming source even though the `Arc`s never drop.
    Loaded {
        ctas: Vec<Arc<CtaTrace>>,
        window: BTreeSet<usize>,
    },
    /// Demand-paged: per-CTA payload spans plus the resident window.
    Lazy {
        spans: Vec<(u64, u64)>,
        resident: BTreeMap<usize, Arc<CtaTrace>>,
    },
}

struct KernelEntry {
    stream: StreamId,
    info: Arc<KernelInfo>,
    ctas: CtaStore,
}

enum Backing {
    /// No reader needed; every CTA lives in its `CtaStore::Loaded`.
    Materialized,
    /// CTA blobs are decoded out of `reader` on demand.
    Streaming {
        reader: Box<dyn TraceRead>,
        payload_start: u64,
        /// The bytes of the CTA span being decoded, reused across fetches.
        span: Vec<u8>,
        /// Decode buffer reused across CTA fetches
        /// ([`codec::read_cta_blob`]).
        scratch: WarpTrace,
    },
}

/// Demand-paged access to a trace: stream/kernel metadata up front, per-CTA
/// instruction payloads on [`fetch_cta`](Self::fetch_cta). See the module
/// docs for the lifecycle.
pub struct TraceSource {
    streams: Vec<StreamMeta>,
    kernels: Vec<KernelEntry>,
    backing: Backing,
    provenance: Provenance,
    stats: TraceStats,
}

impl std::fmt::Debug for TraceSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceSource")
            .field("streams", &self.streams.len())
            .field("kernels", &self.kernels.len())
            .field("streaming", &self.is_streaming())
            .field("stats", &self.stats)
            .finish()
    }
}

impl TraceSource {
    /// A fully materialized source over an in-memory bundle. Every CTA is
    /// physically in memory for the lifetime of the source, but the
    /// [`stats`](Self::stats) accounting is *logical*: fetch and release
    /// move CTAs through the same window a streaming source would keep, so
    /// the counters (and everything derived from them) are bit-identical
    /// across backings.
    pub fn from_bundle(bundle: TraceBundle) -> Self {
        let mut streams = Vec::with_capacity(bundle.streams.len());
        let mut kernels: Vec<KernelEntry> = Vec::new();
        for s in bundle.streams {
            let mut commands = Vec::with_capacity(s.commands.len());
            for c in s.commands {
                match c {
                    Command::Launch(k) => {
                        let id = KernelId(kernels.len() as u32);
                        let info = Arc::new(KernelInfo::of(&k));
                        kernels.push(KernelEntry {
                            stream: s.id,
                            info: info.clone(),
                            ctas: CtaStore::Loaded {
                                ctas: k.ctas,
                                window: BTreeSet::new(),
                            },
                        });
                        commands.push(CommandMeta::Launch { kernel: id, info });
                    }
                    Command::Marker(m) => commands.push(CommandMeta::Marker(m)),
                }
            }
            streams.push(StreamMeta {
                id: s.id,
                kind: s.kind,
                commands,
            });
        }
        TraceSource {
            streams,
            kernels,
            backing: Backing::Materialized,
            provenance: Provenance::Ephemeral,
            stats: TraceStats::default(),
        }
    }

    /// Open a container behind a seekable reader: sniff the version, build
    /// the directory, and either stream (v2) or materialize (v1 compat).
    fn open_reader(
        mut reader: Box<dyn TraceRead>,
        provenance: Provenance,
    ) -> io::Result<TraceSource> {
        reader.seek(SeekFrom::Start(0))?;
        codec::check_magic(&mut reader, codec::MAGIC, "CRSP trace")?;
        match codec::read_version(&mut reader)? {
            codec::VERSION_V1 => {
                // Compatibility scan: old files have no index; decode whole.
                let bundle = codec::read_bundle_rest_v1(&mut reader)?;
                let mut src = TraceSource::from_bundle(bundle);
                src.provenance = provenance;
                Ok(src)
            }
            codec::VERSION_V2 => {
                let (dir, payload_len) = codec::read_directory_v2(&mut reader)?;
                let payload_start = reader.stream_position()?;
                // The index check bounds every span by `payload_len`; bound
                // that by the bytes the container holds, so a span buffer
                // is never sized past what is there to read.
                let end = reader.seek(SeekFrom::End(0))?;
                if payload_start.saturating_add(payload_len) > end {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        format!(
                            "CTA payload of {payload_len} bytes runs past the end of the \
                             container ({} bytes present)",
                            end.saturating_sub(payload_start)
                        ),
                    ));
                }
                Ok(TraceSource::from_directory(
                    dir,
                    reader,
                    payload_start,
                    provenance,
                ))
            }
            found => Err(codec::unsupported_version(found)),
        }
    }

    fn from_directory(
        dir: Vec<DirStream>,
        reader: Box<dyn TraceRead>,
        payload_start: u64,
        provenance: Provenance,
    ) -> TraceSource {
        let mut streams = Vec::with_capacity(dir.len());
        let mut kernels: Vec<KernelEntry> = Vec::new();
        let mut max_span = 0;
        for s in dir {
            let mut commands = Vec::with_capacity(s.cmds.len());
            for c in s.cmds {
                match c {
                    DirCmd::Launch(k) => {
                        let id = KernelId(kernels.len() as u32);
                        max_span = k.spans.iter().fold(max_span, |m, &(_, len)| m.max(len));
                        let info = Arc::new(KernelInfo {
                            name: k.name,
                            block_threads: k.block_threads.max(WARP_SIZE as u32),
                            regs_per_thread: k.regs_per_thread,
                            smem_per_cta: k.smem_per_cta,
                            grid: k.spans.len(),
                        });
                        kernels.push(KernelEntry {
                            stream: s.id,
                            info: info.clone(),
                            ctas: CtaStore::Lazy {
                                spans: k.spans,
                                resident: BTreeMap::new(),
                            },
                        });
                        commands.push(CommandMeta::Launch { kernel: id, info });
                    }
                    DirCmd::Marker(m) => commands.push(CommandMeta::Marker(m)),
                }
            }
            streams.push(StreamMeta {
                id: s.id,
                kind: s.kind,
                commands,
            });
        }
        TraceSource {
            streams,
            kernels,
            backing: Backing::Streaming {
                reader,
                payload_start,
                // Open checked every span against the container's length.
                span: Vec::with_capacity(max_span as usize),
                scratch: WarpTrace::new(),
            },
            provenance,
            stats: TraceStats::default(),
        }
    }

    /// Stream metadata in container order.
    pub fn streams(&self) -> &[StreamMeta] {
        &self.streams
    }

    /// Number of kernel launches across all streams.
    pub fn n_kernels(&self) -> usize {
        self.kernels.len()
    }

    /// Launch geometry of `kernel`.
    pub fn kernel_info(&self, kernel: KernelId) -> Option<&Arc<KernelInfo>> {
        self.kernels.get(kernel.0 as usize).map(|k| &k.info)
    }

    /// The stream `kernel` was launched on.
    pub fn kernel_stream(&self, kernel: KernelId) -> Option<StreamId> {
        self.kernels.get(kernel.0 as usize).map(|k| k.stream)
    }

    /// Whether CTAs are demand-paged (version-2 file/reader backing) rather
    /// than fully materialized.
    pub fn is_streaming(&self) -> bool {
        matches!(self.backing, Backing::Streaming { .. })
    }

    /// The path this source was opened from, if any.
    pub fn path(&self) -> Option<&Path> {
        match &self.provenance {
            Provenance::Path(p) => Some(p),
            _ => None,
        }
    }

    /// Residency and decode accounting so far.
    pub fn stats(&self) -> TraceStats {
        self.stats
    }

    /// Overwrite the accounting wholesale — checkpoint restore uses this to
    /// keep resumed statistics bit-identical to an uninterrupted run.
    #[doc(hidden)]
    pub fn set_stats(&mut self, stats: TraceStats) {
        self.stats = stats;
    }

    fn entry(&self, kernel: KernelId) -> io::Result<&KernelEntry> {
        self.kernels
            .get(kernel.0 as usize)
            .ok_or_else(|| bad(format!("{kernel} is not in this trace source")))
    }

    pub(crate) fn is_resident(&self, kernel: KernelId, cta_index: usize) -> bool {
        match self.kernels.get(kernel.0 as usize).map(|k| &k.ctas) {
            Some(CtaStore::Loaded { window, .. }) => window.contains(&cta_index),
            Some(CtaStore::Lazy { resident, .. }) => resident.contains_key(&cta_index),
            None => false,
        }
    }

    /// Page in one CTA's instruction streams. On a streaming source the
    /// first fetch decodes the blob out of the container; while the CTA
    /// stays resident, further fetches return the same shared trace at no
    /// cost. Materialized sources return the already-loaded trace, but run
    /// the same [`stats`](Self::stats) bookkeeping, so accounting is
    /// identical whichever backing serves the fetch.
    ///
    /// # Errors
    ///
    /// `InvalidData` for unknown kernel/CTA indices or a corrupt blob, and
    /// I/O errors from the underlying reader.
    pub fn fetch_cta(&mut self, kernel: KernelId, cta_index: usize) -> io::Result<Arc<CtaTrace>> {
        let entry = self
            .kernels
            .get_mut(kernel.0 as usize)
            .ok_or_else(|| bad(format!("{kernel} is not in this trace source")))?;
        let max_warps = codec::max_warps_of(entry.info.block_threads);
        match &mut entry.ctas {
            CtaStore::Loaded { ctas, window } => {
                let arc = ctas.get(cta_index).cloned().ok_or_else(|| {
                    bad(format!(
                        "cta {cta_index} out of range for {kernel} (grid {})",
                        ctas.len()
                    ))
                })?;
                if window.insert(cta_index) {
                    self.stats.on_decode(cta_cost(&arc));
                }
                Ok(arc)
            }
            CtaStore::Lazy { spans, resident } => {
                if let Some(a) = resident.get(&cta_index) {
                    return Ok(a.clone());
                }
                let &(off, len) = spans.get(cta_index).ok_or_else(|| {
                    bad(format!(
                        "cta {cta_index} out of range for {kernel} (grid {})",
                        spans.len()
                    ))
                })?;
                let Backing::Streaming {
                    reader,
                    payload_start,
                    span,
                    scratch,
                } = &mut self.backing
                else {
                    return Err(bad("lazy CTA store without a streaming backing".into()));
                };
                // One read of the whole span, then a decode from the slice.
                reader.seek(SeekFrom::Start(*payload_start + off))?;
                let len = usize::try_from(len)
                    .map_err(|_| bad(format!("CTA span of {len} bytes exceeds memory")))?;
                span.clear();
                span.resize(len, 0);
                reader.read_exact(span)?;
                let mut rest = span.as_slice();
                let blob = codec::read_cta_blob(&mut rest, max_warps, scratch)?;
                if !rest.is_empty() {
                    return Err(bad("CTA blob shorter than its indexed span".into()));
                }
                let arc = Arc::new(blob);
                resident.insert(cta_index, arc.clone());
                self.stats.on_decode(cta_cost(&arc));
                Ok(arc)
            }
        }
    }

    /// Drop a CTA from the resident window. A no-op for CTAs that were
    /// never fetched (or already released). Streaming sources free the
    /// decoded trace; materialized sources only shrink the logical window,
    /// keeping accounting identical across backings. Callers still holding
    /// the `Arc` keep their copy; the source just stops caching it.
    pub fn release_cta(&mut self, kernel: KernelId, cta_index: usize) {
        if let Some(entry) = self.kernels.get_mut(kernel.0 as usize) {
            match &mut entry.ctas {
                CtaStore::Loaded { ctas, window } => {
                    if window.remove(&cta_index) {
                        self.stats.on_release(cta_cost(&ctas[cta_index]));
                    }
                }
                CtaStore::Lazy { resident, .. } => {
                    if let Some(a) = resident.remove(&cta_index) {
                        self.stats.on_release(cta_cost(&a));
                    }
                }
            }
        }
    }

    /// Materialize one kernel as a [`KernelTrace`], fetching each CTA and
    /// releasing the ones that were not already resident — the bounded-
    /// memory building block behind incremental validation and analysis.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`fetch_cta`](Self::fetch_cta).
    pub fn materialize_kernel(&mut self, kernel: KernelId) -> io::Result<KernelTrace> {
        let info = self.entry(kernel)?.info.clone();
        let mut ctas = Vec::with_capacity(info.grid);
        for i in 0..info.grid {
            let was_resident = self.is_resident(kernel, i);
            ctas.push(self.fetch_cta(kernel, i)?);
            if !was_resident {
                self.release_cta(kernel, i);
            }
        }
        // Construct the struct directly rather than through
        // `KernelTrace::new`: a malformed source (e.g. a bundle whose CTA
        // has more warps than the block allows) must round-trip so the
        // validator can *report* the defect — paging never panics.
        Ok(KernelTrace {
            name: info.name.clone(),
            block_threads: info.block_threads,
            regs_per_thread: info.regs_per_thread,
            smem_per_cta: info.smem_per_cta,
            ctas,
        })
    }

    /// Materialize the whole source as a [`TraceBundle`]. Streaming sources
    /// decode every CTA (releasing non-resident ones afterwards), so this
    /// costs the full-bundle memory the streaming path otherwise avoids.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`fetch_cta`](Self::fetch_cta).
    pub fn to_bundle(&mut self) -> io::Result<TraceBundle> {
        let mut streams = Vec::with_capacity(self.streams.len());
        for si in 0..self.streams.len() {
            let m = &self.streams[si];
            let mut s = Stream::new(m.id, m.kind);
            for ci in 0..m.commands.len() {
                match &self.streams[si].commands[ci] {
                    &CommandMeta::Launch { kernel, .. } => {
                        s.launch(self.materialize_kernel(kernel)?);
                    }
                    CommandMeta::Marker(l) => {
                        s.marker(l.clone());
                    }
                }
            }
            streams.push(s);
        }
        Ok(TraceBundle::from_streams(streams))
    }

    /// The raw version-2 container bytes for this source: streaming sources
    /// copy their backing bytes, materialized sources re-encode. Checkpoints
    /// embed this so a resumed run needs no external files.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the backing reader or the encoder.
    pub fn container_bytes(&mut self) -> io::Result<Vec<u8>> {
        if let Backing::Streaming { reader, .. } = &mut self.backing {
            reader.seek(SeekFrom::Start(0))?;
            let mut buf = Vec::new();
            reader.read_to_end(&mut buf)?;
            return Ok(buf);
        }
        let b = self.to_bundle()?;
        let mut buf = Vec::new();
        codec::write_bundle(&b, &mut buf)?;
        Ok(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{DataClass, Instr, MemAccess, Op, Reg, Space};
    use crate::kernel::WarpTrace;

    fn kernel(name: &str, n_instr: usize, warps: usize, ctas: usize) -> KernelTrace {
        let mut w = WarpTrace::new();
        for i in 0..n_instr {
            w.push(Instr::alu(Op::FpFma, Reg((i % 8) as u16 + 1), &[]));
        }
        w.push(Instr::load(
            Reg(9),
            MemAccess::coalesced(Space::Global, DataClass::Compute, 4, 0x1000, 32),
        ));
        w.seal();
        let cta = CtaTrace::new(vec![w; warps]);
        KernelTrace::new(name, 32 * warps as u32, 16, 0, vec![cta; ctas])
    }

    fn bundle() -> TraceBundle {
        let mut g = Stream::new(StreamId(0), StreamKind::Graphics);
        g.marker("draw0").launch(kernel("vs", 10, 2, 3));
        let mut c = Stream::new(StreamId(1), StreamKind::Compute);
        c.launch(kernel("k0", 20, 1, 2))
            .launch(kernel("k1", 5, 1, 1));
        TraceBundle::from_streams(vec![g, c])
    }

    fn streaming_source() -> TraceSource {
        let mut bytes = Vec::new();
        codec::write_bundle(&bundle(), &mut bytes).unwrap();
        TraceInput::reader(io::Cursor::new(bytes)).open().unwrap()
    }

    fn launches(src: &TraceSource) -> Vec<(KernelId, Arc<KernelInfo>)> {
        src.streams()
            .iter()
            .flat_map(|s| s.commands.iter())
            .filter_map(|c| match c {
                CommandMeta::Launch { kernel, info } => Some((*kernel, info.clone())),
                CommandMeta::Marker(_) => None,
            })
            .collect()
    }

    #[test]
    fn resident_cost_is_frozen_at_the_original_layout() {
        // 24 per CTA + 2 × (24 per warp + 12 instructions × 56 + 32 lanes × 8).
        let k = kernel("k", 10, 2, 1);
        assert_eq!(cta_resident_cost(&k.ctas[0]), 1928);
    }

    #[test]
    fn cloned_streams_and_materialized_kernels_share_ctas() {
        let b = bundle();
        let copy = b.streams[1].clone();
        let k0 = b.streams[1].kernels().next().unwrap();
        let c0 = copy.kernels().next().unwrap();
        assert!(k0.ctas.iter().zip(&c0.ctas).all(|(a, c)| Arc::ptr_eq(a, c)));

        let mut src = TraceSource::from_bundle(b.clone());
        let (kid, _) = launches(&src)[1];
        let mat = src.materialize_kernel(kid).unwrap();
        assert_eq!(mat.ctas.len(), k0.ctas.len());
        assert!(k0
            .ctas
            .iter()
            .zip(&mat.ctas)
            .all(|(a, m)| Arc::ptr_eq(a, m)));
    }

    #[test]
    fn bundle_source_accounts_logically() {
        let b = bundle();
        let mut src = TraceSource::from_bundle(b.clone());
        assert!(!src.is_streaming());
        // Physically everything is loaded, but nothing has been fetched.
        assert_eq!(src.stats(), TraceStats::default());
        let (kid, _) = launches(&src)[0];
        let cta = src.fetch_cta(kid, 0).unwrap();
        assert_eq!(cta.warps.len(), 2);
        let st = src.stats();
        assert_eq!(st.resident_ctas, 1);
        assert_eq!(st.ctas_decoded, 1);
        assert!(st.resident_bytes > 0);
        // Re-fetch while in the window: shared Arc, no extra accounting.
        let again = src.fetch_cta(kid, 0).unwrap();
        assert!(Arc::ptr_eq(&cta, &again));
        assert_eq!(src.stats(), st);
        src.release_cta(kid, 0);
        let st = src.stats();
        assert_eq!(st.resident_ctas, 0);
        assert_eq!(st.resident_bytes, 0);
        assert_eq!(st.peak_resident_ctas, 1);
        // Fetch after release counts as a fresh (logical) decode.
        let _ = src.fetch_cta(kid, 0).unwrap();
        assert_eq!(src.stats().ctas_decoded, 2);
        src.release_cta(kid, 0);
        assert_eq!(src.to_bundle().unwrap(), b);
    }

    #[test]
    fn both_backings_account_identically() {
        // The same fetch/release sequence must produce the same stats on a
        // materialized and a streaming source — that is what keeps
        // simulation exports byte-identical across backings.
        let mut mat = TraceSource::from_bundle(bundle());
        let mut strm = streaming_source();
        let ls = launches(&mat);
        for (kid, info) in &ls {
            for i in 0..info.grid {
                mat.fetch_cta(*kid, i).unwrap();
                strm.fetch_cta(*kid, i).unwrap();
            }
        }
        assert_eq!(mat.stats(), strm.stats());
        for (kid, info) in &ls {
            for i in 0..info.grid {
                mat.release_cta(*kid, i);
                strm.release_cta(*kid, i);
            }
        }
        assert_eq!(mat.stats(), strm.stats());
        assert_eq!(mat.stats().resident_ctas, 0);
    }

    #[test]
    fn streaming_source_pages_ctas_in_and_out() {
        let mut src = streaming_source();
        assert!(src.is_streaming());
        assert_eq!(src.stats(), TraceStats::default());
        let ls = launches(&src);
        assert_eq!(ls.len(), 3);
        assert_eq!(ls[0].1.name, "vs");
        assert_eq!(ls[0].1.grid, 3);

        let (kid, _) = ls[0];
        let a = src.fetch_cta(kid, 1).unwrap();
        let st = src.stats();
        assert_eq!(st.resident_ctas, 1);
        assert_eq!(st.ctas_decoded, 1);
        assert!(st.resident_bytes > 0);
        // Re-fetch while resident: same Arc, no extra decode.
        let b = src.fetch_cta(kid, 1).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(src.stats().ctas_decoded, 1);

        src.release_cta(kid, 1);
        let st = src.stats();
        assert_eq!(st.resident_ctas, 0);
        assert_eq!(st.resident_bytes, 0);
        assert_eq!(st.peak_resident_ctas, 1);
        // Fetch after release decodes again.
        let _ = src.fetch_cta(kid, 1).unwrap();
        assert_eq!(src.stats().ctas_decoded, 2);
    }

    #[test]
    fn streaming_source_matches_materialized_content() {
        let mut src = streaming_source();
        assert_eq!(src.to_bundle().unwrap(), bundle());
        // to_bundle released everything it fetched.
        assert_eq!(src.stats().resident_ctas, 0);
    }

    #[test]
    fn v1_files_open_through_the_compat_scan() {
        let mut bytes = Vec::new();
        codec::write_bundle_v1(&bundle(), &mut bytes).unwrap();
        let mut src = TraceInput::reader(io::Cursor::new(bytes)).open().unwrap();
        assert!(!src.is_streaming(), "v1 has no index; must materialize");
        assert_eq!(src.to_bundle().unwrap(), bundle());
    }

    #[test]
    fn peak_reflects_the_widest_window() {
        let mut src = streaming_source();
        let ls = launches(&src);
        // Hold kernel 0's three CTAs at once, then release them all.
        for i in 0..3 {
            src.fetch_cta(ls[0].0, i).unwrap();
        }
        for i in 0..3 {
            src.release_cta(ls[0].0, i);
        }
        // One more fetch elsewhere; the peak stays at 3.
        src.fetch_cta(ls[1].0, 0).unwrap();
        let st = src.stats();
        assert_eq!(st.peak_resident_ctas, 3);
        assert_eq!(st.resident_ctas, 1);
        assert!(st.peak_resident_bytes >= st.resident_bytes);
    }

    #[test]
    fn out_of_range_fetches_are_errors_not_panics() {
        let mut src = streaming_source();
        let ls = launches(&src);
        assert!(src.fetch_cta(KernelId(99), 0).is_err());
        assert!(src.fetch_cta(ls[0].0, 99).is_err());
    }

    #[test]
    fn corrupt_index_fails_at_open() {
        let mut bytes = Vec::new();
        codec::write_bundle_mutated(&bundle(), &mut bytes, |_, (o, l)| (o + 1, l), &[]).unwrap();
        assert!(TraceInput::reader(io::Cursor::new(bytes)).open().is_err());
    }

    /// One kernel whose CTAs differ in length and lane addresses, so a
    /// byte carried over from one CTA's span into the next shows.
    fn varied_bundle() -> TraceBundle {
        let ctas = (0..6u64)
            .map(|c| {
                let mut w = WarpTrace::new();
                for i in 0..(c * 7 + 1) % 20 + 1 {
                    w.push(Instr::alu(Op::IntAlu, Reg(i as u16 % 8 + 1), &[]));
                    w.push(Instr::load(
                        Reg(9),
                        MemAccess::coalesced(
                            Space::Global,
                            DataClass::Compute,
                            4,
                            0x1000 * (c + 1) + i * 128,
                            (c as usize * 5 + i as usize) % 32 + 1,
                        ),
                    ));
                }
                w.seal();
                CtaTrace::new(vec![w])
            })
            .collect();
        let mut s = Stream::new(StreamId(0), StreamKind::Compute);
        s.launch(KernelTrace::new("varied", 32, 16, 0, ctas));
        TraceBundle::from_streams(vec![s])
    }

    fn open_bytes(bytes: Vec<u8>) -> io::Result<TraceSource> {
        TraceInput::reader(io::Cursor::new(bytes)).open()
    }

    #[test]
    fn out_of_order_fetches_leak_nothing_between_spans() {
        let b = varied_bundle();
        let mut bytes = Vec::new();
        codec::write_bundle(&b, &mut bytes).unwrap();
        let mut src = open_bytes(bytes).unwrap();
        let (kid, _) = launches(&src)[0];
        let expected = &b.streams[0].kernels().next().unwrap().ctas;
        // Largest first: every later span is decoded from a buffer that
        // last held a longer one.
        let mut order: Vec<usize> = (0..expected.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(cta_resident_cost(&expected[i])));
        assert!(cta_resident_cost(&expected[order[0]]) > cta_resident_cost(&expected[order[5]]));
        for i in order {
            assert_eq!(*src.fetch_cta(kid, i).unwrap(), *expected[i], "cta {i}");
            src.release_cta(kid, i);
        }
    }

    #[test]
    fn span_longer_than_its_blob_fails_the_fetch() {
        let b = varied_bundle();
        let last = b.streams[0].kernels().next().unwrap().ctas.len() - 1;
        let mut bytes = Vec::new();
        codec::write_bundle_mutated(
            &b,
            &mut bytes,
            |i, (off, len)| {
                if i == last {
                    (off, len + 3)
                } else {
                    (off, len)
                }
            },
            &[0; 3],
        )
        .unwrap();
        let mut src = open_bytes(bytes).unwrap();
        let (kid, _) = launches(&src)[0];
        assert!(src.fetch_cta(kid, 0).is_ok(), "other spans are intact");
        let err = src.fetch_cta(kid, last).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains("shorter than its indexed span"),
            "{err}"
        );
        assert_eq!(
            src.stats().resident_ctas,
            1,
            "a failed fetch pages nothing in"
        );
    }

    #[test]
    fn blob_running_past_its_span_is_a_typed_error() {
        // Move the boundary between CTAs 0 and 1 three bytes back: CTA 0's
        // blob runs past its span, CTA 1's span starts inside CTA 0's blob.
        let mut bytes = Vec::new();
        codec::write_bundle_mutated(
            &varied_bundle(),
            &mut bytes,
            |i, (off, len)| match i {
                0 => (off, len - 3),
                1 => (off - 3, len + 3),
                _ => (off, len),
            },
            &[],
        )
        .unwrap();
        let mut src = open_bytes(bytes).unwrap();
        let (kid, _) = launches(&src)[0];
        for cta in [0, 1] {
            let err = src.fetch_cta(kid, cta).unwrap_err();
            assert!(
                matches!(
                    err.kind(),
                    io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof
                ),
                "cta {cta}: {err:?}"
            );
        }
    }

    #[test]
    fn container_bytes_roundtrip_both_backings() {
        let mut streaming = streaming_source();
        let raw = streaming.container_bytes().unwrap();
        let mut reopened = TraceInput::reader(io::Cursor::new(raw)).open().unwrap();
        assert_eq!(reopened.to_bundle().unwrap(), bundle());

        let mut mat = TraceSource::from_bundle(bundle());
        let raw = mat.container_bytes().unwrap();
        let mut reopened = TraceInput::reader(io::Cursor::new(raw)).open().unwrap();
        assert!(reopened.is_streaming(), "re-encoded bytes are version 2");
        assert_eq!(reopened.to_bundle().unwrap(), bundle());
    }

    #[test]
    fn path_input_opens_and_remembers_its_path() {
        let p = std::env::temp_dir().join(format!("crisp_source_test_{}.crsp", std::process::id()));
        codec::save(&bundle(), &p).unwrap();
        let mut src = TraceInput::from(p.clone()).open().unwrap();
        assert!(src.is_streaming());
        assert_eq!(src.path(), Some(p.as_path()));
        assert_eq!(src.to_bundle().unwrap(), bundle());
        let _ = std::fs::remove_file(p);
    }

    #[test]
    fn source_types_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<TraceSource>();
        assert_send::<TraceInput>();
    }
}
