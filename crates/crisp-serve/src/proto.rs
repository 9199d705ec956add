//! The `crisp-serve` wire protocol: length-prefixed binary frames.
//!
//! Every message is one **frame**:
//!
//! ```text
//! ┌────────────┬──────────┬───────────────────┐
//! │ u32 LE len │ u8 type  │ payload (len - 1) │
//! └────────────┴──────────┴───────────────────┘
//! ```
//!
//! `len` counts the type byte plus the payload, must be at least 1, and
//! must not exceed [`MAX_FRAME`]. Payloads are [`crisp_ckpt::Wire`]
//! encodings — the codec checkpoints use: LEB128 `u64`s and lengths,
//! fixed-width `u8`/`u32`, strict bool bytes, one tag byte per enum, and
//! strings and byte blobs as a length plus the bytes. Decoding is
//! defensive throughout: a malformed frame is a [`ProtoError`], never a
//! panic, and the daemon answers it with a structured [`Response::Error`]
//! frame rather than dying. A payload is malformed when it is truncated,
//! has trailing bytes, carries an unknown tag or a bool byte other than
//! 0/1, has a tenant, job name, scene kind or error message over 64 KiB,
//! an empty tenant, or a job list over 2^20 entries. Trace containers and
//! outcome texts are bounded only by the frame.
//!
//! One request frame yields exactly one response frame on the same
//! connection; connections are long-lived and carry any number of
//! request/response pairs.

use std::fmt;
use std::io::{self, Read, Write};

use crisp_ckpt::{bad, wire_struct, wire_tags, Reader, Wire, Writer};

/// Hard ceiling on one frame (type byte + payload). Large enough for a
/// paper-scale CRSP container in a submit, small enough that a hostile
/// length prefix cannot make the daemon allocate unbounded memory.
pub const MAX_FRAME: u32 = 64 << 20;

/// Ceiling on any single string inside a payload.
const MAX_STR: usize = 1 << 16;

/// Ceiling on the entries of a job list.
const MAX_JOBS: usize = 1 << 20;

/// How a frame or payload failed to parse.
#[derive(Debug)]
pub enum ProtoError {
    /// The underlying socket failed (includes mid-frame disconnects).
    Io(io::Error),
    /// The frame or payload violates the encoding.
    Malformed(String),
    /// The length prefix exceeds [`MAX_FRAME`]. The connection cannot be
    /// resynchronized past the unread body, so the peer should close it
    /// after reporting the error.
    Oversized {
        /// The offending length prefix.
        len: u32,
    },
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "socket error: {e}"),
            ProtoError::Malformed(m) => write!(f, "malformed frame: {m}"),
            ProtoError::Oversized { len } => {
                write!(
                    f,
                    "oversized frame: {len} bytes exceeds the {MAX_FRAME}-byte limit"
                )
            }
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<io::Error> for ProtoError {
    fn from(e: io::Error) -> Self {
        ProtoError::Io(e)
    }
}

fn malformed(msg: impl Into<String>) -> ProtoError {
    ProtoError::Malformed(msg.into())
}

/// Write one frame. The length prefix, type byte and payload are handed to
/// `w` as one buffer, so a `TCP_NODELAY` socket sends them in one segment
/// rather than three.
///
/// # Errors
///
/// Propagates socket errors; rejects a payload that would exceed
/// [`MAX_FRAME`].
pub fn write_frame<W: Write>(w: &mut W, kind: u8, payload: &[u8]) -> Result<(), ProtoError> {
    let len =
        u32::try_from(payload.len() + 1).map_err(|_| ProtoError::Oversized { len: u32::MAX })?;
    if len > MAX_FRAME {
        return Err(ProtoError::Oversized { len });
    }
    let mut frame = Vec::with_capacity(5 + payload.len());
    frame.extend_from_slice(&len.to_le_bytes());
    frame.push(kind);
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// Read one frame: `(type, payload)`.
///
/// # Errors
///
/// [`ProtoError::Io`] on socket failure or mid-frame EOF,
/// [`ProtoError::Malformed`] on a zero-length frame,
/// [`ProtoError::Oversized`] when the length prefix exceeds [`MAX_FRAME`]
/// (the body is left unread — close the connection).
pub fn read_frame<R: Read>(r: &mut R) -> Result<(u8, Vec<u8>), ProtoError> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len);
    if len == 0 {
        return Err(malformed("zero-length frame"));
    }
    if len > MAX_FRAME {
        return Err(ProtoError::Oversized { len });
    }
    let mut kind = [0u8; 1];
    r.read_exact(&mut kind)?;
    let mut payload = vec![0u8; len as usize - 1];
    r.read_exact(&mut payload)?;
    Ok((kind[0], payload))
}

/// Encode a message body with `f`, which returns the frame type byte.
fn encode_body(f: impl FnOnce(&mut Writer<&mut Vec<u8>>) -> io::Result<u8>) -> (u8, Vec<u8>) {
    let mut buf = Vec::new();
    let kind = f(&mut Writer::new(&mut buf)).expect("encoding into memory cannot fail");
    (kind, buf)
}

/// Decode a whole message body with `f`. Every decode error and any
/// trailing byte is [`ProtoError::Malformed`], so a bad payload fails only
/// its own request.
fn decode_body<T>(
    payload: &[u8],
    f: impl FnOnce(&mut Reader<&mut &[u8]>) -> io::Result<T>,
) -> Result<T, ProtoError> {
    let mut rest = payload;
    let v = f(&mut Reader::new(&mut rest)).map_err(|e| match e.kind() {
        io::ErrorKind::UnexpectedEof => malformed("payload truncated"),
        _ => malformed(e.to_string()),
    })?;
    if !rest.is_empty() {
        return Err(malformed(format!(
            "{} trailing bytes after payload",
            rest.len()
        )));
    }
    Ok(v)
}

/// Reject a string over [`MAX_STR`] bytes.
fn check_len(what: &str, s: &str) -> io::Result<()> {
    if s.len() > MAX_STR {
        return Err(bad(format!(
            "{what} of {} bytes exceeds {MAX_STR}",
            s.len()
        )));
    }
    Ok(())
}

/// Read a UTF-8 blob written with [`Writer::bytes`], bounded by the frame.
fn blob<R: Read>(r: &mut Reader<R>) -> io::Result<String> {
    String::from_utf8(r.bytes(MAX_FRAME as usize)?).map_err(|_| bad("text blob is not UTF-8"))
}

// ---------------------------------------------------------------- messages

/// Which GPU model a job runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GpuPreset {
    /// [`crisp_sim::GpuConfig::test_tiny`] — 2 SMs, small caches; the
    /// quick-turnaround tier.
    TestTiny,
    /// [`crisp_sim::GpuConfig::jetson_orin`] — the paper's embedded
    /// target.
    JetsonOrin,
}

impl GpuPreset {
    /// The parse of [`label`](Self::label).
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "test-tiny" => Some(GpuPreset::TestTiny),
            "jetson-orin" => Some(GpuPreset::JetsonOrin),
            _ => None,
        }
    }

    /// Stable CLI/display name.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            GpuPreset::TestTiny => "test-tiny",
            GpuPreset::JetsonOrin => "jetson-orin",
        }
    }
}

/// What a job simulates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Payload {
    /// A CRSP trace container, verbatim. The daemon streams it — the
    /// worker demand-pages CTAs out of these bytes.
    Trace(Vec<u8>),
    /// A named built-in workload the daemon generates server-side:
    /// `vio`, `holo`, `nn`, `timewarp`, `upscaler` (compute) or `render`
    /// (one graphics frame). `factor_milli` scales the grid/detail in
    /// thousandths (1000 = the generator's default).
    Scene {
        /// Workload kind.
        kind: String,
        /// Scale factor × 1000.
        factor_milli: u32,
    },
}

/// One job submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Tenant the job is accounted against (quota key).
    pub tenant: String,
    /// Human-readable job name (shows up in status listings).
    pub name: String,
    /// Scheduling priority: higher runs first and may preempt lower.
    pub priority: u8,
    /// The workload.
    pub payload: Payload,
    /// GPU model.
    pub gpu: GpuPreset,
    /// Cycle budget override (0 = the preset's default).
    pub max_cycles: u64,
    /// Record span/counter telemetry and return the counter CSV with the
    /// result (costs memory on long jobs).
    pub telemetry: bool,
    /// Wall-clock deadline in milliseconds (0 = the tenant's configured
    /// default, which may itself be "no deadline"). A job past its
    /// deadline is parked to a checkpoint and failed with a permanent
    /// `deadline exceeded` error.
    pub deadline_ms: u64,
}

/// Job lifecycle states.
///
/// ```text
/// Queued ──▶ Running ──▶ Completed | Failed | Cancelled
///   ▲           │ ▲
///   └─ Parked ◀─┘ │  (preempted / emergency checkpoint; resumes later)
///      Retrying ──┘  (transient failure; backoff, then resumes from
///                     its last checkpoint)
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Admitted, waiting for a worker (or for its tenant's quota).
    Queued,
    /// Executing on a worker.
    Running,
    /// Preempted (or parked by graceful shutdown): its full architectural
    /// state is in a checkpoint, and it re-enters the queue from there.
    Parked,
    /// Finished; a result is available.
    Completed,
    /// Cancelled via the generation counter; a partial result line is
    /// available.
    Cancelled,
    /// Failed with a structured simulation error.
    Failed,
    /// Failed transiently; waiting out its backoff before re-running
    /// from its last checkpoint (or from scratch if none exists).
    Retrying,
}

impl JobState {
    /// Whether the job will never run again.
    #[must_use]
    pub fn terminal(self) -> bool {
        matches!(
            self,
            JobState::Completed | JobState::Cancelled | JobState::Failed
        )
    }

    /// Stable display name.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Parked => "parked",
            JobState::Completed => "completed",
            JobState::Cancelled => "cancelled",
            JobState::Failed => "failed",
            JobState::Retrying => "retrying",
        }
    }
}

impl fmt::Display for JobState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Why a failed job will or will not be retried — the wire form of
/// [`crisp_sim::FaultClass`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureClass {
    /// Environmental (I/O, worker death): retrying may succeed.
    Transient,
    /// Deterministic (bad trace, deadlock, budget, deadline): retrying
    /// reproduces the failure, so the job is failed outright and the
    /// tenant's circuit breaker counts it.
    Permanent,
}

impl FailureClass {
    /// Stable display name.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FailureClass::Transient => "transient",
            FailureClass::Permanent => "permanent",
        }
    }
}

impl fmt::Display for FailureClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A point-in-time view of one job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobStatus {
    /// Job id.
    pub job: u64,
    /// Owning tenant.
    pub tenant: String,
    /// Submitted name.
    pub name: String,
    /// Priority.
    pub priority: u8,
    /// Lifecycle state.
    pub state: JobState,
    /// Simulated cycles so far (final for terminal states).
    pub cycles: u64,
    /// How many times the job has been preempted.
    pub preemptions: u32,
    /// How many retry attempts the job has used.
    pub retries: u32,
}

/// The final product of a terminal job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// Job id.
    pub job: u64,
    /// Terminal state ([`JobState::terminal`] is true).
    pub state: JobState,
    /// Total simulated cycles.
    pub cycles: u64,
    /// Total retired instructions.
    pub instructions: u64,
    /// [`crisp_sim::SimResult::summary`] — deterministic, byte-comparable
    /// across preempted/resumed and uninterrupted runs.
    pub summary: String,
    /// The final metrics export ([`crisp_sim::SimResult::metrics_csv`]);
    /// byte-comparable like `summary`. Empty for failed jobs.
    pub metrics_csv: String,
    /// Rendered [`crisp_sim::SimError`] for failed/cancelled jobs.
    pub error: String,
    /// How many retry attempts the job used before reaching this state.
    pub retries: u32,
    /// Failure classification for failed jobs (`None` for completed and
    /// cancelled ones). `Transient` here means the retry budget ran out.
    pub failure: Option<FailureClass>,
}

/// Machine-readable error classes in [`Response::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The frame or payload violated the encoding.
    Malformed,
    /// The frame exceeded [`MAX_FRAME`]; the server closes the connection
    /// after this reply.
    Oversized,
    /// The job failed admission (pre-flight validation or lint).
    Rejected,
    /// No such job id.
    UnknownJob,
    /// The operation needs a live job, but it is already terminal
    /// (for example a second cancel).
    AlreadyTerminal,
    /// The operation needs a terminal job, but it is still live
    /// (for example fetching the result of a running job).
    NotTerminal,
    /// The daemon is shutting down and admits no new work.
    ShuttingDown,
    /// The tenant's queue allowance is exhausted.
    QuotaExceeded,
    /// Internal failure (bug or I/O on the server).
    Internal,
    /// The tenant's circuit breaker is open after consecutive permanent
    /// failures; submissions are shed until the cool-down elapses.
    BreakerOpen,
}

impl ErrorCode {
    /// Stable display name.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ErrorCode::Malformed => "malformed",
            ErrorCode::Oversized => "oversized",
            ErrorCode::Rejected => "rejected",
            ErrorCode::UnknownJob => "unknown-job",
            ErrorCode::AlreadyTerminal => "already-terminal",
            ErrorCode::NotTerminal => "not-terminal",
            ErrorCode::ShuttingDown => "shutting-down",
            ErrorCode::QuotaExceeded => "quota-exceeded",
            ErrorCode::Internal => "internal",
            ErrorCode::BreakerOpen => "breaker-open",
        }
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

// --------------------------------------------------------------- encodings

wire_tags! {
    GpuPreset { TestTiny = 0u8, JetsonOrin = 1u8 }
    JobState {
        Queued = 0u8, Running = 1u8, Parked = 2u8, Completed = 3u8,
        Cancelled = 4u8, Failed = 5u8, Retrying = 6u8
    }
    FailureClass { Transient = 1u8, Permanent = 2u8 }
    ErrorCode {
        Malformed = 1u8, Oversized = 2u8, Rejected = 3u8, UnknownJob = 4u8,
        AlreadyTerminal = 5u8, NotTerminal = 6u8, ShuttingDown = 7u8,
        QuotaExceeded = 8u8, Internal = 9u8, BreakerOpen = 10u8
    }
}

/// A tag byte, then the container blob or the scene kind and factor.
impl Wire for Payload {
    fn put<W: Write>(&self, w: &mut Writer<W>) -> io::Result<()> {
        match self {
            Payload::Trace(bytes) => {
                w.put(&0u8)?;
                w.bytes(bytes)
            }
            Payload::Scene { kind, factor_milli } => {
                w.put(&1u8)?;
                w.put(kind)?;
                w.put(factor_milli)
            }
        }
    }

    fn get<R: Read>(r: &mut Reader<R>) -> io::Result<Self> {
        match r.get::<u8>()? {
            0 => Ok(Payload::Trace(r.bytes(MAX_FRAME as usize)?)),
            1 => Ok(Payload::Scene {
                kind: r.get()?,
                factor_milli: r.get()?,
            }),
            t => Err(bad(format!("bad Payload tag {t}"))),
        }
    }
}

/// A spec needs a tenant, and its strings fit [`MAX_STR`].
fn check_spec(spec: &JobSpec) -> io::Result<()> {
    if spec.tenant.is_empty() {
        return Err(bad("empty tenant"));
    }
    check_len("tenant", &spec.tenant)?;
    check_len("job name", &spec.name)?;
    match &spec.payload {
        Payload::Scene { kind, .. } => check_len("scene kind", kind),
        Payload::Trace(_) => Ok(()),
    }
}

wire_struct!(JobSpec {
    tenant,
    name,
    priority,
    payload,
    gpu,
    max_cycles,
    telemetry,
    deadline_ms
} check = check_spec);

/// A status's strings fit [`MAX_STR`].
fn check_status(status: &JobStatus) -> io::Result<()> {
    check_len("tenant", &status.tenant)?;
    check_len("job name", &status.name)
}

wire_struct!(JobStatus {
    job,
    tenant,
    name,
    priority,
    state,
    cycles,
    preemptions,
    retries
} check = check_status);

/// The texts are blobs bounded by the frame, not by the 64 KiB string cap.
impl Wire for Outcome {
    fn put<W: Write>(&self, w: &mut Writer<W>) -> io::Result<()> {
        w.put(&self.job)?;
        w.put(&self.state)?;
        w.put(&self.cycles)?;
        w.put(&self.instructions)?;
        w.bytes(self.summary.as_bytes())?;
        w.bytes(self.metrics_csv.as_bytes())?;
        w.bytes(self.error.as_bytes())?;
        w.put(&self.retries)?;
        w.put(&self.failure)
    }

    fn get<R: Read>(r: &mut Reader<R>) -> io::Result<Self> {
        Ok(Outcome {
            job: r.get()?,
            state: r.get()?,
            cycles: r.get()?,
            instructions: r.get()?,
            summary: blob(r)?,
            metrics_csv: blob(r)?,
            error: blob(r)?,
            retries: r.get()?,
            failure: r.get()?,
        })
    }
}

const REQ_SUBMIT: u8 = 1;
const REQ_STATUS: u8 = 2;
const REQ_CANCEL: u8 = 3;
const REQ_RESULT: u8 = 4;
const REQ_WAIT: u8 = 5;
const REQ_METRICS: u8 = 6;
const REQ_JOBS: u8 = 7;
const REQ_SHUTDOWN: u8 = 8;

const RESP_SUBMITTED: u8 = 0x80;
const RESP_STATUS: u8 = 0x81;
const RESP_RESULT: u8 = 0x82;
const RESP_METRICS: u8 = 0x83;
const RESP_JOBS: u8 = 0x84;
const RESP_SHUTTING_DOWN: u8 = 0x85;
const RESP_ERROR: u8 = 0xFF;

/// Client → server messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Submit a job; answered with [`Response::Submitted`] or an
    /// admission [`Response::Error`].
    Submit(JobSpec),
    /// Fetch one job's [`JobStatus`].
    Status {
        /// Job id.
        job: u64,
    },
    /// Bump the job's generation counter (cancel / supersede). Answered
    /// with the post-cancel [`JobStatus`].
    Cancel {
        /// Job id.
        job: u64,
    },
    /// Fetch a terminal job's [`Outcome`].
    Result {
        /// Job id.
        job: u64,
    },
    /// Block until the job reaches a terminal state (or `timeout_ms`
    /// elapses); answered with the then-current [`JobStatus`].
    Wait {
        /// Job id.
        job: u64,
        /// Give up after this many milliseconds (0 = server default).
        timeout_ms: u64,
    },
    /// Fetch the service metrics snapshot as JSON.
    Metrics,
    /// List every job's [`JobStatus`].
    Jobs,
    /// Stop the daemon. With `drain`, running jobs are parked via
    /// emergency checkpoints and the whole queue is persisted for the
    /// next daemon; without it, running jobs are cancelled. The response
    /// is sent **after** the drain completes.
    Shutdown {
        /// Park-and-persist instead of cancel.
        drain: bool,
    },
}

impl Request {
    /// Encode into a `(type, payload)` frame body.
    #[must_use]
    pub fn encode(&self) -> (u8, Vec<u8>) {
        encode_body(|w| {
            Ok(match self {
                Request::Submit(spec) => {
                    w.put(spec)?;
                    REQ_SUBMIT
                }
                Request::Status { job } => {
                    w.put(job)?;
                    REQ_STATUS
                }
                Request::Cancel { job } => {
                    w.put(job)?;
                    REQ_CANCEL
                }
                Request::Result { job } => {
                    w.put(job)?;
                    REQ_RESULT
                }
                Request::Wait { job, timeout_ms } => {
                    w.put(job)?;
                    w.put(timeout_ms)?;
                    REQ_WAIT
                }
                Request::Metrics => REQ_METRICS,
                Request::Jobs => REQ_JOBS,
                Request::Shutdown { drain } => {
                    w.put(drain)?;
                    REQ_SHUTDOWN
                }
            })
        })
    }

    /// Decode a received `(type, payload)` frame body.
    ///
    /// # Errors
    ///
    /// [`ProtoError::Malformed`] for unknown types or bad payloads.
    pub fn decode(kind: u8, payload: &[u8]) -> Result<Self, ProtoError> {
        decode_body(payload, |r| {
            Ok(match kind {
                REQ_SUBMIT => Request::Submit(r.get()?),
                REQ_STATUS => Request::Status { job: r.get()? },
                REQ_CANCEL => Request::Cancel { job: r.get()? },
                REQ_RESULT => Request::Result { job: r.get()? },
                REQ_WAIT => Request::Wait {
                    job: r.get()?,
                    timeout_ms: r.get()?,
                },
                REQ_METRICS => Request::Metrics,
                REQ_JOBS => Request::Jobs,
                REQ_SHUTDOWN => Request::Shutdown { drain: r.get()? },
                t => return Err(bad(format!("unknown request type {t:#x}"))),
            })
        })
    }
}

/// Server → client messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// The job was admitted under this id.
    Submitted {
        /// Assigned job id.
        job: u64,
    },
    /// One job's status.
    Status(JobStatus),
    /// A terminal job's result.
    Result(Outcome),
    /// The service metrics snapshot, as a JSON document.
    Metrics {
        /// RFC 8259 JSON text.
        json: String,
    },
    /// Every job's status, ascending by id.
    Jobs(Vec<JobStatus>),
    /// Shutdown acknowledged; the drain (if requested) has completed.
    ShuttingDown,
    /// The request failed; the daemon is still up.
    Error {
        /// Machine-readable class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

impl Response {
    /// Encode into a `(type, payload)` frame body.
    #[must_use]
    pub fn encode(&self) -> (u8, Vec<u8>) {
        encode_body(|w| {
            Ok(match self {
                Response::Submitted { job } => {
                    w.put(job)?;
                    RESP_SUBMITTED
                }
                Response::Status(s) => {
                    w.put(s)?;
                    RESP_STATUS
                }
                Response::Result(o) => {
                    w.put(o)?;
                    RESP_RESULT
                }
                Response::Metrics { json } => {
                    w.bytes(json.as_bytes())?;
                    RESP_METRICS
                }
                Response::Jobs(list) => {
                    w.put(list)?;
                    RESP_JOBS
                }
                Response::ShuttingDown => RESP_SHUTTING_DOWN,
                Response::Error { code, message } => {
                    w.put(code)?;
                    w.put(message)?;
                    RESP_ERROR
                }
            })
        })
    }

    /// Decode a received `(type, payload)` frame body.
    ///
    /// # Errors
    ///
    /// [`ProtoError::Malformed`] for unknown types or bad payloads.
    pub fn decode(kind: u8, payload: &[u8]) -> Result<Self, ProtoError> {
        decode_body(payload, |r| {
            Ok(match kind {
                RESP_SUBMITTED => Response::Submitted { job: r.get()? },
                RESP_STATUS => Response::Status(r.get()?),
                RESP_RESULT => Response::Result(r.get()?),
                RESP_METRICS => Response::Metrics { json: blob(r)? },
                RESP_JOBS => {
                    let n: usize = r.get()?;
                    if n > MAX_JOBS {
                        return Err(bad(format!("job list of {n} entries")));
                    }
                    Response::Jobs((0..n).map(|_| r.get()).collect::<io::Result<_>>()?)
                }
                RESP_SHUTTING_DOWN => Response::ShuttingDown,
                RESP_ERROR => {
                    let code = r.get()?;
                    let message: String = r.get()?;
                    check_len("error message", &message)?;
                    Response::Error { code, message }
                }
                t => return Err(bad(format!("unknown response type {t:#x}"))),
            })
        })
    }
}

/// Serialize and send a request over `w`.
///
/// # Errors
///
/// Socket and size errors from [`write_frame`].
pub fn send_request<W: Write>(w: &mut W, req: &Request) -> Result<(), ProtoError> {
    let (kind, payload) = req.encode();
    write_frame(w, kind, &payload)
}

/// Serialize and send a response over `w`.
///
/// # Errors
///
/// Socket and size errors from [`write_frame`].
pub fn send_response<W: Write>(w: &mut W, resp: &Response) -> Result<(), ProtoError> {
    let (kind, payload) = resp.encode();
    write_frame(w, kind, &payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> JobSpec {
        JobSpec {
            tenant: "acme".into(),
            name: "nightly".into(),
            priority: 7,
            payload: Payload::Scene {
                kind: "vio".into(),
                factor_milli: 150,
            },
            gpu: GpuPreset::TestTiny,
            max_cycles: 123_456,
            telemetry: true,
            deadline_ms: 30_000,
        }
    }

    fn status() -> JobStatus {
        JobStatus {
            job: 3,
            tenant: "acme".into(),
            name: "nightly".into(),
            priority: 7,
            state: JobState::Parked,
            cycles: 42_000,
            preemptions: 2,
            retries: 1,
        }
    }

    fn requests() -> Vec<Request> {
        vec![
            Request::Submit(spec()),
            Request::Submit(JobSpec {
                payload: Payload::Trace(vec![1, 2, 3, 4]),
                gpu: GpuPreset::JetsonOrin,
                ..spec()
            }),
            Request::Status { job: 9 },
            Request::Cancel { job: 10 },
            Request::Result { job: 11 },
            Request::Wait {
                job: 12,
                timeout_ms: 500,
            },
            Request::Metrics,
            Request::Jobs,
            Request::Shutdown { drain: true },
        ]
    }

    fn responses() -> Vec<Response> {
        vec![
            Response::Submitted { job: 1 },
            Response::Status(status()),
            Response::Status(JobStatus {
                state: JobState::Retrying,
                ..status()
            }),
            Response::Result(Outcome {
                job: 3,
                state: JobState::Completed,
                cycles: 99,
                instructions: 1_000,
                summary: "99 cycles".into(),
                metrics_csv: "metric,value\n".into(),
                error: String::new(),
                retries: 2,
                failure: None,
            }),
            Response::Result(Outcome {
                job: 4,
                state: JobState::Failed,
                cycles: 7,
                instructions: 0,
                summary: String::new(),
                metrics_csv: String::new(),
                error: "invalid trace".into(),
                retries: 0,
                failure: Some(FailureClass::Permanent),
            }),
            Response::Metrics {
                json: "{\"version\":1}".into(),
            },
            Response::Jobs(vec![status()]),
            Response::ShuttingDown,
            Response::Error {
                code: ErrorCode::Rejected,
                message: "racy trace".into(),
            },
            Response::Error {
                code: ErrorCode::BreakerOpen,
                message: "tenant breaker open".into(),
            },
        ]
    }

    #[test]
    fn requests_round_trip() {
        for req in requests() {
            let (kind, payload) = req.encode();
            assert_eq!(Request::decode(kind, &payload).unwrap(), req);
        }
    }

    #[test]
    fn responses_round_trip() {
        for resp in responses() {
            let (kind, payload) = resp.encode();
            assert_eq!(Response::decode(kind, &payload).unwrap(), resp);
        }
    }

    #[test]
    fn frames_round_trip_over_a_pipe() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 0x42, b"hello").unwrap();
        let mut cur = std::io::Cursor::new(buf);
        let (kind, payload) = read_frame(&mut cur).unwrap();
        assert_eq!(kind, 0x42);
        assert_eq!(payload, b"hello");
    }

    #[test]
    fn a_frame_is_one_write() {
        /// Accepts every byte and counts the `write` calls.
        #[derive(Default)]
        struct Counting {
            writes: usize,
            bytes: Vec<u8>,
        }
        impl Write for Counting {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.writes += 1;
                self.bytes.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        for payload in [&b""[..], b"hello", &[7; 4096]] {
            let mut w = Counting::default();
            write_frame(&mut w, 0x42, payload).unwrap();
            assert_eq!(w.writes, 1, "{}-byte payload", payload.len());
            let (kind, got) = read_frame(&mut w.bytes.as_slice()).unwrap();
            assert_eq!((kind, got.as_slice()), (0x42, payload));
        }
        // An oversized payload is refused before anything is written.
        let mut w = Counting::default();
        let huge = vec![0u8; MAX_FRAME as usize];
        assert!(matches!(
            write_frame(&mut w, 0x42, &huge),
            Err(ProtoError::Oversized { len }) if len == MAX_FRAME + 1
        ));
        assert_eq!(w.writes, 0);
    }

    /// A payload written field by field, to forge what no encoder emits.
    fn body(f: impl FnOnce(&mut Writer<&mut Vec<u8>>) -> io::Result<()>) -> Vec<u8> {
        let mut buf = Vec::new();
        f(&mut Writer::new(&mut buf)).unwrap();
        buf
    }

    /// A `JobSpec` payload with the given payload tag and GPU tag bytes.
    fn spec_body(payload_tag: u8, gpu_tag: u8) -> Vec<u8> {
        body(|w| {
            w.put(&"acme".to_string())?;
            w.put(&"nightly".to_string())?;
            w.put(&7u8)?;
            w.put(&payload_tag)?;
            w.put(&"vio".to_string())?;
            w.put(&150u32)?;
            w.put(&gpu_tag)?;
            w.put(&0u64)?;
            w.put(&false)?;
            w.put(&0u64)
        })
    }

    fn malformed_request(kind: u8, payload: &[u8]) -> bool {
        matches!(
            Request::decode(kind, payload),
            Err(ProtoError::Malformed(_))
        )
    }

    fn malformed_response(kind: u8, payload: &[u8]) -> bool {
        matches!(
            Response::decode(kind, payload),
            Err(ProtoError::Malformed(_))
        )
    }

    #[test]
    fn malformed_input_is_an_error_never_a_panic() {
        // Zero-length frame.
        let mut cur = std::io::Cursor::new(vec![0, 0, 0, 0]);
        assert!(matches!(
            read_frame(&mut cur),
            Err(ProtoError::Malformed(_))
        ));
        // Oversized length prefix.
        let mut cur = std::io::Cursor::new((MAX_FRAME + 1).to_le_bytes().to_vec());
        assert!(matches!(
            read_frame(&mut cur),
            Err(ProtoError::Oversized { .. })
        ));
        // Truncated body.
        let mut raw = 10u32.to_le_bytes().to_vec();
        raw.push(REQ_STATUS);
        raw.extend_from_slice(&[1, 2]);
        let mut cur = std::io::Cursor::new(raw);
        assert!(matches!(read_frame(&mut cur), Err(ProtoError::Io(_))));
        // Unknown frame types.
        assert!(malformed_request(0x77, &[]));
        assert!(malformed_response(0x77, &[]));
        // Truncated spec.
        assert!(malformed_request(REQ_SUBMIT, &[1, 0, 0, 0]));
        // Bad bool byte.
        assert!(malformed_request(REQ_SHUTDOWN, &[7]));

        // Every string capped at 64 KiB: tenant, job name, scene kind (in
        // a submitted spec and in a listed status) and error message.
        let long = "x".repeat(MAX_STR + 1);
        let at_cap = "x".repeat(MAX_STR);
        let submit = |spec: JobSpec| Request::Submit(spec).encode();
        for spec in [
            JobSpec {
                tenant: long.clone(),
                ..spec()
            },
            JobSpec {
                name: long.clone(),
                ..spec()
            },
            JobSpec {
                payload: Payload::Scene {
                    kind: long.clone(),
                    factor_milli: 1,
                },
                ..spec()
            },
        ] {
            let (kind, payload) = submit(spec);
            assert!(malformed_request(kind, &payload));
        }
        let (kind, payload) = submit(JobSpec {
            tenant: at_cap.clone(),
            ..spec()
        });
        assert!(Request::decode(kind, &payload).is_ok(), "64 KiB is allowed");
        for resp in [
            Response::Status(JobStatus {
                tenant: long.clone(),
                ..status()
            }),
            Response::Jobs(vec![JobStatus {
                name: long.clone(),
                ..status()
            }]),
            Response::Error {
                code: ErrorCode::Internal,
                message: long.clone(),
            },
        ] {
            let (kind, payload) = resp.encode();
            assert!(malformed_response(kind, &payload));
        }
        let (kind, payload) = Response::Error {
            code: ErrorCode::Internal,
            message: at_cap,
        }
        .encode();
        assert!(
            Response::decode(kind, &payload).is_ok(),
            "64 KiB is allowed"
        );

        // A job list over 2^20 entries is refused before any entry is read.
        match Response::decode(RESP_JOBS, &body(|w| w.put(&(MAX_JOBS + 1)))) {
            Err(ProtoError::Malformed(m)) => assert!(m.contains("job list"), "{m}"),
            other => panic!("oversized job list decoded to {other:?}"),
        }

        // An empty tenant.
        let (kind, payload) = submit(JobSpec {
            tenant: String::new(),
            ..spec()
        });
        assert!(malformed_request(kind, &payload));

        // Unknown tags: Payload and GpuPreset (in a spec), JobState,
        // ErrorCode and FailureClass.
        assert!(Request::decode(REQ_SUBMIT, &spec_body(1, 1)).is_ok());
        assert!(malformed_request(REQ_SUBMIT, &spec_body(2, 0)));
        assert!(malformed_request(REQ_SUBMIT, &spec_body(1, 2)));
        let status_body = |state: u8| {
            body(|w| {
                w.put(&3u64)?;
                w.put(&"acme".to_string())?;
                w.put(&"nightly".to_string())?;
                w.put(&7u8)?;
                w.put(&state)?;
                w.put(&0u64)?;
                w.put(&0u32)?;
                w.put(&0u32)
            })
        };
        assert!(Response::decode(RESP_STATUS, &status_body(6)).is_ok());
        assert!(malformed_response(RESP_STATUS, &status_body(7)));
        for code in [0u8, 11] {
            let payload = body(|w| {
                w.put(&code)?;
                w.put(&"boom".to_string())
            });
            assert!(malformed_response(RESP_ERROR, &payload));
        }
        let (_, good) = responses()
            .into_iter()
            .find(|r| matches!(r, Response::Result(o) if o.failure.is_some()))
            .unwrap()
            .encode();
        assert_eq!(good[good.len() - 2..], [1, 2], "Some(Permanent)");
        for tag in [0u8, 3] {
            let mut bad_failure = good.clone();
            *bad_failure.last_mut().unwrap() = tag;
            assert!(malformed_response(RESP_RESULT, &bad_failure));
        }

        // Trailing bytes after every message kind.
        for req in requests() {
            let (kind, mut payload) = req.encode();
            payload.push(0);
            assert!(malformed_request(kind, &payload), "{req:?}");
        }
        for resp in responses() {
            let (kind, mut payload) = resp.encode();
            payload.push(0);
            assert!(malformed_response(kind, &payload), "{resp:?}");
        }
    }

    #[test]
    fn every_truncated_payload_is_malformed() {
        for req in requests() {
            let (kind, payload) = req.encode();
            for n in 0..payload.len() {
                assert!(malformed_request(kind, &payload[..n]), "{req:?} cut at {n}");
            }
        }
        for resp in responses() {
            let (kind, payload) = resp.encode();
            for n in 0..payload.len() {
                assert!(
                    malformed_response(kind, &payload[..n]),
                    "{resp:?} cut at {n}"
                );
            }
        }
    }
}
