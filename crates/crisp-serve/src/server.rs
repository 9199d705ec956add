//! The daemon: accept loop, admission, scheduler, worker pool.
//!
//! ## Architecture
//!
//! ```text
//!             TCP (length-prefixed frames, proto.rs)
//!                 │
//!   ┌─────────────▼──────────────┐     per-connection thread:
//!   │ accept loop → conn threads │     read frame → handle → reply
//!   └─────────────┬──────────────┘
//!                 │ Submit: validate + lint (admission), then enqueue
//!   ┌─────────────▼──────────────┐
//!   │  Mutex<Sched>: job table,  │◀─── Cancel: bump the job's
//!   │  priorities, quotas,       │     generation counter
//!   │  MetricRegistry            │
//!   └─────────────┬──────────────┘
//!                 │ work_cv
//!   ┌─────────────▼──────────────┐     each worker: claim the best
//!   │  fixed worker pool         │     runnable job, simulate in
//!   │  (std::thread)             │     slices, checkpoint on preempt
//!   └────────────────────────────┘
//! ```
//!
//! **Scheduling** is priority-then-FIFO over `Queued` and `Parked` jobs,
//! subject to each tenant's *running* quota. When every worker is busy and
//! a higher-priority job arrives, the lowest-priority running job is asked
//! to **park**: at its next slice boundary the worker writes a full
//! `crisp-ckpt` checkpoint into the spool and requeues the job, which
//! later resumes — possibly on a different worker — bit-identically.
//!
//! **Cancellation** is the lock-free generation-counter idiom: every job
//! owns an [`Interrupt`] handle whose generation was captured at
//! admission. Cancel bumps the counter; the simulator observes the
//! mismatch at the next interrupt-interval boundary and exits its cycle
//! loop cooperatively with [`SimError::Cancelled`]. No locks are shared
//! with the hot loop.
//!
//! **Graceful shutdown** (`Shutdown { drain: true }`) stops admission,
//! parks every running job via emergency checkpoints, persists the whole
//! queue to `spool/manifest.bin`, and only then acknowledges. A daemon
//! restarted over the same spool recovers the manifest and resumes the
//! parked jobs from their checkpoints.
//!
//! **Supervision** (see DESIGN.md §2.4.9) sits above all of that: every
//! job runs under `catch_unwind` (a panicking worker fails the job and
//! respawns itself, so the pool never shrinks), wall-clock deadlines
//! park-and-fail runaway jobs, transient failures retry from the job's
//! last checkpoint with exponential backoff, consecutive permanent
//! failures trip a per-tenant circuit breaker at admission, and every
//! spool write goes through an injectable [`SpoolIo`](crate::SpoolIo) with `ENOSPC`
//! degrading the daemon to in-memory-only operation instead of killing
//! jobs.

use crate::metrics::{metrics_json, tenant_labels};
use crate::proto::{
    read_frame, send_response, ErrorCode, FailureClass, GpuPreset, JobSpec, JobState, JobStatus,
    Outcome, Payload, ProtoError, Request, Response,
};
use crate::spool::{self, is_disk_full, SpoolHandle};
use crate::supervise::{BreakerPolicy, BreakerTable, FaultPlan, RetryPolicy};
use crisp_ckpt::{wire_struct, Reader, Writer};
use crisp_obs::{Labels, MetricRegistry};
use crisp_scenes::{compute, ComputeScale, Scene, SceneId};
use crisp_sim::{
    FaultClass, GpuConfig, Interrupt, LintLevel, SimError, Simulation, Telemetry, TraceInput,
};
use crisp_trace::{codec, StreamId, TraceBundle};
use std::collections::BTreeMap;
use std::io::{self, Cursor};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address (`"127.0.0.1:0"` picks an ephemeral port).
    pub addr: String,
    /// Worker-pool size (simulations running concurrently).
    pub workers: usize,
    /// Per-tenant cap on *concurrently running* jobs, for tenants absent
    /// from [`quotas`](Self::quotas). 0 means "no cap beyond the pool".
    pub default_quota: usize,
    /// Per-tenant running-job caps overriding the default.
    pub quotas: BTreeMap<String, usize>,
    /// Cap on one tenant's total live (queued + parked + running) jobs;
    /// submissions beyond it are refused with `QuotaExceeded`.
    pub max_live_per_tenant: usize,
    /// Directory for checkpoints and the shutdown manifest.
    pub spool: PathBuf,
    /// Simulation slice length in cycles: the preemption/park latency
    /// granularity. (Cancellation reacts faster — at the simulator's own
    /// interrupt interval inside a slice.)
    pub slice_cycles: u64,
    /// Admission lint level ([`LintLevel::Off`] skips the analyzer).
    pub lint: LintLevel,
    /// Retry budget per job for *transient* failures (worker death,
    /// checkpoint I/O). 0 disables retries.
    pub max_retries: u32,
    /// Backoff before the first retry; doubles per attempt.
    pub retry_backoff_ms: u64,
    /// Default wall-clock deadline in milliseconds for tenants absent
    /// from [`deadlines`](Self::deadlines). 0 means no deadline.
    pub default_deadline_ms: u64,
    /// Per-tenant wall-clock deadline overrides (milliseconds; 0 = no
    /// deadline for that tenant). A job's own `deadline_ms` wins.
    pub deadlines: BTreeMap<String, u64>,
    /// Consecutive *permanent* failures that trip a tenant's circuit
    /// breaker (0 disables the breaker).
    pub breaker_threshold: u32,
    /// How long a tripped breaker sheds that tenant's submissions.
    pub breaker_cooldown_ms: u64,
    /// Write a retry checkpoint every this many slices while running
    /// (0 = checkpoints only on park). Small values make
    /// retry-from-last-checkpoint fine-grained at the cost of I/O.
    pub checkpoint_every_slices: u64,
    /// While the spool is ENOSPC-degraded, probe it at most every this
    /// many milliseconds; a successful probe write un-degrades the daemon
    /// and checkpointing resumes.
    pub spool_probe_ms: u64,
    /// The spool I/O implementation. Defaults to the real filesystem;
    /// tests inject [`crate::spool::FaultSpool`] here.
    pub spool_io: SpoolHandle,
    /// Fault-injection plan (worker kills). Empty by default; the
    /// worker-kill and chaos-mix tests in `tests/serve.rs` arm it.
    pub faults: FaultPlan,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            default_quota: 0,
            quotas: BTreeMap::new(),
            max_live_per_tenant: 64,
            spool: std::env::temp_dir().join("crisp-serve-spool"),
            slice_cycles: 5_000,
            lint: LintLevel::Errors,
            max_retries: 2,
            retry_backoff_ms: 200,
            default_deadline_ms: 0,
            deadlines: BTreeMap::new(),
            breaker_threshold: 3,
            breaker_cooldown_ms: 5_000,
            checkpoint_every_slices: 0,
            spool_probe_ms: 1_000,
            spool_io: SpoolHandle::disk(),
            faults: FaultPlan::new(),
        }
    }
}

/// One job in the scheduler table.
struct Job {
    spec: JobSpec,
    /// The trace container bytes the job simulates (scene payloads are
    /// generated server-side at admission, so this is always concrete).
    bytes: Arc<Vec<u8>>,
    state: JobState,
    /// Cancellation handle; `gen0` is the generation captured at
    /// admission — any later bump is an observed cancellation.
    interrupt: Interrupt,
    gen0: u64,
    /// Preemption request: the worker polls this at slice boundaries.
    park: Arc<AtomicBool>,
    /// FIFO tiebreak within a priority level.
    seq: u64,
    cycles: u64,
    preemptions: u32,
    /// Retry attempts used so far.
    retries: u32,
    /// For `Retrying` jobs: the end of the current backoff window.
    not_before: Option<Instant>,
    /// Wall-clock deadline (from submission), if the job has one.
    deadline_at: Option<Instant>,
    checkpoint: Option<PathBuf>,
    outcome: Option<Outcome>,
    submitted_at: Instant,
    parked_at: Option<Instant>,
}

impl Job {
    fn status(&self, id: u64) -> JobStatus {
        JobStatus {
            job: id,
            tenant: self.spec.tenant.clone(),
            name: self.spec.name.clone(),
            priority: self.spec.priority,
            state: self.state,
            cycles: self.cycles,
            preemptions: self.preemptions,
            retries: self.retries,
        }
    }
}

/// Mutex-guarded scheduler state.
struct Sched {
    jobs: BTreeMap<u64, Job>,
    next_id: u64,
    next_seq: u64,
    /// Workers currently simulating.
    busy: usize,
    /// Per-tenant high-water of concurrently running jobs.
    high_water: BTreeMap<String, usize>,
    /// Per-tenant circuit breakers (consecutive permanent failures).
    breakers: BreakerTable,
    metrics: MetricRegistry,
}

impl Sched {
    /// Whether a job is waiting for a worker (now or after a backoff).
    fn schedulable(job: &Job) -> bool {
        match job.state {
            JobState::Queued | JobState::Parked => true,
            JobState::Retrying => job.not_before.is_none_or(|t| Instant::now() >= t),
            _ => false,
        }
    }

    fn running_for(&self, tenant: &str) -> usize {
        self.jobs
            .values()
            .filter(|j| j.state == JobState::Running && j.spec.tenant == tenant)
            .count()
    }

    fn live_for(&self, tenant: &str) -> usize {
        self.jobs
            .values()
            .filter(|j| !j.state.terminal() && j.spec.tenant == tenant)
            .count()
    }

    fn refresh_gauges(&mut self) {
        let depth = self
            .jobs
            .values()
            .filter(|j| {
                matches!(
                    j.state,
                    JobState::Queued | JobState::Parked | JobState::Retrying
                )
            })
            .count();
        self.metrics
            .gauge_set("serve/queue_depth", Labels::new(), depth as f64);
        self.metrics
            .gauge_set("serve/workers_busy", Labels::new(), self.busy as f64);
    }

    /// The id of the best runnable job: highest priority, then oldest,
    /// among `Queued`/`Parked` jobs (and `Retrying` jobs whose backoff
    /// elapsed) whose tenant is under its running quota.
    fn pick_next(&self, cfg: &ServeConfig) -> Option<u64> {
        let mut best: Option<(u8, u64, u64)> = None; // (priority, seq, id)
        for (&id, job) in &self.jobs {
            if !Sched::schedulable(job) {
                continue;
            }
            let quota = cfg.quota_for(&job.spec.tenant);
            if quota > 0 && self.running_for(&job.spec.tenant) >= quota {
                continue;
            }
            let cand = (job.spec.priority, job.seq, id);
            best = match best {
                None => Some(cand),
                // Higher priority wins; within a priority, lower seq.
                Some(b) if (cand.0, std::cmp::Reverse(cand.1)) > (b.0, std::cmp::Reverse(b.1)) => {
                    Some(cand)
                }
                b => b,
            };
        }
        best.map(|(_, _, id)| id)
    }

    /// The lowest-priority running job strictly below `priority` that has
    /// not already been asked to park — the preemption victim.
    fn pick_victim(&self, priority: u8) -> Option<u64> {
        self.jobs
            .iter()
            .filter(|(_, j)| {
                j.state == JobState::Running
                    && j.spec.priority < priority
                    && !j.park.load(Ordering::Relaxed)
            })
            .min_by_key(|(_, j)| (j.spec.priority, j.seq))
            .map(|(&id, _)| id)
    }
}

impl ServeConfig {
    fn quota_for(&self, tenant: &str) -> usize {
        self.quotas
            .get(tenant)
            .copied()
            .unwrap_or(self.default_quota)
    }

    fn retry_policy(&self) -> RetryPolicy {
        RetryPolicy {
            max_retries: self.max_retries,
            base_backoff: Duration::from_millis(self.retry_backoff_ms.max(1)),
        }
    }

    fn breaker_policy(&self) -> BreakerPolicy {
        BreakerPolicy {
            threshold: self.breaker_threshold,
            cooldown: Duration::from_millis(self.breaker_cooldown_ms),
        }
    }

    /// Effective deadline for a submission: the job's own `deadline_ms`,
    /// else the tenant's configured one, else the global default; 0 at
    /// every level means "no deadline".
    fn deadline_for(&self, spec: &JobSpec) -> Option<Duration> {
        let ms = if spec.deadline_ms > 0 {
            spec.deadline_ms
        } else {
            self.deadlines
                .get(&spec.tenant)
                .copied()
                .unwrap_or(self.default_deadline_ms)
        };
        (ms > 0).then(|| Duration::from_millis(ms))
    }
}

struct Inner {
    cfg: ServeConfig,
    state: Mutex<Sched>,
    /// Signals workers that runnable work may exist.
    work_cv: Condvar,
    /// Signals `Wait`ers and the shutdown drain that a job changed state.
    done_cv: Condvar,
    /// False once a shutdown request arrived: no new admissions.
    admitting: AtomicBool,
    /// True once workers should exit instead of claiming more work.
    stop: AtomicBool,
    /// Disk-full flag: once `ENOSPC` is observed the daemon stops writing
    /// checkpoints and declines park requests (jobs run to completion in
    /// memory) instead of failing them. Not sticky forever: a cooldown-
    /// gated probe write ([`Inner::spool_available`]) un-degrades the
    /// daemon when the disk recovers.
    spool_degraded: AtomicBool,
    /// Earliest time the next spool recovery probe may run. Guards the
    /// probe slot so concurrent workers don't all hit the disk at once.
    spool_probe_at: Mutex<Option<Instant>>,
    /// Live worker threads. Panicked workers respawn themselves and push
    /// the replacement's handle here; `ServerHandle::join` drains it.
    worker_handles: Mutex<Vec<JoinHandle<()>>>,
}

impl Inner {
    fn degrade_spool(&self, s: &mut Sched) {
        if !self.spool_degraded.swap(true, Ordering::SeqCst) {
            eprintln!("crisp-serve: spool is full (ENOSPC); degrading to in-memory-only operation");
        }
        *self.spool_probe_at.lock().unwrap() =
            Some(Instant::now() + Duration::from_millis(self.cfg.spool_probe_ms.max(1)));
        s.metrics
            .gauge_set("serve/spool_degraded", Labels::new(), 1.0);
    }

    /// Whether the spool is usable right now. Fast path: not degraded.
    /// Degraded path: once per cooldown window, one caller probes the
    /// spool with a throwaway atomic write; success clears the
    /// degradation (gauge back to 0, `serve/spool_recoveries` bumped) and
    /// checkpointing resumes, failure re-arms the cooldown.
    ///
    /// Callers must NOT hold the scheduler lock: a successful probe takes
    /// it to update the metrics.
    fn spool_available(&self) -> bool {
        if !self.spool_degraded.load(Ordering::Acquire) {
            return true;
        }
        {
            let mut next = self.spool_probe_at.lock().unwrap();
            if next.is_some_and(|t| Instant::now() < t) {
                return false;
            }
            // Claim the probe slot before releasing the lock; whether the
            // probe succeeds or fails, the next one waits a full window.
            *next = Some(Instant::now() + Duration::from_millis(self.cfg.spool_probe_ms.max(1)));
        }
        let probe = self.cfg.spool.join(".spool-probe");
        match self
            .cfg
            .spool_io
            .write_atomic(&probe, b"crisp-serve spool probe")
        {
            Ok(()) => {
                let _ = self.cfg.spool_io.remove(&probe);
                self.spool_degraded.store(false, Ordering::SeqCst);
                eprintln!("crisp-serve: spool probe succeeded; resuming checkpoint writes");
                let mut s = self.state.lock().unwrap();
                s.metrics
                    .gauge_set("serve/spool_degraded", Labels::new(), 0.0);
                s.metrics
                    .counter_add("serve/spool_recoveries", Labels::new(), 1);
                true
            }
            Err(_) => false,
        }
    }

    /// Count a non-ENOSPC spool failure (satellite: spool errors are
    /// never silent).
    fn count_spool_error(&self, s: &mut Sched) {
        s.metrics
            .counter_add("serve/spool_errors", Labels::new(), 1);
    }
}

/// A running daemon. Dropping the handle does **not** stop the server;
/// send a [`Request::Shutdown`] (or call [`ServerHandle::shutdown`]) and
/// then [`join`](ServerHandle::join).
pub struct ServerHandle {
    addr: SocketAddr,
    inner: Arc<Inner>,
    accept: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound listen address (resolves port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Programmatic shutdown: equivalent to a client sending
    /// [`Request::Shutdown`]. Blocks until the drain (or cancellation
    /// sweep) completes.
    pub fn shutdown(&self, drain: bool) {
        do_shutdown(&self.inner, drain);
        stop_accept(&self.inner, self.addr);
    }

    /// Wait for the accept loop and every worker to exit. Returns only
    /// after a shutdown was requested. Respawned workers are joined too:
    /// the handle list is drained until it stays empty.
    pub fn join(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        loop {
            let handle = self.inner.worker_handles.lock().unwrap().pop();
            match handle {
                Some(h) => {
                    let _ = h.join();
                }
                None => break,
            }
        }
    }
}

/// The daemon entry point.
pub struct Server;

impl Server {
    /// Bind, recover any shutdown manifest in the spool, and spawn the
    /// accept loop plus the worker pool.
    ///
    /// # Errors
    ///
    /// Propagates bind and spool-directory I/O errors.
    pub fn start(cfg: ServeConfig) -> io::Result<ServerHandle> {
        std::fs::create_dir_all(&cfg.spool)?;
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;

        let mut sched = Sched {
            jobs: BTreeMap::new(),
            next_id: 1,
            next_seq: 0,
            busy: 0,
            high_water: BTreeMap::new(),
            breakers: BreakerTable::default(),
            metrics: MetricRegistry::new(),
        };
        sched
            .metrics
            .gauge_set("serve/workers", Labels::new(), cfg.workers.max(1) as f64);
        // Pre-register the supervision metrics at zero so every export
        // carries them — the CI `serve-smoke` schema check and
        // `tests/serve.rs` rely on presence.
        for name in [
            "serve/job_retries",
            "serve/deadline_exceeded",
            "serve/breaker_trips",
            "serve/worker_respawns",
            "serve/spool_errors",
            "serve/spool_recoveries",
        ] {
            sched.metrics.counter_add(name, Labels::new(), 0);
        }
        sched
            .metrics
            .gauge_set("serve/spool_degraded", Labels::new(), 0.0);
        sched
            .metrics
            .gauge_set("serve/admission_interference", Labels::new(), 0.0);
        recover_manifest(&cfg, &mut sched);
        sched.refresh_gauges();

        let inner = Arc::new(Inner {
            cfg,
            state: Mutex::new(sched),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            admitting: AtomicBool::new(true),
            stop: AtomicBool::new(false),
            spool_degraded: AtomicBool::new(false),
            spool_probe_at: Mutex::new(None),
            worker_handles: Mutex::new(Vec::new()),
        });

        {
            let mut handles = inner.worker_handles.lock().unwrap();
            for i in 0..inner.cfg.workers.max(1) {
                let inner = Arc::clone(&inner);
                handles.push(
                    thread::Builder::new()
                        .name(format!("crisp-serve-worker-{i}"))
                        .spawn(move || worker_loop(&inner))
                        .expect("spawn worker"),
                );
            }
        }

        let accept = {
            let inner = Arc::clone(&inner);
            thread::Builder::new()
                .name("crisp-serve-accept".into())
                .spawn(move || accept_loop(&listener, &inner, addr))
                .expect("spawn accept loop")
        };

        Ok(ServerHandle {
            addr,
            inner,
            accept: Some(accept),
        })
    }
}

// ------------------------------------------------------------- accept side

fn accept_loop(listener: &TcpListener, inner: &Arc<Inner>, addr: SocketAddr) {
    for conn in listener.incoming() {
        if inner.stop.load(Ordering::Acquire) && !inner.admitting.load(Ordering::Acquire) {
            break;
        }
        match conn {
            Ok(stream) => {
                let inner = Arc::clone(inner);
                let _ = thread::Builder::new()
                    .name("crisp-serve-conn".into())
                    .spawn(move || connection_loop(stream, &inner, addr));
            }
            Err(_) => break,
        }
    }
}

/// Unblock the accept loop's `incoming()` by self-connecting once.
fn stop_accept(inner: &Inner, addr: SocketAddr) {
    inner.stop.store(true, Ordering::Release);
    inner.admitting.store(false, Ordering::Release);
    let _ = TcpStream::connect(addr);
}

fn connection_loop(mut stream: TcpStream, inner: &Arc<Inner>, addr: SocketAddr) {
    // A reply goes out as several small writes (length, kind, payload).
    // With Nagle's algorithm on, each write after the first waits for the
    // client's delayed ACK, about 40 ms per reply on Linux.
    let _ = stream.set_nodelay(true);
    loop {
        let (kind, payload) = match read_frame(&mut stream) {
            Ok(f) => f,
            Err(ProtoError::Io(_)) => return, // disconnect (possibly mid-frame)
            Err(ProtoError::Oversized { len }) => {
                // The unread body can't be skipped reliably; reply and close.
                count_proto_error(inner);
                let _ = send_response(
                    &mut stream,
                    &Response::Error {
                        code: ErrorCode::Oversized,
                        message: format!("frame of {len} bytes exceeds the limit"),
                    },
                );
                return;
            }
            Err(ProtoError::Malformed(m)) => {
                count_proto_error(inner);
                let _ = send_response(
                    &mut stream,
                    &Response::Error {
                        code: ErrorCode::Malformed,
                        message: m,
                    },
                );
                return; // framing is lost; close rather than guess
            }
        };
        let req = match Request::decode(kind, &payload) {
            Ok(r) => r,
            Err(e) => {
                // The frame boundary was intact, so the connection can
                // continue after reporting the bad payload.
                count_proto_error(inner);
                let _ = send_response(
                    &mut stream,
                    &Response::Error {
                        code: ErrorCode::Malformed,
                        message: e.to_string(),
                    },
                );
                continue;
            }
        };
        let is_shutdown = matches!(req, Request::Shutdown { .. });
        let resp = handle_request(inner, req);
        if send_response(&mut stream, &resp).is_err() {
            return;
        }
        if is_shutdown && matches!(resp, Response::ShuttingDown) {
            stop_accept(inner, addr);
            return;
        }
    }
}

fn count_proto_error(inner: &Inner) {
    let mut s = inner.state.lock().unwrap();
    s.metrics
        .counter_add("serve/proto_errors", Labels::new(), 1);
}

fn handle_request(inner: &Arc<Inner>, req: Request) -> Response {
    match req {
        Request::Submit(spec) => submit(inner, spec),
        Request::Status { job } => with_job(inner, job, |_s, id, j| Response::Status(j.status(id))),
        Request::Jobs => {
            let s = inner.state.lock().unwrap();
            Response::Jobs(s.jobs.iter().map(|(&id, j)| j.status(id)).collect())
        }
        Request::Cancel { job } => cancel(inner, job),
        Request::Result { job } => with_job(inner, job, |_s, _id, j| match &j.outcome {
            Some(o) => Response::Result(o.clone()),
            None => Response::Error {
                code: ErrorCode::NotTerminal,
                message: format!("job is {}; wait for a terminal state", j.state),
            },
        }),
        Request::Wait { job, timeout_ms } => wait(inner, job, timeout_ms),
        Request::Metrics => {
            let s = inner.state.lock().unwrap();
            Response::Metrics {
                json: metrics_json(&s.metrics.snapshot_now()),
            }
        }
        Request::Shutdown { drain } => {
            do_shutdown(inner, drain);
            Response::ShuttingDown
        }
    }
}

fn with_job(inner: &Inner, id: u64, f: impl FnOnce(&Sched, u64, &Job) -> Response) -> Response {
    let s = inner.state.lock().unwrap();
    match s.jobs.get(&id) {
        Some(j) => f(&s, id, j),
        None => Response::Error {
            code: ErrorCode::UnknownJob,
            message: format!("no job {id}"),
        },
    }
}

// --------------------------------------------------------------- admission

fn submit(inner: &Arc<Inner>, spec: JobSpec) -> Response {
    if !inner.admitting.load(Ordering::Acquire) {
        return Response::Error {
            code: ErrorCode::ShuttingDown,
            message: "daemon is shutting down; no new jobs".into(),
        };
    }
    let t0 = Instant::now();
    {
        let mut s = inner.state.lock().unwrap();
        s.metrics
            .counter_add("serve/submitted", tenant_labels(&spec.tenant), 1);
        // Circuit breaker: a tenant with too many consecutive permanent
        // failures is shed here, before any expensive validation.
        let breaker_policy = inner.cfg.breaker_policy();
        if !s.breakers.entry(&spec.tenant).admits(&breaker_policy) {
            s.metrics.counter_add(
                "serve/rejected",
                tenant_labels(&spec.tenant).with("reason", "breaker"),
                1,
            );
            return Response::Error {
                code: ErrorCode::BreakerOpen,
                message: format!(
                    "tenant {} breaker is open after {} consecutive permanent failures; retry after the {}ms cool-down",
                    spec.tenant, inner.cfg.breaker_threshold, inner.cfg.breaker_cooldown_ms
                ),
            };
        }
        if s.live_for(&spec.tenant) >= inner.cfg.max_live_per_tenant {
            s.metrics.counter_add(
                "serve/rejected",
                tenant_labels(&spec.tenant).with("reason", "quota"),
                1,
            );
            return Response::Error {
                code: ErrorCode::QuotaExceeded,
                message: format!(
                    "tenant {} already has {} live jobs (cap {})",
                    spec.tenant, inner.cfg.max_live_per_tenant, inner.cfg.max_live_per_tenant
                ),
            };
        }
    }

    // Validation + lint run outside the scheduler lock: they page the
    // whole container and can take a while.
    let (bytes, interference) = match admission_check(&spec, inner.cfg.lint) {
        Ok(out) => out,
        Err(message) => {
            let mut s = inner.state.lock().unwrap();
            s.metrics.counter_add(
                "serve/rejected",
                tenant_labels(&spec.tenant).with("reason", "admission"),
                1,
            );
            return Response::Error {
                code: ErrorCode::Rejected,
                message,
            };
        }
    };
    let admission_us = t0.elapsed().as_micros() as u64;

    let mut s = inner.state.lock().unwrap();
    if !inner.admitting.load(Ordering::Acquire) {
        return Response::Error {
            code: ErrorCode::ShuttingDown,
            message: "daemon is shutting down; no new jobs".into(),
        };
    }
    let id = s.next_id;
    s.next_id += 1;
    let seq = s.next_seq;
    s.next_seq += 1;
    let interrupt = Interrupt::new();
    let gen0 = interrupt.generation();
    let tenant = spec.tenant.clone();
    let priority = spec.priority;
    let deadline_at = inner.cfg.deadline_for(&spec).map(|d| t0 + d);
    s.jobs.insert(
        id,
        Job {
            spec,
            bytes: Arc::new(bytes),
            state: JobState::Queued,
            interrupt,
            gen0,
            park: Arc::new(AtomicBool::new(false)),
            seq,
            cycles: 0,
            preemptions: 0,
            retries: 0,
            not_before: None,
            deadline_at,
            checkpoint: None,
            outcome: None,
            submitted_at: t0,
            parked_at: None,
        },
    );
    s.metrics
        .counter_add("serve/admitted", tenant_labels(&tenant), 1);
    s.metrics
        .observe("serve/admission_us", Labels::new(), admission_us);
    if let Some(score) = interference {
        // The admission analyzer's cross-stream interference score for
        // the tenant's most recent admitted job: the worst concurrent
        // phase's combined L2 working set over the preset's capacity.
        s.metrics.gauge_set(
            "serve/admission_interference",
            tenant_labels(&tenant),
            score,
        );
    }

    // Preempt when the pool is saturated and someone weaker is running.
    if s.busy >= inner.cfg.workers.max(1) {
        if let Some(victim) = s.pick_victim(priority) {
            s.jobs[&victim].park.store(true, Ordering::Release);
        }
    }
    s.refresh_gauges();
    drop(s);
    inner.work_cv.notify_all();
    Response::Submitted { job: id }
}

/// Pre-flight a submission: materialize scene payloads, open the
/// container, validate, check that every kernel fits the preset's SM,
/// lint. Returns the concrete container bytes plus the analyzer's
/// cross-stream interference score (when linting ran).
///
/// The placement check is the one the simulation build runs, so a job
/// that is admitted never fails its build for want of SM resources.
///
/// The lint pass includes the CFG deadlock prover and the cross-stream
/// interference estimator scored against the job's GPU preset: a trace
/// the runtime watchdog would only catch after burning its whole cycle
/// budget is rejected here, at submit, with the culprit CTA named.
fn admission_check(spec: &JobSpec, lint: LintLevel) -> Result<(Vec<u8>, Option<f64>), String> {
    let bytes = match &spec.payload {
        Payload::Trace(b) => b.clone(),
        Payload::Scene { kind, factor_milli } => build_scene(kind, *factor_milli)?,
    };
    let mut src = TraceInput::reader(Cursor::new(bytes.clone()))
        .open()
        .map_err(|e| format!("unreadable trace container: {e}"))?;
    crisp_trace::validate_source(&mut src).map_err(|errors| {
        let mut msg = format!("trace failed validation ({} errors)", errors.len());
        if let Some(first) = errors.first() {
            msg.push_str(&format!("; first: {first}"));
        }
        msg
    })?;
    let gpu = preset_config(spec.gpu);
    if let Some(msg) = crisp_sim::unplaceable_kernel(&src, &gpu) {
        return Err(format!("trace cannot run on {}: {msg}", gpu.name));
    }
    let mut interference = None;
    if lint != LintLevel::Off {
        let cfg = crisp_sim::AnalysisConfig {
            interference: Some(crisp_analyze::InterferenceSpec::shared(gpu.l2_bytes)),
            ..Default::default()
        };
        let report = crisp_analyze::analyze_source(&mut src, &cfg)
            .map_err(|e| format!("analyzer failed to page the trace: {e}"))?;
        interference = report.interference;
        let mut failing = report.errors();
        let fails = match lint {
            LintLevel::Deny => report.diagnostics.first(),
            _ => failing.next(),
        };
        if let Some(d) = fails {
            return Err(format!("trace failed lint: {d}"));
        }
    }
    Ok((bytes, interference))
}

/// The GPU model a preset names.
fn preset_config(preset: GpuPreset) -> GpuConfig {
    match preset {
        GpuPreset::TestTiny => GpuConfig::test_tiny(),
        GpuPreset::JetsonOrin => GpuConfig::jetson_orin(),
    }
}

/// Generate a built-in workload server-side and encode it as a CRSP
/// container. `factor_milli` scales the grid/detail in thousandths.
fn build_scene(kind: &str, factor_milli: u32) -> Result<Vec<u8>, String> {
    let factor = (factor_milli.max(1) as f32) / 1000.0;
    let scale = ComputeScale { factor };
    let stream = StreamId(0);
    let s = match kind {
        "vio" => compute::vio(stream, scale),
        "holo" => compute::holo(stream, scale),
        "nn" => compute::nn(stream, scale),
        "timewarp" => compute::timewarp(stream, 64, 36, scale),
        "upscaler" => compute::upscaler(stream, scale),
        "render" => {
            // One Sponza frame at a detail level proportional to the factor.
            let detail = (0.2 * factor).clamp(0.01, 1.0);
            Scene::build(SceneId::SponzaKhronos, detail)
                .render(64, 36, false, stream)
                .trace
        }
        other => {
            return Err(format!(
                "unknown scene kind {other:?} (expected vio|holo|nn|timewarp|upscaler|render)"
            ))
        }
    };
    let bundle = TraceBundle::from_streams(vec![s]);
    let mut out = Vec::new();
    codec::write_bundle(&bundle, &mut out).map_err(|e| format!("encoding scene failed: {e}"))?;
    Ok(out)
}

// ------------------------------------------------------- cancel/wait paths

fn cancel(inner: &Arc<Inner>, id: u64) -> Response {
    let mut s = inner.state.lock().unwrap();
    let Some(job) = s.jobs.get(&id) else {
        return Response::Error {
            code: ErrorCode::UnknownJob,
            message: format!("no job {id}"),
        };
    };
    if job.state.terminal() {
        return Response::Error {
            code: ErrorCode::AlreadyTerminal,
            message: format!("job {id} is already {}", job.state),
        };
    }
    match job.state {
        JobState::Queued | JobState::Parked | JobState::Retrying => {
            // Not on a worker: cancel directly.
            let job = s.jobs.get_mut(&id).unwrap();
            let was = job.state;
            job.state = JobState::Cancelled;
            job.not_before = None;
            job.outcome = Some(Outcome {
                job: id,
                state: JobState::Cancelled,
                cycles: job.cycles,
                instructions: 0,
                summary: String::new(),
                metrics_csv: String::new(),
                error: format!(
                    "cancelled while {}",
                    match was {
                        JobState::Retrying => "retrying",
                        JobState::Parked => "parked",
                        _ =>
                            if job.cycles == 0 {
                                "queued"
                            } else {
                                "parked"
                            },
                    }
                ),
                retries: job.retries,
                failure: None,
            });
            let tenant = job.spec.tenant.clone();
            let latency = job.submitted_at.elapsed().as_micros() as u64;
            finish_metrics(&mut s, &tenant, "serve/cancelled", latency, 0);
            s.refresh_gauges();
            let status = s.jobs[&id].status(id);
            drop(s);
            inner.done_cv.notify_all();
            Response::Status(status)
        }
        JobState::Running => {
            // The worker observes the bumped generation at the next
            // interrupt-interval boundary and exits cooperatively.
            job.interrupt.bump();
            Response::Status(job.status(id))
        }
        _ => unreachable!("terminal states handled above"),
    }
}

fn wait(inner: &Arc<Inner>, id: u64, timeout_ms: u64) -> Response {
    let timeout = Duration::from_millis(if timeout_ms == 0 { 120_000 } else { timeout_ms });
    let deadline = Instant::now() + timeout;
    let mut s = inner.state.lock().unwrap();
    loop {
        match s.jobs.get(&id) {
            None => {
                return Response::Error {
                    code: ErrorCode::UnknownJob,
                    message: format!("no job {id}"),
                }
            }
            Some(j) if j.state.terminal() => return Response::Status(j.status(id)),
            Some(_) => {}
        }
        let now = Instant::now();
        if now >= deadline {
            // Not terminal yet: report the current state.
            return Response::Status(s.jobs[&id].status(id));
        }
        let (guard, _) = inner.done_cv.wait_timeout(s, deadline - now).unwrap();
        s = guard;
    }
}

// ------------------------------------------------------------ worker side

/// Record the standard terminal-transition metrics. Caller has already
/// set the job's state/outcome.
fn finish_metrics(s: &mut Sched, tenant: &str, counter: &str, latency_us: u64, cycles: u64) {
    s.metrics.counter_add(counter, tenant_labels(tenant), 1);
    if cycles > 0 {
        s.metrics
            .counter_add("serve/cycles", tenant_labels(tenant), cycles);
    }
    s.metrics
        .observe("serve/job_latency_us", tenant_labels(tenant), latency_us);
}

fn worker_loop(inner: &Arc<Inner>) {
    loop {
        // Claim the best runnable job, or exit once stopped. The wait is
        // bounded so retry backoffs expiring (which nobody signals) get
        // noticed promptly.
        let claimed = {
            let mut s = inner.state.lock().unwrap();
            loop {
                if inner.stop.load(Ordering::Acquire) {
                    return;
                }
                if let Some(id) = s.pick_next(&inner.cfg) {
                    break claim(&mut s, id);
                }
                let (guard, _) = inner
                    .work_cv
                    .wait_timeout(s, Duration::from_millis(50))
                    .unwrap();
                s = guard;
            }
        };
        // Contain panics: a panicking job (injected kill, or a simulator
        // bug the in-sim catch missed) becomes a supervised job failure,
        // and the worker replaces itself so the pool never shrinks.
        let outcome = catch_unwind(AssertUnwindSafe(|| run_job(inner, &claimed)));
        if let Err(panic) = outcome {
            handle_worker_panic(inner, &claimed, panic.as_ref());
            if !inner.stop.load(Ordering::Acquire) {
                respawn_worker(inner);
            }
            // This thread's state is suspect after a panic; die and let
            // the fresh replacement carry on.
            return;
        }
    }
}

/// A worker died mid-job: record the respawn, and fail-or-retry the job
/// it was running (worker death is a transient fault — the checkpoint it
/// retries from is intact).
fn handle_worker_panic(inner: &Arc<Inner>, c: &Claimed, panic: &(dyn std::any::Any + Send)) {
    let msg = panic
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "unknown panic".into());
    let still_running = {
        let mut s = inner.state.lock().unwrap();
        s.metrics
            .counter_add("serve/worker_respawns", Labels::new(), 1);
        s.jobs
            .get(&c.id)
            .map(|j| j.state == JobState::Running)
            .unwrap_or(false)
    };
    // If run_job already finished/parked the job the panic happened on
    // the way out; nothing further to supervise.
    if still_running {
        let cycles = {
            let s = inner.state.lock().unwrap();
            s.jobs.get(&c.id).map(|j| j.cycles).unwrap_or(0)
        };
        fail_or_retry(
            inner,
            c,
            cycles,
            format!("worker panicked: {msg}"),
            FaultClass::Transient,
        );
    }
}

fn respawn_worker(inner: &Arc<Inner>) {
    let clone = Arc::clone(inner);
    if let Ok(h) = thread::Builder::new()
        .name("crisp-serve-worker-respawn".into())
        .spawn(move || worker_loop(&clone))
    {
        inner.worker_handles.lock().unwrap().push(h);
    }
}

/// Everything a worker needs outside the lock to simulate one job.
struct Claimed {
    id: u64,
    tenant: String,
    name: String,
    bytes: Arc<Vec<u8>>,
    spec_gpu: GpuPreset,
    spec_max_cycles: u64,
    spec_telemetry: bool,
    interrupt: Interrupt,
    gen0: u64,
    park: Arc<AtomicBool>,
    checkpoint: Option<PathBuf>,
    deadline_at: Option<Instant>,
    submitted_at: Instant,
}

fn claim(s: &mut Sched, id: u64) -> Claimed {
    let was_parked = {
        let job = s.jobs.get_mut(&id).unwrap();
        let was_parked = job.state == JobState::Parked;
        job.state = JobState::Running;
        job.not_before = None;
        job.park.store(false, Ordering::Release);
        was_parked
    };
    s.busy += 1;
    let tenant = s.jobs[&id].spec.tenant.clone();
    let running = s.running_for(&tenant);
    let high = s.high_water.entry(tenant.clone()).or_insert(0);
    if running > *high {
        *high = running;
    }
    let high = *high;
    s.metrics
        .gauge_set("serve/max_running", tenant_labels(&tenant), high as f64);
    if was_parked {
        s.metrics
            .counter_add("serve/resumes", tenant_labels(&tenant), 1);
        if let Some(parked_at) = s.jobs.get_mut(&id).unwrap().parked_at.take() {
            s.metrics.observe(
                "serve/preemption_rtt_us",
                Labels::new(),
                parked_at.elapsed().as_micros() as u64,
            );
        }
    }
    s.refresh_gauges();
    let job = &s.jobs[&id];
    Claimed {
        id,
        tenant,
        name: job.spec.name.clone(),
        bytes: Arc::clone(&job.bytes),
        spec_gpu: job.spec.gpu,
        spec_max_cycles: job.spec.max_cycles,
        spec_telemetry: job.spec.telemetry,
        interrupt: job.interrupt.clone(),
        gen0: job.gen0,
        park: Arc::clone(&job.park),
        checkpoint: job.checkpoint.clone(),
        deadline_at: job.deadline_at,
        submitted_at: job.submitted_at,
    }
}

/// How building a simulator for a claimed job failed.
enum BuildError {
    /// The checkpoint would not resume — transient (quarantine it and
    /// retry from scratch).
    Resume(String),
    /// A fresh build failed — permanent (the container got past
    /// admission but the simulator rejects it deterministically).
    Fresh(String),
}

/// Build (or resume) the simulator for a claimed job.
fn build_sim(c: &Claimed) -> Result<crisp_sim::GpuSim, BuildError> {
    let mut sim = match &c.checkpoint {
        Some(path) => Simulation::resume(path).map_err(|e| {
            BuildError::Resume(format!(
                "resuming checkpoint {} failed: {e}",
                path.display()
            ))
        })?,
        None => {
            let mut gpu = preset_config(c.spec_gpu);
            if c.spec_max_cycles > 0 {
                gpu.max_cycles = c.spec_max_cycles;
            }
            let telemetry = if c.spec_telemetry {
                Telemetry::OCCUPANCY | Telemetry::METRICS
            } else {
                Telemetry::NONE
            };
            Simulation::builder()
                .gpu(gpu)
                .telemetry(telemetry)
                // Admission already validated and linted the container.
                .preflight(false)
                .trace(TraceInput::reader(Cursor::new((*c.bytes).clone())))
                .try_build()
                .map_err(|e| BuildError::Fresh(format!("building the simulation failed: {e}")))?
        }
    };
    sim.set_interrupt(c.interrupt.clone(), c.gen0);
    Ok(sim)
}

fn run_job(inner: &Arc<Inner>, c: &Claimed) {
    // A job that sat in the queue past its wall-clock deadline fails
    // before burning a worker on it.
    if c.deadline_at.is_some_and(|t| Instant::now() >= t) {
        deadline_fail(inner, c, None);
        return;
    }
    let mut sim = match build_sim(c) {
        Ok(sim) => sim,
        Err(BuildError::Resume(message)) => {
            // The checkpoint is torn or stale: quarantine it, forget it,
            // and retry from scratch if the budget allows.
            {
                let mut s = inner.state.lock().unwrap();
                inner.count_spool_error(&mut s);
                if let Some(job) = s.jobs.get_mut(&c.id) {
                    if let Some(bad) = job.checkpoint.take() {
                        spool::quarantine(&*inner.cfg.spool_io, &bad);
                    }
                }
            }
            fail_or_retry(inner, c, 0, message, FaultClass::Transient);
            return;
        }
        Err(BuildError::Fresh(message)) => {
            fail_or_retry(inner, c, 0, message, FaultClass::Permanent);
            return;
        }
    };

    let slice = inner.cfg.slice_cycles.max(1);
    let mut slices: u64 = 0;
    loop {
        let target = sim.now() + slice;
        match sim.run_until(target) {
            Err(e) => {
                let cycles = e.cycle().unwrap_or_else(|| sim.now());
                if matches!(e, SimError::Cancelled { .. }) {
                    let (summary, metrics_csv, instructions) = partial_result(&e);
                    finish_job(
                        inner,
                        c,
                        JobState::Cancelled,
                        cycles,
                        Outcome {
                            job: c.id,
                            state: JobState::Cancelled,
                            cycles,
                            instructions,
                            summary,
                            metrics_csv,
                            error: e.to_string(),
                            retries: 0,
                            failure: None,
                        },
                    );
                    return;
                }
                let class = e.fault_class().unwrap_or(crisp_sim::FaultClass::Permanent);
                fail_or_retry(inner, c, cycles, e.to_string(), class);
                return;
            }
            Ok(true) => {
                // Finished: fetch the result (runs zero further cycles).
                match sim.run() {
                    Ok(result) => {
                        let cycles = result.cycles;
                        finish_job(
                            inner,
                            c,
                            JobState::Completed,
                            cycles,
                            Outcome {
                                job: c.id,
                                state: JobState::Completed,
                                cycles,
                                instructions: total_instructions(&result),
                                summary: result.summary(),
                                metrics_csv: result.metrics_csv(),
                                error: String::new(),
                                retries: 0,
                                failure: None,
                            },
                        );
                    }
                    Err(e) => {
                        let cycles = e.cycle().unwrap_or(0);
                        let class = e.fault_class().unwrap_or(crisp_sim::FaultClass::Permanent);
                        fail_or_retry(inner, c, cycles, e.to_string(), class);
                    }
                }
                return;
            }
            Ok(false) => {
                // Slice boundary: publish progress, honor deadlines,
                // injected faults, park requests, and the periodic
                // retry-checkpoint cadence. A drain shutdown (`stop`
                // without a bumped interrupt) parks too — that is the
                // emergency-checkpoint path.
                slices += 1;
                let cycles = sim.now();
                {
                    let mut s = inner.state.lock().unwrap();
                    if let Some(job) = s.jobs.get_mut(&c.id) {
                        job.cycles = cycles;
                    }
                }
                // Injected worker kill (tests only; a no-op by default).
                if inner.cfg.faults.should_kill(&c.name) {
                    panic!("injected worker kill (job {})", c.id);
                }
                if c.deadline_at.is_some_and(|t| Instant::now() >= t) {
                    deadline_fail(inner, c, Some(&mut sim));
                    return;
                }
                let parked = c.park.load(Ordering::Acquire) || inner.stop.load(Ordering::Acquire);
                // A pending cancel wins over a park request: skip the
                // checkpoint and let the interrupt surface as Cancelled.
                // On a full disk, parking is declined and the job simply
                // keeps running in memory.
                if parked && c.interrupt.generation() == c.gen0 {
                    if !inner.spool_available() {
                        c.park.store(false, Ordering::Release);
                    } else if park_job(inner, c, &mut sim) {
                        return;
                    }
                } else if inner.cfg.checkpoint_every_slices > 0
                    && slices.is_multiple_of(inner.cfg.checkpoint_every_slices)
                {
                    periodic_checkpoint(inner, c, &mut sim);
                }
            }
        }
    }
}

/// Extract the partial-result fields an error's hang context carries.
fn partial_result(e: &SimError) -> (String, String, u64) {
    e.hang_context()
        .map(|ctx| {
            (
                ctx.partial.summary(),
                ctx.partial.metrics_csv(),
                total_instructions(&ctx.partial),
            )
        })
        .unwrap_or_default()
}

/// Serialize the simulator and write it into the spool through the
/// injectable `SpoolIo`. Returns the checkpoint path.
fn write_spool_checkpoint(
    inner: &Inner,
    id: u64,
    sim: &mut crisp_sim::GpuSim,
) -> io::Result<PathBuf> {
    let cycles = sim.now();
    let path = inner.cfg.spool.join(format!("job-{id}-c{cycles}.ckpt"));
    let mut bytes = Vec::new();
    sim.write_checkpoint(&mut bytes)?;
    inner.cfg.spool_io.write_atomic(&path, &bytes)?;
    Ok(path)
}

/// Install a freshly written checkpoint as the job's resume point,
/// deleting the previous one.
fn install_checkpoint(inner: &Inner, s: &mut Sched, id: u64, path: PathBuf) {
    if let Some(job) = s.jobs.get_mut(&id) {
        if let Some(old) = job.checkpoint.replace(path) {
            let _ = inner.cfg.spool_io.remove(&old);
        }
    }
}

/// Periodic retry checkpoint at a slice boundary. Failures never stop
/// the job: `ENOSPC` degrades the spool, anything else is counted and
/// the job keeps its previous checkpoint.
fn periodic_checkpoint(inner: &Arc<Inner>, c: &Claimed, sim: &mut crisp_sim::GpuSim) {
    if !inner.spool_available() {
        return;
    }
    match write_spool_checkpoint(inner, c.id, sim) {
        Ok(path) => {
            let mut s = inner.state.lock().unwrap();
            install_checkpoint(inner, &mut s, c.id, path);
        }
        Err(e) if is_disk_full(&e) => {
            let mut s = inner.state.lock().unwrap();
            inner.degrade_spool(&mut s);
        }
        Err(_) => {
            let mut s = inner.state.lock().unwrap();
            inner.count_spool_error(&mut s);
        }
    }
}

/// The job blew its wall-clock deadline: best-effort final checkpoint
/// (for post-mortem resubmission), then a *permanent* failure — rerunning
/// the same job would blow the same deadline.
fn deadline_fail(inner: &Arc<Inner>, c: &Claimed, sim: Option<&mut crisp_sim::GpuSim>) {
    let mut cycles = 0;
    let mut note = String::new();
    if let Some(sim) = sim {
        cycles = sim.now();
        if inner.spool_available() {
            match write_spool_checkpoint(inner, c.id, sim) {
                Ok(path) => note = format!("; state checkpointed to {}", path.display()),
                Err(e) if is_disk_full(&e) => {
                    let mut s = inner.state.lock().unwrap();
                    inner.degrade_spool(&mut s);
                }
                Err(_) => {
                    let mut s = inner.state.lock().unwrap();
                    inner.count_spool_error(&mut s);
                }
            }
        }
    }
    {
        let mut s = inner.state.lock().unwrap();
        s.metrics
            .counter_add("serve/deadline_exceeded", tenant_labels(&c.tenant), 1);
    }
    finish_job(
        inner,
        c,
        JobState::Failed,
        cycles,
        Outcome {
            job: c.id,
            state: JobState::Failed,
            cycles,
            instructions: 0,
            summary: String::new(),
            metrics_csv: String::new(),
            error: format!("wall-clock deadline exceeded at cycle {cycles}{note}"),
            retries: 0,
            failure: Some(FailureClass::Permanent),
        },
    );
}

/// Supervision decision for a failed job: retry transiently-failed jobs
/// from their last checkpoint (with exponential backoff) while the
/// budget lasts; everything else becomes a terminal, classified failure.
fn fail_or_retry(
    inner: &Arc<Inner>,
    c: &Claimed,
    cycles: u64,
    error: String,
    class: crisp_sim::FaultClass,
) {
    if class == crisp_sim::FaultClass::Transient
        && !inner.stop.load(Ordering::Acquire)
        && c.interrupt.generation() == c.gen0
    {
        let policy = inner.cfg.retry_policy();
        let mut s = inner.state.lock().unwrap();
        let retry = s
            .jobs
            .get(&c.id)
            .map(|j| j.state == JobState::Running && policy.allows(j.retries))
            .unwrap_or(false);
        if retry {
            let job = s.jobs.get_mut(&c.id).unwrap();
            job.retries += 1;
            let attempt = job.retries;
            job.state = JobState::Retrying;
            job.not_before = Some(Instant::now() + policy.backoff(attempt));
            if cycles > 0 {
                job.cycles = cycles;
            }
            s.busy -= 1;
            s.metrics
                .counter_add("serve/job_retries", tenant_labels(&c.tenant), 1);
            s.refresh_gauges();
            drop(s);
            inner.work_cv.notify_all();
            inner.done_cv.notify_all();
            return;
        }
    }
    let wire_class = match class {
        crisp_sim::FaultClass::Transient => FailureClass::Transient,
        crisp_sim::FaultClass::Permanent => FailureClass::Permanent,
    };
    finish_job(
        inner,
        c,
        JobState::Failed,
        cycles,
        Outcome {
            job: c.id,
            state: JobState::Failed,
            cycles,
            instructions: 0,
            summary: String::new(),
            metrics_csv: String::new(),
            error,
            retries: 0,
            failure: Some(wire_class),
        },
    );
}

fn total_instructions(r: &crisp_sim::SimResult) -> u64 {
    r.per_stream.values().map(|s| s.stats.instructions).sum()
}

/// Checkpoint the running simulation into the spool and requeue the job.
/// Returns `true` when the job left the worker (parked, retrying, or
/// failed); `false` when parking was declined because the disk filled —
/// the caller keeps running the job in memory.
fn park_job(inner: &Arc<Inner>, c: &Claimed, sim: &mut crisp_sim::GpuSim) -> bool {
    let cycles = sim.now();
    let path = match write_spool_checkpoint(inner, c.id, sim) {
        Ok(path) => path,
        Err(e) if is_disk_full(&e) => {
            // Disk full: degrade to in-memory-only operation. The job
            // keeps its progress and runs to completion on this worker.
            let mut s = inner.state.lock().unwrap();
            inner.degrade_spool(&mut s);
            drop(s);
            c.park.store(false, Ordering::Release);
            return false;
        }
        Err(e) => {
            // Other checkpoint I/O failure: transient — retry from the
            // previous checkpoint (or scratch) rather than losing the
            // job outright.
            {
                let mut s = inner.state.lock().unwrap();
                inner.count_spool_error(&mut s);
            }
            fail_or_retry(
                inner,
                c,
                cycles,
                format!("checkpointing for preemption failed: {e}"),
                FaultClass::Transient,
            );
            return true;
        }
    };
    let mut s = inner.state.lock().unwrap();
    s.busy -= 1;
    if let Some(job) = s.jobs.get_mut(&c.id) {
        // A cancel can race the park; keep the bumped generation, the
        // resume will observe it immediately.
        job.state = JobState::Parked;
        job.cycles = cycles;
        job.preemptions += 1;
        job.parked_at = Some(Instant::now());
    }
    install_checkpoint(inner, &mut s, c.id, path);
    s.metrics
        .counter_add("serve/preemptions", tenant_labels(&c.tenant), 1);
    s.refresh_gauges();
    drop(s);
    inner.work_cv.notify_all();
    inner.done_cv.notify_all();
    true
}

fn finish_job(inner: &Arc<Inner>, c: &Claimed, state: JobState, cycles: u64, mut outcome: Outcome) {
    let counter = match state {
        JobState::Completed => "serve/completed",
        JobState::Cancelled => "serve/cancelled",
        _ => "serve/failed",
    };
    let mut s = inner.state.lock().unwrap();
    s.busy -= 1;
    let mut tripped = false;
    if let Some(job) = s.jobs.get_mut(&c.id) {
        outcome.retries = job.retries;
        job.state = state;
        job.cycles = cycles;
        job.outcome = Some(outcome.clone());
        if let Some(ckpt) = job.checkpoint.take() {
            let _ = inner.cfg.spool_io.remove(&ckpt);
        }
    }
    // Feed the tenant's circuit breaker: completions close it, permanent
    // failures advance (and possibly trip) it. Transient exhaustion and
    // cancellations are neutral — they say nothing about the workload.
    let breaker_policy = inner.cfg.breaker_policy();
    match (state, outcome.failure) {
        (JobState::Completed, _) => s.breakers.entry(&c.tenant).on_success(),
        (JobState::Failed, Some(FailureClass::Permanent)) => {
            tripped = s
                .breakers
                .entry(&c.tenant)
                .on_permanent_failure(&breaker_policy);
        }
        _ => {}
    }
    if tripped {
        s.metrics
            .counter_add("serve/breaker_trips", tenant_labels(&c.tenant), 1);
        eprintln!(
            "crisp-serve: tenant {} circuit breaker tripped after {} consecutive permanent failures",
            c.tenant, inner.cfg.breaker_threshold
        );
    }
    let latency = c.submitted_at.elapsed().as_micros() as u64;
    finish_metrics(&mut s, &c.tenant, counter, latency, cycles);
    s.refresh_gauges();
    drop(s);
    inner.work_cv.notify_all();
    inner.done_cv.notify_all();
}

// ---------------------------------------------------------------- shutdown

fn do_shutdown(inner: &Arc<Inner>, drain: bool) {
    inner.admitting.store(false, Ordering::Release);
    {
        let mut s = inner.state.lock().unwrap();
        if drain {
            // Ask every running job to park via an emergency checkpoint;
            // workers exit instead of claiming the requeued work.
            inner.stop.store(true, Ordering::Release);
            for job in s.jobs.values() {
                if job.state == JobState::Running {
                    job.park.store(true, Ordering::Release);
                }
            }
        } else {
            inner.stop.store(true, Ordering::Release);
            // Cancel everything: queued/parked directly, running via the
            // generation counter.
            let ids: Vec<u64> = s.jobs.keys().copied().collect();
            for id in ids {
                let job = &s.jobs[&id];
                match job.state {
                    JobState::Queued | JobState::Parked | JobState::Retrying => {
                        let job = s.jobs.get_mut(&id).unwrap();
                        job.state = JobState::Cancelled;
                        job.not_before = None;
                        let retries = job.retries;
                        job.outcome = Some(Outcome {
                            job: id,
                            state: JobState::Cancelled,
                            cycles: job.cycles,
                            instructions: 0,
                            summary: String::new(),
                            metrics_csv: String::new(),
                            error: "cancelled by daemon shutdown".into(),
                            retries,
                            failure: None,
                        });
                        let tenant = job.spec.tenant.clone();
                        let latency = job.submitted_at.elapsed().as_micros() as u64;
                        finish_metrics(&mut s, &tenant, "serve/cancelled", latency, 0);
                    }
                    JobState::Running => {
                        job.interrupt.bump();
                    }
                    _ => {}
                }
            }
            s.refresh_gauges();
        }
    }
    inner.work_cv.notify_all();

    // Wait until no worker is mid-job (parks and cancellations land at
    // slice / interrupt-interval boundaries).
    let mut s = inner.state.lock().unwrap();
    while s.busy > 0 {
        let (guard, _) = inner
            .done_cv
            .wait_timeout(s, Duration::from_millis(100))
            .unwrap();
        s = guard;
    }
    if drain {
        write_manifest(inner, &mut s);
    }
}

// ---------------------------------------------------------------- manifest

fn manifest_path(cfg: &ServeConfig) -> PathBuf {
    cfg.spool.join("manifest.bin")
}

/// One live job in the shutdown manifest. Its container follows it as a
/// [`Writer::bytes`] blob, read bounded only by the checksummed manifest:
/// [`Payload`] caps a trace at [`MAX_FRAME`](crate::proto::MAX_FRAME),
/// but a container generated from a scene payload has no such bound.
struct ManifestEntry {
    id: u64,
    cycles: u64,
    preemptions: u32,
    retries: u32,
    /// The checkpoint a parked job resumes from.
    checkpoint: Option<String>,
    /// The spec, with an empty trace payload: the materialized container
    /// follows the entry, so scene jobs need no regeneration on recovery.
    spec: JobSpec,
}

wire_struct!(ManifestEntry {
    id,
    cycles,
    preemptions,
    retries,
    checkpoint,
    spec
});

/// Persist every non-terminal job so the next daemon over this spool can
/// resume them. The payload — the next job id, then the entries — is
/// sealed (magic, version, CRC-32) and written through the spool's
/// fsync'd atomic-replace path; failures are surfaced — logged and counted
/// in `serve/spool_errors` — never swallowed.
fn write_manifest(inner: &Inner, s: &mut Sched) {
    let live: Vec<(&u64, &Job)> = s.jobs.iter().filter(|(_, j)| !j.state.terminal()).collect();
    let mut payload = Vec::new();
    let mut w = Writer::new(&mut payload);
    w.put(&s.next_id)
        .and_then(|()| {
            w.seq(live, |w, (&id, job)| {
                let spec = &job.spec;
                w.put(&ManifestEntry {
                    id,
                    cycles: job.cycles,
                    preemptions: job.preemptions,
                    retries: job.retries,
                    checkpoint: job
                        .checkpoint
                        .as_ref()
                        .map(|p| p.to_string_lossy().into_owned()),
                    spec: JobSpec {
                        tenant: spec.tenant.clone(),
                        name: spec.name.clone(),
                        priority: spec.priority,
                        payload: Payload::Trace(Vec::new()),
                        gpu: spec.gpu,
                        max_cycles: spec.max_cycles,
                        telemetry: spec.telemetry,
                        deadline_ms: spec.deadline_ms,
                    },
                })?;
                w.bytes(&job.bytes)
            })
        })
        .expect("encoding into memory cannot fail");
    let out = spool::seal(&payload);
    let path = manifest_path(&inner.cfg);
    if let Err(e) = inner.cfg.spool_io.write_atomic(&path, &out) {
        eprintln!(
            "crisp-serve: writing the shutdown manifest to {} failed: {e}",
            path.display()
        );
        inner.count_spool_error(s);
    }
}

/// Load (and consume) a shutdown manifest, requeueing its jobs. A torn,
/// bit-flipped, or otherwise corrupt manifest is **quarantined** (moved
/// aside as `manifest.bin.quarantined-N`) and counted — the daemon
/// starts empty but alive. Orphaned checkpoints no recovered job
/// references are swept out of the spool.
fn recover_manifest(cfg: &ServeConfig, s: &mut Sched) {
    let path = manifest_path(cfg);
    let raw = match cfg.spool_io.read(&path) {
        Ok(raw) => raw,
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            sweep_orphan_checkpoints(cfg, s);
            return;
        }
        Err(e) => {
            eprintln!(
                "crisp-serve: reading manifest {} failed: {e}",
                path.display()
            );
            s.metrics
                .counter_add("serve/spool_errors", Labels::new(), 1);
            return;
        }
    };
    let payload = match spool::open(&raw) {
        Ok(p) => p,
        Err(e) => {
            let dest = spool::quarantine(&*cfg.spool_io, &path);
            eprintln!(
                "crisp-serve: manifest {} is corrupt ({e}); {}",
                path.display(),
                match &dest {
                    Some(d) => format!("quarantined as {}", d.display()),
                    None => "removed".into(),
                }
            );
            s.metrics
                .counter_add("serve/spool_errors", Labels::new(), 1);
            sweep_orphan_checkpoints(cfg, s);
            return;
        }
    };
    let _ = cfg.spool_io.remove(&path);
    if let Err(e) = requeue_manifest(cfg, s, payload) {
        // The checksum passed, so this is an encoding bug rather than
        // disk corruption — keep what parsed, count the anomaly.
        eprintln!("crisp-serve: manifest truncated ({e}); recovered what parsed");
        s.metrics
            .counter_add("serve/spool_errors", Labels::new(), 1);
    }
    sweep_orphan_checkpoints(cfg, s);
}

/// Requeue the jobs of an opened manifest payload, in order, up to the
/// first entry that fails to decode.
fn requeue_manifest(cfg: &ServeConfig, s: &mut Sched, payload: &[u8]) -> io::Result<()> {
    let mut r = Reader::new(payload);
    let next_id: u64 = r.get()?;
    let count: usize = r.get()?;
    s.next_id = s.next_id.max(next_id);
    for _ in 0..count {
        let ManifestEntry {
            id,
            cycles,
            preemptions,
            retries,
            checkpoint,
            spec,
        } = r.get()?;
        let bytes = Arc::new(r.bytes(usize::MAX)?);
        let checkpoint = checkpoint.map(PathBuf::from);
        let interrupt = Interrupt::new();
        let gen0 = interrupt.generation();
        let state = if checkpoint.is_some() {
            JobState::Parked
        } else {
            JobState::Queued
        };
        let seq = s.next_seq;
        s.next_seq += 1;
        let tenant = spec.tenant.clone();
        let deadline_at = cfg.deadline_for(&spec).map(|d| Instant::now() + d);
        s.jobs.insert(
            id,
            Job {
                spec,
                bytes,
                state,
                interrupt,
                gen0,
                park: Arc::new(AtomicBool::new(false)),
                seq,
                cycles,
                preemptions,
                retries,
                not_before: None,
                // The deadline clock restarts on recovery: wall time
                // spent down is the operator's fault, not the job's.
                deadline_at,
                checkpoint,
                outcome: None,
                submitted_at: Instant::now(),
                parked_at: if state == JobState::Parked {
                    Some(Instant::now())
                } else {
                    None
                },
            },
        );
        s.metrics
            .counter_add("serve/recovered", tenant_labels(&tenant), 1);
    }
    Ok(())
}

/// Delete `job-*.ckpt` spool files no recovered job references — debris
/// from crashes or quarantined manifests that would otherwise accumulate.
fn sweep_orphan_checkpoints(cfg: &ServeConfig, s: &Sched) {
    let Ok(entries) = std::fs::read_dir(&cfg.spool) else {
        return;
    };
    let referenced: std::collections::BTreeSet<PathBuf> = s
        .jobs
        .values()
        .filter_map(|j| j.checkpoint.clone())
        .collect();
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with("job-") && name.ends_with(".ckpt") && !referenced.contains(&path) {
            let _ = cfg.spool_io.remove(&path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::MAX_FRAME;

    fn entry(id: u64, checkpoint: Option<&PathBuf>) -> ManifestEntry {
        ManifestEntry {
            id,
            cycles: 10 * id,
            preemptions: 1,
            retries: 0,
            checkpoint: checkpoint.map(|p| p.to_string_lossy().into_owned()),
            spec: JobSpec {
                tenant: "t".into(),
                name: format!("job{id}"),
                priority: 1,
                payload: Payload::Trace(Vec::new()),
                gpu: GpuPreset::TestTiny,
                max_cycles: 0,
                telemetry: false,
                deadline_ms: 0,
            },
        }
    }

    #[test]
    fn a_container_over_the_frame_cap_is_recovered_with_the_jobs_after_it() {
        let spool =
            std::env::temp_dir().join(format!("crisp-serve-manifest-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&spool);
        std::fs::create_dir_all(&spool).expect("create spool");
        let ckpt = spool.join("job-2.ckpt");
        std::fs::write(&ckpt, b"checkpoint").expect("plant checkpoint");
        let cfg = ServeConfig {
            spool: spool.clone(),
            ..ServeConfig::default()
        };

        // A scene job's generated container may outgrow a frame; a
        // parked job follows it in id order.
        let big = MAX_FRAME as usize + 1;
        let mut payload = Vec::new();
        let mut w = Writer::new(&mut payload);
        w.put(&3u64)
            .and_then(|()| w.put(&2usize))
            .and_then(|()| w.put(&entry(1, None)))
            .and_then(|()| w.bytes(&vec![7; big]))
            .and_then(|()| w.put(&entry(2, Some(&ckpt))))
            .and_then(|()| w.bytes(b"trace"))
            .expect("encode manifest");

        let mut s = Sched {
            jobs: BTreeMap::new(),
            next_id: 1,
            next_seq: 0,
            busy: 0,
            high_water: BTreeMap::new(),
            breakers: BreakerTable::default(),
            metrics: MetricRegistry::new(),
        };
        requeue_manifest(&cfg, &mut s, &payload).expect("every entry decodes");
        sweep_orphan_checkpoints(&cfg, &s);

        assert_eq!(s.next_id, 3);
        assert_eq!(s.jobs[&1].bytes.len(), big);
        assert_eq!(s.jobs[&1].state, JobState::Queued);
        assert_eq!(*s.jobs[&2].bytes, b"trace");
        assert_eq!(s.jobs[&2].state, JobState::Parked);
        assert!(ckpt.exists(), "the parked job's checkpoint is kept");
        let _ = std::fs::remove_dir_all(&spool);
    }
}
