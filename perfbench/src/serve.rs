//! The `serve` workload: an in-process `crisp-serve` daemon with one
//! worker and admission lint on, driven in a closed loop by one client.
//! A long low-priority background job stays resident; every foreground
//! job arrives at high priority and preempts it through checkpoint
//! park/resume.

use std::collections::BTreeMap;
use std::io::Cursor;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crisp_core::{concurrent_bundle, COMPUTE_STREAM, GRAPHICS_STREAM};
use crisp_scenes::{holo, nn, vio, ComputeScale, Scene, SceneId};
use crisp_serve::{
    Client, GpuPreset, JobSpec, JobState, Outcome, Payload, ServeConfig, Server, ServerHandle,
};
use crisp_sim::{GpuConfig, LintLevel, Simulation, Telemetry};
use crisp_trace::{codec, Stream, StreamId, TraceBundle, TraceInput};

use crate::bench::{quantile, Ctx, Rng, ITERATION};

/// Foreground jobs per iteration; `wall_s` is the wall time of one batch.
const BATCH: usize = 8;

/// Daemon start-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// The background job: VIO gives the most simulated cycles per second of
/// admission. When it finishes between two batches a fresh one replaces
/// it, so every foreground job finds one to preempt.
const BACKGROUND: (&str, u32) = ("vio", 20_000);

/// Upper bound on one wait for a job outcome, in milliseconds.
const WAIT_MS: u64 = 120_000;

/// The foreground job mix. Each is a TestTiny job: either a CRSP pair
/// the client encodes or a scene the daemon generates itself.
fn templates() -> Vec<(&'static str, Payload)> {
    let pair = |scene: SceneId, compute: fn(StreamId, ComputeScale) -> Stream| {
        let frame = Scene::build(scene, 0.2).render(96, 54, false, GRAPHICS_STREAM);
        let bundle = concurrent_bundle(frame.trace, compute(COMPUTE_STREAM, ComputeScale::tiny()));
        Payload::Trace(encode(&bundle))
    };
    let scene = |kind: &str, factor_milli| Payload::Scene {
        kind: kind.into(),
        factor_milli,
    };
    vec![
        ("crsp-sponza-vio", pair(SceneId::SponzaKhronos, vio)),
        ("crsp-planets-nn", pair(SceneId::Planets, nn)),
        ("scene-holo", scene("holo", 150)),
        ("scene-render", scene("render", 1000)),
    ]
}

fn encode(bundle: &TraceBundle) -> Vec<u8> {
    let mut out = Vec::new();
    codec::write_bundle(bundle, &mut out).expect("encoding into memory cannot fail");
    out
}

fn spec(name: &str, priority: u8, payload: Payload) -> JobSpec {
    JobSpec {
        tenant: if priority > 1 { "interactive" } else { "batch" }.into(),
        name: name.into(),
        priority,
        payload,
        gpu: GpuPreset::TestTiny,
        max_cycles: 0,
        telemetry: false,
        deadline_ms: 0,
    }
}

/// The container the daemon simulates for `payload`: scene payloads are
/// generated the way the daemon documents it, with the same generators.
fn container(payload: &Payload) -> Vec<u8> {
    match payload {
        Payload::Trace(bytes) => bytes.clone(),
        Payload::Scene { kind, factor_milli } => {
            let factor = *factor_milli as f32 / 1000.0;
            let scale = ComputeScale { factor };
            let s = match kind.as_str() {
                "holo" => holo(StreamId(0), scale),
                "render" => {
                    Scene::build(SceneId::SponzaKhronos, (0.2 * factor).clamp(0.01, 1.0))
                        .render(64, 36, false, StreamId(0))
                        .trace
                }
                other => unreachable!("no template uses scene kind {other}"),
            };
            encode(&TraceBundle::from_streams(vec![s]))
        }
    }
}

/// The outcome fields that must match a direct run of the same job.
fn outcome_key(cycles: u64, instructions: u64, summary: &str, metrics_csv: &str) -> String {
    format!("cycles={cycles} instrs={instructions}\n{summary}{metrics_csv}")
}

/// Run the job in-process, without the daemon.
fn direct(payload: &Payload) -> Result<String, String> {
    let r = Simulation::builder()
        .gpu(GpuConfig::test_tiny())
        .telemetry(Telemetry::NONE)
        .trace(TraceInput::reader(Cursor::new(container(payload))))
        .run()
        .map_err(|e| e.to_string())?;
    let instrs = r.per_stream.values().map(|p| p.stats.instructions).sum();
    Ok(outcome_key(
        r.cycles,
        instrs,
        &r.summary(),
        &r.metrics_csv(),
    ))
}

struct Daemon {
    server: ServerHandle,
    client: Client,
    background: u64,
}

/// Start a daemon and bring it to ready: listening, connected, and
/// running the admitted background job.
fn start(spool: PathBuf) -> Result<Daemon, String> {
    let cfg = ServeConfig {
        workers: 1,
        spool,
        lint: LintLevel::Errors,
        ..ServeConfig::default()
    };
    let server = Server::start(cfg).map_err(|e| format!("daemon start: {e}"))?;
    let mut client = Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    let background = submit_background(&mut client)?;
    Ok(Daemon {
        server,
        client,
        background,
    })
}

/// Submit the background job and wait until the worker runs it.
fn submit_background(client: &mut Client) -> Result<u64, String> {
    let (kind, factor_milli) = BACKGROUND;
    let payload = Payload::Scene {
        kind: kind.into(),
        factor_milli,
    };
    let background = client
        .submit(&spec("background", 1, payload))
        .map_err(|e| format!("background submit: {e}"))?;
    loop {
        let st = client.status(background).map_err(|e| e.to_string())?;
        match st.state {
            JobState::Running => return Ok(background),
            s if s.terminal() => return Err(format!("background job ended early: {s:?}")),
            _ => std::thread::yield_now(),
        }
    }
}

/// Keep a background job resident: replace it once it has finished.
/// Returns whether it had to be replaced.
fn keep_background(d: &mut Daemon) -> Result<bool, String> {
    let st = d.client.status(d.background).map_err(|e| e.to_string())?;
    if !st.state.terminal() {
        return Ok(false);
    }
    d.background = submit_background(&mut d.client)?;
    Ok(true)
}

fn stop(mut d: Daemon) {
    let _ = d.client.cancel(d.background);
    d.server.shutdown(false);
    d.server.join();
}

fn spool_dir(work: &Path, i: usize) -> PathBuf {
    work.join(format!("serve-spool-{}-{i}", std::process::id()))
}

pub fn serve(ctx: &mut Ctx) {
    let mut daemon = None;
    for i in 0..SETUPS {
        let t = Instant::now();
        match start(spool_dir(&ctx.work, i)) {
            Ok(d) => {
                ctx.plain.push("setup_s", t.elapsed().as_secs_f64());
                if let Some(prev) = daemon.replace(d) {
                    stop(prev);
                }
            }
            Err(e) => ctx.report.check(false, || e),
        }
    }
    let Some(mut d) = daemon else { return };
    let jobs = templates();
    let mut expected: BTreeMap<usize, Result<String, String>> = BTreeMap::new();
    let mut rng = Rng::new(ctx.seed);
    let mut replaced = 0;
    let started = Instant::now();
    ctx.measure(1, |ctx| {
        let it = ctx.tracer.begin(ITERATION);
        let mut done: Vec<(usize, Outcome)> = Vec::with_capacity(BATCH);
        for _ in 0..BATCH {
            let k = rng.below(jobs.len());
            let (name, payload) = &jobs[k];
            let t0 = Instant::now();
            let t = ctx.tracer.begin("serve.submit");
            let job = d
                .client
                .submit(&spec(name, 9, payload.clone()))
                .map_err(|e| format!("{name}: submit: {e}"))?;
            let submit_s = ctx.tracer.end(t);
            let t = ctx.tracer.begin("serve.wait_result");
            let outcome = d
                .client
                .wait_result(job, WAIT_MS)
                .map_err(|e| format!("{name}: wait_result: {e}"))?;
            ctx.tracer.end(t);
            let s = ctx.samples();
            s.push("job_ms", t0.elapsed().as_secs_f64() * 1e3);
            s.push("serve.submit_ms", submit_s * 1e3);
            done.push((k, outcome));
        }
        let wall_s = ctx.tracer.end(it);
        ctx.samples().push("wall_s", wall_s);
        for (k, o) in done {
            let (name, payload) = &jobs[k];
            let want = expected.entry(k).or_insert_with(|| direct(payload));
            let got = outcome_key(o.cycles, o.instructions, &o.summary, &o.metrics_csv);
            let ok = o.state == JobState::Completed && want.as_ref() == Ok(&got);
            ctx.report.check(ok, || {
                format!(
                    "{name}: daemon outcome {:?} differs from a direct run",
                    o.state
                )
            });
            ctx.report.output(format!("serve/{name}"), got);
        }
        replaced += usize::from(keep_background(&mut d)?);
        Ok(())
    });
    let elapsed = started.elapsed().as_secs_f64();
    let n_jobs = ctx.plain.get("job_ms").len() + ctx.traced.get("job_ms").len();
    ctx.plain.push("jobs_per_s", n_jobs as f64 / elapsed);
    ctx.report.note(format!(
        "{n_jobs} foreground jobs; the background job finished and was replaced {replaced} times"
    ));
    if ctx.trace {
        match d.client.metrics_json() {
            Ok(json) => {
                let p50 = |name| field(&json, name, "p50").into_iter().fold(0.0, f64::max);
                let total = |name| field(&json, name, "value").into_iter().sum::<f64>();
                ctx.traced
                    .push("serve.admission_us_p50", p50("serve/admission_us"));
                ctx.traced.push(
                    "serve.preemption_rtt_us_p50",
                    p50("serve/preemption_rtt_us"),
                );
                ctx.traced
                    .push("serve.preemptions", total("serve/preemptions"));
                ctx.traced.push("serve.resumes", total("serve/resumes"));
            }
            Err(e) => ctx.report.check(false, || format!("metrics: {e}")),
        }
    }
    stop(d);
    for i in 0..SETUPS {
        let _ = std::fs::remove_dir_all(spool_dir(&ctx.work, i));
    }
}

/// The serve workload's own end-to-end figures, from the untraced phase.
pub fn extras(ctx: &mut Ctx) {
    let jobs = ctx.plain.get("job_ms").to_vec();
    if jobs.is_empty() {
        return;
    }
    if let Some(v) = ctx.plain.median("jobs_per_s") {
        ctx.report.extra("jobs_per_s", v, "jobs/s");
    }
    ctx.report.extra("job_p50_ms", quantile(&jobs, 0.5), "ms");
    ctx.report.extra("job_p95_ms", quantile(&jobs, 0.95), "ms");
    ctx.report.extra("jobs_timed", jobs.len() as f64, "count");
}

/// Every numeric `field` of the entries named `name` in a `serve/*`
/// metrics export (one entry per label set).
fn field(json: &str, name: &str, field: &str) -> Vec<f64> {
    let key = format!("\"name\":\"{name}\"");
    let want = format!("\"{field}\":");
    json.match_indices(&key)
        .filter_map(|(at, _)| {
            let entry = &json[at..];
            let entry = &entry[..entry[1..].find("\"name\":").map_or(entry.len(), |e| e + 1)];
            let v = &entry[entry.find(&want)? + want.len()..];
            let end = v.find([',', '}']).unwrap_or(v.len());
            v[..end].parse().ok()
        })
        .collect()
}
