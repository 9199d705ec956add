//! `crisp-serve` — the daemon and its CLI client in one binary.
//!
//! ```text
//! crisp-serve serve    [--addr A] [--workers N] [--spool DIR]
//!                      [--quota TENANT=N] [--default-quota N]
//!                      [--slice CYCLES] [--lint off|errors|deny]
//!                      [--max-retries N] [--retry-backoff-ms MS]
//!                      [--deadline TENANT=MS] [--default-deadline-ms MS]
//!                      [--breaker THRESHOLD[:COOLDOWN_MS]]
//!                      [--checkpoint-every SLICES]
//! crisp-serve submit   --tenant T (--trace FILE | --scene KIND[:FACTOR])
//!                      [--name S] [--priority P] [--gpu test-tiny|jetson-orin]
//!                      [--max-cycles N] [--telemetry] [--deadline-ms MS]
//!                      [--wait] [--addr A]
//! crisp-serve status   [JOB] [--addr A]
//! crisp-serve cancel   JOB [--addr A]
//! crisp-serve result   JOB [--addr A]
//! crisp-serve metrics  [--addr A]
//! crisp-serve shutdown [--hard] [--addr A]
//! ```

use crisp_serve::{Client, GpuPreset, JobSpec, JobState, Payload, ServeConfig, Server};
use crisp_sim::LintLevel;
use std::process::ExitCode;

const DEFAULT_ADDR: &str = "127.0.0.1:7421";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let rest = &args[1..];
    let outcome = match cmd.as_str() {
        "serve" => cmd_serve(rest),
        "submit" => cmd_submit(rest),
        "status" => cmd_status(rest),
        "cancel" => cmd_job_op(rest, Op::Cancel),
        "result" => cmd_job_op(rest, Op::Result),
        "metrics" => cmd_metrics(rest),
        "shutdown" => cmd_shutdown(rest),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("crisp-serve: {msg}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  crisp-serve serve    [--addr A] [--workers N] [--spool DIR] [--quota TENANT=N]
                       [--default-quota N] [--slice CYCLES] [--lint off|errors|deny]
                       [--max-retries N] [--retry-backoff-ms MS]
                       [--deadline TENANT=MS] [--default-deadline-ms MS]
                       [--breaker THRESHOLD[:COOLDOWN_MS]] [--checkpoint-every SLICES]
  crisp-serve submit   --tenant T (--trace FILE | --scene KIND[:FACTOR]) [--name S]
                       [--priority P] [--gpu test-tiny|jetson-orin] [--max-cycles N]
                       [--telemetry] [--deadline-ms MS] [--wait] [--addr A]
  crisp-serve status   [JOB] [--addr A]
  crisp-serve cancel   JOB [--addr A]
  crisp-serve result   JOB [--addr A]
  crisp-serve metrics  [--addr A]
  crisp-serve shutdown [--hard] [--addr A]

scene kinds: vio holo nn timewarp upscaler render (FACTOR scales size, default 1.0)";

/// Minimal flag cursor: positionals and `--flag [value]` pairs.
struct Args<'a> {
    rest: &'a [String],
    i: usize,
}

impl<'a> Args<'a> {
    fn new(rest: &'a [String]) -> Self {
        Args { rest, i: 0 }
    }

    fn next(&mut self) -> Option<&'a str> {
        let a = self.rest.get(self.i).map(String::as_str);
        if a.is_some() {
            self.i += 1;
        }
        a
    }

    fn value(&mut self, flag: &str) -> Result<&'a str, String> {
        self.next().ok_or_else(|| format!("{flag} needs a value"))
    }
}

fn parse_u64(flag: &str, v: &str) -> Result<u64, String> {
    v.parse()
        .map_err(|_| format!("{flag}: not a number: {v:?}"))
}

fn cmd_serve(rest: &[String]) -> Result<(), String> {
    let mut cfg = ServeConfig {
        addr: DEFAULT_ADDR.into(),
        ..ServeConfig::default()
    };
    let mut a = Args::new(rest);
    while let Some(flag) = a.next() {
        match flag {
            "--addr" => cfg.addr = a.value(flag)?.to_string(),
            "--workers" => cfg.workers = parse_u64(flag, a.value(flag)?)? as usize,
            "--spool" => cfg.spool = a.value(flag)?.into(),
            "--default-quota" => cfg.default_quota = parse_u64(flag, a.value(flag)?)? as usize,
            "--slice" => cfg.slice_cycles = parse_u64(flag, a.value(flag)?)?,
            "--quota" => {
                let v = a.value(flag)?;
                let (tenant, n) = v
                    .split_once('=')
                    .ok_or_else(|| format!("--quota wants TENANT=N, got {v:?}"))?;
                cfg.quotas
                    .insert(tenant.to_string(), parse_u64(flag, n)? as usize);
            }
            "--lint" => {
                cfg.lint = match a.value(flag)? {
                    "off" => LintLevel::Off,
                    "errors" => LintLevel::Errors,
                    "deny" => LintLevel::Deny,
                    v => return Err(format!("--lint wants off|errors|deny, got {v:?}")),
                }
            }
            "--max-retries" => cfg.max_retries = parse_u64(flag, a.value(flag)?)? as u32,
            "--retry-backoff-ms" => cfg.retry_backoff_ms = parse_u64(flag, a.value(flag)?)?,
            "--default-deadline-ms" => {
                cfg.default_deadline_ms = parse_u64(flag, a.value(flag)?)?;
            }
            "--deadline" => {
                let v = a.value(flag)?;
                let (tenant, ms) = v
                    .split_once('=')
                    .ok_or_else(|| format!("--deadline wants TENANT=MS, got {v:?}"))?;
                cfg.deadlines
                    .insert(tenant.to_string(), parse_u64(flag, ms)?);
            }
            "--breaker" => {
                let v = a.value(flag)?;
                match v.split_once(':') {
                    Some((t, cd)) => {
                        cfg.breaker_threshold = parse_u64(flag, t)? as u32;
                        cfg.breaker_cooldown_ms = parse_u64(flag, cd)?;
                    }
                    None => cfg.breaker_threshold = parse_u64(flag, v)? as u32,
                }
            }
            "--checkpoint-every" => {
                cfg.checkpoint_every_slices = parse_u64(flag, a.value(flag)?)?;
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let handle = Server::start(cfg).map_err(|e| format!("starting daemon: {e}"))?;
    println!("crisp-serve listening on {}", handle.addr());
    // Runs until a client sends a Shutdown request.
    handle.join();
    println!("crisp-serve: shut down cleanly");
    Ok(())
}

fn connect(addr: &str) -> Result<Client, String> {
    Client::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))
}

fn cmd_submit(rest: &[String]) -> Result<(), String> {
    let mut addr = DEFAULT_ADDR.to_string();
    let mut tenant = None;
    let mut name = String::new();
    let mut priority = 0u8;
    let mut payload = None;
    let mut gpu = GpuPreset::TestTiny;
    let mut max_cycles = 0u64;
    let mut telemetry = false;
    let mut deadline_ms = 0u64;
    let mut wait = false;
    let mut a = Args::new(rest);
    while let Some(flag) = a.next() {
        match flag {
            "--addr" => addr = a.value(flag)?.to_string(),
            "--tenant" => tenant = Some(a.value(flag)?.to_string()),
            "--name" => name = a.value(flag)?.to_string(),
            "--priority" => priority = parse_u64(flag, a.value(flag)?)? as u8,
            "--max-cycles" => max_cycles = parse_u64(flag, a.value(flag)?)?,
            "--telemetry" => telemetry = true,
            "--deadline-ms" => deadline_ms = parse_u64(flag, a.value(flag)?)?,
            "--wait" => wait = true,
            "--gpu" => {
                let v = a.value(flag)?;
                gpu = GpuPreset::parse(v)
                    .ok_or_else(|| format!("--gpu wants test-tiny|jetson-orin, got {v:?}"))?;
            }
            "--trace" => {
                let path = a.value(flag)?;
                let bytes = std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
                payload = Some(Payload::Trace(bytes));
            }
            "--scene" => {
                let v = a.value(flag)?;
                let (kind, factor) = match v.split_once(':') {
                    Some((k, f)) => {
                        let f: f64 = f
                            .parse()
                            .map_err(|_| format!("--scene factor is not a number: {f:?}"))?;
                        (k, (f * 1000.0).round().max(1.0) as u32)
                    }
                    None => (v, 1000),
                };
                payload = Some(Payload::Scene {
                    kind: kind.to_string(),
                    factor_milli: factor,
                });
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let tenant = tenant.ok_or("--tenant is required")?;
    let payload = payload.ok_or("one of --trace or --scene is required")?;
    let spec = JobSpec {
        tenant,
        name,
        priority,
        payload,
        gpu,
        max_cycles,
        telemetry,
        deadline_ms,
    };
    let mut client = connect(&addr)?;
    let job = client.submit(&spec).map_err(|e| e.to_string())?;
    println!("job {job}");
    if wait {
        let status = client.wait_terminal(job, 0).map_err(|e| e.to_string())?;
        let outcome = client.result(job).map_err(|e| e.to_string())?;
        println!(
            "{}: {} ({} cycles)",
            outcome.state, status.name, outcome.cycles
        );
        if !outcome.summary.is_empty() {
            print!("{}", outcome.summary);
        }
        if !outcome.error.is_empty() {
            println!("{}", outcome.error);
        }
        if outcome.state != JobState::Completed {
            return Err(format!("job {job} ended {}", outcome.state));
        }
    }
    Ok(())
}

fn cmd_status(rest: &[String]) -> Result<(), String> {
    let mut addr = DEFAULT_ADDR.to_string();
    let mut job = None;
    let mut a = Args::new(rest);
    while let Some(arg) = a.next() {
        match arg {
            "--addr" => addr = a.value(arg)?.to_string(),
            v => job = Some(parse_u64("JOB", v)?),
        }
    }
    let mut client = connect(&addr)?;
    match job {
        Some(id) => {
            let s = client.status(id).map_err(|e| e.to_string())?;
            print_status(&s);
        }
        None => {
            for s in client.jobs().map_err(|e| e.to_string())? {
                print_status(&s);
            }
        }
    }
    Ok(())
}

fn print_status(s: &crisp_serve::JobStatus) {
    println!(
        "job {:>4}  {:<10} prio {:>3}  {:<9} {:>12} cycles  {} preemptions  {} retries  {}",
        s.job, s.tenant, s.priority, s.state, s.cycles, s.preemptions, s.retries, s.name
    );
}

enum Op {
    Cancel,
    Result,
}

fn cmd_job_op(rest: &[String], op: Op) -> Result<(), String> {
    let mut addr = DEFAULT_ADDR.to_string();
    let mut job = None;
    let mut a = Args::new(rest);
    while let Some(arg) = a.next() {
        match arg {
            "--addr" => addr = a.value(arg)?.to_string(),
            v => job = Some(parse_u64("JOB", v)?),
        }
    }
    let job = job.ok_or("a JOB id is required")?;
    let mut client = connect(&addr)?;
    match op {
        Op::Cancel => {
            let s = client.cancel(job).map_err(|e| e.to_string())?;
            println!("job {job} is {} (cancel requested)", s.state);
        }
        Op::Result => {
            let o = client.result(job).map_err(|e| e.to_string())?;
            println!(
                "job {job}: {} after {} cycles, {} instructions",
                o.state, o.cycles, o.instructions
            );
            if !o.summary.is_empty() {
                print!("{}", o.summary);
            }
            if !o.error.is_empty() {
                println!("{}", o.error);
            }
        }
    }
    Ok(())
}

fn cmd_metrics(rest: &[String]) -> Result<(), String> {
    let mut addr = DEFAULT_ADDR.to_string();
    let mut a = Args::new(rest);
    while let Some(arg) = a.next() {
        match arg {
            "--addr" => addr = a.value(arg)?.to_string(),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let json = connect(&addr)?.metrics_json().map_err(|e| e.to_string())?;
    println!("{json}");
    Ok(())
}

fn cmd_shutdown(rest: &[String]) -> Result<(), String> {
    let mut addr = DEFAULT_ADDR.to_string();
    let mut drain = true;
    let mut a = Args::new(rest);
    while let Some(arg) = a.next() {
        match arg {
            "--addr" => addr = a.value(arg)?.to_string(),
            "--hard" => drain = false,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    connect(&addr)?.shutdown(drain).map_err(|e| e.to_string())?;
    println!(
        "daemon shut down ({})",
        if drain { "drained" } else { "hard" }
    );
    Ok(())
}
