//! The CRISP benchmark's measuring binary. `run.py` builds and drives it;
//! see README.md for the workloads and metrics.
//!
//! ```text
//! perfbench <pair|resume|repro|serve|selftest> --seed N --seconds S --trace 0|1 --work DIR
//! ```
//!
//! Prints one JSON report as its last line: the metrics of the run, the
//! outputs `run.py` compares with the recorded references, and the
//! checks made here.

mod bench;
mod pairs;
mod repro;
mod serve;

use bench::{Ctx, Report, Samples, Tracer};

// Counting is off unless a traced phase turns it on; while off each
// allocation costs one relaxed atomic load.
#[global_allocator]
static ALLOC: crisp_obs::alloc::CountingAlloc = crisp_obs::alloc::CountingAlloc;

fn usage() -> ! {
    eprintln!(
        "usage: perfbench <pair|resume|repro|serve|selftest> --seed N --seconds S \
         --trace 0|1 --work DIR"
    );
    std::process::exit(2)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let workload = args.next().unwrap_or_else(|| usage());
    let (mut seed, mut seconds, mut trace, mut work) = (0u64, 10.0f64, false, None);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--seed" => seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => trace = value == "1",
            "--work" => work = Some(std::path::PathBuf::from(value)),
            _ => usage(),
        }
    }
    let work = work.unwrap_or_else(|| usage());
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        std::process::exit(1);
    }
    let mut ctx = Ctx {
        seed,
        seconds,
        trace,
        work,
        tracer: Tracer::new(),
        report: Report::default(),
        plain: Samples::default(),
        traced: Samples::default(),
    };
    match workload.as_str() {
        "pair" => pairs::pair(&mut ctx),
        "resume" => pairs::resume(&mut ctx),
        "repro" => repro::repro(&mut ctx),
        "serve" => serve::serve(&mut ctx),
        "selftest" => selftest(&mut ctx),
        _ => usage(),
    }
    summarize(&mut ctx, &workload);
    println!("{}", ctx.report.to_json());
}

/// Turn the samples into metrics: medians of the untraced iterations for
/// the end-to-end set, of the traced ones for the per-layer set.
fn summarize(ctx: &mut Ctx, workload: &str) {
    ctx.e2e("setup_s", "s");
    ctx.e2e("wall_s", "s");
    ctx.report
        .metric("peak_rss_mb", bench::peak_rss_mb(), "MiB");
    if let Some(v) = ctx.plain.median("sim_cycles_per_s") {
        ctx.report.extra("sim_cycles_per_s", v, "cycles/s");
    }
    serve::extras(ctx);
    if !ctx.trace {
        return;
    }
    for (name, unit) in LAYER_METRICS {
        ctx.layer(name, unit);
    }
    let coverage = ctx.tracer.coverage();
    ctx.report.metric("bench.coverage", coverage, "fraction");
    let plain = ctx.plain.median("wall_s").unwrap_or(f64::NAN);
    let traced = ctx.traced.median("wall_s").unwrap_or(f64::NAN);
    ctx.report.metric(
        "bench.trace_overhead_frac",
        traced / plain - 1.0,
        "fraction",
    );
    let path = ctx
        .work
        .join(format!("trace-{workload}-seed{}.json", ctx.seed));
    match ctx.tracer.write_chrome_trace(&path) {
        Ok(()) => ctx
            .report
            .note(format!("chrome trace written to {}", path.display())),
        Err(e) => ctx
            .report
            .check(false, || format!("writing {}: {e}", path.display())),
    }
}

/// Per-layer metrics taken as the median over traced iterations. Layers
/// a workload does not exercise are absent here and read 0 in the result.
const LAYER_METRICS: &[(&str, &str)] = &[
    ("scenes.build_s", "s"),
    ("gfx.render_s", "s"),
    ("gfx.fragments", "count"),
    ("gfx.ns_per_fragment", "ns"),
    ("scenes.compute_gen_s", "s"),
    ("trace.encode_s", "s"),
    ("trace.container_bytes", "bytes"),
    ("trace.ctas_decoded", "count"),
    ("trace.bytes_decoded", "bytes"),
    ("trace.peak_resident_bytes", "bytes"),
    ("analyze.s", "s"),
    ("analyze.findings", "count"),
    ("sim.build_s", "s"),
    ("sim.preflight_s", "s"),
    ("sim.run_s", "s"),
    ("sim.dispatch_s", "s"),
    ("sim.port_drain_s", "s"),
    ("sim.export_s", "s"),
    ("sim.allocs_per_cycle", "allocs/cycle"),
    ("sim.cycles", "cycles"),
    ("sim.instrs", "count"),
    ("sim.shard_speedup_2t", "ratio"),
    ("sm.execute_s", "s"),
    ("sm.ns_per_instr", "ns"),
    ("sm.issue_efficiency", "fraction"),
    ("sm.stall.mem_pending_frac", "fraction"),
    ("sm.stall.mshr_full_frac", "fraction"),
    ("sm.slots.empty_frac", "fraction"),
    ("mem.tick_s", "s"),
    ("mem.ns_per_l2_access", "ns"),
    ("mem.l1.accesses", "count"),
    ("mem.l1.hit_rate", "fraction"),
    ("mem.l2.accesses", "count"),
    ("mem.l2.hit_rate", "fraction"),
    ("mem.dram.bytes", "bytes"),
    ("ckpt.write_s", "s"),
    ("ckpt.read_s", "s"),
    ("ckpt.bytes", "bytes"),
    ("ckpt.count", "count"),
    ("exp.fig12_s", "s"),
    ("exp.fig14_s", "s"),
    ("exp.ablations_s", "s"),
    ("exp.renders_s", "s"),
    ("exp.validation_s", "s"),
    ("exp.other_s", "s"),
    ("serve.submit_ms", "ms"),
    ("serve.admission_us_p50", "us"),
    ("serve.preemption_rtt_us_p50", "us"),
    ("serve.preemptions", "count"),
    ("serve.resumes", "count"),
];

/// Seeded input generation: the same seed gives a byte-identical CRSP
/// container, the next seed a different container of similar size.
fn selftest(ctx: &mut Ctx) {
    let encode = |ctx: &mut Ctx, seed: u64| {
        let bundle = pairs::resume_bundle(ctx, pairs::variant(seed));
        let mut bytes = Vec::new();
        crisp_trace::codec::write_bundle(&bundle, &mut bytes).map(|()| bytes)
    };
    let seed = ctx.seed;
    let runs = [seed, seed, seed + 1].map(|s| encode(ctx, s));
    let [Ok(a), Ok(b), Ok(c)] = runs else {
        return ctx.report.check(false, || "encoding failed".into());
    };
    ctx.report
        .check(a == b, || format!("seed {seed}: two containers differ"));
    ctx.report.check(a != c, || {
        format!("seeds {seed} and {}: identical containers", seed + 1)
    });
    let ratio = c.len() as f64 / a.len() as f64;
    ctx.report.check((0.8..1.25).contains(&ratio), || {
        format!(
            "seeds {seed} and {}: container sizes differ {ratio:.3}x",
            seed + 1
        )
    });
    ctx.report.note(format!(
        "selftest: container {} bytes, next seed {} bytes",
        a.len(),
        c.len()
    ));
}
