//! Golden `CKPT` fixtures: one committed checkpoint per partition policy,
//! taken mid-run on a tiny two-stream workload with full telemetry.
//!
//! The fixtures pin the checkpoint *format*. Any change to how a component
//! serializes itself — field order, integer width, collection encoding —
//! fails here, before it can strand checkpoints written by older builds.
//! Each fixture must:
//!
//! * (a) re-serialize byte for byte after a read;
//! * (b) be reproduced exactly by re-running the same build to the same
//!   cycle;
//! * (c) resume to the same result and exports as an uninterrupted run.
//!
//! The workload embeds its trace container in the checkpoint, so every
//! fixture is self-contained. Regenerate the files (only after an
//! intentional format change, together with a `crisp_ckpt::VERSION` bump)
//! with `cargo test --test checkpoint_golden -- --ignored`.

use std::path::PathBuf;

use crisp_core::prelude::*;
use crisp_trace::{CtaTrace, Instr, KernelTrace, MemAccess, Op, Reg, Space, WarpTrace};

const A: StreamId = StreamId(0);
const B: StreamId = StreamId(1);

/// The cycle every fixture is taken at: mid-run for every policy.
const CKPT_CYCLE: u64 = 700;

/// Fixtures stay small enough to review and to keep in the repository.
const MAX_FIXTURE_BYTES: usize = 64 << 10;

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/ckpt")
}

/// One warp of a graphics-style kernel: texture fetches, math, and
/// pipeline stores.
fn graphics_warp(cta: u64, w: u64) -> WarpTrace {
    let mut t = WarpTrace::new();
    for i in 0..8u64 {
        let base = 0x40_0000 + (cta * 8 + w) * 0x400 + i * 0x80;
        t.push(Instr::load(
            Reg(1 + (i % 6) as u16),
            MemAccess::coalesced(Space::Tex, DataClass::Texture, 4, base, 32),
        ));
        t.push(Instr::alu(Op::FpFma, Reg(8), &[Reg(1 + (i % 6) as u16)]));
        if i % 4 == 3 {
            t.push(Instr::store(
                Reg(8),
                MemAccess::coalesced(Space::Global, DataClass::Pipeline, 4, 0x80_0000 + base, 32),
            ));
        }
    }
    t.seal();
    t
}

/// One warp of a compute kernel: global loads, shared-memory traffic
/// between two barriers, SFU work and a store.
fn compute_warp(cta: u64, w: u64) -> WarpTrace {
    let mut t = WarpTrace::new();
    for i in 0..6u64 {
        let base = 0x100_0000 + cta * 0x2000 + w * 0x200 + i * 0x40;
        t.push(Instr::load(
            Reg(1 + i as u16),
            MemAccess::coalesced(Space::Global, DataClass::Compute, 4, base, 32),
        ));
    }
    t.push(Instr::bar());
    t.push(Instr::load(
        Reg(9),
        MemAccess::coalesced(Space::Shared, DataClass::Compute, 4, w * 128, 32),
    ));
    t.push(Instr::alu(Op::Sfu, Reg(10), &[Reg(9), Reg(1)]));
    t.push(Instr::bar_at(1));
    t.push(Instr::alu(Op::IntAlu, Reg(11), &[Reg(10)]));
    t.push(Instr::store(
        Reg(11),
        MemAccess::coalesced(
            Space::Global,
            DataClass::Compute,
            4,
            0x200_0000 + cta * 0x100,
            32,
        ),
    ));
    t.seal();
    t
}

fn kernel(
    name: &str,
    ctas: u64,
    warps: u64,
    smem: u32,
    warp: fn(u64, u64) -> WarpTrace,
) -> KernelTrace {
    let ctav = (0..ctas)
        .map(|c| CtaTrace::new((0..warps).map(|w| warp(c, w)).collect()))
        .collect();
    KernelTrace::new(name, 32 * warps as u32, 24, smem, ctav)
}

fn bundle() -> TraceBundle {
    let mut g = Stream::new(A, StreamKind::Graphics);
    g.launch(kernel("geometry", 4, 2, 0, graphics_warp));
    g.marker("mid");
    g.launch(kernel("shade", 4, 2, 0, graphics_warp));
    let mut c = Stream::new(B, StreamKind::Compute);
    c.launch(kernel("reduce", 6, 3, 2048, compute_warp));
    c.launch(kernel("scan", 4, 2, 1024, compute_warp));
    TraceBundle::from_streams(vec![g, c])
}

/// Every partition policy the checkpoint format must round-trip, by name.
fn cases() -> Vec<(&'static str, PartitionSpec, Option<L2Policy>)> {
    let gpu = GpuConfig::test_tiny();
    let slicer = SlicerConfig {
        sample_cycles: 120,
        ratios: vec![(2, 8), (4, 8), (6, 8)],
    };
    let tap = TapConfig {
        epoch_accesses: 100,
        sample_every: 1,
        min_sets: 1,
    };
    vec![
        ("greedy", PartitionSpec::greedy(), None),
        ("mps_even", PartitionSpec::mps_even(&gpu, A, B), None),
        ("mig_even", PartitionSpec::mig_even(&gpu, A, B), None),
        ("fg_even", PartitionSpec::fg_even(&gpu, A, B), None),
        ("fg_dynamic", PartitionSpec::fg_dynamic(slicer), None),
        ("tap_even", PartitionSpec::tap_even(&gpu, A, B, tap), None),
        (
            "mps_even_bank_split",
            PartitionSpec::mps_even(&gpu, A, B),
            Some(L2Policy::BankSplit),
        ),
    ]
}

fn build(spec: PartitionSpec, l2: Option<L2Policy>) -> GpuSim {
    let mut b = Simulation::builder()
        .gpu(GpuConfig::test_tiny())
        .partition(spec)
        .telemetry(Telemetry::FULL)
        .occupancy_interval(40)
        .composition_interval(150)
        .counter_interval(60)
        .trace(bundle());
    if let Some(l2) = l2 {
        b = b.l2(l2);
    }
    b.try_build().unwrap()
}

/// Run a fresh simulation of `case` to [`CKPT_CYCLE`] and serialize it.
fn checkpoint_at_cycle(spec: PartitionSpec, l2: Option<L2Policy>, name: &str) -> Vec<u8> {
    let mut sim = build(spec, l2);
    let done = sim.run_until(CKPT_CYCLE).expect("run to the checkpoint");
    assert!(
        !done,
        "{name}: the workload must outlast cycle {CKPT_CYCLE}"
    );
    let mut bytes = Vec::new();
    sim.write_checkpoint(&mut bytes).expect("serialize");
    bytes
}

/// Everything a run exports, as text: the full result plus the artifacts
/// users diff (metrics CSV, Chrome trace).
fn fingerprint(r: &SimResult) -> (String, String, String) {
    (format!("{r:?}"), r.metrics_csv(), r.chrome_trace_json())
}

#[test]
fn golden_checkpoints_are_stable() {
    for (name, spec, l2) in cases() {
        let path = fixture_dir().join(format!("{name}.ckpt"));
        let golden = std::fs::read(&path)
            .unwrap_or_else(|e| panic!("{name}: missing fixture {}: {e}", path.display()));
        assert!(
            golden.len() <= MAX_FIXTURE_BYTES,
            "{name}: fixture too large"
        );

        // (a) read → write reproduces the file byte for byte.
        let mut sim = GpuSim::read_checkpoint(golden.as_slice()).expect("golden fixture loads");
        assert_eq!(sim.now(), CKPT_CYCLE, "{name}: checkpoint cycle");
        let mut again = Vec::new();
        sim.write_checkpoint(&mut again).expect("re-serialize");
        assert!(again == golden, "{name}: write(read(f)) != f");

        // (b) the same build, run to the same cycle, writes exactly `f`.
        let fresh = checkpoint_at_cycle(spec.clone(), l2.clone(), name);
        assert!(
            fresh == golden,
            "{name}: a fresh run no longer writes the fixture"
        );

        // (c) resuming from `f` matches an uninterrupted run.
        let full = build(spec, l2).run_or_panic();
        let resumed = sim.run_or_panic();
        let (want, got) = (fingerprint(&full), fingerprint(&resumed));
        assert_eq!(got.0, want.0, "{name}: resumed SimResult");
        assert_eq!(got.1, want.1, "{name}: resumed metrics CSV");
        assert_eq!(got.2, want.2, "{name}: resumed Chrome trace");
    }
}

/// Rewrite every fixture from the current build. Ignored: run it only
/// for an intentional format change.
#[test]
#[ignore]
fn regenerate_golden_checkpoints() {
    std::fs::create_dir_all(fixture_dir()).expect("create fixture dir");
    for (name, spec, l2) in cases() {
        let bytes = checkpoint_at_cycle(spec, l2, name);
        assert!(
            bytes.len() <= MAX_FIXTURE_BYTES,
            "{name}: {} bytes",
            bytes.len()
        );
        std::fs::write(fixture_dir().join(format!("{name}.ckpt")), &bytes).expect("write fixture");
    }
}
