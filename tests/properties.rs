//! Property-based tests over core data structures and invariants.
//!
//! The workspace carries no external crates, so instead of a proptest-style
//! framework these properties are exercised over many deterministic
//! pseudo-random cases drawn from a seeded xorshift generator. Failures
//! print the case seed so a case can be replayed in isolation.

use crisp_gfx::{batch, FilterMode, Texture, TextureFormat, Vec2};
use crisp_mem::{
    AccessKind, BankMap, CacheCore, CacheGeometry, DataClass, MemReq, ReqToken, StreamId,
    TapConfig, TapController,
};
use crisp_sim::{GpuConfig, GpuSim, PartitionSpec, Simulation};
use crisp_trace::{
    CtaTrace, Instr, KernelTrace, MemAccess, Op, Reg, Space, Stream, StreamKind, TraceBundle,
    WarpTrace,
};

const TOK: ReqToken = ReqToken { sm: 0, id: 0 };

/// A small deterministic PRNG (xorshift64*) for generating test cases.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(2685821657736338717).max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(2685821657736338717)
    }

    /// Uniform in `[lo, hi)`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }

    /// Uniform f32 in `[lo, hi)`.
    fn f32(&mut self, lo: f32, hi: f32) -> f32 {
        lo + (self.next() % (1 << 24)) as f32 / (1 << 24) as f32 * (hi - lo)
    }
}

/// Batching never exceeds the batch size and always covers every triangle
/// exactly once.
#[test]
fn batches_cover_all_triangles() {
    for seed in 0..64u64 {
        let mut rng = Rng::new(seed);
        let n_tris = rng.range(1, 200) as usize;
        let tris: Vec<(u32, u32, u32)> = (0..n_tris)
            .map(|_| {
                (
                    rng.range(0, 64) as u32,
                    rng.range(0, 64) as u32,
                    rng.range(0, 64) as u32,
                )
            })
            .collect();
        let batch_size = rng.range(3, 128) as usize;
        let indices: Vec<u32> = tris.iter().flat_map(|&(a, b, c)| [a, b, c]).collect();
        let batches = batch::vertex_batches(&indices, batch_size);
        let total_prims: usize = batches.iter().map(|b| b.prims.len()).sum();
        assert_eq!(total_prims, tris.len(), "seed {seed}");
        for b in &batches {
            assert!(b.unique.len() <= batch_size, "seed {seed}");
            // Every prim slot refers into the unique list.
            for p in &b.prims {
                for &slot in p {
                    assert!((slot as usize) < b.unique.len(), "seed {seed}");
                }
            }
        }
    }
}

/// Invocation counts are monotonically non-increasing in batch size and
/// bounded by [unique, 3 × prims].
#[test]
fn batching_invocation_bounds() {
    for seed in 0..64u64 {
        let mut rng = Rng::new(seed);
        let n_tris = rng.range(1, 100) as usize;
        let indices: Vec<u32> = (0..3 * n_tris).map(|_| rng.range(0, 32) as u32).collect();
        let small = batch::vs_invocation_count(&indices, 4);
        let big = batch::vs_invocation_count(&indices, 96);
        assert!(
            big <= small,
            "seed {seed}: bigger batches cannot shade more: {big} vs {small}"
        );
        let mut unique = indices.clone();
        unique.sort_unstable();
        unique.dedup();
        assert!(big >= unique.len() as u64, "seed {seed}");
        assert!(small <= indices.len() as u64, "seed {seed}");
    }
}

/// Coalescing equals the obvious algorithm: every lane's chunks, sorted
/// and deduplicated. Lanes come unsorted with repeats, runs of equal
/// addresses and widths that straddle chunk boundaries.
#[test]
fn distinct_chunks_match_a_sort_and_dedup_reference() {
    for seed in 0..256u64 {
        let mut rng = Rng::new(seed);
        let n = rng.range(1, 33) as usize;
        let base = rng.range(0, 1 << 40);
        let spread = [64, 512, 4096, 1 << 20][rng.range(0, 4) as usize];
        let mut addrs: Vec<u64> = Vec::with_capacity(n);
        while addrs.len() < n {
            let a = match (addrs.last(), rng.range(0, 4)) {
                (Some(&prev), 0) => prev,
                (Some(_), 1) => addrs[rng.range(0, addrs.len() as u64) as usize],
                _ => base + rng.range(0, spread),
            };
            addrs.push(a);
        }
        let width = [1u8, 3, 4, 8, 12, 16, 64][rng.range(0, 7) as usize];
        let m = MemAccess::scattered(Space::Tex, DataClass::Texture, width, addrs.clone());
        for chunk in [4u64, 32, 128] {
            let mut want: Vec<u64> = addrs
                .iter()
                .flat_map(|&a| a / chunk..=(a + width as u64 - 1) / chunk)
                .collect();
            want.sort_unstable();
            want.dedup();
            let mut got = vec![u64::MAX]; // stale contents are cleared
            m.view().distinct_chunks_into(chunk, &mut got);
            assert_eq!(got, want, "seed {seed}, chunk {chunk}, width {width}");
        }
    }
}

/// Coalescing: distinct chunk count is bounded by lane count and chunk
/// arithmetic is consistent across granularities.
#[test]
fn mem_access_chunking() {
    for seed in 0..64u64 {
        let mut rng = Rng::new(seed);
        let n = rng.range(1, 32) as usize;
        let addrs: Vec<u64> = (0..n).map(|_| rng.range(0, 1_000_000)).collect();
        let width = [1u8, 4, 8, 16][rng.range(0, 4) as usize];
        let m = MemAccess::scattered(Space::Global, DataClass::Compute, width, addrs.clone());
        let (mut sectors, mut lines) = (Vec::new(), Vec::new());
        m.view().distinct_chunks_into(32, &mut sectors);
        m.view().distinct_chunks_into(128, &mut lines);
        assert!(!sectors.is_empty(), "seed {seed}");
        assert!(
            lines.len() <= sectors.len(),
            "seed {seed}: lines cannot outnumber sectors"
        );
        assert!(
            sectors.len() <= addrs.len() * 2,
            "seed {seed}: a lane touches at most 2 sectors"
        );
        // Every sector's line must appear in the line set.
        for s in &sectors {
            assert!(lines.contains(&(s * 32 / 128)), "seed {seed}");
        }
    }
}

/// Cache invariant: after a fill, reading the same sector hits, and the
/// composition never exceeds capacity.
#[test]
fn cache_fill_then_hit() {
    for seed in 0..32u64 {
        let mut rng = Rng::new(seed);
        let mut c = CacheCore::new(CacheGeometry {
            size_bytes: 16 << 10,
            assoc: 4,
        });
        let w = (0, c.num_sets());
        let n = rng.range(1, 200);
        for _ in 0..n {
            let a = rng.range(0, 1 << 20);
            let r = MemReq::read(a, StreamId(0), DataClass::Compute, TOK);
            let _ = c.access(&r, AccessKind::Read, w);
            let _ = c.fill(
                r.line_addr(),
                r.sector_in_line(),
                StreamId(0),
                DataClass::Compute,
                false,
                w,
            );
            // Immediately after the fill the sector must be present.
            let again = c.access(&r, AccessKind::Read, w);
            assert_eq!(again, crisp_mem::AccessOutcome::Hit, "seed {seed}");
        }
        let comp = c.composition();
        assert!(comp.valid_lines() <= comp.capacity_lines, "seed {seed}");
    }
}

/// TAP windows always tile the bank exactly, regardless of workload.
#[test]
fn tap_windows_always_tile() {
    for seed in 0..32u64 {
        let mut rng = Rng::new(seed);
        let sets = rng.range(8, 128);
        let cfg = TapConfig {
            epoch_accesses: 500,
            sample_every: 1,
            min_sets: 1,
        };
        let mut t = TapController::new(vec![StreamId(0), StreamId(1)], sets, 16, cfg);
        let n = rng.range(0, 3000);
        for _ in 0..n {
            let s = rng.range(0, 2) as u32;
            let line = rng.range(0, 4096);
            t.observe(StreamId(s), line * 128);
        }
        let alloc = t.allocation();
        let total: u64 = alloc.iter().map(|(_, n)| n).sum();
        assert_eq!(total, sets, "seed {seed}");
        for (_, n) in alloc {
            assert!(n >= 1, "seed {seed}: every stream keeps its floor");
        }
        // Windows are contiguous and disjoint.
        let (s0, n0) = t.window(StreamId(0));
        let (s1, n1) = t.window(StreamId(1));
        assert_eq!(s0, 0, "seed {seed}");
        assert_eq!(s1, n0, "seed {seed}");
        assert_eq!(n0 + n1, sets, "seed {seed}");
    }
}

/// Bank maps always return a bank the stream is allowed to use.
#[test]
fn bank_map_respects_masks() {
    for seed in 0..256u64 {
        let mut rng = Rng::new(seed);
        let addr = rng.range(0, 1 << 30);
        let n_banks = rng.range(2, 32) as u32;
        let a = StreamId(0);
        let b = StreamId(1);
        let m = BankMap::mig_even_split(n_banks, a, b);
        let ba = m.bank_of(a, addr);
        let bb = m.bank_of(b, addr);
        assert!(m.banks_for(a).contains(&ba), "seed {seed}");
        assert!(m.banks_for(b).contains(&bb), "seed {seed}");
        assert_ne!(
            ba, bb,
            "seed {seed}: even split keeps the streams on disjoint banks"
        );
    }
}

/// Texture sampling never produces addresses outside the texture's
/// allocation, at any LoD, for any UV.
#[test]
fn texture_samples_stay_in_bounds() {
    for seed in 0..128u64 {
        let mut rng = Rng::new(seed);
        let u = rng.f32(-4.0, 4.0);
        let v = rng.f32(-4.0, 4.0);
        let lod = rng.f32(0.0, 12.0);
        let size = 1u32 << rng.range(2, 9);
        let base = 0x10_0000u64;
        let t = Texture::new(
            "t",
            size,
            size,
            1,
            TextureFormat::Rgba8,
            FilterMode::Bilinear,
            base,
        );
        for addr in t.sample_addrs(Vec2::new(u, v), lod, 0, false) {
            assert!(addr >= base, "seed {seed}");
            assert!(addr < base + t.size_bytes(), "seed {seed}");
        }
    }
}

/// Higher LoD never increases the distinct-texel footprint of a fixed set
/// of UVs (the Figure 7 merging property, generalised).
#[test]
fn mip_levels_monotonically_merge() {
    for seed in 0..32u64 {
        let mut rng = Rng::new(seed);
        let n = rng.range(4, 32);
        let uvs: Vec<(f32, f32)> = (0..n)
            .map(|_| (rng.f32(0.0, 1.0), rng.f32(0.0, 1.0)))
            .collect();
        let t = Texture::new(
            "t",
            256,
            256,
            1,
            TextureFormat::Rgba8,
            FilterMode::Nearest,
            0,
        );
        let mut prev = usize::MAX;
        for level in 0..t.levels() {
            let mut addrs: Vec<u64> = uvs
                .iter()
                .flat_map(|&(u, v)| t.sample_addrs(Vec2::new(u, v), level as f32, 0, false))
                .collect();
            addrs.sort_unstable();
            addrs.dedup();
            assert!(
                addrs.len() <= prev,
                "seed {seed}: level {level} has {} texels, previous had {prev}",
                addrs.len()
            );
            prev = addrs.len();
        }
        // The top level is a single texel.
        assert_eq!(prev, 1, "seed {seed}");
    }
}

/// Build a random-but-valid warp trace from a recipe of (kind, value) pairs.
fn warp_from_recipe(ops: &[(u8, u64)], cta_id: u64) -> WarpTrace {
    let mut w = WarpTrace::new();
    for (i, &(kind, val)) in ops.iter().enumerate() {
        let dst = Reg(1 + (i % 20) as u16);
        match kind % 6 {
            0 => w.push(Instr::alu(Op::FpFma, dst, &[Reg(1 + (val % 20) as u16)])),
            1 => w.push(Instr::alu(Op::IntAlu, dst, &[])),
            2 => w.push(Instr::alu(Op::Sfu, dst, &[Reg(1 + (val % 20) as u16)])),
            3 => w.push(Instr::load(
                dst,
                MemAccess::coalesced(
                    Space::Global,
                    DataClass::Compute,
                    4,
                    (cta_id * 0x1_0000 + val % 0x8000) & !3,
                    32,
                ),
            )),
            4 => w.push(Instr::store(
                Reg(1 + (val % 20) as u16),
                MemAccess::coalesced(
                    Space::Global,
                    DataClass::Compute,
                    4,
                    (0x100_0000 + (cta_id * 0x1_0000 + val % 0x8000)) & !3,
                    32,
                ),
            )),
            _ => w.push(Instr::load(
                dst,
                MemAccess::coalesced(Space::Shared, DataClass::Compute, 4, 0, 32),
            )),
        }
    }
    w.seal();
    w
}

/// Draw a random kernel recipe: (warp recipe, warps per CTA, CTAs, regs).
fn random_kernel(rng: &mut Rng, max_ops: u64) -> (Vec<(u8, u64)>, usize, usize, u32) {
    let n_ops = rng.range(1, max_ops) as usize;
    let recipe: Vec<(u8, u64)> = (0..n_ops)
        .map(|_| (rng.range(0, 6) as u8, rng.range(0, 1_000_000)))
        .collect();
    (
        recipe,
        rng.range(1, 4) as usize,
        rng.range(1, 6) as usize,
        rng.range(8, 48) as u32,
    )
}

/// Fuzz: any structurally-valid kernel mix must run to completion on the
/// simulator without deadlock or panic, and conservation laws must hold
/// (CTAs committed == CTAs launched, instructions issued == trace
/// instructions).
#[test]
fn random_kernels_always_complete() {
    for seed in 0..16u64 {
        let mut rng = Rng::new(seed);
        let mut stream = Stream::new(StreamId(0), StreamKind::Compute);
        let mut expected_instrs = 0u64;
        let mut expected_ctas = 0u64;
        let n_kernels = rng.range(1, 4);
        for ki in 0..n_kernels {
            let (recipe, warps, ctas, regs) = random_kernel(&mut rng, 40);
            let ctav: Vec<CtaTrace> = (0..ctas)
                .map(|c| {
                    CtaTrace::new(
                        (0..warps)
                            .map(|_| warp_from_recipe(&recipe, c as u64))
                            .collect(),
                    )
                })
                .collect();
            let k = KernelTrace::new(format!("fuzz{ki}"), 32 * warps as u32, regs, 0, ctav);
            expected_instrs += k.instr_count() as u64;
            expected_ctas += k.grid() as u64;
            stream.launch(k);
        }
        let r = Simulation::builder()
            .gpu(GpuConfig::test_tiny())
            .occupancy_interval(0)
            .trace(TraceBundle::from_streams(vec![stream]))
            .run_or_panic();
        let st = &r.per_stream[&StreamId(0)].stats;
        assert_eq!(
            st.instructions, expected_instrs,
            "seed {seed}: every instruction must issue"
        );
        assert_eq!(st.ctas, expected_ctas, "seed {seed}: every CTA must commit");
        assert!(st.finish_cycle > 0, "seed {seed}");
    }
}

/// Codec: any bundle the fuzz generator produces survives a binary round
/// trip bit-exactly.
#[test]
fn codec_roundtrips_random_bundles() {
    for seed in 0..32u64 {
        let mut rng = Rng::new(seed);
        let mut stream = Stream::new(StreamId(7), StreamKind::Compute);
        let marker_len = rng.range(0, 13) as usize;
        let marker: String = (0..marker_len)
            .map(|_| (b'a' + rng.range(0, 26) as u8) as char)
            .collect();
        stream.marker(marker);
        let n_kernels = rng.range(1, 3);
        for ki in 0..n_kernels {
            let (recipe, warps, ctas, regs) = random_kernel(&mut rng, 20);
            let ctav: Vec<CtaTrace> = (0..ctas.min(3))
                .map(|c| {
                    CtaTrace::new(
                        (0..warps.min(2))
                            .map(|_| warp_from_recipe(&recipe, c as u64))
                            .collect(),
                    )
                })
                .collect();
            stream.launch(KernelTrace::new(
                format!("k{ki}"),
                32 * warps as u32,
                regs,
                0,
                ctav,
            ));
        }
        let bundle = TraceBundle::from_streams(vec![stream]);
        let mut buf = Vec::new();
        crisp_trace::codec::write_bundle(&bundle, &mut buf).expect("write");
        let back = crisp_trace::TraceInput::reader(std::io::Cursor::new(buf))
            .open()
            .and_then(|mut s| s.to_bundle())
            .expect("read");
        assert_eq!(bundle, back, "seed {seed}");
    }
}

/// Streaming: demand-paging CTAs out of an indexed container in a random
/// fetch/release order reproduces every CTA bit-exactly, and the resident
/// window shrinks back as CTAs are released.
#[test]
fn streaming_source_pages_random_bundles_bit_exactly() {
    use crisp_trace::{KernelId, TraceInput};
    for seed in 0..16u64 {
        let mut rng = Rng::new(seed.wrapping_add(100));
        let mut stream = Stream::new(StreamId(1), StreamKind::Compute);
        let n_kernels = rng.range(1, 4);
        for ki in 0..n_kernels {
            let (recipe, warps, ctas, regs) = random_kernel(&mut rng, 16);
            let ctav: Vec<CtaTrace> = (0..ctas.clamp(1, 5))
                .map(|c| {
                    CtaTrace::new(
                        (0..warps.min(2))
                            .map(|_| warp_from_recipe(&recipe, c as u64))
                            .collect(),
                    )
                })
                .collect();
            stream.launch(KernelTrace::new(
                format!("k{ki}"),
                32 * warps as u32,
                regs,
                0,
                ctav,
            ));
        }
        let bundle = TraceBundle::from_streams(vec![stream]);
        let mut buf = Vec::new();
        crisp_trace::codec::write_bundle(&bundle, &mut buf).expect("write");
        let mut src = TraceInput::reader(std::io::Cursor::new(buf))
            .open()
            .expect("open");
        assert!(src.is_streaming(), "seed {seed}: v2 containers stream");

        // Fetch every (kernel, cta) pair in a seeded random order, comparing
        // against the materialized original, releasing as we go.
        let mut pairs: Vec<(u32, usize)> = Vec::new();
        let kernels: Vec<&KernelTrace> = bundle.streams[0].kernels().collect();
        for (ki, k) in kernels.iter().enumerate() {
            for ci in 0..k.ctas.len() {
                pairs.push((ki as u32, ci));
            }
        }
        for i in (1..pairs.len()).rev() {
            pairs.swap(i, rng.range(0, (i + 1) as u64) as usize);
        }
        for &(ki, ci) in &pairs {
            let cta = src.fetch_cta(KernelId(ki), ci).expect("fetch");
            assert_eq!(cta, kernels[ki as usize].ctas[ci], "seed {seed}");
            src.release_cta(KernelId(ki), ci);
        }
        assert_eq!(
            src.stats().resident_ctas,
            0,
            "seed {seed}: every fetch was released"
        );
        assert_eq!(
            src.stats().ctas_decoded as usize,
            pairs.len(),
            "seed {seed}"
        );
    }
}

/// A corrupted CTA index — spans pointing out of bounds, spans overlapping,
/// or an index that disagrees with the payload — must fail `open()` with
/// `Err`, never a panic and never a bogus decode.
#[test]
fn corrupt_cta_index_is_rejected_at_open() {
    let mut rng = Rng::new(23);
    let mut stream = Stream::new(StreamId(0), StreamKind::Compute);
    let (recipe, warps, _, regs) = random_kernel(&mut rng, 16);
    let ctav: Vec<CtaTrace> = (0..4)
        .map(|c| {
            CtaTrace::new(
                (0..warps.min(2))
                    .map(|_| warp_from_recipe(&recipe, c as u64))
                    .collect(),
            )
        })
        .collect();
    stream.launch(KernelTrace::new("k", 32 * warps as u32, regs, 0, ctav));
    let bundle = TraceBundle::from_streams(vec![stream]);

    type Mutation = (
        &'static str,
        fn(usize, (u64, u64)) -> (u64, u64),
        &'static [u8],
    );
    let cases: [Mutation; 4] = [
        (
            "span offset past the payload",
            |_, (_, len)| (u64::MAX / 2, len),
            &[],
        ),
        (
            "span length past the payload",
            |_, (off, _)| (off, u64::MAX / 2),
            &[],
        ),
        (
            "overlapping spans",
            |i, (off, len)| {
                if i == 1 {
                    (off.saturating_sub(1), len)
                } else {
                    (off, len)
                }
            },
            &[],
        ),
        ("payload bytes no span covers", |_, s| s, b"trailing-junk"),
    ];
    for (what, mutate, pad) in cases {
        let mut buf = Vec::new();
        crisp_trace::codec::write_bundle_mutated(&bundle, &mut buf, mutate, pad).expect("write");
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            crisp_trace::TraceInput::reader(std::io::Cursor::new(buf))
                .open()
                .and_then(|mut s| s.to_bundle())
        }));
        let decoded = result.unwrap_or_else(|_| panic!("{what}: panicked"));
        assert!(decoded.is_err(), "{what}: must be rejected with Err");
    }

    // A directory whose payload runs past the end of the container: the
    // last span claims 1 MiB more than its blob, and the bytes that would
    // cover it are cut off. `open` itself refuses it, before any span
    // buffer is sized from the claim.
    const MISSING: u64 = 1 << 20;
    let last = 3; // the fourth and last CTA
    let mut buf = Vec::new();
    crisp_trace::codec::write_bundle_mutated(
        &bundle,
        &mut buf,
        |i, (off, len)| {
            if i == last {
                (off, len + MISSING)
            } else {
                (off, len)
            }
        },
        &vec![0; MISSING as usize],
    )
    .expect("write");
    buf.truncate(buf.len() - MISSING as usize);
    let err = crisp_trace::TraceInput::reader(std::io::Cursor::new(buf))
        .open()
        .expect_err("a payload past the end of the container must be refused at open");
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "{err}");
}

/// Shared corruption harness for binary readers: every strided truncation
/// of a valid byte image must be rejected with `Err`, and every single-bit
/// flip must either decode or error — never panic or allocate unboundedly.
/// Both the `CRSP` trace codec and the `CKPT` checkpoint reader are held to
/// this contract.
fn assert_reader_robust<T>(bytes: &[u8], read: impl Fn(&[u8]) -> std::io::Result<T>, what: &str) {
    assert!(read(bytes).is_ok(), "{what}: pristine bytes must decode");
    let stride = (bytes.len() / 64).max(1);
    for cut in (0..bytes.len()).step_by(stride) {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            read(&bytes[..cut]).is_err()
        }));
        let rejected = result
            .unwrap_or_else(|_| panic!("{what}: truncation at {cut}/{} panicked", bytes.len()));
        assert!(rejected, "{what}: truncation at {cut} must be rejected");
    }
    for i in (0..bytes.len()).step_by(stride) {
        for bit in [0u8, 3, 7] {
            let mut flipped = bytes.to_vec();
            flipped[i] ^= 1 << bit;
            // A flipped payload byte may still decode to different-but-valid
            // data; the contract is only that it never panics or OOMs.
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _ = read(&flipped);
            }));
            assert!(
                result.is_ok(),
                "{what}: bit flip at byte {i} bit {bit} panicked"
            );
        }
    }
}

/// Corrupt `CRSP` bundles must be rejected with `Err`, never a panic.
#[test]
fn corrupt_trace_bundles_are_rejected_not_fatal() {
    let mut rng = Rng::new(11);
    let mut stream = Stream::new(StreamId(3), StreamKind::Compute);
    stream.marker("phase");
    for ki in 0..2 {
        let (recipe, warps, ctas, regs) = random_kernel(&mut rng, 20);
        let ctav: Vec<CtaTrace> = (0..ctas.min(3))
            .map(|c| {
                CtaTrace::new(
                    (0..warps.min(2))
                        .map(|_| warp_from_recipe(&recipe, c as u64))
                        .collect(),
                )
            })
            .collect();
        stream.launch(KernelTrace::new(
            format!("k{ki}"),
            32 * warps as u32,
            regs,
            0,
            ctav,
        ));
    }
    let bundle = TraceBundle::from_streams(vec![stream]);
    let mut bytes = Vec::new();
    crisp_trace::codec::write_bundle(&bundle, &mut bytes).expect("write");
    assert_reader_robust(
        &bytes,
        |b| {
            crisp_trace::TraceInput::reader(std::io::Cursor::new(b.to_vec()))
                .open()
                .and_then(|mut s| s.to_bundle())
        },
        "CRSP bundle",
    );
}

/// A stream of two random kernels.
fn random_stream(rng: &mut Rng, id: StreamId, kind: StreamKind) -> Stream {
    let mut stream = Stream::new(id, kind);
    for ki in 0..2 {
        let (recipe, warps, ctas, regs) = random_kernel(rng, 30);
        let ctav: Vec<CtaTrace> = (0..ctas)
            .map(|c| {
                CtaTrace::new(
                    (0..warps)
                        .map(|_| warp_from_recipe(&recipe, c as u64))
                        .collect(),
                )
            })
            .collect();
        stream.launch(KernelTrace::new(
            format!("k{ki}"),
            32 * warps as u32,
            regs,
            0,
            ctav,
        ));
    }
    stream
}

/// Corrupt `CKPT` checkpoints must be rejected with `Err`, never a panic —
/// including mid-run images with live warps, caches, and telemetry. A
/// flipped image that *does* decode must also run without panicking: every
/// restored index, count and trace payload is validated at restore.
#[test]
fn corrupt_checkpoints_are_rejected_not_fatal() {
    let mut rng = Rng::new(5);
    let stream = random_stream(&mut rng, StreamId(0), StreamKind::Compute);
    let mut sim = Simulation::builder()
        .gpu(GpuConfig::test_tiny())
        .telemetry(crisp_sim::Telemetry::FULL)
        .occupancy_interval(20)
        .composition_interval(30)
        .counter_interval(25)
        .trace(TraceBundle::from_streams(vec![stream]))
        .try_build()
        .unwrap();
    sim.run_until(60).unwrap();
    let mut bytes = Vec::new();
    sim.write_checkpoint(&mut bytes).expect("serialize");
    assert_reader_robust(
        &bytes,
        |b| {
            let mut sim = GpuSim::read_checkpoint(b)?;
            // Simulation errors (deadlock, budget) are fine; panics are not.
            let _ = sim.run_until(1_500);
            Ok(())
        },
        "CKPT checkpoint",
    );
}

/// Every partition policy, at cycles drawn from the test `Rng`: a
/// checkpoint re-serializes byte for byte after a read, and the run
/// resumed from it matches the uninterrupted run in every export.
#[test]
fn checkpoints_roundtrip_and_resume_under_every_policy() {
    use crisp_sim::{L2Policy, SlicerConfig, Telemetry};
    let gpu = GpuConfig::test_tiny();
    let (a, b) = (StreamId(0), StreamId(1));
    let tap = TapConfig {
        epoch_accesses: 100,
        sample_every: 1,
        min_sets: 1,
    };
    let slicer = SlicerConfig {
        sample_cycles: 150,
        ratios: vec![(2, 8), (4, 8), (6, 8)],
    };
    let specs = [
        (PartitionSpec::greedy(), None),
        (PartitionSpec::mps_even(&gpu, a, b), None),
        (PartitionSpec::mig_even(&gpu, a, b), None),
        (PartitionSpec::fg_even(&gpu, a, b), None),
        (PartitionSpec::fg_dynamic(slicer), None),
        (PartitionSpec::tap_even(&gpu, a, b, tap), None),
        (
            PartitionSpec::mps_even(&gpu, a, b),
            Some(L2Policy::BankSplit),
        ),
    ];
    let mut rng = Rng::new(41);
    let bundle = TraceBundle::from_streams(vec![
        random_stream(&mut rng, a, StreamKind::Graphics),
        random_stream(&mut rng, b, StreamKind::Compute),
    ]);
    let fingerprint =
        |r: &crisp_sim::SimResult| (format!("{r:?}"), r.metrics_csv(), r.chrome_trace_json());
    for (i, (spec, l2)) in specs.into_iter().enumerate() {
        let build = || {
            let mut builder = Simulation::builder()
                .gpu(gpu.clone())
                .partition(spec.clone())
                .telemetry(Telemetry::FULL)
                .occupancy_interval(30)
                .composition_interval(70)
                .counter_interval(50)
                .trace(bundle.clone());
            if let Some(l2) = l2.clone() {
                builder = builder.l2(l2);
            }
            builder.try_build().unwrap()
        };
        let full = build().run_or_panic();
        let want = fingerprint(&full);
        for _ in 0..3 {
            let cycle = rng.range(1, full.cycles);
            let mut sim = build();
            assert!(!sim.run_until(cycle).unwrap(), "spec {i} @ {cycle}");
            let mut bytes = Vec::new();
            sim.write_checkpoint(&mut bytes).expect("serialize");
            let mut resumed = GpuSim::read_checkpoint(bytes.as_slice()).expect("deserialize");
            let mut again = Vec::new();
            resumed.write_checkpoint(&mut again).expect("re-serialize");
            assert!(
                again == bytes,
                "spec {i} @ {cycle}: write(read(bytes)) != bytes"
            );
            let got = fingerprint(&resumed.run_or_panic());
            assert_eq!(got.0, want.0, "spec {i} @ {cycle}: SimResult");
            assert_eq!(got.1, want.1, "spec {i} @ {cycle}: metrics CSV");
            assert_eq!(got.2, want.2, "spec {i} @ {cycle}: Chrome trace");
        }
    }
}

/// Fuzz: any two-stream intra-SM quota split (both sides >= 1/8) lets both
/// streams finish — no placement deadlock for any ratio.
#[test]
fn any_fg_ratio_completes() {
    for num in 1u32..8 {
        let gpu = GpuConfig::test_tiny();
        let spec = PartitionSpec::fg_fractions(
            &gpu,
            [(StreamId(0), (num, 8)), (StreamId(1), (8 - num, 8))],
        );
        let mk = |name: &str| {
            let recipe: Vec<(u8, u64)> = (0..10).map(|i| ((i % 6) as u8, i as u64 * 37)).collect();
            let ctav: Vec<CtaTrace> = (0..4)
                .map(|c| CtaTrace::new(vec![warp_from_recipe(&recipe, c as u64); 2]))
                .collect();
            KernelTrace::new(name, 64, 16, 0, ctav)
        };
        let mut a = Stream::new(StreamId(0), StreamKind::Graphics);
        a.launch(mk("a"));
        let mut b = Stream::new(StreamId(1), StreamKind::Compute);
        b.launch(mk("b"));
        let r = Simulation::builder()
            .gpu(gpu)
            .partition(spec)
            .trace(TraceBundle::from_streams(vec![a, b]))
            .run_or_panic();
        assert_eq!(r.per_stream[&StreamId(0)].stats.ctas, 4, "ratio {num}/8");
        assert_eq!(r.per_stream[&StreamId(1)].stats.ctas, 4, "ratio {num}/8");
    }
}
