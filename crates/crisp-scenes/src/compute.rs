//! XR compute workloads (paper Section V-B), expressed as synthetic kernel
//! traces with the documented behavioural signatures:
//!
//! * **VIO** — visual-inertial odometry: "consists of many small kernels"
//!   (grayscale, Gaussian pyramid, FAST corner detection, undistortion,
//!   Lucas–Kanade optical flow per pyramid level). Integer-heavy stencils
//!   and gathers over camera images; small grids.
//! * **HOLO** — hologram generation: "heavily compute-bounded"; long FMA +
//!   SFU (sin/cos) chains per point, very little memory traffic, so it
//!   saturates FP units and starves of nothing else.
//! * **NN** — RITnet principal kernels at batch size 2: memory-bound
//!   convolutions plus shared-memory GEMMs ("MatMul kernels use shared
//!   memory extensively"), with low occupancy (the batch is fixed at one
//!   image per eye).

use crisp_gfx::AddressAllocator;
use crisp_trace::{
    CtaTrace, DataClass, Instr, KernelTrace, MemAccess, Op, Reg, Space, Stream, StreamId,
    StreamKind, WarpTrace, WARP_SIZE,
};

/// Base of the compute address region (clear of the graphics regions).
const COMPUTE_BASE: u64 = 0x6000_0000;

/// Scales grid sizes of the compute workloads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComputeScale {
    /// Grid-size multiplier (1.0 = default evaluation size).
    pub factor: f32,
}

impl Default for ComputeScale {
    fn default() -> Self {
        ComputeScale { factor: 1.0 }
    }
}

impl ComputeScale {
    /// A scale for quick tests.
    pub fn tiny() -> Self {
        ComputeScale { factor: 0.15 }
    }

    fn ctas(&self, base: usize) -> usize {
        ((base as f32 * self.factor) as usize).max(1)
    }
}

/// Deterministic mixing hash for gather addresses.
fn mix(a: u64, b: u64) -> u64 {
    let mut x = a.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(b);
    x ^= x >> 31;
    x = x.wrapping_mul(0xBF58476D1CE4E5B9);
    x ^ (x >> 27)
}

/// Destination of the most recent value-producing instruction. The ALU
/// blocks chain through it so every write is observed by a later read —
/// keeps the synthetic traces clean under crisp-analyze's dataflow lints
/// while preserving the instruction mix exactly.
fn last_def(w: &WarpTrace) -> Option<Reg> {
    w.iter().rev().find_map(|i| i.dst)
}

/// Destination of the most recent ALU instruction, skipping memory ops.
/// When a load lands between two ALU blocks, `last_def` points at the
/// load's register, so the first op of the new block also reads the old
/// block's tail through this — otherwise that tail is a dead write.
fn last_alu_def(w: &WarpTrace) -> Option<Reg> {
    w.iter()
        .rev()
        .filter(|i| i.mem.is_none())
        .find_map(|i| i.dst)
}

/// Emit `n` FMA-class ops with rotating destinations, each consuming the
/// previous result (one dependence chain through r10..r19).
fn fp_block(w: &mut WarpTrace, n: u32) {
    for i in 0..n {
        let prev = last_def(w).unwrap_or(Reg(2));
        let first = if i == 0 {
            last_alu_def(w).unwrap_or(Reg(2))
        } else {
            Reg(2)
        };
        w.push(Instr::alu(
            Op::FpFma,
            Reg(10 + (i % 10) as u16),
            &[first, prev],
        ));
    }
}

fn int_block(w: &mut WarpTrace, n: u32) {
    for i in 0..n {
        let prev = last_def(w).unwrap_or(Reg(2));
        w.push(Instr::alu(
            Op::IntAlu,
            Reg(24 + (i % 4) as u16),
            &[Reg(2), prev],
        ));
    }
}

fn sfu_block(w: &mut WarpTrace, n: u32) {
    for i in 0..n {
        let prev = last_def(w).unwrap_or(Reg(2));
        w.push(Instr::alu(Op::Sfu, Reg(6 + (i % 2) as u16), &[prev]));
    }
}

/// Visual-inertial odometry: a 3-level image pyramid, four CV kernels per
/// level plus setup — a dozen small kernel launches per frame.
pub fn vio(stream: StreamId, scale: ComputeScale) -> Stream {
    let mut s = Stream::new(stream, StreamKind::Compute);
    let img = COMPUTE_BASE;
    let pitch = 1024u64; // bytes per image row

    s.marker("vio:frame");
    s.launch(grayscale_kernel(img, pitch, scale.ctas(16)));
    for level in 0..3u32 {
        let lvl_ctas = scale.ctas(16 >> level);
        let lvl_img = img + level as u64 * 0x80_0000;
        s.launch(gaussian_kernel(level, lvl_img, pitch >> level, lvl_ctas));
        s.launch(fast9_kernel(level, lvl_img, pitch >> level, lvl_ctas));
        s.launch(undistort_kernel(level, lvl_img, lvl_ctas));
        s.launch(optical_flow_kernel(
            level,
            lvl_img,
            pitch >> level,
            lvl_ctas,
        ));
    }
    s.launch(reduce_kernel(img, scale.ctas(2)));
    s
}

fn stencil_warp(
    img: u64,
    pitch: u64,
    cta: usize,
    warp: usize,
    rows: u64,
    int_ops: u32,
    fp_ops: u32,
) -> WarpTrace {
    let mut w = WarpTrace::new();
    let row_base = img + (cta as u64 * 8 + warp as u64 * 2) * pitch;
    for r in 0..rows {
        // Rotate destinations so the row fetches overlap in the LSU.
        // 8 slots cover the deepest stencil (7 rows) without clobbering a
        // still-unread row register.
        w.push(Instr::load(
            Reg(2 + (r % 8) as u16),
            MemAccess::coalesced(
                Space::Global,
                DataClass::Compute,
                1,
                row_base + r * pitch,
                WARP_SIZE,
            ),
        ));
    }
    int_block(&mut w, int_ops);
    fp_block(&mut w, fp_ops);
    w.push(Instr::store(
        Reg(10),
        MemAccess::coalesced(
            Space::Global,
            DataClass::Compute,
            1,
            row_base + 0x40_0000,
            WARP_SIZE,
        ),
    ));
    w.seal();
    w
}

fn grayscale_kernel(img: u64, pitch: u64, ctas: usize) -> KernelTrace {
    let ctav = (0..ctas)
        .map(|c| {
            CtaTrace::new(
                (0..4)
                    .map(|w| stencil_warp(img, pitch, c, w, 1, 8, 6))
                    .collect(),
            )
        })
        .collect();
    KernelTrace::new("vio_grayscale", 128, 24, 0, ctav)
}

fn gaussian_kernel(level: u32, img: u64, pitch: u64, ctas: usize) -> KernelTrace {
    let ctav = (0..ctas)
        .map(|c| {
            CtaTrace::new(
                (0..4)
                    .map(|w| stencil_warp(img, pitch, c, w, 5, 10, 25))
                    .collect(),
            )
        })
        .collect();
    KernelTrace::new(format!("vio_gauss_l{level}"), 128, 28, 0, ctav)
}

fn fast9_kernel(level: u32, img: u64, pitch: u64, ctas: usize) -> KernelTrace {
    let ctav = (0..ctas)
        .map(|c| {
            CtaTrace::new(
                (0..4)
                    .map(|w| stencil_warp(img, pitch, c, w, 7, 64, 4))
                    .collect(),
            )
        })
        .collect();
    KernelTrace::new(format!("vio_fast9_l{level}"), 128, 32, 0, ctav)
}

fn undistort_kernel(level: u32, img: u64, ctas: usize) -> KernelTrace {
    let ctav = (0..ctas)
        .map(|c| {
            CtaTrace::new(
                (0..4)
                    .map(|wi| {
                        let mut w = WarpTrace::new();
                        // Gather: per-lane addresses from the distortion map.
                        for g in 0..4u64 {
                            let addrs: Vec<u64> = (0..WARP_SIZE as u64)
                                .map(|l| {
                                    img + mix(c as u64 * 64 + wi as u64 * 8 + g, l) % 0x40_0000
                                })
                                .collect();
                            w.push(Instr::load(
                                Reg(2 + g as u16),
                                MemAccess::scattered(Space::Global, DataClass::Compute, 1, addrs),
                            ));
                        }
                        fp_block(&mut w, 24);
                        int_block(&mut w, 8);
                        w.push(Instr::store(
                            Reg(10),
                            MemAccess::coalesced(
                                Space::Global,
                                DataClass::Compute,
                                1,
                                img + 0x50_0000 + (c * 512 + wi * 128) as u64,
                                WARP_SIZE,
                            ),
                        ));
                        w.seal();
                        w
                    })
                    .collect(),
            )
        })
        .collect();
    KernelTrace::new(format!("vio_undistort_l{level}"), 128, 36, 0, ctav)
}

fn optical_flow_kernel(level: u32, img: u64, pitch: u64, ctas: usize) -> KernelTrace {
    let ctav = (0..ctas)
        .map(|c| {
            CtaTrace::new(
                (0..4)
                    .map(|wi| {
                        let mut w = WarpTrace::new();
                        // Window loads from two frames. Destination slots
                        // skip r6/r7 (the SFU rotation) so no row register
                        // is clobbered before the flow math reads it.
                        const WINDOW_REGS: [u16; 8] = [2, 3, 4, 5, 20, 21, 22, 23];
                        for r in 0..4u64 {
                            for frame in 0..2u64 {
                                let base = img
                                    + frame * 0x40_0000
                                    + (c as u64 * 8 + wi as u64 * 2 + r) * pitch;
                                w.push(Instr::load(
                                    Reg(WINDOW_REGS[(r * 2 + frame) as usize]),
                                    MemAccess::coalesced(
                                        Space::Global,
                                        DataClass::Compute,
                                        1,
                                        base,
                                        WARP_SIZE,
                                    ),
                                ));
                            }
                        }
                        // Stage the window in shared memory: each warp owns
                        // a disjoint 256 B tile, so the pre-barrier stores
                        // of sibling warps never overlap.
                        for s in 0..2u16 {
                            w.push(Instr::store(
                                Reg(2 + s),
                                MemAccess::coalesced(
                                    Space::Shared,
                                    DataClass::Compute,
                                    4,
                                    (wi as u64) * 256 + s as u64 * 128,
                                    WARP_SIZE,
                                ),
                            ));
                        }
                        w.push(Instr::bar());
                        // Post-barrier: gather the neighbourhood across all
                        // four tiles (cross-warp reads are ordered by the
                        // barrier above).
                        for g in 0..4u16 {
                            w.push(Instr::load(
                                Reg(24 + g),
                                MemAccess::coalesced(
                                    Space::Shared,
                                    DataClass::Compute,
                                    4,
                                    g as u64 * 256,
                                    WARP_SIZE,
                                ),
                            ));
                        }
                        fp_block(&mut w, 60);
                        sfu_block(&mut w, 4);
                        w.push(Instr::store(
                            Reg(10),
                            MemAccess::coalesced(
                                Space::Global,
                                DataClass::Compute,
                                4,
                                img + 0x60_0000 + (c * 512 + wi * 128) as u64,
                                WARP_SIZE,
                            ),
                        ));
                        w.seal();
                        w
                    })
                    .collect(),
            )
        })
        .collect();
    KernelTrace::new(format!("vio_flow_l{level}"), 128, 40, 4096, ctav)
}

fn reduce_kernel(img: u64, ctas: usize) -> KernelTrace {
    let ctav = (0..ctas)
        .map(|c| {
            CtaTrace::new(
                (0..2)
                    .map(|wi| {
                        let mut w = WarpTrace::new();
                        for r in 0..4u64 {
                            w.push(Instr::load(
                                Reg(2 + r as u16),
                                MemAccess::coalesced(
                                    Space::Global,
                                    DataClass::Compute,
                                    4,
                                    img + 0x60_0000 + (c as u64 * 8 + wi as u64 * 4 + r) * 128,
                                    WARP_SIZE,
                                ),
                            ));
                        }
                        int_block(&mut w, 12);
                        w.push(Instr::bar());
                        w.push(Instr::store(
                            Reg(24),
                            MemAccess::coalesced(
                                Space::Global,
                                DataClass::Compute,
                                4,
                                img + 0x70_0000,
                                1,
                            ),
                        ));
                        w.seal();
                        w
                    })
                    .collect(),
            )
        })
        .collect();
    KernelTrace::new("vio_reduce", 64, 20, 1024, ctav)
}

/// Hologram generation: long sin/cos + FMA chains per output point, almost
/// no memory traffic. Saturates the FP/SFU pipes.
pub fn holo(stream: StreamId, scale: ComputeScale) -> Stream {
    let mut s = Stream::new(stream, StreamKind::Compute);
    let buf = COMPUTE_BASE + 0x1000_0000;
    s.marker("holo:frame");
    for pass in 0..2u32 {
        let ctas = scale.ctas(28);
        let ctav = (0..ctas)
            .map(|c| {
                CtaTrace::new(
                    (0..8)
                        .map(|wi| {
                            let mut w = WarpTrace::new();
                            w.push(Instr::load(
                                Reg(2),
                                MemAccess::coalesced(
                                    Space::Global,
                                    DataClass::Compute,
                                    8,
                                    buf + (c * 4096 + wi * 512) as u64,
                                    WARP_SIZE,
                                ),
                            ));
                            // Per-point phase accumulation over the hologram
                            // plane: the compute-bound core.
                            for _ in 0..12 {
                                fp_block(&mut w, 20);
                                sfu_block(&mut w, 8);
                            }
                            w.push(Instr::store(
                                Reg(10),
                                MemAccess::coalesced(
                                    Space::Global,
                                    DataClass::Compute,
                                    8,
                                    buf + 0x100_0000 + (c * 4096 + wi * 512) as u64,
                                    WARP_SIZE,
                                ),
                            ));
                            w.seal();
                            w
                        })
                        .collect(),
                )
            })
            .collect();
        s.launch(KernelTrace::new(
            format!("holo_phase_{pass}"),
            256,
            40,
            0,
            ctav,
        ));
    }
    // Normalisation pass.
    let ctas = scale.ctas(8);
    let ctav = (0..ctas)
        .map(|c| {
            CtaTrace::new(
                (0..4)
                    .map(|wi| {
                        let mut w = WarpTrace::new();
                        w.push(Instr::load(
                            Reg(2),
                            MemAccess::coalesced(
                                Space::Global,
                                DataClass::Compute,
                                8,
                                buf + 0x100_0000 + (c * 2048 + wi * 512) as u64,
                                WARP_SIZE,
                            ),
                        ));
                        fp_block(&mut w, 30);
                        sfu_block(&mut w, 6);
                        w.push(Instr::store(
                            Reg(10),
                            MemAccess::coalesced(
                                Space::Global,
                                DataClass::Compute,
                                4,
                                buf + 0x200_0000 + (c * 1024 + wi * 256) as u64,
                                WARP_SIZE,
                            ),
                        ));
                        w.seal();
                        w
                    })
                    .collect(),
            )
        })
        .collect();
    s.launch(KernelTrace::new("holo_normalize", 128, 32, 0, ctav));
    s
}

/// RITnet principal kernels at batch size 2: memory-bound convolutions and
/// shared-memory/tensor GEMMs with deliberately small grids (low occupancy
/// — "it suffers from small batch size and cannot maintain high occupancy").
pub fn nn(stream: StreamId, scale: ComputeScale) -> Stream {
    let mut s = Stream::new(stream, StreamKind::Compute);
    let act = COMPUTE_BASE + 0x2000_0000;
    let wgt = COMPUTE_BASE + 0x2800_0000;
    s.marker("nn:frame");
    // Principal kernels: conv → conv → gemm → conv → gemm.
    s.launch(conv_kernel(0, act, wgt, scale.ctas(8)));
    s.launch(conv_kernel(
        1,
        act + 0x100_0000,
        wgt + 0x20_0000,
        scale.ctas(6),
    ));
    s.launch(gemm_kernel(
        0,
        act + 0x200_0000,
        wgt + 0x40_0000,
        scale.ctas(4),
    ));
    s.launch(conv_kernel(
        2,
        act + 0x300_0000,
        wgt + 0x60_0000,
        scale.ctas(6),
    ));
    s.launch(gemm_kernel(
        1,
        act + 0x400_0000,
        wgt + 0x80_0000,
        scale.ctas(4),
    ));
    s
}

fn conv_kernel(idx: u32, act: u64, wgt: u64, ctas: usize) -> KernelTrace {
    let ctav = (0..ctas)
        .map(|c| {
            CtaTrace::new(
                (0..8)
                    .map(|wi| {
                        let mut w = WarpTrace::new();
                        // Streaming activation rows across channels: large
                        // strides → distinct lines (memory-bound).
                        for ch in 0..12u64 {
                            w.push(Instr::load(
                                Reg(2 + (ch % 4) as u16),
                                MemAccess::coalesced(
                                    Space::Global,
                                    DataClass::Compute,
                                    2,
                                    act + ch * 0x8_0000 + (c as u64 * 8 + wi as u64) * 256,
                                    WARP_SIZE,
                                ),
                            ));
                            fp_block(&mut w, 6);
                        }
                        // Weights show reuse across CTAs. Distinct
                        // destinations keep the four fetches in flight.
                        for k in 0..4u64 {
                            w.push(Instr::load(
                                Reg(2 + k as u16),
                                MemAccess::coalesced(
                                    Space::Global,
                                    DataClass::Compute,
                                    2,
                                    wgt + k * 128,
                                    WARP_SIZE,
                                ),
                            ));
                        }
                        fp_block(&mut w, 16);
                        w.push(Instr::store(
                            Reg(10),
                            MemAccess::coalesced(
                                Space::Global,
                                DataClass::Compute,
                                2,
                                act + 0x400_0000 + (c * 2048 + wi * 256) as u64,
                                WARP_SIZE,
                            ),
                        ));
                        w.seal();
                        w
                    })
                    .collect(),
            )
        })
        .collect();
    KernelTrace::new(format!("nn_conv{idx}"), 256, 48, 8 << 10, ctav)
}

fn gemm_kernel(idx: u32, act: u64, wgt: u64, ctas: usize) -> KernelTrace {
    let ctav = (0..ctas)
        .map(|c| {
            CtaTrace::new(
                (0..8)
                    .map(|wi| {
                        let mut w = WarpTrace::new();
                        // Tiled GEMM main loop: stage tiles in shared
                        // memory, barrier, tensor MMA, repeat. Each warp
                        // stages into its own 256 B slot of the A/B tile;
                        // the accumulator chains across k-rounds.
                        let mut acc: Option<Reg> = None;
                        for k in 0..6u64 {
                            w.push(Instr::load(
                                Reg(2),
                                MemAccess::coalesced(
                                    Space::Global,
                                    DataClass::Compute,
                                    4,
                                    act + k * 0x2_0000 + (c as u64 * 8 + wi as u64) * 512,
                                    WARP_SIZE,
                                ),
                            ));
                            w.push(Instr::load(
                                Reg(3),
                                MemAccess::coalesced(
                                    Space::Global,
                                    DataClass::Compute,
                                    4,
                                    wgt + k * 0x1_0000 + wi as u64 * 512,
                                    WARP_SIZE,
                                ),
                            ));
                            for s in 0..2u16 {
                                w.push(Instr::store(
                                    Reg(2 + s),
                                    MemAccess::coalesced(
                                        Space::Shared,
                                        DataClass::Compute,
                                        4,
                                        (wi as u64) * 256 + s as u64 * 128,
                                        WARP_SIZE,
                                    ),
                                ));
                            }
                            w.push(Instr::bar());
                            // Read four distinct tile fragments (other
                            // warps' slots included — the barrier ordered
                            // them).
                            for g in 0..4u16 {
                                w.push(Instr::load(
                                    Reg(4 + g),
                                    MemAccess::coalesced(
                                        Space::Shared,
                                        DataClass::Compute,
                                        4,
                                        g as u64 * 512,
                                        WARP_SIZE,
                                    ),
                                ));
                            }
                            for t in 0..8u16 {
                                let dst = Reg(30 + t % 4);
                                let second = acc.unwrap_or(Reg(5));
                                w.push(Instr::alu(Op::Tensor, dst, &[Reg(4 + t % 4), second]));
                                acc = Some(dst);
                            }
                            w.push(Instr::bar());
                        }
                        w.push(Instr::store(
                            Reg(30),
                            MemAccess::coalesced(
                                Space::Global,
                                DataClass::Compute,
                                4,
                                act + 0x500_0000 + (c * 4096 + wi * 512) as u64,
                                WARP_SIZE,
                            ),
                        ));
                        w.seal();
                        w
                    })
                    .collect(),
            )
        })
        .collect();
    KernelTrace::new(format!("nn_gemm{idx}"), 256, 64, 24 << 10, ctav)
}

/// Asynchronous timewarp: the MR post-process that re-projects the
/// rendered frame to the user's latest head pose ("a compute shader is
/// executed to warp the scene to reflect the user's latest position",
/// paper Section II-A). It *reads the framebuffer the graphics stream
/// wrote* — a genuine producer→consumer dependency through the L2 — and
/// writes the warped image.
///
/// `width`/`height` must match the rendered frame so the gather addresses
/// land on real framebuffer lines.
pub fn timewarp(stream: StreamId, width: u32, height: u32, scale: ComputeScale) -> Stream {
    let mut s = Stream::new(stream, StreamKind::Compute);
    let fb = AddressAllocator::FRAMEBUFFER_BASE;
    let out = fb + 0x1000_0000;
    let pixels = width as u64 * height as u64;
    let warps_needed = pixels.div_ceil(WARP_SIZE as u64 * 4); // 4 px per lane
    let ctas = (warps_needed.div_ceil(8) as usize)
        .max(1)
        .min(scale.ctas(64).max(1) * 8);
    s.marker("timewarp:frame");
    let ctav = (0..ctas)
        .map(|c| {
            CtaTrace::new(
                (0..8)
                    .map(|wi| {
                        let mut w = WarpTrace::new();
                        let warp_px = (c * 8 + wi) as u64 * WARP_SIZE as u64 * 4;
                        // Re-projection gather: each lane samples the source
                        // frame at a slightly displaced coordinate (the head
                        // rotation between render and scan-out).
                        for g in 0..4u64 {
                            let addrs: Vec<u64> = (0..WARP_SIZE as u64)
                                .map(|l| {
                                    let px = (warp_px + l * 4 + g) % pixels;
                                    let x = px % width as u64;
                                    let y = px / width as u64;
                                    // displaced source pixel, clamped
                                    let sx = (x + 3).min(width as u64 - 1);
                                    let sy = (y + 2).min(height as u64 - 1);
                                    fb + (sy * width as u64 + sx) * 4
                                })
                                .collect();
                            w.push(Instr::load(
                                Reg(2 + g as u16),
                                MemAccess::scattered(Space::Global, DataClass::Compute, 4, addrs),
                            ));
                        }
                        fp_block(&mut w, 18); // pose interpolation math
                        sfu_block(&mut w, 4);
                        w.push(Instr::store(
                            Reg(10),
                            MemAccess::coalesced(
                                Space::Global,
                                DataClass::Compute,
                                4,
                                out + warp_px * 4,
                                WARP_SIZE,
                            ),
                        ));
                        w.seal();
                        w
                    })
                    .collect(),
            )
        })
        .collect();
    s.launch(KernelTrace::new("atw_reproject", 256, 32, 0, ctav));
    s
}

/// DLSS-style neural upscaler: renders happen at a low resolution and a
/// tensor-core network super-samples the result (paper Section II). Reads
/// the framebuffer region, runs shared-memory + tensor GEMM layers, and
/// writes the upscaled image. Heavily tensor-bound — the class of work
/// async compute overlaps with FP-hungry fragment shading.
pub fn upscaler(stream: StreamId, scale: ComputeScale) -> Stream {
    let mut s = Stream::new(stream, StreamKind::Compute);
    let fb = AddressAllocator::FRAMEBUFFER_BASE;
    let out = fb + 0x2000_0000;
    s.marker("upscale:frame");
    for layer in 0..3u32 {
        let ctas = scale.ctas(12);
        let ctav = (0..ctas)
            .map(|c| {
                CtaTrace::new(
                    (0..8)
                        .map(|wi| {
                            let mut w = WarpTrace::new();
                            // Input tile from the framebuffer (or previous
                            // layer's activations).
                            let base = if layer == 0 {
                                fb
                            } else {
                                out + layer as u64 * 0x100_0000
                            };
                            for k in 0..4u64 {
                                w.push(Instr::load(
                                    Reg(2 + k as u16),
                                    MemAccess::coalesced(
                                        Space::Global,
                                        DataClass::Compute,
                                        4,
                                        base + (c as u64 * 32 + wi as u64 * 4 + k) * 512,
                                        WARP_SIZE,
                                    ),
                                ));
                            }
                            // Stage into shared memory (per-warp 256 B
                            // slot), then tensor MMAs chained through the
                            // accumulator.
                            for s in 0..2u16 {
                                w.push(Instr::store(
                                    Reg(2 + s),
                                    MemAccess::coalesced(
                                        Space::Shared,
                                        DataClass::Compute,
                                        4,
                                        (wi as u64) * 256 + s as u64 * 128,
                                        WARP_SIZE,
                                    ),
                                ));
                            }
                            w.push(Instr::bar());
                            for g in 0..4u16 {
                                w.push(Instr::load(
                                    Reg(20 + g),
                                    MemAccess::coalesced(
                                        Space::Shared,
                                        DataClass::Compute,
                                        4,
                                        g as u64 * 512,
                                        WARP_SIZE,
                                    ),
                                ));
                            }
                            let mut acc = Reg(21);
                            for t in 0..24u16 {
                                let dst = Reg(30 + t % 4);
                                w.push(Instr::alu(Op::Tensor, dst, &[Reg(20 + t % 4), acc]));
                                acc = dst;
                            }
                            w.push(Instr::bar());
                            fp_block(&mut w, 8); // activation
                            w.push(Instr::store(
                                Reg(30),
                                MemAccess::coalesced(
                                    Space::Global,
                                    DataClass::Compute,
                                    4,
                                    out + (layer + 1) as u64 * 0x100_0000
                                        + (c * 4096 + wi * 512) as u64,
                                    WARP_SIZE,
                                ),
                            ));
                            w.seal();
                            w
                        })
                        .collect(),
                )
            })
            .collect();
        s.launch(KernelTrace::new(
            format!("upscale_l{layer}"),
            256,
            56,
            16 << 10,
            ctav,
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crisp_trace::InstrMix;

    fn mixes(s: &Stream) -> InstrMix {
        let mut m = InstrMix::default();
        for k in s.kernels() {
            let km = InstrMix::of_kernel(k);
            m.int_alu += km.int_alu;
            m.fp += km.fp;
            m.sfu += km.sfu;
            m.tensor += km.tensor;
            m.control += km.control;
            m.global_mem += km.global_mem;
            m.shared_mem += km.shared_mem;
            m.tex += km.tex;
        }
        m
    }

    #[test]
    fn vio_is_many_small_kernels() {
        let s = vio(StreamId(1), ComputeScale::default());
        assert!(s.kernel_count() >= 12, "got {}", s.kernel_count());
        for k in s.kernels() {
            assert!(
                k.grid() <= 20,
                "VIO kernels are small, {} has {}",
                k.name,
                k.grid()
            );
        }
    }

    #[test]
    fn holo_is_compute_bound() {
        let s = holo(StreamId(1), ComputeScale::default());
        let m = mixes(&s);
        let mem = m.global_mem + m.shared_mem;
        assert!(
            (m.fp + m.sfu) as f64 / mem as f64 > 30.0,
            "HOLO must be compute-dominated: fp+sfu={} mem={mem}",
            m.fp + m.sfu
        );
    }

    #[test]
    fn nn_uses_shared_memory_and_tensor_cores() {
        let s = nn(StreamId(1), ComputeScale::default());
        let m = mixes(&s);
        assert!(m.shared_mem > 0);
        assert!(m.tensor > 0);
        // Convs are memory-heavy: global accesses rival FP work.
        assert!(m.global_mem as f64 > m.fp as f64 * 0.2);
        // Low occupancy: small grids.
        for k in s.kernels() {
            assert!(k.grid() <= 8, "{} grid {}", k.name, k.grid());
        }
    }

    #[test]
    fn nn_kernels_demand_big_smem() {
        let s = nn(StreamId(1), ComputeScale::default());
        let gemm = s.kernels().find(|k| k.name.starts_with("nn_gemm")).unwrap();
        assert!(gemm.smem_per_cta >= 16 << 10);
        assert_eq!(gemm.regs_per_thread, 64);
    }

    #[test]
    fn scale_shrinks_grids() {
        let full = vio(StreamId(1), ComputeScale::default());
        let tiny = vio(StreamId(1), ComputeScale::tiny());
        assert!(tiny.instr_count() < full.instr_count());
        assert_eq!(
            tiny.kernel_count(),
            full.kernel_count(),
            "kernel count is structural"
        );
    }

    #[test]
    fn all_workloads_tag_compute_class() {
        for s in [
            vio(StreamId(1), ComputeScale::tiny()),
            holo(StreamId(1), ComputeScale::tiny()),
            nn(StreamId(1), ComputeScale::tiny()),
        ] {
            let mut f = crisp_trace::ClassFootprint::new();
            for k in s.kernels() {
                f.add_kernel(k);
            }
            assert!(f.lines(DataClass::Compute) > 0);
            assert_eq!(f.lines(DataClass::Texture), 0);
        }
    }

    #[test]
    fn timewarp_reads_the_framebuffer_region() {
        let s = timewarp(StreamId(2), 160, 90, ComputeScale::tiny());
        let mut f = crisp_trace::ClassFootprint::new();
        for k in s.kernels() {
            f.add_kernel(k);
        }
        assert!(f.lines(DataClass::Compute) > 0);
        // Every gather address must land inside the framebuffer of a
        // 160x90 frame or the warp's own output buffer.
        let fb = AddressAllocator::FRAMEBUFFER_BASE;
        let fb_end = fb + 160 * 90 * 4;
        let mut reads_fb = false;
        for k in s.kernels() {
            for cta in &k.ctas {
                for w in &cta.warps {
                    for i in w.iter() {
                        if let Some(m) = &i.mem {
                            if i.op.is_load() {
                                for &a in m.addrs {
                                    assert!(a >= fb && a < fb_end, "gather out of fb: {a:#x}");
                                    reads_fb = true;
                                }
                            }
                        }
                    }
                }
            }
        }
        assert!(reads_fb, "timewarp must consume the rendered frame");
    }

    #[test]
    fn upscaler_is_tensor_heavy() {
        let s = upscaler(StreamId(2), ComputeScale::default());
        let m = mixes(&s);
        assert!(
            m.tensor > m.fp,
            "tensor ops dominate: {} vs {}",
            m.tensor,
            m.fp
        );
        assert!(m.shared_mem > 0);
        assert_eq!(s.kernel_count(), 3, "three network layers");
    }

    #[test]
    fn streams_are_deterministic() {
        let a = vio(StreamId(1), ComputeScale::default());
        let b = vio(StreamId(1), ComputeScale::default());
        assert_eq!(a, b);
    }
}
