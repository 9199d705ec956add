//! Vulkan-style compute shaders.
//!
//! "Compute shaders have been integrated into contemporary graphics APIs
//! to support general-purpose computing" (paper Section II). This module
//! is the compute-side counterpart of [`crate::shader`]: a
//! [`ComputeShader`] describes one dispatch's per-warp behaviour — memory
//! streams, ALU mix, shared-memory staging, tensor work — and
//! [`dispatch`] turns it into a kernel trace the simulator replays.
//! Together with [`crate::api::Device`] this covers both halves of the
//! async-compute pairing the paper studies.

use crisp_trace::{CtaTrace, DataClass, Instr, KernelTrace, MemAccess, Op, Reg, Space, WARP_SIZE};

/// Per-warp cost model of a compute shader.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ComputeShader {
    /// Coalesced global loads per warp (each 32 lanes × `load_width`).
    pub loads: u32,
    /// Bytes per lane per load.
    pub load_width: u8,
    /// Stride between consecutive loads in bytes (0 = dense streaming).
    pub load_stride: u64,
    /// Global stores per warp.
    pub stores: u32,
    /// FMA-class operations per warp.
    pub fp_ops: u32,
    /// Integer operations per warp.
    pub int_ops: u32,
    /// SFU operations per warp.
    pub sfu_ops: u32,
    /// Tensor-core MMA operations per warp.
    pub tensor_ops: u32,
    /// Shared-memory staging round trips (store + barrier + load).
    pub smem_rounds: u32,
    /// Registers per thread.
    pub regs: u32,
    /// Shared memory bytes per CTA.
    pub smem_per_cta: u32,
}

impl ComputeShader {
    /// A memory-streaming kernel (copy/transform class).
    pub fn streaming() -> Self {
        ComputeShader {
            loads: 8,
            load_width: 4,
            load_stride: 0,
            stores: 4,
            fp_ops: 16,
            int_ops: 8,
            sfu_ops: 0,
            tensor_ops: 0,
            smem_rounds: 0,
            regs: 24,
            smem_per_cta: 0,
        }
    }

    /// An arithmetically-dense kernel (the HOLO class).
    pub fn compute_bound() -> Self {
        ComputeShader {
            loads: 1,
            load_width: 8,
            load_stride: 0,
            stores: 1,
            fp_ops: 220,
            int_ops: 8,
            sfu_ops: 80,
            tensor_ops: 0,
            smem_rounds: 0,
            regs: 40,
            smem_per_cta: 0,
        }
    }

    /// A tiled-GEMM kernel (shared memory + tensor cores).
    pub fn gemm() -> Self {
        ComputeShader {
            loads: 8,
            load_width: 4,
            load_stride: 0,
            stores: 1,
            fp_ops: 16,
            int_ops: 4,
            sfu_ops: 0,
            tensor_ops: 48,
            smem_rounds: 4,
            regs: 64,
            smem_per_cta: 24 << 10,
        }
    }
}

/// Build the kernel trace for one dispatch of `shader` over
/// `grid` CTAs × `warps_per_cta` warps, reading from `input` and writing
/// to `output` in the simulated address space.
///
/// # Panics
///
/// Panics if `grid` or `warps_per_cta` is zero.
pub fn dispatch(
    name: impl Into<String>,
    shader: &ComputeShader,
    grid: usize,
    warps_per_cta: usize,
    input: u64,
    output: u64,
) -> KernelTrace {
    assert!(grid > 0 && warps_per_cta > 0, "dispatch must be non-empty");
    let row_bytes = WARP_SIZE as u64 * shader.load_width as u64;
    let stride = if shader.load_stride == 0 {
        row_bytes
    } else {
        shader.load_stride
    };
    // Destination of the most recent value-producing instruction: the ALU
    // blocks chain through it so every write is later read (clean under
    // crisp-analyze's dataflow lints) without changing the instruction mix.
    fn last_def(w: &crisp_trace::WarpTrace) -> Option<Reg> {
        w.iter().rev().find_map(|i| i.dst)
    }
    // Live input registers the ALU blocks may read: r2..r9 rotate over up
    // to eight in-flight loads.
    let load_slots = shader.loads.clamp(1, 8) as u16;
    let ctas = (0..grid)
        .map(|c| {
            let warps = (0..warps_per_cta)
                .map(|wi| {
                    let mut w = crisp_trace::WarpTrace::new();
                    let warp_base =
                        input + (c * warps_per_cta + wi) as u64 * shader.loads as u64 * stride;
                    for l in 0..shader.loads {
                        w.push(Instr::load(
                            Reg(2 + (l % 8) as u16),
                            MemAccess::coalesced(
                                Space::Global,
                                DataClass::Compute,
                                shader.load_width,
                                warp_base + l as u64 * stride,
                                WARP_SIZE,
                            ),
                        ));
                    }
                    for r in 0..shader.smem_rounds {
                        // Each warp stages into — and rereads — its own
                        // 128 B slot. With a single barrier per round, a
                        // round's load shares a barrier interval with the
                        // next round's stores, so only the warp's own slot
                        // is race-free to touch there.
                        let src = last_def(&w).unwrap_or(Reg(2));
                        w.push(Instr::store(
                            src,
                            MemAccess::coalesced(
                                Space::Shared,
                                DataClass::Compute,
                                4,
                                wi as u64 * 128,
                                WARP_SIZE,
                            ),
                        ));
                        w.push(Instr::bar());
                        w.push(Instr::load(
                            Reg(20 + (r % 2) as u16),
                            MemAccess::coalesced(
                                Space::Shared,
                                DataClass::Compute,
                                4,
                                wi as u64 * 128,
                                WARP_SIZE,
                            ),
                        ));
                    }
                    for i in 0..shader.fp_ops {
                        let prev = last_def(&w).unwrap_or(Reg(2));
                        w.push(Instr::alu(
                            Op::FpFma,
                            Reg(10 + (i % 10) as u16),
                            &[Reg(2 + (i as u16 % load_slots)), prev],
                        ));
                    }
                    for i in 0..shader.int_ops {
                        let prev = last_def(&w).unwrap_or(Reg(2));
                        w.push(Instr::alu(
                            Op::IntAlu,
                            Reg(24 + (i % 4) as u16),
                            &[Reg(2), prev],
                        ));
                    }
                    for i in 0..shader.sfu_ops {
                        let prev = last_def(&w).unwrap_or(Reg(2));
                        w.push(Instr::alu(Op::Sfu, Reg(6 + (i % 2) as u16), &[prev]));
                    }
                    for i in 0..shader.tensor_ops {
                        let staged = if shader.smem_rounds > 0 {
                            Reg(20 + (i % 2) as u16)
                        } else {
                            Reg(2 + (i as u16 % load_slots))
                        };
                        let prev = last_def(&w).unwrap_or(staged);
                        w.push(Instr::alu(
                            Op::Tensor,
                            Reg(30 + (i % 4) as u16),
                            &[staged, prev],
                        ));
                    }
                    let result = last_def(&w).unwrap_or(Reg(2));
                    for s in 0..shader.stores {
                        let base = output
                            + (c * warps_per_cta + wi) as u64 * shader.stores as u64 * row_bytes;
                        w.push(Instr::store(
                            result,
                            MemAccess::coalesced(
                                Space::Global,
                                DataClass::Compute,
                                shader.load_width,
                                base + s as u64 * row_bytes,
                                WARP_SIZE,
                            ),
                        ));
                    }
                    w.seal();
                    w
                })
                .collect();
            CtaTrace::new(warps)
        })
        .collect();
    KernelTrace::new(
        name,
        (warps_per_cta * WARP_SIZE) as u32,
        shader.regs,
        shader.smem_per_cta,
        ctas,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crisp_trace::InstrMix;

    #[test]
    fn dispatch_geometry_matches_arguments() {
        let k = dispatch("k", &ComputeShader::streaming(), 6, 4, 0x1000, 0x2000);
        assert_eq!(k.grid(), 6);
        assert_eq!(k.warps_per_cta(), 4);
        assert_eq!(k.block_threads, 128);
    }

    #[test]
    fn presets_have_their_signatures() {
        let cb = dispatch("cb", &ComputeShader::compute_bound(), 2, 2, 0, 0x1000);
        let m = InstrMix::of_kernel(&cb);
        assert!(
            m.fp + m.sfu > (m.global_mem + m.shared_mem) * 20,
            "compute-bound"
        );

        let gemm = dispatch("g", &ComputeShader::gemm(), 2, 2, 0, 0x1000);
        let m = InstrMix::of_kernel(&gemm);
        assert!(m.tensor > 0);
        assert!(m.shared_mem > 0);
        assert_eq!(gemm.smem_per_cta, 24 << 10);

        let s = dispatch("s", &ComputeShader::streaming(), 2, 2, 0, 0x1000);
        let m = InstrMix::of_kernel(&s);
        assert!(m.global_mem as f64 > m.total() as f64 * 0.2, "memory-heavy");
    }

    #[test]
    fn warps_read_disjoint_streaming_ranges() {
        let k = dispatch("k", &ComputeShader::streaming(), 2, 2, 0x1_0000, 0x8_0000);
        let mut firsts = Vec::new();
        for cta in &k.ctas {
            for w in &cta.warps {
                let first = w
                    .iter()
                    .find_map(|i| i.mem.filter(|m| m.space == Space::Global))
                    .expect("has loads")
                    .addrs[0];
                firsts.push(first);
            }
        }
        firsts.sort_unstable();
        firsts.dedup();
        assert_eq!(firsts.len(), 4, "each warp streams its own range");
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_dispatch_rejected() {
        let _ = dispatch("k", &ComputeShader::streaming(), 0, 1, 0, 0);
    }
}
