//! The rendering-pipeline driver: executes drawcalls functionally and emits
//! the instruction traces the timing model replays.
//!
//! Per drawcall (paper Figure 2):
//! 1. the index stream is split into 96-vertex batches (②);
//! 2. each batch becomes one CTA of the drawcall's **vertex-shading
//!    kernel** (③) — attribute fetches, transform ALU, and attribute
//!    stores into the L2 attribute ring (`Pipeline` data class);
//! 3. primitives are assembled, backface/near-plane culled, and
//!    rasterized with early-Z; per-fragment LoD is computed here from the
//!    triangle's uv derivatives (④);
//! 4. surviving fragments are sorted in tile/quad order and packed 32 to a
//!    warp into the **fragment-shading kernel** (⑤–⑥): attribute fetch
//!    from the L2, interpolation SFU work, mipmapped texture sampling
//!    through the unified L1, lighting ALU, and a colour store;
//! 5. the ROP is skipped (paper Section III).
//!
//! The same pass also shades pixels functionally into a [`Framebuffer`] so
//! frames can be dumped as PPM images (Figures 5, 8).

use crisp_trace::{
    CtaTrace, DataClass, Instr, KernelTrace, MemRef, Op, Reg, Space, Stream, StreamId, StreamKind,
    WarpTrace, WARP_SIZE,
};

use crate::batch::{vertex_batches, Batch, BATCH_SIZE};
use crate::fb::Framebuffer;
use crate::math::{Mat4, Vec2, Vec3};
use crate::mesh::{AddressAllocator, Mesh, ATTR_STRIDE};
use crate::raster::{is_backface, rasterize, Fragment, ScreenVertex, TileGrid, TILE_SIZE};
use crate::shader::{FragmentShader, ShaderKind, VertexShader};
use crate::texture::Texture;

/// Bytes of one per-instance record (transform + layer index).
pub const INSTANCE_STRIDE: u64 = 80;

/// Sector size the L1 coalescer fetches ([`DrawStats::tex_sectors`]).
const SECTOR_BYTES: u64 = 32;
/// DRAM row size [`DrawStats::tex_rows`] counts.
const DRAM_ROW_BYTES: u64 = 2048;

/// One instance of an instanced draw.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Instance {
    /// Instance transform (applied after the drawcall's model matrix).
    pub transform: Mat4,
    /// Texture-array layer this instance samples (Planets' pattern).
    pub layer: u32,
}

impl Instance {
    /// An identity instance using layer 0.
    pub fn identity() -> Self {
        Instance {
            transform: Mat4::identity(),
            layer: 0,
        }
    }
}

/// One recorded drawcall.
#[derive(Debug, Clone)]
pub struct DrawCall {
    /// Debug name (shows up in kernel names and markers).
    pub name: String,
    /// Geometry.
    pub mesh: Mesh,
    /// Bound texture maps; at least `fs.map_slots` entries.
    pub textures: Vec<Texture>,
    /// Vertex-shader cost model.
    pub vs: VertexShader,
    /// Fragment-shader cost model.
    pub fs: FragmentShader,
    /// Model matrix.
    pub model: Mat4,
    /// Instances (a single identity instance for plain draws).
    pub instances: Vec<Instance>,
    /// Base address of the per-instance data buffer.
    pub instance_buffer: u64,
}

impl DrawCall {
    /// A plain single-instance drawcall.
    pub fn simple(
        name: impl Into<String>,
        mesh: Mesh,
        textures: Vec<Texture>,
        fs: FragmentShader,
        model: Mat4,
    ) -> Self {
        DrawCall {
            name: name.into(),
            mesh,
            textures,
            vs: VertexShader::transform(),
            fs,
            model,
            instances: vec![Instance::identity()],
            instance_buffer: 0,
        }
    }
}

/// Statistics for one executed drawcall.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DrawStats {
    /// Drawcall name.
    pub name: String,
    /// True vertex-shader invocations (what the hardware profiler reports
    /// as thread count).
    pub vs_invocations: u64,
    /// Threads implied by launched warps (what the simulator reports —
    /// the Figure 3 bottom-left discrepancy).
    pub vs_threads_from_warps: u64,
    /// Vertex batches formed.
    pub batches: u64,
    /// Primitives before culling (after instancing).
    pub prims: u64,
    /// Primitives culled (backface + clip).
    pub culled: u64,
    /// Fragments shaded (post early-Z).
    pub fragments: u64,
    /// Texture-fetch instructions emitted.
    pub tex_instrs: u64,
    /// 32 B sectors those fetches present to the L1 (post-coalescing).
    pub tex_sectors: u64,
    /// Distinct 2 KB DRAM rows the texture footprint spans.
    pub tex_rows: u64,
}

/// Statistics for a full frame.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FrameStats {
    /// Per-drawcall stats in submission order.
    pub draws: Vec<DrawStats>,
}

impl FrameStats {
    /// Total vertex-shader invocations.
    pub fn vs_invocations(&self) -> u64 {
        self.draws.iter().map(|d| d.vs_invocations).sum()
    }

    /// Total fragments shaded.
    pub fn fragments(&self) -> u64 {
        self.draws.iter().map(|d| d.fragments).sum()
    }

    /// Total texture instructions.
    pub fn tex_instrs(&self) -> u64 {
        self.draws.iter().map(|d| d.tex_instrs).sum()
    }
}

/// Renderer configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct RenderConfig {
    /// Framebuffer width in pixels.
    pub width: u32,
    /// Framebuffer height.
    pub height: u32,
    /// Force mip level 0 (the Figure 9 "LoD off" ablation).
    pub lod0: bool,
    /// Warps per fragment-shading CTA.
    pub fs_warps_per_cta: usize,
    /// Stream id for the emitted trace.
    pub stream: StreamId,
    /// Directional light for functional shading.
    pub light_dir: Vec3,
    /// Viewport rectangle `(x, y, w, h)`; `None` = the full framebuffer.
    /// Stereo XR renders each eye into its own half.
    pub viewport: Option<(u32, u32, u32, u32)>,
}

impl RenderConfig {
    /// A renderer at the given resolution with defaults matching the paper
    /// (LoD on, 8 warps per fragment CTA).
    pub fn new(width: u32, height: u32) -> Self {
        RenderConfig {
            width,
            height,
            lod0: false,
            fs_warps_per_cta: 8,
            stream: StreamId(0),
            light_dir: Vec3::new(0.4, 0.8, 0.45).normalized(),
            viewport: None,
        }
    }
}

/// The pipeline driver. Create one per frame (or call
/// [`Renderer::reset`] between frames).
#[derive(Debug)]
pub struct Renderer {
    cfg: RenderConfig,
    fb: Framebuffer,
    attr_cursor: u64,
    stats: FrameStats,
    scratch: TexScratch,
}

/// Buffers the fragment-shading trace is built through, kept across warps
/// and draws so texture sampling does not allocate per lane or per fetch.
#[derive(Debug, Default)]
struct TexScratch {
    /// Every lane's texel footprint for every bound map of the current
    /// warp, back to back.
    texels: Vec<u64>,
    /// `(start, end)` of each footprint in `texels`, map-major: the
    /// footprint of lane `l` in map `m` is entry `m * lanes + l`.
    footprints: Vec<(usize, usize)>,
    /// One texture instruction's addresses, sorted.
    sorted: Vec<u64>,
    /// The DRAM rows the current draw's texture instructions read, listed
    /// once per instruction; sorted and deduplicated when the draw ends.
    rows: Vec<u64>,
}

impl TexScratch {
    /// Count the sectors `access` presents to the L1 and record the DRAM
    /// rows it touches. One sort of its addresses serves both.
    fn tally(&mut self, access: MemRef<'_>) -> u64 {
        self.sorted.clear();
        self.sorted.extend_from_slice(access.addrs);
        self.sorted.sort_unstable();
        let width = access.width as u64;
        let mut sectors = 0;
        let mut next_sector = 0; // sectors below this are already counted
        let mut last_row = None;
        for &a in &self.sorted {
            let first = (a / SECTOR_BYTES).max(next_sector);
            let last = (a + width - 1) / SECTOR_BYTES;
            if last >= first {
                sectors += last - first + 1;
                next_sector = last + 1;
            }
            let row = a / DRAM_ROW_BYTES;
            if last_row != Some(row) {
                self.rows.push(row);
                last_row = Some(row);
            }
        }
        sectors
    }
}

impl Renderer {
    /// A renderer with a cleared framebuffer.
    pub fn new(cfg: RenderConfig) -> Self {
        let fb = Framebuffer::new(cfg.width, cfg.height);
        Renderer {
            cfg,
            fb,
            attr_cursor: AddressAllocator::ATTR_BASE,
            stats: FrameStats::default(),
            scratch: TexScratch::default(),
        }
    }

    /// The functional framebuffer.
    pub fn framebuffer(&self) -> &Framebuffer {
        &self.fb
    }

    /// Consume the renderer, keeping the shaded framebuffer.
    pub fn into_framebuffer(self) -> Framebuffer {
        self.fb
    }

    /// Frame statistics so far.
    pub fn stats(&self) -> &FrameStats {
        &self.stats
    }

    /// The configuration.
    pub fn config(&self) -> &RenderConfig {
        &self.cfg
    }

    /// Change the viewport for subsequent [`Renderer::render`] calls
    /// (`None` = full framebuffer). Stereo rendering draws each eye into
    /// its own half without clearing in between.
    pub fn set_viewport(&mut self, viewport: Option<(u32, u32, u32, u32)>) {
        self.cfg.viewport = viewport;
    }

    /// Clear framebuffer, stats and the attribute ring for a new frame.
    pub fn reset(&mut self) {
        self.fb.clear();
        self.stats = FrameStats::default();
        self.attr_cursor = AddressAllocator::ATTR_BASE;
    }

    /// Execute a frame's drawcalls (`vkQueueSubmit`): shades the
    /// framebuffer and returns the graphics stream trace — one marker plus
    /// a vertex-shading and a fragment-shading kernel per drawcall.
    pub fn render(&mut self, draws: &[DrawCall], view_proj: &Mat4) -> Stream {
        let mut stream = Stream::new(self.cfg.stream, StreamKind::Graphics);
        for d in draws {
            stream.marker(format!("draw:{}", d.name));
            self.draw(d, view_proj, &mut stream);
        }
        stream
    }

    fn draw(&mut self, d: &DrawCall, view_proj: &Mat4, stream: &mut Stream) {
        assert!(
            d.textures.len() >= d.fs.map_slots,
            "drawcall '{}' binds {} textures but the shader samples {}",
            d.name,
            d.textures.len(),
            d.fs.map_slots
        );
        let mut ds = DrawStats {
            name: d.name.clone(),
            ..DrawStats::default()
        };
        let batches = vertex_batches(&d.mesh.indices, BATCH_SIZE);
        ds.batches = (batches.len() * d.instances.len()) as u64;

        let mut vs_ctas: Vec<CtaTrace> = Vec::with_capacity(batches.len() * d.instances.len());
        let mut frags: Vec<FragRec> = Vec::new();
        let mut prims: Vec<Prim> = Vec::new();
        let mut screen: Vec<Option<ScreenVertex>> = Vec::with_capacity(BATCH_SIZE);
        let grid = TileGrid::new(self.cfg.width, self.cfg.height);

        let mut index_pos = 0u64; // running cursor into the index buffer
        for (inst_idx, inst) in d.instances.iter().enumerate() {
            let mvp = view_proj.mul(&d.model).mul(&inst.transform);
            let normal_m = d.model.mul(&inst.transform);
            let inst_addr = d.instance_buffer + inst_idx as u64 * INSTANCE_STRIDE;
            let instanced = d.instances.len() > 1 || d.instance_buffer != 0;
            for b in &batches {
                // Attribute ring slots for this batch's outputs.
                let attr_base = self.attr_cursor;
                self.attr_cursor += b.unique.len() as u64 * ATTR_STRIDE;

                vs_ctas.push(self.vs_cta(d, b, inst_addr, instanced, attr_base, &mut index_pos));
                ds.vs_invocations += b.vs_invocations() as u64;
                ds.vs_threads_from_warps += (b.unique.len().div_ceil(WARP_SIZE) * WARP_SIZE) as u64;

                // Functional transform of the batch's unique vertices.
                screen.clear();
                screen.extend(b.unique.iter().map(|&vi| {
                    let v = d.mesh.vertices[vi as usize];
                    let clip = mvp.transform_point(v.pos);
                    let n = normal_m.transform_dir(v.normal).normalized();
                    let layer = if instanced { inst.layer } else { v.layer };
                    ScreenVertex::from_clip_viewport(
                        clip,
                        v.uv,
                        n,
                        layer,
                        self.cfg
                            .viewport
                            .unwrap_or((0, 0, self.cfg.width, self.cfg.height)),
                    )
                }));

                for p in &b.prims {
                    ds.prims += 1;
                    let (Some(v0), Some(v1), Some(v2)) = (
                        screen[p[0] as usize],
                        screen[p[1] as usize],
                        screen[p[2] as usize],
                    ) else {
                        ds.culled += 1; // near-plane clip
                        continue;
                    };
                    let tri = [v0, v1, v2];
                    if is_backface(&tri) || offscreen(&tri, self.cfg.width, self.cfg.height) {
                        ds.culled += 1;
                        continue;
                    }
                    let attr_addr = attr_base + p[0] as u64 * ATTR_STRIDE;
                    // The primitive's table entry is added with its first
                    // fragment, so a fully occluded one costs nothing.
                    let prim = u32::try_from(prims.len()).expect("< 2^32 primitives per draw");
                    rasterize(&tri, &mut self.fb, |f| {
                        if prims.len() == prim as usize {
                            prims.push(Prim {
                                duv_dx: f.duv_dx,
                                duv_dy: f.duv_dy,
                                layer: f.layer,
                                attr_addr,
                            });
                        }
                        frags.push(FragRec {
                            x: f.x,
                            y: f.y,
                            z: f.z,
                            uv: f.uv,
                            normal: f.normal,
                            prim,
                            seq: u32::try_from(frags.len()).expect("< 2^32 fragments per draw"),
                        });
                    });
                }
            }
        }
        ds.fragments = frags.len() as u64;

        // Tile/quad-order sort: fragments grouped by screen locality so
        // quads form naturally within warps (paper's approximated quads).
        // `seq` makes every key distinct, so the unstable sort keeps
        // overlapping fragments in rasterization order.
        frags.sort_unstable_by_key(|r| {
            (
                (r.y / TILE_SIZE) * grid.tiles_x + r.x / TILE_SIZE,
                (r.y & !1, r.x & !1),
                (r.y & 1, r.x & 1),
                r.seq,
            )
        });

        self.scratch.rows.clear();
        let fs_ctas = self.fs_ctas(d, &frags, &prims, &mut ds);
        let rows = &mut self.scratch.rows;
        rows.sort_unstable();
        rows.dedup();
        ds.tex_rows = rows.len() as u64;
        let vs_kernel = KernelTrace::new(
            format!("vs:{}", d.name),
            BATCH_SIZE as u32, // 96 → 3 warps per CTA
            d.vs.regs,
            0,
            vs_ctas,
        );
        let fs_kernel = KernelTrace::new(
            format!("fs:{}", d.name),
            (self.cfg.fs_warps_per_cta * WARP_SIZE) as u32,
            d.fs.regs,
            0,
            fs_ctas,
        );
        stream.launch(vs_kernel);
        stream.launch(fs_kernel);
        self.stats.draws.push(ds);
    }

    /// Build the vertex-shading CTA trace for one batch.
    fn vs_cta(
        &self,
        d: &DrawCall,
        b: &Batch,
        inst_addr: u64,
        instanced: bool,
        attr_base: u64,
        index_pos: &mut u64,
    ) -> CtaTrace {
        let instrs = 1 // index fetch
            + 3 // attribute fetches
            + usize::from(instanced)
            + (d.vs.fp_ops + d.vs.int_ops) as usize
            + 1 // attribute store
            + 1; // exit

        // Every memory instruction has one address per lane.
        let mem_instrs = 1 + 3 + usize::from(instanced) + 1;
        let (global, pipeline) = (Space::Global, DataClass::Pipeline);
        let mut warps = Vec::with_capacity(b.unique.len().div_ceil(WARP_SIZE));
        for (w_idx, chunk) in b.unique.chunks(WARP_SIZE).enumerate() {
            let lanes = chunk.len();
            let mut w = WarpTrace::with_capacity(instrs, mem_instrs * lanes);
            // Index fetch: lanes read consecutive u32s from the index buffer.
            let index_base = d
                .mesh
                .index_addr((*index_pos + (w_idx * WARP_SIZE) as u64) as usize);
            let index_addrs = (0..lanes as u64).map(|l| index_base + l * 4);
            w.push_load(Reg(1), global, pipeline, 4, index_addrs);
            // Attribute fetches: position, normal, uv per unique vertex.
            for (reg, off, width) in [(2u16, 0u64, 12u8), (3, 12, 12), (4, 24, 8)] {
                let addrs = chunk.iter().map(|&vi| d.mesh.vertex_addr(vi) + off);
                w.push_load(Reg(reg), global, pipeline, width, addrs);
            }
            if instanced {
                // All lanes read the same per-instance record: temporal
                // locality across batches, streaming across instances.
                let addrs = std::iter::repeat_n(inst_addr, lanes);
                w.push_load(Reg(5), global, pipeline, 64, addrs);
            }
            // Transform ALU: one dependence chain through r8..r15, seeded
            // by the attribute registers (every write is read by the next
            // op, so the trace is clean under the dataflow lints).
            for i in 0..d.vs.fp_ops {
                let dst = Reg(8 + (i % 8) as u16);
                let attr = Reg(2 + (i % 3) as u16);
                if i == 0 {
                    w.push(Instr::alu(Op::FpFma, dst, &[attr]));
                } else {
                    w.push(Instr::alu(
                        Op::FpFma,
                        dst,
                        &[attr, Reg(8 + ((i - 1) % 8) as u16)],
                    ));
                }
            }
            for i in 0..d.vs.int_ops {
                let dst = Reg(16 + (i % 4) as u16);
                if i == 0 {
                    w.push(Instr::alu(Op::IntAlu, dst, &[Reg(1)]));
                } else {
                    w.push(Instr::alu(
                        Op::IntAlu,
                        dst,
                        &[Reg(1), Reg(16 + ((i - 1) % 4) as u16)],
                    ));
                }
            }
            // Store post-transform attributes to the L2 attribute ring.
            let attr_addrs =
                (0..lanes).map(|l| attr_base + (w_idx * WARP_SIZE + l) as u64 * ATTR_STRIDE);
            let result = if d.vs.fp_ops > 0 { Reg(8) } else { Reg(1) };
            w.push_store(result, global, pipeline, 48, attr_addrs);
            w.seal();
            debug_assert_eq!(w.len(), instrs, "vertex warp sized exactly");
            debug_assert_eq!(w.addr_count(), mem_instrs * lanes);
            warps.push(w);
        }
        *index_pos += (b.prims.len() * 3) as u64;
        CtaTrace::new(warps)
    }

    /// Build the fragment-shading kernel CTAs and shade the framebuffer.
    fn fs_ctas(
        &mut self,
        d: &DrawCall,
        frags: &[FragRec],
        prims: &[Prim],
        ds: &mut DrawStats,
    ) -> Vec<CtaTrace> {
        let per_cta = self.cfg.fs_warps_per_cta;
        let mut ctas = Vec::with_capacity(frags.len().div_ceil(WARP_SIZE * per_cta));
        let mut warps: Vec<WarpTrace> = Vec::with_capacity(per_cta);
        // One warp's fragments, rebuilt from the records, with the
        // attribute address of each one's primitive.
        let mut lanes: Vec<(Fragment, u64)> = Vec::with_capacity(WARP_SIZE);
        for chunk in frags.chunks(WARP_SIZE) {
            lanes.clear();
            lanes.extend(chunk.iter().map(|r| r.fragment(&prims[r.prim as usize])));
            warps.push(self.fs_warp(d, &lanes, ds));
            if warps.len() == per_cta {
                let full = std::mem::replace(&mut warps, Vec::with_capacity(per_cta));
                ctas.push(CtaTrace::new(full));
            }
        }
        if !warps.is_empty() {
            ctas.push(CtaTrace::new(warps));
        }
        ctas
    }

    fn fs_warp(
        &mut self,
        d: &DrawCall,
        chunk: &[(Fragment, u64)],
        ds: &mut DrawStats,
    ) -> WarpTrace {
        let lanes = chunk.len();
        let maps = &d.textures[..d.fs.map_slots];
        // Every lane's footprint in every bound map, gathered first so the
        // warp trace can be sized exactly before it is filled.
        let sc = &mut self.scratch;
        sc.texels.clear();
        sc.footprints.clear();
        // A lane's LoD depends only on the map's dimensions, so
        // consecutive maps of one size (a PBR material's) share it.
        let mut lods = [0f32; WARP_SIZE];
        let mut lod_dims = None;
        for tex in maps {
            let same_dims = lod_dims == Some((tex.width, tex.height));
            lod_dims = Some((tex.width, tex.height));
            for (lod, (f, _)) in lods.iter_mut().zip(chunk) {
                if !same_dims {
                    *lod = tex.lod_from_derivatives(f.duv_dx, f.duv_dy);
                }
                let start = sc.texels.len();
                let layer = f.layer.min(tex.layers - 1);
                tex.sample_addrs_into(f.uv, *lod, layer, self.cfg.lod0, &mut sc.texels);
                sc.footprints.push((start, sc.texels.len()));
            }
        }
        let fs = &d.fs;
        let instrs = 1 // attribute fetch
            + 6 // interpolation
            + maps.len() * fs.int_ops.min(2) as usize
            + sc.footprints.chunks(lanes).map(rounds).sum::<usize>()
            + (fs.fp_ops + fs.sfu_ops + fs.int_ops.saturating_sub(2)) as usize
            + 1 // colour store
            + 1; // exit

        // The attribute fetch and the colour store take one address per
        // lane; the texture fetches take every footprint texel once.
        let addrs = 2 * lanes + sc.texels.len();
        let mut w = WarpTrace::with_capacity(instrs, addrs);
        let (global, pipeline) = (Space::Global, DataClass::Pipeline);
        // Fetch the primitive's post-transform attributes from the L2
        // (the inter-stage communication the composition figures show).
        w.push_load(Reg(1), global, pipeline, 48, chunk.iter().map(|(_, a)| *a));
        // Attribute interpolation on the SFU (ipa), chained so each
        // intermediate is consumed before its register is reused.
        for i in 0..6u16 {
            let dst = Reg(2 + i % 3);
            if i == 0 {
                w.push(Instr::alu(Op::Sfu, dst, &[Reg(1)]));
            } else {
                w.push(Instr::alu(Op::Sfu, dst, &[Reg(1), Reg(2 + (i - 1) % 3)]));
            }
        }
        // Texture sampling: for each bound map, the texture unit looks up
        // the LoD pre-computed at rasterization and reads the footprint
        // texels at that mip level through the unified L1. Destination
        // registers rotate so independent fetches overlap (MLP).
        let mut tex_reg = 0u16;
        let mut last_int: Option<Reg> = None;
        for (m, tex) in maps.iter().enumerate() {
            let lane_fps = m * lanes..(m + 1) * lanes;
            for i in 0..fs.int_ops.min(2) {
                let dst = Reg(20 + i as u16);
                match last_int {
                    Some(prev) => w.push(Instr::alu(Op::IntAlu, dst, &[Reg(2), prev])),
                    None => w.push(Instr::alu(Op::IntAlu, dst, &[Reg(2)])),
                }
                last_int = Some(dst);
            }
            // One tex instruction per footprint round (k-th texel of every
            // lane).
            for k in 0..rounds(&sc.footprints[lane_fps.clone()]) {
                let addrs = sc.footprints[lane_fps.clone()]
                    .iter()
                    .filter(|&&(start, end)| start + k < end)
                    .map(|&(start, _)| sc.texels[start + k]);
                let dst = Reg(40 + tex_reg % 12);
                let width = tex.format.bytes() as u8;
                let access = w.push_load(dst, Space::Tex, DataClass::Texture, width, addrs);
                ds.tex_sectors += sc.tally(access);
                tex_reg += 1;
                ds.tex_instrs += 1;
            }
        }
        // Lighting math (consumes the sampled texels). Only registers a
        // tex fetch actually wrote are read; the accumulator chains so
        // each intermediate is consumed before its register is reused.
        let live_tex = tex_reg.min(12);
        for i in 0..d.fs.fp_ops {
            let dst = Reg(8 + (i % 12) as u16);
            let sampled = if live_tex > 0 {
                Reg(40 + (i as u16 % live_tex))
            } else {
                Reg(2)
            };
            let prev = if i == 0 {
                Reg(4)
            } else {
                Reg(8 + ((i - 1) % 12) as u16)
            };
            w.push(Instr::alu(Op::FpFma, dst, &[sampled, prev]));
        }
        let lit = if d.fs.fp_ops > 0 { Reg(8) } else { Reg(2) };
        for i in 0..d.fs.sfu_ops {
            let dst = Reg(6 + (i % 2) as u16);
            let prev = if i == 0 {
                lit
            } else {
                Reg(6 + ((i - 1) % 2) as u16)
            };
            w.push(Instr::alu(Op::Sfu, dst, &[prev]));
        }
        for i in 0..d.fs.int_ops.saturating_sub(2) {
            let dst = Reg(22 + (i % 2) as u16);
            let prev = if i == 0 {
                lit
            } else {
                Reg(22 + ((i - 1) % 2) as u16)
            };
            w.push(Instr::alu(Op::IntAlu, dst, &[prev]));
        }
        // Colour store (the black-box output write; ROP itself is skipped).
        let px_addrs = chunk.iter().map(|(f, _)| self.fb.pixel_addr(f.x, f.y));
        w.push_store(lit, global, pipeline, 4, px_addrs);
        w.seal();
        debug_assert_eq!(w.len(), instrs, "fragment warp sized exactly");
        debug_assert_eq!(
            w.addr_count(),
            addrs,
            "fragment warp addresses sized exactly"
        );
        debug_assert_eq!(lanes.min(WARP_SIZE), lanes);

        // Functional shading into the framebuffer.
        for (f, _) in chunk {
            let rgb = self.shade(d, f);
            self.fb.set_color(f.x, f.y, rgb);
        }
        w
    }

    /// Functional per-fragment colour.
    fn shade(&self, d: &DrawCall, f: &Fragment) -> [u8; 3] {
        let albedo_slot = match d.fs.kind {
            ShaderKind::Pbr => 2.min(d.textures.len() - 1),
            _ => 0,
        };
        let tex = &d.textures[albedo_slot];
        let lod = tex.lod_from_derivatives(f.duv_dx, f.duv_dy);
        let level = tex.select_level(lod, self.cfg.lod0);
        let (tw, th) = tex.level_dims(level);
        let x = ((f.uv.x.rem_euclid(1.0) * tw as f32) as u32).min(tw - 1);
        let y = ((f.uv.y.rem_euclid(1.0) * th as f32) as u32).min(th - 1);
        let base = tex.texel_color(f.layer.min(tex.layers - 1), level, x, y);
        let n_dot_l = f.normal.normalized().dot(self.cfg.light_dir).max(0.0);
        let ambient = 0.25;
        let spec = match d.fs.kind {
            ShaderKind::BasicTextured => 0.0,
            ShaderKind::Phong => n_dot_l.powi(16) * 0.35,
            ShaderKind::Pbr => n_dot_l.powi(8) * 0.25,
        };
        let scale = |c: u8| -> u8 {
            let v = c as f32 * (ambient + 0.75 * n_dot_l) + spec * 255.0;
            v.min(255.0) as u8
        };
        [scale(base[0]), scale(base[1]), scale(base[2])]
    }
}

/// A rasterized fragment as a draw holds it until its warp is shaded: the
/// per-pixel fields of a [`Fragment`], the index of its primitive in the
/// draw's [`Prim`] table, and its position in rasterization order.
#[derive(Debug, Clone, Copy)]
struct FragRec {
    x: u32,
    y: u32,
    z: f32,
    uv: Vec2,
    normal: Vec3,
    prim: u32,
    seq: u32,
}

/// What every fragment of one primitive shares.
#[derive(Debug, Clone, Copy)]
struct Prim {
    duv_dx: Vec2,
    duv_dy: Vec2,
    layer: u32,
    /// Attribute-ring address of the primitive's post-transform vertex.
    attr_addr: u64,
}

impl FragRec {
    /// The full fragment, and its primitive's attribute address.
    fn fragment(&self, p: &Prim) -> (Fragment, u64) {
        let f = Fragment {
            x: self.x,
            y: self.y,
            z: self.z,
            uv: self.uv,
            duv_dx: p.duv_dx,
            duv_dy: p.duv_dy,
            normal: self.normal,
            layer: p.layer,
        };
        (f, p.attr_addr)
    }
}

/// Texture instructions one map's lane footprints take: the longest one.
fn rounds(footprints: &[(usize, usize)]) -> usize {
    footprints
        .iter()
        .map(|&(start, end)| end - start)
        .max()
        .unwrap_or(0)
}

fn offscreen(tri: &[ScreenVertex; 3], w: u32, h: u32) -> bool {
    let (wf, hf) = (w as f32, h as f32);
    tri.iter().all(|v| v.sx < 0.0)
        || tri.iter().all(|v| v.sx >= wf)
        || tri.iter().all(|v| v.sy < 0.0)
        || tri.iter().all(|v| v.sy >= hf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::math::Vec2;
    use crate::mesh::Vertex;
    use crate::texture::{FilterMode, TextureFormat};
    use crisp_trace::InstrMix;

    fn quad_mesh(alloc: &mut AddressAllocator) -> Mesh {
        let v = |x: f32, y: f32, u: f32, vv: f32| Vertex {
            pos: Vec3::new(x, y, 0.0),
            normal: Vec3::new(0.0, 0.0, 1.0),
            uv: Vec2::new(u, vv),
            layer: 0,
        };
        Mesh::new(
            "quad",
            vec![
                v(-1.0, -1.0, 0.0, 0.0),
                v(1.0, -1.0, 1.0, 0.0),
                v(1.0, 1.0, 1.0, 1.0),
                v(-1.0, 1.0, 0.0, 1.0),
            ],
            vec![0, 1, 2, 0, 2, 3],
            alloc,
        )
    }

    fn tex(alloc: &mut AddressAllocator) -> Texture {
        let base = alloc.alloc(1 << 20, 256);
        Texture::new(
            "t",
            256,
            256,
            1,
            TextureFormat::Rgba8,
            FilterMode::Nearest,
            base,
        )
    }

    fn camera() -> Mat4 {
        let proj = Mat4::perspective(std::f32::consts::FRAC_PI_2, 1.0, 0.1, 100.0);
        let view = Mat4::look_at(
            Vec3::new(0.0, 0.0, 2.0),
            Vec3::ZERO,
            Vec3::new(0.0, 1.0, 0.0),
        );
        proj.mul(&view)
    }

    fn render_quad(lod0: bool) -> (Stream, FrameStats, f64) {
        let mut alloc = AddressAllocator::standard_layout();
        let mesh = quad_mesh(&mut alloc);
        let t = tex(&mut alloc);
        let mut cfg = RenderConfig::new(64, 64);
        cfg.lod0 = lod0;
        let mut r = Renderer::new(cfg);
        let d = DrawCall::simple(
            "q",
            mesh,
            vec![t],
            FragmentShader::basic_textured(),
            Mat4::identity(),
        );
        let s = r.render(&[d], &camera());
        let cov = r.framebuffer().coverage();
        (s, r.stats().clone(), cov)
    }

    #[test]
    fn a_fragment_record_fits_in_40_bytes() {
        // A draw holds one record per fragment until its warps are built:
        // the renderer's largest buffer.
        assert!(std::mem::size_of::<FragRec>() <= 40);
    }

    #[test]
    fn quad_renders_and_emits_two_kernels() {
        let (s, stats, cov) = render_quad(false);
        assert_eq!(s.kernel_count(), 2, "one VS + one FS kernel");
        assert_eq!(stats.draws.len(), 1);
        let d = &stats.draws[0];
        assert_eq!(d.vs_invocations, 4, "four unique vertices in one batch");
        assert_eq!(d.batches, 1);
        assert_eq!(d.prims, 2);
        assert_eq!(d.culled, 0);
        assert!(d.fragments > 0);
        assert!(
            cov > 0.2,
            "quad must cover a good part of the screen: {cov}"
        );
    }

    #[test]
    fn fragments_match_framebuffer_coverage() {
        let (_, stats, cov) = render_quad(false);
        let d = &stats.draws[0];
        let covered_px = (cov * 64.0 * 64.0).round() as u64;
        assert_eq!(d.fragments, covered_px, "no overdraw on a single quad");
    }

    #[test]
    fn backfaces_are_culled() {
        let mut alloc = AddressAllocator::standard_layout();
        let mesh = quad_mesh(&mut alloc);
        let t = tex(&mut alloc);
        let mut r = Renderer::new(RenderConfig::new(32, 32));
        // Flip the winding by rotating the quad 180° about Y.
        let d = DrawCall::simple(
            "back",
            mesh,
            vec![t],
            FragmentShader::basic_textured(),
            Mat4::rotate_y(std::f32::consts::PI),
        );
        let _ = r.render(&[d], &camera());
        let ds = &r.stats().draws[0];
        assert_eq!(ds.culled, 2, "both triangles face away");
        assert_eq!(ds.fragments, 0);
    }

    #[test]
    fn lod0_increases_texture_footprint_pressure() {
        // With a 256² texture on a 64² screen the quad is minified; LoD
        // selects a high mip and merges texels. Forcing mip 0 must spread
        // accesses over far more distinct cache lines.
        let (s_on, stats_on, _) = render_quad(false);
        let (s_off, stats_off, _) = render_quad(true);
        assert_eq!(stats_on.fragments(), stats_off.fragments());
        let lines = |s: &Stream| {
            let mut f = crisp_trace::ClassFootprint::new();
            for k in s.kernels() {
                f.add_kernel(k);
            }
            f.lines(DataClass::Texture)
        };
        let on = lines(&s_on);
        let off = lines(&s_off);
        assert!(
            off as f64 > on as f64 * 3.0,
            "mip-0 footprint must blow up: on={on} lines, off={off} lines"
        );
    }

    #[test]
    fn pbr_emits_more_texture_instructions() {
        let mut alloc = AddressAllocator::standard_layout();
        let mesh = quad_mesh(&mut alloc);
        let maps: Vec<Texture> = (0..8).map(|_| tex(&mut alloc)).collect();
        let mut r = Renderer::new(RenderConfig::new(64, 64));
        let d = DrawCall::simple("pbr", mesh, maps, FragmentShader::pbr(), Mat4::identity());
        let s = r.render(&[d], &camera());
        let pbr_tex = r.stats().draws[0].tex_instrs;
        let (_, basic_stats, _) = render_quad(false);
        assert!(
            pbr_tex >= basic_stats.draws[0].tex_instrs * 6,
            "8 maps must multiply texture work: pbr {pbr_tex} vs basic {}",
            basic_stats.draws[0].tex_instrs
        );
        // Instruction mix sanity: FS kernel dominated by FP with tex loads.
        let fs_kernel = s.kernels().nth(1).unwrap();
        let mix = InstrMix::of_kernel(fs_kernel);
        assert!(mix.tex > 0 && mix.fp > mix.tex);
    }

    #[test]
    fn instanced_draws_scale_vs_work() {
        let mut alloc = AddressAllocator::standard_layout();
        let mesh = quad_mesh(&mut alloc);
        let t = Texture::new(
            "layers",
            128,
            128,
            4,
            TextureFormat::Rgba8,
            FilterMode::Nearest,
            alloc.alloc(1 << 22, 256),
        );
        let ibuf = alloc.alloc(4096, 256);
        let mut d = DrawCall::simple(
            "inst",
            mesh,
            vec![t],
            FragmentShader::basic_textured(),
            Mat4::identity(),
        );
        d.instance_buffer = ibuf;
        d.instances = (0..5)
            .map(|i| Instance {
                transform: Mat4::translate(Vec3::new(i as f32 * 0.2 - 0.4, 0.0, 0.0)),
                layer: i as u32 % 4,
            })
            .collect();
        let mut r = Renderer::new(RenderConfig::new(64, 64));
        let _ = r.render(&[d], &camera());
        let ds = &r.stats().draws[0];
        assert_eq!(
            ds.vs_invocations,
            4 * 5,
            "each instance re-shades the batch"
        );
        assert_eq!(ds.prims, 10);
    }

    #[test]
    fn marker_precedes_kernels() {
        let (s, _, _) = render_quad(false);
        assert!(matches!(s.commands[0], crisp_trace::Command::Marker(_)));
        assert_eq!(s.commands.len(), 3);
    }

    #[test]
    fn reset_clears_frame_state() {
        let mut alloc = AddressAllocator::standard_layout();
        let mesh = quad_mesh(&mut alloc);
        let t = tex(&mut alloc);
        let mut r = Renderer::new(RenderConfig::new(32, 32));
        let d = DrawCall::simple(
            "q",
            mesh,
            vec![t],
            FragmentShader::basic_textured(),
            Mat4::identity(),
        );
        let _ = r.render(std::slice::from_ref(&d), &camera());
        assert!(!r.stats().draws.is_empty());
        r.reset();
        assert!(r.stats().draws.is_empty());
        assert_eq!(r.framebuffer().coverage(), 0.0);
    }

    #[test]
    #[should_panic(expected = "binds 0 textures")]
    fn missing_textures_panic() {
        let mut alloc = AddressAllocator::standard_layout();
        let mesh = quad_mesh(&mut alloc);
        let mut r = Renderer::new(RenderConfig::new(32, 32));
        let d = DrawCall::simple(
            "bad",
            mesh,
            vec![],
            FragmentShader::basic_textured(),
            Mat4::identity(),
        );
        let _ = r.render(&[d], &camera());
    }

    #[test]
    fn vs_threads_from_warps_round_up() {
        let (_, stats, _) = render_quad(false);
        let d = &stats.draws[0];
        // 4 unique vertices → 1 warp → 32 threads reported by the sim side.
        assert_eq!(d.vs_threads_from_warps, 32);
        assert!(d.vs_threads_from_warps >= d.vs_invocations);
    }
}
