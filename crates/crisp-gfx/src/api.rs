//! A Vulkan-flavoured command-recording front end.
//!
//! Mirrors the paper's Figure 1 flow: "the CPU records commands (draw
//! calls, state changes, resource bindings, etc) and saves them in a
//! command buffer. ... After all commands needed for one frame are saved,
//! the CPU calls vkQueueSubmit to submit the command buffer to the GPU,
//! which triggers the simulation of the frame."
//!
//! The [`Device`] owns resources (meshes, textures) and the render state;
//! a [`CommandBuffer`] records state changes and draws; `queue_submit`
//! executes the frame through the [`Renderer`] and returns the graphics
//! stream trace.
//!
//! # Example
//!
//! ```
//! use crisp_gfx::api::Device;
//! use crisp_gfx::{FragmentShader, Mat4, RenderConfig, TextureFormat, FilterMode, Vec2, Vec3, Vertex};
//!
//! let mut dev = Device::new(RenderConfig::new(64, 64));
//! let tri = dev.create_mesh(
//!     "tri",
//!     vec![
//!         Vertex { pos: Vec3::new(-1.0, -1.0, 0.0), normal: Vec3::new(0.0, 0.0, 1.0), uv: Vec2::new(0.0, 0.0), layer: 0 },
//!         Vertex { pos: Vec3::new(1.0, -1.0, 0.0), normal: Vec3::new(0.0, 0.0, 1.0), uv: Vec2::new(1.0, 0.0), layer: 0 },
//!         Vertex { pos: Vec3::new(0.0, 1.0, 0.0), normal: Vec3::new(0.0, 0.0, 1.0), uv: Vec2::new(0.5, 1.0), layer: 0 },
//!     ],
//!     vec![0, 1, 2],
//! );
//! let tex = dev.create_texture("albedo", 64, 64, 1, TextureFormat::Rgba8, FilterMode::Bilinear);
//!
//! let mut cb = dev.begin_commands();
//! cb.set_view_proj(Mat4::identity());
//! cb.bind_fragment_shader(FragmentShader::basic_textured());
//! cb.bind_texture(0, tex);
//! cb.draw(tri, Mat4::identity());
//! let frame = dev.queue_submit(cb);
//! assert_eq!(frame.trace.kernel_count(), 2); // VS + FS kernels
//! ```

use crate::compute::{dispatch, ComputeShader};
use crate::math::Mat4;
use crate::mesh::{AddressAllocator, Mesh, Vertex};
use crate::pipeline::{DrawCall, FrameStats, Instance, RenderConfig, Renderer, INSTANCE_STRIDE};
use crate::shader::{FragmentShader, VertexShader};
use crate::texture::{FilterMode, Texture, TextureFormat};
use crate::Framebuffer;
use crisp_trace::{KernelTrace, Stream, StreamId, StreamKind};

/// Handle to a device-owned mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeshHandle(usize);

/// Handle to a device-owned texture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TextureHandle(usize);

/// A submitted frame: the emitted trace plus functional outputs.
#[derive(Debug)]
pub struct SubmittedFrame {
    /// The graphics stream to feed the simulator.
    pub trace: Stream,
    /// Frame statistics.
    pub stats: FrameStats,
    /// The shaded framebuffer.
    pub framebuffer: Framebuffer,
}

/// One recorded command.
#[derive(Debug, Clone)]
enum Cmd {
    SetViewProj(Mat4),
    BindFs(FragmentShader),
    BindVs(VertexShader),
    BindTexture(usize, TextureHandle),
    Draw {
        mesh: MeshHandle,
        model: Mat4,
    },
    DrawInstanced {
        mesh: MeshHandle,
        model: Mat4,
        instances: Vec<Instance>,
    },
}

/// A command buffer in the recording state.
#[derive(Debug, Default)]
pub struct CommandBuffer {
    cmds: Vec<Cmd>,
}

impl CommandBuffer {
    /// Set the frame's view-projection matrix.
    pub fn set_view_proj(&mut self, vp: Mat4) -> &mut Self {
        self.cmds.push(Cmd::SetViewProj(vp));
        self
    }

    /// Bind the fragment shader for subsequent draws.
    pub fn bind_fragment_shader(&mut self, fs: FragmentShader) -> &mut Self {
        self.cmds.push(Cmd::BindFs(fs));
        self
    }

    /// Bind the vertex shader for subsequent draws.
    pub fn bind_vertex_shader(&mut self, vs: VertexShader) -> &mut Self {
        self.cmds.push(Cmd::BindVs(vs));
        self
    }

    /// Bind `tex` to texture `slot`.
    pub fn bind_texture(&mut self, slot: usize, tex: TextureHandle) -> &mut Self {
        self.cmds.push(Cmd::BindTexture(slot, tex));
        self
    }

    /// Record a drawcall with the current state.
    pub fn draw(&mut self, mesh: MeshHandle, model: Mat4) -> &mut Self {
        self.cmds.push(Cmd::Draw { mesh, model });
        self
    }

    /// Record an instanced drawcall.
    pub fn draw_instanced(
        &mut self,
        mesh: MeshHandle,
        model: Mat4,
        instances: Vec<Instance>,
    ) -> &mut Self {
        self.cmds.push(Cmd::DrawInstanced {
            mesh,
            model,
            instances,
        });
        self
    }

    /// Number of recorded commands.
    pub fn len(&self) -> usize {
        self.cmds.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.cmds.is_empty()
    }
}

/// The device: owns resources, render state and the renderer.
#[derive(Debug)]
pub struct Device {
    cfg: RenderConfig,
    buffer_alloc: AddressAllocator,
    texture_alloc: AddressAllocator,
    instance_alloc: AddressAllocator,
    meshes: Vec<Mesh>,
    textures: Vec<Texture>,
    frame_index: u64,
}

impl Device {
    /// A device rendering at the configuration's resolution.
    pub fn new(cfg: RenderConfig) -> Self {
        Device {
            cfg,
            buffer_alloc: AddressAllocator::standard_layout(),
            texture_alloc: AddressAllocator::new(AddressAllocator::TEXTURE_BASE),
            instance_alloc: AddressAllocator::new(0x3000_0000),
            meshes: Vec::new(),
            textures: Vec::new(),
            frame_index: 0,
        }
    }

    /// Upload a mesh; its buffers are placed in the device address space.
    pub fn create_mesh(
        &mut self,
        name: &str,
        vertices: Vec<Vertex>,
        indices: Vec<u32>,
    ) -> MeshHandle {
        self.meshes
            .push(Mesh::new(name, vertices, indices, &mut self.buffer_alloc));
        MeshHandle(self.meshes.len() - 1)
    }

    /// Create a texture with a full mip chain.
    pub fn create_texture(
        &mut self,
        name: &str,
        width: u32,
        height: u32,
        layers: u32,
        format: TextureFormat,
        filter: FilterMode,
    ) -> TextureHandle {
        let probe = Texture::new(name, width, height, layers, format, filter, 0);
        let base = self.texture_alloc.alloc(probe.size_bytes(), 256);
        self.textures.push(Texture::new(
            name, width, height, layers, format, filter, base,
        ));
        TextureHandle(self.textures.len() - 1)
    }

    /// Begin recording a command buffer.
    pub fn begin_commands(&self) -> CommandBuffer {
        CommandBuffer::default()
    }

    /// Record one Vulkan-style compute dispatch as a kernel trace; chain
    /// several into a [`Stream`] with [`Device::compute_stream`] to pair
    /// with rendering via async compute.
    pub fn dispatch_compute(
        &mut self,
        name: &str,
        shader: &ComputeShader,
        grid: usize,
        warps_per_cta: usize,
    ) -> KernelTrace {
        let input = self.instance_alloc.alloc(1 << 20, 256);
        let output = self.instance_alloc.alloc(1 << 20, 256);
        dispatch(name, shader, grid, warps_per_cta, input, output)
    }

    /// Wrap dispatched kernels into a compute stream for concurrent replay.
    pub fn compute_stream(&self, id: StreamId, kernels: Vec<KernelTrace>) -> Stream {
        let mut s = Stream::new(id, StreamKind::Compute);
        for k in kernels {
            s.launch(k);
        }
        s
    }

    /// Execute a recorded frame (`vkQueueSubmit`): replays the commands
    /// through the pipeline, producing the trace and the shaded image.
    ///
    /// # Panics
    ///
    /// Panics if a draw is recorded before a fragment shader + enough
    /// textures are bound, or a handle is stale.
    pub fn queue_submit(&mut self, cb: CommandBuffer) -> SubmittedFrame {
        let mut view_proj = Mat4::identity();
        let mut fs = FragmentShader::basic_textured();
        let mut vs = VertexShader::transform();
        let mut bound: Vec<Option<TextureHandle>> = vec![None; 16];
        let mut draws: Vec<DrawCall> = Vec::new();
        let frame = self.frame_index;
        self.frame_index += 1;
        for (i, cmd) in cb.cmds.into_iter().enumerate() {
            match cmd {
                Cmd::SetViewProj(m) => view_proj = m,
                Cmd::BindFs(f) => fs = f,
                Cmd::BindVs(v) => vs = v,
                Cmd::BindTexture(slot, t) => {
                    assert!(slot < bound.len(), "texture slot {slot} out of range");
                    assert!(t.0 < self.textures.len(), "stale texture handle");
                    bound[slot] = Some(t);
                }
                Cmd::Draw { mesh, model } => {
                    draws.push(self.build_draw(
                        format!("f{frame}_d{i}"),
                        mesh,
                        model,
                        vs,
                        fs,
                        &bound,
                        vec![Instance::identity()],
                        0,
                    ));
                }
                Cmd::DrawInstanced {
                    mesh,
                    model,
                    instances,
                } => {
                    let ibuf = self
                        .instance_alloc
                        .alloc(instances.len() as u64 * INSTANCE_STRIDE, 256);
                    draws.push(self.build_draw(
                        format!("f{frame}_d{i}"),
                        mesh,
                        model,
                        vs,
                        fs,
                        &bound,
                        instances,
                        ibuf,
                    ));
                }
            }
        }
        let mut renderer = Renderer::new(self.cfg.clone());
        let trace = renderer.render(&draws, &view_proj);
        let stats = renderer.stats().clone();
        SubmittedFrame {
            trace,
            stats,
            framebuffer: renderer.into_framebuffer(),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn build_draw(
        &self,
        name: String,
        mesh: MeshHandle,
        model: Mat4,
        vs: VertexShader,
        fs: FragmentShader,
        bound: &[Option<TextureHandle>],
        instances: Vec<Instance>,
        instance_buffer: u64,
    ) -> DrawCall {
        assert!(mesh.0 < self.meshes.len(), "stale mesh handle");
        let textures: Vec<Texture> = (0..fs.map_slots)
            .map(|slot| {
                let h = bound[slot]
                    .unwrap_or_else(|| panic!("draw needs a texture bound at slot {slot}"));
                self.textures[h.0].clone()
            })
            .collect();
        DrawCall {
            name,
            mesh: self.meshes[mesh.0].clone(),
            textures,
            vs,
            fs,
            model,
            instances,
            instance_buffer,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::math::{Vec2, Vec3};

    fn quad_verts() -> Vec<Vertex> {
        let v = |x: f32, y: f32| Vertex {
            pos: Vec3::new(x, y, 0.0),
            normal: Vec3::new(0.0, 0.0, 1.0),
            uv: Vec2::new(x * 0.5 + 0.5, y * 0.5 + 0.5),
            layer: 0,
        };
        vec![v(-1.0, -1.0), v(1.0, -1.0), v(1.0, 1.0), v(-1.0, 1.0)]
    }

    fn device() -> Device {
        Device::new(RenderConfig::new(64, 64))
    }

    #[test]
    fn record_and_submit_renders_a_frame() {
        let mut dev = device();
        let mesh = dev.create_mesh("q", quad_verts(), vec![0, 1, 2, 0, 2, 3]);
        let tex = dev.create_texture("t", 64, 64, 1, TextureFormat::Rgba8, FilterMode::Bilinear);
        let mut cb = dev.begin_commands();
        cb.bind_fragment_shader(FragmentShader::basic_textured())
            .bind_texture(0, tex)
            .draw(mesh, Mat4::identity());
        assert_eq!(cb.len(), 3);
        let f = dev.queue_submit(cb);
        assert!(f.stats.fragments() > 0);
        assert!(f.framebuffer.coverage() > 0.5, "full-screen quad");
        assert_eq!(f.trace.kernel_count(), 2);
    }

    #[test]
    fn state_persists_across_draws() {
        let mut dev = device();
        let mesh = dev.create_mesh("q", quad_verts(), vec![0, 1, 2]);
        let tex = dev.create_texture("t", 32, 32, 1, TextureFormat::Rgba8, FilterMode::Nearest);
        let mut cb = dev.begin_commands();
        cb.bind_fragment_shader(FragmentShader::phong());
        cb.bind_texture(0, tex);
        cb.draw(mesh, Mat4::identity());
        cb.draw(mesh, Mat4::translate(Vec3::new(0.1, 0.0, 0.0)));
        let f = dev.queue_submit(cb);
        assert_eq!(f.stats.draws.len(), 2, "both draws use the bound state");
    }

    #[test]
    fn texture_allocations_do_not_overlap() {
        let mut dev = device();
        let a = dev.create_texture("a", 128, 128, 1, TextureFormat::Rgba8, FilterMode::Nearest);
        let b = dev.create_texture("b", 128, 128, 1, TextureFormat::Rgba8, FilterMode::Nearest);
        let ta = dev.textures[a.0].clone();
        let tb = dev.textures[b.0].clone();
        assert!(tb.base_addr >= ta.base_addr + ta.size_bytes());
    }

    #[test]
    fn instanced_draw_records_instances() {
        let mut dev = device();
        let mesh = dev.create_mesh("q", quad_verts(), vec![0, 1, 2]);
        let tex = dev.create_texture("t", 32, 32, 4, TextureFormat::Rgba8, FilterMode::Nearest);
        let mut cb = dev.begin_commands();
        cb.bind_fragment_shader(FragmentShader::basic_textured());
        cb.bind_texture(0, tex);
        let instances: Vec<Instance> = (0..3)
            .map(|i| Instance {
                transform: Mat4::translate(Vec3::new(i as f32 * 0.2, 0.0, 0.0)),
                layer: i,
            })
            .collect();
        cb.draw_instanced(mesh, Mat4::identity(), instances);
        let f = dev.queue_submit(cb);
        assert_eq!(f.stats.draws[0].prims, 3, "one triangle × 3 instances");
    }

    #[test]
    #[should_panic(expected = "texture bound at slot")]
    fn draw_without_texture_panics() {
        let mut dev = device();
        let mesh = dev.create_mesh("q", quad_verts(), vec![0, 1, 2]);
        let mut cb = dev.begin_commands();
        cb.bind_fragment_shader(FragmentShader::basic_textured());
        cb.draw(mesh, Mat4::identity());
        let _ = dev.queue_submit(cb);
    }

    #[test]
    fn compute_dispatches_form_a_stream() {
        let mut dev = device();
        let k1 = dev.dispatch_compute("copy", &ComputeShader::streaming(), 4, 2);
        let k2 = dev.dispatch_compute("gemm", &ComputeShader::gemm(), 2, 4);
        let s = dev.compute_stream(crisp_trace::StreamId(1), vec![k1, k2]);
        assert_eq!(s.kernel_count(), 2);
        assert_eq!(s.kind, StreamKind::Compute);
        // Dispatches get disjoint buffers from the device allocator.
        let firsts: Vec<u64> = s
            .kernels()
            .map(|k| {
                k.ctas[0].warps[0]
                    .iter()
                    .find_map(|i| i.mem)
                    .expect("loads")
                    .addrs[0]
            })
            .collect();
        assert_ne!(firsts[0], firsts[1]);
    }

    #[test]
    fn frame_indices_name_the_kernels_uniquely() {
        let mut dev = device();
        let mesh = dev.create_mesh("q", quad_verts(), vec![0, 1, 2]);
        let tex = dev.create_texture("t", 32, 32, 1, TextureFormat::Rgba8, FilterMode::Nearest);
        let submit = |dev: &mut Device| {
            let mut cb = dev.begin_commands();
            cb.bind_fragment_shader(FragmentShader::basic_textured());
            cb.bind_texture(0, tex);
            cb.draw(mesh, Mat4::identity());
            dev.queue_submit(cb)
        };
        let f0 = submit(&mut dev);
        let f1 = submit(&mut dev);
        let n0 = f0.trace.kernels().next().unwrap().name.clone();
        let n1 = f1.trace.kernels().next().unwrap().name.clone();
        assert_ne!(n0, n1, "frames are distinguishable in the trace");
    }
}
