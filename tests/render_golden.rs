//! Golden renderer output: one FNV-64 digest per scene over everything the
//! renderer emits.
//!
//! Each digest covers, in order:
//!
//! * the CRSP bytes of the rendered graphics stream (`codec::write_bundle`);
//! * the framebuffer's RGB, row by row;
//! * every draw's [`DrawStats`], field by field.
//!
//! Renderer optimisations must leave all three byte-identical, so a change
//! to how the trace is built that moves one address, one instruction, one
//! pixel or one counter fails here. Every scene renders at detail 0.2 and
//! 96×54, small enough for a debug-build `cargo test`. Two larger frames
//! pin the order of overlapping fragments on overdrawn pixels at the
//! sizes the experiments render: SponzaPbr at the quick 160×90 and
//! SponzaKhronos at Figure 8's 640×360.

use crisp_core::prelude::*;
use crisp_gfx::DrawStats;
use crisp_trace::codec;

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

fn stats_digest(h: &mut Fnv, d: &DrawStats) {
    h.bytes(d.name.as_bytes());
    for v in [
        d.vs_invocations,
        d.vs_threads_from_warps,
        d.batches,
        d.prims,
        d.culled,
        d.fragments,
        d.tex_instrs,
        d.tex_sectors,
        d.tex_rows,
    ] {
        h.u64(v);
    }
}

fn render_digest(id: SceneId, w: u32, h: u32) -> u64 {
    let frame = Scene::build(id, 0.2).render(w, h, false, GRAPHICS_STREAM);
    assert!(
        frame.stats.fragments() > 0 && frame.stats.tex_instrs() > 0,
        "{id:?} must exercise the fragment and texture paths"
    );
    let mut h = Fnv::new();
    let mut crsp = Vec::new();
    codec::write_bundle(&TraceBundle::from_streams(vec![frame.trace]), &mut crsp)
        .expect("encode the rendered stream");
    h.bytes(&crsp);
    let fb = &frame.framebuffer;
    for y in 0..fb.height() {
        for x in 0..fb.width() {
            h.bytes(&fb.color_at(x, y));
        }
    }
    for d in &frame.stats.draws {
        stats_digest(&mut h, d);
    }
    h.0
}

#[test]
fn rendered_trace_framebuffer_and_stats_are_pinned() {
    let expected: [(SceneId, u64); 6] = [
        (SceneId::SponzaKhronos, 0xd058_f8ed_f36d_a501),
        (SceneId::SponzaPbr, 0x1d93_154e_9027_a4f7),
        (SceneId::Pistol, 0x5035_758d_e743_41f5),
        (SceneId::Planets, 0xda09_9cd9_7700_cc41),
        (SceneId::Platformer, 0x1e6d_42a9_cd93_b07e),
        (SceneId::MaterialTesters, 0xae8f_e55b_a043_66b5),
    ];
    assert_eq!(expected.map(|(id, _)| id), SceneId::ALL);
    let got: Vec<(SceneId, u64)> = expected
        .iter()
        .map(|&(id, _)| (id, render_digest(id, 96, 54)))
        .collect();
    for (&(id, want), &(_, have)) in expected.iter().zip(&got) {
        assert_eq!(
            have, want,
            "{id:?}: renderer output changed (digest {have:#018x}); all: {got:x?}"
        );
    }
}

#[test]
fn experiment_sized_frames_are_pinned() {
    for (id, (w, h), want) in [
        (SceneId::SponzaPbr, (160, 90), 0xeedf_0328_02c8_44c0),
        (SceneId::SponzaKhronos, (640, 360), 0xf1ce_5dd8_0f4b_da12),
    ] {
        let have = render_digest(id, w, h);
        assert_eq!(
            have, want,
            "{id:?} at {w}x{h}: renderer output changed (digest {have:#018x})"
        );
    }
}
