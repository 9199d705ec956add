//! Rasterization: edge functions, tiles, early-Z, rasterization-time LoD.
//!
//! Implements the paper's Figure 2 stage ④: primitives are transformed from
//! 3-D to 2-D and filled with linear interpolation; the early-Z test
//! eliminates occluded pixels before shading; and because approximated quads
//! cannot compute runtime derivatives, "the LoD for each fragment is
//! calculated during rasterization" and later looked up by the texture unit.

use crate::fb::Framebuffer;
use crate::math::{Vec2, Vec3, Vec4};

/// Screen tile edge in pixels (Immediate Tiled Rendering grid).
pub const TILE_SIZE: u32 = 16;

/// A vertex after the vertex shader, in clip space plus screen mapping.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScreenVertex {
    /// Clip-space position.
    pub clip: Vec4,
    /// Screen-space x in pixels.
    pub sx: f32,
    /// Screen-space y in pixels.
    pub sy: f32,
    /// NDC depth in [0, 1].
    pub z: f32,
    /// Texture coordinates.
    pub uv: Vec2,
    /// World-space normal.
    pub normal: Vec3,
    /// Texture-array layer.
    pub layer: u32,
}

impl ScreenVertex {
    /// Map a clip-space vertex to the screen. Returns `None` when behind
    /// the camera (w <= 0), which the caller must treat as clipped.
    pub fn from_clip(
        clip: Vec4,
        uv: Vec2,
        normal: Vec3,
        layer: u32,
        width: u32,
        height: u32,
    ) -> Option<Self> {
        Self::from_clip_viewport(clip, uv, normal, layer, (0, 0, width, height))
    }

    /// [`ScreenVertex::from_clip`] into an explicit viewport rectangle
    /// `(x, y, w, h)` — stereo XR rendering maps each eye into its own
    /// half of the framebuffer.
    pub fn from_clip_viewport(
        clip: Vec4,
        uv: Vec2,
        normal: Vec3,
        layer: u32,
        viewport: (u32, u32, u32, u32),
    ) -> Option<Self> {
        if clip.w <= 1e-6 {
            return None;
        }
        let (vx, vy, vw, vh) = viewport;
        let inv_w = 1.0 / clip.w;
        let ndc_x = clip.x * inv_w;
        let ndc_y = clip.y * inv_w;
        let z = clip.z * inv_w;
        Some(ScreenVertex {
            clip,
            sx: vx as f32 + (ndc_x * 0.5 + 0.5) * vw as f32,
            sy: vy as f32 + (0.5 - ndc_y * 0.5) * vh as f32,
            z,
            uv,
            normal,
            layer,
        })
    }
}

/// One fragment produced by the rasterizer, carrying its pre-computed LoD
/// derivatives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fragment {
    /// Pixel x.
    pub x: u32,
    /// Pixel y.
    pub y: u32,
    /// Depth in [0, 1] (smaller = closer).
    pub z: f32,
    /// Interpolated texture coordinates.
    pub uv: Vec2,
    /// d(uv)/dx over the triangle (constant per primitive).
    pub duv_dx: Vec2,
    /// d(uv)/dy over the triangle.
    pub duv_dy: Vec2,
    /// Interpolated normal.
    pub normal: Vec3,
    /// Texture-array layer.
    pub layer: u32,
}

impl Fragment {
    /// The tile this fragment belongs to.
    pub fn tile(&self, tiles_x: u32) -> u32 {
        (self.y / TILE_SIZE) * tiles_x + (self.x / TILE_SIZE)
    }
}

/// Signed double-area of a screen triangle (positive = counter-clockwise in
/// screen space, which with y-down means clockwise in NDC).
pub fn signed_area2(a: (f32, f32), b: (f32, f32), c: (f32, f32)) -> f32 {
    (b.0 - a.0) * (c.1 - a.1) - (b.1 - a.1) * (c.0 - a.0)
}

/// Whether a triangle is back-facing (culled) for the given winding.
pub fn is_backface(v: &[ScreenVertex; 3]) -> bool {
    signed_area2((v[0].sx, v[0].sy), (v[1].sx, v[1].sy), (v[2].sx, v[2].sy)) >= 0.0
}

/// Rasterize one triangle with early-Z against `fb`'s depth buffer,
/// handing each surviving fragment to `emit` in row-major order.
///
/// Fragments that fail the depth test are eliminated before shading ("the
/// early-Z test eliminates the pixels that are blocked to reduce the total
/// number of pixels that need to be rendered"); survivors update the depth
/// buffer immediately.
pub fn rasterize(v: &[ScreenVertex; 3], fb: &mut Framebuffer, mut emit: impl FnMut(Fragment)) {
    let (w, h) = (fb.width(), fb.height());
    let (ax, ay) = (v[0].sx, v[0].sy);
    let (bx, by) = (v[1].sx, v[1].sy);
    let (cx, cy) = (v[2].sx, v[2].sy);
    let area = signed_area2((ax, ay), (bx, by), (cx, cy));
    if area.abs() < 1e-9 {
        return;
    }
    // Per-triangle constant uv derivatives (affine approximation — the
    // paper's approximated-quads LoD has the same granularity).
    let e1 = (bx - ax, by - ay);
    let e2 = (cx - ax, cy - ay);
    let det = e1.0 * e2.1 - e1.1 * e2.0;
    let duv1 = v[1].uv - v[0].uv;
    let duv2 = v[2].uv - v[0].uv;
    let inv_det = 1.0 / det;
    let duv_dx = Vec2::new(
        (duv1.x * e2.1 - duv2.x * e1.1) * inv_det,
        (duv1.y * e2.1 - duv2.y * e1.1) * inv_det,
    );
    let duv_dy = Vec2::new(
        (duv2.x * e1.0 - duv1.x * e2.0) * inv_det,
        (duv2.y * e1.0 - duv1.y * e2.0) * inv_det,
    );

    let min_x = ax.min(bx).min(cx).floor().max(0.0) as u32;
    let max_x = (ax.max(bx).max(cx).ceil() as i64).clamp(0, w as i64) as u32;
    let min_y = ay.min(by).min(cy).floor().max(0.0) as u32;
    let max_y = (ay.max(by).max(cy).ceil() as i64).clamp(0, h as i64) as u32;

    let inv_area = 1.0 / area;
    for py in min_y..max_y {
        for px in min_x..max_x {
            let p = (px as f32 + 0.5, py as f32 + 0.5);
            let w0 = signed_area2((bx, by), (cx, cy), p) * inv_area;
            let w1 = signed_area2((cx, cy), (ax, ay), p) * inv_area;
            let w2 = signed_area2((ax, ay), (bx, by), p) * inv_area;
            if w0 < 0.0 || w1 < 0.0 || w2 < 0.0 {
                continue;
            }
            let z = w0 * v[0].z + w1 * v[1].z + w2 * v[2].z;
            if !(0.0..=1.0).contains(&z) {
                continue; // outside the depth range (near/far clipped)
            }
            // Early-Z: test and update before any shading happens.
            if !fb.depth_test_and_set(px, py, z) {
                continue;
            }
            let uv = Vec2::new(
                w0 * v[0].uv.x + w1 * v[1].uv.x + w2 * v[2].uv.x,
                w0 * v[0].uv.y + w1 * v[1].uv.y + w2 * v[2].uv.y,
            );
            let normal = Vec3::new(
                w0 * v[0].normal.x + w1 * v[1].normal.x + w2 * v[2].normal.x,
                w0 * v[0].normal.y + w1 * v[1].normal.y + w2 * v[2].normal.y,
                w0 * v[0].normal.z + w1 * v[1].normal.z + w2 * v[2].normal.z,
            );
            emit(Fragment {
                x: px,
                y: py,
                z,
                uv,
                duv_dx,
                duv_dy,
                normal,
                layer: v[0].layer,
            });
        }
    }
}

/// The ITR screen-tile grid: maps fragments/primitives to tiles and tiles
/// to the SM that rasterizes them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileGrid {
    /// Tiles per row.
    pub tiles_x: u32,
    /// Tile rows.
    pub tiles_y: u32,
}

impl TileGrid {
    /// The grid covering a `width`×`height` screen.
    pub fn new(width: u32, height: u32) -> Self {
        TileGrid {
            tiles_x: width.div_ceil(TILE_SIZE),
            tiles_y: height.div_ceil(TILE_SIZE),
        }
    }

    /// Total tiles.
    pub fn count(&self) -> u32 {
        self.tiles_x * self.tiles_y
    }

    /// Tiles overlapped by a screen-space bounding box.
    pub fn tiles_for_bbox(&self, min_x: f32, min_y: f32, max_x: f32, max_y: f32) -> Vec<u32> {
        let tx0 = (min_x.max(0.0) as u32 / TILE_SIZE).min(self.tiles_x.saturating_sub(1));
        let ty0 = (min_y.max(0.0) as u32 / TILE_SIZE).min(self.tiles_y.saturating_sub(1));
        let tx1 = ((max_x.max(0.0) as u32) / TILE_SIZE).min(self.tiles_x.saturating_sub(1));
        let ty1 = ((max_y.max(0.0) as u32) / TILE_SIZE).min(self.tiles_y.saturating_sub(1));
        let mut out = Vec::new();
        for ty in ty0..=ty1 {
            for tx in tx0..=tx1 {
                out.push(ty * self.tiles_x + tx);
            }
        }
        out
    }

    /// Round-robin tile → SM assignment (survivor redistribution over the
    /// interconnect, stage ④).
    pub fn sm_for_tile(&self, tile: u32, n_sms: usize) -> usize {
        (tile as usize) % n_sms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(sx: f32, sy: f32, z: f32, uv: Vec2) -> ScreenVertex {
        ScreenVertex {
            clip: Vec4::new(0.0, 0.0, 0.0, 1.0),
            sx,
            sy,
            z,
            uv,
            normal: Vec3::new(0.0, 0.0, 1.0),
            layer: 0,
        }
    }

    /// Every fragment `rasterize` emits for `t`, in emission order.
    fn collect_frags(t: &[ScreenVertex; 3], fb: &mut Framebuffer) -> Vec<Fragment> {
        let mut frags = Vec::new();
        rasterize(t, fb, |f| frags.push(f));
        frags
    }

    fn full_quad_tris(size: f32) -> [[ScreenVertex; 3]; 2] {
        // Two triangles covering [0,size)². Screen-space CCW in y-down
        // coordinates (negative signed area) to pass is_backface.
        let a = sv(0.0, 0.0, 0.5, Vec2::new(0.0, 0.0));
        let b = sv(size, 0.0, 0.5, Vec2::new(1.0, 0.0));
        let c = sv(size, size, 0.5, Vec2::new(1.0, 1.0));
        let d = sv(0.0, size, 0.5, Vec2::new(0.0, 1.0));
        [[a, c, b], [a, d, c]]
    }

    #[test]
    fn full_screen_quad_covers_every_pixel() {
        let mut fb = Framebuffer::new(16, 16);
        let tris = full_quad_tris(16.0);
        let n: usize = tris.iter().map(|t| collect_frags(t, &mut fb).len()).sum();
        assert_eq!(n, 256, "every pixel covered exactly once");
    }

    #[test]
    fn early_z_eliminates_occluded_fragments() {
        let mut fb = Framebuffer::new(8, 8);
        let mut near = full_quad_tris(8.0);
        for t in &mut near {
            for v in t.iter_mut() {
                v.z = 0.2;
            }
        }
        let n_near: usize = near.iter().map(|t| collect_frags(t, &mut fb).len()).sum();
        assert_eq!(n_near, 64);
        // A farther quad drawn after is fully occluded.
        let far = full_quad_tris(8.0);
        let n_far: usize = far.iter().map(|t| collect_frags(t, &mut fb).len()).sum();
        assert_eq!(n_far, 0, "early-Z must kill occluded fragments");
    }

    #[test]
    fn closer_geometry_still_passes() {
        let mut fb = Framebuffer::new(8, 8);
        let far = full_quad_tris(8.0);
        for t in &far {
            let _ = collect_frags(t, &mut fb);
        }
        let mut near = full_quad_tris(8.0);
        for t in &mut near {
            for v in t.iter_mut() {
                v.z = 0.1;
            }
        }
        let n: usize = near.iter().map(|t| collect_frags(t, &mut fb).len()).sum();
        assert_eq!(n, 64, "closer fragments replace farther ones");
    }

    #[test]
    fn uv_interpolation_spans_the_quad() {
        let mut fb = Framebuffer::new(16, 16);
        let tris = full_quad_tris(16.0);
        let frags: Vec<Fragment> = tris
            .iter()
            .flat_map(|t| collect_frags(t, &mut fb))
            .collect();
        let corner = frags.iter().find(|f| f.x == 0 && f.y == 0).unwrap();
        assert!(corner.uv.x < 0.1 && corner.uv.y < 0.1);
        let opposite = frags.iter().find(|f| f.x == 15 && f.y == 15).unwrap();
        assert!(opposite.uv.x > 0.9 && opposite.uv.y > 0.9);
    }

    #[test]
    fn derivatives_match_screen_mapping() {
        // uv spans 1.0 over 16 pixels → |duv/dx| = 1/16 per pixel.
        let mut fb = Framebuffer::new(16, 16);
        let tris = full_quad_tris(16.0);
        let frags = collect_frags(&tris[0], &mut fb);
        let f = &frags[0];
        assert!((f.duv_dx.x - 1.0 / 16.0).abs() < 1e-4, "{:?}", f.duv_dx);
        assert!((f.duv_dy.y - 1.0 / 16.0).abs() < 1e-4, "{:?}", f.duv_dy);
    }

    #[test]
    fn degenerate_triangle_produces_nothing() {
        let mut fb = Framebuffer::new(8, 8);
        let a = sv(1.0, 1.0, 0.5, Vec2::default());
        let t = [a, a, a];
        assert!(collect_frags(&t, &mut fb).is_empty());
    }

    #[test]
    fn backface_detection() {
        let tris = full_quad_tris(8.0);
        assert!(!is_backface(&tris[0]));
        let flipped = [tris[0][0], tris[0][2], tris[0][1]];
        assert!(is_backface(&flipped));
    }

    #[test]
    fn from_clip_rejects_behind_camera() {
        let v = ScreenVertex::from_clip(
            Vec4::new(0.0, 0.0, 0.0, -1.0),
            Vec2::default(),
            Vec3::ZERO,
            0,
            64,
            64,
        );
        assert!(v.is_none());
    }

    #[test]
    fn viewport_offsets_the_mapping() {
        // NDC origin lands at the viewport's centre, not the screen's.
        let v = ScreenVertex::from_clip_viewport(
            Vec4::new(0.0, 0.0, 0.5, 1.0),
            Vec2::default(),
            Vec3::ZERO,
            0,
            (100, 20, 50, 40),
        )
        .unwrap();
        assert!((v.sx - 125.0).abs() < 1e-4);
        assert!((v.sy - 40.0).abs() < 1e-4);
    }

    #[test]
    fn from_clip_maps_ndc_to_pixels() {
        let v = ScreenVertex::from_clip(
            Vec4::new(0.0, 0.0, 0.5, 1.0),
            Vec2::default(),
            Vec3::ZERO,
            0,
            100,
            50,
        )
        .unwrap();
        assert!((v.sx - 50.0).abs() < 1e-4);
        assert!((v.sy - 25.0).abs() < 1e-4);
        assert!((v.z - 0.5).abs() < 1e-6);
    }

    #[test]
    fn tile_grid_covers_screen() {
        let g = TileGrid::new(100, 60);
        assert_eq!(g.tiles_x, 7);
        assert_eq!(g.tiles_y, 4);
        assert_eq!(g.count(), 28);
        let all = g.tiles_for_bbox(0.0, 0.0, 99.0, 59.0);
        assert_eq!(all.len(), 28);
        let one = g.tiles_for_bbox(2.0, 2.0, 10.0, 10.0);
        assert_eq!(one, vec![0]);
    }

    #[test]
    fn fragments_know_their_tile() {
        let f = Fragment {
            x: 33,
            y: 17,
            z: 0.0,
            uv: Vec2::default(),
            duv_dx: Vec2::default(),
            duv_dy: Vec2::default(),
            normal: Vec3::ZERO,
            layer: 0,
        };
        let g = TileGrid::new(64, 64);
        assert_eq!(f.tile(g.tiles_x), 4 + (33 / 16));
    }

    #[test]
    fn tile_to_sm_round_robin() {
        let g = TileGrid::new(64, 64);
        assert_eq!(g.sm_for_tile(0, 4), 0);
        assert_eq!(g.sm_for_tile(5, 4), 1);
    }
}
