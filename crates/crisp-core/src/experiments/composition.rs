//! L2-composition experiments: Figures 7 and 11.

use crisp_gfx::{FilterMode, Texture, TextureFormat, Vec2};
use crisp_scenes::SceneId;
use crisp_sim::{GpuConfig, PartitionSpec, Simulation, Telemetry};
use crisp_trace::{DataClass, TraceBundle};

use crate::report::{pct, table};

use super::{render_trace, sweep, ExpScale};

/// Figure 7: the four-loads-merge-to-one mip demonstration.
#[derive(Debug, Clone)]
pub struct Fig07Result {
    /// Distinct texels referenced at mip 0.
    pub texels_level0: usize,
    /// Distinct texels referenced at mip 1.
    pub texels_level1: usize,
}

impl Fig07Result {
    /// Text rendering.
    pub fn to_table(&self) -> String {
        format!(
            "4x4 texture, four quad-spread UVs:\n  mip 0 -> {} distinct texels\n  mip 1 -> {} distinct texel(s)\n",
            self.texels_level0, self.texels_level1
        )
    }
}

/// Run the Figure 7 demonstration on the paper's 4×4 texture.
pub fn fig07_mip_merge() -> Fig07Result {
    let t = Texture::new(
        "fig7",
        4,
        4,
        1,
        TextureFormat::Rgba8,
        FilterMode::Nearest,
        0x1000,
    );
    let uvs = [
        Vec2::new(0.05, 0.05),
        Vec2::new(0.30, 0.05),
        Vec2::new(0.05, 0.30),
        Vec2::new(0.30, 0.30),
    ];
    let distinct = |lod: f32| {
        let mut a: Vec<u64> = uvs
            .iter()
            .flat_map(|&uv| t.sample_addrs(uv, lod, 0, false))
            .collect();
        a.sort_unstable();
        a.dedup();
        a.len()
    };
    Fig07Result {
        texels_level0: distinct(0.0),
        texels_level1: distinct(1.0),
    }
}

/// One scene's L2 breakdown (Figure 11).
#[derive(Debug, Clone)]
pub struct Fig11Row {
    /// Scene analysed.
    pub scene: SceneId,
    /// Mean fraction of valid L2 lines holding texture data.
    pub texture_fraction: f64,
    /// Peak texture fraction over the sampled timeline.
    pub texture_fraction_peak: f64,
    /// Overall L2 hit rate.
    pub l2_hit_rate: f64,
}

/// Figure 11: L2 composition of PBR vs basic shading.
#[derive(Debug, Clone)]
pub struct Fig11Result {
    /// Pistol (PBR) and Sponza (basic) rows.
    pub rows: Vec<Fig11Row>,
}

impl Fig11Result {
    /// Text-table rendering.
    pub fn to_table(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.scene.to_string(),
                    pct(r.texture_fraction),
                    pct(r.texture_fraction_peak),
                    pct(r.l2_hit_rate),
                ]
            })
            .collect();
        format!(
            "{}\npaper: Pistol avg 44% texture (peak 60%), hit rate 75%; Sponza far less texture, hit rate 90%\n",
            table(&["scene", "tex lines (avg)", "tex lines (peak)", "L2 hit rate"], &rows)
        )
    }

    /// Look up a row.
    pub fn row(&self, id: SceneId) -> &Fig11Row {
        self.rows
            .iter()
            .find(|r| r.scene == id)
            .expect("scene present")
    }
}

fn composition_run(scene: SceneId, scale: ExpScale) -> Fig11Row {
    let frame = render_trace(scene, scale);
    let gpu = GpuConfig::rtx3070();
    let r = Simulation::builder()
        .gpu(gpu)
        .partition(PartitionSpec::greedy())
        .telemetry(Telemetry::COMPOSITION)
        .composition_interval(5_000)
        .trace(TraceBundle::from_streams(vec![frame]))
        .run_or_panic();
    let samples: Vec<f64> = r
        .l2_composition_timeline
        .iter()
        .map(|(_, c)| c.class_fraction(DataClass::Texture))
        .filter(|&f| f > 0.0)
        .collect();
    let avg = if samples.is_empty() {
        r.l2_composition.class_fraction(DataClass::Texture)
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    };
    let peak = samples.iter().copied().fold(
        r.l2_composition.class_fraction(DataClass::Texture),
        f64::max,
    );
    Fig11Row {
        scene,
        texture_fraction: avg,
        texture_fraction_peak: peak,
        l2_hit_rate: r.l2_stats.total().hit_rate(),
    }
}

/// Run Figure 11: L2 composition and hit rates of Pistol (PBR, 8 maps)
/// versus the Khronos Sponza (basic shading, one map per draw).
pub fn fig11_l2_composition(scale: ExpScale) -> Fig11Result {
    let rows = sweep(&[SceneId::Pistol, SceneId::SponzaKhronos], |&id| {
        composition_run(id, scale)
    });
    Fig11Result { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig07_reproduces_the_merge() {
        let r = fig07_mip_merge();
        assert_eq!(r.texels_level0, 4);
        assert_eq!(r.texels_level1, 1);
        assert!(r.to_table().contains("mip 1"));
    }

    #[test]
    fn fig11_pbr_has_more_texture_lines() {
        let r = fig11_l2_composition(ExpScale::quick());
        let pt = r.row(SceneId::Pistol);
        let spl = r.row(SceneId::SponzaKhronos);
        assert!(
            pt.texture_fraction > spl.texture_fraction,
            "PBR must hold more texture lines: {} vs {}",
            pt.texture_fraction,
            spl.texture_fraction
        );
        assert!(pt.texture_fraction > 0.1);
    }
}
