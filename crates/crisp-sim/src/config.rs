//! Whole-GPU configurations, including the paper's Table II presets.

use std::io;

use crisp_ckpt::bad;
use crisp_mem::{CacheGeometry, MemConfig, Replacement};
use crisp_sm::SmConfig;
use crisp_trace::LINE_BYTES;

/// Configuration of a simulated GPU.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuConfig {
    /// Human-readable name ("RTX 3070", "Jetson Orin").
    pub name: String,
    /// Number of SMs.
    pub n_sms: usize,
    /// Per-SM configuration.
    pub sm: SmConfig,
    /// Unified L1 data-cache capacity per SM, bytes (the non-shared-memory
    /// portion of the L1/shared carve).
    pub l1_bytes: u64,
    /// L1 associativity.
    pub l1_assoc: u32,
    /// L1 hit latency, cycles.
    pub l1_latency: u64,
    /// Total L2 capacity, bytes.
    pub l2_bytes: u64,
    /// L2 associativity.
    pub l2_assoc: u32,
    /// L2 banks (memory partitions).
    pub l2_banks: u32,
    /// L2 hit latency beyond the crossbar, cycles.
    pub l2_latency: u64,
    /// Crossbar traversal latency, cycles each way.
    pub xbar_latency: u64,
    /// DRAM access latency, cycles.
    pub dram_latency: u64,
    /// Core clock, MHz.
    pub core_clock_mhz: f64,
    /// Aggregate DRAM bandwidth, GB/s.
    pub dram_gbps: f64,
    /// Hard simulation budget; `run` aborts past this many cycles.
    pub max_cycles: u64,
    /// Distinct in-flight sectors each L1 tracks (MSHR entries).
    pub l1_mshr_entries: usize,
    /// L2 victim-selection policy.
    pub l2_replacement: Replacement,
    /// Worker threads for the per-cycle SM loop (1 = fully serial). Any
    /// value produces bit-identical results; see the shard executor in
    /// `crisp_sim::gpu`.
    pub threads: usize,
}

impl GpuConfig {
    /// Table II, "Jetson Orin" column: 14 SMs, 196 KB L1+shared, 4 MB L2,
    /// 1300 MHz, LPDDR5 at 200 GB/s.
    pub fn jetson_orin() -> Self {
        GpuConfig {
            name: "Jetson Orin".into(),
            n_sms: 14,
            sm: SmConfig {
                max_smem: 68 << 10,
                ..SmConfig::default()
            },
            l1_bytes: 128 << 10, // 196 KB carve: 128 KB data + 68 KB shared
            l1_assoc: 4,
            l1_latency: 32,
            l2_bytes: 4 << 20,
            l2_assoc: 16,
            l2_banks: 8,
            l2_latency: 160,
            xbar_latency: 8,
            dram_latency: 220,
            core_clock_mhz: 1300.0,
            dram_gbps: 200.0,
            max_cycles: u64::MAX,
            l1_mshr_entries: 64,
            l2_replacement: Replacement::Lru,
            threads: 1,
        }
    }

    /// Table II, "RTX 3070" column: 46 SMs, 128 KB L1+shared, 4 MB L2,
    /// 1132 MHz, GDDR6 at 448 GB/s.
    pub fn rtx3070() -> Self {
        GpuConfig {
            name: "RTX 3070".into(),
            n_sms: 46,
            sm: SmConfig {
                max_smem: 64 << 10,
                ..SmConfig::default()
            },
            l1_bytes: 96 << 10, // 128 KB carve: 96 KB data + 32 KB shared
            l1_assoc: 4,
            l1_latency: 28,
            l2_bytes: 4 << 20,
            l2_assoc: 16,
            l2_banks: 16,
            l2_latency: 140,
            xbar_latency: 8,
            dram_latency: 220,
            core_clock_mhz: 1132.0,
            dram_gbps: 448.0,
            max_cycles: u64::MAX,
            l1_mshr_entries: 64,
            l2_replacement: Replacement::Lru,
            threads: 1,
        }
    }

    /// A deliberately tiny GPU for unit tests: fast to simulate, small
    /// enough that caches and partitions are exercised.
    pub fn test_tiny() -> Self {
        GpuConfig {
            name: "test-tiny".into(),
            n_sms: 2,
            sm: SmConfig {
                max_warps: 16,
                max_threads: 512,
                max_ctas: 8,
                ..SmConfig::default()
            },
            l1_bytes: 16 << 10,
            l1_assoc: 4,
            l1_latency: 8,
            l2_bytes: 128 << 10,
            l2_assoc: 8,
            l2_banks: 2,
            l2_latency: 40,
            xbar_latency: 4,
            dram_latency: 100,
            core_clock_mhz: 1000.0,
            dram_gbps: 64.0,
            max_cycles: 50_000_000,
            l1_mshr_entries: 64,
            l2_replacement: Replacement::Lru,
            threads: 1,
        }
    }

    /// DRAM bandwidth expressed in bytes per core cycle.
    pub fn dram_bytes_per_cycle(&self) -> f64 {
        self.dram_gbps * 1e9 / (self.core_clock_mhz * 1e6)
    }

    /// Convert a cycle count to milliseconds of GPU time.
    pub fn cycles_to_ms(&self, cycles: u64) -> f64 {
        cycles as f64 / (self.core_clock_mhz * 1e3)
    }

    /// The derived memory-system configuration.
    pub fn mem_config(&self) -> MemConfig {
        MemConfig {
            n_sms: self.n_sms,
            l1_geom: CacheGeometry {
                size_bytes: self.l1_bytes,
                assoc: self.l1_assoc,
            },
            l1_latency: self.l1_latency,
            l1_mshr_entries: self.l1_mshr_entries,
            l1_mshr_merges: 16,
            l2_geom: CacheGeometry {
                size_bytes: self.l2_bytes,
                assoc: self.l2_assoc,
            },
            n_l2_banks: self.l2_banks,
            l2_latency: self.l2_latency,
            l2_mshr_entries: 64,
            xbar_latency: self.xbar_latency,
            dram_latency: self.dram_latency,
            dram_bytes_per_cycle: self.dram_bytes_per_cycle(),
            l2_replacement: self.l2_replacement,
        }
    }
}

crisp_ckpt::wire_struct!(GpuConfig {
    name,
    n_sms,
    sm,
    l1_bytes,
    l1_assoc,
    l1_latency,
    l2_bytes,
    l2_assoc,
    l2_banks,
    l2_latency,
    xbar_latency,
    dram_latency,
    core_clock_mhz,
    dram_gbps,
    max_cycles,
    l1_mshr_entries,
    l2_replacement,
    threads
} check = GpuConfig::check_restored);

impl GpuConfig {
    /// Cache geometry construction *asserts* well-formedness (whole number
    /// of sets, bank divisibility), so a corrupt checkpoint must be
    /// rejected here with an `Err`, before `mem_config()` can panic.
    fn check_restored(&self) -> io::Result<()> {
        let cfg = self;
        if cfg.n_sms == 0 || cfg.n_sms > 4096 {
            return Err(bad(format!("implausible SM count {}", cfg.n_sms)));
        }
        if cfg.l1_assoc == 0
            || cfg.l1_bytes == 0
            || !cfg
                .l1_bytes
                .is_multiple_of(LINE_BYTES * cfg.l1_assoc as u64)
        {
            return Err(bad(format!(
                "invalid L1 geometry: {} bytes, {}-way",
                cfg.l1_bytes, cfg.l1_assoc
            )));
        }
        let bank_bytes = match cfg.l2_banks {
            0 => 0,
            b => cfg.l2_bytes / b as u64,
        };
        if cfg.l2_assoc == 0
            || cfg.l2_banks == 0
            || !cfg.l2_bytes.is_multiple_of(cfg.l2_banks as u64)
            || bank_bytes == 0
            || !bank_bytes.is_multiple_of(LINE_BYTES * cfg.l2_assoc as u64)
        {
            return Err(bad(format!(
                "invalid L2 geometry: {} bytes, {}-way, {} banks",
                cfg.l2_bytes, cfg.l2_assoc, cfg.l2_banks
            )));
        }
        if cfg.l1_mshr_entries == 0 || cfg.l1_mshr_entries > 1 << 16 {
            return Err(bad(format!(
                "implausible L1 MSHR count {}",
                cfg.l1_mshr_entries
            )));
        }
        if !(cfg.core_clock_mhz.is_finite()
            && cfg.core_clock_mhz > 0.0
            && cfg.dram_gbps.is_finite()
            && cfg.dram_gbps > 0.0
            && cfg.dram_bytes_per_cycle().is_finite())
        {
            return Err(bad(format!(
                "invalid clocking: {} MHz, {} GB/s",
                cfg.core_clock_mhz, cfg.dram_gbps
            )));
        }
        if cfg.threads == 0 || cfg.threads > 4096 {
            return Err(bad(format!("implausible thread count {}", cfg.threads)));
        }
        // Completion cycles add these to the current cycle.
        let latencies = [
            cfg.l1_latency,
            cfg.l2_latency,
            cfg.xbar_latency,
            cfg.dram_latency,
        ];
        if latencies.iter().any(|&l| l > 1 << 32) {
            return Err(bad(format!("implausible latencies {latencies:?}")));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crisp_ckpt::{Reader, Writer};

    #[test]
    fn table_ii_presets() {
        let orin = GpuConfig::jetson_orin();
        assert_eq!(orin.n_sms, 14);
        assert_eq!(orin.l2_bytes, 4 << 20);
        assert_eq!(orin.sm.max_warps, 64);
        assert_eq!(orin.sm.schedulers, 4);
        let r = GpuConfig::rtx3070();
        assert_eq!(r.n_sms, 46);
        assert_eq!(r.sm.max_regs, 65536);
    }

    #[test]
    fn bandwidth_conversion() {
        let orin = GpuConfig::jetson_orin();
        // 200 GB/s at 1.3 GHz ≈ 153.8 B/cycle.
        assert!((orin.dram_bytes_per_cycle() - 153.8).abs() < 0.1);
        let r = GpuConfig::rtx3070();
        assert!((r.dram_bytes_per_cycle() - 395.8).abs() < 0.2);
    }

    #[test]
    fn cycles_to_ms_roundtrip() {
        let orin = GpuConfig::jetson_orin();
        // 1.3M cycles at 1300 MHz = 1 ms.
        assert!((orin.cycles_to_ms(1_300_000) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn checkpoint_roundtrip_preserves_presets() {
        for cfg in [
            GpuConfig::jetson_orin(),
            GpuConfig::rtx3070(),
            GpuConfig::test_tiny(),
        ] {
            let mut buf = Vec::new();
            let mut w = Writer::new(&mut buf);
            w.put(&cfg).unwrap();
            let mut r = Reader::new(buf.as_slice());
            assert_eq!(r.get::<GpuConfig>().unwrap(), cfg);
        }
    }

    #[test]
    fn checkpoint_restore_rejects_broken_geometry() {
        let cfg = GpuConfig {
            l1_bytes: 1000, // not a multiple of 128 * assoc
            ..GpuConfig::test_tiny()
        };
        let mut buf = Vec::new();
        let mut w = Writer::new(&mut buf);
        w.put(&cfg).unwrap();
        let mut r = Reader::new(buf.as_slice());
        let err = r.get::<GpuConfig>().unwrap_err();
        assert!(err.to_string().contains("L1 geometry"), "{err}");
    }

    #[test]
    fn mem_config_is_consistent() {
        let cfg = GpuConfig::rtx3070();
        let m = cfg.mem_config();
        assert_eq!(m.n_sms, 46);
        assert_eq!(m.l2_geom.size_bytes % m.n_l2_banks as u64, 0);
        // Per-bank geometry must be constructible.
        let per_bank = m.l2_geom.size_bytes / m.n_l2_banks as u64;
        assert_eq!(per_bank % (128 * m.l2_geom.assoc as u64), 0);
    }
}
