//! System-level configuration (Table 1) and the schemes under comparison.
//!
//! The [`Scheme`] enum itself lives in [`fp_core::engine`], next to the
//! shared engine registry; it is re-exported here so simulator callers
//! keep their import path.

use fp_dram::DramConfig;
use fp_path_oram::{CipherMode, OramConfig};

pub use fp_core::engine::Scheme;

/// The evaluated system: processor, ORAM geometry, and memory system.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// ORAM tree configuration.
    pub oram: OramConfig,
    /// DRAM configuration.
    pub dram: DramConfig,
    /// Seed for ORAM label streams and workload generation offsets.
    pub seed: u64,
}

impl SystemConfig {
    /// The paper's configuration (Table 1): 4 GB data ORAM, two DDR3-1600
    /// channels.
    pub fn paper_default() -> Self {
        Self {
            oram: OramConfig::paper_default(4 << 30),
            dram: DramConfig::ddr3_1600(2),
            seed: 0xF0_4CA7,
        }
    }

    /// Like [`SystemConfig::paper_default`] with an explicit ORAM capacity
    /// (Fig 17b sweeps 1–32 GB).
    pub fn with_capacity(capacity_bytes: u64) -> Self {
        Self {
            oram: OramConfig::paper_default(capacity_bytes),
            ..Self::paper_default()
        }
    }

    /// Like [`SystemConfig::paper_default`] with an explicit channel count
    /// (Fig 18 sweeps 1/2/4).
    pub fn with_channels(channels: usize) -> Self {
        Self {
            dram: DramConfig::ddr3_1600(channels),
            ..Self::paper_default()
        }
    }

    /// A small, fast configuration for unit/integration tests: a shallow
    /// tree with recursion still exercised.
    pub fn fast_test() -> Self {
        let mut oram = OramConfig::small_test();
        oram.block_bytes = 64;
        oram.data_blocks = 1 << 16;
        oram.onchip_posmap_entries = 1 << 8;
        oram.levels = 15;
        Self {
            oram,
            dram: DramConfig::ddr3_1600(2),
            seed: 99,
        }
    }

    /// Enables real counter-mode encryption of tree contents (slower;
    /// defaults to transparent for large sweeps).
    pub fn with_real_crypto(mut self) -> Self {
        self.oram.cipher_mode = CipherMode::Real;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_table_1() {
        let cfg = SystemConfig::paper_default();
        assert_eq!(cfg.oram.levels, 24);
        assert_eq!(cfg.oram.z, 4);
        assert_eq!(cfg.oram.block_bytes, 64);
        assert_eq!(cfg.dram.channels, 2);
        cfg.oram.validate().unwrap();
    }

    #[test]
    fn capacity_and_channel_variants() {
        assert_eq!(SystemConfig::with_capacity(1 << 30).oram.levels, 22);
        assert_eq!(SystemConfig::with_channels(4).dram.channels, 4);
    }

    #[test]
    fn fast_test_validates() {
        SystemConfig::fast_test().oram.validate().unwrap();
    }
}
