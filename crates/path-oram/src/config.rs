//! ORAM tree geometry and capacity configuration.

/// Whether bucket contents are really encrypted in the tree store.
///
/// The paper's controller pipelines AES counter-mode decryption under DRAM
/// latency, so encryption never changes *which* accesses happen — only the
/// functional contents of the untrusted store. `Real` exercises the full
/// crypto path (used by correctness tests and the quickstart example);
/// `Transparent` skips cipherment for fast large-scale experiments while
/// keeping every other behaviour identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CipherMode {
    /// Buckets are stored as counter-mode ciphertext and re-encrypted with a
    /// fresh nonce on every write: confidentiality against a passive
    /// observer only. Nothing authenticates a bucket, so a changed or
    /// replayed image of the right length decrypts without error
    /// (DESIGN.md §2).
    Real,
    /// Buckets are stored in plaintext (simulation fast path).
    #[default]
    Transparent,
}

/// Geometry and behaviour of one unified ORAM tree (Table 1 defaults).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OramConfig {
    /// Tree depth `L`: levels are `0..=L`, so a path holds `L + 1` buckets.
    pub levels: u32,
    /// Blocks per bucket (`Z` in the paper; Table 1 uses 4).
    pub z: usize,
    /// Block size in bytes (Table 1 uses 64).
    pub block_bytes: usize,
    /// Stash capacity in blocks, excluding transient path contents
    /// (C ≈ 200 in the paper).
    pub stash_capacity: usize,
    /// Number of *data* blocks the ORAM protects (program-visible capacity /
    /// block size).
    pub data_blocks: u64,
    /// Recursion stops once the top-level map has at most this many entries.
    pub onchip_posmap_entries: u64,
    /// Whether tree contents are really encrypted.
    pub cipher_mode: CipherMode,
}

impl OramConfig {
    /// The paper's default data ORAM: capacity in bytes (Table 1: 4 GB),
    /// 64 B blocks, Z = 4, ~50 % utilization.
    ///
    /// For 4 GB this yields `L = 24`, i.e. the 25-bucket paths of Fig 10.
    pub fn paper_default(capacity_bytes: u64) -> Self {
        let block_bytes = 64usize;
        let data_blocks = capacity_bytes / block_bytes as u64;
        // Count posmap blocks from every recursion level.
        let onchip = 1u64 << 16;
        let total = total_blocks(data_blocks, block_bytes as u64 / 4, onchip);
        // ~50 % utilization with Z = 4: leaves = total / 4 (rounded), i.e.
        // L = round(log2(total)) - 2.
        let levels = (log2_round(total)).saturating_sub(2).max(2);
        Self {
            levels,
            z: 4,
            block_bytes,
            stash_capacity: 200,
            data_blocks,
            onchip_posmap_entries: onchip,
            cipher_mode: CipherMode::Transparent,
        }
    }

    /// A tiny configuration for unit tests and doc examples: 2^10 data
    /// blocks, 16 B blocks, posmap recursion exercised with a 64-entry
    /// on-chip map.
    pub fn small_test() -> Self {
        Self {
            levels: 9,
            z: 4,
            block_bytes: 16,
            stash_capacity: 200,
            data_blocks: 1 << 10,
            onchip_posmap_entries: 64,
            cipher_mode: CipherMode::Transparent,
        }
    }

    /// Position-map entries per posmap block: one 4-byte label each, so
    /// `block_bytes / 4` (at least 2, since a block holds at least 8 B).
    pub fn posmap_fanout(&self) -> u64 {
        self.block_bytes as u64 / 4
    }

    /// Number of leaves (`2^L`) — the leaf-label space.
    pub fn leaf_count(&self) -> u64 {
        1u64 << self.levels
    }

    /// Total buckets in the tree (`2^(L+1) - 1`).
    pub fn bucket_count(&self) -> u64 {
        (1u64 << (self.levels + 1)) - 1
    }

    /// Bytes per bucket as stored in DRAM (Z blocks; headers are modelled as
    /// part of the block payload transfer).
    pub fn bucket_bytes(&self) -> u64 {
        (self.z * self.block_bytes) as u64
    }

    /// Buckets on one root-to-leaf path (`L + 1`).
    pub fn path_len(&self) -> u32 {
        self.levels + 1
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.levels == 0 || self.levels > 40 {
            return Err(format!("levels {} out of range 1..=40", self.levels));
        }
        if self.z == 0 {
            return Err("bucket size Z must be positive".into());
        }
        if self.block_bytes < 8 {
            return Err("block must hold at least 8 bytes".into());
        }
        if self.data_blocks == 0 {
            return Err("data_blocks must be positive".into());
        }
        Ok(())
    }
}

/// Total blocks (data + all posmap recursion levels) stored in the unified
/// tree.
pub(crate) fn total_blocks(data_blocks: u64, fanout: u64, onchip: u64) -> u64 {
    let mut total = data_blocks;
    let mut level = data_blocks;
    while level > onchip {
        level = level.div_ceil(fanout);
        total += level;
    }
    total
}

fn log2_round(x: u64) -> u32 {
    debug_assert!(x > 0);
    let floor = 63 - x.leading_zeros();
    // Round up when x >= 2^(floor + 0.5), i.e. x^2 >= 2^(2*floor + 1).
    if (x as u128) * (x as u128) >= 1u128 << (2 * floor + 1) {
        floor + 1
    } else {
        floor
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_4gb_has_25_bucket_paths() {
        let cfg = OramConfig::paper_default(4 << 30);
        assert_eq!(cfg.levels, 24, "Table 1: L = 24");
        assert_eq!(cfg.path_len(), 25);
        assert_eq!(cfg.z, 4);
        assert_eq!(cfg.block_bytes, 64);
        cfg.validate().unwrap();
    }

    #[test]
    fn oram_sizes_scale_levels() {
        let l1 = OramConfig::paper_default(1 << 30).levels;
        let l4 = OramConfig::paper_default(4 << 30).levels;
        let l16 = OramConfig::paper_default(16 << 30).levels;
        let l32 = OramConfig::paper_default(32u64 << 30).levels;
        assert_eq!(l4, l1 + 2);
        assert_eq!(l16, l4 + 2);
        assert_eq!(l32, l16 + 1);
    }

    #[test]
    fn total_blocks_includes_recursion() {
        // 4096 data blocks, fanout 16, on-chip 64:
        // 4096 + 256 + 16 -> 16 <= 64 stops. Wait: 256 > 64 so recurse to 16.
        assert_eq!(total_blocks(4096, 16, 64), 4096 + 256 + 16);
        // Already fits on chip: no recursion.
        assert_eq!(total_blocks(64, 16, 64), 64);
    }

    #[test]
    fn log2_round_behaviour() {
        assert_eq!(log2_round(1024), 10);
        assert_eq!(log2_round(1400), 10); // < 1024*sqrt(2) ~ 1448
        assert_eq!(log2_round(1500), 11); // > 1448
    }

    #[test]
    fn validate_rejects_bad_configs() {
        let mut cfg = OramConfig::small_test();
        cfg.z = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = OramConfig::small_test();
        cfg.levels = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = OramConfig::small_test();
        cfg.data_blocks = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn geometry_helpers() {
        let cfg = OramConfig::small_test();
        assert_eq!(cfg.leaf_count(), 512);
        assert_eq!(cfg.bucket_count(), 1023);
        assert_eq!(cfg.bucket_bytes(), 64);
    }
}
