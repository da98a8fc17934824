//! Fork Path controller configuration.

use fp_path_oram::cache::CacheRange;

use crate::mac::MergingAwareCache;

/// On-chip bucket-cache selection for the Fork Path controller (Fig 13/14
/// compare all three).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheChoice {
    /// No on-chip bucket cache ("Merge only").
    None,
    /// Treetop caching of the given capacity (prior art, Phantom \[13\]).
    Treetop {
        /// Capacity in bytes.
        bytes: u64,
    },
    /// The paper's merging-aware cache (§3.5).
    MergingAware {
        /// Capacity in bytes.
        bytes: u64,
    },
}

/// Tunables of the Fork Path scheme. [`ForkConfig::default`] reproduces the
/// paper's evaluation defaults: label queue of 64, merging + scheduling +
/// replacing all enabled, no cache (caches are studied separately).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ForkConfig {
    /// Label queue capacity `M` (Fig 10/11/12 sweep 1..=128; default 64).
    pub label_queue_size: usize,
    /// Enable path merging (§3.2). Disabling degenerates to full paths —
    /// used for ablation benches.
    pub merging: bool,
    /// Enable overlap-degree scheduling (§3.4). When off, the queue is FIFO.
    pub scheduling: bool,
    /// Enable dummy-request replacing (§3.3).
    pub replacing: bool,
    /// On-chip cache policy.
    pub cache: CacheChoice,
    /// Override for the merging-aware cache's bypass depth `m1 =
    /// len_overlap + 1`; `None` derives it from the queue size as
    /// `floor(log2(M)) + 1` (the expected scheduled overlap).
    pub mac_bypass_levels: Option<u32>,
    /// PosMap Lookaside Buffer capacity in posmap blocks (Freecursive \[12\];
    /// 0 disables). An extension beyond the paper — see `fp_core::plb`.
    pub plb_blocks: usize,
}

impl Default for ForkConfig {
    fn default() -> Self {
        Self {
            label_queue_size: 64,
            merging: true,
            scheduling: true,
            replacing: true,
            cache: CacheChoice::None,
            mac_bypass_levels: None,
            plb_blocks: 0,
        }
    }
}

impl ForkConfig {
    /// The paper's headline configuration: queue of 64 plus a 1 MiB
    /// merging-aware cache.
    pub fn paper_best() -> Self {
        Self {
            cache: CacheChoice::MergingAware { bytes: 1 << 20 },
            ..Self::default()
        }
    }

    /// Derived `len_overlap` estimate: expected overlap degree of the best
    /// of `M` uniform labels is about `log2(M) + 1`.
    pub(crate) fn derived_len_overlap(&self) -> u32 {
        if !self.scheduling || self.label_queue_size <= 1 {
            // Plain merging overlaps ~2 buckets on average.
            2
        } else {
            (usize::BITS - 1 - self.label_queue_size.leading_zeros()) + 1
        }
    }

    /// Derived MAC bypass depth `m1`. The paper sets `m1 = len_overlap + 1`
    /// from the *average* scheduled overlap; the overlap distribution has a
    /// long left tail, so only levels the stash retains on ~99 % of accesses
    /// (about four below the mean) are safe to bypass — bypassing more
    /// re-exposes shallow-level traffic the cache could have absorbed.
    pub fn derived_mac_bypass(&self) -> u32 {
        self.derived_len_overlap().saturating_sub(4).max(1)
    }

    /// The configured range of buckets on chip for a tree of `path_len`
    /// buckets per path, `bucket_bytes` each — what the controller hands
    /// to [`fp_path_oram::Datapath::new`].
    pub(crate) fn cache_range(&self, bucket_bytes: u64, path_len: u32) -> CacheRange {
        match self.cache {
            CacheChoice::None => CacheRange::NONE,
            CacheChoice::Treetop { bytes } => CacheRange::treetop(bytes, bucket_bytes),
            CacheChoice::MergingAware { bytes } => {
                let m1 = self
                    .mac_bypass_levels
                    .unwrap_or_else(|| self.derived_mac_bypass());
                MergingAwareCache::range(bytes, bucket_bytes, m1, path_len.saturating_sub(1))
            }
        }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a message describing the violated constraint.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.label_queue_size == 0 {
            return Err("label queue must hold at least one entry".into());
        }
        if self.cache == (CacheChoice::MergingAware { bytes: 0 }) {
            return Err("cache capacity must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = ForkConfig::default();
        assert_eq!(c.label_queue_size, 64);
        assert!(c.merging && c.scheduling && c.replacing);
        assert_eq!(c.cache, CacheChoice::None);
        c.validate().unwrap();
    }

    #[test]
    fn len_overlap_scales_with_log_queue() {
        let mut c = ForkConfig {
            label_queue_size: 1,
            ..ForkConfig::default()
        };
        assert_eq!(c.derived_len_overlap(), 2);
        c.label_queue_size = 64;
        assert_eq!(c.derived_len_overlap(), 7);
        c.label_queue_size = 128;
        assert_eq!(c.derived_len_overlap(), 8);
        c.scheduling = false;
        assert_eq!(c.derived_len_overlap(), 2);
    }

    #[test]
    fn validation_rejects_degenerate_configs() {
        for c in [
            ForkConfig {
                label_queue_size: 0,
                ..ForkConfig::default()
            },
            ForkConfig {
                cache: CacheChoice::MergingAware { bytes: 0 },
                ..ForkConfig::default()
            },
        ] {
            assert!(c.validate().is_err(), "{c:?}");
        }
    }
}
#[cfg(test)]
mod cache_tests {
    use super::*;
    use fp_path_oram::OramConfig;

    /// The configured range for a tree of `levels + 1` buckets per path,
    /// 256 B each.
    fn range(fork: &ForkConfig, levels: u32) -> CacheRange {
        let oram = OramConfig {
            levels,
            block_bytes: 64,
            ..OramConfig::small_test()
        };
        fork.cache_range(oram.bucket_bytes(), oram.path_len())
    }

    fn mac_64k() -> ForkConfig {
        ForkConfig {
            cache: CacheChoice::MergingAware { bytes: 64 << 10 },
            mac_bypass_levels: Some(2),
            ..ForkConfig::default()
        }
    }

    #[test]
    fn each_choice_is_its_range() {
        // 64 KiB at 128 B a bucket (Fig 9's density) holds 512 buckets:
        // levels 2..=8 (508), not 2..=9 (1020).
        assert_eq!(range(&mac_64k(), 10), CacheRange::levels(2..9));
        let treetop = ForkConfig {
            cache: CacheChoice::Treetop { bytes: 64 << 10 },
            ..ForkConfig::default()
        };
        // 64 KiB at 256 B a bucket holds 256: levels 0..=7 (255).
        assert_eq!(range(&treetop, 10), CacheRange::levels(0..8));
        assert_eq!(range(&ForkConfig::default(), 10), CacheRange::NONE);
    }

    #[test]
    fn mac_range_is_clamped_to_tree_depth() {
        // A 64 KiB MAC on a 5-bucket path (leaf level 4): unclamped sizing
        // would run the range to level 8, four levels that do not exist.
        assert_eq!(range(&mac_64k(), 4), CacheRange::levels(2..5));
    }

    #[test]
    fn mac_bypass_tracks_queue_size_conservatively() {
        let mut c = ForkConfig::default();
        assert_eq!(c.derived_mac_bypass(), 3, "q=64: mean overlap 7, bypass 3");
        c.label_queue_size = 1;
        assert_eq!(c.derived_mac_bypass(), 1, "merging only: bypass the root");
        c.label_queue_size = 128;
        c.scheduling = true;
        assert_eq!(c.derived_mac_bypass(), 4);
    }
}
