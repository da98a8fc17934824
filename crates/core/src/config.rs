//! Fork Path controller configuration.

use fp_path_oram::cache::{BucketCache, NoCache, TreetopCache};

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
        /// Associativity in buckets per set.
        ways: usize,
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
            cache: CacheChoice::MergingAware {
                bytes: 1 << 20,
                ways: 4,
            },
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

    /// Builds the configured bucket-cache policy for a tree of `path_len`
    /// buckets per path, `bucket_bytes` each — what the controller hands
    /// to [`fp_path_oram::Datapath::new`].
    pub(crate) fn build_cache(
        &self,
        bucket_bytes: u64,
        path_len: u32,
    ) -> Box<dyn BucketCache + Send> {
        match self.cache {
            CacheChoice::None => Box::new(NoCache),
            CacheChoice::Treetop { bytes } => {
                Box::new(TreetopCache::with_capacity_bytes(bytes, bucket_bytes))
            }
            CacheChoice::MergingAware { bytes, ways } => {
                let m1 = self
                    .mac_bypass_levels
                    .unwrap_or_else(|| self.derived_mac_bypass());
                // Clamp the cacheable window to the real tree: levels past
                // the leaf (path_len - 1) must not own cache sets.
                Box::new(MergingAwareCache::with_capacity_bytes_for_tree(
                    bytes,
                    bucket_bytes,
                    ways,
                    m1,
                    path_len.saturating_sub(1),
                ))
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
        if let CacheChoice::MergingAware { bytes, ways } = self.cache {
            if ways == 0 {
                return Err("cache associativity must be positive".into());
            }
            if bytes == 0 {
                return Err("cache capacity must be positive".into());
            }
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
                cache: CacheChoice::MergingAware { bytes: 0, ways: 4 },
                ..ForkConfig::default()
            },
            ForkConfig {
                cache: CacheChoice::MergingAware {
                    bytes: 1024,
                    ways: 0,
                },
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
    use fp_path_oram::cache::{BucketCache, WriteOutcome};
    use fp_path_oram::OramConfig;

    /// The configured cache for a tree of `levels + 1` buckets per path,
    /// 256 B each.
    fn cache(fork: &ForkConfig, levels: u32) -> Box<dyn BucketCache + Send> {
        let oram = OramConfig {
            levels,
            block_bytes: 64,
            ..OramConfig::small_test()
        };
        fork.build_cache(oram.bucket_bytes(), oram.path_len())
    }

    fn mac_64k() -> ForkConfig {
        ForkConfig {
            cache: CacheChoice::MergingAware {
                bytes: 64 << 10,
                ways: 4,
            },
            mac_bypass_levels: Some(2),
            ..ForkConfig::default()
        }
    }

    #[test]
    fn mac_buckets_commit_instantly_and_hit_on_read() {
        let mut c = cache(&mac_64k(), 10);
        // A deep bucket (level >= m1) is cacheable by the MAC: absorbed on
        // write (the datapath commits it with no DRAM write) and a hit on
        // read (no DRAM read).
        let node = (1u64 << 8) + 3;
        assert_eq!(c.insert_on_write(node), WriteOutcome::Cached);
        assert!(c.lookup_for_read(node), "cache hit needs no DRAM");
        assert!(c.resident() > 0);
    }

    #[test]
    fn mac_window_is_clamped_to_tree_depth() {
        // A 64 KiB MAC on a 5-bucket path (leaf level 4): unclamped sizing
        // dedicates sets to levels 5..=9, so a (buggy) write to a node past
        // the leaf was silently absorbed by a phantom set and committed
        // instantly. With the depth threaded through, the MAC refuses the
        // phantom bucket, which the datapath's layout would then reject
        // loudly (fp-dram's `subtree_address_rejects_node_outside_tree`).
        let mut c = cache(&mac_64k(), 4);
        // Real in-window levels cache and commit instantly.
        let real = (1u64 << 3) + 1;
        assert_eq!(c.insert_on_write(real), WriteOutcome::Cached);
        let phantom = (1u64 << 6) + 1; // level 6 > leaf level 4
        assert_eq!(c.insert_on_write(phantom), WriteOutcome::WriteThrough);
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
