//! Physical layouts of an ORAM tree in DRAM.
//!
//! The naive (breadth-first) layout scatters a path's buckets across rows:
//! every level past the first few lives in a different row, so a path access
//! pays ~L row activations. The *subtree layout* of Ren et al. \[18\] (adopted
//! by the paper, §5.1) instead packs each depth-`s` subtree contiguously, in
//! no more bytes than a DRAM row holds; a root-to-leaf path then crosses
//! only `ceil((L+1)/s)` subtrees. Subtrees lie end to end at their own size,
//! not at row boundaries, so most of them span two rows
//! ([`SubtreeLayout`]; DESIGN.md §7 item 8).

/// Strategy for placing tree buckets in physical memory.
pub trait TreeLayout {
    /// Physical byte address of the first byte of bucket `node` (1-based
    /// heap index: root = 1, children of `n` are `2n`, `2n+1`).
    fn bucket_address(&self, node: u64) -> u64;

    /// Total bytes occupied by the tree.
    fn footprint_bytes(&self) -> u64;
}

/// Subtree layout: the tree is sliced into layers of `s` levels; each layer
/// is a forest of depth-`s` subtrees, and each subtree's `2^s - 1` buckets
/// are stored contiguously (one DRAM row when sized right).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubtreeLayout {
    levels: u32,
    bucket_bytes: u64,
    subtree_levels: u32,
    /// Byte offset where each layer starts.
    layer_base: Vec<u64>,
    /// Distance between subtrees in every layer: the full-subtree size
    /// `(2^s - 1) * bucket_bytes` (a shallower last layer is padded up to
    /// it). It is *not* rounded up to the row size — 7,936 B against
    /// 8,192 B rows at the paper's geometry — so each subtree starts 256 B
    /// further from a row boundary than the one before, 30 of every 32
    /// depth-5 subtrees straddle one, and a 16-level path touches 5.4 rows
    /// on average rather than 4.
    subtree_stride: u64,
}

impl SubtreeLayout {
    /// Creates a subtree layout.
    ///
    /// `subtree_levels` is the depth of each packed subtree. To fill an
    /// 8 KiB row with 256 B buckets (Z=4, 64 B blocks), use 5 levels
    /// (31 buckets ≈ 7.75 KiB).
    ///
    /// # Panics
    ///
    /// Panics if `levels` or `subtree_levels` is zero.
    pub(crate) fn new(levels: u32, bucket_bytes: u64, subtree_levels: u32) -> Self {
        assert!(levels > 0, "tree must have at least one level");
        assert!(subtree_levels > 0, "subtree must have at least one level");
        let s = subtree_levels;
        let stride = ((1u64 << s) - 1) * bucket_bytes;
        let num_layers = levels.div_ceil(s);
        let mut layer_base = Vec::with_capacity(num_layers as usize);
        let mut base = 0u64;
        for layer in 0..num_layers {
            layer_base.push(base);
            // Layer `q` has 2^(q*s) subtrees, each padded to `stride`.
            let subtrees = 1u64 << (layer * s);
            base += subtrees * stride;
        }
        Self {
            levels,
            bucket_bytes,
            subtree_levels: s,
            layer_base,
            subtree_stride: stride,
        }
    }

    /// Picks the subtree depth whose packed size best fills `row_bytes`, then
    /// builds the layout. This is the configuration the paper uses.
    ///
    /// # Panics
    ///
    /// Panics if a single bucket does not fit in one row (see
    /// `SubtreeLayout::try_fit_row`): no subtree depth fits. A subtree
    /// that fits is still placed at a multiple of its own size, not of
    /// `row_bytes`, so "fits a row" bounds it to two activations, not one.
    pub fn fit_row(levels: u32, bucket_bytes: u64, row_bytes: u64) -> Self {
        Self::try_fit_row(levels, bucket_bytes, row_bytes).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`SubtreeLayout::fit_row`]: returns `Err` when even a
    /// depth-1 subtree (a single bucket of `bucket_bytes`) exceeds
    /// `row_bytes`, instead of silently building a layout whose subtrees
    /// straddle DRAM rows.
    pub(crate) fn try_fit_row(
        levels: u32,
        bucket_bytes: u64,
        row_bytes: u64,
    ) -> Result<Self, String> {
        if bucket_bytes > row_bytes {
            return Err(format!(
                "bucket of {bucket_bytes} B exceeds the {row_bytes} B DRAM row: \
                 no subtree depth is row-aligned"
            ));
        }
        let mut best = 1u32;
        for s in 1..=levels.min(16) {
            let size = ((1u64 << s) - 1) * bucket_bytes;
            if size <= row_bytes {
                best = s;
            } else {
                break;
            }
        }
        Ok(Self::new(levels, bucket_bytes, best))
    }
}

impl TreeLayout for SubtreeLayout {
    fn bucket_address(&self, node: u64) -> u64 {
        debug_assert!(node >= 1);
        assert!(
            node < (1u64 << self.levels),
            "node {node} outside tree of {} levels",
            self.levels
        );
        let level = 63 - node.leading_zeros() as u64; // depth of `node`
        let s = self.subtree_levels as u64;
        let layer = level / s;
        let depth_in_subtree = level - layer * s;
        // The subtree root is `node`'s ancestor at level `layer * s`.
        let subtree_root = node >> depth_in_subtree;
        let subtree_index = subtree_root - (1u64 << (layer * s));
        // BFS offset inside the subtree.
        let first_at_depth = (1u64 << depth_in_subtree) - 1;
        let pos_in_depth = node - (subtree_root << depth_in_subtree);
        let offset = first_at_depth + pos_in_depth;
        self.layer_base[layer as usize]
            + subtree_index * self.subtree_stride
            + offset * self.bucket_bytes
    }

    fn footprint_bytes(&self) -> u64 {
        let last = self.layer_base.len() - 1;
        let subtrees = 1u64 << (last as u32 * self.subtree_levels);
        self.layer_base[last] + subtrees * self.subtree_stride
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn all_nodes(levels: u32) -> impl Iterator<Item = u64> {
        1..(1u64 << levels)
    }

    #[test]
    fn subtree_layout_addresses_are_unique_and_in_bounds() {
        for levels in [1u32, 3, 5, 6, 10, 11] {
            for s in [1u32, 2, 3, 5] {
                let layout = SubtreeLayout::new(levels, 256, s);
                let addrs: HashSet<u64> = all_nodes(levels)
                    .map(|n| layout.bucket_address(n))
                    .collect();
                assert_eq!(
                    addrs.len(),
                    (1usize << levels) - 1,
                    "collision at levels={levels} s={s}"
                );
                let fp = layout.footprint_bytes();
                assert!(addrs.iter().all(|&a| a + 256 <= fp));
            }
        }
    }

    #[test]
    fn subtree_members_are_contiguous() {
        // levels=10, s=5: the root subtree (levels 0..4, nodes 1..=31) must
        // occupy one contiguous stride.
        let layout = SubtreeLayout::new(10, 256, 5);
        let addrs: Vec<u64> = (1u64..32).map(|n| layout.bucket_address(n)).collect();
        let min = *addrs.iter().min().unwrap();
        let max = *addrs.iter().max().unwrap();
        assert_eq!(min, 0);
        assert_eq!(max - min, 30 * 256, "31 buckets tightly packed");
    }

    #[test]
    fn path_touches_few_subtrees() {
        let layout = SubtreeLayout::new(25, 256, 5);
        // Walk a root-to-leaf path and count distinct 8 KiB-aligned regions
        // (stride-aligned), which correspond to subtree rows.
        let leaf = (1u64 << 24) + 12345;
        let mut node = leaf;
        let mut regions = HashSet::new();
        while node >= 1 {
            regions.insert(layout.bucket_address(node) / layout.subtree_stride);
            if node == 1 {
                break;
            }
            node >>= 1;
        }
        assert_eq!(regions.len(), 5, "25-level path crosses exactly 5 subtrees");
    }

    #[test]
    fn fit_row_picks_largest_fitting_subtree() {
        // 256 B buckets, 8 KiB rows: 2^5 - 1 = 31 buckets = 7936 B fits;
        // 2^6 - 1 = 63 buckets = 16128 B does not.
        let layout = SubtreeLayout::fit_row(25, 256, 8 * 1024);
        assert_eq!(layout.subtree_levels, 5);
    }

    #[test]
    fn siblings_share_subtree_when_small() {
        let layout = SubtreeLayout::new(8, 64, 4);
        // Nodes 2 and 3 are in the root subtree with node 1.
        let stride = layout.subtree_stride;
        let root_region = layout.bucket_address(1) / stride;
        assert_eq!(layout.bucket_address(2) / stride, root_region);
        assert_eq!(layout.bucket_address(3) / stride, root_region);
        // A node at level 4 starts a new layer.
        assert_ne!(layout.bucket_address(16) / stride, root_region);
    }

    #[test]
    #[should_panic(expected = "at least one level")]
    fn zero_levels_panics() {
        let _ = SubtreeLayout::new(0, 64, 5);
    }

    #[test]
    fn try_fit_row_rejects_bucket_larger_than_row() {
        // A 16 KiB bucket cannot be row-aligned in an 8 KiB row: the old
        // code silently returned subtree_levels = 1 here.
        let err = SubtreeLayout::try_fit_row(10, 16 * 1024, 8 * 1024).unwrap_err();
        assert!(err.contains("exceeds"), "got: {err}");
        // Exactly one bucket per row is fine.
        let layout = SubtreeLayout::try_fit_row(10, 8 * 1024, 8 * 1024).unwrap();
        assert_eq!(layout.subtree_levels, 1);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn fit_row_panics_on_oversize_bucket() {
        let _ = SubtreeLayout::fit_row(10, 16 * 1024, 8 * 1024);
    }

    #[test]
    #[should_panic(expected = "outside tree")]
    fn subtree_address_rejects_node_outside_tree() {
        let layout = SubtreeLayout::new(5, 256, 5);
        let _ = layout.bucket_address(1 << 5);
    }
}
