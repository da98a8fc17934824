//! Merkle-tree integrity verification over the ORAM tree.
//!
//! The paper's threat model is a passive observer; §2.2 notes that active
//! attacks (tampering, replay) are countered by combining ORAM with
//! integrity checking, "e.g., Merkel Tree", and that the combination is
//! orthogonal to the Fork Path techniques. This module provides that
//! combination: a hash tree congruent to the ORAM tree whose root lives
//! inside the trusted boundary.
//!
//! Because Path ORAM already touches a root-to-leaf path per access, the
//! Merkle update rides along for free: after a refill, hashes are
//! recomputed bottom-up along the same path; on a read, each fetched bucket
//! is verified against the (on-chip) root before its blocks enter the
//! stash.
//!
//! The hash is SipHash-2-4 (implemented from scratch below) — a keyed
//! 64-bit PRF standing in for the wide hardware hash (SHA/GHASH) a real
//! controller would use; the simulator needs tamper *detection*, not
//! 128-bit collision resistance. See DESIGN.md §2.

use std::collections::HashMap;

/// Tampering detected: a bucket's content disagrees with the Merkle root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntegrityError {
    /// Node whose verification failed.
    pub node: u64,
}

impl std::fmt::Display for IntegrityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "integrity violation at tree node {}", self.node)
    }
}

impl std::error::Error for IntegrityError {}

/// SipHash-2-4 over `data` with a 128-bit key (Aumasson & Bernstein).
pub fn siphash24(key: [u64; 2], data: &[u8]) -> u64 {
    let (k0, k1) = (key[0], key[1]);
    let mut v0 = 0x736f6d6570736575u64 ^ k0;
    let mut v1 = 0x646f72616e646f6du64 ^ k1;
    let mut v2 = 0x6c7967656e657261u64 ^ k0;
    let mut v3 = 0x7465646279746573u64 ^ k1;

    macro_rules! sipround {
        () => {
            v0 = v0.wrapping_add(v1);
            v1 = v1.rotate_left(13);
            v1 ^= v0;
            v0 = v0.rotate_left(32);
            v2 = v2.wrapping_add(v3);
            v3 = v3.rotate_left(16);
            v3 ^= v2;
            v0 = v0.wrapping_add(v3);
            v3 = v3.rotate_left(21);
            v3 ^= v0;
            v2 = v2.wrapping_add(v1);
            v1 = v1.rotate_left(17);
            v1 ^= v2;
            v2 = v2.rotate_left(32);
        };
    }

    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let m = u64::from_le_bytes(chunk.try_into().unwrap());
        v3 ^= m;
        sipround!();
        sipround!();
        v0 ^= m;
    }
    // Final block: remaining bytes plus the length in the top byte.
    let rem = chunks.remainder();
    let mut last = [0u8; 8];
    last[..rem.len()].copy_from_slice(rem);
    last[7] = data.len() as u8;
    let m = u64::from_le_bytes(last);
    v3 ^= m;
    sipround!();
    sipround!();
    v0 ^= m;

    v2 ^= 0xff;
    sipround!();
    sipround!();
    sipround!();
    sipround!();
    v0 ^ v1 ^ v2 ^ v3
}

/// A sparse Merkle tree congruent to the ORAM tree (1-based heap node ids).
///
/// Untouched nodes carry a deterministic default hash, so the tree is as
/// lazily initialized as the bucket store itself.
///
/// # Example
///
/// ```
/// use fp_path_oram::integrity::MerkleTree;
/// let mut mt = MerkleTree::new(3, [1, 2]);
/// mt.update_bucket(9, b"bucket-bytes");   // leaf of path 1
/// mt.rehash_path(3, 1);                   // recompute ancestors
/// mt.verify_bucket(9, b"bucket-bytes").unwrap();
/// assert!(mt.verify_bucket(9, b"tampered").is_err());
/// ```
#[derive(Debug, Clone)]
pub struct MerkleTree {
    levels: u32,
    key: [u64; 2],
    /// Stored node hashes (conceptually in untrusted memory, except the
    /// root which the verifier pins on chip).
    hashes: HashMap<u64, u64>,
    /// Leaf-data hashes (hash of the bucket bytes alone).
    bucket_hashes: HashMap<u64, u64>,
    /// The trusted root, updated only through [`MerkleTree::rehash_path`].
    trusted_root: u64,
}

impl MerkleTree {
    /// Creates a tree for `levels + 1` bucket levels (matching
    /// `OramConfig::levels`).
    pub fn new(levels: u32, key: [u64; 2]) -> Self {
        let mut tree = Self {
            levels,
            key,
            hashes: HashMap::new(),
            bucket_hashes: HashMap::new(),
            trusted_root: 0,
        };
        tree.trusted_root = tree.node_hash(1);
        tree
    }

    /// The on-chip root hash.
    pub fn root(&self) -> u64 {
        self.trusted_root
    }

    /// Default hash of an untouched node (commits to its id and depth).
    fn default_hash(&self, node: u64) -> u64 {
        siphash24(
            self.key,
            &[b"empty".as_slice(), &node.to_le_bytes()].concat(),
        )
    }

    fn stored(&self, node: u64) -> u64 {
        self.hashes
            .get(&node)
            .copied()
            .unwrap_or_else(|| self.default_hash(node))
    }

    fn bucket_hash(&self, node: u64) -> u64 {
        self.bucket_hashes
            .get(&node)
            .copied()
            .unwrap_or_else(|| self.default_hash(node) ^ 0x5555_5555_5555_5555)
    }

    /// Hash of `node` from its bucket hash and children (leaf nodes have no
    /// children).
    fn node_hash(&self, node: u64) -> u64 {
        let mut buf = Vec::with_capacity(24);
        buf.extend_from_slice(&self.bucket_hash(node).to_le_bytes());
        if node < (1u64 << self.levels) {
            buf.extend_from_slice(&self.stored(2 * node).to_le_bytes());
            buf.extend_from_slice(&self.stored(2 * node + 1).to_le_bytes());
        }
        siphash24(self.key, &buf)
    }

    /// Records new bucket bytes for `node` (called on every bucket write).
    /// [`MerkleTree::rehash_path`] must follow once the refill completes.
    pub fn update_bucket(&mut self, node: u64, bucket_bytes: &[u8]) {
        self.bucket_hashes
            .insert(node, siphash24(self.key, bucket_bytes));
    }

    /// Recomputes the hash chain along the path to `leaf_label` (bottom-up)
    /// and refreshes the trusted root — the piggyback update after a path
    /// refill.
    pub fn rehash_path(&mut self, levels: u32, leaf_label: u64) {
        debug_assert_eq!(levels, self.levels);
        let mut node = (1u64 << self.levels) + leaf_label;
        loop {
            let h = self.node_hash(node);
            self.hashes.insert(node, h);
            if node == 1 {
                break;
            }
            node >>= 1;
        }
        self.trusted_root = self.stored(1);
    }

    /// Verifies `bucket_bytes` for `node` against the trusted root.
    ///
    /// # Errors
    ///
    /// Returns [`IntegrityError`] when the bytes, a sibling hash, or any
    /// ancestor hash has been tampered with.
    pub fn verify_bucket(&self, node: u64, bucket_bytes: &[u8]) -> Result<(), IntegrityError> {
        // The bucket bytes must match the recorded bucket hash...
        if siphash24(self.key, bucket_bytes) != self.bucket_hash(node) {
            return Err(IntegrityError { node });
        }
        // ...and the recorded chain must be self-consistent up to the
        // trusted root (detects tampering with stored hashes themselves).
        let mut n = node;
        loop {
            if self.node_hash(n) != self.stored(n) {
                return Err(IntegrityError { node: n });
            }
            if n == 1 {
                break;
            }
            n >>= 1;
        }
        if self.stored(1) != self.trusted_root {
            return Err(IntegrityError { node: 1 });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn siphash_reference_vector() {
        // The canonical SipHash-2-4 test vector: key = 000102..0f,
        // data = 00 01 02 ... 0e (15 bytes) -> 0xa129ca6149be45e5.
        let key = [
            u64::from_le_bytes([0, 1, 2, 3, 4, 5, 6, 7]),
            u64::from_le_bytes([8, 9, 10, 11, 12, 13, 14, 15]),
        ];
        let data: Vec<u8> = (0..15).collect();
        assert_eq!(siphash24(key, &data), 0xa129ca6149be45e5);
    }

    #[test]
    fn siphash_empty_vector() {
        let key = [
            u64::from_le_bytes([0, 1, 2, 3, 4, 5, 6, 7]),
            u64::from_le_bytes([8, 9, 10, 11, 12, 13, 14, 15]),
        ];
        assert_eq!(siphash24(key, &[]), 0x726fdb47dd0e0e31);
    }

    #[test]
    fn verify_accepts_honest_writes() {
        let mut mt = MerkleTree::new(4, [7, 9]);
        for leaf in 0..16u64 {
            let node = (1 << 4) + leaf;
            mt.update_bucket(node, format!("bucket-{leaf}").as_bytes());
            mt.rehash_path(4, leaf);
        }
        for leaf in 0..16u64 {
            let node = (1 << 4) + leaf;
            mt.verify_bucket(node, format!("bucket-{leaf}").as_bytes())
                .unwrap();
        }
    }

    #[test]
    fn detects_data_tampering() {
        let mut mt = MerkleTree::new(3, [1, 2]);
        mt.update_bucket(9, b"honest");
        mt.rehash_path(3, 1);
        assert_eq!(mt.verify_bucket(9, b"tampered").unwrap_err().node, 9);
    }

    #[test]
    fn detects_hash_tampering() {
        let mut mt = MerkleTree::new(3, [1, 2]);
        mt.update_bucket(9, b"honest");
        mt.rehash_path(3, 1);
        // The adversary rewrites an interior hash consistently with nothing.
        mt.hashes.insert(4, 0xDEAD_BEEF);
        assert!(mt.verify_bucket(9, b"honest").is_err());
    }

    #[test]
    fn detects_replay_of_stale_bucket() {
        let mut mt = MerkleTree::new(3, [1, 2]);
        mt.update_bucket(9, b"version-1");
        mt.rehash_path(3, 1);
        mt.update_bucket(9, b"version-2");
        mt.rehash_path(3, 1);
        // Replaying the old content must fail even though it was once valid.
        assert!(mt.verify_bucket(9, b"version-1").is_err());
        mt.verify_bucket(9, b"version-2").unwrap();
    }

    #[test]
    fn untouched_siblings_do_not_break_verification() {
        let mut mt = MerkleTree::new(5, [3, 4]);
        mt.update_bucket((1 << 5) + 7, b"x");
        mt.rehash_path(5, 7);
        mt.verify_bucket((1 << 5) + 7, b"x").unwrap();
        // A second, distant path: both remain valid.
        mt.update_bucket((1 << 5) + 29, b"y");
        mt.rehash_path(5, 29);
        mt.verify_bucket((1 << 5) + 7, b"x").unwrap();
        mt.verify_bucket((1 << 5) + 29, b"y").unwrap();
    }

    #[test]
    fn root_changes_with_every_path_update() {
        let mut mt = MerkleTree::new(4, [5, 6]);
        let r0 = mt.root();
        mt.update_bucket((1 << 4) + 3, b"a");
        mt.rehash_path(4, 3);
        let r1 = mt.root();
        assert_ne!(r0, r1);
        mt.update_bucket((1 << 4) + 3, b"b");
        mt.rehash_path(4, 3);
        assert_ne!(r1, mt.root());
    }
}
