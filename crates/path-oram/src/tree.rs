//! The untrusted external memory: a sparse, lazily initialized bucket store.
//!
//! The real system holds an 8 GB DRAM image; untouched buckets contain only
//! encrypted dummies, which are indistinguishable from never having been
//! written. The store therefore materializes buckets on first write, letting
//! 1–32 GB ORAM configurations (Fig 17b) run in host memory proportional to
//! the *touched* working set.

use std::collections::HashMap;

use fp_crypto::{BlockCipher, Nonce};

use crate::config::{CipherMode, OramConfig};
use crate::integrity::IntegrityError;
use crate::stash::Block;

/// On-disk (well, in-DRAM) representation of one bucket.
#[derive(Debug, Clone)]
enum StoredBucket {
    /// Plaintext blocks (fast simulation mode).
    Plain(Vec<Block>),
    /// Counter-mode ciphertext of the serialized bucket plus the nonce it
    /// was encrypted under.
    Sealed { nonce: Nonce, ciphertext: Vec<u8> },
}

/// The ORAM tree in untrusted memory.
///
/// Buckets are addressed by heap node id (root = 1). Reading an untouched
/// bucket yields no real blocks (it is all dummies); writing a bucket
/// replaces its contents and, in [`CipherMode::Real`], re-encrypts with a
/// fresh write-counter nonce so ciphertexts never repeat (§2.3).
#[derive(Debug)]
pub struct TreeStore {
    buckets: HashMap<u64, StoredBucket>,
    cipher: BlockCipher,
    mode: CipherMode,
    z: usize,
    block_bytes: usize,
    write_counter: u64,
}

impl TreeStore {
    /// Creates an empty (all-dummy) tree for `cfg`, keyed by `key`.
    pub fn new(cfg: &OramConfig, key: [u8; 32]) -> Self {
        Self {
            buckets: HashMap::new(),
            cipher: BlockCipher::new(key),
            mode: cfg.cipher_mode,
            z: cfg.z,
            block_bytes: cfg.block_bytes,
            write_counter: 0,
        }
    }

    /// Number of buckets currently stored: written and not taken since
    /// ([`TreeStore::try_take_bucket`] removes the entry it returns).
    pub fn touched_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// Reads and decrypts the real blocks of bucket `node`, surfacing a
    /// corrupt stored image (wrong ciphertext length — memory tampering or
    /// an injected transient fault) as an [`IntegrityError`] instead of a
    /// panic, so the controller can retry or fail the shard structurally.
    pub fn try_read_bucket(&self, node: u64) -> Result<Vec<Block>, IntegrityError> {
        match self.buckets.get(&node) {
            None => Ok(Vec::new()),
            Some(StoredBucket::Plain(blocks)) => Ok(blocks.clone()),
            Some(StoredBucket::Sealed { nonce, ciphertext }) => {
                // The store keeps the sealed image: unseal a copy in place.
                let mut image = ciphertext.clone();
                self.cipher.decrypt_in_place(*nonce, &mut image);
                deserialize_bucket(&image, self.z, self.block_bytes, node)
            }
        }
    }

    /// Reads and decrypts the real blocks of bucket `node`.
    ///
    /// # Panics
    ///
    /// Panics in `Real` mode if the stored ciphertext is corrupt (wrong
    /// length). Fallible callers (the controller hot paths) use
    /// [`TreeStore::try_read_bucket`] instead.
    pub fn read_bucket(&self, node: u64) -> Vec<Block> {
        self.try_read_bucket(node)
            .unwrap_or_else(|e| panic!("corrupt bucket: {e}"))
    }

    /// Removes bucket `node` from the store and returns its decrypted real
    /// blocks. Equivalent to `try_read_bucket` followed by clearing the
    /// bucket, but without cloning the blocks or re-encrypting an empty
    /// bucket — this is the read-phase hot path (the stale tree copy is dead
    /// the moment its blocks enter the stash, and the refill overwrites it).
    /// A corrupt image surfaces as an [`IntegrityError`]; the bucket is
    /// still consumed (its bytes are unusable either way).
    pub fn try_take_bucket(&mut self, node: u64) -> Result<Vec<Block>, IntegrityError> {
        match self.buckets.remove(&node) {
            None => Ok(Vec::new()),
            Some(StoredBucket::Plain(blocks)) => Ok(blocks),
            Some(StoredBucket::Sealed {
                nonce,
                ciphertext: mut image,
            }) => {
                // The removed image is owned, so it is unsealed where it is.
                self.cipher.decrypt_in_place(nonce, &mut image);
                deserialize_bucket(&image, self.z, self.block_bytes, node)
            }
        }
    }

    /// Infallible [`TreeStore::try_take_bucket`]: panics on a corrupt image.
    pub fn take_bucket(&mut self, node: u64) -> Vec<Block> {
        self.try_take_bucket(node)
            .unwrap_or_else(|e| panic!("corrupt bucket: {e}"))
    }

    /// Corrupts the stored image of bucket `node` (truncates a sealed
    /// ciphertext / clears a plain bucket's tail) so the next read surfaces
    /// an [`IntegrityError`]. Deterministic fault-injection hook; a no-op on
    /// untouched buckets (they hold no bytes to flip). Returns whether a
    /// stored bucket was actually corrupted.
    pub fn corrupt_bucket(&mut self, node: u64) -> bool {
        match self.buckets.get_mut(&node) {
            None => false,
            Some(StoredBucket::Sealed { ciphertext, .. }) => {
                ciphertext.pop();
                true
            }
            Some(slot @ StoredBucket::Plain(_)) => {
                // Plain mode stores decoded blocks, so there is no ciphertext
                // to truncate; swap in a sealed stub whose image has the
                // wrong length, which the next decode rejects the same way.
                *slot = StoredBucket::Sealed {
                    nonce: Nonce::new(u64::MAX, node as u32),
                    ciphertext: Vec::new(),
                };
                true
            }
        }
    }

    /// Writes bucket `node` with up to `Z` real blocks (the remainder of the
    /// bucket is dummies).
    ///
    /// # Panics
    ///
    /// Panics if more than `Z` blocks are supplied, a payload has the wrong
    /// size, or a block carries the address reserved for dummy slots
    /// (`u64::MAX`).
    pub fn write_bucket(&mut self, node: u64, blocks: Vec<Block>) {
        assert!(
            blocks.len() <= self.z,
            "bucket overflow: {} > Z={}",
            blocks.len(),
            self.z
        );
        for b in &blocks {
            assert_eq!(b.data.len(), self.block_bytes, "payload size mismatch");
            assert_ne!(b.addr, DUMMY_ADDR, "address reserved for dummy slots");
        }
        self.write_counter += 1;
        let stored = match self.mode {
            CipherMode::Transparent => StoredBucket::Plain(blocks),
            CipherMode::Real => {
                let nonce = Nonce::new(self.write_counter, node as u32);
                let mut ciphertext = serialize_bucket(&blocks, self.z, self.block_bytes);
                self.cipher.encrypt_in_place(nonce, &mut ciphertext);
                StoredBucket::Sealed { nonce, ciphertext }
            }
        };
        self.buckets.insert(node, stored);
    }

    /// Raw stored bytes of bucket `node` (ciphertext in `Real` mode) — used
    /// by tests to confirm nothing recognizable leaks to untrusted memory.
    pub fn raw_bucket(&self, node: u64) -> Option<Vec<u8>> {
        match self.buckets.get(&node)? {
            StoredBucket::Plain(blocks) => Some(serialize_bucket(blocks, self.z, self.block_bytes)),
            StoredBucket::Sealed { ciphertext, .. } => Some(ciphertext.clone()),
        }
    }

    /// Iterates over `(node, real blocks)` for every touched bucket.
    pub fn iter_buckets(&self) -> impl Iterator<Item = (u64, Vec<Block>)> + '_ {
        self.buckets.keys().map(|&n| (n, self.read_bucket(n)))
    }
}

/// The address no real block has: it marks a dummy slot of a serialized
/// bucket (the paper's ⊥). Block addresses are bounded by the tree's
/// `total_blocks`, far below.
const DUMMY_ADDR: u64 = u64::MAX;

/// Serialized bucket layout: Z slots of
/// `[addr: u64 le][leaf: u64 le][payload: block_bytes]`, a dummy slot being
/// one whose address is [`DUMMY_ADDR`]. At Z = 4 and 64 B blocks the image
/// is 320 B, five keystream blocks exactly.
fn slot_bytes(block_bytes: usize) -> usize {
    8 + 8 + block_bytes
}

fn serialize_bucket(blocks: &[Block], z: usize, block_bytes: usize) -> Vec<u8> {
    let sb = slot_bytes(block_bytes);
    let mut out = vec![0u8; z * sb];
    for (i, slot) in out.chunks_exact_mut(sb).enumerate() {
        match blocks.get(i) {
            Some(b) => {
                slot[..8].copy_from_slice(&b.addr.to_le_bytes());
                slot[8..16].copy_from_slice(&b.leaf.to_le_bytes());
                slot[16..].copy_from_slice(&b.data);
            }
            None => slot[..8].copy_from_slice(&DUMMY_ADDR.to_le_bytes()),
        }
    }
    out
}

fn deserialize_bucket(
    bytes: &[u8],
    z: usize,
    block_bytes: usize,
    node: u64,
) -> Result<Vec<Block>, IntegrityError> {
    let sb = slot_bytes(block_bytes);
    if bytes.len() != z * sb {
        return Err(IntegrityError { node });
    }
    let mut blocks = Vec::new();
    for slot in bytes.chunks_exact(sb) {
        let addr = u64::from_le_bytes(slot[..8].try_into().expect("8 bytes"));
        if addr == DUMMY_ADDR {
            continue;
        }
        let leaf = u64::from_le_bytes(slot[8..16].try_into().expect("8 bytes"));
        let data = slot[16..].to_vec();
        blocks.push(Block { addr, leaf, data });
    }
    Ok(blocks)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(mode: CipherMode) -> OramConfig {
        let mut c = OramConfig::small_test();
        c.cipher_mode = mode;
        c
    }

    #[test]
    fn untouched_bucket_reads_empty() {
        let store = TreeStore::new(&cfg(CipherMode::Transparent), [0; 32]);
        assert!(store.read_bucket(1).is_empty());
        assert_eq!(store.touched_buckets(), 0);
    }

    #[test]
    fn write_read_roundtrip_plain() {
        let mut store = TreeStore::new(&cfg(CipherMode::Transparent), [0; 32]);
        let blocks = vec![Block::new(3, 5, vec![7; 16]), Block::new(4, 1, vec![9; 16])];
        store.write_bucket(10, blocks.clone());
        assert_eq!(store.read_bucket(10), blocks);
    }

    #[test]
    fn write_read_roundtrip_sealed() {
        let mut store = TreeStore::new(&cfg(CipherMode::Real), [42; 32]);
        let blocks = vec![Block::new(3, 5, vec![7; 16])];
        store.write_bucket(10, blocks.clone());
        assert_eq!(store.read_bucket(10), blocks);
    }

    #[test]
    fn sealed_rewrite_changes_ciphertext_even_for_same_content() {
        let mut store = TreeStore::new(&cfg(CipherMode::Real), [42; 32]);
        let blocks = vec![Block::new(3, 5, vec![7; 16])];
        store.write_bucket(10, blocks.clone());
        let ct1 = store.raw_bucket(10).unwrap();
        store.write_bucket(10, blocks);
        let ct2 = store.raw_bucket(10).unwrap();
        assert_ne!(ct1, ct2, "probabilistic encryption: fresh nonce per write");
    }

    #[test]
    fn sealed_empty_and_full_buckets_same_size() {
        // Dummies are indistinguishable from real blocks: every bucket
        // occupies the same bytes on the bus.
        let mut store = TreeStore::new(&cfg(CipherMode::Real), [1; 32]);
        store.write_bucket(1, Vec::new());
        store.write_bucket(2, vec![Block::new(0, 0, vec![0; 16]); 1]);
        let a = store.raw_bucket(1).unwrap();
        let b = store.raw_bucket(2).unwrap();
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn sealed_image_is_five_keystream_blocks() {
        // Z = 4 slots of 8 addr + 8 leaf + 64 data: no sixth ChaCha block
        // for a handful of flag bytes.
        let mut c = cfg(CipherMode::Real);
        c.block_bytes = 64;
        assert_eq!(c.z, 4);
        let mut store = TreeStore::new(&c, [1; 32]);
        store.write_bucket(1, vec![Block::new(3, 5, vec![7; 64])]);
        assert_eq!(store.raw_bucket(1).unwrap().len(), 320);
    }

    #[test]
    fn all_zero_block_roundtrips_sealed() {
        // Address 0, leaf 0, zero payload: the slot is all zero bytes and
        // must still read back as a real block, beside three dummy slots.
        let mut store = TreeStore::new(&cfg(CipherMode::Real), [42; 32]);
        let blocks = vec![Block::new(0, 0, vec![0; 16])];
        store.write_bucket(10, blocks.clone());
        assert_eq!(store.read_bucket(10), blocks);
        assert_eq!(store.take_bucket(10), blocks);
    }

    #[test]
    #[should_panic(expected = "reserved for dummy slots")]
    fn reserved_address_panics() {
        let mut store = TreeStore::new(&cfg(CipherMode::Real), [0; 32]);
        store.write_bucket(1, vec![Block::new(u64::MAX, 0, vec![0; 16])]);
    }

    #[test]
    #[should_panic(expected = "bucket overflow")]
    fn overfull_bucket_panics() {
        let mut store = TreeStore::new(&cfg(CipherMode::Transparent), [0; 32]);
        let blocks = vec![Block::new(0, 0, vec![0; 16]); 5];
        store.write_bucket(1, blocks);
    }

    #[test]
    #[should_panic(expected = "payload size mismatch")]
    fn wrong_payload_size_panics() {
        let mut store = TreeStore::new(&cfg(CipherMode::Transparent), [0; 32]);
        store.write_bucket(1, vec![Block::new(0, 0, vec![0; 3])]);
    }

    #[test]
    fn take_bucket_drains_and_reads_empty_after() {
        for mode in [CipherMode::Transparent, CipherMode::Real] {
            let mut store = TreeStore::new(&cfg(mode), [9; 32]);
            let blocks = vec![Block::new(3, 5, vec![7; 16]), Block::new(4, 1, vec![9; 16])];
            store.write_bucket(10, blocks.clone());
            assert_eq!(store.take_bucket(10), blocks);
            assert!(store.read_bucket(10).is_empty(), "drained after take");
            assert!(store.take_bucket(99).is_empty(), "untouched bucket");
        }
    }

    #[test]
    fn corrupt_bucket_surfaces_integrity_error() {
        for mode in [CipherMode::Transparent, CipherMode::Real] {
            let mut store = TreeStore::new(&cfg(mode), [9; 32]);
            assert!(!store.corrupt_bucket(10), "untouched bucket: no-op");
            store.write_bucket(10, vec![Block::new(3, 5, vec![7; 16])]);
            assert!(store.corrupt_bucket(10));
            assert_eq!(store.try_read_bucket(10), Err(IntegrityError { node: 10 }));
            assert_eq!(store.try_take_bucket(10), Err(IntegrityError { node: 10 }));
            // The corrupt image is consumed by the take; rewrite recovers.
            store.write_bucket(10, vec![Block::new(4, 1, vec![9; 16])]);
            assert_eq!(store.try_read_bucket(10).unwrap().len(), 1);
        }
    }

    #[test]
    #[should_panic(expected = "corrupt bucket")]
    fn infallible_read_panics_on_corrupt_image() {
        let mut store = TreeStore::new(&cfg(CipherMode::Real), [9; 32]);
        store.write_bucket(10, vec![Block::new(3, 5, vec![7; 16])]);
        store.corrupt_bucket(10);
        store.read_bucket(10);
    }

    #[test]
    fn overwrite_replaces_contents() {
        let mut store = TreeStore::new(&cfg(CipherMode::Transparent), [0; 32]);
        store.write_bucket(5, vec![Block::new(1, 1, vec![1; 16])]);
        store.write_bucket(5, vec![Block::new(2, 2, vec![2; 16])]);
        let blocks = store.read_bucket(5);
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks[0].addr, 2);
    }
}
