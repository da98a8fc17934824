//! The untrusted external memory: a sparse, lazily initialized bucket store.
//!
//! The real system holds an 8 GB DRAM image; untouched buckets contain only
//! encrypted dummies, which are indistinguishable from never having been
//! written. The store therefore materializes memory on first write, letting
//! 1–32 GB ORAM configurations (Fig 17b) run in host memory proportional to
//! the *touched* working set.
//!
//! What is lazy is the **subtree page**. The paper's §5.1 packs each
//! depth-5 subtree into one DRAM row because a path crosses only
//! `ceil((L + 1) / 5)` of them; the store is paged the same way. A page is
//! the 31 slots of one subtree, allocated by the first write into it; a
//! sparse directory maps the subtree root's node id to its page, and the
//! subtree looked up last is remembered, so the four or five consecutive
//! buckets a read or a refill touches in one subtree cost one directory
//! lookup between them. Subtree layers are counted from the *leaf* level
//! up, so the one partial subtree of a tree whose level count is not a
//! multiple of five is the top one. A slot is 24 B in either cipher mode:
//! host memory is one 744 B page per touched subtree — about 150 B per
//! touched bucket while a run is sparse (five path buckets to a page), 24 B
//! once a subtree fills. Pages are never freed and directory entries never
//! removed: a take empties the slot and the refill writes it again.

use fp_crypto::{BlockCipher, Nonce};

use crate::config::{CipherMode, OramConfig};
use crate::integrity::IntegrityError;
use crate::keyed::U64Map;
use crate::path::node_level;
use crate::stash::Block;

/// Levels of one subtree page (§5.1's subtree depth).
const PAGE_LEVELS: u32 = 5;
/// Buckets of one subtree page.
const PAGE_SLOTS: usize = (1 << PAGE_LEVELS) - 1;
/// "This subtree has no page" in [`Pages::memo`] and [`Pages::lookup`].
const NO_PAGE: u32 = u32::MAX;
/// Length of a sealed image's write-counter trailer.
const COUNTER_BYTES: usize = 8;

/// Bucket slots paged by subtree; `T` is what a written bucket stores.
#[derive(Debug)]
struct Pages<T> {
    levels: u32,
    /// Levels the top subtree is short of a whole page, `0..PAGE_LEVELS`.
    pad: u32,
    pages: Vec<Box<[Option<T>; PAGE_SLOTS]>>,
    /// Subtree root's node id → index into `pages`; one entry per subtree
    /// ever written, grown by use.
    directory: U64Map<u32>,
    /// The subtree root looked up last and its page ([`NO_PAGE`] when it
    /// has none). Root 0 is no subtree's: node ids start at 1.
    memo: (u64, u32),
    /// Slots that hold a bucket.
    stored: usize,
}

impl<T> Pages<T> {
    fn new(levels: u32) -> Self {
        assert!(
            levels < 63,
            "node ids of a {levels}-level tree overflow u64"
        );
        Self {
            levels,
            pad: (PAGE_LEVELS - (levels + 1) % PAGE_LEVELS) % PAGE_LEVELS,
            pages: Vec::new(),
            directory: U64Map::default(),
            memo: (0, NO_PAGE),
            stored: 0,
        }
    }

    /// `(subtree root, slot in its page)` of `node`; `None` outside the
    /// tree (node 0, or a level below the leaves).
    fn locate(&self, node: u64) -> Option<(u64, usize)> {
        if node == 0 || node >> (self.levels + 1) != 0 {
            return None;
        }
        let level = node_level(node);
        // Depth below the subtree's root. Padding the level makes the page
        // boundaries fall every five levels counted from the leaves; the
        // partial top subtree is rooted at the tree's root.
        let depth = ((level + self.pad) % PAGE_LEVELS).min(level);
        // Heap order inside the page: `2^depth - 1` slots above this layer.
        let mask = (1u64 << depth) - 1;
        Some((node >> depth, (mask + (node & mask)) as usize))
    }

    /// The node id stored at `slot` of the page rooted at `root`.
    fn node_of(root: u64, slot: usize) -> u64 {
        let depth = (slot + 1).ilog2();
        (root << depth) + (slot as u64 + 1 - (1 << depth))
    }

    /// Page index of subtree `root` without remembering it.
    fn peek(&self, root: u64) -> u32 {
        if self.memo.0 == root {
            self.memo.1
        } else {
            self.directory.get(&root).copied().unwrap_or(NO_PAGE)
        }
    }

    /// Page index of subtree `root`, remembered for the next call.
    fn lookup(&mut self, root: u64) -> u32 {
        if self.memo.0 != root {
            self.memo = (root, self.peek(root));
        }
        self.memo.1
    }

    fn get(&self, node: u64) -> Option<&T> {
        let (root, slot) = self.locate(node)?;
        // `NO_PAGE` indexes past any page vector.
        self.pages.get(self.peek(root) as usize)?[slot].as_ref()
    }

    /// The slot of `node` if its subtree has a page.
    fn slot_mut(&mut self, node: u64) -> Option<&mut Option<T>> {
        let (root, slot) = self.locate(node)?;
        let page = self.lookup(root) as usize;
        Some(&mut self.pages.get_mut(page)?[slot])
    }

    fn take(&mut self, node: u64) -> Option<T> {
        let taken = self.slot_mut(node)?.take();
        self.stored -= usize::from(taken.is_some());
        taken
    }

    /// Stores `value` as bucket `node`, over whatever the slot held.
    fn put(&mut self, node: u64, value: T) {
        let Some((root, slot)) = self.locate(node) else {
            panic!(
                "node {node} is outside the tree: ids are 1..2^{}",
                self.levels + 1
            );
        };
        let mut page = self.lookup(root);
        if page == NO_PAGE {
            page = u32::try_from(self.pages.len()).expect("fewer than 2^32 pages");
            self.pages.push(Box::new(std::array::from_fn(|_| None)));
            self.directory.insert(root, page);
            self.memo = (root, page);
        }
        let old = self.pages[page as usize][slot].replace(value);
        self.stored += usize::from(old.is_none());
    }

    /// Node ids of the stored buckets, in unspecified order.
    fn nodes(&self) -> impl Iterator<Item = u64> + '_ {
        self.directory.iter().flat_map(|(&root, &page)| {
            let slots = self.pages[page as usize].iter().enumerate();
            slots.filter_map(move |(slot, s)| s.as_ref().map(|_| Self::node_of(root, slot)))
        })
    }
}

/// The slots, typed by cipher mode.
#[derive(Debug)]
enum Slots {
    /// [`CipherMode::Transparent`]: a slot is the `Vec<Block>` handed to
    /// [`TreeStore::write_bucket`]. `poisoned` lists the stored buckets
    /// [`TreeStore::corrupt_bucket`] hit — decoded blocks have no bytes to
    /// truncate — and is empty outside fault injection.
    Plain {
        pages: Pages<Vec<Block>>,
        poisoned: Vec<u64>,
    },
    /// [`CipherMode::Real`]: a slot is the counter-mode ciphertext of the
    /// serialized bucket followed by the write counter it was sealed under,
    /// [`COUNTER_BYTES`] little-endian (the node id is the other half of
    /// the nonce).
    Sealed(Pages<Vec<u8>>),
}

/// Drops `node` from the poisoned list; whether it was on it. The list is
/// empty outside fault injection, so the hot paths pay one length test.
fn unpoison(poisoned: &mut Vec<u64>, node: u64) -> bool {
    if poisoned.is_empty() {
        return false;
    }
    let hit = poisoned.iter().position(|&n| n == node);
    hit.map(|i| poisoned.swap_remove(i)).is_some()
}

/// The ORAM tree in untrusted memory.
///
/// Buckets are addressed by heap node id (root = 1). Reading an untouched
/// bucket yields no real blocks (it is all dummies); writing a bucket
/// replaces its contents and, in [`CipherMode::Real`], re-encrypts with a
/// fresh write-counter nonce so ciphertexts never repeat (§2.3).
#[derive(Debug)]
pub struct TreeStore {
    slots: Slots,
    cipher: BlockCipher,
    z: usize,
    block_bytes: usize,
    write_counter: u64,
}

impl TreeStore {
    /// Creates an empty (all-dummy) tree for `cfg`, keyed by `key`. Nothing
    /// sized by the tree is allocated: pages and directory grow by use.
    pub fn new(cfg: &OramConfig, key: [u8; 32]) -> Self {
        let slots = match cfg.cipher_mode {
            CipherMode::Transparent => Slots::Plain {
                pages: Pages::new(cfg.levels),
                poisoned: Vec::new(),
            },
            CipherMode::Real => Slots::Sealed(Pages::new(cfg.levels)),
        };
        Self {
            slots,
            cipher: BlockCipher::new(key),
            z: cfg.z,
            block_bytes: cfg.block_bytes,
            write_counter: 0,
        }
    }

    /// Number of buckets currently stored: written and not taken since
    /// (`TreeStore::try_take_bucket` empties the slot it returns).
    #[cfg(test)]
    pub(crate) fn touched_buckets(&self) -> usize {
        match &self.slots {
            Slots::Plain { pages, .. } => pages.stored,
            Slots::Sealed(pages) => pages.stored,
        }
    }

    /// Splits a sealed image into ciphertext and trailer, unseals the
    /// ciphertext in place and decodes it. A truncated image has a short
    /// ciphertext whatever its trailer reads, so the decode's length check
    /// rejects it.
    fn unseal(&self, mut image: Vec<u8>, node: u64) -> Result<Vec<Block>, IntegrityError> {
        let Some(at) = image.len().checked_sub(COUNTER_BYTES) else {
            return Err(IntegrityError { node });
        };
        let counter = u64::from_le_bytes(image[at..].try_into().expect("8 bytes"));
        image.truncate(at);
        self.cipher
            .decrypt_in_place(Nonce::new(counter, node as u32), &mut image);
        deserialize_bucket(&image, self.z, self.block_bytes, node)
    }

    /// Reads and decrypts the real blocks of bucket `node`, surfacing a
    /// corrupt stored image (wrong ciphertext length — memory tampering or
    /// an injected transient fault) as an [`IntegrityError`] instead of a
    /// panic, so the controller can retry or fail the shard structurally.
    /// A node id outside the tree reads as an untouched bucket.
    pub(crate) fn try_read_bucket(&self, node: u64) -> Result<Vec<Block>, IntegrityError> {
        match &self.slots {
            Slots::Plain { poisoned, .. } if poisoned.contains(&node) => {
                Err(IntegrityError { node })
            }
            Slots::Plain { pages, .. } => Ok(pages.get(node).cloned().unwrap_or_default()),
            Slots::Sealed(pages) => match pages.get(node) {
                None => Ok(Vec::new()),
                // The store keeps the sealed image: unseal a copy.
                Some(image) => self.unseal(image.clone(), node),
            },
        }
    }

    /// Reads and decrypts the real blocks of bucket `node`.
    ///
    /// # Panics
    ///
    /// Panics if the stored image is corrupt. Fallible callers (the
    /// controller hot paths) use [`TreeStore::try_read_bucket`] instead.
    pub(crate) fn read_bucket(&self, node: u64) -> Vec<Block> {
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
    pub(crate) fn try_take_bucket(&mut self, node: u64) -> Result<Vec<Block>, IntegrityError> {
        match &mut self.slots {
            Slots::Plain { pages, poisoned } => {
                let blocks = pages.take(node).unwrap_or_default();
                if unpoison(poisoned, node) {
                    return Err(IntegrityError { node });
                }
                Ok(blocks)
            }
            Slots::Sealed(pages) => match pages.take(node) {
                None => Ok(Vec::new()),
                // The taken image is owned, so it is unsealed where it is.
                Some(image) => self.unseal(image, node),
            },
        }
    }

    /// Infallible `TreeStore::try_take_bucket`: panics on a corrupt image.
    pub fn take_bucket(&mut self, node: u64) -> Vec<Block> {
        self.try_take_bucket(node)
            .unwrap_or_else(|e| panic!("corrupt bucket: {e}"))
    }

    /// Corrupts the stored image of bucket `node` (truncates a sealed image
    /// / poisons a plain bucket) so the next read surfaces an
    /// [`IntegrityError`]. Deterministic fault-injection hook; a no-op on
    /// untouched buckets (they hold no bytes to flip). Returns whether a
    /// stored bucket was actually corrupted.
    #[cfg(test)]
    pub(crate) fn corrupt_bucket(&mut self, node: u64) -> bool {
        match &mut self.slots {
            Slots::Plain { pages, poisoned } => {
                let stored = pages.get(node).is_some();
                if stored && !poisoned.contains(&node) {
                    poisoned.push(node);
                }
                stored
            }
            Slots::Sealed(pages) => match pages.slot_mut(node) {
                Some(Some(image)) => {
                    image.pop();
                    true
                }
                _ => false,
            },
        }
    }

    /// Writes bucket `node` with up to `Z` real blocks (the remainder of the
    /// bucket is dummies).
    ///
    /// # Panics
    ///
    /// Panics if `node` is not a node id of the tree (`1 <= node <
    /// 2^(L+1)`), more than `Z` blocks are supplied, a payload has the wrong
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
        match &mut self.slots {
            Slots::Plain { pages, poisoned } => {
                pages.put(node, blocks);
                unpoison(poisoned, node);
            }
            Slots::Sealed(pages) => {
                let mut image = serialize_bucket(&blocks, self.z, self.block_bytes, COUNTER_BYTES);
                let (ciphertext, trailer) =
                    image.split_at_mut(self.z * slot_bytes(self.block_bytes));
                self.cipher
                    .encrypt_in_place(Nonce::new(self.write_counter, node as u32), ciphertext);
                trailer.copy_from_slice(&self.write_counter.to_le_bytes());
                pages.put(node, image);
            }
        }
    }

    /// Raw stored bytes of bucket `node` (the ciphertext in `Real` mode,
    /// without its write-counter trailer) — used by tests to confirm
    /// nothing recognizable leaks to untrusted memory.
    pub fn raw_bucket(&self, node: u64) -> Option<Vec<u8>> {
        match &self.slots {
            Slots::Plain { pages, .. } => Some(serialize_bucket(
                pages.get(node)?,
                self.z,
                self.block_bytes,
                0,
            )),
            Slots::Sealed(pages) => {
                let image = pages.get(node)?;
                Some(image[..image.len().saturating_sub(COUNTER_BYTES)].to_vec())
            }
        }
    }

    /// Iterates over `(node, real blocks)` for every touched bucket.
    pub fn iter_buckets(&self) -> impl Iterator<Item = (u64, Vec<Block>)> + '_ {
        let nodes: Vec<u64> = match &self.slots {
            Slots::Plain { pages, .. } => pages.nodes().collect(),
            Slots::Sealed(pages) => pages.nodes().collect(),
        };
        nodes.into_iter().map(|n| (n, self.read_bucket(n)))
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

/// The image of `blocks` followed by `trailer` zero bytes, in the one
/// allocation a sealed slot keeps.
fn serialize_bucket(blocks: &[Block], z: usize, block_bytes: usize, trailer: usize) -> Vec<u8> {
    let sb = slot_bytes(block_bytes);
    let mut out = vec![0u8; z * sb + trailer];
    for (i, slot) in out[..z * sb].chunks_exact_mut(sb).enumerate() {
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
    use crate::path::{leaf_node, node_at_level, path_nodes};
    use fp_crypto::Xoshiro256;
    use std::collections::{HashMap, HashSet};

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
            // A write over a corrupt bucket replaces it without a take.
            assert!(store.corrupt_bucket(10));
            store.write_bucket(10, vec![Block::new(5, 2, vec![1; 16])]);
            assert_eq!(store.try_read_bucket(10).unwrap()[0].addr, 5);
            // Corrupting one bucket twice fails one take, not two.
            assert!(store.corrupt_bucket(10) && store.corrupt_bucket(10));
            assert_eq!(store.try_take_bucket(10), Err(IntegrityError { node: 10 }));
            assert!(!store.corrupt_bucket(10), "consumed: nothing to corrupt");
            assert_eq!(store.try_take_bucket(10), Ok(Vec::new()));
            store.write_bucket(10, vec![Block::new(6, 3, vec![2; 16])]);
            assert_eq!(store.try_take_bucket(10).unwrap()[0].addr, 6);
            assert_eq!(store.touched_buckets(), 0);
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

    // ---------- the subtree pages -----------------------------------

    fn cfg_with_levels(mode: CipherMode, levels: u32) -> OramConfig {
        let mut c = cfg(mode);
        c.levels = levels;
        c
    }

    fn page_count(store: &TreeStore) -> usize {
        match &store.slots {
            Slots::Plain { pages, .. } => pages.pages.len(),
            Slots::Sealed(pages) => pages.pages.len(),
        }
    }

    #[test]
    fn a_stored_slot_is_24_bytes_in_both_modes() {
        use std::mem::size_of;
        assert!(size_of::<Option<Vec<Block>>>() <= 24);
        assert!(size_of::<Option<Vec<u8>>>() <= 24);
        assert!(size_of::<[Option<Vec<u8>>; PAGE_SLOTS]>() <= 744);
    }

    #[test]
    #[should_panic(expected = "outside the tree")]
    fn write_of_node_zero_panics() {
        let mut store = TreeStore::new(&cfg(CipherMode::Transparent), [0; 32]);
        store.write_bucket(0, Vec::new());
    }

    #[test]
    #[should_panic(expected = "outside the tree")]
    fn write_below_the_leaf_level_panics() {
        let c = cfg(CipherMode::Real);
        let mut store = TreeStore::new(&c, [0; 32]);
        store.write_bucket(1 << (c.levels + 1), Vec::new());
    }

    #[test]
    fn take_and_read_outside_the_tree_are_empty() {
        for mode in [CipherMode::Transparent, CipherMode::Real] {
            let c = cfg(mode);
            let mut store = TreeStore::new(&c, [0; 32]);
            store.write_bucket(1, vec![Block::new(1, 0, vec![0; 16])]);
            for node in [0, 1 << (c.levels + 1), u64::MAX] {
                assert_eq!(store.try_take_bucket(node), Ok(Vec::new()));
                assert_eq!(store.try_read_bucket(node), Ok(Vec::new()));
                assert_eq!(store.raw_bucket(node), None);
                assert!(!store.corrupt_bucket(node));
            }
            assert_eq!(store.touched_buckets(), 1);
        }
    }

    #[test]
    fn every_node_has_its_own_slot_and_the_slot_names_it() {
        for levels in 1..=11 {
            let pages = Pages::<()>::new(levels);
            let mut seen = HashSet::new();
            for node in 1..1u64 << (levels + 1) {
                let (root, slot) = pages.locate(node).unwrap();
                assert!(slot < PAGE_SLOTS, "L={levels} node {node}");
                assert_eq!(Pages::<()>::node_of(root, slot), node, "L={levels}");
                assert!(seen.insert((root, slot)), "L={levels} node {node}");
            }
        }
    }

    #[test]
    fn a_path_crosses_one_page_per_five_levels_counted_from_the_leaves() {
        for levels in 1..=17 {
            let mut store =
                TreeStore::new(&cfg_with_levels(CipherMode::Transparent, levels), [0; 32]);
            let label = 2 % (1 << levels);
            for node in path_nodes(levels, label) {
                store.write_bucket(node, Vec::new());
            }
            assert_eq!(
                page_count(&store),
                (levels as usize + 1).div_ceil(5),
                "L={levels}"
            );
            // The partial subtree is the top one: the leaf's sibling shares
            // the leaf's page at every L.
            store.write_bucket(leaf_node(levels, label) ^ 1, Vec::new());
            assert_eq!(
                page_count(&store),
                (levels as usize + 1).div_ceil(5),
                "L={levels}"
            );
            assert_eq!(store.touched_buckets(), levels as usize + 2);
        }
    }

    #[test]
    fn an_empty_store_misses_on_the_root_before_anything_is_remembered() {
        // The top subtree is the partial one whenever (L + 1) % 5 != 0; the
        // first lookup of a fresh store must not take it for remembered.
        for levels in 1..=17 {
            for mode in [CipherMode::Transparent, CipherMode::Real] {
                let mut store = TreeStore::new(&cfg_with_levels(mode, levels), [0; 32]);
                assert!(store.take_bucket(1).is_empty(), "L={levels}");
                assert!(store.read_bucket(1).is_empty());
                store.write_bucket(1, vec![Block::new(9, 0, vec![0; 16])]);
                assert_eq!(store.take_bucket(1)[0].addr, 9);
            }
        }
    }

    /// What the store must do: a map from node id to blocks plus the set
    /// of corrupted buckets.
    #[derive(Default)]
    struct Model {
        buckets: HashMap<u64, Vec<Block>>,
        corrupt: HashSet<u64>,
    }

    impl Model {
        fn read(&self, node: u64) -> Result<Vec<Block>, IntegrityError> {
            if self.corrupt.contains(&node) {
                return Err(IntegrityError { node });
            }
            Ok(self.buckets.get(&node).cloned().unwrap_or_default())
        }

        fn take(&mut self, node: u64) -> Result<Vec<Block>, IntegrityError> {
            let blocks = self.buckets.remove(&node).unwrap_or_default();
            if self.corrupt.remove(&node) {
                return Err(IntegrityError { node });
            }
            Ok(blocks)
        }

        fn write(&mut self, node: u64, blocks: Vec<Block>) {
            self.buckets.insert(node, blocks);
            self.corrupt.remove(&node);
        }

        fn corrupt(&mut self, node: u64) -> bool {
            let stored = self.buckets.contains_key(&node);
            if stored {
                self.corrupt.insert(node);
            }
            stored
        }

        fn sorted(&self) -> Vec<(u64, Vec<Block>)> {
            let mut all: Vec<_> = self.buckets.clone().into_iter().collect();
            all.sort_by_key(|(node, _)| *node);
            all
        }
    }

    /// One run of nodes an operation is applied to: a stretch of a path in
    /// either direction (what a read phase and a refill do — consecutive
    /// calls that cross subtree boundaries), or one id from anywhere,
    /// including 0 and the two ids just below the leaf level.
    fn node_run(rng: &mut Xoshiro256, levels: u32, leaves: &[u64]) -> Vec<u64> {
        if rng.next_below(4) == 0 {
            return vec![rng.next_below((1 << (levels + 1)) + 2)];
        }
        let label = leaves[rng.next_below(leaves.len() as u64) as usize];
        let lo = rng.next_below(u64::from(levels) + 1) as u32;
        let hi = lo + rng.next_below(u64::from(levels - lo) + 1) as u32;
        let mut run: Vec<u64> = (lo..=hi)
            .map(|level| node_at_level(levels, label, level))
            .collect();
        if rng.next_below(2) == 0 {
            run.reverse();
        }
        run
    }

    /// Random `write / take / read / corrupt / raw_bucket` runs against the
    /// model, `touched_buckets` after every call and `iter_buckets` after
    /// every fourth run if it leaves no bucket corrupt (it reads infallibly).
    /// Returns how many times the whole store was compared.
    fn check_against_model(levels: u32, mode: CipherMode) -> u32 {
        let c = cfg_with_levels(mode, levels);
        let image_bytes = c.z * slot_bytes(c.block_bytes);
        let mut rng = Xoshiro256::new(0x5B7E_E000 + u64::from(levels));
        let leaves: Vec<u64> = (0..6).map(|_| rng.next_below(1 << levels)).collect();
        let mut store = TreeStore::new(&c, [3; 32]);
        let mut model = Model::default();
        let (mut next_addr, mut compared) = (0u64, 0);
        for round in 0..300 {
            let at = format!("L={levels} {mode:?} round {round}");
            let op = rng.next_below(16);
            for node in node_run(&mut rng, levels, &leaves) {
                let in_tree = node >= 1 && node < 1 << (levels + 1);
                match op {
                    0..=5 if in_tree => {
                        let blocks: Vec<Block> = (0..rng.next_below(c.z as u64 + 1))
                            .map(|_| {
                                next_addr += 1;
                                Block::new(next_addr, rng.next_u64(), vec![next_addr as u8; 16])
                            })
                            .collect();
                        store.write_bucket(node, blocks.clone());
                        model.write(node, blocks);
                    }
                    0..=9 => assert_eq!(store.try_take_bucket(node), model.take(node), "{at}"),
                    10 | 11 => assert_eq!(store.try_read_bucket(node), model.read(node), "{at}"),
                    12 => assert_eq!(store.corrupt_bucket(node), model.corrupt(node), "{at}"),
                    _ => match (store.raw_bucket(node), model.buckets.get(&node)) {
                        (None, None) => {}
                        (Some(raw), Some(blocks)) if mode == CipherMode::Transparent => {
                            assert_eq!(raw, serialize_bucket(blocks, c.z, 16, 0), "{at}");
                        }
                        (Some(raw), Some(_)) => {
                            let whole = !model.corrupt.contains(&node);
                            assert_eq!(raw.len() == image_bytes, whole, "{at}");
                        }
                        (raw, _) => panic!("{at}: raw_bucket({node}) = {raw:?}"),
                    },
                }
                assert_eq!(store.touched_buckets(), model.buckets.len(), "{at}");
            }
            if round % 4 == 0 && model.corrupt.is_empty() {
                let mut stored: Vec<(u64, Vec<Block>)> = store.iter_buckets().collect();
                stored.sort_by_key(|(node, _)| *node);
                assert_eq!(stored, model.sorted(), "{at}");
                compared += 1;
            }
        }
        compared
    }

    #[test]
    fn store_matches_a_hashmap_model_at_every_padding() {
        for levels in 1..=17 {
            for mode in [CipherMode::Transparent, CipherMode::Real] {
                let compared = check_against_model(levels, mode);
                assert!(compared >= 15, "L={levels} {mode:?}: {compared}");
            }
        }
    }
}
