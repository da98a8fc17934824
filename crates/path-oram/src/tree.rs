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
//! multiple of five is the top one. A slot is 24 B: host memory is one
//! 744 B page per touched subtree — about 150 B per touched bucket while a
//! run is sparse (five path buckets to a page), 24 B once a subtree fills —
//! plus the images the slots hold. Pages are never freed and directory
//! entries never removed: a take empties the slot and the refill writes it
//! again.
//!
//! **One image in both cipher modes.** A slot holds the bucket's serialized
//! image: Z slots of `[addr: u64 le][leaf: u64 le][payload: block_bytes]`,
//! a dummy slot being one whose address is [`DUMMY_ADDR`] (the paper's ⊥).
//! [`CipherMode::Transparent`] is the identity cipher over those bytes and
//! leaves out the all-dummy tail, so an empty bucket is a zero-length image
//! that owns no memory. [`CipherMode::Real`] keeps all Z slots, so an
//! image's length says nothing about its occupancy, encrypts them with
//! ChaCha20 under a fresh write counter and appends that counter (8 B,
//! little-endian; the node id is the other half of the nonce). The trailer
//! is read back only to unseal: the next seal's counter is the store's own,
//! so rewritten memory cannot make two seals share a keystream. Sealing is
//! confidentiality only; nothing authenticates an image. An image's
//! buffer is exactly its size. A take decodes the image in slot order and
//! keeps the emptied buffer, by the slots it holds; a write encodes into
//! one open bucket and copies that into a kept buffer of its size: neither
//! phase of an access allocates once warm.
//!
//! **A path's keystreams in one call.** Sealed, both phases work a path at
//! a time: a read computes the keystreams of all the images it is about to
//! take, a refill those of the writes it plans, in one
//! [`BlockCipher::keystreams`] call that packs their blocks into shared
//! lane passes. A write or take that finds no prepared keystream of its
//! own `(counter, node)` — one past the planned stop, or through a
//! one-bucket door — computes its own; either way the bytes are those of
//! a pass per bucket.

use fp_crypto::{BlockCipher, Nonce};

use crate::config::{CipherMode, OramConfig};
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
/// The address no real block has: it marks a dummy slot. Block addresses
/// are bounded by the tree's `total_blocks`, far below.
const DUMMY_ADDR: u64 = u64::MAX;

/// A stored bucket: its serialized image (see the module docs).
type Image = Vec<u8>;

/// A stored image failed the one check untrusted memory gets: its length
/// is not one this store writes. That catches framing errors and injected
/// faults, not tampering — nothing authenticates an image (DESIGN.md §2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntegrityError {
    /// Node whose image failed the check.
    pub node: u64,
}

impl std::fmt::Display for IntegrityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "integrity violation at tree node {}", self.node)
    }
}

impl std::error::Error for IntegrityError {}

/// Bucket slots paged by subtree.
#[derive(Debug)]
struct Pages {
    levels: u32,
    /// Levels the top subtree is short of a whole page, `0..PAGE_LEVELS`.
    pad: u32,
    #[expect(
        clippy::vec_box,
        reason = "a page stays put and the vector grows by 8 B pointers, not 744 B pages"
    )]
    pages: Vec<Box<[Option<Image>; PAGE_SLOTS]>>,
    /// Subtree root's node id → index into `pages`; one entry per subtree
    /// ever written, grown by use.
    directory: U64Map<u32>,
    /// The subtree root looked up last and its page ([`NO_PAGE`] when it
    /// has none). Root 0 is no subtree's: node ids start at 1.
    memo: (u64, u32),
    /// Slots that hold a bucket.
    stored: usize,
}

impl Pages {
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

    fn get(&self, node: u64) -> Option<&Image> {
        let (root, slot) = self.locate(node)?;
        // `NO_PAGE` indexes past any page vector.
        self.pages.get(self.peek(root) as usize)?[slot].as_ref()
    }

    /// The slot of `node` if its subtree has a page.
    fn slot_mut(&mut self, node: u64) -> Option<&mut Option<Image>> {
        let (root, slot) = self.locate(node)?;
        let page = self.lookup(root) as usize;
        Some(&mut self.pages.get_mut(page)?[slot])
    }

    fn take(&mut self, node: u64) -> Option<Image> {
        let taken = self.slot_mut(node)?.take();
        self.stored -= usize::from(taken.is_some());
        taken
    }

    /// Stores `image` as bucket `node`; returns what the slot held.
    fn put(&mut self, node: u64, image: Image) -> Option<Image> {
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
        let old = self.pages[page as usize][slot].replace(image);
        self.stored += usize::from(old.is_none());
        old
    }

    /// `(node, image)` of every stored bucket, in unspecified order.
    fn iter(&self) -> impl Iterator<Item = (u64, &Image)> + '_ {
        self.directory.iter().flat_map(|(&root, &page)| {
            let slots = self.pages[page as usize].iter().enumerate();
            slots.filter_map(move |(slot, s)| Some((Self::node_of(root, slot), s.as_ref()?)))
        })
    }
}

/// The shape of the images a store writes: up to Z slots of
/// [`Format::slot_bytes`], then the write counter when `sealed`.
#[derive(Debug, Clone, Copy)]
struct Format {
    z: usize,
    block_bytes: usize,
    sealed: bool,
}

impl Format {
    /// Address, leaf, payload. At Z = 4 and 64 B blocks a sealed image's
    /// slots are 320 B, five keystream blocks exactly.
    fn slot_bytes(self) -> usize {
        8 + 8 + self.block_bytes
    }

    /// Bytes after the slots: the write counter when sealed.
    fn trailer(self) -> usize {
        if self.sealed {
            COUNTER_BYTES
        } else {
            0
        }
    }

    /// The slots an image of `bytes` bytes holds, if this store writes
    /// images of that size: exactly Z sealed, up to Z whole ones in the
    /// clear. Found by comparison, not division: both phases ask once per
    /// bucket.
    fn slots_of(self, bytes: usize) -> Option<usize> {
        let fewest = if self.sealed { self.z } else { 0 };
        (fewest..=self.z).find(|&k| k * self.slot_bytes() + self.trailer() == bytes)
    }

    /// The one decoder: unseals `image` in place through `sealer` (`Real`)
    /// and hands `each` the `(addr, leaf, payload)` of every real slot, in
    /// slot order. An image of a length this store never writes (a framing
    /// error or an injected fault) is an [`IntegrityError`], and none of it
    /// is handed out. Nothing else is checked: changed bytes of the right
    /// length decode to changed blocks.
    fn decode(
        self,
        sealer: Option<&mut Sealer>,
        image: &mut [u8],
        node: u64,
        mut each: impl FnMut(u64, u64, &[u8]),
    ) -> Result<(), IntegrityError> {
        if self.slots_of(image.len()).is_none() {
            return Err(IntegrityError { node });
        }
        let slots = match sealer {
            None => image,
            Some(sealer) => {
                let nonce = Nonce::new(counter_of(image), node as u32);
                let slots = &mut image[..sealer.bytes];
                sealer.apply(nonce, slots);
                slots
            }
        };
        for slot in slots.chunks(self.slot_bytes()) {
            let addr = u64::from_le_bytes(slot[..8].try_into().expect("8 bytes"));
            if addr != DUMMY_ADDR {
                let leaf = u64::from_le_bytes(slot[8..16].try_into().expect("8 bytes"));
                each(addr, leaf, &slot[16..]);
            }
        }
        Ok(())
    }
}

/// The write counter a sealed image ends with.
fn counter_of(image: &[u8]) -> u64 {
    let trailer = &image[image.len() - COUNTER_BYTES..];
    u64::from_le_bytes(trailer.try_into().expect("8 bytes"))
}

/// [`CipherMode::Real`]'s cipher and the keystreams it computed ahead:
/// `keystream` holds one per entry of `nonces`, in order, and `next` is
/// the first entry not used yet. One [`BlockCipher::keystreams`] call fills
/// it, so the keystream blocks of several buckets share the lane kernel's
/// passes.
#[derive(Debug)]
struct Sealer {
    cipher: BlockCipher,
    /// Bytes one keystream covers: an image's Z slots.
    bytes: usize,
    nonces: Vec<Nonce>,
    keystream: Vec<u32>,
    next: usize,
}

impl Sealer {
    fn new(cipher: BlockCipher, bytes: usize) -> Self {
        Self {
            cipher,
            bytes,
            nonces: Vec::new(),
            keystream: Vec::new(),
            next: 0,
        }
    }

    /// Computes the keystreams of `nonces` in one call, in place of what
    /// was prepared before.
    fn prepare(&mut self, nonces: impl IntoIterator<Item = Nonce>) {
        self.nonces.clear();
        self.nonces.extend(nonces);
        self.cipher
            .keystreams(&self.nonces, self.bytes, &mut self.keystream);
        self.next = 0;
    }

    /// Seals or unseals `slots` — one step, counter mode being an
    /// involution — under `nonce`: XORs them with the next prepared
    /// keystream when it is `nonce`'s, else with one prepared for `nonce`
    /// alone. Either way the bytes are [`BlockCipher::encrypt_in_place`]'s.
    fn apply(&mut self, nonce: Nonce, slots: &mut [u8]) {
        if self.nonces.get(self.next) != Some(&nonce) {
            self.prepare([nonce]);
        }
        let words = self.bytes.div_ceil(4);
        let keystream = &self.keystream[self.next * words..][..words];
        self.next += 1;
        let (whole, tail) = slots.as_chunks_mut::<4>();
        for (word, k) in whole.iter_mut().zip(keystream) {
            *word = (u32::from_le_bytes(*word) ^ k).to_le_bytes();
        }
        if let Some(k) = keystream.get(whole.len()) {
            for (byte, k) in tail.iter_mut().zip(k.to_le_bytes()) {
                *byte ^= k;
            }
        }
    }
}

/// The ORAM tree in untrusted memory.
///
/// Buckets are addressed by heap node id (root = 1). Taking an untouched
/// bucket yields no real blocks (it is all dummies); writing a bucket
/// replaces its contents and, in [`CipherMode::Real`], re-encrypts with a
/// fresh write-counter nonce so ciphertexts never repeat (§2.3).
#[derive(Debug)]
pub struct TreeStore {
    pages: Pages,
    format: Format,
    /// [`CipherMode::Real`]'s cipher; `None` is `Transparent`, the identity.
    sealer: Option<Sealer>,
    write_counter: u64,
    /// The slots pushed since the last [`TreeStore::store`]: the bucket
    /// being encoded, with room for Z slots once used.
    open: Image,
    /// Emptied images by the slots they hold (`spare[k]`: `k` slots, Z
    /// when sealed): what a take leaves behind and a write of that size
    /// fills.
    spare: Vec<Vec<Image>>,
}

impl TreeStore {
    /// Creates an empty (all-dummy) tree for `cfg`, keyed by `key`. Nothing
    /// is allocated: pages, directory and images grow by use.
    pub fn new(cfg: &OramConfig, key: [u8; 32]) -> Self {
        let format = Format {
            z: cfg.z,
            block_bytes: cfg.block_bytes,
            sealed: cfg.cipher_mode == CipherMode::Real,
        };
        let slots = format.z * format.slot_bytes();
        Self {
            pages: Pages::new(cfg.levels),
            format,
            sealer: format
                .sealed
                .then(|| Sealer::new(BlockCipher::new(key), slots)),
            write_counter: 0,
            open: Vec::new(),
            spare: Vec::new(),
        }
    }

    /// Read phase, one bucket: removes bucket `node` from the store and
    /// hands `each` its real blocks ([`Format::decode`]). The stale tree
    /// copy is dead the moment its blocks enter the stash, and the refill
    /// overwrites it; its buffer is kept for that write. A corrupt image is
    /// consumed all the same (its bytes are unusable either way). An
    /// untouched or taken bucket, or a node id outside the tree, holds no
    /// blocks.
    pub(crate) fn take_with(
        &mut self,
        node: u64,
        each: impl FnMut(u64, u64, &[u8]),
    ) -> Result<(), IntegrityError> {
        let Some(mut image) = self.pages.take(node) else {
            return Ok(());
        };
        let decoded = self
            .format
            .decode(self.sealer.as_mut(), &mut image, node, each);
        self.recycle(image);
        decoded
    }

    /// Read phase, a whole path: [`TreeStore::take_with`] on each of
    /// `nodes` in order, stopping at the first corrupt image, whose error
    /// it returns — the buckets before it are taken, it is consumed, the
    /// ones after it are left stored. Sealed, the keystreams of the stored
    /// images up to that one (the first whose length is wrong) are computed
    /// first, in one call, from the counters in their trailers; each take
    /// then unseals from that buffer.
    pub(crate) fn take_path_with(
        &mut self,
        nodes: &[u64],
        mut each: impl FnMut(u64, u64, &[u8]),
    ) -> Result<(), IntegrityError> {
        if let Some(sealer) = &mut self.sealer {
            let (pages, whole) = (&mut self.pages, sealer.bytes + COUNTER_BYTES);
            let stored = nodes.iter().filter_map(|&node| {
                let image = pages.slot_mut(node)?.as_ref()?;
                Some((image.len() == whole).then(|| Nonce::new(counter_of(image), node as u32)))
            });
            sealer.prepare(stored.map_while(|nonce| nonce));
        }
        for &node in nodes {
            self.take_with(node, &mut each)?;
        }
        Ok(())
    }

    /// Refill, before its first write: computes in one call the keystreams
    /// the next writes take if they store `nodes`, in this order (write
    /// counters `write_counter + 1 ..`). A write that goes elsewhere, or
    /// past the end of `nodes`, computes its own; the next call of either
    /// phase drops what is left. Keystreams depend on the node and the
    /// counter only, so the sealed bytes are the same either way.
    pub(crate) fn prepare_writes(&mut self, nodes: impl Iterator<Item = u64>) {
        if let Some(sealer) = &mut self.sealer {
            let counters = self.write_counter + 1..;
            let nonces = nodes.zip(counters);
            sealer.prepare(nonces.map(|(node, counter)| Nonce::new(counter, node as u32)));
        }
    }

    /// Keeps an emptied image's buffer for the next write of its size; one
    /// of a size this store never writes (a corrupt image's) is dropped.
    fn recycle(&mut self, mut image: Image) {
        if let Some(slots @ 1..) = self.format.slots_of(image.capacity()) {
            image.clear();
            self.spare_of(slots).push(image);
        }
    }

    /// The emptied images of `slots` slots (`0..=Z`; sized on first use).
    fn spare_of(&mut self, slots: usize) -> &mut Vec<Image> {
        if self.spare.is_empty() {
            self.spare.resize_with(self.format.z + 1, Vec::new);
        }
        &mut self.spare[slots]
    }

    /// The one encoder: appends `block` to the open bucket as its next real
    /// slot.
    ///
    /// # Panics
    ///
    /// Panics if the open bucket already holds Z blocks, the payload is not
    /// `block_bytes` long, or the block carries the address reserved for
    /// dummy slots (`u64::MAX`).
    pub(crate) fn push_slot(&mut self, block: &Block) {
        let Format { z, block_bytes, .. } = self.format;
        let full = z * self.format.slot_bytes();
        assert!(
            self.open.len() < full,
            "bucket overflow: more than Z={z} blocks"
        );
        assert_eq!(block.data.len(), block_bytes, "payload size mismatch");
        assert_ne!(block.addr, DUMMY_ADDR, "address reserved for dummy slots");
        self.open.reserve_exact(full - self.open.len());
        self.open.extend_from_slice(&block.addr.to_le_bytes());
        self.open.extend_from_slice(&block.leaf.to_le_bytes());
        self.open.extend_from_slice(&block.data);
    }

    /// Write phase, one bucket: stores the open bucket (the slots pushed
    /// since the last store) as bucket `node`, over whatever the slot
    /// held, in a buffer of exactly its size. `Real` pads it with dummy
    /// slots to Z, seals it under a fresh write counter (with the keystream
    /// [`TreeStore::prepare_writes`] computed for it, if it did) and appends
    /// the counter.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not a node id of the tree (`1 <= node <
    /// 2^(L+1)`).
    pub(crate) fn store(&mut self, node: u64) {
        self.write_counter += 1;
        let format = self.format;
        let sb = format.slot_bytes();
        let slots = if format.sealed {
            format.z
        } else {
            format.slots_of(self.open.len()).expect("whole slots")
        };
        let bytes = slots * sb + format.trailer();
        let spare = self.spare_of(slots).pop();
        let mut image = spare.unwrap_or_else(|| Vec::with_capacity(bytes));
        image.extend_from_slice(&self.open);
        self.open.clear();
        if let Some(sealer) = &mut self.sealer {
            while image.len() < slots * sb {
                let at = image.len();
                image.resize(at + sb, 0);
                image[at..at + 8].copy_from_slice(&DUMMY_ADDR.to_le_bytes());
            }
            let counter = self.write_counter;
            sealer.apply(Nonce::new(counter, node as u32), &mut image);
            image.extend_from_slice(&counter.to_le_bytes());
        }
        if let Some(old) = self.pages.put(node, image) {
            self.recycle(old);
        }
    }

    /// Removes bucket `node` and returns its real blocks, each with a
    /// payload of its own.
    ///
    /// # Panics
    ///
    /// Panics if the stored image is corrupt.
    pub fn take_bucket(&mut self, node: u64) -> Vec<Block> {
        let mut blocks = Vec::new();
        self.take_with(node, collect_into(&mut blocks))
            .unwrap_or_else(|e| panic!("corrupt bucket: {e}"));
        blocks
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
        for block in &blocks {
            self.push_slot(block);
        }
        self.store(node);
    }

    /// Raw stored bytes of bucket `node`: the image, without its
    /// write-counter trailer in `Real` mode (the ciphertext) — used by tests
    /// to confirm nothing recognizable leaks to untrusted memory.
    pub fn raw_bucket(&self, node: u64) -> Option<Vec<u8>> {
        let image = self.image(node)?;
        Some(image[..image.len().saturating_sub(self.format.trailer())].to_vec())
    }

    /// The stored image of bucket `node` byte for byte, trailer included:
    /// what untrusted memory holds, for tests that pin it.
    pub fn image(&self, node: u64) -> Option<&[u8]> {
        self.pages.get(node).map(Vec::as_slice)
    }

    /// Iterates over `(node, real blocks)` for every stored bucket, each
    /// decoded from a copy of its image.
    ///
    /// # Panics
    ///
    /// Panics on a corrupt image.
    pub fn iter_buckets(&self) -> impl Iterator<Item = (u64, Vec<Block>)> + '_ {
        // A sealer of its own: the store's prepared keystreams stay put.
        let fresh = |s: &Sealer| Sealer::new(s.cipher.clone(), s.bytes);
        let mut sealer = self.sealer.as_ref().map(fresh);
        self.pages.iter().map(move |(node, image)| {
            let mut blocks = Vec::new();
            let sink = collect_into(&mut blocks);
            let decoded = self
                .format
                .decode(sealer.as_mut(), &mut image.clone(), node, sink);
            decoded.unwrap_or_else(|e| panic!("corrupt bucket: {e}"));
            (node, blocks)
        })
    }

    /// Corrupts the stored image of bucket `node` — one byte appended, in
    /// either mode — so its next take surfaces an [`IntegrityError`].
    /// Deterministic fault-injection hook; a no-op on an unstored bucket
    /// (no bytes to change) and on one corrupt already. Returns whether the
    /// stored bucket is corrupt now.
    #[cfg(test)]
    pub(crate) fn corrupt_bucket(&mut self, node: u64) -> bool {
        let Some(len) = self.pages.get(node).map(Vec::len) else {
            return false;
        };
        if self.format.slots_of(len).is_some() {
            let image = self.pages.slot_mut(node).and_then(Option::as_mut);
            image.expect("stored").push(0);
        }
        true
    }
}

/// A decoder sink that collects each real slot as a [`Block`] of its own.
fn collect_into(blocks: &mut Vec<Block>) -> impl FnMut(u64, u64, &[u8]) + '_ {
    |addr, leaf, data| blocks.push(Block::new(addr, leaf, data.to_vec()))
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

    /// The fallible take, its blocks collected.
    fn try_take(store: &mut TreeStore, node: u64) -> Result<Vec<Block>, IntegrityError> {
        let mut blocks = Vec::new();
        store.take_with(node, collect_into(&mut blocks))?;
        Ok(blocks)
    }

    /// The stored buckets, decoded, by node id.
    fn sorted(store: &TreeStore) -> Vec<(u64, Vec<Block>)> {
        let mut all: Vec<_> = store.iter_buckets().collect();
        all.sort_by_key(|(node, _)| *node);
        all
    }

    #[test]
    fn untouched_bucket_reads_empty() {
        let mut store = TreeStore::new(&cfg(CipherMode::Transparent), [0; 32]);
        assert_eq!(store.iter_buckets().count(), 0);
        assert!(store.take_bucket(1).is_empty());
        assert_eq!(store.pages.stored, 0);
    }

    #[test]
    fn write_read_roundtrip_plain() {
        let mut store = TreeStore::new(&cfg(CipherMode::Transparent), [0; 32]);
        let blocks = vec![Block::new(3, 5, vec![7; 16]), Block::new(4, 1, vec![9; 16])];
        store.write_bucket(10, blocks.clone());
        assert_eq!(sorted(&store), [(10, blocks.clone())]);
        assert_eq!(store.take_bucket(10), blocks);
    }

    #[test]
    fn write_read_roundtrip_sealed() {
        let mut store = TreeStore::new(&cfg(CipherMode::Real), [42; 32]);
        let blocks = vec![Block::new(3, 5, vec![7; 16])];
        store.write_bucket(10, blocks.clone());
        assert_eq!(sorted(&store), [(10, blocks.clone())]);
        assert_eq!(store.take_bucket(10), blocks);
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
        store.write_bucket(2, vec![Block::new(0, 0, vec![0; 16]); 4]);
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
    fn transparent_images_leave_out_the_dummy_tail() {
        // Identity cipher: the image is the real slots in eviction order, in
        // a buffer of its size, and an empty bucket is unallocated.
        let mut store = TreeStore::new(&cfg(CipherMode::Transparent), [0; 32]);
        store.write_bucket(1, Vec::new());
        assert_eq!(store.raw_bucket(1), Some(Vec::new()));
        assert_eq!(store.pages.get(1).unwrap().capacity(), 0);
        let blocks = vec![Block::new(3, 5, vec![7; 16]), Block::new(4, 1, vec![9; 16])];
        store.write_bucket(2, blocks.clone());
        assert_eq!(store.pages.get(2).unwrap().capacity(), 2 * 32, "exact size");
        let mut expected = Vec::new();
        for b in &blocks {
            expected.extend_from_slice(&b.addr.to_le_bytes());
            expected.extend_from_slice(&b.leaf.to_le_bytes());
            expected.extend_from_slice(&b.data);
        }
        assert_eq!(store.raw_bucket(2), Some(expected));
    }

    #[test]
    fn all_zero_block_roundtrips_sealed() {
        // Address 0, leaf 0, zero payload: the slot is all zero bytes and
        // must still read back as a real block, beside three dummy slots.
        let mut store = TreeStore::new(&cfg(CipherMode::Real), [42; 32]);
        let blocks = vec![Block::new(0, 0, vec![0; 16])];
        store.write_bucket(10, blocks.clone());
        assert_eq!(sorted(&store), [(10, blocks.clone())]);
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
            assert!(store.take_bucket(10).is_empty(), "drained after take");
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
            assert_eq!(try_take(&mut store, 10), Err(IntegrityError { node: 10 }));
            // The corrupt image is consumed by the take; rewrite recovers.
            store.write_bucket(10, vec![Block::new(4, 1, vec![9; 16])]);
            assert_eq!(sorted(&store)[0].1.len(), 1);
            // A write over a corrupt bucket replaces it without a take.
            assert!(store.corrupt_bucket(10));
            store.write_bucket(10, vec![Block::new(5, 2, vec![1; 16])]);
            assert_eq!(sorted(&store)[0].1[0].addr, 5);
            // Corrupting one bucket twice fails one take, not two.
            assert!(store.corrupt_bucket(10) && store.corrupt_bucket(10));
            assert_eq!(try_take(&mut store, 10), Err(IntegrityError { node: 10 }));
            assert!(!store.corrupt_bucket(10), "consumed: nothing to corrupt");
            assert_eq!(try_take(&mut store, 10), Ok(Vec::new()));
            // An empty bucket's image is corruptible too.
            store.write_bucket(10, Vec::new());
            assert!(store.corrupt_bucket(10));
            assert_eq!(try_take(&mut store, 10), Err(IntegrityError { node: 10 }));
            store.write_bucket(10, vec![Block::new(6, 3, vec![2; 16])]);
            assert_eq!(try_take(&mut store, 10).unwrap()[0].addr, 6);
            assert_eq!(store.pages.stored, 0);
        }
    }

    /// Overwrites the write counter in bucket `node`'s stored trailer.
    fn rewrite_trailer(store: &mut TreeStore, node: u64, counter: u64) {
        let image = store.pages.slot_mut(node).and_then(Option::as_mut);
        let image = image.expect("stored");
        let at = image.len() - COUNTER_BYTES;
        image[at..].copy_from_slice(&counter.to_le_bytes());
    }

    #[test]
    fn sealing_is_confidential_not_authenticated() {
        // The threat model (DESIGN.md §2). The write counter lives on chip:
        // whatever memory says its trailers hold, the next seal's counter
        // is above every earlier one, so no two seals share a keystream.
        let c = cfg(CipherMode::Real);
        let mut store = TreeStore::new(&c, [5; 32]);
        let path = path_nodes(c.levels, 3);
        let mut seals: Vec<u64> = Vec::new();
        for round in 0..4 {
            for &node in &path {
                store.write_bucket(node, vec![Block::new(node, 3, vec![round; 16])]);
                let counter = counter_of(store.image(node).expect("stored"));
                let newest = seals.last().copied().unwrap_or(0);
                assert!(counter > newest, "round {round} node {node}");
                seals.push(counter);
            }
            // An active adversary runs the root's trailer ahead to the
            // counter the store seals with next and rewinds the leaf's,
            // the last one the read takes; the takes decode garbage
            // without complaint.
            let newest = *seals.last().expect("sealed");
            rewrite_trailer(&mut store, path[0], newest + 1);
            rewrite_trailer(&mut store, path[path.len() - 1], 1);
            store
                .take_path_with(&path, |_, _, _| {})
                .expect("lengths intact");
        }
        let distinct: HashSet<u64> = seals.iter().copied().collect();
        assert_eq!(distinct.len(), seals.len());

        // Nothing authenticates an image: a flipped ciphertext byte is a
        // flipped plaintext byte, and the take succeeds. A tag would make
        // this take fail; changing that is a change of threat model.
        let node = path[2];
        let blocks = vec![Block::new(7, 3, vec![0x5A; 16])];
        store.write_bucket(node, blocks.clone());
        let image = store.pages.slot_mut(node).and_then(Option::as_mut);
        image.expect("stored")[16] ^= 0x01;
        let taken = try_take(&mut store, node).expect("no tag to check");
        assert_eq!((taken[0].addr, taken[0].leaf), (7, 3));
        assert_eq!(taken[0].data[0], 0x5B, "the flip decrypts in place");
        assert_eq!(taken[0].data[1..], blocks[0].data[1..]);
    }

    #[test]
    #[should_panic(expected = "corrupt bucket")]
    fn infallible_take_panics_on_corrupt_image() {
        let mut store = TreeStore::new(&cfg(CipherMode::Real), [9; 32]);
        store.write_bucket(10, vec![Block::new(3, 5, vec![7; 16])]);
        store.corrupt_bucket(10);
        store.take_bucket(10);
    }

    #[test]
    fn overwrite_replaces_contents() {
        let mut store = TreeStore::new(&cfg(CipherMode::Transparent), [0; 32]);
        store.write_bucket(5, vec![Block::new(1, 1, vec![1; 16])]);
        store.write_bucket(5, vec![Block::new(2, 2, vec![2; 16])]);
        let blocks = store.take_bucket(5);
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks[0].addr, 2);
    }

    // ---------- the subtree pages -----------------------------------

    fn cfg_with_levels(mode: CipherMode, levels: u32) -> OramConfig {
        let mut c = cfg(mode);
        c.levels = levels;
        c
    }

    #[test]
    fn a_stored_slot_is_24_bytes() {
        use std::mem::size_of;
        assert!(size_of::<Option<Image>>() <= 24);
        assert!(size_of::<[Option<Image>; PAGE_SLOTS]>() <= 744);
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
                assert_eq!(try_take(&mut store, node), Ok(Vec::new()));
                assert_eq!(store.raw_bucket(node), None);
                assert!(!store.corrupt_bucket(node));
            }
            assert_eq!(store.pages.stored, 1);
        }
    }

    #[test]
    fn every_node_has_its_own_slot_and_the_slot_names_it() {
        for levels in 1..=11 {
            let pages = Pages::new(levels);
            let mut seen = HashSet::new();
            for node in 1..1u64 << (levels + 1) {
                let (root, slot) = pages.locate(node).unwrap();
                assert!(slot < PAGE_SLOTS, "L={levels} node {node}");
                assert_eq!(Pages::node_of(root, slot), node, "L={levels}");
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
            let pages = (levels as usize + 1).div_ceil(5);
            assert_eq!(store.pages.pages.len(), pages, "L={levels}");
            // The partial subtree is the top one: the leaf's sibling shares
            // the leaf's page at every L.
            store.write_bucket(leaf_node(levels, label) ^ 1, Vec::new());
            assert_eq!(store.pages.pages.len(), pages, "L={levels}");
            assert_eq!(store.pages.stored, levels as usize + 2);
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
        fn take(&mut self, node: u64) -> Result<Vec<Block>, IntegrityError> {
            let blocks = self.buckets.remove(&node).unwrap_or_default();
            if self.corrupt.remove(&node) {
                return Err(IntegrityError { node });
            }
            Ok(blocks)
        }

        /// A read phase: the takes up to the first corrupt bucket.
        fn take_path(&mut self, nodes: &[u64]) -> (Vec<Block>, Result<(), IntegrityError>) {
            let mut taken = Vec::new();
            for &node in nodes {
                match self.take(node) {
                    Ok(blocks) => taken.extend(blocks),
                    Err(e) => return (taken, Err(e)),
                }
            }
            (taken, Ok(()))
        }

        fn write(&mut self, node: u64, blocks: Vec<Block>) {
            self.buckets.insert(node, blocks);
            self.corrupt.remove(&node);
        }

        /// Corrupts a stored bucket whose image has a byte to give up
        /// (`truncate`), or any stored bucket.
        fn corrupt(&mut self, node: u64, truncate: bool, mode: CipherMode) -> bool {
            let Some(blocks) = self.buckets.get(&node) else {
                return false;
            };
            let empty_image = mode == CipherMode::Transparent && blocks.is_empty();
            if truncate && empty_image && !self.corrupt.contains(&node) {
                return false;
            }
            self.corrupt.insert(node);
            true
        }

        fn sorted(&self) -> Vec<(u64, Vec<Block>)> {
            let mut all: Vec<_> = self.buckets.clone().into_iter().collect();
            all.sort_by_key(|(node, _)| *node);
            all
        }
    }

    /// The other corruption: drops an intact image's last byte.
    fn truncate_bucket(store: &mut TreeStore, node: u64) -> bool {
        let Some(len) = store.pages.get(node).map(Vec::len) else {
            return false;
        };
        if store.format.slots_of(len).is_some() {
            let image = store.pages.slot_mut(node).and_then(Option::as_mut);
            return image.expect("stored").pop().is_some();
        }
        true
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

    /// Random `write / take / corrupt (extend or truncate) / raw_bucket`
    /// runs against the model, empty and full buckets alike, the stored
    /// count after every call and `iter_buckets` after every
    /// fourth run if it leaves no bucket corrupt (it decodes infallibly).
    /// Half the write runs are planned first (`prepare_writes`) — as
    /// written, cut short, run on into other nodes, or all elsewhere — and
    /// half the take runs are one `take_path_with`, so a sealed store
    /// decodes what it sealed whatever keystreams it had prepared.
    /// Returns how many times the whole store was compared.
    fn check_against_model(levels: u32, mode: CipherMode) -> u32 {
        let c = cfg_with_levels(mode, levels);
        let slot_bytes = 16 + c.block_bytes;
        let mut rng = Xoshiro256::new(0x5B7E_E000 + u64::from(levels));
        let leaves: Vec<u64> = (0..6).map(|_| rng.next_below(1 << levels)).collect();
        let mut store = TreeStore::new(&c, [3; 32]);
        let mut model = Model::default();
        let (mut next_addr, mut compared) = (0u64, 0);
        for round in 0..300 {
            let at = format!("L={levels} {mode:?} round {round}");
            let op = rng.next_below(16);
            let run = node_run(&mut rng, levels, &leaves);
            let whole_run = rng.next_below(2) == 0;
            match op {
                0..=5 if whole_run => {
                    let mut plan = run.clone();
                    match rng.next_below(3) {
                        0 => plan.truncate(rng.next_below(run.len() as u64 + 1) as usize),
                        1 => plan.extend(node_run(&mut rng, levels, &leaves)),
                        _ => plan = node_run(&mut rng, levels, &leaves),
                    }
                    store.prepare_writes(plan.into_iter());
                }
                6..=11 if whole_run => {
                    let mut taken = Vec::new();
                    let result = store.take_path_with(&run, collect_into(&mut taken));
                    assert_eq!((taken, result), model.take_path(&run), "{at}");
                    assert_eq!(store.pages.stored, model.buckets.len(), "{at}");
                }
                _ => {}
            }
            let per_node = if (6..=11).contains(&op) && whole_run {
                &[][..]
            } else {
                &run
            };
            for &node in per_node {
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
                    0..=11 => assert_eq!(try_take(&mut store, node), model.take(node), "{at}"),
                    12 if round % 2 == 0 => assert_eq!(
                        store.corrupt_bucket(node),
                        model.corrupt(node, false, mode),
                        "{at}"
                    ),
                    12 => assert_eq!(
                        truncate_bucket(&mut store, node),
                        model.corrupt(node, true, mode),
                        "{at}"
                    ),
                    _ => match (store.raw_bucket(node), model.buckets.get(&node)) {
                        (None, None) => {}
                        (Some(raw), Some(blocks)) => {
                            let whole = !model.corrupt.contains(&node);
                            let len = match mode {
                                CipherMode::Transparent => blocks.len() * slot_bytes,
                                CipherMode::Real => c.z * slot_bytes,
                            };
                            assert_eq!(raw.len() == len, whole, "{at}");
                        }
                        (raw, _) => panic!("{at}: raw_bucket({node}) = {raw:?}"),
                    },
                }
                assert_eq!(store.pages.stored, model.buckets.len(), "{at}");
            }
            // Every 50 runs, a scrub takes whatever is corrupt (each take
            // an `IntegrityError`): a bucket no later run revisits would
            // otherwise end the whole-store comparisons below.
            if round % 50 == 49 {
                for node in model.corrupt.clone() {
                    assert_eq!(try_take(&mut store, node), model.take(node), "{at}");
                }
            }
            if round % 4 == 0 && model.corrupt.is_empty() {
                assert_eq!(sorted(&store), model.sorted(), "{at}");
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
