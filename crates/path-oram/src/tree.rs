//! The untrusted external memory, and the buckets the on-chip cache holds:
//! a sparse, lazily initialized bucket store.
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
//! **Sealed at the DRAM boundary.** A slot holds a bucket either in
//! untrusted memory or on chip: one bit per slot beside the page says
//! which. A refill bucket the cache absorbs is stored on chip in the
//! clear — a sealed store's Z slots without the counter — like the stash,
//! and a read hit takes it without the cipher; it never goes to memory.
//! A bucket bound for DRAM is sealed as it is encoded, under the next
//! write counter, and goes straight to memory. Untrusted memory
//! ([`TreeStore::image`]) holds sealed images only, at every moment.
//!
//! **One image in both cipher modes.** A slot holds the bucket's serialized
//! image: the headers `[addr: u64 le][leaf: u64 le]` of its slots, then
//! their payloads (`block_bytes` each) in the same slot order, a dummy slot
//! being one whose address is [`DUMMY_ADDR`] (the paper's ⊥).
//! [`CipherMode::Transparent`] is the identity cipher over those bytes and
//! leaves out the dummy slots, so an empty bucket is a zero-length image
//! that owns no memory. [`CipherMode::Real`] keeps all Z slots, so an
//! image's length says nothing about its occupancy, encrypts them with
//! ChaCha20 under a fresh write counter and appends that counter (8 B,
//! little-endian). The counter alone is the nonce: it is the store's own,
//! one store to a key, and goes up by one per seal. The trailer is read
//! back only to unseal, so rewritten memory cannot make two seals share a
//! keystream. Sealing is confidentiality only; nothing authenticates an
//! image. An image's buffer is exactly its size, `16 + block_bytes` a
//! slot: the layout pads nothing, whatever Z and the block size. A take
//! decodes the image in slot order and keeps the emptied buffer, by the
//! slots it holds. A write takes a bucket's blocks in one call, knowing
//! where it goes, and opens an **empty** image: in the clear, a kept
//! buffer of its size holding `(⊥, 0)` headers and zero payloads; sealed,
//! a sealed empty (below). One encoder XORs each block into its slot —
//! `addr ⊕ ⊥` and `leaf` into the header, the payload into its bytes — so
//! real slots come first either way, and neither phase of an access
//! allocates once warm.
//!
//! **Sealed empties ahead of the write counter.** Keystream block `b` of a
//! sealed image covers its bytes `64 b .. 64 (b + 1)`; at Z = 4 the
//! headers are block 0 exactly and, with 64 B blocks, payload `i` is block
//! `1 + i`. Each block is one lane of [`BlockCipher::keystream_blocks`],
//! which computes [`BlockCipher::LANES`] of them a pass. A dummy slot is an
//! encryption of `(⊥, 0)` and zeros, so the sealed image of an *empty*
//! bucket, `E_c(∅)`, depends on its counter `c` alone, and the sealed
//! empties of the next counters are made off the access, as a secure
//! processor's encryption unit computes its pads beside its controller:
//! the **pad engine**, one thread a sealed store starts at its first seal,
//! seals them [`PAD_BATCH_SEALS`] a batch — the pads in whole passes, one
//! batch ahead — and hands each batch over a channel. A DRAM-bound bucket
//! opens on the next sealed empty of the batch held, and the one encoder
//! XORs its real blocks into it. The access thread touches the header
//! block and one block a real slot, and the image goes to memory as it is.
//! A seal waits on the channel only when its batch is spent; the spent
//! batch's container goes back to the engine at the next boundary on a
//! second channel, carrying the images the reads took meanwhile (the first
//! seal gives the reads a container of their own), which the engine seals
//! again, so it allocates only when short and the access thread never for
//! a DRAM-bound bucket. Sealed empties held ahead are
//! on-chip state, like the key: their dummy payloads are bare pads. A read
//! computes on the access thread the header blocks of all the images it
//! takes from untrusted memory in one call, unseals them, and computes in
//! a second only the blocks that real payloads cover. The rest of a taken
//! image stays sealed until the take drops it, and a dummy payload is
//! fresh ciphertext too. Every byte is that of
//! [`BlockCipher::encrypt_in_place`] under the image's nonce. Dropping the
//! store drops both channel ends and joins the engine.

use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::thread::JoinHandle;

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
/// Length of a slot header, `[addr: u64 le][leaf: u64 le]`.
const HEADER_BYTES: usize = 16;
/// Bytes of one ChaCha20 keystream block, one lane of the cipher: block `b`
/// of a sealed image covers its bytes `64 b .. 64 (b + 1)`.
const KEYSTREAM_BLOCK: usize = 64;
/// The address no real block has: it marks a dummy slot. Block addresses
/// are bounded by the tree's `total_blocks`, far below.
const DUMMY_ADDR: u64 = u64::MAX;
/// Seals one batch of the pad engine covers: `128 * sealed_blocks()`
/// keystream blocks, a multiple of [`BlockCipher::LANES`] at any lane
/// count, so the engine computes whole passes only.
const PAD_BATCH_SEALS: usize = 128;
/// Depth of the channel the batches cross: none, a rendezvous. The engine
/// computes one batch ahead of the batch the seals take from and waits to
/// hand it over; a batch lasts about 24 `sim_fork_mac_real` accesses,
/// several times what it takes to compute.
const PAD_DEPTH: usize = 0;
/// Batch containers in circulation: the seals', the one the engine hands
/// over, and one filling with the images the reads take on its way back.
/// The engine makes two; the first seal makes the reads' first one. Also
/// the return channel's depth, so handing one back never waits.
const PAD_BUFFERS: usize = 3;
const _: () = assert!(PAD_BATCH_SEALS.is_multiple_of(BlockCipher::LANES));

/// A stored bucket: its serialized image (see the module docs).
type Image = Vec<u8>;

/// The sealed empties of [`PAD_BATCH_SEALS`] seals, the next counter's
/// last, so a seal pops it; or, on its way back to the pad engine, the
/// emptied images it refills.
type Batch = Vec<Image>;

/// A bucket a read phase took: its node, its image and whether the image
/// was on chip, in the clear.
type Taken = (u64, Image, bool);

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

/// The 31 slots of one subtree and which of them the on-chip cache holds.
#[derive(Debug)]
struct Page {
    /// Boxed: a page stays put and the page vector grows by 16 B entries,
    /// not 744 B pages.
    slots: Box<[Option<Image>; PAGE_SLOTS]>,
    /// Bit `s` set: slot `s` holds a bucket on chip, in the clear, which
    /// untrusted memory does not have.
    on_chip: u32,
}

impl Page {
    fn holds_on_chip(&self, slot: usize) -> bool {
        self.on_chip >> slot & 1 != 0
    }
}

/// Bucket slots paged by subtree.
#[derive(Debug)]
struct Pages {
    levels: u32,
    /// Levels the top subtree is short of a whole page, `0..PAGE_LEVELS`.
    pad: u32,
    pages: Vec<Page>,
    /// Subtree root's node id → index into `pages`; one entry per subtree
    /// ever written, grown by use.
    directory: U64Map<u32>,
    /// The subtree root looked up last and its page ([`NO_PAGE`] when it
    /// has none). Root 0 is no subtree's: node ids start at 1.
    memo: (u64, u32),
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

    /// The page and the slot of `node` if its subtree has a page.
    fn page(&self, node: u64) -> Option<(&Page, usize)> {
        let (root, slot) = self.locate(node)?;
        // `NO_PAGE` indexes past any page vector.
        Some((self.pages.get(self.peek(root) as usize)?, slot))
    }

    #[cfg(test)]
    fn get(&self, node: u64) -> Option<&Image> {
        let (page, slot) = self.page(node)?;
        page.slots[slot].as_ref()
    }

    /// [`Pages::page`], remembering the subtree for the next call.
    fn page_mut(&mut self, node: u64) -> Option<(&mut Page, usize)> {
        let (root, slot) = self.locate(node)?;
        let page = self.lookup(root) as usize;
        Some((self.pages.get_mut(page)?, slot))
    }

    /// The slot of `node` if its subtree has a page.
    #[cfg(test)]
    fn slot_mut(&mut self, node: u64) -> Option<&mut Option<Image>> {
        let (page, slot) = self.page_mut(node)?;
        Some(&mut page.slots[slot])
    }

    /// Empties bucket `node`'s slot: its image and whether it was on chip.
    fn take(&mut self, node: u64) -> Option<(Image, bool)> {
        let (page, slot) = self.page_mut(node)?;
        let image = page.slots[slot].take()?;
        let on_chip = page.holds_on_chip(slot);
        page.on_chip &= !(1 << slot);
        Some((image, on_chip))
    }

    /// Stores `image` as bucket `node`, on chip or in untrusted memory;
    /// returns what the slot held.
    fn put(&mut self, node: u64, image: Image, on_chip: bool) -> Option<Image> {
        let Some((root, slot)) = self.locate(node) else {
            panic!(
                "node {node} is outside the tree: ids are 1..2^{}",
                self.levels + 1
            );
        };
        let mut index = self.lookup(root);
        if index == NO_PAGE {
            index = u32::try_from(self.pages.len()).expect("fewer than 2^32 pages");
            self.pages.push(Page {
                slots: Box::new(std::array::from_fn(|_| None)),
                on_chip: 0,
            });
            self.directory.insert(root, index);
            self.memo = (root, index);
        }
        let page = &mut self.pages[index as usize];
        page.on_chip = page.on_chip & !(1 << slot) | u32::from(on_chip) << slot;
        page.slots[slot].replace(image)
    }

    /// `(node, image, on chip)` of every stored bucket, in unspecified
    /// order.
    fn iter(&self) -> impl Iterator<Item = (u64, &Image, bool)> + '_ {
        self.directory.iter().flat_map(|(&root, &index)| {
            let page = &self.pages[index as usize];
            page.slots.iter().enumerate().filter_map(move |(slot, s)| {
                Some((
                    Self::node_of(root, slot),
                    s.as_ref()?,
                    page.holds_on_chip(slot),
                ))
            })
        })
    }
}

/// The shape of the images a store writes: the headers of up to Z slots,
/// then their payloads in the same order, then the write counter when
/// `sealed`.
#[derive(Debug, Clone, Copy)]
struct Format {
    z: usize,
    block_bytes: usize,
    sealed: bool,
}

impl Format {
    /// Header and payload. At Z = 4 and 64 B blocks a sealed image's slots
    /// are 320 B, five keystream blocks exactly: the headers fill block 0
    /// and payload `i` is block `1 + i`.
    fn slot_bytes(self) -> usize {
        HEADER_BYTES + self.block_bytes
    }

    /// Bytes after the slots: the write counter when sealed.
    fn trailer(self) -> usize {
        if self.sealed {
            COUNTER_BYTES
        } else {
            0
        }
    }

    /// Bytes the keystream of a sealed image covers: its Z slots.
    fn sealed_bytes(self) -> usize {
        self.z * self.slot_bytes()
    }

    /// Keystream blocks of a sealed image (five at Z = 4 and 64 B blocks).
    fn sealed_blocks(self) -> u32 {
        self.sealed_bytes().div_ceil(KEYSTREAM_BLOCK) as u32
    }

    /// Keystream blocks the Z headers of a sealed image span (one at Z = 4).
    fn header_blocks(self) -> u32 {
        (self.z * HEADER_BYTES).div_ceil(KEYSTREAM_BLOCK) as u32
    }

    /// Writes into `image`, emptied, the `slots` slots of an empty bucket
    /// in the clear: dummy headers — address [`DUMMY_ADDR`], leaf zero —
    /// then zero payloads.
    fn empty(self, slots: usize, image: &mut Image) {
        image.clear();
        for _ in 0..slots {
            image.extend_from_slice(&DUMMY_ADDR.to_le_bytes());
            image.extend_from_slice(&0u64.to_le_bytes());
        }
        image.resize(slots * self.slot_bytes(), 0);
    }

    /// The one encoder: XORs `blocks` into the first of the `slots` slots
    /// of `image`, an empty bucket in the clear or sealed: `addr ⊕ ⊥` and
    /// `leaf` into each one's header, its payload into its payload's bytes.
    /// An empty slot holds `(⊥, 0)` and zeros, so in the clear that writes
    /// the block, and sealed it encrypts it under the pads already there.
    fn fill(self, image: &mut [u8], slots: usize, blocks: &[Block]) {
        let (headers, payloads) = image.split_at_mut(slots * HEADER_BYTES);
        let headers = headers.chunks_exact_mut(HEADER_BYTES);
        let payloads = payloads.chunks_exact_mut(self.block_bytes);
        for ((header, payload), block) in headers.zip(payloads).zip(blocks) {
            xor_bytes(header, &(block.addr ^ DUMMY_ADDR).to_le_bytes());
            xor_bytes(&mut header[8..], &block.leaf.to_le_bytes());
            xor_bytes(payload, &block.data);
        }
    }

    /// The format of a bucket held on chip: a sealed store's Z slots in
    /// the clear, without the counter; the store's own when it seals
    /// nothing.
    fn on_chip(self) -> Self {
        Self {
            sealed: false,
            ..self
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

    /// The one decoder: hands `each` the `(addr, leaf, payload)` of every
    /// real slot of `image`, in slot order. A sealed image must have been
    /// unsealed first, its headers and real payloads at least
    /// ([`Sealer::unseal_path`]). An image of a length this store never
    /// writes (a framing error or an injected fault) is an
    /// [`IntegrityError`], and none of it is handed out. Nothing else is
    /// checked: changed bytes of the right length decode to changed blocks.
    fn decode(
        self,
        image: &[u8],
        node: u64,
        mut each: impl FnMut(u64, u64, &[u8]),
    ) -> Result<(), IntegrityError> {
        let Some(slots) = self.slots_of(image.len()) else {
            return Err(IntegrityError { node });
        };
        let (headers, payloads) = image.split_at(slots * HEADER_BYTES);
        for (i, header) in headers.chunks_exact(HEADER_BYTES).enumerate() {
            let addr = u64::from_le_bytes(header[..8].try_into().expect("8 bytes"));
            if addr != DUMMY_ADDR {
                let leaf = u64::from_le_bytes(header[8..].try_into().expect("8 bytes"));
                each(
                    addr,
                    leaf,
                    &payloads[i * self.block_bytes..][..self.block_bytes],
                );
            }
        }
        Ok(())
    }

    /// Calls `f` with every keystream block past the header blocks that
    /// holds payload bytes of a real slot, given a sealed image's Z
    /// `headers` in the clear: each block once, in increasing order (one
    /// per real slot at Z = 4 and 64 B blocks).
    fn payload_blocks(self, headers: &[u8], mut f: impl FnMut(u32)) {
        let mut next = self.header_blocks();
        for (i, header) in headers.chunks_exact(HEADER_BYTES).enumerate() {
            if header[..8] == DUMMY_ADDR.to_le_bytes() {
                continue;
            }
            let start = headers.len() + i * self.block_bytes;
            let first = (start / KEYSTREAM_BLOCK) as u32;
            let last = ((start + self.block_bytes - 1) / KEYSTREAM_BLOCK) as u32;
            for block in first.max(next)..=last {
                f(block);
            }
            next = next.max(last + 1);
        }
    }
}

/// The write counter a sealed image ends with.
fn counter_of(image: &[u8]) -> u64 {
    let trailer = &image[image.len() - COUNTER_BYTES..];
    u64::from_le_bytes(trailer.try_into().expect("8 bytes"))
}

/// XORs the little-endian `keystream` words into `bytes`, as far as both
/// go: whole words, then a byte tail.
fn xor_keystream(bytes: &mut [u8], keystream: &[u32]) {
    let (whole, tail) = bytes.as_chunks_mut::<4>();
    for (word, k) in whole.iter_mut().zip(keystream) {
        *word = (u32::from_le_bytes(*word) ^ k).to_le_bytes();
    }
    if let Some(k) = keystream.get(whole.len()) {
        for (byte, k) in tail.iter_mut().zip(k.to_le_bytes()) {
            *byte ^= k;
        }
    }
}

/// XORs `src` into `dst`, as far as both go.
fn xor_bytes(dst: &mut [u8], src: &[u8]) {
    for (byte, s) in dst.iter_mut().zip(src) {
        *byte ^= s;
    }
}

/// [`CipherMode::Real`]'s cipher, its write counter, the keystream it
/// holds — the blocks of the last read call (`keystream[i]` is that of
/// `lanes[i]`, a `(nonce, block index)` pair) — and the sealed empties the
/// next seals take.
struct Sealer {
    cipher: BlockCipher,
    format: Format,
    lanes: Vec<(Nonce, u32)>,
    keystream: Vec<[u32; 16]>,
    /// The pad engine's batch the seals take from: the sealed empties of
    /// the next write counters, the next one last. Empty, unallocated,
    /// until the first seal.
    empties: Batch,
    /// The container filling with the images the reads take, up to its
    /// capacity, which goes back to the engine at the next batch: one of
    /// its own from the first seal on, then that of the batch spent before
    /// `empties`.
    returns: Batch,
    /// The pad engine, from the first seal on.
    engine: Option<PadEngine>,
    /// The write counter of the last seal: the nonce of a seal, alone.
    counter: u64,
    /// Passes of the lane kernel on the access thread so far: a read's.
    #[cfg(test)]
    passes: u64,
    /// Keystream blocks a read or a seal used so far: what the tests weigh
    /// a take and a write by.
    #[cfg(test)]
    used: u64,
    /// Batches taken from the pad engine so far.
    #[cfg(test)]
    batches: u64,
    /// Images the pad engine has allocated so far.
    #[cfg(test)]
    allocated: std::sync::Arc<std::sync::atomic::AtomicU64>,
}

/// Lengths only: the keystream and the sealed empties of seals not yet
/// made — whose dummy payloads are bare pads — stay on chip, like the key.
impl std::fmt::Debug for Sealer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sealer")
            .field("cipher", &self.cipher)
            .field("format", &self.format)
            .field("lanes", &self.lanes.len())
            .field("keystream", &self.keystream.len())
            .field("empties", &self.empties.len())
            .field("returns", &self.returns.len())
            .field("engine", &self.engine.is_some())
            .field("counter", &self.counter)
            .finish()
    }
}

/// The thread that seals a sealed store's empty buckets ahead, and the two
/// channel ends the store holds: the batches it sends, the containers it
/// gets back.
struct PadEngine {
    batches: Receiver<Batch>,
    spent: SyncSender<Batch>,
    thread: JoinHandle<()>,
}

/// What a pad engine starts from: the cipher, the images' shape, the
/// write counter of the last seal and, under test, the count of images it
/// allocates.
struct EngineStart {
    cipher: BlockCipher,
    format: Format,
    counter: u64,
    #[cfg(test)]
    allocated: std::sync::Arc<std::sync::atomic::AtomicU64>,
}

impl PadEngine {
    /// Starts sealing the empties of the seals after write counter
    /// `start.counter`.
    fn start(start: EngineStart) -> Self {
        let (send, batches) = sync_channel(PAD_DEPTH);
        let (spent, returned) = sync_channel(PAD_BUFFERS);
        let thread = std::thread::Builder::new()
            .name("pad-engine".into())
            .spawn(move || Self::run(&start, &send, &returned))
            .expect("the pad engine's thread starts");
        Self {
            batches,
            spent,
            thread,
        }
    }

    /// The engine's loop: a batch after another, its pads in one call of
    /// the lane kernel, each sealed empty `E_c(∅)` — Z dummy headers
    /// `(⊥, 0)` and zero payloads, XORed with counter c's pads, c in the
    /// trailer — written into an image the container brought back, or one
    /// it allocates when the container is short. Two containers of its
    /// own, returned ones after that ([`PAD_BUFFERS`]). Ends when the
    /// store drops either channel end.
    fn run(start: &EngineStart, send: &SyncSender<Batch>, returned: &Receiver<Batch>) {
        let format = start.format;
        let blocks = format.sealed_blocks() as usize;
        let whole = format.sealed_bytes() + COUNTER_BYTES;
        let mut counter = start.counter;
        let mut lanes = Vec::with_capacity(PAD_BATCH_SEALS * blocks);
        let mut pads = Vec::with_capacity(lanes.capacity());
        for made in 0.. {
            let mut batch = if made < PAD_BUFFERS - 1 {
                Vec::with_capacity(PAD_BATCH_SEALS)
            } else {
                let Ok(batch) = returned.recv() else { return };
                batch
            };
            lanes.clear();
            for seal in 1..=PAD_BATCH_SEALS as u64 {
                let nonce = Nonce::new(counter + seal, 0);
                lanes.extend((0..blocks as u32).map(|block| (nonce, block)));
            }
            start.cipher.keystream_blocks(&lanes, &mut pads);
            batch.resize_with(PAD_BATCH_SEALS, Image::new);
            for (image, pads) in batch.iter_mut().rev().zip(pads.chunks_exact(blocks)) {
                if image.capacity() < whole {
                    *image = Image::with_capacity(whole);
                    #[cfg(test)]
                    start
                        .allocated
                        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
                counter += 1;
                format.empty(format.z, image);
                xor_keystream(image, pads.as_flattened());
                image.extend_from_slice(&counter.to_le_bytes());
            }
            let sent = if made == 0 {
                Self::hand_to_a_waiting_seal(send, batch)
            } else {
                send.send(batch).is_ok()
            };
            if !sent {
                return;
            }
        }
    }

    /// Hands the first batch over only once the first seal waits for it,
    /// so that the seal's receive is the one that blocks. Std allocates
    /// the first blocked receive of a thread on a channel (its waker
    /// entry); this way that is the first seal's, and no later wait of the
    /// same thread allocates. Whether the engine is ahead or behind then
    /// decides nothing about allocation. False if the store is gone.
    fn hand_to_a_waiting_seal(send: &SyncSender<Batch>, mut batch: Batch) -> bool {
        loop {
            match send.try_send(batch) {
                Ok(()) => return true,
                Err(TrySendError::Full(back)) => batch = back,
                Err(TrySendError::Disconnected(_)) => return false,
            }
            std::thread::yield_now();
        }
    }
}

impl Drop for Sealer {
    /// Drops both channel ends, so the engine's next wait or send fails and
    /// it returns, then joins it; whatever it ended with is ignored.
    fn drop(&mut self) {
        if let Some(PadEngine {
            batches,
            spent,
            thread,
        }) = self.engine.take()
        {
            drop((batches, spent));
            let _ = thread.join();
        }
    }
}

impl Sealer {
    fn new(cipher: BlockCipher, format: Format) -> Self {
        Self {
            cipher,
            format,
            lanes: Vec::new(),
            keystream: Vec::new(),
            empties: Vec::new(),
            returns: Vec::new(),
            engine: None,
            counter: 0,
            #[cfg(test)]
            passes: 0,
            #[cfg(test)]
            used: 0,
            #[cfg(test)]
            batches: 0,
            #[cfg(test)]
            allocated: Default::default(),
        }
    }

    /// Computes the keystream blocks of `lanes` into `keystream`, in one
    /// call on the access thread.
    fn compute(&mut self) {
        self.cipher
            .keystream_blocks(&self.lanes, &mut self.keystream);
        #[cfg(test)]
        {
            self.passes += self.lanes.len().div_ceil(BlockCipher::LANES) as u64;
            self.used += self.lanes.len() as u64;
        }
    }

    /// Seals `blocks` as the next write counter's bucket: the next sealed
    /// empty — the batch held's last, or the next batch's once that is
    /// spent — with the blocks XORed into its first slots
    /// ([`Format::fill`]). The rest stays the sealed empty's. Out of line:
    /// the sealed branch of [`TreeStore::store`].
    #[inline(never)]
    fn seal(&mut self, blocks: &[Block]) -> Image {
        let mut image = match self.empties.pop() {
            Some(image) => image,
            None => self.next_batch(),
        };
        self.counter += 1;
        self.format.fill(&mut image, self.format.z, blocks);
        #[cfg(test)]
        {
            self.used += u64::from(self.format.sealed_blocks());
        }
        image
    }

    /// Waits for the pad engine's next batch, hands it the container of the
    /// batch before with the images the reads took, and returns the first
    /// sealed empty; the first seal starts the engine and gives the reads
    /// their first container. Cold, once every 128 seals: kept out of
    /// `TreeStore::store`, which a `Transparent` store runs too.
    #[cold]
    fn next_batch(&mut self) -> Image {
        let engine = self.engine.get_or_insert_with(|| {
            PadEngine::start(EngineStart {
                cipher: self.cipher.clone(),
                format: self.format,
                counter: self.counter,
                #[cfg(test)]
                allocated: self.allocated.clone(),
            })
        });
        let batch = engine.batches.recv().expect("the pad engine runs");
        let spent = std::mem::replace(&mut self.empties, batch);
        let returns = std::mem::replace(&mut self.returns, spent);
        // The return channel holds every container, so this send never
        // waits; an engine that is gone fails the next receive instead. The
        // first batch replaces no container: the reads get one of their own.
        if returns.capacity() > 0 {
            let _ = engine.spent.send(returns);
        } else {
            self.returns = Batch::with_capacity(PAD_BATCH_SEALS);
        }
        #[cfg(test)]
        {
            self.batches += 1;
        }
        self.empties.pop().expect("a batch is whole")
    }

    /// Keeps an emptied image of the sealed size for the pad engine, while
    /// the container on its way back has room; drops it otherwise.
    fn reclaim(&mut self, image: Image) {
        if self.returns.len() < self.returns.capacity() {
            self.returns.push(image);
        }
    }

    /// Unseals in place, in two calls of the cipher, what the takes of
    /// `images` decode: each image from untrusted memory up to the first
    /// whose length is wrong; one held on chip is in the clear already,
    /// and a call with no lane computes nothing. The first call computes
    /// their header blocks from the counters in their trailers; the
    /// second, the blocks that the payloads of the real slots those
    /// headers name cover, less the ones the first applied. Dummy payloads
    /// stay sealed: nothing reads them.
    fn unseal_path(&mut self, images: &mut [Taken]) {
        let (format, headers) = (self.format, self.format.header_blocks());
        self.lanes.clear();
        Self::each_whole(format, images, |nonce, _| {
            self.lanes.extend((0..headers).map(|block| (nonce, block)));
        });
        self.compute();
        self.lanes.clear();
        let mut keystream = self.keystream.chunks_exact(headers as usize);
        Self::each_whole(format, images, |nonce, slots| {
            let keystream = keystream.next().expect("one chunk per image");
            xor_keystream(slots, keystream.as_flattened());
            let headers = &slots[..format.z * HEADER_BYTES];
            format.payload_blocks(headers, |block| self.lanes.push((nonce, block)));
        });
        self.compute();
        let mut keystream = self.keystream.iter();
        Self::each_whole(format, images, |_, slots| {
            let (headers, payloads) = slots.split_at_mut(format.z * HEADER_BYTES);
            format.payload_blocks(headers, |block| {
                let at = block as usize * KEYSTREAM_BLOCK - headers.len();
                let end = payloads.len().min(at + KEYSTREAM_BLOCK);
                let keystream = keystream.next().expect("one per lane");
                xor_keystream(&mut payloads[at..end], keystream);
            });
        });
        self.lanes.clear();
    }

    /// Calls `f` with the nonce and the sealed slots of each of `images`
    /// from untrusted memory, in order, up to the first whose length is
    /// wrong.
    fn each_whole(format: Format, images: &mut [Taken], mut f: impl FnMut(Nonce, &mut [u8])) {
        let whole = format.sealed_bytes() + COUNTER_BYTES;
        for (_, image, on_chip) in images {
            if *on_chip {
                continue;
            }
            if image.len() != whole {
                break;
            }
            let nonce = Nonce::new(counter_of(image), 0);
            f(nonce, &mut image[..whole - COUNTER_BYTES]);
        }
    }

    /// Unseals a whole image in place if it has the length this store
    /// writes, with a pass of its own: what reads a stored image without
    /// taking it.
    fn unseal_whole(&self, image: &mut [u8]) {
        let slots = self.format.sealed_bytes();
        if image.len() == slots + COUNTER_BYTES {
            let nonce = Nonce::new(counter_of(image), 0);
            self.cipher.encrypt_in_place(nonce, &mut image[..slots]);
        }
    }
}

/// The ORAM tree: untrusted memory plus the buckets the on-chip cache
/// holds.
///
/// Buckets are addressed by heap node id (root = 1). Taking an untouched
/// bucket yields no real blocks (it is all dummies); writing a bucket
/// replaces its contents and, in [`CipherMode::Real`], re-encrypts with a
/// fresh write-counter nonce so ciphertexts never repeat (§2.3) when it
/// goes to memory: a bucket the cache holds is on chip in the clear, like
/// the stash, and one bound for DRAM is sealed as it is stored.
#[derive(Debug)]
pub struct TreeStore {
    pages: Pages,
    format: Format,
    /// [`CipherMode::Real`]'s cipher and write counter; `None` is
    /// `Transparent`, the identity.
    sealer: Option<Sealer>,
    /// The images a read phase took, in path order, until it decodes
    /// them.
    taken: Vec<Taken>,
    /// Emptied images by the slots they hold (`spare[k]`: `k` slots, Z
    /// when sealed): what a take leaves behind and a write of that size
    /// fills. Sealed, only on-chip buckets are written into them, and the
    /// list holds at most the buckets of a path (its capacity, reserved
    /// when first used); the rest go back to the pad engine.
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
        Self {
            pages: Pages::new(cfg.levels),
            format,
            sealer: format
                .sealed
                .then(|| Sealer::new(BlockCipher::new(key), format)),
            taken: Vec::new(),
            spare: Vec::new(),
        }
    }

    /// Read phase: removes the buckets `nodes` from the store, in order, and
    /// hands `each` their real blocks ([`Format::decode`]), stopping at the
    /// first corrupt image, whose error it returns — the buckets before it
    /// are taken, it is consumed (its bytes are unusable either way), the
    /// ones after it are left stored. The stale tree copy is dead the
    /// moment its blocks enter the stash, and the refill overwrites it; its
    /// buffer is kept for that write. An untouched or taken bucket, or a
    /// node id outside the tree, holds no blocks.
    pub(crate) fn take_path_with(
        &mut self,
        nodes: &[u64],
        mut each: impl FnMut(u64, u64, &[u8]),
    ) -> Result<(), IntegrityError> {
        let Some(sealer) = &mut self.sealer else {
            // In the clear an image decodes as it is taken.
            for &node in nodes {
                if let Some((image, on_chip)) = self.pages.take(node) {
                    self.consume((node, image, on_chip), &mut each)?;
                }
            }
            return Ok(());
        };
        // Sealed, the images are taken first, up to a corrupt one, so that
        // the headers and then the real payloads of the ones from untrusted
        // memory unseal in one cipher call each ([`Sealer::unseal_path`]).
        let mut taken = std::mem::take(&mut self.taken);
        for &node in nodes {
            if let Some((image, on_chip)) = self.pages.take(node) {
                let corrupt = !on_chip && self.format.slots_of(image.len()).is_none();
                taken.push((node, image, on_chip));
                if corrupt {
                    break;
                }
            }
        }
        sealer.unseal_path(&mut taken);
        // Only the last image taken can be corrupt.
        let mut decoded = Ok(());
        for bucket in taken.drain(..) {
            decoded = self.consume(bucket, &mut each);
        }
        self.taken = taken;
        decoded
    }

    /// Decodes a taken bucket into `each` and keeps its buffer for a write.
    fn consume(
        &mut self,
        (node, image, on_chip): Taken,
        each: impl FnMut(u64, u64, &[u8]),
    ) -> Result<(), IntegrityError> {
        let format = if on_chip {
            self.format.on_chip()
        } else {
            self.format
        };
        let decoded = format.decode(&image, node, each);
        self.recycle(image);
        decoded
    }

    /// Keeps an emptied image's buffer for the next write of its size; one
    /// of a size this store never writes (a corrupt image's) is dropped.
    /// Sealed, the spare list takes it while it has room and the pad engine
    /// after that ([`Sealer::reclaim`]).
    fn recycle(&mut self, mut image: Image) {
        if let Some(slots @ 1..) = self.format.slots_of(image.capacity()) {
            image.clear();
            let bounded = self.sealer.is_some();
            let spare = self.spare_of(slots);
            if !bounded || spare.len() < spare.capacity() {
                spare.push(image);
            } else if let Some(sealer) = &mut self.sealer {
                sealer.reclaim(image);
            }
        }
    }

    /// The emptied images of `slots` slots (`0..=Z`; sized on first use).
    fn spare_of(&mut self, slots: usize) -> &mut Vec<Image> {
        if self.spare.is_empty() {
            self.size_spare();
        }
        &mut self.spare[slots]
    }

    /// Sizes the spare lists, once; sealed, the list of Z gets room for a
    /// path's buckets, which it never outgrows ([`TreeStore::recycle`]).
    /// Cold: kept out of the two phases' per-bucket code.
    #[cold]
    fn size_spare(&mut self) {
        self.spare.resize_with(self.format.z + 1, Vec::new);
        if self.sealer.is_some() {
            let path = self.pages.levels as usize + 1;
            self.spare[self.format.z].reserve_exact(path);
        }
    }

    /// Write phase, one bucket: stores `blocks` as bucket `node`, over
    /// whatever the slot held, padded with dummy slots. A bucket the cache
    /// holds (`on_chip`) stays so, in the clear; one bound for DRAM goes to
    /// untrusted memory. Either opens empty and has its blocks XORed into
    /// its first slots ([`Format::fill`]): sealed, a write-through opens
    /// on the pad engine's next sealed empty ([`Sealer::seal`]); every
    /// other bucket on a kept buffer of exactly its slots — the real ones,
    /// or Z for a sealed store's bucket on chip — filled with `(⊥, 0)`
    /// headers and zero payloads.
    ///
    /// # Panics
    ///
    /// Panics if more than Z blocks are supplied, a payload is not
    /// `block_bytes` long, a block carries the address reserved for dummy
    /// slots (`u64::MAX`), or `node` is not a node id of the tree
    /// (`1 <= node < 2^(L+1)`).
    pub(crate) fn store(&mut self, node: u64, on_chip: bool, blocks: &[Block]) {
        let format @ Format { z, block_bytes, .. } = self.format;
        assert!(blocks.len() <= z, "bucket overflow: more than Z={z} blocks");
        for block in blocks {
            assert_eq!(block.data.len(), block_bytes, "payload size mismatch");
            assert_ne!(block.addr, DUMMY_ADDR, "address reserved for dummy slots");
        }
        let image = match &mut self.sealer {
            Some(sealer) if !on_chip => sealer.seal(blocks),
            _ => {
                let slots = if format.sealed { z } else { blocks.len() };
                let bytes = slots * format.slot_bytes() + format.trailer();
                let spare = self.spare_of(slots).pop();
                let mut image = spare.unwrap_or_else(|| Vec::with_capacity(bytes));
                format.empty(slots, &mut image);
                format.fill(&mut image, slots, blocks);
                image
            }
        };
        if let Some(old) = self.pages.put(node, image, on_chip) {
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
        self.take_path_with(&[node], collect_into(&mut blocks))
            .unwrap_or_else(|e| panic!("corrupt bucket: {e}"));
        blocks
    }

    /// Writes bucket `node` with up to `Z` real blocks (the remainder of the
    /// bucket is dummies) to untrusted memory, sealed before it returns.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not a node id of the tree (`1 <= node <
    /// 2^(L+1)`), more than `Z` blocks are supplied, a payload has the wrong
    /// size, or a block carries the address reserved for dummy slots
    /// (`u64::MAX`).
    pub fn write_bucket(&mut self, node: u64, blocks: Vec<Block>) {
        self.store(node, false, &blocks);
    }

    /// Raw stored bytes of bucket `node`: the image, without its
    /// write-counter trailer in `Real` mode (the ciphertext) — used by tests
    /// to confirm nothing recognizable leaks to untrusted memory.
    pub fn raw_bucket(&self, node: u64) -> Option<Vec<u8>> {
        let image = self.image(node)?;
        Some(image[..image.len().saturating_sub(self.format.trailer())].to_vec())
    }

    /// The stored image of bucket `node` byte for byte, trailer included:
    /// what untrusted memory holds, for tests that pin it. `None` for a
    /// bucket on chip, which untrusted memory does not have.
    pub fn image(&self, node: u64) -> Option<&[u8]> {
        let (page, slot) = self.pages.page(node)?;
        if page.holds_on_chip(slot) {
            return None;
        }
        page.slots[slot].as_deref()
    }

    /// Iterates over `(node, real blocks)` for every stored bucket, on chip
    /// or in untrusted memory, each decoded from a copy of its image.
    ///
    /// # Panics
    ///
    /// Panics on a corrupt image.
    pub fn iter_buckets(&self) -> impl Iterator<Item = (u64, Vec<Block>)> + '_ {
        let pages = self.pages.iter();
        pages.map(move |(node, image, on_chip)| (node, self.decode_copy(node, image, on_chip)))
    }

    /// The real blocks of bucket `node` if it is stored, on chip or in
    /// untrusted memory, decoded from a copy of its image.
    ///
    /// # Panics
    ///
    /// Panics on a corrupt image.
    pub fn bucket(&self, node: u64) -> Option<Vec<Block>> {
        let (page, slot) = self.pages.page(node)?;
        let image = page.slots[slot].as_ref()?;
        Some(self.decode_copy(node, image, page.holds_on_chip(slot)))
    }

    /// The real blocks of bucket `node`'s stored `image`, decoded from a
    /// copy.
    ///
    /// # Panics
    ///
    /// Panics on a corrupt image.
    fn decode_copy(&self, node: u64, image: &[u8], on_chip: bool) -> Vec<Block> {
        let mut image = image.to_vec();
        let mut format = self.format;
        if on_chip {
            format = format.on_chip();
        } else if let Some(sealer) = &self.sealer {
            sealer.unseal_whole(&mut image);
        }
        let mut blocks = Vec::new();
        let decoded = format.decode(&image, node, collect_into(&mut blocks));
        decoded.unwrap_or_else(|e| panic!("corrupt bucket: {e}"));
        blocks
    }

    /// Corrupts the image of bucket `node` in untrusted memory — one byte
    /// appended, in either mode — so its next take surfaces an
    /// [`IntegrityError`]. Deterministic fault-injection hook; a no-op on a
    /// bucket untrusted memory does not have (no bytes to change) and on
    /// one corrupt already. Returns whether the stored bucket is corrupt
    /// now.
    #[cfg(test)]
    pub(crate) fn corrupt_bucket(&mut self, node: u64) -> bool {
        let Some(len) = self.image(node).map(<[u8]>::len) else {
            return false;
        };
        if self.format.slots_of(len).is_some() {
            let image = self.pages.slot_mut(node).and_then(Option::as_mut);
            image.expect("stored").push(0);
        }
        true
    }
}

#[cfg(test)]
impl TreeStore {
    fn sealer(&self) -> &Sealer {
        self.sealer.as_ref().expect("sealed")
    }

    /// Keystream blocks the sealer's reads and seals have used so far.
    pub(crate) fn used(&self) -> u64 {
        self.sealer().used
    }

    /// Passes of the lane kernel the sealer has run on the access thread so
    /// far.
    pub(crate) fn passes(&self) -> u64 {
        self.sealer().passes
    }

    /// Batches of sealed empties the sealer has taken from its engine so
    /// far.
    fn batches(&self) -> u64 {
        self.sealer().batches
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

    /// The fallible take of one bucket, its blocks collected.
    fn try_take(store: &mut TreeStore, node: u64) -> Result<Vec<Block>, IntegrityError> {
        let mut blocks = Vec::new();
        store.take_path_with(&[node], collect_into(&mut blocks))?;
        Ok(blocks)
    }

    /// Buckets the store holds, on chip or in untrusted memory.
    fn stored(store: &TreeStore) -> usize {
        store.pages.iter().count()
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
        assert_eq!(stored(&store), 0);
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
        // Identity cipher: the image is the real slots' headers, then their
        // payloads, in eviction order, in a buffer of its size, and an empty
        // bucket is unallocated.
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
        }
        for b in &blocks {
            expected.extend_from_slice(&b.data);
        }
        assert_eq!(store.raw_bucket(2), Some(expected));

        // Every occupancy through `store`, into a fresh buffer and then into
        // one a take emptied: in the clear, the real slots alone; a sealed
        // store's bucket on chip, all Z slots in the clear — the real ones,
        // then `(⊥, 0)` headers and zero payloads.
        for mode in [CipherMode::Transparent, CipherMode::Real] {
            let sealed = mode == CipherMode::Real;
            let mut store = TreeStore::new(&cfg(mode), [0; 32]);
            let format = store.format;
            for round in 0..2 {
                for real in 0..=format.z {
                    let blocks: Vec<Block> = (0..real as u64)
                        .map(|a| Block::new(a, 7 + a, vec![a as u8 + 1; 16]))
                        .collect();
                    let node = 4 + real as u64;
                    store.store(node, sealed, &blocks);
                    let slots = if sealed { format.z } else { real };
                    let expected = clear_image(Format { z: slots, ..format }, &blocks);
                    let image = store.pages.get(node).map(Vec::as_slice);
                    assert_eq!(image, Some(&expected[..]), "{mode:?} {real} real, {round}");
                    assert_eq!(store.take_bucket(node), blocks, "{mode:?} {real} real");
                }
            }
        }
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
            assert_eq!(stored(&store), 0);
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
        // The first payload byte: the Z headers come first.
        image.expect("stored")[c.z * HEADER_BYTES] ^= 0x01;
        let taken = try_take(&mut store, node).expect("no tag to check");
        assert_eq!((taken[0].addr, taken[0].leaf), (7, 3));
        assert_eq!(taken[0].data[0], 0x5B, "the flip decrypts in place");
        assert_eq!(taken[0].data[1..], blocks[0].data[1..]);
    }

    #[test]
    fn a_sealed_take_computes_the_headers_and_the_real_payloads_only() {
        // Z = 4, 64 B blocks: header block 0, payload i block 1 + i.
        let mut c = cfg(CipherMode::Real);
        c.block_bytes = 64;
        let mut store = TreeStore::new(&c, [4; 32]);
        for real in 0..=c.z as u64 {
            let blocks: Vec<Block> = (0..real)
                .map(|addr| Block::new(addr, real, vec![addr as u8; 64]))
                .collect();
            let before = store.used();
            store.write_bucket(1, blocks.clone());
            assert_eq!(store.used() - before, 5, "a write seals every block");
            let before = store.used();
            assert_eq!(store.take_bucket(1), blocks);
            assert_eq!(store.used() - before, 1 + real, "{real} real slots");
        }
        // A path: its refill uses every block of every image, its read the
        // header blocks and then one per real slot.
        let path = path_nodes(c.levels, 5);
        let before = store.used();
        for (i, &node) in path.iter().rev().enumerate() {
            let blocks: Vec<Block> = (0..i as u64 % 3)
                .map(|a| Block::new(a, 5, vec![1; 64]))
                .collect();
            store.store(node, false, &blocks);
        }
        assert_eq!(store.used() - before, 5 * path.len() as u64);
        let before = store.used();
        let mut taken = 0;
        store
            .take_path_with(&path, |_, _, _| taken += 1)
            .expect("intact");
        assert_eq!(store.used() - before, path.len() as u64 + taken);
        assert_eq!(taken, 9);
    }

    /// A sealed store of Z = 4 and 64 B blocks: five keystream blocks an
    /// image.
    fn five_block_store() -> TreeStore {
        let mut c = cfg(CipherMode::Real);
        c.block_bytes = 64;
        TreeStore::new(&c, [2; 32])
    }

    /// The clear image a sealed store seals for `blocks`: their headers,
    /// Z minus their count dummy headers, their payloads, zero payloads.
    fn clear_image(format: Format, blocks: &[Block]) -> Vec<u8> {
        let mut clear = Vec::new();
        for block in blocks {
            clear.extend_from_slice(&block.addr.to_le_bytes());
            clear.extend_from_slice(&block.leaf.to_le_bytes());
        }
        for _ in blocks.len()..format.z {
            clear.extend_from_slice(&DUMMY_ADDR.to_le_bytes());
            clear.extend_from_slice(&0u64.to_le_bytes());
        }
        blocks
            .iter()
            .for_each(|block| clear.extend_from_slice(&block.data));
        clear.resize(format.sealed_bytes(), 0);
        clear
    }

    /// Seals take the pad engine's sealed empties in counter order, across
    /// batch boundaries, and compute nothing on the access thread. More
    /// than two batches of seals at two keystream blocks an image (16 B
    /// blocks) and at five (64 B), at every occupancy `0..=Z`, through the
    /// one door (`store`), each stored image checked byte for byte against
    /// [`BlockCipher::encrypt_in_place`] of its clear image under the
    /// counter in its trailer — at whatever lane count the build has; then
    /// the store is dropped mid-batch, and the drop returns. Also a store
    /// dropped right after its first seal, while the engine computes or
    /// offers its second batch.
    #[test]
    fn back_to_back_seals_take_whole_batches_in_counter_order() {
        let key = [2; 32];
        let cipher = BlockCipher::new(key);
        for block_bytes in [16, 64] {
            let mut c = cfg(CipherMode::Real);
            c.block_bytes = block_bytes;
            let mut store = TreeStore::new(&c, key);
            let format = store.format;
            let blocks = format.sealed_blocks() as usize;
            assert_eq!(blocks, if block_bytes == 16 { 2 } else { 5 });
            assert!((PAD_BATCH_SEALS * blocks).is_multiple_of(BlockCipher::LANES));
            let seals = 2 * PAD_BATCH_SEALS as u64 + 3;
            for n in 1..=seals {
                let node = 1 + n % 1000;
                let real = n % (c.z as u64 + 1);
                let bucket: Vec<Block> = (0..real)
                    .map(|i| {
                        let data = (0..block_bytes).map(|b| (n + i + b as u64) as u8);
                        Block::new(n * 8 + i, n + i, data.collect())
                    })
                    .collect();
                store.store(node, false, &bucket);
                let mut clear = clear_image(format, &bucket);
                cipher.encrypt_in_place(Nonce::new(n, 0), &mut clear);
                let at = format!("B={block_bytes} seal {n}, {real} real");
                let image = store.image(node).expect("in memory");
                assert_eq!(counter_of(image), n, "{at}");
                assert_eq!(image[..clear.len()], clear, "{at}");
                assert_eq!(image.len(), clear.len() + COUNTER_BYTES, "{at}");
            }
            assert_eq!(store.batches(), 3, "B={block_bytes}");
            assert_eq!(
                store.passes(),
                0,
                "B={block_bytes}: none on the access thread"
            );
            assert_eq!(store.used(), seals * blocks as u64, "B={block_bytes}");
            let held = store.sealer().empties.len();
            assert_eq!(held, PAD_BATCH_SEALS - 3, "B={block_bytes}");
            drop(store);

            let mut store = TreeStore::new(&c, key);
            store.store(1, false, &[]);
            drop(store);
        }
    }

    /// The images in circulation stay bounded: over twelve batches of
    /// seals, each taken back by a read, the pad engine allocates images
    /// for its own two containers and for the ones the spare list kept
    /// from the reads' first container — all before the third batch — then
    /// refills the images the reads returned and allocates none. The reads
    /// have a container from the first seal on, so none of their images is
    /// dropped; the spare list and that container never outgrow what was
    /// reserved.
    #[test]
    fn the_images_in_circulation_stay_bounded() {
        let mut store = five_block_store();
        let levels = store.pages.levels as usize;
        let mut allocated = Vec::new();
        let mut batches = 0;
        let mut n = 0u64;
        while store.batches() < 12 {
            n += 1;
            let node = 1 + n % 40;
            let blocks = vec![Block::new(n, 0, vec![n as u8; 64]); (n % 5) as usize];
            store.write_bucket(node, blocks.clone());
            assert_eq!(store.take_bucket(node), blocks, "seal {n}");
            if store.batches() > batches {
                batches = store.batches();
                // What the engine allocated for the batches handed over so
                // far: they were sealed before the receive returned.
                let count = &store.sealer().allocated;
                allocated.push(count.load(std::sync::atomic::Ordering::Relaxed));
            }
            let spare = &store.spare[store.format.z];
            assert!(spare.len() <= levels + 1 && spare.capacity() == levels + 1);
            let returns = &store.sealer().returns;
            assert_eq!(returns.capacity(), PAD_BATCH_SEALS, "seal {n}");
        }
        let engine = (PAD_BUFFERS - 1) * PAD_BATCH_SEALS;
        let expected = (engine + levels + 1) as u64;
        assert!(
            allocated[2..].iter().all(|&count| count == expected),
            "the engine allocates nothing from the third batch on: {allocated:?}"
        );
    }

    /// A read computes, on the access thread, exactly the whole passes its
    /// lanes need — its header blocks in one call, its real payloads' in a
    /// second — and no pads: the batch the seals take from is untouched.
    #[test]
    fn a_read_computes_its_lanes_in_whole_passes_and_no_pads() {
        let lanes = BlockCipher::LANES as u64;
        let passes = |n: u64| n.div_ceil(lanes);
        for real in 0..=4u64 {
            let mut store = five_block_store();
            let blocks: Vec<Block> = (0..real)
                .map(|addr| Block::new(addr, 0, vec![1; 64]))
                .collect();
            store.store(1, false, &blocks);
            let (before, held) = (store.passes(), store.sealer().empties.len());
            assert_eq!(store.take_bucket(1), blocks);
            assert_eq!(store.passes() - before, 1 + passes(real), "{real} real");
            let taken = held - store.sealer().empties.len();
            assert_eq!(taken, 0, "{real} real: no sealed empty taken");
        }
        // A path: ten header lanes, then one lane a real payload.
        let mut store = five_block_store();
        let path = path_nodes(store.pages.levels, 5);
        for (i, &node) in path.iter().rev().enumerate() {
            let blocks: Vec<Block> = (0..i as u64 % 3)
                .map(|a| Block::new(a, 5, vec![1; 64]))
                .collect();
            store.store(node, false, &blocks);
        }
        let sealer = store.sealer();
        let (before, used, held) = (sealer.passes, sealer.used, sealer.empties.len());
        let mut taken = 0;
        store
            .take_path_with(&path, |_, _, _| taken += 1)
            .expect("intact");
        let headers = path.len() as u64;
        assert_eq!(store.used() - used, headers + taken);
        assert_eq!(store.passes() - before, passes(headers) + passes(taken));
        let held_after = store.sealer().empties.len();
        assert_eq!((held_after, store.batches()), (held, 1));
    }

    #[test]
    fn debug_output_shows_no_keystream() {
        // A warm store: the last take left its keystream behind, and the
        // sealer holds the sealed empties of seals not yet made, whose
        // dummy payloads are bare pads.
        let mut store = five_block_store();
        for node in 1..=3 {
            store.write_bucket(node, vec![Block::new(node, 0, vec![0; 64])]);
        }
        store.take_bucket(1);
        let sealer = store.sealer();
        // Their slots: the trailer holds the public write counter.
        let slots = store.format.sealed_bytes();
        let empties = sealer.empties.iter().flat_map(|image| {
            let (words, _) = image[..slots].as_chunks::<4>();
            words.iter().map(|word| u32::from_le_bytes(*word))
        });
        let keystream = sealer.keystream.iter().flatten().copied();
        let words: Vec<u32> = keystream.chain(empties).collect();
        assert_eq!(sealer.empties.len(), PAD_BATCH_SEALS - 3);
        assert!(!words.is_empty());
        let shown = format!("{store:?}");
        let numbers: HashSet<&str> = shown.split(|c: char| !c.is_ascii_digit()).collect();
        for word in words {
            assert!(!numbers.contains(word.to_string().as_str()), "{word}");
        }
    }

    /// A bucket stored on chip is in the clear and nowhere in untrusted
    /// memory: no keystream to store it or to take it, no image, yet it is
    /// a stored bucket. Beside write-throughs it stays so: sealed, each
    /// write-through is sealed as it is stored, under counters in send
    /// order, and the bucket on chip takes no counter. The same placement
    /// in the clear.
    #[test]
    fn an_on_chip_bucket_is_never_sealed() {
        for mode in [CipherMode::Transparent, CipherMode::Real] {
            let mut c = cfg(mode);
            c.block_bytes = 64;
            let sealed = mode == CipherMode::Real;
            let used = |store: &TreeStore| if sealed { store.used() } else { 0 };
            let mut store = TreeStore::new(&c, [6; 32]);
            let path = path_nodes(c.levels, 9);
            let (held, through) = (path[4], [path[6], path[5], path[2]]);
            let blocks = vec![Block::new(3, 9, vec![3; 64]), Block::new(4, 9, vec![4; 64])];

            let hold = |store: &mut TreeStore| store.store(held, true, &blocks);
            let write_through = |store: &mut TreeStore, node| store.store(node, false, &[]);
            hold(&mut store);
            assert_eq!(store.image(held), None, "{mode:?}: on chip");
            assert_eq!(store.raw_bucket(held), None, "{mode:?}: on chip");
            assert!(!store.corrupt_bucket(held), "{mode:?}: nothing in memory");
            assert_eq!(sorted(&store), [(held, blocks.clone())], "{mode:?}");
            assert_eq!(stored(&store), 1);
            assert_eq!(store.take_bucket(held), blocks, "{mode:?}");
            assert_eq!(used(&store), 0, "{mode:?}: held and taken in the clear");

            write_through(&mut store, through[0]);
            hold(&mut store);
            write_through(&mut store, through[1]);
            write_through(&mut store, through[2]);
            let in_memory = through.map(|node| store.image(node).is_some());
            assert_eq!(in_memory, [true; 3], "{mode:?}: sealed as stored");
            assert_eq!(sorted(&store).len(), 4, "{mode:?}");
            assert_eq!(store.image(held), None, "{mode:?}: still on chip");
            if sealed {
                let counters =
                    through.map(|node| counter_of(store.image(node).expect("in memory")));
                assert_eq!(counters, [1, 2, 3], "counters in send order");
                assert_eq!(used(&store), 3 * 5);
            }
            assert_eq!(store.take_bucket(held), blocks, "{mode:?}");
        }
    }

    /// Round trips of whole paths, sealed, at every Z and block size the
    /// list below makes (headers and payloads straddling keystream blocks
    /// or not): refills of random occupancy through `store`, then reads
    /// from a random floor, a corrupt image at a random level of half of them,
    /// against the map model; the whole store after every read, once a
    /// corrupt image it left above its floor is taken.
    #[test]
    fn sealed_paths_round_trip_at_every_alignment() {
        let levels = 6;
        for z in [2, 3, 4, 5] {
            for block_bytes in [16, 24, 64, 100] {
                let mut c = cfg_with_levels(CipherMode::Real, levels);
                (c.z, c.block_bytes) = (z, block_bytes);
                let mut rng = Xoshiro256::new(0xA119_0000 + (z * 1000 + block_bytes) as u64);
                let mut store = TreeStore::new(&c, [8; 32]);
                let mut model = Model::default();
                let mut next_addr = 0u64;
                for round in 0..80 {
                    let at = format!("Z={z} B={block_bytes} round {round}");
                    let path = path_nodes(levels, rng.next_below(1 << levels));
                    for &node in path.iter().rev() {
                        if rng.next_below(4) == 0 {
                            continue;
                        }
                        let blocks: Vec<Block> = (0..rng.next_below(z as u64 + 1))
                            .map(|_| {
                                next_addr += 1;
                                let leaf = rng.next_u64();
                                let data = (0..block_bytes).map(|_| rng.next_u64() as u8);
                                Block::new(next_addr, leaf, data.collect())
                            })
                            .collect();
                        store.store(node, false, &blocks);
                        model.write(node, blocks);
                    }
                    if rng.next_below(2) == 0 {
                        let node = path[rng.next_below(u64::from(levels) + 1) as usize];
                        let truncate = rng.next_below(2) == 0;
                        let corrupted = if truncate {
                            truncate_bucket(&mut store, node)
                        } else {
                            store.corrupt_bucket(node)
                        };
                        let modelled = model.corrupt(node, truncate, CipherMode::Real);
                        assert_eq!(corrupted, modelled, "{at}");
                    }
                    let floor = rng.next_below(u64::from(levels) + 1) as usize;
                    let mut taken = Vec::new();
                    let result = store.take_path_with(&path[floor..], collect_into(&mut taken));
                    let expected = model.take_path(&path[floor..]);
                    assert_eq!((taken, result), expected, "{at}");
                    assert_eq!(stored(&store), model.buckets.len(), "{at}");
                    // A corrupt image above the floor: scrub it.
                    for node in model.corrupt.clone() {
                        assert_eq!(try_take(&mut store, node), model.take(node), "{at}");
                    }
                    assert_eq!(sorted(&store), model.sorted(), "{at}");
                }
            }
        }
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
            assert_eq!(stored(&store), 1);
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
            assert_eq!(stored(&store), levels as usize + 2);
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
    /// Every write is stored for DRAM through `store`, and half the take
    /// runs are one `take_path_with`, so a sealed store decodes what it
    /// sealed whichever door it leaves by.
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
            if (6..=11).contains(&op) && whole_run {
                let mut taken = Vec::new();
                let result = store.take_path_with(&run, collect_into(&mut taken));
                assert_eq!((taken, result), model.take_path(&run), "{at}");
                assert_eq!(stored(&store), model.buckets.len(), "{at}");
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
                        store.store(node, false, &blocks);
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
                assert_eq!(stored(&store), model.buckets.len(), "{at}");
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
