//! ChaCha20 stream cipher and counter-mode block encryption.
//!
//! The cipher is ChaCha20 as RFC 8439 specifies it: a 16-word state of
//! constants, key, counter and nonce, mixed by 20 rounds of the ARX
//! quarter-round, with the initial state added back at the end. It is
//! implemented from scratch here so the workspace has no external crypto
//! dependency.
//!
//! There is one implementation of the rounds, [`blocks`], generic over a
//! lane count `N`: it computes `N` keystream blocks side by side, each state
//! word an `N`-wide row, so that a build whose target has 256-bit integer
//! vectors runs one vector instruction where the scalar form runs eight.
//! Only the key and the constants are shared; each lane has its own block
//! counter and nonce, so a pass may hold consecutive blocks of one nonce
//! ([`StreamCipher::apply_keystream`]) or any list of `(nonce, block)`
//! pairs ([`StreamCipher::keystream_blocks`]). [`LANES`] picks the
//! count from the build's target features; the keystream is the same bytes
//! at every count.

use std::fmt;

/// Number of double-rounds (ChaCha20 uses 10 double rounds = 20 rounds).
const DOUBLE_ROUNDS: usize = 10;

/// The four "expand 32-byte k" constant words.
const SIGMA: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

/// Keystream blocks computed per pass: a fact about the build
/// (`.cargo/config.toml` sets `target-cpu`), never a run-time choice. Eight
/// `u32` lanes fill one AVX2 register; without AVX2 the lane form does not
/// vectorise and one lane is fastest.
const LANES: usize = if cfg!(target_feature = "avx2") { 8 } else { 1 };

/// Bytes in one keystream block.
const BLOCK_BYTES: usize = 64;
/// Words in one keystream block.
const BLOCK_WORDS: usize = BLOCK_BYTES / 4;

/// A keyed ARX stream cipher producing a 64-byte keystream block per
/// (counter, nonce) pair.
///
/// Every block is independent of every other, so several are computed at
/// once, one per lane, each lane with its own counter and nonce under the
/// one key. How many is a property of the build (the target's vector
/// width), not of the cipher value: every build produces the same
/// keystream.
#[derive(Clone)]
pub(crate) struct StreamCipher {
    key_words: [u32; 8],
}

impl fmt::Debug for StreamCipher {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never leak key material through Debug output.
        f.debug_struct("StreamCipher")
            .field("key_words", &"<redacted>")
            .finish()
    }
}

/// Lane-wise wrapping sum of two rows.
#[inline(always)]
fn add<const N: usize>(a: [u32; N], b: [u32; N]) -> [u32; N] {
    std::array::from_fn(|l| a[l].wrapping_add(b[l]))
}

/// Lane-wise `(d ^ a) <<< r`.
#[inline(always)]
fn xor_rotl<const N: usize>(d: [u32; N], a: [u32; N], r: u32) -> [u32; N] {
    std::array::from_fn(|l| (d[l] ^ a[l]).rotate_left(r))
}

/// The ChaCha quarter-round on rows `a`, `b`, `c`, `d`, every lane at once.
#[inline(always)]
fn quarter_round<const N: usize>(x: &mut [[u32; N]; 16], a: usize, b: usize, c: usize, d: usize) {
    x[a] = add(x[a], x[b]);
    x[d] = xor_rotl(x[d], x[a], 16);
    x[c] = add(x[c], x[d]);
    x[b] = xor_rotl(x[b], x[c], 12);
    x[a] = add(x[a], x[b]);
    x[d] = xor_rotl(x[d], x[a], 8);
    x[c] = add(x[c], x[d]);
    x[b] = xor_rotl(x[b], x[c], 7);
}

/// The ChaCha20 block function over `N` blocks at once. Rows 0..12 of the
/// RFC 8439 §2.3 state — the constants and `key` — are the same in every
/// lane; `tail` is rows 12..16, the block counter and the three nonce
/// words, lane by lane. The rounds run on the state word-major, row `w`
/// holding word `w` of every lane; the result is transposed back to
/// lane-major, `[l]` being lane `l`'s keystream block as 16 words.
#[inline(always)]
fn blocks<const N: usize>(key: &[u32; 8], tail: [[u32; N]; 4]) -> [[u32; BLOCK_WORDS]; N] {
    const { assert!(N.is_power_of_two() && N <= BLOCK_WORDS) };
    let mut first = [[0u32; N]; 16];
    for (row, &word) in first.iter_mut().zip(SIGMA.iter().chain(key)) {
        *row = [word; N];
    }
    first[12..].copy_from_slice(&tail);

    let mut x = first;
    for _ in 0..DOUBLE_ROUNDS {
        // Column rounds.
        quarter_round(&mut x, 0, 4, 8, 12);
        quarter_round(&mut x, 1, 5, 9, 13);
        quarter_round(&mut x, 2, 6, 10, 14);
        quarter_round(&mut x, 3, 7, 11, 15);
        // Diagonal rounds.
        quarter_round(&mut x, 0, 5, 10, 15);
        quarter_round(&mut x, 1, 6, 11, 12);
        quarter_round(&mut x, 2, 7, 8, 13);
        quarter_round(&mut x, 3, 4, 9, 14);
    }
    for (row, &first_row) in x.iter_mut().zip(&first) {
        *row = add(*row, first_row);
    }
    let mut lanes = [[0u32; BLOCK_WORDS]; N];
    for w in (0..BLOCK_WORDS).step_by(N) {
        let words = transpose(std::array::from_fn(|r| x[w + r]));
        for (lane, words) in lanes.iter_mut().zip(words) {
            lane[w..w + N].copy_from_slice(&words);
        }
    }
    lanes
}

/// Transposes an `N` x `N` matrix of words by `log2 N` perfect shuffles:
/// each step interleaves row `i` with row `i + N / 2`, first halves into
/// the even rows, second halves into the odd ones. Every index is a
/// constant once the steps unroll, so the compiler emits vector shuffles,
/// not `N * N` scalar moves.
#[inline(always)]
fn transpose<const N: usize>(mut rows: [[u32; N]; N]) -> [[u32; N]; N] {
    for _ in 0..N.ilog2() {
        rows = std::array::from_fn(|i| {
            let (a, b, half) = (rows[i / 2], rows[i / 2 + N / 2], i % 2 * N / 2);
            std::array::from_fn(|j| {
                if j % 2 == 0 {
                    a[half + j / 2]
                } else {
                    b[half + j / 2]
                }
            })
        });
    }
    rows
}

impl StreamCipher {
    /// Creates a cipher from a 256-bit key.
    pub(crate) fn new(key: [u8; 32]) -> Self {
        let mut key_words = [0u32; 8];
        for (i, chunk) in key.chunks_exact(4).enumerate() {
            key_words[i] = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        Self { key_words }
    }

    /// Produces the 64-byte keystream block for `(counter, nonce)`: the
    /// one-block reference the RFC vectors and the lane tests check.
    #[cfg(test)]
    pub(crate) fn keystream_block(&self, counter: u32, nonce: [u8; 12]) -> [u8; 64] {
        let [words] = blocks::<1>(&self.key_words, shared_tail(counter, nonce_words(nonce)));
        let mut out = [0u8; BLOCK_BYTES];
        for (bytes, word) in out.chunks_exact_mut(4).zip(words) {
            bytes.copy_from_slice(&word.to_le_bytes());
        }
        out
    }

    /// XORs `data` in place with the keystream starting at block `counter`.
    pub(crate) fn apply_keystream(&self, counter: u32, nonce: [u8; 12], data: &mut [u8]) {
        self.xor_keystream::<LANES>(counter, nonce, data);
    }

    /// [`StreamCipher::apply_keystream`] at lane count `N`: the lanes of a
    /// pass share the nonce and take consecutive counters; the data is
    /// walked in groups of `N` blocks and XORed as whole little-endian
    /// words, and only a last partial block has a byte tail.
    fn xor_keystream<const N: usize>(&self, mut counter: u32, nonce: [u8; 12], data: &mut [u8]) {
        let nonce = nonce_words(nonce);
        for group in data.chunks_mut(BLOCK_BYTES * N) {
            let keystream = blocks::<N>(&self.key_words, shared_tail(counter, nonce));
            counter = counter.wrapping_add(N as u32);
            for (block, data) in keystream.iter().zip(group.chunks_mut(BLOCK_BYTES)) {
                let (words, tail) = data.as_chunks_mut::<4>();
                for (word, k) in words.iter_mut().zip(block) {
                    *word = (u32::from_le_bytes(*word) ^ k).to_le_bytes();
                }
                if let Some(k) = block.get(words.len()) {
                    for (byte, k) in tail.iter_mut().zip(k.to_le_bytes()) {
                        *byte ^= k;
                    }
                }
            }
        }
    }

    /// Appends to `out` one keystream block per lane of `lanes`, in order,
    /// at lane count `N`: `N` lanes to a pass, whatever their nonces and
    /// block indices, so only the last pass has idle lanes.
    fn keystream_blocks<const N: usize>(
        &self,
        lanes: &[(Nonce, u32)],
        out: &mut Vec<[u32; BLOCK_WORDS]>,
    ) {
        out.reserve(lanes.len());
        for pass in lanes.chunks(N) {
            let mut tail = [[0u32; N]; 4];
            for (l, &(nonce, block)) in pass.iter().enumerate() {
                let [n0, n1, n2] = nonce_words(nonce.to_bytes());
                for (row, word) in tail.iter_mut().zip([block, n0, n1, n2]) {
                    row[l] = word;
                }
            }
            let keystream = blocks::<N>(&self.key_words, tail);
            out.extend_from_slice(&keystream[..pass.len()]);
        }
    }
}

/// Rows 12..16 of `N` lanes that share `nonce` and take the consecutive
/// counters from `counter`, wrapping as the 32-bit counter does.
#[inline(always)]
fn shared_tail<const N: usize>(counter: u32, nonce: [u32; 3]) -> [[u32; N]; 4] {
    [
        std::array::from_fn(|l| counter.wrapping_add(l as u32)),
        [nonce[0]; N],
        [nonce[1]; N],
        [nonce[2]; N],
    ]
}

/// The state words 13..16 of a 12-byte RFC 8439 nonce.
fn nonce_words(nonce: [u8; 12]) -> [u32; 3] {
    std::array::from_fn(|i| u32::from_le_bytes(std::array::from_fn(|b| nonce[4 * i + b])))
}

/// A per-write encryption nonce.
///
/// Path ORAM's counter-mode scheme derives freshness from a write counter:
/// each bucket write increments it, so re-encrypting unchanged data still
/// yields a fresh ciphertext. A counter that only ever goes up and belongs
/// to one key is unique per seal on its own; the tree store seals under
/// `Nonce::new(counter, 0)`, so the keystream of its next writes is known
/// before their buckets are. The address half is for callers whose counter
/// is not unique per key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Nonce {
    /// Monotonic write counter.
    pub write_counter: u64,
    /// Physical address being written, or 0 when the counter alone is
    /// unique.
    pub address: u32,
}

impl Nonce {
    /// Creates a nonce from a write counter and a physical address.
    pub fn new(write_counter: u64, address: u32) -> Self {
        Self {
            write_counter,
            address,
        }
    }

    fn to_bytes(self) -> [u8; 12] {
        let mut bytes = [0u8; 12];
        bytes[..8].copy_from_slice(&self.write_counter.to_le_bytes());
        bytes[8..].copy_from_slice(&self.address.to_le_bytes());
        bytes
    }
}

/// Counter-mode block encryption for ORAM blocks.
///
/// This is the probabilistic-encryption primitive from §2.3 of the paper:
/// any two encrypted blocks are indistinguishable, regardless of whether the
/// plaintexts match or whether the block is real or dummy.
///
/// # Example
///
/// ```
/// use fp_crypto::{BlockCipher, Nonce};
/// let cipher = BlockCipher::new([0u8; 32]);
/// let ct = cipher.encrypt(Nonce::new(42, 7), b"secret block here");
/// assert_eq!(cipher.decrypt(Nonce::new(42, 7), &ct), b"secret block here");
/// ```
#[derive(Debug, Clone)]
pub struct BlockCipher {
    inner: StreamCipher,
}

impl BlockCipher {
    /// Keystream blocks [`BlockCipher::keystream_blocks`] computes per
    /// pass of the lane kernel: eight where the build's target has AVX2,
    /// one otherwise. A list of lanes costs its length rounded up to a
    /// multiple of this, so a caller with blocks it will need later can
    /// fill a last pass's idle lanes with them for nothing.
    pub const LANES: usize = LANES;

    /// Creates a block cipher from a 256-bit key.
    pub fn new(key: [u8; 32]) -> Self {
        Self {
            inner: StreamCipher::new(key),
        }
    }

    /// Encrypts `plaintext` under `nonce`, returning the ciphertext.
    pub fn encrypt(&self, nonce: Nonce, plaintext: &[u8]) -> Vec<u8> {
        let mut data = plaintext.to_vec();
        self.encrypt_in_place(nonce, &mut data);
        data
    }

    /// Decrypts `ciphertext` produced under `nonce`.
    pub fn decrypt(&self, nonce: Nonce, ciphertext: &[u8]) -> Vec<u8> {
        // Counter mode is an involution: decryption is re-encryption.
        self.encrypt(nonce, ciphertext)
    }

    /// Encrypts — or, the same XOR, decrypts — in place, without an
    /// allocation.
    pub fn encrypt_in_place(&self, nonce: Nonce, data: &mut [u8]) {
        self.inner.apply_keystream(0, nonce.to_bytes(), data);
    }

    /// Replaces `out`'s contents with one keystream block per lane, in
    /// order: `out[i]` is block `b` of nonce `n`'s keystream for `lanes[i]
    /// = (n, b)`, as little-endian words, so XORing bytes `64 * b ..` of a
    /// buffer with it is [`BlockCipher::encrypt_in_place`] under `n`, there.
    /// Every lane is one block of the lane kernel, whatever its nonce and
    /// index: a list of the few blocks a reader needs out of many images
    /// fills whole passes, and `out` keeps its capacity from call to call.
    ///
    /// ```
    /// use fp_crypto::{BlockCipher, Nonce};
    /// let cipher = BlockCipher::new([1u8; 32]);
    /// let (a, b) = (Nonce::new(1, 2), Nonce::new(3, 4));
    /// let mut keystream = Vec::new();
    /// cipher.keystream_blocks(&[(a, 0), (b, 2)], &mut keystream);
    /// let mut data = [0u8; 3 * 64];
    /// cipher.encrypt_in_place(b, &mut data);
    /// assert_eq!(data[128..132], keystream[1][0].to_le_bytes());
    /// ```
    pub fn keystream_blocks(&self, lanes: &[(Nonce, u32)], out: &mut Vec<[u32; 16]>) {
        out.clear();
        self.inner.keystream_blocks::<LANES>(lanes, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consecutive_counters_give_distinct_blocks() {
        let c = StreamCipher::new([1u8; 32]);
        assert_ne!(
            c.keystream_block(0, [0u8; 12]),
            c.keystream_block(1, [0u8; 12])
        );
    }

    /// The key `00 01 .. 1f` both RFC 8439 vectors use.
    fn rfc_key() -> [u8; 32] {
        std::array::from_fn(|i| i as u8)
    }

    #[test]
    fn rfc8439_test_vector_block() {
        // RFC 8439 §2.3.2: the whole serialized block.
        let nonce = [0, 0, 0, 9, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let block = StreamCipher::new(rfc_key()).keystream_block(1, nonce);
        let expected: [u8; 64] = [
            0x10, 0xf1, 0xe7, 0xe4, 0xd1, 0x3b, 0x59, 0x15, 0x50, 0x0f, 0xdd, 0x1f, 0xa3, 0x20,
            0x71, 0xc4, 0xc7, 0xd1, 0xf4, 0xc7, 0x33, 0xc0, 0x68, 0x03, 0x04, 0x22, 0xaa, 0x9a,
            0xc3, 0xd4, 0x6c, 0x4e, 0xd2, 0x82, 0x64, 0x46, 0x07, 0x9f, 0xaa, 0x09, 0x14, 0xc2,
            0xd7, 0x05, 0xd9, 0x8b, 0x02, 0xa2, 0xb5, 0x12, 0x9c, 0xd1, 0xde, 0x16, 0x4e, 0xb9,
            0xcb, 0xd0, 0x83, 0xe8, 0xa2, 0x50, 0x3c, 0x4e,
        ];
        assert_eq!(block, expected);
    }

    #[test]
    fn rfc8439_test_vector_encryption() {
        // RFC 8439 §2.4.2: 114 bytes from counter 1, so the keystream
        // crosses a block boundary and ends in a partial word.
        let nonce = [0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let mut text = *b"Ladies and Gentlemen of the class of '99: If I could offer you \
                          only one tip for the future, sunscreen would be it.";
        StreamCipher::new(rfc_key()).apply_keystream(1, nonce, &mut text);
        let expected: [u8; 114] = [
            0x6e, 0x2e, 0x35, 0x9a, 0x25, 0x68, 0xf9, 0x80, 0x41, 0xba, 0x07, 0x28, 0xdd, 0x0d,
            0x69, 0x81, 0xe9, 0x7e, 0x7a, 0xec, 0x1d, 0x43, 0x60, 0xc2, 0x0a, 0x27, 0xaf, 0xcc,
            0xfd, 0x9f, 0xae, 0x0b, 0xf9, 0x1b, 0x65, 0xc5, 0x52, 0x47, 0x33, 0xab, 0x8f, 0x59,
            0x3d, 0xab, 0xcd, 0x62, 0xb3, 0x57, 0x16, 0x39, 0xd6, 0x24, 0xe6, 0x51, 0x52, 0xab,
            0x8f, 0x53, 0x0c, 0x35, 0x9f, 0x08, 0x61, 0xd8, 0x07, 0xca, 0x0d, 0xbf, 0x50, 0x0d,
            0x6a, 0x61, 0x56, 0xa3, 0x8e, 0x08, 0x8a, 0x22, 0xb6, 0x5e, 0x52, 0xbc, 0x51, 0x4d,
            0x16, 0xcc, 0xf8, 0x06, 0x81, 0x8c, 0xe9, 0x1a, 0xb7, 0x79, 0x37, 0x36, 0x5a, 0xf9,
            0x0b, 0xbf, 0x74, 0xa3, 0x5b, 0xe6, 0xb4, 0x0b, 0x8e, 0xed, 0xf2, 0x78, 0x5e, 0x42,
            0x87, 0x4d,
        ];
        assert_eq!(text, expected);
    }

    /// Start counters for the lane tests; the last wraps inside a lane group.
    const START_COUNTERS: [u32; 3] = [0, 7, u32::MAX - 2];

    /// Lane `l` of one `N`-lane pass over `lanes[l]` = `(counter, nonce)`,
    /// against the one-block reference.
    fn assert_lanes_match_single_blocks<const N: usize>(
        cipher: &StreamCipher,
        lanes: [(u32, [u8; 12]); N],
        what: &str,
    ) {
        let mut tail = [[0u32; N]; 4];
        for (l, &(counter, nonce)) in lanes.iter().enumerate() {
            let [n0, n1, n2] = nonce_words(nonce);
            for (row, word) in tail.iter_mut().zip([counter, n0, n1, n2]) {
                row[l] = word;
            }
        }
        let keystream = blocks::<N>(&cipher.key_words, tail);
        for (l, &(counter, nonce)) in lanes.iter().enumerate() {
            let single = cipher.keystream_block(counter, nonce);
            for (w, bytes) in single.chunks_exact(4).enumerate() {
                assert_eq!(
                    keystream[l][w].to_le_bytes(),
                    bytes,
                    "{what} N={N} lane {l} word {w}"
                );
            }
        }
    }

    /// Both lane shapes at lane count `N`: consecutive counters of one
    /// nonce from each start counter, and a different nonce and counter in
    /// every lane, one of them the last counter before the wrap.
    fn assert_lane_count<const N: usize>(cipher: &StreamCipher) {
        for counter in START_COUNTERS {
            let lanes = std::array::from_fn(|l| (counter.wrapping_add(l as u32), [9; 12]));
            assert_lanes_match_single_blocks::<N>(cipher, lanes, "one nonce");
        }
        let mixed = std::array::from_fn(|l| {
            let counter = [u32::MAX, 0, 4, 1, 7, 2, 3, 5][l % 8];
            (counter, std::array::from_fn(|b| (l * 12 + b) as u8))
        });
        assert_lanes_match_single_blocks::<N>(cipher, mixed, "mixed nonces");
    }

    #[test]
    fn every_lane_count_computes_the_same_blocks() {
        // Explicit instantiations: an AVX2 build still tests the scalar
        // kernel and a portable build the eight-lane one.
        let cipher = StreamCipher::new(rfc_key());
        assert_lane_count::<1>(&cipher);
        assert_lane_count::<2>(&cipher);
        assert_lane_count::<4>(&cipher);
        assert_lane_count::<8>(&cipher);
    }

    #[test]
    fn keystream_blocks_match_apply_keystream_at_every_offset() {
        // Lane lists that fill, straddle and underfill the passes, over
        // nonces whose runs of blocks start at any index (the last one next
        // to the counter's wrap), out of order, repeated and interleaved.
        let cipher = BlockCipher::new(rfc_key());
        let inner = &cipher.inner;
        let mut rng = crate::Xoshiro256::new(0x1A4E5);
        let mut out = Vec::new();
        for count in [0usize, 1, 2, 3, 5, 7, 8, 9, 16, 17, 40] {
            let lanes: Vec<(Nonce, u32)> = (0..count)
                .map(|_| {
                    let nonce = Nonce::new(rng.next_below(3), rng.next_below(3) as u32);
                    let block = match rng.next_below(4) {
                        0 => u32::MAX - rng.next_below(2) as u32,
                        _ => rng.next_below(12) as u32,
                    };
                    (nonce, block)
                })
                .collect();
            let expected: Vec<[u32; BLOCK_WORDS]> = lanes
                .iter()
                .map(|&(nonce, block)| {
                    let mut bytes = [0u8; BLOCK_BYTES];
                    inner.apply_keystream(block, nonce.to_bytes(), &mut bytes);
                    std::array::from_fn(|w| {
                        u32::from_le_bytes(std::array::from_fn(|b| bytes[4 * w + b]))
                    })
                })
                .collect();
            let mut run = |fill: &dyn Fn(&mut Vec<[u32; BLOCK_WORDS]>), what: &str| {
                out.clear();
                fill(&mut out);
                assert_eq!(out, expected, "{what} count={count} lanes={lanes:?}");
            };
            run(&|o| cipher.keystream_blocks(&lanes, o), "LANES");
            run(&|o| inner.keystream_blocks::<1>(&lanes, o), "N=1");
            run(&|o| inner.keystream_blocks::<2>(&lanes, o), "N=2");
            run(&|o| inner.keystream_blocks::<4>(&lanes, o), "N=4");
            run(&|o| inner.keystream_blocks::<8>(&lanes, o), "N=8");
        }
        // A whole image's blocks in order are the image's keystream.
        let nonce = Nonce::new(0x9E37_79B9_7F4A_7C15, 21);
        let lanes: Vec<_> = (0..5).map(|b| (nonce, b)).collect();
        cipher.keystream_blocks(&lanes, &mut out);
        let mut image = [0u8; 5 * BLOCK_BYTES];
        cipher.encrypt_in_place(nonce, &mut image);
        let words = image
            .chunks_exact(4)
            .map(|w| u32::from_le_bytes(w.try_into().unwrap()));
        assert!(words.eq(out.iter().flatten().copied()));
    }

    #[test]
    fn apply_keystream_matches_block_by_block_reference() {
        let cipher = StreamCipher::new(rfc_key());
        let nonce = [5; 12];
        for len in [0usize, 1, 63, 64, 65, 320, 324, 511, 512, 513, 1100] {
            for counter in START_COUNTERS {
                let plain: Vec<u8> = (0..len).map(|i| (i * 7) as u8).collect();
                let mut expected = plain.clone();
                for (i, chunk) in expected.chunks_mut(64).enumerate() {
                    let block = cipher.keystream_block(counter.wrapping_add(i as u32), nonce);
                    for (byte, k) in chunk.iter_mut().zip(block) {
                        *byte ^= k;
                    }
                }
                let run = |xor: &dyn Fn(&mut [u8]), what: &str| {
                    let mut data = plain.clone();
                    xor(&mut data);
                    assert_eq!(data, expected, "{what} len={len} counter={counter}");
                };
                run(&|d| cipher.apply_keystream(counter, nonce, d), "LANES");
                run(&|d| cipher.xor_keystream::<1>(counter, nonce, d), "N=1");
                run(&|d| cipher.xor_keystream::<2>(counter, nonce, d), "N=2");
                run(&|d| cipher.xor_keystream::<4>(counter, nonce, d), "N=4");
                run(&|d| cipher.xor_keystream::<8>(counter, nonce, d), "N=8");
            }
        }
    }

    #[test]
    fn roundtrip_all_lengths() {
        let cipher = BlockCipher::new([3u8; 32]);
        for len in [0usize, 1, 63, 64, 65, 128, 256, 1000] {
            let plain: Vec<u8> = (0..len).map(|i| (i * 7) as u8).collect();
            let nonce = Nonce::new(len as u64, 5);
            let ct = cipher.encrypt(nonce, &plain);
            assert_eq!(cipher.decrypt(nonce, &ct), plain, "len={len}");
        }
    }

    #[test]
    fn distinct_nonces_give_distinct_ciphertexts() {
        let cipher = BlockCipher::new([9u8; 32]);
        let plain = vec![0u8; 64];
        let a = cipher.encrypt(Nonce::new(1, 1), &plain);
        let b = cipher.encrypt(Nonce::new(2, 1), &plain);
        let c = cipher.encrypt(Nonce::new(1, 2), &plain);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn distinct_keys_give_distinct_keystreams() {
        let a = StreamCipher::new([0u8; 32]).keystream_block(0, [0u8; 12]);
        let b = StreamCipher::new([1u8; 32]).keystream_block(0, [0u8; 12]);
        assert_ne!(a, b);
    }

    #[test]
    fn in_place_matches_allocating() {
        let cipher = BlockCipher::new([5u8; 32]);
        let plain: Vec<u8> = (0..200).map(|i| i as u8).collect();
        let nonce = Nonce::new(77, 3);
        let ct = cipher.encrypt(nonce, &plain);
        let mut in_place = plain.clone();
        cipher.encrypt_in_place(nonce, &mut in_place);
        assert_eq!(ct, in_place);
    }

    #[test]
    fn keystream_looks_balanced() {
        // Sanity statistical check: bit balance of 64 KiB of keystream.
        let cipher = StreamCipher::new([0xAB; 32]);
        let mut ones = 0u64;
        for ctr in 0..1024u32 {
            let block = cipher.keystream_block(ctr, [1u8; 12]);
            ones += block.iter().map(|b| b.count_ones() as u64).sum::<u64>();
        }
        let total_bits = 1024 * 64 * 8;
        let frac = ones as f64 / total_bits as f64;
        assert!((frac - 0.5).abs() < 0.01, "bit fraction {frac}");
    }

    #[test]
    fn debug_redacts_key() {
        let c = StreamCipher::new([0x42; 32]);
        let s = format!("{c:?}");
        assert!(s.contains("redacted"));
        assert!(!s.contains("66")); // 0x42 as decimal must not appear as key bytes
    }
}
