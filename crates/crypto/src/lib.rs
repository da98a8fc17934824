//! # fp-crypto
//!
//! Cryptographic substrate for the Fork Path ORAM reproduction.
//!
//! Path ORAM requires *probabilistic encryption*: every block written back to
//! the untrusted ORAM tree must be freshly re-encrypted so that two
//! ciphertexts are indistinguishable even when the underlying plaintexts are
//! identical (dummy blocks included). The paper assumes a counter-mode
//! hardware engine; this crate provides the software equivalent, built from
//! scratch on the ChaCha20 stream cipher:
//!
//! * [`BlockCipher`] — counter-mode encryption of fixed-size ORAM blocks with
//!   a per-write nonce, the property Path ORAM actually relies on, over a
//!   private ChaCha20 keystream generator (RFC 8439).
//! * [`SplitMix64`] / [`Xoshiro256`] — small, fast, seedable RNGs used across
//!   the simulator so every experiment is reproducible from a single seed.
//!
//! The keystream is computed several 64-byte blocks at a time, one block
//! per vector lane, all under one key; each lane has its own block counter
//! and nonce. [`BlockCipher::encrypt_in_place`] fills a pass with
//! consecutive blocks of one nonce, and [`BlockCipher::keystream_blocks`]
//! with a list of `(nonce, block index)` lanes, so the blocks a tree path's
//! images need — the headers and real payloads on a read, and on a write
//! the blocks of the next write counters, computed ahead — share passes.
//! How many lanes is a property of the build, [`BlockCipher::LANES`] —
//! eight where the compilation target has AVX2 (the workspace's
//! `.cargo/config.toml` builds for the host CPU), one otherwise — and every
//! build, and both ways of filling the lanes, produce the same bytes.
//!
//! # Example
//!
//! ```
//! use fp_crypto::{BlockCipher, Nonce};
//!
//! let cipher = BlockCipher::new([7u8; 32]);
//! let plain = vec![0u8; 64];
//! let a = cipher.encrypt(Nonce::new(1, 0), &plain);
//! let b = cipher.encrypt(Nonce::new(2, 0), &plain);
//! assert_ne!(a, b, "probabilistic encryption: same plaintext, fresh nonce");
//! assert_eq!(cipher.decrypt(Nonce::new(1, 0), &a), plain);
//! ```

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]
#![deny(clippy::allow_attributes)]
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
#![warn(missing_docs)]

mod cipher;
mod rng;

pub use cipher::{BlockCipher, Nonce};
pub use rng::{SplitMix64, Xoshiro256};
