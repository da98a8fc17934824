//! A crate for `scripts/loc.sh` to count, never built: each case the
//! counter must get right. Its expected counts are `../../../expected.txt`.

pub mod queue;
pub mod tree;
