//! Compiled only under test: `queue.rs` declares it `#[cfg(test)]`, so
//! none of its lines count.

pub(crate) struct Reference {
    pub(crate) items: Vec<u64>,
}
