//! A test-only impl block ahead of more code: the code after it counts.

/// The tree.
pub struct Tree;

#[cfg(test)]
impl Tree {
    /// A test hook; its `{` is a char.
    pub(crate) fn hook(&self) -> char {
        '{'
    }
}

/// Counts: it follows the test-only impl.
pub fn collect_into(out: &mut Vec<u64>) {
    out.push(1);
}
