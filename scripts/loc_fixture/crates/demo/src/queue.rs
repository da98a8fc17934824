//! A `#[cfg(test)] mod` declaration at column 0 ahead of the code: the
//! code after it counts, and the file it declares does not.

#[cfg(test)]
mod reference;

/// Entries a queue holds at most.
pub const CAPACITY: usize = 4;

/// The queue.
pub struct Queue {
    items: Vec<u64>,
    /// Pushes so far, for the tests.
    #[cfg(test)]
    pushes: u64,
}

impl Queue {
    /// Appends `item`.
    pub fn push(&mut self, item: u64) {
        self.items.push(item);
        #[cfg(test)]
        {
            self.pushes += 1;
        }
    }

    /// The items, for the tests.
    #[cfg(test)]
    pub(crate) fn items(
        &self,
    ) -> &[u64] {
        &self.items
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn braces_in_literals_do_not_end_the_module() {
        let open = "{ not a block";
        let close = '}';
        let raw = r#"}"} }"#;
        assert_eq!(format!("{open}{close}{raw}"), "{ not a block}}\"} }");
        let s = "a string over
two lines } with a brace";
        assert!(!s.is_empty() && CAPACITY > 0);
    }
}
