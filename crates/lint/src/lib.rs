//! fp-lint: in-repo static analysis for the Fork Path workspace.
//!
//! Most of the workspace's invariants are held by construction — a
//! type, a single declaration, rustc, or clippy under `-D warnings`
//! (DESIGN.md §12 has the table). Two cannot be said that way:
//! supervised-thread crates must never panic on a poisoned mutex, and the
//! hot per-access loops must stay allocation- and lock-free. `fp-lint`
//! walks the workspace sources with a comment/string-stripping lexer (no
//! rustc dependency, std only), applies those rules, and emits a
//! deterministic report — human text or validated JSON
//! (`results/LINT.json`) — exiting nonzero on any unallowed finding.
//! `scripts/tier1.sh` runs it before the test suite.
//!
//! Suppressions are explicit and audited: inline pragmas (see
//! [`pragma`]) must carry a reason and must suppress something.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lexer;
pub mod pragma;
pub mod report;
pub mod rules;
pub mod workspace;

pub use lexer::SourceFile;
pub use report::{Finding, Report};
pub use rules::{lint_file, RULES};
