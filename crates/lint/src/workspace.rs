//! Deterministic workspace traversal and the whole-run driver.
//!
//! The walk order is sorted-lexicographic so the report (and therefore
//! `results/LINT.json`) is byte-identical across machines and runs.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::lexer::SourceFile;
use crate::report::Report;
use crate::rules;

/// Directories (relative to the workspace root) searched for Rust
/// sources. `target/` and everything else is ignored.
const ROOTS: [&str; 4] = ["crates", "src", "tests", "examples"];

/// All `.rs` files under the lint roots, as repo-relative forward-slash
/// paths, sorted.
///
/// # Errors
///
/// Propagates directory-read failures (other than a lint root simply
/// not existing, which is skipped).
pub fn rust_sources(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    for sub in ROOTS {
        let dir = root.join(sub);
        if dir.is_dir() {
            collect(&dir, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

/// Recursively gathers `.rs` files, skipping any `target` directory.
fn collect(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// A path relative to `root`, with forward slashes, for stable report
/// output.
fn rel(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Lints the whole workspace under `root`: every rule on every source.
/// The returned report is sorted and final.
///
/// # Errors
///
/// Propagates I/O failures reading sources.
pub fn lint_workspace(root: &Path) -> io::Result<Report> {
    let sources = rust_sources(root)?;
    let mut findings = Vec::new();
    for path in &sources {
        let raw = fs::read_to_string(path)?;
        findings.extend(rules::lint_file(&SourceFile::parse(&rel(root, path), &raw)));
    }
    let mut report = Report {
        findings,
        files_scanned: sources.len(),
    };
    report.sort();
    Ok(report)
}
