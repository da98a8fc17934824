//! The `fp-lint` binary: lint the workspace, print or write the report,
//! exit nonzero on unallowed findings.
//!
//! ```text
//! fp-lint [--root <dir>] [--format text|json] [--out <path>]
//! ```
//!
//! Defaults: root = current directory, format = text. `--out` writes the
//! report to a file (creating parent directories) in addition to the gate
//! verdict on stderr.

#![forbid(unsafe_code)]

use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

use fp_lint::{workspace, RULES};

/// Parsed command line.
struct Args {
    root: PathBuf,
    format: Format,
    out: Option<PathBuf>,
}

#[derive(PartialEq)]
enum Format {
    Text,
    Json,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: PathBuf::from("."),
        format: Format::Text,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--root" => args.root = PathBuf::from(value("--root")?),
            "--format" => {
                args.format = match value("--format")?.as_str() {
                    "text" => Format::Text,
                    "json" => Format::Json,
                    other => return Err(format!("unknown format `{other}`")),
                }
            }
            "--out" => args.out = Some(PathBuf::from(value("--out")?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fp-lint: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match workspace::lint_workspace(&args.root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("fp-lint: {e}");
            return ExitCode::from(2);
        }
    };
    let rendered = match args.format {
        Format::Text => report.to_text(&RULES),
        Format::Json => {
            let json = report.to_json(&RULES);
            if let Err(e) = fp_stats::json::validate(&json) {
                eprintln!("fp-lint: internal error: emitted invalid JSON: {e}");
                return ExitCode::from(2);
            }
            json
        }
    };
    match &args.out {
        Some(path) => {
            if let Some(parent) = path.parent() {
                if !parent.as_os_str().is_empty() {
                    if let Err(e) = fs::create_dir_all(parent) {
                        eprintln!("fp-lint: creating {}: {e}", parent.display());
                        return ExitCode::from(2);
                    }
                }
            }
            let mut payload = rendered;
            if !payload.ends_with('\n') {
                payload.push('\n');
            }
            if let Err(e) = fs::write(path, payload) {
                eprintln!("fp-lint: writing {}: {e}", path.display());
                return ExitCode::from(2);
            }
        }
        None => println!("{}", rendered.trim_end()),
    }

    let unallowed = report.unallowed().count();
    if report.is_clean() {
        eprintln!(
            "fp-lint: clean ({} files, {} rules)",
            report.files_scanned,
            RULES.len()
        );
        ExitCode::SUCCESS
    } else {
        for f in report.unallowed() {
            if args.out.is_some() || args.format == Format::Json {
                eprintln!("{}:{}: {}: {}", f.path, f.line, f.rule, f.message);
            }
        }
        eprintln!("fp-lint: {unallowed} unallowed finding(s)");
        ExitCode::FAILURE
    }
}
