//! CLI driver: `scot-lint check [--root <dir>]`.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> &'static str {
    "usage: scot-lint check [--root <dir>]\n\
     \n\
     Enforces the repo's concurrency-protocol invariants that no compiler lint can:\n\
     \x20 L2 ordering-audit       Relaxed on protection state, and compiler_fence, carry // ORDERING:\n\
     \x20 L3 slot-discipline      hazard slots are named HP_* constants\n\
     \x20 L4 matrix-completeness  SmrKind/DsKind arrays and doc tables enumerate every variant\n\
     \x20 L5 guard-discipline     guards are #[must_use]; guard bodies never re-derive domain or slot\n\
     (the SAFETY audit, raw derefs, raw block memory, leaked guards and wildcard\n\
     dispatch arms are clippy's: `cargo clippy --all-targets -- -D warnings`)\n\
     \n\
     Exit codes: 0 clean, 1 findings, 2 usage/IO error."
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(cmd) = args.next() else {
        eprintln!("{}", usage());
        return ExitCode::from(2);
    };
    if cmd != "check" {
        eprintln!("scot-lint: unknown command {cmd:?}\n\n{}", usage());
        return ExitCode::from(2);
    }
    let mut root: Option<PathBuf> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("scot-lint: --root needs a directory\n\n{}", usage());
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("scot-lint: unknown flag {other:?}\n\n{}", usage());
                return ExitCode::from(2);
            }
        }
    }
    // Default root: the workspace this binary was built from, so
    // `cargo run -p scot-lint -- check` works from any cwd inside it.
    let root = root.unwrap_or_else(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .canonicalize()
            .unwrap_or_else(|_| PathBuf::from("."))
    });

    match scot_lint::check(&root) {
        Err(e) => {
            eprintln!("scot-lint: {e}");
            ExitCode::from(2)
        }
        Ok(report) => {
            for f in &report.findings {
                println!("{f}\n");
            }
            if report.is_clean() {
                println!(
                    "scot-lint: clean — {} files scanned, {} rules, 0 findings",
                    report.files_scanned,
                    scot_lint::Rule::ALL.len()
                );
                ExitCode::SUCCESS
            } else {
                println!(
                    "scot-lint: {} finding(s) across {} files",
                    report.findings.len(),
                    report.files_scanned
                );
                ExitCode::FAILURE
            }
        }
    }
}
