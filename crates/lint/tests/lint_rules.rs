//! Integration tests for `scot-lint`.
//!
//! Two directions: the seeded fixture tree must produce *exactly* the
//! expected findings (rule id + file + line, nothing more, nothing less),
//! and the real workspace must be clean — the latter is what makes the
//! lint a tier-1 gate rather than an aspiration.

use scot_lint::{check, Rule};
use std::path::{Path, PathBuf};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("violations")
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .canonicalize()
        .expect("workspace root")
}

#[test]
fn fixture_tree_produces_exactly_the_seeded_findings() {
    let report = check(&fixture_root()).expect("check runs");
    let got: Vec<(Rule, String, usize)> = report
        .findings
        .iter()
        .map(|f| (f.rule, f.file.clone(), f.line))
        .collect();
    let want: Vec<(Rule, String, usize)> = [
        // A guard struct without #[must_use].
        (Rule::L5, "crates/scot/src/guard_bad.rs", 4),
        // A bare `fn pin` outside a trait impl.
        (Rule::L5, "crates/scot/src/guard_bad.rs", 14),
        // Raw slot indices: protect arg 1, dup args 1 and 2.
        (Rule::L3, "crates/scot/src/traverse_bad.rs", 5),
        (Rule::L3, "crates/scot/src/traverse_bad.rs", 9),
        (Rule::L3, "crates/scot/src/traverse_bad.rs", 9),
        // A struct named exactly `Guard` without #[must_use], and read-side
        // impls that re-index the slot array, directly and through the
        // retire core's accessor; their twins (a `#[must_use]` `Guard`, a
        // struct with a guard bound, a read-side impl that uses its resolved
        // slot) must NOT appear.
        (Rule::L5, "crates/smr/src/guard_shell.rs", 6),
        (Rule::L5, "crates/smr/src/guard_shell.rs", 24),
        (Rule::L5, "crates/smr/src/guard_shell.rs", 37),
        // SmrKind::ALL forgot Ibr (whole-axis finding, anchored line 1), and
        // a hand-enumerated sweep forgot He.
        (Rule::L4, "crates/smr/src/lib.rs", 1),
        (Rule::L4, "crates/smr/src/lib.rs", 40),
        // Relaxed on protection state; the ORDERING-justified twin is
        // covered and must NOT appear.
        (Rule::L2, "crates/smr/src/ordering_bad.rs", 6),
        // Relaxed on HP's `light` word, and a bare `compiler_fence(`; the
        // ORDERING-justified pair below them must NOT appear.
        (Rule::L2, "crates/smr/src/ordering_bad.rs", 17),
        (Rule::L2, "crates/smr/src/ordering_bad.rs", 18),
    ]
    .into_iter()
    .map(|(r, f, l)| (r, f.to_string(), l))
    .collect();
    assert_eq!(got, want, "full findings: {:#?}", report.findings);
    assert!(!report.is_clean());
}

#[test]
fn fixture_messages_name_the_violation() {
    let report = check(&fixture_root()).expect("check runs");
    let msg = |rule: Rule, line: usize| {
        report
            .findings
            .iter()
            .find(|f| f.rule == rule && f.line == line)
            .map(|f| f.message.clone())
            .unwrap_or_default()
    };
    assert!(msg(Rule::L4, 1).contains("`SmrKind::ALL` is missing variant(s) [\"Ibr\"]"));
    assert!(msg(Rule::L4, 40).contains("mentions 4/5 `SmrKind` variants but is missing [\"He\"]"));
    assert!(msg(Rule::L5, 4).contains("`BareGuard`"));
    assert!(msg(Rule::L5, 6).contains("guard type `Guard`"));
    assert!(msg(Rule::L5, 24).contains("re-indexes the slot array"));
    assert!(msg(Rule::L5, 37).contains("slot array via the core"));
    assert!(msg(Rule::L2, 6).contains("ORDERING"));
    assert!(msg(Rule::L2, 17).contains("`Ordering::Relaxed` on protection-publication state"));
    assert!(msg(Rule::L2, 18).contains("`compiler_fence` without"));
    // Both dup arguments are checked.
    let dup: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.rule == Rule::L3 && f.line == 9)
        .map(|f| f.message.as_str())
        .collect();
    assert!(dup[0].contains("argument 1") && dup[1].contains("argument 2"));
}

#[test]
fn rendered_diagnostics_are_rustc_shaped() {
    let report = check(&fixture_root()).expect("check runs");
    let first = report.findings.first().expect("at least one finding");
    let rendered = first.to_string();
    assert!(
        rendered.starts_with("error[L5 guard-discipline]:"),
        "{rendered}"
    );
    assert!(
        rendered.contains("--> crates/scot/src/guard_bad.rs:4"),
        "{rendered}"
    );
}

#[test]
fn the_real_workspace_is_clean() {
    let report = check(&workspace_root()).expect("check runs");
    assert!(
        report.is_clean(),
        "workspace must stay lint-clean; findings: {:#?}",
        report.findings
    );
    // Sanity: the scan actually covered the workspace, rather than
    // vacuously passing on an empty file set.
    assert!(report.files_scanned > 40, "{} files", report.files_scanned);
}

#[test]
fn cli_exit_codes_separate_clean_from_dirty() {
    let bin = env!("CARGO_BIN_EXE_scot-lint");
    let dirty = std::process::Command::new(bin)
        .args(["check", "--root"])
        .arg(fixture_root())
        .output()
        .expect("run scot-lint");
    assert_eq!(dirty.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&dirty.stdout);
    assert!(stdout.contains("error[L3 slot-discipline]:"), "{stdout}");

    let clean = std::process::Command::new(bin)
        .args(["check", "--root"])
        .arg(workspace_root())
        .output()
        .expect("run scot-lint");
    assert_eq!(clean.status.code(), Some(0));
}
