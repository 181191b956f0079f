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
        // A dispatch `match` that forgot SmrKind::He.
        (Rule::L4, "crates/harness/src/workload.rs", 29),
        // Raw dereferences outside a protection constructor: `deref()`, a
        // `Link` load in an unsafe block, `deref_guarded(`.  The
        // LINT-ALLOW'd constructor, the safe `Atomic` load and the test
        // module must NOT appear.
        (Rule::L6, "crates/scot/src/deref_bad.rs", 6),
        (Rule::L6, "crates/scot/src/deref_bad.rs", 11),
        (Rule::L6, "crates/scot/src/deref_bad.rs", 16),
        // A guard struct without #[must_use].
        (Rule::L5, "crates/scot/src/guard_bad.rs", 4),
        // A bare `fn pin` outside a trait impl.
        (Rule::L5, "crates/scot/src/guard_bad.rs", 14),
        // mem::forget outside faults.rs (non-test region).
        (Rule::L5, "crates/scot/src/guard_bad.rs", 20),
        // ManuallyDrop in the body; the signature-line twin (line 23) is
        // suppressed by the fixture's lint.allow.
        (Rule::L5, "crates/scot/src/guard_bad.rs", 24),
        // Raw slot indices: protect arg 1, dup args 1 and 2.
        (Rule::L3, "crates/scot/src/traverse_bad.rs", 5),
        (Rule::L3, "crates/scot/src/traverse_bad.rs", 9),
        (Rule::L3, "crates/scot/src/traverse_bad.rs", 9),
        // The L3-clean `protect_link` twin is still a raw link access.
        (Rule::L6, "crates/scot/src/traverse_bad.rs", 15),
        // An `UnsafeCell` in smr outside the retire record's accessors; the
        // LINT-ALLOW'd twin and the test module must NOT appear.
        (Rule::L6, "crates/smr/src/cell_bad.rs", 5),
        // A struct named exactly `Guard` without #[must_use], and a
        // read-side impl that re-indexes the slot array; their twins (a
        // `#[must_use]` `Guard`, a struct with a guard bound, a read-side
        // impl that uses its resolved slot) must NOT appear.
        (Rule::L5, "crates/smr/src/guard_shell.rs", 5),
        (Rule::L5, "crates/smr/src/guard_shell.rs", 23),
        // SmrKind::ALL forgot Ibr (whole-axis finding, anchored line 1).
        (Rule::L4, "crates/smr/src/lib.rs", 1),
        // Relaxed on protection state; the ORDERING-justified twin is
        // covered and must NOT appear.
        (Rule::L2, "crates/smr/src/ordering_bad.rs", 6),
        // Relaxed on HP's `light` word, and a bare `compiler_fence(`; the
        // ORDERING-justified pair below them must NOT appear.
        (Rule::L2, "crates/smr/src/ordering_bad.rs", 17),
        (Rule::L2, "crates/smr/src/ordering_bad.rs", 18),
        // Raw block memory outside the block pointer's methods: `dealloc`,
        // `ptr::read`, `drop_in_place`, `Box::from_raw`.  The LINT-ALLOW'd
        // twin and the test module must NOT appear.
        (Rule::L6, "crates/smr/src/raw_bad.rs", 6),
        (Rule::L6, "crates/smr/src/raw_bad.rs", 11),
        (Rule::L6, "crates/smr/src/raw_bad.rs", 16),
        (Rule::L6, "crates/smr/src/raw_bad.rs", 21),
    ]
    .into_iter()
    .map(|(r, f, l)| (r, f.to_string(), l))
    .collect();
    assert_eq!(got, want, "full findings: {:#?}", report.findings);

    // The deliberately stale allowlist entry is reported, so the fixture
    // run is NOT clean even though one finding was suppressed.
    assert_eq!(
        report.stale_allows,
        vec!["L3 crates/scot/src/nonexistent.rs:1".to_string()]
    );
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
    assert!(msg(Rule::L4, 29).contains("missing [\"He\"]"));
    assert!(msg(Rule::L4, 1).contains("`SmrKind::ALL` is missing variant(s) [\"Ibr\"]"));
    assert!(msg(Rule::L5, 4).contains("`LeakyGuard`"));
    assert!(msg(Rule::L5, 5).contains("guard type `Guard`"));
    assert!(msg(Rule::L5, 23).contains("re-indexes the slot array"));
    assert!(msg(Rule::L2, 6).contains("ORDERING"));
    assert!(msg(Rule::L2, 17).contains("`Ordering::Relaxed` on protection-publication state"));
    assert!(msg(Rule::L2, 18).contains("`compiler_fence` without"));
    assert!(msg(Rule::L6, 11).contains("raw dereference `.load(`"));
    assert!(msg(Rule::L6, 5).contains("`UnsafeCell` outside the retire record's accessors"));
    let raw: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.file == "crates/smr/src/raw_bad.rs")
        .map(|f| f.message.as_str())
        .collect();
    for (message, call) in raw.iter().zip([
        "alloc::dealloc(",
        "ptr::read(",
        "drop_in_place(",
        "Box::from_raw(",
    ]) {
        assert!(
            message.contains(&format!(
                "raw block memory `{call}` outside the block pointer"
            )),
            "{message}"
        );
    }
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
        rendered.starts_with("error[L4 matrix-completeness]:"),
        "{rendered}"
    );
    assert!(
        rendered.contains("--> crates/harness/src/workload.rs:29"),
        "{rendered}"
    );
}

#[test]
fn the_real_workspace_is_clean() {
    let report = check(&workspace_root()).expect("check runs");
    assert!(
        report.is_clean(),
        "workspace must stay lint-clean; findings: {:#?}, stale: {:?}",
        report.findings,
        report.stale_allows
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
    assert!(stdout.contains("error[L6 raw-deref]:"), "{stdout}");
    assert!(stdout.contains("stale lint.allow entry"), "{stdout}");

    let clean = std::process::Command::new(bin)
        .args(["check", "--root"])
        .arg(workspace_root())
        .output()
        .expect("run scot-lint");
    assert_eq!(clean.status.code(), Some(0));
}
