//! `scot-lint` — a protocol-invariant static analyzer for the SCOT/SMR
//! stack.
//!
//! The reclamation protocol this repository implements (publish protections
//! before use, one slot-map table, closed scheme×structure matrices, guards
//! that resolve their slot once) includes invariants that neither Rust's type
//! system nor any clippy lint can see: a missing `// ORDERING:` argument, a
//! hazard index that bypasses the slot map, or a scheme list that silently
//! forgot the newest scheme all compile cleanly and fail only under churn.
//! This crate walks the workspace sources with a hand-rolled scanner (no
//! parser dependencies — it must build in the vendored-offline environment)
//! and enforces four named rules:
//!
//! | rule | name | invariant |
//! |------|------|-----------|
//! | `L2` | `ordering-audit` | every `Ordering::Relaxed` on protection-publication state, and every `compiler_fence`, carries an `// ORDERING:` justification |
//! | `L3` | `slot-discipline` | hazard-slot indices are the named `HP_*` constants, never raw integers, outside `scot::slots` |
//! | `L4` | `matrix-completeness` | `SmrKind`/`DsKind` `ALL`/`name()`/`parse()`, hand-enumerated arrays and the README/DESIGN.md tables enumerate the full variant set |
//! | `L5` | `guard-discipline` | guard types and `fn pin` are `#[must_use]`; `smr` guard bodies never re-derive domain or slot (`.clone()` or `Arc::as_ptr` of the domain `Arc`, `.domain()`, `.slots[`, the core's `.reservation(`) |
//!
//! Everything a compiler lint can check is clippy's, configured per crate
//! (`Cargo.toml` `[lints.clippy]` and `clippy.toml`) and denied by the
//! `clippy --all-targets -D warnings` CI job: the `// SAFETY:` / `# Safety`
//! audit (`undocumented_unsafe_blocks`, `missing_safety_doc`), raw
//! dereferences outside the protection constructors and raw block memory
//! outside the block pointer (`disallowed_methods` / `disallowed_types`),
//! leaked guards (`mem_forget`, `ManuallyDrop`) and dispatch `match`es that
//! hide a variant behind `_` (`wildcard_enum_match_arm`).  An exception there
//! is an `#[expect(clippy::…, reason = "…")]` at the site; this crate has no
//! suppression mechanism — its rules are fixed at the site (L2's
//! `// ORDERING:` comment is its own justification).

#![forbid(unsafe_code)]

pub mod rules;
pub mod scan;

use rules::DocFile;
use scan::SourceFile;
use std::fmt;
use std::path::{Path, PathBuf};

/// Rule identifiers; `Display` renders the `L<n>` id used in diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Rule {
    /// ordering-audit.
    L2,
    /// slot-discipline.
    L3,
    /// matrix-completeness.
    L4,
    /// guard-discipline.
    L5,
}

impl Rule {
    /// All rules, in id order.
    pub const ALL: [Rule; 4] = [Rule::L2, Rule::L3, Rule::L4, Rule::L5];

    /// The short id (`L2`).
    pub fn id(&self) -> &'static str {
        match self {
            Rule::L2 => "L2",
            Rule::L3 => "L3",
            Rule::L4 => "L4",
            Rule::L5 => "L5",
        }
    }

    /// The human name (`ordering-audit`).
    pub fn name(&self) -> &'static str {
        match self {
            Rule::L2 => "ordering-audit",
            Rule::L3 => "slot-discipline",
            Rule::L4 => "matrix-completeness",
            Rule::L5 => "guard-discipline",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Which rule fired.
    pub rule: Rule,
    /// Root-relative path with `/` separators.
    pub file: String,
    /// 1-based line number (0 = whole-file finding).
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "error[{} {}]: {}",
            self.rule.id(),
            self.rule.name(),
            self.message
        )?;
        if self.line > 0 {
            write!(f, "  --> {}:{}", self.file, self.line)
        } else {
            write!(f, "  --> {}", self.file)
        }
    }
}

/// The outcome of a `check` run.
pub struct Report {
    /// Every finding, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Number of Rust files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Whether the run is clean.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Runs every rule over the workspace rooted at `root`.
pub fn check(root: &Path) -> Result<Report, String> {
    let files = load_sources(root)?;
    let docs = load_docs(root);

    let mut findings = Vec::new();
    findings.extend(rules::l2_ordering_audit(&files));
    findings.extend(rules::l3_slot_discipline(&files));
    findings.extend(rules::l4_matrix_completeness(&files, &docs));
    findings.extend(rules::l5_guard_discipline(&files));
    findings.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.message).cmp(&(&b.file, b.line, b.rule, &b.message))
    });
    Ok(Report {
        findings,
        files_scanned: files.len(),
    })
}

/// Walks the workspace's own Rust sources: `crates/*/src`, top-level
/// `tests/`, `src/`, `examples/`.  `vendor/`, `target/` and the lint's own
/// test fixtures (which contain violations *on purpose*) are excluded.
fn load_sources(root: &Path) -> Result<Vec<SourceFile>, String> {
    let mut paths: Vec<PathBuf> = Vec::new();
    for top in ["crates", "tests", "src", "examples"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, &mut paths)?;
        }
    }
    paths.sort();
    let mut files = Vec::new();
    for p in paths {
        let rel = p
            .strip_prefix(root)
            .map_err(|e| e.to_string())?
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        if rel.contains("/fixtures/") || rel.starts_with("crates/lint/tests/") {
            continue;
        }
        let text = std::fs::read_to_string(&p).map_err(|e| format!("{}: {e}", p.display()))?;
        files.push(SourceFile::scan(rel, &text));
    }
    Ok(files)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == "vendor" || name.starts_with('.') {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn load_docs(root: &Path) -> Vec<DocFile> {
    ["README.md", "DESIGN.md"]
        .into_iter()
        .filter_map(|rel| {
            let text = std::fs::read_to_string(root.join(rel)).ok()?;
            Some(DocFile {
                rel: rel.to_string(),
                lines: text.lines().map(str::to_string).collect(),
            })
        })
        .collect()
}
