//! `scot-lint` — a protocol-invariant static analyzer for the SCOT/SMR
//! stack.
//!
//! The reclamation protocol this repository implements (validate before
//! deref, publish protections before use, one slot-map table, closed
//! scheme×structure matrices) is exactly the kind of invariant Rust's type
//! system cannot see: a missing `// ORDERING:` argument, a hazard index that
//! bypasses the slot map, or a dispatch `match` that silently forgot the
//! newest scheme all compile cleanly and fail only under churn.  This crate
//! walks the workspace sources with a hand-rolled scanner (no parser
//! dependencies — it must build in the vendored-offline environment) and
//! enforces five named rules:
//!
//! | rule | name | invariant |
//! |------|------|-----------|
//! | `L2` | `ordering-audit` | every `Ordering::Relaxed` on protection-publication state, and every `compiler_fence`, carries an `// ORDERING:` justification |
//! | `L3` | `slot-discipline` | hazard-slot indices are the named `HP_*` constants, never raw integers, outside `scot::slots` |
//! | `L4` | `matrix-completeness` | `SmrKind`/`DsKind` dispatch matches, test matrices and doc tables enumerate the full variant set |
//! | `L5` | `guard-discipline` | no `mem::forget`/`ManuallyDrop` on guards outside `faults.rs`; guard types and `fn pin` are `#[must_use]`; `smr` guard bodies never re-derive domain or slot (`.clone()` or `Arc::as_ptr` of the domain `Arc`, `.domain()`, `.slots[`) |
//! | `L6` | `raw-deref` | `crates/scot` reads nodes through the cursor's (or the tree seek record's) protection constructors: no `Shared::deref`/`deref_guarded`/`as_ref`, `Link` load/cas/`as_atomic` or `protect_link` outside them; `crates/smr` has no `UnsafeCell` outside the retire record's accessors, and no raw block-memory call (`alloc`, `dealloc`, `ptr::read`/`write`, `drop_in_place`, `Box::from_raw`) outside the block pointer's methods |
//!
//! There is no `L1`: the `// SAFETY:` / `# Safety` audit of every `unsafe`
//! site is clippy's `undocumented_unsafe_blocks` and `missing_safety_doc`,
//! denied in `crates/smr` and `crates/scot`.  The ids `L2`–`L6` stay as they
//! are, because `LINT-ALLOW` comments cite them.
//!
//! Violations can be grandfathered in a committed `lint.allow` file (one
//! `RULE path[:line]` entry per line) or suppressed at the site with a
//! `LINT-ALLOW: <rule>` comment; both are meant to be empty-or-justified,
//! and *stale* allowlist entries are themselves findings so the file can
//! only shrink.

#![forbid(unsafe_code)]

pub mod rules;
pub mod scan;

use rules::DocFile;
use scan::SourceFile;
use std::fmt;
use std::path::{Path, PathBuf};

/// Rule identifiers; `Display` renders the `L<n>` id used in diagnostics,
/// allowlist entries and `LINT-ALLOW` comments.
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
    /// raw-deref.
    L6,
}

impl Rule {
    /// All rules, in id order.
    pub const ALL: [Rule; 5] = [Rule::L2, Rule::L3, Rule::L4, Rule::L5, Rule::L6];

    /// The short id (`L2`).
    pub fn id(&self) -> &'static str {
        match self {
            Rule::L2 => "L2",
            Rule::L3 => "L3",
            Rule::L4 => "L4",
            Rule::L5 => "L5",
            Rule::L6 => "L6",
        }
    }

    /// The human name (`ordering-audit`).
    pub fn name(&self) -> &'static str {
        match self {
            Rule::L2 => "ordering-audit",
            Rule::L3 => "slot-discipline",
            Rule::L4 => "matrix-completeness",
            Rule::L5 => "guard-discipline",
            Rule::L6 => "raw-deref",
        }
    }

    /// Parses `L2`..`L6` (or the rule name).
    pub fn parse(s: &str) -> Option<Rule> {
        Rule::ALL
            .into_iter()
            .find(|r| r.id().eq_ignore_ascii_case(s) || r.name() == s)
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
    /// Findings that survived the allowlist, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Allowlist entries that matched nothing (stale — these fail the run
    /// too, so `lint.allow` can only shrink).
    pub stale_allows: Vec<String>,
    /// Number of Rust files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Whether the run is clean.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty() && self.stale_allows.is_empty()
    }
}

/// One parsed `lint.allow` entry: `RULE path[:line]` (anything after `#` is
/// a comment).
#[derive(Debug, PartialEq)]
struct AllowEntry {
    rule: Rule,
    file: String,
    line: Option<usize>,
    raw: String,
}

fn parse_allowlist(text: &str) -> Result<Vec<AllowEntry>, String> {
    let mut out = Vec::new();
    for (ix, line) in text.lines().enumerate() {
        let stripped = line.split('#').next().unwrap_or("").trim();
        if stripped.is_empty() {
            continue;
        }
        let mut parts = stripped.split_whitespace();
        let (rule, target) = match (parts.next(), parts.next(), parts.next()) {
            (Some(r), Some(t), None) => (r, t),
            _ => {
                return Err(format!(
                    "lint.allow:{}: expected `RULE path[:line]`, got {stripped:?}",
                    ix + 1
                ))
            }
        };
        let rule = Rule::parse(rule)
            .ok_or_else(|| format!("lint.allow:{}: unknown rule {rule:?}", ix + 1))?;
        let (file, line_no) = match target.rsplit_once(':') {
            Some((f, n)) if n.bytes().all(|b| b.is_ascii_digit()) && !n.is_empty() => {
                (f.to_string(), Some(n.parse::<usize>().unwrap()))
            }
            _ => (target.to_string(), None),
        };
        out.push(AllowEntry {
            rule,
            file,
            line: line_no,
            raw: stripped.to_string(),
        });
    }
    Ok(out)
}

/// Runs every rule over the workspace rooted at `root`.
pub fn check(root: &Path) -> Result<Report, String> {
    let files = load_sources(root)?;
    let docs = load_docs(root)?;

    let mut findings = Vec::new();
    findings.extend(rules::l2_ordering_audit(&files));
    findings.extend(rules::l3_slot_discipline(&files));
    findings.extend(rules::l4_matrix_completeness(&files, &docs));
    findings.extend(rules::l5_guard_discipline(&files));
    findings.extend(rules::l6_raw_deref(&files));

    // Site-level suppression: `LINT-ALLOW: L<n>` in a comment on the line or
    // directly above it.
    findings.retain(|f| {
        if f.line == 0 {
            return true;
        }
        let Some(src) = files.iter().find(|s| s.rel == f.file) else {
            return true;
        };
        src.marker_above(f.line - 1, &[&format!("LINT-ALLOW: {}", f.rule.id())])
            .is_none()
    });

    // Allowlist.
    let allow_path = root.join("lint.allow");
    let allows = match std::fs::read_to_string(&allow_path) {
        Ok(text) => parse_allowlist(&text)?,
        Err(_) => Vec::new(),
    };
    let mut used = vec![false; allows.len()];
    findings.retain(|f| {
        for (ix, a) in allows.iter().enumerate() {
            if a.rule == f.rule && a.file == f.file && a.line.is_none_or(|l| l == f.line) {
                used[ix] = true;
                return false;
            }
        }
        true
    });
    let stale_allows = allows
        .iter()
        .zip(&used)
        .filter(|(_, &u)| !u)
        .map(|(a, _)| a.raw.clone())
        .collect();

    findings.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.message).cmp(&(&b.file, b.line, b.rule, &b.message))
    });
    Ok(Report {
        findings,
        stale_allows,
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

fn load_docs(root: &Path) -> Result<Vec<DocFile>, String> {
    let mut docs = Vec::new();
    for rel in ["README.md", "DESIGN.md"] {
        let p = root.join(rel);
        if let Ok(text) = std::fs::read_to_string(&p) {
            docs.push(DocFile {
                rel: rel.to_string(),
                lines: text.lines().map(str::to_string).collect(),
            });
        }
    }
    Ok(docs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allowlist_parses_and_rejects() {
        let entries =
            parse_allowlist("# comment\nL2 crates/smr/src/hp.rs:10\nL4 README.md  # table\n")
                .unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].rule, Rule::L2);
        assert_eq!(entries[0].line, Some(10));
        assert_eq!(entries[1].line, None);
        assert!(parse_allowlist("L9 foo.rs").is_err());
        assert!(parse_allowlist("L2").is_err());
        assert!(
            parse_allowlist("L1 crates/smr/src/hp.rs").is_err(),
            "L1 is clippy's now"
        );
    }

    #[test]
    fn rule_ids_round_trip() {
        for r in Rule::ALL {
            assert_eq!(Rule::parse(r.id()), Some(r));
            assert_eq!(Rule::parse(r.name()), Some(r));
        }
    }
}
