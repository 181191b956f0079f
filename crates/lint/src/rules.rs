//! The rule catalog.  Each rule is a pure function from scanned sources to
//! findings; `DESIGN.md § Static analysis` documents the invariant behind
//! each one and what a justification comment must say.

use crate::scan::{idents_of, word_in, SourceFile};
use crate::{Finding, Rule};

/// A non-Rust documentation file (README.md / DESIGN.md), checked by L4.
pub struct DocFile {
    /// Path relative to the lint root.
    pub rel: String,
    /// Raw lines.
    pub lines: Vec<String>,
}

fn in_scope(file: &SourceFile, prefixes: &[&str]) -> bool {
    prefixes.iter().any(|p| file.rel.starts_with(p))
}

fn finding(rule: Rule, file: &str, line0: usize, message: String) -> Finding {
    Finding {
        rule,
        file: file.to_string(),
        line: line0 + 1,
        message,
    }
}

// ---------------------------------------------------------------------------
// L2 · ordering-audit
// ---------------------------------------------------------------------------

/// Identifier components that name protection-publication state: hazard
/// slots, era/epoch/checkpoint words, liveness beacons, interval bounds
/// (IBR/HE `lower`/`upper`), recycling version stamps, HP's `light` word
/// (which tells a sweep that the slot's hazards were published without a
/// fence), and the pool free-list links.  A `Ordering::Relaxed` that touches
/// one of these is
/// load-bearing for the reclamation protocol and must say *why* relaxed is
/// enough in an `// ORDERING:` comment.
const PROTECTION_STEMS: &[&str] = &[
    "hazard",
    "hazards",
    "era",
    "eras",
    "epoch",
    "epochs",
    "checkpoint",
    "checkpoints",
    "beacon",
    "beacons",
    "announce",
    "announced",
    "lower",
    "upper",
    "version",
    "versions",
    "head",
    "next",
    "neutralize",
    "neutralized",
    "phase",
    "light",
];

fn touches_protection_word(code: &str) -> bool {
    idents_of(code).iter().any(|id| {
        id.split('_')
            .any(|component| PROTECTION_STEMS.contains(&component.to_ascii_lowercase().as_str()))
    })
}

/// `Ordering::Relaxed` on protection-publication state must carry an
/// `// ORDERING:` justification.  The previous line is inspected too, because
/// rustfmt regularly splits `x.store(v, Ordering::Relaxed)` across lines and
/// the field name lands one line up.  So must every `compiler_fence(`: it is
/// one half of an asymmetric fence, and the comment is where the other half
/// (who runs the hardware barrier, and when) is named.
pub fn l2_ordering_audit(files: &[SourceFile]) -> Vec<Finding> {
    let mut out = Vec::new();
    for f in files {
        if !in_scope(f, &["crates/smr/src/", "crates/scot/src/"]) {
            continue;
        }
        for i in 0..f.code.len() {
            if f.code[i].contains("compiler_fence(") && !f.marker_above(i, "ORDERING:") {
                out.push(finding(
                    Rule::L2,
                    &f.rel,
                    i,
                    "`compiler_fence` without an `// ORDERING:` justification naming the \
                     hardware barrier it pairs with"
                        .to_string(),
                ));
            }
            if !f.code[i].contains("Ordering::Relaxed") {
                continue;
            }
            let mut relevant = touches_protection_word(&f.code[i]);
            if !relevant && i > 0 {
                let prev = f.code[i - 1].trim_end();
                // Only join with the previous line when it is visibly the
                // same statement (does not end one).
                if !prev.ends_with(';') && !prev.ends_with('}') && !prev.ends_with('{') {
                    relevant = touches_protection_word(prev);
                }
            }
            if relevant && !f.marker_above(i, "ORDERING:") {
                out.push(finding(
                    Rule::L2,
                    &f.rel,
                    i,
                    "`Ordering::Relaxed` on protection-publication state without an \
                     `// ORDERING:` justification"
                        .to_string(),
                ));
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// L3 · slot-discipline
// ---------------------------------------------------------------------------

/// Hazard-slot indices passed to `protect` / `dup` must be the named `HP_*`
/// constants from `scot::slots` — a raw integer bypasses the one documented
/// slot-map table and is exactly how two call sites end up silently sharing
/// a slot.  `crates/scot/src/slots.rs` itself (where the
/// constants are defined) is exempt.
pub fn l3_slot_discipline(files: &[SourceFile]) -> Vec<Finding> {
    let mut out = Vec::new();
    for f in files {
        if !f.rel.starts_with("crates/scot/src/") || f.rel.ends_with("/slots.rs") {
            continue;
        }
        for i in 0..f.code.len() {
            let code = &f.code[i];
            for callee in ["protect(", "dup("] {
                let mut from = 0;
                while let Some(pos) = code[from..].find(callee) {
                    let at = from + pos;
                    from = at + callee.len();
                    // Skip declarations (`fn protect(`) and longer names that
                    // merely end with the callee (`reprotect(`).
                    let before = code[..at].trim_end();
                    if before.ends_with("fn") {
                        continue;
                    }
                    if at > 0 {
                        let b = code.as_bytes()[at - 1];
                        if b == b'_' || b.is_ascii_alphanumeric() {
                            continue;
                        }
                    }
                    let args = &code[at + callee.len()..];
                    let n_slot_args = if callee == "dup(" { 2 } else { 1 };
                    for (argi, arg) in args.split(',').take(n_slot_args).enumerate() {
                        let arg = arg.trim().trim_end_matches([')', ';']);
                        if !arg.is_empty() && arg.bytes().all(|b| b.is_ascii_digit()) {
                            out.push(finding(
                                Rule::L3,
                                &f.rel,
                                i,
                                format!(
                                    "raw slot index `{arg}` in `{}` argument {} — use the \
                                     named `HP_*` constants from `scot::slots`",
                                    callee.trim_end_matches('('),
                                    argi + 1,
                                ),
                            ));
                        }
                    }
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// L4 · matrix-completeness
// ---------------------------------------------------------------------------

/// What the lint learned about one `#[derive(...)] enum` that the repo
/// treats as a closed matrix axis (`SmrKind`, `DsKind`).
pub struct EnumInfo {
    /// Enum name (`SmrKind`).
    pub name: String,
    /// File it was parsed from.
    pub file: String,
    /// Variant identifiers, in declaration order.
    pub variants: Vec<String>,
    /// Variants enumerated by the `ALL` const.
    pub all: Vec<String>,
    /// `(variant, display)` pairs from the `name()` match.
    pub display: Vec<(String, String)>,
    /// Variants referenced anywhere in the `parse()` body.
    pub parse_refs: Vec<String>,
}

impl EnumInfo {
    fn display_of(&self, variant: &str) -> Option<&str> {
        self.display
            .iter()
            .find(|(v, _)| v == variant)
            .map(|(_, d)| d.as_str())
    }
}

/// Extracts variant idents, the `ALL` array, and `name()` display strings for
/// `enum_name` from `file`.
pub fn parse_enum(file: &SourceFile, enum_name: &str) -> Option<EnumInfo> {
    let decl = format!("enum {enum_name}");
    let start = (0..file.code.len()).find(|&i| file.code[i].contains(&decl))?;
    let (block, _) = collect_block(file, start, '{', '}')?;
    let mut variants = Vec::new();
    for seg in block.split(',') {
        if let Some(id) = idents_of(seg)
            .into_iter()
            .find(|id| id.chars().next().is_some_and(|c| c.is_ascii_uppercase()))
        {
            variants.push(id.to_string());
        }
    }

    let all_start = (0..file.code.len()).find(|&i| {
        file.code[i].contains("const ALL") && {
            // The const must belong to this enum: its type annotation names it.
            file.code[i].contains(enum_name)
        }
    });
    let all = match all_start {
        Some(i) => {
            // Start after the `=` so the `[SmrKind; 11]` type annotation's
            // brackets are not mistaken for the initializer array.
            let col = file.code[i].find('=').map(|p| p + 1).unwrap_or(0);
            let (block, _) = collect_block_at(file, i, col, '[', ']')?;
            enum_refs(&block, enum_name)
        }
        None => Vec::new(),
    };

    let parse_refs = match (0..file.code.len()).find(|&i| file.code[i].contains("fn parse")) {
        Some(i) => {
            let (block, _) = collect_block(file, i, '{', '}')?;
            enum_refs(&block, enum_name)
        }
        None => Vec::new(),
    };

    let mut display = Vec::new();
    if let Some(i) = (0..file.code.len()).find(|&i| file.code[i].contains("fn name")) {
        if let Some((_, end)) = collect_block(file, i, '{', '}') {
            let needle = format!("{enum_name}::");
            for j in i..=end.min(file.raw.len() - 1) {
                let code = &file.code[j];
                if let Some(p) = code.find(&needle) {
                    let variant: String = code[p + needle.len()..]
                        .chars()
                        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                        .collect();
                    // Pull the display string out of the raw line (the code
                    // channel blanks string contents).
                    let raw = &file.raw[j];
                    if let Some(q) = raw.find("=> \"") {
                        let rest = &raw[q + 4..];
                        if let Some(e) = rest.find('"') {
                            display.push((variant, rest[..e].to_string()));
                        }
                    }
                }
            }
        }
    }

    Some(EnumInfo {
        name: enum_name.to_string(),
        file: file.rel.clone(),
        variants,
        all,
        display,
        parse_refs,
    })
}

/// Concatenates the code channel from the first `open` delimiter at/after
/// `start_line` to its matching `close`, returning the text and the end line.
fn collect_block(
    file: &SourceFile,
    start_line: usize,
    open: char,
    close: char,
) -> Option<(String, usize)> {
    collect_block_at(file, start_line, 0, open, close)
}

/// Like [`collect_block`] but starts looking at byte column `start_col` of
/// the first line.
fn collect_block_at(
    file: &SourceFile,
    start_line: usize,
    start_col: usize,
    open: char,
    close: char,
) -> Option<(String, usize)> {
    let mut depth = 0i32;
    let mut begun = false;
    let mut text = String::new();
    for i in start_line..file.code.len().min(start_line + 600) {
        let line = if i == start_line && start_col <= file.code[i].len() {
            &file.code[i][start_col..]
        } else {
            &file.code[i]
        };
        for c in line.chars() {
            if c == open {
                depth += 1;
                begun = true;
            } else if c == close {
                depth -= 1;
            }
            if begun {
                text.push(c);
            }
            if begun && depth == 0 {
                return Some((text, i));
            }
        }
        text.push('\n');
    }
    None
}

/// All `Enum::Variant` idents referenced in `text`, deduplicated in order.
fn enum_refs(text: &str, enum_name: &str) -> Vec<String> {
    let needle = format!("{enum_name}::");
    let mut out: Vec<String> = Vec::new();
    let mut from = 0;
    while let Some(pos) = text[from..].find(&needle) {
        let at = from + pos + needle.len();
        from = at;
        let id: String = text[at..]
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        if !id.is_empty() && id != "ALL" && !out.contains(&id) {
            out.push(id);
        }
    }
    out
}

/// The matrix-completeness rule.  One canonical variant set per axis enum —
/// `SmrKind` in `crates/smr/src/lib.rs`, `DsKind` in
/// `crates/harness/src/workload.rs` — is cross-checked against:
///
/// * the enum's own `ALL` const and `name()` / `parse()` matches,
/// * every near-complete `[Enum::…]` array literal in the workspace (a
///   hand-enumerated matrix mentioning most-but-not-all variants is presumed
///   to have drifted),
/// * the README compatibility table header and the README/DESIGN.md scheme
///   and structure mentions.
///
/// A `match` needs no check here: `clippy::wildcard_enum_match_arm` is denied
/// in every package that dispatches on an axis, so a `match` names every
/// variant and a new one fails to compile wherever it is missed.
pub fn l4_matrix_completeness(files: &[SourceFile], docs: &[DocFile]) -> Vec<Finding> {
    let mut out = Vec::new();

    let mut axes = Vec::new();
    for (enum_name, path) in [
        ("SmrKind", "crates/smr/src/lib.rs"),
        ("DsKind", "crates/harness/src/workload.rs"),
    ] {
        let Some(file) = files.iter().find(|f| f.rel == path) else {
            out.push(finding(
                Rule::L4,
                path,
                0,
                format!("expected to parse `{enum_name}` here but the file is missing — update the lint's axis table"),
            ));
            continue;
        };
        let Some(info) = parse_enum(file, enum_name) else {
            out.push(finding(
                Rule::L4,
                path,
                0,
                format!("failed to parse `enum {enum_name}` — update the lint's axis table"),
            ));
            continue;
        };
        check_axis_self_consistency(&info, &mut out);
        axes.push(info);
    }

    for info in &axes {
        check_arrays(files, info, &mut out);
        check_docs(docs, info, &mut out);
    }
    out
}

/// `ALL`, `name()` and `parse()` must each cover the full variant set.
fn check_axis_self_consistency(info: &EnumInfo, out: &mut Vec<Finding>) {
    let missing_all: Vec<_> = info
        .variants
        .iter()
        .filter(|v| !info.all.contains(v))
        .cloned()
        .collect();
    if !missing_all.is_empty() {
        out.push(finding(
            Rule::L4,
            &info.file,
            0,
            format!(
                "`{}::ALL` is missing variant(s) {:?}",
                info.name, missing_all
            ),
        ));
    }
    let missing_name: Vec<_> = info
        .variants
        .iter()
        .filter(|v| info.display_of(v).is_none())
        .cloned()
        .collect();
    if !missing_name.is_empty() {
        out.push(finding(
            Rule::L4,
            &info.file,
            0,
            format!(
                "`{}::name()` has no display arm for variant(s) {:?}",
                info.name, missing_name
            ),
        ));
    }
    let missing_parse: Vec<_> = info
        .variants
        .iter()
        .filter(|v| !info.parse_refs.contains(v))
        .cloned()
        .collect();
    if !missing_parse.is_empty() {
        out.push(finding(
            Rule::L4,
            &info.file,
            0,
            format!(
                "`{}::parse()` never produces variant(s) {:?}",
                info.name, missing_parse
            ),
        ));
    }
}

/// Hand-enumerated `[Enum::…]` arrays must list every variant.  Only
/// near-complete ones (missing at most 2 variants) are presumed to be
/// drifted matrices, because partial arrays (the robust/non-robust splits in
/// tests) are legitimate.
fn check_arrays(files: &[SourceFile], info: &EnumInfo, out: &mut Vec<Finding>) {
    let scopes = [
        "crates/smr/src/",
        "crates/scot/src/",
        "crates/harness/src/",
        "tests/",
        "src/",
        "examples/",
    ];
    let threshold = info.variants.len().saturating_sub(2).max(3);
    let variant_path = format!("{}::", info.name);
    let needle = format!("[{variant_path}");
    for f in files {
        if !in_scope(f, &scopes) {
            continue;
        }
        for i in 0..f.code.len() {
            // Only start scanning at an opening bracket that is directly
            // followed by an enum reference, which is what a hand-enumerated
            // matrix looks like.
            let opens_matrix = f.code[i].contains(&needle)
                || (f.code[i].trim_end().ends_with('[')
                    && f.code
                        .get(i + 1)
                        .is_some_and(|l| l.trim_start().starts_with(&variant_path)));
            if !opens_matrix {
                continue;
            }
            let Some((block, _)) = collect_block(f, i, '[', ']') else {
                continue;
            };
            let refs = enum_refs(&block, &info.name);
            if refs.len() < threshold {
                continue;
            }
            let missing: Vec<_> = info
                .variants
                .iter()
                .filter(|v| !refs.contains(v))
                .cloned()
                .collect();
            if !missing.is_empty() {
                out.push(finding(
                    Rule::L4,
                    &f.rel,
                    i,
                    format!(
                        "hand-enumerated array mentions {}/{} `{}` variants but is missing {:?}",
                        refs.len(),
                        info.variants.len(),
                        info.name,
                        missing
                    ),
                ));
            }
        }
    }
}

/// A variant is "documented" if the doc mentions its display name (exact
/// word) or its identifier (case-insensitive word — this is how `listlf`
/// documents `DsKind::ListLf`).
fn doc_mentions(doc: &DocFile, info: &EnumInfo, variant: &str) -> bool {
    let ident_lc = variant.to_ascii_lowercase();
    let display = info.display_of(variant);
    doc.lines.iter().any(|l| {
        let lc = l.to_ascii_lowercase();
        display.is_some_and(|d| word_in(l, d)) || word_in(&lc, &ident_lc)
    })
}

fn check_docs(docs: &[DocFile], info: &EnumInfo, out: &mut Vec<Finding>) {
    for doc in docs {
        for v in &info.variants {
            if !doc_mentions(doc, info, v) {
                out.push(finding(
                    Rule::L4,
                    &doc.rel,
                    0,
                    format!(
                        "{} never mentions `{}::{}` (display name {:?})",
                        doc.rel,
                        info.name,
                        v,
                        info.display_of(v).unwrap_or("?")
                    ),
                ));
            }
        }
        // The README compatibility table must carry every scheme display
        // name in its header row.
        if doc.rel.ends_with("README.md") && info.name == "SmrKind" {
            match doc
                .lines
                .iter()
                .position(|l| l.trim_start().starts_with("| structure |"))
            {
                None => out.push(finding(
                    Rule::L4,
                    &doc.rel,
                    0,
                    "README compatibility table (`| structure | …`) not found".to_string(),
                )),
                Some(ix) => {
                    let header = &doc.lines[ix];
                    let missing: Vec<_> = info
                        .variants
                        .iter()
                        .filter_map(|v| info.display_of(v))
                        .filter(|d| !header.contains(*d))
                        .collect();
                    if !missing.is_empty() {
                        out.push(finding(
                            Rule::L4,
                            &doc.rel,
                            ix,
                            format!("README compatibility table header is missing scheme(s) {missing:?}"),
                        ));
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// L5 · guard-discipline
// ---------------------------------------------------------------------------

/// What a guard `impl` body must not contain, and what to call it.
const REDERIVATIONS: [(&str, &str); 7] = [
    ("domain.clone()", "clones the domain `Arc`"),
    ("Arc::clone(", "clones an `Arc`"),
    ("Arc::as_ptr(", "reads the domain through its `Arc`"),
    (".domain()", "re-derives the domain through the handle"),
    (".slots[", "re-indexes the slot array"),
    (".slots()[", "re-indexes the slot array"),
    (".reservation(", "re-indexes the slot array via the core"),
];

/// Whether `header` opens guard code: an `impl` that names a `…Guard` type
/// or trait, or an impl of the scheme read-side trait (`impl ReadSide for
/// …`), whose associated functions are the one guard's methods.
fn is_guard_impl(header: &str) -> bool {
    word_in(header, "impl")
        && (idents_of(header).iter().any(|id| id.ends_with("Guard"))
            || header.contains("ReadSide for "))
}

/// The name a `struct` line declares, if it declares one.
fn struct_name(code: &str) -> Option<&str> {
    let idents = idents_of(code);
    let at = idents.iter().position(|id| *id == "struct")?;
    idents.get(at + 1).copied()
}

/// The re-derivation half of [`l5_guard_discipline`] for one file.
fn guard_rederivations(f: &SourceFile, out: &mut Vec<Finding>) {
    for (i, header) in f.code.iter().enumerate() {
        if f.test_lines[i] || !is_guard_impl(header) {
            continue;
        }
        let Some((_, end)) = collect_block(f, i, '{', '}') else {
            continue;
        };
        for line in i + 1..=end {
            for (pattern, what) in REDERIVATIONS {
                if f.code[line].contains(pattern) {
                    out.push(finding(
                        Rule::L5,
                        &f.rel,
                        line,
                        format!(
                            "guard body {what} (`{pattern}`) — resolve it once in `pin` and \
                             keep the reference in the guard"
                        ),
                    ));
                }
            }
        }
    }
}

/// Item context for a line: whether it sits inside a `impl Trait for Type`
/// block (where `#[must_use]` on methods is inert and therefore not
/// required), some other item, or at file scope.
#[derive(Clone, Copy, PartialEq, Debug)]
enum ItemCtx {
    TraitImpl,
    Other,
}

/// Computes, per line, the innermost `impl`/`trait` context.
fn item_contexts(file: &SourceFile) -> Vec<ItemCtx> {
    #[derive(Clone, Copy)]
    enum Kind {
        TraitImpl,
        Plain,
    }
    let mut stack: Vec<Kind> = Vec::new();
    let mut pending: Option<Kind> = None;
    let mut ctxs = Vec::with_capacity(file.code.len());
    for code in &file.code {
        // Context of the line = innermost trait-impl marker currently open.
        let ctx = if stack.iter().rev().any(|k| matches!(k, Kind::TraitImpl)) {
            ItemCtx::TraitImpl
        } else {
            ItemCtx::Other
        };
        ctxs.push(ctx);
        if pending.is_none() && (word_in(code, "impl") || word_in(code, "trait")) {
            pending = Some(if word_in(code, "impl") && word_in(code, "for") {
                Kind::TraitImpl
            } else {
                Kind::Plain
            });
        }
        for c in code.chars() {
            match c {
                '{' => stack.push(pending.take().unwrap_or(Kind::Plain)),
                '}' => {
                    stack.pop();
                }
                _ => {}
            }
        }
    }
    ctxs
}

/// Whether the attribute/comment block directly above line `i` (or the line
/// itself) contains `#[must_use…`.
fn has_must_use(file: &SourceFile, i: usize) -> bool {
    let is_attr = |code: &str| code.trim_start().starts_with("#[");
    if file.code[i].contains("#[must_use") {
        return true;
    }
    let mut j = i;
    while j > 0 {
        j -= 1;
        let code = file.code[j].trim();
        let comment = file.comment[j].trim();
        if code.is_empty() && !comment.is_empty() {
            continue;
        }
        if is_attr(code) {
            if code.contains("#[must_use") {
                return true;
            }
            continue;
        }
        break;
    }
    false
}

/// Guard discipline:
///
/// * Every struct whose name ends in `Guard` (`Guard` itself included) and
///   every `fn pin` declaration outside a trait-impl block must be
///   `#[must_use]`, so dropping a freshly pinned guard on the floor — which
///   unpublishes every protection — is always a compiler warning.  A
///   `…Guard` bound on some other struct does not make it a guard.
/// * Inside guard code under `crates/smr/src/` (`impl SmrGuard for …`,
///   `impl Drop for …Guard`, `impl …Guard`, and the scheme read-side impls,
///   `impl ReadSide for …`), nothing re-derives what `pin` already resolved:
///   no `.clone()` or `Arc::as_ptr` of the domain `Arc`, no `.domain()`
///   call, no `.slots[` or `.slots()[` index and no `.reservation(` — the
///   retire core's accessor for the same array.  A guard holds `&Slot` and `&S`
///   from `pin` on; walking handle → `Arc` → slot array again per `protect`
///   is what made Hyaline's enter/leave cost four times EBR's.
///
/// Leaking a guard (`mem::forget`, `ManuallyDrop`) is clippy's to catch:
/// `mem_forget` and a `disallowed-types` entry, outside the fault harness's
/// thread death and the test stalls that `#[expect]` them.
pub fn l5_guard_discipline(files: &[SourceFile]) -> Vec<Finding> {
    let mut out = Vec::new();
    for f in files {
        if in_scope(f, &["crates/smr/src/"]) {
            guard_rederivations(f, &mut out);
        }
        if !in_scope(f, &["crates/smr/src/", "crates/scot/src/"]) {
            continue;
        }
        let ctxs = item_contexts(f);
        for (i, ctx) in ctxs.iter().enumerate() {
            if f.test_lines[i] {
                continue;
            }
            let code = &f.code[i];
            if let Some(name) = struct_name(code).filter(|name| name.ends_with("Guard")) {
                if !has_must_use(f, i) {
                    out.push(finding(
                        Rule::L5,
                        &f.rel,
                        i,
                        format!("guard type `{name}` is not `#[must_use]`"),
                    ));
                }
            }
            if (code.contains("fn pin(") || code.contains("fn pin<"))
                && *ctx != ItemCtx::TraitImpl
                && !has_must_use(f, i)
            {
                out.push(finding(
                    Rule::L5,
                    &f.rel,
                    i,
                    "`fn pin` declaration is not `#[must_use]`".to_string(),
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l5(rel: &str, src: &str) -> Vec<(usize, String)> {
        l5_guard_discipline(&[SourceFile::scan(rel.to_string(), src)])
            .into_iter()
            .map(|f| (f.line, f.message))
            .collect()
    }

    const GUARD_BEFORE: &str = "\
#[must_use]
pub struct XGuard<'g> {
    handle: &'g mut XHandle,
}
impl XGuard<'_> {
    fn slot(&self) -> &XSlot {
        &self.handle.inner.domain().slots[self.handle.inner.slot()]
    }
}
impl Drop for XGuard<'_> {
    fn drop(&mut self) {
        let domain = self.handle.domain.clone();
        domain.acknowledge(self.handle.claim.index);
    }
}
impl SmrGuard for XGuard<'_> {
    fn clear(&mut self, idx: usize) {
        let d = Arc::clone(&self.handle.shared);
        d.slots[self.handle.claim.index].hazards[idx].store(0, Ordering::Release);
    }
}
";

    const GUARD_AFTER: &str = "\
#[must_use]
pub struct XGuard<'g> {
    pinned: Pinned<'g, X>,
    slot: &'g XSlot,
}
impl SmrHandle for XHandle {
    fn pin(&mut self) -> XGuard<'_> {
        let pinned = self.inner.pin();
        XGuard { slot: &pinned.scheme().slots[pinned.slot()], pinned }
    }
}
impl X {
    fn try_register(self: &Arc<Self>) -> XHandle {
        XHandle { domain: self.clone() }
    }
}
impl Drop for XGuard<'_> {
    fn drop(&mut self) {
        self.slot.epoch.store(0, Ordering::Release);
    }
}
impl SmrGuard for XGuard<'_> {
    fn alloc<T>(&mut self, value: T) -> Shared<T> {
        self.pinned.alloc(value.clone())
    }
}
";

    #[test]
    fn l5_flags_every_rederivation_inside_guard_impls() {
        let got = l5("crates/smr/src/x.rs", GUARD_BEFORE);
        let lines: Vec<usize> = got.iter().map(|(l, _)| *l).collect();
        // `.domain()` and `.slots[` on line 7, the domain clone in `Drop`,
        // `Arc::clone` and `.slots[` in the `SmrGuard` impl.
        assert_eq!(lines, [7, 7, 12, 18, 19], "{got:#?}");
        assert!(got[2].1.contains("clones the domain `Arc`"), "{got:#?}");
    }

    #[test]
    fn l5_accepts_guards_that_resolve_in_pin_and_ignores_other_crates() {
        // `pin` may index, `try_register` may clone, and a `.clone()` of
        // something that is not the domain is fine inside a guard.
        assert_eq!(l5("crates/smr/src/x.rs", GUARD_AFTER), []);
        // The rule is about the reclamation back ends only.
        assert_eq!(l5("crates/scot/src/x.rs", GUARD_BEFORE), []);
    }

    #[test]
    fn l5_requires_must_use_on_a_struct_named_guard_but_not_on_a_guard_bound() {
        let src = "\
pub struct Guard<'g, S: ReadSide> {
    slot: &'g S::Slot,
}
pub struct Cursor<'g, G: SmrGuard> {
    guard: &'g mut G,
}
";
        let got = l5("crates/smr/src/limbo.rs", src);
        assert_eq!(got.len(), 1, "{got:#?}");
        assert_eq!(got[0].0, 1, "{got:#?}");
        assert!(got[0].1.contains("guard type `Guard`"), "{got:#?}");
    }

    #[test]
    fn l5_polices_read_side_impls_but_not_the_shared_pin() {
        // A read-side impl is guard code; the shared `pin`, which resolves
        // the slot once, is not — a `ReadSide` bound does not make it one.
        let src = "\
impl ReadSide for X {
    fn protect(g: &mut Guard<'_, Self>, idx: usize) {
        g.scheme().slots()[idx].hazard.store(1, Ordering::Release);
    }
}
impl<S: ReadSide> SmrHandle for Handle<S> {
    fn pin(&mut self) -> Guard<'_, S> {
        let slot = &pinned.scheme.slots()[pinned.slot];
    }
}
";
        let got = l5("crates/smr/src/x.rs", src);
        assert_eq!(got.len(), 1, "{got:#?}");
        assert_eq!(got[0].0, 3, "{got:#?}");
        assert!(got[0].1.contains("re-indexes the slot array"), "{got:#?}");
    }

    #[test]
    fn l5_flags_a_guard_that_brands_itself_through_the_handle_arc() {
        // NR's guard, back when it held `&mut NrHandle` instead of a `Pinned`.
        let src = "\
impl SmrGuard for NrGuard<'_> {
    fn domain_addr(&self) -> usize {
        std::sync::Arc::as_ptr(&self.handle.domain) as usize
    }
}
";
        let got = l5("crates/smr/src/nr.rs", src);
        assert_eq!(got.len(), 1, "{got:#?}");
        assert_eq!(got[0].0, 3, "{got:#?}");
        assert!(got[0].1.contains("through its `Arc`"), "{got:#?}");
    }
}
