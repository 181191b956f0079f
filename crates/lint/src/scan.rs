//! A line-oriented Rust source scanner: no parse tree, just a faithful split
//! of every line into *code* (comments stripped, string/char contents
//! blanked) and *comment text* (everything the compiler ignores, which is
//! where `// SAFETY:` / `// ORDERING:` justifications live).
//!
//! The scanner understands exactly as much Rust lexing as the rules need and
//! no more: line comments, nested block comments, doc comments, string /
//! raw-string / byte-string / char literals (so `"unsafe"` in a string never
//! looks like code), and the lifetime-vs-char-literal ambiguity around `'`.
//! Everything else passes through as code.

/// One scanned source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Path relative to the lint root, with `/` separators.
    pub rel: String,
    /// The raw line text (used only for extracting string-literal contents,
    /// e.g. display names in `name()` match arms).
    pub raw: Vec<String>,
    /// Line text with comments removed and string/char contents blanked.
    pub code: Vec<String>,
    /// Comment text per line (line + block + doc comments, concatenated).
    pub comment: Vec<String>,
    /// `true` for every line inside a `#[cfg(test)] mod … { … }` region.
    pub test_lines: Vec<bool>,
}

#[derive(Clone, Copy, PartialEq)]
enum State {
    Normal,
    LineComment,
    BlockComment(u32),
    Str,
    RawStr(u32),
    Char,
}

impl SourceFile {
    /// Scans `src` into per-line code/comment channels.
    pub fn scan(rel: String, src: &str) -> SourceFile {
        let mut code_lines = Vec::new();
        let mut comment_lines = Vec::new();
        let mut raw_lines = Vec::new();
        let mut state = State::Normal;

        for line in src.lines() {
            raw_lines.push(line.to_string());
            let mut code = String::with_capacity(line.len());
            let mut comment = String::new();
            let chars: Vec<char> = line.chars().collect();
            let mut i = 0usize;
            if state == State::LineComment {
                state = State::Normal; // line comments never span lines
            }
            while i < chars.len() {
                let c = chars[i];
                let next = chars.get(i + 1).copied();
                match state {
                    State::Normal => match c {
                        '/' if next == Some('/') => {
                            state = State::LineComment;
                            comment.push_str(&line[byte_ix(line, i)..]);
                            break;
                        }
                        '/' if next == Some('*') => {
                            state = State::BlockComment(1);
                            i += 2;
                        }
                        '"' => {
                            code.push('"');
                            state = State::Str;
                            i += 1;
                        }
                        'r' | 'b' if is_raw_or_byte_start(&chars, i) => {
                            let (consumed, new_state) = enter_raw_or_byte(&chars, i);
                            for _ in 0..consumed {
                                code.push(' ');
                            }
                            // Keep the opening quote visible so argument
                            // splitting still sees a token boundary.
                            state = new_state;
                            i += consumed;
                        }
                        '\'' => {
                            // Char literal iff it closes within a couple of
                            // chars ('x' or '\n'); otherwise a lifetime.
                            if next == Some('\\') {
                                code.push('\'');
                                state = State::Char;
                                i += 1;
                            } else if chars.get(i + 2) == Some(&'\'') && next != Some('\'') {
                                code.push_str("' '");
                                i += 3;
                            } else {
                                code.push('\'');
                                i += 1;
                            }
                        }
                        _ => {
                            code.push(c);
                            i += 1;
                        }
                    },
                    State::LineComment => unreachable!("broken out of the loop above"),
                    State::BlockComment(depth) => {
                        if c == '*' && next == Some('/') {
                            if depth == 1 {
                                state = State::Normal;
                            } else {
                                state = State::BlockComment(depth - 1);
                            }
                            i += 2;
                        } else if c == '/' && next == Some('*') {
                            state = State::BlockComment(depth + 1);
                            i += 2;
                        } else {
                            comment.push(c);
                            i += 1;
                        }
                    }
                    State::Str => match c {
                        '\\' => {
                            code.push(' ');
                            if next.is_some() {
                                code.push(' ');
                                i += 2;
                            } else {
                                i += 1; // escaped newline: string continues
                            }
                        }
                        '"' => {
                            code.push('"');
                            state = State::Normal;
                            i += 1;
                        }
                        _ => {
                            code.push(' ');
                            i += 1;
                        }
                    },
                    State::RawStr(hashes) => {
                        if c == '"' && closes_raw(&chars, i, hashes) {
                            code.push('"');
                            for _ in 0..hashes {
                                code.push(' ');
                            }
                            state = State::Normal;
                            i += 1 + hashes as usize;
                        } else {
                            code.push(' ');
                            i += 1;
                        }
                    }
                    State::Char => match c {
                        '\\' => {
                            code.push(' ');
                            if next.is_some() {
                                code.push(' ');
                                i += 2;
                            } else {
                                i += 1;
                            }
                        }
                        '\'' => {
                            code.push('\'');
                            state = State::Normal;
                            i += 1;
                        }
                        _ => {
                            code.push(' ');
                            i += 1;
                        }
                    },
                }
            }
            code_lines.push(code);
            comment_lines.push(comment);
        }

        let test_lines = mark_test_regions(&code_lines);
        SourceFile {
            rel,
            raw: raw_lines,
            code: code_lines,
            comment: comment_lines,
            test_lines,
        }
    }

    /// Whether line `i` (0-based) carries a `marker` comment — on the line
    /// itself, or in the contiguous comment/attribute block directly above.
    /// Attribute lines (`#[…]`) may sit between the marker and the code, so
    /// `// ORDERING:` above `#[inline] fn …` is accepted.
    pub fn marker_above(&self, i: usize, marker: &str) -> bool {
        if self.comment[i].contains(marker) {
            return true;
        }
        let mut j = i;
        while j > 0 {
            j -= 1;
            let code = self.code[j].trim();
            let comment = self.comment[j].trim();
            if code.is_empty() && !comment.is_empty() {
                if comment.contains(marker) {
                    return true;
                }
                continue; // keep walking up the comment block
            }
            if comment.is_empty() && (code.starts_with("#[") || code.starts_with("#![")) {
                continue; // attributes between comment and item
            }
            break; // any other code (or a blank line) ends the block
        }
        false
    }
}

/// Splits a code line into Rust identifiers (ASCII is all this repo uses).
pub fn idents_of(code: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let bytes = code.as_bytes();
    let mut start = None;
    for (ix, &b) in bytes.iter().enumerate() {
        let is_ident = b == b'_' || b.is_ascii_alphanumeric();
        match (start, is_ident) {
            (None, true) => start = Some(ix),
            (Some(s), false) => {
                if !bytes[s].is_ascii_digit() {
                    out.push(&code[s..ix]);
                }
                start = None;
            }
            _ => {}
        }
    }
    if let Some(s) = start {
        if !bytes[s].is_ascii_digit() {
            out.push(&code[s..]);
        }
    }
    out
}

/// Whether `needle` occurs in `hay` as a whole word (no identifier chars on
/// either side).
pub fn word_in(hay: &str, needle: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = hay[from..].find(needle) {
        let at = from + pos;
        let before_ok = at == 0
            || !hay.as_bytes()[at - 1].is_ascii_alphanumeric() && hay.as_bytes()[at - 1] != b'_';
        let end = at + needle.len();
        let after_ok = end == hay.len()
            || !hay.as_bytes()[end].is_ascii_alphanumeric() && hay.as_bytes()[end] != b'_';
        if before_ok && after_ok {
            return true;
        }
        from = at + 1;
    }
    false
}

fn byte_ix(line: &str, char_ix: usize) -> usize {
    line.char_indices()
        .nth(char_ix)
        .map(|(b, _)| b)
        .unwrap_or(line.len())
}

fn is_raw_or_byte_start(chars: &[char], i: usize) -> bool {
    // Only at an identifier boundary: `br#"` yes, `attr"` no.
    if i > 0 {
        let p = chars[i - 1];
        if p == '_' || p.is_ascii_alphanumeric() {
            return false;
        }
    }
    let rest = &chars[i..];
    match rest {
        ['b', '\'', ..] => true,
        ['b', '"', ..] => true,
        ['b', 'r', t @ ..] | ['r', t @ ..] => {
            let mut k = 0;
            while t.get(k) == Some(&'#') {
                k += 1;
            }
            t.get(k) == Some(&'"')
        }
        _ => false,
    }
}

fn enter_raw_or_byte(chars: &[char], i: usize) -> (usize, State) {
    let rest = &chars[i..];
    if rest.starts_with(&['b', '\'']) {
        return (2, State::Char);
    }
    if rest.starts_with(&['b', '"']) {
        return (2, State::Str);
    }
    let (mut k, _byte) = if rest.starts_with(&['b', 'r']) {
        (2, true)
    } else {
        (1, false)
    };
    let mut hashes = 0u32;
    while rest.get(k) == Some(&'#') {
        hashes += 1;
        k += 1;
    }
    debug_assert_eq!(rest.get(k), Some(&'"'));
    (k + 1, State::RawStr(hashes))
}

fn closes_raw(chars: &[char], i: usize, hashes: u32) -> bool {
    (1..=hashes as usize).all(|k| chars.get(i + k) == Some(&'#'))
}

/// Marks every line inside a `#[cfg(test)]`-gated `mod` block.  Scheme files
/// keep their unit tests inline; rules that audit *production* discipline
/// (L5's `mem::forget` ban) skip these regions, because leaking a guard on
/// purpose is exactly what fault/stall tests do.
fn mark_test_regions(code: &[String]) -> Vec<bool> {
    let mut test = vec![false; code.len()];
    let mut i = 0;
    while i < code.len() {
        if code[i].contains("#[cfg(test)]") {
            // Find the `mod … {` this attribute gates (within a few lines).
            let mut j = i;
            let mut found = None;
            while j < code.len().min(i + 4) {
                if word_in(&code[j], "mod") {
                    found = Some(j);
                    break;
                }
                j += 1;
            }
            if let Some(start) = found {
                let mut depth = 0i32;
                let mut opened = false;
                let mut k = start;
                while k < code.len() {
                    for b in code[k].bytes() {
                        match b {
                            b'{' => {
                                depth += 1;
                                opened = true;
                            }
                            b'}' => depth -= 1,
                            _ => {}
                        }
                    }
                    test[k] = true;
                    if opened && depth <= 0 {
                        break;
                    }
                    k += 1;
                }
                i = k + 1;
                continue;
            }
        }
        i += 1;
    }
    test
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_are_stripped() {
        let f = SourceFile::scan(
            "t.rs".into(),
            "let x = \"unsafe // not code\"; // SAFETY: trailing\nunsafe { y() }",
        );
        assert!(!f.code[0].contains("unsafe"));
        assert!(f.comment[0].contains("SAFETY:"));
        assert!(word_in(&f.code[1], "unsafe"));
    }

    #[test]
    fn nested_block_comments() {
        let f = SourceFile::scan("t.rs".into(), "/* a /* b */ still comment */ code()");
        assert!(f.code[0].contains("code()"));
        assert!(!f.code[0].contains("still"));
        assert!(f.comment[0].contains("still comment"));
    }

    #[test]
    fn raw_strings_hide_contents() {
        let f = SourceFile::scan("t.rs".into(), r##"let s = r#"unsafe " quote"# ; f()"##);
        assert!(!f.code[0].contains("unsafe"));
        assert!(f.code[0].contains("f()"));
    }

    #[test]
    fn char_literals_vs_lifetimes() {
        let f = SourceFile::scan("t.rs".into(), "fn f<'a>(x: &'a str) { let c = '{'; }");
        // The brace inside the char literal must not look like code.
        let opens = f.code[0].bytes().filter(|&b| b == b'{').count();
        let closes = f.code[0].bytes().filter(|&b| b == b'}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn marker_above_walks_comments_and_attrs() {
        let f = SourceFile::scan(
            "t.rs".into(),
            "// SAFETY: fine\n#[inline]\nunsafe fn g() {}\n\nunsafe fn h() {}",
        );
        assert!(f.marker_above(2, "SAFETY:"));
        assert!(!f.marker_above(4, "SAFETY:"));
    }

    #[test]
    fn test_regions_are_marked() {
        let f = SourceFile::scan(
            "t.rs".into(),
            "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() {}\n}\nfn c() {}",
        );
        assert!(!f.test_lines[0]);
        assert!(f.test_lines[2] && f.test_lines[3] && f.test_lines[4]);
        assert!(!f.test_lines[5]);
    }
}
