//! The scope-aware analysis layer on top of [`crate::lexer`].
//!
//! A [`SourceFile`] carries everything a rule needs:
//!
//! * the stripped text (comments and literal interiors blanked, byte
//!   positions preserved) for substring searches that cannot
//!   false-positive inside strings;
//! * per-line *test context*, resolved from real item structure:
//!   `#[cfg(test)]` **and** `cfg(all(test, …))`/`cfg(any(test, …))`
//!   attributes, `#[test]`/`#[bench]` functions, un-attributed
//!   `mod tests { … }` modules, and whole files under `tests/`,
//!   `benches/` or `examples/` — the three shapes the old line-oriented
//!   heuristic missed;
//! * `fn` item boundaries with body byte-ranges (rule 8's guard
//!   liveness is "binding → end of enclosing block", which needs real
//!   scopes, and rule 10 needs to know which `match` sits in which
//!   function).
//!
//! Rules record what they find with [`SourceFile::violation`]; nothing
//! silences a finding.

use crate::lexer::{self, Token, TokenKind};
use crate::Violation;
use std::path::PathBuf;

/// A `fn` item found by the scope walker.
#[derive(Debug)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Whether the function is test context (its own attributes or any
    /// enclosing scope).
    pub is_test: bool,
    /// Byte range of the body in the (stripped) text, spanning the
    /// opening `{` to one past the closing `}`. `None` for bodyless
    /// declarations (trait methods).
    pub body: Option<(usize, usize)>,
}

/// A parsed, scope-resolved source file.
pub struct SourceFile {
    /// Path relative to the checked root.
    pub rel: PathBuf,
    /// `rel` with `/` separators, for scope matching.
    pub unix: String,
    /// The original text.
    pub src: String,
    /// Comment/literal-blanked text, byte-for-byte aligned with `src`.
    pub stripped: String,
    /// The full token tiling of `src`.
    pub tokens: Vec<Token>,
    /// Byte offset of each line start (index 0 = line 1).
    line_starts: Vec<usize>,
    /// `test_lines[n]` = line `n + 1` is test context.
    test_lines: Vec<bool>,
    /// Whole file is test context (under `tests/`/`benches/`/`examples/`).
    pub file_is_test: bool,
    /// Every `fn` item, in source order.
    pub fns: Vec<FnItem>,
}

impl SourceFile {
    /// Lex and scope-resolve one file.
    pub fn parse(rel: PathBuf, src: String) -> SourceFile {
        let unix = rel
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let tokens = lexer::lex(&src);
        let stripped = lexer::stripped(&src, &tokens);
        let line_count = src.lines().count().max(1);
        let mut line_starts = vec![0usize];
        for (i, b) in src.bytes().enumerate() {
            if b == b'\n' {
                line_starts.push(i + 1);
            }
        }
        let file_is_test = {
            let with_slash = format!("/{unix}");
            ["/tests/", "/benches/", "/examples/"]
                .iter()
                .any(|d| with_slash.contains(d))
        };

        let mut f = SourceFile {
            rel,
            unix,
            src,
            stripped,
            tokens,
            line_starts,
            test_lines: vec![false; line_count],
            file_is_test,
            fns: Vec::new(),
        };
        let sig: Vec<usize> = f
            .tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| {
                !matches!(
                    t.kind,
                    TokenKind::Whitespace | TokenKind::LineComment | TokenKind::BlockComment
                )
            })
            .map(|(i, _)| i)
            .collect();
        let mut cur = 0usize;
        walk(&mut f, &sig, &mut cur, false);
        f
    }

    /// 1-based line containing byte offset `pos`.
    pub fn line_of(&self, pos: usize) -> usize {
        match self.line_starts.binary_search(&pos) {
            Ok(i) => i + 1,
            Err(i) => i,
        }
    }

    /// Is 1-based `line` test context?
    pub fn is_test_line(&self, line: usize) -> bool {
        self.file_is_test || self.test_lines.get(line.wrapping_sub(1)).copied().unwrap_or(false)
    }

    /// 1-based lines of non-test stripped code containing `token`.
    pub fn token_lines(&self, token: &str) -> Vec<usize> {
        self.stripped
            .lines()
            .enumerate()
            .filter(|(idx, line)| !self.is_test_line(idx + 1) && line.contains(token))
            .map(|(idx, _)| idx + 1)
            .collect()
    }

    /// A `rule` violation at 1-based `line` of this file.
    pub fn violation(&self, rule: &'static str, line: usize, message: String) -> Violation {
        Violation {
            rule,
            file: self.rel.clone(),
            line,
            message,
        }
    }

    fn mark_test(&mut self, from_line: usize, to_line: usize) {
        for l in from_line..=to_line.min(self.test_lines.len()) {
            if l >= 1 {
                self.test_lines[l - 1] = true;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Scope walking
// ---------------------------------------------------------------------------

/// Walk significant tokens from `*cur` until the matching `Close` of
/// the group we are inside (which is consumed), recording `fn` items
/// and test-context spans. Returns the token index of the consumed
/// `Close`, if one ended the walk.
fn walk(f: &mut SourceFile, sig: &[usize], cur: &mut usize, in_test: bool) -> Option<usize> {
    // A pending test-marking attribute waiting for its item, plus the
    // line the attribute block started on (for span marking).
    let mut pending_test = false;
    let mut pending_line: Option<usize> = None;
    while *cur < sig.len() {
        let ti = sig[*cur];
        let tok = f.tokens[ti];
        let text = tok.text(&f.src);
        match tok.kind {
            TokenKind::Close => {
                *cur += 1;
                return Some(ti);
            }
            TokenKind::Open => {
                *cur += 1;
                walk(f, sig, cur, in_test);
                // An attribute cannot apply across a sibling group at
                // item level except `pub(crate)` etc.; keep pending.
            }
            TokenKind::Punct if text == "#" => {
                *cur += 1;
                let inner = peek_text(f, sig, *cur) == Some("!");
                if inner {
                    *cur += 1;
                }
                if peek_kind(f, sig, *cur) == Some(TokenKind::Open)
                    && peek_text(f, sig, *cur) == Some("[")
                {
                    let attr_line = tok.line;
                    let group = collect_group(f, sig, cur);
                    if !inner && attr_is_test(&group) {
                        pending_test = true;
                        pending_line.get_or_insert(attr_line);
                    }
                }
            }
            TokenKind::Ident if text == "fn" => {
                let kw_line = tok.line;
                let item_test = in_test || pending_test;
                let start_line = pending_line.take().unwrap_or(kw_line);
                pending_test = false;
                *cur += 1;
                let name = match peek_kind(f, sig, *cur) {
                    Some(TokenKind::Ident) => {
                        let n = peek_text(f, sig, *cur).unwrap_or("").to_string();
                        *cur += 1;
                        n
                    }
                    _ => String::new(),
                };
                // Scan the signature: groups are skipped; the body is
                // the first `{` at this level, `;` means no body.
                let mut body = None;
                let mut end_line = kw_line;
                while *cur < sig.len() {
                    let si = sig[*cur];
                    let st = f.tokens[si];
                    let stext = st.text(&f.src);
                    match st.kind {
                        TokenKind::Open if stext == "{" => {
                            *cur += 1;
                            let close = walk(f, sig, cur, item_test);
                            let end = close.map_or(f.src.len(), |c| f.tokens[c].end);
                            end_line = close.map_or(st.line, |c| f.tokens[c].line);
                            body = Some((st.start, end));
                            break;
                        }
                        TokenKind::Open => {
                            *cur += 1;
                            walk(f, sig, cur, item_test);
                        }
                        TokenKind::Punct if stext == ";" => {
                            end_line = st.line;
                            *cur += 1;
                            break;
                        }
                        TokenKind::Close => {
                            end_line = st.line;
                            break; // malformed; leave for the caller
                        }
                        _ => *cur += 1,
                    }
                }
                if item_test {
                    f.mark_test(start_line, end_line);
                }
                f.fns.push(FnItem {
                    name,
                    line: kw_line,
                    is_test: item_test,
                    body,
                });
            }
            TokenKind::Ident if text == "mod" => {
                let kw_line = tok.line;
                *cur += 1;
                let name = peek_text(f, sig, *cur).unwrap_or("");
                let name_is_tests = matches!(name, "tests" | "test");
                if peek_kind(f, sig, *cur) == Some(TokenKind::Ident) {
                    *cur += 1;
                }
                let item_test = in_test || pending_test || name_is_tests;
                let start_line = pending_line.take().unwrap_or(kw_line);
                pending_test = false;
                match (peek_kind(f, sig, *cur), peek_text(f, sig, *cur)) {
                    (Some(TokenKind::Open), Some("{")) => {
                        *cur += 1;
                        let close = walk(f, sig, cur, item_test);
                        let end_line = close.map_or(kw_line, |c| f.tokens[c].line);
                        if item_test {
                            f.mark_test(start_line, end_line);
                        }
                    }
                    _ => {
                        // `mod name;` — out-of-line; the file itself is
                        // resolved on its own.
                        if item_test {
                            f.mark_test(start_line, kw_line);
                        }
                    }
                }
            }
            // Modifier keywords between an attribute and its item.
            TokenKind::Ident
                if matches!(
                    text,
                    "pub" | "unsafe" | "async" | "const" | "extern" | "default" | "crate"
                ) =>
            {
                *cur += 1;
            }
            TokenKind::Str if pending_test => {
                // `extern "C"` between attribute and fn.
                *cur += 1;
            }
            _ => {
                if pending_test {
                    // A gated non-fn/mod item (struct, use, impl, static,
                    // macro invocation…): mark through its `;` or body.
                    let start_line = pending_line.take().unwrap_or(tok.line);
                    pending_test = false;
                    let mut end_line = tok.line;
                    while *cur < sig.len() {
                        let si = sig[*cur];
                        let st = f.tokens[si];
                        let stext = st.text(&f.src);
                        match st.kind {
                            TokenKind::Open if stext == "{" => {
                                *cur += 1;
                                let close = walk(f, sig, cur, true);
                                end_line = close.map_or(st.line, |c| f.tokens[c].line);
                                break;
                            }
                            TokenKind::Open => {
                                *cur += 1;
                                walk(f, sig, cur, true);
                            }
                            TokenKind::Punct if stext == ";" => {
                                end_line = st.line;
                                *cur += 1;
                                break;
                            }
                            TokenKind::Close => {
                                end_line = st.line;
                                break; // enclosing close: not ours
                            }
                            _ => {
                                end_line = st.line;
                                *cur += 1;
                            }
                        }
                    }
                    f.mark_test(start_line, end_line);
                } else {
                    *cur += 1;
                }
            }
        }
    }
    None
}

fn peek_kind(f: &SourceFile, sig: &[usize], cur: usize) -> Option<TokenKind> {
    sig.get(cur).map(|&i| f.tokens[i].kind)
}

fn peek_text<'a>(f: &'a SourceFile, sig: &[usize], cur: usize) -> Option<&'a str> {
    sig.get(cur).map(|&i| f.tokens[i].text(&f.src))
}

/// With `*cur` at an `Open`, consume the balanced group and return the
/// significant-token texts inside it (delimiters included).
fn collect_group(f: &SourceFile, sig: &[usize], cur: &mut usize) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    while *cur < sig.len() {
        let t = f.tokens[sig[*cur]];
        let text = t.text(&f.src);
        out.push(text.to_string());
        *cur += 1;
        match t.kind {
            TokenKind::Open => depth += 1,
            TokenKind::Close => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    break;
                }
            }
            _ => {}
        }
    }
    out
}

/// Does this attribute (as collected token texts, `[` … `]`) mark its
/// item as test context?
///
/// * `#[test]`, `#[bench]`, and harness attributes whose path mentions
///   a bare `test` ident (`tokio::test`-style);
/// * `#[cfg(…)]` / `#[cfg_attr(…, …)]` whose predicate contains the
///   `test` ident outside any `not(…)` group — so `cfg(all(test, x))`
///   and `cfg(any(test, x))` count, while `cfg(not(test))` does not.
fn attr_is_test(group: &[String]) -> bool {
    // group[0] is "["; the first ident is the attribute path head.
    let idents: Vec<&str> = group.iter().map(|s| s.as_str()).collect();
    let Some(head) = idents
        .iter()
        .find(|t| t.chars().next().is_some_and(|c| c.is_alphabetic() || c == '_'))
    else {
        return false;
    };
    if *head == "cfg" || *head == "cfg_attr" {
        return predicate_has_test(&idents);
    }
    idents.iter().any(|t| *t == "test" || *t == "bench")
}

/// Scan a cfg predicate token list for a bare `test` ident outside any
/// `not(…)` subtree.
fn predicate_has_test(toks: &[&str]) -> bool {
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i] == "not" && toks.get(i + 1) == Some(&"(") {
            // Skip the balanced not(…) group.
            let mut depth = 0usize;
            i += 1;
            while i < toks.len() {
                match toks[i] {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                i += 1;
            }
        } else if toks[i] == "test" {
            return true;
        }
        i += 1;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> SourceFile {
        SourceFile::parse(PathBuf::from("crates/x/src/lib.rs"), src.to_string())
    }

    #[test]
    fn cfg_test_mod_is_test_context() {
        let f = parse("fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() {}\n}\nfn c() {}\n");
        assert!(!f.is_test_line(1));
        assert!(f.is_test_line(2));
        assert!(f.is_test_line(4));
        assert!(f.is_test_line(5));
        assert!(!f.is_test_line(6));
    }

    #[test]
    fn cfg_all_test_is_test_context() {
        let f = parse("#[cfg(all(test, feature = \"x\"))]\nmod harness {\n    fn h() {}\n}\n");
        assert!(f.is_test_line(1));
        assert!(f.is_test_line(3));
    }

    #[test]
    fn cfg_any_test_is_test_context() {
        let f = parse("#[cfg(any(test, doc))]\nfn helper() {\n    body();\n}\n");
        assert!(f.is_test_line(3));
    }

    #[test]
    fn cfg_not_test_is_not_test_context() {
        let f = parse("#[cfg(not(test))]\nfn runtime_only() {\n    body();\n}\n");
        assert!(!f.is_test_line(3), "cfg(not(test)) is runtime code");
    }

    #[test]
    fn bare_mod_tests_is_test_context() {
        let f = parse("mod tests {\n    fn t() {}\n}\nfn real() {}\n");
        assert!(f.is_test_line(2));
        assert!(!f.is_test_line(4));
    }

    #[test]
    fn test_attribute_fn_is_test_context() {
        let f = parse("#[test]\nfn t() {\n    body();\n}\nfn real() {}\n");
        assert!(f.is_test_line(3));
        assert!(!f.is_test_line(5));
        let t = f.fns.iter().find(|i| i.name == "t").unwrap();
        assert!(t.is_test);
        assert!(!f.fns.iter().find(|i| i.name == "real").unwrap().is_test);
    }

    #[test]
    fn cfg_test_gated_use_and_impl_are_test_context() {
        let f = parse(
            "#[cfg(test)]\nuse std::collections::HashMap;\n#[cfg(test)]\nimpl Foo {\n    fn m(&self) {}\n}\nfn live() {}\n",
        );
        assert!(f.is_test_line(2));
        assert!(f.is_test_line(5));
        assert!(!f.is_test_line(7));
    }

    #[test]
    fn files_under_tests_dir_are_all_test_context() {
        let f = SourceFile::parse(
            PathBuf::from("crates/proxy/tests/e2e.rs"),
            "fn helper() { x.unwrap(); }\n".to_string(),
        );
        assert!(f.file_is_test);
        assert!(f.is_test_line(1));
    }

    #[test]
    fn fn_items_carry_bodies_and_modifiers_keep_attrs() {
        let f = parse("#[cfg(test)]\npub(crate) async fn gated() { body(); }\nfn plain() {}\n");
        let g = f.fns.iter().find(|i| i.name == "gated").unwrap();
        assert!(g.is_test);
        assert!(g.body.is_some());
        assert!(f.is_test_line(2));
        assert!(!f.is_test_line(3));
        let (lo, hi) = g.body.unwrap();
        assert_eq!(&f.src[lo..lo + 1], "{");
        assert_eq!(&f.src[hi - 1..hi], "}");
    }

    #[test]
    fn token_lines_skip_test_context() {
        let f = parse(
            "fn live() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn t() { y.unwrap(); }\n}\n",
        );
        assert_eq!(f.token_lines(".unwrap()"), vec![1]);
    }
}
