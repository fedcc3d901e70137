//! Rules 2–10, expressed on the [`crate::engine`].
//!
//! Per-file rules emit through a [`Sink`] (suppression-aware). Rules
//! that need the whole tree — metric uniqueness (5), lock-order
//! inversion (8), wire exhaustiveness (10) — accumulate into
//! [`CrossFile`] during the per-file pass and are judged in [`finish`].

use crate::engine::{Sink, SourceFile};
use crate::Violation;
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

/// Every rule name `// sc-check: allow(…)` may reference.
pub const KNOWN_RULES: [&str; 10] = [
    "deps",
    "panic",
    "determinism",
    "counters",
    "metrics",
    "sans_io",
    "hash_once",
    "locks",
    "alloc",
    "wire",
];

/// Path prefixes (relative, `/`-separated) rule 2 applies to.
const PANIC_SCOPES: [&str; 2] = ["crates/proxy/src", "crates/wire/src"];
/// Path prefixes rule 3 applies to.
const DETERMINISM_SCOPES: [&str; 3] = ["crates/sim/src", "crates/core/src", "crates/bloom/src"];
/// Ambient time / entropy tokens rule 3 forbids.
const DETERMINISM_TOKENS: [&str; 5] = [
    "Instant::now",
    "SystemTime::now",
    "rand::",
    "getrandom",
    "RandomState::new",
];
/// Exact files (relative, `/`-separated) rule 6 applies to: the
/// sans-I/O protocol modules — the machine vocabulary, the router that
/// decides on it, the deterministic simnet built on them, and the
/// scenario generators that feed the simnet its workloads.
const SANS_IO_SCOPES: [&str; 4] = [
    "crates/proxy/src/machine.rs",
    "crates/proxy/src/simnet.rs",
    "crates/proxy/src/router.rs",
    "crates/trace/src/scenario.rs",
];
/// Transport/clock tokens rule 6 forbids in those files.
const SANS_IO_TOKENS: [&str; 3] = ["std::net", "Instant::now", "thread::sleep"];
/// Exact files rule 7 applies to: the probe path, where every digest
/// must come through a `UrlKey` or `HashSpec`, plus the request-path
/// entry files listed in [`HASH_ONCE_ENTRY_SCOPES`].
const HASH_ONCE_SCOPES: [&str; 5] = [
    "crates/core/src/probe.rs",
    "crates/bloom/src/filter.rs",
    "crates/bloom/src/counting.rs",
    "crates/proxy/src/daemon.rs",
    "crates/proxy/src/router.rs",
];
/// Direct digest calls rule 7 forbids in those files. (`md5(` does not
/// match `md5_repeated(`, hence both tokens.)
const HASH_ONCE_TOKENS: [&str; 2] = ["md5(", "md5_repeated("];
/// Request-path files where rule 7 additionally hunts *re-keying*: the
/// daemon digests a client URL exactly once at request entry and
/// threads the resulting `UrlKey` through stripes, events, and the
/// router. Any other `UrlKey::new(` here digests a URL some caller
/// already keyed. The sanctioned entry digests (request entry, ICP
/// query answering, eviction victims) carry
/// `// sc-check: allow(hash_once)`.
const HASH_ONCE_ENTRY_SCOPES: [&str; 2] =
    ["crates/proxy/src/daemon.rs", "crates/proxy/src/router.rs"];
/// The re-keying token rule 7 hunts in those files.
const HASH_ONCE_ENTRY_TOKEN: &str = "UrlKey::new(";
/// Path prefix rule 8 (lock discipline) applies to.
const LOCKS_SCOPE: &str = "crates/proxy/src";
/// Calls that may block (or sleep) — forbidden while a `MutexGuard` is
/// live. Dot-prefixed so `try_send(`/`try_recv(` do not match.
const BLOCKING_TOKENS: [&str; 14] = [
    "thread::sleep",
    ".send(",
    ".send_to(",
    ".recv(",
    ".recv_timeout(",
    ".recv_deadline(",
    ".recv_from(",
    ".write(",
    ".write_all(",
    ".read(",
    ".read_exact(",
    ".flush(",
    ".accept(",
    ".connect(",
];
/// Exact files rule 9 (zero-alloc hot path) applies to: the per-probe
/// request path, which the sub-µs ROADMAP item needs allocation-free.
const ALLOC_SCOPES: [&str; 7] = [
    "crates/core/src/probe.rs",
    "crates/bloom/src/filter.rs",
    "crates/bloom/src/counting.rs",
    "crates/bloom/src/key.rs",
    "crates/bloom/src/hashing.rs",
    "crates/proxy/src/replica.rs",
    "crates/proxy/src/scratch.rs",
];
/// Allocation/formatting tokens rule 9 forbids there. `Arc::clone(&x)`
/// is the sanctioned way to bump a refcount without matching
/// `.clone()`; setup/COW sites use `// sc-check: allow(alloc)`.
const ALLOC_TOKENS: [&str; 6] = [
    "Vec::new(",
    "vec![",
    ".to_string()",
    "format!(",
    "Box::new(",
    ".clone()",
];
/// The wire definition file rule 10 (exhaustiveness) applies to.
const WIRE_FILE: &str = "crates/wire/src/icp.rs";
/// Registration call tokens for rule 5: a metric is born where one of
/// these methods is applied to a name literal. Snapshot *reads* use
/// `counter_value` / `gauge_value` / `histogram_value` and never match.
const METRIC_METHODS: [&str; 6] = [
    "counter",
    "counter_with",
    "gauge",
    "gauge_with",
    "histogram",
    "histogram_with",
];

/// State accumulated across files for the whole-tree rules.
#[derive(Default)]
pub struct CrossFile {
    /// Rule 5: metric name → registration sites.
    pub metric_sites: BTreeMap<String, Vec<(PathBuf, usize)>>,
    /// Rule 8: recorded nested lock acquisitions (held → taken).
    pub lock_edges: Vec<LockEdge>,
    /// Rule 10: `ICP_OP_*` constants and their encode/decode coverage.
    pub wire_consts: Vec<WireConst>,
    /// Rule 10: constants named anywhere in test context.
    pub wire_test_mentions: BTreeSet<String>,
}

/// One observed lock order: `second` acquired while `first` was held.
pub struct LockEdge {
    /// Normalized id of the lock already held.
    pub first: String,
    /// Normalized id of the lock acquired under it.
    pub second: String,
    /// File of the nested acquisition.
    pub file: PathBuf,
    /// Line of the nested acquisition.
    pub line: usize,
}

/// One `ICP_OP_*` constant and where rule 10 found it used.
pub struct WireConst {
    /// The constant's name.
    pub name: String,
    /// File declaring it.
    pub file: PathBuf,
    /// Declaration line.
    pub line: usize,
    /// Seen inside a `match` in an encode-side fn.
    pub encoded: bool,
    /// Seen inside a `match` in a decode-side fn.
    pub decoded: bool,
}

/// Run every per-file rule over `f`, appending violations to `out` and
/// whole-tree state to `cross`.
pub fn check_file(f: &SourceFile, out: &mut Vec<Violation>, cross: &mut CrossFile) {
    let mut sink = Sink::new(f, out);
    let unix = f.unix.as_str();

    if PANIC_SCOPES.iter().any(|s| unix.starts_with(s)) {
        for token in [".unwrap()", ".expect("] {
            for line in f.token_lines(token) {
                sink.emit(
                    "panic",
                    line,
                    format!(
                        "`{token}` in a runtime path; propagate a Result (a bad datagram must not kill the daemon)"
                    ),
                );
            }
        }
    }
    if DETERMINISM_SCOPES.iter().any(|s| unix.starts_with(s)) {
        for token in DETERMINISM_TOKENS {
            for line in f.token_lines(token) {
                sink.emit(
                    "determinism",
                    line,
                    format!(
                        "`{token}` introduces ambient nondeterminism; drive time/entropy from the trace or a seeded Rng"
                    ),
                );
            }
        }
    }
    if SANS_IO_SCOPES.contains(&unix) {
        for token in SANS_IO_TOKENS {
            for line in f.token_lines(token) {
                sink.emit(
                    "sans_io",
                    line,
                    format!(
                        "`{token}` in a sans-I/O protocol module; sockets, wall clocks and sleeps belong to the daemon shell or the simnet scheduler"
                    ),
                );
            }
        }
    }
    if HASH_ONCE_SCOPES.contains(&unix) {
        for token in HASH_ONCE_TOKENS {
            for line in f.token_lines(token) {
                sink.emit(
                    "hash_once",
                    line,
                    format!(
                        "direct `{token}…)` on the probe path; digests are computed once at UrlKey construction or inside HashSpec — probe via the key/indices APIs"
                    ),
                );
            }
        }
    }
    if HASH_ONCE_ENTRY_SCOPES.contains(&unix) {
        for line in f.token_lines(HASH_ONCE_ENTRY_TOKEN) {
            sink.emit(
                "hash_once",
                line,
                format!(
                    "`{HASH_ONCE_ENTRY_TOKEN}…)` downstream of request entry re-digests a URL the request already keyed; thread the entry `UrlKey` through, or mark a sanctioned entry digest with `// sc-check: allow(hash_once)`"
                ),
            );
        }
    }
    if unix.ends_with("bloom/src/counting.rs") {
        check_counters(f, &mut sink);
    }
    if ALLOC_SCOPES.contains(&unix) {
        for token in ALLOC_TOKENS {
            for line in bounded_token_lines(f, token) {
                sink.emit(
                    "alloc",
                    line,
                    format!(
                        "`{token}…` allocates on the probe hot path; preallocate/reuse a buffer (or `Arc::clone`), or mark a setup/COW site with `// sc-check: allow(alloc)`"
                    ),
                );
            }
        }
    }
    if unix.starts_with(LOCKS_SCOPE) && !f.file_is_test {
        check_locks(f, &mut sink, &mut cross.lock_edges);
    }
    for (name, line) in metric_registrations(f) {
        cross
            .metric_sites
            .entry(name)
            .or_default()
            .push((f.rel.clone(), line));
    }
    if unix == WIRE_FILE {
        collect_wire_consts(f, cross);
    }
    collect_wire_mentions(f, cross);
}

/// Judge the whole-tree rules once every file has been scanned.
pub fn finish(files: &[SourceFile], cross: &CrossFile, out: &mut Vec<Violation>) {
    let by_rel: BTreeMap<&std::path::Path, &SourceFile> =
        files.iter().map(|f| (f.rel.as_path(), f)).collect();
    let mut emit = |rule: &'static str, file: &PathBuf, line: usize, message: String| {
        if let Some(f) = by_rel.get(file.as_path()) {
            if f.suppressed(rule, line) {
                return;
            }
        }
        out.push(Violation {
            rule,
            file: file.clone(),
            line,
            message,
        });
    };

    // Rule 5: every duplicated metric name, flagged at each site.
    for (name, at) in &cross.metric_sites {
        if at.len() < 2 {
            continue;
        }
        for (file, line) in at {
            emit(
                "metrics",
                file,
                *line,
                format!(
                    "metric `{name}` is registered at {} sites; register once and share the handle (the registry get-or-creates by name)",
                    at.len()
                ),
            );
        }
    }

    // Rule 8: lock-order inversions — any pair of edges A→B and B→A,
    // flagged at both acquisition sites.
    let mut seen: BTreeSet<(PathBuf, usize, String)> = BTreeSet::new();
    for (i, e1) in cross.lock_edges.iter().enumerate() {
        for e2 in &cross.lock_edges[i + 1..] {
            if e1.first == e2.second && e1.second == e2.first && e1.first != e1.second {
                for (site, other) in [(e1, e2), (e2, e1)] {
                    let msg = format!(
                        "lock order inversion: `{}` acquired while `{}` is held here, but `{}` is acquired under `{}` at {}:{}",
                        site.second,
                        site.first,
                        other.second,
                        other.first,
                        other.file.display(),
                        other.line
                    );
                    if seen.insert((site.file.clone(), site.line, msg.clone())) {
                        emit("locks", &site.file, site.line, msg);
                    }
                }
            }
        }
    }

    // Rule 10: every ICP_OP_* constant must be wired end-to-end.
    for c in &cross.wire_consts {
        let mut missing = Vec::new();
        if !c.encoded {
            missing.push("an encode-side match arm (`to_u8`/`*encode*`)");
        }
        if !c.decoded {
            missing.push("a decode-side match arm (`from_u8`/`*decode*`)");
        }
        if !cross.wire_test_mentions.contains(&c.name) {
            missing.push("any test");
        }
        if !missing.is_empty() {
            emit(
                "wire",
                &c.file,
                c.line,
                format!(
                    "opcode constant `{}` is missing from {}; a half-wired opcode ships undecodable or untested",
                    c.name,
                    missing.join(" and ")
                ),
            );
        }
    }
}

/// The unused-suppression lint (plus unknown rule names), run last so
/// suppressions consumed by [`finish`] count as used.
pub fn check_suppressions(files: &[SourceFile], out: &mut Vec<Violation>) {
    for f in files {
        for s in &f.suppressions {
            for r in &s.rules {
                if !KNOWN_RULES.contains(&r.as_str()) {
                    out.push(Violation {
                        rule: "suppression",
                        file: f.rel.clone(),
                        line: s.line,
                        message: format!(
                            "unknown rule `{r}` in sc-check allow (known: {})",
                            KNOWN_RULES.join(", ")
                        ),
                    });
                }
            }
            if !s.used.get() && s.rules.iter().any(|r| KNOWN_RULES.contains(&r.as_str())) {
                out.push(Violation {
                    rule: "suppression",
                    file: f.rel.clone(),
                    line: s.line,
                    message: format!(
                        "suppression `allow({})` never fired; remove it",
                        s.rules.join(", ")
                    ),
                });
            }
        }
    }
}

/// Like [`SourceFile::token_lines`], but a token starting with an
/// identifier character must sit on a word boundary — so `Vec::new(`
/// does not match inside `BitVec::new(`.
fn bounded_token_lines(f: &SourceFile, token: &str) -> Vec<usize> {
    let needs_boundary = token
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_');
    let mut lines = Vec::new();
    for (idx, line) in f.stripped.lines().enumerate() {
        let line_no = idx + 1;
        if f.is_test_line(line_no) {
            continue;
        }
        let mut at = 0usize;
        while let Some(p) = line[at..].find(token) {
            let start = at + p;
            at = start + 1;
            if needs_boundary && start > 0 && is_ident(line.as_bytes()[start - 1]) {
                continue;
            }
            lines.push(line_no);
            break; // one violation per token per line
        }
    }
    lines
}

// ---------------------------------------------------------------------------
// Rule 4: counter safety
// ---------------------------------------------------------------------------

fn check_counters(f: &SourceFile, sink: &mut Sink<'_>) {
    for token in ["wrapping_add(", "wrapping_sub("] {
        for line in f.token_lines(token) {
            sink.emit(
                "counters",
                line,
                format!(
                    "`{token}…)` on a 4-bit counter wraps silently; use saturating_*/checked_* (Section V-C)"
                ),
            );
        }
    }
    // Counter updates fed by bare infix +/- must instead go through a
    // bounded op.
    for (idx, line) in f.stripped.lines().enumerate() {
        let line_no = idx + 1;
        if f.is_test_line(line_no) {
            continue;
        }
        let Some(pos) = line.find("set_count(") else {
            continue;
        };
        let args = &line[pos + "set_count(".len()..];
        let bounded = args.contains("saturating_") || args.contains("checked_");
        let bytes = args.as_bytes();
        let bare_arith = bytes.iter().enumerate().any(|(k, &c)| {
            (c == b'+' || c == b'-')
                && bytes.get(k + 1) != Some(&c)
                && bytes.get(k + 1) != Some(&b'=')
                && bytes.get(k + 1) != Some(&b'>') // `->` is not arithmetic
                && (k == 0 || bytes[k - 1] != c)
        });
        if bare_arith && !bounded {
            sink.emit(
                "counters",
                line_no,
                "bare +/- arithmetic feeding set_count; use saturating_*/checked_* (Section V-C)"
                    .to_string(),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 5: metric registration sites (token-based)
// ---------------------------------------------------------------------------

/// All `(metric name, 1-based line)` registrations in one file, test
/// context excluded. Token-based: `.` `method` `(` `"name"`, so the
/// name literal may even sit on the next line.
pub fn metric_registrations(f: &SourceFile) -> Vec<(String, usize)> {
    use crate::lexer::TokenKind;
    let sig: Vec<&crate::lexer::Token> = f
        .tokens
        .iter()
        .filter(|t| {
            !matches!(
                t.kind,
                TokenKind::Whitespace | TokenKind::LineComment | TokenKind::BlockComment
            )
        })
        .collect();
    let mut found = Vec::new();
    for w in sig.windows(4) {
        let [dot, method, open, lit] = w else {
            continue;
        };
        if dot.kind == TokenKind::Punct
            && dot.text(&f.src) == "."
            && method.kind == TokenKind::Ident
            && METRIC_METHODS.contains(&method.text(&f.src))
            && open.kind == TokenKind::Open
            && open.text(&f.src) == "("
            && lit.kind == TokenKind::Str
            && !f.is_test_line(method.line)
        {
            let text = lit.text(&f.src);
            if let (Some(a), Some(z)) = (text.find('"'), text.rfind('"')) {
                if z > a + 1 {
                    found.push((text[a + 1..z].to_string(), method.line));
                }
            }
        }
    }
    found
}

// ---------------------------------------------------------------------------
// Rule 8: lock discipline
// ---------------------------------------------------------------------------

struct Guard {
    name: String,
    lock_id: String,
    decl_line: usize,
    /// Byte offset just past the binding statement's `;`.
    live_from: usize,
}

fn check_locks(f: &SourceFile, sink: &mut Sink<'_>, edges: &mut Vec<LockEdge>) {
    let bytes = f.stripped.as_bytes();
    let closes = brace_matches(bytes);
    for item in &f.fns {
        if item.is_test {
            continue;
        }
        let Some((lo, hi)) = item.body else {
            continue;
        };
        let mut stack: Vec<usize> = Vec::new();
        let mut i = lo;
        while i < hi {
            match bytes[i] {
                b'{' => {
                    stack.push(i);
                    i += 1;
                }
                b'}' => {
                    stack.pop();
                    i += 1;
                }
                b'l' if word_at(bytes, i, "let") => {
                    let enclosing = stack.last().copied().unwrap_or(lo);
                    let block_end = closes.get(&enclosing).copied().unwrap_or(hi).min(hi);
                    if let Some(g) = parse_guard(f, i, hi) {
                        analyze_live_range(f, sink, edges, &g, block_end);
                    }
                    i += 3;
                }
                _ => i += 1,
            }
        }
    }
}

/// `open brace byte → close brace byte` over stripped text (literal
/// interiors are blanked, so every brace is structural).
fn brace_matches(b: &[u8]) -> BTreeMap<usize, usize> {
    let mut map = BTreeMap::new();
    let mut stack = Vec::new();
    for (i, &c) in b.iter().enumerate() {
        if c == b'{' {
            stack.push(i);
        } else if c == b'}' {
            if let Some(o) = stack.pop() {
                map.insert(o, i);
            }
        }
    }
    map
}

fn word_at(b: &[u8], i: usize, word: &str) -> bool {
    let w = word.as_bytes();
    if i + w.len() > b.len() || &b[i..i + w.len()] != w {
        return false;
    }
    let before_ok = i == 0 || !is_ident(b[i - 1]);
    let after_ok = i + w.len() >= b.len() || !is_ident(b[i + w.len()]);
    before_ok && after_ok
}

fn is_ident(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// At a `let` keyword: if this is a simple-ident binding whose
/// initializer's final value is a lock acquisition, return the guard.
/// Pattern bindings (`let Some(g) = …`, tuples) and temporaries whose
/// lock call is not the final value (`lock(&x).len()`) are not guards.
fn parse_guard(f: &SourceFile, let_pos: usize, hi: usize) -> Option<Guard> {
    let s = &f.stripped;
    let b = s.as_bytes();
    let mut j = let_pos + 3;
    let skip_ws = |j: &mut usize| {
        while *j < hi && b[*j].is_ascii_whitespace() {
            *j += 1;
        }
    };
    skip_ws(&mut j);
    if word_at(b, j, "mut") {
        j += 3;
        skip_ws(&mut j);
    }
    let name_start = j;
    while j < hi && is_ident(b[j]) {
        j += 1;
    }
    if j == name_start || b[name_start].is_ascii_digit() {
        return None;
    }
    let name = s[name_start..j].to_string();
    skip_ws(&mut j);
    if j >= hi || (b[j] != b':' && b[j] != b'=') {
        return None; // pattern binding or malformed
    }
    // Find the top-level `=` (skipping a type annotation), then the
    // statement-ending `;`.
    let mut depth = 0i32;
    while j < hi {
        match b[j] {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' => {
                if depth == 0 {
                    return None;
                }
                depth -= 1;
            }
            b'=' if depth == 0 => {
                if b.get(j + 1) == Some(&b'=') {
                    j += 2;
                    continue;
                }
                break;
            }
            b';' if depth == 0 => return None, // `let x;`
            _ => {}
        }
        j += 1;
    }
    if j >= hi {
        return None;
    }
    let init_start = j + 1;
    let mut k = init_start;
    let mut depth = 0i32;
    while k < hi {
        match b[k] {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' => {
                if depth == 0 {
                    return None;
                }
                depth -= 1;
            }
            b';' if depth == 0 => break,
            _ => {}
        }
        k += 1;
    }
    if k >= hi {
        return None;
    }
    let lock_id = lock_acquisition_id(&s[init_start..k])?;
    Some(Guard {
        name,
        lock_id,
        decl_line: f.line_of(let_pos),
        live_from: k + 1,
    })
}

/// If this expression's *final value* is a lock acquisition — a
/// trailing `.lock()` method or `lock(target)` free-fn call, possibly
/// through `?` / `.unwrap*()` / `.expect()` adapters — return the
/// normalized lock target.
fn lock_acquisition_id(init: &str) -> Option<String> {
    let mut s = init.trim();
    loop {
        s = s.trim_end();
        while let Some(rest) = s.strip_suffix('?') {
            s = rest.trim_end();
        }
        if !s.ends_with(')') {
            return None;
        }
        let open = matching_open_paren(s)?;
        let callee = s[..open].trim_end();
        let mut adapted = false;
        for ad in [
            ".unwrap_or_else",
            ".unwrap_or_default",
            ".unwrap_or",
            ".unwrap",
            ".expect",
        ] {
            if let Some(pre) = callee.strip_suffix(ad) {
                s = pre;
                adapted = true;
                break;
            }
        }
        if adapted {
            continue;
        }
        if let Some(recv) = callee.strip_suffix(".lock") {
            return Some(normalize_lock_target(recv));
        }
        let last = callee.rsplit("::").next().unwrap_or(callee);
        let path_like = callee
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':');
        if last == "lock" && path_like && !callee.is_empty() {
            return Some(normalize_lock_target(&s[open + 1..s.len() - 1]));
        }
        return None;
    }
}

/// Backward-scan for the `(` matching the expression's trailing `)`.
fn matching_open_paren(s: &str) -> Option<usize> {
    let b = s.as_bytes();
    let mut depth = 0i32;
    for i in (0..b.len()).rev() {
        match b[i] {
            b')' => depth += 1,
            b'(' => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

/// Canonical lock identity from its target expression: strip borrows,
/// `mut`, derefs and whitespace so `&inner.machine`, `& inner.machine`
/// and `*inner.machine` compare equal.
fn normalize_lock_target(t: &str) -> String {
    let mut t = t.trim();
    loop {
        let before = t;
        t = t.trim_start_matches('&').trim_start_matches('*').trim();
        if let Some(rest) = t.strip_prefix("mut ") {
            t = rest.trim();
        }
        if t == before {
            break;
        }
    }
    t.chars().filter(|c| !c.is_whitespace()).collect()
}

/// Scan a guard's live range (binding → end of enclosing block, or an
/// explicit `drop(guard)`) for blocking calls and nested acquisitions.
fn analyze_live_range(
    f: &SourceFile,
    sink: &mut Sink<'_>,
    edges: &mut Vec<LockEdge>,
    g: &Guard,
    block_end: usize,
) {
    let live_end = find_drop(&f.stripped, g.live_from, block_end, &g.name).unwrap_or(block_end);
    let region = &f.stripped[g.live_from..live_end.max(g.live_from)];
    for token in BLOCKING_TOKENS {
        let mut from = 0usize;
        while let Some(p) = region[from..].find(token) {
            let abs = g.live_from + from + p;
            // `thread::sleep` has no call-shape prefix; the dot tokens
            // embed their own boundary.
            sink.emit(
                "locks",
                f.line_of(abs),
                format!(
                    "`{token}…` while guard `{}` of lock `{}` (taken at line {}) is live; narrow the guard's block or drop() it first",
                    g.name, g.lock_id, g.decl_line
                ),
            );
            from += p + token.len();
        }
    }
    for (abs, other) in find_acquisitions(&f.stripped, g.live_from, live_end) {
        if other == g.lock_id {
            sink.emit(
                "locks",
                f.line_of(abs),
                format!(
                    "lock `{}` acquired again while guard `{}` already holds it (taken at line {}); self-deadlock",
                    g.lock_id, g.name, g.decl_line
                ),
            );
        } else {
            edges.push(LockEdge {
                first: g.lock_id.clone(),
                second: other,
                file: f.rel.clone(),
                line: f.line_of(abs),
            });
        }
    }
}

/// First `drop(name)` statement position within the range, if any.
fn find_drop(s: &str, from: usize, to: usize, name: &str) -> Option<usize> {
    let b = s.as_bytes();
    let region = &s[from..to.max(from)];
    let mut at = 0usize;
    while let Some(p) = region[at..].find("drop") {
        let abs = from + at + p;
        if word_at(b, abs, "drop") {
            let mut j = abs + 4;
            while j < to && b[j].is_ascii_whitespace() {
                j += 1;
            }
            if j < to && b[j] == b'(' {
                if let Some(close) = matching_close_paren(b, j, to) {
                    if s[j + 1..close].trim() == name {
                        return Some(abs);
                    }
                }
            }
        }
        at += p + 4;
    }
    None
}

fn matching_close_paren(b: &[u8], open: usize, to: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (i, &c) in b.iter().enumerate().take(to).skip(open) {
        match c {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

/// Every lock acquisition inside a byte range: `(position, lock id)`.
/// Matches the workspace's `lock(&target)` helper (free fn, any path)
/// and the inherent `.lock()` method.
fn find_acquisitions(s: &str, from: usize, to: usize) -> Vec<(usize, String)> {
    let b = s.as_bytes();
    let region = &s[from..to.max(from)];
    let mut out = Vec::new();
    let mut at = 0usize;
    while let Some(p) = region[at..].find("lock(") {
        let abs = from + at + p;
        at += p + 4;
        let before = if abs == 0 { b' ' } else { b[abs - 1] };
        if is_ident(before) {
            continue; // unlock(, relock( …
        }
        if before == b'.' {
            // Method form: walk the receiver chain backward.
            let mut r = abs - 1;
            while r > 0 && (is_ident(b[r - 1]) || b[r - 1] == b'.' || b[r - 1] == b':') {
                r -= 1;
            }
            let recv = s[r..abs - 1].trim_matches(|c| c == '.' || c == ':');
            if !recv.is_empty() {
                out.push((abs, normalize_lock_target(recv)));
            }
            continue;
        }
        // Free-fn form: the argument names the lock.
        if let Some(close) = matching_close_paren(b, abs + 4, to) {
            let arg = &s[abs + 5..close];
            if !arg.trim().is_empty() {
                out.push((abs, normalize_lock_target(arg)));
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Rule 10: wire exhaustiveness
// ---------------------------------------------------------------------------

/// In the wire file: find `const ICP_OP_*` declarations and whether
/// each appears in a `match` block of an encode-side and a decode-side
/// function.
fn collect_wire_consts(f: &SourceFile, cross: &mut CrossFile) {
    use crate::lexer::TokenKind;
    let sig: Vec<&crate::lexer::Token> = f
        .tokens
        .iter()
        .filter(|t| {
            !matches!(
                t.kind,
                TokenKind::Whitespace | TokenKind::LineComment | TokenKind::BlockComment
            )
        })
        .collect();
    let mut consts = Vec::new();
    for w in sig.windows(2) {
        if w[0].kind == TokenKind::Ident
            && w[0].text(&f.src) == "const"
            && w[1].kind == TokenKind::Ident
            && w[1].text(&f.src).starts_with("ICP_OP_")
        {
            consts.push((w[1].text(&f.src).to_string(), w[1].line));
        }
    }
    if consts.is_empty() {
        return;
    }
    let encode_ranges = match_ranges_of(f, |n| n == "to_u8" || n.contains("encode"));
    let decode_ranges = match_ranges_of(f, |n| n == "from_u8" || n.contains("decode"));
    let in_ranges = |ranges: &[(usize, usize)], name: &str| {
        ranges.iter().any(|&(lo, hi)| {
            let region = &f.stripped[lo..hi];
            let mut at = 0usize;
            while let Some(p) = region[at..].find(name) {
                let abs = lo + at + p;
                if word_at(f.stripped.as_bytes(), abs, name) {
                    return true;
                }
                at += p + name.len();
            }
            false
        })
    };
    for (name, line) in consts {
        let encoded = in_ranges(&encode_ranges, &name);
        let decoded = in_ranges(&decode_ranges, &name);
        cross.wire_consts.push(WireConst {
            name,
            file: f.rel.clone(),
            line,
            encoded,
            decoded,
        });
    }
}

/// Byte ranges of every `match { … }` block inside non-test fns whose
/// name satisfies `pick`.
fn match_ranges_of(f: &SourceFile, pick: impl Fn(&str) -> bool) -> Vec<(usize, usize)> {
    let b = f.stripped.as_bytes();
    let closes = brace_matches(b);
    let mut out = Vec::new();
    for item in &f.fns {
        if item.is_test || !pick(&item.name) {
            continue;
        }
        let Some((lo, hi)) = item.body else {
            continue;
        };
        let region = &f.stripped[lo..hi];
        let mut at = 0usize;
        while let Some(p) = region[at..].find("match") {
            let abs = lo + at + p;
            at += p + 5;
            if !word_at(b, abs, "match") {
                continue;
            }
            // The match block is the first `{` after the scrutinee.
            let mut j = abs + 5;
            while j < hi && b[j] != b'{' {
                j += 1;
            }
            if j < hi {
                let close = closes.get(&j).copied().unwrap_or(hi).min(hi);
                out.push((j, close + 1));
            }
        }
    }
    out
}

/// Record every `ICP_OP_*` identifier appearing in test context (any
/// file) for rule 10's "named in at least one test" leg.
fn collect_wire_mentions(f: &SourceFile, cross: &mut CrossFile) {
    for (idx, line) in f.stripped.lines().enumerate() {
        if !f.is_test_line(idx + 1) {
            continue;
        }
        let mut at = 0usize;
        while let Some(p) = line[at..].find("ICP_OP_") {
            let start = at + p;
            let rest = &line[start..];
            let end = rest
                .char_indices()
                .find(|(_, c)| !(c.is_ascii_alphanumeric() || *c == '_'))
                .map(|(i, _)| i)
                .unwrap_or(rest.len());
            // Require a word boundary on the left.
            let left_ok = start == 0 || !is_ident(line.as_bytes()[start - 1]);
            if left_ok && end > "ICP_OP_".len() {
                cross.wire_test_mentions.insert(rest[..end].to_string());
            }
            at = start + end.max(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn proxy_file(src: &str) -> SourceFile {
        SourceFile::parse(PathBuf::from("crates/proxy/src/daemon.rs"), src.to_string())
    }

    fn run(src: &str) -> (Vec<Violation>, CrossFile) {
        let f = proxy_file(src);
        let mut out = Vec::new();
        let mut cross = CrossFile::default();
        check_file(&f, &mut out, &mut cross);
        (out, cross)
    }

    #[test]
    fn guard_id_recognizes_helper_and_method_forms() {
        assert_eq!(
            lock_acquisition_id("lock(&inner.machine)").as_deref(),
            Some("inner.machine")
        );
        assert_eq!(
            lock_acquisition_id("self.current.lock().unwrap_or_else(|e| e.into_inner())")
                .as_deref(),
            Some("self.current")
        );
        assert_eq!(lock_acquisition_id("m.lock().unwrap()?").as_deref(), Some("m"));
        assert_eq!(lock_acquisition_id("m.lock().expect(\"poisoned\")").as_deref(), Some("m"));
        // Temporaries: the lock call is not the final value.
        assert_eq!(lock_acquisition_id("lock(&inner.cache).lookup(&url)"), None);
        assert_eq!(lock_acquisition_id("lock(&inner.cache).len()"), None);
        assert_eq!(lock_acquisition_id("compute(&x)"), None);
        assert_eq!(lock_acquisition_id("42"), None);
    }

    #[test]
    fn sleep_under_guard_is_flagged_drop_clears_it() {
        let (out, _) = run(
            "fn bad(m: &std::sync::Mutex<u32>) {\n\
             \x20   let g = lock(m);\n\
             \x20   std::thread::sleep(std::time::Duration::from_millis(1));\n\
             \x20   let _ = *g;\n\
             }\n\
             fn good(m: &std::sync::Mutex<u32>) {\n\
             \x20   let g = lock(m);\n\
             \x20   drop(g);\n\
             \x20   std::thread::sleep(std::time::Duration::from_millis(1));\n\
             }\n",
        );
        let locks: Vec<_> = out.iter().filter(|v| v.rule == "locks").collect();
        assert_eq!(locks.len(), 1, "{out:?}");
        assert_eq!(locks[0].line, 3);
    }

    #[test]
    fn guard_dies_at_end_of_enclosing_block() {
        let (out, _) = run(
            "fn scoped(m: &std::sync::Mutex<u32>, tx: &std::sync::mpsc::Sender<u32>) {\n\
             \x20   {\n\
             \x20       let g = lock(m);\n\
             \x20       let _ = *g;\n\
             \x20   }\n\
             \x20   let _ = tx.send(1);\n\
             }\n",
        );
        assert!(
            out.iter().all(|v| v.rule != "locks"),
            "send after the guard's block is fine: {out:?}"
        );
    }

    #[test]
    fn nested_same_lock_is_self_deadlock_and_pairs_record_edges() {
        let (out, cross) = run(
            "fn twice(s: &S) {\n\
             \x20   let a = lock(&s.a);\n\
             \x20   let b = lock(&s.a);\n\
             \x20   let _ = (*a, *b);\n\
             }\n\
             fn ordered(s: &S) {\n\
             \x20   let a = lock(&s.a);\n\
             \x20   let b = lock(&s.b);\n\
             \x20   let _ = (*a, *b);\n\
             }\n",
        );
        let dbl: Vec<_> = out.iter().filter(|v| v.message.contains("self-deadlock")).collect();
        assert_eq!(dbl.len(), 1, "{out:?}");
        assert_eq!(dbl[0].line, 3);
        assert!(
            cross.lock_edges.iter().any(|e| e.first == "s.a" && e.second == "s.b"),
            "ordered acquisition recorded as an edge"
        );
    }

    #[test]
    fn inversion_flagged_at_both_sites() {
        let src = "fn ab(s: &S) {\n\
             \x20   let a = lock(&s.a);\n\
             \x20   let b = lock(&s.b);\n\
             \x20   let _ = (*a, *b);\n\
             }\n\
             fn ba(s: &S) {\n\
             \x20   let b = lock(&s.b);\n\
             \x20   let a = lock(&s.a);\n\
             \x20   let _ = (*a, *b);\n\
             }\n";
        let f = proxy_file(src);
        let mut out = Vec::new();
        let mut cross = CrossFile::default();
        check_file(&f, &mut out, &mut cross);
        let files = [f];
        finish(&files, &cross, &mut out);
        let inv: Vec<_> = out.iter().filter(|v| v.message.contains("inversion")).collect();
        assert_eq!(inv.len(), 2, "{out:?}");
        assert_eq!(inv[0].line, 3);
        assert_eq!(inv[1].line, 8);
    }

    #[test]
    fn try_send_and_temporaries_do_not_trip_rule_8() {
        let (out, _) = run(
            "fn ok(s: &S, done: &std::sync::mpsc::SyncSender<u32>) {\n\
             \x20   let g = lock(&s.a);\n\
             \x20   let _ = done.try_send(*g);\n\
             \x20   let n = lock2(&s.b);\n\
             }\n",
        );
        assert!(out.iter().all(|v| v.rule != "locks"), "{out:?}");
    }

    #[test]
    fn metric_registration_spanning_lines_is_found() {
        let f = SourceFile::parse(
            PathBuf::from("crates/obs/src/lib.rs"),
            "fn wire(r: &Registry) {\n    r.counter(\n        \"sc_a_total\",\n    );\n}\n"
                .to_string(),
        );
        let got = metric_registrations(&f);
        assert_eq!(got, vec![("sc_a_total".to_string(), 2)]);
    }

    #[test]
    fn wire_consts_coverage_resolves_per_side() {
        let f = SourceFile::parse(
            PathBuf::from("crates/wire/src/icp.rs"),
            "pub const ICP_OP_QUERY: u8 = 1;\n\
             pub const ICP_OP_HIT: u8 = 2;\n\
             fn to_u8(op: Op) -> u8 {\n\
             \x20   match op { Op::Query => ICP_OP_QUERY, Op::Hit => ICP_OP_HIT }\n\
             }\n\
             fn from_u8(v: u8) -> Option<Op> {\n\
             \x20   match v { ICP_OP_QUERY => Some(Op::Query), _ => None }\n\
             }\n\
             #[cfg(test)]\n\
             mod tests {\n\
             \x20   fn t() { assert_eq!(super::ICP_OP_QUERY, 1); }\n\
             }\n"
                .to_string(),
        );
        let mut out = Vec::new();
        let mut cross = CrossFile::default();
        check_file(&f, &mut out, &mut cross);
        let files = [f];
        finish(&files, &cross, &mut out);
        let wire: Vec<_> = out.iter().filter(|v| v.rule == "wire").collect();
        assert_eq!(wire.len(), 1, "{out:?}");
        assert_eq!(wire[0].line, 2);
        assert!(wire[0].message.contains("ICP_OP_HIT"));
        assert!(wire[0].message.contains("decode-side"));
        assert!(wire[0].message.contains("any test"));
    }
}
