//! Source rules clippy cannot express, checked over the real tree.
//!
//! * **locks** — in non-test `crates/proxy/src` code, no `MutexGuard`
//!   (live from its `let` to its block's end or its `drop`) spans a
//!   sleep, channel or socket I/O, a second acquisition of its lock, or
//!   an acquisition order that inverts one taken elsewhere.
//! * **deps** — no lock file names a `source`: every dependency is local.
//!
//! Comments, literal interiors and test items are blanked byte for byte
//! first, so offsets and line numbers survive. Each rule also runs on an
//! inline violating case.

use std::path::Path;

/// Calls that may block, forbidden while a guard is live. Dot-prefixed
/// so `try_send(` and `try_recv(` do not match.
const BLOCKING: &str = "thread::sleep .send( .send_to( .recv( .recv_timeout( .recv_deadline( \
    .recv_from( .write( .write_all( .read( .read_exact( .flush( .accept( .connect(";

/// Calls that pass a lock acquisition's guard through unchanged.
const ADAPTERS: &str = ".unwrap_or_else .unwrap_or_default .unwrap_or .unwrap .expect";

fn is_ident(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

fn word_at(b: &[u8], i: usize, word: &str) -> bool {
    b[i..].starts_with(word.as_bytes())
        && (i == 0 || !is_ident(b[i - 1]))
        && !b.get(i + word.len()).is_some_and(|&c| is_ident(c))
}

fn line_of(code: &str, at: usize) -> usize {
    code[..at].matches('\n').count() + 1
}

fn blank(b: &mut [u8]) {
    b.iter_mut().filter(|c| **c != b'\n').for_each(|c| *c = b' ');
}

/// Offset of the bracket closing the one at `open` (or the end).
fn close_of(b: &[u8], open: usize) -> usize {
    let down = match b[open] { b'(' => b')', b'[' => b']', _ => b'}' };
    let mut depth = 0;
    let mut at_zero = |&c: &u8| {
        depth += i32::from(c == b[open]) - i32::from(c == down);
        depth == 0
    };
    b[open..].iter().position(&mut at_zero).map_or(b.len(), |p| open + p)
}

/// The comment or literal at `i` as `(from, to)`: blank `from..to`, then
/// resume after `to`, the kept newline or closing delimiter.
fn skipped_at(src: &str, i: usize) -> Option<(usize, usize)> {
    let (b, rest) = (src.as_bytes(), &src[i..]);
    let after = |pat: &str, from: usize| src[from..].find(pat).map_or(src.len(), |p| from + p);
    if rest.starts_with("//") {
        return Some((i, after("\n", i)));
    }
    if rest.starts_with("/*") {
        return Some((i, (after("*/", i) + 1).min(src.len())));
    }
    let raw = rest.starts_with('r') && (i == 0 || !is_ident(b[i - 1]) || src[..i].ends_with('b'));
    if raw {
        let hashes = rest[1..].bytes().take_while(|&c| c == b'#').count();
        if rest[1 + hashes..].starts_with('"') {
            let close = format!("\"{}", "#".repeat(hashes));
            return Some((i + 2 + hashes, after(&close, i + 2 + hashes)));
        }
    } else if rest.starts_with('"') {
        let mut j = i + 1;
        while j < b.len() && b[j] != b'"' {
            j += 1 + usize::from(b[j] == b'\\');
        }
        return Some((i + 1, j.min(b.len())));
    } else if let Some(lit) = rest.strip_prefix('\'') {
        let len = match lit.chars().next()? {
            '\\' => 2 + rest.get(3..)?.find('\'')?,
            c => c.len_utf8(),
        };
        return (b.get(i + 1 + len) == Some(&b'\'')).then_some((i + 1, i + 1 + len));
    }
    None
}

/// Blank every test-only item: from a `#[test]` or `#[cfg(..test..)]`
/// attribute to the item's `;` or closing brace.
fn cut_tests(code: &mut [u8]) {
    let mut i = 0;
    while let Some(p) = code[i..].windows(2).position(|w| w == b"#[").map(|p| i + p) {
        let close = close_of(code, p + 1);
        let attr = String::from_utf8_lossy(&code[p + 2..close]).replace(char::is_whitespace, "");
        let mut words = attr.split(|c: char| !c.is_alphanumeric() && c != '_');
        let cfg_test = attr.starts_with("cfg(") && !attr.contains("not(test");
        i = close + 1;
        if attr == "test" || (cfg_test && words.any(|w| w == "test")) {
            while i < code.len() && code[i] != b';' && code[i] != b'{' {
                i = if matches!(code[i], b'(' | b'[') { close_of(code, i) + 1 } else { i + 1 };
            }
            if i < code.len() && code[i] == b'{' {
                i = close_of(code, i);
            }
            i = (i + 1).min(code.len());
            blank(&mut code[p..i]);
        }
    }
}

/// `src` with comments, literal interiors and test items blanked.
fn non_test_code(src: &str) -> String {
    let mut code = src.as_bytes().to_vec();
    let mut i = 0;
    while i < src.len() {
        let (from, to) = skipped_at(src, i).unwrap_or((i, i));
        blank(&mut code[from..to]);
        i = to + 1;
    }
    cut_tests(&mut code);
    String::from_utf8(code).expect("blanking whole characters keeps UTF-8")
}

/// Canonical lock identity: `&inner.machine`, `& mut inner.machine`
/// and `*inner.machine` compare equal.
fn normalize(target: &str) -> String {
    let t = target.trim().trim_start_matches(['&', '*', ' ']);
    let t = t.strip_prefix("mut ").unwrap_or(t);
    t.chars().filter(|c| !c.is_whitespace()).collect()
}

/// The lock an initializer acquires when the acquisition is its final
/// value: `lock(&x)` or `x.lock()`, possibly behind `?` or an adapter.
/// A temporary such as `lock(&x).len()` is not a guard.
fn acquired_by(init: &str) -> Option<String> {
    let mut s = init.trim();
    loop {
        s = s.trim_end().trim_end_matches('?').trim_end();
        let b = s.as_bytes();
        let open = (0..b.len()).rev().find(|&i| b[i] == b'(' && close_of(b, i) + 1 == b.len())?;
        let callee = s[..open].trim_end();
        if let Some(inner) = ADAPTERS.split_whitespace().find_map(|a| callee.strip_suffix(a)) {
            s = inner;
        } else if let Some(receiver) = callee.strip_suffix(".lock") {
            return Some(normalize(receiver));
        } else {
            let is_lock = callee.bytes().all(|c| is_ident(c) || c == b':')
                && callee.rsplit("::").next() == Some("lock");
            return is_lock.then(|| normalize(&s[open + 1..s.len() - 1]));
        }
    }
}

/// The guard a `let` at `at` binds: `(name, lock, end of statement)`.
fn guard_at(code: &str, at: usize) -> Option<(String, String, usize)> {
    let b = code.as_bytes();
    let mut end = at;
    while b.get(end) != Some(&b';') {
        match b.get(end)? {
            b'(' | b'[' | b'{' => end = close_of(b, end) + 1,
            b'}' => return None,
            _ => end += 1,
        }
    }
    let (binding, init) = code[at + 3..end].split_once('=')?;
    let binding = binding.split(':').next()?.trim();
    let name = binding.strip_prefix("mut ").unwrap_or(binding).trim();
    if name.is_empty() || !name.bytes().all(is_ident) {
        return None; // a pattern binding is never a guard here
    }
    Some((name.to_string(), acquired_by(init)?, end + 1))
}

/// Every acquisition in `held`: `(offset, lock)`.
fn acquisitions(held: &str) -> Vec<(usize, String)> {
    let b = held.as_bytes();
    let target = |p: usize| match p.checked_sub(1).map(|q| b[q]) {
        Some(b'.') => {
            let start = held[..p - 1].rfind(|c: char| !(c.is_alphanumeric() || "_.:".contains(c)));
            Some(held[start.map_or(0, |s| s + 1)..p - 1].trim_matches(['.', ':']))
        }
        Some(c) if is_ident(c) => None, // `unlock(`, `relock(`, …
        _ => Some(&held[p + 5..close_of(b, p + 4).min(held.len())]),
    };
    let found = held.match_indices("lock(").filter_map(|(p, _)| Some((p, target(p)?)));
    found.filter(|(_, t)| !t.trim().is_empty()).map(|(p, t)| (p, normalize(t))).collect()
}

/// The `locks` rule over `(file, source)` pairs.
fn locks(files: &[(String, String)]) -> Vec<String> {
    let mut findings = Vec::new();
    let mut edges = Vec::new(); // (held lock, lock taken under it, site)
    for (file, src) in files {
        let code = non_test_code(src);
        let b = code.as_bytes();
        let mut blocks = Vec::new();
        for i in 0..b.len() {
            match b[i] {
                b'{' => blocks.push(i),
                b'}' => drop(blocks.pop()),
                b'l' if word_at(b, i, "let") => {
                    let Some((name, lock, from)) = guard_at(&code, i) else {
                        continue;
                    };
                    let block_end = blocks.last().map_or(b.len(), |&o| close_of(b, o));
                    let drops = code[from..block_end].match_indices("drop(");
                    let dropped = |p: usize| code[p + 5..close_of(b, p + 4)].trim() == name;
                    let mut drops = drops.map(|(p, _)| from + p).filter(|&p| word_at(b, p, "drop"));
                    let held = &code[from..drops.find(|&p| dropped(p)).unwrap_or(block_end)];
                    let site = |p: usize| format!("{file}:{}", line_of(&code, from + p));
                    let guard = format!("guard `{name}` of `{lock}` (line {})", line_of(&code, i));
                    let mut flag = |p: usize, what: String| {
                        let finding = format!("{}: [locks] {what} while {guard} is live", site(p));
                        findings.push(finding);
                    };
                    let calls = BLOCKING.split_whitespace().flat_map(|t| held.match_indices(t));
                    for (p, token) in calls {
                        flag(p, format!("`{token}…`"));
                    }
                    for (p, other) in acquisitions(held) {
                        if other == lock {
                            flag(p, format!("self-deadlock: `{lock}` taken again"));
                        } else {
                            edges.push((lock.clone(), other, site(p)));
                        }
                    }
                }
                _ => {}
            }
        }
    }
    for (held, taken, site) in &edges {
        if let Some((.., other)) = edges.iter().find(|(h, t, _)| h == taken && t == held) {
            let order = format!("`{taken}` taken under `{held}`");
            findings.push(format!("{site}: [locks] {order}: inversion of {other}"));
        }
    }
    findings
}

/// The `deps` rule over one lock file.
fn deps(file: &str, lock: &str) -> Vec<String> {
    let sourced = lock.lines().enumerate().filter(|(_, l)| l.starts_with("source ="));
    sourced.map(|(n, l)| format!("{file}:{}: [deps] {l}", n + 1)).collect()
}

/// `(path from the repo root, source)` for every `.rs` file under `dir`.
fn sources(dir: &str, files: &mut Vec<(String, String)>) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for entry in std::fs::read_dir(root.join(dir)).expect("source dir").flatten() {
        let rel = format!("{dir}/{}", entry.file_name().to_string_lossy());
        if entry.path().is_dir() {
            sources(&rel, files);
        } else if rel.ends_with(".rs") {
            files.push((rel, std::fs::read_to_string(entry.path()).expect("UTF-8")));
        }
    }
}

#[test]
fn real_tree_passes_every_source_rule() {
    let mut proxy = Vec::new();
    sources("crates/proxy/src", &mut proxy);
    let mut findings = locks(&proxy);
    for lock in ["Cargo.lock", "benchmark/Cargo.lock"] {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(lock);
        findings.extend(deps(lock, &std::fs::read_to_string(path).expect("lock file")));
    }
    assert!(findings.is_empty(), "violations:\n{}", findings.join("\n"));
}

/// `found` holds exactly one finding per `(location, detail)` pair.
fn assert_found(found: &[String], expected: &[(String, &str)]) {
    let text = found.join("\n");
    for (at, what) in expected {
        let hit = found.iter().any(|f| f.starts_with(at) && f.contains(what));
        assert!(hit, "{at} {what} expected, found:\n{text}");
    }
    assert_eq!(found.len(), expected.len(), "found:\n{text}");
}

const LOCK_CASE: &str = r#"fn held(s: &Shared, tx: &Sender<u32>) {
    let g = lock(&s.a);
    std::thread::sleep(ONE_MS);
    drop_hint(0); // not drop(g)
    let _ = tx.send(*g);
    let again = lock(& s.a);
}
fn ab(s: &Shared) {
    let a = lock(&s.a);
    let b = lock(&s.b);
}
fn ba(s: &Shared) {
    let b = s.b.lock().expect("poisoned");
    let a = lock(&s.a);
}
fn clean(s: &Shared, tx: &Sender<u32>, done: &SyncSender<u32>) {
    let g = lock(&s.a);
    let _ = done.try_send(*g);
    let _ = "tx.send(1) in a literal {"; // tx.recv() in a comment
    drop(g);
    let _ = tx.send(1);
    let w = { let g = lock(&s.b); *g };
    let n = lock(&s.a).len();
    std::thread::sleep(ONE_MS * (w + n));
}
#[cfg(test)]
fn may_hold(s: &Shared, tx: &Sender<u32>) { let g = lock(&s.a); tx.send(*g).unwrap(); }
"#;

#[test]
fn lock_discipline_flagged_with_drop_and_scope_negatives() {
    let found = locks(&[("crates/proxy/src/daemon.rs".into(), LOCK_CASE.into())]);
    let at = |line: usize| format!("crates/proxy/src/daemon.rs:{line}: [locks]");
    let expected = [(3, "sleep"), (5, ".send("), (6, "self-deadlock"), (10, "inv"), (14, "inv")];
    assert_found(&found, &expected.map(|(line, what)| (at(line), what)));
}

const LOCK_FILE: &str = r#"[[package]]
name = "local-ok"

[[package]]
name = "serde"
source = "registry+https://example.invalid/index"

[[package]]
name = "tokio"
source = "git+https://example.invalid/tokio#0"
"#;

#[test]
fn registry_dep_flagged_with_file_and_line() {
    let expected = [(6, "registry+"), (10, "git+")];
    let expected = expected.map(|(line, what)| (format!("Cargo.lock:{line}: [deps]"), what));
    assert_found(&deps("Cargo.lock", LOCK_FILE), &expected);
}
