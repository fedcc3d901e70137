//! Import real Squid access logs.
//!
//! The synthetic profiles stand in for the paper's lost traces, but the
//! tooling should work on *your* traces too. This parses Squid's native
//! `access.log` format — the same software lineage as the paper's
//! prototype — into a [`Trace`]:
//!
//! ```text
//! timestamp elapsed client action/code size method URL ident hierarchy/host content-type
//! 1066036869.123   445 10.0.0.1 TCP_MISS/200 8192 GET http://example.com/x - DIRECT/1.2.3.4 text/html
//! ```
//!
//! Fields the model needs and how they map:
//!
//! * `timestamp` (seconds.millis) → `time_ms`;
//! * `client` (IP or id) → a dense client id, in order of appearance;
//! * `URL` → a dense document id (per distinct URL) and its server
//!   component (the host part);
//! * `size` → body size;
//! * `last_modified` is not in the access log; like the paper's
//!   consistency model we approximate it: a size *change* for a URL is
//!   treated as a modification (version bump).
//!
//! Non-GET methods and aborted transfers (`size == 0`) are skipped, as
//! in the paper's methodology.

use crate::model::{Request, Trace};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read};

/// Errors importing a Squid log.
#[derive(Debug)]
pub enum SquidError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Malformed line.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What was wrong with it.
        message: String,
    },
    /// The trace was asked for zero proxy groups.
    NoGroups,
}

impl std::fmt::Display for SquidError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SquidError::Io(e) => write!(f, "I/O error: {e}"),
            SquidError::Parse { line, message } => write!(f, "line {line}: {message}"),
            SquidError::NoGroups => write!(f, "a trace needs at least one proxy group"),
        }
    }
}

impl std::error::Error for SquidError {}

impl From<std::io::Error> for SquidError {
    fn from(e: std::io::Error) -> Self {
        SquidError::Io(e)
    }
}

/// Import statistics alongside the trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ImportStats {
    /// Lines read.
    pub lines: usize,
    /// Requests imported.
    pub imported: usize,
    /// Skipped: non-GET method.
    pub skipped_method: usize,
    /// Skipped: zero-size (aborted) transfers.
    pub skipped_empty: usize,
}

/// Parse a Squid native access log into a trace partitioned for
/// `groups` proxies.
pub fn load_squid_log<R: Read>(r: R, name: &str, groups: u32) -> Result<(Trace, ImportStats), SquidError> {
    if groups == 0 {
        return Err(SquidError::NoGroups);
    }
    let mut stats = ImportStats::default();
    let mut clients: HashMap<String, u32> = HashMap::new();
    let mut urls: HashMap<String, u64> = HashMap::new();
    let mut servers: HashMap<String, u32> = HashMap::new();
    // URL -> (last size seen, version) for the modification heuristic.
    let mut versions: HashMap<u64, (u64, u64)> = HashMap::new();
    let mut requests = Vec::new();
    let mut t0: Option<u64> = None;

    for (i, line) in BufReader::new(r).lines().enumerate() {
        let line = line?;
        stats.lines += 1;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() < 7 {
            return Err(SquidError::Parse {
                line: i + 1,
                message: format!("expected >=7 fields, got {}", fields.len()),
            });
        }
        let ts: f64 = fields[0].parse().map_err(|_| SquidError::Parse {
            line: i + 1,
            message: format!("bad timestamp {:?}", fields[0]),
        })?;
        let client_key = fields[2];
        let size: u64 = fields[4].parse().map_err(|_| SquidError::Parse {
            line: i + 1,
            message: format!("bad size {:?}", fields[4]),
        })?;
        let method = fields[5];
        let url_str = fields[6];

        if method != "GET" {
            stats.skipped_method += 1;
            continue;
        }
        if size == 0 {
            stats.skipped_empty += 1;
            continue;
        }

        let time_ms = (ts * 1000.0) as u64;
        let t0 = *t0.get_or_insert(time_ms);

        let next_client = clients.len() as u32;
        let client = *clients.entry(client_key.to_string()).or_insert(next_client);
        let next_url = urls.len() as u64;
        let url = *urls.entry(url_str.to_string()).or_insert(next_url);
        let host = host_of(url_str).to_string();
        let next_server = servers.len() as u32;
        let server = *servers.entry(host).or_insert(next_server);

        // Modification heuristic: size change bumps the version.
        let (last_size, version) = versions.entry(url).or_insert((size, 0));
        if *last_size != size {
            *last_size = size;
            *version += 1;
        }
        let last_modified = *version;

        requests.push(Request {
            time_ms: time_ms.saturating_sub(t0),
            client,
            url,
            server,
            size,
            last_modified,
        });
        stats.imported += 1;
    }
    // Access logs can interleave slightly out of order (completion
    // times); the simulators need monotone time.
    requests.sort_by_key(|r| r.time_ms);
    Ok((
        Trace {
            name: name.to_string(),
            groups,
            requests,
        },
        stats,
    ))
}

/// The host component of a URL (for server-name summaries).
fn host_of(url: &str) -> &str {
    let rest = url
        .strip_prefix("http://")
        .or_else(|| url.strip_prefix("https://"))
        .unwrap_or(url);
    let end = rest.find(['/', ':']).unwrap_or(rest.len());
    &rest[..end]
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
1066036869.123   445 10.0.0.1 TCP_MISS/200 8192 GET http://example.com/a.html - DIRECT/1.2.3.4 text/html
1066036870.456    12 10.0.0.2 TCP_HIT/200 8192 GET http://example.com/a.html - NONE/- text/html
1066036871.789   300 10.0.0.1 TCP_MISS/200 512 GET http://other.org:8080/b.gif - DIRECT/5.6.7.8 image/gif
1066036872.000   100 10.0.0.1 TCP_MISS/200 999 POST http://example.com/form - DIRECT/1.2.3.4 text/html
1066036873.000    50 10.0.0.3 TCP_MISS/000 0 GET http://example.com/abort - DIRECT/1.2.3.4 -
1066036874.500    80 10.0.0.2 TCP_REFRESH_MISS/200 9000 GET http://example.com/a.html - DIRECT/1.2.3.4 text/html
";

    #[test]
    fn parses_the_standard_format() {
        let (trace, stats) = load_squid_log(SAMPLE.as_bytes(), "sample", 2).unwrap();
        assert_eq!(stats.lines, 6);
        assert_eq!(stats.imported, 4);
        assert_eq!(stats.skipped_method, 1, "POST dropped");
        assert_eq!(stats.skipped_empty, 1, "aborted transfer dropped");
        assert_eq!(trace.len(), 4);
        assert_eq!(trace.groups, 2);

        let r0 = &trace.requests[0];
        assert_eq!(r0.time_ms, 0, "times rebased to trace start");
        assert_eq!(r0.size, 8192);
        // Same URL from two clients: same doc id, distinct clients.
        let r1 = &trace.requests[1];
        assert_eq!(r1.url, r0.url);
        assert_ne!(r1.client, r0.client);
        assert_eq!(r1.time_ms, 1333);
        // Different host (with port stripped) gets a distinct server.
        let r2 = &trace.requests[2];
        assert_ne!(r2.server, r0.server);
    }

    #[test]
    fn size_change_is_a_modification() {
        let (trace, _) = load_squid_log(SAMPLE.as_bytes(), "s", 2).unwrap();
        let a: Vec<&Request> = trace
            .requests
            .iter()
            .filter(|r| r.url == trace.requests[0].url)
            .collect();
        assert_eq!(a.len(), 3);
        assert_eq!(a[0].last_modified, 0);
        assert_eq!(a[1].last_modified, 0, "same size, same version");
        assert_eq!(a[2].last_modified, 1, "9000 != 8192 bumps the version");
    }

    #[test]
    fn host_extraction() {
        assert_eq!(host_of("http://a.b.c/d/e"), "a.b.c");
        assert_eq!(host_of("https://a.b.c:8080/d"), "a.b.c");
        assert_eq!(host_of("http://bare-host"), "bare-host");
        assert_eq!(host_of("ftp-ish-no-scheme/path"), "ftp-ish-no-scheme");
    }

    #[test]
    fn rejects_short_lines_with_position() {
        let bad = "1066036869.1 445 c TCP_MISS/200 10\n";
        match load_squid_log(bad.as_bytes(), "x", 1) {
            Err(SquidError::Parse { line, .. }) => assert_eq!(line, 1),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn zero_groups_is_an_error_not_a_panic() {
        let err = load_squid_log(SAMPLE.as_bytes(), "s", 0).unwrap_err();
        assert!(matches!(err, SquidError::NoGroups), "{err:?}");
    }

    /// Hostile logs return `Ok` or `Err`, never panic: random bytes drawn
    /// half from the log alphabet, truncations and one-byte mutations of
    /// a valid log, at 1–8 groups.
    #[test]
    fn prop_load_never_panics() {
        use sc_util::prop::{check, vec_of};
        const ALPHABET: &[u8] = b"0123456789. /:-GET http://TCP_MISS\n#";
        let load = |bytes: &[u8], groups: u32| {
            let _ = load_squid_log(bytes, "fuzz", groups);
        };
        check("squid_load_random_bytes", 512, |rng| {
            let bytes = vec_of(rng, 0..512, |r| {
                if r.gen_bool(0.5) {
                    ALPHABET[r.gen_range(0..ALPHABET.len())]
                } else {
                    r.gen_range(0u8..=255)
                }
            });
            load(&bytes, rng.gen_range(1..=8));
        });
        check("squid_load_truncations", 512, |rng| {
            load(
                &SAMPLE.as_bytes()[..rng.gen_range(0..SAMPLE.len() + 1)],
                rng.gen_range(1..=8),
            );
        });
        check("squid_load_one_byte_mutations", 512, |rng| {
            let mut bytes = SAMPLE.as_bytes().to_vec();
            let at = rng.gen_range(0..bytes.len());
            bytes[at] = rng.gen_range(0u8..=255);
            load(&bytes, rng.gen_range(1..=8));
        });
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let log = format!("# a comment\n\n{SAMPLE}");
        let (trace, stats) = load_squid_log(log.as_bytes(), "s", 4).unwrap();
        assert_eq!(trace.len(), 4);
        assert_eq!(stats.lines, 8);
    }

    #[test]
    fn imported_trace_runs_through_the_simulator() {
        // End-to-end smoke: the imported trace feeds TraceStats.
        let (trace, _) = load_squid_log(SAMPLE.as_bytes(), "s", 2).unwrap();
        let s = crate::TraceStats::compute(&trace);
        assert_eq!(s.requests, 4);
        assert_eq!(s.unique_documents, 2);
        assert!(s.max_hit_ratio > 0.0, "the repeat GET is a hit");
    }
}
