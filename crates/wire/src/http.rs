//! The HTTP/1.x subset the prototype proxy speaks.
//!
//! Real Squid speaks all of HTTP; the experiments only need GETs with a
//! few headers and `Content-Length`-framed bodies, so this codec is
//! deliberately small: incremental head parsing (so a tokio task can
//! read into a buffer and try again on `NeedMore`), case-insensitive
//! header lookup, and response building. The origin-server emulator
//! communicates document size and version through `X-Doc-Size` and
//! `Last-Modified`-style headers, mirroring how the benchmark encodes
//! request sizes in URLs (Section VII: "each request's URL carries the
//! size of the request in the trace file").

use std::fmt::Write as _;

/// Maximum accepted head size; longer heads are an attack or a bug.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// A parsed request head.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method (the proxy only ever sees GET).
    pub method: String,
    /// Request target as sent (absolute URL in proxy requests).
    pub target: String,
    /// Protocol version token, e.g. `HTTP/1.1`.
    pub version: String,
    /// Header name/value pairs, in arrival order.
    pub headers: Vec<(String, String)>,
}

/// A parsed response head.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Reason phrase (may contain spaces).
    pub reason: String,
    /// Header name/value pairs, in arrival order.
    pub headers: Vec<(String, String)>,
}

/// Incremental parse result: either not enough bytes yet, or a value
/// plus how many bytes of the buffer it consumed.
#[derive(Debug, PartialEq, Eq)]
pub enum Parse<T> {
    /// The buffer does not yet contain a complete head.
    NeedMore,
    /// Parsed `value`; the head occupied the first `consumed` bytes.
    Done {
        /// The parsed head.
        value: T,
        /// Bytes of the buffer it consumed.
        consumed: usize,
    },
}

/// Parse errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// Head exceeded [`MAX_HEAD_BYTES`] without terminating.
    HeadTooLarge,
    /// Malformed start line.
    BadStartLine(String),
    /// Malformed header line.
    BadHeader(String),
    /// Head bytes were not valid UTF-8.
    NotUtf8,
    /// Status code was not a number.
    BadStatus(String),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::HeadTooLarge => write!(f, "HTTP head exceeds {MAX_HEAD_BYTES} bytes"),
            HttpError::BadStartLine(l) => write!(f, "bad start line: {l:?}"),
            HttpError::BadHeader(l) => write!(f, "bad header line: {l:?}"),
            HttpError::NotUtf8 => write!(f, "head is not valid UTF-8"),
            HttpError::BadStatus(s) => write!(f, "bad status code: {s:?}"),
        }
    }
}

impl std::error::Error for HttpError {}

/// Find the end of the head (the CRLFCRLF), tolerating bare LFLF.
fn head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|p| p + 4)
        .or_else(|| buf.windows(2).position(|w| w == b"\n\n").map(|p| p + 2))
}

/// Header list as parsed off the wire.
type Headers = Vec<(String, String)>;

fn parse_head_lines(head: &str) -> Result<(Vec<&str>, Headers), HttpError> {
    let mut lines = head.split("\r\n").flat_map(|l| l.split('\n'));
    let start = lines.next().unwrap_or("");
    let parts: Vec<&str> = start.split_whitespace().collect();
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::BadHeader(line.to_string()))?;
        headers.push((name.trim().to_string(), value.trim().to_string()));
    }
    Ok((parts, headers))
}

/// Try to parse a request head from the front of `buf`.
pub fn parse_request(buf: &[u8]) -> Result<Parse<Request>, HttpError> {
    let Some(end) = head_end(buf) else {
        if buf.len() > MAX_HEAD_BYTES {
            return Err(HttpError::HeadTooLarge);
        }
        return Ok(Parse::NeedMore);
    };
    let head = std::str::from_utf8(&buf[..end]).map_err(|_| HttpError::NotUtf8)?;
    let (parts, headers) = parse_head_lines(head)?;
    if parts.len() != 3 {
        return Err(HttpError::BadStartLine(
            head.lines().next().unwrap_or("").to_string(),
        ));
    }
    Ok(Parse::Done {
        value: Request {
            method: parts[0].to_string(),
            target: parts[1].to_string(),
            version: parts[2].to_string(),
            headers,
        },
        consumed: end,
    })
}

/// Try to parse a response head from the front of `buf`.
pub fn parse_response(buf: &[u8]) -> Result<Parse<Response>, HttpError> {
    let Some(end) = head_end(buf) else {
        if buf.len() > MAX_HEAD_BYTES {
            return Err(HttpError::HeadTooLarge);
        }
        return Ok(Parse::NeedMore);
    };
    let head = std::str::from_utf8(&buf[..end]).map_err(|_| HttpError::NotUtf8)?;
    let (parts, headers) = parse_head_lines(head)?;
    if parts.len() < 2 || !parts[0].starts_with("HTTP/") {
        return Err(HttpError::BadStartLine(
            head.lines().next().unwrap_or("").to_string(),
        ));
    }
    let status: u16 = parts[1]
        .parse()
        .map_err(|_| HttpError::BadStatus(parts[1].to_string()))?;
    Ok(Parse::Done {
        value: Response {
            status,
            reason: parts[2..].join(" "),
            headers,
        },
        consumed: end,
    })
}

/// Case-insensitive header lookup (first match).
pub fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(n, _)| n.eq_ignore_ascii_case(name))
        .map(|(_, v)| v.as_str())
}

/// `Content-Length`, if present and numeric.
pub fn content_length(headers: &[(String, String)]) -> Option<u64> {
    header(headers, "content-length")?.parse().ok()
}

/// Serialize a GET request head for `url` with extra headers.
pub fn build_request(url: &str, headers: &[(&str, &str)]) -> String {
    let mut s = format!("GET {url} HTTP/1.1\r\n");
    for (n, v) in headers {
        let _ = write!(s, "{n}: {v}\r\n");
    }
    s.push_str("\r\n");
    s
}

/// Serialize a response head.
pub fn build_response(status: u16, reason: &str, headers: &[(&str, &str)]) -> String {
    let mut s = format!("HTTP/1.1 {status} {reason}\r\n");
    for (n, v) in headers {
        let _ = write!(s, "{n}: {v}\r\n");
    }
    s.push_str("\r\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let head = build_request(
            "http://server-1.trace.invalid/doc/5",
            &[("Host", "server-1.trace.invalid"), ("X-Doc-Size", "1234")],
        );
        match parse_request(head.as_bytes()).unwrap() {
            Parse::Done { value, consumed } => {
                assert_eq!(consumed, head.len());
                assert_eq!(value.method, "GET");
                assert_eq!(value.target, "http://server-1.trace.invalid/doc/5");
                assert_eq!(value.version, "HTTP/1.1");
                assert_eq!(header(&value.headers, "x-doc-size"), Some("1234"));
                assert_eq!(header(&value.headers, "HOST"), Some("server-1.trace.invalid"));
                assert_eq!(header(&value.headers, "missing"), None);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn response_roundtrip_with_body_framing() {
        let head = build_response(200, "OK", &[("Content-Length", "5")]);
        let mut bytes = head.clone().into_bytes();
        bytes.extend_from_slice(b"hello");
        match parse_response(&bytes).unwrap() {
            Parse::Done { value, consumed } => {
                assert_eq!(consumed, head.len());
                assert_eq!(value.status, 200);
                assert_eq!(value.reason, "OK");
                assert_eq!(content_length(&value.headers), Some(5));
                assert_eq!(&bytes[consumed..], b"hello");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn incremental_parsing_waits_for_full_head() {
        let head = build_request("http://a/", &[("Host", "a")]);
        for cut in 1..head.len() - 1 {
            assert_eq!(
                parse_request(&head.as_bytes()[..cut]).unwrap(),
                Parse::NeedMore,
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn tolerates_bare_lf() {
        let raw = b"GET http://a/ HTTP/1.0\nHost: a\n\nrest";
        match parse_request(raw).unwrap() {
            Parse::Done { value, consumed } => {
                assert_eq!(value.version, "HTTP/1.0");
                assert_eq!(&raw[consumed..], b"rest");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rejects_malformed() {
        assert!(matches!(
            parse_request(b"NONSENSE\r\n\r\n"),
            Err(HttpError::BadStartLine(_))
        ));
        assert!(matches!(
            parse_request(b"TOO MANY PARTS HERE\r\n\r\n"),
            Err(HttpError::BadStartLine(_))
        ));
        assert!(matches!(
            parse_request(b"GET / HTTP/1.1\r\nbroken header line\r\n\r\n"),
            Err(HttpError::BadHeader(_))
        ));
        assert!(matches!(
            parse_response(b"HTTP/1.1 abc Bad\r\n\r\n"),
            Err(HttpError::BadStatus(_))
        ));
        assert!(matches!(
            parse_response(b"garbage\r\n\r\n"),
            Err(HttpError::BadStartLine(_))
        ));
    }

    #[test]
    fn oversized_head_is_an_error() {
        let mut buf = b"GET / HTTP/1.1\r\n".to_vec();
        buf.extend(std::iter::repeat_n(b'a', MAX_HEAD_BYTES + 10));
        assert_eq!(parse_request(&buf), Err(HttpError::HeadTooLarge));
    }

    /// Both parsers on `buf`: no panic, and a parsed head never claims
    /// more bytes than it was given.
    fn parse_both(buf: &[u8]) {
        if let Ok(Parse::Done { consumed, .. }) = parse_request(buf) {
            assert!(consumed <= buf.len());
        }
        if let Ok(Parse::Done { consumed, .. }) = parse_response(buf) {
            assert!(consumed <= buf.len());
        }
    }

    #[test]
    fn prop_parse_never_panics() {
        use sc_util::prop::{check, vec_of};
        let heads = [
            build_request(
                "http://s.invalid/doc/5",
                &[("X-Doc-Size", "12"), ("X-Doc-LM", "7")],
            ),
            build_response(200, "OK", &[("Content-Length", "12"), ("X-Doc-LM", "7")]),
        ];
        // Half the random bytes come from the head alphabet, so the
        // sweep reaches the line and header parsers, not just NeedMore.
        const ALPHABET: &[u8] = b"GET HTTP/1.1 200\r\n: x";
        check("http_parse_random_bytes", 512, |rng| {
            parse_both(&vec_of(rng, 0..512, |r| {
                if r.gen_bool(0.5) {
                    ALPHABET[r.gen_range(0..ALPHABET.len())]
                } else {
                    r.gen_range(0u8..=255)
                }
            }));
        });
        check("http_parse_truncations", 512, |rng| {
            for head in &heads {
                parse_both(&head.as_bytes()[..rng.gen_range(0..head.len() + 1)]);
            }
        });
        check("http_parse_one_byte_mutations", 512, |rng| {
            for head in &heads {
                let mut bytes = head.clone().into_bytes();
                let at = rng.gen_range(0..bytes.len());
                bytes[at] = rng.gen_range(0u8..=255);
                parse_both(&bytes);
            }
        });
    }

    #[test]
    fn reason_phrase_with_spaces() {
        let head = build_response(404, "Not Found", &[]);
        match parse_response(head.as_bytes()).unwrap() {
            Parse::Done { value, .. } => assert_eq!(value.reason, "Not Found"),
            other => panic!("unexpected {other:?}"),
        }
    }
}
