//! The benchmark's HTTP client: one keep-alive connection, sequential
//! GETs, every response verified.
//!
//! `sc_proxy::client::ProxyClient` is not used: it records its own
//! latency into the *daemon's* request-latency histogram, which the
//! benchmark reads as the daemon's serve time. This client also avoids
//! allocating per request — on a two-core box the load generator
//! competes with the daemons for CPU, so its own footprint is kept
//! small and constant.

use sc_cache::DocMeta;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A request that takes longer than this is abandoned as failed. Far
/// above the daemon's own worst case (a 500 ms ICP timeout), far below
/// the run's time cap.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// What came back for one GET.
#[derive(Debug, Clone, Copy)]
pub struct Reply {
    /// Status 200, body exactly as long as requested, and the version
    /// header echoed.
    pub ok: bool,
    /// When the request had been written.
    pub written: Instant,
    /// When the last body byte had been read.
    pub done: Instant,
}

/// One connection to a proxy (or, for fetch probes, to any HTTP port).
pub struct Client {
    addr: SocketAddr,
    stream: TcpStream,
    out: Vec<u8>,
    buf: Vec<u8>,
}

impl Client {
    /// Connect to `addr`.
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(Client {
            addr,
            stream,
            out: Vec::with_capacity(256),
            buf: vec![0; 80 * 1024],
        })
    }

    /// Drop the connection and open a fresh one (after an I/O error the
    /// stream's framing is unknown).
    pub fn reconnect(&mut self) -> io::Result<()> {
        *self = Client::connect(self.addr)?;
        Ok(())
    }

    /// GET `url`, expecting version `want`; drains and verifies the
    /// response.
    pub fn get(&mut self, url: &str, want: DocMeta) -> io::Result<Reply> {
        self.get_with(url, want, false)
    }

    /// As [`Client::get`], optionally marked as a peer fetch (served
    /// from the target's cache only, 404 otherwise).
    pub fn get_with(&mut self, url: &str, want: DocMeta, peer_fetch: bool) -> io::Result<Reply> {
        self.out.clear();
        write!(
            self.out,
            "GET {url} HTTP/1.1\r\nX-Doc-Size: {}\r\nX-Doc-LM: {}\r\n",
            want.size, want.last_modified
        )?;
        if peer_fetch {
            self.out.extend_from_slice(b"X-Peer-Fetch: 1\r\n");
        }
        self.out.extend_from_slice(b"\r\n");
        self.stream.write_all(&self.out)?;
        let written = Instant::now();

        // Read until the head is complete.
        let mut have = 0;
        let head_end = loop {
            if have == self.buf.len() {
                return Err(io::Error::new(io::ErrorKind::InvalidData, "response head too large"));
            }
            let n = self.stream.read(&mut self.buf[have..])?;
            if n == 0 {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "closed mid-response"));
            }
            // A terminator can straddle two reads: rescan from 3 back.
            let from = have.saturating_sub(3);
            have += n;
            if let Some(p) = self.buf[from..have].windows(4).position(|w| w == b"\r\n\r\n") {
                break from + p + 4;
            }
        };
        let head = Head::parse(&self.buf[..head_end])
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed response head"))?;

        // Drain the body: whatever followed the head, then the rest.
        let mut left = head
            .content_length
            .checked_sub((have - head_end) as u64)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "more bytes than Content-Length"))?;
        while left > 0 {
            let cap = (left.min(self.buf.len() as u64)) as usize;
            let n = self.stream.read(&mut self.buf[..cap])?;
            if n == 0 {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "body truncated"));
            }
            left -= n as u64;
        }
        Ok(Reply {
            ok: head.status == 200 && head.content_length == want.size && head.doc_lm == Some(want.last_modified),
            written,
            done: Instant::now(),
        })
    }
}

/// The three response-head fields the benchmark checks.
struct Head {
    status: u16,
    content_length: u64,
    doc_lm: Option<u64>,
}

impl Head {
    fn parse(head: &[u8]) -> Option<Head> {
        let text = std::str::from_utf8(head).ok()?;
        let mut lines = text.split("\r\n");
        let status = lines.next()?.split(' ').nth(1)?.parse().ok()?;
        let mut content_length = 0;
        let mut doc_lm = None;
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().ok()?;
            } else if name.eq_ignore_ascii_case("x-doc-lm") {
                doc_lm = value.trim().parse().ok();
            }
        }
        Some(Head {
            status,
            content_length,
            doc_lm,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_fields_are_found_case_insensitively() {
        let h = Head::parse(b"HTTP/1.1 200 OK\r\ncontent-length: 12\r\nX-DOC-LM: 7\r\n\r\n").unwrap();
        assert_eq!((h.status, h.content_length, h.doc_lm), (200, 12, Some(7)));
        let h = Head::parse(b"HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n").unwrap();
        assert_eq!((h.status, h.content_length, h.doc_lm), (404, 0, None));
        assert!(Head::parse(b"garbage\r\n\r\n").is_none());
    }
}
