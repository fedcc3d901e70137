//! The socket shell every TCP endpoint shares: the daemon, the origin
//! emulator and the admin endpoint accept through [`spawn_accept_loop`],
//! and every server and the [`crate::client::ProxyClient`] read HTTP
//! heads through [`read_head`].

use sc_wire::http::{HttpError, Parse};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How long the accept loop naps when no connection is waiting.
const ACCEPT_POLL: Duration = Duration::from_millis(2);

/// Accept connections on `listener` until `shutdown` flips, serving each
/// on its own thread with `serve`. Returns as soon as the loop runs.
pub(crate) fn spawn_accept_loop<F>(
    listener: TcpListener,
    shutdown: Arc<AtomicBool>,
    serve: F,
) -> io::Result<()>
where
    F: Fn(TcpStream) + Send + Sync + 'static,
{
    listener.set_nonblocking(true)?;
    let serve = Arc::new(serve);
    std::thread::spawn(move || {
        while !shutdown.load(Ordering::Relaxed) {
            match listener.accept() {
                Ok((stream, _)) => {
                    // Request/response exchanges are small; Nagle +
                    // delayed ACK would add ~40 ms per turn.
                    let _ = stream.set_nodelay(true);
                    let _ = stream.set_nonblocking(false);
                    let serve = serve.clone();
                    std::thread::spawn(move || serve(stream));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(ACCEPT_POLL);
                }
                Err(_) => break,
            }
        }
    });
    Ok(())
}

/// Read from `stream` into `buf` until `parse` finds a complete head at
/// its front; drain the head from `buf` and return it with its length.
/// Bytes read past the head (the start of a body) stay in `buf`.
///
/// A clean EOF before any byte of a new head is `Ok(None)`; EOF inside a
/// head is `UnexpectedEof`, and a head `parse` rejects is `InvalidData`.
pub(crate) fn read_head<T>(
    stream: &mut impl Read,
    buf: &mut Vec<u8>,
    parse: impl Fn(&[u8]) -> Result<Parse<T>, HttpError>,
) -> io::Result<Option<(T, usize)>> {
    loop {
        match parse(buf).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))? {
            Parse::Done { value, consumed } => {
                buf.drain(..consumed);
                return Ok(Some((value, consumed)));
            }
            Parse::NeedMore => {
                let mut chunk = [0u8; 4096];
                let n = stream.read(&mut chunk)?;
                if n == 0 {
                    return if buf.is_empty() {
                        Ok(None)
                    } else {
                        Err(io::ErrorKind::UnexpectedEof.into())
                    };
                }
                buf.extend_from_slice(&chunk[..n]);
            }
        }
    }
}

/// Write `size` synthesized body bytes in chunks.
pub(crate) fn write_body<W: Write>(w: &mut W, size: u64) -> io::Result<()> {
    const CHUNK: usize = 16 * 1024;
    static FILL: [u8; CHUNK] = [b'x'; CHUNK];
    let mut left = size;
    while left > 0 {
        let n = (left as usize).min(CHUNK);
        w.write_all(&FILL[..n])?;
        left -= n as u64;
    }
    Ok(())
}
