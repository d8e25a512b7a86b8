//! Transport plumbing shared by the client and server: the
//! [`Endpoint`]/[`WireStream`] abstraction over TCP and unix sockets, and
//! deadline-bounded frame read/write primitives.
//!
//! Every blocking socket operation here takes an optional [`Instant`]
//! deadline and runs in `set_read_timeout` / `set_write_timeout` slices of
//! at most 50 ms, so no socket call blocks longer than one slice. `None`
//! means no deadline: [`deadline_after`] returns it for a configured
//! duration too large to represent, such as `Duration::MAX`. Deadline
//! expiry folds into
//! [`WireError::Timeout`]; after one, the stream's byte position is
//! unknowable, so callers must close the connection (both client and
//! server do).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::error::WireError;
use crate::frame::{self, FrameHeader, FrameType, HEADER_LEN};

/// Where a wire server listens / a client connects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A TCP socket address (`127.0.0.1:0` binds an ephemeral port; the
    /// bound endpoint is readable from [`crate::server::WireServer::endpoint`]).
    Tcp(SocketAddr),
    /// A filesystem unix-domain socket path.
    Unix(PathBuf),
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Tcp(addr) => write!(f, "tcp://{addr}"),
            Endpoint::Unix(path) => write!(f, "unix://{}", path.display()),
        }
    }
}

/// A bound listener for either endpoint flavor, driven in nonblocking
/// mode so the accept loop can poll a stop flag instead of needing a
/// wake-up connection hack at shutdown.
pub(crate) enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

impl Listener {
    pub(crate) fn bind(endpoint: &Endpoint) -> Result<(Listener, Endpoint), WireError> {
        match endpoint {
            Endpoint::Tcp(addr) => {
                let l = TcpListener::bind(addr).map_err(|e| WireError::io("bind", &e))?;
                l.set_nonblocking(true)
                    .map_err(|e| WireError::io("bind", &e))?;
                let bound = l.local_addr().map_err(|e| WireError::io("bind", &e))?;
                Ok((Listener::Tcp(l), Endpoint::Tcp(bound)))
            }
            Endpoint::Unix(path) => {
                // A stale socket file from a crashed predecessor would
                // make bind fail with AddrInUse even though nobody is
                // listening; removing first is the conventional fix.
                let _ = std::fs::remove_file(path);
                let l = UnixListener::bind(path).map_err(|e| WireError::io("bind", &e))?;
                l.set_nonblocking(true)
                    .map_err(|e| WireError::io("bind", &e))?;
                Ok((Listener::Unix(l), Endpoint::Unix(path.clone())))
            }
        }
    }

    /// Nonblocking accept: `Ok(Some)` on a new connection (switched back
    /// to blocking mode), `Ok(None)` when no connection is pending.
    pub(crate) fn try_accept(&self) -> Result<Option<WireStream>, WireError> {
        let stream = match self {
            Listener::Tcp(l) => match l.accept() {
                Ok((s, _)) => WireStream::Tcp(s),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(None),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => return Ok(None),
                Err(e) => return Err(WireError::io("accept", &e)),
            },
            Listener::Unix(l) => match l.accept() {
                Ok((s, _)) => WireStream::Unix(s),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(None),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => return Ok(None),
                Err(e) => return Err(WireError::io("accept", &e)),
            },
        };
        // Accepted sockets inherit the listener's nonblocking flag on
        // some platforms; the per-connection handlers use blocking reads
        // with timeouts, so flip it back explicitly.
        stream.set_nonblocking(false)?;
        Ok(Some(stream))
    }
}

/// One established connection, TCP or unix.
#[derive(Debug)]
pub(crate) enum WireStream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl WireStream {
    pub(crate) fn connect(endpoint: &Endpoint, timeout: Duration) -> Result<WireStream, WireError> {
        match endpoint {
            Endpoint::Tcp(addr) => TcpStream::connect_timeout(addr, timeout)
                .map(WireStream::Tcp)
                .map_err(|e| WireError::io("connect", &e)),
            // UnixStream has no connect_timeout in std; unix-socket
            // connects complete locally (the kernel either has a
            // listener or it does not), so plain connect is bounded in
            // practice.
            Endpoint::Unix(path) => UnixStream::connect(path)
                .map(WireStream::Unix)
                .map_err(|e| WireError::io("connect", &e)),
        }
    }

    fn set_nonblocking(&self, nb: bool) -> Result<(), WireError> {
        match self {
            WireStream::Tcp(s) => s.set_nonblocking(nb),
            WireStream::Unix(s) => s.set_nonblocking(nb),
        }
        .map_err(|e| WireError::io("set_nonblocking", &e))
    }

    fn set_read_timeout(&self, t: Duration) -> Result<(), WireError> {
        let t = t.max(Duration::from_millis(1));
        match self {
            WireStream::Tcp(s) => s.set_read_timeout(Some(t)),
            WireStream::Unix(s) => s.set_read_timeout(Some(t)),
        }
        .map_err(|e| WireError::io("set_read_timeout", &e))
    }

    fn set_write_timeout(&self, t: Duration) -> Result<(), WireError> {
        let t = t.max(Duration::from_millis(1));
        match self {
            WireStream::Tcp(s) => s.set_write_timeout(Some(t)),
            WireStream::Unix(s) => s.set_write_timeout(Some(t)),
        }
        .map_err(|e| WireError::io("set_write_timeout", &e))
    }

    /// Best-effort full shutdown; errors ignored (the peer may already
    /// be gone, which is exactly when we most want to shut down).
    pub(crate) fn shutdown(&self) {
        match self {
            WireStream::Tcp(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
            WireStream::Unix(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
        }
    }

    fn read_some(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            WireStream::Tcp(s) => s.read(buf),
            WireStream::Unix(s) => s.read(buf),
        }
    }

    fn write_some(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            WireStream::Tcp(s) => s.write(buf),
            WireStream::Unix(s) => s.write(buf),
        }
    }
}

/// What turning an ear to the socket between frames produced.
pub(crate) enum IdleRead {
    /// A first byte arrived; the frame clock starts now.
    Byte(u8),
    /// Clean EOF between frames — the peer hung up politely.
    Eof,
    /// The idle slice elapsed with no bytes; check the stop flag and
    /// listen again.
    Quiet,
}

/// Waits up to `slice` for the first byte of the next frame. Unlike the
/// mid-frame reads below, quiet here is not an error — a connection may
/// idle between requests for as long as it likes.
pub(crate) fn read_idle_byte(
    stream: &mut WireStream,
    slice: Duration,
) -> Result<IdleRead, WireError> {
    stream.set_read_timeout(slice)?;
    let mut b = [0u8; 1];
    loop {
        match stream.read_some(&mut b) {
            Ok(0) => return Ok(IdleRead::Eof),
            Ok(_) => return Ok(IdleRead::Byte(b[0])),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                return Ok(IdleRead::Quiet)
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(WireError::io("read", &e)),
        }
    }
}

/// Longest single socket wait; deadlines are checked between slices.
const SLICE: Duration = Duration::from_millis(50);

/// The deadline `timeout` from now, or `None` (no deadline) when that
/// instant is not representable — a `Duration::MAX` configuration means
/// "wait as long as it takes", not an overflow panic.
pub(crate) fn deadline_after(timeout: Duration) -> Option<Instant> {
    Instant::now().checked_add(timeout)
}

/// The socket timeout for the next slice, or `Timeout` once `deadline`
/// has passed.
fn next_slice(deadline: Option<Instant>, what: &'static str) -> Result<Duration, WireError> {
    let Some(deadline) = deadline else {
        return Ok(SLICE);
    };
    let now = Instant::now();
    if now >= deadline {
        return Err(WireError::Timeout { what });
    }
    Ok((deadline - now).min(SLICE))
}

/// Reads exactly `buf.len()` bytes before `deadline`, slicing the socket
/// timeout so a peer that trickles one byte per slice still cannot hold
/// the thread past the deadline.
pub(crate) fn read_exact_deadline(
    stream: &mut WireStream,
    buf: &mut [u8],
    deadline: Option<Instant>,
    what: &'static str,
) -> Result<(), WireError> {
    let mut at = 0;
    while at < buf.len() {
        stream.set_read_timeout(next_slice(deadline, what)?)?;
        match stream.read_some(&mut buf[at..]) {
            Ok(0) => {
                return Err(WireError::Io {
                    what,
                    detail: "connection closed mid-frame".to_string(),
                })
            }
            Ok(n) => at += n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::io(what, &e)),
        }
    }
    Ok(())
}

/// Writes all of `buf` before `deadline`, same slicing discipline as
/// [`read_exact_deadline`].
pub(crate) fn write_all_deadline(
    stream: &mut WireStream,
    buf: &[u8],
    deadline: Option<Instant>,
    what: &'static str,
) -> Result<(), WireError> {
    let mut at = 0;
    while at < buf.len() {
        stream.set_write_timeout(next_slice(deadline, what)?)?;
        match stream.write_some(&buf[at..]) {
            Ok(0) => {
                return Err(WireError::Io {
                    what,
                    detail: "connection closed mid-write".to_string(),
                })
            }
            Ok(n) => at += n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::io(what, &e)),
        }
    }
    Ok(())
}

/// Encodes and writes one frame within `deadline`.
pub(crate) fn write_frame(
    stream: &mut WireStream,
    scratch: &mut Vec<u8>,
    frame_type: FrameType,
    request_id: u64,
    payload: &[u8],
    deadline: Option<Instant>,
) -> Result<(), WireError> {
    frame::encode_frame(scratch, frame_type, request_id, payload);
    write_all_deadline(stream, scratch, deadline, "write frame")
}

/// Reads the remaining `HEADER_LEN - 1` header bytes (after an idle read
/// already consumed `first`), validates the header, reads the payload,
/// and checks the CRC — all before `deadline`.
pub(crate) fn read_frame_after_first_byte(
    stream: &mut WireStream,
    first: u8,
    max_payload: u32,
    deadline: Option<Instant>,
) -> Result<(FrameHeader, Vec<u8>), WireError> {
    let mut header = [0u8; HEADER_LEN];
    header[0] = first;
    read_exact_deadline(stream, &mut header[1..], deadline, "read frame header")?;
    finish_frame(stream, &header, max_payload, deadline)
}

/// Reads one whole frame (header + payload + CRC check) before
/// `deadline`. Used by the client, whose response wait is one deadline.
pub(crate) fn read_frame(
    stream: &mut WireStream,
    max_payload: u32,
    deadline: Option<Instant>,
) -> Result<(FrameHeader, Vec<u8>), WireError> {
    let mut header = [0u8; HEADER_LEN];
    read_exact_deadline(stream, &mut header, deadline, "read frame header")?;
    finish_frame(stream, &header, max_payload, deadline)
}

fn finish_frame(
    stream: &mut WireStream,
    header: &[u8; HEADER_LEN],
    max_payload: u32,
    deadline: Option<Instant>,
) -> Result<(FrameHeader, Vec<u8>), WireError> {
    let header = frame::decode_header(header, max_payload)?;
    let mut payload = vec![0u8; header.payload_len as usize];
    read_exact_deadline(stream, &mut payload, deadline, "read frame payload")?;
    frame::check_payload(&header, &payload)?;
    Ok((header, payload))
}
