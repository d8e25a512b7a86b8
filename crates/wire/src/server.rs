//! The wire-facing server: an accept loop plus per-connection handler
//! threads that bridge framed requests onto a [`ptnc_serve::Server`].
//!
//! Robustness posture, in order of the damage each rule prevents:
//!
//! - **Admission gate.** Connections beyond `max_connections` get a
//!   best-effort [`Overloaded`](crate::proto::Response::Overloaded) frame
//!   and an immediate close — capacity pressure is told apart from a
//!   crash by every client.
//! - **Deadlines everywhere.** Once a frame's first byte arrives, the
//!   rest must land within `read_deadline`; responses must flush within
//!   `write_deadline`; the scheduler must answer within
//!   `request_deadline`. A stalled peer or worker costs one bounded
//!   thread-wait, never a hang.
//! - **Desync means close.** A bad magic/version/CRC leaves the byte
//!   stream position meaningless, so the connection is counted and
//!   closed; only *well-framed* garbage (a payload that fails to decode)
//!   is answered in-band, because framing is still trustworthy then.
//! - **Graceful drain.** Shutdown stops the accept loop, lets each
//!   connection finish the request it is mid-way through, sends
//!   [`GoingAway`](crate::proto::Response::GoingAway), closes, and only
//!   then tears down the scheduler — in-flight work completes, new work
//!   is refused, nobody observes a torn response.
//! - **Connection-scoped sessions.** Wire sessions are looked up through
//!   a per-connection table, so a client can only ever address sessions
//!   it opened on that connection (no cross-connection hijack by id
//!   guessing), and a vanished client's resident state is closed with
//!   its connection instead of leaking until the idle sweeper finds it.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ptnc_infer::Health;
use ptnc_serve::{Server, SessionId};

use crate::conn::{self, Endpoint, IdleRead, Listener, WireStream};
use crate::error::WireError;
use crate::frame::FrameError;
use crate::proto::{code_of, ErrorCode, Request, Response};

/// Knobs for [`WireServer::bind`]. The defaults are sized for tests and
/// single-host deployments; production would raise `max_connections`.
#[derive(Debug, Clone)]
pub struct WireServerConfig {
    /// Connections served concurrently; arrivals beyond this are shed
    /// with an `Overloaded` frame.
    pub max_connections: usize,
    /// Largest accepted frame payload, bytes. Frames declaring more are
    /// a protocol violation (connection closed), not an allocation.
    pub max_frame_size: u32,
    /// Once a frame's first byte arrives, the rest of it must arrive
    /// within this long.
    pub read_deadline: Duration,
    /// A response frame must flush within this long.
    pub write_deadline: Duration,
    /// How long a handler waits on the scheduler for one request before
    /// answering `Deadline` (the ticket is abandoned, the connection
    /// survives).
    pub request_deadline: Duration,
    /// How long [`WireServer::shutdown`] waits for connections to finish
    /// their in-flight request and acknowledge the drain before giving
    /// up on them.
    pub drain_deadline: Duration,
    /// Granularity of the between-frames listen (and of the accept
    /// loop's stop-flag poll). Small values notice shutdown faster at
    /// the cost of more wakeups.
    pub idle_poll: Duration,
}

impl Default for WireServerConfig {
    fn default() -> Self {
        WireServerConfig {
            max_connections: 64,
            max_frame_size: 1 << 22, // 4 MiB ≈ 512k f64 samples per frame
            read_deadline: Duration::from_secs(2),
            write_deadline: Duration::from_secs(2),
            request_deadline: Duration::from_secs(10),
            drain_deadline: Duration::from_secs(5),
            idle_poll: Duration::from_millis(10),
        }
    }
}

/// Transport-level counters, all monotone, all readable while serving.
#[derive(Debug, Default)]
pub struct WireStats {
    connections_accepted: AtomicU64,
    connections_shed: AtomicU64,
    frames_read: AtomicU64,
    frames_written: AtomicU64,
    crc_rejected: AtomicU64,
    protocol_errors: AtomicU64,
    deadline_closes: AtomicU64,
    requests_ok: AtomicU64,
    requests_failed: AtomicU64,
    going_away_sent: AtomicU64,
}

/// Point-in-time copy of [`WireStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireStatsSnapshot {
    /// Connections admitted past the gate.
    pub connections_accepted: u64,
    /// Connections shed by the admission gate.
    pub connections_shed: u64,
    /// Frames fully read and CRC-verified.
    pub frames_read: u64,
    /// Frames written (responses plus shed/drain notices).
    pub frames_written: u64,
    /// Frames rejected for a CRC mismatch (each also closes its
    /// connection).
    pub crc_rejected: u64,
    /// Frames rejected for framing violations other than CRC (bad magic,
    /// version, type, reserved bits, oversize) plus role confusion.
    pub protocol_errors: u64,
    /// Connections closed because a peer stalled mid-frame or a response
    /// would not flush.
    pub deadline_closes: u64,
    /// Requests answered with a success frame.
    pub requests_ok: u64,
    /// Requests answered with a typed error frame (including scheduler
    /// deadline expiries).
    pub requests_failed: u64,
    /// `GoingAway` frames sent during drains.
    pub going_away_sent: u64,
}

impl WireStats {
    fn snapshot(&self) -> WireStatsSnapshot {
        WireStatsSnapshot {
            connections_accepted: self.connections_accepted.load(Ordering::Relaxed),
            connections_shed: self.connections_shed.load(Ordering::Relaxed),
            frames_read: self.frames_read.load(Ordering::Relaxed),
            frames_written: self.frames_written.load(Ordering::Relaxed),
            crc_rejected: self.crc_rejected.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            deadline_closes: self.deadline_closes.load(Ordering::Relaxed),
            requests_ok: self.requests_ok.load(Ordering::Relaxed),
            requests_failed: self.requests_failed.load(Ordering::Relaxed),
            going_away_sent: self.going_away_sent.load(Ordering::Relaxed),
        }
    }
}

struct SharedState {
    server: Arc<Server>,
    cfg: WireServerConfig,
    stop: AtomicBool,
    live: AtomicUsize,
    next_conn: AtomicU64,
    stats: WireStats,
    /// Handler threads, reaped opportunistically by the accept loop and
    /// definitively by `shutdown`.
    handlers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

/// A listening wire endpoint in front of a [`ptnc_serve::Server`].
pub struct WireServer {
    shared: Arc<SharedState>,
    endpoint: Endpoint,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl WireServer {
    /// Binds `endpoint` and starts accepting. `Endpoint::Tcp` with port 0
    /// binds an ephemeral port — read the real one back from
    /// [`endpoint`](Self::endpoint).
    ///
    /// # Errors
    ///
    /// [`WireError::Io`] when the bind fails.
    pub fn bind(
        server: Arc<Server>,
        endpoint: &Endpoint,
        cfg: WireServerConfig,
    ) -> Result<WireServer, WireError> {
        let (listener, bound) = Listener::bind(endpoint)?;
        let shared = Arc::new(SharedState {
            server,
            cfg,
            stop: AtomicBool::new(false),
            live: AtomicUsize::new(0),
            next_conn: AtomicU64::new(0),
            stats: WireStats::default(),
            handlers: Mutex::new(Vec::new()),
        });
        let loop_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name("ptnc-wire-accept".into())
            .spawn(move || accept_loop(&loop_shared, &listener))
            .expect("spawn wire accept thread");
        Ok(WireServer {
            shared,
            endpoint: bound,
            accept_thread: Some(accept_thread),
        })
    }

    /// The endpoint actually bound (with the ephemeral port resolved).
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// Transport counters.
    pub fn stats(&self) -> WireStatsSnapshot {
        self.shared.stats.snapshot()
    }

    /// Connections currently live.
    pub fn live_connections(&self) -> usize {
        self.shared.live.load(Ordering::Acquire)
    }

    /// The non-joining half of [`shutdown`](Self::shutdown): stops the
    /// accept loop and tells handlers to drain. Idempotent, callable
    /// from any thread.
    pub fn begin_shutdown(&self) {
        self.shared.stop.store(true, Ordering::Release);
    }

    /// Graceful drain: stop accepting, let every connection finish its
    /// in-flight request and send `GoingAway`, join the handlers (up to
    /// `drain_deadline`, then hard-close their sockets is left to OS
    /// teardown), and finally [`Server::begin_shutdown`] the scheduler so
    /// queued work is failed rather than stranded.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.begin_shutdown();
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
        let deadline = conn::deadline_after(self.shared.cfg.drain_deadline);
        let handlers = {
            let mut guard = self
                .shared
                .handlers
                .lock()
                .expect("wire handler registry poisoned");
            std::mem::take(&mut *guard)
        };
        for h in handlers {
            // Handlers poll the stop flag at idle_poll granularity and
            // bound every blocking wait, so they exit promptly; the
            // deadline is a backstop, not the expected path.
            if deadline.is_none_or(|d| Instant::now() < d) {
                let _ = h.join();
            }
        }
        // Scheduler last: in-flight tickets above were allowed to finish.
        self.shared.server.begin_shutdown();
    }
}

impl Drop for WireServer {
    fn drop(&mut self) {
        if self.accept_thread.is_some() {
            self.shutdown_inner();
        }
    }
}

fn accept_loop(shared: &Arc<SharedState>, listener: &Listener) {
    while !shared.stop.load(Ordering::Acquire) {
        match listener.try_accept() {
            Ok(Some(stream)) => admit(shared, stream),
            Ok(None) => std::thread::sleep(shared.cfg.idle_poll),
            // Transient accept errors (EMFILE under load, aborted
            // handshakes) must not kill the listener.
            Err(_) => std::thread::sleep(shared.cfg.idle_poll),
        }
        reap_finished(shared);
    }
}

fn admit(shared: &Arc<SharedState>, mut stream: WireStream) {
    let live = shared.live.load(Ordering::Acquire);
    if live >= shared.cfg.max_connections {
        shared
            .stats
            .connections_shed
            .fetch_add(1, Ordering::Relaxed);
        let mut scratch = Vec::new();
        let mut payload = Vec::new();
        Response::Overloaded {
            active: live as u32,
            capacity: shared.cfg.max_connections as u32,
        }
        .encode(&mut payload);
        // Best effort: the client learns why if the bytes fit in the
        // socket buffer; either way the connection closes now.
        let _ = conn::write_frame(
            &mut stream,
            &mut scratch,
            Response::Overloaded {
                active: live as u32,
                capacity: shared.cfg.max_connections as u32,
            }
            .frame_type(),
            0,
            &payload,
            conn::deadline_after(shared.cfg.write_deadline),
        );
        shared.stats.frames_written.fetch_add(1, Ordering::Relaxed);
        stream.shutdown();
        return;
    }
    shared.live.fetch_add(1, Ordering::AcqRel);
    shared
        .stats
        .connections_accepted
        .fetch_add(1, Ordering::Relaxed);
    let conn_id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
    let handler_shared = Arc::clone(shared);
    let handle = std::thread::Builder::new()
        .name(format!("ptnc-wire-conn-{conn_id}"))
        .spawn(move || {
            handle_connection(&handler_shared, stream, conn_id);
            handler_shared.live.fetch_sub(1, Ordering::AcqRel);
        })
        .expect("spawn wire connection thread");
    shared
        .handlers
        .lock()
        .expect("wire handler registry poisoned")
        .push(handle);
}

fn reap_finished(shared: &SharedState) {
    let mut guard = shared
        .handlers
        .lock()
        .expect("wire handler registry poisoned");
    let mut still_running = Vec::with_capacity(guard.len());
    for h in guard.drain(..) {
        if h.is_finished() {
            let _ = h.join();
        } else {
            still_running.push(h);
        }
    }
    *guard = still_running;
}

/// Why a connection's serve loop ended — decides whether a `GoingAway`
/// farewell is owed and which counter the exit lands in.
enum ConnExit {
    PeerClosed,
    Draining,
    Desynced,
    DeadPeer,
}

fn handle_connection(shared: &SharedState, mut stream: WireStream, conn_id: u64) {
    // Per-connection counters live in the scheduler's StatsRegistry
    // beside the tenant rows, so one snapshot shows both views.
    let conn_stats = shared.server.stats().tenant(&format!("conn-{conn_id:06}"));
    // Wire session ids are scoped to this table — and therefore to this
    // connection.
    let mut sessions: HashMap<u64, SessionId> = HashMap::new();
    let mut scratch = Vec::new();
    let mut payload_buf = Vec::new();

    let exit = serve_frames(
        shared,
        &mut stream,
        &conn_stats,
        &mut sessions,
        &mut scratch,
        &mut payload_buf,
    );

    match exit {
        ConnExit::Draining => {
            let deadline = conn::deadline_after(shared.cfg.write_deadline);
            Response::GoingAway.encode(&mut payload_buf);
            if conn::write_frame(
                &mut stream,
                &mut scratch,
                Response::GoingAway.frame_type(),
                0,
                &payload_buf,
                deadline,
            )
            .is_ok()
            {
                shared.stats.frames_written.fetch_add(1, Ordering::Relaxed);
                shared.stats.going_away_sent.fetch_add(1, Ordering::Relaxed);
            }
        }
        ConnExit::PeerClosed | ConnExit::Desynced | ConnExit::DeadPeer => {}
    }
    stream.shutdown();

    // The peer is gone; its resident filter state must not outlive it.
    for (_, sid) in sessions.drain() {
        let _ = shared.server.close_session(sid);
    }
}

fn serve_frames(
    shared: &SharedState,
    stream: &mut WireStream,
    conn_stats: &ptnc_serve::TenantStats,
    sessions: &mut HashMap<u64, SessionId>,
    scratch: &mut Vec<u8>,
    payload_buf: &mut Vec<u8>,
) -> ConnExit {
    loop {
        // Between frames: listen in idle slices, watching the drain flag.
        let first = loop {
            if shared.stop.load(Ordering::Acquire) {
                return ConnExit::Draining;
            }
            match conn::read_idle_byte(stream, shared.cfg.idle_poll) {
                Ok(IdleRead::Byte(b)) => break b,
                Ok(IdleRead::Eof) => return ConnExit::PeerClosed,
                Ok(IdleRead::Quiet) => continue,
                Err(_) => return ConnExit::DeadPeer,
            }
        };

        // First byte seen: the rest of the frame is on the read deadline.
        let frame = conn::read_frame_after_first_byte(
            stream,
            first,
            shared.cfg.max_frame_size,
            conn::deadline_after(shared.cfg.read_deadline),
        );
        let (header, payload) = match frame {
            Ok(f) => f,
            Err(WireError::Frame(FrameError::CrcMismatch { .. })) => {
                shared.stats.crc_rejected.fetch_add(1, Ordering::Relaxed);
                return ConnExit::Desynced;
            }
            Err(WireError::Frame(_)) => {
                shared.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                return ConnExit::Desynced;
            }
            Err(WireError::Timeout { .. }) => {
                shared.stats.deadline_closes.fetch_add(1, Ordering::Relaxed);
                return ConnExit::DeadPeer;
            }
            Err(_) => return ConnExit::DeadPeer,
        };
        shared.stats.frames_read.fetch_add(1, Ordering::Relaxed);

        let request = match Request::decode(header.frame_type, &payload) {
            Ok(r) => r,
            Err(e) => {
                // Framing (and thus stream sync) is intact — answer the
                // nonsense in-band and keep serving.
                shared.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                conn_stats.record_rejected();
                let resp = Response::Error {
                    code: ErrorCode::Malformed,
                    detail: e.to_string(),
                };
                match send_response(
                    shared,
                    stream,
                    scratch,
                    payload_buf,
                    header.request_id,
                    &resp,
                ) {
                    Ok(()) => continue,
                    Err(exit) => return exit,
                }
            }
        };

        let response = dispatch(shared, conn_stats, sessions, request);
        match &response {
            Response::Logits { .. }
            | Response::SessionOpened { .. }
            | Response::SessionClosed { .. }
            | Response::Pong => {
                shared.stats.requests_ok.fetch_add(1, Ordering::Relaxed);
            }
            _ => {
                shared.stats.requests_failed.fetch_add(1, Ordering::Relaxed);
            }
        }
        match send_response(
            shared,
            stream,
            scratch,
            payload_buf,
            header.request_id,
            &response,
        ) {
            Ok(()) => {}
            Err(exit) => return exit,
        }
    }
}

fn send_response(
    shared: &SharedState,
    stream: &mut WireStream,
    scratch: &mut Vec<u8>,
    payload_buf: &mut Vec<u8>,
    request_id: u64,
    response: &Response,
) -> Result<(), ConnExit> {
    response.encode(payload_buf);
    match conn::write_frame(
        stream,
        scratch,
        response.frame_type(),
        request_id,
        payload_buf,
        conn::deadline_after(shared.cfg.write_deadline),
    ) {
        Ok(()) => {
            shared.stats.frames_written.fetch_add(1, Ordering::Relaxed);
            Ok(())
        }
        Err(WireError::Timeout { .. }) => {
            shared.stats.deadline_closes.fetch_add(1, Ordering::Relaxed);
            Err(ConnExit::DeadPeer)
        }
        Err(_) => Err(ConnExit::DeadPeer),
    }
}

fn dispatch(
    shared: &SharedState,
    conn_stats: &ptnc_serve::TenantStats,
    sessions: &mut HashMap<u64, SessionId>,
    request: Request,
) -> Response {
    let server = &shared.server;
    match request {
        Request::Ping => Response::Pong,
        Request::Submit { tenant, steps } => {
            run_ticket(shared, conn_stats, server.submit(&tenant, &steps))
        }
        Request::OpenSession { tenant, policy } => match server.open_session(&tenant, policy) {
            Ok(id) => {
                sessions.insert(id.raw(), id);
                Response::SessionOpened { session: id.raw() }
            }
            Err(e) => error_response(conn_stats, &e),
        },
        Request::SubmitChunk { session, steps } => {
            let Some(&sid) = sessions.get(&session) else {
                conn_stats.record_rejected();
                return Response::Error {
                    code: ErrorCode::UnknownSession,
                    detail: format!("session {session} is not open on this connection"),
                };
            };
            run_ticket(shared, conn_stats, server.submit_chunk(sid, &steps))
        }
        Request::CloseSession { session } => {
            let was_open = sessions
                .remove(&session)
                .is_some_and(|sid| server.close_session(sid));
            Response::SessionClosed { was_open }
        }
    }
}

fn run_ticket(
    shared: &SharedState,
    conn_stats: &ptnc_serve::TenantStats,
    submitted: Result<ptnc_serve::Ticket, ptnc_serve::ServingError>,
) -> Response {
    let started = Instant::now();
    let ticket = match submitted {
        Ok(t) => t,
        Err(e) => return error_response(conn_stats, &e),
    };
    let timesteps = ticket.timesteps;
    match ticket.wait_outcome_timeout(shared.cfg.request_deadline) {
        Ok(Ok(completion)) => {
            let latency = started.elapsed().as_micros() as u64;
            conn_stats.record_completed(timesteps, latency);
            conn_stats.record_guard(
                completion.health == Health::Degraded,
                completion.health == Health::Faulted,
            );
            Response::Logits {
                logits: completion.logits,
                health: completion.health,
            }
        }
        Ok(Err(e)) => error_response(conn_stats, &e),
        Err(abandoned) => {
            // The scheduler blew the deadline. Dropping the ticket
            // abandons the result — the worker still completes the slot,
            // nothing dangles — and the connection answers in-band so
            // the client can retry on its own schedule.
            drop(abandoned);
            shared.stats.deadline_closes.fetch_add(1, Ordering::Relaxed);
            Response::Error {
                code: ErrorCode::Deadline,
                detail: format!(
                    "scheduler exceeded the {:?} request deadline",
                    shared.cfg.request_deadline
                ),
            }
        }
    }
}

fn error_response(conn_stats: &ptnc_serve::TenantStats, e: &ptnc_serve::ServingError) -> Response {
    let code = code_of(e);
    match code {
        ErrorCode::Backpressure => conn_stats.record_shed(),
        ErrorCode::BadRequest | ErrorCode::TooManySteps => conn_stats.record_rejected(),
        _ => {}
    }
    Response::Error {
        code,
        detail: e.to_string(),
    }
}
