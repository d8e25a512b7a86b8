//! The fault-tolerant client: one connection, automatic reconnects,
//! bounded retries with deterministic backoff jitter, and a circuit
//! breaker.
//!
//! # Retry discipline
//!
//! Idempotent operations ([`submit`](WireClient::submit),
//! [`ping`](WireClient::ping), [`open_session`](WireClient::open_session))
//! are retried up to `max_retries` times across reconnects with
//! exponential backoff. Session chunks are **not** blindly retried: a
//! chunk advances resident filter state, so a chunk whose outcome is
//! unknowable (timeout after send) must not be replayed. The transport
//! instead leans on a structural fact — wire sessions are
//! connection-scoped on the server, so a dead connection *implies* the
//! server-side state is gone — and surfaces that as
//! [`WireError::SessionRestarted`], telling the caller to restart its
//! window accounting rather than silently double-applying samples.
//!
//! # Determinism
//!
//! Backoff jitter comes from the same counter-based
//! [`ptnc_faultsim::unit`] streams the fault simulator uses, keyed by
//! `jitter_seed` and the attempt counter — two clients with the same
//! seed and the same failure history sleep the same schedule, which
//! keeps chaos tests reproducible down to the retry cadence.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use ptnc_serve::{Completion, ReloadPolicy};

use crate::conn::{self, Endpoint, WireStream};
use crate::error::WireError;
use crate::proto::{ErrorCode, Request, Response};

/// Stream id for backoff jitter within the client's `jitter_seed`.
const JITTER_STREAM: u64 = 0x6A69_7474; // "jitt"

/// Knobs for [`WireClient::new`].
#[derive(Debug, Clone)]
pub struct WireClientConfig {
    /// TCP connect timeout (unix-socket connects resolve locally).
    pub connect_timeout: Duration,
    /// End-to-end deadline for one request/response exchange.
    pub request_timeout: Duration,
    /// Retries after the first attempt for idempotent operations.
    pub max_retries: u32,
    /// First backoff delay; doubles per retry.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_max: Duration,
    /// Seed for the deterministic backoff jitter stream.
    pub jitter_seed: u64,
    /// Consecutive transport failures that trip the breaker open.
    pub breaker_threshold: u32,
    /// How long a tripped breaker stays open before allowing one
    /// half-open probe.
    pub breaker_cooldown: Duration,
    /// Largest response payload accepted, bytes.
    pub max_frame_size: u32,
}

impl Default for WireClientConfig {
    fn default() -> Self {
        WireClientConfig {
            connect_timeout: Duration::from_secs(2),
            request_timeout: Duration::from_secs(10),
            max_retries: 3,
            backoff_base: Duration::from_millis(10),
            backoff_max: Duration::from_millis(500),
            jitter_seed: 0x7763_6C74, // "wclt"
            breaker_threshold: 4,
            breaker_cooldown: Duration::from_millis(250),
            max_frame_size: 1 << 22,
        }
    }
}

/// Client-side handle to a wire session. Stays valid across reconnects —
/// what does *not* survive a reconnect is the server-side filter state,
/// which [`WireClient::submit_chunk`] reports as
/// [`WireError::SessionRestarted`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SessionHandle(u64);

#[derive(Debug)]
struct ClientSession {
    tenant: String,
    policy: ReloadPolicy,
    /// The server's session id on the *current* connection, or `None`
    /// after a reconnect (or server-side eviction) orphaned it.
    server_id: Option<u64>,
}

#[derive(Debug, Clone, Copy)]
enum Breaker {
    Closed {
        failures: u32,
    },
    /// `until: None` stays open: the cooldown outlasts any instant.
    Open {
        until: Option<Instant>,
    },
    HalfOpen,
}

/// Counters for observing the client's fault handling.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Connections successfully established (first connect included).
    pub connects: u64,
    /// Retries performed (sleeps taken) across all operations.
    pub retries: u64,
    /// Times the breaker tripped open.
    pub breaker_trips: u64,
    /// Requests answered by the server's admission gate or drain
    /// (`Overloaded` / `GoingAway`).
    pub turned_away: u64,
}

/// A blocking client for one wire endpoint. Not `Sync` — use one client
/// per thread (they are cheap; the server multiplexes connections).
pub struct WireClient {
    endpoint: Endpoint,
    cfg: WireClientConfig,
    stream: Option<WireStream>,
    breaker: Breaker,
    next_request: u64,
    next_handle: u64,
    /// Bumped every time an established connection is torn down; names
    /// the era a restarted session's state belongs to.
    epoch: u64,
    /// Monotone counter feeding the jitter stream — never reused, so
    /// every sleep in the client's life has its own deterministic draw.
    jitter_ctr: u64,
    sessions: HashMap<u64, ClientSession>,
    stats: ClientStats,
    scratch: Vec<u8>,
    payload_buf: Vec<u8>,
}

impl WireClient {
    /// Creates a client for `endpoint`. No I/O happens here — the
    /// connection is established lazily by the first operation (and
    /// re-established after failures).
    pub fn new(endpoint: Endpoint, cfg: WireClientConfig) -> WireClient {
        WireClient {
            endpoint,
            cfg,
            stream: None,
            breaker: Breaker::Closed { failures: 0 },
            next_request: 1,
            next_handle: 1,
            epoch: 0,
            jitter_ctr: 0,
            sessions: HashMap::new(),
            stats: ClientStats::default(),
            scratch: Vec::new(),
            payload_buf: Vec::new(),
        }
    }

    /// Fault-handling counters.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// The current reconnect epoch (starts at 0, bumps on every torn
    /// connection).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// One-shot inference: logits plus guard health for a full window.
    /// Idempotent — retried across reconnects on transient failures.
    ///
    /// # Errors
    ///
    /// [`WireError::Server`] for typed rejections,
    /// [`WireError::RetriesExhausted`] when transients outlast the retry
    /// budget, [`WireError::CircuitOpen`] while the breaker cools down.
    pub fn submit(&mut self, tenant: &str, steps: &[f64]) -> Result<Completion, WireError> {
        let req = Request::Submit {
            tenant: tenant.to_string(),
            steps: steps.to_vec(),
        };
        match self.call_with_retry(&req)? {
            Response::Logits { logits, health } => Ok(Completion { logits, health }),
            other => Err(unexpected(&other)),
        }
    }

    /// Liveness probe. Idempotent, retried.
    ///
    /// # Errors
    ///
    /// As [`submit`](Self::submit).
    pub fn ping(&mut self) -> Result<(), WireError> {
        match self.call_with_retry(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// Opens a resident session and returns a client-side handle.
    /// Idempotent (an orphaned server-side open dies with its
    /// connection), retried.
    ///
    /// # Errors
    ///
    /// As [`submit`](Self::submit).
    pub fn open_session(
        &mut self,
        tenant: &str,
        policy: ReloadPolicy,
    ) -> Result<SessionHandle, WireError> {
        let req = Request::OpenSession {
            tenant: tenant.to_string(),
            policy,
        };
        let session = match self.call_with_retry(&req)? {
            Response::SessionOpened { session } => session,
            other => return Err(unexpected(&other)),
        };
        let handle = SessionHandle(self.next_handle);
        self.next_handle += 1;
        self.sessions.insert(
            handle.0,
            ClientSession {
                tenant: tenant.to_string(),
                policy,
                server_id: Some(session),
            },
        );
        Ok(handle)
    }

    /// Advances a session by one chunk. **Not** blindly retried — see
    /// the module docs. If the server-side state was lost (connection
    /// died, or the server evicted the session), the session is
    /// re-opened fresh and [`WireError::SessionRestarted`] is returned so
    /// the caller restarts its window accounting; the next
    /// `submit_chunk` then runs against the new state.
    ///
    /// # Errors
    ///
    /// [`WireError::UnknownHandle`] for foreign handles,
    /// [`WireError::SessionRestarted`] after state loss, plus everything
    /// [`submit`](Self::submit) can return.
    pub fn submit_chunk(
        &mut self,
        handle: SessionHandle,
        steps: &[f64],
    ) -> Result<Completion, WireError> {
        if !self.sessions.contains_key(&handle.0) {
            return Err(WireError::UnknownHandle);
        }
        let Some(server_id) = self.sessions[&handle.0].server_id else {
            return self.restart_session(handle);
        };
        let req = Request::SubmitChunk {
            session: server_id,
            steps: steps.to_vec(),
        };
        // Backpressure is the one rejection that provably did NOT touch
        // session state (the chunk was shed before enqueue), so it alone
        // is safe to retry in place.
        let mut attempt = 0u32;
        loop {
            match self.call_once(&req) {
                Ok(Response::Logits { logits, health }) => {
                    return Ok(Completion { logits, health })
                }
                Ok(Response::Error { code, detail }) => match code {
                    ErrorCode::UnknownSession => {
                        // The server no longer knows this session (idle
                        // eviction); locally it looks live. Re-open and
                        // report the restart.
                        self.sessions
                            .get_mut(&handle.0)
                            .expect("session checked above")
                            .server_id = None;
                        return self.restart_session(handle);
                    }
                    ErrorCode::Backpressure if attempt < self.cfg.max_retries => {
                        attempt += 1;
                        self.sleep_backoff(attempt);
                    }
                    _ => return Err(WireError::Server { code, detail }),
                },
                Ok(other) => return Err(unexpected(&other)),
                // A transport failure tore the connection down (and with
                // it the server-side session). Report the transport
                // error; the caller's next submit_chunk takes the
                // SessionRestarted path.
                Err(e) => return Err(e),
            }
        }
    }

    /// Re-establishes server-side state for an orphaned session.
    fn restart_session(&mut self, handle: SessionHandle) -> Result<Completion, WireError> {
        let (tenant, policy) = {
            let s = &self.sessions[&handle.0];
            (s.tenant.clone(), s.policy)
        };
        let req = Request::OpenSession { tenant, policy };
        let session = match self.call_with_retry(&req)? {
            Response::SessionOpened { session } => session,
            other => return Err(unexpected(&other)),
        };
        self.sessions
            .get_mut(&handle.0)
            .expect("session checked by callers")
            .server_id = Some(session);
        Err(WireError::SessionRestarted { epoch: self.epoch })
    }

    /// Closes a session on both sides. Returns whether the server had it
    /// open (after a reconnect the server-side half is already gone, and
    /// this reports `false` without touching the network).
    ///
    /// # Errors
    ///
    /// [`WireError::UnknownHandle`] for foreign handles; transport
    /// errors if the close frame cannot be exchanged.
    pub fn close_session(&mut self, handle: SessionHandle) -> Result<bool, WireError> {
        let Some(sess) = self.sessions.remove(&handle.0) else {
            return Err(WireError::UnknownHandle);
        };
        let Some(server_id) = sess.server_id else {
            return Ok(false);
        };
        let req = Request::CloseSession { session: server_id };
        match self.call_with_retry(&req)? {
            Response::SessionClosed { was_open } => Ok(was_open),
            other => Err(unexpected(&other)),
        }
    }

    /// Runs one idempotent request with the full retry/backoff/breaker
    /// treatment.
    fn call_with_retry(&mut self, req: &Request) -> Result<Response, WireError> {
        let mut attempts = 0u32;
        let mut last: WireError;
        loop {
            attempts += 1;
            match self.call_once(req) {
                Ok(Response::Error { code, detail }) => {
                    let e = WireError::Server { code, detail };
                    if !e.is_retryable() {
                        return Err(e);
                    }
                    last = e;
                }
                Ok(resp) => return Ok(resp),
                Err(e @ WireError::CircuitOpen { .. }) => return Err(e),
                Err(e) if e.is_retryable() => last = e,
                Err(e) => return Err(e),
            }
            if attempts > self.cfg.max_retries {
                // Wrapping is only honest if retrying actually happened;
                // a single attempt's failure is returned as itself.
                return Err(if attempts == 1 {
                    last
                } else {
                    WireError::RetriesExhausted {
                        attempts,
                        last: Box::new(last),
                    }
                });
            }
            self.sleep_backoff(attempts);
        }
    }

    /// One request/response exchange on the current (or a fresh)
    /// connection. Any transport failure tears the connection down
    /// before returning, so the next attempt starts clean.
    fn call_once(&mut self, req: &Request) -> Result<Response, WireError> {
        self.ensure_connected()?;
        let id = self.next_request;
        self.next_request += 1;
        let deadline = conn::deadline_after(self.cfg.request_timeout);

        let exchange: Result<Response, WireError> = (|| {
            req.encode(&mut self.payload_buf)?;
            let stream = self.stream.as_mut().expect("connected above");
            conn::write_frame(
                stream,
                &mut self.scratch,
                req.frame_type(),
                id,
                &self.payload_buf,
                deadline,
            )?;
            let (header, payload) = conn::read_frame(stream, self.cfg.max_frame_size, deadline)?;
            // Out-of-band frames (shed notices, drain farewells) carry
            // request id 0; everything else must echo our id. A stale id
            // means the stream is desynced (e.g. a duplicated frame left
            // an extra response queued) — that is a transport fault, not
            // a protocol violation: reconnecting fixes it, so it must be
            // retryable.
            if header.request_id != id && header.request_id != 0 {
                return Err(WireError::Io {
                    what: "read frame",
                    detail: "response id mismatch: stream desynced".to_string(),
                });
            }
            Ok(Response::decode(header.frame_type, &payload)?)
        })();

        match exchange {
            Ok(Response::Overloaded { active, capacity }) => {
                // The gate turned us away before serving; the server
                // closes the socket right after, so drop ours too.
                self.drop_connection();
                self.stats.turned_away += 1;
                Err(WireError::Overloaded { active, capacity })
            }
            Ok(Response::GoingAway) => {
                self.drop_connection();
                self.stats.turned_away += 1;
                Err(WireError::GoingAway)
            }
            Ok(resp) => {
                self.breaker = Breaker::Closed { failures: 0 };
                Ok(resp)
            }
            Err(e) => {
                self.drop_connection();
                if matches!(e, WireError::Io { .. } | WireError::Timeout { .. }) {
                    self.note_breaker_failure();
                }
                Err(e)
            }
        }
    }

    fn ensure_connected(&mut self) -> Result<(), WireError> {
        if self.stream.is_some() {
            return Ok(());
        }
        match self.breaker {
            Breaker::Open { until } => {
                let now = Instant::now();
                match until {
                    None => {
                        return Err(WireError::CircuitOpen {
                            retry_in: Duration::MAX,
                        })
                    }
                    Some(until) if now < until => {
                        return Err(WireError::CircuitOpen {
                            retry_in: until - now,
                        })
                    }
                    Some(_) => {}
                }
                self.breaker = Breaker::HalfOpen;
            }
            Breaker::Closed { .. } | Breaker::HalfOpen => {}
        }
        match WireStream::connect(&self.endpoint, self.cfg.connect_timeout) {
            Ok(s) => {
                self.stream = Some(s);
                self.stats.connects += 1;
                Ok(())
            }
            Err(e) => {
                self.note_breaker_failure();
                Err(e)
            }
        }
    }

    /// Tears down the connection and orphans every session that lived on
    /// it (their server-side halves die with the socket).
    fn drop_connection(&mut self) {
        if let Some(s) = self.stream.take() {
            s.shutdown();
            self.epoch += 1;
            for sess in self.sessions.values_mut() {
                sess.server_id = None;
            }
        }
    }

    fn note_breaker_failure(&mut self) {
        self.breaker = match self.breaker {
            Breaker::HalfOpen => {
                self.stats.breaker_trips += 1;
                Breaker::Open {
                    until: conn::deadline_after(self.cfg.breaker_cooldown),
                }
            }
            Breaker::Closed { failures } => {
                let failures = failures + 1;
                if failures >= self.cfg.breaker_threshold {
                    self.stats.breaker_trips += 1;
                    Breaker::Open {
                        until: conn::deadline_after(self.cfg.breaker_cooldown),
                    }
                } else {
                    Breaker::Closed { failures }
                }
            }
            open @ Breaker::Open { .. } => open,
        };
    }

    /// Exponential backoff with deterministic jitter: delay `k` sleeps
    /// `min(base·2ᵏ⁻¹, max)` scaled into [0.5, 1.0) by the seeded
    /// counter stream.
    fn sleep_backoff(&mut self, attempt: u32) {
        self.jitter_ctr += 1;
        let exp = attempt.saturating_sub(1).min(16);
        let raw = self
            .cfg
            .backoff_base
            .saturating_mul(1u32 << exp)
            .min(self.cfg.backoff_max);
        let jitter = 0.5
            + 0.5
                * ptnc_faultsim::unit(
                    self.cfg.jitter_seed,
                    JITTER_STREAM,
                    self.jitter_ctr,
                    u64::from(attempt),
                );
        self.stats.retries += 1;
        std::thread::sleep(raw.mul_f64(jitter));
    }
}

fn unexpected(resp: &Response) -> WireError {
    let _ = resp;
    WireError::Proto(crate::proto::ProtoError {
        what: "response type does not answer the request type",
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breaker_opens_after_threshold_and_cools_down() {
        // Point at a port nobody listens on; connects fail fast with
        // ECONNREFUSED on loopback.
        let ep = Endpoint::Tcp("127.0.0.1:1".parse().unwrap());
        let mut c = WireClient::new(
            ep,
            WireClientConfig {
                max_retries: 0,
                breaker_threshold: 2,
                breaker_cooldown: Duration::from_millis(40),
                connect_timeout: Duration::from_millis(200),
                ..WireClientConfig::default()
            },
        );
        assert!(matches!(c.ping(), Err(WireError::Io { .. })));
        assert!(matches!(c.ping(), Err(WireError::Io { .. })));
        // Threshold reached: the breaker now refuses without touching
        // the network.
        match c.ping() {
            Err(WireError::CircuitOpen { retry_in }) => {
                assert!(retry_in <= Duration::from_millis(40));
            }
            other => panic!("expected CircuitOpen, got {other:?}"),
        }
        assert_eq!(c.stats().breaker_trips, 1);
        // After the cooldown, exactly one half-open probe goes out; its
        // failure re-trips the breaker immediately.
        std::thread::sleep(Duration::from_millis(50));
        assert!(matches!(c.ping(), Err(WireError::Io { .. })));
        assert!(matches!(c.ping(), Err(WireError::CircuitOpen { .. })));
        assert_eq!(c.stats().breaker_trips, 2);
    }

    #[test]
    fn unknown_handles_are_rejected_locally() {
        let ep = Endpoint::Tcp("127.0.0.1:1".parse().unwrap());
        let mut c = WireClient::new(ep, WireClientConfig::default());
        let r = c.submit_chunk(SessionHandle(77), &[0.0]);
        assert_eq!(r.unwrap_err(), WireError::UnknownHandle);
        let r = c.close_session(SessionHandle(77));
        assert_eq!(r.unwrap_err(), WireError::UnknownHandle);
    }

    #[test]
    fn backoff_schedule_is_deterministic_and_bounded() {
        let cfg = WireClientConfig::default();
        // Replay the jitter math two ways; identical seeds must agree.
        let draw = |ctr: u64, attempt: u32| {
            0.5 + 0.5 * ptnc_faultsim::unit(cfg.jitter_seed, JITTER_STREAM, ctr, u64::from(attempt))
        };
        for (ctr, attempt) in [(1u64, 1u32), (2, 2), (3, 3), (9, 7)] {
            let a = draw(ctr, attempt);
            let b = draw(ctr, attempt);
            assert_eq!(a.to_bits(), b.to_bits());
            assert!((0.5..1.0).contains(&a));
        }
    }
}
