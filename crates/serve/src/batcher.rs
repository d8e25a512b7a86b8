//! Dynamic micro-batching: many concurrent logical streams, each
//! submitting full sequences, coalesced into wide `run_batch_into` calls
//! on a fixed worker pool.
//!
//! ## Shape of the problem
//!
//! A printed-sensor fleet is many cheap frontends and one shared compute
//! tier: requests are short univariate/multivariate windows, and the
//! compiled runtime is cheaper per sequence when it runs many lanes per
//! forward (stackbench's `--trace 1` times one forward as
//! `infer.forward_us`). The scheduler here buys that batch width at
//! bounded latency cost:
//!
//! - **Bounded queue, explicit shedding.** [`Server::submit`] never blocks
//!   on a full queue; it returns [`ServingError::Backpressure`]
//!   immediately. The client — not the server — owns the retry policy.
//! - **Equal-length front runs.** A batch is the contiguous run of
//!   equal-length requests at the queue front (up to `max_batch`).
//!   Homogeneous traffic (the common fleet case: fixed sensor window)
//!   forms full batches; mixed traffic degrades to smaller batches but
//!   stays FIFO-fair and allocation-free to assemble.
//! - **A batch window that pays for itself.** `batch_window` is an upper
//!   bound on how long a short front run may wait for more arrivals, not a
//!   fixed delay. Each worker measures two things: F̂, the lowest wall
//!   time per timestep of a whole batch it has run, times the front's
//!   length (forwards always run at full `max_batch` width and the
//!   registry pins spec and precision, so that minimum holds for the
//!   server's life); and ĝ, an EWMA (weight 1/8) of the gaps between
//!   consecutive enqueues. Holding a run of n lanes for w costs n·w of
//!   latency; running now makes a newcomer that arrives ĝ later wait
//!   F̂ − ĝ and then pay its own forward. So a hold pays only while
//!   (n+1)·w < F̂, and only when the next arrival is expected in time:
//!   a warm worker runs at once when (n+1)·ĝ ≥ F̂, and otherwise holds
//!   until the oldest arrival plus min(`batch_window`, F̂/(n+1)),
//!   re-evaluating on every wake. A cold worker (no batch measured yet)
//!   holds for the full window.
//! - **Fixed buffers, zero steady-state allocation.** Every worker owns a
//!   [`MicroBatcher`] whose staging, scratch, and output buffers are sized
//!   once from (`max_steps`, `max_batch`, spec); forwards run at full
//!   `max_batch` width with unused lanes padded, so no buffer ever
//!   resizes. The per-request result vector is preallocated at submit
//!   time, inside the request's own [`Ticket`].
//!
//! Submission is split from completion (`submit` returns a [`Ticket`];
//! [`Ticket::wait`] blocks) so a single client thread can keep thousands
//! of logical streams in flight — that multiplexing is what lets batches
//! actually form on a small machine.
//!
//! ## Resident sessions
//!
//! One-shot requests re-run their whole window from a cold filter state.
//! For continuous streams the server also offers sessions
//! ([`Server::open_session`] / [`Server::submit_chunk`]): the stream's
//! SO-LF filter state stays resident between submissions, and workers
//! coalesce chunk submissions from many sessions into one batched forward
//! by gathering the resident states into the scratch lanes
//! ([`MicroBatcher::import_session`]), running a no-reset forward
//! ([`MicroBatcher::forward_resident`]), and scattering the advanced
//! states back ([`MicroBatcher::export_session`]) — so session steady
//! state is as wide and allocation-free as one-shot serving. Lanes are
//! independent through the whole forward (the crossbar mixes features
//! within a lane, never across lanes), so a padded lane's stale resident
//! state cannot contaminate live lanes and is simply never read back.
//!
//! Session batches group by *engine identity* (`Arc::ptr_eq`): under a
//! hot reload, pinned-old sessions and already-adopted sessions run in
//! separate batches, and session and one-shot requests never mix (the
//! one-shot path resets all lane states; the session path must not).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use ptnc_infer::{GuardConfig, Health, InferError, InferModel, InputGuard, Scratch, StreamSession};

use crate::error::ServingError;
use crate::registry::ModelRegistry;
use crate::session::{ReloadPolicy, SessionCell, SessionId, SessionRegistry, SessionSnapshot};
use crate::stats::{StatsRegistry, TenantStats};

/// Scheduler knobs.
#[derive(Debug, Clone, Copy)]
pub struct BatchConfig {
    /// Lanes per forward — the width worker buffers are sized to.
    pub max_batch: usize,
    /// Longest request sequence accepted, in timesteps (staging is
    /// preallocated for `max_steps × max_batch × dim`).
    pub max_steps: usize,
    /// Pending-request queue bound; submissions beyond it are shed.
    pub queue_capacity: usize,
    /// Longest a partial batch may wait, from its oldest request's
    /// arrival, for more requests before it runs anyway. An upper bound,
    /// not a fixed delay: once a worker has timed a batch (F̂, one
    /// forward's wall time), it holds a run of n lanes only while n+1 mean
    /// arrival gaps fit inside F̂, and for at most F̂/(n+1) (see the module
    /// docs). `Duration::MAX` is a valid, untimed hold.
    pub batch_window: Duration,
    /// Worker threads.
    pub workers: usize,
    /// When set, every request's input is sanitized through an
    /// [`InputGuard`] with this config before it reaches the filters.
    pub guard: Option<GuardConfig>,
    /// Most sessions open at once. A session is ~`lane_state_len` f64s
    /// plus bookkeeping, so the default (2²⁰) costs tens of MB for paper
    /// architectures — sized for the million-stream north star, bounded so
    /// leaked client sessions cannot grow server memory without limit.
    pub max_sessions: usize,
    /// Sessions idle at least this long may be evicted when
    /// [`Server::open_session`] finds the registry at capacity (and by
    /// explicit [`Server::sweep_idle_sessions`] calls).
    pub session_idle_timeout: Duration,
    /// When set, a background sweeper thread evicts sessions idle past
    /// `session_idle_timeout` every this often — so abandoned sessions are
    /// reclaimed even when nobody hits the capacity limit or calls
    /// [`Server::sweep_idle_sessions`] explicitly. `None` disables the
    /// thread (sweeps then happen only at capacity or on demand).
    pub session_sweep_interval: Option<Duration>,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            max_batch: 32,
            max_steps: 512,
            queue_capacity: 1024,
            batch_window: Duration::from_micros(200),
            workers: 1,
            guard: None,
            max_sessions: 1 << 20,
            session_idle_timeout: Duration::from_secs(300),
            session_sweep_interval: Some(Duration::from_secs(30)),
        }
    }
}

impl BatchConfig {
    fn validate(&self) -> Result<(), ServingError> {
        if self.max_batch == 0 {
            return Err(ServingError::Config {
                reason: "max_batch must be at least 1",
            });
        }
        if self.max_steps == 0 {
            return Err(ServingError::Config {
                reason: "max_steps must be at least 1",
            });
        }
        if self.queue_capacity == 0 {
            return Err(ServingError::Config {
                reason: "queue_capacity must be at least 1",
            });
        }
        if self.workers == 0 {
            return Err(ServingError::Config {
                reason: "need at least one worker",
            });
        }
        if self.max_sessions == 0 {
            return Err(ServingError::Config {
                reason: "max_sessions must be at least 1",
            });
        }
        if self.session_sweep_interval == Some(Duration::ZERO) {
            return Err(ServingError::Config {
                reason: "session_sweep_interval must be positive when set",
            });
        }
        if let Some(g) = &self.guard {
            g.validate()?;
        }
        Ok(())
    }
}

/// The single-threaded batching core one worker owns: fixed staging /
/// scratch / output buffers plus an optional input guard, all sized once.
/// Public so the steady-state loop can be driven (and its allocation
/// behavior measured) outside the thread pool — `tests/zero_alloc.rs`
/// pins the 0-allocs-per-forward claim on exactly this type, and
/// stackbench reports it as `serve.batcher.allocs_per_forward`.
///
/// The scratch is compiled at the model's kernel precision (f64 / f32 /
/// i32 fixed-point) and sized exactly once, which is why the registry
/// rejects hot reloads that change precision
/// ([`ReloadError::PrecisionChanged`](crate::ReloadError::PrecisionChanged)):
/// a worker's buffers outlive any individual swap.
pub struct MicroBatcher {
    dim: usize,
    classes: usize,
    max_batch: usize,
    max_steps: usize,
    /// Time-major staging `[t][max_batch][dim]`, always forwarded at full
    /// `max_batch` width.
    staging: Vec<f64>,
    out: Vec<f64>,
    scratch: Scratch,
    guard: Option<InputGuard>,
    /// Timesteps loaded by the last `begin`.
    t: usize,
}

impl MicroBatcher {
    /// Sizes buffers for `model`'s spec and the given knobs.
    ///
    /// # Errors
    ///
    /// [`ServingError::Config`] / [`ServingError::BadRequest`] on invalid
    /// knobs or guard config.
    pub fn new(model: &InferModel, cfg: &BatchConfig) -> Result<Self, ServingError> {
        cfg.validate()?;
        let spec = model.spec();
        let guard = match &cfg.guard {
            Some(g) => Some(InputGuard::new(*g, cfg.max_batch, spec.input_dim)?),
            None => None,
        };
        Ok(MicroBatcher {
            dim: spec.input_dim,
            classes: spec.classes,
            max_batch: cfg.max_batch,
            max_steps: cfg.max_steps,
            staging: vec![0.0; cfg.max_steps * cfg.max_batch * spec.input_dim],
            out: vec![0.0; cfg.max_batch * spec.classes],
            scratch: model.make_scratch(cfg.max_batch)?,
            guard,
            t: 0,
        })
    }

    /// Starts a batch of `t`-step sequences: clears stale lane data so
    /// padded lanes feed neutral zeros (in particular to the guard's
    /// health tracking).
    ///
    /// # Errors
    ///
    /// [`ServingError::TooManySteps`] beyond the staging window,
    /// [`ServingError::BadRequest`] on zero steps.
    pub fn begin(&mut self, t: usize) -> Result<(), ServingError> {
        if t == 0 {
            return Err(InferError::ZeroBatch.into());
        }
        if t > self.max_steps {
            return Err(ServingError::TooManySteps {
                steps: t,
                max: self.max_steps,
            });
        }
        self.t = t;
        self.staging[..t * self.max_batch * self.dim].fill(0.0);
        Ok(())
    }

    /// Copies one request (`t × dim` values, time-major) into `lane`.
    ///
    /// # Errors
    ///
    /// [`ServingError::BadRequest`] on a lane out of range or a length
    /// that is not exactly `t × dim`.
    pub fn load_lane(&mut self, lane: usize, steps: &[f64]) -> Result<(), ServingError> {
        if lane >= self.max_batch {
            return Err(InferError::ShapeMismatch {
                what: "batch lane",
                expected: self.max_batch,
                found: lane,
            }
            .into());
        }
        if steps.len() != self.t * self.dim {
            return Err(InferError::ShapeMismatch {
                what: "lane steps",
                expected: self.t * self.dim,
                found: steps.len(),
            }
            .into());
        }
        let row = self.max_batch * self.dim;
        for (k, src) in steps.chunks_exact(self.dim).enumerate() {
            let at = k * row + lane * self.dim;
            self.staging[at..at + self.dim].copy_from_slice(src);
        }
        Ok(())
    }

    /// Runs the loaded batch through `model` at full width (padded lanes
    /// compute on zeros and are simply never read back). With a guard
    /// configured, every staged timestep is sanitized in place first, so
    /// NaN/Inf bursts in one request cannot poison the shared forward.
    ///
    /// # Errors
    ///
    /// [`ServingError::BadRequest`] if `model`'s spec disagrees with the
    /// buffers (cannot happen through [`Server`], which pins the spec via
    /// the registry).
    pub fn forward(&mut self, model: &InferModel) -> Result<(), ServingError> {
        let used = self.sanitize_staged()?;
        model.run_batch_into(
            &self.staging[..used],
            self.max_batch,
            &mut self.scratch,
            &mut self.out,
        )?;
        Ok(())
    }

    /// Runs the loaded batch *without* resetting filter states — the
    /// session path. Lanes must have been populated with resident states
    /// via [`import_session`](Self::import_session) first; padded lanes
    /// keep whatever state the previous batch left (lanes are mutually
    /// independent through the forward, and padded lanes are never read
    /// back, so stale — even non-finite — padding is harmless). Guard
    /// sanitation is identical to [`forward`](Self::forward).
    ///
    /// # Errors
    ///
    /// [`ServingError::BadRequest`] if `model`'s spec disagrees with the
    /// buffers (cannot happen through [`Server`], which batches by engine
    /// identity).
    pub fn forward_resident(&mut self, model: &InferModel) -> Result<(), ServingError> {
        let used = self.sanitize_staged()?;
        model.run_chunk_into(
            &self.staging[..used],
            self.max_batch,
            &mut self.scratch,
            &mut self.out,
        )?;
        Ok(())
    }

    /// Sanitizes every staged timestep in place through a freshly reset
    /// guard (no-op without one) and returns the staged length.
    fn sanitize_staged(&mut self) -> Result<usize, ServingError> {
        let row = self.max_batch * self.dim;
        let used = self.t * row;
        if let Some(g) = &mut self.guard {
            g.reset();
            for step in self.staging[..used].chunks_exact_mut(row) {
                g.sanitize(step)?;
            }
        }
        Ok(used)
    }

    /// Gathers `session`'s resident filter state into scratch lane `lane`
    /// ahead of a [`forward_resident`](Self::forward_resident).
    ///
    /// # Errors
    ///
    /// [`ServingError::BadRequest`] on a lane out of range or a session
    /// from a different architecture.
    pub fn import_session(
        &mut self,
        lane: usize,
        session: &StreamSession,
    ) -> Result<(), ServingError> {
        session.load_into(&mut self.scratch, lane)?;
        Ok(())
    }

    /// Scatters scratch lane `lane`'s advanced filter state back into
    /// `session` after a [`forward_resident`](Self::forward_resident),
    /// accounting the batch's timesteps to the session.
    ///
    /// # Errors
    ///
    /// [`ServingError::BadRequest`] on a lane out of range or a session
    /// from a different architecture (the session is untouched).
    pub fn export_session(
        &self,
        lane: usize,
        session: &mut StreamSession,
    ) -> Result<(), ServingError> {
        session.store_from(&self.scratch, lane, self.t)?;
        Ok(())
    }

    /// Logits of `lane` after [`forward`](Self::forward).
    pub fn lane_logits(&self, lane: usize) -> &[f64] {
        &self.out[lane * self.classes..(lane + 1) * self.classes]
    }

    /// End-of-batch guard health of `lane` ([`Health::Healthy`] when no
    /// guard is configured).
    pub fn lane_health(&self, lane: usize) -> Health {
        self.guard
            .as_ref()
            .map_or(Health::Healthy, |g| g.health()[lane])
    }

    /// Samples the guard repaired in the last batch (0 without a guard).
    pub fn repaired_last_batch(&self) -> u64 {
        self.guard.as_ref().map_or(0, |g| g.stats().repaired)
    }

    /// Lane capacity.
    pub fn max_batch(&self) -> usize {
        self.max_batch
    }

    /// Staging window in timesteps.
    pub fn max_steps(&self) -> usize {
        self.max_steps
    }
}

/// Everything a completed request resolves to: the logits plus the guard
/// health its lane ended the batch with ([`Health::Healthy`] when the
/// server runs without a guard). Transport layers forward the health to
/// remote clients alongside the logits, so a fleet frontend can tell "the
/// answer" apart from "the answer, but your sensor looks broken".
#[derive(Debug, Clone, PartialEq)]
pub struct Completion {
    /// Class logits for the submitted window.
    pub logits: Vec<f64>,
    /// End-of-batch guard health of the request's lane.
    pub health: Health,
}

enum SlotState {
    Pending(Vec<f64>),
    Done(Vec<f64>, Health),
    Failed(ServingError),
    Taken,
}

struct Slot {
    state: Mutex<SlotState>,
    ready: Condvar,
}

impl Slot {
    fn complete(&self, health: Health, fill: impl FnOnce(&mut [f64])) {
        let mut st = self.state.lock().expect("slot lock poisoned");
        if let SlotState::Pending(mut buf) = std::mem::replace(&mut *st, SlotState::Taken) {
            fill(&mut buf);
            *st = SlotState::Done(buf, health);
        }
        self.ready.notify_all();
    }

    fn fail(&self, err: ServingError) {
        let mut st = self.state.lock().expect("slot lock poisoned");
        *st = SlotState::Failed(err);
        self.ready.notify_all();
    }
}

/// A pending request: block on [`wait`](Ticket::wait) to get the logits.
/// Dropping the ticket abandons the result (the request still runs).
#[must_use = "a dropped ticket abandons its request's result"]
pub struct Ticket {
    slot: Arc<Slot>,
    /// Timesteps submitted — useful for client-side accounting.
    pub timesteps: usize,
}

impl Ticket {
    /// Blocks until the request completes or fails.
    ///
    /// # Errors
    ///
    /// Whatever the scheduler failed the request with — in steady state
    /// only [`ServingError::ShuttingDown`].
    pub fn wait(self) -> Result<Vec<f64>, ServingError> {
        self.wait_outcome().map(|c| c.logits)
    }

    /// Blocks like [`wait`](Ticket::wait) but returns the full
    /// [`Completion`] — logits plus the lane's end-of-batch guard health.
    ///
    /// # Errors
    ///
    /// Same as [`wait`](Ticket::wait).
    pub fn wait_outcome(self) -> Result<Completion, ServingError> {
        let mut st = self.slot.state.lock().expect("slot lock poisoned");
        loop {
            match &*st {
                SlotState::Pending(_) => {
                    st = self.slot.ready.wait(st).expect("slot lock poisoned");
                }
                SlotState::Failed(e) => return Err(*e),
                SlotState::Done(..) | SlotState::Taken => {
                    match std::mem::replace(&mut *st, SlotState::Taken) {
                        SlotState::Done(buf, health) => {
                            return Ok(Completion {
                                logits: buf,
                                health,
                            })
                        }
                        _ => unreachable!("ticket waited twice"),
                    }
                }
            }
        }
    }

    /// Like [`wait`](Ticket::wait), but gives up after `timeout` and hands
    /// the ticket back (`Err(self)`) so the caller can keep waiting or
    /// drop it — which is what lets a liveness test assert "this request
    /// completes promptly" without being able to hang forever itself.
    ///
    /// # Errors
    ///
    /// `Err(self)` on timeout; the request outcome is otherwise
    /// `Ok(inner)` with the same result `wait` would return.
    pub fn wait_timeout(self, timeout: Duration) -> Result<Result<Vec<f64>, ServingError>, Ticket> {
        self.wait_outcome_timeout(timeout)
            .map(|outcome| outcome.map(|c| c.logits))
    }

    /// [`wait_timeout`](Ticket::wait_timeout) with the full
    /// [`Completion`] — the bounded wait transport handlers use so a
    /// stalled worker can never hang a connection thread.
    ///
    /// # Errors
    ///
    /// `Err(self)` on timeout; otherwise `Ok(inner)` with the same result
    /// [`wait_outcome`](Ticket::wait_outcome) would return.
    pub fn wait_outcome_timeout(
        self,
        timeout: Duration,
    ) -> Result<Result<Completion, ServingError>, Ticket> {
        let Some(deadline) = Instant::now().checked_add(timeout) else {
            // A timeout past the clock's range is an untimed wait.
            return Ok(self.wait_outcome());
        };
        let mut st = self.slot.state.lock().expect("slot lock poisoned");
        loop {
            match &*st {
                SlotState::Pending(_) => {
                    let now = Instant::now();
                    if now >= deadline {
                        drop(st);
                        return Err(self);
                    }
                    let (guard, _) = self
                        .slot
                        .ready
                        .wait_timeout(st, deadline - now)
                        .expect("slot lock poisoned");
                    st = guard;
                }
                SlotState::Failed(e) => return Ok(Err(*e)),
                SlotState::Done(..) | SlotState::Taken => {
                    return match std::mem::replace(&mut *st, SlotState::Taken) {
                        SlotState::Done(buf, health) => Ok(Ok(Completion {
                            logits: buf,
                            health,
                        })),
                        _ => unreachable!("ticket waited twice"),
                    };
                }
            }
        }
    }
}

/// Session context riding with a chunk request: the cell whose resident
/// state the chunk advances, and the engine it was resolved to run on
/// (resolved once at submit time so every chunk of the batch agrees).
struct SessionLane {
    cell: Arc<SessionCell>,
    model: Arc<InferModel>,
}

struct Request {
    steps: Vec<f64>,
    t: usize,
    slot: Arc<Slot>,
    tenant: Arc<TenantStats>,
    enqueued: Instant,
    /// `None` for one-shot requests; `Some` for session chunks.
    session: Option<SessionLane>,
}

impl Request {
    fn fail(self, err: ServingError) {
        if let Some(s) = &self.session {
            s.cell.in_flight.store(false, Ordering::Release);
        }
        self.slot.fail(err);
    }
}

/// What makes two queued requests batchable together: same timestep count,
/// and either both one-shot or both session chunks resolved to the *same*
/// engine (pointer identity — a pinned-old session must not share a
/// forward with sessions already on the reloaded model).
enum BatchKey {
    OneShot { t: usize },
    Session { t: usize, model: Arc<InferModel> },
}

impl BatchKey {
    fn of(r: &Request) -> BatchKey {
        match &r.session {
            None => BatchKey::OneShot { t: r.t },
            Some(s) => BatchKey::Session {
                t: r.t,
                model: Arc::clone(&s.model),
            },
        }
    }

    fn matches(&self, r: &Request) -> bool {
        match (self, &r.session) {
            (BatchKey::OneShot { t }, None) => r.t == *t,
            (BatchKey::Session { t, model }, Some(s)) => r.t == *t && Arc::ptr_eq(model, &s.model),
            _ => false,
        }
    }
}

/// The pending requests and the arrival-gap estimate, under one lock so
/// every enqueue updates the estimate in queue order.
struct Queue {
    requests: VecDeque<Request>,
    /// Arrival time of the latest enqueued request.
    last_arrival: Option<Instant>,
    /// ĝ: EWMA (weight 1/8) of the gaps between consecutive enqueues;
    /// `None` until two requests have arrived.
    gap: Option<Duration>,
}

impl Queue {
    fn push(&mut self, request: Request) {
        if let Some(last) = self.last_arrival {
            let sample = request.enqueued.saturating_duration_since(last);
            self.gap = Some(match self.gap {
                Some(g) => g - g / 8 + sample / 8,
                None => sample,
            });
        }
        self.last_arrival = Some(request.enqueued);
        self.requests.push_back(request);
    }
}

struct Shared {
    registry: Arc<ModelRegistry>,
    cfg: BatchConfig,
    dim: usize,
    classes: usize,
    queue: Mutex<Queue>,
    arrivals: Condvar,
    shutdown: AtomicBool,
    stats: StatsRegistry,
    sessions: SessionRegistry,
    batches: AtomicU64,
    batched_lanes: AtomicU64,
    guard_repaired: AtomicU64,
}

impl Shared {
    /// The one place requests enter the queue. The shutdown flag is
    /// re-checked *inside* the queue-lock critical section: `shutdown`
    /// sets the flag and then drains this queue under the same lock, so
    /// any enqueue that raced past an earlier flag check is either
    /// ordered before the drain (and gets drained + failed) or sees the
    /// flag here and is shed — a request can never be stranded behind the
    /// drain with its ticket blocking forever.
    fn enqueue(&self, request: Request) -> Result<(), ServingError> {
        {
            let mut q = self.queue.lock().expect("queue lock poisoned");
            if self.shutdown.load(Ordering::Acquire) {
                return Err(ServingError::ShuttingDown);
            }
            if q.requests.len() >= self.cfg.queue_capacity {
                return Err(ServingError::Backpressure {
                    depth: q.requests.len(),
                    capacity: self.cfg.queue_capacity,
                });
            }
            q.push(request);
        }
        self.arrivals.notify_one();
        Ok(())
    }

    /// Validates a time-major payload and returns its timestep count.
    fn validate_steps(&self, steps: &[f64]) -> Result<usize, ServingError> {
        if steps.is_empty() || !steps.len().is_multiple_of(self.dim) {
            return Err(InferError::ShapeMismatch {
                what: "steps",
                expected: self.dim,
                found: steps.len(),
            }
            .into());
        }
        let t = steps.len() / self.dim;
        if t > self.cfg.max_steps {
            return Err(ServingError::TooManySteps {
                steps: t,
                max: self.cfg.max_steps,
            });
        }
        Ok(t)
    }
}

/// The serving front end: owns the worker pool, the bounded queue, and
/// per-tenant statistics. Models come from a shared [`ModelRegistry`], so
/// snapshot hot-reloads take effect between batches without stopping
/// traffic.
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
    sweeper: Option<Sweeper>,
}

/// Background idle-session sweeper: same interruptible-wait shape as the
/// registry [`Watcher`](crate::Watcher), so stopping it never sleeps out a
/// full interval.
struct Sweeper {
    stop: Arc<(Mutex<bool>, Condvar)>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Sweeper {
    fn spawn(shared: &Arc<Shared>, interval: Duration) -> Sweeper {
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let pair = Arc::clone(&stop);
        let shared = Arc::clone(shared);
        let handle = std::thread::Builder::new()
            .name("ptnc-serve-sweep".into())
            .spawn(move || {
                let (flag, wake) = &*pair;
                loop {
                    {
                        let stopped = flag.lock().expect("sweeper lock poisoned");
                        let (stopped, _) = wake
                            .wait_timeout_while(stopped, interval, |s| !*s)
                            .expect("sweeper lock poisoned");
                        if *stopped {
                            return;
                        }
                    }
                    shared.sessions.sweep_idle(shared.cfg.session_idle_timeout);
                }
            })
            .expect("spawn sweeper thread");
        Sweeper {
            stop,
            handle: Some(handle),
        }
    }

    fn stop(&mut self) {
        let (flag, wake) = &*self.stop;
        *flag.lock().expect("sweeper lock poisoned") = true;
        wake.notify_all();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Server {
    /// Validates `cfg`, sizes per-worker buffers against the registry's
    /// current spec, and spawns the worker pool.
    ///
    /// # Errors
    ///
    /// [`ServingError::Config`] / [`ServingError::BadRequest`] on invalid
    /// knobs.
    pub fn start(registry: Arc<ModelRegistry>, cfg: BatchConfig) -> Result<Self, ServingError> {
        cfg.validate()?;
        let model = registry.current();
        let spec = *model.spec();
        let shared = Arc::new(Shared {
            registry,
            cfg,
            dim: spec.input_dim,
            classes: spec.classes,
            queue: Mutex::new(Queue {
                requests: VecDeque::with_capacity(cfg.queue_capacity),
                last_arrival: None,
                gap: None,
            }),
            arrivals: Condvar::new(),
            shutdown: AtomicBool::new(false),
            stats: StatsRegistry::default(),
            sessions: SessionRegistry::new(cfg.max_sessions, cfg.session_idle_timeout),
            batches: AtomicU64::new(0),
            batched_lanes: AtomicU64::new(0),
            guard_repaired: AtomicU64::new(0),
        });
        let mut workers = Vec::with_capacity(cfg.workers);
        for w in 0..cfg.workers {
            let mb = MicroBatcher::new(&model, &cfg)?;
            let shared = Arc::clone(&shared);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("ptnc-serve-{w}"))
                    .spawn(move || worker_loop(&shared, mb))
                    .expect("spawn worker thread"),
            );
        }
        let sweeper = cfg
            .session_sweep_interval
            .map(|interval| Sweeper::spawn(&shared, interval));
        Ok(Server {
            shared,
            workers,
            sweeper,
        })
    }

    /// Enqueues one request (`steps` is `t × dim` time-major values for a
    /// single logical stream) and returns a [`Ticket`] for its logits.
    /// Never blocks: a full queue sheds the request instead.
    ///
    /// # Errors
    ///
    /// [`ServingError::BadRequest`] / [`ServingError::TooManySteps`] on a
    /// malformed payload, [`ServingError::Backpressure`] when the queue is
    /// full, [`ServingError::ShuttingDown`] after shutdown began.
    pub fn submit(&self, tenant: &str, steps: &[f64]) -> Result<Ticket, ServingError> {
        let stats = self.shared.stats.tenant(tenant);
        self.try_enqueue(&stats, steps)
            .inspect_err(|e| record_submit_error(&stats, e))
    }

    fn try_enqueue(&self, stats: &Arc<TenantStats>, steps: &[f64]) -> Result<Ticket, ServingError> {
        let shared = &self.shared;
        if shared.shutdown.load(Ordering::Acquire) {
            return Err(ServingError::ShuttingDown);
        }
        let t = shared.validate_steps(steps)?;
        let slot = Arc::new(Slot {
            state: Mutex::new(SlotState::Pending(vec![0.0; shared.classes])),
            ready: Condvar::new(),
        });
        shared.enqueue(Request {
            steps: steps.to_vec(),
            t,
            slot: Arc::clone(&slot),
            tenant: Arc::clone(stats),
            enqueued: Instant::now(),
            session: None,
        })?;
        Ok(Ticket { slot, timesteps: t })
    }

    /// Opens a resident session for `tenant`: the stream's filter state is
    /// initialized once and then carried across
    /// [`submit_chunk`](Self::submit_chunk) calls until the session is
    /// closed or evicted. `policy` decides what the session does when the
    /// model registry hot-swaps a snapshot mid-stream.
    ///
    /// # Errors
    ///
    /// [`ServingError::SessionLimit`] when the server is at capacity and
    /// no session has been idle past the configured timeout;
    /// [`ServingError::ShuttingDown`] after shutdown began.
    pub fn open_session(
        &self,
        tenant: &str,
        policy: ReloadPolicy,
    ) -> Result<SessionId, ServingError> {
        if self.shared.shutdown.load(Ordering::Acquire) {
            return Err(ServingError::ShuttingDown);
        }
        let stats = self.shared.stats.tenant(tenant);
        let model = self.shared.registry.current();
        let (id, _) = self.shared.sessions.open(stats, policy, model)?;
        Ok(id)
    }

    /// Submits the next chunk of session `id` (`steps` is `t × dim`
    /// time-major values continuing the stream). The session's resident
    /// filter state carries across chunks, so submitting a window in `k`
    /// chunks yields exactly the logits of a one-shot submission of the
    /// concatenated window. One chunk may be in flight per session at a
    /// time — wait on the previous [`Ticket`] first.
    ///
    /// # Errors
    ///
    /// [`ServingError::UnknownSession`] for a closed/evicted/never-opened
    /// id, [`ServingError::SessionBusy`] while a previous chunk is in
    /// flight, plus every error [`Server::submit`] can return.
    pub fn submit_chunk(&self, id: SessionId, steps: &[f64]) -> Result<Ticket, ServingError> {
        let shared = &self.shared;
        let Some(cell) = shared.sessions.get(id) else {
            return Err(ServingError::UnknownSession);
        };
        let stats = Arc::clone(&cell.tenant);
        self.try_enqueue_chunk(&cell, steps)
            .inspect_err(|e| record_submit_error(&stats, e))
    }

    fn try_enqueue_chunk(
        &self,
        cell: &Arc<SessionCell>,
        steps: &[f64],
    ) -> Result<Ticket, ServingError> {
        let shared = &self.shared;
        if shared.shutdown.load(Ordering::Acquire) {
            return Err(ServingError::ShuttingDown);
        }
        let t = shared.validate_steps(steps)?;
        // Exactly one chunk in flight per session: the resident state is a
        // strict sequence, so a second submission before the first's
        // ticket resolves is a client ordering bug, not a queueing matter.
        if cell
            .in_flight
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return Err(ServingError::SessionBusy);
        }
        // From here on every error path must release the in-flight claim.
        let resolve = || -> Result<Arc<InferModel>, ServingError> {
            let current = shared.registry.current();
            let mut stream = cell.stream.lock().expect("session lock poisoned");
            if stream.runs_on(&current) {
                return Ok(current);
            }
            match cell.policy {
                // Pin-old: keep running the engine this session started
                // its window on; the stream's Arc keeps it alive.
                ReloadPolicy::PinOld => Ok(Arc::clone(stream.model())),
                // Reset-on-reload: adopt the new engine now and restart
                // the window (resident state resets inside adopt_model).
                ReloadPolicy::ResetOnReload => {
                    stream.adopt_model(Arc::clone(&current))?;
                    Ok(current)
                }
            }
        };
        let model = match resolve() {
            Ok(m) => m,
            Err(e) => {
                cell.in_flight.store(false, Ordering::Release);
                return Err(e);
            }
        };
        cell.touch(shared.sessions.now_ms());
        let slot = Arc::new(Slot {
            state: Mutex::new(SlotState::Pending(vec![0.0; shared.classes])),
            ready: Condvar::new(),
        });
        let enqueued = shared.enqueue(Request {
            steps: steps.to_vec(),
            t,
            slot: Arc::clone(&slot),
            tenant: Arc::clone(&cell.tenant),
            enqueued: Instant::now(),
            session: Some(SessionLane {
                cell: Arc::clone(cell),
                model,
            }),
        });
        if let Err(e) = enqueued {
            cell.in_flight.store(false, Ordering::Release);
            return Err(e);
        }
        Ok(Ticket { slot, timesteps: t })
    }

    /// Closes session `id`; returns whether it was open. An in-flight
    /// chunk still completes (its ticket resolves normally) but the
    /// resident state dies with the session.
    pub fn close_session(&self, id: SessionId) -> bool {
        self.shared.sessions.close(id)
    }

    /// Point-in-time view of one session's bookkeeping (`None` if the id
    /// is not open).
    pub fn session_snapshot(&self, id: SessionId) -> Option<SessionSnapshot> {
        self.shared.sessions.snapshot(id)
    }

    /// Sessions currently open.
    pub fn open_sessions(&self) -> usize {
        self.shared.sessions.len()
    }

    /// Sessions opened since the server started.
    pub fn sessions_opened(&self) -> u64 {
        self.shared.sessions.opened()
    }

    /// Sessions evicted for idleness since the server started.
    pub fn sessions_evicted(&self) -> u64 {
        self.shared.sessions.evicted()
    }

    /// Evicts sessions idle at least `max_idle` (in-flight sessions are
    /// never evicted); returns how many were removed. The same sweep runs
    /// implicitly when [`open_session`](Self::open_session) hits the
    /// capacity limit, using the configured idle timeout.
    pub fn sweep_idle_sessions(&self, max_idle: Duration) -> usize {
        self.shared.sessions.sweep_idle(max_idle)
    }

    /// Submit-and-wait convenience for tests and simple clients.
    ///
    /// # Errors
    ///
    /// See [`Server::submit`] and [`Ticket::wait`].
    pub fn infer(&self, tenant: &str, steps: &[f64]) -> Result<Vec<f64>, ServingError> {
        self.submit(tenant, steps)?.wait()
    }

    /// Per-tenant statistics.
    pub fn stats(&self) -> &StatsRegistry {
        &self.shared.stats
    }

    /// Records one completed adaptation round (detect → refit → redeploy)
    /// against `tenant`'s counters — called by the closed-loop adaptation
    /// runtime after it swaps a refit snapshot through this server's
    /// registry.
    pub fn note_adaptation(&self, tenant: &str) {
        self.shared.stats.tenant(tenant).record_adaptation();
    }

    /// The registry this server draws models from.
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.shared.registry
    }

    /// Requests currently queued (racy; for monitoring only).
    pub fn queue_depth(&self) -> usize {
        self.shared
            .queue
            .lock()
            .expect("queue lock poisoned")
            .requests
            .len()
    }

    /// Batches run so far.
    pub fn batches(&self) -> u64 {
        self.shared.batches.load(Ordering::Relaxed)
    }

    /// Mean lanes per batch so far (0.0 before the first batch).
    pub fn mean_batch_fill(&self) -> f64 {
        let b = self.shared.batches.load(Ordering::Relaxed);
        if b == 0 {
            0.0
        } else {
            self.shared.batched_lanes.load(Ordering::Relaxed) as f64 / b as f64
        }
    }

    /// Input samples the guard repaired across all batches.
    pub fn guard_repaired(&self) -> u64 {
        self.shared.guard_repaired.load(Ordering::Relaxed)
    }

    /// Stops accepting work, fails queued requests with
    /// [`ServingError::ShuttingDown`], and joins the workers (in-flight
    /// batches complete normally).
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    /// The non-joining half of [`shutdown`](Self::shutdown): sets the
    /// shutdown flag and fails everything queued, without waiting for the
    /// workers — callable through a shared reference, so any thread (a
    /// signal handler, a supervisor) can initiate shutdown while others
    /// still hold the server. Workers finish the batch they are running,
    /// take nothing more from the queue and exit; `shutdown` or `Drop`
    /// still joins them. Idempotent.
    ///
    /// The flag is set before the drain and re-checked by every enqueue
    /// *inside* the queue-lock critical section, so a `submit` racing
    /// this call either lands before the drain (and its ticket fails with
    /// [`ServingError::ShuttingDown`]) or is shed at submission — an
    /// accepted ticket can never be stranded un-resolved.
    pub fn begin_shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Release);
        {
            let mut q = self.shared.queue.lock().expect("queue lock poisoned");
            for r in q.requests.drain(..) {
                r.fail(ServingError::ShuttingDown);
            }
        }
        self.shared.arrivals.notify_all();
    }

    fn shutdown_inner(&mut self) {
        self.begin_shutdown();
        if let Some(mut s) = self.sweeper.take() {
            s.stop();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if !self.workers.is_empty() || self.sweeper.is_some() {
            self.shutdown_inner();
        }
    }
}

/// Tenant-side accounting for a failed submit, shared by the one-shot and
/// session submission paths.
fn record_submit_error(stats: &TenantStats, e: &ServingError) {
    match e {
        ServingError::Backpressure { .. } => stats.record_shed(),
        ServingError::BadRequest(_) | ServingError::TooManySteps { .. } => stats.record_rejected(),
        _ => {}
    }
}

/// Length of the contiguous batch-compatible run at the queue front,
/// capped.
fn front_run(q: &VecDeque<Request>, key: &BatchKey, cap: usize) -> usize {
    q.iter().take(cap).take_while(|r| key.matches(r)).count()
}

/// How much longer a worker holds a front run of `n` lanes whose oldest
/// request arrived `age` ago; zero means run it now. `forward` is F̂, the
/// lowest measured wall time of a whole batch of this length (`None`
/// before the worker has run one), and `gap` is ĝ, the mean arrival gap.
///
/// Holding n lanes for w costs n·w; running now makes a newcomer that
/// arrives ĝ later wait F̂ − ĝ and then pay its own forward. A hold
/// therefore pays only while (n+1)·w < F̂, and only if the next arrival is
/// expected inside that: (n+1)·ĝ < F̂. `window` caps every hold.
fn hold_for(
    n: usize,
    max_batch: usize,
    window: Duration,
    age: Duration,
    forward: Option<Duration>,
    gap: Option<Duration>,
) -> Duration {
    if n >= max_batch {
        return Duration::ZERO;
    }
    let Some(forward) = forward else {
        return window.saturating_sub(age);
    };
    let lanes = factor(n + 1);
    if gap.is_some_and(|g| g.saturating_mul(lanes) >= forward) {
        return Duration::ZERO;
    }
    window.min(forward / lanes).saturating_sub(age)
}

fn worker_loop(shared: &Shared, mut mb: MicroBatcher) {
    let max_batch = shared.cfg.max_batch;
    // Reused across iterations; holds at most `max_batch` requests.
    let mut batch: Vec<Request> = Vec::with_capacity(max_batch);
    // Lowest wall time per timestep of a whole batch run so far.
    let mut step_cost: Option<Duration> = None;
    'serve: loop {
        batch.clear();
        {
            let mut q = shared.queue.lock().expect("queue lock poisoned");
            loop {
                // Once shutdown begins, `begin_shutdown`'s drain fails
                // whatever is still queued: a worker takes nothing more.
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                if !q.requests.is_empty() {
                    break;
                }
                q = shared.arrivals.wait(q).expect("queue lock poisoned");
            }
            let front = q.requests.front().expect("nonempty queue");
            let key = BatchKey::of(front);
            let forward = step_cost.map(|c| c.saturating_mul(factor(front.t)));
            // Hold the short front run while another arrival can still
            // save a forward; re-decide on every wake.
            loop {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                let front = q.requests.front().expect("nonempty queue");
                let now = Instant::now();
                let hold = hold_for(
                    front_run(&q.requests, &key, max_batch),
                    max_batch,
                    shared.cfg.batch_window,
                    now.saturating_duration_since(front.enqueued),
                    forward,
                    q.gap,
                );
                if hold.is_zero() {
                    break;
                }
                q = match now.checked_add(hold) {
                    Some(_) => {
                        shared
                            .arrivals
                            .wait_timeout(q, hold)
                            .expect("queue lock poisoned")
                            .0
                    }
                    // A hold past the clock's range is an untimed wait.
                    None => shared.arrivals.wait(q).expect("queue lock poisoned"),
                };
                // Another worker may have drained the queue meanwhile.
                match q.requests.front() {
                    Some(front) if key.matches(front) => {}
                    _ => continue 'serve,
                }
            }
            while batch.len() < max_batch {
                match q.requests.front() {
                    Some(front) if key.matches(front) => {
                        batch.push(q.requests.pop_front().expect("nonempty queue"));
                    }
                    _ => break,
                }
            }
        }
        if batch.is_empty() {
            continue;
        }
        let t = batch[0].t;
        let started = Instant::now();
        let ran = if batch[0].session.is_some() {
            run_session_batch(shared, &mut mb, &mut batch)
        } else {
            run_batch(shared, &mut mb, &mut batch)
        };
        if ran {
            let cost = started.elapsed() / factor(t);
            step_cost = Some(step_cost.map_or(cost, |c| c.min(cost)));
        }
        // If more work is queued, other workers may be asleep after a
        // notify_one landed here while this worker was busy.
        shared.arrivals.notify_one();
    }
}

/// A lane or timestep count as a `Duration` multiplier or divisor.
fn factor(count: usize) -> u32 {
    u32::try_from(count).unwrap_or(u32::MAX)
}

fn finish_lane(mb: &MicroBatcher, lane: usize, r: &Request) -> Health {
    let health = mb.lane_health(lane);
    r.tenant
        .record_guard(health == Health::Degraded, health == Health::Faulted);
    let micros = r.enqueued.elapsed().as_micros() as u64;
    r.tenant.record_completed(r.t, micros);
    health
}

/// Runs one one-shot batch; returns whether the forward ran.
fn run_batch(shared: &Shared, mb: &mut MicroBatcher, batch: &mut Vec<Request>) -> bool {
    let t = batch[0].t;
    let prepared = mb.begin(t).and_then(|()| {
        for (lane, r) in batch.iter().enumerate() {
            mb.load_lane(lane, &r.steps)?;
        }
        let model = shared.registry.current();
        mb.forward(&model)
    });
    match prepared {
        Ok(()) => {
            shared.batches.fetch_add(1, Ordering::Relaxed);
            shared
                .batched_lanes
                .fetch_add(batch.len() as u64, Ordering::Relaxed);
            shared
                .guard_repaired
                .fetch_add(mb.repaired_last_batch(), Ordering::Relaxed);
            for (lane, r) in batch.drain(..).enumerate() {
                let health = finish_lane(mb, lane, &r);
                let logits = mb.lane_logits(lane);
                r.slot.complete(health, |buf| buf.copy_from_slice(logits));
            }
            true
        }
        Err(e) => {
            // Shapes are validated at submit and the registry pins the
            // spec, so this is unreachable in practice — but a scheduler
            // must degrade to failed requests, never to a poisoned worker.
            for r in batch.drain(..) {
                r.tenant.record_rejected();
                r.fail(e);
            }
            false
        }
    }
}

/// The session fast path: gather every lane's resident filter state into
/// the shared scratch, run one no-reset forward on the batch's common
/// engine, scatter the advanced states back, and only then release each
/// session's in-flight claim and complete its ticket (so a client that
/// submits its next chunk upon ticket completion always observes the
/// updated resident state). Returns whether the forward ran.
fn run_session_batch(shared: &Shared, mb: &mut MicroBatcher, batch: &mut Vec<Request>) -> bool {
    let t = batch[0].t;
    let model = Arc::clone(
        &batch[0]
            .session
            .as_ref()
            .expect("session batch has session context")
            .model,
    );
    let prepared = mb.begin(t).and_then(|()| {
        for (lane, r) in batch.iter().enumerate() {
            mb.load_lane(lane, &r.steps)?;
            let sess = r.session.as_ref().expect("session batch");
            let stream = sess.cell.stream.lock().expect("session lock poisoned");
            mb.import_session(lane, &stream)?;
        }
        mb.forward_resident(&model)
    });
    match prepared {
        Ok(()) => {
            shared.batches.fetch_add(1, Ordering::Relaxed);
            shared
                .batched_lanes
                .fetch_add(batch.len() as u64, Ordering::Relaxed);
            shared
                .guard_repaired
                .fetch_add(mb.repaired_last_batch(), Ordering::Relaxed);
            let now_ms = shared.sessions.now_ms();
            for (lane, r) in batch.drain(..).enumerate() {
                let health = finish_lane(mb, lane, &r);
                r.tenant.record_session_chunk();
                let sess = r.session.as_ref().expect("session batch");
                {
                    let mut stream = sess.cell.stream.lock().expect("session lock poisoned");
                    // A concurrently closed/evicted session still answers
                    // this last ticket, but its state dies with the cell.
                    if !sess.cell.closed.load(Ordering::Acquire) {
                        mb.export_session(lane, &mut stream)
                            .expect("scratch and session share the batch's engine spec");
                    }
                }
                sess.cell.note_batch(health);
                sess.cell.touch(now_ms);
                sess.cell.in_flight.store(false, Ordering::Release);
                let logits = mb.lane_logits(lane);
                r.slot.complete(health, |buf| buf.copy_from_slice(logits));
            }
            true
        }
        Err(e) => {
            for r in batch.drain(..) {
                r.tenant.record_rejected();
                r.fail(e);
            }
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validation_is_typed() {
        let bad = BatchConfig {
            max_batch: 0,
            ..BatchConfig::default()
        };
        assert!(matches!(bad.validate(), Err(ServingError::Config { .. })));
        let bad = BatchConfig {
            workers: 0,
            ..BatchConfig::default()
        };
        assert!(matches!(bad.validate(), Err(ServingError::Config { .. })));
        assert!(BatchConfig::default().validate().is_ok());
    }

    /// A one-shot request of `t` steps that arrived at `enqueued`.
    fn request(t: usize, enqueued: Instant) -> Request {
        Request {
            steps: vec![0.0; t],
            t,
            slot: Arc::new(Slot {
                state: Mutex::new(SlotState::Pending(Vec::new())),
                ready: Condvar::new(),
            }),
            tenant: Arc::new(TenantStats::default()),
            enqueued,
            session: None,
        }
    }

    #[test]
    fn front_run_respects_cap_and_breaks_on_length_change() {
        let now = Instant::now();
        let req = |t: usize| request(t, now);
        let q: VecDeque<Request> = [req(4), req(4), req(4), req(2), req(4)].into();
        assert_eq!(front_run(&q, &BatchKey::OneShot { t: 4 }, 16), 3);
        assert_eq!(front_run(&q, &BatchKey::OneShot { t: 4 }, 2), 2);
        assert_eq!(front_run(&q, &BatchKey::OneShot { t: 2 }, 16), 0);
    }

    const US: Duration = Duration::from_micros(1);

    #[test]
    fn a_cold_worker_holds_for_the_full_window() {
        let window = 200 * US;
        assert_eq!(hold_for(1, 8, window, Duration::ZERO, None, None), window);
        assert_eq!(hold_for(3, 8, window, 50 * US, None, Some(US)), 150 * US);
        assert_eq!(hold_for(1, 8, window, 300 * US, None, None), Duration::ZERO);
        let untimed = hold_for(1, 2, Duration::MAX, 5 * US, None, None);
        assert!(Instant::now().checked_add(untimed).is_none());
    }

    #[test]
    fn a_warm_worker_runs_at_once_when_the_next_arrival_is_too_late() {
        let forward = Some(40 * US);
        // (n+1)·ĝ ≥ F̂, with equality included.
        assert_eq!(
            hold_for(1, 8, 200 * US, Duration::ZERO, forward, Some(20 * US)),
            Duration::ZERO
        );
        assert_eq!(
            hold_for(3, 8, 200 * US, Duration::ZERO, forward, Some(11 * US)),
            Duration::ZERO
        );
        assert_eq!(
            hold_for(1, 8, Duration::MAX, Duration::ZERO, forward, Some(US * 500)),
            Duration::ZERO
        );
    }

    #[test]
    fn an_open_gate_holds_for_the_lesser_of_window_and_forward_share() {
        let forward = Some(40 * US);
        // F̂/(n+1) below the window.
        assert_eq!(
            hold_for(1, 8, 200 * US, Duration::ZERO, forward, Some(5 * US)),
            20 * US
        );
        assert_eq!(
            hold_for(3, 8, 200 * US, 4 * US, forward, Some(2 * US)),
            6 * US
        );
        // The window below F̂/(n+1).
        assert_eq!(
            hold_for(1, 8, 15 * US, 5 * US, forward, Some(5 * US)),
            10 * US
        );
        // No gap measured yet: the cap alone bounds the hold.
        assert_eq!(
            hold_for(1, 8, 200 * US, Duration::ZERO, forward, None),
            20 * US
        );
    }

    #[test]
    fn a_full_front_run_never_holds() {
        for forward in [None, Some(40 * US)] {
            assert_eq!(
                hold_for(8, 8, Duration::MAX, Duration::ZERO, forward, Some(US)),
                Duration::ZERO
            );
            assert_eq!(
                hold_for(2, 2, 200 * US, Duration::ZERO, forward, None),
                Duration::ZERO
            );
        }
    }

    #[test]
    fn a_backlogged_front_older_than_its_cap_runs_at_once() {
        // The gate is open (2·1 µs < 40 µs), but the oldest request has
        // already waited past F̂/2.
        assert_eq!(
            hold_for(1, 8, 200 * US, 25 * US, Some(40 * US), Some(US)),
            Duration::ZERO
        );
        assert_eq!(
            hold_for(1, 8, Duration::MAX, 20 * US, Some(40 * US), Some(US)),
            Duration::ZERO
        );
    }

    #[test]
    fn the_gap_estimate_is_an_eighth_weight_ewma_of_enqueue_gaps() {
        let t0 = Instant::now();
        let req = |at: Duration| request(1, t0 + at);
        let mut q = Queue {
            requests: VecDeque::new(),
            last_arrival: None,
            gap: None,
        };
        q.push(req(Duration::ZERO));
        assert_eq!(q.gap, None);
        q.push(req(800 * US));
        assert_eq!(q.gap, Some(800 * US));
        q.push(req(800 * US));
        assert_eq!(q.gap, Some(700 * US));
        q.push(req(2300 * US));
        assert_eq!(q.gap, Some(800 * US));
        assert_eq!(q.requests.len(), 4);
    }
}
