//! Dynamic micro-batching: many concurrent logical streams, each
//! submitting full sequences, coalesced into wide `run_batch_into` calls
//! on a fixed worker pool.
//!
//! ## Shape of the problem
//!
//! A printed-sensor fleet is many cheap frontends and one shared compute
//! tier: requests are short univariate/multivariate windows, and the
//! compiled runtime is an order of magnitude faster per sequence when it
//! runs tens of lanes per forward (`infer_throughput`'s batched path). The
//! scheduler here buys that batch width at bounded latency cost:
//!
//! - **Bounded queue, explicit shedding.** [`Server::submit`] never blocks
//!   on a full queue; it returns [`ServingError::Backpressure`]
//!   immediately. The client — not the server — owns the retry policy.
//! - **Equal-length front runs.** A batch is the contiguous run of
//!   equal-length requests at the queue front (up to `max_batch`).
//!   Homogeneous traffic (the common fleet case: fixed sensor window)
//!   forms full batches; mixed traffic degrades to smaller batches but
//!   stays FIFO-fair and allocation-free to assemble.
//! - **Batch window.** When the front run is still short of `max_batch`, a
//!   worker waits up to `batch_window` for more arrivals before running a
//!   partial batch — the classic latency/throughput knob.
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
    /// How long a worker waits for a partial batch to fill before running
    /// it anyway.
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
/// behavior measured) outside the thread pool — `serve_throughput` pins
/// the 0-allocs-per-forward claim on exactly this type.
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
        let deadline = Instant::now() + timeout;
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

struct Shared {
    registry: Arc<ModelRegistry>,
    cfg: BatchConfig,
    dim: usize,
    classes: usize,
    queue: Mutex<VecDeque<Request>>,
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
            if q.len() >= self.cfg.queue_capacity {
                return Err(ServingError::Backpressure {
                    depth: q.len(),
                    capacity: self.cfg.queue_capacity,
                });
            }
            q.push_back(request);
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
            queue: Mutex::new(VecDeque::with_capacity(cfg.queue_capacity)),
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
        self.shared.queue.lock().expect("queue lock poisoned").len()
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
    /// still hold the server. Workers exit once drained; `shutdown` or
    /// `Drop` still joins them. Idempotent.
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
            for r in q.drain(..) {
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

fn worker_loop(shared: &Shared, mut mb: MicroBatcher) {
    let max_batch = shared.cfg.max_batch;
    // Reused across iterations; holds at most `max_batch` requests.
    let mut batch: Vec<Request> = Vec::with_capacity(max_batch);
    'serve: loop {
        batch.clear();
        {
            let mut q = shared.queue.lock().expect("queue lock poisoned");
            loop {
                if !q.is_empty() {
                    break;
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                q = shared.arrivals.wait(q).expect("queue lock poisoned");
            }
            let key = BatchKey::of(q.front().expect("nonempty queue"));
            // Hold for the window while the front run is still short.
            if shared.cfg.batch_window > Duration::ZERO {
                let deadline = Instant::now() + shared.cfg.batch_window;
                while front_run(&q, &key, max_batch) < max_batch
                    && !shared.shutdown.load(Ordering::Acquire)
                {
                    let now = Instant::now();
                    if now >= deadline {
                        break;
                    }
                    let (guard, _) = shared
                        .arrivals
                        .wait_timeout(q, deadline - now)
                        .expect("queue lock poisoned");
                    q = guard;
                    // Another worker may have drained the queue meanwhile.
                    match q.front() {
                        Some(front) if key.matches(front) => {}
                        _ => continue 'serve,
                    }
                }
            }
            while batch.len() < max_batch {
                match q.front() {
                    Some(front) if key.matches(front) => {
                        batch.push(q.pop_front().expect("nonempty queue"));
                    }
                    _ => break,
                }
            }
        }
        if batch.is_empty() {
            continue;
        }
        if batch[0].session.is_some() {
            run_session_batch(shared, &mut mb, &mut batch);
        } else {
            run_batch(shared, &mut mb, &mut batch);
        }
        // If more work is queued, other workers may be asleep after a
        // notify_one landed here while this worker was busy.
        shared.arrivals.notify_one();
    }
}

fn finish_lane(mb: &MicroBatcher, lane: usize, r: &Request) -> Health {
    let health = mb.lane_health(lane);
    r.tenant
        .record_guard(health == Health::Degraded, health == Health::Faulted);
    let micros = r.enqueued.elapsed().as_micros() as u64;
    r.tenant.record_completed(r.t, micros);
    health
}

fn run_batch(shared: &Shared, mb: &mut MicroBatcher, batch: &mut Vec<Request>) {
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
        }
        Err(e) => {
            // Shapes are validated at submit and the registry pins the
            // spec, so this is unreachable in practice — but a scheduler
            // must degrade to failed requests, never to a poisoned worker.
            for r in batch.drain(..) {
                r.tenant.record_rejected();
                r.fail(e);
            }
        }
    }
}

/// The session fast path: gather every lane's resident filter state into
/// the shared scratch, run one no-reset forward on the batch's common
/// engine, scatter the advanced states back, and only then release each
/// session's in-flight claim and complete its ticket (so a client that
/// submits its next chunk upon ticket completion always observes the
/// updated resident state).
fn run_session_batch(shared: &Shared, mb: &mut MicroBatcher, batch: &mut Vec<Request>) {
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
        }
        Err(e) => {
            for r in batch.drain(..) {
                r.tenant.record_rejected();
                r.fail(e);
            }
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

    #[test]
    fn front_run_respects_cap_and_breaks_on_length_change() {
        let slot = || {
            Arc::new(Slot {
                state: Mutex::new(SlotState::Pending(Vec::new())),
                ready: Condvar::new(),
            })
        };
        let stats = Arc::new(TenantStats::default());
        let req = |t: usize| Request {
            steps: vec![0.0; t],
            t,
            slot: slot(),
            tenant: Arc::clone(&stats),
            enqueued: Instant::now(),
            session: None,
        };
        let q: VecDeque<Request> = [req(4), req(4), req(4), req(2), req(4)].into();
        assert_eq!(front_run(&q, &BatchKey::OneShot { t: 4 }, 16), 3);
        assert_eq!(front_run(&q, &BatchKey::OneShot { t: 4 }, 2), 2);
        assert_eq!(front_run(&q, &BatchKey::OneShot { t: 2 }, 16), 0);
    }
}
