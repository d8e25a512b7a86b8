//! The chaos grid: every fault schedule the deterministic proxy can
//! produce, pinned against four invariants —
//!
//! 1. **No panics** (the grid running to completion is the assertion).
//! 2. **No hung waiters**: every request resolves within a bounded
//!    number of bounded attempts, because every blocking path in the
//!    transport carries a deadline.
//! 3. **No torn frames accepted**: whenever the schedule corrupts bytes,
//!    acceptance is impossible — a flipped bit either dies at the CRC or
//!    at the framing layer; it never reaches a decoder as truth.
//! 4. **Bitwise parity**: every `Ok` the client ever returns equals the
//!    in-process answer bit for bit, under *every* schedule — faults may
//!    cost retries, never correctness.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use adapt_pnc::models::PrintedModel;
use adapt_pnc::persist;
use ptnc_serve::{BatchConfig, ModelRegistry, ReloadPolicy, Server};
use ptnc_tensor::init;
use ptnc_wire::{
    ChaosConfig, ChaosProxy, Endpoint, FaultKind, WireClient, WireClientConfig, WireError,
    WireServer, WireServerConfig,
};

const DIM: usize = 2;

fn model_json(seed: u64) -> String {
    let m = PrintedModel::adapt_pnc(DIM, 4, 3, &mut init::rng(seed));
    persist::to_json(&m)
}

fn scratch_file(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ptnc-chaos-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{test}.json"))
}

fn steps(t: usize, phase: f64) -> Vec<f64> {
    (0..t * DIM)
        .map(|i| (i as f64 * 0.31 + phase).sin())
        .collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

struct Rig {
    server: Arc<Server>,
    wire: WireServer,
    proxy: ChaosProxy,
}

impl Rig {
    fn start(test: &str, chaos: ChaosConfig) -> Rig {
        let path = scratch_file(test);
        persist::write_atomic(&path, model_json(5).as_bytes()).unwrap();
        let server = Arc::new(
            Server::start(
                Arc::new(ModelRegistry::open(&path).unwrap()),
                BatchConfig::default(),
            )
            .unwrap(),
        );
        let wire = WireServer::bind(
            Arc::clone(&server),
            &Endpoint::Tcp("127.0.0.1:0".parse().unwrap()),
            WireServerConfig {
                // Tight deadlines so truncated/stalled frames are cut
                // loose quickly — the grid's wall clock is the sum of
                // every injected stall.
                read_deadline: Duration::from_millis(500),
                write_deadline: Duration::from_millis(500),
                request_deadline: Duration::from_secs(5),
                idle_poll: Duration::from_millis(5),
                ..WireServerConfig::default()
            },
        )
        .unwrap();
        let proxy = ChaosProxy::start(wire.endpoint(), chaos).unwrap();
        Rig {
            server,
            wire,
            proxy,
        }
    }

    fn client(&self) -> WireClient {
        WireClient::new(
            self.proxy.endpoint().clone(),
            WireClientConfig {
                connect_timeout: Duration::from_secs(1),
                request_timeout: Duration::from_secs(2),
                max_retries: 8,
                backoff_base: Duration::from_millis(2),
                backoff_max: Duration::from_millis(20),
                // The breaker is exercised by its own unit test; here it
                // would only turn injected faults into CircuitOpen noise.
                breaker_threshold: u32::MAX,
                jitter_seed: 0x5EED,
                ..WireClientConfig::default()
            },
        )
    }

    fn finish(self) {
        self.proxy.shutdown();
        self.wire.shutdown();
        // The scheduler was begin_shutdown by the wire drain; dropping
        // the Arc joins the workers (Server::drop).
        drop(self.server);
    }
}

/// One-shot requests under a given schedule: every outcome is either a
/// bitwise-correct answer or a typed error, and each request resolves
/// within the bounded retry budget.
fn run_submit_schedule(test: &str, chaos: ChaosConfig, requests: usize) -> (usize, usize) {
    let severity = chaos.severity;
    let rig = Rig::start(test, chaos);
    let mut client = rig.client();
    let mut ok = 0;
    let mut typed_errors = 0;
    for i in 0..requests {
        let window = steps(4 + i % 3, i as f64 * 0.7);
        let oracle = rig.server.infer("oracle", &window).unwrap();
        let started = Instant::now();
        match client.submit("chaos", &window) {
            Ok(c) => {
                assert_eq!(
                    bits(&c.logits),
                    bits(&oracle),
                    "{test}: request {i} returned wrong logits under chaos"
                );
                ok += 1;
            }
            // Anything typed is a legal outcome under fault injection —
            // the invariants are about hangs and wrong answers, and the
            // parity assert above is what catches "accepted a torn
            // frame" (a torn frame that decoded would return garbage).
            Err(_) => typed_errors += 1,
        }
        // "No hung waiters" made concrete: 9 attempts × (2s request
        // timeout + 20ms backoff) plus connect overhead bounds any
        // single request far below this.
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "{test}: request {i} exceeded the liveness bound"
        );
    }
    // A schedule that fired nothing proved nothing about recovery.
    if severity > 0.0 {
        assert!(
            rig.proxy.stats().total_faults() > 0,
            "{test}: severity {severity} schedule injected no fault"
        );
    }
    rig.finish();
    (ok, typed_errors)
}

#[test]
fn severity_zero_is_a_bit_exact_passthrough() {
    let (ok, errors) = run_submit_schedule(
        "passthrough",
        ChaosConfig {
            severity: 0.0,
            ..ChaosConfig::default()
        },
        12,
    );
    assert_eq!(ok, 12);
    assert_eq!(errors, 0);
}

#[test]
fn submit_grid_single_kinds() {
    // Each kind alone, at a severity high enough to fire repeatedly.
    for kind in FaultKind::ALL {
        let (ok, _errors) = run_submit_schedule(
            &format!("grid-{kind:?}"),
            ChaosConfig {
                seed: 0xC4A0_5EED ^ kind as u64,
                severity: 0.2,
                kinds: vec![kind],
                max_delay: Duration::from_millis(10),
            },
            10,
        );
        // Retries must pull most requests through every single-kind
        // schedule; a schedule that fails everything means recovery is
        // broken, not that the network was unlucky.
        assert!(
            ok >= 5,
            "schedule {kind:?}: only {ok}/10 requests survived — reconnect/retry is not recovering"
        );
    }
}

#[test]
fn submit_grid_all_kinds_mixed() {
    // Each request relays about one chunk per direction, so 48 requests
    // expect ~5 faults even at the low severity.
    let requests = 48;
    for severity in [0.05, 0.25] {
        let (ok, _) = run_submit_schedule(
            &format!("grid-mixed-{}", (severity * 100.0) as u32),
            ChaosConfig {
                seed: 0x0DD5_EED5,
                severity,
                kinds: FaultKind::ALL.to_vec(),
                max_delay: Duration::from_millis(10),
            },
            requests,
        );
        assert!(
            ok >= requests / 2,
            "mixed schedule at severity {severity}: only {ok}/{requests} survived"
        );
    }
}

#[test]
fn corruption_is_always_caught_by_the_crc() {
    let rig = Rig::start(
        "corrupt-only",
        ChaosConfig {
            seed: 0xBAD_B175,
            severity: 0.6,
            kinds: vec![FaultKind::Corrupt],
            max_delay: Duration::from_millis(5),
        },
    );
    let mut client = rig.client();
    for i in 0..10 {
        let window = steps(5, i as f64);
        let oracle = rig.server.infer("oracle", &window).unwrap();
        if let Ok(c) = client.submit("chaos", &window) {
            assert_eq!(
                bits(&c.logits),
                bits(&oracle),
                "corrupted bytes produced an answer"
            );
        }
    }
    let proxied = rig.proxy.stats();
    assert!(
        proxied.corruptions > 0,
        "the schedule must actually have corrupted chunks"
    );
    // Every server-bound corruption must land in the CRC/framing
    // counters — none may be silently accepted. (Client-bound
    // corruptions are rejected by the client's own decoder.)
    let stats = rig.wire.stats();
    assert!(
        stats.crc_rejected + stats.protocol_errors > 0,
        "server saw corrupted frames but rejected none"
    );
    rig.finish();
}

/// Sessions under connection-killing chaos: resident state must survive
/// exactly up to each restart, restarts must be *announced* (never
/// silent), and every chunk answer must match a one-shot of the window
/// accumulated since the last restart.
#[test]
fn session_state_survives_reconnects_with_announced_restarts() {
    let rig = Rig::start(
        "session-chaos",
        ChaosConfig {
            seed: 0x5E55_1075,
            severity: 0.12,
            kinds: vec![FaultKind::DropConn, FaultKind::Delay, FaultKind::Split],
            max_delay: Duration::from_millis(8),
        },
    );
    let mut client = rig.client();
    let handle = client
        .open_session("stream", ReloadPolicy::PinOld)
        .expect("opening the session must survive chaos via retries");

    // The oracle window: everything applied since the last restart.
    let mut window: Vec<f64> = Vec::new();
    let mut restarts = 0u32;
    let mut applied = 0u32;
    let mut chunk_no = 0usize;
    while applied < 12 {
        let chunk = steps(3, chunk_no as f64 * 0.9);
        chunk_no += 1;
        let mut attempts = 0;
        loop {
            attempts += 1;
            assert!(
                attempts <= 64,
                "chunk {chunk_no} cannot make progress — a liveness hole under chaos"
            );
            match client.submit_chunk(handle, &chunk) {
                Ok(c) => {
                    window.extend_from_slice(&chunk);
                    let oracle = rig.server.infer("oracle", &window).unwrap();
                    assert_eq!(
                        bits(&c.logits),
                        bits(&oracle),
                        "chunk {chunk_no}: session logits diverged from the \
                         one-shot oracle of the window since the last restart"
                    );
                    applied += 1;
                    break;
                }
                Err(WireError::SessionRestarted { .. }) => {
                    // Server-side state is gone; our accounting restarts.
                    window.clear();
                    restarts += 1;
                }
                Err(e) => {
                    // Transport faults are typed and the session will be
                    // re-opened on the next call; just try again.
                    assert!(
                        !matches!(e, WireError::UnknownHandle),
                        "the client lost its own handle"
                    );
                }
            }
        }
    }
    // With DropConn in the schedule at this severity the run must have
    // actually exercised the restart path (deterministic seed → stable).
    assert!(
        restarts > 0,
        "the schedule never restarted the session — severity too low to test anything"
    );
    rig.finish();
}

/// A drain arriving mid-chaos: the server must still say goodbye and the
/// scheduler must shut down clean (no stranded waiters anywhere).
#[test]
fn drain_under_chaos_leaves_nothing_hanging() {
    let rig = Rig::start(
        "drain-chaos",
        ChaosConfig {
            seed: 0x00D1_2A11,
            severity: 0.15,
            kinds: FaultKind::ALL.to_vec(),
            max_delay: Duration::from_millis(8),
        },
    );
    let endpoint = rig.proxy.endpoint().clone();
    let clients: Vec<_> = (0..3)
        .map(|k| {
            let endpoint = endpoint.clone();
            std::thread::spawn(move || {
                let mut client = WireClient::new(
                    endpoint,
                    WireClientConfig {
                        connect_timeout: Duration::from_secs(1),
                        request_timeout: Duration::from_secs(2),
                        max_retries: 2,
                        backoff_base: Duration::from_millis(2),
                        backoff_max: Duration::from_millis(10),
                        breaker_threshold: u32::MAX,
                        jitter_seed: k,
                        ..WireClientConfig::default()
                    },
                );
                let mut outcomes = 0usize;
                for i in 0..8 {
                    // Every outcome is fine — Ok or typed error — the
                    // assertion is that all of these *return*.
                    let _ = client.submit("t", &steps(4, i as f64 + k as f64));
                    outcomes += 1;
                }
                outcomes
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(30));
    rig.wire.begin_shutdown();
    for c in clients {
        assert_eq!(c.join().expect("client thread must not panic"), 8);
    }
    rig.finish();
}
