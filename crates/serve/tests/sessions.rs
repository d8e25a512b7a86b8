//! Resident stream sessions end to end: a window fed in chunks through a
//! session is bitwise identical to the one-shot batched path — including
//! across snapshot hot-reloads (pin-old policy) and idle gaps, for filter
//! orders 1–3 — sessions coalesce into shared batched forwards, reload
//! policies behave as documented, and the lifecycle surface (busy,
//! unknown, capacity, eviction) is typed errors rather than hangs.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use adapt_pnc::models::{FilterOrder, PrintedModel};
use adapt_pnc::pdk::Pdk;
use adapt_pnc::persist;
use adapt_pnc::serve::ServeModel;
use ptnc_infer::{GuardConfig, Health};
use ptnc_serve::{BatchConfig, ModelRegistry, ReloadOutcome, ReloadPolicy, Server, ServingError};
use ptnc_tensor::init;

const DIM: usize = 2;
const CLASSES: usize = 3;

fn model_json(order: FilterOrder, seed: u64) -> String {
    let m = PrintedModel::new(
        DIM,
        4,
        CLASSES,
        order,
        &Pdk::paper_default(),
        &mut init::rng(seed),
    );
    persist::to_json(&m)
}

fn scratch_file(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ptnc-sessions-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{test}.json"))
}

fn write_snapshot(path: &Path, json: &str) {
    persist::write_atomic(path, json.as_bytes()).unwrap();
}

/// Deterministic per-stream input: `t` timesteps of `DIM` channels.
fn stream_steps(stream: usize, t: usize) -> Vec<f64> {
    (0..t * DIM)
        .map(|i| ((stream * 131 + i) as f64 * 0.23).sin())
        .collect()
}

fn quick_config() -> BatchConfig {
    BatchConfig {
        max_batch: 4,
        batch_window: Duration::from_micros(100),
        ..BatchConfig::default()
    }
}

#[test]
fn pinned_session_parity_across_reloads_and_idle_gaps_orders_1_to_3() {
    for (order, name) in [
        (FilterOrder::First, "first"),
        (FilterOrder::Second, "second"),
        (FilterOrder::Third, "third"),
    ] {
        let path = scratch_file(&format!("parity-{name}"));
        let json_a = model_json(order, 21);
        let json_b = model_json(order, 22);
        write_snapshot(&path, &json_a);
        let reg = Arc::new(ModelRegistry::open(&path).unwrap());
        let engine_a = ServeModel::from_json(&json_a).unwrap().into_shared_engine();
        let engine_b = ServeModel::from_json(&json_b).unwrap().into_shared_engine();
        let server = Server::start(Arc::clone(&reg), quick_config()).unwrap();

        let window = stream_steps(7, 30);
        let expected = engine_a.run_batch(&window, 1).unwrap();

        let id = server.open_session("plant", ReloadPolicy::PinOld).unwrap();
        // Uneven chunking with a reload and an idle gap in the middle:
        // 8 + 3 + 12 + 7 timesteps.
        let bounds = [0, 8 * DIM, 11 * DIM, 23 * DIM, 30 * DIM];
        let mut last = Vec::new();
        for (k, pair) in bounds.windows(2).enumerate() {
            if k == 2 {
                // Hot-swap different weights (same architecture) mid-window.
                write_snapshot(&path, &json_b);
                assert!(matches!(reg.poll(), ReloadOutcome::Swapped(_)));
                // New one-shot traffic sees the new engine immediately…
                assert_eq!(
                    server.infer("oneshot", &window).unwrap(),
                    engine_b.run_batch(&window, 1).unwrap(),
                    "{name}: one-shot traffic must follow the reload"
                );
            }
            if k == 3 {
                // Idle gap: the session just sits; nothing evicts it at
                // the default 300 s timeout.
                std::thread::sleep(Duration::from_millis(10));
            }
            last = server
                .submit_chunk(id, &window[pair[0]..pair[1]])
                .unwrap()
                .wait()
                .unwrap();
        }
        // …while the pinned session finished its window on engine A.
        assert_eq!(
            last, expected,
            "{name}: chunked session ≠ one-shot on the pre-reload engine"
        );
        let snap = server.session_snapshot(id).unwrap();
        assert_eq!(snap.steps_seen, 30);
        assert_eq!(snap.chunks, 4);
        assert_eq!(snap.policy, ReloadPolicy::PinOld);
        server.shutdown();
    }
}

#[test]
fn reset_on_reload_session_restarts_its_window_on_the_new_engine() {
    let path = scratch_file("reset-policy");
    let json_a = model_json(FilterOrder::Second, 31);
    let json_b = model_json(FilterOrder::Second, 32);
    write_snapshot(&path, &json_a);
    let reg = Arc::new(ModelRegistry::open(&path).unwrap());
    let engine_b = ServeModel::from_json(&json_b).unwrap().into_shared_engine();
    let server = Server::start(Arc::clone(&reg), quick_config()).unwrap();

    let id = server
        .open_session("plant", ReloadPolicy::ResetOnReload)
        .unwrap();
    let window = stream_steps(3, 20);
    let (head, tail) = window.split_at(8 * DIM);
    server.submit_chunk(id, head).unwrap().wait().unwrap();
    assert_eq!(server.session_snapshot(id).unwrap().steps_seen, 8);

    write_snapshot(&path, &json_b);
    assert!(matches!(reg.poll(), ReloadOutcome::Swapped(_)));

    // The next chunk adopts engine B from a fresh state: its logits are
    // exactly a cold run of the tail alone on B, and the step counter
    // restarted.
    let out = server.submit_chunk(id, tail).unwrap().wait().unwrap();
    assert_eq!(out, engine_b.run_batch(tail, 1).unwrap());
    assert_eq!(server.session_snapshot(id).unwrap().steps_seen, 12);
    server.shutdown();
}

#[test]
fn concurrent_sessions_coalesce_and_each_keeps_its_own_state() {
    let path = scratch_file("coalesce");
    let json = model_json(FilterOrder::Second, 41);
    write_snapshot(&path, &json);
    let engine = ServeModel::from_json(&json).unwrap().into_shared_engine();
    let server = Server::start(
        Arc::new(ModelRegistry::open(&path).unwrap()),
        BatchConfig {
            max_batch: 8,
            batch_window: Duration::from_micros(300),
            ..BatchConfig::default()
        },
    )
    .unwrap();

    const STREAMS: usize = 12;
    const CHUNK_T: usize = 6;
    const ROUNDS: usize = 3;
    let ids: Vec<_> = (0..STREAMS)
        .map(|_| server.open_session("fleet", ReloadPolicy::PinOld).unwrap())
        .collect();
    for round in 0..ROUNDS {
        // All streams submit their next chunk before anyone waits, so the
        // workers actually see coalescable traffic.
        let tickets: Vec<_> = ids
            .iter()
            .enumerate()
            .map(|(s, &id)| {
                let window = stream_steps(s, ROUNDS * CHUNK_T);
                let chunk = &window[round * CHUNK_T * DIM..(round + 1) * CHUNK_T * DIM];
                server.submit_chunk(id, chunk).unwrap()
            })
            .collect();
        for (s, ticket) in tickets.into_iter().enumerate() {
            let out = ticket.wait().unwrap();
            // Every round must equal the one-shot prefix run — state is
            // per-session, not shared or crossed between lanes.
            let prefix = &stream_steps(s, ROUNDS * CHUNK_T)[..(round + 1) * CHUNK_T * DIM];
            assert_eq!(
                out,
                engine.run_batch(prefix, 1).unwrap(),
                "stream {s} round {round}"
            );
        }
    }
    assert!(
        server.mean_batch_fill() > 1.0,
        "12 concurrent sessions never coalesced (mean fill {})",
        server.mean_batch_fill()
    );
    let snaps = server.stats().snapshots();
    assert_eq!(snaps[0].session_chunks, (STREAMS * ROUNDS) as u64);
    assert_eq!(snaps[0].requests, (STREAMS * ROUNDS) as u64);
    server.shutdown();
}

#[test]
fn session_lifecycle_is_typed_errors_not_hangs() {
    let path = scratch_file("lifecycle");
    write_snapshot(&path, &model_json(FilterOrder::Second, 51));
    let server = Server::start(
        Arc::new(ModelRegistry::open(&path).unwrap()),
        BatchConfig {
            max_batch: 64,
            // Far longer than the test, and the worker is cold (no batch
            // timed yet), so it holds the lone chunk for the whole window:
            // submitted chunks stay parked.
            batch_window: Duration::from_secs(30),
            ..BatchConfig::default()
        },
    )
    .unwrap();

    let id = server.open_session("plant", ReloadPolicy::PinOld).unwrap();
    assert_eq!(server.open_sessions(), 1);

    // One chunk in flight → the second is SessionBusy, not queued.
    let parked = server.submit_chunk(id, &stream_steps(0, 4)).unwrap();
    assert!(matches!(
        server.submit_chunk(id, &stream_steps(0, 4)),
        Err(ServingError::SessionBusy)
    ));
    // Malformed chunks are rejected like one-shot requests.
    assert!(matches!(
        server.submit_chunk(id, &[0.5; 3]),
        Err(ServingError::SessionBusy) | Err(ServingError::BadRequest(_))
    ));

    // Close: the id stops resolving; the in-flight ticket still resolves
    // (here: failed by shutdown, since the window parks it).
    assert!(server.close_session(id));
    assert!(!server.close_session(id));
    assert!(matches!(
        server.submit_chunk(id, &stream_steps(0, 4)),
        Err(ServingError::UnknownSession)
    ));
    assert!(server.session_snapshot(id).is_none());
    server.shutdown();
    match parked.wait_timeout(Duration::from_secs(10)) {
        Ok(Err(ServingError::ShuttingDown)) | Ok(Ok(_)) => {}
        Ok(Err(other)) => panic!("unexpected failure: {other}"),
        Err(_) => panic!("in-flight chunk of a closed session hung"),
    }
}

#[test]
fn session_capacity_sweeps_idle_sessions_before_refusing() {
    let path = scratch_file("capacity");
    write_snapshot(&path, &model_json(FilterOrder::Second, 61));
    let server = Server::start(
        Arc::new(ModelRegistry::open(&path).unwrap()),
        BatchConfig {
            max_sessions: 2,
            session_idle_timeout: Duration::from_millis(40),
            ..quick_config()
        },
    )
    .unwrap();

    let a = server.open_session("plant", ReloadPolicy::PinOld).unwrap();
    let _b = server.open_session("plant", ReloadPolicy::PinOld).unwrap();
    // Nothing is idle yet: at capacity, the open is refused.
    assert!(matches!(
        server.open_session("plant", ReloadPolicy::PinOld),
        Err(ServingError::SessionLimit { capacity: 2 })
    ));
    // Once the idle timeout passes, opening evicts idle sessions instead.
    std::thread::sleep(Duration::from_millis(60));
    let c = server.open_session("plant", ReloadPolicy::PinOld).unwrap();
    assert!(server.sessions_evicted() >= 1);
    assert!(matches!(
        server.submit_chunk(a, &stream_steps(0, 4)),
        Err(ServingError::UnknownSession),
    ));
    // The survivor still works.
    server
        .submit_chunk(c, &stream_steps(0, 4))
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(server.sessions_opened(), 3);

    // An explicit sweep with a generous bound evicts nothing fresh.
    assert_eq!(server.sweep_idle_sessions(Duration::from_secs(300)), 0);
    server.shutdown();
}

#[test]
fn background_sweeper_evicts_idle_sessions_without_explicit_sweep() {
    let path = scratch_file("auto-sweep");
    write_snapshot(&path, &model_json(FilterOrder::Second, 81));
    let server = Server::start(
        Arc::new(ModelRegistry::open(&path).unwrap()),
        BatchConfig {
            session_idle_timeout: Duration::from_millis(30),
            session_sweep_interval: Some(Duration::from_millis(10)),
            ..quick_config()
        },
    )
    .unwrap();

    let id = server.open_session("plant", ReloadPolicy::PinOld).unwrap();
    assert_eq!(server.open_sessions(), 1);
    // No capacity pressure, no manual sweep_idle_sessions call: the
    // background sweeper alone must reclaim the idle session.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while server.open_sessions() > 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "sweeper never evicted the idle session"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(server.sessions_evicted(), 1);
    assert!(matches!(
        server.submit_chunk(id, &stream_steps(0, 4)),
        Err(ServingError::UnknownSession)
    ));
    // A fresh, active session is untouched by the next sweep ticks.
    let busy = server.open_session("plant", ReloadPolicy::PinOld).unwrap();
    for _ in 0..4 {
        server
            .submit_chunk(busy, &stream_steps(1, 4))
            .unwrap()
            .wait()
            .unwrap();
        std::thread::sleep(Duration::from_millis(8));
    }
    assert_eq!(server.open_sessions(), 1, "active session was swept");
    server.shutdown();
}

#[test]
fn session_guard_health_is_tracked_per_session() {
    let path = scratch_file("guard");
    write_snapshot(&path, &model_json(FilterOrder::Second, 71));
    let server = Server::start(
        Arc::new(ModelRegistry::open(&path).unwrap()),
        BatchConfig {
            guard: Some(GuardConfig::default_policy()),
            ..quick_config()
        },
    )
    .unwrap();

    let noisy = server.open_session("noisy", ReloadPolicy::PinOld).unwrap();
    let clean = server.open_session("clean", ReloadPolicy::PinOld).unwrap();

    let mut poisoned = stream_steps(0, 12);
    for v in poisoned.iter_mut().step_by(3) {
        *v = f64::NAN;
    }
    let out = server
        .submit_chunk(noisy, &poisoned)
        .unwrap()
        .wait()
        .unwrap();
    assert!(
        out.iter().all(|v| v.is_finite()),
        "guard must repair NaN chunks into finite logits"
    );
    server
        .submit_chunk(clean, &stream_steps(1, 12))
        .unwrap()
        .wait()
        .unwrap();

    let noisy_snap = server.session_snapshot(noisy).unwrap();
    assert_ne!(noisy_snap.health, Health::Healthy);
    assert_eq!(noisy_snap.degraded_batches + noisy_snap.faulted_batches, 1);
    let clean_snap = server.session_snapshot(clean).unwrap();
    assert_eq!(clean_snap.health, Health::Healthy);
    assert_eq!(clean_snap.degraded_batches + clean_snap.faulted_batches, 0);
    server.shutdown();
}
