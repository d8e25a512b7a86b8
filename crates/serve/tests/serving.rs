//! The micro-batching scheduler end to end: batched serving is bitwise
//! identical to direct single-lane inference, malformed requests and
//! overload come back as typed errors (no panics, no unbounded blocking),
//! per-tenant stats accumulate, and the optional guard keeps NaN bursts
//! from poisoning a shared batch.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use adapt_pnc::models::PrintedModel;
use adapt_pnc::persist;
use adapt_pnc::serve::ServeModel;
use ptnc_infer::{GuardConfig, InferError};
use ptnc_serve::{BatchConfig, ModelRegistry, Server, ServingError};
use ptnc_tensor::init;

const DIM: usize = 2;
const CLASSES: usize = 3;

fn snapshot_file(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ptnc-serving-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{test}.json"));
    let m = PrintedModel::adapt_pnc(DIM, 4, CLASSES, &mut init::rng(42));
    persist::write_atomic(&path, persist::to_json(&m).as_bytes()).unwrap();
    path
}

fn registry(path: &Path) -> Arc<ModelRegistry> {
    Arc::new(ModelRegistry::open(path).unwrap())
}

/// Deterministic per-stream input: `t` timesteps of `DIM` channels.
fn stream_steps(stream: usize, t: usize) -> Vec<f64> {
    (0..t * DIM)
        .map(|i| ((stream * 131 + i) as f64 * 0.23).sin())
        .collect()
}

#[test]
fn served_logits_are_bitwise_identical_to_direct_inference() {
    let path = snapshot_file("parity");
    let reg = registry(&path);
    let direct = ServeModel::from_file(&path).unwrap().into_engine();
    let server = Server::start(
        Arc::clone(&reg),
        BatchConfig {
            max_batch: 8,
            batch_window: Duration::from_micros(200),
            ..BatchConfig::default()
        },
    )
    .unwrap();

    // Many logical streams in flight at once — submission is split from
    // completion, so one client thread multiplexes them all.
    let tickets: Vec<_> = (0..40)
        .map(|s| server.submit("fleet", &stream_steps(s, 16)).unwrap())
        .collect();
    for (s, ticket) in tickets.into_iter().enumerate() {
        let served = ticket.wait().unwrap();
        let expected = direct.run_batch(&stream_steps(s, 16), 1).unwrap();
        assert_eq!(served, expected, "stream {s}: batched ≠ direct");
    }
    assert!(server.batches() >= 1);
    assert!(
        server.mean_batch_fill() > 1.0,
        "40 concurrent streams never coalesced (mean fill {})",
        server.mean_batch_fill()
    );
    server.shutdown();
}

#[test]
fn mixed_length_requests_are_served_correctly() {
    let path = snapshot_file("mixed");
    let reg = registry(&path);
    let direct = ServeModel::from_file(&path).unwrap().into_engine();
    let server = Server::start(
        Arc::clone(&reg),
        BatchConfig {
            max_batch: 4,
            batch_window: Duration::from_micros(100),
            ..BatchConfig::default()
        },
    )
    .unwrap();

    let lengths = [4usize, 4, 9, 4, 17, 9, 9, 4, 17, 1];
    let tickets: Vec<_> = lengths
        .iter()
        .enumerate()
        .map(|(s, &t)| (s, t, server.submit("mixed", &stream_steps(s, t)).unwrap()))
        .collect();
    for (s, t, ticket) in tickets {
        let served = ticket.wait().unwrap();
        let expected = direct.run_batch(&stream_steps(s, t), 1).unwrap();
        assert_eq!(served, expected, "stream {s} (t={t})");
    }
    server.shutdown();
}

#[test]
fn malformed_requests_are_typed_errors_not_panics() {
    let path = snapshot_file("malformed");
    let server = Server::start(registry(&path), BatchConfig::default()).unwrap();

    // Empty payload.
    assert!(matches!(
        server.submit("bad", &[]),
        Err(ServingError::BadRequest(InferError::ShapeMismatch { .. }))
    ));
    // Not a multiple of the input width.
    assert!(matches!(
        server.submit("bad", &[0.1, 0.2, 0.3]),
        Err(ServingError::BadRequest(InferError::ShapeMismatch {
            what: "steps",
            ..
        }))
    ));
    // Longer than the staging window.
    let long = vec![0.0; (BatchConfig::default().max_steps + 1) * DIM];
    assert!(matches!(
        server.submit("bad", &long),
        Err(ServingError::TooManySteps { .. })
    ));

    let snaps = server.stats().snapshots();
    assert_eq!(snaps.len(), 1);
    assert_eq!(snaps[0].rejected, 3);
    assert_eq!(snaps[0].requests, 0);

    // The server still serves good traffic afterwards.
    assert_eq!(
        server.infer("bad", &stream_steps(0, 5)).unwrap().len(),
        CLASSES
    );
    server.shutdown();
}

#[test]
fn overload_sheds_with_backpressure_and_recovers() {
    let path = snapshot_file("backpressure");
    let server = Server::start(
        registry(&path),
        BatchConfig {
            max_batch: 8,
            queue_capacity: 2,
            // A cold worker (no batch timed yet) holds its first short
            // front run for the whole window, so queued requests stay
            // parked while we overfill.
            batch_window: Duration::from_millis(200),
            workers: 1,
            ..BatchConfig::default()
        },
    )
    .unwrap();

    let mut accepted = Vec::new();
    let mut shed = 0usize;
    for s in 0..50 {
        match server.submit("burst", &stream_steps(s, 6)) {
            Ok(t) => accepted.push((s, t)),
            Err(ServingError::Backpressure { capacity, .. }) => {
                assert_eq!(capacity, 2);
                shed += 1;
            }
            Err(other) => panic!("unexpected rejection: {other}"),
        }
    }
    assert!(shed > 0, "a 2-deep queue must shed a 50-request burst");
    // Shedding never blocks delivery of what was accepted.
    let direct = ServeModel::from_file(&path).unwrap().into_engine();
    for (s, ticket) in accepted {
        assert_eq!(
            ticket.wait().unwrap(),
            direct.run_batch(&stream_steps(s, 6), 1).unwrap()
        );
    }
    let snaps = server.stats().snapshots();
    assert_eq!(snaps[0].shed, shed as u64);
    assert!(snaps[0].requests >= 1);
    // Queue has drained: a fresh request goes straight through.
    assert!(server.infer("burst", &stream_steps(99, 6)).is_ok());
    server.shutdown();
}

#[test]
fn shutdown_fails_parked_requests_with_a_typed_error() {
    let path = snapshot_file("shutdown");
    let server = Server::start(
        registry(&path),
        BatchConfig {
            max_batch: 64,
            // Far longer than the test, and the worker is cold (no batch
            // timed yet), so it holds the lone request for the whole
            // window: the request is still parked at shutdown.
            batch_window: Duration::from_secs(30),
            workers: 1,
            ..BatchConfig::default()
        },
    )
    .unwrap();
    let parked = server.submit("halting", &stream_steps(0, 4)).unwrap();
    server.shutdown();
    assert!(matches!(parked.wait(), Err(ServingError::ShuttingDown)));
}

#[test]
fn lone_requests_on_a_warm_server_do_not_wait_out_the_window() {
    let path = snapshot_file("warm");
    let direct = ServeModel::from_file(&path).unwrap().into_engine();
    let server = Server::start(
        registry(&path),
        BatchConfig {
            max_batch: 2,
            batch_window: Duration::from_secs(30),
            workers: 1,
            ..BatchConfig::default()
        },
    )
    .unwrap();
    // A full front run never holds, so this pair times the worker's
    // first batch (F̂) without waiting out the window.
    let pair: Vec<_> = (0..2)
        .map(|s| server.submit("warm", &stream_steps(s, 8)).unwrap())
        .collect();
    for ticket in pair {
        assert!(matches!(
            ticket.wait_timeout(Duration::from_secs(5)),
            Ok(Ok(_))
        ));
    }
    // A warm worker holds a lone request at most F̂/2 past its arrival,
    // whatever the arrival-gap estimate says, so none of these waits out
    // the 30 s window.
    for s in 2..22 {
        let served = match server
            .submit("warm", &stream_steps(s, 8))
            .unwrap()
            .wait_timeout(Duration::from_secs(5))
        {
            Ok(outcome) => outcome.unwrap(),
            Err(_) => panic!("lone request {s} waited out the batch window"),
        };
        let expected = direct.run_batch(&stream_steps(s, 8), 1).unwrap();
        assert_eq!(served, expected, "stream {s}: served ≠ direct");
    }
    assert_eq!(server.stats().snapshots()[0].requests, 22);
    server.shutdown();
}

#[test]
fn an_unbounded_batch_window_serves_pairs_and_parks_lone_requests() {
    let path = snapshot_file("unbounded");
    let direct = ServeModel::from_file(&path).unwrap().into_engine();
    let cfg = BatchConfig {
        max_batch: 2,
        batch_window: Duration::MAX,
        workers: 1,
        ..BatchConfig::default()
    };
    let server = Server::start(registry(&path), cfg).unwrap();
    let pair: Vec<_> = (0..2)
        .map(|s| server.submit("pair", &stream_steps(s, 5)).unwrap())
        .collect();
    for (s, ticket) in pair.into_iter().enumerate() {
        let served = match ticket.wait_timeout(Duration::from_secs(5)) {
            Ok(outcome) => outcome.unwrap(),
            Err(_) => panic!("a full pair under an unbounded window never ran"),
        };
        assert_eq!(served, direct.run_batch(&stream_steps(s, 5), 1).unwrap());
    }
    server.shutdown();

    // A cold worker holds a lone request for the whole (unbounded) window,
    // so it is still queued when shutdown drains the queue.
    let server = Server::start(registry(&path), cfg).unwrap();
    let parked = server.submit("lone", &stream_steps(0, 5)).unwrap();
    server.begin_shutdown();
    assert!(matches!(
        parked.wait_timeout(Duration::MAX),
        Ok(Err(ServingError::ShuttingDown))
    ));
    server.shutdown();
}

#[test]
fn wait_timeout_accepts_an_unbounded_timeout() {
    let path = snapshot_file("unbounded-wait");
    let direct = ServeModel::from_file(&path).unwrap().into_engine();
    let server = Server::start(registry(&path), BatchConfig::default()).unwrap();
    let ticket = server.submit("t", &stream_steps(3, 7)).unwrap();
    let served = match ticket.wait_timeout(Duration::MAX) {
        Ok(outcome) => outcome.unwrap(),
        Err(_) => panic!("an unbounded wait timed out"),
    };
    assert_eq!(served, direct.run_batch(&stream_steps(3, 7), 1).unwrap());
    server.shutdown();
}

#[test]
fn per_tenant_stats_separate_traffic() {
    let path = snapshot_file("tenants");
    let server = Server::start(
        registry(&path),
        BatchConfig {
            batch_window: Duration::from_micros(50),
            ..BatchConfig::default()
        },
    )
    .unwrap();
    for s in 0..6 {
        server.infer("plant-a", &stream_steps(s, 8)).unwrap();
    }
    for s in 0..2 {
        server.infer("plant-b", &stream_steps(s, 3)).unwrap();
    }
    let snaps = server.stats().snapshots();
    assert_eq!(snaps.len(), 2);
    assert_eq!(snaps[0].tenant, "plant-a");
    assert_eq!(snaps[0].requests, 6);
    assert_eq!(snaps[0].timesteps, 48);
    assert_eq!(snaps[1].tenant, "plant-b");
    assert_eq!(snaps[1].requests, 2);
    assert_eq!(snaps[1].timesteps, 6);
    // Latency quantiles are populated and ordered.
    assert!(snaps[0].p99_micros >= snaps[0].p50_micros);

    let ((), events) = ptnc_telemetry::collect(|| server.stats().emit_telemetry());
    assert_eq!(events.len(), 2);
    server.shutdown();
}

#[test]
fn guard_keeps_nan_bursts_out_of_shared_batches() {
    let path = snapshot_file("guarded");
    let server = Server::start(
        registry(&path),
        BatchConfig {
            max_batch: 4,
            batch_window: Duration::from_micros(200),
            guard: Some(GuardConfig::default_policy()),
            ..BatchConfig::default()
        },
    )
    .unwrap();

    let mut poisoned = stream_steps(0, 12);
    for v in poisoned.iter_mut().step_by(3) {
        *v = f64::NAN;
    }
    let clean = stream_steps(1, 12);
    let t_poisoned = server.submit("noisy", &poisoned).unwrap();
    let t_clean = server.submit("clean", &clean).unwrap();

    let out_poisoned = t_poisoned.wait().unwrap();
    let out_clean = t_clean.wait().unwrap();
    assert!(
        out_poisoned.iter().all(|v| v.is_finite()),
        "guard must repair NaN inputs into finite logits"
    );
    assert!(out_clean.iter().all(|v| v.is_finite()));
    assert!(server.guard_repaired() > 0, "repairs went uncounted");
    server.shutdown();
}

#[test]
fn invalid_configs_are_rejected_at_startup() {
    let path = snapshot_file("config");
    let reg = registry(&path);
    for cfg in [
        BatchConfig {
            max_batch: 0,
            ..BatchConfig::default()
        },
        BatchConfig {
            workers: 0,
            ..BatchConfig::default()
        },
        BatchConfig {
            queue_capacity: 0,
            ..BatchConfig::default()
        },
        BatchConfig {
            max_steps: 0,
            ..BatchConfig::default()
        },
    ] {
        assert!(matches!(
            Server::start(Arc::clone(&reg), cfg),
            Err(ServingError::Config { .. })
        ));
    }
    // An inconsistent guard config is typed too.
    let bad_guard = BatchConfig {
        guard: Some(
            GuardConfig::default_policy().with_policy(ptnc_infer::DegradePolicy::MedianOfLast(0)),
        ),
        ..BatchConfig::default()
    };
    assert!(matches!(
        Server::start(reg, bad_guard),
        Err(ServingError::BadRequest(
            InferError::InvalidGuardConfig { .. }
        ))
    ));
}
