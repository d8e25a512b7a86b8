//! Regression tests for the four serving-layer liveness/reload races:
//!
//! 1. `submit` racing `shutdown` could enqueue a request after the
//!    shutdown drain and strand its ticket forever (the shutdown flag was
//!    only checked before the queue lock).
//! 2. A rejected snapshot was re-read, re-parsed, and re-compiled on
//!    every poll, spamming the rejection counter.
//! 3. Two concurrent `poll()` calls could compile the same bytes twice
//!    and double-increment the version.
//! 4. Dropping a `Watcher` blocked up to a full poll interval on join.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use adapt_pnc::models::PrintedModel;
use adapt_pnc::persist;
use ptnc_serve::{
    BatchConfig, ModelRegistry, ReloadOutcome, ReloadPolicy, Server, ServingError, SessionId,
};
use ptnc_tensor::init;

const DIM: usize = 2;

fn model_json(seed: u64) -> String {
    let m = PrintedModel::adapt_pnc(DIM, 4, 3, &mut init::rng(seed));
    persist::to_json(&m)
}

fn scratch_file(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ptnc-races-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{test}.json"))
}

fn write_snapshot(path: &Path, json: &str) {
    persist::write_atomic(path, json.as_bytes()).unwrap();
}

fn steps(t: usize) -> Vec<f64> {
    (0..t * DIM).map(|i| (i as f64 * 0.31).sin()).collect()
}

/// Race 1: every ticket accepted by `submit` must resolve — completed or
/// failed with `ShuttingDown` — even when the submission lands exactly in
/// the shutdown window. Before the fix, a request enqueued between the
/// drain and the worker join was stranded and `wait` blocked forever.
#[test]
fn submit_racing_shutdown_never_strands_a_ticket() {
    for round in 0..12u64 {
        let path = scratch_file(&format!("shutdown-race-{round}"));
        write_snapshot(&path, &model_json(round));
        let server = Arc::new(
            Server::start(
                Arc::new(ModelRegistry::open(&path).unwrap()),
                BatchConfig {
                    max_batch: 4,
                    batch_window: Duration::from_micros(50),
                    workers: 2,
                    ..BatchConfig::default()
                },
            )
            .unwrap(),
        );
        let go = Arc::new(AtomicBool::new(false));
        let submitters: Vec<_> = (0..3)
            .map(|_| {
                let server = Arc::clone(&server);
                let go = Arc::clone(&go);
                std::thread::spawn(move || {
                    while !go.load(Ordering::Acquire) {
                        std::hint::spin_loop();
                    }
                    let mut tickets = Vec::new();
                    for _ in 0..400 {
                        match server.submit("race", &steps(3)) {
                            Ok(t) => tickets.push(t),
                            Err(ServingError::ShuttingDown | ServingError::Backpressure { .. }) => {
                            }
                            Err(other) => panic!("unexpected rejection: {other}"),
                        }
                    }
                    tickets
                })
            })
            .collect();
        go.store(true, Ordering::Release);
        // Shut down mid-burst, at a different point each round so the
        // drain lands in different phases of the submit storm.
        std::thread::sleep(Duration::from_micros(30 * round));
        server.begin_shutdown();
        for h in submitters {
            for t in h.join().unwrap() {
                match t.wait_timeout(Duration::from_secs(10)) {
                    Ok(Ok(_)) | Ok(Err(ServingError::ShuttingDown)) => {}
                    Ok(Err(other)) => panic!("unexpected failure: {other}"),
                    Err(_) => panic!("round {round}: accepted ticket never resolved"),
                }
            }
        }
    }
}

/// Race 5: session lifecycle vs capacity eviction. Churner threads open,
/// use, and abandon sessions against a tiny `max_sessions` budget with an
/// aggressive idle timeout, while submitter threads hammer whatever
/// session ids they can see — including ones the capacity sweeper has
/// already evicted. Every outcome must be a completed request or a typed
/// error (`UnknownSession` for evicted ids, `SessionBusy`,
/// `Backpressure`, `SessionLimit`, `ShuttingDown`); no panic, no stale
/// logits, no stranded ticket.
#[test]
fn session_churn_vs_capacity_eviction_yields_typed_errors_never_panics() {
    use std::sync::atomic::AtomicU64;
    use std::sync::Mutex;

    let path = scratch_file("session-churn");
    write_snapshot(&path, &model_json(130));
    let server = Arc::new(
        Server::start(
            Arc::new(ModelRegistry::open(&path).unwrap()),
            BatchConfig {
                max_batch: 4,
                batch_window: Duration::from_micros(50),
                workers: 2,
                max_sessions: 4,
                session_idle_timeout: Duration::from_millis(1),
                session_sweep_interval: Some(Duration::from_millis(2)),
                ..BatchConfig::default()
            },
        )
        .unwrap(),
    );

    // Churners publish every id they open; submitters deliberately read
    // stale entries, so eviction races are exercised on purpose.
    let seen: Arc<Mutex<Vec<SessionId>>> = Arc::new(Mutex::new(Vec::new()));
    let stop = Arc::new(AtomicBool::new(false));
    let unknown_hits = Arc::new(AtomicU64::new(0));

    let churners: Vec<_> = (0..3u64)
        .map(|c| {
            let server = Arc::clone(&server);
            let seen = Arc::clone(&seen);
            std::thread::spawn(move || {
                for i in 0..200u64 {
                    match server.open_session("churn", ReloadPolicy::default()) {
                        Ok(id) => {
                            seen.lock().unwrap().push(id);
                            if (c + i) % 3 == 0 {
                                // Abandon: only the sweeper can reclaim it.
                                continue;
                            }
                            match server.submit_chunk(id, &steps(2)) {
                                Ok(t) => {
                                    let _ = t.wait();
                                }
                                Err(
                                    ServingError::UnknownSession
                                    | ServingError::SessionBusy
                                    | ServingError::Backpressure { .. },
                                ) => {}
                                Err(other) => panic!("churner chunk rejected oddly: {other}"),
                            }
                            if (c + i) % 2 == 0 {
                                server.close_session(id);
                            }
                        }
                        Err(ServingError::SessionLimit { .. }) => {
                            // Let abandoned sessions age past the idle
                            // timeout so the next open's capacity sweep
                            // can reclaim them.
                            std::thread::sleep(Duration::from_millis(2));
                        }
                        Err(other) => panic!("open_session failed oddly: {other}"),
                    }
                }
            })
        })
        .collect();

    let submitters: Vec<_> = (0..3u64)
        .map(|s| {
            let server = Arc::clone(&server);
            let seen = Arc::clone(&seen);
            let stop = Arc::clone(&stop);
            let unknown_hits = Arc::clone(&unknown_hits);
            std::thread::spawn(move || {
                let mut n = s;
                while !stop.load(Ordering::Acquire) {
                    let id = {
                        let ids = seen.lock().unwrap();
                        if ids.is_empty() {
                            drop(ids);
                            std::thread::yield_now();
                            continue;
                        }
                        // Walk the full history, stale ids included.
                        ids[(n as usize) % ids.len()]
                    };
                    n = n.wrapping_add(1);
                    match server.submit_chunk(id, &steps(2)) {
                        Ok(t) => match t.wait_timeout(Duration::from_secs(10)) {
                            Ok(Ok(logits)) => {
                                assert!(
                                    logits.iter().all(|v| v.is_finite()),
                                    "accepted chunk returned non-finite logits"
                                );
                            }
                            Ok(Err(ServingError::ShuttingDown)) => {}
                            Ok(Err(other)) => panic!("ticket failed oddly: {other}"),
                            Err(_) => panic!("accepted session chunk never resolved"),
                        },
                        Err(ServingError::UnknownSession) => {
                            unknown_hits.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(
                            ServingError::SessionBusy
                            | ServingError::Backpressure { .. }
                            | ServingError::ShuttingDown,
                        ) => {}
                        Err(other) => panic!("submit_chunk rejected oddly: {other}"),
                    }
                }
            })
        })
        .collect();

    for h in churners {
        h.join().unwrap();
    }
    stop.store(true, Ordering::Release);
    for h in submitters {
        h.join().unwrap();
    }

    assert!(
        server.sessions_evicted() > 0,
        "capacity pressure never evicted a session — the race went unexercised"
    );
    assert!(
        unknown_hits.load(Ordering::Relaxed) > 0,
        "no submitter ever hit an evicted/closed session — the race went unexercised"
    );
    // The registry stays consistent after the storm: a fresh session
    // opens (once the leftovers age past the idle timeout) and serves.
    let deadline = Instant::now() + Duration::from_secs(10);
    let id = loop {
        match server.open_session("churn", ReloadPolicy::default()) {
            Ok(id) => break id,
            Err(ServingError::SessionLimit { .. }) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(other) => panic!("post-storm open_session failed: {other}"),
        }
    };
    let out = server.submit_chunk(id, &steps(2)).unwrap().wait().unwrap();
    assert!(out.iter().all(|v| v.is_finite()));
    match Arc::try_unwrap(server) {
        Ok(server) => server.shutdown(),
        Err(_) => panic!("all server clones should have joined"),
    }
}

/// Race 2: a corrupt snapshot is read, parsed, and rejected exactly once;
/// until its bytes change, subsequent polls are `Unchanged` (no
/// recompilation, no rejection-counter spam).
#[test]
fn rejected_snapshot_is_not_recompiled_every_poll() {
    let path = scratch_file("rejected-cache");
    let good = model_json(100);
    write_snapshot(&path, &good);
    let reg = ModelRegistry::open(&path).unwrap();

    write_snapshot(&path, "{not a snapshot, attempt one");
    assert!(matches!(reg.poll(), ReloadOutcome::Rejected(_)));
    assert_eq!(reg.reloads_rejected(), 1);
    for _ in 0..8 {
        assert!(
            matches!(reg.poll(), ReloadOutcome::Unchanged),
            "identical rejected bytes must poll as Unchanged"
        );
    }
    assert_eq!(
        reg.reloads_rejected(),
        1,
        "cached rejection must not re-count"
    );

    // Different bad bytes: one fresh rejection, then cached again.
    write_snapshot(&path, "{not a snapshot, attempt two");
    assert!(matches!(reg.poll(), ReloadOutcome::Rejected(_)));
    assert!(matches!(reg.poll(), ReloadOutcome::Unchanged));
    assert_eq!(reg.reloads_rejected(), 2);

    // A good snapshot afterwards still swaps in.
    write_snapshot(&path, &model_json(101));
    assert!(matches!(reg.poll(), ReloadOutcome::Swapped(_)));
    assert_eq!(reg.version(), 2);

    // Restoring the previously rejected bytes re-rejects (the cache was
    // cleared by the successful swap) — rejection is per-bytes, not
    // sticky forever.
    write_snapshot(&path, "{not a snapshot, attempt two");
    assert!(matches!(reg.poll(), ReloadOutcome::Rejected(_)));
}

/// Race 3: N threads polling the same new snapshot concurrently produce
/// exactly one swap and one version bump — reloads are serialized, never
/// double-compiled or double-counted.
#[test]
fn concurrent_polls_swap_exactly_once() {
    let path = scratch_file("poll-once");
    write_snapshot(&path, &model_json(110));
    let reg = Arc::new(ModelRegistry::open(&path).unwrap());

    for round in 0..6 {
        write_snapshot(&path, &model_json(111 + round));
        let barrier = Arc::new(std::sync::Barrier::new(8));
        let swaps: usize = (0..8)
            .map(|_| {
                let reg = Arc::clone(&reg);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    match reg.poll() {
                        ReloadOutcome::Swapped(_) => 1usize,
                        ReloadOutcome::Unchanged => 0,
                        ReloadOutcome::Rejected(e) => panic!("unexpected rejection: {e}"),
                    }
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .sum();
        assert_eq!(swaps, 1, "round {round}: exactly one poll must swap");
        assert_eq!(reg.version(), 2 + round, "version must bump exactly once");
    }
}

/// Race 4: dropping a watcher with a long poll interval returns promptly
/// (the inter-poll wait is interrupted, not slept out).
#[test]
fn watcher_drop_is_prompt_despite_long_interval() {
    let path = scratch_file("prompt-drop");
    write_snapshot(&path, &model_json(120));
    let reg = Arc::new(ModelRegistry::open(&path).unwrap());
    let watcher = reg.watch(Duration::from_secs(60));
    // Give the thread time to finish its first poll and park in the wait.
    std::thread::sleep(Duration::from_millis(50));
    let t0 = Instant::now();
    drop(watcher);
    let took = t0.elapsed();
    assert!(
        took < Duration::from_secs(5),
        "watcher drop blocked {took:?} against a 60 s interval"
    );
}

/// Race 5 (wire-transport hardening): `Ticket::wait_timeout` racing
/// `begin_shutdown` must always resolve — either the request's outcome
/// or a clean timeout handing the ticket back — and may never hang or
/// panic. Transport handler threads sit in exactly this wait while a
/// drain fires, so a hole here would hang a connection forever.
#[test]
fn wait_timeout_racing_begin_shutdown_never_hangs() {
    for round in 0..10u64 {
        let path = scratch_file(&format!("wait-timeout-shutdown-{round}"));
        write_snapshot(&path, &model_json(round + 40));
        let server = Arc::new(
            Server::start(
                Arc::new(ModelRegistry::open(&path).unwrap()),
                BatchConfig {
                    max_batch: 8,
                    // A cold worker (no batch timed yet) holds a short
                    // front run for the whole window, so requests park in
                    // the queue and the shutdown drain races live waiters,
                    // not already-completed slots.
                    batch_window: Duration::from_millis(50),
                    workers: 1,
                    ..BatchConfig::default()
                },
            )
            .unwrap(),
        );
        let mut tickets = Vec::new();
        for _ in 0..16 {
            tickets.push(server.submit("race", &steps(3)).unwrap());
        }
        let shutter = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || {
                // Land the drain in the middle of the wait_timeout churn.
                std::thread::sleep(Duration::from_micros(300 * round));
                server.begin_shutdown();
            })
        };
        let watchdog = Instant::now();
        let mut resolved = 0usize;
        for mut ticket in tickets {
            // Spin tiny waits so the drain interleaves with many
            // timeout/retry transitions per ticket.
            loop {
                assert!(
                    watchdog.elapsed() < Duration::from_secs(30),
                    "round {round}: a ticket wait is stuck across begin_shutdown"
                );
                match ticket.wait_timeout(Duration::from_micros(50)) {
                    Ok(Ok(logits)) => {
                        assert!(!logits.is_empty());
                        resolved += 1;
                        break;
                    }
                    Ok(Err(e)) => {
                        assert!(
                            matches!(e, ServingError::ShuttingDown),
                            "round {round}: unexpected failure {e}"
                        );
                        resolved += 1;
                        break;
                    }
                    Err(back) => ticket = back,
                }
            }
        }
        assert_eq!(
            resolved, 16,
            "round {round}: every accepted ticket must resolve"
        );
        shutter.join().unwrap();
    }
}
