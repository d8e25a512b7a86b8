//! Pins the zero-allocation claim on the worker hot path: once a
//! [`MicroBatcher`] is built, `begin → load_lane → forward` performs no
//! heap allocation in steady state — with or without the input guard, and
//! on the resident-session path (`import_session → forward_resident →
//! export_session`) just the same — under a counting global allocator.
//! The single-stream path, one-step `StreamSession::run_chunk` calls with
//! or without `InputGuard::sanitize` in front, is pinned the same way.
//!
//! This lives in its own test binary because `#[global_allocator]` is
//! process-wide. The allocator counts only allocations made by a thread
//! inside its own [`count_allocs`] window, so tests running in parallel
//! on sibling threads never leak into each other's counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use adapt_pnc::models::PrintedModel;
use adapt_pnc::serve::ServeModel;
use ptnc_infer::{GuardConfig, InputGuard};
use ptnc_serve::{BatchConfig, MicroBatcher};
use ptnc_tensor::init;

struct CountingAlloc;

thread_local! {
    // `const`-initialised with no destructor: reading them never
    // allocates, so the allocator itself can consult them.
    static MEASURING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn record_allocation() {
    // `try_with` fails only during thread teardown, outside any window.
    let _ = MEASURING.try_with(|on| {
        if on.get() {
            ALLOCATIONS.with(|n| n.set(n.get() + 1));
        }
    });
}

/// Runs `f` and returns how many allocations this thread made inside it.
fn count_allocs(f: impl FnOnce()) -> u64 {
    ALLOCATIONS.with(|n| n.set(0));
    MEASURING.with(|on| on.set(true));
    f();
    MEASURING.with(|on| on.set(false));
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: delegates directly to `System`; the counter is a thread-local
// side effect and does not affect allocation behavior.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const DIM: usize = 3;

fn steady_state_allocs(guard: Option<GuardConfig>) -> u64 {
    let model = PrintedModel::adapt_pnc(DIM, 6, 4, &mut init::rng(7));
    let engine = ServeModel::from_live(&model).unwrap().into_engine();
    let cfg = BatchConfig {
        max_batch: 8,
        max_steps: 64,
        guard,
        ..BatchConfig::default()
    };
    let mut mb = MicroBatcher::new(&engine, &cfg).unwrap();
    let lanes: Vec<Vec<f64>> = (0..cfg.max_batch)
        .map(|lane| {
            (0..48 * DIM)
                .map(|i| ((lane * 97 + i) as f64 * 0.17).sin())
                .collect()
        })
        .collect();

    let round = |mb: &mut MicroBatcher| {
        mb.begin(48).unwrap();
        for (lane, steps) in lanes.iter().enumerate() {
            mb.load_lane(lane, steps).unwrap();
        }
        mb.forward(&engine).unwrap();
        // Touch the outputs so the forward cannot be optimized away.
        assert!(mb.lane_logits(0).iter().all(|v| v.is_finite()));
    };

    // Warm up once (lazy thread-locals, first-use buffers), then measure.
    round(&mut mb);
    count_allocs(|| {
        for _ in 0..32 {
            round(&mut mb);
        }
    })
}

#[test]
fn batched_forward_is_allocation_free_in_steady_state() {
    assert_eq!(
        steady_state_allocs(None),
        0,
        "unguarded begin/load/forward must not touch the heap"
    );
}

#[test]
fn guarded_forward_is_allocation_free_in_steady_state() {
    assert_eq!(
        steady_state_allocs(Some(GuardConfig::default_policy())),
        0,
        "guarded begin/load/forward must not touch the heap"
    );
}

/// The session steady state: resident states of more logical streams than
/// lanes are gathered into the scratch, advanced by a no-reset forward,
/// and scattered back — with zero allocations per batched forward.
fn session_steady_state_allocs(guard: Option<GuardConfig>) -> u64 {
    use std::sync::Arc;

    let model = PrintedModel::adapt_pnc(DIM, 6, 4, &mut init::rng(7));
    let engine: Arc<_> = ServeModel::from_live(&model).unwrap().into_shared_engine();
    let cfg = BatchConfig {
        max_batch: 8,
        max_steps: 64,
        guard,
        ..BatchConfig::default()
    };
    let mut mb = MicroBatcher::new(&engine, &cfg).unwrap();
    // Twice as many resident sessions as lanes: every batch re-gathers a
    // different subset, as the scheduler does for 100k+ streams.
    let mut sessions: Vec<_> = (0..2 * cfg.max_batch).map(|_| engine.session()).collect();
    let chunks: Vec<Vec<f64>> = (0..2 * cfg.max_batch)
        .map(|s| {
            (0..12 * DIM)
                .map(|i| ((s * 97 + i) as f64 * 0.17).sin())
                .collect()
        })
        .collect();

    let round = |mb: &mut MicroBatcher, sessions: &mut [ptnc_infer::StreamSession], base: usize| {
        mb.begin(12).unwrap();
        for lane in 0..cfg.max_batch {
            let s = base + lane;
            mb.load_lane(lane, &chunks[s]).unwrap();
            mb.import_session(lane, &sessions[s]).unwrap();
        }
        mb.forward_resident(&engine).unwrap();
        for lane in 0..cfg.max_batch {
            mb.export_session(lane, &mut sessions[base + lane]).unwrap();
        }
        assert!(mb.lane_logits(0).iter().all(|v| v.is_finite()));
    };

    // Warm up once (lazy thread-locals, first-use buffers), then measure.
    round(&mut mb, &mut sessions, 0);
    count_allocs(|| {
        for k in 0..32 {
            round(&mut mb, &mut sessions, (k % 2) * cfg.max_batch);
        }
    })
}

#[test]
fn session_forward_is_allocation_free_in_steady_state() {
    assert_eq!(
        session_steady_state_allocs(None),
        0,
        "import/forward_resident/export must not touch the heap"
    );
}

#[test]
fn guarded_session_forward_is_allocation_free_in_steady_state() {
    assert_eq!(
        session_steady_state_allocs(Some(GuardConfig::default_policy())),
        0,
        "guarded session forwards must not touch the heap"
    );
}

/// The single-stream steady state: one timestep per
/// `StreamSession::run_chunk` call on a batch-1 scratch, each frame
/// sanitized by an `InputGuard` first when one is configured (the guarded
/// frames include NaN and out-of-range readings, so repairs run too).
fn one_step_session_allocs(guard: Option<GuardConfig>) -> u64 {
    let model = PrintedModel::adapt_pnc(DIM, 6, 4, &mut init::rng(7));
    let engine = ServeModel::from_live(&model).unwrap().into_shared_engine();
    let mut guard = guard.map(|cfg| InputGuard::new(cfg, 1, DIM).unwrap());
    let faulty = guard.is_some();
    let frames: Vec<[f64; DIM]> = (0..48)
        .map(|t| {
            std::array::from_fn(|i| match (t * DIM + i) % 7 {
                0 if faulty => f64::NAN,
                3 if faulty => 1e9,
                k => ((t * 97 + k) as f64 * 0.17).sin(),
            })
        })
        .collect();
    let mut session = engine.session();
    let mut scratch = engine.make_scratch(1).unwrap();
    let mut logits = vec![0.0; engine.spec().classes];

    let mut round = || {
        for frame in &frames {
            let mut step = *frame;
            if let Some(g) = &mut guard {
                g.sanitize(&mut step).unwrap();
            }
            session.run_chunk(&step, &mut scratch, &mut logits).unwrap();
        }
        assert!(logits.iter().all(|v| v.is_finite()));
    };

    // Warm up once (lazy thread-locals, first-use buffers), then measure.
    round();
    count_allocs(|| {
        for _ in 0..32 {
            round();
        }
    })
}

#[test]
fn one_step_session_chunk_is_allocation_free_in_steady_state() {
    assert_eq!(
        one_step_session_allocs(None),
        0,
        "one-step StreamSession::run_chunk must not touch the heap"
    );
}

#[test]
fn guarded_one_step_session_chunk_is_allocation_free_in_steady_state() {
    assert_eq!(
        one_step_session_allocs(Some(GuardConfig::default_policy())),
        0,
        "InputGuard::sanitize + one-step run_chunk must not touch the heap"
    );
}
