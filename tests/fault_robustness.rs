//! Runtime sensor-fault injection and graceful degradation: zero-severity
//! schedules are exact no-ops, the guarded inference path keeps every
//! internal value finite under arbitrary fault schedules (the invariant
//! the unguarded path cannot offer — one NaN poisons its filter states
//! permanently), and the robustness sweep is byte-identical across thread
//! counts.

use adapt_pnc::faultsim::{FaultKind, FaultSchedule};
use adapt_pnc::infer::{DegradePolicy, GuardConfig, Health, InferModel, InputGuard, Scratch};
use adapt_pnc::prelude::*;
use adapt_pnc::robustness::to_jsonl;
use adapt_pnc::{serve, telemetry};
use ptnc_tensor::{init, Tensor};

const ORDERS: [FilterOrder; 3] = [FilterOrder::First, FilterOrder::Second, FilterOrder::Third];

fn model_with_order(order: FilterOrder, seed: u64) -> PrintedModel {
    PrintedModel::new(2, 5, 3, order, &Pdk::paper_default(), &mut init::rng(seed))
}

/// A deterministic time-varying sequence of `[batch, dim]` steps.
fn seeded_steps(t: usize, batch: usize, dim: usize) -> Vec<Tensor> {
    (0..t)
        .map(|k| {
            let data: Vec<f64> = (0..batch * dim)
                .map(|i| ((k * batch * dim + i) as f64 * 0.37).sin())
                .collect();
            Tensor::from_vec(&[batch, dim], data)
        })
        .collect()
}

/// Streams time-major `flat` input for `batch` lanes one timestep per
/// call, each step sanitized by a fresh `cfg` guard before
/// `run_chunk_into` on a fresh scratch. `after_step` sees the scratch
/// after every step. Returns the last logits and the guard.
fn sanitized_stream(
    engine: &InferModel,
    cfg: GuardConfig,
    flat: &[f64],
    batch: usize,
    mut after_step: impl FnMut(&Scratch),
) -> (Vec<f64>, InputGuard) {
    let dim = engine.spec().input_dim;
    let mut guard = InputGuard::new(cfg, batch, dim).unwrap();
    let mut scratch = engine.make_scratch(batch).unwrap();
    let mut last = vec![0.0; batch * engine.spec().classes];
    for chunk in flat.chunks_exact(batch * dim) {
        let mut step = chunk.to_vec();
        guard.sanitize(&mut step).unwrap();
        engine
            .run_chunk_into(&step, batch, &mut scratch, &mut last)
            .unwrap();
        after_step(&scratch);
    }
    (last, guard)
}

/// A schedule carrying every fault kind at the given severity.
fn full_schedule(seed: u64, severity: f64) -> FaultSchedule {
    FaultKind::ALL
        .into_iter()
        .fold(FaultSchedule::new(seed), |s, kind| {
            s.with_fault(kind, severity)
        })
}

#[test]
fn zero_severity_schedule_is_bit_identical_batched_and_streaming() {
    for (k, order) in ORDERS.into_iter().enumerate() {
        let model = model_with_order(order, 80 + k as u64);
        let engine = serve::ServeModel::from_live(&model).unwrap().into_engine();
        let steps = seeded_steps(13, 3, 2);
        let flat = serve::ServeModel::flatten_steps(&steps).unwrap();

        // Severity 0 must not move a single bit of the input...
        let mut injected = flat.clone();
        full_schedule(5, 0.0)
            .injector(0, 3 * 2)
            .corrupt_sequence(&mut injected);
        assert_eq!(
            flat.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            injected.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "{order:?}: zero-severity schedule altered the input"
        );

        // ...and the guarded path must not move a single bit of the output.
        let clean = engine.run_batch(&flat, 3).unwrap();
        let mut guard = InputGuard::new(GuardConfig::default_policy(), 3, 2).unwrap();
        let guarded = engine.run_batch_guarded(&injected, 3, &mut guard).unwrap();
        assert_eq!(clean, guarded, "{order:?}: guarded batched diverged");
        assert_eq!(guard.stats().repaired, 0);

        let (last, guard) =
            sanitized_stream(&engine, GuardConfig::default_policy(), &injected, 3, |_| {});
        assert_eq!(clean, last, "{order:?}: guarded streaming diverged");
        assert_eq!(guard.health(), &[Health::Healthy; 3]);
    }
}

/// Regression for the documented unguarded-stream hazard: one NaN
/// sample poisons the unguarded recurrence forever, while the guarded
/// path repairs it and recovers to healthy on clean data.
#[test]
fn unguarded_session_poisons_where_guarded_recovers() {
    let model = model_with_order(FilterOrder::Second, 90);
    let engine = serve::ServeModel::from_live(&model)
        .unwrap()
        .into_shared_engine();
    let poisoned_step = [f64::NAN, 0.2];
    let clean_step = [0.4, -0.3];
    let mut scratch = engine.make_scratch(1).unwrap();
    let mut logits = vec![0.0; engine.spec().classes];

    let mut raw = engine.session();
    raw.run_chunk(&poisoned_step, &mut scratch, &mut logits)
        .unwrap();
    assert!(!raw.state_is_finite(), "one NaN must poison raw state");
    for _ in 0..51 {
        raw.run_chunk(&clean_step, &mut scratch, &mut logits)
            .unwrap();
    }
    assert!(
        logits.iter().all(|v| v.is_nan()),
        "raw logits must stay NaN no matter how much clean data follows"
    );
    assert!(!raw.state_is_finite());

    let clean_run: Vec<f64> = clean_step.repeat(51);
    let mut poisoned_run = clean_run.clone();
    poisoned_run[..2].copy_from_slice(&poisoned_step);
    let (last, guard) = sanitized_stream(
        &engine,
        GuardConfig::default_policy(),
        &poisoned_run,
        1,
        |scratch| {
            assert!(
                scratch.states_are_finite(),
                "guard let a NaN into the state"
            )
        },
    );
    assert!(last.iter().all(|v| v.is_finite()));
    assert_eq!(guard.health(), &[Health::Healthy], "stream must recover");
    assert_eq!(guard.stats().nonfinite, 1);

    // After recovery the guarded stream converges to the clean trajectory:
    // compare against the same number of steps of clean data only, long
    // enough that the poisoned step's transient has decayed.
    let expect = engine.run_batch(&clean_run, 1).unwrap();
    for (a, b) in last.iter().zip(&expect) {
        assert!((a - b).abs() < 1e-6, "guarded {a} vs clean {b}");
    }
}

/// The guarded-path invariant, property-style: for *any* fault schedule —
/// including ones that turn most of the input into NaN/Inf bursts — every
/// internal filter state and every returned logit stays finite, on all
/// three policies, batched and streaming, and health transitions surface
/// as telemetry counters.
#[test]
fn guarded_inference_stays_finite_under_arbitrary_fault_schedules() {
    let model = model_with_order(FilterOrder::Second, 100);
    let engine = serve::ServeModel::from_live(&model).unwrap().into_engine();
    let steps = seeded_steps(40, 2, 2);
    let flat = serve::ServeModel::flatten_steps(&steps).unwrap();
    let policies = [
        DegradePolicy::Clamp,
        DegradePolicy::HoldLast,
        DegradePolicy::MedianOfLast(7),
    ];
    for schedule_seed in 0..6u64 {
        let mut injected = flat.clone();
        full_schedule(schedule_seed, 1.0)
            .injector(0, 2 * 2)
            .corrupt_sequence(&mut injected);
        // Harden the fault model further: periodic hand-placed Inf/NaN
        // bursts on top of the schedule, plus huge out-of-range spikes.
        for (i, v) in injected.iter_mut().enumerate() {
            match (i + schedule_seed as usize) % 11 {
                0 => *v = f64::INFINITY,
                3 => *v = f64::NEG_INFINITY,
                5 => *v = f64::NAN,
                7 => *v = 1e12,
                _ => {}
            }
        }
        for policy in policies {
            let cfg = GuardConfig::default_policy().with_policy(policy);
            let mut guard = InputGuard::new(cfg, 2, 2).unwrap();
            let (logits, events) = telemetry::collect(|| {
                let batched = engine.run_batch_guarded(&injected, 2, &mut guard).unwrap();
                let (last, _) = sanitized_stream(&engine, cfg, &injected, 2, |scratch| {
                    assert!(
                        scratch.states_are_finite(),
                        "seed {schedule_seed} {policy:?}: state poisoned mid-stream"
                    );
                });
                assert_eq!(batched, last, "guarded stream must equal guarded batch");
                batched
            });
            assert!(
                logits.iter().all(|v| v.is_finite()),
                "seed {schedule_seed} {policy:?}: non-finite logits {logits:?}"
            );
            assert!(guard.stats().repaired > 0, "schedule injected nothing");
            // This fault mix is dense enough that streams must leave
            // Healthy, and every transition must surface as a counter.
            let reported = telemetry::counter_total(&events, "infer.guard.to_degraded")
                + telemetry::counter_total(&events, "infer.guard.to_faulted")
                + telemetry::counter_total(&events, "infer.guard.to_healthy");
            assert!(
                reported >= 1.0,
                "seed {schedule_seed} {policy:?}: no health transitions reported"
            );
        }
    }
}

#[test]
fn fault_injected_sweep_is_byte_identical_across_thread_counts() {
    let raw = benchmark_by_name("CBF", 0).unwrap();
    let test = Preprocess::paper_default()
        .apply(&raw)
        .shuffle_split(0.6, 0.2, 0)
        .test;
    // Univariate dataset → input_dim 1 models, one per filter order.
    let models: Vec<(String, _)> = [
        ("baseline_ptpnc", FilterOrder::First),
        ("adapt_pnc", FilterOrder::Second),
    ]
    .iter()
    .enumerate()
    .map(|(k, (name, order))| {
        let m = PrintedModel::new(
            1,
            4,
            3,
            *order,
            &Pdk::paper_default(),
            &mut init::rng(110 + k as u64),
        );
        (
            name.to_string(),
            serve::ServeModel::from_live(&m).unwrap().into_engine(),
        )
    })
    .collect();
    let cfg = RobustnessConfig {
        kinds: vec![
            FaultKind::Dropout,
            FaultKind::SpikeNoise,
            FaultKind::StuckSensor,
        ],
        severities: vec![0.5, 1.0],
        drift_rates: vec![1e-4],
        trials: 2,
        ..RobustnessConfig::smoke()
    };
    let serial = sensor_fault_sweep(&models, &test, &cfg, &ParallelRunner::serial());
    let baseline = to_jsonl(&serial);
    assert_eq!(serial.len(), 2 * cfg.points_per_model());
    for threads in [2, 5] {
        let runner = ParallelRunner::serial().with_threads(threads);
        let parallel = sensor_fault_sweep(&models, &test, &cfg, &runner);
        assert_eq!(
            baseline,
            to_jsonl(&parallel),
            "sweep JSONL must be byte-identical at {threads} threads"
        );
    }
}

/// The acceptance floor on the shipped grid: the smoke config (what CI
/// runs) already covers at least 4 fault kinds at 3 severities.
#[test]
fn smoke_grid_meets_coverage_floor() {
    let cfg = RobustnessConfig::smoke();
    assert!(cfg.kinds.len() >= 4, "only {} fault kinds", cfg.kinds.len());
    assert!(
        cfg.severities.len() >= 3,
        "only {} severities",
        cfg.severities.len()
    );
    assert!(!cfg.drift_rates.is_empty());
}
