//! Cross-precision guarantees of the multi-precision inference kernels:
//! the f32 and i32 fixed-point backends track the f64 reference closely
//! enough to preserve classifications, never emit non-finite or absurd
//! logits even under the full sensor-fault grid (guarded path), and carry
//! session state across the f64 wire format without drift.

use adapt_pnc::faultsim::{FaultKind, FaultSchedule};
use std::sync::Arc;

use adapt_pnc::infer::{
    GuardConfig, InputGuard, Precision, QFormat, VariationDistribution, VariationSample,
};
use adapt_pnc::prelude::*;
use adapt_pnc::serve::ServeModel;
use adapt_pnc::variation::VariationConfig;
use ptnc_tensor::{init, Tensor};

const ORDERS: [FilterOrder; 3] = [FilterOrder::First, FilterOrder::Second, FilterOrder::Third];
const BATCH: usize = 4;
const DIM: usize = 2;

fn model_with_order(order: FilterOrder, seed: u64) -> PrintedModel {
    PrintedModel::new(
        DIM,
        5,
        3,
        order,
        &Pdk::paper_default(),
        &mut init::rng(seed),
    )
}

fn engine_with(model: &PrintedModel, precision: Precision) -> adapt_pnc::infer::InferModel {
    ServeModel::builder()
        .precision(precision)
        .from_live(model)
        .unwrap()
        .into_engine()
}

/// A deterministic time-varying sequence of `[batch, dim]` steps.
fn seeded_steps(t: usize) -> Vec<Tensor> {
    (0..t)
        .map(|k| {
            let data: Vec<f64> = (0..BATCH * DIM)
                .map(|i| ((k * BATCH * DIM + i) as f64 * 0.37).sin())
                .collect();
            Tensor::from_vec(&[BATCH, DIM], data)
        })
        .collect()
}

fn argmax(row: &[f64]) -> usize {
    let mut best = 0;
    for (j, &v) in row.iter().enumerate() {
        if v > row[best] {
            best = j;
        }
    }
    best
}

/// Max |Δlogit| and whether every batch lane argmax-agrees between two
/// logit matrices.
fn compare(classes: usize, a: &[f64], b: &[f64]) -> (f64, bool) {
    let max_err = a
        .iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0f64, f64::max);
    let agree = (0..BATCH).all(|lane| {
        let row = lane * classes..(lane + 1) * classes;
        argmax(&a[row.clone()]) == argmax(&b[row])
    });
    (max_err, agree)
}

/// Parity pin: across all three filter orders, the f32 backend stays
/// within 1e-4 of the f64 logits and the i32 backend at the default
/// Q-format within 1e-2 — both preserving every argmax.
#[test]
fn quantized_backends_pin_divergence_and_argmax_against_f64() {
    for (k, order) in ORDERS.into_iter().enumerate() {
        let model = model_with_order(order, 200 + k as u64);
        let flat = ServeModel::flatten_steps(&seeded_steps(30)).unwrap();
        let reference = engine_with(&model, Precision::F64)
            .run_batch(&flat, BATCH)
            .unwrap();
        let classes = reference.len() / BATCH;

        let f32_logits = engine_with(&model, Precision::F32)
            .run_batch(&flat, BATCH)
            .unwrap();
        let (err, agree) = compare(classes, &f32_logits, &reference);
        assert!(err < 1e-4, "{order:?}: f32 diverged by {err}");
        assert!(agree, "{order:?}: f32 flipped an argmax");

        let i32_logits = engine_with(&model, Precision::I32(QFormat::DEFAULT))
            .run_batch(&flat, BATCH)
            .unwrap();
        let (err, agree) = compare(classes, &i32_logits, &reference);
        assert!(err < 1e-2, "{order:?}: i32 diverged by {err}");
        assert!(agree, "{order:?}: i32 flipped an argmax");
    }
}

/// A schedule carrying every fault kind at the given severity.
fn full_schedule(seed: u64, severity: f64) -> FaultSchedule {
    FaultKind::ALL
        .into_iter()
        .fold(FaultSchedule::new(seed), |s, kind| {
            s.with_fault(kind, severity)
        })
}

/// Property: under the full fault grid — every fault kind at full
/// severity, plus hand-placed NaN/Inf bursts and out-of-range spikes —
/// the guarded path on the f32 and i32 backends returns only finite,
/// sanely-bounded logits, for all three filter orders.
#[test]
fn quantized_backends_stay_finite_under_full_fault_grid() {
    let precisions = [
        Precision::F32,
        Precision::I32(QFormat::DEFAULT),
        Precision::I32(QFormat::new(12).unwrap()),
    ];
    for (k, order) in ORDERS.into_iter().enumerate() {
        let model = model_with_order(order, 300 + k as u64);
        let flat = ServeModel::flatten_steps(&seeded_steps(40)).unwrap();
        for schedule_seed in 0..4u64 {
            let mut injected = flat.clone();
            full_schedule(schedule_seed, 1.0)
                .injector(0, BATCH * DIM)
                .corrupt_sequence(&mut injected);
            for (i, v) in injected.iter_mut().enumerate() {
                match (i + schedule_seed as usize) % 11 {
                    0 => *v = f64::INFINITY,
                    3 => *v = f64::NEG_INFINITY,
                    5 => *v = f64::NAN,
                    7 => *v = 1e12,
                    _ => {}
                }
            }
            for precision in precisions {
                let engine = engine_with(&model, precision);
                let mut guard = InputGuard::new(GuardConfig::default_policy(), BATCH, DIM).unwrap();
                let logits = engine
                    .run_batch_guarded(&injected, BATCH, &mut guard)
                    .unwrap();
                assert!(
                    logits.iter().all(|v| v.is_finite() && v.abs() < 1e6),
                    "{order:?} {precision} seed {schedule_seed}: bad logits {logits:?}"
                );
                assert!(guard.stats().repaired > 0, "schedule injected nothing");
            }
        }
    }
}

/// Session-state portability: exporting a quantized backend's lane state
/// through the f64 wire format and importing it into a fresh scratch
/// resumes the stream where it left off, for all orders and backends.
#[test]
fn quantized_lane_state_round_trips_through_wire_format() {
    let precisions = [
        Precision::F64,
        Precision::F32,
        Precision::I32(QFormat::DEFAULT),
    ];
    for (k, order) in ORDERS.into_iter().enumerate() {
        let model = model_with_order(order, 400 + k as u64);
        let flat = ServeModel::flatten_steps(&seeded_steps(24)).unwrap();
        let (head, tail) = flat.split_at(flat.len() / 2);
        for precision in precisions {
            let engine = engine_with(&model, precision);
            let classes = engine.spec().classes;
            let mut out = vec![0.0; BATCH * classes];

            // One-shot reference over the whole window.
            let mut scratch = engine.make_scratch(BATCH).unwrap();
            engine
                .run_batch_into(&flat, BATCH, &mut scratch, &mut out)
                .unwrap();
            let reference = out.clone();

            // Head on one scratch, state exported lane by lane through the
            // f64 wire format into a fresh scratch, tail resumed there.
            let mut first = engine.make_scratch(BATCH).unwrap();
            engine
                .run_batch_into(head, BATCH, &mut first, &mut out)
                .unwrap();
            let mut resumed = engine.make_scratch(BATCH).unwrap();
            let mut wire = vec![0.0; first.lane_state_len()];
            for lane in 0..BATCH {
                first.export_lane_state(lane, &mut wire).unwrap();
                assert!(
                    wire.iter().all(|v| v.is_finite()),
                    "{order:?} {precision}: non-finite wire state"
                );
                resumed.import_lane_state(lane, &wire).unwrap();
            }
            engine
                .run_chunk_into(tail, BATCH, &mut resumed, &mut out)
                .unwrap();

            let (err, _) = compare(classes, &out, &reference);
            let tol = match precision {
                Precision::I32(_) => 1e-2,
                _ => 1e-6,
            };
            assert!(
                err < tol,
                "{order:?} {precision}: resumed logits diverged by {err}"
            );
        }
    }
}

/// A fresh scratch is a fresh stream: its lanes start at the instance's
/// sampled V₀, not at zero. On a perturbed engine, stepping a window one
/// timestep at a time through `make_scratch(B)` + `run_chunk_into` equals
/// `run_batch` bitwise, and lane 0 equals a fresh session fed the same
/// window — for every filter order and backend.
#[test]
fn fresh_scratch_streams_from_perturbed_v0_at_every_precision() {
    let precisions = [
        Precision::F64,
        Precision::F32,
        Precision::I32(QFormat::DEFAULT),
    ];
    let dist: VariationDistribution = (&VariationConfig::paper_default()).into();
    for (k, order) in ORDERS.into_iter().enumerate() {
        let model = model_with_order(order, 500 + k as u64);
        let flat = ServeModel::flatten_steps(&seeded_steps(16)).unwrap();
        let lane0: Vec<f64> = flat
            .chunks_exact(BATCH * DIM)
            .flat_map(|step| &step[..DIM])
            .copied()
            .collect();
        for precision in precisions {
            let nominal = engine_with(&model, precision);
            let sample =
                VariationSample::draw(nominal.spec(), &dist, &mut init::rng(600 + k as u64));
            let engine = Arc::new(nominal.perturbed(&sample).unwrap());
            let classes = engine.spec().classes;
            let batched = engine.run_batch(&flat, BATCH).unwrap();

            let mut scratch = engine.make_scratch(BATCH).unwrap();
            let mut streamed = vec![0.0; BATCH * classes];
            for step in flat.chunks_exact(BATCH * DIM) {
                engine
                    .run_chunk_into(step, BATCH, &mut scratch, &mut streamed)
                    .unwrap();
            }
            assert_eq!(
                streamed, batched,
                "{order:?} {precision}: fresh scratch ≠ run_batch"
            );

            let mut session = engine.session();
            let mut one = engine.make_scratch(1).unwrap();
            let mut out = vec![0.0; classes];
            session.run_chunk(&lane0, &mut one, &mut out).unwrap();
            assert_eq!(
                out,
                streamed[..classes],
                "{order:?} {precision}: lane 0 ≠ fresh session"
            );
        }
    }
}
