//! Pins the typed-error contract of the public `ptnc-infer` request path:
//! every malformed input reachable from serving code comes back as a
//! specific [`InferError`] variant — never a panic — and failed calls
//! leave caller buffers and filter state untouched.

use adapt_pnc::infer::{DegradePolicy, GuardConfig, InferError, InputGuard, VariationSample};
use adapt_pnc::models::PrintedModel;
use adapt_pnc::serve::ServeModel;
use adapt_pnc::variation::VariationConfig;
use ptnc_infer::VariationDistribution;
use ptnc_tensor::init;

const DIM: usize = 3;
const CLASSES: usize = 4;

fn engine() -> ptnc_infer::InferModel {
    let m = PrintedModel::adapt_pnc(DIM, 5, CLASSES, &mut init::rng(11));
    ServeModel::from_live(&m).unwrap().into_engine()
}

fn steps(t: usize, batch: usize) -> Vec<f64> {
    (0..t * batch * DIM)
        .map(|i| (i as f64 * 0.13).sin())
        .collect()
}

#[test]
fn zero_batch_is_typed_everywhere() {
    let e = engine();
    assert_eq!(e.run_batch(&steps(4, 1), 0), Err(InferError::ZeroBatch));
    assert!(matches!(e.make_scratch(0), Err(InferError::ZeroBatch)));
    assert!(matches!(
        InputGuard::new(GuardConfig::default_policy(), 0, DIM),
        Err(InferError::ZeroBatch)
    ));
    let mut guard = InputGuard::new(GuardConfig::default_policy(), 1, DIM).unwrap();
    assert_eq!(
        e.run_batch_guarded(&steps(4, 1), 0, &mut guard),
        Err(InferError::ZeroBatch)
    );
}

#[test]
fn bad_step_buffers_are_shape_mismatches() {
    let e = engine();
    // Empty payload.
    assert_eq!(
        e.run_batch(&[], 2),
        Err(InferError::ShapeMismatch {
            what: "steps",
            expected: 2 * DIM,
            found: 0,
        })
    );
    // Not a whole number of timesteps.
    assert_eq!(
        e.run_batch(&steps(4, 1)[..DIM + 1], 1),
        Err(InferError::ShapeMismatch {
            what: "steps",
            expected: DIM,
            found: DIM + 1,
        })
    );
    // Guarded path applies the same contract.
    let mut guard = InputGuard::new(GuardConfig::default_policy(), 2, DIM).unwrap();
    assert!(matches!(
        e.run_batch_guarded(&[0.5], 2, &mut guard),
        Err(InferError::ShapeMismatch { what: "steps", .. })
    ));
}

#[test]
fn mismatched_scratch_and_output_buffers_leave_out_untouched() {
    let e = engine();
    let input = steps(6, 2);

    // Scratch sized for the wrong batch.
    let mut scratch = e.make_scratch(3).unwrap();
    let mut out = vec![f64::NAN; 2 * CLASSES];
    assert_eq!(
        e.run_batch_into(&input, 2, &mut scratch, &mut out),
        Err(InferError::ShapeMismatch {
            what: "scratch batch",
            expected: 2,
            found: 3,
        })
    );
    assert!(out.iter().all(|v| v.is_nan()), "error wrote into `out`");

    // Output buffer with the wrong length.
    let mut scratch = e.make_scratch(2).unwrap();
    let mut short = vec![f64::NAN; 2 * CLASSES - 1];
    assert_eq!(
        e.run_batch_into(&input, 2, &mut scratch, &mut short),
        Err(InferError::ShapeMismatch {
            what: "output buffer",
            expected: 2 * CLASSES,
            found: 2 * CLASSES - 1,
        })
    );
    assert!(short.iter().all(|v| v.is_nan()), "error wrote into `out`");

    // The same scratch still works for a correct call afterwards.
    let mut out = vec![0.0; 2 * CLASSES];
    e.run_batch_into(&input, 2, &mut scratch, &mut out).unwrap();
    assert!(out.iter().all(|v| v.is_finite()));
}

#[test]
fn stream_steps_reject_bad_widths_without_corrupting_state() {
    let e = std::sync::Arc::new(engine());
    let mut session = e.session();
    let mut scratch = e.make_scratch(1).unwrap();
    let mut logits = vec![0.0; CLASSES];
    let good: Vec<f64> = steps(1, 1);
    session.run_chunk(&good, &mut scratch, &mut logits).unwrap();
    let before = (session.steps_seen(), session.state().to_vec());
    assert_eq!(
        session.run_chunk(&good[..DIM - 1], &mut scratch, &mut logits),
        Err(InferError::ShapeMismatch {
            what: "steps",
            expected: DIM,
            found: DIM - 1,
        })
    );
    assert_eq!(
        (session.steps_seen(), session.state().to_vec()),
        before,
        "failed step advanced the stream"
    );
    session.run_chunk(&good, &mut scratch, &mut logits).unwrap();

    let mut guard = InputGuard::new(GuardConfig::default_policy(), 1, DIM).unwrap();
    let mut step = good.clone();
    guard.sanitize(&mut step).unwrap();
    let samples = guard.stats().samples;
    assert_eq!(
        guard.sanitize(&mut step[..1]),
        Err(InferError::ShapeMismatch {
            what: "guard input",
            expected: DIM,
            found: 1,
        })
    );
    assert_eq!(guard.stats().samples, samples, "failed step was counted");
    guard.sanitize(&mut step).unwrap();
}

#[test]
fn foreign_variation_samples_are_spec_mismatches() {
    let e = engine();
    let other = PrintedModel::adapt_pnc(DIM, 9, CLASSES, &mut init::rng(12));
    let other_engine = ServeModel::from_live(&other).unwrap().into_engine();
    let dist: VariationDistribution = (&VariationConfig::paper_default()).into();
    let sample = VariationSample::draw(other_engine.spec(), &dist, &mut init::rng(13));
    assert!(matches!(
        e.perturbed(&sample),
        Err(InferError::SpecMismatch { .. })
    ));
    // A matching sample still applies.
    let ok = VariationSample::draw(e.spec(), &dist, &mut init::rng(14));
    assert!(e.perturbed(&ok).is_ok());
}

#[test]
fn inconsistent_guard_configs_name_their_defect() {
    let cases = [
        GuardConfig {
            lo: 2.0,
            hi: -2.0,
            ..GuardConfig::default_policy()
        },
        GuardConfig {
            lo: f64::NEG_INFINITY,
            ..GuardConfig::default_policy()
        },
        GuardConfig {
            window: 0,
            ..GuardConfig::default_policy()
        },
        GuardConfig {
            degraded_frac: 0.9,
            faulted_frac: 0.1,
            ..GuardConfig::default_policy()
        },
        GuardConfig::default_policy().with_policy(DegradePolicy::MedianOfLast(0)),
    ];
    let mut reasons = Vec::new();
    for cfg in cases {
        match cfg.validate() {
            Err(InferError::InvalidGuardConfig { reason }) => reasons.push(reason),
            other => panic!("expected InvalidGuardConfig, got {other:?}"),
        }
        // The same rejection surfaces through guard construction.
        assert!(matches!(
            InputGuard::new(cfg, 1, DIM),
            Err(InferError::InvalidGuardConfig { .. })
        ));
    }
    reasons.sort_unstable();
    reasons.dedup();
    assert!(
        reasons.len() >= 4,
        "defects must be distinguishable: {reasons:?}"
    );
}

#[test]
fn errors_render_and_compose_as_std_errors() {
    let errs: Vec<InferError> = vec![
        InferError::ZeroBatch,
        InferError::ShapeMismatch {
            what: "steps",
            expected: 6,
            found: 5,
        },
        InferError::SpecMismatch {
            what: "variation layers",
            expected: 2,
            found: 3,
        },
        InferError::InvalidGuardConfig {
            reason: "zero-length health window",
        },
    ];
    let rendered: Vec<String> = errs.iter().map(|e| e.to_string()).collect();
    for msg in &rendered {
        assert!(!msg.is_empty());
    }
    let mut unique = rendered.clone();
    unique.sort();
    unique.dedup();
    assert_eq!(unique.len(), errs.len(), "messages must be distinct");
    // Usable through `Box<dyn Error>` like any std error.
    let boxed: Box<dyn std::error::Error> = Box::new(errs[0]);
    assert!(boxed.source().is_none());
}
