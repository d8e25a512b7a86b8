//! Golden end-to-end training hashes.
//!
//! The per-op parity suite (`train_fusion_parity.rs`) pins single forward
//! and backward passes; these tests pin whole training runs. Each run is
//! reduced to one FNV-1a hash over the bits of its final parameters, its
//! validation-loss history and its best validation loss, so any change to
//! a logit, a gradient fold or an optimizer step anywhere in the run moves
//! the hash. A moved hash means Table I rows or the adaptation curves
//! moved: a speed change to the training tape must leave them all equal.

use adapt_pnc::persist;
use adapt_pnc::prelude::*;
use ptnc_adapt::{refit_filters, LabeledWindow, RefitConfig};

/// 64-bit FNV-1a over a stream of `u64` words (little-endian bytes).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn floats(&mut self, values: &[f64]) {
        self.word(values.len() as u64);
        for v in values {
            self.word(v.to_bits());
        }
    }
}

fn hash_model(h: &mut Fnv, model: &PrintedModel) {
    for p in model.parameters() {
        h.floats(&p.to_vec());
    }
}

fn hash_run(run: &TrainedModel) -> u64 {
    let mut h = Fnv::new();
    hash_model(&mut h, &run.model);
    h.floats(&run.report.val_history);
    h.word(run.report.best_val_loss.to_bits());
    h.0
}

fn slope() -> DataSplit {
    let ds = Preprocess::paper_default().apply(&benchmark_by_name("Slope", 0).unwrap());
    ds.shuffle_split(0.6, 0.2, 0)
}

/// ADAPT-pNC(4) with augmentation and the power term on, 3 Monte-Carlo
/// samples per epoch, at filter orders 1–3.
fn adapt_config(order: FilterOrder) -> TrainConfig {
    TrainConfig::adapt_pnc(4)
        .to_builder()
        .filter_order(order)
        .max_epochs(6)
        .mc_samples(3)
        .build()
}

#[test]
fn variation_aware_training_matches_golden_hashes() {
    let split = slope();
    let golden = [
        (FilterOrder::First, 7_862_360_607_189_174_070u64),
        (FilterOrder::Second, 6_521_211_274_428_122_716),
        (FilterOrder::Third, 6_082_459_081_728_392_688),
    ];
    for (order, want) in golden {
        let cfg = adapt_config(order);
        assert!(cfg.augmented && cfg.power_reg > 0.0 && cfg.variation_aware);
        let run = train_with_runner(&split, &cfg, 7, &ParallelRunner::serial());
        assert_eq!(hash_run(&run), want, "{order:?}: training run moved");
    }
}

#[test]
fn nominal_baseline_training_matches_golden_hash() {
    let split = slope();
    let cfg = TrainConfig::baseline_ptpnc(4)
        .to_builder()
        .max_epochs(6)
        .build();
    assert!(!cfg.variation_aware);
    let run = train_with_runner(&split, &cfg, 7, &ParallelRunner::serial());
    assert_eq!(
        hash_run(&run),
        8_795_591_168_612_296_962,
        "baseline pTPNC training run moved"
    );
}

#[test]
fn filter_refit_matches_golden_hash() {
    let split = slope();
    let trained = train_with_runner(
        &split,
        &adapt_config(FilterOrder::Second),
        11,
        &ParallelRunner::serial(),
    );
    let snap = persist::snapshot(&trained.model);
    let windows: Vec<LabeledWindow> = split
        .val
        .items()
        .iter()
        .enumerate()
        .map(|(stream, s)| LabeledWindow {
            stream,
            steps: s.values.clone(),
            label: s.label,
        })
        .collect();
    let cfg = RefitConfig {
        steps: 12,
        batch: 6,
        ..RefitConfig::default()
    };
    let (adapted, report) = refit_filters(&snap, &windows, &cfg).unwrap();
    assert_eq!(report.steps_taken, 12);
    let mut h = Fnv::new();
    hash_model(&mut h, &adapted);
    h.word(report.initial_loss.to_bits());
    h.word(report.final_loss.to_bits());
    assert_eq!(h.0, 11_996_364_168_281_075_460, "filter refit moved");
}
