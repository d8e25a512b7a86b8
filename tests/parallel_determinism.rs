//! The determinism contract of the parallel execution layer: thread count
//! changes wall-clock time, never numbers.
//!
//! Every Monte-Carlo work item draws its randomness from a counter-based
//! stream keyed by `(master_seed, stream, index)` instead of a shared
//! sequential RNG, so training histories, trained parameters and evaluation
//! scores must be bit-identical between a serial runner and any
//! multi-threaded one.

use adapt_pnc::prelude::*;

fn quick_split(name: &str) -> DataSplit {
    let ds = Preprocess::paper_default().apply(&benchmark_by_name(name, 0).unwrap());
    ds.shuffle_split(0.6, 0.2, 0)
}

#[test]
fn variation_aware_training_is_identical_across_thread_counts_and_tapes() {
    // The reference run: serial runner. Every other thread count must
    // reproduce it bit-for-bit — the fused scan kernels fold gradients in a
    // fixed accumulation order, and the counter-based RNG streams never
    // depend on scheduling. (The per-step tape is pinned against the fused
    // one per forward pass in `train_fusion_parity.rs`.)
    let split = quick_split("GPOVY");
    let cfg = TrainConfig::adapt_pnc(4)
        .to_builder()
        .max_epochs(8)
        .mc_samples(3)
        .build();

    let reference = train_with_runner(&split, &cfg, 0, &ParallelRunner::serial());
    for threads in [2, 5] {
        let runner = ParallelRunner::serial().with_threads(threads);
        let run = train_with_runner(&split, &cfg, 0, &runner);
        assert_eq!(
            reference.report, run.report,
            "training report diverged at {threads} threads"
        );
        for (a, b) in reference
            .model
            .parameters()
            .iter()
            .zip(run.model.parameters())
        {
            assert_eq!(
                a.to_vec(),
                b.to_vec(),
                "trained parameters diverged at {threads} threads"
            );
        }
    }
}

#[test]
fn evaluation_is_identical_across_thread_counts() {
    let split = quick_split("Slope");
    let mut rng = ptnc_tensor::init::rng(3);
    let model = PrintedModel::adapt_pnc(1, 4, split.train.num_classes(), &mut rng);
    let condition = EvalCondition::VariationAndPerturbed {
        config: VariationConfig::paper_default(),
        trials: 7,
        strength: 0.5,
    };

    let serial = evaluate_with_runner(
        &model,
        &split.test,
        &condition,
        5,
        &ParallelRunner::serial(),
    );
    for threads in [2, 4, 8] {
        let runner = ParallelRunner::serial().with_threads(threads);
        let parallel = evaluate_with_runner(&model, &split.test, &condition, 5, &runner);
        assert_eq!(serial, parallel, "accuracy diverged at {threads} threads");
    }
}

#[test]
fn seed_split_is_collision_free_over_the_training_grid() {
    // The training loop indexes its streams by (epoch << 32) | sample. No
    // two (stream, epoch, sample) triples may share a derived seed, and
    // none may collide with the master seed itself.
    let master = 7;
    let mut seen = std::collections::HashSet::new();
    seen.insert(master);
    for stream in [streams::TRAIN_MC, streams::VAL_MC, streams::EVAL_TRIAL] {
        for epoch in 0..50u64 {
            for sample in 0..8u64 {
                let derived = seed_split(master, stream, (epoch << 32) | sample);
                assert!(
                    seen.insert(derived),
                    "seed collision at stream {stream} epoch {epoch} sample {sample}"
                );
            }
        }
    }
}

#[test]
fn rng_streams_are_independent_of_each_other() {
    // Two streams with the same index, and two indices within one stream,
    // must produce different draw sequences.
    use rand::Rng;
    let draws = |stream: u64, index: u64| -> Vec<f64> {
        let mut rng = rng_for(11, stream, index);
        (0..16).map(|_| rng.gen_range(0.0..1.0)).collect()
    };
    assert_ne!(draws(streams::TRAIN_MC, 0), draws(streams::VAL_MC, 0));
    assert_ne!(draws(streams::TRAIN_MC, 0), draws(streams::TRAIN_MC, 1));
    // And the same (stream, index) must reproduce exactly.
    assert_eq!(draws(streams::EVAL_TRIAL, 3), draws(streams::EVAL_TRIAL, 3));
}
