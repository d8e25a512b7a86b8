//! The four workloads. Each measures set-up several times, runs its phases
//! with tracing off, checks its outputs, and in the traced run replays the
//! waterfall ([`crate::probe`]).

pub mod mc;
pub mod session;
pub mod train;
pub mod wire;

use std::time::Instant;

use crate::loadgen::{pooled_lateness, pooled_summary, steady_blocks, Phase};
use crate::stats::median;
use crate::{host, Ctx, Invalid};

/// Times `build` `reps` times, keeps the last result, records the median
/// as `setup_s`. Earlier results are dropped (torn down) before the next
/// build starts.
pub fn timed_setup<T>(ctx: &mut Ctx, reps: usize, mut build: impl FnMut(&Ctx) -> T) -> T {
    let mut secs = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let t0 = Instant::now();
        let built = build(ctx);
        secs.push(t0.elapsed().as_secs_f64());
        last = Some(built);
    }
    ctx.report.set("setup_s", median(&secs));
    last.expect("at least one set-up")
}

/// Rounds of interleaved measurement blocks in an untraced run. Each
/// round runs one block of every level (and of the throughput phase), so
/// the blocks of each level spread over the whole run.
pub const ROUNDS: u64 = 8;

/// Runs [`ROUNDS`] rounds the hypervisor left alone
/// ([`host::undisturbed`]). Each round returns its low- and high-level
/// block and a value of its own; the blocks are recorded
/// ([`record_levels`]) and the values returned.
pub fn measure_rounds<T>(
    ctx: &mut Ctx,
    mut round: impl FnMut(&mut Ctx, u64) -> Result<(Phase, Phase, T), Invalid>,
) -> Result<Vec<T>, Invalid> {
    let (rounds, disturbed) = host::undisturbed(ROUNDS, |i| round(ctx, i))?;
    ctx.meta("disturbed_rounds", disturbed.to_string());
    let (mut low, mut high, mut values) = (Vec::new(), Vec::new(), Vec::new());
    for (l, h, v) in rounds {
        low.push(l);
        high.push(h);
        values.push(v);
    }
    record_levels(ctx, &low, &high);
    Ok(values)
}

/// Records the low- and high-level blocks under the end-to-end latency
/// names and notes each level's sample count, tail percentile and the
/// generator's own lateness. The median and the tail are those of the
/// level's [`steady_blocks`], pooled.
pub fn record_levels(ctx: &mut Ctx, low: &[Phase], high: &[Phase]) {
    for (level, blocks) in [("low", low), ("high", high)] {
        let steady = steady_blocks(blocks);
        let s = pooled_summary(&steady);
        let (late, late_n) = pooled_lateness(blocks);
        let block_p50: Vec<String> = blocks
            .iter()
            .map(|b| format!("{:.1}", b.summary().p50))
            .collect();
        ctx.report.set(&format!("latency_p50_us.{level}"), s.p50);
        ctx.report.set(&format!("latency_p99_us.{level}"), s.tail);
        ctx.meta(
            &format!("latency_{level}"),
            format!(
                "{{\"blocks\": {}, \"steady_blocks\": {}, \"samples\": {}, \"tail_percentile\": {}, \"p50_us\": {}, \"tail_us\": {}, \"gen_late_p99_us\": {late}, \"gen_late_count\": {late_n}, \"block_p50_us\": [{}]}}",
                blocks.len(),
                steady.len(),
                s.n,
                s.tail_q,
                s.p50,
                s.tail,
                block_p50.join(", ")
            ),
        );
    }
}

/// Relative change of `traced` over `untraced`, percent.
pub fn overhead_pct(untraced: f64, traced: f64) -> f64 {
    (traced - untraced) / untraced * 100.0
}
