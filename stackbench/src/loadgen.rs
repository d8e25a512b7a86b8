//! Open-loop load phases: per-request samples timed from when each request
//! was due, the generator's own lateness, and the rate ladder.

use std::time::{Duration, Instant};

use crate::host;
use crate::stats::{self, Summary};

/// Lateness beyond which a send counts as late, microseconds.
pub const LATE_US: f64 = 100.0;
/// Requests due this early in a phase are not summarised.
pub const SETTLE_NS: u64 = 50_000_000;

/// What one load phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// `(due ns from phase start, latency µs)` per request; a failed
    /// request has infinite latency.
    pub samples: Vec<(u64, f64)>,
    /// How late the generator itself sent each request, microseconds.
    pub late_us: Vec<f64>,
    /// Requests attempted.
    pub attempted: u64,
    /// Requests shed, refused or answered with an error.
    pub failed: u64,
    /// Wall time of the phase, seconds.
    pub elapsed_s: f64,
}

impl Phase {
    /// Folds another generator thread's share of the phase into this one.
    pub fn merge(&mut self, other: Phase) {
        self.samples.extend(other.samples);
        self.late_us.extend(other.late_us);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.elapsed_s = self.elapsed_s.max(other.elapsed_s);
    }

    /// Records one request.
    pub fn record(&mut self, due_ns: u64, latency_us: Option<f64>) {
        self.attempted += 1;
        if latency_us.is_none() {
            self.failed += 1;
        }
        self.samples
            .push((due_ns, latency_us.unwrap_or(f64::INFINITY)));
    }

    /// Latency summary over the requests that completed; the tail is the
    /// [`windowed_tail`] of the samples in due order.
    pub fn summary(&self) -> Summary {
        pooled_summary(&[self])
    }

    /// [`windowed_tail`] latency counting failures as infinitely late.
    pub fn tail_with_failures(&self) -> f64 {
        let all = self.by_due();
        if all.is_empty() {
            return f64::INFINITY;
        }
        windowed_tail(&all).0
    }

    /// Latencies in due order, without the first [`SETTLE_NS`] of the
    /// phase while the generator threads start.
    fn by_due(&self) -> Vec<f64> {
        let mut by_due: Vec<(u64, f64)> = self
            .samples
            .iter()
            .copied()
            .filter(|s| s.0 >= SETTLE_NS)
            .collect();
        if by_due.is_empty() {
            by_due = self.samples.clone();
        }
        by_due.sort_by_key(|s| s.0);
        by_due.into_iter().map(|s| s.1).collect()
    }

    /// Whether a backlog was still growing at the end: the median latency
    /// of the last tenth of the schedule exceeds `limit_us`.
    pub fn backlogged(&self, limit_us: f64) -> bool {
        let mut by_due = self.samples.clone();
        by_due.sort_by_key(|s| s.0);
        let tail = &by_due[by_due.len() - (by_due.len() / 10).max(1)..];
        let lat: Vec<f64> = tail.iter().map(|s| s.1).collect();
        stats::median(&lat) > limit_us
    }

    /// Whether the generator fell behind its own schedule: its sends over
    /// the last tenth of the phase were late by more than `limit_us` at the
    /// median. A stall of the host makes single sends late; only a
    /// generator that cannot keep up stays late.
    pub fn generator_behind(&self, limit_us: f64) -> bool {
        let n = self.late_us.len();
        n > 0 && stats::median(&self.late_us[n - (n / 10).max(1)..]) > limit_us
    }

    /// Completed requests per second: the median over eight equal slices of
    /// the phase, by due time, so a stall in one slice does not move it.
    pub fn windowed_rate(&self) -> f64 {
        const SLICES: u64 = 8;
        let end_ns = self.samples.iter().map(|s| s.0).max().unwrap_or(0);
        let span_ns = (end_ns / SLICES).max(1);
        let mut done = [0u64; SLICES as usize];
        for &(due, lat) in &self.samples {
            if lat.is_finite() {
                done[((due / span_ns).min(SLICES - 1)) as usize] += 1;
            }
        }
        let rates: Vec<f64> = done
            .iter()
            .map(|&n| n as f64 / (span_ns as f64 / 1e9))
            .collect();
        stats::median(&rates)
    }

    /// Generator lateness: ([`windowed_tail`] µs, sends later than
    /// [`LATE_US`]).
    pub fn lateness(&self) -> (f64, u64) {
        pooled_lateness(std::slice::from_ref(self))
    }
}

/// The blocks of one load level without its slowest quarter, ranked by
/// median latency: a stall of the shared host slows the blocks it
/// overlaps, a regression of the code slows every block.
pub fn steady_blocks(blocks: &[Phase]) -> Vec<&Phase> {
    let p50: Vec<f64> = blocks.iter().map(|b| b.summary().p50).collect();
    let mut order: Vec<usize> = (0..blocks.len()).collect();
    order.sort_by(|&a, &b| p50[a].total_cmp(&p50[b]));
    order.truncate(blocks.len() - blocks.len() / 4);
    order.sort_unstable();
    order.into_iter().map(|i| &blocks[i]).collect()
}

/// Latency summary of the blocks of one load level, which a run interleaves
/// with its other levels' blocks. The completed requests are pooled block
/// after block, each in due order, so the windows of [`windowed_tail`]
/// follow the blocks through the whole run: a stall of the shared host that
/// spans one block moves one window, not the reported tail.
///
/// # Panics
///
/// Panics if no block completed a request.
pub fn pooled_summary(blocks: &[&Phase]) -> Summary {
    let ok: Vec<f64> = blocks
        .iter()
        .flat_map(|b| b.by_due())
        .filter(|l| l.is_finite())
        .collect();
    assert!(!ok.is_empty(), "no request completed");
    let (tail, windows) = windowed_tail(&ok);
    let mut all = ok;
    let whole = stats::summarize(&mut all);
    Summary {
        tail,
        tail_q: stats::tail_quantile(whole.n / windows),
        ..whole
    }
}

/// Generator lateness over `blocks`: ([`windowed_tail`] µs, sends later
/// than [`LATE_US`]).
pub fn pooled_lateness(blocks: &[Phase]) -> (f64, u64) {
    let late_us: Vec<f64> = blocks
        .iter()
        .flat_map(|b| b.late_us.iter().copied())
        .collect();
    if late_us.is_empty() {
        return (0.0, 0);
    }
    let late = late_us.iter().filter(|&&l| l > LATE_US).count() as u64;
    (windowed_tail(&late_us).0, late)
}

/// Fewest samples per window of [`windowed_tail`].
pub const WINDOW_SAMPLES: usize = 1000;
/// Most windows [`windowed_tail`] splits a phase into.
pub const MAX_WINDOWS: usize = 16;

/// Splits `values` (in time order) into up to [`MAX_WINDOWS`] consecutive
/// windows of at least [`WINDOW_SAMPLES`] samples and returns the
/// [`stats::cost_over_blocks`] of the windows' tail percentiles, with the
/// window count. A stall of the shared host then moves the windows it
/// overlaps, not the reported tail.
pub fn windowed_tail(values: &[f64]) -> (f64, usize) {
    let k = (values.len() / WINDOW_SAMPLES).clamp(1, MAX_WINDOWS);
    let size = values.len() / k;
    let tails: Vec<f64> = (0..k)
        .map(|i| {
            let end = if i + 1 == k {
                values.len()
            } else {
                (i + 1) * size
            };
            stats::summarize(&mut values[i * size..end].to_vec()).tail
        })
        .collect();
    (stats::cost_over_blocks(&tails), k)
}

/// Sleeps until `deadline`; returns how late it woke. It never spins: on
/// two cores a spinning generator would steal the CPU the server needs.
pub fn wait_until(deadline: Instant) -> Duration {
    let now = Instant::now();
    if now < deadline {
        std::thread::sleep(deadline - now);
    }
    Instant::now().saturating_duration_since(deadline)
}

/// A fixed ladder: the `coarse` rungs, then `fine` rungs rising by `step`
/// from `from`.
pub fn ladder_rates(coarse: &[f64], from: f64, step: f64, fine: usize) -> Vec<f64> {
    let mut rates = coarse.to_vec();
    rates.extend((0..fine).map(|i| (from * step.powi(i as i32)).round()));
    rates
}

/// One rung of a rate ladder.
#[derive(Debug, Clone, Copy)]
pub struct Rung {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Tail latency with failures counted as infinitely late, µs.
    pub tail_us: f64,
    /// Whether the rung held the limit without a growing backlog.
    pub pass: bool,
    /// Requests completed per second ([`Phase::windowed_rate`]).
    pub done_rps: f64,
}

/// Walks `rates` upward until two rungs in a row miss `limit_us` (or back
/// up) and returns the highest rate that held the limit, interpolated
/// linearly in tail latency between the last passing rung and the next
/// one. A rung that fails is run once more and fails only if both attempts
/// do: a stall of the shared host fails one attempt, a backlog both.
pub fn ladder(rates: &[f64], limit_us: f64, mut run: impl FnMut(f64) -> Phase) -> (f64, Vec<Rung>) {
    let mut probe = |rate| {
        let phase = run(rate);
        let tail_us = phase.tail_with_failures();
        Rung {
            rate,
            tail_us,
            pass: tail_us <= limit_us && !phase.backlogged(limit_us),
            done_rps: phase.windowed_rate(),
        }
    };
    let mut rungs: Vec<Rung> = Vec::new();
    for &rate in rates {
        let mut rung = probe(rate);
        if !rung.pass {
            let again = probe(rate);
            if again.pass || again.tail_us < rung.tail_us {
                rung = again;
            }
        }
        rungs.push(rung);
        if rungs.len() >= 2 && rungs[rungs.len() - 2..].iter().all(|r| !r.pass) {
            break;
        }
    }
    (max_rate(&rungs, limit_us), rungs)
}

/// What repeated walks up one ladder measured.
#[derive(Debug)]
pub struct Capacity {
    /// Mean over the walks of the interpolated highest passing rate.
    pub max_rate: f64,
    /// Mean over the walks of the completion rate on the highest rung that
    /// passed: the throughput the system sustains within the limit.
    pub sustained_rps: f64,
    /// The kept walks' rungs ([`host::undisturbed`]).
    pub walks: Vec<Vec<Rung>>,
    /// Walks during which the hypervisor took the CPU.
    pub disturbed: usize,
}

/// Walks the ladder `walks` times ([`ladder`]) and takes means. Where one
/// walk ends is bimodal on a two-core host (two closed loops that share a
/// batch window run in or out of phase), and the mean of several walks
/// averages the modes where a median would flip between them.
pub fn capacity(
    walks: usize,
    rates: &[f64],
    limit_us: f64,
    mut run: impl FnMut(f64) -> Phase,
) -> Capacity {
    let Ok((walked, disturbed)) = host::undisturbed(walks as u64, |_| {
        Ok::<_, std::convert::Infallible>(ladder(rates, limit_us, &mut run))
    });
    let (maxima, rungs): (Vec<f64>, Vec<Vec<Rung>>) = walked.into_iter().unzip();
    let sustained: Vec<f64> = rungs
        .iter()
        .map(|w| w.iter().rev().find(|r| r.pass).map_or(0.0, |r| r.done_rps))
        .collect();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    Capacity {
        max_rate: mean(&maxima),
        sustained_rps: mean(&sustained),
        walks: rungs,
        disturbed,
    }
}

/// JSON list of every walk's rungs.
pub fn walks_json(walks: &[Vec<Rung>]) -> String {
    let walks: Vec<String> = walks
        .iter()
        .map(|rungs| {
            let items: Vec<String> = rungs
                .iter()
                .map(|r| {
                    let tail = if r.tail_us.is_finite() {
                        r.tail_us.to_string()
                    } else {
                        "null".into()
                    };
                    format!(
                        "{{\"rate\": {}, \"tail_us\": {tail}, \"pass\": {}, \"done_rps\": {}}}",
                        r.rate, r.pass, r.done_rps
                    )
                })
                .collect();
            format!("[{}]", items.join(", "))
        })
        .collect();
    format!("[{}]", walks.join(", "))
}

/// The interpolated highest passing rate of a walked ladder: the last rung
/// that passed, and where the limit falls between it and the next rung.
pub fn max_rate(rungs: &[Rung], limit_us: f64) -> f64 {
    let Some(last_pass) = rungs.iter().rposition(|r| r.pass) else {
        return 0.0;
    };
    let lo = rungs[last_pass];
    let Some(hi) = rungs.get(last_pass + 1) else {
        return lo.rate;
    };
    if !hi.tail_us.is_finite() || hi.tail_us <= limit_us || hi.tail_us <= lo.tail_us {
        return lo.rate;
    }
    let frac = ((limit_us - lo.tail_us) / (hi.tail_us - lo.tail_us)).clamp(0.0, 1.0);
    lo.rate + frac * (hi.rate - lo.rate)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rung(rate: f64, tail_us: f64, pass: bool) -> Rung {
        Rung {
            rate,
            tail_us,
            pass,
            done_rps: rate,
        }
    }

    #[test]
    fn max_rate_interpolates_between_rungs() {
        let r = [
            rung(2e3, 400.0, true),
            rung(4e3, 600.0, true),
            rung(6e3, 1400.0, false),
        ];
        assert!((max_rate(&r, 1000.0) - 5000.0).abs() < 1e-9);
        let all_pass = [rung(2e3, 400.0, true), rung(4e3, 600.0, true)];
        assert_eq!(max_rate(&all_pass, 1000.0), 4e3);
        let backlog = [rung(2e3, 400.0, true), rung(4e3, 900.0, false)];
        assert_eq!(max_rate(&backlog, 1000.0), 2e3);
        let shed = [rung(2e3, 400.0, true), rung(4e3, f64::INFINITY, false)];
        assert_eq!(max_rate(&shed, 1000.0), 2e3);
        let stalled_early = [
            rung(2e3, 400.0, true),
            rung(4e3, 5000.0, false),
            rung(6e3, 600.0, true),
            rung(8e3, 1400.0, false),
            rung(10e3, 3000.0, false),
        ];
        assert!((max_rate(&stalled_early, 1000.0) - 7000.0).abs() < 1e-9);
        assert_eq!(max_rate(&[rung(2e3, 1500.0, false)], 1000.0), 0.0);
    }

    #[test]
    fn phase_counts_failures_as_missing_the_limit() {
        let mut p = Phase::default();
        for i in 0..100u64 {
            p.record(i * 1000, Some(100.0 + i as f64));
        }
        assert!(p.tail_with_failures() < 1000.0);
        for i in 0..20u64 {
            p.record(200_000 + i, None);
        }
        assert_eq!(p.failed, 20);
        assert!(p.tail_with_failures().is_infinite());
        assert!(p.summary().tail < 1000.0);
        assert!(p.backlogged(1000.0));
    }

    #[test]
    fn one_stalled_window_does_not_move_the_tail() {
        let mut v: Vec<f64> = (0..8000).map(|i| 100.0 + (i % 100) as f64).collect();
        let (calm, windows) = windowed_tail(&v);
        assert_eq!(windows, 8);
        for x in &mut v[1000..1200] {
            *x = 50_000.0;
        }
        assert_eq!(windowed_tail(&v).0, calm);
        assert_eq!(windowed_tail(&v[..500]).1, 1);
    }

    #[test]
    fn steady_blocks_drop_the_slowest_quarter_in_order() {
        let blocks: Vec<Phase> = [100.0, 900.0, 110.0, 120.0, 800.0, 105.0, 115.0, 125.0]
            .iter()
            .map(|&lat| {
                let mut p = Phase::default();
                for i in 0..10u64 {
                    p.record(SETTLE_NS + i, Some(lat));
                }
                p
            })
            .collect();
        let kept: Vec<f64> = steady_blocks(&blocks)
            .iter()
            .map(|b| b.summary().p50)
            .collect();
        assert_eq!(kept, vec![100.0, 110.0, 120.0, 105.0, 115.0, 125.0]);
        assert_eq!(steady_blocks(&blocks[..3]).len(), 3);
    }

    #[test]
    fn jitter_is_not_falling_behind() {
        let mut p = Phase {
            late_us: (0..1000)
                .map(|i| if i % 50 == 0 { 5000.0 } else { 20.0 })
                .collect(),
            ..Phase::default()
        };
        assert!(!p.generator_behind(1000.0));
        p.late_us
            .extend((0..200).map(|i| 1000.0 + 100.0 * i as f64));
        assert!(p.generator_behind(1000.0));
    }

    #[test]
    fn ladder_rates_are_fixed_and_rising() {
        let r = ladder_rates(&[6e3, 9e3], 12e3, 1.05, 20);
        assert_eq!(r.len(), 22);
        assert_eq!(&r[..4], &[6e3, 9e3, 12e3, 12_600.0]);
        assert!(r.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(r, ladder_rates(&[6e3, 9e3], 12e3, 1.05, 20));
    }

    #[test]
    fn ladder_stops_after_two_failing_rungs_each_run_twice() {
        let mut seen = Vec::new();
        let (rate, rungs) = ladder(&[1.0, 2.0, 3.0, 4.0], 1000.0, |r| {
            seen.push(r);
            let mut p = Phase::default();
            for i in 0..50u64 {
                p.record(i, Some(r * 400.0));
            }
            p
        });
        assert_eq!(seen, vec![1.0, 2.0, 3.0, 3.0, 4.0, 4.0]);
        assert_eq!(rungs.len(), 4);
        assert!((rate - 2.5).abs() < 1e-9);
    }

    #[test]
    fn one_stalled_attempt_does_not_fail_a_rung() {
        let mut calls = 0;
        let (rate, rungs) = ladder(&[1.0, 2.0, 3.0], 1000.0, |r| {
            calls += 1;
            let latency = if calls == 2 { 50_000.0 } else { r * 300.0 };
            let mut p = Phase::default();
            for i in 0..50u64 {
                p.record(i, Some(latency));
            }
            p
        });
        assert_eq!(calls, 4);
        assert!(rungs.iter().all(|r| r.pass));
        assert_eq!(rate, 3.0);
    }
}
