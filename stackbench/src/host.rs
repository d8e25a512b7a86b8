//! Host fingerprint, source revision and memory high-water mark, recorded
//! with every result.

use std::path::Path;
use std::time::{Duration, Instant};

use crate::metrics::json_str;

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

/// CPU time the hypervisor has taken from this machine so far, summed over
/// its CPUs, seconds: the `steal` column of `/proc/stat`, in ticks of
/// 1/100 s. Zero where the kernel does not report it.
pub fn stolen_s() -> f64 {
    read("/proc/stat")
        .and_then(|s| {
            s.lines()
                .next()
                .and_then(|l| l.split_whitespace().nth(8))
                .and_then(|v| v.parse::<f64>().ok())
        })
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// Share of the machine's CPU time the hypervisor may take during one
/// measured stretch before the stretch counts as disturbed.
pub const STOLEN_LIMIT: f64 = 0.01;

/// Longest a run waits for the hypervisor to stop taking the CPU.
const CALM_WAIT: Duration = Duration::from_secs(90);

/// Waits until one second of busy work on every CPU runs with at most
/// [`STOLEN_LIMIT`] of it stolen, or [`CALM_WAIT`] has passed, and returns
/// the seconds waited. A host that has just throttled this machine (after a
/// build, say) steals for minutes, and a run measured then describes the
/// host.
pub fn wait_for_calm() -> f64 {
    let cpus = std::thread::available_parallelism().map_or(1, usize::from);
    let t0 = Instant::now();
    loop {
        let (p0, s0) = (Instant::now(), stolen_s());
        std::thread::scope(|s| {
            for _ in 0..cpus {
                s.spawn(|| {
                    while p0.elapsed() < Duration::from_secs(1) {
                        std::hint::spin_loop();
                    }
                });
            }
        });
        let stolen = (stolen_s() - s0) / (p0.elapsed().as_secs_f64() * cpus as f64);
        if stolen <= STOLEN_LIMIT || t0.elapsed() >= CALM_WAIT {
            return t0.elapsed().as_secs_f64();
        }
        std::thread::sleep(Duration::from_secs(2));
    }
}

/// Calls `f(0)`, `f(1)`, … until `n` calls ran while the hypervisor took at
/// most [`STOLEN_LIMIT`] of the machine's CPU time, or `n + n / 2` calls
/// were made, and returns the `n` calls it disturbed least, in call order,
/// with the number of disturbed calls made.
///
/// # Errors
///
/// Stops at the first error of `f`.
pub fn undisturbed<R, E>(
    n: u64,
    mut f: impl FnMut(u64) -> Result<R, E>,
) -> Result<(Vec<R>, usize), E> {
    let cpus = std::thread::available_parallelism().map_or(1, usize::from) as f64;
    let mut calls: Vec<(f64, R)> = Vec::new();
    let mut clean = 0;
    for i in 0..n + n / 2 {
        if clean == n {
            break;
        }
        let (t0, s0) = (Instant::now(), stolen_s());
        let r = f(i)?;
        let stolen = (stolen_s() - s0) / (t0.elapsed().as_secs_f64() * cpus);
        clean += u64::from(stolen <= STOLEN_LIMIT);
        calls.push((stolen, r));
    }
    let disturbed = calls.len() - clean as usize;
    let mut order: Vec<usize> = (0..calls.len()).collect();
    order.sort_by(|&a, &b| calls[a].0.total_cmp(&calls[b].0));
    order.truncate(n as usize);
    let mut keep = vec![false; calls.len()];
    for i in order {
        keep[i] = true;
    }
    let kept = calls
        .into_iter()
        .zip(keep)
        .filter_map(|((_, r), k)| k.then_some(r))
        .collect();
    Ok((kept, disturbed))
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    read("/proc/self/status")
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit checked out in the current directory, read from `.git`
/// without running git; `unknown` outside a git checkout.
pub fn git_revision() -> String {
    let git = Path::new(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// `{"nproc": …, "cpu": …, "kernel": …, "rustc": …, "git": …}`.
pub fn fingerprint_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let cpu = read("/proc/cpuinfo")
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|v| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = read("/proc/sys/kernel/osrelease")
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": {}, \"kernel\": {}, \"rustc\": {}, \"git\": {}}}",
        json_str(&cpu),
        json_str(&kernel),
        json_str(env!("STACKBENCH_RUSTC")),
        json_str(&git_revision()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn undisturbed_runs_until_enough_calls_and_stops_at_errors() {
        let s0 = stolen_s();
        assert!(s0 >= 0.0 && stolen_s() >= s0);
        let mut calls = 0;
        let (done, disturbed) = undisturbed(4, |i| {
            calls += 1;
            Ok::<_, ()>(i)
        })
        .expect("no call fails");
        assert_eq!(done.len(), 4);
        assert!((4..=6).contains(&calls) && disturbed <= calls);
        assert!(done.windows(2).all(|w| w[0] < w[1]), "call order kept");
        let err = undisturbed(4, |i| if i == 1 { Err("boom") } else { Ok(i) });
        assert_eq!(err, Err("boom"));
    }
}
