//! Host record: what the machine did while a run measured, so a slow
//! host can be told apart from a slow program.

use std::hint::black_box;
use std::time::Instant;

/// Worker threads the benchmark may use (`available_parallelism`).
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// Aggregate steal ticks from the `cpu` line of `/proc/stat` (the eighth
/// counter), or `None` where the file is missing or malformed.
fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Milliseconds one fixed integer loop takes. It calls no program code,
/// so its time moves only with the host: clock, steal and contention.
fn reference_loop_ms() -> f64 {
    let t0 = Instant::now();
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    for i in 0..black_box(20_000_000u64) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_add(i);
    }
    black_box(x);
    t0.elapsed().as_secs_f64() * 1e3
}

/// The host record of one run: taken at start, closed at the end.
pub struct HostRecord {
    steal_start: Option<u64>,
    ref_ms_start: f64,
}

impl HostRecord {
    pub fn start() -> Self {
        HostRecord {
            steal_start: steal_ticks(),
            ref_ms_start: reference_loop_ms(),
        }
    }

    /// `(nproc, steal ticks over the run, mean reference-loop ms of
    /// the start and end samples)`.
    pub fn finish(&self) -> (usize, u64, f64) {
        let steal = match (self.steal_start, steal_ticks()) {
            (Some(a), Some(b)) => b.saturating_sub(a),
            _ => 0,
        };
        let ref_ms = (self.ref_ms_start + reference_loop_ms()) / 2.0;
        (nproc(), steal, ref_ms)
    }
}
