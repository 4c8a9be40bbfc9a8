//! A lightweight timer-based bench harness (the workspace's Criterion
//! replacement).
//!
//! Each bench target (`harness = false`) builds a [`Bench`] group and
//! registers closures with [`Bench::bench`]: the harness runs a warmup,
//! then N timed iterations, and prints one aligned line per benchmark with
//! the median, p95 and minimum wall-clock time.
//!
//! Iteration count can be tuned with `DUPLO_BENCH_ITERS=<n>` (default 12)
//! — enough for a stable median without Criterion's statistical machinery,
//! and fast enough that `cargo bench --workspace` stays in CI budget.

use std::time::{Duration, Instant};

/// Summary statistics of one benchmark.
#[derive(Copy, Clone, Debug)]
pub struct Stats {
    /// Timed iterations (excluding warmup).
    pub iters: u32,
    /// Median iteration time.
    pub median: Duration,
    /// 95th-percentile iteration time.
    pub p95: Duration,
    /// Fastest iteration.
    pub min: Duration,
}

/// A named group of benchmarks sharing warmup/iteration settings.
#[derive(Clone, Debug)]
pub struct Bench {
    group: String,
    warmup: u32,
    iters: u32,
}

impl Bench {
    /// Creates a bench group; iteration count comes from
    /// `DUPLO_BENCH_ITERS` (default 12), warmup is 2 iterations.
    pub fn group(name: impl Into<String>) -> Bench {
        let iters = std::env::var("DUPLO_BENCH_ITERS")
            .ok()
            .and_then(|s| s.parse().ok())
            .filter(|&n| n > 0)
            .unwrap_or(12);
        Bench {
            group: name.into(),
            warmup: 2,
            iters,
        }
    }

    /// Overrides the timed iteration count.
    pub fn with_iters(mut self, iters: u32) -> Bench {
        self.iters = iters.max(1);
        self
    }

    /// Overrides the warmup iteration count.
    pub fn with_warmup(mut self, warmup: u32) -> Bench {
        self.warmup = warmup;
        self
    }

    /// Runs and reports one benchmark; returns its statistics.
    pub fn bench<F: FnMut()>(&self, name: &str, mut f: F) -> Stats {
        for _ in 0..self.warmup {
            f();
        }
        let mut times: Vec<Duration> = (0..self.iters)
            .map(|_| {
                let t0 = Instant::now();
                f();
                t0.elapsed()
            })
            .collect();
        times.sort_unstable();
        let pick = |q: f64| times[((times.len() - 1) as f64 * q).round() as usize];
        let stats = Stats {
            iters: self.iters,
            median: pick(0.5),
            p95: pick(0.95),
            min: times[0],
        };
        println!(
            "{:<44} median {:>10}   p95 {:>10}   min {:>10}   ({} iters)",
            format!("{}/{}", self.group, name),
            fmt_duration(stats.median),
            fmt_duration(stats.p95),
            fmt_duration(stats.min),
            stats.iters,
        );
        stats
    }
}

/// Formats a duration with an adaptive unit (`ns`/`µs`/`ms`/`s`).
pub fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_are_ordered() {
        let b = Bench::group("test").with_iters(9).with_warmup(1);
        let mut x = 0u64;
        let s = b.bench("spin", || {
            for i in 0..1000 {
                x = x.wrapping_add(i);
            }
            std::hint::black_box(x);
        });
        assert_eq!(s.iters, 9);
        assert!(s.min <= s.median && s.median <= s.p95);
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(Duration::from_nanos(500)), "500 ns");
        assert_eq!(fmt_duration(Duration::from_micros(1500)), "1.50 ms");
        assert_eq!(fmt_duration(Duration::from_millis(2500)), "2.50 s");
        assert_eq!(fmt_duration(Duration::from_micros(12)), "12.00 µs");
    }
}
