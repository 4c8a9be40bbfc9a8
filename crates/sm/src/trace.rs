//! Cycle-resolved tracing of one SM run.
//!
//! When a [`TraceSpec`] is attached to an [`crate::Sm`] (via
//! [`crate::run_kernel_traced_mode`]), the SM snapshots its [`SmStats`]
//! and live memory gauges every `interval` cycles into an append-only
//! timeline and records a begin/end span for every CTA it executes. All
//! buffers are hard-capped: once full, new entries are *counted as
//! dropped* rather than silently truncated, so a consumer can always tell
//! whether the timeline is complete.
//!
//! Samples are cumulative snapshots (not deltas): consumers difference
//! adjacent samples to recover per-window rates, and the final sample —
//! always pushed at run end, even when the periodic buffer is full —
//! equals the run's returned statistics apart from the rename log.

use crate::SmStats;

/// Tracing parameters for one SM run.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct TraceSpec {
    /// Cycles between samples. Must be non-zero.
    pub interval: u64,
    /// Maximum CTA spans recorded before further spans are dropped
    /// (counted in [`SmTraceData::dropped_spans`]).
    pub span_cap: usize,
    /// Maximum periodic samples recorded before further samples are
    /// dropped (counted in [`SmTraceData::dropped_samples`]). The final
    /// end-of-run sample is exempt from the cap.
    pub sample_cap: usize,
}

impl Default for TraceSpec {
    fn default() -> TraceSpec {
        TraceSpec {
            interval: 1024,
            span_cap: 4096,
            sample_cap: 65536,
        }
    }
}

/// The live memory-side gauges at one sample point: levels at that
/// cycle, not running totals.
#[derive(Copy, Clone, PartialEq, Debug, Default)]
pub struct SmGauges {
    /// Outstanding MSHR fills.
    pub mshr_occupancy: u64,
    /// L2-port backlog, in cycles (summed over slices when the sliced
    /// memory side is in use).
    pub l2_backlog: f64,
    /// DRAM-server backlog, in cycles (summed over slices when the sliced
    /// memory side is in use).
    pub dram_backlog: f64,
    /// Worst single-L2-slice backlog, in cycles (zero on the flat memory
    /// side).
    pub slice_backlog_max: f64,
    /// Backlog summed over all L2 slices, in cycles (zero on the flat
    /// memory side).
    pub slice_backlog_sum: f64,
    /// Index of the hottest L2 slice (zero on the flat memory side).
    /// Makes slice camping visible on timelines.
    pub hot_slice: u64,
}

/// One sample point of a timeline.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct SmSample {
    /// Cycle at which the snapshot was taken.
    pub cycle: u64,
    /// The run's statistics at `cycle`, completed by the code that
    /// finalizes a run's [`SmStats`]. `rename_pairs` stays empty: it is a
    /// log, not a counter.
    pub stats: SmStats,
    /// Live gauges at `cycle`.
    pub gauges: SmGauges,
}

impl SmSample {
    /// Folds another SM's sample at the same point into this one: the
    /// stats by [`SmStats::accumulate`], the fold of per-SM results; gauge
    /// levels sum chip-wide, and the hot slice is the one behind the worst
    /// per-SM slice backlog. `cycle` is left to the caller.
    pub fn accumulate(&mut self, s: &SmSample) {
        self.stats.accumulate(&s.stats);
        let (g, o) = (&mut self.gauges, &s.gauges);
        g.mshr_occupancy += o.mshr_occupancy;
        g.l2_backlog += o.l2_backlog;
        g.dram_backlog += o.dram_backlog;
        g.slice_backlog_sum += o.slice_backlog_sum;
        if o.slice_backlog_max > g.slice_backlog_max {
            g.slice_backlog_max = o.slice_backlog_max;
            g.hot_slice = o.hot_slice;
        }
    }
}

/// One CTA's residency on the SM.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct CtaSpan {
    /// CTA index within the kernel launch.
    pub cta: u64,
    /// Cycle at which the CTA was launched onto the SM.
    pub begin: u64,
    /// Cycle at which the CTA's last warp exited.
    pub end: u64,
}

/// The complete trace of one SM run.
#[derive(Clone, Debug, Default)]
pub struct SmTraceData {
    /// Cumulative samples, in cycle order; the last entry is the
    /// end-of-run snapshot.
    pub samples: Vec<SmSample>,
    /// Completed CTA spans, in completion order.
    pub cta_spans: Vec<CtaSpan>,
    /// Periodic samples dropped because `sample_cap` was reached.
    pub dropped_samples: u64,
    /// CTA spans dropped because `span_cap` was reached.
    pub dropped_spans: u64,
}

/// Internal per-SM trace recorder.
#[derive(Debug)]
pub(crate) struct SmTracer {
    pub(crate) spec: TraceSpec,
    pub(crate) data: SmTraceData,
    /// cta_slot -> (cta index, launch cycle) for CTAs still resident.
    pub(crate) open_ctas: std::collections::HashMap<usize, (usize, u64)>,
}

impl SmTracer {
    pub(crate) fn new(spec: TraceSpec) -> SmTracer {
        assert!(spec.interval > 0, "trace interval must be non-zero");
        SmTracer {
            spec,
            data: SmTraceData::default(),
            open_ctas: std::collections::HashMap::new(),
        }
    }

    /// Records a periodic sample, honoring the cap.
    pub(crate) fn push_sample(&mut self, sample: SmSample) {
        if self.data.samples.len() >= self.spec.sample_cap {
            self.data.dropped_samples += 1;
        } else {
            self.data.samples.push(sample);
        }
    }

    /// Records the final end-of-run sample (exempt from the cap so the
    /// timeline always closes on the run totals). Replaces a periodic
    /// sample taken at the same cycle.
    pub(crate) fn push_final_sample(&mut self, sample: SmSample) {
        let samples = &mut self.data.samples;
        if samples.last().is_some_and(|s| s.cycle == sample.cycle) {
            samples.pop();
        }
        samples.push(sample);
    }

    pub(crate) fn cta_begin(&mut self, cta_slot: usize, cta: usize, cycle: u64) {
        self.open_ctas.insert(cta_slot, (cta, cycle));
    }

    pub(crate) fn cta_end(&mut self, cta_slot: usize, cycle: u64) {
        let Some((cta, begin)) = self.open_ctas.remove(&cta_slot) else {
            return;
        };
        if self.data.cta_spans.len() >= self.spec.span_cap {
            self.data.dropped_spans += 1;
        } else {
            self.data.cta_spans.push(CtaSpan {
                cta: cta as u64,
                begin,
                end: cycle,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(cycle: u64, issued_other: u64) -> SmSample {
        SmSample {
            cycle,
            stats: SmStats {
                issued_other,
                ..SmStats::default()
            },
            ..SmSample::default()
        }
    }

    #[test]
    fn span_cap_counts_drops_instead_of_truncating_silently() {
        let mut t = SmTracer::new(TraceSpec {
            interval: 16,
            span_cap: 2,
            sample_cap: 8,
        });
        for i in 0..5usize {
            t.cta_begin(0, i, i as u64 * 10);
            t.cta_end(0, i as u64 * 10 + 5);
        }
        assert_eq!(t.data.cta_spans.len(), 2);
        assert_eq!(t.data.dropped_spans, 3);
    }

    #[test]
    fn sample_cap_counts_drops_but_final_sample_always_lands() {
        let mut t = SmTracer::new(TraceSpec {
            interval: 1,
            span_cap: 8,
            sample_cap: 2,
        });
        for c in 1..=4u64 {
            t.push_sample(sample(c, 0));
        }
        assert_eq!(t.data.samples.len(), 2);
        assert_eq!(t.data.dropped_samples, 2);
        t.push_final_sample(sample(99, 7));
        assert_eq!(t.data.samples.len(), 3);
        assert_eq!(t.data.samples.last().unwrap().cycle, 99);
    }

    #[test]
    fn final_sample_replaces_same_cycle_periodic_sample() {
        let mut t = SmTracer::new(TraceSpec::default());
        t.push_sample(sample(1024, 1));
        t.push_final_sample(sample(1024, 2));
        assert_eq!(t.data.samples.len(), 1);
        assert_eq!(t.data.samples[0].stats.issued_other, 2);
    }
}
