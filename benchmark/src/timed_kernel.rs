//! A [`Kernel`] wrapper that times every CTA trace generation.
//!
//! The SM model calls [`Kernel::cta`] once per launched CTA, from inside
//! `duplo_sm::run_kernel_mode`. Wrapping the kernel is how the traced pass
//! separates trace generation (`kernels`) from the issue/event loop (`sm`)
//! without spans inside the simulator.

use std::sync::Mutex;
use std::time::Instant;

use duplo_isa::{CtaTrace, Kernel, WorkspaceDesc};

/// Forwards every [`Kernel`] method to `inner`, recording the start and
/// end of each [`Kernel::cta`] call.
pub struct TimedKernel<'a> {
    inner: &'a dyn Kernel,
    calls: Mutex<Vec<(Instant, Instant)>>,
}

impl<'a> TimedKernel<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a dyn Kernel) -> TimedKernel<'a> {
        TimedKernel {
            inner,
            calls: Mutex::new(Vec::new()),
        }
    }

    /// The recorded `(start, end)` of every `cta()` call so far, in call
    /// order; clears the record.
    pub fn take_calls(&self) -> Vec<(Instant, Instant)> {
        std::mem::take(&mut *self.calls.lock().expect("no panic while recording a call"))
    }
}

impl Kernel for TimedKernel<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn num_ctas(&self) -> usize {
        self.inner.num_ctas()
    }

    fn cta(&self, idx: usize) -> CtaTrace {
        let start = Instant::now();
        let trace = self.inner.cta(idx);
        let end = Instant::now();
        self.calls
            .lock()
            .expect("no panic while recording a call")
            .push((start, end));
        trace
    }

    fn shared_mem_per_cta(&self) -> u32 {
        self.inner.shared_mem_per_cta()
    }

    fn regs_per_warp(&self) -> u32 {
        self.inner.regs_per_warp()
    }

    fn workspace(&self) -> Option<WorkspaceDesc> {
        self.inner.workspace()
    }

    fn content_digest(&self) -> Option<u128> {
        self.inner.content_digest()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{fold_one_sm, share_of};
    use duplo_conv::ConvParams;
    use duplo_core::LhbConfig;
    use duplo_kernels::{GemmTcKernel, SmemPolicy};
    use duplo_sim::{GpuConfig, GpuSim, RunOptions, cache};
    use duplo_tensor::Nhwc;

    /// A kernel whose every method returns a distinct, non-default value.
    struct Probe;

    impl Kernel for Probe {
        fn name(&self) -> &str {
            "probe"
        }
        fn num_ctas(&self) -> usize {
            7
        }
        fn cta(&self, idx: usize) -> CtaTrace {
            CtaTrace {
                warps: vec![
                    duplo_isa::WarpTrace {
                        ops: vec![duplo_isa::Op::Exit]
                    };
                    idx + 1
                ],
            }
        }
        fn shared_mem_per_cta(&self) -> u32 {
            96
        }
        fn regs_per_warp(&self) -> u32 {
            11
        }
        fn workspace(&self) -> Option<WorkspaceDesc> {
            Some(duplo_kernels::conv_workspace_desc(
                &ConvParams::new(Nhwc::new(1, 8, 8, 16), 16, 3, 3, 1, 1).unwrap(),
            ))
        }
        fn content_digest(&self) -> Option<u128> {
            Some(0xfeed)
        }
    }

    #[test]
    fn forwards_every_kernel_method() {
        let t = TimedKernel::new(&Probe);
        assert_eq!(t.name(), "probe");
        assert_eq!(t.num_ctas(), 7);
        assert_eq!(t.cta(2), Probe.cta(2));
        assert_eq!(t.shared_mem_per_cta(), 96);
        assert_eq!(t.regs_per_warp(), 11);
        assert_eq!(t.workspace(), Probe.workspace());
        assert_eq!(t.content_digest(), Some(0xfeed));
        assert_eq!(t.take_calls().len(), 1);
        assert!(t.take_calls().is_empty());
    }

    #[test]
    fn run_kernel_mode_through_it_equals_gpu_sim_run() {
        let params = ConvParams::new(Nhwc::new(2, 28, 28, 32), 32, 3, 3, 1, 1).unwrap();
        let kernel = GemmTcKernel::from_conv(&params, SmemPolicy::COnly);
        let opts = RunOptions {
            sample_ctas: Some(2),
            no_cache: true,
            ..RunOptions::default()
        };
        let cfg = opts
            .apply(GpuConfig::titan_v())
            .with_duplo(LhbConfig::paper_default());
        let whole = GpuSim::with_options(cfg.clone(), opts).run(&kernel);

        let timed = TimedKernel::new(&kernel);
        let (share_len, take) = share_of(&cfg, timed.num_ctas());
        let ids: Vec<usize> = (0..share_len)
            .map(|i| i * cfg.total_sms)
            .take(take)
            .collect();
        let stats = duplo_sm::run_kernel_mode(&timed, &ids, cfg.sm.clone(), false);
        let direct = fold_one_sm(stats, share_len, take);
        assert_eq!(direct.cycles, whole.cycles);
        assert_eq!(
            cache::result_to_json(&direct).to_canonical(),
            cache::result_to_json(&whole).to_canonical()
        );
        assert_eq!(timed.take_calls().len(), take);
    }
}
