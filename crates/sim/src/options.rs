//! Typed run options — the only input to a run besides its configuration
//! and kernel.
//!
//! Every run-affecting setting travels in a [`RunOptions`] value: the
//! thread cap, the SM loop mode, the cache policy, the L2 slicing, and the
//! run-scoped trace and wtrace handles. The environment is read in one
//! place, [`RunOptions::from_env`], at the binary edge (the `duplo` CLI and
//! the test binaries `scripts/ci.sh` drives through `DUPLO_*` variables);
//! [`RunOptions::from_cli`] layers the flags on top. CTA sampling is a run
//! option like any other: every entry point simulates full CTA shares
//! unless the options carry `sample_ctas` (`--sample N` on the CLI, or a
//! `duplo serve` submission's or daemon's own choice). The experiment
//! registry runners receive the value, and [`crate::GpuSim::with_options`]
//! threads it down through the runner, the cache, and the SM loop. Since
//! nothing defers to process state, runs with different settings — traced
//! and untraced, 1 and 4 threads, event and reference loop — can run
//! concurrently in one process.

use std::path::PathBuf;

use duplo_mem::{HashKind, NocConfig};

use crate::GpuConfig;
use crate::cache::CacheCtl;
use crate::json::Json;
use crate::progress::ProgressHandle;
use crate::trace::TraceSink;
use crate::wtrace::WtraceSession;

/// Options for one simulation run (or one experiment invocation).
///
/// `RunOptions::default()` means the defaults: every available core, the
/// event-driven SM loop, the process-default cache directory, the
/// configuration's own memory side, and no tracing.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunOptions {
    /// Simulate at most this many CTAs per representative SM (None = all).
    pub sample_ctas: Option<usize>,
    /// Worker-thread cap for this run's parallel fan-out (`DUPLO_THREADS`
    /// at the CLI; `None` = [`std::thread::available_parallelism`]).
    pub threads: Option<usize>,
    /// Run the tick-by-tick reference SM loop (`DUPLO_TICK_REFERENCE` at
    /// the CLI); `false` = the event-driven loop. Results are identical.
    pub tick_reference: bool,
    /// `--no-cache`: neither look up nor store run-cache entries.
    pub no_cache: bool,
    /// `--cache-dir <dir>` / `DUPLO_CACHE_DIR`: disk tier for the run
    /// cache (`None` = the process default from [`crate::cache::set_dir`],
    /// memory only unless one was set).
    pub cache_dir: Option<PathBuf>,
    /// L2 slice count override: `Some(0)` forces the flat memory side,
    /// `Some(n >= 1)` the sliced one (`DUPLO_L2_SLICES`), `None` keeps
    /// whatever the configuration already selected
    /// ([`crate::GpuConfig::titan_v`] is flat).
    pub l2_slices: Option<usize>,
    /// Line→slice hash for the sliced memory side (`DUPLO_L2_HASH`;
    /// `None` = XOR-fold when slicing is requested here).
    pub l2_hash: Option<HashKind>,
    /// `--json <path>`: write the structured result here.
    pub json: Option<PathBuf>,
    /// `--json-dir <dir>` (or `DUPLO_JSON_DIR`): per-experiment files.
    pub json_dir: Option<PathBuf>,
    /// `--trace <path>` (or `DUPLO_TRACE`): write a Chrome trace-event
    /// timeline of every simulated run to this file.
    pub trace: Option<PathBuf>,
    /// `--trace-interval <N>` (or `DUPLO_TRACE_INTERVAL`): cycles between
    /// trace samples.
    pub trace_interval: Option<u64>,
    /// `--trace-in <file>`: replay this recorded wtrace file — every
    /// generated kernel is swapped for its recorded instruction stream
    /// before simulation (see [`crate::wtrace`]).
    pub trace_in: Option<PathBuf>,
    /// Live progress cell for this run (see [`crate::progress`]):
    /// [`crate::GpuSim::run`] adds each kernel's simulated cycles as it
    /// completes. `duplo serve` threads one per submission; `None` (the
    /// default everywhere else) reports nothing. Never part of the cache
    /// key — progress observation cannot perturb results.
    pub progress: Option<ProgressHandle>,
    /// Trace collector for this run (see [`crate::trace`]): the CLI builds
    /// one for `--trace`, `duplo serve` one per traced submission. `None`
    /// records nothing. Never part of the cache key.
    pub trace_sink: Option<TraceSink>,
    /// Wtrace record or replay session for this run (see
    /// [`crate::wtrace`]): `duplo trace record` and `--trace-in` build one.
    /// Never part of the cache key.
    pub wtrace: Option<WtraceSession>,
}

/// Validates a trace-interval setting coming from `source` (a flag or an
/// environment variable name). Pure and shared by the `--trace-interval`
/// flag and the `DUPLO_TRACE_INTERVAL` environment path, so both reject
/// bad values with the same message — the env path used to silently fall
/// back to the default on `0` or garbage while the flag errored.
pub fn parse_trace_interval(source: &str, v: &str) -> Result<u64, String> {
    match v.parse::<u64>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!(
            "{source} requires a positive cycle count, got {v:?}"
        )),
    }
}

impl RunOptions {
    /// Fast settings for CI/tests: aggressive CTA sampling.
    pub fn quick() -> RunOptions {
        RunOptions {
            sample_ctas: Some(2),
            ..RunOptions::default()
        }
    }

    /// Snapshots every environment knob into an explicit value — the only
    /// place a run's settings are read from the environment: the
    /// `DUPLO_JSON_DIR` / `DUPLO_TRACE*` harness settings, plus
    /// `DUPLO_THREADS`, `DUPLO_CACHE_DIR`, `DUPLO_TICK_REFERENCE`, and
    /// `DUPLO_L2_SLICES` / `DUPLO_L2_HASH`. Lenient where the historical
    /// readers were lenient (an unparsable `DUPLO_THREADS` is ignored),
    /// strict where they were strict (`DUPLO_TRACE_INTERVAL` errors).
    pub fn from_env() -> Result<RunOptions, String> {
        let mut o = RunOptions::default();
        o.threads = std::env::var("DUPLO_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1);
        o.cache_dir = std::env::var_os("DUPLO_CACHE_DIR").map(PathBuf::from);
        o.tick_reference = std::env::var_os("DUPLO_TICK_REFERENCE").is_some_and(|v| v != "0");
        o.l2_slices = std::env::var("DUPLO_L2_SLICES")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n >= 1);
        o.l2_hash = std::env::var("DUPLO_L2_HASH")
            .ok()
            .and_then(|v| HashKind::parse(&v));
        o.json_dir = std::env::var_os("DUPLO_JSON_DIR").map(PathBuf::from);
        o.trace = std::env::var_os("DUPLO_TRACE").map(PathBuf::from);
        o.trace_interval = match std::env::var("DUPLO_TRACE_INTERVAL") {
            Ok(v) => Some(parse_trace_interval("DUPLO_TRACE_INTERVAL", v.trim())?),
            Err(_) => None,
        };
        Ok(o)
    }

    /// Parses the shared experiment command line on top of
    /// [`RunOptions::from_env`]. Pure over `args` — no process exit, no
    /// global state — so argument handling is unit-testable. Sampling has
    /// one rule: full CTA shares unless `--sample N` is given, and a later
    /// `--full` overrides an earlier `--sample`. `args` excludes the binary
    /// name (`std::env::args().skip(1)`).
    pub fn from_cli(args: &[String]) -> Result<RunOptions, String> {
        let mut o = RunOptions::from_env()?;
        let value = |args: &[String], i: &mut usize, flag: &str| -> Result<String, String> {
            *i += 1;
            args.get(*i)
                .cloned()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--full" => o.sample_ctas = None,
                "--sample" => {
                    let v = value(args, &mut i, "--sample")?;
                    match v.parse::<usize>() {
                        Ok(n) if n >= 1 => o.sample_ctas = Some(n),
                        Ok(_) => {
                            return Err(
                                "--sample requires a positive integer (0 would simulate no CTAs); \
                                 use --full to simulate every CTA"
                                    .to_string(),
                            );
                        }
                        Err(_) => {
                            return Err(format!("--sample requires a positive integer, got {v:?}"));
                        }
                    }
                }
                "--json" => o.json = Some(PathBuf::from(value(args, &mut i, "--json")?)),
                "--json-dir" => {
                    o.json_dir = Some(PathBuf::from(value(args, &mut i, "--json-dir")?));
                }
                "--cache-dir" => {
                    o.cache_dir = Some(PathBuf::from(value(args, &mut i, "--cache-dir")?));
                }
                "--no-cache" => o.no_cache = true,
                "--trace" => o.trace = Some(PathBuf::from(value(args, &mut i, "--trace")?)),
                "--trace-interval" => {
                    let v = value(args, &mut i, "--trace-interval")?;
                    o.trace_interval = Some(parse_trace_interval("--trace-interval", &v)?);
                }
                "--trace-in" => {
                    o.trace_in = Some(PathBuf::from(value(args, &mut i, "--trace-in")?));
                }
                other => return Err(format!("unknown argument: {other}")),
            }
            i += 1;
        }
        Ok(o)
    }

    /// Applies the configuration-shaping options to a GPU configuration:
    /// CTA sampling always, the memory side when an `l2_slices` override
    /// is present. Re-applying the same slice settings a configuration
    /// already carries is idempotent.
    pub fn apply(&self, mut cfg: GpuConfig) -> GpuConfig {
        cfg.sample_ctas = self.sample_ctas;
        match self.l2_slices {
            None => {}
            Some(0) => {
                // Explicit flat: undo any sliced selection.
                cfg.sm.hierarchy.l2_slices = 0;
                cfg.sm.hierarchy.noc = NocConfig::passthrough();
            }
            Some(n) => {
                let hash = self.l2_hash.unwrap_or(HashKind::XorFold);
                cfg.sm.hierarchy = cfg.sm.hierarchy.sliced(n, hash);
            }
        }
        cfg
    }

    /// The cache control block [`crate::GpuSim`] hands to
    /// [`crate::cache::run_cached_ctl`] for runs under these options.
    pub fn cache_ctl(&self) -> CacheCtl {
        CacheCtl {
            disabled: self.no_cache,
            dir: self.cache_dir.clone(),
        }
    }

    /// Overlays the wire-format options object of a `duplo serve`
    /// submission onto `self` (the server's defaults). Strict: unknown
    /// fields, mistyped values, and contradictory settings are errors,
    /// surfaced verbatim in the daemon's structured error body.
    ///
    /// Accepted fields: `sample_ctas` (integer >= 1), `full` (bool),
    /// `l2_slices` (integer; 0 = flat), `l2_hash` (`"mod"` | `"xor"`),
    /// `tick_reference` (bool), `no_cache` (bool).
    pub fn merge_wire(&self, v: &Json) -> Result<RunOptions, String> {
        let mut o = self.clone();
        let Json::Obj(fields) = v else {
            return Err("options must be an object".to_string());
        };
        let mut saw_sample = false;
        let mut saw_full = false;
        for (key, val) in fields {
            match key.as_str() {
                "sample_ctas" => {
                    let n = val.as_u64().filter(|&n| n >= 1).ok_or_else(|| {
                        format!("options.sample_ctas requires a positive integer, got {val:?}")
                    })?;
                    o.sample_ctas = Some(n as usize);
                    saw_sample = true;
                }
                "full" => match val {
                    Json::Bool(true) => {
                        o.sample_ctas = None;
                        saw_full = true;
                    }
                    Json::Bool(false) => {}
                    _ => return Err(format!("options.full requires a boolean, got {val:?}")),
                },
                "l2_slices" => {
                    let n = val.as_u64().ok_or_else(|| {
                        format!("options.l2_slices requires an integer (0 = flat), got {val:?}")
                    })?;
                    o.l2_slices = Some(n as usize);
                }
                "l2_hash" => {
                    let s = val.as_str().and_then(HashKind::parse).ok_or_else(|| {
                        format!("options.l2_hash requires \"mod\" or \"xor\", got {val:?}")
                    })?;
                    o.l2_hash = Some(s);
                }
                "tick_reference" => match val {
                    Json::Bool(b) => o.tick_reference = *b,
                    _ => {
                        return Err(format!(
                            "options.tick_reference requires a boolean, got {val:?}"
                        ));
                    }
                },
                "no_cache" => match val {
                    Json::Bool(b) => o.no_cache = *b,
                    _ => return Err(format!("options.no_cache requires a boolean, got {val:?}")),
                },
                other => return Err(format!("options.{other}: unknown field")),
            }
        }
        if saw_sample && saw_full {
            return Err("options.sample_ctas and options.full are mutually exclusive".to_string());
        }
        Ok(o)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn default_defers_everything() {
        let o = RunOptions::default();
        assert_eq!(o.sample_ctas, None);
        assert_eq!(o.threads, None);
        assert!(!o.tick_reference);
        assert!(!o.no_cache);
        assert_eq!(o.l2_slices, None);
        assert_eq!(o.cache_ctl(), CacheCtl::default());
        assert!(o.trace_sink.is_none() && o.wtrace.is_none());
    }

    #[test]
    fn quick_samples_two_ctas() {
        assert_eq!(RunOptions::quick().sample_ctas, Some(2));
    }

    #[test]
    fn cli_flags_override_the_defaults() {
        let o = RunOptions::from_cli(&argv(&["--sample", "5", "--no-cache"])).unwrap();
        assert_eq!(o.sample_ctas, Some(5));
        assert!(o.no_cache);
        let o = RunOptions::from_cli(&argv(&["--full", "--cache-dir", "/tmp/c"])).unwrap();
        assert_eq!(o.sample_ctas, None);
        assert_eq!(o.cache_dir, Some(PathBuf::from("/tmp/c")));
        let err = RunOptions::from_cli(&argv(&["--bogus"])).unwrap_err();
        assert!(err.contains("unknown argument"), "{err}");
    }

    #[test]
    fn default_sample_passes_through() {
        // The one default is full CTA shares: no flag leaves sampling unset.
        assert_eq!(RunOptions::from_cli(&[]).unwrap().sample_ctas, None);
    }

    #[test]
    fn sample_and_full_override_the_default() {
        let cli = RunOptions::from_cli(&argv(&["--sample", "16"])).unwrap();
        assert_eq!(cli.sample_ctas, Some(16));
        // A later `--full` takes an earlier sample back.
        let cli = RunOptions::from_cli(&argv(&["--sample", "3", "--full"])).unwrap();
        assert_eq!(cli.sample_ctas, None);
    }

    #[test]
    fn sample_zero_is_rejected_with_a_clear_message() {
        let err = RunOptions::from_cli(&argv(&["--sample", "0"])).unwrap_err();
        assert!(err.contains("positive integer"), "{err}");
        assert!(err.contains("--full"), "should point at --full: {err}");
        let err = RunOptions::from_cli(&argv(&["--sample", "two"])).unwrap_err();
        assert!(err.contains("positive integer"), "{err}");
        let err = RunOptions::from_cli(&argv(&["--sample"])).unwrap_err();
        assert!(err.contains("requires a value"), "{err}");
    }

    #[test]
    fn unknown_arguments_error_instead_of_panicking() {
        let err = RunOptions::from_cli(&argv(&["--bogus"])).unwrap_err();
        assert!(err.contains("unknown argument"), "{err}");
        assert!(err.contains("--bogus"), "{err}");
    }

    #[test]
    fn cache_flags_parse() {
        let cli = RunOptions::from_cli(&argv(&["--cache-dir", "/tmp/c", "--no-cache"])).unwrap();
        assert_eq!(cli.cache_dir, Some(PathBuf::from("/tmp/c")));
        assert!(cli.no_cache);
        let cli = RunOptions::from_cli(&[]).unwrap();
        assert_eq!(cli.cache_dir, None);
        assert!(!cli.no_cache);
        let err = RunOptions::from_cli(&argv(&["--cache-dir"])).unwrap_err();
        assert!(err.contains("requires a value"), "{err}");
    }

    #[test]
    fn trace_flags_parse() {
        let args = argv(&["--trace", "/tmp/t.json", "--trace-interval", "256"]);
        let cli = RunOptions::from_cli(&args).unwrap();
        assert_eq!(cli.trace, Some(PathBuf::from("/tmp/t.json")));
        assert_eq!(cli.trace_interval, Some(256));
        let err = RunOptions::from_cli(&argv(&["--trace-interval", "0"])).unwrap_err();
        assert!(err.contains("positive"), "{err}");
        let err = RunOptions::from_cli(&argv(&["--trace"])).unwrap_err();
        assert!(err.contains("requires a value"), "{err}");
    }

    #[test]
    fn trace_interval_env_values_fail_like_the_flag() {
        assert_eq!(parse_trace_interval("DUPLO_TRACE_INTERVAL", "256"), Ok(256));
        for bad in ["0", "abc", "-1", ""] {
            let err = parse_trace_interval("DUPLO_TRACE_INTERVAL", bad).unwrap_err();
            assert!(err.contains("DUPLO_TRACE_INTERVAL"), "{err}");
            assert!(err.contains("positive cycle count"), "{err}");
            let flag_err = parse_trace_interval("--trace-interval", bad).unwrap_err();
            assert_eq!(
                err.replace("DUPLO_TRACE_INTERVAL", "--trace-interval"),
                flag_err,
                "env and flag must share one message shape"
            );
        }
    }

    #[test]
    fn apply_respects_slice_overrides() {
        let flat = GpuConfig::titan_v();
        // No override: the hierarchy is untouched.
        let same = RunOptions::default().apply(flat.clone());
        assert_eq!(same.sm.hierarchy.l2_slices, flat.sm.hierarchy.l2_slices);
        // Sliced override.
        let mut o = RunOptions::default();
        o.l2_slices = Some(4);
        o.l2_hash = Some(HashKind::Mod);
        let sliced = o.apply(flat.clone());
        assert_eq!(sliced.sm.hierarchy.l2_slices, 4);
        assert_eq!(sliced.sm.hierarchy.hash.label(), "mod");
        // Explicit flat undoes it.
        let mut back = RunOptions::default();
        back.l2_slices = Some(0);
        let undone = back.apply(sliced);
        assert_eq!(undone.sm.hierarchy.l2_slices, 0);
        // Re-applying settings a config already carries is idempotent.
        let mut again = RunOptions::default();
        again.l2_slices = Some(4);
        again.l2_hash = Some(HashKind::Mod);
        let one = again.apply(flat.clone());
        let two = again.apply(one.clone());
        assert_eq!(one.sm.hierarchy.l2_slices, two.sm.hierarchy.l2_slices);
        assert_eq!(one.sm.hierarchy.hash, two.sm.hierarchy.hash);
    }

    #[test]
    fn wire_overlay_is_strict() {
        use crate::json::parse;
        let base = RunOptions::quick();
        let o = base
            .merge_wire(&parse(r#"{"sample_ctas": 3, "tick_reference": true}"#).unwrap())
            .unwrap();
        assert_eq!(o.sample_ctas, Some(3));
        assert!(o.tick_reference);
        // Unknown fields are rejected, not ignored.
        let err = base
            .merge_wire(&parse(r#"{"smaple_ctas": 3}"#).unwrap())
            .unwrap_err();
        assert!(err.contains("unknown field"), "{err}");
        // Mistyped values are rejected with the offending value echoed.
        let err = base
            .merge_wire(&parse(r#"{"sample_ctas": 0}"#).unwrap())
            .unwrap_err();
        assert!(err.contains("positive integer"), "{err}");
        let err = base
            .merge_wire(&parse(r#"{"l2_hash": "crc"}"#).unwrap())
            .unwrap_err();
        assert!(err.contains("l2_hash"), "{err}");
        // Contradictions are rejected.
        let err = base
            .merge_wire(&parse(r#"{"sample_ctas": 3, "full": true}"#).unwrap())
            .unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
        // Non-object payloads are rejected.
        assert!(base.merge_wire(&Json::Null).is_err());
        // `full: true` clears the server's default sampling.
        let o = base
            .merge_wire(&parse(r#"{"full": true}"#).unwrap())
            .unwrap();
        assert_eq!(o.sample_ctas, None);
    }
}
