//! Typed run options — the only input to a run besides its configuration
//! and kernel.
//!
//! Every run-affecting setting travels in a [`RunOptions`] value: the
//! thread cap, the SM loop mode, the cache policy, the L2 slicing, and the
//! run-scoped trace and wtrace handles. Each setting that comes from
//! outside the program has one entry in [`OPTIONS`]: its flag and the
//! commands that take it, its environment variable, its key in a
//! `duplo serve` submission, and its value [`Rule`]. The readers —
//! [`RunOptions::from_env`] at the binary edge, [`RunOptions::from_cli`]
//! and [`parse_args`] for command lines, and [`RunOptions::merge_wire`] in
//! the daemon — all read that table, so a value means the same and fails
//! with the same message however it is spelled. CTA sampling is a run
//! option like any other: every entry point simulates full CTA shares
//! unless the options carry `sample_ctas`. The experiment registry runners
//! receive the value, and [`crate::GpuSim::with_options`] threads it down
//! through the runner, the cache, and the SM loop. Since nothing defers to
//! process state, runs with different settings — traced and untraced, 1
//! and 4 threads, event and reference loop — can run concurrently in one
//! process.

use std::ffi::OsString;
use std::path::PathBuf;
use std::slice::Iter;

use duplo_mem::{HashKind, NocConfig};

use crate::GpuConfig;
use crate::json::Json;
use crate::progress::ProgressHandle;
use crate::trace::TraceSink;
use crate::wtrace::WtraceSession;

/// Options for one simulation run (or one experiment invocation).
///
/// `RunOptions::default()` means the defaults: every available core, the
/// event-driven SM loop, the process-default cache directory, the
/// configuration's own memory side, and no tracing.
#[derive(Clone, Debug, Default)]
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

/// A command whose command line takes run options.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Command {
    /// `duplo run` and `duplo trace record`.
    Run,
    /// `duplo serve`: the options become the per-submission defaults.
    Serve,
    /// `duplo submit`: the options travel to the daemon on the wire.
    Submit,
}

/// The values an option takes. Every spelling becomes one JSON value — a
/// bare flag `true`, flag and environment text parsed by the rule, a wire
/// value as sent — and a refused value gets one message shape:
/// `<flag, variable or options.key> requires <what>, got <value>`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rule {
    /// On or off: a bare flag, `1` or `0` in the environment, a boolean on
    /// the wire.
    Switch,
    /// An integer of at least `.0`, described as `.1` in errors.
    Int(u64, &'static str),
    /// A line→slice hash: `"mod"` or `"xor"`.
    Hash,
    /// A filesystem path.
    Path,
}

impl Rule {
    /// Reads `text`, the value of flag or environment variable `source`.
    fn parse(self, source: &str, text: &str) -> Result<Json, String> {
        let v = match (self, text) {
            (Rule::Switch, "1" | "0") => Json::Bool(text == "1"),
            (Rule::Switch, _) => Json::Null,
            (Rule::Int(..), _) => text.parse().map_or(Json::Null, Json::UInt),
            (Rule::Hash | Rule::Path, _) => Json::from(text),
        };
        self.judge(source, &v, &format!("{text:?}"), "1 or 0")
            .map(|()| v)
    }

    /// Checks `v`, the wire value of `source` (`options.<key>`).
    fn check(self, source: &str, v: &Json) -> Result<(), String> {
        self.judge(source, v, &v.to_canonical(), "a boolean")
    }

    /// Accepts `v` or refuses it, quoted as `shown`; `switch` names a
    /// switch's values in the spelling at hand.
    fn judge(self, source: &str, v: &Json, shown: &str, switch: &str) -> Result<(), String> {
        let (ok, what) = match self {
            Rule::Switch => (matches!(v, Json::Bool(_)), switch),
            Rule::Int(min, what) => (v.as_u64().is_some_and(|n| n >= min), what),
            Rule::Hash => (
                v.as_str().and_then(HashKind::parse).is_some(),
                "\"mod\" or \"xor\"",
            ),
            Rule::Path => (matches!(v, Json::Str(_)), "a path"),
        };
        if ok {
            Ok(())
        } else {
            Err(format!("{source} requires {what}, got {shown}"))
        }
    }
}

/// One run option: its spellings, its value rule, and how a value it
/// accepted sets [`RunOptions`].
#[derive(Debug)]
pub struct Opt {
    /// The [`RunOptions`] field it sets (`full` clears `sample_ctas`).
    pub name: &'static str,
    /// Command-line flag.
    pub flag: Option<&'static str>,
    /// The commands whose command line takes the flag.
    pub commands: &'static [Command],
    /// Environment variable ([`RunOptions::from_env`]).
    pub env: Option<&'static str>,
    /// Key in a submission's `options` object ([`RunOptions::merge_wire`]).
    pub wire: Option<&'static str>,
    /// The values it takes.
    pub rule: Rule,
    /// Applies a value the rule accepted.
    pub set: fn(&mut RunOptions, &Json),
}

const SAMPLE: Rule = Rule::Int(
    1,
    "a positive integer (full shares: --full, \"full\": true)",
);
const POSITIVE: Rule = Rule::Int(1, "a positive integer");
const INTERVAL: Rule = Rule::Int(1, "a positive cycle count");

const ALL: &[Command] = &[Command::Run, Command::Serve, Command::Submit];
const LOCAL: &[Command] = &[Command::Run, Command::Serve];
const RUN: &[Command] = &[Command::Run];
const SUBMIT: &[Command] = &[Command::Submit];

/// Every run option that comes from outside the program. `duplo submit`
/// writes the wire options in this order, so the order is part of the wire
/// format (and of the `X-Duplo-Job` digest of a submission).
#[rustfmt::skip]
pub static OPTIONS: &[Opt] = &[
    Opt { name: "sample_ctas", flag: Some("--sample"), commands: ALL, env: None, wire: Some("sample_ctas"),
          rule: SAMPLE, set: |o, v| o.sample_ctas = size(v) },
    Opt { name: "full", flag: Some("--full"), commands: ALL, env: None, wire: Some("full"),
          rule: Rule::Switch, set: |o, v| if *v == Json::Bool(true) { o.sample_ctas = None } },
    Opt { name: "no_cache", flag: Some("--no-cache"), commands: ALL, env: None, wire: Some("no_cache"),
          rule: Rule::Switch, set: |o, v| o.no_cache = *v == Json::Bool(true) },
    Opt { name: "tick_reference", flag: Some("--tick-reference"), commands: SUBMIT,
          env: Some("DUPLO_TICK_REFERENCE"), wire: Some("tick_reference"),
          rule: Rule::Switch, set: |o, v| o.tick_reference = *v == Json::Bool(true) },
    Opt { name: "l2_slices", flag: Some("--l2-slices"), commands: SUBMIT, env: Some("DUPLO_L2_SLICES"),
          wire: Some("l2_slices"), rule: Rule::Int(0, "an integer (0 = flat)"), set: |o, v| o.l2_slices = size(v) },
    Opt { name: "l2_hash", flag: Some("--l2-hash"), commands: SUBMIT, env: Some("DUPLO_L2_HASH"), wire: Some("l2_hash"),
          rule: Rule::Hash, set: |o, v| o.l2_hash = v.as_str().and_then(HashKind::parse) },
    Opt { name: "threads", flag: None, commands: &[], env: Some("DUPLO_THREADS"), wire: None,
          rule: POSITIVE, set: |o, v| o.threads = size(v) },
    Opt { name: "cache_dir", flag: Some("--cache-dir"), commands: LOCAL, env: Some("DUPLO_CACHE_DIR"), wire: None,
          rule: Rule::Path, set: |o, v| o.cache_dir = v.as_str().map(PathBuf::from) },
    Opt { name: "trace_interval", flag: Some("--trace-interval"), commands: LOCAL,
          env: Some("DUPLO_TRACE_INTERVAL"), wire: None, rule: INTERVAL, set: |o, v| o.trace_interval = v.as_u64() },
    Opt { name: "json", flag: Some("--json"), commands: RUN, env: None, wire: None,
          rule: Rule::Path, set: |o, v| o.json = v.as_str().map(PathBuf::from) },
    Opt { name: "json_dir", flag: Some("--json-dir"), commands: RUN, env: Some("DUPLO_JSON_DIR"), wire: None,
          rule: Rule::Path, set: |o, v| o.json_dir = v.as_str().map(PathBuf::from) },
    Opt { name: "trace", flag: Some("--trace"), commands: RUN, env: Some("DUPLO_TRACE"), wire: None,
          rule: Rule::Path, set: |o, v| o.trace = v.as_str().map(PathBuf::from) },
    Opt { name: "trace_in", flag: Some("--trace-in"), commands: RUN, env: None, wire: None,
          rule: Rule::Path, set: |o, v| o.trace_in = v.as_str().map(PathBuf::from) },
];

fn size(v: &Json) -> Option<usize> {
    v.as_u64().map(|n| usize::try_from(n).unwrap_or(usize::MAX))
}

/// A run option and a value its rule accepted.
pub type Setting = (&'static Opt, Json);

/// Parses the command line `args` of `cmd`. Each flag of [`OPTIONS`] that
/// `cmd` takes becomes a [`Setting`], in order. Every other argument goes
/// to `own` with the arguments after it (so it can take a value with
/// [`value`]), which returns whether the argument was its own; an argument
/// neither takes is an error.
pub fn parse_args<'a>(
    cmd: Command,
    args: &'a [String],
    mut own: impl FnMut(&'a str, &mut Iter<'a, String>) -> Result<bool, String>,
) -> Result<Vec<Setting>, String> {
    let mut rest = args.iter();
    let mut settings = Vec::new();
    while let Some(arg) = rest.next() {
        let flag = Some(arg.as_str());
        match OPTIONS
            .iter()
            .find(|o| o.flag == flag && o.commands.contains(&cmd))
        {
            Some(opt) if opt.rule == Rule::Switch => settings.push((opt, Json::Bool(true))),
            Some(opt) => settings.push((opt, opt.rule.parse(arg, value(arg, &mut rest)?)?)),
            None if own(arg, &mut rest)? => {}
            None => return Err(format!("unknown argument: {arg}")),
        }
    }
    Ok(settings)
}

/// The value after `flag` on a command line.
pub fn value<'a>(flag: &str, rest: &mut Iter<'a, String>) -> Result<&'a str, String> {
    rest.next()
        .map(String::as_str)
        .ok_or_else(|| format!("{flag} requires a value"))
}

/// Reads `text` as a positive integer for `source` — the `DUPLO_THREADS`
/// rule and message, shared with the daemon commands' own counts.
pub fn positive(source: &str, text: &str) -> Result<usize, String> {
    POSITIVE
        .parse(source, text)
        .map(|v| size(&v).unwrap_or(usize::MAX))
}

/// Validates a trace-interval setting coming from `source` (a flag or an
/// environment variable name) by the `--trace-interval` rule of
/// [`OPTIONS`].
pub fn parse_trace_interval(source: &str, v: &str) -> Result<u64, String> {
    let n = INTERVAL.parse(source, v)?;
    Ok(n.as_u64().expect("the interval rule accepts integers only"))
}

impl RunOptions {
    /// Fast settings for CI/tests: aggressive CTA sampling.
    pub fn quick() -> RunOptions {
        RunOptions {
            sample_ctas: Some(2),
            ..RunOptions::default()
        }
    }

    /// Reads the environment variable of every option in [`OPTIONS`] — the
    /// only place a run's settings are read from the environment. Values
    /// are trimmed; an unset or empty variable leaves its option unset, and
    /// any other value must pass the option's rule.
    pub fn from_env() -> Result<RunOptions, String> {
        RunOptions::from_vars(|name| std::env::var_os(name))
    }

    fn from_vars(var: impl Fn(&str) -> Option<OsString>) -> Result<RunOptions, String> {
        let mut settings = Vec::new();
        for opt in OPTIONS {
            let Some((name, raw)) = opt.env.and_then(|name| Some((name, var(name)?))) else {
                continue;
            };
            let text = raw.to_str().ok_or(format!("{name} is not valid UTF-8"))?;
            if !text.trim().is_empty() {
                settings.push((opt, opt.rule.parse(name, text.trim())?));
            }
        }
        Ok(RunOptions::default().with(&settings))
    }

    /// Parses the `duplo run` command line on top of
    /// [`RunOptions::from_env`]. Pure over `args` — no process exit, no
    /// global state — so argument handling is unit-testable. Sampling has
    /// one rule: full CTA shares unless `--sample N` is given, and a later
    /// `--full` overrides an earlier `--sample`. `args` excludes the binary
    /// name (`std::env::args().skip(1)`).
    pub fn from_cli(args: &[String]) -> Result<RunOptions, String> {
        let settings = parse_args(Command::Run, args, |_, _| Ok(false))?;
        Ok(RunOptions::from_env()?.with(&settings))
    }

    /// `self` with `settings` applied in order, so a later setting of an
    /// option wins.
    pub fn with(mut self, settings: &[Setting]) -> RunOptions {
        for (opt, v) in settings {
            (opt.set)(&mut self, v);
        }
        self
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

    /// Overlays the wire-format options object of a `duplo serve`
    /// submission onto `self` (the server's defaults). Strict: unknown
    /// fields, values the [`OPTIONS`] rules refuse, and `sample_ctas`
    /// beside `"full": true` are errors, surfaced verbatim in the daemon's
    /// structured error body.
    pub fn merge_wire(&self, v: &Json) -> Result<RunOptions, String> {
        let Json::Obj(fields) = v else {
            return Err("options must be an object".to_string());
        };
        let mut settings = Vec::new();
        for (key, val) in fields {
            let opt = OPTIONS
                .iter()
                .find(|o| o.wire == Some(key.as_str()))
                .ok_or_else(|| format!("options.{key}: unknown field"))?;
            opt.rule.check(&format!("options.{key}"), val)?;
            settings.push((opt, val.clone()));
        }
        let given = |name, v: Option<&Json>| {
            settings
                .iter()
                .any(|(o, x)| o.name == name && v.is_none_or(|v| v == x))
        };
        if given("sample_ctas", None) && given("full", Some(&Json::Bool(true))) {
            return Err("options.sample_ctas and options.full are mutually exclusive".to_string());
        }
        Ok(self.clone().with(&settings))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use duplo_testkit::{prop, require};

    /// `duplo run` options from a space-separated command line.
    fn cli(args: &str) -> Result<RunOptions, String> {
        let args: Vec<String> = args.split_whitespace().map(String::from).collect();
        RunOptions::from_cli(&args)
    }

    fn wire(base: &RunOptions, text: &str) -> Result<RunOptions, String> {
        base.merge_wire(&parse(text).unwrap())
    }

    /// `from_vars` over the one variable `k` set to `v`.
    fn env(k: &'static str, v: &str) -> Result<RunOptions, String> {
        let v = OsString::from(v);
        RunOptions::from_vars(move |name| (name == k).then(|| v.clone()))
    }

    #[test]
    fn default_defers_everything() {
        let o = RunOptions::default();
        assert_eq!((o.sample_ctas, o.threads, o.l2_slices), (None, None, None));
        assert!(!o.tick_reference && !o.no_cache && o.cache_dir.is_none());
        assert!(o.trace_sink.is_none() && o.wtrace.is_none());
    }

    #[test]
    fn quick_samples_two_ctas() {
        assert_eq!(RunOptions::quick().sample_ctas, Some(2));
    }

    #[test]
    fn cli_flags_override_the_defaults() {
        let o = cli("--sample 5 --no-cache").unwrap();
        assert_eq!((o.sample_ctas, o.no_cache), (Some(5), true));
        let o = cli("--full --cache-dir /tmp/c").unwrap();
        assert_eq!(o.sample_ctas, None);
        assert_eq!(o.cache_dir, Some(PathBuf::from("/tmp/c")));
        // The daemon client's flags are not `duplo run`'s.
        let err = cli("--l2-slices 4").unwrap_err();
        assert_eq!(err, "unknown argument: --l2-slices");
    }

    #[test]
    fn default_sample_passes_through() {
        // The one default is full CTA shares: no flag leaves sampling unset.
        assert_eq!(cli("").unwrap().sample_ctas, None);
    }

    #[test]
    fn sample_and_full_override_the_default() {
        assert_eq!(cli("--sample 16").unwrap().sample_ctas, Some(16));
        // A later `--full` takes an earlier sample back.
        assert_eq!(cli("--sample 3 --full").unwrap().sample_ctas, None);
    }

    #[test]
    fn sample_zero_is_rejected_with_a_clear_message() {
        let err = cli("--sample 0").unwrap_err();
        assert!(err.contains("positive integer"), "{err}");
        assert!(err.contains("--full"), "should point at --full: {err}");
        let err = cli("--sample two").unwrap_err();
        assert!(err.contains("positive integer"), "{err}");
        assert_eq!(cli("--sample").unwrap_err(), "--sample requires a value");
    }

    #[test]
    fn unknown_arguments_error_instead_of_panicking() {
        assert_eq!(cli("--bogus").unwrap_err(), "unknown argument: --bogus");
        // `duplo serve` refuses the output flags it would ignore.
        let none = |_: &str, _: &mut Iter<String>| Ok(false);
        for flag in ["--json", "--json-dir", "--trace", "--trace-in"] {
            let args = [flag.to_string(), "x".to_string()];
            let err = parse_args(Command::Serve, &args, none).unwrap_err();
            assert_eq!(err, format!("unknown argument: {flag}"));
        }
    }

    #[test]
    fn cache_flags_parse() {
        let o = cli("--cache-dir /tmp/c --no-cache").unwrap();
        assert_eq!(o.cache_dir, Some(PathBuf::from("/tmp/c")));
        assert!(o.no_cache);
        let o = cli("").unwrap();
        assert_eq!((o.cache_dir, o.no_cache), (None, false));
        let err = cli("--cache-dir").unwrap_err();
        assert_eq!(err, "--cache-dir requires a value");
    }

    #[test]
    fn trace_flags_parse() {
        let o = cli("--trace /tmp/t.json --trace-interval 256").unwrap();
        assert_eq!(o.trace, Some(PathBuf::from("/tmp/t.json")));
        assert_eq!(o.trace_interval, Some(256));
        let err = cli("--trace-interval 0").unwrap_err();
        assert!(err.contains("positive"), "{err}");
        assert_eq!(cli("--trace").unwrap_err(), "--trace requires a value");
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
        let o = wire(
            &RunOptions::default(),
            r#"{"l2_slices": 4, "l2_hash": "mod"}"#,
        )
        .unwrap();
        let sliced = o.apply(flat.clone());
        assert_eq!(sliced.sm.hierarchy.l2_slices, 4);
        assert_eq!(sliced.sm.hierarchy.hash.label(), "mod");
        // Explicit flat undoes it.
        let undone = env("DUPLO_L2_SLICES", "0").unwrap().apply(sliced);
        assert_eq!(undone.sm.hierarchy.l2_slices, 0);
        // Re-applying settings a config already carries is idempotent.
        let one = o.apply(flat.clone());
        let two = o.apply(one.clone());
        assert_eq!(one.sm.hierarchy.l2_slices, two.sm.hierarchy.l2_slices);
        assert_eq!(one.sm.hierarchy.hash, two.sm.hierarchy.hash);
    }

    #[test]
    fn wire_overlay_is_strict() {
        let base = RunOptions::quick();
        let o = wire(&base, r#"{"sample_ctas": 3, "tick_reference": true}"#).unwrap();
        assert_eq!((o.sample_ctas, o.tick_reference), (Some(3), true));
        // `full: true` clears the server's default sampling.
        assert_eq!(wire(&base, r#"{"full": true}"#).unwrap().sample_ctas, None);
        let err = |body| wire(&base, body).unwrap_err();
        // Unknown fields are rejected, not ignored.
        assert_eq!(
            err(r#"{"smaple_ctas": 3}"#),
            "options.smaple_ctas: unknown field"
        );
        // Refused values are quoted as JSON.
        let hash = r#"options.l2_hash requires "mod" or "xor", got "crc""#;
        assert_eq!(err(r#"{"l2_hash": "crc"}"#), hash);
        let sample = err(r#"{"sample_ctas": 0}"#);
        assert!(sample.contains("positive integer") && sample.ends_with("got 0"));
        // Contradictions and non-objects are rejected.
        assert!(err(r#"{"sample_ctas": 3, "full": true}"#).contains("mutually exclusive"));
        assert_eq!(err("null"), "options must be an object");
    }

    #[test]
    fn environment_values_are_checked_like_the_other_spellings() {
        let bad = "DUPLO_THREADS=abc DUPLO_THREADS=0 DUPLO_L2_HASH=crc DUPLO_TICK_REFERENCE=no";
        for (k, v) in bad.split(' ').filter_map(|kv| kv.split_once('=')) {
            let err = env(k, v).unwrap_err();
            assert_eq!(err.split_once(" requires ").map(|(s, _)| s), Some(k));
        }
        assert_eq!(env("DUPLO_THREADS", " 4 ").unwrap().threads, Some(4));
        assert!(!env("DUPLO_TICK_REFERENCE", "0").unwrap().tick_reference);
        // Empty means unset (the flat event-loop CI pass sets DUPLO_L2_SLICES=).
        assert_eq!(env("DUPLO_L2_SLICES", "").unwrap().l2_slices, None);
    }

    #[test]
    fn every_spelling_of_an_option_sets_the_same_value() {
        let none = |_: &str, _: &mut Iter<String>| Ok(false);
        // Values of every rule, and text no rule accepts (the first is "").
        let texts: Vec<&str> = "|0|1|7|-1|x|mod|xor|/tmp/p|18446744073709551616"
            .split('|')
            .collect();
        prop::check(
            "flag, environment and wire agree",
            256,
            |rng| Some(texts[rng.gen_index(texts.len())]),
            |&text| {
                for opt in OPTIONS {
                    let mut got = Vec::new();
                    if let Some(k) = opt.env.filter(|_| !text.is_empty()) {
                        got.push(env(k, text));
                    }
                    if let Some(k) = opt.wire {
                        let v = opt.rule.parse(k, text).unwrap_or(Json::from(text));
                        let doc = Json::Obj(vec![(k.into(), v)]);
                        got.push(RunOptions::default().merge_wire(&doc));
                    }
                    // A bare switch flag can only say `1`.
                    let switch = opt.rule == Rule::Switch;
                    let flag = (opt.flag, opt.commands.first(), !switch || text == "1");
                    if let (Some(f), Some(&cmd), true) = flag {
                        let args = [f.to_string(), text.to_string()];
                        let parsed = parse_args(cmd, &args[..2 - usize::from(switch)], none);
                        got.push(parsed.map(|s| RunOptions::default().with(&s)));
                    }
                    let valid = opt.rule.parse("x", text).is_ok();
                    require!(got.iter().all(|g| g.is_ok() == valid), "{got:?}");
                    // `with` sets only the listed fields, so Debug compares them.
                    let values: Vec<_> = got.iter().flatten().map(|o| format!("{o:?}")).collect();
                    require!(values.windows(2).all(|w| w[0] == w[1]), "{values:?}");
                    // One message per refused value; switches name their
                    // values per spelling (`1 or 0`, `a boolean`).
                    let tails: Vec<&str> = got
                        .iter()
                        .filter_map(|g| Some(g.as_ref().err()?.split_once(" requires ")?.1))
                        .collect();
                    require!(switch || tails.windows(2).all(|w| w[0] == w[1]));
                }
                Ok(())
            },
        );
    }

    #[test]
    fn arbitrary_arguments_and_wire_values_error_without_panicking() {
        let words = ["--sample", "--full", "--trace", "--l2-hash", "0", "x", ""];
        let keys = ["sample_ctas", "full", "l2_slices", "l2_hash", "x"];
        let values = parse(r#"[null, true, -3, 0, 18446744073709551615, 2.5, "crc", []]"#).unwrap();
        let values = values.as_arr().unwrap();
        prop::check(
            "from_cli and merge_wire never panic",
            256,
            |rng| {
                let args: Vec<String> = (0..rng.gen_range(0usize..6))
                    .map(|_| match rng.gen_range(0u32..2) {
                        0 => words[rng.gen_index(words.len())].to_string(),
                        _ => (0..rng.gen_range(0usize..6))
                            .map(|_| char::from(rng.gen_range(0x20u8..0x7f)))
                            .collect(),
                    })
                    .collect();
                let fields: Vec<(String, Json)> = (0..rng.gen_range(0usize..4))
                    .map(|_| {
                        let k = keys[rng.gen_index(keys.len())].to_string();
                        (k, values[rng.gen_index(values.len())].clone())
                    })
                    .collect();
                Some((args, fields))
            },
            |(args, fields)| {
                let _ = RunOptions::from_cli(args);
                // Any field the table refuses fails the whole overlay.
                let refused = fields.iter().any(|(k, v)| {
                    let opt = OPTIONS.iter().find(|o| o.wire == Some(k.as_str()));
                    opt.is_none_or(|o| o.rule.check(k, v).is_err())
                });
                let merged = RunOptions::default().merge_wire(&Json::Obj(fields.clone()));
                require!(!refused || merged.is_err());
                Ok(())
            },
        );
    }
}
