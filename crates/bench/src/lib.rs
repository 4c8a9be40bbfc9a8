//! Support library for the `duplo` CLI.
//!
//! Every experiment command accepts:
//!
//! * `--sample <N>` — simulate at most `N` CTAs per representative SM and
//!   scale time linearly,
//! * `--full` — simulate every CTA of each SM's share. This is the default
//!   at every entry point; the flag only overrides an earlier `--sample`,
//! * `--json <path>` — additionally write the experiment's structured
//!   result (see `duplo_sim::results`) to `path`,
//! * `--json-dir <dir>` (or `DUPLO_JSON_DIR`) — write `<dir>/<name>.json`
//!   for every experiment the command runs; `duplo run all` adds the
//!   `BENCH_duplo.json` roll-up,
//! * `--cache-dir <dir>` — persist the run cache there (overrides the
//!   `DUPLO_CACHE_DIR` environment variable; see `duplo_sim::cache`),
//! * `--no-cache` — disable run-cache lookups and stores entirely,
//! * `--trace <path>` — write a Chrome trace-event (Perfetto-loadable)
//!   timeline of every simulated run to `path` (`--trace-interval <N>`
//!   tunes the sampling cadence; `DUPLO_TRACE` / `DUPLO_TRACE_INTERVAL`
//!   are the environment equivalents — see `duplo_sim::trace`),
//! * `--trace-in <file>` — replay a recorded wtrace file (see
//!   `duplo_sim::wtrace`): every generated kernel is swapped for its
//!   recorded instruction stream before simulation. Record such files
//!   with `duplo trace record`.
//!
//! The command line (with the `DUPLO_*` environment under it) parses into
//! one `RunOptions` value; tracing and wtrace record/replay are handles
//! added to a copy of it ([`with_trace`], [`with_replay`],
//! [`record_to_file`]), so nothing here touches process state.
//!
//! `duplo run <name>` resolves the experiment in the shared registry
//! (`duplo_sim::experiments::registry`) and runs it under one protocol
//! ([`run_spec`]): sampling banner, timed run, rendered table on stdout.
//! `duplo run all` ([`run_all`]) runs the whole registry under one `[all]`
//! banner.
//!
//! All stderr chatter (banners, wall-clock, cache counters, the `run all`
//! heartbeat) goes through `duplo_sim::log`: `DUPLO_LOG=off` silences it
//! entirely, `debug`/`trace` add detail. Errors (bad arguments, output
//! paths that cannot be written) stay unconditional and exit with code 2.
//!
//! JSON files normally carry a `host` block (wall-clock seconds, worker
//! threads, and the experiment's own run-cache hits/misses/bytes, read
//! from the `ProgressHandle` its runs carry). Setting `DUPLO_JSON_STABLE`
//! omits it, making the files byte-identical across machines, thread
//! counts, and cache states — the CI determinism and cache gates diff two
//! such runs.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

use duplo_sim::cache::CacheStats;
use duplo_sim::experiments::{
    ExperimentOutput, ExperimentSpec, find_experiment, registry, suggest_experiment,
};
use duplo_sim::json::Json;
use duplo_sim::metrics::json_stable;
use duplo_sim::options::{self, Command, OPTIONS, value};
use duplo_sim::progress::ProgressHandle;
use duplo_sim::results::{ExperimentResult, rollup};
use duplo_sim::runner::resolve_threads;
use duplo_sim::{RunOptions, log, trace, wtrace};

/// Usage summary printed (with a nonzero exit) on bad arguments.
pub const USAGE: &str = "options:\n  --sample <N>      simulate at most N CTAs per representative SM (N >= 1)\n  --full            simulate every CTA of each SM's share (the default)\n  --json <path>     write the structured result to <path>\n  --json-dir <dir>  write <dir>/<name>.json per experiment (DUPLO_JSON_DIR)\n  --cache-dir <dir> persist the run cache under <dir> (overrides DUPLO_CACHE_DIR)\n  --no-cache        disable the run cache\n  --trace <path>    write a Chrome trace-event timeline to <path> (DUPLO_TRACE)\n  --trace-interval <N>  cycles between trace samples (default 1024; DUPLO_TRACE_INTERVAL)\n  --trace-in <file> replay a recorded wtrace file instead of the generators\n                    (record one with `duplo trace record`)\n\nenvironment:\n  DUPLO_LOG=off|info|debug|trace   stderr verbosity (default info)";

/// Writes `text` to `path`, creating missing parent directories. A path
/// that cannot be written prints `error: cannot write <path>: <e>` and
/// exits with code 2, the way an unreadable `--trace-in` file does.
pub fn write_or_exit(path: &Path, text: &str) {
    stream_or_exit(path, |w| w.write_all(text.as_bytes()));
}

/// [`write_or_exit`] with the contents streamed through `write`, buffered.
fn stream_or_exit<T>(path: &Path, write: impl FnOnce(&mut BufWriter<File>) -> io::Result<T>) -> T {
    let parent = path.parent().filter(|p| !p.as_os_str().is_empty());
    let written = parent
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| File::create(path))
        .and_then(|file| {
            let mut w = BufWriter::new(file);
            let out = write(&mut w)?;
            w.flush()?;
            Ok(out)
        });
    written.unwrap_or_else(|e| {
        eprintln!("error: cannot write {}: {e}", path.display());
        std::process::exit(2);
    })
}

/// Runs `f` with a trace sink added to `cli` when it asks for one
/// (`--trace`/`DUPLO_TRACE`), writing the Chrome trace-event document
/// afterwards. Without it this is exactly `f(cli)`: the runs carry no sink
/// and no file is touched.
pub fn with_trace<T>(cli: &RunOptions, f: impl FnOnce(&RunOptions) -> T) -> T {
    let Some(path) = &cli.trace else {
        return f(cli);
    };
    let sink = trace::TraceSink::for_interval(cli.trace_interval);
    let out = f(&RunOptions {
        trace_sink: Some(sink.clone()),
        ..cli.clone()
    });
    let data = sink.finish();
    let events = stream_or_exit(path, |w| data.write_chrome(w));
    log::info(
        "trace",
        format_args!(
            "wrote {} ({} runs, {} events)",
            path.display(),
            data.runs.len(),
            events
        ),
    );
    out
}

/// Runs `f` with a wtrace replay session added to `cli` when it carries
/// `--trace-in`, reporting how many kernel runs were substituted
/// afterwards. Without the flag this is exactly `f(cli)`. A file that
/// fails to read or decode prints the decoder's positional error and
/// exits with code 2.
pub fn with_replay<T>(cli: &RunOptions, f: impl FnOnce(&RunOptions) -> T) -> T {
    let Some(path) = &cli.trace_in else {
        return f(cli);
    };
    let kernels = match wtrace::load_file(path) {
        Ok(k) => k,
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(2);
        }
    };
    let n_kernels = kernels.len();
    let session = wtrace::WtraceSession::replay(kernels);
    let out = f(&RunOptions {
        wtrace: Some(session.clone()),
        ..cli.clone()
    });
    log::info(
        "wtrace",
        format_args!(
            "replayed {} ({n_kernels} kernels, {} runs substituted)",
            path.display(),
            session.substituted()
        ),
    );
    out
}

/// Records the kernels of `f`'s runs to a wtrace file at `path`: every
/// kernel the runs reach the simulator with is captured (deduplicated by
/// content) and the encoded document is written afterwards.
pub fn record_to_file<T>(path: &Path, cli: &RunOptions, f: impl FnOnce(&RunOptions) -> T) -> T {
    let session = wtrace::WtraceSession::record();
    let out = f(&RunOptions {
        wtrace: Some(session.clone()),
        ..cli.clone()
    });
    let records = session.records();
    write_or_exit(path, &wtrace::encode(&records).to_pretty());
    log::info(
        "wtrace",
        format_args!("wrote {} ({} kernels)", path.display(), records.len()),
    );
    out
}

/// A `duplo submit` command line: the daemon's address and the body to
/// post (`None`: shut the daemon down).
#[derive(Debug)]
pub struct Submit {
    /// `--addr <host:port>`.
    pub addr: String,
    /// The submission, or `None` for `--shutdown`.
    pub body: Option<String>,
}

/// Parses a `duplo submit` command line. Run options are checked by the
/// rules `duplo run` applies and travel as the submission's `options`
/// object: each option's last setting, in [`OPTIONS`] order. `--sample`
/// and `--full` set one field, so only the later of the two travels, as
/// only the later takes effect in `duplo run`.
pub fn submit_request(args: &[String]) -> Result<Submit, String> {
    let (mut addr, mut name, mut shutdown, mut trace) = (None, None, false, false);
    let settings = options::parse_args(Command::Submit, args, |arg, rest| {
        match arg {
            "--addr" => addr = Some(value(arg, rest)?.to_string()),
            "--shutdown" => shutdown = true,
            "--trace" => trace = true,
            _ if !arg.starts_with('-') && name.is_none() => name = Some(arg.to_string()),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    let addr = addr.ok_or("submit requires --addr <host:port>")?;
    if shutdown {
        return Ok(Submit { addr, body: None });
    }
    let name = name.ok_or("submit requires an experiment name (or --shutdown)")?;
    let last = |name| settings.iter().rposition(|(o, _)| o.name == name);
    let overridden = match (last("sample_ctas"), last("full")) {
        (Some(sample), Some(full)) if sample < full => Some("sample_ctas"),
        (Some(_), Some(_)) => Some("full"),
        _ => None,
    };
    let wire: Vec<(String, Json)> = OPTIONS
        .iter()
        .filter(|opt| Some(opt.name) != overridden)
        .filter_map(|opt| {
            let (_, v) = settings.iter().rev().find(|(o, _)| std::ptr::eq(*o, opt))?;
            Some((opt.wire?.to_string(), v.clone()))
        })
        .collect();
    let body = Json::obj()
        .field("experiment", name)
        .field_opt("options", (!wire.is_empty()).then_some(Json::Obj(wire)))
        .field_opt("trace", trace.then_some(true))
        .build()
        .to_pretty();
    Ok(Submit {
        addr,
        body: Some(body),
    })
}

/// Prints the sampling banner. The worker-thread count goes to
/// **stderr**: stdout must stay byte-identical across `DUPLO_THREADS`
/// settings (the determinism guarantee the golden tables and
/// `scripts/ci.sh` rely on).
pub fn banner(name: &str, opts: &RunOptions) {
    match opts.sample_ctas {
        Some(n) => println!("[{name}] CTA sampling: at most {n} CTAs per representative SM"),
        None => println!("[{name}] full CTA shares simulated"),
    }
    log::info(
        name,
        format_args!(
            "worker threads: {} (override with DUPLO_THREADS)",
            resolve_threads(opts.threads)
        ),
    );
}

/// Stamps host metadata (unless `DUPLO_JSON_STABLE` is set; `workers` is
/// the thread cap `opts` resolves to) and writes the result to `path`,
/// noting the write on stderr.
pub fn write_result(
    path: &Path,
    mut result: ExperimentResult,
    wall_clock_s: f64,
    opts: &RunOptions,
) {
    if !json_stable() {
        result.wall_clock_s = Some(wall_clock_s);
        result.workers = Some(resolve_threads(opts.threads));
    }
    write_or_exit(path, &result.to_pretty());
    log::info(&result.name, format_args!("wrote {}", path.display()));
}

/// Writes `result` to `<dir>/<name>.json` when `opts` carries a
/// `--json-dir` / `DUPLO_JSON_DIR`.
fn write_to_json_dir(result: &ExperimentResult, wall_clock_s: f64, opts: &RunOptions) {
    if let Some(dir) = &opts.json_dir {
        let path = dir.join(format!("{}.json", result.name));
        write_result(&path, result.clone(), wall_clock_s, opts);
    }
}

/// Executes one registered experiment under a fresh progress handle,
/// reporting its wall-clock time and its own cache lookups on stderr as
/// `[name] wall-clock: …` and `[name] cache: hits=… misses=… bytes=…`
/// (timing stays off stdout: tables must not vary with machine speed).
/// The lookups are stamped into the result unless `DUPLO_JSON_STABLE`.
/// Returns the output, elapsed seconds and lookups.
fn execute(spec: &ExperimentSpec, opts: &RunOptions) -> (ExperimentOutput, f64, CacheStats) {
    let progress = ProgressHandle::new();
    let opts = RunOptions {
        progress: Some(progress.clone()),
        ..opts.clone()
    };
    let start = std::time::Instant::now();
    let mut out = (spec.run)(&opts);
    let secs = start.elapsed().as_secs_f64();
    log::info(spec.name, format_args!("wall-clock: {secs:.3}s"));
    let cache = progress.snapshot().cache;
    log::info(
        spec.name,
        format_args!(
            "cache: hits={} misses={} bytes={}",
            cache.hits, cache.misses, cache.bytes
        ),
    );
    if !json_stable() {
        out.result.cache_hits = Some(cache.hits);
        out.result.cache_misses = Some(cache.misses);
        out.result.cache_bytes = Some(cache.bytes);
    }
    (out, secs, cache)
}

/// Runs one registered experiment under the `duplo run` protocol:
/// sampling banner, timed run, rendered table on stdout, and `--json` /
/// `--json-dir` output. Stdout carries the banner and table only; timing
/// and cache stats are stderr.
pub fn run_spec(spec: &ExperimentSpec, cli: &RunOptions) -> ExperimentResult {
    banner(spec.name, cli);
    let (out, secs, _) = execute(spec, cli);
    print!("{}", out.rendered);
    if let Some(path) = &cli.json {
        write_result(path, out.result.clone(), secs, cli);
    }
    write_to_json_dir(&out.result, secs, cli);
    out.result
}

/// Runs the registered experiment `name` under the `duplo run`
/// protocol ([`run_spec`]). An unknown name prints the registry hint —
/// with a nearest-name suggestion when one is close — and exits with
/// code 2.
pub fn run_named(name: &str, cli: &RunOptions) -> ExperimentResult {
    if let Some(spec) = find_experiment(name) {
        return run_spec(spec, cli);
    }
    match suggest_experiment(name) {
        Some(hint) => eprintln!(
            "error: unknown experiment {name:?} (did you mean {hint:?}? see `duplo list`)"
        ),
        None => eprintln!("error: unknown experiment {name:?} (see `duplo list`)"),
    }
    std::process::exit(2);
}

/// Runs every registered experiment under the `duplo run all` protocol:
/// one `[all]` banner, every table on stdout in registry order, and
/// (under `--json-dir`) one JSON file per experiment plus the
/// `BENCH_duplo.json` roll-up.
pub fn run_all(cli: &RunOptions) {
    banner("all", cli);
    let total = std::time::Instant::now();
    let mut cache = CacheStats::default();
    let n_specs = registry().len();
    // Heartbeat after each experiment, rate-limited so a warm all-cached
    // sweep does not spam one line per experiment; the final one always
    // lands.
    let mut last_beat = std::time::Instant::now();
    let mut results: Vec<ExperimentResult> = Vec::new();
    for spec in registry() {
        let (out, secs, lookups) = execute(spec, cli);
        print!("{}", out.rendered);
        write_to_json_dir(&out.result, secs, cli);
        results.push(out.result);
        cache += lookups;
        let done = results.len();
        if last_beat.elapsed().as_secs_f64() >= 1.0 || done == n_specs {
            last_beat = std::time::Instant::now();
            log::info(
                "all",
                format_args!(
                    "{done}/{n_specs} experiments, {:.1}s elapsed, cache hits={} misses={}",
                    total.elapsed().as_secs_f64(),
                    cache.hits,
                    cache.misses
                ),
            );
        }
    }
    let wall = total.elapsed().as_secs_f64();
    log::info("all", format_args!("wall-clock: {wall:.3}s"));
    log::info(
        "all",
        format_args!(
            "cache: hits={} misses={} bytes={}",
            cache.hits, cache.misses, cache.bytes
        ),
    );

    if let Some(dir) = &cli.json_dir {
        let refs: Vec<&ExperimentResult> = results.iter().collect();
        let mut roll = rollup(&refs);
        if !json_stable() {
            if let Json::Obj(fields) = &mut roll {
                fields.push((
                    "host".to_string(),
                    Json::obj()
                        .field("wall_clock_s", wall)
                        .field("workers", resolve_threads(cli.threads))
                        .field("cache_hits", cache.hits)
                        .field("cache_misses", cache.misses)
                        .field("cache_bytes", cache.bytes)
                        .build(),
                ));
            }
        }
        let roll_path = dir.join("BENCH_duplo.json");
        write_or_exit(&roll_path, &roll.to_pretty());
        log::info("all", format_args!("wrote {}", roll_path.display()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_interval_env_values_fail_like_the_flag() {
        use duplo_sim::options::parse_trace_interval;
        let argv = |v: &str| vec!["--trace-interval".to_string(), v.to_string()];
        let cli = RunOptions::from_cli(&argv("256")).unwrap();
        assert_eq!(cli.trace_interval, Some(256));
        for bad in ["0", "abc", "-1", ""] {
            let env_err = parse_trace_interval("DUPLO_TRACE_INTERVAL", bad).unwrap_err();
            assert!(env_err.contains("positive cycle count"), "{env_err}");
            // The flag as the `duplo` binary parses it, not the bare helper.
            let flag_err = RunOptions::from_cli(&argv(bad)).unwrap_err();
            assert_eq!(
                env_err.replace("DUPLO_TRACE_INTERVAL", "--trace-interval"),
                flag_err,
                "env and flag must share one message shape"
            );
        }
    }

    fn argv(args: &str) -> Vec<String> {
        args.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn submit_bodies_keep_the_wire_format() {
        // Byte for byte what earlier clients sent for these command lines:
        // a submission's `X-Duplo-Job` is the digest of these bytes.
        for (args, body) in [
            ("smem_policy", "{\n  \"experiment\": \"smem_policy\"\n}\n"),
            (
                "smem_policy --sample 2",
                "{\n  \"experiment\": \"smem_policy\",\n  \"options\": {\n    \"sample_ctas\": 2\n  }\n}\n",
            ),
            (
                "smem_policy --full --no-cache --trace",
                "{\n  \"experiment\": \"smem_policy\",\n  \"options\": {\n    \"full\": true,\n    \"no_cache\": true\n  },\n  \"trace\": true\n}\n",
            ),
            (
                "wl_membound --l2-hash mod --l2-slices 4 --tick-reference --sample 3",
                "{\n  \"experiment\": \"wl_membound\",\n  \"options\": {\n    \"sample_ctas\": 3,\n    \"tick_reference\": true,\n    \"l2_slices\": 4,\n    \"l2_hash\": \"mod\"\n  }\n}\n",
            ),
            (
                "smem_policy --no-cache --sample 2 --sample 5",
                "{\n  \"experiment\": \"smem_policy\",\n  \"options\": {\n    \"sample_ctas\": 5,\n    \"no_cache\": true\n  }\n}\n",
            ),
            (
                "--trace smem_policy --l2-slices 0",
                "{\n  \"experiment\": \"smem_policy\",\n  \"options\": {\n    \"l2_slices\": 0\n  },\n  \"trace\": true\n}\n",
            ),
        ] {
            let req = submit_request(&argv(&format!("--addr 127.0.0.1:1 {args}"))).unwrap();
            assert_eq!(req.body.as_deref(), Some(body), "{args}");
        }
        let req = submit_request(&argv("--shutdown --addr 127.0.0.1:1")).unwrap();
        assert!(req.body.is_none());
    }

    /// `--sample` and `--full` set one field: the later one travels alone,
    /// so the daemon simulates what `duplo run` does for the same line.
    #[test]
    fn submit_sends_the_later_of_sample_and_full() {
        for (args, body) in [
            (
                "smem_policy --sample 3 --full",
                "{\n  \"experiment\": \"smem_policy\",\n  \"options\": {\n    \"full\": true\n  }\n}\n",
            ),
            (
                "smem_policy --full --sample 3",
                "{\n  \"experiment\": \"smem_policy\",\n  \"options\": {\n    \"sample_ctas\": 3\n  }\n}\n",
            ),
        ] {
            let req = submit_request(&argv(&format!("--addr 127.0.0.1:1 {args}"))).unwrap();
            assert_eq!(req.body.as_deref(), Some(body), "{args}");
            let run = RunOptions::from_cli(&argv(&args["smem_policy".len()..])).unwrap();
            let sent = duplo_sim::json::parse(&req.body.unwrap()).unwrap();
            let wire = RunOptions::default()
                .merge_wire(sent.get("options").unwrap())
                .unwrap();
            assert_eq!(wire.sample_ctas, run.sample_ctas, "{args}");
        }
    }

    #[test]
    fn submit_checks_run_options_as_duplo_run_does() {
        let submit = |args: &str| submit_request(&argv(&format!("--addr a x {args}")));
        let run = |args: &str| RunOptions::from_cli(&argv(args));
        assert_eq!(
            submit("--sample 0").unwrap_err(),
            run("--sample 0").unwrap_err()
        );
        assert_eq!(
            submit("--sample").unwrap_err(),
            run("--sample").unwrap_err()
        );
        let err = submit("--l2-hash crc").unwrap_err();
        assert_eq!(err, r#"--l2-hash requires "mod" or "xor", got "crc""#);
        // Output flags are `duplo run`'s alone.
        assert_eq!(submit("--json o").unwrap_err(), "unknown argument: --json");
    }

    #[test]
    fn write_result_produces_parseable_json() {
        use duplo_sim::json::{Json, parse};
        let dir = std::env::temp_dir().join(format!("duplo-bench-test-{}", std::process::id()));
        let path = dir.join("demo.json");
        let r = ExperimentResult::new(
            "demo",
            "Demo",
            Json::Obj(vec![]),
            vec![],
            Json::obj().field("k", 1u64).build(),
        );
        write_result(&path, r, 0.5, &RunOptions::default());
        let text = std::fs::read_to_string(&path).unwrap();
        let doc = parse(&text).expect("file must parse");
        assert_eq!(doc.get("experiment").and_then(Json::as_str), Some("demo"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn json_dir_receives_a_single_experiment() {
        use duplo_sim::json::parse;
        // fig02_speedup is analytic: it simulates nothing.
        let dir = std::env::temp_dir().join(format!("duplo-bench-jd-{}", std::process::id()));
        let cli = RunOptions {
            json_dir: Some(dir.clone()),
            ..RunOptions::default()
        };
        run_named("fig02_speedup", &cli);
        let text = std::fs::read_to_string(dir.join("fig02_speedup.json")).unwrap();
        let doc = parse(&text).expect("file must parse");
        assert_eq!(
            doc.get("experiment").and_then(Json::as_str),
            Some("fig02_speedup")
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
