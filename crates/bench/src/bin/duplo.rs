//! The unified Duplo experiment CLI, backed by the experiment registry.
//!
//! * `duplo list` — every registered experiment (name, paper anchor,
//!   title),
//! * `duplo run <name|all> [options]` — run one experiment (or every
//!   registered one) with the shared option set (`--sample`/`--full`,
//!   `--json`/`--json-dir`, `--cache-dir`/`--no-cache`,
//!   `--trace`/`--trace-interval`, `--trace-in`); every run simulates
//!   full CTA shares unless `--sample N` says otherwise,
//! * `duplo trace summarize <path>` — phase table of a trace file
//!   written by `--trace`,
//! * `duplo trace record <name> <out> [options]` — run an experiment and
//!   dump every generated kernel's instruction stream to a wtrace file,
//!   replayable with `duplo run <name> --trace-in <out>`.
//!
//! * `duplo serve [--addr <host:port>] [--workers N] [--port-file <p>]
//!   [options]` — start the HTTP simulation service (see
//!   `duplo_sim::serve`); the run options it honours (`--sample`/`--full`,
//!   `--cache-dir`/`--no-cache`, `--trace-interval`) become the daemon's
//!   per-submission defaults, and the output flags are refused,
//! * `duplo submit --addr <host:port> <name|--shutdown> [options]` —
//!   submit an experiment to a running daemon and print the response
//!   body, or shut the daemon down,
//! * `duplo metrics --addr <host:port> [--json]` — scrape a running
//!   daemon's `/v1/metrics` registry (Prometheus text, or the JSON
//!   snapshot with `--json`).
//!
//! Every run option is parsed by the table in `duplo_sim::options`, so a
//! value fails with the same message on every command that takes it.
use std::path::PathBuf;

use duplo_bench::{
    USAGE, record_to_file, run_all, run_named, with_replay, with_trace, write_or_exit,
};
use duplo_sim::experiments::registry;
use duplo_sim::options::{self, Command, value};
use duplo_sim::{RunOptions, serve};

const COMMANDS: &str = "usage: duplo <command> [args]\n\ncommands:\n  list                       list registered experiments\n  run <name|all> [options]   run an experiment (or every registered one)\n  trace summarize <path>     print a phase table of a --trace file\n  trace record <name> <out> [options]  run an experiment, dumping its\n                             kernels to a wtrace file for --trace-in\n  serve [--addr <host:port>] [--workers N] [--port-file <path>]\n        [--sample N|--full] [--no-cache] [--cache-dir <dir>]\n        [--trace-interval N]\n                             start the HTTP simulation service; the run\n                             options become per-submission defaults\n  submit --addr <host:port> <name> [--sample N|--full] [--no-cache]\n         [--tick-reference] [--l2-slices N] [--l2-hash mod|xor] [--trace]\n                             run an experiment on a daemon and print the\n                             response body (--shutdown stops the daemon)\n  metrics --addr <host:port> [--json]\n                             scrape a running daemon's /v1/metrics and\n                             print it (Prometheus text, or the JSON\n                             snapshot with --json)";

fn usage_exit(code: i32) -> ! {
    eprintln!("{COMMANDS}\n\n{USAGE}");
    std::process::exit(code);
}

/// Prints a bad-argument error and the usage, and exits with code 2.
fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    usage_exit(2);
}

/// `duplo serve`: the daemon flags plus the run options the daemon honours
/// (the per-submission defaults), then run until a `/v1/shutdown` arrives.
fn cmd_serve(args: &[String]) {
    let mut addr = "127.0.0.1:7878".to_string();
    let mut workers = 4usize;
    let mut port_file = None;
    let settings = options::parse_args(Command::Serve, args, |arg, rest| {
        match arg {
            "--addr" => addr = value(arg, rest)?.to_string(),
            "--workers" => workers = options::positive(arg, value(arg, rest)?)?,
            "--port-file" => port_file = Some(PathBuf::from(value(arg, rest)?)),
            _ => return Ok(false),
        }
        Ok(true)
    })
    .unwrap_or_else(|msg| fail(&msg));
    let defaults = RunOptions::from_env().unwrap_or_else(|msg| fail(&msg));
    // The output options are `duplo run`'s alone: their environment
    // spellings are refused as their flags are.
    for (set, var) in [
        (defaults.json_dir.is_some(), "DUPLO_JSON_DIR"),
        (defaults.trace.is_some(), "DUPLO_TRACE"),
    ] {
        if set {
            fail(&format!("duplo serve does not take {var}"));
        }
    }
    let server = serve::Server::start(serve::ServeOptions {
        addr,
        workers,
        defaults: defaults.with(&settings),
    })
    .unwrap_or_else(|e| {
        eprintln!("error: cannot start the service: {e}");
        std::process::exit(2);
    });
    if let Some(path) = port_file {
        write_or_exit(&path, &format!("{}\n", server.local_addr()));
    }
    server.join();
}

/// Performs one request against a daemon and prints the body of a 200
/// reply; any other reply's body goes to stderr, and it or a failed
/// exchange exits with code 1.
fn request_or_exit(addr: &str, method: &str, path: &str, body: Option<&[u8]>) -> serve::HttpReply {
    match serve::http_request(addr, method, path, body) {
        Ok(reply) if reply.status == 200 => {
            print!("{}", String::from_utf8_lossy(&reply.body));
            reply
        }
        Ok(reply) => {
            eprint!("{}", String::from_utf8_lossy(&reply.body));
            std::process::exit(1);
        }
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(1);
        }
    }
}

/// `duplo submit`: post the submission (or the shutdown) and print the
/// response body verbatim (cache counters go to stderr).
fn cmd_submit(args: &[String]) {
    let req = duplo_bench::submit_request(args).unwrap_or_else(|msg| fail(&msg));
    let Some(body) = req.body else {
        request_or_exit(&req.addr, "POST", "/v1/shutdown", Some(b"{}"));
        return;
    };
    let reply = request_or_exit(&req.addr, "POST", "/v1/submit", Some(body.as_bytes()));
    let hits = reply.header("x-duplo-cache-hits").unwrap_or("?");
    let misses = reply.header("x-duplo-cache-misses").unwrap_or("?");
    duplo_sim::log::info("submit", format_args!("cache: hits={hits} misses={misses}"));
    if let Some(d) = reply.header("x-duplo-digest") {
        duplo_sim::log::info("submit", format_args!("result digest: {d}"));
    }
    if let Some(a) = reply.header("x-duplo-artifact") {
        duplo_sim::log::info("submit", format_args!("trace artifact: {a}"));
    }
}

/// `duplo metrics`: scrape a running daemon's registry and print it.
fn cmd_metrics(args: &[String]) {
    let (mut addr, mut json) = (None, false);
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "--addr" => addr = Some(value(arg, &mut rest).unwrap_or_else(|msg| fail(&msg))),
            "--json" => json = true,
            other => fail(&format!("unknown argument: {other}")),
        }
    }
    let addr = addr.unwrap_or_else(|| fail("metrics requires --addr <host:port>"));
    let path = if json {
        "/v1/metrics?format=json"
    } else {
        "/v1/metrics"
    };
    request_or_exit(addr, "GET", path, None);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => {
            for spec in registry() {
                println!("{:<20} {:<10} {}", spec.name, spec.paper_ref, spec.title);
            }
        }
        Some("run") => {
            let Some(target) = args.get(1) else {
                fail("run requires an experiment name or `all`");
            };
            let cli = RunOptions::from_cli(&args[2..]).unwrap_or_else(|msg| fail(&msg));
            if target == "all" {
                with_trace(&cli, |o| with_replay(o, run_all));
            } else {
                with_trace(&cli, |o| with_replay(o, |o| run_named(target, o)));
            }
        }
        Some("trace") => match args.get(1).map(String::as_str) {
            Some("summarize") => {
                let Some(path) = args.get(2) else {
                    fail("trace summarize requires a file path");
                };
                let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                    eprintln!("error: cannot read {path}: {e}");
                    std::process::exit(2);
                });
                let doc = duplo_sim::json::parse(&text).unwrap_or_else(|e| {
                    eprintln!("error: {path} is not valid JSON: {e}");
                    std::process::exit(2);
                });
                match duplo_sim::trace::summarize_chrome(&doc, 16) {
                    Ok(table) => print!("{table}"),
                    Err(e) => {
                        eprintln!("error: {e}");
                        std::process::exit(2);
                    }
                }
            }
            Some("record") => {
                let (Some(name), Some(out)) = (args.get(2), args.get(3)) else {
                    fail("trace record requires an experiment name and an output path");
                };
                let cli = RunOptions::from_cli(&args[4..]).unwrap_or_else(|msg| fail(&msg));
                if cli.trace_in.is_some() {
                    eprintln!("error: --trace-in cannot be combined with trace record");
                    std::process::exit(2);
                }
                let out_path = PathBuf::from(out);
                with_trace(&cli, |o| {
                    record_to_file(&out_path, o, |o| run_named(name, o))
                });
            }
            Some(sub) => fail(&format!("unknown trace subcommand {sub:?}")),
            None => fail("trace requires a subcommand (summarize, record)"),
        },
        Some("serve") => cmd_serve(&args[1..]),
        Some("submit") => cmd_submit(&args[1..]),
        Some("metrics") => cmd_metrics(&args[1..]),
        Some("--help") | Some("-h") | Some("help") => {
            println!("{COMMANDS}\n\n{USAGE}");
        }
        Some(other) => fail(&format!("unknown command {other:?}")),
        None => usage_exit(2),
    }
}
