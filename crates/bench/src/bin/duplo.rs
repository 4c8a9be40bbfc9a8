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
//!   `duplo_sim::serve`); the shared options become the daemon's
//!   per-submission defaults,
//! * `duplo submit --addr <host:port> <name|--shutdown> [options]` —
//!   submit an experiment to a running daemon and print the response
//!   body, or shut the daemon down,
//! * `duplo metrics --addr <host:port> [--json]` — scrape a running
//!   daemon's `/v1/metrics` registry (Prometheus text, or the JSON
//!   snapshot with `--json`).
use duplo_bench::{
    USAGE, record_to_file, run_all, run_named, with_replay, with_trace, write_or_exit,
};
use duplo_sim::experiments::registry;
use duplo_sim::json::Json;
use duplo_sim::{RunOptions, serve};

const COMMANDS: &str = "usage: duplo <command> [args]\n\ncommands:\n  list                       list registered experiments\n  run <name|all> [options]   run an experiment (or every registered one)\n  trace summarize <path>     print a phase table of a --trace file\n  trace record <name> <out> [options]  run an experiment, dumping its\n                             kernels to a wtrace file for --trace-in\n  serve [--addr <host:port>] [--workers N] [--port-file <path>] [options]\n                             start the HTTP simulation service; shared\n                             options become per-submission defaults\n  submit --addr <host:port> <name> [--sample N|--full] [--no-cache]\n         [--tick-reference] [--l2-slices N] [--l2-hash mod|xor] [--trace]\n                             run an experiment on a daemon and print the\n                             response body (--shutdown stops the daemon)\n  metrics --addr <host:port> [--json]\n                             scrape a running daemon's /v1/metrics and\n                             print it (Prometheus text, or the JSON\n                             snapshot with --json)";

fn usage_exit(code: i32) -> ! {
    eprintln!("{COMMANDS}\n\n{USAGE}");
    std::process::exit(code);
}

/// Parses the shared option set with [`RunOptions::from_cli`]; a bad
/// argument prints the error and usage and exits with code 2.
fn options_or_exit(args: &[String]) -> RunOptions {
    RunOptions::from_cli(args).unwrap_or_else(|msg| {
        eprintln!("error: {msg}");
        usage_exit(2);
    })
}

/// `duplo serve`: split the daemon flags off, parse the remainder as the
/// shared option set (the per-submission defaults), and run until a
/// `/v1/shutdown` arrives.
fn cmd_serve(args: &[String]) {
    let mut addr = "127.0.0.1:7878".to_string();
    let mut workers = 4usize;
    let mut port_file: Option<std::path::PathBuf> = None;
    let mut rest: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let need = |what: &str, v: Option<&String>| -> String {
            v.cloned().unwrap_or_else(|| {
                eprintln!("error: {what} requires a value");
                usage_exit(2);
            })
        };
        match args[i].as_str() {
            "--addr" => {
                addr = need("--addr", args.get(i + 1));
                i += 2;
            }
            "--workers" => {
                let v = need("--workers", args.get(i + 1));
                workers = match v.parse::<usize>() {
                    Ok(n) if n >= 1 => n,
                    _ => {
                        eprintln!("error: --workers requires a positive integer, got {v:?}");
                        std::process::exit(2);
                    }
                };
                i += 2;
            }
            "--port-file" => {
                port_file = Some(std::path::PathBuf::from(need(
                    "--port-file",
                    args.get(i + 1),
                )));
                i += 2;
            }
            _ => {
                rest.push(args[i].clone());
                i += 1;
            }
        }
    }
    let server = serve::Server::start(serve::ServeOptions {
        addr,
        workers,
        defaults: options_or_exit(&rest),
        ..serve::ServeOptions::default()
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

/// `duplo submit`: build the wire submission from the flags, POST it, and
/// print the response body verbatim (cache counters go to stderr).
fn cmd_submit(args: &[String]) {
    let mut addr: Option<String> = None;
    let mut name: Option<String> = None;
    let mut shutdown = false;
    let mut want_trace = false;
    let mut sample: Option<u64> = None;
    let mut full = false;
    let mut no_cache = false;
    let mut tick_reference = false;
    let mut l2_slices: Option<u64> = None;
    let mut l2_hash: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        let need = |what: &str, v: Option<&String>| -> String {
            v.cloned().unwrap_or_else(|| {
                eprintln!("error: {what} requires a value");
                usage_exit(2);
            })
        };
        match args[i].as_str() {
            "--addr" => {
                addr = Some(need("--addr", args.get(i + 1)));
                i += 2;
            }
            "--shutdown" => {
                shutdown = true;
                i += 1;
            }
            "--trace" => {
                want_trace = true;
                i += 1;
            }
            "--sample" => {
                let v = need("--sample", args.get(i + 1));
                sample = Some(v.parse::<u64>().unwrap_or_else(|_| {
                    eprintln!("error: --sample requires a positive integer, got {v:?}");
                    std::process::exit(2);
                }));
                i += 2;
            }
            "--full" => {
                full = true;
                i += 1;
            }
            "--no-cache" => {
                no_cache = true;
                i += 1;
            }
            "--tick-reference" => {
                tick_reference = true;
                i += 1;
            }
            "--l2-slices" => {
                let v = need("--l2-slices", args.get(i + 1));
                l2_slices = Some(v.parse::<u64>().unwrap_or_else(|_| {
                    eprintln!("error: --l2-slices requires an integer, got {v:?}");
                    std::process::exit(2);
                }));
                i += 2;
            }
            "--l2-hash" => {
                l2_hash = Some(need("--l2-hash", args.get(i + 1)));
                i += 2;
            }
            other if !other.starts_with('-') && name.is_none() => {
                name = Some(other.to_string());
                i += 1;
            }
            other => {
                eprintln!("error: unknown argument: {other}");
                usage_exit(2);
            }
        }
    }
    let Some(addr) = addr else {
        eprintln!("error: submit requires --addr <host:port>");
        usage_exit(2);
    };
    if shutdown {
        match serve::http_request(&addr, "POST", "/v1/shutdown", Some(b"{}")) {
            Ok(reply) if reply.status == 200 => {
                print!("{}", String::from_utf8_lossy(&reply.body));
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
        return;
    }
    let Some(name) = name else {
        eprintln!("error: submit requires an experiment name (or --shutdown)");
        usage_exit(2);
    };
    let mut options = Json::obj();
    let mut have_options = false;
    if let Some(n) = sample {
        options = options.field("sample_ctas", n);
        have_options = true;
    }
    if full {
        options = options.field("full", true);
        have_options = true;
    }
    if no_cache {
        options = options.field("no_cache", true);
        have_options = true;
    }
    if tick_reference {
        options = options.field("tick_reference", true);
        have_options = true;
    }
    if let Some(n) = l2_slices {
        options = options.field("l2_slices", n);
        have_options = true;
    }
    if let Some(h) = &l2_hash {
        options = options.field("l2_hash", h.as_str());
        have_options = true;
    }
    let mut body = Json::obj().field("experiment", name.as_str());
    if have_options {
        body = body.field("options", options.build());
    }
    if want_trace {
        body = body.field("trace", true);
    }
    let body = body.build().to_pretty();
    match serve::http_request(&addr, "POST", "/v1/submit", Some(body.as_bytes())) {
        Ok(reply) if reply.status == 200 => {
            print!("{}", String::from_utf8_lossy(&reply.body));
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

/// `duplo metrics`: scrape a running daemon's registry and print it.
fn cmd_metrics(args: &[String]) {
    let mut addr: Option<String> = None;
    let mut json = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => {
                let Some(v) = args.get(i + 1) else {
                    eprintln!("error: --addr requires a value");
                    usage_exit(2);
                };
                addr = Some(v.clone());
                i += 2;
            }
            "--json" => {
                json = true;
                i += 1;
            }
            other => {
                eprintln!("error: unknown argument: {other}");
                usage_exit(2);
            }
        }
    }
    let Some(addr) = addr else {
        eprintln!("error: metrics requires --addr <host:port>");
        usage_exit(2);
    };
    let path = if json {
        "/v1/metrics?format=json"
    } else {
        "/v1/metrics"
    };
    match serve::http_request(&addr, "GET", path, None) {
        Ok(reply) if reply.status == 200 => {
            print!("{}", String::from_utf8_lossy(&reply.body));
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
                eprintln!("error: run requires an experiment name or `all`");
                usage_exit(2);
            };
            let cli = options_or_exit(&args[2..]);
            if target == "all" {
                with_trace(&cli, |o| with_replay(o, run_all));
            } else {
                with_trace(&cli, |o| with_replay(o, |o| run_named(target, o)));
            }
        }
        Some("trace") => match args.get(1).map(String::as_str) {
            Some("summarize") => {
                let Some(path) = args.get(2) else {
                    eprintln!("error: trace summarize requires a file path");
                    usage_exit(2);
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
                    eprintln!("error: trace record requires an experiment name and an output path");
                    usage_exit(2);
                };
                let cli = options_or_exit(&args[4..]);
                if cli.trace_in.is_some() {
                    eprintln!("error: --trace-in cannot be combined with trace record");
                    std::process::exit(2);
                }
                let out_path = std::path::PathBuf::from(out);
                with_trace(&cli, |o| {
                    record_to_file(&out_path, o, |o| run_named(name, o))
                });
            }
            other => {
                match other {
                    Some(sub) => eprintln!("error: unknown trace subcommand {sub:?}"),
                    None => eprintln!("error: trace requires a subcommand (summarize, record)"),
                }
                usage_exit(2);
            }
        },
        Some("serve") => cmd_serve(&args[1..]),
        Some("submit") => cmd_submit(&args[1..]),
        Some("metrics") => cmd_metrics(&args[1..]),
        Some("--help") | Some("-h") | Some("help") => {
            println!("{COMMANDS}\n\n{USAGE}");
        }
        Some(other) => {
            eprintln!("error: unknown command {other:?}");
            usage_exit(2);
        }
        None => usage_exit(2),
    }
}
