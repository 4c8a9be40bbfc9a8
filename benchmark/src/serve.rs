//! `serve_mix`: the `duplo serve` request path, driven in-process.
//!
//! An in-process `serve::Server` with two workers serves two closed-loop
//! client threads, one connection each. The seeded mix is 75% re-submits
//! of a warm experiment (reads, answered from the run cache), 15% fetches
//! of a stored result by digest, and 10% submits of a point no request
//! has asked for yet (writes: a simulation whose result fills the run
//! cache and pushes the 256-entry result store into LRU eviction).

use std::time::{Duration, Instant};

use duplo_sim::json::{Json, parse};
use duplo_sim::serve::{HttpReply, ServeOptions, Server, http_request};
use duplo_sim::{RunOptions, cache};
use duplo_testkit::Rng;

use crate::output::Timings;
use crate::spans::Recorder;
use crate::stats::median;
use crate::{Args, Counts, Outcome, SETUPS, TracedPass, counters};

/// Experiments the set-up submits once and reads re-submit.
pub const WARM: [&str; 9] = [
    "table03_config",
    "fig02_speedup",
    "fig03_memusage",
    "smem_policy",
    "ext_implicit",
    "wl_attention",
    "wl_batched_gemm",
    "wl_grouped_conv",
    "wl_kn2row",
];

/// Workload experiments writes draw their unseen points from.
const WRITE_EXPERIMENTS: [&str; 6] = [
    "wl_attention",
    "wl_batched_gemm",
    "wl_grouped_conv",
    "wl_kn2row",
    "wl_membound",
    "wl_slice_camp",
];

/// Requests per client between two `iter_s` samples.
const CHUNK: usize = 100;

/// Traced requests of the serial traced pass, interleaved with as many
/// untraced ones.
const TRACED_REQUESTS: usize = 2_000;

/// Requests per client after which `peak_rss_mb` is read.
const RSS_AFTER: usize = 5_000;

/// One request of the mix.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Re-submit warm experiment `i`.
    Read(usize),
    /// Fetch warm experiment `i`'s stored body by digest.
    Fetch(usize),
    /// Submit this body, a point not submitted before.
    Write {
        /// Experiment name.
        experiment: &'static str,
        /// Request body.
        body: String,
    },
}

impl Request {
    fn kind(&self) -> &'static str {
        match self {
            Request::Read(_) => "read",
            Request::Fetch(_) => "fetch",
            Request::Write { .. } => "write",
        }
    }
}

/// Every unseen write point, shuffled by the seed: each write experiment
/// × `sample_ctas` 1..=24 × 1..=32 L2 slices × {mod, xor} hashes.
fn write_pool(rng: &mut Rng) -> Vec<Request> {
    let mut pool = Vec::new();
    for experiment in WRITE_EXPERIMENTS {
        for sample in 1..=24u64 {
            for slices in 1..=32u64 {
                for hash in ["mod", "xor"] {
                    let options = Json::obj()
                        .field("sample_ctas", sample)
                        .field("l2_slices", slices)
                        .field("l2_hash", hash)
                        .build();
                    let body = Json::obj()
                        .field("experiment", experiment)
                        .field("options", options)
                        .build()
                        .to_canonical();
                    pool.push(Request::Write { experiment, body });
                }
            }
        }
    }
    rng.shuffle(&mut pool);
    pool
}

/// `streams` request schedules of `len` each, fixed by `seed`. Writes in
/// different schedules never repeat a point.
pub fn schedules(seed: u64, streams: usize, len: usize) -> Vec<Vec<Request>> {
    let mut rng = Rng::seed_from_u64(seed);
    let mut pool = write_pool(&mut rng).into_iter();
    let mut out = vec![Vec::with_capacity(len); streams];
    for _ in 0..len {
        for s in out.iter_mut() {
            let roll = rng.gen_index(100);
            s.push(if roll < 75 {
                Request::Read(rng.gen_index(WARM.len()))
            } else if roll < 90 {
                Request::Fetch(rng.gen_index(WARM.len()))
            } else {
                // Past the pool's end a write repeats a read.
                pool.next()
                    .unwrap_or_else(|| Request::Read(rng.gen_index(WARM.len())))
            });
        }
    }
    out
}

fn warm_body(name: &str) -> String {
    Json::obj()
        .field("experiment", name)
        .field("options", Json::obj().field("sample_ctas", 2u64).build())
        .build()
        .to_canonical()
}

/// A started server with its warm bodies and their digests.
pub struct Warm {
    server: Server,
    addr: String,
    bodies: Vec<Vec<u8>>,
    digests: Vec<String>,
}

impl Warm {
    /// Starts a server with an empty run cache and submits every
    /// experiment of [`WARM`] once.
    pub fn start() -> Warm {
        cache::clear_memory();
        let server = Server::start(ServeOptions {
            workers: 2,
            defaults: RunOptions {
                threads: Some(1),
                ..RunOptions::default()
            },
            ..ServeOptions::default()
        })
        .expect("bind an ephemeral localhost port");
        let addr = server.local_addr().to_string();
        let mut bodies = Vec::new();
        let mut digests = Vec::new();
        for name in WARM {
            let reply = http_request(
                &addr,
                "POST",
                "/v1/submit",
                Some(warm_body(name).as_bytes()),
            )
            .expect("set-up submission");
            assert_eq!(reply.status, 200, "set-up submission of {name}");
            digests.push(
                reply
                    .header("x-duplo-digest")
                    .expect("digest header")
                    .to_string(),
            );
            bodies.push(reply.body);
        }
        Warm {
            server,
            addr,
            bodies,
            digests,
        }
    }

    /// Shuts the server down and waits for its threads.
    pub fn stop(self) {
        self.server.shutdown();
        self.server.join();
    }

    /// Sends one request and checks its answer; returns the reply when
    /// it is right.
    fn send(&self, req: &Request) -> Option<HttpReply> {
        let reply = match req {
            Request::Read(i) => http_request(
                &self.addr,
                "POST",
                "/v1/submit",
                Some(warm_body(WARM[*i]).as_bytes()),
            ),
            Request::Fetch(i) => {
                let path = format!("/v1/results/{}", self.digests[*i]);
                http_request(&self.addr, "GET", &path, None)
            }
            Request::Write { body, .. } => {
                http_request(&self.addr, "POST", "/v1/submit", Some(body.as_bytes()))
            }
        }
        .ok()?;
        let right = reply.status == 200
            && match req {
                Request::Read(i) | Request::Fetch(i) => reply.body == self.bodies[*i],
                Request::Write { experiment, .. } => std::str::from_utf8(&reply.body)
                    .ok()
                    .and_then(|t| parse(t).ok())
                    .and_then(|d| {
                        d.get("experiment")
                            .and_then(Json::as_str)
                            .map(str::to_string)
                    })
                    .is_some_and(|e| e == *experiment),
            };
        right.then_some(reply)
    }
}

/// One answered request.
struct Done {
    kind: &'static str,
    start: Instant,
    end: Instant,
    ok: bool,
    body_bytes: usize,
    request_id: Option<String>,
}

/// Sends `schedule` in order until `deadline`; reads the peak RSS once
/// `rss_after` requests are done (never when 0).
fn drive(
    warm: &Warm,
    schedule: &[Request],
    deadline: Option<Instant>,
    rss_after: usize,
) -> (Vec<Done>, Option<f64>) {
    let mut done = Vec::new();
    let mut rss = None;
    for req in schedule {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            break;
        }
        let start = Instant::now();
        let reply = warm.send(req);
        done.push(Done {
            kind: req.kind(),
            start,
            end: Instant::now(),
            ok: reply.is_some(),
            body_bytes: reply.as_ref().map_or(0, |r| r.body.len()),
            request_id: reply
                .as_ref()
                .and_then(|r| r.header("x-duplo-request-id").map(str::to_string)),
        });
        if done.len() == rss_after {
            rss = Some(crate::output::peak_rss_mb());
        }
    }
    (done, rss)
}

/// Per-kind latency, server-side time, and transport cost of one serial
/// request sequence.
#[derive(Clone, Debug, Default)]
pub struct ServeStats {
    /// Median read latency, ms.
    pub read_p50_ms: f64,
    /// Median fetch latency, ms.
    pub fetch_p50_ms: f64,
    /// Median write latency, ms.
    pub write_p50_ms: f64,
    /// Mean accept-to-done time inside the server, µs.
    pub server_us: f64,
    /// Mean client latency minus mean server time, µs.
    pub transport_us: f64,
    /// Mean response body, kB.
    pub body_kb: f64,
}

/// Runs `schedule` serially against `warm` in chunks of [`CHUNK`]
/// requests that alternate between untraced and traced, so that the
/// machine's drift cancels out of the overhead; a traced chunk records one
/// span per request. Returns the stats over every request, the seconds of
/// the untraced chunks, and the number of wrong answers.
pub fn traced_requests(
    warm: &Warm,
    schedule: &[Request],
    rec: &mut Recorder,
) -> (ServeStats, f64, u64) {
    let (sum0, count0) = counters::serve_latency();
    let mut done = Vec::new();
    let mut untraced_s = 0.0;
    for (i, chunk) in schedule.chunks(CHUNK).enumerate() {
        if i % 2 == 0 {
            let t = Instant::now();
            done.extend(drive(warm, chunk, None, 0).0);
            untraced_s += t.elapsed().as_secs_f64();
            continue;
        }
        rec.scope("bench.pass", |rec| {
            let (traced, _) = drive(warm, chunk, None, 0);
            for d in &traced {
                rec.record(
                    &format!("serve.{}", d.kind),
                    d.start,
                    d.end,
                    d.request_id.clone(),
                );
            }
            done.extend(traced);
        });
    }
    let (sum1, count1) = counters::serve_latency();
    let ms = |kind: &str| {
        let v: Vec<f64> = done
            .iter()
            .filter(|d| d.kind == kind)
            .map(|d| (d.end - d.start).as_secs_f64() * 1e3)
            .collect();
        if v.is_empty() { 0.0 } else { median(&v) }
    };
    let client_us = done
        .iter()
        .map(|d| (d.end - d.start).as_secs_f64() * 1e6)
        .sum::<f64>()
        / done.len() as f64;
    let server_us = (sum1 - sum0) as f64 / (count1 - count0).max(1) as f64;
    let stats = ServeStats {
        read_p50_ms: ms("read"),
        fetch_p50_ms: ms("fetch"),
        write_p50_ms: ms("write"),
        server_us,
        transport_us: client_us - server_us,
        body_kb: done.iter().map(|d| d.body_bytes as f64).sum::<f64>() / done.len() as f64 / 1e3,
    };
    (
        stats,
        untraced_s,
        done.iter().filter(|d| !d.ok).count() as u64,
    )
}

/// Runs `serve_mix` under `args`.
pub fn run(args: &Args) -> Outcome {
    let mut timings = Timings {
        tail_cap: 99.0,
        ..Timings::default()
    };
    let mut warm = None;
    for _ in 0..SETUPS {
        if let Some(w) = warm.take() {
            Warm::stop(w);
        }
        let t = Instant::now();
        warm = Some(Warm::start());
        timings.setups.push(t.elapsed().as_secs_f64());
    }
    let warm = warm.expect("set up above");

    // Two client schedules plus a third, disjoint one for the traced pass;
    // 40,000 requests per client outlast a 25 s loop at about 700 requests
    // per second per client (two 2.1 GHz cores).
    let plans = schedules(args.seed, 3, 40_000);
    let evictions0 = counters::evictions();
    let loop_start = Instant::now();
    let deadline = loop_start + Duration::from_secs_f64(args.seconds);
    let (per_client, rss): (Vec<Vec<Done>>, Vec<Option<f64>>) = std::thread::scope(|s| {
        let handles: Vec<_> = plans[..2]
            .iter()
            .map(|plan| s.spawn(|| drive(&warm, plan, Some(deadline), RSS_AFTER)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .unzip()
    });
    let loop_end = per_client
        .iter()
        .filter_map(|c| c.last().map(|d| d.end))
        .max()
        .unwrap_or(loop_start);
    timings.loop_s = (loop_end - loop_start).as_secs_f64();
    let (mut attempted, mut failed) = (0u64, 0u64);
    for client in &per_client {
        attempted += client.len() as u64;
        failed += client.iter().filter(|d| !d.ok).count() as u64;
        timings
            .op_ms
            .extend(client.iter().map(|d| (d.end - d.start).as_secs_f64() * 1e3));
        for chunk in client.chunks_exact(CHUNK) {
            timings
                .passes
                .push((chunk[CHUNK - 1].end - chunk[0].start).as_secs_f64());
        }
    }
    if timings.passes.is_empty() {
        timings.passes.push(timings.loop_s);
    }
    // The run cache grows with every write, so the peak after a fixed
    // number of requests compares across commits of different speed.
    let peak_rss_mb = rss
        .into_iter()
        .flatten()
        .reduce(f64::max)
        .unwrap_or_else(crate::output::peak_rss_mb);

    let traced = args.trace.then(|| {
        let mut rec = Recorder::new();
        let before = counters::snapshot();
        let profile = duplo_sm::loop_profile();
        let schedule = &plans[2][..2 * TRACED_REQUESTS];
        let (stats, untraced_s, wrong) = traced_requests(&warm, schedule, &mut rec);
        let mut counts = Counts::default();
        counts.set_loop(&profile, &duplo_sm::loop_profile());
        counts.set_tiers(&before, &counters::snapshot());
        counts.evictions = counters::evictions() - evictions0;
        attempted += schedule.len() as u64;
        failed += wrong;
        TracedPass {
            wall_s: rec.root_seconds(),
            untraced_s,
            rec,
            counts,
            runner_efficiency: 0.0,
            runner_tail_share: 0.0,
            report_disk_hits: 0,
            serve: Some(stats),
        }
    });
    warm.stop();
    Outcome {
        timings,
        peak_rss_mb,
        attempted,
        failed,
        traced,
    }
}

/// The serve probe of the workloads that do not serve: a fresh server and
/// the first 300 requests of seed 0's schedule, run serially.
pub fn probe() -> ServeStats {
    let warm = Warm::start();
    let plan = schedules(0, 1, 300).remove(0);
    let (stats, _, _) = traced_requests(&warm, &plan, &mut Recorder::new());
    warm.stop();
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_fixed_by_the_seed() {
        assert_eq!(schedules(7, 2, 500), schedules(7, 2, 500));
        assert_ne!(schedules(7, 2, 500), schedules(8, 2, 500));
    }

    #[test]
    fn mix_proportions_and_unique_writes() {
        let plans = schedules(11, 2, 5_000);
        let all: Vec<&Request> = plans.iter().flatten().collect();
        let share =
            |k: &str| all.iter().filter(|r| r.kind() == k).count() as f64 / all.len() as f64;
        assert!((share("read") - 0.75).abs() < 0.02);
        assert!((share("fetch") - 0.15).abs() < 0.02);
        assert!((share("write") - 0.10).abs() < 0.02);
        let mut writes: Vec<&String> = all
            .iter()
            .filter_map(|r| match r {
                Request::Write { body, .. } => Some(body),
                _ => None,
            })
            .collect();
        let n = writes.len();
        writes.sort();
        writes.dedup();
        assert_eq!(writes.len(), n, "no write point repeats");
    }
}
