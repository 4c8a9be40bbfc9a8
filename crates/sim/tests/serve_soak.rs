//! Soak test for `duplo_sim::serve`: dozens of concurrent clients over
//! real sockets, asserting byte-identical bodies, single-flight cache
//! behaviour, and a clean drain — at 1 and 4 simulation threads.
//!
//! The single-flight proof needs no knowledge of how many kernels an
//! experiment runs: for N identical cold submissions every kernel is
//! simulated exactly once (the misses) and every other lookup joins the
//! in-flight leader or the warm tiers (the hits). Each reply's cache
//! headers count that submission's own lookups, so their sums must
//! satisfy `hits == (N - 1) * misses` exactly.
//!
//! A scraper thread hits `/v1/metrics` throughout both storms, proving
//! the registry is readable under load, that the in-flight gauge never
//! exceeds the worker count, and (afterwards) that the request counters
//! account for exactly every client submission.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use duplo_sim::RunOptions;
use duplo_sim::cache::CacheStats;
use duplo_sim::experiments::find_experiment;
use duplo_sim::json::{Json, parse};
use duplo_sim::serve::{HttpReply, ServeOptions, Server, http_request};

/// One stable-agnostic scrape of `/v1/metrics?format=json`, returning the
/// named metric's scalar value (0 when it has not been registered yet).
fn scrape_metric(addr: &str, name: &str) -> i64 {
    let reply = http_request(addr, "GET", "/v1/metrics?format=json", None).expect("metrics scrape");
    assert_eq!(reply.status, 200, "metrics endpoint must answer under load");
    let doc = parse(std::str::from_utf8(&reply.body).unwrap()).expect("metrics body parses");
    doc.get("metrics")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .find(|m| m.get("name").and_then(Json::as_str) == Some(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .map(|v| v as i64)
        .unwrap_or(0)
}

/// Concurrent clients per phase. Two phases per test -> "dozens" total.
const CLIENTS: usize = 24;

fn submission_body(name: &str, sample: usize) -> String {
    format!("{{\"experiment\": \"{name}\", \"options\": {{\"sample_ctas\": {sample}}}}}")
}

/// A reply's `X-Duplo-Cache-*` header as a count.
fn cache_header(reply: &HttpReply, name: &str) -> u64 {
    reply
        .header(name)
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("reply lacks a numeric {name} header"))
}

/// Fires `CLIENTS` concurrent submissions and returns (bodies, the sum of
/// their cache headers).
fn storm(addr: &str, body: &str) -> (Vec<Vec<u8>>, CacheStats) {
    let handles: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let addr = addr.to_string();
            let body = body.to_string();
            std::thread::spawn(move || {
                let reply = http_request(&addr, "POST", "/v1/submit", Some(body.as_bytes()))
                    .expect("submission must not be dropped");
                assert_eq!(
                    reply.status,
                    200,
                    "submission failed: {}",
                    String::from_utf8_lossy(&reply.body)
                );
                reply
            })
        })
        .collect();
    let mut bodies = Vec::new();
    let mut sum = CacheStats::default();
    for h in handles {
        let reply = h.join().expect("client thread must not panic");
        sum.hits += cache_header(&reply, "x-duplo-cache-hits");
        sum.misses += cache_header(&reply, "x-duplo-cache-misses");
        bodies.push(reply.body);
    }
    (bodies, sum)
}

/// The full soak: cold storm, warm storm, byte-identity vs a direct run,
/// clean shutdown. `sample` doubles as the cache-key discriminator so the
/// two thread-count variants cannot warm each other through the
/// process-global memory tier.
fn soak(threads: usize, sample: usize) {
    let cache_dir = std::env::temp_dir().join(format!(
        "duplo-soak-{}-t{threads}-s{sample}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&cache_dir);

    let defaults = RunOptions {
        threads: Some(threads),
        cache_dir: Some(cache_dir.clone()),
        ..RunOptions::default()
    };
    // The request counters and the in-flight gauge are process-wide
    // telemetry, so the two soak variants take turns from server start to
    // join: otherwise the other variant's health check, digest fetch or
    // shutdown could sit inside a handler while this one's scraper reads
    // the gauge (the cache assertions read per-reply headers and need no
    // lock).
    static COUNTERS: Mutex<()> = Mutex::new(());
    let _turn = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let server = Server::start(ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        workers: 4,
        defaults: defaults.clone(),
        ..ServeOptions::default()
    })
    .expect("server must bind an ephemeral port");
    let addr = server.local_addr().to_string();

    let health = http_request(&addr, "GET", "/v1/health", None).expect("health");
    assert_eq!(health.status, 200);

    let name = "smem_policy";
    let body = submission_body(name, sample);

    let submit_ok = "duplo_serve_requests_total{route=\"/v1/submit\",status=\"200\"}";
    let submits_before = scrape_metric(&addr, submit_ok);

    // Scraper: hammer /v1/metrics for the duration of both storms. The
    // in-flight gauge counts requests inside handlers (the scrape itself
    // included), so it must never exceed the 4-worker pool.
    let stop = Arc::new(AtomicBool::new(false));
    let scraper = {
        let stop = Arc::clone(&stop);
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut scrapes = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let in_flight = scrape_metric(&addr, "duplo_serve_in_flight");
                assert!(
                    (0..=4).contains(&in_flight),
                    "in-flight gauge out of range: {in_flight}"
                );
                let busy = scrape_metric(&addr, "duplo_serve_workers_busy");
                assert!(
                    (0..=4).contains(&busy),
                    "workers-busy gauge out of range: {busy}"
                );
                scrapes += 1;
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            scrapes
        })
    };

    // Phase 1: cold storm. One simulation per kernel, everyone else rides.
    let (cold_bodies, cold) = storm(&addr, &body);
    assert!(cold.misses > 0, "a cold storm must simulate something");
    assert_eq!(
        cold.hits,
        (CLIENTS as u64 - 1) * cold.misses,
        "single-flight: N identical cold submissions must cost one simulation \
         per kernel (hits={} misses={})",
        cold.hits,
        cold.misses
    );

    // Phase 2: warm storm. Nothing simulates; every lookup hits.
    let (warm_bodies, warm) = storm(&addr, &body);
    assert_eq!(warm.misses, 0, "a warm storm must not simulate");
    assert_eq!(warm.hits, CLIENTS as u64 * cold.misses);

    stop.store(true, Ordering::Relaxed);
    let scrapes = scraper.join().expect("scraper thread must not panic");
    assert!(scrapes > 0, "the scraper must have observed the storms");

    // Request accounting: both storms' submissions — and nothing else —
    // landed on the /v1/submit 200 counter.
    let submits_after = scrape_metric(&addr, submit_ok);
    assert_eq!(
        submits_after - submits_before,
        2 * CLIENTS as i64,
        "request counters must match the client count exactly"
    );

    // Every body, cold or warm, is byte-identical to a direct run with the
    // same options the daemon resolved.
    let spec = find_experiment(name).expect("registry experiment");
    let mut opts = defaults;
    opts.sample_ctas = Some(sample);
    let expected = (spec.run)(&opts).result.to_pretty();
    for (i, got) in cold_bodies.iter().chain(warm_bodies.iter()).enumerate() {
        assert_eq!(
            got.as_slice(),
            expected.as_bytes(),
            "body {i} diverged from the direct run"
        );
    }

    // Results stay fetchable by digest after the storm.
    let digest = duplo_sim::digest::hex(duplo_sim::digest::digest_bytes(expected.as_bytes()));
    let fetched =
        http_request(&addr, "GET", &format!("/v1/results/{digest}"), None).expect("digest fetch");
    assert_eq!(fetched.status, 200);
    assert_eq!(fetched.body, expected.as_bytes());

    // Clean drain: shutdown endpoint, then join without hanging.
    let bye = http_request(&addr, "POST", "/v1/shutdown", Some(b"{}")).expect("shutdown");
    assert_eq!(bye.status, 200);
    server.join();
    let _ = std::fs::remove_dir_all(&cache_dir);
}

#[test]
fn soak_single_threaded_sim() {
    soak(1, 2);
}

#[test]
fn soak_four_threaded_sim() {
    soak(4, 3);
}
