//! Live progress streaming for `duplo serve`: a slow inline-wtrace
//! submission must be observable through `/v1/progress/<digest>` as it
//! moves `queued -> running -> done`, with a monotone long-poll sequence
//! number and a nonzero cycles gauge.
//!
//! The lifecycle assertions rely on the snapshot's recorded `history`,
//! not on catching each state in the act, so the test is immune to the
//! run finishing faster than the poller.

use std::time::{Duration, Instant};

use duplo_isa::Kernel;
use duplo_kernels::{GemmTcKernel, SmemPolicy};
use duplo_sim::json::{Json, parse};
use duplo_sim::serve::{ServeOptions, Server, http_request};
use duplo_sim::wtrace::{KernelRecord, encode, simulated_ctas};
use duplo_sim::{GpuConfig, RunOptions, digest};

#[test]
fn progress_endpoint_reports_queued_running_done() {
    let server = Server::start(ServeOptions {
        workers: 2,
        defaults: RunOptions {
            threads: Some(2),
            ..RunOptions::default()
        },
        ..ServeOptions::default()
    })
    .expect("server must bind an ephemeral port");
    let addr = server.local_addr().to_string();

    // A moderately sized GEMM keeps the submission in `running` long
    // enough to long-poll against; --no-cache so a previous test run's
    // disk cache cannot collapse it to a lookup.
    let kernel = GemmTcKernel::new(128, 128, 64, SmemPolicy::COnly);
    let cfg = GpuConfig::titan_v();
    let record = KernelRecord::capture(&kernel, &simulated_ctas(&cfg, kernel.num_ctas()));
    let body = Json::obj()
        .field("wtrace", encode(std::slice::from_ref(&record)))
        .field("options", Json::obj().field("no_cache", true).build())
        .build()
        .to_pretty();

    // The job digest is the content digest of the request body, so the
    // watcher needs nothing from the submitter but the bytes it sent.
    let job = digest::hex(digest::digest_bytes(body.as_bytes()));

    let submit_addr = addr.clone();
    let submitter = std::thread::spawn(move || {
        http_request(&submit_addr, "POST", "/v1/submit", Some(body.as_bytes()))
            .expect("submission must not be dropped")
    });

    // Follow the job: tolerate a 404 window before the submission is
    // parsed and registered, then long-poll past each observed seq.
    let deadline = Instant::now() + Duration::from_secs(300);
    let mut since = 0u64;
    let final_doc = loop {
        assert!(
            Instant::now() < deadline,
            "progress never reached a terminal state"
        );
        let path = format!("/v1/progress/{job}?since={since}&wait_ms=1000");
        let reply = http_request(&addr, "GET", &path, None).expect("progress poll");
        if reply.status == 404 {
            std::thread::sleep(Duration::from_millis(5));
            continue;
        }
        assert_eq!(
            reply.status,
            200,
            "progress poll failed: {}",
            String::from_utf8_lossy(&reply.body)
        );
        let doc = parse(std::str::from_utf8(&reply.body).unwrap()).expect("progress body parses");
        let seq = doc.get("seq").and_then(Json::as_u64).expect("seq");
        assert!(seq >= since, "seq must be monotone ({seq} < {since})");
        since = seq;
        let state = doc.get("state").and_then(Json::as_str).expect("state");
        if state == "done" || state == "failed" {
            break doc;
        }
    };

    assert_eq!(
        final_doc.get("state").and_then(Json::as_str),
        Some("done"),
        "submission must succeed: {final_doc:?}"
    );
    assert_eq!(
        final_doc.get("job").and_then(Json::as_str),
        Some(job.as_str())
    );
    let history: Vec<&str> = final_doc
        .get("history")
        .and_then(Json::as_arr)
        .expect("history")
        .iter()
        .map(|s| s.as_str().expect("history entries are strings"))
        .collect();
    assert_eq!(
        history,
        ["queued", "running", "done"],
        "every lifecycle transition must be recorded"
    );
    assert!(
        final_doc.get("cycles").and_then(Json::as_u64).unwrap_or(0) > 0,
        "the cycles gauge must advance while running"
    );

    let reply = submitter.join().expect("submitter thread");
    assert_eq!(reply.status, 200);
    assert_eq!(
        reply.header("x-duplo-job"),
        Some(job.as_str()),
        "the submitter must be told its job digest"
    );

    server.shutdown();
    server.join();
}
