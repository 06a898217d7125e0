//! The load generator against real `thermal-neutrons serve` children.

mod common;

use perfbench::client::{self, Plan, RungResult};
use perfbench::fleet::{FleetSource, SERVER_SEED};
use perfbench::server::ServerChild;
use perfbench::stats::Summary;
use perfbench::Workload;
use std::time::Duration;

fn hot_server(args: &[&str]) -> (ServerChild, FleetSource) {
    let server =
        ServerChild::spawn(&common::server_bin(), SERVER_SEED, args).expect("server starts");
    let source = FleetSource::new(Workload::FleetHot, 7, &Default::default());
    // Build the risk surface before the clock starts.
    let (status, _) = server
        .request("POST", "/v1/fleet", &source.body_of(0))
        .expect("warm-up request");
    assert_eq!(status, 200);
    (server, source)
}

fn plan(rate_hz: f64, seconds: f64, conns: usize) -> Plan {
    Plan {
        rate_hz: Some(rate_hz),
        duration: Duration::from_secs_f64(seconds),
        conns,
        rung: 0,
        seed: 11,
        timeout: Duration::from_secs(5),
        stall: None,
    }
}

#[test]
fn requests_behind_the_connection_cap_are_resent_not_failed() {
    let (server, source) = hot_server(&["--max-requests-per-conn", "50"]);
    // One connection offered 1200 requests: 24 times the cap, fast
    // enough that requests are pipelined behind each final response.
    let result = client::run(server.addr, &plan(4_000.0, 0.3, 1), &source);
    assert!(result.sent >= 1_000, "sent {}", result.sent);
    assert_eq!(result.failures, Default::default(), "{:?}", result.failures);
    assert_eq!(result.wrong_answers, 0);
    assert_eq!(result.answers.len() as u64, result.sent);
    assert!(result.retries > 0, "no request was resent");
    let closes = server.metrics().unwrap()["tn_conn_request_cap_closed_total"];
    assert!(
        closes >= (result.sent / 50 - 1) as f64,
        "{closes} cap closes"
    );
}

/// Median latency (ms) of the answers scheduled in `[from, to)` seconds.
fn median_between(result: &RungResult, from: f64, to: f64) -> f64 {
    let window: Vec<f64> = result
        .answers
        .iter()
        .filter(|a| (from..to).contains(&(a.sched_ns as f64 * 1e-9)))
        .map(|a| a.latency_ns as f64 * 1e-6)
        .collect();
    Summary::new(window)
        .middle()
        .expect("answers in the window")
}

#[test]
fn a_stalled_client_charges_the_stall_to_the_requests_behind_it() {
    let (server, source) = hot_server(&[]);
    let steady = client::run(server.addr, &plan(1_000.0, 1.2, 4), &source);
    let mut stalled_plan = plan(1_000.0, 1.2, 4);
    stalled_plan.stall = Some((Duration::from_millis(500), Duration::from_millis(150)));
    let stalled = client::run(server.addr, &stalled_plan, &source);
    for result in [&steady, &stalled] {
        assert_eq!(result.failures.total(), 0);
        assert_eq!(result.answers.len() as u64, result.sent);
    }
    // Requests due while the generator slept were sent late, but their
    // latency still runs from the schedule: no coordinated omission.
    let quiet = median_between(&steady, 0.5, 0.65);
    let behind = median_between(&stalled, 0.5, 0.65);
    assert!(
        behind > 40.0 && behind > 10.0 * quiet,
        "behind the stall {behind} ms, steady {quiet} ms"
    );
    let tail = |r: &RungResult| Summary::new(r.ok_latencies_ms()).quantile(0.99).unwrap();
    assert!(
        tail(&stalled) > tail(&steady) + 50.0,
        "{} vs {}",
        tail(&stalled),
        tail(&steady)
    );
    // The generator's own lateness shows the stall, so the rung reads
    // as invalid rather than slow.
    let late = Summary::new(
        stalled
            .lateness_ns
            .iter()
            .map(|&n| n as f64 * 1e-6)
            .collect(),
    );
    assert!(late.quantile(0.99).unwrap() > 50.0);
}

#[test]
fn closed_loop_keeps_one_request_in_flight_per_connection() {
    let (server, source) = hot_server(&[]);
    let mut closed = plan(1.0, 0.5, 4);
    closed.rate_hz = None;
    let result = client::run(server.addr, &closed, &source);
    assert_eq!(result.failures.total(), 0);
    assert_eq!(result.wrong_answers, 0);
    assert_eq!(result.answers.len() as u64, result.sent);
    // Four connections each answered many times over in half a second.
    assert!(result.sent > 40, "sent {}", result.sent);
    let rate = result.ok_per_s();
    assert!(rate > 0.9 * result.sent as f64 / 0.5, "{rate}/s");
    assert!(rate < result.sent as f64 / 0.5, "{rate}/s");
}
