//! The fleet workloads: open-loop `POST /v1/fleet` traffic against a
//! `thermal-neutrons serve` child.
//!
//! Both send 16-entry bodies with `"quick": false` at Poisson arrivals.
//! `fleet_hot` draws every request from a pool of 32 bodies, so after
//! warm-up each one is a response-cache hit: HTTP parse, the event
//! loop, cache lookup and socket write. `fleet_cold` makes every body
//! unique (sites and ¹⁰B values seeded across the grid), so the
//! 256-entry cache misses, inserts and evicts on every request, and one
//! request in [`OFF_GRID_EVERY`] carries an entry above the 4000 m grid
//! top, which takes the Monte-Carlo fallback inline.
//!
//! Each run measures the nominal rate, then the rate the server
//! completes requests at in closed loop, then climbs a ladder of fixed
//! offered rates until a rung misses the workload's p99 limit, fails a
//! request, builds a backlog, or finds the generator itself behind.

use crate::client::{self, Outgoing, Plan, RungResult, Source};
use crate::server::{start_until_ready, ServerChild};
use crate::stats::Summary;
use crate::trace::Tracer;
use crate::{Config, Outcome, Workload};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tn_core::json::{self, Json};
use tn_fleet::{FleetEntry, SiteParams};
use tn_rng::Rng;
use tn_server::cache::ShardedCache;
use tn_server::http::{Request, RequestParser};
use tn_server::{handlers, router, AppState};

/// The server's default seed; bodies carry no seed of their own.
pub const SERVER_SEED: u64 = 2020;
/// Entries per request body.
pub const ENTRIES: usize = 16;
/// Distinct bodies of `fleet_hot`.
pub const HOT_POOL: usize = 32;
/// One `fleet_cold` request in this many carries an off-grid entry.
pub const OFF_GRID_EVERY: u64 = 50;
/// `Host` header of every request (the server ignores it).
const HOST: &str = "perfbench";
/// The server's response-cache capacity (its default).
const CACHE_CAPACITY: usize = 256;
/// Offered rates, requests/second, shared by both fleet workloads.
/// Steps are 12–20 % where the workloads saturate on a 2-core box; the
/// top is about twice the hot workload's saturation there on a slow
/// day of the box (its speed varies by a third over minutes).
pub const LADDER: [f64; 16] = [
    250.0, 500.0, 1_000.0, 1_500.0, 2_000.0, 2_400.0, 2_800.0, 3_200.0, 3_600.0, 4_000.0, 4_500.0,
    5_000.0, 6_000.0, 7_000.0, 8_000.0, 10_000.0,
];
/// The nominal rung: about a third of the cold workload's saturation
/// (a sixth of the hot one's) on a 2-core box.
pub const NOMINAL_HZ: f64 = 500.0;
/// Share of the run spent at the nominal rate.
const NOMINAL_SHARE: f64 = 0.3;
/// Closed-loop runs; their median rate is the workload's throughput.
const CLOSED_REPS: u64 = 5;
/// Share of the run each closed-loop run takes.
const CLOSED_SHARE: f64 = 0.05;
/// Server starts timed for `setup_s`.
const SETUP_REPS: usize = 5;
/// A rung whose generator ran later, at p99, than this share of the
/// p99 limit is invalid: its own lateness would eat the latency budget.
const LATENESS_SHARE: f64 = 0.5;
/// Slack of the growing-backlog test, milliseconds.
const BACKLOG_SLACK_MS: f64 = 1.0;
/// A rung whose generator threads were this busy is invalid.
const CLIENT_CPU_LIMIT: f64 = 0.9;
/// A request unanswered this long after its schedule is a timeout.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(2);
/// Keep-alive connections of the one generator thread (which uses a
/// fifth of a core at most, and so competes little with the server).
const CONNS: usize = 16;
/// One response in this many is kept and compared byte for byte with
/// the in-process handler.
const KEEP_EVERY: u64 = 256;
/// Rung numbers (they keep `fleet_cold` bodies unique across rungs):
/// warm-up, the traced run's in-process replay, the ladder, the
/// closed-loop runs and set-up.
const RUNG_WARM: u64 = 0;
const RUNG_REPLAY: u64 = 1;
const RUNG_LADDER: u64 = 2;
const RUNG_CLOSED: u64 = 0x80;
const RUNG_SETUP: u64 = 0xff;
/// Requests replayed in-process by the traced run, per pass.
const REPLAY: u64 = 1_000;

/// The p99 limit of both fleet workloads, milliseconds. On a shared
/// 2-core box their p99 wanders between 10 and 50 ms well below
/// saturation (stalls of the box, requests queued behind inline
/// Monte-Carlo fallbacks) and jumps past 100 ms once a backlog forms,
/// so this limit marks saturation rather than noise.
pub const P99_LIMIT_MS: f64 = 100.0;

/// Expected outputs.
#[derive(Debug, Clone, PartialEq)]
pub struct Expect {
    /// Entries every response must count.
    pub entries: usize,
    /// Monte-Carlo fallbacks each off-grid request must cause.
    pub mc_per_off_grid: u64,
    /// Flip one byte of every in-process reference body (a wrong
    /// expected value, for the self-test).
    pub tamper_reference: bool,
}

impl Default for Expect {
    fn default() -> Self {
        Self {
            entries: ENTRIES,
            mc_per_off_grid: 1,
            tamper_reference: false,
        }
    }
}

fn round_to(x: f64, step: f64) -> f64 {
    (x / step).round() * step
}

/// Shields of the off-grid entries, in rotation. The Monte-Carlo
/// fallback's cost depends on the shield, so a fixed rotation keeps the
/// fallback work of a run independent of its seed.
const OFF_GRID_SHIELDS: [f64; 4] = [1.0e18, 1.0e19, 1.0e20, 1.0e21];

/// One seeded fleet entry; `off_grid` (a shield from
/// [`OFF_GRID_SHIELDS`]) puts it above the grid top.
fn entry(rng: &mut Rng, id: String, devices: &[String], off_grid: Option<f64>) -> Json {
    let altitude = if off_grid.is_some() {
        round_to(4_000.5 + 4_999.0 * rng.gen_f64(), 0.1)
    } else {
        round_to(4_000.0 * rng.gen_f64(), 0.1)
    };
    let b10 = match off_grid {
        Some(shield) => shield,
        None if rng.gen_f64() < 0.2 => 0.0,
        None => {
            let x = 10f64.powf(17.0 + 4.0 * rng.gen_f64());
            let scale = 10f64.powi(x.log10().floor() as i32 - 3);
            (x / scale).round() * scale
        }
    };
    Json::Object(vec![
        ("altitude_m".into(), Json::Num(altitude)),
        (
            "avf".into(),
            Json::Num(round_to(0.1 + 0.9 * rng.gen_f64(), 0.001)),
        ),
        ("b10_areal_cm2".into(), Json::Num(b10)),
        (
            "device".into(),
            Json::Str(devices[rng.gen_range(0..devices.len())].clone()),
        ),
        ("id".into(), Json::Str(id)),
        (
            "thermal_scaling".into(),
            Json::Num(round_to(0.5 + 1.5 * rng.gen_f64(), 0.001)),
        ),
    ])
}

/// A 16-entry body; entry 0 is off-grid when `off_grid` is set.
fn body(rng: &mut Rng, devices: &[String], off_grid: Option<f64>) -> String {
    let entries = (0..ENTRIES)
        .map(|i| {
            entry(
                rng,
                format!("dev-{i:02}"),
                devices,
                off_grid.filter(|_| i == 0),
            )
        })
        .collect();
    Json::Object(vec![
        ("devices".into(), Json::Array(entries)),
        ("quick".into(), Json::Bool(false)),
    ])
    .to_canonical_string()
}

/// Reads `"name":<digits>` from a response body.
fn field_u64(body: &[u8], name: &str) -> Option<u64> {
    let key = format!("\"{name}\":");
    let at = body.windows(key.len()).position(|w| w == key.as_bytes())? + key.len();
    let digits: String = body[at..]
        .iter()
        .take_while(|b| b.is_ascii_digit())
        .map(|&b| b as char)
        .collect();
    digits.parse().ok()
}

/// The request generator of one workload.
pub struct FleetSource {
    workload: Workload,
    seed: u64,
    devices: Vec<String>,
    hot: Vec<Arc<Vec<u8>>>,
    hot_bodies: Vec<String>,
    entries: usize,
    mc_per_off_grid: u64,
}

/// Tag layout: rung in bits 48.., request number below.
const TAG_RUNG_SHIFT: u32 = 48;
const TAG_K_MASK: u64 = (1 << TAG_RUNG_SHIFT) - 1;

/// The tag of request `k` in `rung`.
fn tag_of(rung: u64, k: u64) -> u64 {
    (rung << TAG_RUNG_SHIFT) | (k & TAG_K_MASK)
}

impl FleetSource {
    /// Builds the generator (and, for `fleet_hot`, its body pool).
    pub fn new(workload: Workload, seed: u64, expect: &Expect) -> Self {
        let devices: Vec<String> = tn_devices::all_compute_devices()
            .iter()
            .map(|d| d.name().to_string())
            .collect();
        let mut pool_rng = Rng::seed_from_u64(seed).fork(0x9001);
        let hot_bodies: Vec<String> = (0..HOT_POOL)
            .map(|_| body(&mut pool_rng, &devices, None))
            .collect();
        let hot = hot_bodies
            .iter()
            .map(|b| Arc::new(client::post(HOST, "/v1/fleet", b)))
            .collect();
        Self {
            workload,
            seed,
            devices,
            hot,
            hot_bodies,
            entries: expect.entries,
            mc_per_off_grid: expect.mc_per_off_grid,
        }
    }

    /// Whether the request with `tag` carries an off-grid entry.
    pub fn off_grid(&self, tag: u64) -> bool {
        self.workload == Workload::FleetCold
            && (tag & TAG_K_MASK) % OFF_GRID_EVERY == OFF_GRID_EVERY - 1
    }

    /// Off-grid entries among the first `sent` requests of a rung.
    fn off_grid_sent(&self, sent: u64) -> u64 {
        (0..sent).filter(|&k| self.off_grid(k)).count() as u64
    }

    /// The JSON body of the request with `tag`.
    pub fn body_of(&self, tag: u64) -> String {
        match self.workload {
            Workload::FleetCold => {
                let mut rng = Rng::seed_from_u64(self.seed).fork(0xc01d).fork(tag);
                let k = tag & TAG_K_MASK;
                let shield =
                    OFF_GRID_SHIELDS[(k / OFF_GRID_EVERY) as usize % OFF_GRID_SHIELDS.len()];
                body(
                    &mut rng,
                    &self.devices,
                    self.off_grid(tag).then_some(shield),
                )
            }
            _ => self.hot_bodies[(tag % HOT_POOL as u64) as usize].clone(),
        }
    }
}

impl Source for FleetSource {
    fn next(&self, rung: u64, k: u64, rng: &mut Rng) -> Outgoing {
        let keep_body = k % KEEP_EVERY == 0;
        match self.workload {
            Workload::FleetCold => {
                let tag = tag_of(rung, k);
                Outgoing {
                    bytes: Arc::new(client::post(HOST, "/v1/fleet", &self.body_of(tag))),
                    tag,
                    keep_body,
                }
            }
            _ => {
                let tag = rng.gen_range(0..HOT_POOL as u64);
                Outgoing {
                    bytes: Arc::clone(&self.hot[tag as usize]),
                    tag,
                    keep_body,
                }
            }
        }
    }

    fn check(&self, tag: u64, body: &[u8]) -> bool {
        let count = field_u64(body, "count");
        let hits = field_u64(body, "surface_hits");
        let mc = field_u64(body, "mc_fallbacks");
        match (count, hits, mc) {
            (Some(count), Some(hits), Some(mc)) => {
                count == self.entries as u64
                    && hits + mc == count
                    && mc == self.mc_per_off_grid * u64::from(self.off_grid(tag))
            }
            _ => false,
        }
    }
}

/// One measured rung and its verdict.
struct Rung {
    rate_hz: f64,
    result: RungResult,
    server_cpu_s: f64,
    latencies: Summary,
    passed: bool,
    verdict: String,
}

impl Rung {
    fn achieved_hz(&self) -> f64 {
        self.latencies.len() as f64 / self.result.duration.as_secs_f64()
    }

    /// Latencies (ms) of the 200s scheduled in slice `part` of `parts`
    /// equal slices of the rung.
    fn slice(&self, parts: u64, part: u64) -> Summary {
        let d = (self.result.duration.as_nanos() as u64).max(1);
        Summary::new(
            self.result
                .answers
                .iter()
                .filter(|a| a.status == 200 && a.sched_ns * parts / d == part)
                .map(|a| a.latency_ns as f64 * 1e-6)
                .collect(),
        )
    }

    fn lateness_p99_ms(&self) -> f64 {
        let lateness = Summary::new(
            self.result
                .lateness_ns
                .iter()
                .map(|&n| n as f64 * 1e-6)
                .collect(),
        );
        lateness.quantile(0.99).unwrap_or_else(|| lateness.max())
    }

    fn client_cpu_share(&self) -> f64 {
        self.result.client_cpu.as_secs_f64() / self.result.duration.as_secs_f64()
    }
}

fn judge(rate_hz: f64, result: RungResult, server_cpu_s: f64) -> Rung {
    let limit_ms = P99_LIMIT_MS;
    let latencies = Summary::new(result.ok_latencies_ms());
    let mut rung = Rung {
        rate_hz,
        result,
        server_cpu_s,
        latencies,
        passed: false,
        verdict: String::new(),
    };
    let tail = rung.latencies.tail();
    // A backlog grows when the median latency of the rung's last third
    // is more than twice that of its first third (plus a millisecond of
    // slack for the sub-millisecond medians of a quiet rung).
    let (first, last) = (rung.slice(3, 0).middle(), rung.slice(3, 2).middle());
    let (first, last) = (first.unwrap_or(0.0), last.unwrap_or(0.0));
    let backlog = last > 2.0 * first + BACKLOG_SLACK_MS;
    let lateness = rung.lateness_p99_ms();
    let cpu = rung.client_cpu_share();
    rung.verdict = if rung.result.failed() > 0 || rung.result.wrong_answers > 0 {
        format!(
            "fail ({} failed, {} wrong)",
            rung.result.failed(),
            rung.result.wrong_answers
        )
    } else if lateness > LATENESS_SHARE * limit_ms || cpu > CLIENT_CPU_LIMIT {
        format!("invalid (generator behind: lateness p99 {lateness:.3} ms, cpu {cpu:.2})")
    } else if tail.map_or(true, |(_, v)| v > limit_ms) {
        format!("fail (tail {tail:?} ms > {limit_ms} ms)")
    } else if backlog {
        format!("fail (growing backlog: median {first:.3} -> {last:.3} ms)")
    } else {
        rung.passed = true;
        "pass".to_string()
    };
    rung
}

fn run_rung(
    server: &ServerChild,
    source: &FleetSource,
    rung: u64,
    rate_hz: f64,
    duration: Duration,
    seed: u64,
) -> Rung {
    let plan = Plan {
        rate_hz: Some(rate_hz),
        duration,
        conns: CONNS,
        rung,
        seed,
        timeout: REQUEST_TIMEOUT,
        stall: None,
    };
    let cpu_before = server.cpu_seconds().unwrap_or(0.0);
    let result = client::run(server.addr, &plan, source);
    let server_cpu_s = server.cpu_seconds().unwrap_or(0.0) - cpu_before;
    judge(rate_hz, result, server_cpu_s)
}

/// Runs closed loop: every connection keeps one request in flight.
fn run_closed(
    server: &ServerChild,
    source: &FleetSource,
    rung: u64,
    duration: Duration,
    seed: u64,
) -> RungResult {
    let plan = Plan {
        rate_hz: None,
        duration,
        conns: CONNS,
        rung,
        seed,
        timeout: REQUEST_TIMEOUT,
        stall: None,
    };
    client::run(server.addr, &plan, source)
}

fn delta(before: &BTreeMap<String, f64>, after: &BTreeMap<String, f64>, name: &str) -> f64 {
    after.get(name).copied().unwrap_or(0.0) - before.get(name).copied().unwrap_or(0.0)
}

/// Runs a fleet workload.
pub fn run(config: &Config, tracer: &Tracer, expect: &Expect) -> Result<Outcome, String> {
    let workload = config.workload;
    let seconds = config.seconds;
    let mut out = Outcome::default();

    // Set-up: server up plus its first 200, which builds the full
    // risk surface.
    let source = FleetSource::new(workload, config.seed, expect);
    let first_body = source.body_of(tag_of(RUNG_SETUP, 0));
    let mut setup_times = Vec::new();
    let mut server = None;
    for _ in 0..SETUP_REPS {
        drop(server.take());
        let (child, t) = start_until_ready(
            &config.server_bin,
            SERVER_SEED,
            &[],
            "/v1/fleet",
            &first_body,
        )?;
        setup_times.push(t);
        server = Some(child);
    }
    let server = server.expect("set-up ran");
    out.e2e(
        "setup_s",
        Summary::new(setup_times).middle().unwrap_or(0.0),
        "s",
    );

    // Warm-up: every pool body once (fleet_hot), then a short closed
    // loop, which also fills the cache (fleet_cold evicts from the first
    // measured request on).
    if workload == Workload::FleetHot {
        for b in &source.hot_bodies {
            let (status, _) = server.request("POST", "/v1/fleet", b)?;
            if status != 200 {
                return Err(format!("warm-up request answered {status}"));
            }
        }
    }
    let warm_seed = Rng::seed_from_u64(config.seed).fork(RUNG_WARM).next_u64();
    run_closed(
        &server,
        &source,
        RUNG_WARM,
        Duration::from_millis(500),
        warm_seed,
    );

    let before = server.metrics()?;
    // The server's closed-loop rate: the median of a few short runs, so
    // one stall of the shared box moves it little. Unlike the highest
    // passing rung, it does not move in ladder steps.
    let closed: Vec<RungResult> = (0..CLOSED_REPS)
        .map(|rep| {
            let number = RUNG_CLOSED + rep;
            let seed = Rng::seed_from_u64(config.seed).fork(number).next_u64();
            let duration = Duration::from_secs_f64(CLOSED_SHARE * seconds);
            run_closed(&server, &source, number, duration, seed)
        })
        .collect();
    let closed_rps = Summary::new(closed.iter().map(RungResult::ok_per_s).collect())
        .middle()
        .unwrap_or(0.0);
    // The lowest rung, the nominal rung (measured longest), then the
    // rungs above it until two rungs in a row fail. A rung fails only
    // when its retry fails too: on a shared box one stall can sink a
    // short rung, and a slow spell of the box can sink a whole rung.
    let rung_time =
        |rate: f64| Duration::from_secs_f64((1_500.0 / rate).clamp(0.05 * seconds, 0.1 * seconds));
    let mut rungs: Vec<Rung> = Vec::new();
    // Peak RSS is read after the nominal rung: the saturated rungs above
    // it buffer a backlog whose size is noise, not the program's need.
    let mut peak_rss = 0.0;
    let mut failed_in_a_row = 0;
    for (i, &rate) in LADDER.iter().enumerate() {
        if i > 0 && rate < NOMINAL_HZ {
            continue;
        }
        let (duration, attempts) = if rate == NOMINAL_HZ {
            (Duration::from_secs_f64(NOMINAL_SHARE * seconds), 1)
        } else {
            (rung_time(rate), 2)
        };
        for attempt in 0..attempts {
            let number = RUNG_LADDER + 2 * i as u64 + attempt;
            let rung_seed = Rng::seed_from_u64(config.seed).fork(number).next_u64();
            let rung = run_rung(&server, &source, number, rate, duration, rung_seed);
            let passed = rung.passed;
            rungs.push(rung);
            if passed {
                break;
            }
        }
        if rate == NOMINAL_HZ {
            peak_rss = server.peak_rss_mb().unwrap_or(0.0);
        }
        let failed = rate > NOMINAL_HZ && !rungs.last().is_some_and(|r| r.passed);
        failed_in_a_row = if failed { failed_in_a_row + 1 } else { 0 };
        if failed_in_a_row == 2 {
            break;
        }
    }
    let after = server.metrics()?;
    drop(server);
    let nominal = rungs
        .iter()
        .find(|r| r.rate_hz == NOMINAL_HZ)
        .ok_or("the ladder stopped below the nominal rate")?;
    // Every request measured, open or closed loop.
    let measured: Vec<&RungResult> = closed
        .iter()
        .chain(rungs.iter().map(|r| &r.result))
        .collect();

    // Requests at or below the nominal rate, and in closed loop (which
    // never queues more than one request per connection), count for
    // the error ratio.
    let scored: Vec<&RungResult> = closed
        .iter()
        .chain(
            rungs
                .iter()
                .filter(|r| r.rate_hz <= NOMINAL_HZ)
                .map(|r| &r.result),
        )
        .collect();
    out.attempted = scored.iter().map(|r| r.sent).sum();
    out.failed = scored.iter().map(|r| r.failed()).sum();

    let max_rps = rungs
        .iter()
        .filter(|r| r.passed)
        .max_by(|a, b| a.rate_hz.total_cmp(&b.rate_hz))
        .map_or(0.0, Rung::achieved_hz);
    out.e2e("ops_per_s", closed_rps, "1/s");
    out.layer("fleet.closed_loop_rps", closed_rps, "1/s");
    let nominal_p50 = nominal.latencies.p50().unwrap_or(0.0);
    let nominal_p99 = nominal.latencies.quantile(0.99).unwrap_or(0.0);
    out.latency(&nominal.latencies, 1.0);
    out.e2e("peak_rss_mb", peak_rss, "MB");
    out.layer("fleet_p50_ms", nominal_p50, "ms");
    out.layer("fleet_p99_ms", nominal_p99, "ms");
    out.layer("fleet_max_rps", max_rps, "1/s");
    out.layer(
        "fleet.nominal_samples",
        nominal.latencies.len() as f64,
        "count",
    );

    out.notes.push(format!(
        "nominal: {} samples, p90 {:?} p95 {:?} p99 {:?} ms",
        nominal.latencies.len(),
        nominal.latencies.quantile(0.90),
        nominal.latencies.quantile(0.95),
        nominal.latencies.quantile(0.99),
    ));
    for run in &closed {
        out.notes.push(format!(
            "closed loop: sent {:>6} answered {:>8.1}/s p50 {:>7.3} ms client cpu {:.2}, {} failed",
            run.sent,
            run.ok_per_s(),
            Summary::new(run.ok_latencies_ms())
                .p50()
                .unwrap_or(f64::NAN),
            run.client_cpu.as_secs_f64() / run.duration.as_secs_f64(),
            run.failed(),
        ));
    }
    for rung in &rungs {
        out.notes.push(format!(
            "rung {:>7.0}/s{}: sent {:>6} achieved {:>8.1}/s p50 {:>7.3} ms p99 {} lateness p99 {:.3} ms \
             client cpu {:.2} retries {} -> {}",
            rung.rate_hz,
            if rung.rate_hz == NOMINAL_HZ { " (nominal)" } else { "" },
            rung.result.sent,
            rung.achieved_hz(),
            rung.latencies.p50().unwrap_or(f64::NAN),
            rung.latencies
                .quantile(0.99)
                .map_or("n/a".to_string(), |v| format!("{v:.3} ms")),
            rung.lateness_p99_ms(),
            rung.client_cpu_share(),
            rung.result.retries,
            rung.verdict
        ));
    }

    // Output checks: every response's own counts, the server's counters
    // against what was sent, and sampled bodies byte for byte against
    // the in-process handler.
    let wrong: u64 = measured.iter().map(|r| r.wrong_answers).sum();
    out.check(wrong == 0, || {
        format!("{wrong} responses failed count/surface_hits/mc_fallbacks checks")
    });
    // The server's fallback count lies between the off-grid entries
    // answered and those sent (a request that timed out may still have
    // run); with no request failed, it equals them.
    let failures: u64 = measured.iter().map(|r| r.failed()).sum();
    let answered_off_grid: u64 = measured
        .iter()
        .flat_map(|r| &r.answers)
        .filter(|a| a.status == 200 && source.off_grid(a.tag))
        .count() as u64;
    let sent_off_grid: u64 = measured.iter().map(|r| source.off_grid_sent(r.sent)).sum();
    let mc = delta(&before, &after, "tn_fleet_mc_fallbacks_total");
    let low = (answered_off_grid * expect.mc_per_off_grid) as f64;
    let high = (sent_off_grid * expect.mc_per_off_grid) as f64;
    out.check(
        if failures == 0 {
            mc == low
        } else {
            (low..=high).contains(&mc)
        },
        || {
            format!(
                "server ran {mc} Monte-Carlo fallbacks for {answered_off_grid} off-grid \
                 entries answered of {sent_off_grid} sent ({failures} requests failed)"
            )
        },
    );
    let (state, build_s) = reference_state();
    let mut references: BTreeMap<u64, String> = BTreeMap::new();
    let mut compared = 0u64;
    for answer in measured.iter().flat_map(|r| &r.answers) {
        let Some(got) = &answer.body else {
            continue;
        };
        let want = references.entry(answer.tag).or_insert_with(|| {
            let mut text =
                handlers::fleet(&state, source.body_of(answer.tag).as_bytes()).body_text();
            if expect.tamper_reference {
                text.push(' ');
            }
            text
        });
        compared += 1;
        out.check(got.as_slice() == want.as_bytes(), || {
            format!(
                "response to request {} differs from the in-process handler",
                answer.tag
            )
        });
    }
    out.check(compared > 0, || {
        "no response body was sampled for comparison".to_string()
    });

    if tracer.enabled() {
        let hits = delta(&before, &after, "tn_cache_hits_total");
        let lookups = hits
            + delta(&before, &after, "tn_cache_misses_total")
            + delta(&before, &after, "tn_cache_coalesced_total");
        out.layer(
            "cache.hit_ratio",
            if lookups > 0.0 { hits / lookups } else { 0.0 },
            "ratio",
        );
        out.layer(
            "cache.coalesced",
            delta(&before, &after, "tn_cache_coalesced_total"),
            "count",
        );
        out.layer(
            "fleet.surface_hits",
            delta(&before, &after, "tn_fleet_surface_hits_total"),
            "count",
        );
        out.layer("fleet.mc_fallbacks", mc, "count");
        out.layer(
            "transport.histories",
            delta(&before, &after, "tn_transport_histories_total"),
            "count",
        );
        out.layer(
            "transport.busy_s",
            delta(&before, &after, "tn_transport_seconds_total"),
            "s",
        );
        out.layer(
            "server.overload_503",
            delta(&before, &after, "tn_server_overload_total"),
            "count",
        );
        out.layer(
            "server.cap_closes",
            delta(&before, &after, "tn_conn_request_cap_closed_total"),
            "count",
        );
        let answered = nominal.latencies.len().max(1) as f64;
        out.layer(
            "server.cpu_us_per_req",
            nominal.server_cpu_s * 1e6 / answered,
            "us",
        );
        out.layer(
            "client.cpu_us_per_req",
            nominal.result.client_cpu.as_secs_f64() * 1e6 / answered,
            "us",
        );
        out.layer("client.lateness_ms_p99", nominal.lateness_p99_ms(), "ms");
        let sum = |f: fn(&RungResult) -> u64| measured.iter().map(|r| f(r) as f64).sum::<f64>();
        out.layer("client.sent", sum(|r| r.sent), "count");
        out.layer("client.failed.status", sum(|r| r.failures.status), "count");
        out.layer("client.failed.io", sum(|r| r.failures.io), "count");
        out.layer(
            "client.failed.timeout",
            sum(|r| r.failures.timeout),
            "count",
        );
        out.layer(
            "client.failed.closed_unanswered",
            sum(|r| r.failures.closed_unanswered),
            "count",
        );
        out.layer("client.retries", sum(|r| r.retries), "count");
        out.layer("fleet.surface_build_s", build_s, "s");
        for (id, answer) in nominal.result.answers.iter().enumerate() {
            let start = nominal.result.started + Duration::from_nanos(answer.sched_ns);
            let end = start + Duration::from_nanos(answer.latency_ns);
            tracer.record(id as u64, "client.request", "", start, end, None);
        }
        replay(&state, &source, config.seed, tracer, &mut out);
        let lowest_p50_us = rungs.first().and_then(|r| r.latencies.p50()).unwrap_or(0.0) * 1e3;
        let handle_p50 = out.layers.get("router.handle_us_p50").map_or(0.0, |v| v.0);
        out.layer(
            "server.outside_handler_us",
            lowest_p50_us - handle_p50,
            "us",
        );
    }
    Ok(out)
}

/// An in-process service state with the full risk surface memoised;
/// returns it with the surface build time.
fn reference_state() -> (AppState, f64) {
    let state = AppState::new(SERVER_SEED, CACHE_CAPACITY, 1);
    let t0 = Instant::now();
    state.surface(SERVER_SEED, false);
    (state, t0.elapsed().as_secs_f64())
}

/// Replays the workload's own requests in-process and times each
/// layer's public function on them.
fn replay(state: &AppState, source: &FleetSource, seed: u64, tracer: &Tracer, out: &mut Outcome) {
    let mut rng = Rng::seed_from_u64(seed).fork(RUNG_REPLAY);
    let requests: Vec<Outgoing> = (0..3 * REPLAY)
        .map(|k| source.next(RUNG_REPLAY, k, &mut rng))
        .collect();
    let parse = |bytes: &[u8]| -> Request {
        let mut parser = RequestParser::new();
        parser.push(bytes);
        parser
            .try_next()
            .ok()
            .flatten()
            .expect("generated requests are well-formed")
    };
    let quiet = Tracer::new(false);
    let whole = |tr: &Tracer, batch: &[Outgoing], base: u64| {
        let t0 = Instant::now();
        for (k, o) in batch.iter().enumerate() {
            let id = base + k as u64;
            let request = tr.time(id, "http.parse", "", None, |_| parse(&o.bytes));
            let response = tr.time(id, "router.handle", "", None, |_| {
                router::handle(state, &request)
            });
            let bytes = tr.time(id, "http.serialize", "", None, |_| response.to_bytes(true));
            std::hint::black_box(bytes);
        }
        t0.elapsed().as_secs_f64()
    };
    let n = REPLAY as usize;
    let plain = whole(&quiet, &requests[..n], 0);
    let traced = whole(tracer, &requests[n..2 * n], REPLAY);
    out.layer("trace.overhead_ratio", traced / plain, "ratio");

    // Layer by layer, on a private cache primed like the server's.
    let surface = state.surface(SERVER_SEED, false);
    let cache = ShardedCache::new(CACHE_CAPACITY);
    for b in &source.hot_bodies {
        cache.insert(hot_key(b), String::new());
    }
    for (k, o) in requests[2 * n..].iter().enumerate() {
        let id = 2 * REPLAY + k as u64;
        let request = parse(&o.bytes);
        let text = std::str::from_utf8(&request.body).expect("bodies are UTF-8");
        let doc = tracer.time(id, "json.parse", "", None, |_| {
            json::parse(text).expect("valid JSON")
        });
        let items = doc
            .get("devices")
            .and_then(Json::as_array)
            .expect("devices array");
        let entries: Vec<FleetEntry> = items
            .iter()
            .map(|item| {
                tracer.time(id, "fleet.entry_parse", "", None, |_| {
                    FleetEntry::from_json(item).expect("valid entry")
                })
            })
            .collect();
        let key = tracer.time(id, "json.canonical", "", None, |_| key_of(&entries));
        let hit = tracer.time(id, "cache.get", "", None, |_| cache.get(&key));
        if hit.is_none() {
            for e in &entries {
                let device = tn_core::find_device(&e.device).expect("catalog device");
                let name = if surface.covers(e.altitude_m, e.b10_areal_cm2) {
                    "fleet.assess"
                } else {
                    "fleet.assess_mc"
                };
                tracer.time(id, name, "", None, |_| {
                    surface.assess(&device, &SiteParams::from_entry(e))
                });
            }
            let value = "x".repeat(ENTRIES * 512);
            tracer.time(id, "cache.insert", "", None, |_| cache.insert(key, value));
        }
    }
    let us = |name: &str| {
        tracer
            .durations(name)
            .iter()
            .map(|s| s * 1e6)
            .collect::<Vec<_>>()
    };
    for (name, prefix) in [
        ("http.parse", "http.parse_us"),
        ("http.serialize", "http.serialize_us"),
        ("router.handle", "router.handle_us"),
        ("json.parse", "json.parse_us"),
        ("json.canonical", "json.canonical_us"),
        ("fleet.entry_parse", "fleet.entry_parse_us"),
        ("fleet.assess", "fleet.assess_us"),
        ("cache.get", "cache.get_us"),
        ("cache.insert", "cache.insert_us"),
    ] {
        out.layer_dist(prefix, us(name), "us");
    }
    let mc_ms = tracer
        .durations("fleet.assess_mc")
        .iter()
        .map(|s| s * 1e3)
        .collect();
    out.layer_dist("fleet.assess_mc_ms", mc_ms, "ms");
}

/// The handler's cache key for a set of inline entries.
fn key_of(entries: &[FleetEntry]) -> String {
    let canonical =
        Json::Array(entries.iter().map(FleetEntry::to_json).collect()).to_canonical_string();
    format!("fleet|{SERVER_SEED}|false|inline|{canonical}")
}

fn hot_key(body: &str) -> String {
    let doc = json::parse(body).expect("pool bodies are valid");
    let entries: Vec<FleetEntry> = doc
        .get("devices")
        .and_then(Json::as_array)
        .expect("devices array")
        .iter()
        .map(|item| FleetEntry::from_json(item).expect("valid entry"))
        .collect();
    key_of(&entries)
}
