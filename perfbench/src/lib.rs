//! End-to-end and per-layer benchmark of the thermal-neutrons study
//! pipeline, Monte-Carlo transport kernel and fleet risk service.
//!
//! One binary runs one workload (`study`, `transport`, `fleet_hot`,
//! `fleet_cold`) for a fixed time, checks the program's outputs, and
//! prints its metrics; `METRICS.md` lists them. The untraced run gives
//! the end-to-end metrics. The traced run times the benchmark's calls
//! into each layer's public functions as spans and reports the
//! per-layer metrics.

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod client;
pub mod fleet;
pub mod machine;
pub mod metrics;
pub mod server;
pub mod stats;
pub mod study;
pub mod sys;
pub mod trace;
pub mod transport;

pub use machine::fnv1a;

use stats::Summary;
use std::collections::BTreeMap;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's reproduction path, batch, one caller.
    Study,
    /// A fixed-history transport mix, serial and at `nproc` threads.
    Transport,
    /// `POST /v1/fleet` from a small body pool: response-cache hits.
    FleetHot,
    /// `POST /v1/fleet` with unique bodies: cache misses, surface
    /// lookups and a small share of Monte-Carlo fallbacks.
    FleetCold,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Study,
        Workload::Transport,
        Workload::FleetHot,
        Workload::FleetCold,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Study => "study",
            Workload::Transport => "transport",
            Workload::FleetHot => "fleet_hot",
            Workload::FleetCold => "fleet_cold",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Metric name → (value, unit).
pub type Metrics = BTreeMap<String, (f64, &'static str)>;

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: requests, or output checks for the batch
    /// workloads.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Output checks run.
    pub checks_run: u64,
    /// Why each failed output check failed.
    pub check_failures: Vec<String>,
    /// End-to-end metrics.
    pub e2e: Metrics,
    /// Per-layer metrics.
    pub layers: Metrics,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records one output check.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.checks_run += 1;
        if !ok {
            self.check_failures.push(why());
        }
    }

    /// True when every output check passed.
    pub fn correct(&self) -> bool {
        self.check_failures.is_empty() && self.checks_run > 0
    }

    /// Sets an end-to-end metric.
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.e2e.insert(name.to_string(), (value, unit));
    }

    /// Sets a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.layers.insert(name.to_string(), (value, unit));
    }

    /// Sets `<prefix>_p50` and `<prefix>_p99` from raw samples, each 0
    /// when fewer than ten samples lie beyond it.
    pub fn layer_dist(&mut self, prefix: &str, samples: Vec<f64>, unit: &'static str) {
        let s = Summary::new(samples);
        self.layer(&format!("{prefix}_p50"), s.p50().unwrap_or(0.0), unit);
        self.layer(
            &format!("{prefix}_p99"),
            s.quantile(0.99).unwrap_or(0.0),
            unit,
        );
        self.layer(&format!("{prefix}_samples"), s.len() as f64, "count");
    }

    /// Sets the median and the tail (the highest percentile with ten
    /// samples beyond it) of operation times, the tail's level and the
    /// sample count; `to_ms` scales the samples to milliseconds.
    pub fn latency(&mut self, times: &Summary, to_ms: f64) {
        self.layer("latency.p50_ms", times.p50().unwrap_or(0.0) * to_ms, "ms");
        let (level, tail) = times.tail().unwrap_or((0.0, 0.0));
        self.layer("latency.tail_ms", tail * to_ms, "ms");
        self.layer("latency.tail_level", level, "ratio");
        self.layer("latency.samples", times.len() as f64, "count");
    }

    /// Derives the success ratio (and its complement, the error ratio)
    /// from `attempted` and `failed`.
    pub fn finish(&mut self) {
        let error_ratio = if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        };
        self.e2e("success_ratio", 1.0 - error_ratio, "ratio");
        self.layer("error_ratio", error_ratio, "ratio");
    }
}

/// Settings of one benchmark run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured time, seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// The `thermal-neutrons` binary (fleet workloads).
    pub server_bin: std::path::PathBuf,
    /// Where spans are written.
    pub out_dir: std::path::PathBuf,
}

/// Runs one workload with its default output expectations.
pub fn run(config: &Config) -> Result<Outcome, String> {
    let tracer = trace::Tracer::new(config.trace);
    let mut outcome = match config.workload {
        Workload::Study => study::run(
            config.seed,
            config.seconds,
            &tracer,
            &study::Expect::default(),
        ),
        Workload::Transport => transport::run(
            config.seed,
            config.seconds,
            &tracer,
            &transport::Expect::default(),
        ),
        Workload::FleetHot | Workload::FleetCold => {
            fleet::run(config, &tracer, &fleet::Expect::default())?
        }
    };
    outcome.finish();
    if tracer.enabled() {
        let path = config.out_dir.join(format!(
            "trace-{}-{}.jsonl",
            config.workload.name(),
            config.seed
        ));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("cannot write spans to {}: {e}", path.display()))?;
        outcome
            .notes
            .push(format!("spans written to {}", path.display()));
    }
    Ok(outcome)
}
