//! tn-watch scenario replay: scripted environments streamed through the
//! `tn-obs` timeline monitor.
//!
//! The built-in scenario is the paper's Figure-6 water-pan experiment:
//! four days of hourly Tin-II counting, then two inches of water over
//! the detector boost the thermal field by the Monte-Carlo-derived
//! factor for three more days. Replaying the thermal-subtracted count
//! series (`bare − shielded`) through a [`Monitor`] must raise exactly
//! one `step_up` alert whose magnitude matches the derived boost.
//!
//! The monitor's confidence intervals are Garwood's chi-square bounds
//! from `tn-physics` ([`garwood_interval`]), computed to 1e-12 relative
//! for counts up to 10⁶, not the std-only normal approximation the obs
//! core defaults to.

use crate::tinii::WaterBoxExperiment;
use tn_environment::{Environment, Location, Surroundings, Weather};
use tn_obs::timeline::{Alert, AlertKind, Monitor, MonitorConfig};
use tn_physics::stats::PoissonInterval;

/// Nanoseconds per hourly counting bin.
const HOUR_NANOS: u64 = 3_600_000_000_000;

/// Garwood confidence interval on a Poisson mean count (1e-12 relative
/// up to 10⁶ counts), in the shape the obs timeline core injects
/// ([`tn_obs::timeline::IntervalFn`]).
pub fn garwood_interval(count: u64, confidence: f64) -> (f64, f64) {
    let interval = PoissonInterval::exact(count, confidence);
    (interval.lower, interval.upper)
}

/// Monitor tuning for hourly Tin-II thermal-subtracted counts.
///
/// The monitored series is a *difference* of two Poisson channels, so
/// its variance exceeds the Poisson variance of its mean; the CUSUM
/// threshold is raised accordingly (the subtraction roughly doubles the
/// variance, so the nominal nats budget is scaled to keep the same
/// false-alarm headroom). Warmup covers half the scenario's pre-step
/// segment.
pub fn tinii_monitor_config() -> MonitorConfig {
    MonitorConfig {
        capacity: 4096,
        window: 12,
        warmup: 48,
        ewma_alpha: 0.05,
        cusum_delta: 0.1,
        cusum_threshold: 18.0,
        drift_confidence: 0.999,
        drift_run: 6,
        interval: garwood_interval,
    }
}

/// One replayed timeline point of a [`WatchReport`].
#[derive(Debug, Clone)]
pub struct WatchPoint {
    /// 0-based hourly sample index.
    pub index: u64,
    /// Thermal-subtracted counts (`bare − shielded`, clamped at zero).
    pub count: u64,
    /// Sliding-window rate estimate (counts per second).
    pub window_rate: f64,
    /// EWMA baseline (counts per second).
    pub baseline: f64,
}

/// Outcome of replaying a scripted scenario through the monitor.
#[derive(Debug, Clone)]
pub struct WatchReport {
    /// Scenario name (`water_pan` for the built-in default).
    pub scenario: &'static str,
    /// RNG seed the scenario ran with.
    pub seed: u64,
    /// Total hourly samples replayed.
    pub samples: usize,
    /// Samples before the scripted change point.
    pub pre_samples: usize,
    /// The Monte-Carlo-derived thermal boost the scenario applied.
    pub derived_boost: f64,
    /// The monitor's frozen reference rate after warmup (counts/s).
    pub baseline_rate: f64,
    /// Every alert the monitor raised, in detection order.
    pub alerts: Vec<Alert>,
    /// Refined post-hoc magnitude of the first step alert: mean rate
    /// over `[onset, end)` against mean rate over `[0, onset)`, minus
    /// one. `0.0` when no step alert fired.
    pub magnitude: f64,
    /// Samples between the scripted change point and detection of the
    /// first step alert (`None` when no step alert fired).
    pub detection_delay: Option<u64>,
    /// The replayed timeline (one point per sample).
    pub points: Vec<WatchPoint>,
}

impl WatchReport {
    /// True when the scenario outcome matches the paper: exactly one
    /// alert, it is a `step_up`, no alert touches the pre-step segment,
    /// and the refined magnitude is within `tol` (absolute) of the
    /// MC-derived boost.
    pub fn detects_paper_step(&self, tol: f64) -> bool {
        self.alerts.len() == 1
            && self.alerts[0].kind == AlertKind::StepUp
            && self.alerts[0].onset_index >= self.pre_samples as u64
            && (self.magnitude - self.derived_boost).abs() <= tol
    }

    /// Renders the report as a canonical JSON object (stable key order,
    /// shortest-round-trip floats) for `watch --json` and the validator.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\"scenario\":\"");
        out.push_str(self.scenario);
        out.push_str("\",\"seed\":");
        out.push_str(&self.seed.to_string());
        out.push_str(",\"samples\":");
        out.push_str(&self.samples.to_string());
        out.push_str(",\"pre_samples\":");
        out.push_str(&self.pre_samples.to_string());
        out.push_str(",\"derived_boost\":");
        push_f64(&mut out, self.derived_boost);
        out.push_str(",\"baseline_rate\":");
        push_f64(&mut out, self.baseline_rate);
        out.push_str(",\"magnitude\":");
        push_f64(&mut out, self.magnitude);
        out.push_str(",\"detection_delay\":");
        match self.detection_delay {
            Some(d) => out.push_str(&d.to_string()),
            None => out.push_str("null"),
        }
        out.push_str(",\"alerts\":[");
        for (i, a) in self.alerts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"kind\":\"");
            out.push_str(a.kind.label());
            out.push_str("\",\"onset_index\":");
            out.push_str(&a.onset_index.to_string());
            out.push_str(",\"detected_index\":");
            out.push_str(&a.detected_index.to_string());
            out.push_str(",\"baseline_rate\":");
            push_f64(&mut out, a.baseline_rate);
            out.push_str(",\"observed_rate\":");
            push_f64(&mut out, a.observed_rate);
            out.push_str(",\"magnitude\":");
            push_f64(&mut out, a.magnitude);
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        out.push_str(&format!("{v}"));
        if v == v.trunc() && !out.ends_with("e0") && !v.to_string().contains('.') {
            out.push_str(".0");
        }
    } else {
        out.push_str("null");
    }
}

/// Replays a raw hourly count series through a monitor built from
/// `cfg`, returning the monitor and the alerts it raised. Timestamps
/// are derived from the sample index, so the replay is deterministic.
pub fn replay_counts(counts: &[u64], exposure_seconds: f64, cfg: MonitorConfig) -> (Monitor, Vec<Alert>) {
    let mut monitor = Monitor::new(cfg);
    let mut alerts = Vec::new();
    for (i, &count) in counts.iter().enumerate() {
        alerts.extend(monitor.observe(i as u64 * HOUR_NANOS, count, exposure_seconds));
    }
    (monitor, alerts)
}

/// The built-in scripted scenario: the paper's water-pan experiment in
/// a Los Alamos concrete-floor machine room.
pub fn water_pan_environment() -> Environment {
    Environment::new(
        Location::los_alamos(),
        Weather::Sunny,
        Surroundings::concrete_floor(),
    )
}

/// Runs the built-in water-pan scenario at `seed`: generates the
/// Figure-6 campaign ([`WaterBoxExperiment::paper_configuration`]),
/// streams the thermal-subtracted hourly counts through the Tin-II
/// monitor tuning, and reports alerts plus the refined step magnitude.
pub fn run_water_pan(seed: u64) -> WatchReport {
    let experiment = WaterBoxExperiment::paper_configuration(water_pan_environment());
    let outcome = experiment.run(seed);
    let pre_samples = 4 * 24;
    let counts: Vec<u64> = outcome
        .series
        .iter()
        .map(|s| s.bare.saturating_sub(s.shielded))
        .collect();
    let (monitor, alerts) = replay_counts(&counts, 3600.0, tinii_monitor_config());

    let first_step = alerts
        .iter()
        .find(|a| matches!(a.kind, AlertKind::StepUp | AlertKind::StepDown));
    let (magnitude, detection_delay) = match first_step {
        Some(a) => {
            let onset = (a.onset_index as usize).min(counts.len());
            let pre: u64 = counts[..onset].iter().sum();
            let post: u64 = counts[onset..].iter().sum();
            let pre_rate = pre as f64 / onset.max(1) as f64;
            let post_rate = post as f64 / (counts.len() - onset).max(1) as f64;
            let magnitude = if pre_rate > 0.0 { post_rate / pre_rate - 1.0 } else { 0.0 };
            let delay = a.detected_index.saturating_sub(pre_samples as u64);
            (magnitude, Some(delay))
        }
        None => (0.0, None),
    };

    let points = monitor
        .iter_points()
        .map(|p| WatchPoint {
            index: p.index,
            count: p.count,
            window_rate: p.window_rate,
            baseline: p.baseline,
        })
        .collect();
    WatchReport {
        scenario: "water_pan",
        seed,
        samples: counts.len(),
        pre_samples,
        derived_boost: outcome.derived_boost,
        baseline_rate: monitor.reference_rate(),
        alerts,
        magnitude,
        detection_delay,
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tn_rng::Rng;

    #[test]
    fn garwood_interval_brackets_the_count() {
        let (lo, hi) = garwood_interval(100, 0.999);
        assert!(lo < 100.0 && hi > 100.0, "{lo} {hi}");
        let (lo0, hi0) = garwood_interval(0, 0.999);
        assert_eq!(lo0, 0.0);
        assert!(hi0 > 0.0);
    }

    #[test]
    fn water_pan_scenario_detects_the_paper_step() {
        tn_obs::set_level(Some(tn_obs::Level::Error));
        let report = run_water_pan(2020);
        assert_eq!(report.samples, 7 * 24);
        assert_eq!(report.alerts.len(), 1, "exactly one alert: {:?}", report.alerts);
        let a = &report.alerts[0];
        assert_eq!(a.kind, AlertKind::StepUp);
        assert!(
            a.onset_index >= report.pre_samples as u64,
            "no alert may touch the pre-step segment (onset {})",
            a.onset_index
        );
        assert!(
            report.detection_delay.expect("delay") <= 12,
            "detection within a dozen post-step samples: {:?}",
            report.detection_delay
        );
        assert!(
            (report.magnitude - report.derived_boost).abs() <= 0.05,
            "magnitude {} vs boost {}",
            report.magnitude,
            report.derived_boost
        );
        assert!(report.detects_paper_step(0.05));
    }

    #[test]
    fn water_pan_report_is_deterministic() {
        tn_obs::set_level(Some(tn_obs::Level::Error));
        let a = run_water_pan(7).to_json();
        let b = run_water_pan(7).to_json();
        assert_eq!(a, b);
    }

    #[test]
    fn stationary_tinii_counts_raise_no_alerts_across_seeds() {
        tn_obs::set_level(Some(tn_obs::Level::Error));
        let env = water_pan_environment();
        let det = crate::TinII::new();
        for seed in 0..20u64 {
            let mut rng = Rng::seed_from_u64(0xB0A7 + seed);
            let series = det.count_series(
                &env,
                tn_physics::units::Seconds::from_days(10.0),
                1.0,
                0.0,
                &mut rng,
            );
            let counts: Vec<u64> = series
                .iter()
                .map(|s| s.bare.saturating_sub(s.shielded))
                .collect();
            let (_, alerts) = replay_counts(&counts, 3600.0, tinii_monitor_config());
            assert!(
                alerts.is_empty(),
                "seed {seed}: spurious {:?}",
                alerts[0].kind
            );
        }
    }
}
