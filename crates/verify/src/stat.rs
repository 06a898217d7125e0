//! Layer 1 — the statistical test kit.
//!
//! Goodness-of-fit checks over tn-rng-sampled histograms versus analytic
//! PDFs, plus Poisson counting-coverage checks for the Tin-II detector and
//! the beamline cross-section estimator. Every check runs on a fixed seed,
//! so the statistic — and therefore the verdict — is fully deterministic.
//! One check uses no draws at all: `garwood_reference` holds the Garwood
//! intervals and chi-square quantiles to published table values.
//!
//! ## Method
//!
//! All shape checks go through the probability-integral transform: each
//! sample `x` is mapped to `u = F(x)` under the claimed CDF, and the `u`
//! values are tested for uniformity.
//!
//! * **Chi-square**: `u` values are binned into `k` equiprobable bins
//!   (expected `n/k` each); the statistic is compared against the
//!   chi-square quantile at `q = 0.999` with `k − 1` degrees of freedom
//!   (α = 10⁻³ — generous because the draws are frozen; the injected-bug
//!   self-test shows the margin is still tiny next to a real defect).
//! * **Kolmogorov–Smirnov**: `D = sup |ECDF(u) − u|` against the
//!   asymptotic critical value `c(α)/√n` with `c(α) = √(−ln(α/2)/2)`
//!   (Kolmogorov), also at α = 10⁻³ (`c ≈ 1.9495`).
//!
//! CDFs are closed-form where one exists — exponential `1 − e^(−x)`, 1/E
//! `ln(E/lo)/ln(hi/lo)`, flux-weighted Maxwellian (a Gamma(2, kT))
//! `1 − (1 + E/kT)·e^(−E/kT)` — and numeric (log-grid trapezoid over
//! [`Shape::density`]) for the Watt tail, which has no elementary CDF.

use crate::report::CheckResult;
use tn_detector::TinII;
use tn_environment::{Environment, Location, Surroundings, Weather};
use tn_physics::constants::ROOM_TEMPERATURE;
use tn_physics::stats::{chi_square_quantile, poisson, PoissonInterval};
use tn_physics::units::{Energy, Flux, Seconds};
use tn_physics::{Shape, Spectrum};
use tn_rng::Rng;

/// Sample/trial counts for the statistical suite.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StatConfig {
    /// Samples per goodness-of-fit check.
    pub samples: usize,
    /// Trials per coverage check.
    pub trials: usize,
    /// Equiprobable bins for chi-square checks.
    pub bins: usize,
}

impl StatConfig {
    /// Full-statistics profile.
    pub fn full() -> Self {
        Self {
            samples: 20_000,
            trials: 1_500,
            bins: 64,
        }
    }

    /// Reduced profile for `verify --quick`.
    pub fn quick() -> Self {
        Self {
            samples: 4_000,
            trials: 300,
            bins: 32,
        }
    }
}

/// Significance level shared by the GOF checks (see module docs).
pub const GOF_ALPHA: f64 = 1e-3;

/// Chi-square goodness-of-fit of `sampler` draws against `cdf`, using
/// `bins` equiprobable bins via the probability-integral transform.
pub fn chi_square_gof(
    suite: &'static str,
    name: impl Into<String>,
    rng: &mut Rng,
    n: usize,
    mut sampler: impl FnMut(&mut Rng) -> f64,
    cdf: impl Fn(f64) -> f64,
    bins: usize,
) -> CheckResult {
    assert!(bins >= 2 && n >= 10 * bins, "need >=10 expected per bin");
    let mut counts = vec![0u64; bins];
    for _ in 0..n {
        let u = cdf(sampler(rng)).clamp(0.0, 1.0);
        let b = ((u * bins as f64) as usize).min(bins - 1);
        counts[b] += 1;
    }
    let expected = n as f64 / bins as f64;
    let statistic: f64 = counts
        .iter()
        .map(|&c| {
            let d = c as f64 - expected;
            d * d / expected
        })
        .sum();
    let threshold = chi_square_quantile(1.0 - GOF_ALPHA, (bins - 1) as f64);
    CheckResult::from_statistic(
        suite,
        name,
        statistic,
        threshold,
        n as u64,
        format!("chi-square, {bins} equiprobable bins, alpha={GOF_ALPHA}"),
    )
}

/// Kolmogorov–Smirnov goodness-of-fit of `sampler` draws against `cdf`.
pub fn ks_gof(
    suite: &'static str,
    name: impl Into<String>,
    rng: &mut Rng,
    n: usize,
    mut sampler: impl FnMut(&mut Rng) -> f64,
    cdf: impl Fn(f64) -> f64,
) -> CheckResult {
    assert!(n >= 100, "KS needs enough samples for the asymptotic critical value");
    let mut us: Vec<f64> = (0..n).map(|_| cdf(sampler(rng)).clamp(0.0, 1.0)).collect();
    us.sort_by(|a, b| a.total_cmp(b));
    let nf = n as f64;
    let mut d = 0.0f64;
    for (i, &u) in us.iter().enumerate() {
        // D = max over samples of the larger one-sided deviation.
        let d_plus = (i + 1) as f64 / nf - u;
        let d_minus = u - i as f64 / nf;
        d = d.max(d_plus).max(d_minus);
    }
    let c_alpha = (-(GOF_ALPHA / 2.0).ln() / 2.0).sqrt();
    let threshold = c_alpha / nf.sqrt();
    CheckResult::from_statistic(
        suite,
        name,
        d,
        threshold,
        n as u64,
        format!("Kolmogorov-Smirnov, c(alpha)={c_alpha:.4}, alpha={GOF_ALPHA}"),
    )
}

/// Closed-form CDF of the flux-weighted Maxwellian (Gamma(2, kT)):
/// `F(E) = 1 − (1 + E/kT)·e^(−E/kT)`.
pub fn maxwellian_cdf(kt_ev: f64) -> impl Fn(f64) -> f64 {
    move |e: f64| {
        let x = (e / kt_ev).max(0.0);
        1.0 - (1.0 + x) * (-x).exp()
    }
}

/// A numeric CDF built by log-grid trapezoid quadrature over a density.
///
/// Used where no elementary CDF exists (the Watt evaporation tail).
#[derive(Debug, Clone)]
pub struct NumericCdf {
    grid: Vec<f64>,
    cum: Vec<f64>,
}

impl NumericCdf {
    /// Integrates `density` on an `n`-point log grid over `[lo, hi]` and
    /// normalises the cumulative to 1.
    ///
    /// # Panics
    ///
    /// Panics on non-positive or non-increasing bounds, or if the density
    /// integrates to zero.
    pub fn from_density(lo: f64, hi: f64, n: usize, density: impl Fn(f64) -> f64) -> Self {
        assert!(lo > 0.0 && hi > lo, "bounds must be positive and increasing");
        assert!(n >= 2, "need at least two grid points");
        let (llo, lhi) = (lo.ln(), hi.ln());
        let grid: Vec<f64> = (0..n)
            .map(|i| (llo + (lhi - llo) * i as f64 / (n - 1) as f64).exp())
            .collect();
        let mut cum = vec![0.0; n];
        for i in 1..n {
            let step = 0.5
                * (density(grid[i - 1]) + density(grid[i]))
                * (grid[i] - grid[i - 1]);
            cum[i] = cum[i - 1] + step;
        }
        let total = cum[n - 1];
        assert!(total > 0.0, "density integrates to zero over the grid");
        for c in &mut cum {
            *c /= total;
        }
        Self { grid, cum }
    }

    /// CDF value at `x`, linearly interpolated; clamps outside the grid.
    pub fn eval(&self, x: f64) -> f64 {
        if x <= self.grid[0] {
            return 0.0;
        }
        if x >= *self.grid.last().unwrap() {
            return 1.0;
        }
        let i = self.grid.partition_point(|&g| g < x);
        let (x0, x1) = (self.grid[i - 1], self.grid[i]);
        let (c0, c1) = (self.cum[i - 1], self.cum[i]);
        c0 + (c1 - c0) * (x - x0) / (x1 - x0)
    }
}

fn single_component(shape: Shape) -> Spectrum {
    Spectrum::named("verify").with(shape, Flux(1.0))
}

/// Samples from the production Maxwellian sampler (via
/// [`Spectrum::sample_energy`]) in eV.
pub fn maxwellian_sampler() -> impl FnMut(&mut Rng) -> f64 {
    let s = single_component(Shape::Maxwellian {
        temperature: ROOM_TEMPERATURE,
    });
    move |rng: &mut Rng| s.sample_energy(rng).value()
}

/// A deliberately broken Maxwellian sampler: draws a *single* exponential
/// (Gamma(1, kT)) instead of the Gamma(2, kT) flux spectrum. Used by the
/// self-test to prove the GOF layer detects a spectral-sampling bug.
pub fn buggy_maxwellian_sampler() -> impl FnMut(&mut Rng) -> f64 {
    let kt = Energy::thermal_at(ROOM_TEMPERATURE).value();
    move |rng: &mut Rng| {
        let u: f64 = rng.gen_f64().max(f64::MIN_POSITIVE);
        -kt * u.ln()
    }
}

/// kT of the room-temperature Maxwellian used by the spectral checks, eV.
pub fn room_kt_ev() -> f64 {
    Energy::thermal_at(ROOM_TEMPERATURE).value()
}

fn coverage_deficit(covered: usize, trials: usize, confidence: f64) -> f64 {
    let coverage = covered as f64 / trials as f64;
    (confidence - coverage).max(0.0)
}

/// Allowed coverage shortfall below the nominal confidence level.
///
/// Garwood intervals are conservative (true coverage ≥ 95 %), so the only
/// slack needed is binomial noise on the trial count; 0.03 is > 3σ even
/// for the quick profile's 300 trials.
pub const COVERAGE_SLACK: f64 = 0.03;

fn coverage_result(
    name: impl Into<String>,
    covered: usize,
    trials: usize,
    detail: impl Into<String>,
) -> CheckResult {
    CheckResult::from_statistic(
        "stat",
        name,
        coverage_deficit(covered, trials, 0.95),
        COVERAGE_SLACK,
        trials as u64,
        detail,
    )
}

/// Garwood 95 % interval coverage under repeated Poisson draws, across
/// small / medium / large means.
pub fn poisson_coverage_check(rng: &mut Rng, trials: usize) -> CheckResult {
    let means = [3.7, 42.0, 730.0];
    let mut covered = 0;
    let total = trials * means.len();
    for &mean in &means {
        for _ in 0..trials {
            let k = poisson(rng, mean);
            let ci = PoissonInterval::ninety_five(k);
            if ci.lower <= mean && mean <= ci.upper {
                covered += 1;
            }
        }
    }
    coverage_result(
        "poisson.coverage",
        covered,
        total,
        "Garwood 95% CI coverage over means {3.7, 42, 730}",
    )
}

/// Tin-II hourly bare counts: Poisson coverage against the analytically
/// known expected rate of the bare tube in a fixed environment.
pub fn tinii_coverage_check(rng: &mut Rng, trials: usize) -> CheckResult {
    let env = Environment::new(
        Location::los_alamos(),
        Weather::Sunny,
        Surroundings::concrete_floor(),
    );
    // Pin the fast/thermal ratio explicitly so the expected rate below
    // uses exactly the fluxes count_series feeds the tubes.
    let ratio = 15.0;
    let det = TinII::new().with_fast_to_thermal_ratio(ratio);
    let thermal = env.thermal_flux();
    let fast = thermal * ratio;
    let mean = det.bare().expected_rate(thermal, fast) * 3600.0;
    let hours = trials.max(24);
    let series = det.count_series(
        &env,
        Seconds::from_days(hours as f64 / 24.0),
        1.0,
        0.0,
        rng,
    );
    let covered = series
        .iter()
        .filter(|s| {
            let ci = PoissonInterval::ninety_five(s.bare);
            ci.lower <= mean && mean <= ci.upper
        })
        .count();
    coverage_result(
        "tinii.coverage",
        covered,
        series.len(),
        format!("bare-tube hourly counts vs expected mean {mean:.1}"),
    )
}

/// Beamline estimator: `MeasuredCrossSection::from_counts` CI coverage of
/// the true cross section under Poisson-drawn counts.
pub fn beamline_coverage_check(rng: &mut Rng, trials: usize) -> CheckResult {
    use tn_beamline::MeasuredCrossSection;
    let sigma = 2.0e-14; // cm², a typical SDC cross section in the study
    let fluence = 5.0e15; // n/cm² → mean count 100
    let mut covered = 0;
    for _ in 0..trials {
        let k = poisson(rng, sigma * fluence);
        let m = MeasuredCrossSection::from_counts(k, fluence);
        if m.ci.0 <= sigma && sigma <= m.ci.1 {
            covered += 1;
        }
    }
    coverage_result(
        "beamline.coverage",
        covered,
        trials,
        "cross-section CI coverage at sigma=2e-14 cm^2, fluence=5e15",
    )
}

/// Published 95 % Garwood limits `(k, lower, upper)`, as tables print
/// them to four decimals.
const GARWOOD_95_TABLE: [(u64, f64, f64); 3] =
    [(0, 0.0, 3.6889), (1, 0.0253, 5.5716), (10, 4.7954, 18.3904)];

/// Published chi-square quantiles `(p, dof, quantile, printed decimals)`.
const CHI_SQUARE_TABLE: [(f64, f64, f64, i32); 3] = [
    (0.95, 1.0, 3.8415, 4),
    (0.95, 10.0, 18.3070, 4),
    (0.99, 100.0, 135.807, 3),
];

/// The counting statistics against numbers this code did not produce:
/// Garwood intervals and chi-square quantiles from published tables.
/// The statistic is the worst miss in units of half the table's last
/// printed digit, so it passes (≤ 1) when every computed value rounds to
/// the printed one.
fn garwood_reference_check() -> CheckResult {
    let miss = |got: f64, printed: f64, decimals: i32| {
        (got - printed).abs() / (0.5 * 10f64.powi(-decimals))
    };
    let mut worst = 0.0f64;
    for (k, lower, upper) in GARWOOD_95_TABLE {
        let ci = PoissonInterval::ninety_five(k);
        worst = worst
            .max(miss(ci.lower, lower, 4))
            .max(miss(ci.upper, upper, 4));
    }
    for (p, dof, quantile, decimals) in CHI_SQUARE_TABLE {
        worst = worst.max(miss(chi_square_quantile(p, dof), quantile, decimals));
    }
    CheckResult::from_statistic(
        "stat",
        "garwood_reference",
        worst,
        1.0,
        (2 * GARWOOD_95_TABLE.len() + CHI_SQUARE_TABLE.len()) as u64,
        "95% Garwood limits for k in {0, 1, 10} and chi-square quantiles vs published tables, \
         in half units of the last printed digit",
    )
}

/// Runs the whole statistical suite on forked substreams of `seed`.
pub fn run_suite(seed: u64, config: StatConfig) -> Vec<CheckResult> {
    let base = Rng::seed_from_u64(seed);
    let kt = room_kt_ev();
    let mut checks = Vec::new();

    checks.push(chi_square_gof(
        "stat",
        "maxwellian.chi2",
        &mut base.fork(1),
        config.samples,
        maxwellian_sampler(),
        maxwellian_cdf(kt),
        config.bins,
    ));
    checks.push(ks_gof(
        "stat",
        "maxwellian.ks",
        &mut base.fork(2),
        config.samples,
        maxwellian_sampler(),
        maxwellian_cdf(kt),
    ));

    // Watt evaporation tail (ChipIR-like fast spectrum): no elementary
    // CDF, so chi-square against the numeric CDF of Shape::density.
    let watt = Shape::Watt {
        a: Energy::from_mev(1.0),
        b_inv_ev: 1e-6,
    };
    let watt_cdf = NumericCdf::from_density(1e2, 1e8, 3000, |e| watt.density(Energy(e)));
    let watt_spectrum = single_component(watt);
    checks.push(chi_square_gof(
        "stat",
        "watt.chi2",
        &mut base.fork(3),
        config.samples,
        move |rng| watt_spectrum.sample_energy(rng).value(),
        |e| watt_cdf.eval(e),
        config.bins,
    ));

    // 1/E epithermal joining region: closed-form CDF ln(E/lo)/ln(hi/lo).
    let (lo, hi) = (0.5, 1.0e6);
    let epi = single_component(Shape::OneOverE {
        lo: Energy(lo),
        hi: Energy(hi),
    });
    checks.push(ks_gof(
        "stat",
        "one_over_e.ks",
        &mut base.fork(4),
        config.samples,
        move |rng| epi.sample_energy(rng).value(),
        move |e| ((e / lo).ln() / (hi / lo).ln()).clamp(0.0, 1.0),
    ));

    // Exponential free-flight lengths (the transport kernel's ziggurat
    // sampler) against 1 − e^(−x).
    checks.push(ks_gof(
        "stat",
        "free_flight.ks",
        &mut base.fork(5),
        config.samples,
        |rng| rng.gen_exp(),
        |x| 1.0 - (-x).exp(),
    ));

    checks.push(poisson_coverage_check(&mut base.fork(6), config.trials));
    checks.push(tinii_coverage_check(&mut base.fork(7), config.trials));
    checks.push(beamline_coverage_check(&mut base.fork(8), config.trials));
    checks.push(garwood_reference_check());
    checks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_cdf_matches_closed_form_exponential() {
        let cdf = NumericCdf::from_density(1e-4, 50.0, 4000, |x| (-x).exp());
        for x in [0.1f64, 0.5, 1.0, 2.0, 5.0] {
            let exact = 1.0 - (-x).exp();
            assert!(
                (cdf.eval(x) - exact).abs() < 1e-3,
                "x={x}: {} vs {exact}",
                cdf.eval(x)
            );
        }
        assert_eq!(cdf.eval(0.0), 0.0);
        assert_eq!(cdf.eval(100.0), 1.0);
    }

    #[test]
    fn garwood_reference_values_round_to_the_tables() {
        let check = garwood_reference_check();
        assert!(check.passed, "{check:?}");
        assert_eq!(check.cases, 9);
    }

    #[test]
    fn maxwellian_cdf_limits_and_median() {
        let cdf = maxwellian_cdf(1.0);
        assert!(cdf(0.0).abs() < 1e-12);
        assert!(cdf(50.0) > 0.999_999);
        // Gamma(2,1) median ≈ 1.6783.
        assert!((cdf(1.6783) - 0.5).abs() < 1e-4);
    }

    #[test]
    fn uniform_samples_pass_both_gof_tests() {
        let mut rng = Rng::seed_from_u64(99);
        let chi = chi_square_gof(
            "stat",
            "uniform.chi2",
            &mut rng,
            5000,
            |r| r.gen_f64(),
            |x| x,
            25,
        );
        assert!(chi.passed, "{chi:?}");
        let ks = ks_gof("stat", "uniform.ks", &mut rng, 5000, |r| r.gen_f64(), |x| x);
        assert!(ks.passed, "{ks:?}");
    }

    #[test]
    fn squared_uniform_fails_both_gof_tests() {
        // u² is Beta(1/2,1)-distributed; claiming it is uniform must fail.
        let mut rng = Rng::seed_from_u64(7);
        let chi = chi_square_gof(
            "stat",
            "biased.chi2",
            &mut rng,
            5000,
            |r| {
                let u = r.gen_f64();
                u * u
            },
            |x| x,
            25,
        );
        assert!(!chi.passed, "{chi:?}");
        let ks = ks_gof(
            "stat",
            "biased.ks",
            &mut rng,
            5000,
            |r| {
                let u = r.gen_f64();
                u * u
            },
            |x| x,
        );
        assert!(!ks.passed, "{ks:?}");
    }

    #[test]
    fn buggy_maxwellian_sampler_is_detected() {
        let mut rng = Rng::seed_from_u64(2020);
        let check = chi_square_gof(
            "selftest",
            "maxwellian.injected_bug",
            &mut rng,
            4000,
            buggy_maxwellian_sampler(),
            maxwellian_cdf(room_kt_ev()),
            32,
        );
        assert!(
            !check.passed,
            "Gamma(1) sampler must fail the Gamma(2) GOF: {check:?}"
        );
        // Not a marginal failure: an injected shape bug blows far past the
        // critical value.
        assert!(check.statistic > 5.0 * check.threshold, "{check:?}");
    }

    #[test]
    fn quick_suite_is_deterministic_and_green() {
        let a = run_suite(2020, StatConfig::quick());
        let b = run_suite(2020, StatConfig::quick());
        assert_eq!(a, b);
        for c in &a {
            assert!(c.passed, "{c:?}");
        }
        assert_eq!(a.len(), 9);
    }
}
