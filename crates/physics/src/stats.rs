//! Counting statistics: exact (Garwood) Poisson confidence intervals and
//! the special functions needed to compute them.
//!
//! The paper reports cross sections "with error bars considering Poisson's
//! 95% confidence interval"; every simulated campaign does the same.

use tn_rng::Rng;

/// Draws from a Poisson distribution (Knuth's product method for small
/// means, normal approximation above 30 — accurate to well under the
/// counting noise of any campaign).
///
/// # Panics
///
/// Panics if `mean` is negative or not finite.
pub fn poisson(rng: &mut Rng, mean: f64) -> u64 {
    assert!(
        mean >= 0.0 && mean.is_finite(),
        "Poisson mean must be non-negative and finite, got {mean}"
    );
    if mean == 0.0 {
        return 0;
    }
    if mean < 30.0 {
        let l = (-mean).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= rng.gen_f64();
            if p <= l {
                return k;
            }
            k += 1;
        }
    } else {
        let u1: f64 = rng.gen_f64().max(f64::MIN_POSITIVE);
        let u2: f64 = rng.gen_f64();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        (mean + z * mean.sqrt()).max(0.0).round() as u64
    }
}

/// The error function, via the regularized incomplete gamma identity
/// erf(x) = sign(x)·P(1/2, x²). Accurate to ~1e-12.
pub fn erf(x: f64) -> f64 {
    if x == 0.0 {
        return 0.0;
    }
    let p = reg_lower_gamma(0.5, x * x);
    if x > 0.0 {
        p
    } else {
        -p
    }
}

/// Natural log of the gamma function, Lanczos approximation (g = 7, n = 9).
///
/// Accurate to ~1e-13 for `x > 0`.
///
/// # Panics
///
/// Panics if `x <= 0`.
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma requires x > 0, got {x}");
    // Published Lanczos coefficients, kept digit-for-digit verbatim.
    #[allow(clippy::excessive_precision, clippy::inconsistent_digit_grouping)]
    const COEFFS: [f64; 9] = [
        0.999_999_999_999_809_93,
        676.520_368_121_885_1,
        -1259.139_216_722_402_8,
        771.323_428_777_653_13,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_571_6e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula keeps the series in its accurate range.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEFFS[0];
    let t = x + 7.5;
    for (i, &c) in COEFFS.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Shape parameter from which [`reg_lower_gamma`] integrates the density
/// by quadrature instead of summing the series or continued fraction.
const QUADRATURE_MIN_A: f64 = 100.0;

/// Positive Gauss–Legendre nodes and weights of the 18-point rule on
/// `[-1, 1]`; the rule is symmetric, so each pair stands for `±node`.
#[allow(clippy::excessive_precision)]
const GAUSS_LEGENDRE_18: [(f64, f64); 9] = [
    (0.084_775_013_041_735_301_242, 0.169_142_382_963_143_591_84),
    (0.251_886_225_691_505_509_59, 0.164_276_483_745_832_722_99),
    (0.411_751_161_462_842_646_04, 0.154_684_675_126_265_244_93),
    (0.559_770_831_073_947_534_61, 0.140_642_914_670_650_651_20),
    (0.691_687_043_060_353_207_87, 0.122_555_206_711_478_460_18),
    (0.803_704_958_972_523_115_68, 0.100_942_044_106_287_165_56),
    (0.892_602_466_497_555_739_21, 0.076_425_730_254_889_056_529),
    (0.955_823_949_571_397_755_18, 0.049_714_548_894_969_796_453),
    (0.991_565_168_420_930_946_73, 0.021_616_013_526_483_310_313),
];

/// Regularized lower incomplete gamma function P(a, x) = γ(a,x)/Γ(a).
///
/// For `a < 100`: series expansion for `x < a + 1`, continued fraction
/// otherwise (Numerical Recipes style). For `a ≥ 100`: 18-point
/// Gauss–Legendre quadrature of the density over the tail `x` lies in
/// (after Numerical Recipes 3e `gammpapprox`), whose cost does not grow
/// with `a` as the series' and continued fraction's do.
///
/// # Panics
///
/// Panics if `a <= 0` or `x < 0`.
pub fn reg_lower_gamma(a: f64, x: f64) -> f64 {
    assert!(a > 0.0, "reg_lower_gamma requires a > 0");
    assert!(x >= 0.0, "reg_lower_gamma requires x >= 0");
    reg_gamma_pq(a, x).0
}

/// `(P(a,x), Q(a,x))` with the smaller tail computed directly and the
/// other as its complement, so a far-tail probability keeps its full
/// relative precision.
fn reg_gamma_pq(a: f64, x: f64) -> (f64, f64) {
    if x == 0.0 {
        return (0.0, 1.0);
    }
    if a >= QUADRATURE_MIN_A {
        return gamma_quadrature(a, x);
    }
    let lg = ln_gamma(a);
    if x < a + 1.0 {
        // Series: P(a,x) = x^a e^-x / Γ(a) * Σ x^n Γ(a)/Γ(a+1+n)
        let mut term = 1.0 / a;
        let mut sum = term;
        let mut ap = a;
        for _ in 0..500 {
            ap += 1.0;
            term *= x / ap;
            sum += term;
            if term.abs() < sum.abs() * 1e-15 {
                break;
            }
        }
        let p = sum * (a * x.ln() - x - lg).exp();
        (p, 1.0 - p)
    } else {
        // Continued fraction for Q(a,x).
        let tiny = 1e-300;
        let mut b = x + 1.0 - a;
        let mut c = 1.0 / tiny;
        let mut d = 1.0 / b;
        let mut h = d;
        for i in 1..500 {
            let an = -(i as f64) * (i as f64 - a);
            b += 2.0;
            d = an * d + b;
            if d.abs() < tiny {
                d = tiny;
            }
            c = b + an / c;
            if c.abs() < tiny {
                c = tiny;
            }
            d = 1.0 / d;
            let del = d * c;
            h *= del;
            if (del - 1.0).abs() < 1e-15 {
                break;
            }
        }
        let q = (a * x.ln() - x - lg).exp() * h;
        (1.0 - q, q)
    }
}

/// `(P, Q)` for `a ≥ 100` by Gauss–Legendre quadrature of the density
/// from `x` to a point far enough into its own tail (11.5σ past the mode
/// on the right, 7.5σ on the left, or 6σ / 5σ past `x` if that is
/// further) that the neglected mass is below double precision.
///
/// The range is split into two 18-point panels: one panel over the whole
/// range, as in Numerical Recipes, leaves errors up to ~1e-9 in P when
/// `x` is within a σ of the mode.
fn gamma_quadrature(a: f64, x: f64) -> (f64, f64) {
    let density = LargeShapeDensity::new(a);
    let mode = a - 1.0;
    let sigma = mode.sqrt();
    let upper_tail = x > mode;
    let end = if upper_tail {
        (mode + 11.5 * sigma).max(x + 6.0 * sigma)
    } else {
        (mode - 7.5 * sigma).min(x - 5.0 * sigma).max(0.0)
    };
    // Each panel is mid ± half·node; the two panels share the range's midpoint.
    let half = 0.25 * (end - x);
    let mut sum = 0.0;
    for mid in [x + half, end - half] {
        for &(node, weight) in &GAUSS_LEGENDRE_18 {
            sum += weight * (density.at(mid - half * node) + density.at(mid + half * node));
        }
    }
    let tail = (sum * half).abs();
    if upper_tail {
        (1.0 - tail, tail)
    } else {
        (tail, 1.0 - tail)
    }
}

/// The Gamma(a, 1) density for large `a`, written about its mode
/// `m = a − 1` so that no large logarithms cancel:
/// `x^m e^-x / Γ(a) = exp(m·ln(1 + d/m) − d) / (√(2πm)·e^c(m))` with
/// `d = x − m` and `c` the Stirling-series remainder of `ln Γ(m + 1)`.
struct LargeShapeDensity {
    mode: f64,
    ln_norm: f64,
}

impl LargeShapeDensity {
    fn new(a: f64) -> Self {
        let m = a - 1.0;
        let m2 = m * m;
        let stirling =
            (1.0 / 12.0 - (1.0 / 360.0 - (1.0 / 1260.0 - 1.0 / (1680.0 * m2)) / m2) / m2) / m;
        Self {
            mode: m,
            ln_norm: -0.5 * (2.0 * std::f64::consts::PI * m).ln() - stirling,
        }
    }

    fn at(&self, x: f64) -> f64 {
        let d = x - self.mode;
        (self.mode * (d / self.mode).ln_1p() - d + self.ln_norm).exp()
    }
}

/// The Gamma(a, 1) density at `x > 0`, the derivative of P(a, x).
fn gamma_density(a: f64, x: f64) -> f64 {
    if a >= QUADRATURE_MIN_A {
        LargeShapeDensity::new(a).at(x)
    } else {
        ((a - 1.0) * x.ln() - x - ln_gamma(a)).exp()
    }
}

/// Standard-normal quantile to about 4.5e-4 (Abramowitz & Stegun
/// 26.2.23) — only a starting point for [`chi_square_quantile`].
fn rough_normal_quantile(p: f64) -> f64 {
    let tail = p.min(1.0 - p);
    let t = (-2.0 * tail.ln()).sqrt();
    let z = t
        - (2.515_517 + t * (0.802_853 + t * 0.010_328))
            / (1.0 + t * (1.432_788 + t * (0.189_269 + t * 0.001_308)));
    if p < 0.5 {
        -z
    } else {
        z
    }
}

/// Quantile of the chi-square distribution with `k` degrees of freedom.
///
/// Solves P(k/2, x/2) = p by Halley's method from a Wilson–Hilferty
/// start, stopping once a step is below 1e-13 of `x`. Above the median
/// it solves Q(k/2, x/2) = 1 − p instead, so upper quantiles are not
/// limited by the spacing of doubles near 1.
///
/// # Panics
///
/// Panics if `k <= 0` or `p` is outside `(0, 1)`.
pub fn chi_square_quantile(p: f64, k: f64) -> f64 {
    assert!(k > 0.0, "degrees of freedom must be positive");
    assert!(p > 0.0 && p < 1.0, "p must be in (0,1), got {p}");
    let a = 0.5 * k;
    let upper = p > 0.5;
    // Wilson–Hilferty: (X/a)^(1/3) is nearly normal with mean 1 − 1/(9a)
    // and variance 1/(9a). It fails in the lower tail of small `a`, where
    // the root of P(a,x) ≤ x^a/Γ(a+1), a lower bound on the quantile,
    // takes over.
    let wh = 1.0 - 1.0 / (9.0 * a) + rough_normal_quantile(p) / (3.0 * a.sqrt());
    let floor = ((p.ln() + ln_gamma(a + 1.0)) / a).exp();
    let mut x = (a * wh.max(0.0).powi(3)).max(floor);
    for _ in 0..100 {
        let (lower_tail, upper_tail) = reg_gamma_pq(a, x);
        let err = if upper {
            (1.0 - p) - upper_tail
        } else {
            lower_tail - p
        };
        // Halley on the CDF, whose second derivative over its first is the
        // density's log-derivative (a − 1)/x − 1. The correction is capped
        // so a step is at most twice Newton's; where a step would not
        // keep x > 0, x is halved instead.
        let u = err / gamma_density(a, x);
        let step = u / (1.0 - 0.5 * (u * ((a - 1.0) / x - 1.0)).min(1.0));
        x = if step < x { x - step } else { 0.5 * x };
        if step.abs() < 1e-13 * x {
            break;
        }
    }
    2.0 * x
}

/// An exact (Garwood) Poisson confidence interval on a mean count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoissonInterval {
    /// Observed count.
    pub observed: u64,
    /// Lower bound of the mean.
    pub lower: f64,
    /// Upper bound of the mean.
    pub upper: f64,
    /// Confidence level, e.g. 0.95.
    pub confidence: f64,
}

impl PoissonInterval {
    /// Computes the exact two-sided interval for an observed count.
    ///
    /// Garwood (1936): lower = χ²(α/2, 2k)/2, upper = χ²(1−α/2, 2k+2)/2,
    /// with lower = 0 when `k = 0`.
    ///
    /// # Panics
    ///
    /// Panics if `confidence` is outside `(0, 1)`.
    pub fn exact(observed: u64, confidence: f64) -> Self {
        assert!(
            confidence > 0.0 && confidence < 1.0,
            "confidence must be in (0,1)"
        );
        let alpha = 1.0 - confidence;
        let k = observed as f64;
        let lower = if observed == 0 {
            0.0
        } else {
            0.5 * chi_square_quantile(alpha / 2.0, 2.0 * k)
        };
        let upper = 0.5 * chi_square_quantile(1.0 - alpha / 2.0, 2.0 * k + 2.0);
        Self {
            observed,
            lower,
            upper,
            confidence,
        }
    }

    /// The conventional 95 % interval used throughout the paper.
    pub fn ninety_five(observed: u64) -> Self {
        Self::exact(observed, 0.95)
    }

    /// Scales the interval by `1/denominator` — e.g. dividing a count
    /// interval by a fluence to get a cross-section interval.
    ///
    /// # Panics
    ///
    /// Panics if `denominator` is not strictly positive.
    pub fn scaled(&self, denominator: f64) -> (f64, f64, f64) {
        assert!(denominator > 0.0, "denominator must be positive");
        (
            self.observed as f64 / denominator,
            self.lower / denominator,
            self.upper / denominator,
        )
    }

    /// Relative half-width (upper−lower)/(2·observed); `None` for zero
    /// counts.
    pub fn relative_half_width(&self) -> Option<f64> {
        if self.observed == 0 {
            None
        } else {
            Some((self.upper - self.lower) / (2.0 * self.observed as f64))
        }
    }
}

/// Online mean/variance accumulator (Welford).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RunningStats {
    n: u64,
    mean: f64,
    m2: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (0 when fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }
}

impl Extend<f64> for RunningStats {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for RunningStats {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = Self::new();
        s.extend(iter);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erf_matches_table_values() {
        for (x, expected) in [
            (0.0, 0.0),
            (0.5, 0.5204998778),
            (1.0, 0.8427007929),
            (2.0, 0.9953222650),
            (-1.0, -0.8427007929),
        ] {
            assert!((erf(x) - expected).abs() < 1e-9, "erf({x})");
        }
    }

    #[test]
    fn erf_is_odd_and_bounded() {
        for x in [0.1, 0.7, 1.3, 2.9] {
            assert!((erf(x) + erf(-x)).abs() < 1e-12);
            assert!(erf(x) < 1.0 && erf(x) > 0.0);
        }
    }

    #[test]
    fn ln_gamma_matches_factorials() {
        for (n, fact) in [(1u32, 1.0f64), (2, 1.0), (3, 2.0), (5, 24.0), (7, 720.0)] {
            assert!(
                (ln_gamma(n as f64) - fact.ln()).abs() < 1e-10,
                "ln_gamma({n})"
            );
        }
    }

    #[test]
    fn ln_gamma_half_is_sqrt_pi() {
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-10);
    }

    #[test]
    fn reg_gamma_limits() {
        assert_eq!(reg_lower_gamma(3.0, 0.0), 0.0);
        assert!(reg_lower_gamma(3.0, 100.0) > 0.999_999);
        // P(1, x) = 1 - e^-x.
        let x = 1.7;
        assert!((reg_lower_gamma(1.0, x) - (1.0 - (-x).exp())).abs() < 1e-12);
    }

    #[test]
    fn gauss_legendre_rule_is_exact_to_degree_35() {
        // ∫₋₁¹ x^n dx = 2/(n+1) for even n; the 18-point rule must hit it
        // for every even degree it is exact for.
        for n in (0..=34).step_by(2) {
            let quad: f64 = GAUSS_LEGENDRE_18
                .iter()
                .map(|&(node, weight)| 2.0 * weight * node.powi(n))
                .sum();
            let exact = 2.0 / f64::from(n + 1);
            assert!(
                (quad - exact).abs() < 1e-15,
                "degree {n}: {quad} vs {exact}"
            );
        }
    }

    #[test]
    fn quantiles_reach_the_far_tails_of_small_and_large_shapes() {
        // χ²₂ has P = 1 − e^(−x/2), so both tails have closed forms.
        for p in [1e-12, 1e-6, 0.3, 0.7, 1.0 - 1e-6] {
            let q = chi_square_quantile(p, 2.0);
            let exact = -2.0 * (-p).ln_1p();
            assert!(
                ((q - exact) / exact).abs() < 1e-13,
                "p = {p}: {q} vs {exact}"
            );
        }
        for k in [0.5, 1.0, 250.0, 2e6] {
            for p in [1e-9, 0.5, 1.0 - 1e-9] {
                let q = chi_square_quantile(p, k);
                let back = reg_lower_gamma(k / 2.0, q / 2.0);
                assert!(
                    q > 0.0 && (back - p).abs() < 1e-12,
                    "k = {k}, p = {p}: {back}"
                );
            }
        }
    }

    #[test]
    fn chi_square_median_of_two_dof() {
        // chi2(2) median = 2 ln 2.
        let q = chi_square_quantile(0.5, 2.0);
        assert!((q - 2.0 * std::f64::consts::LN_2).abs() < 1e-9, "q = {q}");
    }

    #[test]
    fn poisson_interval_zero_count() {
        let ci = PoissonInterval::ninety_five(0);
        assert_eq!(ci.lower, 0.0);
        // Upper bound for 0 observed at 95% two-sided: chi2(0.975, 2)/2 = 3.689.
        assert!((ci.upper - 3.689).abs() < 0.01, "upper = {}", ci.upper);
        assert!(ci.relative_half_width().is_none());
    }

    #[test]
    fn poisson_interval_textbook_values() {
        // Garwood 95% for k=10: (4.795, 18.39).
        let ci = PoissonInterval::ninety_five(10);
        assert!((ci.lower - 4.795).abs() < 0.01, "lower = {}", ci.lower);
        assert!((ci.upper - 18.39).abs() < 0.02, "upper = {}", ci.upper);
    }

    #[test]
    fn poisson_interval_contains_observation() {
        for k in [1u64, 5, 17, 100, 1000] {
            let ci = PoissonInterval::ninety_five(k);
            assert!(ci.lower < k as f64 && (k as f64) < ci.upper, "k = {k}");
        }
    }

    #[test]
    fn poisson_interval_narrows_relatively() {
        let wide = PoissonInterval::ninety_five(4).relative_half_width().unwrap();
        let narrow = PoissonInterval::ninety_five(400)
            .relative_half_width()
            .unwrap();
        assert!(narrow < wide / 5.0);
    }

    #[test]
    fn scaling_divides_all_three() {
        let ci = PoissonInterval::ninety_five(100);
        let (mid, lo, hi) = ci.scaled(1e10);
        assert!((mid - 1e-8).abs() < 1e-20);
        assert!(lo < mid && mid < hi);
    }

    #[test]
    #[should_panic(expected = "denominator must be positive")]
    fn scaling_rejects_zero_denominator() {
        let _ = PoissonInterval::ninety_five(1).scaled(0.0);
    }

    #[test]
    fn running_stats_mean_and_variance() {
        let s: RunningStats = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0].into_iter().collect();
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert!((s.std_dev() - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn running_stats_empty_and_single() {
        let mut s = RunningStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        s.push(3.0);
        assert_eq!(s.mean(), 3.0);
        assert_eq!(s.variance(), 0.0);
    }
}
