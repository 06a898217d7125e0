//! Checks `PoissonInterval::exact` against an independent reference: the
//! textbook series and continued fraction for the incomplete gamma
//! function, summed until they converge (no term cap), inverted by
//! bisection down to adjacent doubles.
//!
//! The reference evaluates the prefactor `x^a e^-x / Γ(a)` about `x = a`
//! with `ln(1 + u)` and Stirling's series, so no logarithms of size
//! `a·ln a` cancel; with a plain `exp(a·ln x − x − ln Γ(a))` its own
//! error would approach the tolerance at a million counts.

use tn_physics::stats::{ln_gamma, PoissonInterval};

/// `ln(x^a e^-x / Γ(a))`.
fn ln_prefactor(a: f64, x: f64) -> f64 {
    if a < 10.0 {
        return a * x.ln() - x - ln_gamma(a);
    }
    // ln Γ(a) = (a − ½)·ln a − a + ½·ln 2π + 1/(12a) − 1/(360a³) + …
    let a2 = a * a;
    let stirling = (1.0 / 12.0
        - (1.0 / 360.0 - (1.0 / 1260.0 - (1.0 / 1680.0 - 1.0 / (1188.0 * a2)) / a2) / a2) / a2)
        / a;
    let d = x - a;
    a * (d / a).ln_1p() - d + 0.5 * (a / (2.0 * std::f64::consts::PI)).ln() - stirling
}

/// `(P(a,x), Q(a,x))`, the smaller one computed directly.
fn reference_pq(a: f64, x: f64) -> (f64, f64) {
    if x == 0.0 {
        return (0.0, 1.0);
    }
    let scale = ln_prefactor(a, x).exp();
    if x < a + 1.0 {
        let (mut term, mut sum, mut n) = (1.0 / a, 1.0 / a, a);
        while term > sum * 1e-17 {
            n += 1.0;
            term *= x / n;
            sum += term;
        }
        let p = scale * sum;
        (p, 1.0 - p)
    } else {
        // Modified Lentz evaluation of the continued fraction for Q.
        let tiny = 1e-300;
        let mut b = x + 1.0 - a;
        let mut c = 1.0 / tiny;
        let mut d = 1.0 / b;
        let mut h = d;
        let mut i = 1.0;
        loop {
            let an = -i * (i - a);
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
            if (del - 1.0).abs() < 1e-16 {
                break;
            }
            i += 1.0;
        }
        let q = scale * h;
        (1.0 - q, q)
    }
}

/// The `x` with P(a, x) = p, by bisection until the bracket holds
/// adjacent doubles. Above the median it matches Q(a, x) = 1 − p.
fn reference_quantile(a: f64, p: f64) -> f64 {
    let below = |x: f64| {
        let (lower, upper) = reference_pq(a, x);
        if p > 0.5 {
            upper > 1.0 - p
        } else {
            lower < p
        }
    };
    let (mut lo, mut hi) = (0.0, a + 20.0 * a.sqrt() + 50.0);
    assert!(!below(hi), "bracket too small for a = {a}, p = {p}");
    loop {
        let mid = 0.5 * (lo + hi);
        if mid <= lo || mid >= hi {
            return mid;
        }
        if below(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
}

fn relative_error(got: f64, want: f64) -> f64 {
    if want == 0.0 {
        got.abs()
    } else {
        ((got - want) / want).abs()
    }
}

#[test]
fn exact_intervals_match_an_uncapped_reference() {
    const COUNTS: [u64; 16] = [
        0, 1, 2, 3, 5, 10, 30, 99, 100, 101, 300, 1_000, 10_000, 100_000, 275_000, 1_000_000,
    ];
    let mut failures = Vec::new();
    for confidence in [0.9, 0.95, 0.999, 0.999_999] {
        // The same tail probabilities `PoissonInterval::exact` forms.
        let alpha = 1.0 - confidence;
        for k in COUNTS {
            let ci = PoissonInterval::exact(k, confidence);
            let lower = if k == 0 {
                0.0
            } else {
                reference_quantile(k as f64, alpha / 2.0)
            };
            let upper = reference_quantile(k as f64 + 1.0, 1.0 - alpha / 2.0);
            for (bound, got, want) in [("lower", ci.lower, lower), ("upper", ci.upper, upper)] {
                let err = relative_error(got, want);
                if err > 1e-12 {
                    failures.push(format!(
                        "k = {k}, confidence {confidence}: {bound} {got} vs {want} ({err:.1e})"
                    ));
                }
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn reference_reproduces_closed_forms() {
    // k = 0: upper = −ln(α/2); k = 1: lower solves 1 − e^−x = α/2.
    let alpha: f64 = 0.05;
    let upper0 = reference_quantile(1.0, 1.0 - alpha / 2.0);
    assert!(
        relative_error(upper0, -(alpha / 2.0).ln()) < 1e-14,
        "{upper0}"
    );
    let lower1 = reference_quantile(1.0, alpha / 2.0);
    assert!(
        relative_error(lower1, -(-alpha / 2.0).ln_1p()) < 1e-14,
        "{lower1}"
    );
}
