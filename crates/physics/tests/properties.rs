//! Property-style tests for the physics substrate invariants.
//!
//! Each property draws many random cases from a fixed-seed [`tn_rng::Rng`]
//! generator loop — the same invariants the old proptest suite checked,
//! now bit-reproducible and dependency-free.

use tn_rng::Rng;
use tn_physics::capture::{b10_capture, b10_capture_probability};
use tn_physics::spectrum::{EnergyBand, EnergyGrid, Shape, Spectrum};
use tn_physics::stats::{chi_square_quantile, ln_gamma, reg_lower_gamma, PoissonInterval};
use tn_physics::units::{
    ArealDensity, Barns, CrossSection, Energy, Fluence, Flux, Seconds, Temperature,
};

const CASES: usize = 256;

/// Draws log-uniformly over `[lo, hi]` — the right measure for quantities
/// spanning many decades (energies, fluences, cross sections).
fn log_uniform(rng: &mut Rng, lo: f64, hi: f64) -> f64 {
    10f64.powf(rng.gen_range(lo.log10()..hi.log10()))
}

#[test]
fn one_over_v_is_monotone_decreasing() {
    let mut rng = Rng::seed_from_u64(0x01);
    for _ in 0..CASES {
        let e1 = log_uniform(&mut rng, 1e-4, 1e8);
        let factor = rng.gen_range(1.01..1e3);
        let lo = b10_capture(Energy(e1));
        let hi = b10_capture(Energy(e1 * factor));
        assert!(hi.value() < lo.value());
    }
}

#[test]
fn capture_probability_is_a_probability() {
    let mut rng = Rng::seed_from_u64(0x02);
    for _ in 0..CASES {
        let n = log_uniform(&mut rng, 1e10, 1e24);
        let e = log_uniform(&mut rng, 1e-4, 1e9);
        let p = b10_capture_probability(ArealDensity(n), Energy(e));
        assert!((0.0..=1.0).contains(&p));
    }
}

#[test]
fn capture_probability_monotone_in_doping() {
    let mut rng = Rng::seed_from_u64(0x03);
    for _ in 0..CASES {
        let n = log_uniform(&mut rng, 1e10, 1e22);
        let mult = rng.gen_range(1.1..100.0);
        let e = Energy(0.0253);
        let p1 = b10_capture_probability(ArealDensity(n), e);
        let p2 = b10_capture_probability(ArealDensity(n * mult), e);
        assert!(p2 >= p1);
    }
}

#[test]
fn band_of_energy_is_consistent_with_edges() {
    let mut rng = Rng::seed_from_u64(0x04);
    for _ in 0..CASES {
        let e = log_uniform(&mut rng, 1e-4, 1e9);
        let band = EnergyBand::of(Energy(e));
        let (lo, hi) = band.edges();
        assert!(e >= lo.value() && e < hi.value());
    }
}

#[test]
fn fluence_scales_linearly_with_time() {
    let mut rng = Rng::seed_from_u64(0x05);
    for _ in 0..CASES {
        let flux = log_uniform(&mut rng, 1e-3, 1e8);
        let hours = rng.gen_range(0.01..1e4);
        let f1 = Flux(flux).over(Seconds::from_hours(hours));
        let f2 = Flux(flux).over(Seconds::from_hours(2.0 * hours));
        assert!((f2.value() - 2.0 * f1.value()).abs() <= 1e-9 * f2.value());
    }
}

#[test]
fn expected_events_commute() {
    let mut rng = Rng::seed_from_u64(0x06);
    for _ in 0..CASES {
        let sigma = log_uniform(&mut rng, 1e-20, 1e-5);
        let fluence = log_uniform(&mut rng, 1.0, 1e14);
        let a = CrossSection(sigma) * Fluence(fluence);
        let b = Fluence(fluence) * CrossSection(sigma);
        assert_eq!(a, b);
    }
}

#[test]
fn barns_round_trip() {
    let mut rng = Rng::seed_from_u64(0x07);
    for _ in 0..CASES {
        let b = log_uniform(&mut rng, 1e-6, 1e6);
        let back = Barns(b).to_cross_section().to_barns();
        assert!((back.value() - b).abs() < 1e-9 * b);
    }
}

#[test]
fn ln_gamma_satisfies_recurrence() {
    // Gamma(x+1) = x * Gamma(x).
    let mut rng = Rng::seed_from_u64(0x08);
    for _ in 0..CASES {
        let x = rng.gen_range(0.1..50.0);
        let lhs = ln_gamma(x + 1.0);
        let rhs = x.ln() + ln_gamma(x);
        assert!((lhs - rhs).abs() < 1e-9, "x = {x}: {lhs} vs {rhs}");
    }
}

#[test]
fn reg_gamma_is_monotone_in_x() {
    // Shapes on both sides of a = 100, where the series / continued
    // fraction hand over to quadrature.
    let mut rng = Rng::seed_from_u64(0x09);
    for _ in 0..CASES {
        let a = rng.gen_range(0.5..300.0);
        let x = rng.gen_range(0.0..2.0 * a + 20.0);
        let dx = rng.gen_range(0.01..5.0);
        let p1 = reg_lower_gamma(a, x);
        let p2 = reg_lower_gamma(a, x + dx);
        assert!(p2 >= p1 - 1e-12, "a = {a}, x = {x}: {p1} then {p2}");
    }
}

#[test]
fn reg_gamma_branches_agree_at_the_switch() {
    // The largest double below 100 still takes the series / continued
    // fraction; 100 itself takes quadrature. P moves by ~1e-16 between
    // the two shapes, so any larger gap is a disagreement of the methods.
    let below = f64::from_bits(100f64.to_bits() - 1);
    for i in 0..=240 {
        let x = 40.0 + 0.5 * f64::from(i);
        let (series, quadrature) = (reg_lower_gamma(below, x), reg_lower_gamma(100.0, x));
        assert!(
            (series - quadrature).abs() <= 1e-13,
            "x = {x}: {series} vs {quadrature}"
        );
    }
}

#[test]
fn chi_square_quantile_inverts_cdf() {
    let mut rng = Rng::seed_from_u64(0x0a);
    for _ in 0..CASES {
        let p = rng.gen_range(0.01..0.99);
        let k = log_uniform(&mut rng, 1.0, 2e6);
        let x = chi_square_quantile(p, k);
        let back = reg_lower_gamma(k / 2.0, x / 2.0);
        assert!((back - p).abs() < 1e-12, "p = {p}, k = {k}, back = {back}");
    }
}

#[test]
fn poisson_interval_ordering() {
    let mut rng = Rng::seed_from_u64(0x0b);
    for _ in 0..CASES {
        let k = rng.gen_range(0u64..5000);
        let ci = PoissonInterval::ninety_five(k);
        assert!(ci.lower <= k as f64);
        assert!(ci.upper > k as f64);
        assert!(ci.lower >= 0.0);
    }
}

#[test]
fn poisson_interval_widens_with_confidence() {
    let mut rng = Rng::seed_from_u64(0x0c);
    for _ in 0..CASES {
        let k = rng.gen_range(1u64..1000);
        let c90 = PoissonInterval::exact(k, 0.90);
        let c99 = PoissonInterval::exact(k, 0.99);
        assert!(c99.lower <= c90.lower);
        assert!(c99.upper >= c90.upper);
    }
}

#[test]
fn maxwellian_flux_is_conserved() {
    let mut rng = Rng::seed_from_u64(0x0d);
    for _ in 0..64 {
        let flux = log_uniform(&mut rng, 1.0, 1e7);
        let temp = rng.gen_range(50.0..600.0);
        let s = Spectrum::named("t").with(
            Shape::Maxwellian {
                temperature: Temperature(temp),
            },
            Flux(flux),
        );
        let integral = s.flux_between(Energy(1e-6), Energy(1e3)).value();
        assert!((integral - flux).abs() / flux < 0.02, "integral = {integral}");
    }
}

#[test]
fn lethargy_density_is_nonnegative() {
    let mut rng = Rng::seed_from_u64(0x0e);
    let s = Spectrum::named("t")
        .with(
            Shape::Maxwellian {
                temperature: Temperature(293.0),
            },
            Flux(1.0),
        )
        .with(
            Shape::OneOverE {
                lo: Energy(0.5),
                hi: Energy(1e5),
            },
            Flux(1.0),
        );
    for _ in 0..CASES {
        let e = log_uniform(&mut rng, 1e-4, 1e9);
        assert!(s.lethargy_density(Energy(e)) >= 0.0);
    }
}

#[test]
fn grid_points_are_sorted() {
    let mut rng = Rng::seed_from_u64(0x0f);
    for _ in 0..64 {
        let lo_exp = rng.gen_range(-4.0..2.0);
        let span = rng.gen_range(1.0..10.0);
        let n = rng.gen_range(2usize..200);
        let lo = 10f64.powf(lo_exp);
        let hi = 10f64.powf(lo_exp + span);
        let g = EnergyGrid::log_spaced(Energy(lo), Energy(hi), n);
        assert_eq!(g.len(), n);
        for w in g.points().windows(2) {
            assert!(w[1].value() > w[0].value());
        }
    }
}
