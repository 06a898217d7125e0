//! A wrong expected value must fail each workload's run, and the right
//! one must pass it.

mod common;

use perfbench::trace::Tracer;
use perfbench::{fleet, study, transport, Config, Workload};

#[test]
fn study_fails_on_a_wrong_figure5_expectation() {
    let quiet = Tracer::new(false);
    let ok = study::run(1, 0.5, &quiet, &study::Expect::default());
    assert!(ok.correct(), "{:?}", ok.check_failures);
    let wrong = study::Expect {
        phi_over_k20_min: 1e9,
        ..Default::default()
    };
    let bad = study::run(1, 0.5, &quiet, &wrong);
    assert!(!bad.correct());
    assert!(
        bad.check_failures[0].contains("Figure 5"),
        "{:?}",
        bad.check_failures
    );
}

#[test]
fn transport_fails_on_a_wrong_pinned_digest() {
    let quiet = Tracer::new(false);
    let ok = transport::run(0, 0.2, &quiet, &transport::Expect::default());
    assert!(ok.correct(), "{:?}", ok.check_failures);
    let mut wrong = transport::Expect::default();
    wrong.pinned[1].1[0] ^= 1;
    let bad = transport::run(0, 0.2, &quiet, &wrong);
    assert!(!bad.correct());
    assert!(
        bad.check_failures[0].contains("moderation"),
        "{:?}",
        bad.check_failures
    );
}

fn fleet_config(workload: Workload) -> Config {
    Config {
        workload,
        seed: 3,
        seconds: 2.0,
        trace: false,
        server_bin: common::server_bin(),
        out_dir: std::env::temp_dir(),
    }
}

#[test]
fn fleet_hot_fails_on_a_wrong_entry_count() {
    let quiet = Tracer::new(false);
    let config = fleet_config(Workload::FleetHot);
    let ok = fleet::run(&config, &quiet, &fleet::Expect::default()).unwrap();
    assert!(ok.correct(), "{:?}", ok.check_failures);
    let wrong = fleet::Expect {
        entries: 15,
        ..Default::default()
    };
    let bad = fleet::run(&config, &quiet, &wrong).unwrap();
    assert!(!bad.correct());
    assert!(
        bad.check_failures[0].contains("responses failed"),
        "{:?}",
        bad.check_failures
    );
}

#[test]
fn fleet_cold_fails_on_a_wrong_reference_body() {
    let quiet = Tracer::new(false);
    let config = fleet_config(Workload::FleetCold);
    let wrong = fleet::Expect {
        tamper_reference: true,
        ..Default::default()
    };
    let bad = fleet::run(&config, &quiet, &wrong).unwrap();
    assert!(!bad.correct());
    assert!(
        bad.check_failures
            .iter()
            .all(|f| f.contains("in-process handler")),
        "{:?}",
        bad.check_failures
    );
}

#[test]
fn fleet_cold_fails_on_a_wrong_fallback_count() {
    let quiet = Tracer::new(false);
    let config = fleet_config(Workload::FleetCold);
    let wrong = fleet::Expect {
        mc_per_off_grid: 2,
        ..Default::default()
    };
    let bad = fleet::run(&config, &quiet, &wrong).unwrap();
    assert!(!bad.correct());
    assert!(
        bad.check_failures
            .iter()
            .any(|f| f.contains("Monte-Carlo fallbacks")),
        "{:?}",
        bad.check_failures
    );
}
