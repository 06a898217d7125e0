//! Pins the CNN fault-injection profiles the study feeds into every
//! beam campaign: the `InjectionStats` of YOLO and MNIST at the study's
//! six seeds, 300 injections each, campaign seed `seed ^ 0xf417`, with
//! the workloads built exactly as the roster builds them.
//!
//! The CNN workloads resume each injection from cached fault-free
//! activations and stop at re-convergence; both are exact, so these
//! counts must never move.

use thermal_neutrons::core_api as tn;
use tn::devices::DeviceKind;
use tn::fault_injection::{InjectionCampaign, InjectionStats};
use tn::workloads_for;

fn profile(kind: DeviceKind, name: &str, seed: u64) -> InjectionStats {
    let workloads = workloads_for(kind, seed);
    let workload = workloads
        .iter()
        .find(|w| w.name() == name)
        .unwrap_or_else(|| panic!("{name} not in the {kind:?} roster"));
    InjectionCampaign::new(workload.as_ref())
        .runs(300)
        .seed(seed ^ 0xf417)
        .execute()
}

/// `(seed, YOLO [masked, sdc, due], MNIST [masked, sdc, due])`.
const PINS: [(u64, [u64; 3], [u64; 3]); 6] = [
    (2020, [259, 41, 0], [275, 25, 0]),
    (2021, [266, 34, 0], [259, 41, 0]),
    (2022, [265, 35, 0], [262, 38, 0]),
    (2023, [266, 34, 0], [260, 40, 0]),
    (2024, [274, 26, 0], [266, 34, 0]),
    (2025, [250, 50, 0], [264, 36, 0]),
];

fn stats([masked, sdc, due]: [u64; 3]) -> InjectionStats {
    InjectionStats { masked, sdc, due }
}

#[test]
fn cnn_injection_stats_are_pinned_at_the_study_seeds() {
    for (seed, yolo, mnist) in PINS {
        assert_eq!(
            profile(DeviceKind::Gpu, "YOLO", seed),
            stats(yolo),
            "YOLO, seed {seed}"
        );
        assert_eq!(
            profile(DeviceKind::Fpga, "MNIST", seed),
            stats(mnist),
            "MNIST, seed {seed}"
        );
    }
}
