//! Pins the reports of the streaming monitor's two drivers: the four
//! built-in scenario campaigns (`run_scenario`) and the paper's Figure-6
//! water-pan replay (`run_water_pan`), at seeds 2020–2025.
//!
//! Both drive the `tn-obs` `Monitor` with exact Garwood intervals on
//! every hourly sample, so any change to the counting-statistics special
//! functions that moves an alert, an onset or a printed rate shows up
//! here. Each pin is the FNV-1a 64 digest of the report's canonical
//! JSON; the reports must stay byte-identical.

use thermal_neutrons::core_api as tn;
use tn_scenario::{builtin, builtin_names, run_scenario};

const SEEDS: [u64; 6] = [2020, 2021, 2022, 2023, 2024, 2025];

/// `(name, digests at SEEDS)`; `"watch"` is the water-pan replay.
const PINS: [(&str, [u64; 6]); 5] = [
    (
        "normal",
        [
            0xb991_9aaa_c8d4_2217,
            0xa1c2_24db_5477_9df7,
            0x9e5d_56c4_834b_6df9,
            0x57e8_9c0b_4bc4_b935,
            0xe176_9c29_bc89_9d1d,
            0x08f2_2324_9744_70cc,
        ],
    ),
    (
        "rainstorm-at-leadville",
        [
            0x4d11_7f11_26c7_5d22,
            0xa979_70e9_cc36_7332,
            0xa027_1da0_7303_c871,
            0xb052_7900_7542_bb59,
            0xe493_e7d8_0b1d_87a0,
            0x27ac_0d15_d646_2dc0,
        ],
    ),
    (
        "loss-of-moderation",
        [
            0xafe8_e48b_0115_1078,
            0x37a6_a391_4337_763a,
            0xad28_abe8_52a9_e7a3,
            0xebc2_24a7_3037_bfbd,
            0x9563_9e99_5bff_ecde,
            0xadc4_7ae6_e16d_60d8,
        ],
    ),
    (
        "detector-channel-drift",
        [
            0xaaac_fdc5_2a8b_4a23,
            0x41ce_c3b4_a788_7e0a,
            0xbdd7_cbeb_6f10_1ff5,
            0xbc3d_5934_32e5_3fea,
            0xef8a_133e_d4d0_59d5,
            0x6152_6e02_1ed4_0ddd,
        ],
    ),
    (
        "watch",
        [
            0x42d8_eb4a_7814_654e,
            0x4ec2_4cab_5a05_8ac0,
            0xbe54_49e2_b64f_8c10,
            0x395f_cb39_8f69_a798,
            0xd6a4_b216_97b4_64c8,
            0x3bdc_e0d2_528a_ae7c,
        ],
    ),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn report_json(name: &str, seed: u64) -> String {
    if name == "watch" {
        tn::detector::run_water_pan(seed).to_json()
    } else {
        let scenario = builtin(name).unwrap_or_else(|| panic!("{name} is not a built-in"));
        run_scenario(&scenario, seed).to_json()
    }
}

#[test]
fn pins_cover_every_builtin() {
    let pinned: Vec<&str> = PINS.iter().map(|(name, _)| *name).collect();
    for name in builtin_names() {
        assert!(pinned.contains(&name), "{name} has no pin");
    }
}

#[test]
fn scenario_and_watch_reports_are_pinned() {
    tn::obs::set_level(Some(tn::obs::Level::Error));
    let mut moved = Vec::new();
    for (name, digests) in PINS {
        for (seed, want) in SEEDS.into_iter().zip(digests) {
            let got = fnv1a(report_json(name, seed).as_bytes());
            if got != want {
                moved.push(format!(
                    "{name} seed {seed}: {got:#018x} (pinned {want:#018x})"
                ));
            }
        }
    }
    assert!(moved.is_empty(), "reports moved:\n{}", moved.join("\n"));
}
