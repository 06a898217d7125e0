//! The `transport` workload: a fixed-history mix through the
//! Monte-Carlo kernel, once serially and once at `nproc` threads.
//!
//! * `thermal_field` — diffuse 25.3 meV neutrons on 5.08 cm of water;
//! * `moderation` — a 2 MeV beam on the same slab;
//! * `shield` — `RiskSurface::build` at `SurfaceConfig::full`: one
//!   weighted run of diffuse thermal neutrons through borated
//!   polyethylene per ¹⁰B column, columns spread over the build's worker
//!   threads;
//! * `weighted` — the variance-reduced kernel on the 2 MeV beam.
//!
//! Tallies (for `shield`, the surface's grid) are a pure function of
//! `(seed, config)`, so the serial and parallel results of a pass must
//! be byte-identical and equal to the digests pinned below. The run's `--seed` picks where in the fixed
//! seed set the passes start.

use crate::stats::Summary;
use crate::trace::{SpanId, Tracer};
use crate::{fnv1a, Outcome};
use std::time::Instant;
use tn_fleet::{RiskSurface, SurfaceConfig};
use tn_physics::constants::THERMAL_ENERGY;
use tn_physics::units::{Energy, Length};
use tn_physics::Material;
use tn_transport::{
    SlabStack, Tally, Transport, TransportConfig, VarianceReduction, WeightedTally,
};

/// Seeds the passes cycle through.
pub const SEEDS: [u64; 4] = [11, 12, 13, 14];

/// The mix's cases.
pub const CASES: [&str; 4] = ["thermal_field", "moderation", "shield", "weighted"];

/// Histories of the `thermal_field` case.
const THERMAL_HISTORIES: u64 = 200_000;
/// Histories of the `moderation` case.
const MODERATION_HISTORIES: u64 = 20_000;
/// Histories of the `weighted` case.
const WEIGHTED_HISTORIES: u64 = 16_384;
/// Slab thickness shared by the water cases (two inches).
const WATER_CM: f64 = 5.08;

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 101;

/// Pinned tally digests per case, one per seed of [`SEEDS`].
pub const PINNED: [(&str, [u64; 4]); 4] = [
    (
        "thermal_field",
        [
            0xba38_4c8f_164d_f61f,
            0xbc30_c355_543a_386b,
            0x581d_9055_ed09_707b,
            0xaa74_d4ea_960b_42f8,
        ],
    ),
    (
        "moderation",
        [
            0x38f0_7db7_9d4c_e71d,
            0xcbb0_441a_908c_a73b,
            0x6f2e_9a7d_a637_a12a,
            0x58a0_8f4f_942d_dabd,
        ],
    ),
    (
        "shield",
        [
            0xde3b_5ada_7eed_f34a,
            0xde76_049f_8919_953d,
            0x529d_eda5_222a_3c67,
            0x1227_8a80_4ad5_49dd,
        ],
    ),
    (
        "weighted",
        [
            0xe2f0_0e00_689e_6997,
            0xc231_3cdc_f60d_f024,
            0x5db0_4fec_d5d6_808f,
            0x26a0_89f6_469a_44ab,
        ],
    ),
];

/// Expected outputs.
#[derive(Debug, Clone, PartialEq)]
pub struct Expect {
    /// Tally digests per case and seed.
    pub pinned: [(&'static str, [u64; 4]); 4],
}

impl Default for Expect {
    fn default() -> Self {
        Self { pinned: PINNED }
    }
}

/// The kernels of one thread count, built once (the cross-section
/// tables are the set-up cost). The `shield` case builds its own, as
/// part of the surface build it times.
struct Kernels {
    water: Transport,
    threads: usize,
}

fn two_mev() -> Energy {
    Energy::from_ev(2.0e6)
}

impl Kernels {
    fn build(threads: usize) -> Self {
        let water = Transport::with_config(
            SlabStack::single(Material::water(), Length(WATER_CM)),
            TransportConfig::with_threads(threads),
        );
        Self { water, threads }
    }

    /// Histories of one case.
    fn histories(&self, case: &str) -> u64 {
        match case {
            "thermal_field" => THERMAL_HISTORIES,
            "moderation" => MODERATION_HISTORIES,
            "shield" => {
                let config = SurfaceConfig::full(0);
                config.b10_nodes as u64 * config.histories_per_node
            }
            "weighted" => WEIGHTED_HISTORIES,
            other => unreachable!("unknown case {other}"),
        }
    }

    /// Runs one case and digests its tally.
    fn run(&self, case: &str, seed: u64) -> u64 {
        match case {
            "thermal_field" => tally_digest(&self.water.run_diffuse(
                THERMAL_ENERGY,
                THERMAL_HISTORIES,
                seed,
            )),
            "moderation" => {
                tally_digest(&self.water.run_beam(two_mev(), MODERATION_HISTORIES, seed))
            }
            "shield" => RiskSurface::build(SurfaceConfig {
                threads: self.threads,
                ..SurfaceConfig::full(seed)
            })
            .grid_digest(),
            "weighted" => weighted_digest(&self.water.run_beam_weighted(
                two_mev(),
                WEIGHTED_HISTORIES,
                seed,
                VarianceReduction::default(),
            )),
            other => unreachable!("unknown case {other}"),
        }
    }
}

/// Digest of an analog tally.
fn tally_digest(t: &Tally) -> u64 {
    let fields = [
        t.histories,
        t.transmitted_thermal,
        t.transmitted_fast,
        t.reflected_thermal,
        t.reflected_fast,
        t.absorbed,
        t.lost,
    ];
    fnv1a(
        &fields
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect::<Vec<u8>>(),
    )
}

/// Digest of a weighted tally (bit patterns of its sums).
fn weighted_digest(t: &WeightedTally) -> u64 {
    let fields = [
        t.histories,
        t.transmitted_thermal.to_bits(),
        t.transmitted_fast.to_bits(),
        t.reflected_thermal.to_bits(),
        t.reflected_fast.to_bits(),
        t.absorbed.to_bits(),
        t.lost.to_bits(),
        t.transmitted_thermal_sq.to_bits(),
        t.absorbed_sq.to_bits(),
    ];
    fnv1a(
        &fields
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect::<Vec<u8>>(),
    )
}

/// One pass over the mix at one thread count: (digest, seconds) per case.
fn pass(kernels: &Kernels, seed: u64, tracer: &Tracer, id: u64, label: &str) -> Vec<(u64, f64)> {
    let root: SpanId = tracer.open(id, "transport.pass", label, None);
    let out = CASES
        .iter()
        .map(|case| {
            let t0 = Instant::now();
            let digest = tracer.time(id, "transport.case", case, root, |_| {
                kernels.run(case, seed)
            });
            (digest, t0.elapsed().as_secs_f64())
        })
        .collect();
    tracer.close(root);
    out
}

/// Runs the workload for `seconds`.
pub fn run(seed: u64, seconds: f64, tracer: &Tracer, expect: &Expect) -> Outcome {
    let mut out = Outcome::default();
    let threads = crate::machine::nproc();
    let mut setup_times = Vec::new();
    let mut kernels = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let built = (Kernels::build(1), Kernels::build(threads));
        setup_times.push(t0.elapsed().as_secs_f64());
        kernels = Some(built);
    }
    let (serial, parallel) = kernels.expect("set-up ran");
    let setup = Summary::new(setup_times).middle().unwrap_or(0.0);
    out.e2e("setup_s", setup, "s");
    out.layer("transport.setup_ms", setup * 1e3, "ms");

    let histories: Vec<u64> = CASES.iter().map(|c| serial.histories(c)).collect();
    let mix_histories: u64 = histories.iter().sum();
    let histories_before = tn_transport::stats::histories_total();
    let busy_before = tn_transport::stats::seconds_total();
    let untraced_until = if tracer.enabled() {
        seconds / 3.0
    } else {
        seconds
    };
    // Per thread count (serial, parallel), per case: seconds per pass.
    let mut case_times: [[Vec<f64>; 4]; 2] = Default::default();
    let (mut plain_pass, mut traced_pass, mut parallel_pass, mut serial_pass) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    let mut p = 0u64;
    while started.elapsed().as_secs_f64() < seconds {
        let slot = (p as usize + seed as usize % SEEDS.len()) % SEEDS.len();
        let s = SEEDS[slot];
        let traced = started.elapsed().as_secs_f64() >= untraced_until;
        let quiet = Tracer::new(false);
        let tr = if traced { tracer } else { &quiet };
        let one = pass(&serial, s, tr, p, "serial");
        let many = pass(&parallel, s, tr, p, "parallel");
        for (i, case) in CASES.iter().enumerate() {
            out.check(one[i].0 == many[i].0, || {
                format!("seed {s}: {case} tally differs between 1 and {threads} threads")
            });
            let pinned = expect
                .pinned
                .iter()
                .find(|(c, _)| c == case)
                .map(|(_, d)| d[slot]);
            out.check(pinned == Some(many[i].0), || {
                format!(
                    "seed {s}: {case} tally digest {:016x} != pinned {pinned:016x?}",
                    many[i].0
                )
            });
            case_times[0][i].push(one[i].1);
            case_times[1][i].push(many[i].1);
        }
        let t_serial: f64 = one.iter().map(|c| c.1).sum();
        let t_parallel: f64 = many.iter().map(|c| c.1).sum();
        if traced {
            traced_pass.push(t_serial + t_parallel);
        } else {
            plain_pass.push(t_serial + t_parallel);
            serial_pass.push(t_serial);
            parallel_pass.push(t_parallel);
        }
        p += 1;
    }
    out.attempted = out.checks_run;
    out.failed = out.check_failures.len() as u64;

    let rate = |times: &[f64]| {
        Summary::new(times.to_vec())
            .middle()
            .map_or(0.0, |t| mix_histories as f64 / t)
    };
    let parallel_rate = rate(&parallel_pass);
    let serial_rate = rate(&serial_pass);
    out.e2e("ops_per_s", parallel_rate, "1/s");
    out.latency(&Summary::new(parallel_pass.clone()), 1e3);
    out.e2e(
        "peak_rss_mb",
        crate::machine::peak_rss_mb("self").unwrap_or(0.0),
        "MB",
    );
    out.layer("transport_mhps", parallel_rate * 1e-6, "Mh/s");
    out.layer("transport_mhps_serial", serial_rate * 1e-6, "Mh/s");
    if serial_rate > 0.0 {
        out.layer(
            "transport.scaling_eff",
            parallel_rate / (serial_rate * threads as f64),
            "ratio",
        );
    }
    for (i, case) in CASES.iter().enumerate() {
        let case_rate = |t: &Vec<f64>| {
            Summary::new(t.clone())
                .middle()
                .map_or(0.0, |t| histories[i] as f64 / t * 1e-6)
        };
        out.layer(
            &format!("transport.{case}.mhps.serial"),
            case_rate(&case_times[0][i]),
            "Mh/s",
        );
        out.layer(
            &format!("transport.{case}.mhps"),
            case_rate(&case_times[1][i]),
            "Mh/s",
        );
    }
    out.layer(
        "transport.histories",
        (tn_transport::stats::histories_total() - histories_before) as f64,
        "count",
    );
    out.layer(
        "transport.busy_s",
        tn_transport::stats::seconds_total() - busy_before,
        "s",
    );
    if tracer.enabled() {
        let plain = Summary::new(plain_pass).middle();
        let traced = Summary::new(traced_pass).middle();
        if let (Some(plain), Some(traced)) = (plain, traced) {
            out.layer("trace.overhead_ratio", traced / plain, "ratio");
        }
    }
    out
}
