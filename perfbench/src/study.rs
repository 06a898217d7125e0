//! The `study` workload: the paper's reproduction path.
//!
//! Each iteration takes the next seed of a fixed seed set and runs
//! `Pipeline::run` at the default configuration, renders the Figure 5
//! ratio table and the NYC/Leadville FIT table, and runs the four
//! built-in scenarios. The run's `--seed` only rotates the order of the
//! set: a full run costs 0.17–0.33 s depending on its seed, so a
//! throughput measured over different seeds would not be comparable.
//!
//! The traced run replaces `Pipeline::run` by the same steps called
//! layer by layer from here (roster, fault-injection profile per code,
//! per-device beam campaigns on one thread per device, report), and
//! checks that the result is byte-identical to the pipeline's.

use crate::stats::Summary;
use crate::trace::{SpanId, Tracer};
use crate::{fnv1a, Outcome};
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;
use tn_beamline::{Campaign, Facility};
use tn_core::registry::full_roster;
use tn_core::report::DeviceReport;
use tn_core::{Pipeline, PipelineConfig, StudyReport};
use tn_devices::DeviceKind;
use tn_environment::{Environment, Location, Surroundings, Weather};
use tn_fault_injection::{InjectionCampaign, InjectionStats};
use tn_physics::units::Seconds;
use tn_scenario::{builtin, builtin_names, run_scenario, ScenarioReport};

/// The fixed seed set the iterations cycle through.
pub const SEEDS: [u64; 6] = [2020, 2021, 2022, 2023, 2024, 2025];

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// Expected properties of every study output.
#[derive(Debug, Clone, PartialEq)]
pub struct Expect {
    /// Figure 5 shape: the Xeon Phi HE/thermal SDC ratio exceeds the
    /// K20's by more than this factor.
    pub phi_over_k20_min: f64,
    /// Largest FPGA DUE cross section allowed (the paper saw none).
    pub fpga_due_max: f64,
    /// Whether every built-in scenario must be conformant.
    pub scenarios_conformant: bool,
}

impl Default for Expect {
    fn default() -> Self {
        Self {
            phi_over_k20_min: 2.5,
            fpga_due_max: 0.0,
            scenarios_conformant: true,
        }
    }
}

/// The two environments of the FIT table.
fn environments() -> [(&'static str, Environment); 2] {
    let room = Surroundings::hpc_machine_room();
    [
        (
            "NYC",
            Environment::new(Location::new_york(), Weather::Sunny, room),
        ),
        (
            "Leadville",
            Environment::new(Location::leadville(), Weather::Sunny, room),
        ),
    ]
}

/// What one iteration produced.
struct Produced {
    report: StudyReport,
    scenarios: Vec<ScenarioReport>,
    digest: u64,
}

/// Renders the tables and digests everything the iteration produced.
fn render(report: &StudyReport, scenarios: &[ScenarioReport]) -> u64 {
    let mut text = report.to_json();
    text.push_str(&report.render_ratio_table());
    text.push_str(&report.render_fit_table(&environments()));
    for s in scenarios {
        text.push_str(&s.to_json());
    }
    fnv1a(text.as_bytes())
}

fn run_scenarios(seed: u64, tracer: &Tracer, id: u64, parent: SpanId) -> Vec<ScenarioReport> {
    builtin_names()
        .iter()
        .map(|name| {
            let scenario = builtin(name).expect("built-in scenario parses");
            tracer.time(id, "scenario.run", name, parent, |_| {
                run_scenario(&scenario, seed)
            })
        })
        .collect()
}

/// One untraced iteration.
fn iterate(seed: u64) -> Produced {
    let report = Pipeline::new(PipelineConfig::default()).seed(seed).run();
    let scenarios = run_scenarios(seed, &Tracer::new(false), 0, None);
    let digest = render(&report, &scenarios);
    Produced {
        report,
        scenarios,
        digest,
    }
}

/// One traced iteration: `Pipeline::run`'s steps, each timed.
fn iterate_traced(seed: u64, tracer: &Tracer, id: u64) -> Produced {
    let config = PipelineConfig::default();
    let root = tracer.open(id, "study.iteration", "", None);
    let roster = tracer.time(id, "core.roster", "", root, |_| full_roster(seed));
    let mut profiles: HashMap<&'static str, InjectionStats> = HashMap::new();
    tracer.time(id, "fault_injection.stage", "", root, |stage| {
        for entry in &roster {
            for workload in &entry.workloads {
                profiles.entry(workload.name()).or_insert_with(|| {
                    tracer.time(
                        id,
                        "fault_injection.profile",
                        workload.name(),
                        stage,
                        |_| {
                            InjectionCampaign::new(workload.as_ref())
                                .runs(config.injection_runs)
                                .seed(seed ^ 0xf417)
                                .execute()
                        },
                    )
                });
            }
        }
    });
    let profiles = &profiles;
    let mut reports: Vec<Option<DeviceReport>> = (0..roster.len()).map(|_| None).collect();
    tracer.time(id, "beamline.stage", "", root, |stage| {
        std::thread::scope(|scope| {
            for (d_idx, (entry, slot)) in roster.iter().zip(reports.iter_mut()).enumerate() {
                scope.spawn(move || {
                    tracer.time(
                        id,
                        "beamline.device",
                        entry.device.name(),
                        stage,
                        |device| {
                            let mut chipir = Vec::new();
                            let mut rotax = Vec::new();
                            for (w_idx, workload) in entry.workloads.iter().enumerate() {
                                let profile = profiles[workload.name()];
                                let seed_dw =
                                    seed ^ ((d_idx as u64) << 32) ^ ((w_idx as u64) << 16);
                                let beam = Seconds::from_hours(config.beam_hours);
                                chipir.push(tracer.time(
                                    id,
                                    "beamline.campaign",
                                    "chipir",
                                    device,
                                    |_| {
                                        Campaign::new(
                                            Facility::chipir(),
                                            &entry.device,
                                            workload.name(),
                                            profile,
                                        )
                                        .beam_time(beam)
                                        .seed(seed_dw)
                                        .run()
                                    },
                                ));
                                rotax.push(tracer.time(
                                    id,
                                    "beamline.campaign",
                                    "rotax",
                                    device,
                                    |_| {
                                        Campaign::new(
                                            Facility::rotax(),
                                            &entry.device,
                                            workload.name(),
                                            profile,
                                        )
                                        .beam_time(beam)
                                        .seed(seed_dw ^ 0xbeef)
                                        .run()
                                    },
                                ));
                            }
                            *slot = Some(DeviceReport {
                                name: entry.device.name().to_string(),
                                chipir,
                                rotax,
                            });
                        },
                    );
                });
            }
        });
    });
    let report = tracer.time(id, "core.report", "assemble", root, |_| {
        let reports = reports
            .into_iter()
            .map(|r| r.expect("every device slot filled"))
            .collect();
        StudyReport::new(reports, seed)
    });
    let scenarios = run_scenarios(seed, tracer, id, root);
    let digest = tracer.time(id, "core.report", "render", root, |_| {
        render(&report, &scenarios)
    });
    tracer.close(root);
    Produced {
        report,
        scenarios,
        digest,
    }
}

/// Runs the output checks on one iteration.
fn check(produced: &Produced, seed: u64, expect: &Expect, fpgas: &[String], out: &mut Outcome) {
    let ratio = |name: &str| {
        produced
            .report
            .device(name)
            .map_or(f64::NAN, DeviceReport::sdc_ratio)
    };
    let (phi, k20) = (ratio("Intel Xeon Phi"), ratio("NVIDIA K20"));
    out.check(phi > expect.phi_over_k20_min * k20, || {
        format!("seed {seed}: Figure 5 shape broken: Xeon Phi SDC ratio {phi:.3} vs K20 {k20:.3}")
    });
    let fpga: Vec<f64> = fpgas
        .iter()
        .filter_map(|name| produced.report.device(name))
        .map(|d| d.due_sigma_he().value() + d.due_sigma_th().value())
        .collect();
    // A missing FPGA report reads as NaN, which fails the check.
    let fpga_due = if fpga.is_empty() {
        f64::NAN
    } else {
        fpga.iter().sum()
    };
    out.check(fpga_due <= expect.fpga_due_max, || {
        format!(
            "seed {seed}: FPGA DUE cross section {fpga_due:e}, expected at most {}",
            expect.fpga_due_max
        )
    });
    let conformant =
        produced.scenarios.len() == 4 && produced.scenarios.iter().all(|s| s.conformant);
    out.check(conformant == expect.scenarios_conformant, || {
        format!(
            "seed {seed}: scenario conformance {conformant}, expected {}",
            expect.scenarios_conformant
        )
    });
}

/// The study set-up: the roster (device catalog fits and workload
/// inputs), the FIT environments and the parsed built-in scenarios.
fn setup_once(seed: u64) -> f64 {
    let started = Instant::now();
    let roster = full_roster(seed);
    let envs = environments();
    let scenarios: Vec<_> = builtin_names().iter().filter_map(|n| builtin(n)).collect();
    std::hint::black_box((&roster, &envs, &scenarios));
    started.elapsed().as_secs_f64()
}

/// Runs the workload for `seconds`.
pub fn run(seed: u64, seconds: f64, tracer: &Tracer, expect: &Expect) -> Outcome {
    let mut out = Outcome::default();
    let order: Vec<u64> = (0..SEEDS.len())
        .map(|i| SEEDS[(i + seed as usize % SEEDS.len()) % SEEDS.len()])
        .collect();
    let setup = Summary::new((0..SETUP_REPS).map(|_| setup_once(order[0])).collect());
    let fpgas: Vec<String> = tn_devices::all_compute_devices()
        .iter()
        .filter(|d| d.kind() == DeviceKind::Fpga)
        .map(|d| d.name().to_string())
        .collect();
    out.e2e("setup_s", setup.middle().unwrap_or(0.0), "s");

    // The traced run spends its first third untraced, to measure the
    // tracing overhead against the same seeds.
    let untraced_until = if tracer.enabled() {
        seconds / 3.0
    } else {
        seconds
    };
    let mut digests: BTreeMap<u64, u64> = BTreeMap::new();
    let mut times: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    let mut traced_times: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    let histories_before = tn_transport::stats::histories_total();
    let busy_before = tn_transport::stats::seconds_total();
    let started = Instant::now();
    let mut plain = Vec::new();
    let mut i = 0u64;
    while started.elapsed().as_secs_f64() < seconds {
        let s = order[i as usize % order.len()];
        let traced = started.elapsed().as_secs_f64() >= untraced_until;
        let t0 = Instant::now();
        let produced = if traced {
            iterate_traced(s, tracer, i)
        } else {
            iterate(s)
        };
        let dt = t0.elapsed().as_secs_f64();
        if traced {
            traced_times.entry(s).or_default().push(dt);
        } else {
            times.entry(s).or_default().push(dt);
            plain.push(dt);
        }
        check(&produced, s, expect, &fpgas, &mut out);
        let first = *digests.entry(s).or_insert(produced.digest);
        out.check(first == produced.digest, || {
            format!("seed {s}: study output digest changed between iterations")
        });
        i += 1;
    }
    out.attempted = out.checks_run;
    out.failed = out.check_failures.len() as u64;

    // Seed-balanced throughput: one pass over the set costs the sum of
    // the per-seed median times.
    let per_seed = |t: &BTreeMap<u64, Vec<f64>>| -> Option<f64> {
        (t.len() == SEEDS.len()).then(|| {
            t.values()
                .map(|v| Summary::new(v.clone()).middle().unwrap_or(0.0))
                .sum::<f64>()
        })
    };
    let cycle = per_seed(&times);
    let runs_per_s = cycle.map_or(0.0, |c| SEEDS.len() as f64 / c);
    out.e2e("ops_per_s", runs_per_s, "1/s");
    out.latency(&Summary::new(plain), 1e3);
    out.e2e(
        "peak_rss_mb",
        crate::machine::peak_rss_mb("self").unwrap_or(0.0),
        "MB",
    );
    out.layer("study_runs_per_s", runs_per_s, "1/s");

    let histories = tn_transport::stats::histories_total() - histories_before;
    out.layer("transport.histories", histories as f64, "count");
    out.layer(
        "transport.busy_s",
        tn_transport::stats::seconds_total() - busy_before,
        "s",
    );
    if tracer.enabled() {
        if let (Some(plain), Some(traced)) = (cycle, per_seed(&traced_times)) {
            out.layer("trace.overhead_ratio", traced / plain, "ratio");
        }
        layers_from_trace(tracer, &mut out);
    }
    out
}

/// Per-layer metrics from the traced iterations.
fn layers_from_trace(tracer: &Tracer, out: &mut Outcome) {
    let median_per_iteration = |name: &str| {
        Summary::new(tracer.per_id_sums(name).into_values().collect())
            .middle()
            .unwrap_or(0.0)
    };
    out.layer(
        "fault_injection.busy_s",
        median_per_iteration("fault_injection.stage"),
        "s",
    );
    let profiles = tracer.durations("fault_injection.profile");
    let injections = profiles.len() as f64 * PipelineConfig::default().injection_runs as f64;
    let busy: f64 = profiles.iter().sum();
    out.layer(
        "fault_injection.injections_per_s",
        if busy > 0.0 { injections / busy } else { 0.0 },
        "1/s",
    );
    let mut by_code: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for span in tracer
        .spans()
        .iter()
        .filter(|s| s.name == "fault_injection.profile")
    {
        by_code
            .entry(span.label.to_lowercase())
            .or_default()
            .push(span.seconds());
    }
    for (code, times) in by_code {
        let name = format!("fault_injection.{code}_s");
        out.layer(&name, Summary::new(times).middle().unwrap_or(0.0), "s");
    }

    out.layer(
        "beamline.campaign_busy_s",
        median_per_iteration("beamline.campaign"),
        "s",
    );
    let campaigns = tracer.durations("beamline.campaign").len() as f64;
    let iterations = tracer.per_id_sums("beamline.stage").len().max(1) as f64;
    out.layer("beamline.campaigns", campaigns / iterations, "count");
    out.layer(
        "beamline.stage_wall_s",
        median_per_iteration("beamline.stage"),
        "s",
    );
    let mut device_times: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for span in tracer
        .spans()
        .iter()
        .filter(|s| s.name == "beamline.device")
    {
        device_times
            .entry(span.id)
            .or_default()
            .push(span.seconds());
    }
    let stragglers: Vec<f64> = device_times
        .values()
        .map(|t| Summary::new(t.clone()))
        .filter(|s| s.mean() > 0.0)
        .map(|s| s.max() / s.mean())
        .collect();
    out.layer(
        "beamline.straggler_ratio",
        Summary::new(stragglers).middle().unwrap_or(0.0),
        "ratio",
    );

    out.layer("core.report_s", median_per_iteration("core.report"), "s");
    out.layer("scenario.run_s", median_per_iteration("scenario.run"), "s");
    let scenario_busy: f64 = tracer.durations("scenario.run").iter().sum();
    let hours_per_pass: f64 = builtin_names()
        .iter()
        .filter_map(|n| builtin(n))
        .map(|s| f64::from(s.duration_hours))
        .sum();
    let passes = tracer.per_id_sums("scenario.run").len() as f64;
    out.layer(
        "scenario.virtual_hours_per_s",
        if scenario_busy > 0.0 {
            hours_per_pass * passes / scenario_busy
        } else {
            0.0
        },
        "1/s",
    );
}
