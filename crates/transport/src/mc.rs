//! Analog Monte-Carlo neutron transport through a slab stack.
//!
//! Physics model (deliberately at "reactor physics 101" fidelity — see the
//! crate docs for why that is sufficient for the paper's claims):
//!
//! * free flight lengths sampled from the local macroscopic total cross
//!   section Σ_t(E);
//! * at each collision the target nuclide is picked ∝ its macroscopic
//!   cross section; absorption happens with probability σ_a/(σ_s+σ_a)
//!   (1/v law), otherwise elastic scattering;
//! * elastic scattering is isotropic in the centre-of-mass frame, so the
//!   outgoing energy is uniform on [αE, E] with α = ((A−1)/(A+1))²;
//!   the lab direction is resampled isotropically (fair once a neutron has
//!   scattered once or twice, which dominates moderation problems);
//! * below 25.3 meV the energy is clamped to the thermal point (upscattering
//!   to the Maxwellian equilibrium is not modelled).
//!
//! ## Performance and the determinism contract
//!
//! Collisions are evaluated against per-layer [`MaterialXs`] tables
//! precomputed in [`Transport::new`] — one interpolated lookup serves the
//! free path, the nuclide pick *and* the absorption decision, instead of
//! the two-to-three full constituent sweeps (`powf`/`sqrt` included) the
//! direct evaluation costs. [`Transport::run_history_direct`] keeps the
//! direct path alive as the correctness baseline and bench comparator.
//!
//! Histories are sharded into fixed blocks of [`SHARD_SIZE`]. Shard `i`
//! draws from the substream `Rng::seed_from_u64(seed).fork(i)` and shard
//! tallies merge in ascending shard order, so the result is a pure
//! function of `(seed, histories)` — byte-identical for **any** thread
//! count, including 1, which runs the same canonical shard sequence
//! inline. [`TransportConfig::threads`] (CLI: `--transport-threads`)
//! only changes how shards are distributed over scoped workers.

use crate::event::{self, FloorXs, VarianceReduction, WeightedTally};
use crate::geometry::SlabStack;
use crate::stats;
use std::time::Instant;
use tn_rng::Rng;
use tn_physics::constants::THERMAL_CUTOFF;
use tn_physics::units::{Energy, Length};
use tn_physics::xs::MaterialXs;

/// Minimum tracked energy; below this the neutron is considered fully
/// thermalised and is clamped.
pub(crate) const ENERGY_FLOOR: Energy = Energy(0.0253);

/// Hard cap on collisions per history (a diffusing thermal neutron in a
/// thick weak absorber can otherwise bounce for a very long time).
pub(crate) const MAX_COLLISIONS: usize = 100_000;

/// Histories per deterministic RNG shard. Fixed (not derived from the
/// thread count) so the shard decomposition — and therefore the merged
/// tally — is identical no matter how many workers run the shards.
pub const SHARD_SIZE: u64 = 4096;

/// Process-wide default for [`TransportConfig::threads`], settable once
/// at startup (CLI `--transport-threads`, server config) so every
/// transport user in the process — room boosts, slab effects, detector
/// experiments — picks it up without plumbing a config through each
/// layer. Determinism is unaffected: any value yields identical tallies.
static DEFAULT_THREADS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(1);

/// Sets the process-wide default transport thread count (clamped to ≥ 1).
pub fn set_default_threads(threads: usize) {
    DEFAULT_THREADS.store(threads.max(1), std::sync::atomic::Ordering::Relaxed);
}

/// The current process-wide default transport thread count.
pub fn default_threads() -> usize {
    DEFAULT_THREADS.load(std::sync::atomic::Ordering::Relaxed)
}

/// Transport tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransportConfig {
    /// Worker threads sharing the shard queue. Never changes results,
    /// only wall-clock time; 1 runs the canonical sequence inline.
    pub threads: usize,
}

impl Default for TransportConfig {
    fn default() -> Self {
        Self {
            threads: default_threads(),
        }
    }
}

impl TransportConfig {
    /// A strictly serial configuration.
    pub fn serial() -> Self {
        Self { threads: 1 }
    }

    /// A configuration with the given worker count (clamped to ≥ 1).
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }
}

/// Workers for a sharded run: the configured thread count, but never
/// more than the machine's cores or the shard count. Workers only
/// schedule shards, so the clamp never changes a tally.
fn worker_count(threads: usize, shards: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    threads.max(1).min(cores).min(shards)
}

/// Terminal fate of one transported neutron.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fate {
    /// Left through the far face with the given energy.
    Transmitted {
        /// Exit energy.
        energy: Energy,
    },
    /// Left back through the entry face with the given energy.
    Reflected {
        /// Exit energy.
        energy: Energy,
    },
    /// Absorbed inside the stack at depth `z`.
    Absorbed {
        /// Absorption depth from the entry face.
        z: Length,
    },
    /// Exceeded the collision cap (counted separately; should be rare).
    Lost,
}

impl Fate {
    /// Energy carried out of the stack, if the neutron escaped.
    pub fn exit_energy(&self) -> Option<Energy> {
        match *self {
            Fate::Transmitted { energy } | Fate::Reflected { energy } => Some(energy),
            _ => None,
        }
    }

    /// True if the neutron escaped (either face) in the thermal band.
    pub fn escaped_thermal(&self) -> bool {
        self.exit_energy()
            .is_some_and(|e| e.value() < THERMAL_CUTOFF.value())
    }
}

/// Aggregated tallies over many histories.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Tally {
    /// Histories run.
    pub histories: u64,
    /// Transmitted with E < 0.5 eV.
    pub transmitted_thermal: u64,
    /// Transmitted with E ≥ 0.5 eV.
    pub transmitted_fast: u64,
    /// Reflected with E < 0.5 eV.
    pub reflected_thermal: u64,
    /// Reflected with E ≥ 0.5 eV.
    pub reflected_fast: u64,
    /// Absorbed in the stack.
    pub absorbed: u64,
    /// Hit the collision cap.
    pub lost: u64,
}

impl Tally {
    /// Records one fate.
    pub fn record(&mut self, fate: Fate) {
        self.histories += 1;
        match fate {
            Fate::Transmitted { energy } => {
                if energy.value() < THERMAL_CUTOFF.value() {
                    self.transmitted_thermal += 1;
                } else {
                    self.transmitted_fast += 1;
                }
            }
            Fate::Reflected { energy } => {
                if energy.value() < THERMAL_CUTOFF.value() {
                    self.reflected_thermal += 1;
                } else {
                    self.reflected_fast += 1;
                }
            }
            Fate::Absorbed { .. } => self.absorbed += 1,
            Fate::Lost => self.lost += 1,
        }
    }

    /// Merges another tally into this one.
    pub fn merge(&mut self, other: &Tally) {
        self.histories += other.histories;
        self.transmitted_thermal += other.transmitted_thermal;
        self.transmitted_fast += other.transmitted_fast;
        self.reflected_thermal += other.reflected_thermal;
        self.reflected_fast += other.reflected_fast;
        self.absorbed += other.absorbed;
        self.lost += other.lost;
    }

    /// Fraction helper.
    fn frac(&self, n: u64) -> f64 {
        if self.histories == 0 {
            0.0
        } else {
            n as f64 / self.histories as f64
        }
    }

    /// Fraction transmitted in the thermal band.
    pub fn transmitted_thermal_fraction(&self) -> f64 {
        self.frac(self.transmitted_thermal)
    }

    /// Fraction transmitted at any energy.
    pub fn transmitted_fraction(&self) -> f64 {
        self.frac(self.transmitted_thermal + self.transmitted_fast)
    }

    /// Fraction reflected in the thermal band (the thermal albedo).
    pub fn reflected_thermal_fraction(&self) -> f64 {
        self.frac(self.reflected_thermal)
    }

    /// Fraction absorbed.
    pub fn absorbed_fraction(&self) -> f64 {
        self.frac(self.absorbed)
    }

    /// Fraction escaping (either face) in the thermal band.
    pub fn thermal_escape_fraction(&self) -> f64 {
        self.frac(self.transmitted_thermal + self.reflected_thermal)
    }
}

/// An in-flight neutron state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neutron {
    /// Kinetic energy.
    pub energy: Energy,
    /// Depth in the stack (cm from the entry face).
    pub z: Length,
    /// Direction cosine against +z; +1 is straight in.
    pub mu: f64,
}

impl Neutron {
    /// A neutron entering the front face head-on with energy `e`.
    pub fn incident(e: Energy) -> Self {
        Self {
            energy: e,
            z: Length(0.0),
            mu: 1.0,
        }
    }

    /// A neutron entering the front face with an isotropic-flux-weighted
    /// direction (cosine-law, μ = √u), as from a diffuse ambient field.
    pub fn diffuse_incident(e: Energy, rng: &mut Rng) -> Self {
        Self {
            energy: e,
            z: Length(0.0),
            mu: rng.gen_f64().sqrt().max(1e-6),
        }
    }
}

/// The transport engine for one slab stack.
///
/// Construction precomputes one [`MaterialXs`] table per layer; every
/// collision is then a grid lookup instead of a constituent sweep.
#[derive(Debug, Clone)]
pub struct Transport {
    stack: SlabStack,
    /// Per-layer precomputed cross-section tables, index-aligned with
    /// `stack.layers()`.
    pub(crate) xs: Vec<MaterialXs>,
    /// Cumulative layer boundaries: `edges[i]..edges[i+1]` spans layer
    /// `i`, `edges[0] = 0`, the last entry is the total thickness. Lets
    /// the kernel locate layers and boundaries with plain arithmetic.
    pub(crate) edges: Vec<f64>,
    /// Total stack thickness in cm (`edges.last()`, cached for the hot
    /// loops).
    pub(crate) total: f64,
    /// Per-layer blended cross sections at the thermal floor, where the
    /// batched diffusion event spends nearly all its collisions.
    pub(crate) floor_xs: Vec<FloorXs>,
    config: TransportConfig,
}

impl Transport {
    /// Creates an engine for a stack with the process-default
    /// [`TransportConfig`].
    pub fn new(stack: SlabStack) -> Self {
        Self::with_config(stack, TransportConfig::default())
    }

    /// Creates an engine with an explicit configuration.
    pub fn with_config(stack: SlabStack, config: TransportConfig) -> Self {
        let xs: Vec<MaterialXs> = stack
            .layers()
            .iter()
            .map(|l| MaterialXs::build(l.material()))
            .collect();
        let mut edges = Vec::with_capacity(stack.layers().len() + 1);
        let mut acc = 0.0;
        edges.push(acc);
        for layer in stack.layers() {
            acc += layer.thickness().value();
            edges.push(acc);
        }
        let floor_xs = xs
            .iter()
            .map(|table| FloorXs::for_energy(table, ENERGY_FLOOR))
            .collect();
        Self {
            stack,
            xs,
            edges,
            total: acc,
            floor_xs,
            config,
        }
    }

    /// The geometry being transported through.
    pub fn stack(&self) -> &SlabStack {
        &self.stack
    }

    /// The engine's configuration.
    pub fn config(&self) -> TransportConfig {
        self.config
    }

    /// The precomputed cross-section table of layer `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn layer_xs(&self, index: usize) -> &MaterialXs {
        &self.xs[index]
    }

    /// Transports one neutron to its fate against the precomputed
    /// cross-section tables (the fast kernel).
    ///
    /// Three amortisations make this the hot path:
    ///
    /// * geometry is plain arithmetic over the precomputed `edges`
    ///   array — no per-collision layer scans or bounds asserts;
    /// * the cross-section lookup for the current `(layer, energy)`
    ///   pair is memoised across collisions, so a thermalised neutron
    ///   diffusing at the clamped 25.3 meV re-uses one lookup for its
    ///   entire random walk;
    /// * at the thermal floor the scattered outcome is
    ///   nuclide-independent (isotropic re-emission at the same
    ///   energy), so the nuclide pick and the absorption decision
    ///   collapse into a single draw against the pick-marginal
    ///   absorption fraction Σ_a/Σ_t.
    pub fn run_history(&self, n: Neutron, rng: &mut Rng) -> Fate {
        let total = self.total;
        // Nudge the entry position just inside the stack.
        let eps = 1e-12 * total.max(1.0);
        let mut z = n.z.value();
        if z <= 0.0 {
            z = eps;
        }
        let mut mu = n.mu;
        let mut energy = n.energy.value();
        let floor = ENERGY_FLOOR.value();

        // Memoised layer bracket and cross sections; NaN bounds force a
        // locate + lookup on the first collision.
        let mut layer = 0usize;
        let (mut lo, mut hi) = (f64::NAN, f64::NAN);
        let mut cached_energy = f64::NAN;
        let mut view = self.xs[0].at(Energy(energy));
        let mut sigma_t = 0.0;
        let mut inv_sigma_t = 0.0;
        let mut absorb_fraction = 0.0;

        let mut budget = MAX_COLLISIONS;
        while budget > 0 {
            if !(z >= lo && z < hi) {
                // Left the cached layer bracket: relocate (or escape).
                if z <= 0.0 {
                    return Fate::Reflected {
                        energy: Energy(energy),
                    };
                }
                if z >= total {
                    return Fate::Transmitted {
                        energy: Energy(energy),
                    };
                }
                layer = self.edges[1..].partition_point(|&edge| edge <= z);
                lo = self.edges[layer];
                hi = self.edges[layer + 1];
                cached_energy = f64::NAN; // new table: force a lookup
            }
            if energy != cached_energy {
                view = self.xs[layer].at(Energy(energy));
                sigma_t = view.sigma_total();
                inv_sigma_t = if sigma_t > 0.0 { 1.0 / sigma_t } else { 0.0 };
                absorb_fraction = view.absorption_fraction();
                cached_energy = energy;
            }
            if sigma_t <= 0.0 {
                // Vacuum-like layer: stream to the boundary.
                budget -= 1;
                let edge = if mu > 0.0 { hi } else { lo };
                z = edge + mu * eps;
                continue;
            }
            if energy <= floor {
                // Tight thermal-floor diffusion loop. Energy is pinned,
                // so the layer bracket and blended cross sections are
                // loop-invariant: each collision is one free-flight draw,
                // one absorption draw (by the blended Σ_a/Σ_t fraction —
                // the pick-marginal absorption probability), and one
                // isotropic re-emission (target motion keeps the neutron
                // in equilibrium with the Maxwellian, so no energy loss).
                // Thermal histories spend nearly all their collisions
                // here, which is why it is worth keeping branch-lean.
                while budget > 0 {
                    budget -= 1;
                    let znew = z + mu * (rng.gen_exp() * inv_sigma_t);
                    if znew >= hi {
                        z = hi + mu * eps;
                        break;
                    }
                    if znew <= lo {
                        z = lo + mu * eps;
                        break;
                    }
                    z = znew;
                    if rng.gen_f64() < absorb_fraction {
                        return Fate::Absorbed { z: Length(z) };
                    }
                    mu = 2.0 * rng.gen_f64() - 1.0;
                    if mu == 0.0 {
                        mu = 1e-9;
                    }
                }
                continue;
            }
            // Flight endpoint; crossing the bracket means a boundary
            // crossing, anything inside is a collision.
            budget -= 1;
            let znew = z + mu * (rng.gen_exp() * inv_sigma_t);
            if znew >= hi {
                z = hi + mu * eps;
                continue;
            }
            if znew <= lo {
                z = lo + mu * eps;
                continue;
            }
            // Collides inside this layer. One lookup resolves the
            // target nuclide and its absorption probability.
            z = znew;
            let collision = view.pick(rng.gen_f64());
            if rng.gen_f64() < collision.absorption_probability {
                return Fate::Absorbed { z: Length(z) };
            }
            // Elastic scatter, isotropic in the CM frame. Energy
            // and lab deflection are correlated through the CM
            // cosine; hydrogen (A = 1) can only scatter forward in
            // the lab, which is what lets MeV neutrons penetrate
            // centimetres of water.
            let a = collision.nuclide.mass_number;
            let cos_cm = 2.0 * rng.gen_f64() - 1.0;
            let denom_sq = a * a + 2.0 * a * cos_cm + 1.0;
            let e_ratio = denom_sq / ((a + 1.0) * (a + 1.0));
            energy = (energy * e_ratio).max(floor);
            let mu_scatter = (1.0 + a * cos_cm) / denom_sq.sqrt();
            let phi = 2.0 * std::f64::consts::PI * rng.gen_f64();
            let sin_terms =
                ((1.0 - mu * mu).max(0.0) * (1.0 - mu_scatter * mu_scatter).max(0.0)).sqrt();
            mu = (mu * mu_scatter + sin_terms * phi.cos()).clamp(-1.0, 1.0);
            if mu == 0.0 {
                mu = 1e-9;
            }
        }
        Fate::Lost
    }

    /// Transports one neutron evaluating cross sections *directly* from
    /// the material data — the pre-cache reference implementation,
    /// retained as the correctness baseline for the precomputed-table
    /// kernel and as the "seed serial" comparator in the throughput
    /// bench. Statistically equivalent to [`Self::run_history`] but not
    /// draw-for-draw identical: the fast kernel collapses thermal-floor
    /// collisions into a single marginal-absorption draw.
    pub fn run_history_direct(&self, mut n: Neutron, rng: &mut Rng) -> Fate {
        let eps = 1e-12 * self.stack.total_thickness().value().max(1.0);
        if n.z.value() <= 0.0 {
            n.z = Length(eps);
        }
        for _ in 0..MAX_COLLISIONS {
            let layer = match self.stack.layer_at(n.z) {
                Some(l) => l,
                None => {
                    return if n.z.value() <= 0.0 {
                        Fate::Reflected { energy: n.energy }
                    } else {
                        Fate::Transmitted { energy: n.energy }
                    };
                }
            };
            let sigma_t = layer.material().sigma_total(n.energy);
            if sigma_t <= 0.0 {
                let d = self.stack.distance_to_boundary(n.z, n.mu);
                n.z = Length(n.z.value() + n.mu * (d.value() + eps));
            } else {
                let free_path = -rng.gen_f64().max(f64::MIN_POSITIVE).ln() / sigma_t;
                let to_boundary = self.stack.distance_to_boundary(n.z, n.mu).value();
                if free_path >= to_boundary {
                    n.z = Length(n.z.value() + n.mu * (to_boundary + eps));
                } else {
                    n.z = Length(n.z.value() + n.mu * free_path);
                    let nuclide = *layer
                        .material()
                        .pick_collision_nuclide(n.energy, rng.gen_f64());
                    let sigma_s = nuclide.elastic_at(n.energy).to_cross_section().value();
                    let sigma_a = nuclide.absorption_at(n.energy).to_cross_section().value();
                    // Guard the σ_a/(σ_a+σ_s) division: a zero-weight
                    // constituent (pick fallback) must scatter, not NaN.
                    let u = rng.gen_f64();
                    if u * (sigma_a + sigma_s) < sigma_a {
                        return Fate::Absorbed { z: n.z };
                    }
                    if n.energy.value() <= ENERGY_FLOOR.value() {
                        n.mu = 2.0 * rng.gen_f64() - 1.0;
                    } else {
                        let a = nuclide.mass_number;
                        let cos_cm = 2.0 * rng.gen_f64() - 1.0;
                        let denom_sq = a * a + 2.0 * a * cos_cm + 1.0;
                        let e_ratio = denom_sq / ((a + 1.0) * (a + 1.0));
                        n.energy =
                            Energy((n.energy.value() * e_ratio).max(ENERGY_FLOOR.value()));
                        let mu_scatter = (1.0 + a * cos_cm) / denom_sq.sqrt();
                        let phi = 2.0 * std::f64::consts::PI * rng.gen_f64();
                        let sin_terms = ((1.0 - n.mu * n.mu).max(0.0)
                            * (1.0 - mu_scatter * mu_scatter).max(0.0))
                        .sqrt();
                        n.mu = (n.mu * mu_scatter + sin_terms * phi.cos()).clamp(-1.0, 1.0);
                    }
                    if n.mu == 0.0 {
                        n.mu = 1e-9;
                    }
                }
            }
            if n.z.value() <= 0.0 {
                return Fate::Reflected { energy: n.energy };
            }
            if n.z.value() >= self.stack.total_thickness().value() {
                return Fate::Transmitted { energy: n.energy };
            }
        }
        Fate::Lost
    }

    /// Runs sharded histories from a per-history source closure through
    /// the event-based batch kernel.
    ///
    /// The canonical sequence: shard `i` covers histories
    /// `[i·SHARD_SIZE, (i+1)·SHARD_SIZE)` with the RNG substream
    /// `Rng::seed_from_u64(seed).fork(i)`; within a shard the batch
    /// kernel draws every source first (slot order), then advances the
    /// whole batch through deterministic event queues. Shard tallies
    /// merge in ascending shard index. Thread count only schedules
    /// shards over workers.
    ///
    /// Instrumentation is strictly write-only: a `transport.run` span,
    /// per-shard durations into the shared `tn_transport_shard_seconds`
    /// histogram, and the process-wide history/seconds counters. None of
    /// it touches the RNG streams or tallies, so tracing at any level
    /// leaves results byte-identical.
    fn run_sharded<F>(&self, source: F, histories: u64, seed: u64) -> Tally
    where
        F: Fn(&mut Rng) -> Neutron + Sync,
    {
        if histories == 0 {
            return Tally::default();
        }
        let _span = tn_obs::span("transport.run");
        let started = Instant::now();
        let shards = histories.div_ceil(SHARD_SIZE) as usize;
        let mut slots = vec![Tally::default(); shards];
        let shard_hist = stats::shard_histogram();
        let shard_hist = &shard_hist;
        let run_shard = |shard: usize, slot: &mut Tally| {
            let shard_started = Instant::now();
            let mut rng = Rng::seed_from_u64(seed).fork(shard as u64);
            let lo = shard as u64 * SHARD_SIZE;
            let count = SHARD_SIZE.min(histories - lo);
            *slot = event::run_shard_analog(self, &source, count, &mut rng);
            let shard_nanos = shard_started.elapsed().as_nanos() as u64;
            shard_hist.observe(shard_nanos);
            if tn_obs::enabled(tn_obs::Level::Trace) {
                tn_obs::trace(
                    "shard_done",
                    &[
                        ("shard", (shard as u64).into()),
                        ("histories", count.into()),
                        ("dur_ns", shard_nanos.into()),
                    ],
                );
            }
        };
        let threads = worker_count(self.config.threads, shards);
        if threads <= 1 {
            for (i, slot) in slots.iter_mut().enumerate() {
                run_shard(i, slot);
            }
        } else {
            let per_worker = shards.div_ceil(threads);
            let run_shard = &run_shard;
            std::thread::scope(|scope| {
                for (worker, chunk) in slots.chunks_mut(per_worker).enumerate() {
                    scope.spawn(move || {
                        for (offset, slot) in chunk.iter_mut().enumerate() {
                            run_shard(worker * per_worker + offset, slot);
                        }
                    });
                }
            });
        }
        let mut tally = Tally::default();
        for shard_tally in &slots {
            tally.merge(shard_tally);
        }
        let elapsed = started.elapsed().as_nanos() as u64;
        stats::record(histories, elapsed);
        tn_obs::debug(
            "transport_run",
            &[
                ("histories", histories.into()),
                ("shards", (shards as u64).into()),
                ("threads", self.config.threads.into()),
                ("dur_ns", elapsed.into()),
            ],
        );
        tally
    }

    /// Runs `histories` monoenergetic, normally-incident neutrons,
    /// sharded per the canonical substream scheme (see the module docs);
    /// the tally is identical for every thread count.
    pub fn run_beam(&self, e: Energy, histories: u64, seed: u64) -> Tally {
        self.run_sharded(|_| Neutron::incident(e), histories, seed)
    }

    /// Runs `histories` monoenergetic neutrons from a diffuse
    /// (cosine-law) ambient field, sharded per the canonical substream
    /// scheme; the tally is identical for every thread count.
    pub fn run_diffuse(&self, e: Energy, histories: u64, seed: u64) -> Tally {
        self.run_sharded(
            |rng| Neutron::diffuse_incident(e, rng),
            histories,
            seed,
        )
    }

    /// Runs sharded *weighted* histories through the variance-reduced
    /// event kernel. Identical shard decomposition, substream scheme,
    /// merge order and instrumentation as [`Self::run_sharded`], so the
    /// weighted tally is also byte-identical for every thread count.
    fn run_weighted_sharded<F>(
        &self,
        source: F,
        histories: u64,
        seed: u64,
        vr: VarianceReduction,
    ) -> WeightedTally
    where
        F: Fn(&mut Rng) -> (Neutron, f64) + Sync,
    {
        if histories == 0 {
            return WeightedTally::default();
        }
        let _span = tn_obs::span("transport.run_weighted");
        let started = Instant::now();
        let shards = histories.div_ceil(SHARD_SIZE) as usize;
        let mut slots = vec![WeightedTally::default(); shards];
        let shard_hist = stats::shard_histogram();
        let shard_hist = &shard_hist;
        let vr = &vr;
        let run_shard = |shard: usize, slot: &mut WeightedTally| {
            let shard_started = Instant::now();
            let mut rng = Rng::seed_from_u64(seed).fork(shard as u64);
            let lo = shard as u64 * SHARD_SIZE;
            let count = SHARD_SIZE.min(histories - lo);
            *slot = event::run_shard_weighted(self, &source, count, &mut rng, vr);
            let shard_nanos = shard_started.elapsed().as_nanos() as u64;
            shard_hist.observe(shard_nanos);
            if tn_obs::enabled(tn_obs::Level::Trace) {
                tn_obs::trace(
                    "shard_done",
                    &[
                        ("shard", (shard as u64).into()),
                        ("histories", count.into()),
                        ("dur_ns", shard_nanos.into()),
                    ],
                );
            }
        };
        let threads = worker_count(self.config.threads, shards);
        if threads <= 1 {
            for (i, slot) in slots.iter_mut().enumerate() {
                run_shard(i, slot);
            }
        } else {
            let per_worker = shards.div_ceil(threads);
            let run_shard = &run_shard;
            std::thread::scope(|scope| {
                for (worker, chunk) in slots.chunks_mut(per_worker).enumerate() {
                    scope.spawn(move || {
                        for (offset, slot) in chunk.iter_mut().enumerate() {
                            run_shard(worker * per_worker + offset, slot);
                        }
                    });
                }
            });
        }
        let mut tally = WeightedTally::default();
        for shard_tally in &slots {
            tally.merge(shard_tally);
        }
        let elapsed = started.elapsed().as_nanos() as u64;
        stats::record(histories, elapsed);
        tn_obs::debug(
            "transport_run_weighted",
            &[
                ("histories", histories.into()),
                ("shards", (shards as u64).into()),
                ("threads", self.config.threads.into()),
                ("dur_ns", elapsed.into()),
            ],
        );
        tally
    }

    /// Runs `histories` monoenergetic, normally-incident *weighted*
    /// neutrons with the given variance reduction. Source weights are 1,
    /// so fractions estimate the same quantities as [`Self::run_beam`]
    /// with (typically far) lower variance per history.
    pub fn run_beam_weighted(
        &self,
        e: Energy,
        histories: u64,
        seed: u64,
        vr: VarianceReduction,
    ) -> WeightedTally {
        self.run_weighted_sharded(|_| (Neutron::incident(e), 1.0), histories, seed, vr)
    }

    /// Runs `histories` weighted neutrons from a diffuse ambient field
    /// with the given variance reduction.
    ///
    /// The entry cosine is importance-sampled from `g(μ) = 3μ²` instead
    /// of the physical cosine law `f(μ) = 2μ`, favouring steep entries
    /// that penetrate deep; the source weight `w₀ = f/g = 2/(3μ)` keeps
    /// the estimator unbiased (`E_g[w₀] = 1`).
    pub fn run_diffuse_weighted(
        &self,
        e: Energy,
        histories: u64,
        seed: u64,
        vr: VarianceReduction,
    ) -> WeightedTally {
        self.run_weighted_sharded(
            |rng: &mut Rng| {
                let mu = rng.gen_f64().cbrt().max(1e-4);
                (
                    Neutron {
                        energy: e,
                        z: Length(0.0),
                        mu,
                    },
                    2.0 / (3.0 * mu),
                )
            },
            histories,
            seed,
            vr,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::{Layer, SlabStack};
    use tn_physics::Material;

    fn water_slab(cm: f64) -> Transport {
        Transport::new(SlabStack::single(Material::water(), Length(cm)))
    }

    #[test]
    fn workers_never_exceed_cores_or_shards() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(worker_count(64, 1_000), cores);
        assert_eq!(worker_count(64, 1), 1);
        assert_eq!(worker_count(0, 5), 1);
        assert_eq!(worker_count(1, 5), 1);
    }

    #[test]
    fn tallies_at_64_threads_are_byte_identical_to_serial() {
        let stack = || SlabStack::single(Material::water(), Length(4.0));
        let serial = Transport::with_config(stack(), TransportConfig::serial());
        let wide = Transport::with_config(stack(), TransportConfig::with_threads(64));
        let (e, histories, seed) = (Energy::from_mev(1.5), 5 * SHARD_SIZE + 3, 64);
        assert_eq!(
            format!("{:?}", wide.run_beam(e, histories, seed)),
            format!("{:?}", serial.run_beam(e, histories, seed))
        );
        assert_eq!(
            format!("{:?}", wide.run_diffuse(e, histories, seed)),
            format!("{:?}", serial.run_diffuse(e, histories, seed))
        );
        let vr = VarianceReduction::default();
        assert_eq!(
            format!("{:?}", wide.run_beam_weighted(e, histories, seed, vr)),
            format!("{:?}", serial.run_beam_weighted(e, histories, seed, vr))
        );
    }

    #[test]
    fn thin_air_is_transparent() {
        let t = Transport::new(SlabStack::single(Material::air(), Length(10.0)));
        let tally = t.run_beam(Energy::from_mev(1.0), 2000, 1);
        assert!(
            tally.transmitted_fraction() > 0.99,
            "transmitted {}",
            tally.transmitted_fraction()
        );
    }

    #[test]
    fn thick_water_moderates_fast_neutrons() {
        let tally = water_slab(30.0).run_beam(Energy::from_mev(2.0), 4000, 2);
        // A 30 cm water slab is a classic shield: very little fast leakage,
        // most neutrons absorbed (H capture) or escaping thermalised.
        assert!((tally.transmitted_fast as f64) / (tally.histories as f64) < 0.05);
        assert!(tally.absorbed_fraction() > 0.3, "{tally:?}");
    }

    #[test]
    fn five_cm_water_produces_thermal_albedo() {
        // The "2 inches of water" case: fast neutrons in, a substantial
        // fraction comes back out thermalised. The converged albedo of
        // this model is ~0.052; 20k histories put the estimate within
        // ~0.002, so the band has real margin on both sides.
        let tally = water_slab(5.08).run_beam(Energy::from_mev(2.0), 20_000, 3);
        let back = tally.reflected_thermal_fraction();
        assert!(back > 0.03 && back < 0.6, "thermal albedo = {back}");
    }

    #[test]
    fn cadmium_blocks_thermal_but_not_fast() {
        let cd = Transport::new(SlabStack::single(
            Material::cadmium(),
            Length(0.1), // 1 mm sheet
        ));
        let thermal = cd.run_beam(Energy(0.0253), 4000, 4);
        // Converged leakage is exp(-Σ_t·d) ≈ 1e-5 per history; anything
        // beyond a stray count means the shield physics broke.
        assert!(
            thermal.transmitted_thermal_fraction() < 1e-3,
            "thermal leaked through 1 mm Cd: {:?}",
            thermal
        );
        let fast = cd.run_beam(Energy::from_mev(1.0), 4000, 5);
        assert!(
            fast.transmitted_fraction() > 0.9,
            "fast transmitted {}",
            fast.transmitted_fraction()
        );
    }

    #[test]
    fn borated_pe_absorbs_thermal_flux() {
        let shield = Transport::new(SlabStack::single(
            Material::borated_polyethylene(),
            Length::from_inches(2.0),
        ));
        let tally = shield.run_beam(Energy(0.0253), 4000, 6);
        assert!(
            tally.transmitted_thermal_fraction() < 0.01,
            "transmitted {}",
            tally.transmitted_thermal_fraction()
        );
    }

    #[test]
    fn layered_stack_transports_in_order() {
        let stack = SlabStack::new(vec![
            Layer::new(Material::water(), Length(2.0)),
            Layer::new(Material::cadmium(), Length(0.1)),
        ]);
        let t = Transport::new(stack);
        // Thermalised neutrons produced in the water die in the Cd backing:
        // thermal transmission ~ 0.
        let tally = t.run_beam(Energy::from_mev(1.0), 4000, 7);
        assert!(tally.transmitted_thermal_fraction() < 0.01);
    }

    #[test]
    fn tallies_account_for_every_history() {
        let tally = water_slab(5.0).run_beam(Energy::from_mev(1.0), 3000, 8);
        let sum = tally.transmitted_thermal
            + tally.transmitted_fast
            + tally.reflected_thermal
            + tally.reflected_fast
            + tally.absorbed
            + tally.lost;
        assert_eq!(sum, tally.histories);
    }

    #[test]
    fn merge_adds_tallies() {
        let a = water_slab(5.0).run_beam(Energy::from_mev(1.0), 1000, 9);
        let b = water_slab(5.0).run_beam(Energy::from_mev(1.0), 1000, 10);
        let mut merged = a;
        merged.merge(&b);
        assert_eq!(merged.histories, 2000);
        assert_eq!(
            merged.absorbed,
            a.absorbed + b.absorbed
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let a = water_slab(5.0).run_beam(Energy::from_mev(1.0), 500, 42);
        let b = water_slab(5.0).run_beam(Energy::from_mev(1.0), 500, 42);
        assert_eq!(a, b);
    }

    #[test]
    fn fate_helpers() {
        assert!(Fate::Reflected { energy: Energy(0.1) }.escaped_thermal());
        assert!(!Fate::Transmitted { energy: Energy(1e6) }.escaped_thermal());
        assert_eq!(Fate::Absorbed { z: Length(1.0) }.exit_energy(), None);
        assert_eq!(Fate::Lost.exit_energy(), None);
    }

    #[test]
    fn diffuse_incidence_reflects_more_than_normal() {
        // Oblique entries see a thicker slab, so more comes back.
        let t = water_slab(5.0);
        let normal = t.run_beam(Energy::from_mev(1.0), 6000, 11);
        let diffuse = t.run_diffuse(Energy::from_mev(1.0), 6000, 12);
        let refl_n = normal.frac(normal.reflected_thermal + normal.reflected_fast);
        let refl_d = diffuse.frac(diffuse.reflected_thermal + diffuse.reflected_fast);
        assert!(refl_d > refl_n, "diffuse {refl_d} vs normal {refl_n}");
    }
}
