//! The five workloads. Each is a closed loop with one driver thread:
//! the next operation is issued when the previous one returns. Inputs
//! derive from the run seed through `obs::trace::mix(seed, i)`; the
//! program sees only the generated configs. Cells (figure × policy) are
//! interleaved round-robin so any tenth of a run has the same mix.

use crate::harness::{Fnv, Spans, Tally};
use acm::chaos::{build_case, standard_invariants, CampaignConfig, ChaosCase, RunTrace};
use acm::core::config::{ExperimentConfig, PredictorChoice, RegionSpec};
use acm::core::framework::{build_vmcs, run_experiment, run_experiment_with_obs};
use acm::core::policy::PolicyKind;
use acm::core::telemetry::ExperimentTelemetry;
use acm::core::{ControlLoop, DegradationConfig};
use acm::ml::model::ModelKind;
use acm::ml::toolchain::{F2pmToolchain, RttfPredictor};
use acm::obs::trace::mix;
use acm::obs::{Obs, ObsConfig};
use acm::overlay::fault::FaultAction;
use acm::overlay::FaultPlan;
use acm::pcam::training::{collect_database, CollectionConfig};
use acm::pcam::{DriftConfig, LifecycleConfig, RegionConfig, RttfSource, Vmc};
use acm::router::{run_routed_plane, PlanStep, PlaneOutcome, RoutedPlaneConfig};
use acm::sim::rng::SimRng;
use acm::sim::time::{Duration, SimTime};
use acm::workload::ClientSchedule;
use std::collections::BTreeMap;
use std::time::Instant;

/// Static description of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    /// Operations covered by the digest and the exact counts. Fixed, so
    /// two runs of different length still compare as strings; every run
    /// executes at least this many.
    pub digest_ops: u64,
    /// Operations after which the round-robin of cells repeats.
    pub cycle: usize,
}

pub const SPECS: [Spec; 5] = [
    Spec {
        name: "figure-sweep",
        why: "the paper itself: one full run_experiment (train REP-Tree, 120 eras) over fig3/fig4 x policies 1-3; ml + pcam::training are about half of each op, the rest is per-era core overhead",
        digest_ops: 60,
        cycle: 6,
    },
    Spec {
        name: "mega-control",
        why: "one step_era of the 200-region x 5120-browser world (trained REP-Tree, partition cycle, 2% drop, degradation on); sharded MONITOR (pcam/vm/ml predict on exec) does most of the work",
        digest_ops: 3 * MEGA_CYCLE_ERAS as u64,
        cycle: MEGA_CYCLE_ERAS,
    },
    Spec {
        name: "routed-plane",
        why: "one run_routed_plane (2^17 browsers, 8 shards, 16 regions, skew/quarantine/reverse plan cycle); sim queue, router P2C, open-loop arrivals and the exec era barrier do all the work",
        digest_ops: 18,
        cycle: 1,
    },
    Spec {
        name: "lifecycle-drift",
        why: "one 60-era ControlLoop run of the drifted deployment with the model lifecycle on and stale predictors; background refits on exec, shadow evaluation, promote/rollback",
        digest_ops: 18,
        cycle: 6,
    },
    Spec {
        name: "fault-storm",
        why: "one traced 40-era chaos-campaign case plus events/metrics/CSV export; the write side of obs and the fault path (overlay::fault, election, core::degrade)",
        digest_ops: 600,
        cycle: 3,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// Sizes at which the per-layer kernels run for a workload.
#[derive(Debug, Clone)]
pub struct Shape {
    pub regions: usize,
    /// Region whose VM pool the `vm`/`pcam`/`ml` kernels use.
    pub region: RegionConfig,
    /// Arrival rate the region sees, requests per second.
    pub region_lambda: f64,
    /// Pending events in one simulator queue.
    pub queue_depth: usize,
    /// Child hubs merged per era (MONITOR shards), 1 when unsharded.
    pub monitor_shards: usize,
    /// Config whose `ControlLoop::new` the `core.loop_new_ms` kernel times.
    pub cfg: ExperimentConfig,
}

/// What one operation reports back to the section loop.
#[derive(Debug, Default)]
pub struct OpReport {
    /// Host wall time of the timed part of the operation.
    pub wall_ns: u64,
    /// FNV-1a-64 of the operation's outputs.
    pub digest: u64,
    /// First failed check, if any.
    pub failure: Option<String>,
}

/// Per-section measurement state handed to every operation.
#[derive(Debug)]
pub struct Cx {
    pub spans: Spans,
    /// Registries of every operation of the section (traced run only).
    pub all: Tally,
    /// Registries of the first `digest_ops` operations: exact counts.
    pub prefix: Tally,
    pub digest_ops: u64,
    /// Σ `PlaneOutcome` fields (the plane's hub is not reachable from
    /// outside): executed events, decisions, arena reuse, inner wall.
    pub plane_all: PlaneSums,
    pub plane_prefix: PlaneSums,
    /// Invariant violations found by the untimed checker.
    pub violations: u64,
    pub check_ns: u64,
}

#[derive(Debug, Default, Clone, Copy)]
pub struct PlaneSums {
    pub executed: u64,
    pub decisions: u64,
    pub arena_reuse: u64,
    pub inner_wall_ns: u64,
}

impl PlaneSums {
    fn add(&mut self, out: &PlaneOutcome) {
        self.executed += out.executed;
        self.decisions += out.decisions();
        self.arena_reuse += out.arena_reuse;
        self.inner_wall_ns += (out.wall_s * 1e9) as u64;
    }
}

impl Cx {
    pub fn new(traced: bool, digest_ops: u64) -> Self {
        Cx {
            spans: Spans::new(traced),
            all: Tally::default(),
            prefix: Tally::default(),
            digest_ops,
            plane_all: PlaneSums::default(),
            plane_prefix: PlaneSums::default(),
            violations: 0,
            check_ns: 0,
        }
    }

    pub fn traced(&self) -> bool {
        self.spans.enabled()
    }

    /// Folds the hub of operation `i` into the tallies (traced run only:
    /// a registry snapshot per op is not free).
    fn harvest(&mut self, i: u64, obs: &Obs) {
        if !self.traced() {
            return;
        }
        self.all.absorb(obs);
        if i < self.digest_ops {
            self.prefix.absorb(obs);
        }
    }

    /// Runs the chaos invariants over a finished run, untimed.
    fn check_invariants(
        &mut self,
        cfg: &ExperimentConfig,
        tel: &ExperimentTelemetry,
        obs: &Obs,
    ) -> Option<String> {
        let t = Instant::now();
        let id = self.spans.open("chaos.check");
        let found = RunTrace::build(cfg, tel, obs).check(&mut standard_invariants());
        self.spans.close(id);
        self.check_ns += t.elapsed().as_nanos() as u64;
        self.violations += found.len() as u64;
        found.first().map(|v| format!("invariant: {}", v.line()))
    }
}

pub trait Workload {
    /// Issues operation `i` and checks its output.
    fn op(&mut self, i: u64, cx: &mut Cx) -> OpReport;

    /// End of a section: harvests registries that live across operations
    /// and runs whole-run checks. Returns the first failure.
    fn finish(&mut self, _cx: &mut Cx) -> Option<String> {
        None
    }

    fn shape(&self) -> Shape;
}

/// Builds a workload: everything before the first timed operation (world
/// build, stale-model training, warm-up operations). `lifecycle_off`
/// switches the model lifecycle off where a workload has one — the
/// comparator of `pcam.lifecycle.era_overhead_us`.
pub fn setup(name: &str, seed: u64, lifecycle_off: bool, cx: &mut Cx) -> Box<dyn Workload> {
    let id = cx.spans.open("setup");
    let w: Box<dyn Workload> = match name {
        "figure-sweep" => Box::new(FigureSweep::setup(seed, cx)),
        "mega-control" => Box::new(MegaControl::setup(seed, cx)),
        "routed-plane" => Box::new(RoutedPlane::setup(seed, cx)),
        "lifecycle-drift" => Box::new(LifecycleDrift::setup(seed, lifecycle_off, cx)),
        "fault-storm" => Box::new(FaultStorm::setup(seed, cx)),
        other => panic!("unknown workload {other}"),
    };
    cx.spans.close(id);
    w
}

/// Seed of every warm-up operation. Warm-up output is discarded, so it
/// need not follow `--seed`; a fixed one keeps `setup_s` from varying with
/// how expensive the seed's first operations happen to be.
const WARMUP_SEED: u64 = 0x5EED_CAFE;

const POLICIES: [PolicyKind; 3] = [
    PolicyKind::SensibleRouting,
    PolicyKind::AvailableResources,
    PolicyKind::Exploration,
];

/// The {fig3, fig4} × {Policy 1, 2, 3} cell of operation `i`, seeded per op.
fn figure_cell(seed: u64, i: u64) -> ExperimentConfig {
    let cell = (i % 6) as usize;
    let s = mix(seed, i);
    if cell / 3 == 0 {
        ExperimentConfig::two_region_fig3(POLICIES[cell % 3], s)
    } else {
        ExperimentConfig::three_region_fig4(POLICIES[cell % 3], s)
    }
}

/// Fractions must be a probability vector in every era.
fn check_fractions(tel: &ExperimentTelemetry, regions: usize) -> Option<String> {
    for e in 0..tel.eras() {
        let sum: f64 = (0..regions)
            .map(|j| tel.fraction(j).points()[e].value)
            .sum();
        if (sum - 1.0).abs() > 1e-9 {
            return Some(format!("fractions sum to {sum} in era {e}"));
        }
    }
    None
}

fn check_run(tel: &ExperimentTelemetry, cfg: &ExperimentConfig) -> Option<String> {
    if tel.eras() != cfg.eras {
        return Some(format!("ran {} eras, wanted {}", tel.eras(), cfg.eras));
    }
    if tel.total_completed() == 0 {
        return Some("completed requests are 0".into());
    }
    check_fractions(tel, cfg.regions.len())
}

fn small_world_shape(cfg: ExperimentConfig) -> Shape {
    let spec = &cfg.regions[0];
    let clients = match spec.clients {
        ClientSchedule::Constant(c) => f64::from(c),
        _ => 256.0,
    };
    Shape {
        regions: cfg.regions.len(),
        region: spec.region.clone(),
        region_lambda: clients / acm::workload::THINK_TIME_MEAN_S,
        queue_depth: cfg.regions.len() * 4,
        monitor_shards: cfg.regions.len(),
        cfg,
    }
}

// ---------------------------------------------------------------------------
// figure-sweep
// ---------------------------------------------------------------------------

struct FigureSweep {
    seed: u64,
}

impl FigureSweep {
    fn setup(seed: u64, _cx: &mut Cx) -> Self {
        // One warm-up operation per cell.
        let mut warm = FigureSweep { seed: WARMUP_SEED };
        let mut quiet = Cx::new(false, 0);
        for i in 0..6 {
            warm.op(i, &mut quiet);
        }
        FigureSweep { seed }
    }
}

impl Workload for FigureSweep {
    fn op(&mut self, i: u64, cx: &mut Cx) -> OpReport {
        let cfg = figure_cell(self.seed, i);
        let t = Instant::now();
        let tel = if cx.traced() {
            // `run_experiment` taken apart at its layer boundaries.
            let op = cx.spans.open("op");
            let mut rng = SimRng::new(cfg.seed);
            let vmcs = cx
                .spans
                .scope("core.build_vmcs", || build_vmcs(&cfg, &mut rng));
            let mut cl = cx
                .spans
                .scope("core.loop_new", || ControlLoop::new(&cfg, vmcs, rng));
            cx.spans.scope("core.run", || cl.run(cfg.eras));
            cx.spans.close(op);
            let wall_ns = t.elapsed().as_nanos() as u64;
            cx.harvest(i, cl.obs());
            (cl.into_telemetry(), wall_ns)
        } else {
            let tel = run_experiment(&cfg);
            (tel, t.elapsed().as_nanos() as u64)
        };
        let (tel, wall_ns) = tel;
        let csv = cx.spans.scope("core.to_csv", || tel.to_csv());
        OpReport {
            wall_ns,
            digest: Fnv::default().bytes(csv.as_bytes()).0,
            failure: check_run(&tel, &cfg),
        }
    }

    fn shape(&self) -> Shape {
        small_world_shape(figure_cell(self.seed, 3))
    }
}

// ---------------------------------------------------------------------------
// mega-control
// ---------------------------------------------------------------------------

pub const MEGA_REGIONS: usize = 200;
pub const MEGA_CLIENTS_PER_REGION: u32 = 5_120;
/// The last region is partitioned for the middle third of every cycle:
/// long enough for quarantine (2 stale eras) and, after the heal,
/// probation and re-admission (3 fresh eras) to complete inside it.
pub const MEGA_CYCLE_ERAS: usize = 18;
/// Untimed warm-up eras, counted in `setup_s`: the calm first third, so
/// every timed cycle is partition, heal, calm.
pub const MEGA_WARMUP_ERAS: usize = MEGA_CYCLE_ERAS / 3;
/// Cycles scripted up front; past them the world simply runs unpartitioned.
const MEGA_CYCLES: usize = 400;

/// `mega_report`'s full world — the three paper flavors cycled with
/// unique names, a star overlay rooted at region 0, 2 % message drop /
/// up to 10 ms extra delay, graceful degradation on — with a trained
/// REP-Tree instead of the oracle and the partition repeated every
/// cycle, since a run has no fixed last era.
fn mega_config(seed: u64) -> ExperimentConfig {
    let n = MEGA_REGIONS;
    let mut cfg = ExperimentConfig::two_region_fig3(PolicyKind::AvailableResources, seed);
    cfg.name = format!("mega-{n}r");
    cfg.predictor = PredictorChoice::Trained(ModelKind::RepTree);
    cfg.eras = MEGA_CYCLE_ERAS * MEGA_CYCLES;
    cfg.regions = (0..n)
        .map(|i| {
            let mut region = match i % 3 {
                0 => ExperimentConfig::region1_ireland(),
                1 => ExperimentConfig::region2_frankfurt(),
                _ => ExperimentConfig::region3_munich(),
            };
            region.name = format!("r{i:03}-{}", region.name);
            let factor = (MEGA_CLIENTS_PER_REGION as usize).div_ceil(512);
            region.total_vms *= factor;
            region.target_active *= factor;
            RegionSpec {
                region,
                clients: ClientSchedule::Constant(MEGA_CLIENTS_PER_REGION),
            }
        })
        .collect();
    cfg.latencies = (1..n)
        .map(|j| (0usize, j, Duration::from_millis(8 + (j as u64 * 7) % 40)))
        .collect();
    let era_s = cfg.era.as_micros() / 1_000_000;
    let mut plan = FaultPlan::scripted(mix(seed, 1), Vec::new());
    for c in 0..MEGA_CYCLES as u64 {
        let cycle = MEGA_CYCLE_ERAS as u64;
        let at = (c * cycle + cycle / 3) * era_s;
        let heal = (c * cycle + cycle * 2 / 3) * era_s;
        plan = plan.partition_window(
            vec![ExperimentConfig::node_of(n - 1)],
            SimTime::from_secs(at),
            SimTime::from_secs(heal),
        );
    }
    cfg.fault_plan = Some(plan.with_message_chaos(0.02, Duration::from_millis(10)));
    cfg.degradation = DegradationConfig::enabled();
    cfg
}

struct MegaControl {
    cfg: ExperimentConfig,
    cl: ControlLoop,
}

impl MegaControl {
    fn setup(seed: u64, cx: &mut Cx) -> Self {
        let cfg = mega_config(mix(seed, 0));
        let mut rng = SimRng::new(cfg.seed);
        let vmcs = cx
            .spans
            .scope("core.build_vmcs", || build_vmcs(&cfg, &mut rng));
        let mut cl = cx
            .spans
            .scope("core.loop_new", || ControlLoop::new(&cfg, vmcs, rng));
        cx.spans.scope("core.run", || cl.run(MEGA_WARMUP_ERAS));
        MegaControl { cfg, cl }
    }
}

impl Workload for MegaControl {
    fn op(&mut self, i: u64, cx: &mut Cx) -> OpReport {
        let t = Instant::now();
        let op = cx.spans.open("op");
        cx.spans.scope("core.step_era", || self.cl.step_era());
        cx.spans.close(op);
        let wall_ns = t.elapsed().as_nanos() as u64;

        let fractions = self.cl.fractions();
        let sum: f64 = fractions.iter().sum();
        let mut failure = None;
        if (sum - 1.0).abs() > 1e-9 || fractions.iter().any(|f| !f.is_finite() || *f < 0.0) {
            failure = Some(format!("fractions sum to {sum} after op {i}"));
        }
        let mut digest = Fnv::default();
        digest
            .f64s(fractions)
            .u64(self.cl.telemetry().total_completed());
        if i + 1 == cx.digest_ops {
            // The telemetry of the digest prefix, byte for byte.
            let csv = cx
                .spans
                .scope("core.to_csv", || self.cl.telemetry().to_csv());
            digest.bytes(csv.as_bytes());
            if cx.traced() {
                cx.prefix.absorb(self.cl.obs());
            }
        }
        OpReport {
            wall_ns,
            digest: digest.0,
            failure,
        }
    }

    fn finish(&mut self, cx: &mut Cx) -> Option<String> {
        if self.cl.telemetry().total_completed() == 0 {
            return Some("completed requests are 0".into());
        }
        if !cx.traced() {
            return None;
        }
        cx.all.absorb(self.cl.obs());
        cx.check_invariants(&self.cfg, self.cl.telemetry(), self.cl.obs())
    }

    fn shape(&self) -> Shape {
        // Region 1 is the largest pool (Frankfurt, 12 x 10 VMs).
        let spec = &self.cfg.regions[1];
        Shape {
            regions: MEGA_REGIONS,
            region: spec.region.clone(),
            region_lambda: f64::from(MEGA_CLIENTS_PER_REGION) / acm::workload::THINK_TIME_MEAN_S,
            queue_depth: MEGA_REGIONS * 4,
            monitor_shards: MEGA_REGIONS.min(32),
            cfg: self.cfg.clone(),
        }
    }
}

// ---------------------------------------------------------------------------
// routed-plane
// ---------------------------------------------------------------------------

pub const PLANE_REGIONS: usize = 16;
pub const PLANE_SHARDS: usize = 8;
pub const PLANE_BROWSERS: u64 = 1 << 17;
pub const PLANE_ERAS: u64 = 3;

/// `router_report`'s plane at `mega_report`'s plan cycle: skewed weights,
/// the same with the last region quarantined, the reversed skew.
fn plane_config(seed: u64, eras: u64, browsers: u64) -> RoutedPlaneConfig {
    let n = PLANE_REGIONS;
    let mut cfg = RoutedPlaneConfig::new(n, PLANE_SHARDS, browsers, eras, seed);
    let skew: Vec<f64> = (0..n).map(|i| (3 - (i % 3)) as f64).collect();
    let mut masked_live = vec![true; n];
    masked_live[n - 1] = false;
    cfg.plans = vec![
        PlanStep::all_live(skew.clone()),
        PlanStep {
            fractions: skew.clone(),
            live: masked_live,
        },
        PlanStep::all_live(skew.into_iter().rev().collect()),
    ];
    cfg
}

fn check_plane(out: &PlaneOutcome) -> Option<String> {
    let completed: u64 = out.digests.iter().map(|d| d.completed).sum();
    if completed == 0 || out.decisions() == 0 {
        return Some("completed requests are 0".into());
    }
    for (s, d) in out.digests.iter().enumerate() {
        let routed: u64 = d.routed.iter().sum();
        if routed != d.accepted || d.dropped + d.completed != d.accepted {
            return Some(format!(
                "shard {s}: accepted {} routed {routed} dropped {} completed {}",
                d.accepted, d.dropped, d.completed
            ));
        }
    }
    None
}

struct RoutedPlane {
    seed: u64,
}

impl RoutedPlane {
    fn setup(seed: u64, cx: &mut Cx) -> Self {
        // Two warm-up operations (pool threads spun up, allocator primed).
        for i in 0..2 {
            let cfg = plane_config(mix(WARMUP_SEED, i), PLANE_ERAS, PLANE_BROWSERS);
            cx.spans
                .scope("router.run_routed_plane", || run_routed_plane(&cfg));
        }
        RoutedPlane { seed }
    }
}

impl Workload for RoutedPlane {
    fn op(&mut self, i: u64, cx: &mut Cx) -> OpReport {
        let cfg = plane_config(mix(self.seed, i), PLANE_ERAS, PLANE_BROWSERS);
        let t = Instant::now();
        let op = cx.spans.open("op");
        let out = cx
            .spans
            .scope("router.run_routed_plane", || run_routed_plane(&cfg));
        cx.spans.close(op);
        let wall_ns = t.elapsed().as_nanos() as u64;

        cx.plane_all.add(&out);
        if i < cx.digest_ops {
            cx.plane_prefix.add(&out);
        }
        let mut digest = Fnv::default();
        digest.u64(out.executed);
        for d in &out.digests {
            digest
                .u64(d.accepted)
                .u64(d.dropped)
                .u64(d.completed)
                .u64(d.chaos_delay_us);
            for r in &d.routed {
                digest.u64(*r);
            }
        }
        OpReport {
            wall_ns,
            digest: digest.0,
            failure: check_plane(&out),
        }
    }

    /// A masked region must never be routed to: one short plane whose
    /// only plan quarantines the last region.
    fn finish(&mut self, cx: &mut Cx) -> Option<String> {
        let mut cfg = plane_config(mix(self.seed, u64::MAX), 1, 1 << 12);
        cfg.plans.swap(0, 1);
        cfg.plans.truncate(1);
        let out = cx
            .spans
            .scope("router.run_routed_plane", || run_routed_plane(&cfg));
        let masked = out.routed_totals()[PLANE_REGIONS - 1];
        (masked != 0).then(|| format!("masked region was routed {masked} requests"))
    }

    fn shape(&self) -> Shape {
        let mut shape = small_world_shape(figure_cell(self.seed, 3));
        shape.regions = PLANE_REGIONS;
        // The plane schedules a whole era of arrivals per shard up front.
        let rate = PLANE_BROWSERS as f64 / acm::workload::THINK_TIME_MEAN_S / PLANE_SHARDS as f64;
        shape.queue_depth = (rate * 10.0) as usize;
        shape.monitor_shards = PLANE_SHARDS;
        shape
    }
}

// ---------------------------------------------------------------------------
// lifecycle-drift
// ---------------------------------------------------------------------------

/// Eras of one `lifecycle-drift` operation: `model_report`'s promotion
/// scenario length, inside which the whole drift -> refit -> shadow ->
/// promote pipeline turns over several times.
pub const DRIFT_ERAS: usize = 60;

/// `model_report`'s drifted deployment for one cell: regions leak memory
/// 3x faster than any training profile assumed, a sensitive drift
/// monitor, a lifecycle tuned to act within the run.
fn drifted_cell(seed: u64, i: u64, lifecycle_off: bool) -> ExperimentConfig {
    let mut cfg = figure_cell(seed, i);
    cfg.eras = DRIFT_ERAS;
    for spec in &mut cfg.regions {
        spec.region.anomaly.leak_size_mb *= 3.0;
    }
    cfg.drift = DriftConfig {
        window: 8,
        miss_bound: 0.25,
        min_samples: 2,
    };
    cfg.lifecycle = LifecycleConfig {
        enabled: !lifecycle_off,
        min_labelled_rows: 20,
        shadow_min_samples: 6,
        cooldown_eras: 4,
        ..Default::default()
    };
    cfg
}

struct LifecycleDrift {
    seed: u64,
    lifecycle_off: bool,
    /// Stale predictor per flavor, trained once on the default anomaly
    /// profile — the world before it drifted.
    stale: BTreeMap<String, RttfPredictor>,
}

impl LifecycleDrift {
    fn setup(seed: u64, lifecycle_off: bool, cx: &mut Cx) -> Self {
        // The world before it drifted is the same for every `--seed`
        // (`model_report` trains its stale models from this seed too), so
        // `setup_s` does not vary with how the seed's training data fell.
        let mut rng = SimRng::new(7);
        let quick = CollectionConfig {
            lambdas: vec![4.0, 8.0, 16.0],
            runs_per_lambda: 3,
            ..Default::default()
        };
        let mut stale = BTreeMap::new();
        for spec in &ExperimentConfig::three_region_fig4(POLICIES[0], 0).regions {
            let flavor = &spec.region.flavor;
            let db = cx.spans.scope("pcam.collect_database", || {
                collect_database(
                    flavor,
                    &acm::vm::AnomalyConfig::default(),
                    &spec.region.failure_spec,
                    &quick,
                    &mut rng,
                )
            });
            let toolchain = F2pmToolchain {
                models: vec![ModelKind::RepTree],
                ..Default::default()
            };
            let model = cx
                .spans
                .scope("ml.toolchain_run", || toolchain.run(&db, &mut rng).0);
            stale.insert(flavor.name.clone(), model);
        }
        let mut w = LifecycleDrift {
            seed,
            lifecycle_off,
            stale,
        };
        // One warm-up operation per figure.
        let mut quiet = Cx::new(false, 0);
        w.seed = WARMUP_SEED;
        for i in [0, 3] {
            w.op(i, &mut quiet);
        }
        w.seed = seed;
        w
    }
}

impl Workload for LifecycleDrift {
    fn op(&mut self, i: u64, cx: &mut Cx) -> OpReport {
        let cfg = drifted_cell(self.seed, i, self.lifecycle_off);
        let t = Instant::now();
        let op = cx.spans.open("op");
        let mut rng = SimRng::new(cfg.seed);
        let vmcs: Vec<Vmc> = cx.spans.scope("pcam.vmc_new", || {
            cfg.regions
                .iter()
                .map(|spec| {
                    let model = self.stale[&spec.region.flavor.name].clone();
                    Vmc::new(spec.region.clone(), RttfSource::Model(model), rng.split())
                })
                .collect()
        });
        let mut cl = cx
            .spans
            .scope("core.loop_new", || ControlLoop::new(&cfg, vmcs, rng));
        cx.spans.scope("core.run", || cl.run(cfg.eras));
        cx.spans.close(op);
        let wall_ns = t.elapsed().as_nanos() as u64;

        cx.harvest(i, cl.obs());
        let mut failure = check_run(cl.telemetry(), &cfg);
        if cx.traced() && failure.is_none() {
            failure = cx.check_invariants(&cfg, cl.telemetry(), cl.obs());
        }
        let csv = cx.spans.scope("core.to_csv", || cl.telemetry().to_csv());
        let mut digest = Fnv::default();
        digest.bytes(csv.as_bytes());
        for vmc in cl.vmcs() {
            digest.u64(vmc.lifecycle().map_or(0, |l| l.version()));
        }
        OpReport {
            wall_ns,
            digest: digest.0,
            failure,
        }
    }

    fn shape(&self) -> Shape {
        small_world_shape(drifted_cell(self.seed, 3, self.lifecycle_off))
    }
}

// ---------------------------------------------------------------------------
// fault-storm
// ---------------------------------------------------------------------------

struct FaultStorm {
    cc: CampaignConfig,
    /// Campaign case index of each operation issued so far.
    cases: Vec<usize>,
}

/// At the seed commit the checker reports `reelection_bound` on plans
/// where a leader kill and a node revival land in the same era (the
/// killed leader is revived in the same batch and keeps the lead; about
/// 1 case in 7 000, see README). A benchmark needs operations that pass,
/// so such plans — 1.2 % of the generated ones — are not issued.
fn kill_meets_revival(cfg: &ExperimentConfig) -> bool {
    let Some(plan) = &cfg.fault_plan else {
        return false;
    };
    let era_us = cfg.era.as_micros();
    let era_of = |at: SimTime| at.as_micros().div_ceil(era_us);
    let eras_of = |want: fn(&FaultAction) -> bool| -> Vec<u64> {
        plan.events
            .iter()
            .filter(|e| want(&e.action))
            .map(|e| era_of(e.at))
            .collect()
    };
    let kills = eras_of(|a| matches!(a, FaultAction::KillLeader));
    let revivals = eras_of(|a| matches!(a, FaultAction::RecoverNode(_)));
    kills.iter().any(|k| revivals.contains(k))
}

impl FaultStorm {
    fn new(campaign_seed: u64) -> Self {
        FaultStorm {
            cc: CampaignConfig {
                seed: campaign_seed,
                ..Default::default()
            },
            cases: Vec::new(),
        }
    }

    fn setup(seed: u64, _cx: &mut Cx) -> Self {
        let mut warm = FaultStorm::new(WARMUP_SEED);
        let mut quiet = Cx::new(false, 0);
        for i in 0..48 {
            warm.op(i, &mut quiet);
        }
        FaultStorm::new(mix(seed, 0))
    }

    /// The case operation `i` runs: the `i`-th generated case that is
    /// not filtered out.
    fn case(&mut self, i: u64) -> ChaosCase {
        while self.cases.len() <= i as usize {
            let mut index = self.cases.last().map_or(0, |last| last + 1);
            while kill_meets_revival(&build_case(&self.cc, index).cfg) {
                index += 1;
            }
            self.cases.push(index);
        }
        build_case(&self.cc, self.cases[i as usize])
    }
}

impl Workload for FaultStorm {
    fn op(&mut self, i: u64, cx: &mut Cx) -> OpReport {
        let case = self.case(i);
        let mut cfg = case.cfg;
        cfg.obs = ObsConfig::traced(case.case_seed);
        let obs = Obs::new(cfg.obs);

        let t = Instant::now();
        let op = cx.spans.open("op");
        let tel = cx.spans.scope("core.run_experiment", || {
            run_experiment_with_obs(&cfg, obs.clone())
        });
        let events = cx.spans.scope("obs.events_jsonl", || obs.events_jsonl());
        let metrics = cx.spans.scope("obs.metrics_jsonl", || obs.metrics_jsonl());
        let csv = cx.spans.scope("core.to_csv", || tel.to_csv());
        cx.spans.close(op);
        let wall_ns = t.elapsed().as_nanos() as u64;

        cx.harvest(i, &obs);
        let mut failure = check_run(&tel, &cfg);
        if metrics.is_empty() || events.is_empty() {
            failure = Some("empty export".into());
        }
        // Every op, traced or not: the checker is this workload's oracle.
        if let Some(v) = cx.check_invariants(&cfg, &tel, &obs) {
            failure = Some(v);
        }
        // The metrics export carries wall-clock timers, so it is checked
        // for presence only; events and telemetry are seed-deterministic.
        let mut digest = Fnv::default();
        digest.bytes(events.as_bytes()).bytes(csv.as_bytes());
        OpReport {
            wall_ns,
            digest: digest.0,
            failure,
        }
    }

    fn shape(&self) -> Shape {
        // Every third case runs the three-region deployment.
        small_world_shape(build_case(&self.cc, 2).cfg)
    }
}
