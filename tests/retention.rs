//! Integration: what an era leaves behind, and what its exports look like.
//!
//! A time-budgeted benchmark run that finishes more eras retains more, so
//! what one era retains is part of the performance contract. This binary
//! installs a counting allocator and steps a 200-region star world — the
//! shape of the benchmark's `mega-control`, with small pools and client
//! populations so it runs in seconds — to bound the live heap an era adds,
//! and checks on a fig-4 run that storing telemetry and plan vectors
//! compactly left the three exports byte for byte where they were. It also
//! counts the allocation calls one model fit makes, with and without the
//! selection Lasso: the lifecycle refits on every drift signal, so a refit
//! that allocates per training row is a per-row cost of serving. And it
//! counts the calls a steady-state era makes in three small worlds: an era
//! allocates only what it keeps — the telemetry row, the installed plan,
//! the event records, labelled rows and a refit's model — and everything
//! it only works in is a buffer its VMC, loop or lifecycle reuses.

mod common;

use acm::core::config::{ExperimentConfig, PredictorChoice, RegionSpec};
use acm::core::control_loop::ControlLoop;
use acm::core::framework::{build_vmcs, run_experiment_with_obs};
use acm::core::policy::PolicyKind;
use acm::core::telemetry::ExperimentTelemetry;
use acm::core::DegradationConfig;
use acm::ml::dataset::Dataset;
use acm::ml::model::ModelKind;
use acm::ml::toolchain::{F2pmToolchain, FitBuffers};
use acm::obs::json::{self, JsonObject};
use acm::obs::{Obs, ObsConfig, Value};
use acm::overlay::FaultPlan;
use acm::sim::rng::SimRng;
use acm::sim::series::SeriesTable;
use acm::sim::{Duration, SimTime};
use acm::vm::FEATURE_NAMES;
use acm::workload::ClientSchedule;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::{Arc, Mutex};

/// Bytes currently allocated by the whole process.
static LIVE: AtomicIsize = AtomicIsize::new(0);

thread_local! {
    /// Allocation calls (`alloc` and `realloc`) made by this thread.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn count_call() {
    // A const-initialised `Cell` has no destructor, so the slot is live
    // for the thread's whole life; `try_with` only guards the principle.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

struct Counting;

// SAFETY: defers every operation to `System` unchanged; the counter is a
// relaxed statistic that publishes nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        count_call();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        count_call();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The counter is process-wide: the tests of this binary take turns.
static HEAP: Mutex<()> = Mutex::new(());

const REGIONS: usize = 200;

/// `mega-control`'s world in small: the three paper flavors cycled over a
/// star rooted at region 0, 16 browsers per region, one early partition
/// of the last region, 2 % message drop, graceful degradation on.
fn star_world(seed: u64) -> ExperimentConfig {
    let n = REGIONS;
    let mut cfg = ExperimentConfig::two_region_fig3(PolicyKind::AvailableResources, seed);
    cfg.name = format!("retention-{n}r");
    cfg.predictor = PredictorChoice::Oracle;
    cfg.eras = 120;
    cfg.regions = (0..n)
        .map(|i| {
            let mut region = match i % 3 {
                0 => ExperimentConfig::region1_ireland(),
                1 => ExperimentConfig::region2_frankfurt(),
                _ => ExperimentConfig::region3_munich(),
            };
            region.name = format!("r{i:03}-{}", region.name);
            RegionSpec {
                region,
                clients: ClientSchedule::Constant(16),
            }
        })
        .collect();
    cfg.latencies = (1..n)
        .map(|j| (0usize, j, Duration::from_millis(8 + (j as u64 * 7) % 40)))
        .collect();
    let era_s = cfg.era.as_micros() / 1_000_000;
    cfg.fault_plan = Some(
        FaultPlan::scripted(seed, Vec::new())
            .partition_window(
                vec![ExperimentConfig::node_of(n - 1)],
                SimTime::from_secs(6 * era_s),
                SimTime::from_secs(12 * era_s),
            )
            .with_message_chaos(0.02, Duration::from_millis(10)),
    );
    cfg.degradation = DegradationConfig::enabled();
    cfg
}

#[test]
fn an_era_of_the_200_region_world_retains_at_most_10_5_kb() {
    let _heap = HEAP.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = star_world(11);
    let mut rng = SimRng::new(cfg.seed);
    let vmcs = build_vmcs(&cfg, &mut rng);
    let mut cl = ControlLoop::new(&cfg, vmcs, rng);

    cl.run(40);
    let at_40 = LIVE.load(Ordering::Relaxed);
    cl.run(80);
    let at_120 = LIVE.load(Ordering::Relaxed);
    let per_era = (at_120 - at_40) as f64 / 80.0;
    // Reads 10 429 B at any pool width. The telemetry row holds what only
    // it holds: (2 n + 4) x 8 = 3 232 B of RMTTFs, response times and
    // globals, n x 4 = 800 B of ACTIVE counts, and a 48 B slot in the row
    // vector (38 B an era, amortised over its doubling). Its fractions are
    // the leader's n-vector behind an `Arc`, 1 616 B, which the era's
    // `plan.install` also holds as `new` (its `old` is the previous
    // install's `new`). The rest, ~4.7 KB, is small events (the era's ~16
    // message drops and retries, plus their stores' `Vec` doubling
    // 512 -> 1 024 records inside the window), which stop growing once a
    // kind reaches `event_capacity`. A row that copies the fractions reads
    // 12 045 B, one that stores the counts as floats 800 B more than this
    // (both did: 12 804 B); an install that copies both vectors read
    // 14 367 B, per-series storage and pre-rendered plan strings 33 816 B
    // on the same world — so 10.5 KB fails if any of them returns.
    assert!(
        per_era <= 10.5 * 1024.0,
        "eras 40-120 retained {per_era:.0} B each ({at_40} -> {at_120})"
    );
    assert!(per_era >= 4_032.0, "the rows alone are 4 032 B per era");
    let tel = cl.telemetry();
    assert_eq!(tel.eras(), 120);

    // An era's fraction column and that era's `plan.install` `new` are one
    // allocation; an era that froze the plan shares the one in force.
    let obs = cl.obs();
    let installs: BTreeMap<u64, Arc<[f64]>> = obs
        .events_tail(usize::MAX)
        .into_iter()
        .filter(|rec| rec.kind == "plan.install")
        .map(|rec| {
            let (Some(Value::U64(era)), Some(Value::F64s(new))) =
                (rec.field("era"), rec.field("new"))
            else {
                panic!("plan.install carries era and new: {rec:?}")
            };
            (*era, new.clone())
        })
        .collect();
    assert!(installs.len() >= 100, "{} installs", installs.len());
    let mut in_force: Option<&Arc<[f64]>> = None;
    for e in 0..tel.eras() {
        in_force = installs.get(&(e as u64)).or(in_force);
        if let Some(plan) = in_force {
            let column = &tel.fraction(0)[e].value;
            assert!(
                std::ptr::eq(column, &plan[0]),
                "era {e} copied its fractions"
            );
        }
    }

    // Every era asks for all n^2 client-to-region latencies: that is one
    // shortest-path tree per source and failure state, never one search
    // per pair.
    let builds = obs.counter("acm.overlay.transport.tree_builds").value();
    let invalidations = obs.counter("acm.overlay.transport.invalidations").value();
    assert!(invalidations >= 2, "the partition and its heal");
    assert!(
        builds >= REGIONS as u64 && builds <= REGIONS as u64 * (invalidations + 1),
        "{builds} tree builds over {invalidations} invalidations"
    );
}

/// A fixed 132 x 12 labelled database (the lifecycle's average refit
/// size) and the one-family REP-Tree toolchain the lifecycle trains with.
fn refit_db() -> (Dataset, F2pmToolchain) {
    let mut rng = SimRng::new(5);
    let mut db = Dataset::new(FEATURE_NAMES);
    for _ in 0..132 {
        let row: Vec<f64> = (0..FEATURE_NAMES.len())
            .map(|j| rng.uniform(0.0, 100.0 * (j + 1) as f64))
            .collect();
        let rttf = 5_000.0 - 3.0 * row[0] - row[3] + rng.normal(0.0, 50.0);
        db.push(row, rttf);
    }
    let toolchain = F2pmToolchain {
        models: vec![ModelKind::RepTree],
    };
    (db, toolchain)
}

/// Allocation calls `train` makes on the calling thread (the one-family
/// menu trains inline), counted on its second call: the first starts
/// the pool.
fn calls_of<T>(mut train: impl FnMut(u64) -> T) -> u64 {
    drop(train(6));
    let before = CALLS.with(Cell::get);
    let model = train(7);
    let calls = CALLS.with(Cell::get) - before;
    drop(model);
    calls
}

/// A full toolchain fit — `F2pmToolchain { models: [RepTree] }.run`,
/// Lasso selection then a REP-Tree on the projected split, what figure
/// training runs — on `refit_db`, counted in allocation calls. Reads 47
/// calls. Before the training rows were one flat buffer — `project`,
/// `split` and the tree's grow / prune split copying a `Vec` per row, the
/// prune two `Vec`s per node — the same fit made 476, and one row copy
/// coming back anywhere on the path costs ~100 calls; it read 62 while
/// every projection and report copied its feature names (`String`s, not
/// shared `Arc<str>`s) and the fit timer's name was formatted per fit, so
/// 50 fails if any of them returns.
#[test]
fn a_refit_allocates_per_table_not_per_row() {
    let (db, toolchain) = refit_db();
    let calls = calls_of(|seed| toolchain.run(&db, &mut SimRng::new(seed)));
    assert!(calls <= 50, "one refit made {calls} allocation calls");
}

/// The refit the model lifecycle submits: `fit_on` the serving model's
/// selection, no Lasso, in the buffers the lifecycle keeps from refit to
/// refit. Reads 11 calls on `refit_db` with the selection `run` makes
/// there: the tree's four arrays and the predictor's selection (what the
/// lifecycle keeps), the report's three vectors, the menu map's job and
/// result vectors and the holdout predictions. It read 46 while every
/// refit split, projected and grew its tree in fresh buffers and copied
/// its feature names, and the lifecycle's refit was `run` itself (62
/// calls) until it stopped re-selecting; a buffer that stops being reused
/// adds at least one call, so 11 fails if one does.
#[test]
fn a_lifecycle_refit_allocates_only_for_its_fit() {
    let (db, toolchain) = refit_db();
    let selected = toolchain.run(&db, &mut SimRng::new(5)).1.selected_features;
    let mut buf = FitBuffers::default();
    let calls = calls_of(|seed| toolchain.fit_on(&db, &selected, &mut SimRng::new(seed), &mut buf));
    assert!(
        calls <= 11,
        "one lifecycle refit made {calls} allocation calls"
    );
}

/// Allocation calls `cl`'s eras `warm..warm + eras` make on this thread,
/// and the events they record, at pool width 1 (the pool's threads count
/// their own calls; these worlds run every map on the caller anyway).
fn era_calls(cl: &mut ControlLoop, warm: usize, eras: usize) -> (u64, usize) {
    let width = acm::exec::current_threads();
    acm::exec::configure_threads(1);
    cl.run(warm);
    let recorded = |cl: &ControlLoop| cl.obs().events_len() + cl.obs().events_dropped() as usize;
    let (events, calls) = (recorded(cl), CALLS.with(Cell::get));
    cl.run(eras);
    let counted = (CALLS.with(Cell::get) - calls, recorded(cl) - events);
    acm::exec::configure_threads(width);
    counted
}

/// The paper's fig-4 world under Policy 2 (three regions).
fn fig4_loop(predictor: PredictorChoice, obs: ObsConfig) -> ControlLoop {
    let mut cfg = ExperimentConfig::three_region_fig4(PolicyKind::AvailableResources, 2016);
    (cfg.predictor, cfg.obs) = (predictor, obs);
    let mut rng = SimRng::new(cfg.seed);
    let vmcs = build_vmcs(&cfg, &mut rng);
    ControlLoop::new(&cfg, vmcs, rng)
}

/// An un-observed fig-4 era under the oracle keeps three allocations —
/// the telemetry row's two boxes and the installed plan's `Arc<[f64]>` —
/// and makes no other call but the telemetry's row and clock vectors
/// doubling at eras 32 and 64. Reads 304 calls over eras 20-120; it read
/// 71.1 an era while the MAPE phases, the VMCs, the policy, the forward
/// plan, the router and the pool sample built their per-era `Vec`s, and
/// any one of them coming back adds at least one call an era, so 304
/// fails if one does.
#[test]
fn an_unobserved_era_allocates_only_its_row_and_plan() {
    let _heap = HEAP.lock().unwrap_or_else(|e| e.into_inner());
    let mut cl = fig4_loop(PredictorChoice::Oracle, ObsConfig::noop());
    let (calls, events) = era_calls(&mut cl, 20, 100);
    assert_eq!(events, 0);
    assert!(calls <= 3 * 100 + 4, "eras 20-120 made {calls} calls");
}

/// With a trained REP-Tree and the default hub, an era adds one call per
/// event it records (the record's field `Vec`; region names and reason
/// tags are shared, not copied) to the unobserved era's three. Reads 1 041
/// calls for 724 events over eras 20-120: the three per era, one per
/// event, the telemetry's four doublings and 13 of the event stores
/// doubling as they fill. It read 114.0 an era while the model path packed
/// its features into a fresh buffer per batch and every event copied its
/// region name or reason into a `String` (over three an era in this
/// world), so the bound fails if either returns.
#[test]
fn an_observed_model_era_allocates_one_call_per_event() {
    let _heap = HEAP.lock().unwrap_or_else(|e| e.into_inner());
    let trained = PredictorChoice::Trained(ModelKind::RepTree);
    let mut cl = fig4_loop(trained, ObsConfig::default());
    let (calls, events) = era_calls(&mut cl, 20, 100);
    assert!(events >= 300, "{events} events");
    let bound = 3 * 100 + events as u64 + 17;
    assert!(
        calls <= bound,
        "{calls} calls for {events} events > {bound}"
    );
}

/// The drifted lifecycle world refits about one era in three: each refit
/// fits in its lifecycle's kept buffers, and the labeller keeps every
/// VM's snapshot list across its lives. Reads 19.1 calls an era over eras
/// 10-60 (96.9 before): a refit that fitted in fresh buffers again would
/// read 23.1, a labeller that dropped its lists 21.0 and events that copy
/// their region names 20.4, so 20 fails if any of them returns.
#[test]
fn a_lifecycle_era_allocates_for_what_it_keeps() {
    let _heap = HEAP.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = common::drifted_lifecycle_cfg();
    let mut cl = common::lifecycle_loop(&cfg, &common::stale_models(&cfg));
    let (calls, _) = era_calls(&mut cl, 10, 50);
    let per_era = calls as f64 / 50.0;
    assert!(per_era <= 20.0, "eras 10-60 made {per_era:.1} calls each");
}

/// End instant of era `e`: the clock the telemetry stores once per row.
fn era_end(era: Duration, e: usize) -> SimTime {
    SimTime::from_micros(era.as_micros() * (e as u64 + 1))
}

/// `to_csv` as it was rendered while every signal was a `TimeSeries`:
/// through a `SeriesTable` of the same columns.
fn csv_via_series_table(tel: &ExperimentTelemetry, era: Duration) -> String {
    let n = tel.region_names().len();
    let mut names = Vec::new();
    for suffix in ["rmttf", "f", "resp", "active"] {
        for name in tel.region_names() {
            names.push(format!("{name}_{suffix}"));
        }
    }
    names.extend(["global_resp", "lambda", "plan_churn", "remote_frac"].map(String::from));
    let mut table = SeriesTable::new(names);
    for e in 0..tel.eras() {
        let mut row = Vec::new();
        row.extend((0..n).map(|i| tel.rmttf(i).points()[e].value));
        row.extend((0..n).map(|i| tel.fraction(i).points()[e].value));
        row.extend((0..n).map(|i| tel.response(i).points()[e].value));
        row.extend((0..n).map(|i| tel.active_vms(i).get(e) as f64));
        row.push(tel.global_response().points()[e].value);
        row.push(tel.global_lambda().points()[e].value);
        row.push(tel.plan_churn().points()[e].value);
        row.push(tel.remote_fraction().points()[e].value);
        table.push_row(era_end(era, e), &row);
    }
    table.to_csv()
}

/// `to_jsonl` as it was written against per-series storage.
fn jsonl_via_views(tel: &ExperimentTelemetry, era: Duration) -> String {
    let mut out = String::new();
    for e in 0..tel.eras() {
        let regions = json::array((0..tel.region_names().len()).map(|i| {
            let mut o = JsonObject::new();
            o.field_str("name", &tel.region_names()[i])
                .field_f64("rmttf_s", tel.rmttf(i).points()[e].value)
                .field_f64("fraction", tel.fraction(i).points()[e].value)
                .field_f64("response_s", tel.response(i).points()[e].value)
                .field_u64("active_vms", tel.active_vms(i).get(e) as u64);
            o.finish()
        }));
        let mut o = JsonObject::new();
        o.field_u64("era", e as u64)
            .field_u64("t_us", era_end(era, e).as_micros())
            .field_raw("regions", &regions)
            .field_f64("global_response_s", tel.global_response().points()[e].value)
            .field_f64("lambda", tel.global_lambda().points()[e].value)
            .field_f64("plan_churn", tel.plan_churn().points()[e].value)
            .field_f64("remote_fraction", tel.remote_fraction().points()[e].value);
        out.push_str(&o.finish());
        out.push('\n');
    }
    out
}

#[test]
fn compact_storage_leaves_the_exports_byte_identical() {
    let _heap = HEAP.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = ExperimentConfig::three_region_fig4(PolicyKind::AvailableResources, 2016);
    let obs = Obs::new(ObsConfig::default());
    let tel = run_experiment_with_obs(&cfg, obs.clone());

    // The CSV: the committed figure, and the pre-change rendering.
    let csv = tel.to_csv();
    assert!(
        csv == include_str!("../results/fig4-policy2-available-resources.csv"),
        "to_csv moved off results/"
    );
    assert!(csv == csv_via_series_table(&tel, cfg.era), "to_csv moved");
    assert!(
        tel.to_jsonl() == jsonl_via_views(&tel, cfg.era),
        "to_jsonl moved"
    );

    // The decision log: `plan.install` used to store `old` / `new` as the
    // array text; render every record that way and compare.
    let mut installs = 0;
    let expected: String = obs
        .events_tail(usize::MAX)
        .into_iter()
        .map(|mut rec| {
            for (_, v) in rec.fields.iter_mut() {
                if let Value::F64s(fs) = v {
                    installs += 1;
                    *v = Value::from(json::array(fs.iter().map(|f| json::fmt_f64(*f))));
                }
            }
            rec.to_json() + "\n"
        })
        .collect();
    assert!(
        installs >= 2 * 100,
        "plan.install carries two vectors an era"
    );
    assert!(obs.events_jsonl() == expected, "events_jsonl moved");
}
