//! Per-layer kernels: direct calls into one public function of a layer at
//! the shapes of the workload being measured (region count, VMs per
//! region, pending-queue depth). Each reports the median over its
//! samples; a sample is a batch of calls long enough that the two clock
//! reads around it do not show.

use crate::harness::{median, Spans};
use crate::workloads::Shape;
use acm::core::policy::LoadBalancingPolicy;
use acm::core::{ControlLoop, DegradationConfig, ForwardPlan, HealthTracker};
use acm::ml::model::ModelKind;
use acm::ml::toolchain::F2pmToolchain;
use acm::obs::{Obs, ObsConfig, Value};
use acm::overlay::{
    drain_in_shard_order, NodeId, OverlayGraph, ShardOutbox, StagedMessage, Transport,
};
use acm::pcam::training::{collect_database, CollectionConfig};
use acm::pcam::{RttfSource, Vmc};
use acm::router::{LatencyAwareness, RequestRouter};
use acm::sim::rng::SimRng;
use acm::sim::time::{Duration, SimTime};
use acm::sim::EventQueue;
use acm::vm::{Vm, VmId, VmState};
use acm::workload::{OpenLoopArrivals, RateProfile};
use std::hint::black_box;
use std::time::Instant;

/// Median nanoseconds per call of `f` over `samples` batches of `batch`
/// calls. `samples × batch` is at least 1 000 for every micro kernel.
fn per_call_ns(samples: usize, batch: usize, mut f: impl FnMut()) -> f64 {
    let mut ns = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        ns.push(t.elapsed().as_nanos() as f64 / batch as f64);
    }
    median(&mut ns)
}

/// Results by per-layer metric name.
pub type KernelResults = Vec<(&'static str, f64)>;

/// Runs every kernel at `shape`, each inside a harness span.
pub fn run_all(shape: &Shape, width: usize, seed: u64, spans: &mut Spans) -> KernelResults {
    let mut out: KernelResults = Vec::new();
    let mut rng = SimRng::new(seed);
    macro_rules! kernel {
        ($name:literal, $body:expr) => {{
            let id = spans.open(concat!("kernel.", $name));
            let v: f64 = $body;
            spans.close(id);
            out.push(($name, v));
        }};
    }

    kernel!(
        "sim.queue.schedule_pop_ns",
        queue(shape.queue_depth, &mut rng)
    );
    kernel!("exec.dispatch_ns_per_item", exec_dispatch());
    kernel!("exec.barrier_ns", exec_barrier(width));
    kernel!("vm.process_era_ns", vm_era(shape, &mut rng));

    // One training pass feeds the ml / pcam kernels below.
    let region = &shape.region;
    let mut collect_ms = Vec::new();
    let mut db = None;
    let id = spans.open("kernel.pcam.training.collect_ms");
    for _ in 0..5 {
        let t = Instant::now();
        db = Some(collect_database(
            &region.flavor,
            &region.anomaly,
            &region.failure_spec,
            &CollectionConfig::default(),
            &mut rng,
        ));
        collect_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    spans.close(id);
    out.push(("pcam.training.collect_ms", median(&mut collect_ms)));
    let db = db.expect("collected at least once");

    let toolchain = F2pmToolchain {
        models: vec![ModelKind::RepTree],
        ..Default::default()
    };
    let mut fit_ms = Vec::new();
    let mut predictor = None;
    let id = spans.open("kernel.ml.toolchain.fit_ms");
    for _ in 0..5 {
        let t = Instant::now();
        predictor = Some(toolchain.run(&db, &mut rng).0);
        fit_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    spans.close(id);
    out.push(("ml.toolchain.fit_ms", median(&mut fit_ms)));
    let predictor = predictor.expect("fitted at least once");

    kernel!("ml.rep_tree.predict_batch_ns_per_row", {
        // One batch per region-era: a row per active VM.
        let rows: Vec<Vec<f64>> = (0..region.target_active.max(1))
            .map(|i| db.row(i % db.len()).to_vec())
            .collect();
        let mut preds = Vec::new();
        per_call_ns(50, 40, || {
            predictor.predict_batch_into(rows.iter().map(|r| r.as_slice()), &mut preds);
            black_box(&preds);
        }) / rows.len() as f64
    });
    kernel!("pcam.vmc.process_era_us", {
        let mut vmc = Vmc::new(
            region.clone(),
            RttfSource::Model(predictor.clone()),
            rng.split(),
        );
        let era = shape.cfg.era;
        let mut now = SimTime::ZERO;
        per_call_ns(50, 20, || {
            black_box(vmc.process_era(now, era, shape.region_lambda));
            now += era;
        }) / 1e3
    });

    let n = shape.regions;
    kernel!("core.policy.next_fractions_ns", {
        let policy = LoadBalancingPolicy::new(shape.cfg.policy)
            .with_k(shape.cfg.k)
            .with_noise(shape.cfg.exploration_noise);
        let mut prev = vec![1.0 / n as f64; n];
        let rmttf: Vec<f64> = (0..n).map(|j| 900.0 + 40.0 * (j % 7) as f64).collect();
        let lambda = shape.region_lambda * n as f64;
        let mut r = rng.split();
        per_call_ns(50, 20, || {
            prev = policy.next_fractions(&prev, &rmttf, lambda, &mut r);
        })
    });
    let skew: Vec<f64> = {
        let raw: Vec<f64> = (0..n).map(|i| (3 - (i % 3)) as f64).collect();
        let total: f64 = raw.iter().sum();
        raw.into_iter().map(|w| w / total).collect()
    };
    kernel!("core.plan.build_ns", {
        let ingress = vec![1.0 / n as f64; n];
        per_call_ns(50, 20, || {
            black_box(ForwardPlan::build(&ingress, &skew));
        })
    });
    kernel!("core.degrade.observe_ns", {
        let mut tracker = HealthTracker::new(&DegradationConfig::enabled(), n);
        let mut k = 0usize;
        per_call_ns(50, 400, || {
            // Mostly fresh reports; every 17th is lost, so regions do
            // cross the quarantine / re-admission edges.
            black_box(tracker.observe(k % n, !k.is_multiple_of(17), false));
            k += 1;
        })
    });
    kernel!("core.loop_new_ms", {
        let cfg = &shape.cfg;
        let mut ms = Vec::new();
        for _ in 0..5 {
            let mut r = SimRng::new(cfg.seed);
            let vmcs: Vec<Vmc> = cfg
                .regions
                .iter()
                .map(|s| Vmc::new(s.region.clone(), RttfSource::Oracle, r.split()))
                .collect();
            let t = Instant::now();
            black_box(ControlLoop::new(cfg, vmcs, r));
            ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        median(&mut ms)
    });

    kernel!("overlay.transport.send_ns", {
        let mut graph = OverlayGraph::new();
        for i in 0..n {
            graph.add_node(NodeId(i as u32));
        }
        for (a, b, lat) in &shape.cfg.latencies {
            graph.add_link(NodeId(*a as u32), NodeId(*b as u32), *lat);
        }
        if shape.cfg.latencies.is_empty() || shape.cfg.regions.len() != n {
            for j in 1..n {
                graph.add_link(NodeId(0), NodeId(j as u32), Duration::from_millis(10));
            }
        }
        let mut transport = Transport::new(graph);
        let mut j = 0usize;
        per_call_ns(50, 100, || {
            // Every region reports to the leader at node 0.
            j = j % (n - 1) + 1;
            black_box(transport.prepare_send(NodeId(j as u32), NodeId(0)));
        })
    });
    kernel!("overlay.staging.drain_ns_per_msg", {
        // One era barrier: a report per region, spread over the shards.
        // A sample drains 64 staged barriers back to back.
        let shards = shape.monitor_shards.max(1);
        let per_shard = n.div_ceil(shards).max(1);
        let mut ns = Vec::new();
        for round in 0..50u64 {
            let mut barriers: Vec<Vec<ShardOutbox<u64>>> = (0..64)
                .map(|_| {
                    let mut outboxes: Vec<ShardOutbox<u64>> =
                        (0..shards).map(ShardOutbox::new).collect();
                    for (s, ob) in outboxes.iter_mut().enumerate() {
                        for m in 0..per_shard {
                            ob.push(StagedMessage {
                                from: NodeId((s * per_shard + m) as u32),
                                to: NodeId(0),
                                sent_at: SimTime::from_secs(round),
                                delay: Duration::from_millis(10),
                                ctx: None,
                                payload: round,
                            });
                        }
                    }
                    outboxes
                })
                .collect();
            let t = Instant::now();
            let mut drained = 0usize;
            for outboxes in &mut barriers {
                drained += black_box(drain_in_shard_order(outboxes)).len();
            }
            ns.push(t.elapsed().as_nanos() as f64 / drained as f64);
        }
        median(&mut ns)
    });

    kernel!("router.route_ns", {
        let mut router = RequestRouter::new(n, LatencyAwareness::default(), rng.split());
        assert!(router.install(&skew, None));
        per_call_ns(50, 1_000, || {
            black_box(router.route());
        })
    });
    kernel!("router.install_us", {
        let mut router = RequestRouter::new(n, LatencyAwareness::default(), rng.split());
        let reversed: Vec<f64> = skew.iter().rev().copied().collect();
        let mut live = vec![true; n];
        live[n - 1] = false;
        let mut flip = false;
        per_call_ns(50, 20, || {
            flip = !flip;
            let plan = if flip { &skew } else { &reversed };
            black_box(router.install(plan, Some(&live)));
        }) / 1e3
    });

    kernel!("workload.open_loop.arrival_ns", {
        let rate = (shape.region_lambda).max(1.0);
        let profile = RateProfile::Burst {
            base: rate * 0.7,
            peak: rate * 1.7,
            period: Duration::from_secs(7),
            burst_len: Duration::from_secs(2),
        };
        let mut arrivals = OpenLoopArrivals::new(profile, rng.split());
        let mut buf = Vec::new();
        let mut from = SimTime::ZERO;
        let window = Duration::from_secs_f64((2_000.0 / rate).max(1.0));
        let mut ns = Vec::new();
        for _ in 0..50 {
            let to = from + window;
            let t = Instant::now();
            arrivals.fill_window(from, to, &mut buf);
            let dt = t.elapsed().as_nanos() as f64;
            ns.push(dt / buf.len().max(1) as f64);
            from = to;
        }
        median(&mut ns)
    });

    let emit = |obs: &Obs| {
        let mut t_us = 0u64;
        per_call_ns(50, 200, || {
            t_us += 30_000_000;
            obs.emit(
                t_us,
                "bench.kernel",
                vec![("region", Value::from("r017")), ("era", Value::from(t_us))],
            );
        })
    };
    kernel!("obs.emit_ns", emit(&Obs::new(ObsConfig::default())));
    kernel!("obs.emit_noop_ns", emit(&Obs::noop()));
    kernel!("obs.merge_from_us", {
        // One child hub per MONITOR shard, each carrying what a shard
        // records in an era: pool counters, a timer, two events.
        let children: Vec<_> = (0..shape.monitor_shards.max(1))
            .map(|s| {
                let child = Obs::new(ObsConfig::default());
                child.counter("acm.pcam.pool.dispatch").add(100);
                child.counter("acm.pcam.pool.activations").inc();
                child.histogram("acm.pcam.balancer.shares_ns").record(800);
                child
                    .histogram("acm.pcam.vmc.rejuvenation_scan_ns")
                    .record(1_500);
                for _ in 0..2 {
                    child.emit(s as u64, "bench.kernel", vec![("shard", Value::from(s))]);
                }
                child
            })
            .collect();
        let parent = Obs::new(ObsConfig::default());
        per_call_ns(50, 20, || {
            for child in &children {
                parent.merge_from(child);
            }
        }) / 1e3
    });
    out
}

/// `EventQueue::schedule` + `pop` with `depth` events pending.
fn queue(depth: usize, rng: &mut SimRng) -> f64 {
    let mut q: EventQueue<u64> = EventQueue::with_capacity(depth + 1);
    for i in 0..depth {
        q.schedule(SimTime::from_secs_f64(rng.uniform(0.0, 10.0)), i as u64);
    }
    per_call_ns(50, 2_000, || {
        let (at, payload) = q.pop().expect("queue holds its depth");
        q.schedule(
            at + Duration::from_micros(1 + (payload % 977) * 1_000),
            payload,
        );
    })
}

/// `map_collect` over 1 024 no-op items minus a plain loop, per item.
fn exec_dispatch() -> f64 {
    const ITEMS: u64 = 1_024;
    let pooled = per_call_ns(1_000, 1, || {
        let items: Vec<u64> = (0..ITEMS).collect();
        black_box(acm::exec::map_collect(items, black_box));
    });
    let plain = per_call_ns(1_000, 1, || {
        let items: Vec<u64> = (0..ITEMS).collect();
        black_box(items.into_iter().map(black_box).collect::<Vec<u64>>());
    });
    (pooled - plain) / ITEMS as f64
}

/// `for_each_mut` over `width` empty items: the bare era barrier.
fn exec_barrier(width: usize) -> f64 {
    let mut items = vec![0u8; width];
    per_call_ns(200, 10, || {
        acm::exec::for_each_mut(&mut items, |_, x| {
            black_box(x);
        });
    })
}

/// `Vm::process_era` on an active VM of the shape's flavor. Each sample
/// starts from a fresh VM and ends after eight eras or at the VM's
/// failure, whichever is first, so no call takes the cheap failed-VM path.
fn vm_era(shape: &Shape, rng: &mut SimRng) -> f64 {
    let region = &shape.region;
    let lambda = shape.region_lambda / region.target_active.max(1) as f64;
    let fresh = Vm::new(
        VmId(0),
        region.flavor.clone(),
        region.anomaly.clone(),
        region.failure_spec.clone(),
        VmState::Active,
        rng.split(),
    );
    let era = shape.cfg.era;
    let mut ns = Vec::new();
    for _ in 0..125 {
        let mut vm = fresh.clone();
        let mut now = SimTime::ZERO;
        let mut eras = 0u32;
        let t = Instant::now();
        while eras < 8 && vm.is_active() {
            black_box(vm.process_era(now, era, lambda));
            now += era;
            eras += 1;
        }
        ns.push(t.elapsed().as_nanos() as f64 / f64::from(eras));
    }
    median(&mut ns)
}
