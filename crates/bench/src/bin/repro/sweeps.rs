//! Sweeps around the paper's runs (DESIGN.md §4): ablations A1–A6 and
//! extension E1, each printing its table and regenerating one CSV, and
//! the seed-robustness sweep of the two figure scenarios.

use crate::Outcome;
use acm_bench::tail_window;
use acm_core::config::{ExperimentConfig, PredictorChoice, RegionSpec};
use acm_core::cost::price_run;
use acm_core::framework::{run_experiment, run_experiment_with_obs};
use acm_core::policy::PolicyKind;
use acm_core::telemetry::ExperimentTelemetry;
use acm_ml::model::ModelKind;
use acm_obs::{MetricValue, Obs, ObsConfig, ObsHandle};
use acm_pcam::{BalancerStrategy, RegionConfig};
use acm_sim::time::Duration;
use acm_vm::VmFlavor;
use acm_workload::ClientSchedule;

/// The skeleton every ablation shares: prints `title` and the table
/// `header`, runs `row` over `cases` on the exec pool (rows come back in
/// case order, so the CSV is identical at any width), prints each table
/// line and closes with `footer`; the CSV becomes `<file>.csv`.
fn sweep<C: Send>(
    file: &str,
    title: &str,
    header: String,
    csv_header: &str,
    cases: Vec<C>,
    row: impl Fn(C) -> (String, String) + Sync,
    footer: &str,
) -> Outcome {
    println!("{title}\n\n{header}");
    let mut csv = String::from(csv_header);
    for (line, csv_line) in acm_exec::map_collect(cases, row) {
        println!("{line}");
        csv.push_str(&csv_line);
    }
    if !footer.is_empty() {
        println!("\n{footer}");
    }
    Outcome {
        files: vec![(format!("{file}.csv"), csv)],
        failed_claims: 0,
    }
}

/// The era the RMTTF band (1.25) first holds, or `never`.
fn converged(tel: &ExperimentTelemetry) -> String {
    tel.convergence_era(1.25)
        .map_or("never".to_string(), |e| e.to_string())
}

/// A1 (`ablation_beta.csv`): the EWMA smoothing factor β of Eq. 1 on the
/// Figure-4 scenario, every policy — the stability/reactivity trade-off.
pub fn beta(seed: u64) -> Outcome {
    let cases: Vec<(PolicyKind, f64)> = PolicyKind::ALL
        .into_iter()
        .flat_map(|policy| [0.1, 0.25, 0.5, 0.8, 1.0].map(|beta| (policy, beta)))
        .collect();
    sweep(
        "ablation_beta",
        "Ablation A1 — EWMA β sweep on the 3-region deployment (oracle predictor)",
        format!(
            "{:<28} {:>6} {:>10} {:>12} {:>12} {:>10}",
            "policy", "beta", "spread", "converged", "f-oscill.", "resp(ms)"
        ),
        "policy,beta,spread,convergence_era,f_oscillation,resp_ms\n",
        cases,
        |(policy, beta)| {
            let mut cfg = ExperimentConfig::three_region_fig4(policy, seed);
            cfg.predictor = PredictorChoice::Oracle;
            cfg.beta = beta;
            let tel = run_experiment(&cfg);
            let w = tail_window(&tel);
            let (spread, conv) = (tel.rmttf_spread(w), converged(&tel));
            let (osc, resp) = (tel.fraction_oscillation(w), tel.tail_response(w) * 1000.0);
            (
                format!(
                    "{:<28} {beta:>6.2} {spread:>10.3} {conv:>12} {osc:>12.4} {resp:>10.0}",
                    policy.name()
                ),
                format!(
                    "{},{beta},{spread:.4},{conv},{osc:.5},{resp:.1}\n",
                    policy.name()
                ),
            )
        },
        "",
    )
}

/// A2 (`ablation_k.csv`): Policy 3's step factor `k` (Eq. 6–9) and its
/// exploration jitter, the "intrinsic randomness" the paper blames.
pub fn k(seed: u64) -> Outcome {
    let cases: Vec<(f64, f64)> = [0.1, 0.25, 0.5, 0.75, 1.0]
        .into_iter()
        .flat_map(|k| [0.0, 0.02, 0.1].map(|noise| (k, noise)))
        .collect();
    sweep(
        "ablation_k",
        "Ablation A2 — Policy 3 step factor k and exploration jitter (3 regions)",
        format!(
            "{:>6} {:>8} {:>10} {:>12} {:>12}",
            "k", "noise", "spread", "converged", "f-oscill."
        ),
        "k,noise,spread,convergence_era,f_oscillation\n",
        cases,
        |(k, noise)| {
            let mut cfg = ExperimentConfig::three_region_fig4(PolicyKind::Exploration, seed);
            cfg.predictor = PredictorChoice::Oracle;
            cfg.k = k;
            cfg.exploration_noise = noise;
            let tel = run_experiment(&cfg);
            let w = tail_window(&tel);
            let (spread, conv) = (tel.rmttf_spread(w), converged(&tel));
            let osc = tel.fraction_oscillation(w);
            (
                format!("{k:>6.2} {noise:>8.2} {spread:>10.3} {conv:>12} {osc:>12.4}"),
                format!("{k},{noise},{spread:.4},{conv},{osc:.5}\n"),
            )
        },
        "Larger k converges faster but amplifies jitter; heavy jitter alone can\n\
         keep the system from settling — the paper's Sec. VI-B caveat on Policy 3.",
    )
}

/// A two-region deployment whose region-B RAM is `1/ratio` of region-A's
/// (the memory budget drives the MTTF, so RAM ratio ≈ capacity ratio).
fn heterogeneous_deployment(ratio: f64, policy: PolicyKind, seed: u64) -> ExperimentConfig {
    let flavor_a = VmFlavor::m3_medium();
    let mut flavor_b = VmFlavor::m3_medium();
    flavor_b.name = format!("m3.medium-shrunk-{ratio}x");
    // Shrink the anomaly budget, keeping baseline constant.
    let budget = flavor_a.ram_mb - flavor_a.baseline_resident_mb;
    flavor_b.ram_mb = flavor_a.baseline_resident_mb + budget / ratio;
    flavor_b.swap_mb = flavor_a.swap_mb / ratio;

    let mut cfg = ExperimentConfig::two_region_fig3(policy, seed);
    cfg.predictor = PredictorChoice::Oracle;
    cfg.regions = vec![
        RegionSpec {
            region: RegionConfig::new("region-a", flavor_a, 5, 4),
            clients: ClientSchedule::Constant(256),
        },
        RegionSpec {
            region: RegionConfig::new("region-b", flavor_b, 5, 4),
            clients: ClientSchedule::Constant(128),
        },
    ];
    cfg
}

/// A3 (`ablation_heterogeneity.csv`): the capacity ratio Policy 1
/// tolerates, against Policy 2.
pub fn heterogeneity(seed: u64) -> Outcome {
    sweep(
        "ablation_heterogeneity",
        "Ablation A3 — capacity-ratio sweep, Policy 1 vs Policy 2",
        format!(
            "{:>8} {:>14} {:>14} {:>14}",
            "ratio", "P1 spread", "P2 spread", "√ratio (theory)"
        ),
        "ratio,p1_spread,p2_spread,sqrt_ratio\n",
        vec![1.0, 2.0, 4.0, 8.0],
        |ratio: f64| {
            let spread = |policy| {
                let tel = run_experiment(&heterogeneous_deployment(ratio, policy, seed));
                tel.rmttf_spread(tail_window(&tel))
            };
            let p1 = spread(PolicyKind::SensibleRouting);
            let p2 = spread(PolicyKind::AvailableResources);
            let sqrt = ratio.sqrt();
            (
                format!("{ratio:>8.1} {p1:>14.3} {p2:>14.3} {sqrt:>14.3}"),
                format!("{ratio},{p1:.4},{p2:.4},{sqrt:.4}\n"),
            )
        },
        "Policy 1's equilibrium RMTTF ratio grows like √(capacity ratio);\n\
         Policy 2 holds the spread at ~1 regardless — the crossover that makes\n\
         Policy 1 acceptable only for near-homogeneous deployments.",
    )
}

/// A4 (`ablation_rejuvenation.csv`): the PCAM RTTF threshold with the
/// REP-Tree predictor, where prediction error is real.
pub fn rejuvenation(seed: u64) -> Outcome {
    sweep(
        "ablation_rejuvenation",
        "Ablation A4 — RTTF rejuvenation threshold (fig3 deployment, REP-Tree)",
        format!(
            "{:>12} {:>10} {:>10} {:>12} {:>10}",
            "threshold(s)", "proactive", "reactive", "completed", "resp(ms)"
        ),
        "threshold_s,proactive,reactive,completed,resp_ms\n",
        vec![30u64, 60, 120, 240, 480],
        |th| {
            let mut cfg = ExperimentConfig::two_region_fig3(PolicyKind::AvailableResources, seed);
            for spec in &mut cfg.regions {
                spec.region.rttf_threshold = Duration::from_secs(th);
            }
            let tel = run_experiment(&cfg);
            let (proactive, reactive) = (tel.total_proactive(), tel.total_reactive());
            let completed = tel.total_completed();
            let resp = tel.tail_response(tail_window(&tel)) * 1000.0;
            (
                format!("{th:>12} {proactive:>10} {reactive:>10} {completed:>12} {resp:>10.0}"),
                format!("{th},{proactive},{reactive},{completed},{resp:.1}\n"),
            )
        },
        "Low thresholds leave failures to reactive recovery (prediction misses\n\
         arrive too late); high thresholds churn through healthy VM lifetime.",
    )
}

/// A5 (`ablation_predictor.csv`): the oracle and every trained F2PM family
/// as the deployed predictor — good enough *for the controller*?
pub fn predictor(seed: u64) -> Outcome {
    let trained = [
        ModelKind::RepTree,
        ModelKind::M5P,
        ModelKind::LsSvm,
        ModelKind::Linear,
        ModelKind::Svr,
    ]
    .map(|kind| (kind.name().to_string(), PredictorChoice::Trained(kind)));
    let cases: Vec<(String, PredictorChoice)> =
        std::iter::once(("oracle".to_string(), PredictorChoice::Oracle))
            .chain(trained)
            .collect();
    sweep(
        "ablation_predictor",
        "Ablation A5 — predictor family vs control quality (fig3, Policy 2)",
        format!(
            "{:<10} {:>10} {:>12} {:>10} {:>10} {:>10}",
            "predictor", "spread", "converged", "proact", "react", "resp(ms)"
        ),
        "predictor,spread,convergence_era,proactive,reactive,resp_ms\n",
        cases,
        |(name, choice)| {
            let mut cfg = ExperimentConfig::two_region_fig3(PolicyKind::AvailableResources, seed);
            cfg.predictor = choice;
            let tel = run_experiment(&cfg);
            let w = tail_window(&tel);
            let (spread, conv) = (tel.rmttf_spread(w), converged(&tel));
            let (proactive, reactive) = (tel.total_proactive(), tel.total_reactive());
            let resp = tel.tail_response(w) * 1000.0;
            (
                format!(
                    "{name:<10} {spread:>10.3} {conv:>12} {proactive:>10} {reactive:>10} {resp:>10.0}"
                ),
                format!("{name},{spread:.4},{conv},{proactive},{reactive},{resp:.1}\n"),
            )
        },
        "Prediction quality shows up as CONVERGENCE SPEED of the leader's plan\n\
         (oracle: a couple of eras; REP-Tree: tens; linear/SVR: ~hundred) rather\n\
         than as SLA violations — standby takeover hides individual mispredictions,\n\
         so even crude predictors keep the response time flat. This matches the\n\
         paper's observation that the policy, not the model family, dominates the\n\
         steady-state behaviour.",
    )
}

/// A6 (`ablation_balancer.csv`): the intra-region load-balancing strategy.
pub fn balancer(seed: u64) -> Outcome {
    sweep(
        "ablation_balancer",
        "Ablation A6 — intra-region balancer (fig3, Policy 2, oracle)",
        format!(
            "{:<18} {:>10} {:>10} {:>12} {:>10} {:>10}",
            "balancer", "proact", "react", "completed", "resp(ms)", "spread"
        ),
        "balancer,proactive,reactive,completed,resp_ms,spread\n",
        vec![
            ("equal-share", BalancerStrategy::EqualShare),
            ("health-weighted", BalancerStrategy::HealthWeighted),
            ("capacity-weighted", BalancerStrategy::CapacityWeighted),
        ],
        |(name, strategy)| {
            let mut cfg = ExperimentConfig::two_region_fig3(PolicyKind::AvailableResources, seed);
            cfg.predictor = PredictorChoice::Oracle;
            for spec in &mut cfg.regions {
                spec.region.balancer = strategy;
            }
            let tel = run_experiment(&cfg);
            let w = tail_window(&tel);
            let (proactive, reactive) = (tel.total_proactive(), tel.total_reactive());
            let completed = tel.total_completed();
            let (resp, spread) = (tel.tail_response(w) * 1000.0, tel.rmttf_spread(w));
            (
                format!(
                    "{name:<18} {proactive:>10} {reactive:>10} {completed:>12} {resp:>10.0} {spread:>10.3}"
                ),
                format!("{name},{proactive},{reactive},{completed},{resp:.1},{spread:.4}\n"),
            )
        },
        "Capacity-weighted balancing wins: relieving degraded VMs cuts reactive\n\
         failures and lifts throughput. Health-weighted (RTTF-proportional)\n\
         backfires at these utilisations — it concentrates flow on the freshest\n\
         VMs until they saturate, blowing the response time past the SLA: a\n\
         useful negative result for naive sensible routing inside a region.",
    )
}

/// E1 (`extension_cost.csv`): run cost per policy, including the cost-aware Policy-2 variant
/// (Ireland m3.medium $0.073/h, Frankfurt m3.small $0.047/h, amortised
/// private Munich $0.015/h).
pub fn cost(seed: u64) -> Outcome {
    sweep(
        "extension_cost",
        "Extension E1 — run cost per policy (fig4 deployment, oracle, 1 h simulated)",
        format!(
            "{:<28} {:>10} {:>12} {:>12} {:>10} {:>10}",
            "policy", "spread", "total $", "$ / Mreq", "f_munich", "resp(ms)"
        ),
        "policy,spread,total_usd,usd_per_mreq,f_munich,resp_ms\n",
        PolicyKind::EXTENDED.to_vec(),
        |policy| {
            let mut cfg = ExperimentConfig::three_region_fig4(policy, seed);
            cfg.predictor = PredictorChoice::Oracle;
            let prices: Vec<f64> = cfg.regions.iter().map(|r| r.region.vm_hour_usd).collect();
            let tel = run_experiment(&cfg);
            let bill = price_run(&tel, &prices, cfg.era);
            let w = tail_window(&tel);
            let (spread, resp) = (tel.rmttf_spread(w), tel.tail_response(w) * 1000.0);
            let f_munich = tel.fraction(2).tail_stats(w).mean();
            let (total, per_mreq) = (bill.total_usd, bill.usd_per_mreq);
            (
                format!(
                    "{:<28} {spread:>10.3} {total:>12.4} {per_mreq:>12.3} {f_munich:>10.3} {resp:>10.0}",
                    policy.name()
                ),
                format!(
                    "{},{spread:.4},{total:.4},{per_mreq:.4},{f_munich:.4},{resp:.1}\n",
                    policy.name()
                ),
            )
        },
        "The cost-aware variant pushes extra flow onto the cheap private region\n\
         (higher f_munich) at some RMTTF-balance cost; since billing follows the\n\
         ACTIVE VM census rather than the flow, total $ only moves when the shift\n\
         changes rejuvenation/starvation behaviour — the interesting trade-off\n\
         the paper's cost motivation leaves unexplored.",
    )
}

/// Statistical robustness of the headline figures: the Figure-3 and
/// Figure-4 scenarios (oracle predictor) over `seeds` seeds, mean ± std of
/// the convergence metrics per policy — the paper shows single runs; this
/// checks the conclusions are not seed luck. Regenerates `seed_sweep.csv`
/// and the gitignored `seed_sweep_metrics.jsonl` (the cross-run counter
/// rollup).
pub fn seeds(seeds: u64) -> Outcome {
    let rollup = Obs::new(ObsConfig::default());
    let mut csv =
        String::from("scenario,policy,spread_mean,spread_std,osc_mean,osc_std,resp_ms,converged\n");
    let labels = ["fig3 (2 regions, oracle)", "fig4 (3 regions, oracle)"];
    let configs: [Scenario; 2] = [
        ExperimentConfig::two_region_fig3,
        ExperimentConfig::three_region_fig4,
    ];
    for (label, config) in labels.into_iter().zip(configs) {
        csv += &seed_sweep(label, config, seeds, &rollup);
    }

    // Cross-run observability rollup: counters summed over every run of
    // every policy, on `acm_exec::current_threads()` pool threads.
    println!(
        "\n--- observability rollup ({} threads) ---",
        acm_exec::current_threads()
    );
    let mut counters: Vec<(String, u64)> = rollup
        .metrics()
        .into_iter()
        .filter_map(|m| match m.value {
            MetricValue::Counter(v) if v > 0 => Some((m.name, v)),
            _ => None,
        })
        .collect();
    counters.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    for (name, v) in &counters {
        println!("{name:<44} {v:>14}");
    }
    println!("\nExpected: Policy 1's spread stays ≫ 1 on every seed; Policies 2/3");
    println!("converge on every seed, with Policy 2 the most stable.");
    Outcome {
        files: vec![
            ("seed_sweep.csv".into(), csv),
            ("seed_sweep_metrics.jsonl".into(), rollup.metrics_jsonl()),
        ],
        failed_claims: 0,
    }
}

/// A figure deployment under a policy and seed.
type Scenario = fn(PolicyKind, u64) -> ExperimentConfig;

/// Mean and population standard deviation of a non-empty sample.
fn mean_std(xs: &[f64]) -> (f64, f64) {
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
    (mean, var.sqrt())
}

/// One scenario of [`seeds`]: every policy over seeds 1000.., one table
/// row and one CSV line per policy.
fn seed_sweep(label: &str, config: Scenario, seeds: u64, rollup: &ObsHandle) -> String {
    println!("\n--- {label} ({seeds} seeds) ---");
    println!(
        "{:<28} {:>16} {:>16} {:>12} {:>12}",
        "policy", "spread μ±σ", "f-osc μ±σ", "resp ms μ", "converged"
    );
    let mut csv = String::new();
    for policy in PolicyKind::ALL {
        // Each run records into its own child hub; the children come back
        // in seed order (order-stable collect) and are merged in that
        // order, so the rollup is deterministic at any thread count.
        let runs: Vec<([f64; 3], bool, ObsHandle)> =
            acm_exec::map_collect((0..seeds).collect(), |seed| {
                let mut cfg = config(policy, 1000 + seed);
                cfg.predictor = PredictorChoice::Oracle;
                let obs = Obs::new(ObsConfig::default());
                let tel = run_experiment_with_obs(&cfg, obs.clone());
                let w = tail_window(&tel);
                let (spread, osc) = (tel.rmttf_spread(w), tel.fraction_oscillation(w));
                let converged = tel.convergence_era(1.25).is_some();
                ([spread, osc, tel.tail_response(w)], converged, obs)
            });
        for (_, _, child) in &runs {
            rollup.merge_from(child);
        }
        let stats = |k: usize| mean_std(&runs.iter().map(|r| r.0[k]).collect::<Vec<_>>());
        let [(sm, ss), (om, os), (rm, _)] = [0, 1, 2].map(stats);
        let converged = runs.iter().filter(|r| r.1).count();
        println!(
            "{:<28} {sm:>9.3}±{ss:<6.3} {om:>9.4}±{os:<6.4} {:>12.0} {converged:>9}/{seeds}",
            policy.name(),
            rm * 1000.0,
        );
        csv.push_str(&format!(
            "{label},{},{sm:.4},{ss:.4},{om:.5},{os:.5},{:.1},{converged}/{seeds}\n",
            policy.name(),
            rm * 1000.0,
        ));
    }
    csv
}
