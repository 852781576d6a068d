//! Property-based tests (proptest) over the cross-crate invariants the
//! whole reproduction rests on.

use acm::core::ewma::RmttfEwma;
use acm::core::plan::ForwardPlan;
use acm::core::policy::{LoadBalancingPolicy, PolicyKind};
use acm::ml::dataset::Dataset;
use acm::ml::lasso::LassoRegression;
use acm::ml::linear::LinearRegression;
use acm::ml::rep_tree::RepTree;
use acm::sim::event::EventQueue;
use acm::sim::{Duration, SimRng, SimTime};
use acm::vm::anomaly::sample_binomial;
use proptest::prelude::*;

/// A probability-simplex strategy with entries bounded away from zero.
fn simplex(n: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.05f64..1.0, n).prop_map(|raw| {
        let total: f64 = raw.iter().sum();
        raw.into_iter().map(|x| x / total).collect()
    })
}

proptest! {
    #[test]
    fn policies_always_emit_probability_vectors(
        seed in 0u64..1_000,
        prev in simplex(4),
        rmttf in proptest::collection::vec(1.0f64..1e6, 4),
        lambda in 0.1f64..1e4,
    ) {
        let mut rng = SimRng::new(seed);
        for kind in PolicyKind::ALL {
            let policy = LoadBalancingPolicy::new(kind);
            let f = policy.next_fractions(&prev, &rmttf, lambda, &mut rng);
            let total: f64 = f.iter().sum();
            prop_assert!((total - 1.0).abs() < 1e-9, "{kind}: sum {total}");
            prop_assert!(f.iter().all(|x| *x > 0.0 && x.is_finite()), "{kind}: {f:?}");
        }
    }

    #[test]
    fn ewma_stays_inside_the_input_hull(
        beta in 0.0f64..=1.0,
        inputs in proptest::collection::vec(0.0f64..1e6, 1..50),
    ) {
        let mut e = RmttfEwma::new(beta);
        let lo = inputs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = inputs.iter().cloned().fold(0.0f64, f64::max);
        for &x in &inputs {
            let v = e.update(x);
            prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9, "escaped hull: {v}");
        }
    }

    #[test]
    fn forward_plan_is_row_stochastic_and_exact(
        ingress in simplex(3),
        target in simplex(3),
    ) {
        let plan = ForwardPlan::build(&ingress, &target);
        for i in 0..3 {
            let row_sum: f64 = (0..3).map(|j| plan.fraction(i, j)).sum();
            prop_assert!((row_sum - 1.0).abs() < 1e-9, "row {i} sums {row_sum}");
        }
        for (j, want) in target.iter().enumerate() {
            prop_assert!((plan.realised_share(j) - want).abs() < 1e-9);
        }
        let remote = plan.remote_fraction();
        prop_assert!((0.0..=1.0 + 1e-12).contains(&remote));
    }

    #[test]
    fn event_queue_pops_in_nondecreasing_time_order(
        times in proptest::collection::vec(0u64..1_000_000, 1..200),
    ) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_micros(t), i);
        }
        let mut last = SimTime::ZERO;
        let mut count = 0;
        while let Some((at, _)) = q.pop() {
            prop_assert!(at >= last);
            last = at;
            count += 1;
        }
        prop_assert_eq!(count, times.len());
    }

    #[test]
    fn binomial_samples_are_bounded_and_unbiased_enough(
        n in 1u64..10_000,
        p in 0.0f64..=1.0,
        seed in 0u64..1_000,
    ) {
        let mut rng = SimRng::new(seed);
        let x = sample_binomial(n, p, &mut rng);
        prop_assert!(x <= n);
    }

    #[test]
    fn duration_addition_is_commutative_and_monotone(
        a in 0u64..1u64 << 40,
        b in 0u64..1u64 << 40,
    ) {
        let da = Duration::from_micros(a);
        let db = Duration::from_micros(b);
        prop_assert_eq!(da + db, db + da);
        prop_assert!(da + db >= da);
        let t = SimTime::from_micros(a) + db;
        prop_assert_eq!(t.since(SimTime::from_micros(a)), db);
    }

    #[test]
    fn rep_tree_predictions_bounded_by_training_targets(
        seed in 0u64..500,
        rows in proptest::collection::vec((0.0f64..100.0, 0.0f64..100.0), 10..80),
    ) {
        let mut ds = Dataset::new(["x"]);
        for (x, y) in &rows {
            ds.push(vec![*x], *y);
        }
        let lo = rows.iter().map(|r| r.1).fold(f64::INFINITY, f64::min);
        let hi = rows.iter().map(|r| r.1).fold(0.0f64, f64::max);
        let tree = RepTree::fit(&ds, &mut SimRng::new(seed));
        for probe in [-10.0, 0.0, 50.0, 100.0, 1000.0] {
            let p = tree.predict_one(&[probe]);
            prop_assert!(p >= lo - 1e-9 && p <= hi + 1e-9, "prediction {p} outside [{lo},{hi}]");
        }
    }

    #[test]
    fn lasso_at_zero_alpha_matches_ols_predictions(
        seed in 0u64..200,
    ) {
        let mut rng = SimRng::new(seed);
        let mut ds = Dataset::new(["a", "b"]);
        for _ in 0..60 {
            let a = rng.uniform(-1.0, 1.0);
            let b = rng.uniform(-1.0, 1.0);
            ds.push(vec![a, b], 3.0 * a - b + 0.5);
        }
        let lasso = LassoRegression::fit(&ds, 0.0);
        let ols = LinearRegression::fit(&ds);
        for probe in [[0.0, 0.0], [1.0, -1.0], [-0.5, 0.5]] {
            let d = (lasso.predict_one(&probe) - ols.predict_one(&probe)).abs();
            prop_assert!(d < 1e-3, "lasso/ols diverge by {d}");
        }
    }

    #[test]
    fn rng_split_streams_do_not_collide(
        seed in 0u64..10_000,
    ) {
        let mut parent = SimRng::new(seed);
        let mut a = parent.split();
        let mut b = parent.split();
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        prop_assert!(same < 4, "{same} collisions");
    }
}
