//! Property tests over the over-subscription planner.

use cloudscope_mgmt::oversub::{inverse_normal_cdf, OversubMethod, OversubPlanner, VmDemand};
use proptest::prelude::*;

fn pool_strategy() -> impl Strategy<Value = Vec<VmDemand>> {
    prop::collection::vec(
        (1u32..16, prop::collection::vec(0.0f64..100.0, 64..=64)),
        1..12,
    )
    .prop_map(|vms| {
        vms.into_iter()
            .map(|(cores, utilization)| VmDemand { cores, utilization })
            .collect()
    })
}

proptest! {
    #[test]
    fn oversub_plan_invariants(
        pool in pool_strategy(),
        eps in 0.005f64..0.4,
    ) {
        for method in [
            OversubMethod::PeakReservation,
            OversubMethod::GaussianBound,
            OversubMethod::EmpiricalQuantile,
        ] {
            let plan = OversubPlanner::new(eps, method).unwrap().plan(&pool).unwrap();
            // Never reserve more than requested nor less than the mean.
            prop_assert!(plan.reserved_cores <= plan.requested_cores + 1e-9);
            prop_assert!(plan.reserved_cores >= plan.mean_demand - 1e-9);
            prop_assert!(plan.utilization_improvement >= -1e-12);
            prop_assert!((0.0..=1.0).contains(&plan.violation_rate));
            if method == OversubMethod::PeakReservation {
                prop_assert_eq!(plan.violation_rate, 0.0);
            }
            if method == OversubMethod::EmpiricalQuantile {
                // The empirical quantile honours the budget up to grid
                // resolution (1/len).
                prop_assert!(plan.violation_rate <= eps + 1.0 / 64.0 + 1e-9);
            }
        }
    }

    #[test]
    fn inverse_normal_is_monotone_and_symmetric(p in 0.001f64..0.999) {
        let z = inverse_normal_cdf(p);
        let z2 = inverse_normal_cdf((p + 0.0005).min(0.9995));
        prop_assert!(z2 >= z - 1e-9);
        let sym = inverse_normal_cdf(1.0 - p);
        prop_assert!((z + sym).abs() < 1e-6, "quantiles mirror: {z} vs {sym}");
    }
}
