//! Sampled planner statistics pick the same enumeration orders as exact
//! ones. Above `EXACT_WEDGE_LIMIT` wedges `compute_stats` samples the
//! clustering coefficient; on BA(50k, 4) graphs (~5.2M wedges) the order
//! the cost model chooses from the sample must match the order it chooses
//! from the exact coefficient, for every catalog pattern.
//!
//! Without symmetry breaking, automorphic orders tie up to floating-point
//! rounding (their Equation 8 sums add the same terms in another order),
//! so there the check is that the sampled choice costs the same as the
//! exact choice under the exact statistics.

use light_graph::generators;
use light_graph::stats::EXACT_WEDGE_LIMIT;
use light_graph::stats::{clustering_coefficient, compute_stats, count_triangles, GraphStats};
use light_order::cost::{choose_order, order_cost};
use light_order::estimate::Estimator;
use light_pattern::{PartialOrder, Query};

#[test]
fn sampled_and_exact_stats_choose_the_same_orders() {
    let queries = Query::ALL.into_iter().chain([Query::Triangle]);
    let queries: Vec<Query> = queries.collect();
    for seed in 1..=3 {
        let g = generators::barabasi_albert(50_000, 4, seed);
        let sampled = compute_stats(&g);
        assert!(
            sampled.wedges > EXACT_WEDGE_LIMIT,
            "seed {seed}: not sampled"
        );
        let exact = GraphStats {
            clustering: clustering_coefficient(count_triangles(&g), sampled.wedges),
            ..sampled
        };
        let (s_est, e_est) = (
            Estimator::from_stats(&sampled),
            Estimator::from_stats(&exact),
        );
        for &q in &queries {
            let p = q.pattern();
            let po = PartialOrder::for_pattern(&p);
            assert_eq!(
                choose_order(&p, &po, &s_est),
                choose_order(&p, &po, &e_est),
                "seed {seed}, {}: clustering {} sampled vs {} exact",
                q.name(),
                sampled.clustering,
                exact.clustering
            );
            let none = PartialOrder::none();
            let s_cost = order_cost(&p, &choose_order(&p, &none, &s_est), &e_est);
            let e_cost = order_cost(&p, &choose_order(&p, &none, &e_est), &e_est);
            assert!(
                (s_cost - e_cost).abs() <= 1e-12 * e_cost,
                "seed {seed}, {} without symmetry breaking: {s_cost} vs {e_cost}",
                q.name()
            );
        }
    }
}
