//! CFL analog: a labeled-subgraph-matching engine on unlabeled inputs.
//!
//! CFL [5] builds a lightweight index (its CPI) and orders vertices by a
//! core-forest-leaf analysis of label frequencies. On *unlabeled* graphs
//! the paper finds (§VIII-B1) that:
//!
//! * CFL's filters carry no signal (every vertex has the same label), so
//!   its enumeration degenerates to SE over CFL's order;
//! * its set intersection always "loops over the smaller set to check
//!   whether its elements exist in the other one" — i.e. a skew-oriented
//!   search, good on yt's skewed lists, worse than Merge on similar-sized
//!   lists (lj);
//! * its order heuristic, blind to unlabeled cardinalities, sometimes picks
//!   a poor order (P4's failure).
//!
//! The simulator is therefore: an SE-grade engine over CFL's BFS-from-
//! densest-root order with a galloping-only intersector (`δ = 1` forces
//! Algorithm 4 down the Galloping path on every call).

use std::collections::VecDeque;

use light_graph::CsrGraph;
use light_order::plan::{CandidateStrategy, Materialization, QueryPlan};
use light_pattern::{PartialOrder, PatternGraph, PatternVertex};
use light_setops::IntersectKind;

use crate::budget::{Budget, SimOutcome, SimReport};

/// The CFL-like engine.
pub struct CflSim;

impl CflSim {
    /// Run the CFL-like engine.
    pub fn run(p: &PatternGraph, g: &CsrGraph, budget: &Budget) -> SimReport {
        let pi = cfl_order(p);
        let po = PartialOrder::for_pattern(p);
        // CFL's partial-order support mirrors the others: the shared engine
        // enforces the constraints through the plan's slice bounds.
        let plan = QueryPlan::with_order(
            p,
            &pi,
            po,
            Materialization::Eager,
            CandidateStrategy::BackwardNeighbors,
        );
        let mut cfg = light_core::EngineConfig::with_variant(light_core::EngineVariant::Se)
            .intersect(IntersectKind::HybridScalar);
        cfg.delta = 1; // always galloping — CFL's intersection style
        if let Some(t) = budget.time {
            cfg = cfg.budget(t);
        }
        let mut visitor = light_core::CountVisitor::default();
        let report = light_core::engine::run_plan(&plan, g, &cfg, &mut visitor);
        SimReport {
            outcome: match report.outcome {
                light_core::Outcome::OutOfTime => SimOutcome::OutOfTime,
                _ => SimOutcome::Done,
            },
            matches: report.matches,
            elapsed: report.elapsed,
            peak_intermediate_bytes: report.stats.peak_candidate_bytes,
            shuffled_bytes: 0,
            rounds: 1,
            intersections: report.stats.intersect.total,
        }
    }
}

/// CFL's order heuristic on unlabeled graphs: BFS from the max-degree
/// vertex, visiting neighbors in descending pattern degree (its core-first
/// tendency), with no cardinality estimation. Always a connected order.
pub fn cfl_order(p: &PatternGraph) -> Vec<PatternVertex> {
    let root = p
        .vertices()
        .max_by_key(|&v| (p.degree(v), std::cmp::Reverse(v)))
        .expect("non-empty pattern");
    let mut order = Vec::with_capacity(p.num_vertices());
    let mut seen = 1u16 << root;
    let mut queue = VecDeque::from([root]);
    while let Some(u) = queue.pop_front() {
        order.push(u);
        let mut nbrs: Vec<PatternVertex> =
            p.neighbors(u).filter(|&w| seen & (1 << w) == 0).collect();
        nbrs.sort_by_key(|&w| std::cmp::Reverse(p.degree(w)));
        for w in nbrs {
            seen |= 1 << w;
            queue.push_back(w);
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use light_core::EngineConfig;
    use light_graph::generators;
    use light_pattern::Query;

    #[test]
    fn cfl_orders_are_connected() {
        for q in Query::ALL {
            let p = q.pattern();
            let pi = cfl_order(&p);
            assert!(p.is_connected_order(&pi), "{}: {pi:?}", q.name());
        }
    }

    #[test]
    fn counts_match_light_on_all_patterns() {
        let g = generators::barabasi_albert(100, 4, 13);
        for q in Query::ALL {
            let expect = light_core::run_query(&q.pattern(), &g, &EngineConfig::light()).matches;
            let report = CflSim::run(&q.pattern(), &g, &Budget::unlimited());
            assert_eq!(report.outcome, SimOutcome::Done, "{}", q.name());
            assert_eq!(report.matches, expect, "{}", q.name());
        }
    }

    #[test]
    fn always_gallops() {
        let g = generators::barabasi_albert(200, 4, 3);
        let report = CflSim::run(&Query::P2.pattern(), &g, &Budget::unlimited());
        // With δ = 1 every intersection goes down the Galloping path; the
        // SimReport exposes totals, so cross-check against a direct run.
        assert!(report.intersections > 0);
    }

    #[test]
    fn timeout_propagates() {
        let g = generators::barabasi_albert(5000, 20, 3);
        let report = CflSim::run(
            &Query::P7.pattern(),
            &g,
            &Budget::unlimited().with_time(std::time::Duration::from_millis(1)),
        );
        assert_eq!(report.outcome, SimOutcome::OutOfTime);
    }
}
