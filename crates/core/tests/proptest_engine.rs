//! The deepest correctness property in the workspace: for *random* connected
//! patterns, *random* connected enumeration orders, and random data graphs,
//! every (materialization × candidate-strategy) plan must produce exactly
//! the brute-force reference count. This exercises lazy materialization,
//! set-cover operands, aliasing, symmetry breaking (the slice bounds it
//! puts on COMP and MAT), and the executor's buffer reuse in combinations
//! the catalog never reaches — serially and through the work-stealing
//! driver. `PROPTEST_CASES=512` soaks it deeper.

use proptest::prelude::*;

use light_core::{engine::run_plan, CountVisitor, EngineConfig, EngineVariant};
use light_graph::generators;
use light_order::plan::{CandidateStrategy, Materialization, QueryPlan};
use light_parallel::{run_plan_parallel, ParallelConfig};
use light_pattern::{PartialOrder, PatternGraph, PatternVertex};

fn connected_pattern() -> impl Strategy<Value = PatternGraph> {
    (3usize..=6).prop_flat_map(|n| {
        let tree_choices = proptest::collection::vec(0usize..100, n - 1);
        let extra = proptest::collection::vec((0u8..n as u8, 0u8..n as u8), 0..7);
        (Just(n), tree_choices, extra).prop_map(|(n, tree, extra)| {
            let mut p = PatternGraph::empty(n);
            for (i, r) in tree.iter().enumerate() {
                p.add_edge((i + 1) as u8, (r % (i + 1)) as u8);
            }
            for (a, b) in extra {
                if a != b {
                    p.add_edge(a, b);
                }
            }
            p
        })
    })
}

/// A clique on 4–6 vertices with up to three edges removed (kept only if
/// still connected): nested backward neighborhoods, so the set-cover plans
/// chain K2 reads several levels deep.
fn near_clique() -> impl Strategy<Value = PatternGraph> {
    (
        4usize..=6,
        proptest::collection::vec((0u8..6, 0u8..6), 0..4),
    )
        .prop_map(|(n, cut)| {
            let k = PatternGraph::complete(n);
            let keep: Vec<_> = k
                .edges()
                .into_iter()
                .filter(|&(a, b)| !cut.contains(&(a, b)) && !cut.contains(&(b, a)))
                .collect();
            let p = PatternGraph::from_edges(n, &keep);
            if p.is_connected() {
                p
            } else {
                k
            }
        })
}

fn random_connected_order(p: &PatternGraph, seeds: &[usize]) -> Vec<PatternVertex> {
    let n = p.num_vertices();
    let mut order = Vec::with_capacity(n);
    let mut placed = 0u16;
    for (i, &s) in seeds.iter().take(n).enumerate() {
        let candidates: Vec<PatternVertex> = p
            .vertices()
            .filter(|&v| placed & (1 << v) == 0)
            .filter(|&v| i == 0 || p.neighbors_mask(v) & placed != 0)
            .collect();
        let v = candidates[s % candidates.len()];
        order.push(v);
        placed |= 1 << v;
    }
    order
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_plan_shape_matches_reference(
        p in connected_pattern(),
        order_seeds in proptest::collection::vec(0usize..100, 6),
        n in 8usize..22,
        graph_seed in 0u64..300,
    ) {
        let g = generators::erdos_renyi(n, (2 * n).min(n * (n - 1) / 2), graph_seed);
        let po = PartialOrder::for_pattern(&p);
        let expect = light_core::reference::count_matches(&p, &g, Some(&po));
        let pi = random_connected_order(&p, &order_seeds);

        for mat in [Materialization::Eager, Materialization::Lazy] {
            for strat in [
                CandidateStrategy::BackwardNeighbors,
                CandidateStrategy::MinSetCover,
            ] {
                let plan = QueryPlan::with_order(&p, &pi, po.clone(), mat, strat);
                let cfg = EngineConfig::light();
                let mut v = CountVisitor::default();
                let got = run_plan(&plan, &g, &cfg, &mut v).matches;
                prop_assert_eq!(
                    got, expect,
                    "pi={:?} mat={:?} strat={:?} pattern edges={:?}",
                    pi, mat, strat, p.edges()
                );
                let par = run_plan_parallel(&plan, &g, &cfg, &ParallelConfig::new(2));
                prop_assert_eq!(
                    par.report.matches, expect,
                    "parallel pi={:?} mat={:?} strat={:?} pattern edges={:?}",
                    pi, mat, strat, p.edges()
                );
            }
        }
    }

    #[test]
    fn arbitrary_partial_orders_match_reference(
        p in near_clique(),
        order_seeds in proptest::collection::vec(0usize..100, 6),
        pairs in proptest::collection::vec((0u8..6, 0u8..6), 0..8),
        n in 7usize..11,
        graph_seed in 0u64..300,
    ) {
        // Orders no automorphism group produces (any acyclic pair set —
        // here pairs point from smaller to larger vertex ids) reach slice
        // bound shapes the catalog's orders never do, e.g. a cut set read,
        // directly or through another reader, by a vertex the bound vertex
        // is not ordered against. Dense patterns and graphs, so that
        // chains of K2 reads occur and find matches.
        let nv = p.num_vertices() as u8;
        let mut po_pairs: Vec<(PatternVertex, PatternVertex)> = pairs
            .into_iter()
            .filter(|&(a, b)| a < b && b < nv)
            .collect();
        po_pairs.sort_unstable();
        po_pairs.dedup();
        let po = PartialOrder::from_pairs(po_pairs);
        let g = generators::erdos_renyi(n, n * (n - 1) / 3, graph_seed);
        let expect = light_core::reference::count_matches(&p, &g, Some(&po));
        let pi = random_connected_order(&p, &order_seeds);
        for mat in [Materialization::Eager, Materialization::Lazy] {
            for strat in [
                CandidateStrategy::BackwardNeighbors,
                CandidateStrategy::MinSetCover,
            ] {
                let plan = QueryPlan::with_order(&p, &pi, po.clone(), mat, strat);
                let mut v = CountVisitor::default();
                let got = run_plan(&plan, &g, &EngineConfig::light(), &mut v).matches;
                prop_assert_eq!(
                    got, expect,
                    "po={:?} pi={:?} mat={:?} strat={:?} pattern edges={:?}",
                    po.pairs(), pi, mat, strat, p.edges()
                );
            }
        }
    }

    #[test]
    fn optimizer_chosen_plans_match_reference(
        p in connected_pattern(),
        n in 8usize..20,
        graph_seed in 0u64..300,
    ) {
        let g = generators::barabasi_albert(n.max(6), 2, graph_seed);
        let po = PartialOrder::for_pattern(&p);
        let expect = light_core::reference::count_matches(&p, &g, Some(&po));
        for variant in EngineVariant::ALL {
            let cfg = EngineConfig::with_variant(variant);
            let got = light_core::run_query(&p, &g, &cfg).matches;
            prop_assert_eq!(got, expect, "{} edges={:?}", variant.name(), p.edges());
        }
    }

    #[test]
    fn runs_are_deterministic(
        p in connected_pattern(),
        n in 10usize..25,
        graph_seed in 0u64..300,
    ) {
        // Note: the paper explicitly does NOT guarantee LM does fewer
        // intersections than SE on arbitrary graphs (§IV-C: "We cannot
        // ensure that ∏ Γ(u') must be greater than 1"), so no such
        // inequality is asserted here — only determinism and agreement.
        let g = generators::erdos_renyi(n, (2 * n).min(n * (n - 1) / 2), graph_seed);
        let cfg = EngineConfig::with_variant(EngineVariant::Light);
        let a = light_core::run_query(&p, &g, &cfg);
        let b = light_core::run_query(&p, &g, &cfg);
        prop_assert_eq!(a.matches, b.matches);
        prop_assert_eq!(a.stats.intersect.total, b.stats.intersect.total);
        prop_assert_eq!(a.stats.bindings, b.stats.bindings);
        prop_assert_eq!(
            a.stats.peak_candidate_bytes,
            b.stats.peak_candidate_bytes
        );
        let se = light_core::run_query(
            &p, &g, &EngineConfig::with_variant(EngineVariant::Se));
        prop_assert_eq!(se.matches, a.matches);
    }
}
