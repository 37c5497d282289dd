//! Ablation: the §VI enumeration-order optimizer (Equation 8) against
//! naive order heuristics, holding everything else (LIGHT engine, kernel)
//! fixed.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use light_core::{engine::run_plan, CountVisitor, EngineConfig};
use light_graph::generators;
use light_order::plan::{CandidateStrategy, Materialization, QueryPlan};
use light_pattern::{PatternGraph, PatternVertex, Query};

/// A naive connected order: ascending vertex ID (valid for the catalog
/// patterns), ignoring both cost and symmetry-related tie-breaking.
fn naive_order(p: &PatternGraph) -> Vec<PatternVertex> {
    (0..p.num_vertices() as PatternVertex).collect()
}

fn bench_order_choice(c: &mut Criterion) {
    let g = generators::barabasi_albert(3_000, 6, 19);

    let mut group = c.benchmark_group("order_ablation");
    for q in [Query::P2, Query::P4, Query::P6] {
        let p = q.pattern();
        let po = q.partial_order();
        let cfg = EngineConfig::light();

        group.bench_with_input(BenchmarkId::new("optimized", q.name()), &(), |b, _| {
            let plan = QueryPlan::optimized(&p, &g);
            b.iter(|| {
                let mut v = CountVisitor::default();
                run_plan(&plan, &g, &cfg, &mut v).matches
            });
        });

        let naive = naive_order(&p);
        if p.is_connected_order(&naive) {
            group.bench_with_input(BenchmarkId::new("naive_id_order", q.name()), &(), |b, _| {
                // The naive order may violate the partial-order placement
                // rule; drop constraints that conflict (disable symmetry
                // pruning of orders, keep bind-time checks) by re-deriving
                // a compatible constraint set is out of scope — use the
                // same po; the plan's slice bounds are derived for the
                // given π, so they stay correct for any π.
                let plan = QueryPlan::with_order(
                    &p,
                    &naive,
                    po.clone(),
                    Materialization::Lazy,
                    CandidateStrategy::MinSetCover,
                );
                b.iter(|| {
                    let mut v = CountVisitor::default();
                    run_plan(&plan, &g, &cfg, &mut v).matches
                });
            });
        }

        let ds = light_distributed::dualsim_sim::dualsim_order(&p);
        group.bench_with_input(BenchmarkId::new("degree_desc", q.name()), &(), |b, _| {
            let plan = QueryPlan::with_order(
                &p,
                &ds,
                po.clone(),
                Materialization::Lazy,
                CandidateStrategy::MinSetCover,
            );
            b.iter(|| {
                let mut v = CountVisitor::default();
                run_plan(&plan, &g, &cfg, &mut v).matches
            });
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_order_choice
}
criterion_main!(benches);
