//! The auxiliary candidate cache (DESIGN.md §11) is an execution-level
//! memo: with it on, off, or thrashing under memory pressure, every engine
//! variant must enumerate exactly the same matches. These differential
//! tests are the safety net for the cache's trickiest obligations —
//! stamp-based invalidation (a stale entry surviving a guard re-binding
//! would silently corrupt counts) and watermark eviction (shedding the
//! cache mid-run must be invisible).
//!
//! Structural plans (threshold 0) force a directive onto every eligible
//! slot, so the cache is exercised even where the cost model would decline.
//! Every leg runs with symmetry breaking on and off: under it most catalog
//! directive slots carry slice bounds and get no directive (DESIGN.md §6,
//! §11), so the cache does its work mainly in the symmetry-off legs, while
//! the symmetry-on legs check that bounded and cached COMPs mix soundly.

use proptest::prelude::*;

use light::core::{EngineConfig, EngineVariant, Outcome};
use light::graph::generators;
use light::parallel::{run_query_parallel, ParallelConfig};
use light::pattern::Query;

/// Symmetry-breaking settings every leg runs under.
const SYMMETRY: [bool; 2] = [true, false];

/// Each query under each symmetry-breaking setting.
fn legs(queries: &[Query]) -> impl Iterator<Item = (Query, bool)> + '_ {
    queries.iter().flat_map(|&q| SYMMETRY.map(|s| (q, s)))
}

/// The full pattern catalog plus the triangle.
const CATALOG: [Query; 8] = [
    Query::Triangle,
    Query::P1,
    Query::P2,
    Query::P3,
    Query::P4,
    Query::P5,
    Query::P6,
    Query::P7,
];

#[test]
fn full_catalog_matches_with_cache_on_and_off() {
    // Deterministic leg: every catalog pattern, serial, both thresholds
    // (default cost-model planning and forced structural planning).
    let g = generators::barabasi_albert(250, 6, 97);
    let mut hits = 0;
    for (q, symmetry) in legs(&CATALOG) {
        let p = q.pattern();
        let base = EngineConfig::light().symmetry(symmetry);
        let off = light::core::run_query(&p, &g, &base.clone().aux_cache(false));
        for threshold in [light::order::DEFAULT_AUX_THRESHOLD, 0.0] {
            let cfg = base.clone().aux_cache(true).aux_threshold(threshold);
            let on = light::core::run_query(&p, &g, &cfg);
            assert_eq!(
                on.matches,
                off.matches,
                "{} threshold {threshold} symmetry {symmetry}",
                q.name()
            );
            assert_eq!(on.outcome, Outcome::Complete);
            hits += on.stats.aux.hits;
        }
    }
    assert!(hits > 0, "no catalog run hit the cache");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn cache_never_changes_counts_serial(
        n in 20usize..60,
        k in 2usize..5,
        seed in 0u64..400,
    ) {
        let g = generators::barabasi_albert(n, k, seed);
        for (q, symmetry) in legs(&CATALOG) {
            let p = q.pattern();
            for variant in EngineVariant::ALL {
                let base = EngineConfig::with_variant(variant).symmetry(symmetry);
                let off = light::core::run_query(&p, &g, &base.clone().aux_cache(false));
                // Threshold 0 maximizes directives on small random graphs,
                // where the cost model would usually say "not worth it".
                let on = light::core::run_query(
                    &p, &g, &base.clone().aux_cache(true).aux_threshold(0.0));
                prop_assert_eq!(
                    on.matches, off.matches,
                    "{} {} symmetry={} n={} k={} seed={}",
                    q.name(), variant.name(), symmetry, n, k, seed
                );
            }
        }
    }

    #[test]
    fn cache_never_changes_counts_parallel(
        n in 40usize..90,
        seed in 0u64..400,
        threads in 2usize..5,
    ) {
        let g = generators::barabasi_albert(n, 4, seed);
        let pc = ParallelConfig::new(threads);
        for (q, symmetry) in legs(&[Query::Triangle, Query::P1, Query::P2, Query::P5]) {
            let p = q.pattern();
            let base = EngineConfig::light().symmetry(symmetry);
            let off = run_query_parallel(&p, &g, &base.clone().aux_cache(false), &pc);
            let on = run_query_parallel(
                &p, &g, &base.clone().aux_cache(true).aux_threshold(0.0), &pc);
            prop_assert_eq!(
                on.report.matches, off.report.matches,
                "{} symmetry={} n={} seed={} threads={}", q.name(), symmetry, n, seed, threads
            );
            prop_assert!(on.failures.is_empty() && off.failures.is_empty());
        }
    }

    #[test]
    fn cache_never_changes_counts_under_eviction_pressure(
        n in 60usize..120,
        seed in 0u64..300,
    ) {
        // Watermark set between the cache-off peak and peak + cache
        // appetite: stores get skipped and entries purged mid-run, yet the
        // run must stay Complete with the exact count (the cache degrades,
        // never causes MemoryExceeded).
        let g = generators::barabasi_albert(n, 6, seed);
        for (q, symmetry) in legs(&[Query::P1, Query::P2, Query::P5]) {
            let p = q.pattern();
            let base = EngineConfig::light().symmetry(symmetry);
            let off = light::core::run_query(&p, &g, &base.clone().aux_cache(false));
            prop_assert_eq!(off.outcome, Outcome::Complete);
            let budget = off.stats.peak_candidate_bytes * 2 + 512;
            let on = light::core::run_query(
                &p, &g,
                &base.clone()
                    .aux_cache(true)
                    .aux_threshold(0.0)
                    .max_memory(budget));
            prop_assert_eq!(
                on.outcome, Outcome::Complete,
                "{} symmetry={} n={} seed={} aux={:?}", q.name(), symmetry, n, seed, on.stats.aux
            );
            prop_assert_eq!(
                on.matches, off.matches,
                "{} symmetry={} n={} seed={}", q.name(), symmetry, n, seed
            );
        }
    }
}
