//! `fig_auxcache` — ablation of the auxiliary candidate cache
//! (DESIGN.md §11): cache-off vs cache-on over the full pattern catalog.
//!
//! For each pattern the harness reports how many trim directives the
//! planner emitted, both wall times, the hit rate, and the match counts
//! (which must be identical — the cache is an execution-level memo, not an
//! algorithm change). Patterns whose plans carry no directive are the
//! built-in control group: both legs must behave identically there.
//!
//! Both legs run without symmetry breaking (raw counts, `|Aut(P)|` times
//! the deduplicated ones): under it the catalog's directive slots mostly
//! carry slice bounds, and a bounded COMP gets no directive (DESIGN.md
//! §6, §11), so the ablation would compare the cache against itself.
//!
//! Knobs: `LIGHT_SCALE` (default 0.05), `LIGHT_THREADS` (default 1),
//! `LIGHT_TIME_BUDGET_SECS` (default 60), `LIGHT_AUX_THRESHOLD` (planner
//! benefit threshold, default [`light_order::DEFAULT_AUX_THRESHOLD`]),
//! `LIGHT_DATASET` (default `lj` — dense enough that the default
//! threshold enables trimming on P1/P5).
//!
//! Emits `BENCH_fig_auxcache.json` (see [`light_bench::emit_bench`]).

use light_bench::{
    dataset, emit_bench, env_f64, fmt_secs, recorder_splits, scale, threads, time_budget, BenchRow,
    TablePrinter,
};
use light_core::{EngineConfig, Outcome, Report};
use light_graph::datasets::Dataset;
use light_graph::CsrGraph;
use light_parallel::{run_query_parallel, ParallelConfig};
use light_pattern::{PatternGraph, Query};

fn run(
    p: &PatternGraph,
    g: &CsrGraph,
    cfg: &EngineConfig,
    nthreads: usize,
) -> (Report, light_metrics::Summary) {
    let rec = light_metrics::Recorder::new();
    let cfg = cfg.clone().metrics(rec.clone());
    let report = if nthreads > 1 {
        run_query_parallel(p, g, &cfg, &ParallelConfig::new(nthreads)).report
    } else {
        light_core::run_query(p, g, &cfg)
    };
    (report, rec.summary())
}

fn main() {
    let s = scale(0.05);
    let tb = time_budget(60);
    let nthreads = threads(1);
    let thr = env_f64("LIGHT_AUX_THRESHOLD", light_order::DEFAULT_AUX_THRESHOLD);
    let dname = std::env::var("LIGHT_DATASET").unwrap_or_else(|_| "lj".into());
    let d = Dataset::ALL
        .into_iter()
        .find(|d| d.name() == dname)
        .unwrap_or_else(|| panic!("unknown LIGHT_DATASET {dname:?}"));
    println!(
        "fig_auxcache: auxiliary-cache ablation on {} at scale {s}, {} thread(s), \
         threshold {thr}, budget {}s, symmetry breaking off",
        d.name(),
        nthreads,
        tb.as_secs()
    );
    let g = dataset(d, s);

    let mut t = TablePrinter::new(&[
        "pattern", "dirs", "off(s)", "on(s)", "speedup", "hits", "hit%", "matches",
    ]);
    let mut rows: Vec<BenchRow> = Vec::new();
    let mut improved = 0usize;
    for q in Query::ALL {
        let p = q.pattern();
        let base = EngineConfig::light()
            .symmetry(false)
            .budget(tb)
            .aux_threshold(thr);
        let dirs = base
            .clone()
            .aux_cache(true)
            .plan(&p, &g)
            .aux_directives()
            .len();

        let (r_off, s_off) = run(&p, &g, &base.clone().aux_cache(false), nthreads);
        let (r_on, s_on) = run(&p, &g, &base.clone().aux_cache(true), nthreads);

        if r_on.outcome == Outcome::Complete {
            assert_eq!(
                r_on.matches,
                r_off.matches,
                "{}: cache changed the count",
                q.name()
            );
        }
        let (hits, misses) = (r_on.stats.aux.hits, r_on.stats.aux.misses);
        let hit_pct = if hits + misses > 0 {
            100.0 * hits as f64 / (hits + misses) as f64
        } else {
            0.0
        };
        let speedup = r_off.elapsed.as_secs_f64() / r_on.elapsed.as_secs_f64().max(1e-9);
        if dirs > 0 && r_on.outcome == Outcome::Complete && speedup > 1.0 {
            improved += 1;
        }
        t.row(&[
            q.name().into(),
            dirs.to_string(),
            fmt_secs(r_off.elapsed),
            fmt_secs(r_on.elapsed),
            format!("{speedup:.2}x"),
            light_bench::fmt_count(hits),
            format!("{hit_pct:.1}%"),
            light_bench::fmt_count(r_on.matches),
        ]);
        for (label, r, sum) in [("aux=off", &r_off, &s_off), ("aux=on", &r_on, &s_on)] {
            rows.push(BenchRow {
                pattern: q.name().into(),
                dataset: d.name().into(),
                threads: nthreads,
                config: label.into(),
                wall_ms: r.elapsed.as_secs_f64() * 1e3,
                matches: r.matches,
                outcome: format!("{:?}", r.outcome),
                splits: recorder_splits(sum),
            });
        }
    }
    t.print();
    println!(
        "\n{improved} pattern(s) with directives ran faster cache-on; \
         dirs = trim directives planned (0 rows are the control group)."
    );
    match emit_bench("fig_auxcache", &rows) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("bench emit failed: {e}"),
    }
}
