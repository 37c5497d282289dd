//! `census`: the analyst's one-shot job, in process.
//!
//! Each cell counts one pattern on one v2 snapshot opened through
//! `graph::io::open_any` (mmap-backed): it plans through
//! `EngineConfig::plan` and counts through `parallel::run_plan_parallel`
//! with two workers. A pass runs every cell once; passes repeat for the
//! run's duration. The serve tier is not involved.

use std::time::{Duration, Instant};

use light::core::{engine::run_plan, CountVisitor, EngineConfig};
use light::graph::{ordered::is_degree_ordered, stats::compute_stats, CsrGraph};
use light::parallel::{run_plan_parallel, ParallelConfig, ParallelReport};
use light::pattern::Query;

use crate::inputs::{self, Input};
use crate::report::{Report, CENSUS_CELLS};
use crate::stats::{iqr, median, percentile, tail_percentile};
use crate::trace::Tracer;
use crate::{floor, Args};

const WORKERS: usize = 2;
const SETUP_REPS: usize = 21;

struct Cell<'g> {
    name: &'static str,
    graph: &'g CsrGraph,
    query: Query,
    expect: u64,
}

struct CellRun {
    enum_ns: u64,
    pr: ParallelReport,
}

/// Run the workload; returns the fingerprint of what it measured.
pub fn run(args: &Args, rep: &mut Report, tr: &mut Tracer) -> Result<String, String> {
    let ba_path = inputs::ensure(Input::Ba500k, args.seed)?;
    let lj_path = inputs::ensure(Input::Lj, args.seed)?;

    // Set-up: the inputs are opened as the program's load paths open them
    // (`open_any`, then the degree-order check symmetry breaking relies
    // on), after which the first answer is possible.
    let mut setup_s = Vec::new();
    let mut opened = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let ba = inputs::open(&ba_path)?;
        let lj = inputs::open(&lj_path)?;
        if !(is_degree_ordered(&ba) && is_degree_ordered(&lj)) {
            return Err("a census snapshot is not degree-ordered".into());
        }
        let end = Instant::now();
        tr.record("graph.open_any", None, 0, t, end);
        setup_s.push((end - t).as_secs_f64());
        opened = Some((ba, lj));
    }
    let (ba, lj) = opened.expect("SETUP_REPS > 0");
    let fingerprint = inputs::fingerprint(args.seed, &[(Input::Ba500k, &ba), (Input::Lj, &lj)]);

    // The floor doubles as the count check for the triangle cell.
    let floor_t0 = Instant::now();
    let ba_triangles = floor::triangles(ba.num_vertices(), |v| ba.neighbors(v));
    let floor_end = Instant::now();
    tr.record("floor.triangles", None, 0, floor_t0, floor_end);

    let mut cells = vec![Cell {
        name: CENSUS_CELLS[0],
        graph: &ba,
        query: Query::Triangle,
        expect: ba_triangles,
    }];
    for (name, query) in CENSUS_CELLS[1..]
        .iter()
        .zip([Query::P1, Query::P4, Query::P6, Query::P7])
    {
        cells.push(Cell {
            name,
            graph: &lj,
            query,
            expect: inputs::lj_count(query),
        });
    }

    let cfg = EngineConfig::light();
    let pcfg = ParallelConfig::new(WORKERS);
    let budget = if tr.enabled() {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut off = Tracer::new(false, Instant::now());
    let (pass_s, _) = timed_passes(&cells, &cfg, &pcfg, budget, rep, &mut off);
    let n_cells = (pass_s.len() * cells.len()) as f64;
    let total: f64 = pass_s.iter().sum();
    let tail = tail_percentile(pass_s.len());
    rep.set(
        "setup_s",
        median(&setup_s),
        setup_s.len(),
        "median open_any + degree-order check, both snapshots",
    );
    let pass_ms: Vec<f64> = pass_s.iter().map(|s| s * 1e3).collect();
    rep.set(
        "latency_p50_ms",
        median(&pass_ms),
        pass_ms.len(),
        format!(
            "median census pass (plan + count, all cells), {}",
            iqr(&pass_ms)
        ),
    );
    rep.info(
        "latency_tail_ms",
        percentile(&pass_ms, tail),
        "ms",
        pass_ms.len(),
        &format!("p{tail} census pass"),
    );
    rep.set(
        "throughput_per_s",
        n_cells / total,
        pass_s.len(),
        "cells planned and counted per second",
    );
    rep.set("peak_rss_mb", inputs::peak_rss_mib(), 1, "VmHWM");

    if !tr.enabled() {
        return Ok(fingerprint);
    }
    let (traced_s, runs) = timed_passes(&cells, &cfg, &pcfg, budget, rep, tr);
    rep.set(
        "trace.overhead_frac",
        median(&traced_s) / median(&pass_s) - 1.0,
        traced_s.len(),
        "traced vs untraced median pass",
    );
    rep.set(
        "graph.open_ms",
        median(&setup_s) * 1e3,
        setup_s.len(),
        "open_any + degree-order check, both snapshots",
    );
    let t = Instant::now();
    compute_stats(&ba);
    compute_stats(&lj);
    let end = Instant::now();
    tr.record("graph.compute_stats", None, 0, t, end);
    rep.set(
        "graph.stats_ms",
        (end - t).as_secs_f64() * 1e3,
        1,
        "compute_stats, both graphs",
    );

    for c in &cells {
        let plan = tr.durations_ms(&format!("order.plan:{}", c.name));
        let en = tr.durations_ms(&format!("parallel.run_plan_parallel:{}", c.name));
        rep.set(
            &format!("order.plan_ms.{}", c.name),
            median(&plan),
            plan.len(),
            "EngineConfig::plan",
        );
        rep.set(
            &format!("core.enum_ms.{}", c.name),
            median(&en),
            en.len(),
            "run_plan_parallel, 2 workers",
        );
    }
    let last = runs.last().expect("at least one traced pass");
    let (mut steals, mut donations, mut tasks, mut parked, mut busy) = (0, 0, 0, 0u64, 0u64);
    for (c, run) in cells.iter().zip(last) {
        let s = &run.pr.report.stats;
        let is = &s.intersect;
        let cell_rep = |m: &str| format!("{m}.{}", c.name);
        rep.set(
            &cell_rep("core.bindings"),
            s.bindings as f64,
            1,
            "Report.stats.bindings",
        );
        rep.set(
            &cell_rep("core.intersections"),
            is.total as f64,
            1,
            "IntersectStats.total",
        );
        rep.set(
            &cell_rep("core.peak_candidate_bytes"),
            s.peak_candidate_bytes as f64,
            1,
            "summed over workers",
        );
        rep.set(
            &cell_rep("setops.elements_scanned"),
            is.elements_scanned as f64,
            1,
            "IntersectStats",
        );
        rep.set(
            &cell_rep("setops.galloping_share"),
            is.galloping as f64 / is.total.max(1) as f64,
            1,
            "galloping / total",
        );
        rep.set(
            &cell_rep("setops.ns_per_element"),
            (run.enum_ns * WORKERS as u64) as f64 / is.elements_scanned.max(1) as f64,
            1,
            "worker-ns per element scanned",
        );
        rep.set(
            &cell_rep("setops.bytes_computed"),
            (is.elements_scanned * 4) as f64,
            1,
            "4 bytes per element scanned",
        );
        for w in &run.pr.workers {
            steals += w.steals;
            donations += w.donations;
            tasks += w.tasks;
            parked += w.parked_nanos;
        }
        busy += run.enum_ns * run.pr.workers.len() as u64;
    }
    rep.set(
        "parallel.steals",
        steals as f64,
        1,
        "all cells, last traced pass",
    );
    rep.set(
        "parallel.donations",
        donations as f64,
        1,
        "all cells, last traced pass",
    );
    rep.set(
        "parallel.tasks",
        tasks as f64,
        1,
        "all cells, last traced pass",
    );
    rep.set(
        "parallel.parked_frac",
        parked as f64 / busy.max(1) as f64,
        1,
        "parked / worker wall time",
    );

    // Floor against the serial engine on the same graph.
    let floor_s = (floor_end - floor_t0).as_secs_f64();
    let plan = cfg.plan(&Query::Triangle.pattern(), &ba);
    let t = Instant::now();
    let serial = run_plan(&plan, &ba, &cfg, &mut CountVisitor::default());
    let end = Instant::now();
    tr.record("core.run_plan:ba500k.triangle", None, 0, t, end);
    rep.attempted += 1;
    rep.expect(serial.matches, ba_triangles, || {
        "serial run_plan ba500k.triangle".into()
    });
    rep.set(
        "floor.triangle_s",
        floor_s,
        1,
        "scalar oriented merge, BA-500k",
    );
    rep.set(
        "floor.ratio",
        (end - t).as_secs_f64() / floor_s,
        1,
        "serial run_plan / floor, BA-500k triangle",
    );
    Ok(fingerprint)
}

/// Census passes until `budget` has elapsed (at least one). Returns each
/// pass's seconds and, per pass, each cell's run.
fn timed_passes(
    cells: &[Cell],
    cfg: &EngineConfig,
    pcfg: &ParallelConfig,
    budget: f64,
    rep: &mut Report,
    tr: &mut Tracer,
) -> (Vec<f64>, Vec<Vec<CellRun>>) {
    let patterns: Vec<_> = cells.iter().map(|c| c.query.pattern()).collect();
    let start = Instant::now();
    let (mut pass_s, mut runs) = (Vec::new(), Vec::new());
    while pass_s.is_empty() || start.elapsed() < Duration::from_secs_f64(budget) {
        let req = pass_s.len() as u64;
        let t = Instant::now();
        let pass = tr.begin("census.pass", None, req);
        let mut cell_runs = Vec::new();
        for (c, pattern) in cells.iter().zip(&patterns) {
            let span = tr.begin(&format!("cell:{}", c.name), pass, req);
            let t0 = Instant::now();
            let plan = cfg.plan(pattern, c.graph);
            let t1 = Instant::now();
            let pr = run_plan_parallel(&plan, c.graph, cfg, pcfg);
            let t2 = Instant::now();
            tr.record(&format!("order.plan:{}", c.name), span, req, t0, t1);
            tr.record(
                &format!("parallel.run_plan_parallel:{}", c.name),
                span,
                req,
                t1,
                t2,
            );
            tr.end(span);
            rep.attempted += 1;
            if pr.is_complete() {
                rep.expect(pr.report.matches, c.expect, || format!("{} count", c.name));
            } else {
                rep.failed += 1;
            }
            cell_runs.push(CellRun {
                enum_ns: (t2 - t1).as_nanos() as u64,
                pr,
            });
        }
        tr.end(pass);
        pass_s.push(t.elapsed().as_secs_f64());
        runs.push(cell_runs);
    }
    (pass_s, runs)
}
