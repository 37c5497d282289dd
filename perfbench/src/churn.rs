//! `serve_churn`: a live graph. A daemon serves a BA n=50k, k=4 v2
//! snapshot (mmap-backed). Connection 0 sends `update` batches on a fixed
//! schedule while a triangle `subscribe` stands; connection 1 runs a
//! closed loop of triangle/P2 queries. Queries arrive one at a time, so
//! the batch gate mostly falls through solo: this is the bypass case for
//! serve_mixed's batching.

use std::collections::{HashSet, VecDeque};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use light::core::{raw_delta, run_query, EngineConfig};
use light::graph::{delta::DeltaGraph, stats::compute_stats, CsrGraph, GraphBuilder};
use light::pattern::Query;
use light::serve::json::Json;

use crate::inputs::{self, Input, CACHE};
use crate::report::{Report, CHURN_CELLS};
use crate::rng::Rng;
use crate::serve::{self, Session, Timed};
use crate::stats::{iqr, median, percentile, tail_percentile};
use crate::trace::Tracer;
use crate::{floor, Args};

const GRAPH: &str = "ba50k";
const READS: [Query; 2] = [Query::Triangle, Query::P2];
/// Update batches per second on connection 0.
const UPDATE_HZ: f64 = 10.0;
/// Edits per batch.
const BATCH: usize = 16;
/// Benchmark-inserted edges kept live; beyond it each batch deletes the
/// oldest half-batch, so |E| stays near the base.
const WINDOW: usize = 64;
const SETUP_REPS: usize = 7;
const REPLAY_PER_CELL: usize = 5;
const REPLAY_BATCHES: usize = 40;

/// One `update` request's edits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Batch {
    /// Edges the benchmark inserted earlier, deleted first.
    pub deletes: Vec<(u32, u32)>,
    /// Fresh edges, absent before the batch.
    pub inserts: Vec<(u32, u32)>,
}

/// `count` batches for `base` from `seed`. Inserts join a degree-biased
/// endpoint (a random neighbour of a random vertex) to a uniform one.
pub fn make_batches(base: &CsrGraph, seed: u64, count: usize) -> Vec<Batch> {
    let mut rng = Rng::new(seed, 3);
    let n = base.num_vertices() as u64;
    let mut live: VecDeque<(u32, u32)> = VecDeque::new();
    let mut live_set: HashSet<(u32, u32)> = HashSet::new();
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let mut deletes = Vec::new();
        while live.len() >= WINDOW && deletes.len() < BATCH / 2 {
            let e = live.pop_front().expect("window is non-empty");
            live_set.remove(&e);
            deletes.push(e);
        }
        let mut inserts = Vec::new();
        while inserts.len() < BATCH - deletes.len() {
            let nb = base.neighbors(rng.below(n) as u32);
            if nb.is_empty() {
                continue;
            }
            let w = nb[rng.below(nb.len() as u64) as usize];
            let v = rng.below(n) as u32;
            let e = (w.min(v), w.max(v));
            if e.0 == e.1
                || base.contains_edge(e.0, e.1)
                || live_set.contains(&e)
                || deletes.contains(&e)
            {
                continue;
            }
            live_set.insert(e);
            live.push_back(e);
            inserts.push(e);
        }
        out.push(Batch { deletes, inserts });
    }
    out
}

fn update_line(id: u64, b: &Batch) -> String {
    let list = |es: &[(u32, u32)]| {
        es.iter()
            .map(|(a, c)| format!("[{a},{c}]"))
            .collect::<Vec<_>>()
            .join(",")
    };
    format!(
        "{{\"op\":\"update\",\"id\":{id},\"graph\":\"{GRAPH}\",\"deletes\":[{}],\"inserts\":[{}]}}",
        list(&b.deletes),
        list(&b.inserts)
    )
}

/// The benchmark's own copy of the graph: the base plus every batch sent
/// so far, with sorted adjacency lists and running triangle and diamond
/// counts. Each edit changes the counts by the patterns through its edge,
/// found from the edge's endpoints alone.
struct Shadow {
    adj: Vec<Vec<u32>>,
    counts: [u64; 2],
}

impl Shadow {
    fn new(g: &CsrGraph) -> Shadow {
        let mut s = Shadow {
            adj: g.vertices().map(|v| g.neighbors(v).to_vec()).collect(),
            counts: [0; 2],
        };
        s.counts = s.recount();
        s
    }

    /// Full triangle and diamond counts by the floor counters.
    fn recount(&self) -> [u64; 2] {
        let adj = |v: u32| self.adj[v as usize].as_slice();
        [
            floor::triangles(self.adj.len(), adj),
            floor::diamonds(self.adj.len(), adj),
        ]
    }

    /// Triangles and diamonds that contain the present edge `uv`. A diamond
    /// holds `uv` as its chord (pick two of the `c` common neighbours) or
    /// as a side joining a chord end to a tip: for a common neighbour `w`,
    /// chord `uw` or `vw` with `v` or `u` as one tip and any other common
    /// neighbour of the chord as the second.
    fn through(&self, u: u32, v: u32) -> [u64; 2] {
        let (nu, nv) = (&self.adj[u as usize], &self.adj[v as usize]);
        let mut c = 0;
        let mut d = 0;
        let (mut i, mut j) = (0, 0);
        while i < nu.len() && j < nv.len() {
            match nu[i].cmp(&nv[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    let nw = &self.adj[nu[i] as usize];
                    c += 1;
                    d += floor::common(nu, nw) - 1 + floor::common(nv, nw) - 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        [c, d + c * c.saturating_sub(1) / 2]
    }

    fn link(&mut self, u: u32, v: u32, present: bool) {
        for (x, y) in [(u, v), (v, u)] {
            let l = &mut self.adj[x as usize];
            match (l.binary_search(&y), present) {
                (Err(i), true) => l.insert(i, y),
                (Ok(i), false) => {
                    l.remove(i);
                }
                _ => unreachable!("batches only delete present and insert absent edges"),
            }
        }
    }

    fn apply(&mut self, b: &Batch) {
        for &(u, v) in &b.deletes {
            let gone = self.through(u, v);
            self.counts[0] -= gone[0];
            self.counts[1] -= gone[1];
            self.link(u, v, false);
        }
        for &(u, v) in &b.inserts {
            self.link(u, v, true);
            let new = self.through(u, v);
            self.counts[0] += new[0];
            self.counts[1] += new[1];
        }
    }

    fn count(&self, q: Query) -> u64 {
        match q {
            Query::Triangle => self.counts[0],
            Query::P2 => self.counts[1],
            _ => unreachable!("serve_churn reads only triangle and P2"),
        }
    }

    fn graph(&self) -> CsrGraph {
        let mut b = GraphBuilder::new().with_num_vertices(self.adj.len());
        for (u, l) in self.adj.iter().enumerate() {
            for &v in l.iter().filter(|&&v| v > u as u32) {
                b.add_edge(u as u32, v);
            }
        }
        b.build()
    }
}

struct Phase {
    updates: Vec<Timed>,
    reads: Vec<(Query, Timed)>,
    read_s: f64,
}

pub fn run(args: &Args, rep: &mut Report, tr: &mut Tracer) -> Result<String, String> {
    let base_path = inputs::ensure(Input::Ba50k, args.seed)?;
    // Serve a private copy: compaction would rewrite the snapshot in place.
    let work = PathBuf::from(CACHE).join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let snap = work.join("ba50k.snap");
    std::fs::copy(&base_path, &snap).map_err(|e| format!("{}: {e}", snap.display()))?;
    let result = run_on(args, &base_path, &snap, rep, tr);
    std::fs::remove_dir_all(&work).ok();
    result
}

fn run_on(
    args: &Args,
    base_path: &std::path::Path,
    snap: &std::path::Path,
    rep: &mut Report,
    tr: &mut Tracer,
) -> Result<String, String> {
    let (mut session, setup_s) = serve::setup(GRAPH, snap, SETUP_REPS)?;
    let base = session
        .daemon
        .svc
        .catalog()
        .get(GRAPH)
        .ok_or("graph missing")?
        .graph();
    let fingerprint = inputs::fingerprint(args.seed, &[(Input::Ba50k, &base)]);
    let mut shadow = Shadow::new(&base);
    for q in READS {
        let one_shot = run_query(&q.pattern(), &base, &EngineConfig::light()).matches;
        rep.expect(one_shot, shadow.count(q), || {
            format!("one-shot run_query {} on the base", q.name())
        });
    }

    let sub = serve::parse(&session.conns[0].call(&format!(
        "{{\"op\":\"subscribe\",\"id\":\"sub\",\"graph\":\"{GRAPH}\",\"pattern\":\"triangle\"}}"
    ))?)?;
    rep.expect(
        serve::num(&sub, "count") as u64,
        shadow.count(Query::Triangle),
        || "subscription's initial count".into(),
    );
    for q in READS {
        let doc = serve::parse(&session.conns[1].call(&serve::query_line(0, GRAPH, q))?)?;
        if let Some(m) = serve::answer(&doc, rep) {
            rep.expect(m, shadow.count(q), || format!("warm-up {}", q.name()));
        }
    }

    let batches = make_batches(
        &base,
        args.seed,
        (args.seconds * UPDATE_HZ).ceil() as usize + 2,
    );
    let seconds = if tr.enabled() {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let s0 = serve::svc_stats(&session.daemon.svc)?;
    let p = phase(&mut session, &batches, 0, seconds)?;
    let s1 = serve::svc_stats(&session.daemon.svc)?;
    let rss = inputs::peak_rss_mib();
    verify(&mut shadow, &batches, 0, &p, rep)?;

    let lat: Vec<f64> = p.updates.iter().map(Timed::latency_ms).collect();
    let late: Vec<f64> = p.updates.iter().map(Timed::late_ms).collect();
    let tail = tail_percentile(lat.len());
    rep.set(
        "setup_s",
        median(&setup_s),
        setup_s.len(),
        "median: catalog load + bind + 2 pings",
    );
    rep.set(
        "latency_p50_ms",
        median(&lat),
        lat.len(),
        format!(
            "update batches of {BATCH} at {UPDATE_HZ}/s, from scheduled send, {}",
            iqr(&lat)
        ),
    );
    rep.info(
        "latency_tail_ms",
        percentile(&lat, tail),
        "ms",
        lat.len(),
        &format!("p{tail} update latency"),
    );
    rep.set(
        "throughput_per_s",
        p.reads.len() as f64 / p.read_s,
        p.reads.len(),
        "triangle/P2 reads, closed loop beside the updates",
    );
    rep.set("peak_rss_mb", rss, 1, "VmHWM");
    let reads: Vec<f64> = p.reads.iter().map(|(_, t)| t.latency_ms()).collect();
    let read_tail = tail_percentile(reads.len());
    rep.info(
        "read_p50_ms",
        median(&reads),
        "ms",
        reads.len(),
        "closed-loop read latency",
    );
    rep.info(
        "read_tail_ms",
        percentile(&reads, read_tail),
        "ms",
        reads.len(),
        &format!("p{read_tail} read latency"),
    );
    let late_p99 = percentile(&late, 99.0);
    rep.set(
        "load.late_ms",
        late_p99,
        late.len(),
        "p99 update-generator lateness",
    );
    let period_ms = 1e3 / UPDATE_HZ;
    if late_p99 > period_ms / 2.0 {
        return Err(format!(
            "invalid run: the update generator fell behind (p99 late {late_p99:.1} ms, period {period_ms:.1} ms)"
        ));
    }

    if tr.enabled() {
        let gen0 = p.updates.len();
        let traced = phase(&mut session, &batches[gen0..], gen0 as u64, seconds)?;
        verify(&mut shadow, &batches[gen0..], gen0 as u64, &traced, rep)?;
        for (k, t) in traced.updates.iter().enumerate() {
            tr.record("client.update", None, k as u64, t.scheduled, t.done);
        }
        for (k, (q, t)) in traced.reads.iter().enumerate() {
            tr.record(
                &format!("client.socket:{}", q.name()),
                None,
                k as u64,
                t.scheduled,
                t.done,
            );
        }
        let traced_lat: Vec<f64> = traced.updates.iter().map(Timed::latency_ms).collect();
        rep.set(
            "trace.overhead_frac",
            median(&traced_lat) / median(&lat) - 1.0,
            traced_lat.len(),
            "traced vs untraced update p50",
        );
        let server: Vec<f64> = p
            .updates
            .iter()
            .map(|t| Ok(serve::num(&serve::parse(&t.resp)?, "elapsed_ms")))
            .collect::<Result<_, String>>()?;
        rep.set(
            "serve.update_server_ms",
            median(&server),
            server.len(),
            "median update response elapsed_ms",
        );
        let fields: Vec<(Timed, Json)> = p
            .reads
            .iter()
            .map(|(_, t)| Ok((t.clone(), serve::parse(&t.resp)?)))
            .collect::<Result<_, String>>()?;
        serve::report_response_fields(rep, &fields);
        serve::report_cache_rates(rep, s0, s1);
        let (tri, dia) = (shadow.count(Query::Triangle), shadow.count(Query::P2));
        let cells: Vec<(&str, Query)> = CHURN_CELLS.iter().copied().zip(READS).collect();
        let expect = |q: Query| if q == Query::Triangle { tri } else { dia };
        serve::depth_replay(
            &mut session,
            GRAPH,
            &cells,
            REPLAY_PER_CELL,
            expect,
            tr,
            rep,
        )?;
        graph_replay(base_path, &batches, tr, rep)?;
    }

    // Final answers against a graph rebuilt from the base plus every edit.
    let rebuilt = shadow.graph();
    for q in READS {
        let doc = serve::parse(&session.conns[1].call(&serve::query_line(0, GRAPH, q))?)?;
        let one_shot = run_query(&q.pattern(), &rebuilt, &EngineConfig::light()).matches;
        rep.expect(one_shot, shadow.count(q), || {
            format!("one-shot run_query {} on the rebuilt graph", q.name())
        });
        if let Some(m) = serve::answer(&doc, rep) {
            rep.expect(m, one_shot, || format!("final {}", q.name()));
        }
    }
    Ok(fingerprint)
}

/// Updates on connection 0 at `UPDATE_HZ`, reads on connection 1 in a
/// closed loop, both for `seconds`.
fn phase(
    session: &mut Session,
    batches: &[Batch],
    gen0: u64,
    seconds: f64,
) -> Result<Phase, String> {
    let n = ((seconds * UPDATE_HZ).floor() as usize).min(batches.len());
    let items: Vec<(Duration, String)> = batches[..n]
        .iter()
        .enumerate()
        .map(|(j, b)| {
            (
                Duration::from_secs_f64(j as f64 / UPDATE_HZ),
                update_line(gen0 + j as u64, b),
            )
        })
        .collect();
    let t0 = Instant::now() + Duration::from_millis(20);
    let until = t0 + Duration::from_secs_f64(seconds);
    let (c0, c1) = session.conns.split_at_mut(1);
    let (writer, reader) = (&mut c0[0], &mut c1[0]);
    std::thread::scope(|s| {
        let updates = s.spawn(move || serve::open_loop(writer, t0, &items));
        let reads = s.spawn(move || {
            std::thread::sleep(t0.saturating_duration_since(Instant::now()));
            let mut sent = Vec::new();
            let timed = serve::closed_loop(reader, until, |k| {
                let q = READS[k % 2];
                sent.push(q);
                serve::query_line(k as u64, GRAPH, q)
            })?;
            let read_s = (Instant::now() - t0).as_secs_f64();
            Ok::<_, String>((sent.into_iter().zip(timed).collect(), read_s))
        });
        let updates = updates.join().map_err(|_| "update client panicked")??;
        let (reads, read_s) = reads.join().map_err(|_| "read client panicked")??;
        Ok(Phase {
            updates,
            reads,
            read_s,
        })
    })
}

/// Check every update and read of a phase against the shadow graph, which
/// advances through the phase's batches. A read may have seen any
/// generation committed between its send and its answer.
fn verify(
    shadow: &mut Shadow,
    batches: &[Batch],
    gen0: u64,
    p: &Phase,
    rep: &mut Report,
) -> Result<(), String> {
    let mut counts = vec![shadow.counts];
    for (j, (b, u)) in batches.iter().zip(&p.updates).enumerate() {
        shadow.apply(b);
        counts.push(shadow.counts);
        let doc = serve::parse(&u.resp)?;
        rep.attempted += 1;
        if doc.get("status").and_then(Json::as_str) != Some("ok") {
            rep.failed += 1;
            continue;
        }
        let g = gen0 + j as u64 + 1;
        rep.expect(serve::num(&doc, "generation") as u64, g, || {
            format!("update {j} generation")
        });
        rep.expect(
            serve::num(&doc, "inserted") as u64,
            b.inserts.len() as u64,
            || format!("update {j} inserted"),
        );
        rep.expect(
            serve::num(&doc, "deleted") as u64,
            b.deletes.len() as u64,
            || format!("update {j} deleted"),
        );
        let sub = match doc.get("subscriptions") {
            Some(Json::Arr(subs)) => subs
                .iter()
                .find(|s| s.get("pattern").and_then(Json::as_str) == Some("triangle"))
                .and_then(|s| s.get("count"))
                .and_then(Json::as_u64),
            _ => None,
        };
        rep.expect(sub.unwrap_or(u64::MAX), shadow.counts[0], || {
            format!("subscription count at generation {g}")
        });
    }
    if shadow.recount() != shadow.counts {
        return Err("the shadow graph's running counts drifted from a full recount".into());
    }
    for (q, r) in &p.reads {
        let doc = serve::parse(&r.resp)?;
        let Some(m) = serve::answer(&doc, rep) else {
            continue;
        };
        let lo = p.updates.iter().filter(|u| u.done <= r.sent).count();
        let hi = p.updates.iter().filter(|u| u.sent <= r.done).count();
        let k = usize::from(*q == Query::P2);
        if !counts[lo..=hi.min(counts.len() - 1)]
            .iter()
            .any(|c| c[k] == m)
        {
            rep.mismatch(format!(
                "{} answered {m}, not a count of generations {}..={}",
                q.name(),
                gen0 + lo as u64,
                gen0 + hi as u64
            ));
        }
    }
    Ok(())
}

/// The update path's layer calls, replayed from the benchmark on a fresh
/// overlay over the base: `DeltaGraph::apply`, `merged_arc`,
/// `compute_stats`, and `raw_delta` for the standing triangle count.
fn graph_replay(
    base_path: &std::path::Path,
    batches: &[Batch],
    tr: &mut Tracer,
    rep: &mut Report,
) -> Result<(), String> {
    let base = Arc::new(inputs::open_timed(base_path, SETUP_REPS, tr, rep)?);
    let cfg = EngineConfig::light();
    let triangle = Query::Triangle.pattern();
    let aut = light::core::automorphism_count(&triangle);
    let mut raw = run_query(&triangle, &base, &cfg).matches * aut;
    let mut shadow = Shadow::new(&base);
    let mut delta = DeltaGraph::new(Arc::clone(&base));
    let mut pre = Arc::clone(&base);
    let (mut bytes, mut stats_ms, mut delta_ms) = (Vec::new(), Vec::new(), Vec::new());
    for (j, b) in batches.iter().take(REPLAY_BATCHES).enumerate() {
        let req = j as u64;
        let t0 = Instant::now();
        let applied = delta.apply(&b.deletes, &b.inserts);
        let t1 = Instant::now();
        let post = delta.merged_arc();
        let t2 = Instant::now();
        compute_stats(&post);
        let t3 = Instant::now();
        let (destroyed, created) = raw_delta(
            &triangle,
            &pre,
            &post,
            &applied.deleted,
            &applied.inserted,
            &cfg,
        );
        let t4 = Instant::now();
        tr.record("graph.delta_apply", None, req, t0, t1);
        tr.record("graph.merged_arc", None, req, t1, t2);
        tr.record("graph.compute_stats", None, req, t2, t3);
        tr.record("core.raw_delta", None, req, t3, t4);
        bytes.push(post.resident_bytes() as f64);
        stats_ms.push((t3 - t2).as_secs_f64() * 1e3);
        delta_ms.push((t4 - t3).as_secs_f64() * 1e3);
        raw = raw + created - destroyed;
        shadow.apply(b);
        rep.attempted += 1;
        rep.expect(raw / aut, shadow.count(Query::Triangle), || {
            format!("raw_delta replay, batch {j}")
        });
        pre = post;
    }
    let apply = tr.durations_ms("graph.delta_apply");
    let merge = tr.durations_ms("graph.merged_arc");
    rep.set(
        "graph.delta_apply_ms",
        median(&apply),
        apply.len(),
        "DeltaGraph::apply per batch",
    );
    rep.set(
        "graph.merge_ms",
        median(&merge),
        merge.len(),
        "DeltaGraph::merged_arc per batch",
    );
    rep.set(
        "graph.merge_bytes",
        median(&bytes),
        bytes.len(),
        "resident_bytes of the merged graph",
    );
    rep.set(
        "graph.stats_ms",
        median(&stats_ms),
        stats_ms.len(),
        "compute_stats per batch",
    );
    rep.set(
        "core.delta_ms",
        median(&delta_ms),
        delta_ms.len(),
        "raw_delta (triangle) per batch",
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use light::graph::generators;

    #[test]
    fn batches_keep_the_edge_count_near_the_base() {
        let base = generators::barabasi_albert(2000, 4, 9);
        let batches = make_batches(&base, 3, 40);
        let mut shadow = Shadow::new(&base);
        let m0 = base.num_edges();
        let k5 = generators::complete(5);
        let mut full = Shadow::new(&k5);
        assert_eq!(full.counts, [10, 30]);
        full.apply(&Batch {
            deletes: vec![(0, 1)],
            inserts: vec![],
        });
        assert_eq!(full.counts, full.recount());
        for b in &batches {
            assert_eq!(b.deletes.len() + b.inserts.len(), BATCH);
            for &(u, v) in &b.inserts {
                assert!(
                    u < v && !shadow.adj[u as usize].contains(&v),
                    "insert must be fresh"
                );
            }
            for &(u, v) in &b.deletes {
                assert!(
                    shadow.adj[u as usize].contains(&v),
                    "delete must be present"
                );
                assert!(
                    !base.contains_edge(u, v),
                    "only benchmark edges are deleted"
                );
            }
            shadow.apply(b);
        }
        let m = shadow.adj.iter().map(Vec::len).sum::<usize>() / 2;
        assert!(m >= m0 && m <= m0 + WINDOW + BATCH, "{m} vs base {m0}");
        assert_eq!(make_batches(&base, 3, 40), batches);
    }

    #[test]
    fn shadow_counts_match_the_engine_after_edits() {
        let base = generators::barabasi_albert(600, 5, 4);
        let mut shadow = Shadow::new(&base);
        for b in &make_batches(&base, 11, 12) {
            shadow.apply(b);
            assert_eq!(shadow.counts, shadow.recount());
        }
        let g = shadow.graph();
        for q in READS {
            let engine = run_query(&q.pattern(), &g, &EngineConfig::light()).matches;
            assert_eq!(shadow.count(q), engine, "{}", q.name());
        }
    }
}
