//! `serve_mixed`: interactive clients on a daemon serving lj-sim@0.05.
//!
//! Phase (a) is an open loop: at a fixed tick rate, each of the two
//! connections sends one query, and the two queries of a tick are
//! different patterns, so concurrent same-graph queries meet at the batch
//! gate and share the aux store. Latency counts from the scheduled send.
//! Phase (b) is a closed loop on the same two connections, for the peak
//! rate: each round sends a pair of different patterns, one per
//! connection, and the next round starts when both are answered. Keeping
//! the two clients in step makes every round meet at the batch gate; two
//! free-running clients drift in and out of step, and the peak flips
//! between a batched and an unbatched rate from run to run.

use std::time::{Duration, Instant};

use light::core::{run_query, EngineConfig};
use light::graph::stats::compute_stats;
use light::pattern::Query;
use light::serve::json::Json;

use crate::inputs::{self, lj_count, Input};
use crate::report::{Report, MIXED_CELLS};
use crate::rng::Rng;
use crate::serve::{self, Conn, Session, Timed};
use crate::stats::{iqr, median, percentile, tail_percentile};
use crate::trace::Tracer;
use crate::Args;

const GRAPH: &str = "lj";
const PATTERNS: [Query; 5] = [Query::Triangle, Query::P2, Query::P3, Query::P6, Query::P7];
/// Open-loop ticks per second, two queries per tick. Fixed at about half
/// the closed-loop peak this workload measured when it was defined, so
/// that later changes are compared at the same offered load.
pub const TICK_HZ: f64 = 10.0;
/// Share of a run spent in the open-loop phase; the rest is closed loop.
const OPEN_SHARE: f64 = 0.5;
const SETUP_REPS: usize = 7;
const REPLAY_PER_CELL: usize = 6;

/// The open-loop schedule of one run: per connection, each request's
/// offset from the start and its pattern. Both connections tick together
/// and never send the same pattern in one tick.
pub fn schedule(seed: u64, seconds: f64) -> [Vec<(Duration, Query)>; 2] {
    let mut pairs = Pairs::new(Rng::new(seed, 4));
    let ticks = (seconds * TICK_HZ).floor() as u64;
    let mut out = [Vec::new(), Vec::new()];
    for k in 0..ticks {
        let at = Duration::from_secs_f64(k as f64 / TICK_HZ);
        let [a, b] = pairs.next_pair();
        out[0].push((at, a));
        out[1].push((at, b));
    }
    out
}

/// Ordered pairs of different patterns, one per connection. Every block
/// of 20 consecutive pairs holds each of the 20 ordered pairs once, in a
/// seeded order, so every stretch of a run carries the same mix of work.
struct Pairs {
    rng: Rng,
    block: Vec<[Query; 2]>,
}

impl Pairs {
    fn new(rng: Rng) -> Pairs {
        Pairs {
            rng,
            block: Vec::new(),
        }
    }

    fn next_pair(&mut self) -> [Query; 2] {
        if self.block.is_empty() {
            for a in PATTERNS {
                for b in PATTERNS.into_iter().filter(|&b| b != a) {
                    self.block.push([a, b]);
                }
            }
            for i in (1..self.block.len()).rev() {
                let j = self.rng.below(i as u64 + 1) as usize;
                self.block.swap(i, j);
            }
        }
        self.block.pop().expect("block refilled above")
    }
}

/// Phase (b): rounds of one query per connection, in step, until `until`.
fn lockstep(conns: &mut [Conn], until: Instant, seed: u64) -> Result<Vec<(Query, Timed)>, String> {
    let mut pairs = Pairs::new(Rng::new(seed, 5));
    let mut out = Vec::new();
    while Instant::now() < until {
        let qs = pairs.next_pair();
        let sent = Instant::now();
        for (c, (conn, q)) in conns.iter_mut().zip(qs).enumerate() {
            conn.send(&serve::query_line((out.len() + c) as u64, GRAPH, q))?;
        }
        for (conn, q) in conns.iter_mut().zip(qs) {
            let resp = conn
                .recv(sent + serve::RESPONSE_LIMIT)?
                .ok_or("no response in the closed loop")?;
            let done = Instant::now();
            out.push((
                q,
                Timed {
                    scheduled: sent,
                    sent,
                    done,
                    resp,
                },
            ));
        }
    }
    Ok(out)
}

struct Phases {
    open: Vec<(Query, Timed)>,
    closed: Vec<(Query, Timed)>,
    closed_start: Instant,
    closed_s: f64,
    stats: [serve::SvcStats; 2],
}

pub fn run(args: &Args, rep: &mut Report, tr: &mut Tracer) -> Result<String, String> {
    let path = inputs::ensure(Input::Lj, args.seed)?;
    let (mut session, setup_s) = serve::setup(GRAPH, &path, SETUP_REPS)?;
    let graph = session
        .daemon
        .svc
        .catalog()
        .get(GRAPH)
        .ok_or("lj missing")?
        .graph();
    let fingerprint = inputs::fingerprint(args.seed, &[(Input::Lj, &graph)]);

    // The pinned counts are what a one-shot run_query gives on this graph.
    for q in PATTERNS {
        let one_shot = run_query(&q.pattern(), &graph, &EngineConfig::light()).matches;
        rep.expect(one_shot, lj_count(q), || {
            format!("one-shot run_query {}", q.name())
        });
    }
    // Warm-up: plans cached, aux store filled, lazy set-up done.
    for (c, conn) in session.conns.iter_mut().enumerate() {
        for q in PATTERNS {
            let doc = serve::parse(&conn.call(&serve::query_line(c as u64, GRAPH, q))?)?;
            if let Some(m) = serve::answer(&doc, rep) {
                rep.expect(m, lj_count(q), || format!("warm-up {}", q.name()));
            }
        }
    }

    let seconds = if tr.enabled() {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut off = Tracer::new(false, Instant::now());
    let p = phases(&mut session, args.seed, seconds, rep, &mut off)?;
    let lat: Vec<f64> = p.open.iter().map(|(_, t)| t.latency_ms()).collect();
    let late: Vec<f64> = p.open.iter().map(|(_, t)| t.late_ms()).collect();
    let tail = tail_percentile(lat.len());
    rep.set(
        "setup_s",
        median(&setup_s),
        setup_s.len(),
        "median: catalog load + bind + 2 pings",
    );
    rep.set(
        "latency_p50_ms",
        pattern_p50(&p.open),
        lat.len(),
        format!(
            "open loop at {} qps, from scheduled send: geometric mean of per-pattern medians",
            2.0 * TICK_HZ
        ),
    );
    rep.info(
        "open_p50_ms",
        median(&lat),
        "ms",
        lat.len(),
        &format!("median over all patterns, {}", iqr(&lat)),
    );
    rep.info(
        "latency_tail_ms",
        percentile(&lat, tail),
        "ms",
        lat.len(),
        &format!("p{tail} of the open loop"),
    );
    // One chunk is one block of 20 rounds, so every chunk does the same
    // work; the median chunk rate ignores a stall of a few seconds.
    let mut rates = Vec::new();
    let mut prev = p.closed_start;
    for chunk in p.closed.chunks_exact(40) {
        let end = chunk.iter().map(|(_, t)| t.done).max().expect("40 answers");
        rates.push(40.0 / (end - prev).as_secs_f64());
        prev = end;
    }
    rep.set(
        "throughput_per_s",
        median(&rates),
        rates.len(),
        "closed loop, 2 connections: median rate over blocks of 20 rounds",
    );
    rep.info(
        "closed_mean_qps",
        p.closed.len() as f64 / p.closed_s,
        "1/s",
        p.closed.len(),
        "answers / closed-loop seconds",
    );
    rep.set("peak_rss_mb", inputs::peak_rss_mib(), 1, "VmHWM");
    let batched = |v: &[(Query, Timed)]| {
        let n = v
            .iter()
            .filter(|(_, t)| t.resp.contains("\"batch\":"))
            .count();
        n as f64 / v.len().max(1) as f64
    };
    rep.info(
        "open_batch_frac",
        batched(&p.open),
        "fraction",
        p.open.len(),
        "open-loop answers run in a batch",
    );
    rep.info(
        "closed_batch_frac",
        batched(&p.closed),
        "fraction",
        p.closed.len(),
        "closed-loop answers run in a batch",
    );
    let late_p99 = percentile(&late, 99.0);
    rep.set(
        "load.late_ms",
        late_p99,
        late.len(),
        "p99 generator lateness",
    );
    let period_ms = 1e3 / TICK_HZ;
    if late_p99 > period_ms / 2.0 {
        return Err(format!(
            "invalid run: the open-loop generator fell behind (p99 late {late_p99:.1} ms, tick {period_ms:.1} ms)"
        ));
    }
    if !tr.enabled() {
        return Ok(fingerprint);
    }

    let traced = phases(&mut session, args.seed, seconds, rep, tr)?;
    rep.set(
        "trace.overhead_frac",
        pattern_p50(&traced.open) / pattern_p50(&p.open) - 1.0,
        traced.open.len(),
        "traced vs untraced open-loop p50",
    );
    let fields: Vec<(Timed, Json)> = p
        .open
        .iter()
        .map(|(_, t)| Ok((t.clone(), serve::parse(&t.resp)?)))
        .collect::<Result<_, String>>()?;
    serve::report_response_fields(rep, &fields);
    serve::report_cache_rates(rep, p.stats[0], p.stats[1]);

    let cells: Vec<(&str, Query)> = MIXED_CELLS.iter().copied().zip(PATTERNS).collect();
    serve::depth_replay(
        &mut session,
        GRAPH,
        &cells,
        REPLAY_PER_CELL,
        lj_count,
        tr,
        rep,
    )?;

    inputs::open_timed(&path, SETUP_REPS, tr, rep)?;
    let t = Instant::now();
    compute_stats(&graph);
    let end = Instant::now();
    tr.record("graph.compute_stats", None, 0, t, end);
    rep.set(
        "graph.stats_ms",
        (end - t).as_secs_f64() * 1e3,
        1,
        "compute_stats of the catalog graph",
    );
    Ok(fingerprint)
}

/// The open loop's latency: each pattern's median, combined by geometric
/// mean. One median over all answers is unstable here: pairs holding P6
/// take about half again as long as the rest, the latencies form two
/// modes, and the overall median sits near the edge of the lower one.
fn pattern_p50(open: &[(Query, Timed)]) -> f64 {
    let logs: f64 = PATTERNS
        .iter()
        .map(|q| {
            let lat: Vec<f64> = open
                .iter()
                .filter(|(p, _)| p == q)
                .map(|(_, t)| t.latency_ms())
                .collect();
            median(&lat).ln()
        })
        .sum();
    (logs / PATTERNS.len() as f64).exp()
}

/// Phase (a) then phase (b), checking every answer. Spans, when the
/// tracer is on, come from the client-side timestamps.
fn phases(
    session: &mut Session,
    seed: u64,
    seconds: f64,
    rep: &mut Report,
    tr: &mut Tracer,
) -> Result<Phases, String> {
    let svc = std::sync::Arc::clone(&session.daemon.svc);
    let plan = schedule(seed, seconds * OPEN_SHARE);
    let s0 = serve::svc_stats(&svc)?;
    let t0 = Instant::now() + Duration::from_millis(20);
    let (c0, c1) = session.conns.split_at_mut(1);
    let open: Vec<Vec<(Query, Timed)>> = std::thread::scope(|s| {
        let handles: Vec<_> = [&mut c0[0], &mut c1[0]]
            .into_iter()
            .zip(&plan)
            .enumerate()
            .map(|(c, (conn, items))| {
                s.spawn(move || {
                    let lines: Vec<(Duration, String)> = items
                        .iter()
                        .enumerate()
                        .map(|(k, &(at, q))| (at, serve::query_line((2 * k + c) as u64, GRAPH, q)))
                        .collect();
                    let timed = serve::open_loop(conn, t0, &lines)?;
                    Ok(items.iter().map(|&(_, q)| q).zip(timed).collect())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "client thread panicked".to_string())?)
            .collect::<Result<_, String>>()
    })?;

    let until = Instant::now() + Duration::from_secs_f64(seconds * (1.0 - OPEN_SHARE));
    let start = Instant::now();
    let closed = lockstep(&mut session.conns, until, seed)?;
    let closed_s = start.elapsed().as_secs_f64();
    let s2 = serve::svc_stats(&svc)?;

    let open: Vec<(Query, Timed)> = open.into_iter().flatten().collect();
    for (k, (q, t)) in open.iter().chain(&closed).enumerate() {
        let doc = serve::parse(&t.resp)?;
        if let Some(m) = serve::answer(&doc, rep) {
            rep.expect(m, lj_count(*q), || format!("serve answer {}", q.name()));
        }
        tr.record(
            &format!("client.socket:{}", q.name()),
            None,
            k as u64,
            t.scheduled,
            t.done,
        );
    }
    Ok(Phases {
        open,
        closed,
        closed_start: start,
        closed_s,
        stats: [s0, s2],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_ticks_evenly_with_distinct_patterns() {
        let [a, b] = schedule(7, 2.0);
        assert_eq!(a.len(), (2.0 * TICK_HZ) as usize);
        assert_eq!(a.len(), b.len());
        for (k, ((ta, qa), (tb, qb))) in a.iter().zip(&b).enumerate() {
            assert_eq!(ta, tb);
            assert_ne!(qa, qb, "tick {k} sends one pattern twice");
            let want = k as f64 / TICK_HZ;
            assert!((ta.as_secs_f64() - want).abs() < 1e-9);
        }
        // Each block of 20 ticks sends every ordered pair once, and the
        // schedule is a function of the seed.
        for block in 0..a.len() / 20 {
            let mut seen: Vec<(Query, Query)> = (20 * block..20 * block + 20)
                .map(|k| (a[k].1, b[k].1))
                .collect();
            seen.sort_by_key(|&(x, y)| (x.name(), y.name()));
            seen.dedup();
            assert_eq!(seen.len(), 20);
        }
        assert_eq!(schedule(7, 2.0), [a, b]);
        assert_ne!(schedule(8, 2.0)[0], schedule(7, 2.0)[0]);
    }
}
