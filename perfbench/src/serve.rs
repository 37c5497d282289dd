//! Serve-tier plumbing shared by `serve_mixed` and `serve_churn`: the
//! in-process daemon (`QueryService` behind a `ReactorServer` on a Unix
//! socket, shipped defaults), NDJSON clients, open- and closed-loop
//! drivers, and the traced depth replay.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use light::core::{engine::run_plan, CountVisitor, EnumStats};
use light::pattern::Query;
use light::serve::json::Json;
use light::serve::{drain, GraphCatalog, QueryService, ReactorServer, ServeConfig};

use crate::inputs::CACHE;
use crate::report::Report;
use crate::stats::median;
use crate::trace::Tracer;

/// Longest a client waits for any one response before failing the run.
pub const RESPONSE_LIMIT: Duration = Duration::from_secs(60);

/// The daemon under test, in this process.
pub struct Daemon {
    /// The service the socket transport dispatches to.
    pub svc: Arc<QueryService>,
    server: Option<ReactorServer>,
}

impl Daemon {
    /// Load `snapshot` as catalog entry `name` and serve it on `sock`.
    /// Everything but the socket path is `ServeConfig::default()`.
    pub fn start(name: &str, snapshot: &Path, sock: &Path) -> Result<Daemon, String> {
        let mut catalog = GraphCatalog::new();
        catalog.load_entry(name, &snapshot.to_string_lossy())?;
        let svc = Arc::new(QueryService::new(catalog, ServeConfig::default()));
        let server = ReactorServer::bind(Arc::clone(&svc), sock)
            .map_err(|e| format!("binding {}: {e}", sock.display()))?;
        Ok(Daemon {
            svc,
            server: Some(server),
        })
    }

    /// Drain and join the transport (idempotent).
    pub fn stop(&mut self) {
        if let Some(server) = self.server.take() {
            self.svc.handle_line(r#"{"op":"shutdown"}"#);
            server.wake();
            drain(&self.svc);
            if let Err(e) = server.join() {
                eprintln!("perfbench: serve transport: {e}");
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop();
    }
}

/// A running daemon and the benchmark's two client connections. The
/// connections are declared first so they close before the daemon drains.
pub struct Session {
    /// Connection 0 and connection 1.
    pub conns: Vec<Conn>,
    /// The daemon.
    pub daemon: Daemon,
}

/// Start the daemon `reps` times, each until both connections have had a
/// `ping` answered. Returns the last session and every set-up time in
/// seconds.
pub fn setup(name: &str, snapshot: &Path, reps: usize) -> Result<(Session, Vec<f64>), String> {
    std::fs::create_dir_all(CACHE).map_err(|e| format!("{CACHE}: {e}"))?;
    let mut times = Vec::new();
    let mut session = None;
    for r in 0..reps {
        drop(session.take());
        // Relative, so it fits sun_path wherever the checkout lives.
        let sock = PathBuf::from(CACHE).join(format!("s{}-{r}.sock", std::process::id()));
        let t = Instant::now();
        let daemon = Daemon::start(name, snapshot, &sock)?;
        let mut conns = vec![Conn::connect(&sock)?, Conn::connect(&sock)?];
        for c in &mut conns {
            let pong = c.call(r#"{"op":"ping"}"#)?;
            if !pong.contains("\"pong\":true") {
                return Err(format!("ping answered {pong}"));
            }
        }
        times.push(t.elapsed().as_secs_f64());
        session = Some(Session { conns, daemon });
    }
    Ok((session.ok_or("no set-up repetitions")?, times))
}

/// An NDJSON client connection.
pub struct Conn {
    stream: UnixStream,
    buf: Vec<u8>,
}

impl Conn {
    /// Connect to the daemon's socket.
    pub fn connect(sock: &Path) -> Result<Conn, String> {
        let stream =
            UnixStream::connect(sock).map_err(|e| format!("connect {}: {e}", sock.display()))?;
        Ok(Conn {
            stream,
            buf: Vec::new(),
        })
    }

    /// Send one request line.
    pub fn send(&mut self, line: &str) -> Result<(), String> {
        self.stream
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))
    }

    /// The next response line, or `None` if none arrives by `until`.
    pub fn recv(&mut self, until: Instant) -> Result<Option<String>, String> {
        loop {
            if let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = self.buf.drain(..=pos).collect();
                return Ok(Some(String::from_utf8_lossy(&line[..pos]).into_owned()));
            }
            let now = Instant::now();
            if now >= until {
                return Ok(None);
            }
            self.stream
                .set_read_timeout(Some(until - now))
                .map_err(|e| format!("set_read_timeout: {e}"))?;
            let mut chunk = [0u8; 8192];
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err("daemon closed the connection".into()),
                Ok(k) => self.buf.extend_from_slice(&chunk[..k]),
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                    ) => {}
                Err(e) => return Err(format!("recv: {e}")),
            }
        }
    }

    /// Send a request and wait for its response.
    pub fn call(&mut self, line: &str) -> Result<String, String> {
        self.send(line)?;
        self.recv(Instant::now() + RESPONSE_LIMIT)?
            .ok_or_else(|| format!("no response within {RESPONSE_LIMIT:?} to {line}"))
    }
}

/// One request as the client saw it.
#[derive(Debug, Clone)]
pub struct Timed {
    /// When the request was due (open loop) or sent (closed loop).
    pub scheduled: Instant,
    /// When it was actually written.
    pub sent: Instant,
    /// When its response arrived.
    pub done: Instant,
    /// The response line.
    pub resp: String,
}

impl Timed {
    /// Latency from the scheduled send, milliseconds.
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.scheduled).as_secs_f64() * 1e3
    }

    /// How late the generator sent the request, milliseconds.
    pub fn late_ms(&self) -> f64 {
        (self.sent - self.scheduled).as_secs_f64() * 1e3
    }
}

/// Open loop on one connection: send each line at `t0 + offset` whatever
/// the responses are doing, reading responses in between.
pub fn open_loop(
    conn: &mut Conn,
    t0: Instant,
    items: &[(Duration, String)],
) -> Result<Vec<Timed>, String> {
    let mut pending: VecDeque<(Instant, Instant)> = VecDeque::new();
    let mut out = Vec::with_capacity(items.len());
    let mut take = |resp: String, pending: &mut VecDeque<(Instant, Instant)>| {
        let done = Instant::now();
        let (scheduled, sent) = pending
            .pop_front()
            .ok_or_else(|| format!("response without a request: {resp}"))?;
        out.push(Timed {
            scheduled,
            sent,
            done,
            resp,
        });
        Ok::<(), String>(())
    };
    for (offset, line) in items {
        let due = t0 + *offset;
        while Instant::now() < due {
            if let Some(resp) = conn.recv(due)? {
                take(resp, &mut pending)?;
            }
        }
        let sent = Instant::now();
        conn.send(line)?;
        pending.push_back((due, sent));
    }
    while !pending.is_empty() {
        match conn.recv(Instant::now() + RESPONSE_LIMIT)? {
            Some(resp) => take(resp, &mut pending)?,
            None => return Err(format!("no response within {RESPONSE_LIMIT:?}")),
        }
    }
    Ok(out)
}

/// Closed loop on one connection until `until`: the next request goes out
/// when the previous response is in.
pub fn closed_loop(
    conn: &mut Conn,
    until: Instant,
    mut line: impl FnMut(usize) -> String,
) -> Result<Vec<Timed>, String> {
    let mut out = Vec::new();
    while Instant::now() < until {
        let l = line(out.len());
        let sent = Instant::now();
        let resp = conn.call(&l)?;
        out.push(Timed {
            scheduled: sent,
            sent,
            done: Instant::now(),
            resp,
        });
    }
    Ok(out)
}

/// A query request line.
pub fn query_line(id: u64, graph: &str, q: Query) -> String {
    format!(
        "{{\"op\":\"query\",\"id\":{id},\"graph\":\"{graph}\",\"pattern\":\"{}\"}}",
        q.name()
    )
}

/// Parse a response line.
pub fn parse(resp: &str) -> Result<Json, String> {
    Json::parse(resp).map_err(|e| format!("unparsable response {resp}: {e:?}"))
}

/// Numeric field `path` (dot-separated) of a document, 0 when absent.
pub fn num(doc: &Json, path: &str) -> f64 {
    path.split('.')
        .try_fold(doc, |d, k| d.get(k))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

/// Count one query answer: `Some(matches)` when it completed, otherwise
/// it counts as failed.
pub fn answer(doc: &Json, rep: &mut Report) -> Option<u64> {
    rep.attempted += 1;
    if doc.get("status").and_then(Json::as_str) == Some("ok") {
        doc.get("matches").and_then(Json::as_u64)
    } else {
        rep.failed += 1;
        None
    }
}

/// Service counters the per-layer metrics are differences of.
#[derive(Debug, Clone, Copy, Default)]
pub struct SvcStats {
    plan_hits: f64,
    plan_misses: f64,
    aux_hits: f64,
    aux_misses: f64,
    aux_stores: f64,
    queries: f64,
}

/// Read the service's `stats` op.
pub fn svc_stats(svc: &QueryService) -> Result<SvcStats, String> {
    let doc = parse(&svc.handle_line(r#"{"op":"stats"}"#))?;
    Ok(SvcStats {
        plan_hits: num(&doc, "plan_cache.hits"),
        plan_misses: num(&doc, "plan_cache.misses"),
        aux_hits: num(&doc, "multiquery.shared_aux.hits"),
        aux_misses: num(&doc, "multiquery.shared_aux.misses"),
        aux_stores: num(&doc, "multiquery.shared_aux.stores"),
        queries: num(&doc, "queries.total"),
    })
}

/// Per-layer metrics read from the service counters between two points.
pub fn report_cache_rates(rep: &mut Report, a: SvcStats, b: SvcStats) {
    let q = b.queries - a.queries;
    let plans = (b.plan_hits - a.plan_hits) + (b.plan_misses - a.plan_misses);
    let aux = (b.aux_hits - a.aux_hits) + (b.aux_misses - a.aux_misses);
    rep.set(
        "serve.plan_hit_rate",
        (b.plan_hits - a.plan_hits) / plans.max(1.0),
        plans as usize,
        "stats.plan_cache, timed phase",
    );
    rep.set(
        "serve.shared_aux_hit_rate",
        (b.aux_hits - a.aux_hits) / aux.max(1.0),
        aux as usize,
        "stats.multiquery.shared_aux",
    );
    rep.set(
        "serve.shared_aux_stores_per_query",
        (b.aux_stores - a.aux_stores) / q.max(1.0),
        q as usize,
        "stats.multiquery.shared_aux",
    );
}

/// Per-layer metrics read from query response fields.
pub fn report_response_fields(rep: &mut Report, queries: &[(Timed, Json)]) {
    let queue: Vec<f64> = queries.iter().map(|(_, d)| num(d, "queue_ms")).collect();
    let outside: Vec<f64> = queries
        .iter()
        .map(|(t, d)| t.latency_ms() - num(d, "elapsed_ms") - num(d, "queue_ms"))
        .collect();
    let batches: Vec<f64> = queries
        .iter()
        .filter_map(|(_, d)| d.get("batch").and_then(Json::as_f64))
        .collect();
    let n = queries.len();
    rep.set(
        "serve.queue_ms",
        median(&queue),
        n,
        "median response queue_ms",
    );
    rep.set(
        "serve.outside_ms",
        median(&outside),
        n,
        "median client - elapsed_ms - queue_ms",
    );
    rep.set(
        "serve.batch_frac",
        batches.len() as f64 / n.max(1) as f64,
        n,
        "share of answers run in a batch",
    );
    rep.set(
        "serve.batch_mean",
        batches.iter().sum::<f64>() / batches.len().max(1) as f64,
        batches.len(),
        "mean batch size of batched answers",
    );
}

/// The traced depth replay. Each request runs three times, at
/// successively deeper entry points, with one request id: (1) over the
/// socket, (2) through `QueryService::handle_line`, (3) as
/// `EngineConfig::plan` plus serial `run_plan` on `CatalogEntry::view()`.
/// The differences between adjacent depths are the layers' self times.
/// Every depth's answer must equal `expect(query)`.
pub fn depth_replay(
    session: &mut Session,
    graph: &str,
    cells: &[(&str, Query)],
    per_cell: usize,
    expect: impl Fn(Query) -> u64,
    tr: &mut Tracer,
    rep: &mut Report,
) -> Result<(), String> {
    let svc = Arc::clone(&session.daemon.svc);
    let entry = svc
        .catalog()
        .get(graph)
        .ok_or("graph missing from the catalog")?;
    let cfg = svc.config().engine.clone();
    let (mut transport, mut handle_self) = (Vec::new(), Vec::new());
    let mut last: Vec<Option<EnumStats>> = vec![None; cells.len()];
    for k in 0..per_cell * cells.len() {
        let (ci, (cell, q)) = (k % cells.len(), cells[k % cells.len()]);
        let req = 1_000_000 + k as u64;
        let line = query_line(req, graph, q);
        let want = expect(q);

        let t = Instant::now();
        let d1 = parse(&session.conns[0].call(&line)?)?;
        let d1_end = Instant::now();
        tr.record(&format!("depth1.socket:{cell}"), None, req, t, d1_end);

        let t2 = Instant::now();
        let d2 = parse(&svc.handle_line(&line))?;
        let d2_end = Instant::now();
        tr.record(&format!("depth2.handle_line:{cell}"), None, req, t2, d2_end);

        let (g, _generation) = entry.view();
        let pattern = q.pattern();
        let t3 = Instant::now();
        let plan = cfg.plan(&pattern, &g);
        let t4 = Instant::now();
        let r = run_plan(&plan, &g, &cfg, &mut CountVisitor::default());
        let t5 = Instant::now();
        tr.record(&format!("depth3.plan:{cell}"), None, req, t3, t4);
        tr.record(&format!("depth3.run_plan:{cell}"), None, req, t4, t5);

        for (depth, doc) in [(1, &d1), (2, &d2)] {
            if let Some(m) = answer(doc, rep) {
                rep.expect(m, want, || format!("{cell} at depth {depth}"));
            }
        }
        rep.attempted += 1;
        rep.expect(r.matches, want, || format!("{cell} at depth 3"));
        transport.push(((d1_end - t).as_secs_f64() - (d2_end - t2).as_secs_f64()) * 1e3);
        handle_self.push(((d2_end - t2).as_secs_f64() - (t5 - t4).as_secs_f64()) * 1e3);
        last[ci] = Some(r.stats);
    }
    rep.set(
        "serve.transport_ms",
        median(&transport),
        transport.len(),
        "socket - handle_line, same request",
    );
    rep.set(
        "serve.handle_self_ms",
        median(&handle_self),
        handle_self.len(),
        "handle_line - run_plan, same request",
    );
    for ((cell, _), stats) in cells.iter().zip(last) {
        let plan = tr.durations_ms(&format!("depth3.plan:{cell}"));
        let en = tr.durations_ms(&format!("depth3.run_plan:{cell}"));
        rep.set(
            &format!("order.plan_ms.{cell}"),
            median(&plan),
            plan.len(),
            "EngineConfig::plan on view()",
        );
        rep.set(
            &format!("core.enum_ms.{cell}"),
            median(&en),
            en.len(),
            "serial run_plan on view()",
        );
        if let Some(s) = stats {
            rep.set(
                &format!("core.bindings.{cell}"),
                s.bindings as f64,
                1,
                "Report.stats",
            );
            rep.set(
                &format!("core.intersections.{cell}"),
                s.intersect.total as f64,
                1,
                "Report.stats",
            );
            rep.set(
                &format!("core.peak_candidate_bytes.{cell}"),
                s.peak_candidate_bytes as f64,
                1,
                "Report.stats",
            );
        }
    }
    Ok(())
}
