//! The traced pass: each workload's request stream replayed in-process,
//! sequentially, with a span around every call into a layer's public
//! functions and the `ndg_obs` work counters read at the same
//! boundaries. Spans stay in memory until the run ends.
//!
//! Passes, in order (the registry is off for the first two):
//! 1. untraced: `Router::handle_line` over the stream — the base of
//!    `obs.trace_overhead_ratio` and `exec.batch_speedup`;
//! 2. batched: the same lines through `Router::handle_batch`;
//! 3. traced router: one span (and counter delta) per `handle_line`;
//! 4. layers: the router's pipeline re-run from the benchmark through the
//!    layers' own functions (`Request::parse`, `CanonMemo::lookup`,
//!    `Cache::get_tagged`, `WireGame::build`, the engines,
//!    `unapply_payload`), one span each. Its answers must equal the
//!    references too.
//!
//! `delta_sessions` replaces 4 with an A/B of the session config
//! (`audit_every=0`) and a cold re-solve of every `session_cold_line`.

use crate::drive::{server_router, SessionClient, Step, Tally};
use crate::stats::{mean, percentile, Pct};
use crate::workload::{Op, Scale, Sessions, Stateless, CONNS};
use ndg_core::{NetworkDesignGame, State};
use ndg_exec::{Budget, Executor};
use ndg_graph::RootedTree;
use ndg_serve::canon::CanonMemo;
use ndg_serve::codec::{fnv1a64, DEFAULT_CAP, DEFAULT_LIMIT, DEFAULT_ROUNDS};
use ndg_serve::router::DEFAULT_CACHE_CAPACITY;
use ndg_serve::{payload_of, unapply_payload, Cache, Method, Request, Router, SessionConfig};
use ndg_serve::{Solver, WireOrder};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Counter name → value.
pub type Counts = BTreeMap<String, u64>;

/// Every `ndg_obs` counter and gauge now. Histogram fields are dropped:
/// their sums are wall time, not work.
pub fn counters() -> Counts {
    let mut all: Counts = ndg_obs::expose()
        .split(';')
        .filter_map(|f| f.split_once('='))
        .filter_map(|(k, v)| Some((k.to_string(), v.parse().ok()?)))
        .collect();
    all.remove("enabled");
    let hists: Vec<String> = all
        .keys()
        .filter_map(|k| k.strip_suffix("_p50"))
        .filter(|h| all.contains_key(&format!("{h}_sum")))
        .map(str::to_string)
        .collect();
    for h in hists {
        for suffix in [
            "_count", "_sum", "_mean", "_min", "_p50", "_p90", "_p99", "_max",
        ] {
            all.remove(&format!("{h}{suffix}"));
        }
    }
    all
}

/// One traced call: which layer function, for which request of the
/// stream, when, how long, and the counters it moved.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub req: usize,
    pub start_us: f64,
    pub dur_us: f64,
    pub work: Vec<(String, u64)>,
}

pub struct Tracer {
    t0: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Run `f` as span `name` of request `req`. The counter reads sit
    /// outside the timed interval.
    fn span<R>(&mut self, name: &'static str, req: usize, f: impl FnOnce() -> R) -> R {
        let before = counters();
        let start = Instant::now();
        let out = black_box(f());
        let dur = start.elapsed();
        let work = counters()
            .into_iter()
            .filter_map(|(k, v)| {
                let d = v.saturating_sub(before.get(&k).copied().unwrap_or(0));
                (d > 0).then_some((k, d))
            })
            .collect();
        self.spans.push(Span {
            name,
            req,
            start_us: (start - self.t0).as_secs_f64() * 1e6,
            dur_us: dur.as_secs_f64() * 1e6,
            work,
        });
        out
    }

    fn durs(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_us)
            .collect()
    }

    fn total(&self, name: &str) -> f64 {
        self.durs(name).iter().fold(0.0, |a, d| a + d)
    }

    /// Σ of each counter over the spans named `name`, and their number.
    fn work(&self, names: &[&str]) -> (Counts, usize) {
        let mut sum = Counts::new();
        let mut n = 0;
        for s in self.spans.iter().filter(|s| names.contains(&s.name)) {
            n += 1;
            for (k, v) in &s.work {
                *sum.entry(k.clone()).or_default() += v;
            }
        }
        (sum, n)
    }

    /// The spans as JSON lines.
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let work: Vec<String> = s.work.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"req\":{},\"start_us\":{:.3},\"dur_us\":{:.3},\"work\":{{{}}}}}\n",
                s.name,
                s.req,
                s.start_us,
                s.dur_us,
                work.join(",")
            ));
        }
        out
    }
}

/// Optional span recording: warm-up goes through the same code untraced.
struct Rec<'a> {
    tr: Option<&'a mut Tracer>,
    req: usize,
}

impl Rec<'_> {
    fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        match &mut self.tr {
            Some(tr) => tr.span(name, self.req, f),
            None => f(),
        }
    }
}

/// What the traced pass hands back.
pub struct Traced {
    pub tracer: Tracer,
    /// Per-layer metrics measured here (`server.*` and `cache.*` come
    /// from the end-to-end pass).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Latency percentiles behind the metrics, for the report.
    pub pcts: BTreeMap<&'static str, Pct>,
    /// Answers of every replay, checked against the references.
    pub tally: Tally,
}

/// Counter totals → the `*_per_req` metrics.
fn per_req(m: &mut BTreeMap<&'static str, f64>, work: &Counts, n: usize) {
    const PER_REQ: [(&str, &str); 16] = [
        ("exec.fanouts_per_req", "exec_fanouts_total"),
        ("exec.items_per_req", "exec_items_total"),
        ("exec.sequential_runs_per_req", "exec_sequential_runs_total"),
        ("graph.dijkstra_runs_per_req", "dijkstra_runs_total"),
        ("graph.dijkstra_relax_per_req", "dijkstra_relaxations_total"),
        ("graph.astar_runs_per_req", "astar_runs_total"),
        ("graph.astar_relax_per_req", "astar_relaxations_total"),
        ("lp.cut_solves_per_req", "lp_cut_solves_total"),
        ("lp.cut_rounds_per_req", "lp_cut_rounds_total"),
        ("lp.cuts_added_per_req", "lp_cuts_added_total"),
        ("core.recert_fresh_per_req", "recert_fresh_total"),
        ("core.recert_stale_per_req", "recert_stale_total"),
        ("core.dyn_maintained_per_req", "dyn_maintained_total"),
        (
            "core.dyn_scratch_fallback_per_req",
            "dyn_scratch_fallback_total",
        ),
        ("core.enum_trees_per_req", "enum_trees_visited_total"),
        ("core.enum_orbit_reps_per_req", "enum_orbit_reps_total"),
    ];
    for (metric, counter) in PER_REQ {
        let v = work.get(counter).copied().unwrap_or(0);
        m.insert(metric, ratio(v as f64, n as f64));
    }
    let hits = work.get("canon_memo_hits_total").copied().unwrap_or(0) as f64;
    let misses = work.get("canon_memo_misses_total").copied().unwrap_or(0) as f64;
    m.insert("canon.memo_hit_rate", ratio(hits, hits + misses));
}

/// `a / b`, 0 when nothing was measured.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Engine span names, by what the router dispatches to.
const ENGINES: [&str; 9] = [
    "sne.lp1",
    "sne.lp2",
    "sne.lp3",
    "sne.t6",
    "sne.weighted",
    "core.dynamics",
    "core.certify",
    "snd.pos",
    "aon.exact",
];

/// Call the engine the router would dispatch `req` to (the whole solve,
/// before payload formatting). Certify times the Lemma 2 sweep.
fn run_engine(
    rec: &mut Rec<'_>,
    req: &Request,
    game: &NetworkDesignGame,
    demands: Option<&ndg_core::Demands>,
    ex: &Executor,
) -> Result<(), String> {
    let unlimited = Budget::unlimited();
    let tree = req.tree.clone().unwrap_or_default();
    let state = || {
        State::from_tree(game, &tree)
            .map(|(s, _)| s)
            .map_err(|e| e.to_string())
    };
    let done = |ok: bool| {
        if ok {
            Ok(())
        } else {
            Err(format!("engine failed on {}", req.serialize()))
        }
    };
    match req.method {
        Method::Enforce => {
            let st = state()?;
            let ok = match (demands, req.solver.unwrap_or(Solver::Lp1)) {
                (Some(d), _) => rec.span("sne.weighted", || {
                    ndg_sne::lp_weighted::enforce_state_weighted_budgeted(
                        game, &st, d, ex, &unlimited,
                    )
                    .is_ok()
                }),
                (None, Solver::Lp1) => rec.span("sne.lp1", || {
                    ndg_sne::lp_general::enforce_state_cutting_budgeted(game, &st, ex, &unlimited)
                        .is_ok()
                }),
                (None, Solver::Lp2) => rec.span("sne.lp2", || {
                    ndg_sne::lp_poly::enforce_state_poly(game, &st).is_ok()
                }),
                (None, Solver::Lp3) => rec.span("sne.lp3", || {
                    ndg_sne::lp_broadcast::enforce_tree_lp_with(game, &tree, ex).is_ok()
                }),
                (None, Solver::T6) => {
                    rec.span("sne.t6", || ndg_sne::theorem6::enforce(game, &tree).is_ok())
                }
            };
            done(ok)
        }
        Method::Dynamics => {
            let init = req.initial_state(game).map_err(|e| e.to_string())?;
            let b = req.subsidy_for(game).map_err(|e| e.to_string())?;
            let order = req.order.unwrap_or(WireOrder::RoundRobin).to_move_order();
            let rounds = req.rounds.unwrap_or(DEFAULT_ROUNDS);
            let ok = rec.span("core.dynamics", || {
                ndg_core::best_response_dynamics_budgeted(game, init, &b, order, rounds, &unlimited)
                    .is_ok()
            });
            done(ok)
        }
        Method::Certify => {
            let root = game.root().ok_or("certify needs a broadcast game")?;
            let rt = RootedTree::new(game.graph(), &tree, root).map_err(|e| format!("{e:?}"))?;
            let b = req.subsidy_for(game).map_err(|e| e.to_string())?;
            rec.span("core.certify", || {
                black_box(ndg_core::lemma2_violation_eps_with(
                    game,
                    &rt,
                    &b,
                    ndg_core::EPS,
                    ex,
                ));
            });
            Ok(())
        }
        Method::Pos => {
            let cap = req.cap.unwrap_or(DEFAULT_CAP);
            let ok = rec.span("snd.pos", || {
                ndg_snd::pos::exact_pos_budgeted(game, cap, &unlimited).is_ok()
            });
            done(ok)
        }
        Method::Aon => {
            let limit = req.limit.unwrap_or(DEFAULT_LIMIT);
            let ok = rec.span("aon.exact", || {
                ndg_aon::exact::min_aon_subsidy(game, &tree, limit).is_ok()
            });
            done(ok)
        }
        m => Err(format!("no engine for method {}", m.as_str())),
    }
}

/// The router's stateless pipeline, rebuilt from its layers.
struct Layers {
    memo: CanonMemo,
    cache: Cache,
    /// Supplies canonical-space payloads for cache inserts: a canon-off,
    /// cache-off router answers the canonical request literally.
    solver: Router,
    ex: Executor,
}

impl Layers {
    fn new() -> Layers {
        Layers {
            // The router sizes its canonicalization memo like its cache.
            memo: CanonMemo::new(DEFAULT_CACHE_CAPACITY),
            cache: Cache::new(DEFAULT_CACHE_CAPACITY),
            solver: Router::with_canon(Executor::sequential(), 0, false),
            ex: Executor::from_env(),
        }
    }

    /// Answer `line` layer by layer; returns `payload_of` the answer.
    fn answer(&self, line: &str, rec: &mut Rec<'_>) -> Result<String, String> {
        let req = rec
            .span("codec.parse", || Request::parse(line))
            .map_err(|e| e.to_string())?;
        rec.span("codec.key", || fnv1a64(req.canonical_body().as_bytes()));
        let outcome = rec.span("canon.lookup", || self.memo.lookup(&req));
        let (solve_req, map, body) = match &outcome.canon {
            Some((c, body)) => (&c.req, Some(&c.map), body.as_str()),
            None => (&req, None, outcome.literal_body.as_str()),
        };
        let key = fnv1a64(body.as_bytes());
        let iso = map.is_some() && body != outcome.literal_body;
        let payload = match rec.span("cache.probe", || self.cache.get_tagged(key, body, || iso)) {
            Some((p, false)) => p,
            Some((p, true)) => return Err(format!("cached error {p}")),
            None => {
                let game = solve_req.game.as_ref().ok_or("request has no game")?;
                let (game, demands) = rec
                    .span("codec.build", || game.build())
                    .map_err(|e| e.to_string())?;
                run_engine(rec, solve_req, &game, demands.as_ref(), &self.ex)?;
                let full = payload_of(&self.solver.handle_line(&solve_req.serialize()));
                let p = full.strip_prefix("ok;").unwrap_or(&full).to_string();
                self.cache.insert(key, body.to_string(), p.clone());
                p
            }
        };
        let mapped = match map {
            Some(m) => rec.span("canon.unapply", || unapply_payload(req.method, m, &payload)),
            None => payload,
        };
        Ok(format!("ok;{mapped}"))
    }
}

fn layer_means(t: &Tracer, m: &mut BTreeMap<&'static str, f64>) {
    const MEANS: [(&str, &str); 15] = [
        ("codec.parse_us_mean", "codec.parse"),
        ("codec.key_us_mean", "codec.key"),
        ("codec.build_us_mean", "codec.build"),
        ("canon.lookup_us_mean", "canon.lookup"),
        ("canon.unapply_us_mean", "canon.unapply"),
        ("cache.probe_us_mean", "cache.probe"),
        ("sne.lp1_us_mean", "sne.lp1"),
        ("sne.lp2_us_mean", "sne.lp2"),
        ("sne.lp3_us_mean", "sne.lp3"),
        ("sne.t6_us_mean", "sne.t6"),
        ("sne.weighted_us_mean", "sne.weighted"),
        ("core.dynamics_us_mean", "core.dynamics"),
        ("core.certify_us_mean", "core.certify"),
        ("snd.pos_us_mean", "snd.pos"),
        ("aon.exact_us_mean", "aon.exact"),
    ];
    for (metric, span) in MEANS {
        m.insert(metric, mean(&t.durs(span)));
    }
    // Shares of the time the layer spans cover.
    let sum = |names: &[&str]| names.iter().fold(0.0, |a, n| a + t.total(n));
    let codec = sum(&["codec.parse", "codec.key", "codec.build"]);
    let canon = sum(&["canon.lookup", "canon.unapply"]);
    let cache = sum(&["cache.probe"]);
    let engines = sum(&ENGINES);
    let all = codec + canon + cache + engines;
    m.insert("codec.time_share", ratio(codec, all));
    m.insert("canon.time_share", ratio(canon, all));
    m.insert("cache.time_share", ratio(cache, all));
    m.insert("engines.time_share", ratio(engines, all));
}

/// Router-level latency metrics from `handle_line` spans named `names`.
fn router_latency(names: &[&str], out: &mut Traced) {
    let mut d: Vec<f64> = names.iter().flat_map(|n| out.tracer.durs(n)).collect();
    let p50 = percentile(&mut d, 0.5);
    let p99 = percentile(&mut d, 0.99);
    out.metrics.insert("router.handle_us_p50", p50.value);
    out.metrics.insert("router.handle_us_p99", p99.value);
    out.pcts.insert("router.handle_us_p50", p50);
    out.pcts.insert("router.handle_us_p99", p99);
}

fn batch_metrics(out: &mut Traced, batch_us: &mut [f64], line_wall: f64, batch_wall: f64) {
    let p = percentile(batch_us, 0.5);
    out.metrics.insert("router.batch_us_p50", p.value);
    out.pcts.insert("router.batch_us_p50", p);
    out.metrics
        .insert("exec.batch_speedup", ratio(line_wall, batch_wall));
}

/// Lines per `handle_batch` in the batched pass.
const BATCH: usize = 32;

pub fn stateless(wl: &Stateless, scale: Scale) -> Traced {
    let ts = &wl.timed[..scale.traced.min(wl.timed.len())];
    let warm = |r: &Router| {
        for &i in &wl.warmup {
            r.handle_line(&wl.lines[i]);
        }
    };
    let mut out = Traced {
        tracer: Tracer::new(),
        metrics: BTreeMap::new(),
        pcts: BTreeMap::new(),
        tally: Tally::default(),
    };

    ndg_obs::uninstall();
    let r = server_router();
    warm(&r);
    let t = Instant::now();
    for &i in ts {
        black_box(r.handle_line(&wl.lines[i]));
    }
    let untraced = t.elapsed().as_secs_f64();

    let r = server_router();
    warm(&r);
    let batches: Vec<Vec<String>> = ts
        .chunks(BATCH)
        .map(|c| c.iter().map(|&i| wl.lines[i].clone()).collect())
        .collect();
    let mut batch_us = Vec::with_capacity(batches.len());
    let t = Instant::now();
    for b in &batches {
        let s = Instant::now();
        black_box(r.handle_batch(b));
        batch_us.push(s.elapsed().as_secs_f64() * 1e6);
    }
    let batched = t.elapsed().as_secs_f64();
    batch_metrics(&mut out, &mut batch_us, untraced, batched);

    ndg_obs::install();
    let r = server_router();
    warm(&r);
    let tr = &mut out.tracer;
    let t = Instant::now();
    let resps: Vec<String> = ts
        .iter()
        .enumerate()
        .map(|(k, &i)| tr.span("router.handle_line", k, || r.handle_line(&wl.lines[i])))
        .collect();
    let traced = t.elapsed().as_secs_f64();
    for (&i, resp) in ts.iter().zip(&resps) {
        out.tally.note(&wl.lines[i], resp, &wl.expected[i]);
    }
    out.metrics
        .insert("obs.trace_overhead_ratio", ratio(traced, untraced));
    let (work, n) = out.tracer.work(&["router.handle_line"]);
    per_req(&mut out.metrics, &work, n);

    let layers = Layers::new();
    for &i in &wl.warmup {
        let mut rec = Rec { tr: None, req: 0 };
        let got = layers.answer(&wl.lines[i], &mut rec).unwrap_or_else(|e| e);
        out.tally.note(&wl.lines[i], &got, &wl.expected[i]);
    }
    for (k, &i) in ts.iter().enumerate() {
        let mut rec = Rec {
            tr: Some(&mut out.tracer),
            req: k,
        };
        let got = layers.answer(&wl.lines[i], &mut rec).unwrap_or_else(|e| e);
        out.tally.note(&wl.lines[i], &got, &wl.expected[i]);
    }
    router_latency(&["router.handle_line"], &mut out);
    layer_means(&out.tracer, &mut out.metrics);
    for m in [
        "session.delta_us_p50",
        "session.delta_us_p99",
        "session.resync_us_p50",
        "session.journal_ops_peak",
        "session.audit_time_share",
        "session.cold_over_warm",
    ] {
        out.metrics.insert(m, 0.0);
    }
    out
}

/// Session ops after warm-up, alternating the clients as two
/// connections would; `on_op` sends each line and returns the answer.
fn session_replay(
    wl: &Sessions,
    scale: Scale,
    tally: &mut Tally,
    mut on_op: impl FnMut(usize, &str, Step) -> String,
) {
    let mut clients: Vec<SessionClient<'_>> =
        (0..CONNS).map(|c| SessionClient::new(wl, c)).collect();
    let warm = scale.session_warmup_ops * clients[0].slots();
    for k in 0..(warm * CONNS + scale.traced) {
        let c = &mut clients[k % CONNS];
        let slot = c.next_slot();
        let (line, step) = c.line(slot);
        // Warm-up ops run untraced, as `usize::MAX`.
        let req = k.checked_sub(warm * CONNS).unwrap_or(usize::MAX);
        let resp = on_op(req, &line, step);
        c.absorb(slot, &line, &resp, tally);
    }
}

fn session_span(step: Step) -> &'static str {
    match step {
        Step::Open => "session.open",
        Step::Op(Op::Delta(_)) => "session.delta",
        Step::Op(Op::Resync) => "session.resync",
        Step::Close => "session.close",
    }
}

const SESSION_SPANS: [&str; 4] = [
    "session.open",
    "session.delta",
    "session.resync",
    "session.close",
];

fn session_router(audit_every: Option<u64>) -> Router {
    let mut r = server_router();
    if let Some(a) = audit_every {
        r.set_session_config(SessionConfig {
            audit_every: a,
            ..SessionConfig::default()
        });
    }
    r
}

pub fn sessions(wl: &Sessions, scale: Scale) -> Traced {
    let mut out = Traced {
        tracer: Tracer::new(),
        metrics: BTreeMap::new(),
        pcts: BTreeMap::new(),
        tally: Tally::default(),
    };

    ndg_obs::uninstall();
    let r = session_router(None);
    let mut untraced = 0.0;
    session_replay(wl, scale, &mut out.tally, |req, line, _| {
        let t = Instant::now();
        let resp = r.handle_line(line);
        if req != usize::MAX {
            untraced += t.elapsed().as_secs_f64();
        }
        resp
    });

    // Batched: one pending op of every live session per batch, so no
    // batch holds two ops of one session.
    let r = session_router(None);
    let mut clients: Vec<SessionClient<'_>> =
        (0..CONNS).map(|c| SessionClient::new(wl, c)).collect();
    for _ in 0..scale.session_warmup_ops {
        for c in clients.iter_mut() {
            for slot in 0..c.slots() {
                let (line, _) = c.line(slot);
                let resp = r.handle_line(&line);
                c.absorb(slot, &line, &resp, &mut out.tally);
            }
        }
    }
    let mut batch_us = Vec::new();
    let mut batched = 0.0;
    let mut done = 0;
    while done < scale.traced {
        let mut lines = Vec::new();
        for (ci, c) in clients.iter_mut().enumerate() {
            for slot in 0..c.slots() {
                lines.push((ci, slot, c.line(slot).0));
            }
        }
        let batch: Vec<String> = lines.iter().map(|l| l.2.clone()).collect();
        let t = Instant::now();
        let resps = r.handle_batch(&batch);
        let dt = t.elapsed().as_secs_f64();
        batched += dt;
        batch_us.push(dt * 1e6);
        for ((ci, slot, line), resp) in lines.iter().zip(&resps) {
            clients[*ci].absorb(*slot, line, resp, &mut out.tally);
        }
        done += batch.len();
    }
    batch_metrics(&mut out, &mut batch_us, untraced, batched);

    ndg_obs::install();
    let r = session_router(None);
    let mut traced = 0.0;
    let mut peak = 0u64;
    let mut sent: Vec<String> = Vec::new();
    let tr = &mut out.tracer;
    session_replay(wl, scale, &mut out.tally, |req, line, step| {
        if req == usize::MAX {
            return r.handle_line(line);
        }
        let t = Instant::now();
        let resp = tr.span(session_span(step), req, || r.handle_line(line));
        traced += t.elapsed().as_secs_f64();
        peak = peak.max(r.sessions().journal_ops());
        sent.push(line.to_string());
        resp
    });
    out.metrics
        .insert("obs.trace_overhead_ratio", ratio(traced, untraced));
    let (work, n) = out.tracer.work(&SESSION_SPANS);
    per_req(&mut out.metrics, &work, n);
    out.metrics.insert("session.journal_ops_peak", peak as f64);
    router_latency(&SESSION_SPANS, &mut out);
    let delta_default = out.tracer.total("session.delta");
    let mut d = out.tracer.durs("session.delta");
    let (p50, p99) = (percentile(&mut d, 0.5), percentile(&mut d, 0.99));
    let mut rs = out.tracer.durs("session.resync");
    let rs50 = percentile(&mut rs, 0.5);
    for (name, p) in [
        ("session.delta_us_p50", p50),
        ("session.delta_us_p99", p99),
        ("session.resync_us_p50", rs50),
    ] {
        out.metrics.insert(name, p.value);
        out.pcts.insert(name, p);
    }
    for (k, line) in sent.iter().enumerate() {
        let req = out.tracer.span("codec.parse", k, || Request::parse(line));
        if let Ok(req) = req {
            out.tracer
                .span("codec.key", k, || fnv1a64(req.canonical_body().as_bytes()));
        }
    }

    // A/B: the same stream with audits off, capturing the literal cold
    // request each committed delta is specified to answer like.
    let r = session_router(Some(0));
    let mut ab = Tracer::new();
    let mut cold_lines: Vec<String> = Vec::new();
    session_replay(wl, scale, &mut out.tally, |req, line, step| {
        if req == usize::MAX {
            return r.handle_line(line);
        }
        let resp = ab.span(session_span(step), req, || r.handle_line(line));
        if let (Step::Op(Op::Delta(_)), Some(sid)) = (step, crate::workload::session_id(&resp)) {
            cold_lines.extend(r.session_cold_line(sid));
        }
        resp
    });
    let delta_warm = ab.total("session.delta");
    out.metrics.insert(
        "session.audit_time_share",
        ratio(delta_default - delta_warm, delta_default),
    );

    // Cold re-solves, with the build and engine spans of each.
    let cold = Router::with_canon(Executor::sequential(), 0, false);
    let ex = Executor::sequential();
    let mut cold_total = 0.0;
    for (k, line) in cold_lines.iter().enumerate() {
        let t = Instant::now();
        black_box(cold.handle_line(line));
        cold_total += t.elapsed().as_secs_f64() * 1e6;
        let mut rec = Rec {
            tr: Some(&mut out.tracer),
            req: k,
        };
        let Ok(req) = Request::parse(line) else {
            continue;
        };
        let Some(game) = &req.game else { continue };
        if let Ok((game, _)) = rec.span("codec.build", || game.build()) {
            let _ = run_engine(&mut rec, &req, &game, None, &ex);
        }
    }
    out.metrics
        .insert("session.cold_over_warm", ratio(cold_total, delta_warm));
    layer_means(&out.tracer, &mut out.metrics);
    out
}
