//! The three workloads, built from the seed before any timing, each with
//! the reference payload of every request it can send.
//!
//! References come from a sequential, cache-off in-process `Router` (the
//! `ndg1` determinism contract: every payload equals that router's). For
//! sessions the reference of each answer is the cold re-solve of the
//! router's `session_cold_line`, as E16 checks it.

use ndg_canon::Instance;
use ndg_core::NetworkDesignGame;
use ndg_exec::Executor;
use ndg_graph::{generators, kruskal, EdgeId, NodeId, UnionFind};
use ndg_serve::{build_workload, payload_of, DeltaOp, Method, Request, Router, SessionConfig};
use ndg_serve::{WireGame, WorkloadSpec};
use rand::prelude::*;
use rand::rngs::StdRng;

/// Workload sizes. `full` is what the benchmark measures; `tiny` keeps
/// the benchmark's own tests fast.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// cold_mix: distinct request lines, cycled by the timed phase.
    pub cold_lines: usize,
    /// cold_mix: lines sent before timing.
    pub cold_warmup: usize,
    /// warm_isomorph: isomorphism classes solved in warm-up.
    pub classes: usize,
    /// warm_isomorph: fresh relabelings generated per class.
    pub variants: usize,
    /// delta_sessions: session scripts the connections cycle through.
    pub scripts: usize,
    /// delta_sessions: deltas per script (inclusive range).
    pub deltas: (usize, usize),
    /// Requests replayed by the traced pass (stateless workloads) or
    /// session ops (delta_sessions).
    pub traced: usize,
    /// delta_sessions: session ops per slot run in warm-up.
    pub session_warmup_ops: usize,
}

impl Scale {
    pub fn full() -> Scale {
        Scale {
            cold_lines: 8192,
            cold_warmup: 256,
            classes: 1024,
            variants: 8,
            scripts: 128,
            deltas: (192, 320),
            traced: 2048,
            session_warmup_ops: 32,
        }
    }

    #[cfg(test)]
    pub fn tiny() -> Scale {
        Scale {
            cold_lines: 96,
            cold_warmup: 32,
            classes: 12,
            variants: 4,
            scripts: 8,
            deltas: (20, 30),
            traced: 64,
            session_warmup_ops: 2,
        }
    }
}

/// Connections each workload's client opens.
pub const CONNS: usize = 2;
/// Live sessions each connection drives, interleaved one op at a time.
pub const SLOTS_PER_CONN: usize = 4;
/// A `resync` follows every this many deltas of a session.
pub const RESYNC_EVERY: usize = 64;

/// Stateless request lines and the order the client sends them in.
pub struct Stateless {
    /// Every distinct request line.
    pub lines: Vec<String>,
    /// `payload_of` the reference response, per line.
    pub expected: Vec<String>,
    /// Line indices sent before timing.
    pub warmup: Vec<usize>,
    /// Line indices of the timed phase, cycled until time is up.
    pub timed: Vec<usize>,
    /// Lines per flush.
    pub batch: usize,
}

/// One session op after `open`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Op {
    Delta(DeltaOp),
    Resync,
}

/// A scripted session: open a base, apply ops one at a time, close.
pub struct Script {
    pub open_line: String,
    pub ops: Vec<Op>,
    /// Reference payload of the open, each op, and the close.
    pub expected_open: String,
    pub expected: Vec<String>,
    pub expected_close: String,
}

pub struct Sessions {
    pub scripts: Vec<Script>,
}

pub enum Kind {
    Stateless(Stateless),
    Sessions(Sessions),
}

pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
}

pub const NAMES: [&str; 3] = ["cold_mix", "warm_isomorph", "delta_sessions"];

/// Build workload `name` from `seed`, references included.
pub fn build(name: &str, seed: u64, scale: Scale) -> Result<Workload, String> {
    let (name, kind) = match name {
        "cold_mix" => ("cold_mix", Kind::Stateless(cold_mix(seed, scale)?)),
        "warm_isomorph" => (
            "warm_isomorph",
            Kind::Stateless(warm_isomorph(seed, scale)?),
        ),
        "delta_sessions" => (
            "delta_sessions",
            Kind::Sessions(delta_sessions(seed, scale)?),
        ),
        other => return Err(format!("unknown workload `{other}`")),
    };
    Ok(Workload { name, kind })
}

/// Reference payloads of `lines`: a sequential, cache-off, canon-on
/// router per thread (two threads, each over half of the lines).
fn reference(lines: &[String]) -> Result<Vec<String>, String> {
    let half = lines.len().div_ceil(2).max(1);
    let parts: Vec<Vec<String>> = std::thread::scope(|s| {
        let handles: Vec<_> = lines
            .chunks(half)
            .map(|chunk| {
                s.spawn(move || {
                    let r = Router::with_canon(Executor::sequential(), 0, true);
                    chunk
                        .iter()
                        .map(|l| payload_of(&r.handle_line(l)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference thread panicked"))
            .collect()
    });
    let out: Vec<String> = parts.into_iter().flatten().collect();
    // The workloads are built so that no request fails.
    if let Some((i, p)) = out.iter().enumerate().find(|(_, p)| !p.starts_with("ok")) {
        return Err(format!("reference answered `{p}` to `{}`", lines[i]));
    }
    Ok(out)
}

/// `build_workload`'s method mix, every body distinct; the timed phase
/// cycles through twice the result cache's capacity, so inserts evict.
fn cold_mix(seed: u64, scale: Scale) -> Result<Stateless, String> {
    let n = scale.cold_lines;
    let lines = build_workload(WorkloadSpec {
        requests: n,
        distinct: n,
        seed,
        isomorphs: 1,
    });
    let expected = reference(&lines)?;
    let w = scale.cold_warmup;
    Ok(Stateless {
        lines,
        expected,
        warmup: (0..w).collect(),
        timed: (w..n).chain(0..w).collect(),
        batch: 32,
    })
}

/// A few hundred classes solved in warm-up, then a stream that alternates
/// an exact replay of a recently sent line with the first send of a fresh
/// relabeling of a warmed class. The relabeling pool is twice the
/// canonicalization memo's capacity, so a fresh line has always been
/// evicted from the memo by the time the cycle sends it again.
fn warm_isomorph(seed: u64, scale: Scale) -> Result<Stateless, String> {
    let c = scale.classes;
    let mut lines = build_workload(WorkloadSpec {
        requests: c,
        distinct: c,
        seed,
        isomorphs: 1,
    });
    let mut rng = StdRng::seed_from_u64(seed ^ 0x15_0A0F);
    let bases: Vec<Request> = lines
        .iter()
        .map(|l| Request::parse(l).map_err(|e| format!("workload line does not parse: {e}")))
        .collect::<Result<_, _>>()?;
    for k in 0..scale.variants {
        for (j, base) in bases.iter().enumerate() {
            let mut v = relabel(base, &mut rng);
            v.id = format!("v{k}_{j}");
            lines.push(v.serialize());
        }
    }
    let expected = reference(&lines)?;
    let mut fresh: Vec<usize> = (c..lines.len()).collect();
    fresh.shuffle(&mut rng);
    // Replays draw from the last REPLAY_WINDOW lines sent (the warm-up's
    // base lines before the stream has that many).
    const REPLAY_WINDOW: usize = 64;
    let mut timed: Vec<usize> = Vec::with_capacity(2 * fresh.len());
    for &f in &fresh {
        let replay = if timed.len() < REPLAY_WINDOW {
            rng.random_range(0..c)
        } else {
            timed[timed.len() - rng.random_range(1..=REPLAY_WINDOW)]
        };
        timed.push(replay);
        timed.push(f);
    }
    Ok(Stateless {
        lines,
        expected,
        warmup: (0..c).collect(),
        timed,
        batch: 1,
    })
}

fn instance_of(game: &WireGame) -> Instance {
    let (n, edges, root, players, demands) = match game.clone() {
        WireGame::Broadcast { n, root, edges } => (n, edges, Some(root), vec![], None),
        WireGame::General { n, edges, players } => (n, edges, None, players, None),
        WireGame::Weighted {
            n,
            edges,
            players,
            demands,
        } => (n, edges, None, players, Some(demands)),
    };
    Instance {
        n,
        edges,
        root,
        players,
        demands,
    }
}

fn wiregame_of(inst: Instance) -> WireGame {
    let Instance {
        n,
        edges,
        root,
        players,
        demands,
    } = inst;
    match (root, demands) {
        (Some(root), _) => WireGame::Broadcast { n, root, edges },
        (None, Some(demands)) => WireGame::Weighted {
            n,
            edges,
            players,
            demands,
        },
        (None, None) => WireGame::General { n, edges, players },
    }
}

/// The request under a fresh random relabeling of nodes, edges, edge
/// endpoints and players, attachments carried along: what an independent
/// client sending the same network looks like on the wire.
fn relabel(req: &Request, rng: &mut StdRng) -> Request {
    let Some(game) = &req.game else {
        return req.clone();
    };
    let inst = instance_of(game);
    let mut perm = |len: usize| {
        let mut p: Vec<u32> = (0..len as u32).collect();
        p.shuffle(rng);
        p
    };
    let (nodes, edges, players) = (
        perm(inst.n),
        perm(inst.edges.len()),
        perm(inst.players.len()),
    );
    let (mut out_inst, map) = ndg_canon::relabel(&inst, &nodes, &edges, &players);
    for e in &mut out_inst.edges {
        if rng.random_bool(0.5) {
            std::mem::swap(&mut e.0, &mut e.1);
        }
    }
    let mut out = req.clone();
    out.game = Some(wiregame_of(out_inst));
    out.tree = req.tree.as_ref().map(|t| map.apply_edge_set(t));
    out.state = req.state.as_ref().map(|s| map.apply_paths(s));
    out.subsidy = req.subsidy.as_ref().map(|b| map.apply_edge_values(b));
    out
}

/// E16's `cycle_24` base: a 24-cycle, tree = the path 0..23.
fn cycle_24() -> Request {
    let mut req = Request::new("o", Method::Open);
    req.game = Some(WireGame::Broadcast {
        n: 24,
        root: 0,
        edges: (0..24).map(|i| (i, (i + 1) % 24, 1.0)).collect(),
    });
    req.tree = Some((0..23).map(EdgeId).collect());
    req
}

/// E16's `general_12` base: a 12-ring with three chords and three players.
fn general_12() -> Request {
    let mut edges: Vec<(u32, u32, f64)> = (0..12).map(|i| (i, (i + 1) % 12, 1.0)).collect();
    edges.extend([(0, 6, 2.5), (3, 9, 2.5), (1, 7, 3.5)]);
    let mut req = Request::new("o", Method::Open);
    req.game = Some(WireGame::General {
        n: 12,
        edges,
        players: vec![(0, 6), (2, 9), (4, 11)],
    });
    req.tree = Some((0..11).map(EdgeId).collect());
    req
}

/// Grid shapes of the session bases, 24 to 80 nodes; every seed uses
/// each shape equally often, so the work per run does not hinge on which
/// sizes a seed drew.
const GRIDS: [(usize, usize); 4] = [(4, 6), (5, 8), (6, 10), (8, 10)];

/// A broadcast grid with `rows` seeded chords, opened on its minimum
/// spanning tree.
fn grid_base((rows, cols): (usize, usize), rng: &mut StdRng) -> Request {
    let g = generators::grid_with_chords(rows, cols, rows, 1.0, rng, 2.0..6.0);
    let game = NetworkDesignGame::broadcast(g, NodeId(0)).expect("grids are connected");
    let mut req = Request::new("o", Method::Open);
    req.tree = Some(kruskal(game.graph()).expect("connected"));
    req.game = Some(WireGame::from_game(&game, None));
    req
}

/// Whether removing edge `skip` leaves `edges` connected on `n` nodes.
fn connected_without(n: usize, edges: &[(u32, u32, f64)], skip: usize) -> bool {
    let mut uf = UnionFind::new(n);
    let mut parts = n;
    for (i, &(u, v, _)) in edges.iter().enumerate() {
        if i != skip && uf.union(u as usize, v as usize) {
            parts -= 1;
        }
    }
    parts == 1
}

/// A seeded op stream for `base`: mostly weight patches, a few edge
/// failures that keep the graph connected, a few player joins on general
/// bases, and a resync every [`RESYNC_EVERY`] deltas.
fn script_ops(base: &Request, deltas: usize, rng: &mut StdRng) -> Vec<Op> {
    let mut game = base.game.clone().expect("bases carry a game");
    let mut ops = Vec::with_capacity(deltas + deltas / RESYNC_EVERY);
    let (mut fails, mut joins) = (0, 0);
    for k in 0..deltas {
        let (n, edges, general) = match &mut game {
            WireGame::Broadcast { n, edges, .. } => (*n, edges, false),
            WireGame::General { n, edges, .. } => (*n, edges, true),
            WireGame::Weighted { .. } => unreachable!("session bases are unweighted"),
        };
        let roll = rng.random_range(0..100u32);
        let op = if roll < 4 && fails < 4 {
            let start = rng.random_range(0..edges.len());
            (0..edges.len())
                .map(|i| (start + i) % edges.len())
                .find(|&e| connected_without(n, edges, e))
                .map(|e| DeltaOp::Fail { edge: e as u32 })
        } else if roll < 8 && general && joins < 4 {
            let s = rng.random_range(0..n as u32);
            let t = (s + rng.random_range(1..n as u32)) % n as u32;
            Some(DeltaOp::Join {
                source: s,
                terminal: t,
            })
        } else {
            None
        };
        let op = op.unwrap_or_else(|| DeltaOp::Patch {
            edge: rng.random_range(0..edges.len() as u32),
            w: f64::from(rng.random_range(1..=8u32)) / 4.0,
        });
        match op {
            DeltaOp::Fail { edge } => {
                edges.remove(edge as usize);
                fails += 1;
            }
            DeltaOp::Patch { edge, w } => edges[edge as usize].2 = w,
            DeltaOp::Join { source, terminal } => {
                if let WireGame::General { players, .. } = &mut game {
                    players.push((source, terminal));
                }
                joins += 1;
            }
        }
        ops.push(Op::Delta(op));
        if (k + 1) % RESYNC_EVERY == 0 {
            ops.push(Op::Resync);
        }
    }
    ops
}

/// The request line of `op` on session `sid` at `epoch`.
pub fn op_line(id: &str, sid: &str, epoch: u64, op: Op) -> String {
    let mut req = match op {
        Op::Delta(d) => {
            let mut r = Request::new(id, Method::Delta);
            r.epoch = Some(epoch);
            r.delta = Some(d);
            r
        }
        Op::Resync => Request::new(id, Method::Resync),
    };
    req.session = Some(sid.to_string());
    req.serialize()
}

pub fn close_line(id: &str, sid: &str) -> String {
    let mut req = Request::new(id, Method::Close);
    req.session = Some(sid.to_string());
    req.serialize()
}

/// The `session=` header of an `open` response.
pub fn session_id(resp: &str) -> Option<&str> {
    resp.split(';').find_map(|f| f.strip_prefix("session="))
}

/// Run `script` on a sequential in-process router with audits off and
/// fill in its references: the cold re-solve of `session_cold_line`
/// after the open and after every delta, which the session's own answer
/// must already equal.
fn script_reference(script: &mut Script) -> Result<(), String> {
    let mut warm = Router::with_canon(Executor::sequential(), 0, true);
    warm.set_session_config(SessionConfig {
        audit_every: 0,
        ..SessionConfig::default()
    });
    let cold = Router::with_canon(Executor::sequential(), 0, false);
    let ok = |resp: String, what: &str| {
        if resp.starts_with("ok;") {
            Ok(resp)
        } else {
            Err(format!("reference {what} failed: {resp}"))
        }
    };
    let resp = ok(warm.handle_line(&script.open_line), "open")?;
    let sid = session_id(&resp)
        .ok_or("open answered no session id")?
        .to_string();
    let cold_of = |warm_payload: &str| -> Result<String, String> {
        let line = warm.session_cold_line(&sid).ok_or("session vanished")?;
        let want = payload_of(&cold.handle_line(&line));
        if want != warm_payload {
            return Err(format!(
                "session answer differs from its cold re-solve:\n  warm {warm_payload}\n  cold {want}"
            ));
        }
        Ok(want)
    };
    script.expected_open = cold_of(&payload_of(&resp))?;
    let mut epoch = 0u64;
    let mut last = script.expected_open.clone();
    script.expected.clear();
    for &op in &script.ops {
        let resp = ok(warm.handle_line(&op_line("r", &sid, epoch, op)), "op")?;
        let got = payload_of(&resp);
        match op {
            Op::Delta(_) => {
                epoch += 1;
                last = cold_of(&got)?;
            }
            Op::Resync if got != last => {
                return Err(format!("resync answered {got}, committed view is {last}"))
            }
            Op::Resync => {}
        }
        script.expected.push(last.clone());
    }
    script.expected_close = payload_of(&ok(warm.handle_line(&close_line("r", &sid)), "close")?);
    Ok(())
}

/// Scripts over E16's `cycle_24` and `general_12` bases and seeded grids.
/// Base shapes and script lengths are fixed by the script's index (only
/// weights, chords and ops are seeded), and lengths differ between the
/// scripts a connection runs side by side, so its sessions do not reach
/// their expensive late epochs in lockstep.
fn delta_sessions(seed: u64, scale: Scale) -> Result<Sessions, String> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xDE17A);
    let (lo, hi) = scale.deltas;
    let mut scripts: Vec<Script> = (0..scale.scripts)
        .map(|i| {
            let base = match i % 4 {
                0 => cycle_24(),
                1 => general_12(),
                k => grid_base(GRIDS[(i / 4 * 2 + k - 2) % GRIDS.len()], &mut rng),
            };
            let deltas = lo + (hi - lo) * ((i / CONNS) % SLOTS_PER_CONN) / (SLOTS_PER_CONN - 1);
            Script {
                ops: script_ops(&base, deltas, &mut rng),
                open_line: base.serialize(),
                expected_open: String::new(),
                expected: Vec::new(),
                expected_close: String::new(),
            }
        })
        .collect();
    let half = scripts.len().div_ceil(2).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = scripts
            .chunks_mut(half)
            .map(|chunk| s.spawn(move || chunk.iter_mut().try_for_each(script_reference)))
            .collect();
        handles
            .into_iter()
            .try_for_each(|h| h.join().expect("reference thread panicked"))
    })?;
    Ok(Sessions { scripts })
}
