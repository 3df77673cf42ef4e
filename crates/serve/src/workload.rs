//! Deterministic mixed-request workload builder.
//!
//! `ndg-serve --self-test` and the E12 load generator both need the same
//! thing: a reproducible stream of `enforce`/`dynamics`/`pos`/`aon`/
//! `certify` requests over a diverse instance pool, with a configurable
//! duplicate fraction so the cache hit rate is a dial rather than an
//! accident. The pool mixes the Theorem 11 cycle family with random
//! connected graphs and the two E12 topology families
//! ([`ndg_graph::generators::preferential_attachment`] power-law graphs
//! and [`ndg_graph::generators::grid_with_chords`] ISP-like meshes).
//!
//! Determinism: everything is derived from the caller's seed through
//! `StdRng`, so two runs (or two thread counts) see byte-identical request
//! lines in the same order.

// The generator's panics are assertions about its own seeded output
// (never about caller input); a workload that cannot build is a bug the
// self-test gates must fail loudly on.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use crate::codec::{Method, Request, Solver, WireGame, WireOrder};
use ndg_core::NetworkDesignGame;
use ndg_graph::{generators, kruskal, EdgeId, Graph, NodeId};
use rand::prelude::*;
use rand::rngs::StdRng;

/// Workload shape: `requests` lines drawn from `distinct` base bodies,
/// each emitted as `isomorphs` literal variants under fresh random
/// relabelings.
///
/// With `isomorphs = 1` (no duplication) and a cache at least `distinct`
/// entries large, the expected hit count is `requests − distinct` (every
/// re-draw of a body after its first occurrence can be served from
/// cache), so the target hit ratio is `1 − distinct/requests`.
///
/// With `isomorphs = k > 1` the pool holds `distinct · k` literal bodies
/// over only `distinct` isomorphism classes: a literal-keyed cache is
/// floored at hit ratio `1 − distinct·k/requests` while canonical keying
/// can reach `1 − distinct/requests` — the dial the e14 experiment turns.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadSpec {
    /// Total request lines.
    pub requests: usize,
    /// Distinct base request bodies in the pool.
    pub distinct: usize,
    /// Master seed.
    pub seed: u64,
    /// Literal variants per base body (`1` = no isomorph duplication;
    /// each variant is the base request under a fresh random node/edge/
    /// player relabeling, attachments carried along consistently).
    pub isomorphs: usize,
}

/// A uniformly-ish random spanning tree: Kruskal under a shuffled edge
/// order (non-minimum targets keep `enforce` honest — MSTs often need no
/// subsidies at all).
fn shuffled_tree(g: &Graph, rng: &mut StdRng) -> Vec<EdgeId> {
    let mut order: Vec<EdgeId> = g.edge_ids().collect();
    order.shuffle(rng);
    let mut uf = ndg_graph::UnionFind::new(g.node_count());
    let mut tree = Vec::with_capacity(g.node_count().saturating_sub(1));
    for e in order {
        let (u, v) = g.endpoints(e);
        if uf.union(u.index(), v.index()) {
            tree.push(e);
        }
    }
    tree.sort();
    tree
}

fn broadcast_instance(rng: &mut StdRng, family: usize) -> (NetworkDesignGame, Vec<EdgeId>) {
    let g = match family % 4 {
        0 => {
            let n = rng.random_range(8..16);
            generators::random_connected(n, 0.3, rng, 0.2..4.0)
        }
        1 => {
            let n = rng.random_range(10..18);
            generators::preferential_attachment(n, 2, rng, 0.3..3.0)
        }
        2 => generators::grid_with_chords(3, rng.random_range(3..5), 3, 1.0, rng, 2.0..6.0),
        _ => generators::cycle_graph(rng.random_range(5..12), 1.0),
    };
    let game = NetworkDesignGame::broadcast(g, NodeId(0)).expect("generator output is connected");
    let mst = kruskal(game.graph()).expect("connected");
    (game, mst)
}

fn pool_request(rng: &mut StdRng, slot: usize) -> Request {
    // Method mix: enforcement-heavy (the paper's authority workload), with
    // dynamics/certification sprinkled in and the expensive enumeration
    // methods capped to tiny instances.
    let mut req = Request::new("pool", Method::Enforce);
    match slot % 10 {
        // enforce on broadcast games, all four solvers.
        0 | 1 => {
            let (game, mst) = broadcast_instance(rng, slot);
            let tree = if rng.random_bool(0.5) {
                shuffled_tree(game.graph(), rng)
            } else {
                mst
            };
            req.solver = Some(match slot % 4 {
                0 => Solver::Lp3,
                1 => Solver::Lp1,
                2 => Solver::Lp2,
                _ => Solver::T6,
            });
            // Theorem 6 is certified for MST targets only: pin it there.
            if req.solver == Some(Solver::T6) {
                req.tree = Some(kruskal(game.graph()).expect("connected"));
            } else {
                req.tree = Some(tree);
            }
            req.game = Some(WireGame::from_game(&game, None));
        }
        // enforce on a general game via the cutting-plane LP.
        2 => {
            let n = rng.random_range(8..14);
            let g = generators::random_connected(n, 0.35, rng, 0.2..4.0);
            let mut players = Vec::new();
            let mut seen = std::collections::HashSet::new();
            while players.len() < n / 2 {
                let s = rng.random_range(0..n as u32);
                let t = rng.random_range(0..n as u32);
                if s != t && seen.insert((s, t)) {
                    players.push(ndg_core::Player {
                        source: NodeId(s),
                        terminal: NodeId(t),
                    });
                }
            }
            let tree = shuffled_tree(&g, rng);
            let game = NetworkDesignGame::new(g, players).expect("validated");
            req.solver = Some(Solver::Lp1);
            req.tree = Some(tree);
            req.game = Some(WireGame::from_game(&game, None));
        }
        // weighted enforcement.
        3 => {
            let n = rng.random_range(6..10);
            let g = generators::random_connected(n, 0.4, rng, 0.5..3.0);
            let players: Vec<ndg_core::Player> = (1..n as u32)
                .map(|v| ndg_core::Player {
                    source: NodeId(v),
                    terminal: NodeId(0),
                })
                .collect();
            let demands: Vec<f64> = (0..players.len())
                .map(|_| rng.random_range(1.0..3.0))
                .collect();
            let tree = shuffled_tree(&g, rng);
            let game = NetworkDesignGame::new(g, players).expect("validated");
            let d = ndg_core::Demands::new(&game, demands).expect("positive demands");
            req.tree = Some(tree);
            req.game = Some(WireGame::from_game(&game, Some(&d)));
        }
        // dynamics under the three move orders.
        4..=6 => {
            let (game, mst) = broadcast_instance(rng, slot);
            req.method = Method::Dynamics;
            req.order = Some(match slot % 3 {
                0 => WireOrder::RoundRobin,
                1 => WireOrder::MaxGain,
                _ => WireOrder::Random(rng.random_range(0..1_000_000)),
            });
            req.tree = Some(mst);
            req.game = Some(WireGame::from_game(&game, None));
        }
        // certification (sometimes under random subsidies).
        7 | 8 => {
            let (game, mst) = broadcast_instance(rng, slot);
            let tree = if slot.is_multiple_of(2) {
                mst
            } else {
                shuffled_tree(game.graph(), rng)
            };
            if rng.random_bool(0.5) {
                let g = game.graph();
                req.subsidy = Some(
                    g.edge_ids()
                        .map(|e| {
                            if rng.random_bool(0.3) {
                                g.weight(e) * rng.random_range(0.0..1.0)
                            } else {
                                0.0
                            }
                        })
                        .collect(),
                );
            }
            req.method = Method::Certify;
            req.tree = Some(tree);
            req.game = Some(WireGame::from_game(&game, None));
        }
        // the enumeration-bounded methods on tiny instances (slot ≡ 9
        // mod 10 is always odd, so alternate on the decade instead).
        _ => {
            if (slot / 10).is_multiple_of(2) {
                let g = generators::random_connected(rng.random_range(4..7), 0.25, rng, 0.3..3.0);
                let game = NetworkDesignGame::broadcast(g, NodeId(0)).expect("connected");
                req.method = Method::Pos;
                req.cap = Some(200_000);
                req.game = Some(WireGame::from_game(&game, None));
            } else {
                let (game, _) = broadcast_instance(rng, 3); // small cycle family
                let tree = shuffled_tree(game.graph(), rng);
                req.method = Method::Aon;
                req.limit = Some(1_000_000);
                req.tree = Some(tree);
                req.game = Some(WireGame::from_game(&game, None));
            }
        }
    }
    req
}

/// Apply a fresh random relabeling to a request: the game's nodes, edge
/// list order, endpoint presentation and (general/weighted) player order
/// are permuted, and every attachment (`tree=`, `state=`, `b=`) is
/// carried through the same [`ndg_canon::Relabeling`] — exactly what an
/// independent client submitting the same network looks like on the
/// wire.
fn relabel_request(req: &Request, rng: &mut StdRng) -> Request {
    let Some(game) = &req.game else {
        return req.clone();
    };
    let inst = crate::canon::instance_of(game);
    let perm = |len: usize, rng: &mut StdRng| {
        let mut p: Vec<u32> = (0..len as u32).collect();
        p.shuffle(rng);
        p
    };
    let node_map = perm(inst.n, rng);
    let edge_order = perm(inst.edges.len(), rng);
    let player_order = perm(inst.players.len(), rng);
    let (mut relabeled, map) = ndg_canon::relabel(&inst, &node_map, &edge_order, &player_order);
    for e in &mut relabeled.edges {
        if rng.random_bool(0.5) {
            std::mem::swap(&mut e.0, &mut e.1);
        }
    }
    let mut out = req.clone();
    out.game = Some(crate::canon::wiregame_of(relabeled));
    out.tree = req.tree.as_ref().map(|t| map.apply_edge_set(t));
    out.state = req.state.as_ref().map(|s| map.apply_paths(s));
    out.subsidy = req.subsidy.as_ref().map(|b| map.apply_edge_values(b));
    out
}

/// Build the request lines: a pool of `spec.distinct` base bodies
/// expanded to `spec.distinct · spec.isomorphs` literal variants, then
/// `spec.requests` draws (each variant drawn at least once, the rest
/// uniform), ids `w0`, `w1`, … in stream order. With `isomorphs = 1` the
/// stream is byte-identical to the pre-canonicalization generator.
pub fn build_workload(spec: WorkloadSpec) -> Vec<String> {
    assert!(
        spec.distinct >= 1
            && spec.isomorphs >= 1
            && spec.requests >= spec.distinct * spec.isomorphs
    );
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut pool: Vec<Request> = (0..spec.distinct)
        .map(|slot| pool_request(&mut rng, slot))
        .collect();
    if spec.isomorphs > 1 {
        pool = pool
            .iter()
            .flat_map(|base| {
                (0..spec.isomorphs)
                    .map(|_| relabel_request(base, &mut rng))
                    .collect::<Vec<_>>()
            })
            .collect();
    }
    // Every variant once (so the literal-distinct count is exact), then
    // uniform re-draws.
    let mut picks: Vec<usize> = (0..pool.len()).collect();
    while picks.len() < spec.requests {
        picks.push(rng.random_range(0..pool.len()));
    }
    picks.shuffle(&mut rng);
    picks
        .iter()
        .enumerate()
        .map(|(i, &j)| {
            let mut req = pool[j].clone();
            req.id = format!("w{i}");
            req.serialize()
        })
        .collect()
}

/// Re-emit `lines` with `trace=1` set on each request. Trace is a
/// volatile field — the traced stream keys, caches, and answers exactly
/// like the original, with per-stage timings spliced into each response
/// header — so a traced self-test can diff payloads against an untraced
/// reference.
pub fn with_trace(lines: &[String]) -> Vec<String> {
    lines
        .iter()
        .map(|l| {
            let mut req = Request::parse(l).expect("workload lines parse");
            req.trace = true;
            req.serialize()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::Request;

    #[test]
    fn workload_is_deterministic_and_parseable() {
        let spec = WorkloadSpec {
            requests: 60,
            distinct: 20,
            seed: 7,
            isomorphs: 1,
        };
        let a = build_workload(spec);
        let b = build_workload(spec);
        assert_eq!(a, b, "same seed must give byte-identical lines");
        let mut keys = std::collections::HashSet::new();
        for line in &a {
            let req = Request::parse(line).expect("workload lines must parse");
            keys.insert(req.cache_key());
        }
        assert_eq!(keys.len(), 20, "distinct bodies must be exactly `distinct`");
    }

    #[test]
    fn workload_mixes_all_methods() {
        let lines = build_workload(WorkloadSpec {
            requests: 30,
            distinct: 30,
            seed: 11,
            isomorphs: 1,
        });
        let methods: std::collections::HashSet<String> = lines
            .iter()
            .map(|l| Request::parse(l).unwrap().method.as_str().to_string())
            .collect();
        for m in ["enforce", "dynamics", "certify", "pos", "aon"] {
            assert!(methods.contains(m), "missing {m} in the mix");
        }
    }

    #[test]
    fn isomorph_duplication_multiplies_literal_bodies_not_canonical_ones() {
        let spec = WorkloadSpec {
            requests: 48,
            distinct: 12,
            seed: 0xE14,
            isomorphs: 4,
        };
        let lines = build_workload(spec);
        assert_eq!(lines, build_workload(spec), "deterministic");
        let mut literal = std::collections::HashSet::new();
        let mut canonical = std::collections::HashSet::new();
        for line in &lines {
            let req = Request::parse(line).expect("relabeled lines must parse");
            literal.insert(req.canonical_body());
            let c = crate::canon::canonicalize_request(&req)
                .expect("workload instances stay in canon budget");
            canonical.insert(c.req.canonical_body());
        }
        // Relabeled variants look fresh to a literal key… (a variant may
        // coincide with another by chance on tiny instances, so ≥ is the
        // honest bound — in practice it is an equality)
        assert!(
            literal.len() > spec.distinct,
            "expected > {} literal bodies, got {}",
            spec.distinct,
            literal.len()
        );
        // …but collapse back onto the base instances canonically.
        assert_eq!(
            canonical.len(),
            spec.distinct,
            "canonical keys must see through the relabelings"
        );
    }

    #[test]
    fn with_trace_flips_only_the_volatile_flag() {
        let lines = build_workload(WorkloadSpec {
            requests: 20,
            distinct: 20,
            seed: 3,
            isomorphs: 1,
        });
        let traced = with_trace(&lines);
        assert_eq!(lines.len(), traced.len());
        for (plain, traced) in lines.iter().zip(&traced) {
            let a = Request::parse(plain).unwrap();
            let b = Request::parse(traced).unwrap();
            assert!(!a.trace && b.trace);
            assert!(traced.contains(";trace=1"), "{traced}");
            // Volatile: same canonical body, same cache key.
            assert_eq!(a.canonical_body(), b.canonical_body());
            assert_eq!(a.cache_key(), b.cache_key());
        }
    }

    /// LPs (1), (2) and (3) agree to 1e-5 on every broadcast family the
    /// pool draws from, on MST and shuffled targets. In debug builds each
    /// simplex solve behind them is also checked bit for bit against the
    /// dense reference kernel.
    #[test]
    fn lp_formulations_agree_on_every_broadcast_family() {
        let mut rng = StdRng::seed_from_u64(0x1_2_3);
        for family in 0..4 {
            let (game, mst) = broadcast_instance(&mut rng, family);
            for tree in [mst, shuffled_tree(game.graph(), &mut rng)] {
                let (state, _) = ndg_core::State::from_tree(&game, &tree).unwrap();
                let (lp1, _) = ndg_sne::lp_general::enforce_state_cutting(&game, &state).unwrap();
                let lp2 = ndg_sne::lp_poly::enforce_state_poly(&game, &state).unwrap();
                let lp3 = ndg_sne::lp_broadcast::enforce_tree_lp(&game, &tree).unwrap();
                for (name, cost) in [("LP (1)", lp1.cost), ("LP (2)", lp2.cost)] {
                    assert!(
                        (cost - lp3.cost).abs() < 1e-5,
                        "family {family}: {name} {cost} vs LP (3) {}",
                        lp3.cost
                    );
                }
            }
        }
    }
}
