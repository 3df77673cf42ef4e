//! The `ndg1` line-oriented wire codec.
//!
//! Every record is one ASCII line of `;`-separated `key=value` fields with
//! a leading tag. Three sub-separators nest inside values — `,` joins list
//! elements, `:` joins the sections of a game spec, `/` joins the parts of
//! an edge or player pair, `|` joins per-player paths — so no escaping is
//! ever needed: identifiers are integers and floats, and the only free-form
//! token (the request `id`) is restricted to `[A-Za-z0-9._-]`.
//!
//! ```text
//! request  := "ndg1" ";id=" ID ";method=" METHOD field*
//! field    := ";" key "=" value
//! METHOD   := "enforce" | "dynamics" | "pos" | "aon" | "certify" | "stats"
//!           | "metrics" | "events" | "health" | "open" | "delta" | "resync"
//!           | "close"
//! game     := "broadcast:" N ":" ROOT ":" edges
//!           | "general:"   N ":" edges ":" players
//!           | "weighted:"  N ":" edges ":" players ":" demands
//! edges    := [ edge ("," edge)* ]         edge    := U "/" V "/" W
//! players  := pair ("," pair)*             pair    := S "/" T
//! demands  := float ("," float)*
//! tree     := [ id ("," id)* ]             (edge ids, duplicates rejected)
//! b        := float ("," float)*           (one subsidy per edge)
//! state    := path ("|" path)*             path    := [ id ("," id)* ]
//! order    := "round-robin" | "max-gain" | "random:" SEED
//! canon    := "0" | "1"                    (default 1: isomorphism-aware
//!                                           canonical cache keying; 0
//!                                           forces literal keying)
//! deadline_ms := integer milliseconds     (volatile attempt budget; not
//!                                          part of the canonical body)
//! trace    := "0" | "1"                    (volatile; 1 asks the router to
//!                                           echo per-stage µs timings as a
//!                                           `trace=` response-header field,
//!                                           outside the canonical body)
//! trace_id := integer                      (volatile; client-chosen flight-
//!                                           recorder correlation id, echoed
//!                                           as a `trace_id=` response header
//!                                           and used to link wide events;
//!                                           never part of the canonical
//!                                           body. On `events` it filters
//!                                           the snapshot to one trace.)
//! session  := ID                           (server-assigned at `open`;
//!                                           required by delta/resync/close)
//! epoch    := integer                      (applied-delta count; a `delta`
//!                                           must echo the session's current
//!                                           epoch or is rejected as stale)
//! delta    := "patch" | "fail" | "join"    (with "edge="+"w=", "edge=",
//!                                           "player=" S "/" T respectively)
//! response := "ok;id=" ID [";trace_id=" T] [";session=" SID ";epoch=" E]
//!             [";resynced=1"] [";trace=" SPANS] ";cache=" ("hit"|"miss"|"off")
//!             ";hits=" H ";misses=" M ";evictions=" E ";" payload
//!           | "err;id=" ID [";trace_id=" T] [";trace=" SPANS] ";code=" CODE
//!             [";retry_ms=" MS] ";msg=" TEXT
//! SPANS    := stage ":" µs ("," stage ":" µs)*   (stages in pipeline order:
//!                                                 parse,canon,cache,delta,
//!                                                 solve,unmap,write)
//! ```
//!
//! Floats are serialized with Rust's shortest-round-trip `Display`, so
//! `parse ∘ serialize` is the identity on every finite `f64` and the
//! canonical form of an instance is byte-stable — which is what makes the
//! FNV-1a [`Request::cache_key`] a sound instance/result cache key.

use ndg_core::{Demands, GameError, NetworkDesignGame, Player, State, StateError, SubsidyError};
use ndg_graph::{EdgeId, Graph, GraphError, NodeId};
use std::fmt;

/// Hard ceilings on parsed instance sizes: a service must bound the work a
/// single line can demand before any solver runs.
pub const MAX_NODES: usize = 65_536;
/// Maximum edges accepted in one game spec.
pub const MAX_EDGES: usize = 1_048_576;
/// Maximum players accepted in one game spec.
pub const MAX_PLAYERS: usize = 65_536;

/// Structured decode/validation errors. Every malformed input maps to one
/// of these — the codec never panics on untrusted bytes — and each variant
/// carries a stable snake-case [`code`](WireError::code) for the `err`
/// response line.
#[derive(Clone, Debug, PartialEq)]
pub enum WireError {
    /// The line was empty.
    Empty,
    /// The leading tag was not `ndg1`.
    BadTag(String),
    /// A `key=value` field had no `=`.
    BareField(String),
    /// The same key appeared twice.
    DuplicateField(String),
    /// An unrecognized key.
    UnknownField(String),
    /// A required field was absent.
    MissingField(&'static str),
    /// The request id contains characters outside `[A-Za-z0-9._-]` or is
    /// empty/overlong.
    BadId(String),
    /// Unknown `method=` value.
    UnknownMethod(String),
    /// Unknown `solver=` value.
    UnknownSolver(String),
    /// Unknown `order=` value.
    UnknownOrder(String),
    /// A structured value ended early (fewer `:`/`/` sections than the
    /// grammar requires) — truncated-line territory.
    Truncated {
        /// What was being parsed.
        what: &'static str,
        /// The offending token.
        got: String,
    },
    /// An integer token failed to parse.
    BadInt {
        /// The field being parsed.
        field: &'static str,
        /// The offending token.
        token: String,
    },
    /// A float token failed to parse or was NaN/infinite.
    BadFloat {
        /// The field being parsed.
        field: &'static str,
        /// The offending token.
        token: String,
    },
    /// An edge id appeared twice in an edge-set value (`tree=`), which is
    /// specified as a *set*.
    DuplicateEdge {
        /// The field holding the set.
        field: &'static str,
        /// The repeated edge id.
        id: u32,
    },
    /// An instance dimension exceeded [`MAX_NODES`]/[`MAX_EDGES`]/
    /// [`MAX_PLAYERS`].
    TooLarge {
        /// Which dimension overflowed.
        what: &'static str,
        /// The requested size.
        got: usize,
        /// The ceiling.
        max: usize,
    },
    /// Graph construction rejected the spec (bad endpoint, self-loop,
    /// negative weight, …).
    Graph(String),
    /// Game construction rejected the spec (disconnected broadcast,
    /// trivial player, …).
    Game(String),
    /// State construction rejected the paths.
    State(String),
    /// The subsidy vector was out of bounds or mis-sized.
    Subsidy(String),
    /// The demand vector was mis-sized or non-positive.
    BadDemands,
    /// The target edge set is not a spanning tree.
    NotASpanningTree,
    /// The method needs a broadcast game.
    NotBroadcast,
    /// A solver/engine failed after decoding succeeded.
    Engine {
        /// Stable machine code for the failure class.
        code: &'static str,
        /// Human-readable detail.
        msg: String,
    },
    /// The request's deadline (`deadline_ms=` or the server default)
    /// expired before the solve completed. Deliberately message-stable:
    /// no elapsed time is echoed, so the error bytes are deterministic
    /// even though *when* it fires depends on the wall clock. Never
    /// cached.
    Deadline,
    /// The admission gate shed the request (too many in flight). Carries
    /// the fixed retry hint surfaced as `retry_ms=` on the wire. Never
    /// cached.
    Overloaded {
        /// Suggested client back-off in milliseconds.
        retry_ms: u64,
    },
    /// The `session=` id names no session this server has ever assigned.
    UnknownSession(String),
    /// The session existed but was closed or LRU-evicted; the client must
    /// reopen. Deterministic: a given id answers `session_expired` forever
    /// once retired.
    SessionExpired(String),
    /// The `epoch=` on a delta does not match the session's current
    /// epoch — the client's view is stale (a previous delta was applied
    /// that it has not acknowledged).
    StaleEpoch {
        /// Epoch the client sent.
        got: u64,
        /// The session's current epoch.
        want: u64,
    },
    /// `open` rejected: the session table is full and eviction is
    /// disabled (`--max-sessions 0`).
    SessionLimit {
        /// The configured table capacity.
        max: usize,
    },
    /// Unknown `delta=` op (not `patch`/`fail`/`join`).
    UnknownDelta(String),
    /// A structurally valid delta that cannot be applied to this session's
    /// instance (edge id out of range, fail would disconnect a player,
    /// join on a broadcast game, misplaced op fields, …). The session is
    /// left exactly as it was.
    BadDelta(String),
}

impl WireError {
    /// Stable machine-readable code for the `err` response line.
    pub fn code(&self) -> &'static str {
        match self {
            WireError::Empty => "empty",
            WireError::BadTag(_) => "bad_tag",
            WireError::BareField(_) => "bare_field",
            WireError::DuplicateField(_) => "duplicate_field",
            WireError::UnknownField(_) => "unknown_field",
            WireError::MissingField(_) => "missing_field",
            WireError::BadId(_) => "bad_id",
            WireError::UnknownMethod(_) => "unknown_method",
            WireError::UnknownSolver(_) => "unknown_solver",
            WireError::UnknownOrder(_) => "unknown_order",
            WireError::Truncated { .. } => "truncated",
            WireError::BadInt { .. } => "bad_int",
            WireError::BadFloat { .. } => "bad_float",
            WireError::DuplicateEdge { .. } => "duplicate_edge",
            WireError::TooLarge { .. } => "too_large",
            WireError::Graph(_) => "bad_graph",
            WireError::Game(_) => "bad_game",
            WireError::State(_) => "bad_state",
            WireError::Subsidy(_) => "bad_subsidy",
            WireError::BadDemands => "bad_demands",
            WireError::NotASpanningTree => "not_a_spanning_tree",
            WireError::NotBroadcast => "not_broadcast",
            WireError::Engine { code, .. } => code,
            WireError::Deadline => "deadline",
            WireError::Overloaded { .. } => "overloaded",
            WireError::UnknownSession(_) => "unknown_session",
            WireError::SessionExpired(_) => "session_expired",
            WireError::StaleEpoch { .. } => "stale_epoch",
            WireError::SessionLimit { .. } => "session_limit",
            WireError::UnknownDelta(_) => "unknown_delta",
            WireError::BadDelta(_) => "bad_delta",
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Empty => write!(f, "empty request line"),
            WireError::BadTag(t) => write!(f, "expected tag ndg1, got {t:?}"),
            WireError::BareField(t) => write!(f, "field {t:?} has no '='"),
            WireError::DuplicateField(k) => write!(f, "field {k} given twice"),
            WireError::UnknownField(k) => write!(f, "unknown field {k}"),
            WireError::MissingField(k) => write!(f, "required field {k} missing"),
            WireError::BadId(t) => write!(f, "bad request id {t:?}"),
            WireError::UnknownMethod(m) => write!(f, "unknown method {m:?}"),
            WireError::UnknownSolver(s) => write!(f, "unknown solver {s:?}"),
            WireError::UnknownOrder(o) => write!(f, "unknown order {o:?}"),
            WireError::Truncated { what, got } => write!(f, "truncated {what}: {got:?}"),
            WireError::BadInt { field, token } => write!(f, "bad integer in {field}: {token:?}"),
            WireError::BadFloat { field, token } => {
                write!(f, "bad finite float in {field}: {token:?}")
            }
            WireError::DuplicateEdge { field, id } => {
                write!(f, "edge {id} repeated in {field}")
            }
            WireError::TooLarge { what, got, max } => {
                write!(f, "{what} = {got} exceeds limit {max}")
            }
            WireError::Graph(m) | WireError::Game(m) | WireError::State(m) => write!(f, "{m}"),
            WireError::Subsidy(m) => write!(f, "{m}"),
            WireError::BadDemands => write!(f, "demands must list one positive float per player"),
            WireError::NotASpanningTree => write!(f, "target edge set is not a spanning tree"),
            WireError::NotBroadcast => write!(f, "method requires a broadcast game"),
            WireError::Engine { msg, .. } => write!(f, "{msg}"),
            WireError::Deadline => write!(f, "deadline exceeded before the solve completed"),
            WireError::Overloaded { .. } => write!(f, "server at admission capacity, retry later"),
            WireError::UnknownSession(s) => write!(f, "unknown session {s:?}"),
            WireError::SessionExpired(s) => write!(f, "session {s} closed or evicted, reopen"),
            WireError::StaleEpoch { got, want } => {
                write!(f, "stale epoch {got}, session is at epoch {want}")
            }
            WireError::SessionLimit { max } => {
                write!(f, "session table full (max {max} sessions)")
            }
            WireError::UnknownDelta(d) => write!(f, "unknown delta op {d:?}"),
            WireError::BadDelta(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<GraphError> for WireError {
    fn from(e: GraphError) -> Self {
        WireError::Graph(e.to_string())
    }
}

impl From<GameError> for WireError {
    fn from(e: GameError) -> Self {
        WireError::Game(e.to_string())
    }
}

impl From<StateError> for WireError {
    fn from(e: StateError) -> Self {
        WireError::State(e.to_string())
    }
}

impl From<SubsidyError> for WireError {
    fn from(e: SubsidyError) -> Self {
        WireError::Subsidy(e.to_string())
    }
}

/// Serialize an `f64` in the canonical (shortest-round-trip) form.
pub fn fmt_f64(x: f64) -> String {
    format!("{x}")
}

/// Parse a finite `f64`; NaN/±inf and unparsable tokens are rejected.
pub fn parse_f64(field: &'static str, token: &str) -> Result<f64, WireError> {
    match token.parse::<f64>() {
        Ok(x) if x.is_finite() => Ok(x),
        _ => Err(WireError::BadFloat {
            field,
            token: token.to_string(),
        }),
    }
}

fn parse_usize(field: &'static str, token: &str) -> Result<usize, WireError> {
    token.parse::<usize>().map_err(|_| WireError::BadInt {
        field,
        token: token.to_string(),
    })
}

/// Parse a work budget (`rounds=`/`cap=`/`limit=`) with its ceiling.
fn parse_budget(field: &'static str, token: &str, max: usize) -> Result<usize, WireError> {
    let v = parse_usize(field, token)?;
    if v > max {
        return Err(WireError::TooLarge {
            what: field,
            got: v,
            max,
        });
    }
    Ok(v)
}

fn parse_u32(field: &'static str, token: &str) -> Result<u32, WireError> {
    token.parse::<u32>().map_err(|_| WireError::BadInt {
        field,
        token: token.to_string(),
    })
}

fn parse_u64(field: &'static str, token: &str) -> Result<u64, WireError> {
    token.parse::<u64>().map_err(|_| WireError::BadInt {
        field,
        token: token.to_string(),
    })
}

/// FNV-1a over the canonical bytes: the instance/result cache key.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A decoded game spec: the wire-level mirror of [`NetworkDesignGame`]
/// (plus per-player demands for the weighted extension).
#[derive(Clone, Debug, PartialEq)]
pub enum WireGame {
    /// `broadcast:<n>:<root>:<edges>` — one player per non-root node.
    Broadcast {
        /// Node count.
        n: usize,
        /// Broadcast root node.
        root: u32,
        /// Edge list `(u, v, w)` in edge-id order.
        edges: Vec<(u32, u32, f64)>,
    },
    /// `general:<n>:<edges>:<players>` — explicit `s/t` pairs.
    General {
        /// Node count.
        n: usize,
        /// Edge list in edge-id order.
        edges: Vec<(u32, u32, f64)>,
        /// Player `(source, terminal)` pairs.
        players: Vec<(u32, u32)>,
    },
    /// `weighted:<n>:<edges>:<players>:<demands>` — general game plus one
    /// positive demand per player.
    Weighted {
        /// Node count.
        n: usize,
        /// Edge list in edge-id order.
        edges: Vec<(u32, u32, f64)>,
        /// Player `(source, terminal)` pairs.
        players: Vec<(u32, u32)>,
        /// Per-player demands.
        demands: Vec<f64>,
    },
}

fn push_edges(out: &mut String, edges: &[(u32, u32, f64)]) {
    for (i, (u, v, w)) in edges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{u}/{v}/{}", fmt_f64(*w)));
    }
}

fn push_pairs(out: &mut String, pairs: &[(u32, u32)]) {
    for (i, (s, t)) in pairs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{s}/{t}"));
    }
}

fn push_floats(out: &mut String, xs: &[f64]) {
    for (i, x) in xs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&fmt_f64(*x));
    }
}

fn parse_edges(s: &str) -> Result<Vec<(u32, u32, f64)>, WireError> {
    if s.is_empty() {
        return Ok(Vec::new());
    }
    let mut out = Vec::new();
    for tok in s.split(',') {
        let mut parts = tok.split('/');
        let (u, v, w) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
            (Some(u), Some(v), Some(w), None) => (u, v, w),
            _ => {
                return Err(WireError::Truncated {
                    what: "edge (u/v/w)",
                    got: tok.to_string(),
                })
            }
        };
        out.push((
            parse_u32("edge endpoint", u)?,
            parse_u32("edge endpoint", v)?,
            parse_f64("edge weight", w)?,
        ));
        if out.len() > MAX_EDGES {
            return Err(WireError::TooLarge {
                what: "edges",
                got: out.len(),
                max: MAX_EDGES,
            });
        }
    }
    Ok(out)
}

fn parse_pairs(s: &str) -> Result<Vec<(u32, u32)>, WireError> {
    if s.is_empty() {
        return Ok(Vec::new());
    }
    let mut out = Vec::new();
    for tok in s.split(',') {
        let (a, b) = tok.split_once('/').ok_or_else(|| WireError::Truncated {
            what: "player pair (s/t)",
            got: tok.to_string(),
        })?;
        out.push((parse_u32("player pair", a)?, parse_u32("player pair", b)?));
        if out.len() > MAX_PLAYERS {
            return Err(WireError::TooLarge {
                what: "players",
                got: out.len(),
                max: MAX_PLAYERS,
            });
        }
    }
    Ok(out)
}

/// Parse a comma-joined float list (`b=`, demand sections).
pub fn parse_floats(field: &'static str, s: &str) -> Result<Vec<f64>, WireError> {
    if s.is_empty() {
        return Ok(Vec::new());
    }
    s.split(',').map(|t| parse_f64(field, t)).collect()
}

/// Parse a comma-joined edge-id *set*; a repeated id is a structured
/// `duplicate_edge` error (the value denotes a set, e.g. a spanning tree).
pub fn parse_edge_set(field: &'static str, s: &str) -> Result<Vec<EdgeId>, WireError> {
    if s.is_empty() {
        return Ok(Vec::new());
    }
    let mut out: Vec<EdgeId> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for tok in s.split(',') {
        let id = parse_u32(field, tok)?;
        if !seen.insert(id) {
            return Err(WireError::DuplicateEdge { field, id });
        }
        out.push(EdgeId(id));
        if out.len() > MAX_EDGES {
            return Err(WireError::TooLarge {
                what: field,
                got: out.len(),
                max: MAX_EDGES,
            });
        }
    }
    Ok(out)
}

/// Serialize an edge-id list in canonical (given) order.
pub fn fmt_edge_ids(edges: &[EdgeId]) -> String {
    let mut out = String::new();
    for (i, e) in edges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&e.0.to_string());
    }
    out
}

fn check_n(n: usize) -> Result<(), WireError> {
    if n > MAX_NODES {
        return Err(WireError::TooLarge {
            what: "nodes",
            got: n,
            max: MAX_NODES,
        });
    }
    Ok(())
}

impl WireGame {
    /// Canonical single-value serialization (the `game=` payload).
    pub fn serialize(&self) -> String {
        let mut out = String::new();
        match self {
            WireGame::Broadcast { n, root, edges } => {
                out.push_str(&format!("broadcast:{n}:{root}:"));
                push_edges(&mut out, edges);
            }
            WireGame::General { n, edges, players } => {
                out.push_str(&format!("general:{n}:"));
                push_edges(&mut out, edges);
                out.push(':');
                push_pairs(&mut out, players);
            }
            WireGame::Weighted {
                n,
                edges,
                players,
                demands,
            } => {
                out.push_str(&format!("weighted:{n}:"));
                push_edges(&mut out, edges);
                out.push(':');
                push_pairs(&mut out, players);
                out.push(':');
                push_floats(&mut out, demands);
            }
        }
        out
    }

    /// Parse a `game=` value.
    pub fn parse(s: &str) -> Result<WireGame, WireError> {
        let mut sections = s.split(':');
        let kind = sections.next().unwrap_or("");
        let rest: Vec<&str> = sections.collect();
        match kind {
            "broadcast" => {
                let [n, root, edges] = rest[..] else {
                    return Err(WireError::Truncated {
                        what: "broadcast game (n:root:edges)",
                        got: s.to_string(),
                    });
                };
                let n = parse_usize("nodes", n)?;
                check_n(n)?;
                Ok(WireGame::Broadcast {
                    n,
                    root: parse_u32("root", root)?,
                    edges: parse_edges(edges)?,
                })
            }
            "general" => {
                let [n, edges, players] = rest[..] else {
                    return Err(WireError::Truncated {
                        what: "general game (n:edges:players)",
                        got: s.to_string(),
                    });
                };
                let n = parse_usize("nodes", n)?;
                check_n(n)?;
                Ok(WireGame::General {
                    n,
                    edges: parse_edges(edges)?,
                    players: parse_pairs(players)?,
                })
            }
            "weighted" => {
                let [n, edges, players, demands] = rest[..] else {
                    return Err(WireError::Truncated {
                        what: "weighted game (n:edges:players:demands)",
                        got: s.to_string(),
                    });
                };
                let n = parse_usize("nodes", n)?;
                check_n(n)?;
                Ok(WireGame::Weighted {
                    n,
                    edges: parse_edges(edges)?,
                    players: parse_pairs(players)?,
                    demands: parse_floats("demands", demands)?,
                })
            }
            other => Err(WireError::Truncated {
                what: "game kind (broadcast|general|weighted)",
                got: other.to_string(),
            }),
        }
    }

    /// Build the in-memory game (and demands, for weighted specs),
    /// re-running every library-side validation.
    pub fn build(&self) -> Result<(NetworkDesignGame, Option<Demands>), WireError> {
        let build_graph = |n: usize, edges: &[(u32, u32, f64)]| -> Result<Graph, WireError> {
            let mut g = Graph::new(n);
            for &(u, v, w) in edges {
                g.add_edge(NodeId(u), NodeId(v), w)?;
            }
            Ok(g)
        };
        let to_players = |pairs: &[(u32, u32)]| -> Vec<Player> {
            pairs
                .iter()
                .map(|&(s, t)| Player {
                    source: NodeId(s),
                    terminal: NodeId(t),
                })
                .collect()
        };
        match self {
            WireGame::Broadcast { n, root, edges } => {
                let g = build_graph(*n, edges)?;
                let game = NetworkDesignGame::broadcast(g, NodeId(*root))?;
                Ok((game, None))
            }
            WireGame::General { n, edges, players } => {
                let g = build_graph(*n, edges)?;
                let game = NetworkDesignGame::new(g, to_players(players))?;
                Ok((game, None))
            }
            WireGame::Weighted {
                n,
                edges,
                players,
                demands,
            } => {
                let g = build_graph(*n, edges)?;
                let game = NetworkDesignGame::new(g, to_players(players))?;
                let d = Demands::new(&game, demands.clone()).ok_or(WireError::BadDemands)?;
                Ok((game, Some(d)))
            }
        }
    }

    /// The wire spec of an in-memory game (inverse of [`build`](Self::build)
    /// up to canonical ordering). Demands turn a general game into a
    /// `weighted:` spec.
    pub fn from_game(game: &NetworkDesignGame, demands: Option<&Demands>) -> WireGame {
        let g = game.graph();
        let edges: Vec<(u32, u32, f64)> = g.edges().map(|(_, e)| (e.u.0, e.v.0, e.w)).collect();
        if let Some(root) = game.root() {
            WireGame::Broadcast {
                n: g.node_count(),
                root: root.0,
                edges,
            }
        } else {
            let players: Vec<(u32, u32)> = game
                .players()
                .iter()
                .map(|p| (p.source.0, p.terminal.0))
                .collect();
            match demands {
                Some(d) => WireGame::Weighted {
                    n: g.node_count(),
                    edges,
                    players,
                    demands: (0..game.num_players()).map(|i| d.of(i)).collect(),
                },
                None => WireGame::General {
                    n: g.node_count(),
                    edges,
                    players,
                },
            }
        }
    }
}

/// The service methods (ISSUE 3's five engines plus `stats`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Method {
    /// SNE subsidies for a target tree (LPs (1)–(3), Theorem 6, weighted).
    Enforce,
    /// Best-response dynamics from a tree/state under a move order.
    Dynamics,
    /// Exact price of stability by spanning-tree enumeration.
    Pos,
    /// Section 5 all-or-nothing minimum subsidies.
    Aon,
    /// Batched Lemma 2 equilibrium certification of a tree state.
    Certify,
    /// Cache/runtime counters (no game; never cached).
    Stats,
    /// Registry exposition: every `ndg-obs` metric as sorted
    /// `name=value` fields (no game; never cached).
    Metrics,
    /// Flight-recorder snapshot: the retained wide events as seq-numbered
    /// `e<SEQ>=` fields (no game; never cached — the ring is volatile
    /// runtime state, like `stats` counters).
    Events,
    /// Load-balancer readiness: inflight/capacity, open sessions, cache
    /// fill, overload state (no game; never cached).
    Health,
    /// Open a delta session: pin the given instance and answer the
    /// `dynamics` question for it (never cached; stateful).
    Open,
    /// Apply one delta (`patch`/`fail`/`join`) to an open session and
    /// answer the `dynamics` question for the patched instance.
    Delta,
    /// Discard a session's incremental view, replay its journal from the
    /// pinned base, and answer for the reconstructed instance.
    Resync,
    /// Close a session (its id answers `session_expired` afterwards).
    Close,
}

impl Method {
    /// Wire token.
    pub fn as_str(self) -> &'static str {
        match self {
            Method::Enforce => "enforce",
            Method::Dynamics => "dynamics",
            Method::Pos => "pos",
            Method::Aon => "aon",
            Method::Certify => "certify",
            Method::Stats => "stats",
            Method::Metrics => "metrics",
            Method::Events => "events",
            Method::Health => "health",
            Method::Open => "open",
            Method::Delta => "delta",
            Method::Resync => "resync",
            Method::Close => "close",
        }
    }

    fn parse(s: &str) -> Result<Method, WireError> {
        Ok(match s {
            "enforce" => Method::Enforce,
            "dynamics" => Method::Dynamics,
            "pos" => Method::Pos,
            "aon" => Method::Aon,
            "certify" => Method::Certify,
            "stats" => Method::Stats,
            "metrics" => Method::Metrics,
            "events" => Method::Events,
            "health" => Method::Health,
            "open" => Method::Open,
            "delta" => Method::Delta,
            "resync" => Method::Resync,
            "close" => Method::Close,
            _ => return Err(WireError::UnknownMethod(s.to_string())),
        })
    }

    /// Whether this is a stateful session method (handled outside the
    /// canon/cache pipeline; responses never enter the result cache).
    pub fn is_session(self) -> bool {
        matches!(
            self,
            Method::Open | Method::Delta | Method::Resync | Method::Close
        )
    }
}

/// Whether a raw request line names a session method: the batch
/// scheduler's classifier, run before parsing (a line that then fails to
/// parse answers its error on whichever lane it ran).
pub(crate) fn is_session_line(line: &str) -> bool {
    line.split(';')
        .filter_map(|f| f.strip_prefix("method="))
        .any(|m| Method::parse(m).is_ok_and(Method::is_session))
}

/// One session delta: an O(Δ) perturbation of a pinned instance.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DeltaOp {
    /// `delta=patch;edge=E;w=W` — set edge `E`'s weight to `W`.
    Patch {
        /// Edge id in the session's *current* edge numbering.
        edge: u32,
        /// The new (finite, non-negative) weight.
        w: f64,
    },
    /// `delta=fail;edge=E` — remove edge `E`. Edge ids above `E` shift
    /// down by one; players whose strategy used `E` are rerouted onto a
    /// shortest path before the solve.
    Fail {
        /// Edge id to remove.
        edge: u32,
    },
    /// `delta=join;player=S/T` — append a player (general games only;
    /// her initial strategy is a shortest `S → T` path).
    Join {
        /// New player's source node.
        source: u32,
        /// New player's terminal node.
        terminal: u32,
    },
}

impl DeltaOp {
    /// The canonical `delta=…[;edge=…][;w=…][;player=…]` field group.
    pub fn serialize_fields(&self) -> String {
        match self {
            DeltaOp::Patch { edge, w } => {
                format!("delta=patch;edge={edge};w={}", fmt_f64(*w))
            }
            DeltaOp::Fail { edge } => format!("delta=fail;edge={edge}"),
            DeltaOp::Join { source, terminal } => {
                format!("delta=join;player={source}/{terminal}")
            }
        }
    }
}

/// `solver=` values for [`Method::Enforce`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Solver {
    /// LP (1) by cutting planes with the batched separation oracle.
    Lp1,
    /// LP (2), the polynomial-size reformulation.
    Lp2,
    /// LP (3), the O(|E|)-constraint broadcast LP.
    Lp3,
    /// The constructive Theorem 6 packing.
    T6,
}

impl Solver {
    /// Wire token.
    pub fn as_str(self) -> &'static str {
        match self {
            Solver::Lp1 => "lp1",
            Solver::Lp2 => "lp2",
            Solver::Lp3 => "lp3",
            Solver::T6 => "t6",
        }
    }

    fn parse(s: &str) -> Result<Solver, WireError> {
        Ok(match s {
            "lp1" => Solver::Lp1,
            "lp2" => Solver::Lp2,
            "lp3" => Solver::Lp3,
            "t6" => Solver::T6,
            _ => return Err(WireError::UnknownSolver(s.to_string())),
        })
    }
}

/// `order=` values for [`Method::Dynamics`] (mirror of
/// [`ndg_core::MoveOrder`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireOrder {
    /// Index order, round after round.
    RoundRobin,
    /// Fresh uniform order per round from the given seed.
    Random(u64),
    /// Largest-improvement player moves.
    MaxGain,
}

impl WireOrder {
    /// Wire token.
    pub fn serialize(self) -> String {
        match self {
            WireOrder::RoundRobin => "round-robin".to_string(),
            WireOrder::MaxGain => "max-gain".to_string(),
            WireOrder::Random(seed) => format!("random:{seed}"),
        }
    }

    fn parse(s: &str) -> Result<WireOrder, WireError> {
        if s == "round-robin" {
            return Ok(WireOrder::RoundRobin);
        }
        if s == "max-gain" {
            return Ok(WireOrder::MaxGain);
        }
        if let Some(seed) = s.strip_prefix("random:") {
            return Ok(WireOrder::Random(parse_u64("order seed", seed)?));
        }
        Err(WireError::UnknownOrder(s.to_string()))
    }

    /// The engine move order.
    pub fn to_move_order(self) -> ndg_core::MoveOrder {
        match self {
            WireOrder::RoundRobin => ndg_core::MoveOrder::RoundRobin,
            WireOrder::Random(seed) => ndg_core::MoveOrder::RandomOrder(seed),
            WireOrder::MaxGain => ndg_core::MoveOrder::MaxGain,
        }
    }
}

/// Default `rounds=` budget for `dynamics`.
pub const DEFAULT_ROUNDS: usize = 100_000;
/// Default `cap=` (spanning-tree enumeration ceiling) for `pos`.
pub const DEFAULT_CAP: usize = 1_000_000;
/// Default `limit=` (branch-and-bound node budget) for `aon`.
pub const DEFAULT_LIMIT: usize = 1_000_000;
/// Ceiling on client-supplied `rounds=`: like the instance-size limits,
/// work budgets must be bounded before a solver runs.
pub const MAX_ROUNDS: usize = 1_000_000;
/// Ceiling on client-supplied `cap=` (trees enumerated by `pos`).
pub const MAX_CAP: usize = 50_000_000;
/// Ceiling on client-supplied `limit=` (branch-and-bound nodes in `aon`).
pub const MAX_LIMIT: usize = 50_000_000;

/// A parsed request line.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id (echoed on the response line; not part
    /// of the cache key).
    pub id: String,
    /// The method to invoke.
    pub method: Method,
    /// The instance (`None` only for [`Method::Stats`]).
    pub game: Option<WireGame>,
    /// Target/initial spanning tree (edge ids).
    pub tree: Option<Vec<EdgeId>>,
    /// Explicit initial state for `dynamics` (per-player paths).
    pub state: Option<Vec<Vec<EdgeId>>>,
    /// Subsidy vector (one float per edge).
    pub subsidy: Option<Vec<f64>>,
    /// Enforcement solver (default [`Solver::Lp1`]).
    pub solver: Option<Solver>,
    /// Dynamics move order (default round-robin).
    pub order: Option<WireOrder>,
    /// Dynamics round budget (default [`DEFAULT_ROUNDS`]).
    pub rounds: Option<usize>,
    /// Enumeration cap for `pos` (default [`DEFAULT_CAP`]).
    pub cap: Option<usize>,
    /// Branch-and-bound node budget for `aon` (default [`DEFAULT_LIMIT`]).
    pub limit: Option<usize>,
    /// Whether the service may canonicalize the instance before keying
    /// and solving (`canon=0` opts out; default on). The resolved value
    /// is part of the canonical body — the two modes answer with
    /// different witness bits, so they must never share cache entries.
    pub canon: bool,
    /// Per-request deadline in milliseconds (`deadline_ms=`). Volatile
    /// like `id`: it bounds *this* attempt's wall-clock budget without
    /// changing the instance, so it is excluded from
    /// [`canonical_body`](Self::canonical_body) — a request that finishes
    /// within its deadline shares the cache entry of the undeadlined one,
    /// and a [`WireError::Deadline`] response is never cached.
    pub deadline_ms: Option<u64>,
    /// Volatile per-stage timing request (`trace=1`). Like `id` and
    /// `deadline_ms` it never enters
    /// [`canonical_body`](Self::canonical_body): asking *how long* a
    /// request took must not change which cache entry answers it, and
    /// the echoed `trace=` response field is a volatile header outside
    /// the deterministic payload.
    pub trace: bool,
    /// Client-chosen flight-recorder trace id (`trace_id=`). Volatile
    /// like `id`/`trace`: it only correlates this request's wide events
    /// (and is echoed as a `trace_id=` response header), so it never
    /// enters [`canonical_body`](Self::canonical_body). When absent, the
    /// router assigns a process-unique id at parse. On [`Method::Events`]
    /// it filters the snapshot to one trace.
    pub trace_id: Option<u64>,
    /// Session id (`session=`): required by `delta`/`resync`/`close`,
    /// forbidden elsewhere (`open` is answered with a server-assigned id).
    pub session: Option<String>,
    /// Delta epoch (`epoch=`): the applied-delta count the client last
    /// saw. Required by `delta` (optimistic-concurrency check), ignored
    /// by `resync`/`close`.
    pub epoch: Option<u64>,
    /// The delta op for [`Method::Delta`].
    pub delta: Option<DeltaOp>,
}

pub(crate) fn valid_id(id: &str) -> bool {
    !id.is_empty()
        && id.len() <= 64
        && id
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_' || b == b'.')
}

fn parse_state_paths(s: &str) -> Result<Vec<Vec<EdgeId>>, WireError> {
    s.split('|')
        .map(|path| {
            if path.is_empty() {
                Ok(Vec::new())
            } else {
                path.split(',')
                    .map(|tok| parse_u32("state path", tok).map(EdgeId))
                    .collect()
            }
        })
        .collect()
}

fn fmt_state_paths(paths: &[Vec<EdgeId>]) -> String {
    paths
        .iter()
        .map(|p| fmt_edge_ids(p))
        .collect::<Vec<_>>()
        .join("|")
}

/// Assemble a [`DeltaOp`] from the raw `delta=`/`edge=`/`w=`/`player=`
/// fields, rejecting missing or misplaced operands.
fn assemble_delta(
    kind: Option<String>,
    edge: Option<u32>,
    w: Option<f64>,
    player: Option<(u32, u32)>,
) -> Result<Option<DeltaOp>, WireError> {
    let Some(kind) = kind else {
        if edge.is_some() || w.is_some() || player.is_some() {
            return Err(WireError::BadDelta(
                "edge=/w=/player= need a delta= op".into(),
            ));
        }
        return Ok(None);
    };
    let op = match kind.as_str() {
        "patch" => {
            if player.is_some() {
                return Err(WireError::BadDelta("patch takes edge= and w= only".into()));
            }
            DeltaOp::Patch {
                edge: edge.ok_or(WireError::MissingField("edge"))?,
                w: w.ok_or(WireError::MissingField("w"))?,
            }
        }
        "fail" => {
            if w.is_some() || player.is_some() {
                return Err(WireError::BadDelta("fail takes edge= only".into()));
            }
            DeltaOp::Fail {
                edge: edge.ok_or(WireError::MissingField("edge"))?,
            }
        }
        "join" => {
            if edge.is_some() || w.is_some() {
                return Err(WireError::BadDelta("join takes player= only".into()));
            }
            let (source, terminal) = player.ok_or(WireError::MissingField("player"))?;
            DeltaOp::Join { source, terminal }
        }
        other => return Err(WireError::UnknownDelta(other.to_string())),
    };
    Ok(Some(op))
}

impl Request {
    /// A minimal request skeleton for `method` (callers fill in fields).
    pub fn new(id: impl Into<String>, method: Method) -> Request {
        Request {
            id: id.into(),
            method,
            game: None,
            tree: None,
            state: None,
            subsidy: None,
            solver: None,
            order: None,
            rounds: None,
            cap: None,
            limit: None,
            canon: true,
            deadline_ms: None,
            trace: false,
            trace_id: None,
            session: None,
            epoch: None,
            delta: None,
        }
    }

    /// Parse one request line. Trailing `\r`/`\n` must already be stripped
    /// (the servers do this).
    pub fn parse(line: &str) -> Result<Request, WireError> {
        if line.is_empty() {
            return Err(WireError::Empty);
        }
        let mut fields = line.split(';');
        let tag = fields.next().unwrap_or("");
        if tag != "ndg1" {
            return Err(WireError::BadTag(tag.to_string()));
        }
        let mut id: Option<String> = None;
        let mut method: Option<Method> = None;
        let mut game: Option<WireGame> = None;
        let mut tree: Option<Vec<EdgeId>> = None;
        let mut state: Option<Vec<Vec<EdgeId>>> = None;
        let mut subsidy: Option<Vec<f64>> = None;
        let mut solver: Option<Solver> = None;
        let mut order: Option<WireOrder> = None;
        let mut rounds: Option<usize> = None;
        let mut cap: Option<usize> = None;
        let mut limit: Option<usize> = None;
        let mut canon: Option<bool> = None;
        let mut deadline_ms: Option<u64> = None;
        let mut trace: Option<bool> = None;
        let mut trace_id: Option<u64> = None;
        let mut session: Option<String> = None;
        let mut epoch: Option<u64> = None;
        let mut delta_kind: Option<String> = None;
        let mut edge: Option<u32> = None;
        let mut w: Option<f64> = None;
        let mut player: Option<(u32, u32)> = None;

        for field in fields {
            let (key, value) = field
                .split_once('=')
                .ok_or_else(|| WireError::BareField(field.to_string()))?;
            let dup = |k: &str| WireError::DuplicateField(k.to_string());
            match key {
                "id" => {
                    if id.is_some() {
                        return Err(dup(key));
                    }
                    if !valid_id(value) {
                        return Err(WireError::BadId(value.to_string()));
                    }
                    id = Some(value.to_string());
                }
                "method" => {
                    if method.is_some() {
                        return Err(dup(key));
                    }
                    method = Some(Method::parse(value)?);
                }
                "game" => {
                    if game.is_some() {
                        return Err(dup(key));
                    }
                    game = Some(WireGame::parse(value)?);
                }
                "tree" => {
                    if tree.is_some() {
                        return Err(dup(key));
                    }
                    tree = Some(parse_edge_set("tree", value)?);
                }
                "state" => {
                    if state.is_some() {
                        return Err(dup(key));
                    }
                    state = Some(parse_state_paths(value)?);
                }
                "b" => {
                    if subsidy.is_some() {
                        return Err(dup(key));
                    }
                    subsidy = Some(parse_floats("b", value)?);
                }
                "solver" => {
                    if solver.is_some() {
                        return Err(dup(key));
                    }
                    solver = Some(Solver::parse(value)?);
                }
                "order" => {
                    if order.is_some() {
                        return Err(dup(key));
                    }
                    order = Some(WireOrder::parse(value)?);
                }
                "rounds" => {
                    if rounds.is_some() {
                        return Err(dup(key));
                    }
                    rounds = Some(parse_budget("rounds", value, MAX_ROUNDS)?);
                }
                "cap" => {
                    if cap.is_some() {
                        return Err(dup(key));
                    }
                    cap = Some(parse_budget("cap", value, MAX_CAP)?);
                }
                "limit" => {
                    if limit.is_some() {
                        return Err(dup(key));
                    }
                    limit = Some(parse_budget("limit", value, MAX_LIMIT)?);
                }
                "deadline_ms" => {
                    if deadline_ms.is_some() {
                        return Err(dup(key));
                    }
                    deadline_ms = Some(parse_u64("deadline_ms", value)?);
                }
                "trace_id" => {
                    if trace_id.is_some() {
                        return Err(dup(key));
                    }
                    trace_id = Some(parse_u64("trace_id", value)?);
                }
                "trace" => {
                    if trace.is_some() {
                        return Err(dup(key));
                    }
                    trace = Some(match value {
                        "0" => false,
                        "1" => true,
                        other => {
                            return Err(WireError::BadInt {
                                field: "trace",
                                token: other.to_string(),
                            })
                        }
                    });
                }
                "canon" => {
                    if canon.is_some() {
                        return Err(dup(key));
                    }
                    canon = Some(match value {
                        "0" => false,
                        "1" => true,
                        other => {
                            return Err(WireError::BadInt {
                                field: "canon",
                                token: other.to_string(),
                            })
                        }
                    });
                }
                "session" => {
                    if session.is_some() {
                        return Err(dup(key));
                    }
                    if !valid_id(value) {
                        return Err(WireError::BadId(value.to_string()));
                    }
                    session = Some(value.to_string());
                }
                "epoch" => {
                    if epoch.is_some() {
                        return Err(dup(key));
                    }
                    epoch = Some(parse_u64("epoch", value)?);
                }
                "delta" => {
                    if delta_kind.is_some() {
                        return Err(dup(key));
                    }
                    delta_kind = Some(value.to_string());
                }
                "edge" => {
                    if edge.is_some() {
                        return Err(dup(key));
                    }
                    edge = Some(parse_u32("edge", value)?);
                }
                "w" => {
                    if w.is_some() {
                        return Err(dup(key));
                    }
                    w = Some(parse_f64("w", value)?);
                }
                "player" => {
                    if player.is_some() {
                        return Err(dup(key));
                    }
                    let (s, t) = value.split_once('/').ok_or_else(|| WireError::Truncated {
                        what: "player pair (s/t)",
                        got: value.to_string(),
                    })?;
                    player = Some((parse_u32("player pair", s)?, parse_u32("player pair", t)?));
                }
                other => return Err(WireError::UnknownField(other.to_string())),
            }
        }

        let delta = assemble_delta(delta_kind, edge, w, player)?;
        let req = Request {
            id: id.ok_or(WireError::MissingField("id"))?,
            method: method.ok_or(WireError::MissingField("method"))?,
            game,
            tree,
            state,
            subsidy,
            solver,
            order,
            rounds,
            cap,
            limit,
            canon: canon.unwrap_or(true),
            deadline_ms,
            trace: trace.unwrap_or(false),
            trace_id,
            session,
            epoch,
            delta,
        };
        req.validate()?;
        Ok(req)
    }

    fn validate(&self) -> Result<(), WireError> {
        use Method as M;
        // Session addressing fields only make sense on session methods,
        // and a delta op only on `delta`.
        if self.session.is_some() && !matches!(self.method, M::Delta | M::Resync | M::Close) {
            return Err(WireError::UnknownField(
                "session (only delta/resync/close address a session)".into(),
            ));
        }
        if self.epoch.is_some() && self.method != M::Delta {
            return Err(WireError::UnknownField(
                "epoch (only delta is epoch-checked)".into(),
            ));
        }
        if self.delta.is_some() && self.method != M::Delta {
            return Err(WireError::UnknownField(
                "delta (only method=delta carries an op)".into(),
            ));
        }
        match self.method {
            Method::Stats | Method::Metrics | Method::Events | Method::Health => Ok(()),
            Method::Enforce | Method::Aon | Method::Certify => {
                if self.game.is_none() {
                    return Err(WireError::MissingField("game"));
                }
                if self.tree.is_none() {
                    return Err(WireError::MissingField("tree"));
                }
                Ok(())
            }
            Method::Dynamics | Method::Open => {
                if self.game.is_none() {
                    return Err(WireError::MissingField("game"));
                }
                if self.tree.is_none() && self.state.is_none() {
                    return Err(WireError::MissingField("tree (or state)"));
                }
                Ok(())
            }
            Method::Pos => {
                if self.game.is_none() {
                    return Err(WireError::MissingField("game"));
                }
                Ok(())
            }
            Method::Delta | Method::Resync | Method::Close => {
                if self.session.is_none() {
                    return Err(WireError::MissingField("session"));
                }
                // The instance is pinned at open; re-sending any part of
                // it on a session call is a client bug, not a merge.
                if self.game.is_some()
                    || self.tree.is_some()
                    || self.state.is_some()
                    || self.subsidy.is_some()
                {
                    return Err(WireError::UnknownField(
                        "game/tree/state/b (the instance is pinned at open)".into(),
                    ));
                }
                if self.method == Method::Delta {
                    if self.epoch.is_none() {
                        return Err(WireError::MissingField("epoch"));
                    }
                    if self.delta.is_none() {
                        return Err(WireError::MissingField("delta"));
                    }
                }
                Ok(())
            }
        }
    }

    /// Canonical request line (fixed field order; present fields only).
    /// The volatile `deadline_ms`, `trace`, and `trace_id` ride next to
    /// `id`, outside the canonical body.
    pub fn serialize(&self) -> String {
        let mut head = format!("ndg1;id={}", self.id);
        if let Some(ms) = self.deadline_ms {
            head.push_str(&format!(";deadline_ms={ms}"));
        }
        if self.trace {
            head.push_str(";trace=1");
        }
        if let Some(t) = self.trace_id {
            head.push_str(&format!(";trace_id={t}"));
        }
        format!("{head};{}", self.canonical_body())
    }

    /// The canonical body — everything except the correlation id, with
    /// method defaults resolved — whose FNV-1a hash is the cache key. Two
    /// requests with equal bodies are the same instance+query and must get
    /// byte-identical payloads, which is what makes result reuse sound.
    pub fn canonical_body(&self) -> String {
        let mut out = format!("method={}", self.method.as_str());
        // The default (`canon=1`) is resolved by *omission*, keeping every
        // pre-canonicalization body byte-stable; opting out gets its own
        // keyspace so literal-mode payloads never mix with mapped ones.
        if !self.canon {
            out.push_str(";canon=0");
        }
        match self.method {
            Method::Enforce => {
                let solver = self.solver.unwrap_or(Solver::Lp1);
                out.push_str(&format!(";solver={}", solver.as_str()));
            }
            // A session pins the same (order, rounds) knobs as a one-shot
            // dynamics solve — they resolve at `open` and govern every
            // delta answer.
            Method::Dynamics | Method::Open => {
                let order = self.order.unwrap_or(WireOrder::RoundRobin);
                out.push_str(&format!(";order={}", order.serialize()));
                out.push_str(&format!(
                    ";rounds={}",
                    self.rounds.unwrap_or(DEFAULT_ROUNDS)
                ));
            }
            Method::Pos => {
                out.push_str(&format!(";cap={}", self.cap.unwrap_or(DEFAULT_CAP)));
            }
            Method::Aon => {
                out.push_str(&format!(";limit={}", self.limit.unwrap_or(DEFAULT_LIMIT)));
            }
            Method::Delta | Method::Resync | Method::Close => {
                if let Some(s) = &self.session {
                    out.push_str(&format!(";session={s}"));
                }
                if let Some(e) = self.epoch {
                    out.push_str(&format!(";epoch={e}"));
                }
                if let Some(d) = &self.delta {
                    out.push(';');
                    out.push_str(&d.serialize_fields());
                }
            }
            Method::Certify | Method::Stats | Method::Metrics | Method::Events | Method::Health => {
            }
        }
        if let Some(tree) = &self.tree {
            out.push_str(&format!(";tree={}", fmt_edge_ids(tree)));
        }
        if let Some(state) = &self.state {
            out.push_str(&format!(";state={}", fmt_state_paths(state)));
        }
        if let Some(b) = &self.subsidy {
            out.push_str(";b=");
            push_floats(&mut out, b);
        }
        if let Some(game) = &self.game {
            out.push_str(&format!(";game={}", game.serialize()));
        }
        out
    }

    /// FNV-1a hash of [`canonical_body`](Self::canonical_body): the
    /// sharded-cache key.
    pub fn cache_key(&self) -> u64 {
        fnv1a64(self.canonical_body().as_bytes())
    }

    /// Build the subsidy assignment for this request (zero when absent),
    /// validated against the game's graph.
    pub fn subsidy_for(
        &self,
        game: &NetworkDesignGame,
    ) -> Result<ndg_core::SubsidyAssignment, WireError> {
        match &self.subsidy {
            None => Ok(ndg_core::SubsidyAssignment::zero(game.graph())),
            Some(b) => Ok(ndg_core::SubsidyAssignment::new(game.graph(), b.clone())?),
        }
    }

    /// Build the initial state for `dynamics`: the explicit `state=` paths
    /// if given, else the state induced by `tree=`.
    pub fn initial_state(&self, game: &NetworkDesignGame) -> Result<State, WireError> {
        if let Some(paths) = &self.state {
            return Ok(State::new(game, paths.clone())?);
        }
        let tree = self.tree.as_ref().ok_or(WireError::MissingField("tree"))?;
        let (state, _) = State::from_tree(game, tree)?;
        Ok(state)
    }
}

/// Fields of a response line that vary with cache occupancy/concurrency
/// or wall-clock timing (everything after them is the deterministic
/// payload). `trace` is the per-stage µs echo: pure header, never part
/// of the cached or compared payload bytes. `session`/`epoch`/`resynced`
/// are session addressing/recovery headers: a delta answer's *payload*
/// is specified byte-identical to a cold solve of the patched instance,
/// so everything session-specific stays outside it. `trace_id` is the
/// flight-recorder correlation echo — pure observability, same rule.
const VOLATILE_KEYS: [&str; 10] = [
    "id",
    "session",
    "epoch",
    "resynced",
    "cache",
    "hits",
    "misses",
    "evictions",
    "trace",
    "trace_id",
];

/// Names of the router pipeline stages, in execution order — the order
/// the `trace=` response field reports them in. `delta` is the session
/// stage (journal append + delta application); zero for stateless
/// requests.
pub const STAGE_NAMES: [&str; 7] = [
    "parse", "canon", "cache", "delta", "solve", "unmap", "write",
];

/// Format the volatile `trace=` response-header field from per-stage
/// microsecond laps (in [`STAGE_NAMES`] order).
pub fn trace_field(stage_us: &[u64; 7]) -> String {
    let mut out = String::from("trace=");
    for (i, (name, us)) in STAGE_NAMES.iter().zip(stage_us.iter()).enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(name);
        out.push(':');
        out.push_str(&us.to_string());
    }
    out
}

/// Splice a volatile header field into a response line directly after
/// its `id=` field (responses keep `id` first so clients can correlate
/// before parsing anything else). Appends at the end if the line has no
/// `id=` field — which no router-built response ever lacks.
pub fn insert_after_id(line: &str, field: &str) -> String {
    if let Some(start) = line.find(";id=") {
        let after = &line[start + 1..];
        match after.find(';') {
            Some(k) => format!("{};{};{}", &line[..start + 1 + k], field, &after[k + 1..]),
            None => format!("{line};{field}"),
        }
    } else {
        format!("{line};{field}")
    }
}

/// Assemble an `ok` response line.
pub fn ok_line(
    id: &str,
    cache: &str,
    hits: u64,
    misses: u64,
    evictions: u64,
    payload: &str,
) -> String {
    format!("ok;id={id};cache={cache};hits={hits};misses={misses};evictions={evictions};{payload}")
}

/// The deterministic tail of an `err` response line (`code=…;msg=…`),
/// with `msg` sanitized so the line stays single-line and field-safe.
/// This is what the result cache stores for admitted error responses —
/// the volatile `id` is re-attached per request by [`err_line_with`].
pub fn err_payload(e: &WireError) -> String {
    let msg: String = e
        .to_string()
        .chars()
        .map(|c| match c {
            ';' => ',',
            '\n' | '\r' => ' ',
            c => c,
        })
        .collect();
    match e {
        // Overload answers carry a machine-readable back-off hint so a
        // client can retry without parsing the message text.
        WireError::Overloaded { retry_ms } => {
            format!("code={};retry_ms={retry_ms};msg={msg}", e.code())
        }
        _ => format!("code={};msg={msg}", e.code()),
    }
}

/// Assemble an `err` response line.
pub fn err_line(id: &str, e: &WireError) -> String {
    err_line_with(id, &err_payload(e))
}

/// Assemble an `err` response line from a precomputed (possibly cached)
/// deterministic tail.
pub fn err_line_with(id: &str, payload: &str) -> String {
    format!("err;id={id};{payload}")
}

/// The deterministic part of a response line: the tag plus every field
/// that is not volatile (correlation id, cache status, counters). Two
/// service runs answering the same request must agree on this string
/// byte-for-byte regardless of thread count, batching, or cache state.
pub fn payload_of(line: &str) -> String {
    let mut parts = line.split(';');
    let tag = parts.next().unwrap_or("");
    let kept: Vec<&str> = parts
        .filter(|f| {
            let key = f.split_once('=').map(|(k, _)| k).unwrap_or("");
            !VOLATILE_KEYS.contains(&key)
        })
        .collect();
    if kept.is_empty() {
        tag.to_string()
    } else {
        format!("{tag};{}", kept.join(";"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn game_specs_round_trip() {
        let specs = [
            "broadcast:4:0:0/1/1,1/2/0.5,2/3/2,3/0/1.25",
            "general:3:0/1/1,1/2/2:0/2,2/1",
            "weighted:3:0/1/1,1/2/2:0/2,2/1:1.5,2",
            "broadcast:2:1:0/1/0", // zero-weight edge
        ];
        for s in specs {
            let g = WireGame::parse(s).unwrap();
            assert_eq!(g.serialize(), s, "canonical form must be stable");
            let (game, demands) = g.build().unwrap();
            let back = WireGame::from_game(&game, demands.as_ref());
            assert_eq!(back, g, "build/from_game must invert parse");
        }
    }

    #[test]
    fn floats_round_trip_exactly() {
        for &x in &[
            0.0,
            -0.0,
            1.0,
            0.1,
            1.0 / 3.0,
            1e-12,
            12345.6789,
            f64::MIN_POSITIVE,
        ] {
            let s = fmt_f64(x);
            let y = parse_f64("t", &s).unwrap();
            assert_eq!(x.to_bits(), y.to_bits(), "{x} → {s} → {y}");
        }
        assert!(parse_f64("t", "nan").is_err());
        assert!(parse_f64("t", "inf").is_err());
        assert!(parse_f64("t", "-inf").is_err());
        assert!(parse_f64("t", "1.0.0").is_err());
    }

    #[test]
    fn request_parse_serialize_round_trip() {
        let line = "ndg1;id=r-1;method=dynamics;order=random:42;rounds=500;\
                    tree=0,1,2;game=broadcast:4:0:0/1/1,1/2/1,2/3/1,3/0/1";
        let req = Request::parse(line).unwrap();
        assert_eq!(req.method, Method::Dynamics);
        assert_eq!(req.order, Some(WireOrder::Random(42)));
        let re = Request::parse(&req.serialize()).unwrap();
        assert_eq!(re, req);
        // The cache key ignores the id but fixes everything else.
        let mut other = req.clone();
        other.id = "different".into();
        assert_eq!(other.cache_key(), req.cache_key());
        other.rounds = Some(501);
        assert_ne!(other.cache_key(), req.cache_key());
    }

    #[test]
    fn defaults_resolve_into_the_cache_key() {
        let with_default =
            Request::parse("ndg1;id=a;method=enforce;solver=lp1;tree=0;game=broadcast:2:0:0/1/1")
                .unwrap();
        let implicit =
            Request::parse("ndg1;id=b;method=enforce;tree=0;game=broadcast:2:0:0/1/1").unwrap();
        assert_eq!(with_default.cache_key(), implicit.cache_key());
    }

    #[test]
    fn structured_errors_never_panic() {
        let cases: [(&str, &str); 39] = [
            ("", "empty"),
            ("ndg0;id=a;method=stats", "bad_tag"),
            ("ndg1;id=a", "missing_field"),
            ("ndg1;method=stats", "missing_field"),
            ("ndg1;id=a;method=fly", "unknown_method"),
            ("ndg1;id=a;method=stats;bogus=1", "unknown_field"),
            ("ndg1;id=a;method=stats;id=b", "duplicate_field"),
            ("ndg1;id=a;method=stats;orphan", "bare_field"),
            ("ndg1;id=bad id!;method=stats", "bad_id"),
            ("ndg1;id=a;method=pos;game=broadcast:3:0", "truncated"),
            (
                "ndg1;id=a;method=pos;game=broadcast:3:0:0/1/nan,1/2/1",
                "bad_float",
            ),
            (
                "ndg1;id=a;method=enforce;tree=0,0;game=broadcast:2:0:0/1/1",
                "duplicate_edge",
            ),
            (
                "ndg1;id=a;method=pos;game=broadcast:99999999:0:",
                "too_large",
            ),
            (
                "ndg1;id=a;method=dynamics;game=broadcast:2:0:0/1/1",
                "missing_field",
            ),
            ("ndg1;id=a;method=stats;canon=2", "bad_int"),
            ("ndg1;id=a;method=stats;canon=", "bad_int"),
            ("ndg1;id=a;method=stats;canon=0;canon=1", "duplicate_field"),
            ("ndg1;id=a;method=stats;trace=2", "bad_int"),
            ("ndg1;id=a;method=stats;trace=", "bad_int"),
            ("ndg1;id=a;method=stats;trace=1;trace=0", "duplicate_field"),
            ("ndg1;id=a;method=events;trace_id=soon", "bad_int"),
            ("ndg1;id=a;method=events;trace_id=", "bad_int"),
            (
                "ndg1;id=a;method=health;trace_id=1;trace_id=2",
                "duplicate_field",
            ),
            // Session grammar: every malformed line is a structured
            // error, never a panic — and none of these can be cached as
            // ok (session requests bypass the result cache entirely).
            ("ndg1;id=a;method=delta", "missing_field"),
            (
                "ndg1;id=a;method=delta;session=bad id!;epoch=0;delta=fail;edge=0",
                "bad_id",
            ),
            (
                // A 65-char session id is overlong (truncated-id class).
                "ndg1;id=a;method=delta;session=sssssssssssssssssssssssssssssssssssssssssssssssssssssssssssssssss;epoch=0;delta=fail;edge=0",
                "bad_id",
            ),
            ("ndg1;id=a;method=delta;session=s1", "missing_field"),
            ("ndg1;id=a;method=delta;session=s1;epoch=0", "missing_field"),
            (
                "ndg1;id=a;method=delta;session=s1;epoch=zero;delta=fail;edge=0",
                "bad_int",
            ),
            (
                "ndg1;id=a;method=delta;session=s1;epoch=0;delta=warp;edge=0",
                "unknown_delta",
            ),
            (
                "ndg1;id=a;method=delta;session=s1;epoch=0;delta=patch;edge=0;w=nan",
                "bad_float",
            ),
            (
                "ndg1;id=a;method=delta;session=s1;epoch=0;delta=patch;edge=0;w=inf",
                "bad_float",
            ),
            (
                "ndg1;id=a;method=delta;session=s1;epoch=0;delta=patch;edge=0",
                "missing_field",
            ),
            (
                "ndg1;id=a;method=delta;session=s1;epoch=0;delta=fail;edge=0;w=1",
                "bad_delta",
            ),
            (
                "ndg1;id=a;method=delta;session=s1;epoch=0;edge=3",
                "bad_delta",
            ),
            (
                "ndg1;id=a;method=delta;session=s1;epoch=0;delta=join;player=3",
                "truncated",
            ),
            (
                "ndg1;id=a;method=delta;session=s1;epoch=0;delta=fail;edge=0;game=broadcast:2:0:0/1/1",
                "unknown_field",
            ),
            (
                "ndg1;id=a;method=open;session=s1;tree=0;game=broadcast:2:0:0/1/1",
                "unknown_field",
            ),
            ("ndg1;id=a;method=open;game=broadcast:2:0:0/1/1", "missing_field"),
        ];
        for (line, code) in cases {
            let err = Request::parse(line).unwrap_err();
            assert_eq!(err.code(), code, "line {line:?} → {err:?}");
        }
    }

    #[test]
    fn canon_opt_out_round_trips_and_splits_the_keyspace() {
        let off =
            Request::parse("ndg1;id=a;method=certify;canon=0;tree=0;game=broadcast:2:0:0/1/1")
                .unwrap();
        assert!(!off.canon);
        // canon=0 serializes back out and is a parse fixed point.
        let line = off.serialize();
        assert!(line.contains(";canon=0;"), "{line}");
        assert_eq!(Request::parse(&line).unwrap(), off);
        // Explicit canon=1 resolves by omission, like the other defaults…
        let on_explicit =
            Request::parse("ndg1;id=a;method=certify;canon=1;tree=0;game=broadcast:2:0:0/1/1")
                .unwrap();
        let on_implicit =
            Request::parse("ndg1;id=a;method=certify;tree=0;game=broadcast:2:0:0/1/1").unwrap();
        assert!(on_explicit.canon && on_implicit.canon);
        assert_eq!(on_explicit.cache_key(), on_implicit.cache_key());
        // …while opting out moves the request into its own keyspace.
        assert_ne!(off.cache_key(), on_implicit.cache_key());
    }

    #[test]
    fn deadline_ms_is_volatile_like_id() {
        let with = Request::parse(
            "ndg1;id=a;method=enforce;deadline_ms=250;tree=0;game=broadcast:2:0:0/1/1",
        )
        .unwrap();
        assert_eq!(with.deadline_ms, Some(250));
        let without =
            Request::parse("ndg1;id=a;method=enforce;tree=0;game=broadcast:2:0:0/1/1").unwrap();
        // Same canonical body and cache key: a solve that beats its
        // deadline populates/hits the same entry as an undeadlined one.
        assert_eq!(with.canonical_body(), without.canonical_body());
        assert_eq!(with.cache_key(), without.cache_key());
        // serialize/parse round-trips the field (alongside the usual
        // default-resolution, which canonicalizes `solver=` in explicitly).
        let line = with.serialize();
        assert!(line.contains(";deadline_ms=250;"), "{line}");
        let back = Request::parse(&line).unwrap();
        assert_eq!(back.deadline_ms, Some(250));
        assert_eq!(back.canonical_body(), with.canonical_body());
        // Duplicates and garbage are rejected like any other field.
        assert_eq!(
            Request::parse("ndg1;id=a;method=stats;deadline_ms=1;deadline_ms=2")
                .unwrap_err()
                .code(),
            "duplicate_field"
        );
        assert_eq!(
            Request::parse("ndg1;id=a;method=stats;deadline_ms=soon")
                .unwrap_err()
                .code(),
            "bad_int"
        );
    }

    #[test]
    fn trace_is_volatile_like_id_and_deadline() {
        let with =
            Request::parse("ndg1;id=a;method=enforce;trace=1;tree=0;game=broadcast:2:0:0/1/1")
                .unwrap();
        assert!(with.trace);
        let without =
            Request::parse("ndg1;id=b;method=enforce;tree=0;game=broadcast:2:0:0/1/1").unwrap();
        // Neither trace nor deadline_ms may leak into the canonical
        // body or the cache key: a traced request must hit the exact
        // cache entry its untraced twin populated.
        let both = Request::parse(
            "ndg1;id=c;method=enforce;trace=1;deadline_ms=250;tree=0;game=broadcast:2:0:0/1/1",
        )
        .unwrap();
        for req in [&with, &both] {
            assert_eq!(req.canonical_body(), without.canonical_body());
            assert_eq!(req.cache_key(), without.cache_key());
            assert!(!req.canonical_body().contains("trace"));
            assert!(!req.canonical_body().contains("deadline"));
        }
        // serialize/parse round-trips the flag, outside the body.
        let line = with.serialize();
        assert!(line.contains(";trace=1;"), "{line}");
        let back = Request::parse(&line).unwrap();
        assert!(back.trace);
        assert_eq!(back.canonical_body(), without.canonical_body());
        // trace=0 resolves by omission like the other defaults.
        let explicit_off =
            Request::parse("ndg1;id=a;method=enforce;trace=0;tree=0;game=broadcast:2:0:0/1/1")
                .unwrap();
        assert!(!explicit_off.trace);
        assert!(!explicit_off.serialize().contains("trace"));
    }

    #[test]
    fn trace_id_is_volatile_like_id_and_trace() {
        let with =
            Request::parse("ndg1;id=a;method=enforce;trace_id=77;tree=0;game=broadcast:2:0:0/1/1")
                .unwrap();
        assert_eq!(with.trace_id, Some(77));
        let without =
            Request::parse("ndg1;id=b;method=enforce;tree=0;game=broadcast:2:0:0/1/1").unwrap();
        // trace_id never reaches the canonical body or cache key: a
        // traced request must hit the exact entry its untraced twin
        // populated, byte-identically.
        assert_eq!(with.canonical_body(), without.canonical_body());
        assert_eq!(with.cache_key(), without.cache_key());
        assert!(!with.canonical_body().contains("trace_id"));
        // serialize/parse round-trips the field, outside the body.
        let line = with.serialize();
        assert!(line.contains(";trace_id=77;"), "{line}");
        let back = Request::parse(&line).unwrap();
        assert_eq!(back.trace_id, Some(77));
        assert_eq!(back.canonical_body(), without.canonical_body());
        // The trace_id= response echo is a volatile header, stripped by
        // payload_of like id/trace/session.
        let plain = ok_line("x9", "hit", 3, 4, 0, "cost=1.5;b=0,1.5");
        let echoed = insert_after_id(&plain, "trace_id=77");
        assert_eq!(
            echoed,
            "ok;id=x9;trace_id=77;cache=hit;hits=3;misses=4;evictions=0;cost=1.5;b=0,1.5"
        );
        assert_eq!(payload_of(&echoed), payload_of(&plain));
    }

    #[test]
    fn events_and_health_parse_like_stats() {
        for m in ["events", "health"] {
            let req = Request::parse(&format!("ndg1;id=a;method={m}")).unwrap();
            assert!(!req.method.is_session());
            // Round-trip, and a body with no instance payload at all.
            assert_eq!(Request::parse(&req.serialize()).unwrap(), req);
            assert_eq!(req.canonical_body(), format!("method={m}"));
            // Instance fields are simply ignored-if-absent; a game is
            // not required (validated like stats/metrics).
            assert!(Request::parse(&format!("ndg1;id=a;method={m};trace_id=3")).is_ok());
        }
        // events with a trace_id filter parses and keeps it volatile.
        let f = Request::parse("ndg1;id=a;method=events;trace_id=9").unwrap();
        assert_eq!(f.trace_id, Some(9));
        assert!(!f.canonical_body().contains("trace_id"));
    }

    #[test]
    fn trace_echo_is_a_header_outside_the_payload() {
        let spans = trace_field(&[3, 45, 1, 0, 920, 2, 1]);
        assert_eq!(
            spans,
            "trace=parse:3,canon:45,cache:1,delta:0,solve:920,unmap:2,write:1"
        );
        let plain = ok_line("x9", "hit", 3, 4, 0, "cost=1.5;b=0,1.5");
        let traced = insert_after_id(&plain, &spans);
        assert_eq!(
            traced,
            "ok;id=x9;trace=parse:3,canon:45,cache:1,delta:0,solve:920,unmap:2,write:1;\
             cache=hit;hits=3;misses=4;evictions=0;cost=1.5;b=0,1.5"
        );
        // The deterministic payload is byte-identical with and without
        // the trace header.
        assert_eq!(payload_of(&traced), payload_of(&plain));
        let err = insert_after_id(&err_line("x9", &WireError::NotBroadcast), &spans);
        assert_eq!(
            payload_of(&err),
            "err;code=not_broadcast;msg=method requires a broadcast game"
        );
    }

    #[test]
    fn robustness_error_codes_and_payloads() {
        assert_eq!(WireError::Deadline.code(), "deadline");
        assert_eq!(
            err_payload(&WireError::Deadline),
            "code=deadline;msg=deadline exceeded before the solve completed"
        );
        let shed = WireError::Overloaded { retry_ms: 50 };
        assert_eq!(shed.code(), "overloaded");
        assert_eq!(
            err_payload(&shed),
            "code=overloaded;retry_ms=50;msg=server at admission capacity, retry later"
        );
        let line = err_line("q7", &shed);
        assert!(line.starts_with("err;id=q7;code=overloaded;retry_ms=50;"));
    }

    #[test]
    fn payload_strips_only_volatile_fields() {
        let line = ok_line("x9", "hit", 3, 4, 0, "cost=1.5;b=0,1.5");
        assert_eq!(payload_of(&line), "ok;cost=1.5;b=0,1.5");
        let err = err_line("x9", &WireError::NotBroadcast);
        assert_eq!(
            payload_of(&err),
            "err;code=not_broadcast;msg=method requires a broadcast game"
        );
    }

    #[test]
    fn session_requests_round_trip() {
        let open = Request::parse(
            "ndg1;id=o1;method=open;order=max-gain;rounds=64;tree=0,1;\
             game=broadcast:3:0:0/1/1,1/2/1,0/2/3",
        )
        .unwrap();
        assert_eq!(open.method, Method::Open);
        assert_eq!(Request::parse(&open.serialize()).unwrap(), open);
        // Open resolves (order, rounds) into the body like dynamics does.
        assert!(open
            .canonical_body()
            .starts_with("method=open;order=max-gain;rounds=64;"));

        for line in [
            "ndg1;id=d1;method=delta;session=s1;epoch=3;delta=patch;edge=2;w=0.5",
            "ndg1;id=d2;method=delta;session=s1;epoch=4;delta=fail;edge=0",
            "ndg1;id=d3;method=delta;session=s1;epoch=5;delta=join;player=1/4",
            "ndg1;id=r1;method=resync;session=s1",
            "ndg1;id=c1;method=close;session=s1",
        ] {
            let req = Request::parse(line).unwrap();
            assert_eq!(Request::parse(&req.serialize()).unwrap(), req, "{line}");
        }
        let patch =
            Request::parse("ndg1;id=d1;method=delta;session=s1;epoch=3;delta=patch;edge=2;w=0.5")
                .unwrap();
        assert_eq!(patch.session.as_deref(), Some("s1"));
        assert_eq!(patch.epoch, Some(3));
        assert_eq!(patch.delta, Some(DeltaOp::Patch { edge: 2, w: 0.5 }));
    }

    #[test]
    fn session_response_headers_are_volatile() {
        // session/epoch/resynced ride next to id, outside the payload:
        // a delta answer's payload stays byte-identical to the cold
        // solve of the patched instance.
        let plain = ok_line("d1", "off", 0, 0, 0, "converged=true;moves=0");
        let with = insert_after_id(&plain, "session=s1;epoch=4;resynced=1");
        assert_eq!(
            with,
            "ok;id=d1;session=s1;epoch=4;resynced=1;cache=off;hits=0;misses=0;evictions=0;\
             converged=true;moves=0"
        );
        assert_eq!(payload_of(&with), payload_of(&plain));
        assert_eq!(payload_of(&with), "ok;converged=true;moves=0");
    }

    #[test]
    fn session_error_codes_are_stable() {
        assert_eq!(
            WireError::UnknownSession("s9".into()).code(),
            "unknown_session"
        );
        assert_eq!(
            WireError::SessionExpired("s1".into()).code(),
            "session_expired"
        );
        assert_eq!(
            WireError::StaleEpoch { got: 1, want: 2 }.code(),
            "stale_epoch"
        );
        assert_eq!(WireError::SessionLimit { max: 0 }.code(), "session_limit");
        assert_eq!(
            err_payload(&WireError::StaleEpoch { got: 1, want: 2 }),
            "code=stale_epoch;msg=stale epoch 1, session is at epoch 2"
        );
    }
}
