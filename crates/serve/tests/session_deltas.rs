//! Crash-safe delta sessions, property-tested end to end — the PR 9
//! byte-identity contract:
//!
//! For random delta sequences (patch / fail / join, 1–64 deltas) over
//! random broadcast and general bases, **every** session answer must be
//! payload-byte-identical to a cold solve of the patched instance on a
//! fresh sequential cache-off router — the router exposes the synthesized
//! cold request through `session_cold_line` precisely so this test can
//! diff against the specification rather than against the implementation.
//!
//! The property is asserted at executor widths 1 and 8 (the `NDG_THREADS`
//! extremes CI also sweeps), both without faults and with an injected
//! panic hook firing mid-sequence: a panicked delta must come back
//! `resynced=1` with the journal replayed through the op — and the very
//! same bytes a cold solve produces. Invalid ops (disconnecting fails,
//! joins on broadcast games) must answer structured errors with the epoch
//! unchanged, and the next valid delta must continue as if they never
//! happened (write-ahead rollback).
//!
//! Each session draws its audit cadence from {0, 1, 3, 8} and issues
//! client `resync`s at random epochs (some of them panicking, which
//! leaves the session for the next op to recover), so replay checkpoints
//! advance at irregular epochs. Replay work is bounded by that cadence:
//! at `audit_every=8` no request replays more than 8 journal ops.

use ndg_exec::Executor;
use ndg_serve::{payload_of, Router, SessionConfig};
use rand::prelude::*;
use rand::rngs::StdRng;
use std::sync::Arc;

/// A random connected instance with wire-clean quarter-integer weights.
/// Returns `(game spec, tree field, node count, edge count, general?)`.
fn random_base(rng: &mut StdRng) -> (String, String, usize, usize, bool) {
    let n = rng.random_range(4..10usize);
    // Random spanning tree first (edge ids 0..n-2), then extra edges.
    let mut edges: Vec<(usize, usize, f64)> = (1..n)
        .map(|v| {
            let u = rng.random_range(0..v);
            (u, v, rng.random_range(1..=8u32) as f64 / 4.0)
        })
        .collect();
    let mut seen: std::collections::HashSet<(usize, usize)> = edges
        .iter()
        .map(|&(u, v, _)| (u.min(v), u.max(v)))
        .collect();
    for _ in 0..rng.random_range(0..n) {
        let u = rng.random_range(0..n);
        let v = rng.random_range(0..n);
        if u != v && seen.insert((u.min(v), u.max(v))) {
            edges.push((u, v, rng.random_range(1..=8u32) as f64 / 4.0));
        }
    }
    let m = edges.len();
    let spec: Vec<String> = edges
        .iter()
        .map(|&(u, v, w)| format!("{u}/{v}/{w}"))
        .collect();
    let tree: Vec<String> = (0..n - 1).map(|i| i.to_string()).collect();
    let general = rng.random_bool(0.5);
    let game = if general {
        let players: Vec<String> = (0..rng.random_range(2..4usize))
            .map(|_| {
                let s = rng.random_range(0..n);
                let t = (s + 1 + rng.random_range(0..n - 1)) % n;
                format!("{s}/{t}")
            })
            .collect();
        format!("general:{n}:{}:{}", spec.join(","), players.join(","))
    } else {
        format!("broadcast:{n}:0:{}", spec.join(","))
    };
    (game, tree.join(","), n, m, general)
}

/// One random session driven to convergence against cold re-solves.
fn drive_session(rng: &mut StdRng, wide: bool, faults: bool) {
    let ex = if wide {
        Executor::new(8)
    } else {
        Executor::sequential()
    };
    let mut router = Router::with_canon(ex, 64, true);
    router.set_session_config(SessionConfig {
        audit_every: [0, 1, 3, 8][rng.random_range(0..4usize)],
        max_sessions: 8,
    });
    if faults {
        router.set_fault_hook(Some(Arc::new(|req: &ndg_serve::Request| {
            if req.id.starts_with("boom") {
                panic!("session-deltas injected fault (id={})", req.id);
            }
        })));
    }
    let (game, tree, n, mut m, _general) = random_base(rng);
    let open = router.handle_line(&format!("ndg1;id=o;method=open;tree={tree};game={game}"));
    assert!(open.starts_with("ok;id=o;session="), "{open}");
    let sid = open
        .split(';')
        .find_map(|f| f.strip_prefix("session="))
        .expect("open response carries a session id")
        .to_string();

    // The open answer itself must equal a cold solve of the pinned base.
    let assert_cold = |router: &Router, resp: &str, what: &str| {
        let cold_line = router
            .session_cold_line(&sid)
            .expect("session is still open");
        let cold = Router::with_canon(Executor::sequential(), 0, false).handle_line(&cold_line);
        assert_eq!(
            payload_of(resp),
            payload_of(&cold),
            "{what}: session answer diverged from its cold solve"
        );
    };
    assert_cold(&router, &open, "open");

    let mut epoch = 0u64;
    // A panicked resync leaves the session dirty: the next op recovers.
    let mut dirty = false;
    let deltas = rng.random_range(1..=64usize);
    for k in 0..deltas {
        if rng.random_bool(0.15) {
            let boom = faults && rng.random_bool(0.3);
            let id = if boom {
                format!("boomrs{k}")
            } else {
                format!("rs{k}")
            };
            let rs = router.handle_line(&format!("ndg1;id={id};method=resync;session={sid}"));
            if boom {
                assert!(
                    rs.starts_with(&format!("err;id={id};code=internal;")),
                    "{rs}"
                );
                dirty = true;
            } else {
                assert!(rs.contains(&format!(";epoch={epoch};resynced=1;")), "{rs}");
                assert_cold(&router, &rs, &format!("resync before delta {k}"));
                dirty = false;
            }
        }
        let op = match rng.random_range(0..10u32) {
            // Disconnecting fails and joins on broadcast games answer
            // structured errors — also part of the property (rollback).
            7 => format!("delta=fail;edge={}", rng.random_range(0..m)),
            8 | 9 => {
                let s = rng.random_range(0..n);
                let t = (s + 1 + rng.random_range(0..n - 1)) % n;
                format!("delta=join;player={s}/{t}")
            }
            _ => format!(
                "delta=patch;edge={};w={}",
                rng.random_range(0..m),
                rng.random_range(1..=8u32) as f64 / 4.0
            ),
        };
        let boom = faults && k % 7 == 3;
        let id = if boom {
            format!("boom{k}")
        } else {
            format!("d{k}")
        };
        let resp = router.handle_line(&format!(
            "ndg1;id={id};method=delta;session={sid};epoch={epoch};{op}"
        ));
        if resp.starts_with("ok;") {
            epoch += 1;
            if op.starts_with("delta=fail") {
                m -= 1;
            }
            let got_epoch = resp
                .split(';')
                .find_map(|f| f.strip_prefix("epoch="))
                .expect("session ok carries epoch");
            assert_eq!(got_epoch, epoch.to_string(), "{resp}");
            if boom || dirty {
                assert!(
                    resp.contains(";resynced=1;") || resp.contains(";resynced=1"),
                    "recovered delta {id} not flagged resynced: {resp}"
                );
            }
            dirty = false;
            assert_cold(&router, &resp, &format!("delta {k} (epoch {epoch})"));
        } else {
            // Structured rejection: epoch unchanged, journal rolled back,
            // and the committed view still matches its cold solve.
            assert!(resp.starts_with(&format!("err;id={id};")), "{resp}");
            let rs = router.handle_line(&format!("ndg1;id=r{k};method=resync;session={sid}"));
            assert!(rs.contains(&format!(";epoch={epoch};")), "{rs}");
            assert_cold(&router, &rs, &format!("resync after rejected delta {k}"));
            dirty = false;
        }
    }
    let close = router.handle_line(&format!("ndg1;id=c;method=close;session={sid}"));
    assert!(
        close.ends_with(&format!("closed=1;deltas={epoch}")),
        "{close}"
    );
}

#[test]
fn random_delta_sequences_match_cold_solves_without_faults() {
    let mut rng = StdRng::seed_from_u64(0x9E16);
    for case in 0..6 {
        drive_session(&mut rng, case % 2 == 1, false);
    }
}

#[test]
fn random_delta_sequences_match_cold_solves_under_injected_panics() {
    let mut rng = StdRng::seed_from_u64(0x9E17);
    for case in 0..6 {
        drive_session(&mut rng, case % 2 == 1, true);
    }
}

#[test]
fn replays_never_run_more_ops_than_the_audit_cadence() {
    // A 300-delta session at the default cadence, with client resyncs at
    // random epochs and injected panics on deltas and resyncs: every
    // replay starts from the newest replayed view, so no request replays
    // more than `audit_every` journal ops.
    let mut rng = StdRng::seed_from_u64(0x9E18);
    let mut router = Router::with_canon(Executor::sequential(), 64, true);
    router.set_session_config(SessionConfig {
        audit_every: 8,
        max_sessions: 8,
    });
    router.set_fault_hook(Some(Arc::new(|req: &ndg_serve::Request| {
        if req.id.starts_with("boom") {
            panic!("replay-bound injected fault (id={})", req.id);
        }
    })));
    let (game, tree, _n, m, _general) = random_base(&mut rng);
    let open = router.handle_line(&format!("ndg1;id=o;method=open;tree={tree};game={game}"));
    let sid = open
        .split(';')
        .find_map(|f| f.strip_prefix("session="))
        .expect("open response carries a session id")
        .to_string();
    let mut steps = router.sessions().snapshot().replay_steps;
    let mut check = |router: &Router, what: &str| {
        let now = router.sessions().snapshot().replay_steps;
        assert!(now - steps <= 8, "{what} replayed {} ops", now - steps);
        steps = now;
    };
    for epoch in 0..300u64 {
        if rng.random_bool(0.1) {
            let id = if rng.random_bool(0.3) { "boomrs" } else { "rs" };
            router.handle_line(&format!("ndg1;id={id}{epoch};method=resync;session={sid}"));
            check(&router, &format!("resync at epoch {epoch}"));
        }
        let id = if rng.random_bool(0.1) { "boom" } else { "d" };
        let resp = router.handle_line(&format!(
            "ndg1;id={id}{epoch};method=delta;session={sid};epoch={epoch};delta=patch;edge={};w={}",
            rng.random_range(0..m),
            rng.random_range(1..=8u32) as f64 / 4.0
        ));
        assert!(resp.starts_with(&format!("ok;id={id}{epoch};")), "{resp}");
        check(&router, &format!("delta to epoch {}", epoch + 1));
    }
    let snap = router.sessions().snapshot();
    assert_eq!(snap.deltas, 300, "{snap:?}");
    assert!(snap.replay_steps > 300 / 8, "{snap:?}");
}
