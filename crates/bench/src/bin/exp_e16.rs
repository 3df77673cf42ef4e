//! E16 — delta sessions: incremental serving vs cold re-solves.
//!
//! Drives seeded patch sequences through an `ndg-serve` delta session and
//! prices the three costs the session machinery trades between:
//!
//! 1. **warm deltas** — `method=delta` answers where the engine starts
//!    from the previous converged state (journal append + incremental
//!    solve + response);
//! 2. **cold re-solves** — the same patched instances solved from scratch
//!    through a fresh cache-off sequential router, replaying the literal
//!    `session_cold_line` the server synthesizes (this is also the
//!    divergence-audit path, and the *specification* of every session
//!    answer);
//! 3. **resync** — the recovery cost after a fault: the first `resync`
//!    of a session replays its whole journal (audits are off here, so
//!    the replay checkpoint is still the base); later ones start from
//!    that replay and redo nothing.
//!
//! The gate, asserted on every family at full and smoke scale: every warm
//! session payload is **byte-identical** to its cold re-solve. Timing is
//! reported, not gated — on a 1-core container the interesting ratio is
//! warm-vs-cold work per delta, which survives the hardware.
//!
//! Results are spliced into `BENCH_serve.json` under `"e16_sessions"`
//! (preserving the pinned e12/e14 body); `--smoke` shrinks the delta
//! count, keeps the byte-identity gate, and skips the baseline write.

use ndg_bench::{header, row};
use ndg_exec::Executor;
use ndg_serve::{payload_of, Router, SessionConfig};
use rand::prelude::*;
use rand::rngs::StdRng;
use std::io::Write as _;
use std::time::Instant;

struct FamilyResult {
    id: &'static str,
    deltas: usize,
    warm_ms: f64,
    cold_ms: f64,
    resync_ms: f64,
}

/// A session router: sequential, result cache on, audits off (the cold
/// pass below *is* the audit; auditing during the warm timing would fold
/// the cold cost into the warm number).
fn session_router() -> Router {
    let mut r = Router::with_canon(Executor::sequential(), 64, true);
    r.set_session_config(SessionConfig {
        audit_every: 0,
        max_sessions: 8,
    });
    r
}

fn run_family(
    id: &'static str,
    open_line: &str,
    edges: usize,
    deltas: usize,
    rng: &mut StdRng,
) -> FamilyResult {
    let router = session_router();
    let open = router.handle_line(open_line);
    assert!(open.starts_with("ok;"), "{id}: open failed: {open}");
    let sid = open
        .split(';')
        .find_map(|f| f.strip_prefix("session="))
        .expect("open carries a session id")
        .to_string();

    // Warm pass: timed session deltas, capturing the synthesized cold
    // request after each commit.
    let mut warm_payloads = Vec::with_capacity(deltas);
    let mut cold_lines = Vec::with_capacity(deltas);
    let t0 = Instant::now();
    for k in 0..deltas {
        let line = format!(
            "ndg1;id=d{k};method=delta;session={sid};epoch={k};delta=patch;edge={};w={}",
            rng.random_range(0..edges),
            rng.random_range(1..=8u32) as f64 / 4.0
        );
        let resp = router.handle_line(&line);
        assert!(resp.starts_with("ok;"), "{id}: delta {k} failed: {resp}");
        warm_payloads.push(payload_of(&resp));
        cold_lines.push(router.session_cold_line(&sid).expect("session stays open"));
    }
    let warm_ms = t0.elapsed().as_secs_f64() * 1e3;

    // Cold pass: the specification — every patched instance solved from
    // scratch, sequential, cache off.
    let cold_router = Router::with_canon(Executor::sequential(), 0, false);
    let t0 = Instant::now();
    let cold_payloads: Vec<String> = cold_lines
        .iter()
        .map(|l| payload_of(&cold_router.handle_line(l)))
        .collect();
    let cold_ms = t0.elapsed().as_secs_f64() * 1e3;
    for (k, (warm, cold)) in warm_payloads.iter().zip(&cold_payloads).enumerate() {
        assert_eq!(
            warm, cold,
            "{id}: warm delta {k} diverged from its cold re-solve"
        );
    }

    // Resync: the first one replays all `deltas` journal ops and is the
    // timed one; the two after it start from its checkpoint and must
    // still serve the committed view.
    let mut resync_ms = 0.0;
    for i in 0..3 {
        let t0 = Instant::now();
        let rs = router.handle_line(&format!("ndg1;id=rs{i};method=resync;session={sid}"));
        if i == 0 {
            resync_ms = t0.elapsed().as_secs_f64() * 1e3;
        }
        assert!(rs.contains(";resynced=1;"), "{id}: resync failed: {rs}");
        assert_eq!(
            payload_of(&rs),
            warm_payloads[deltas - 1],
            "{id}: resync diverged from the committed view"
        );
    }
    FamilyResult {
        id,
        deltas,
        warm_ms,
        cold_ms,
        resync_ms,
    }
}

fn main() {
    let mut smoke = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--smoke" => smoke = true,
            _ => {
                eprintln!("usage: exp_e16 [--smoke]");
                std::process::exit(2);
            }
        }
    }
    let deltas = if smoke { 12 } else { 64 };
    println!(
        "E16: delta sessions — warm deltas vs cold re-solves ({deltas} deltas per family{})",
        if smoke { ", smoke" } else { "" }
    );

    let cycle24: String = {
        let edges: Vec<String> = (0..24).map(|i| format!("{i}/{}/1", (i + 1) % 24)).collect();
        format!(
            "ndg1;id=o;method=open;tree={};game=broadcast:24:0:{}",
            (0..23).map(|i| i.to_string()).collect::<Vec<_>>().join(","),
            edges.join(",")
        )
    };
    let general12: String = {
        // A 12-ring with chords and three players: the general-game base.
        let mut edges: Vec<String> = (0..12).map(|i| format!("{i}/{}/1", (i + 1) % 12)).collect();
        edges.extend(["0/6/2.5", "3/9/2.5", "1/7/3.5"].map(String::from));
        format!(
            "ndg1;id=o;method=open;tree={};game=general:12:{}:0/6,2/9,4/11",
            (0..11).map(|i| i.to_string()).collect::<Vec<_>>().join(","),
            edges.join(",")
        )
    };
    let mut rng = StdRng::seed_from_u64(0xE16);
    let families = [
        ("cycle_24", cycle24.as_str(), 24usize),
        ("general_12", general12.as_str(), 15),
    ];

    let widths = [10, 7, 11, 11, 8, 10];
    println!(
        "{}",
        header(
            &[
                "family",
                "deltas",
                "warm-d/s",
                "cold-s/s",
                "ratio",
                "resync-ms"
            ],
            &widths
        )
    );
    let mut results = Vec::new();
    for (id, open_line, edges) in families {
        let r = run_family(id, open_line, edges, deltas, &mut rng);
        println!(
            "{}",
            row(
                &[
                    r.id.to_string(),
                    r.deltas.to_string(),
                    format!("{:.0}", r.deltas as f64 / (r.warm_ms / 1e3)),
                    format!("{:.0}", r.deltas as f64 / (r.cold_ms / 1e3)),
                    format!("{:.2}x", r.cold_ms / r.warm_ms),
                    format!("{:.2}", r.resync_ms),
                ],
                &widths
            )
        );
        results.push(r);
    }
    println!(
        "OK: every warm session payload byte-identical to its cold re-solve \
         ({} deltas x {} families); the first resync replays the full journal",
        deltas,
        results.len()
    );

    if smoke {
        println!("smoke mode: skipping BENCH_serve.json write");
        return;
    }
    let section = {
        let mut s = String::new();
        s.push_str("\"e16_sessions\": {\n");
        s.push_str(
            "    \"note\": \"Delta sessions: seeded patch sequences through method=delta \
             (warm: engine starts from the previous converged state) vs cold re-solves of \
             the synthesized per-epoch instances (the audit path and the byte-identity \
             specification, asserted on every delta). resync_ms is a session's first resync, \
             one replay of the whole journal from the base (audits off); later resyncs \
             start from that replay's checkpoint. Sequential executor; the warm/cold \
             work ratio is the portable part.\",\n",
        );
        s.push_str("    \"families\": [\n");
        for (i, r) in results.iter().enumerate() {
            s.push_str(&format!(
                "      {{ \"id\": \"{}\", \"deltas\": {}, \"warm_deltas_per_s\": {:.0}, \
                 \"cold_solves_per_s\": {:.0}, \"cold_over_warm\": {:.2}, \
                 \"resync_ms\": {:.2} }}{}\n",
                r.id,
                r.deltas,
                r.deltas as f64 / (r.warm_ms / 1e3),
                r.deltas as f64 / (r.cold_ms / 1e3),
                r.cold_ms / r.warm_ms,
                r.resync_ms,
                if i + 1 < results.len() { "," } else { "" }
            ));
        }
        s.push_str("    ]\n  }");
        s
    };
    let path = "BENCH_serve.json";
    let merged = match std::fs::read_to_string(path) {
        Ok(existing) => {
            let (body, _) = ndg_bench::split_bench_section(&existing, "e16_sessions");
            ndg_bench::join_bench_section(&body, Some(&section))
        }
        Err(_) => format!("{{\n  {section}\n}}\n"),
    };
    match std::fs::File::create(path).and_then(|mut f| f.write_all(merged.as_bytes())) {
        Ok(()) => println!("wrote {path} (e16_sessions section)"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}
