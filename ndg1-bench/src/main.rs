#![doc = include_str!("../README.md")]

mod drive;
mod stats;
mod trace;
mod workload;

use stats::{median, Pct};
use std::collections::BTreeMap;
use std::process::ExitCode;
use workload::{Kind, Scale, Workload};

const USAGE: &str = "usage: ndg1-bench --workload <cold_mix|warm_isomorph|delta_sessions> \
--seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(a) = it.next() {
        if a == "--help" || a == "-h" {
            return Err(String::new());
        }
        let v = it.next().ok_or(format!("{a} needs a value"))?;
        let bad = || format!("bad value `{v}` for {a}");
        match a.as_str() {
            "--workload" => workload = Some(v.clone()),
            "--seed" => seed = Some(v.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(v.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                })
            }
            _ => return Err(format!("unknown argument {a}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workload::NAMES.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Output of a command, or `unknown`.
fn command_output(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The context a result is only comparable within.
fn context(args: &Args) -> String {
    let cfg = ndg_serve::SessionConfig::default();
    format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{},\
         \"rustc\":\"{}\",\"git_commit\":\"{}\",\"executor_threads\":{},\
         \"cache_capacity\":{},\"session_audit_every\":{},\"session_max_sessions\":{}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        ndg_exec::available_threads(),
        command_output("rustc", &["-V"]),
        command_output("git", &["rev-parse", "HEAD"]),
        ndg_exec::Executor::from_env().threads(),
        ndg_serve::router::DEFAULT_CACHE_CAPACITY,
        cfg.audit_every,
        cfg.max_sessions,
    )
}

/// Per-layer metric names, in report order.
const PER_LAYER: [&str; 53] = [
    "server.wire_us_p50",
    "server.shed",
    "server.panics",
    "server.deadlines",
    "server.error_rate",
    "server.rss_growth_mb",
    "server.resync_wire_us_p50",
    "router.handle_us_p50",
    "router.handle_us_p99",
    "router.batch_us_p50",
    "codec.parse_us_mean",
    "codec.key_us_mean",
    "codec.build_us_mean",
    "canon.lookup_us_mean",
    "canon.unapply_us_mean",
    "canon.memo_hit_rate",
    "cache.hit_rate",
    "cache.canon_hit_share",
    "cache.evictions_per_req",
    "cache.probe_us_mean",
    "session.delta_us_p50",
    "session.delta_us_p99",
    "session.resync_us_p50",
    "session.journal_ops_peak",
    "session.audit_time_share",
    "session.cold_over_warm",
    "exec.fanouts_per_req",
    "exec.items_per_req",
    "exec.sequential_runs_per_req",
    "exec.batch_speedup",
    "graph.dijkstra_runs_per_req",
    "graph.dijkstra_relax_per_req",
    "graph.astar_runs_per_req",
    "graph.astar_relax_per_req",
    "lp.cut_solves_per_req",
    "lp.cut_rounds_per_req",
    "lp.cuts_added_per_req",
    "core.recert_fresh_per_req",
    "core.recert_stale_per_req",
    "core.dyn_maintained_per_req",
    "core.dyn_scratch_fallback_per_req",
    "core.enum_trees_per_req",
    "core.enum_orbit_reps_per_req",
    "sne.lp1_us_mean",
    "sne.lp2_us_mean",
    "sne.lp3_us_mean",
    "sne.t6_us_mean",
    "sne.weighted_us_mean",
    "core.dynamics_us_mean",
    "core.certify_us_mean",
    "snd.pos_us_mean",
    "aon.exact_us_mean",
    "obs.trace_overhead_ratio",
];

fn unit_of(name: &str) -> &'static str {
    if name.ends_with("_mb") {
        "MB"
    } else if name.contains("_us") {
        "us"
    } else if name.ends_with("_share")
        || name.ends_with("_rate")
        || name.ends_with("_ratio")
        || name.ends_with("_speedup")
        || name.ends_with("cold_over_warm")
    {
        "ratio"
    } else if name.ends_with("_per_req") {
        "count/req"
    } else {
        "count"
    }
}

/// `{"name": {"value": v, "unit": u}, …}`.
fn metrics_json(m: &[(&str, f64, &str)]) -> String {
    let fields: Vec<String> = m
        .iter()
        .map(|(n, v, u)| format!("\"{n}\":{{\"value\":{v},\"unit\":\"{u}\"}}"))
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// The traced pass of `wl`.
fn traced(wl: &Workload, scale: Scale) -> trace::Traced {
    match &wl.kind {
        Kind::Stateless(s) => trace::stateless(s, scale),
        Kind::Sessions(s) => trace::sessions(s, scale),
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let scale = Scale::full();
    println!("context {}", context(args));
    let t = std::time::Instant::now();
    let wl: Workload = workload::build(&args.workload, args.seed, scale)?;
    println!(
        "workload built in {:.2} s (not timed)",
        t.elapsed().as_secs_f64()
    );

    let extra_setups = if args.trace { 0 } else { 10 };
    let e2e = drive::run(&wl, args.seconds, scale.session_warmup_ops, extra_setups)?;
    let (p50, p99, resync50) = (e2e.p50, e2e.p99, e2e.resync_p50);
    let sent = e2e.timed.sent as f64;
    let error_rate = trace::ratio(e2e.timed.failed() as f64, sent);
    let setup_s = median(e2e.setup_s.clone());
    let mut ok = e2e.timed.correct() && e2e.warm.correct() && p99.sufficient();
    for (what, t) in [("warm-up", &e2e.warm), ("timed", &e2e.timed)] {
        if let Some(bad) = &t.first_bad {
            println!("FAIL ({what}): {bad}");
        }
    }
    if !p99.sufficient() {
        println!("FAIL: latency_p99_us {}", p99.describe());
    }

    println!(
        "end-to-end ({}, {:.2} s timed, closed loop, 2 connections):",
        wl.name, e2e.wall_s
    );
    let w = e2e.windowed;
    let e2e_metrics: Vec<(&str, f64, &str)> = vec![
        ("throughput_rps", w.rps, "1/s"),
        ("latency_p50_us", w.p50_us, "us"),
        ("latency_p99_us", w.p99_us, "us"),
        ("cpu_us_per_req", w.cpu_us_per_req, "us"),
        ("setup_s", setup_s, "s"),
    ];
    println!(
        "  (medians over {} windows of {} s; whole run in brackets)",
        w.windows,
        stats::WINDOW_S
    );
    let whole = [
        format!("{:.3}", e2e.timed.matched as f64 / e2e.wall_s),
        p50.describe(),
        p99.describe(),
        format!("{:.3}", trace::ratio(e2e.cpu_s * 1e6, sent)),
        format!("{} set-ups", e2e.setup_s.len()),
    ];
    for ((n, v, u), all) in e2e_metrics.iter().zip(whole) {
        println!("  {n:<16} {v:>14.3} {u:<3} [{all}]");
    }
    println!(
        "  {:<16} {:>14.6} ratio ({} of {} sent: {} err, {} shed, {} missing, {} mismatched)",
        "error_rate",
        error_rate,
        e2e.timed.failed(),
        e2e.timed.sent,
        e2e.timed.errs,
        e2e.timed.shed,
        e2e.timed.missing,
        e2e.timed.mismatched
    );
    if let Kind::Sessions(_) = wl.kind {
        println!("  {:<16} {:>14} us", "resync_p50_us", resync50.describe());
    }
    let setups: Vec<String> = e2e.setup_s.iter().map(|s| format!("{s:.4}")).collect();
    println!("  setups (s): {}", setups.join(" "));
    println!(
        "  {:<16} {:>14.3} MB (per-layer server.rss_growth_mb)",
        "rss_growth_mb", e2e.rss_growth_mb
    );

    let metrics = if args.trace {
        let traced = traced(&wl, scale);
        if let Some(bad) = &traced.tally.first_bad {
            println!("FAIL (traced replay): {bad}");
        }
        ok &= traced.tally.correct();
        let mut m: BTreeMap<&str, f64> = traced.metrics.clone();
        let handle50 = m.get("router.handle_us_p50").copied().unwrap_or(0.0);
        m.insert("server.wire_us_p50", w.p50_us - handle50);
        m.insert("server.shed", e2e.conn.shed as f64);
        m.insert("server.panics", e2e.conn.panics as f64);
        m.insert("server.deadlines", e2e.conn.deadlines as f64);
        m.insert("server.error_rate", error_rate);
        m.insert("server.rss_growth_mb", e2e.rss_growth_mb);
        m.insert("server.resync_wire_us_p50", resync50.value);
        let (c0, c1) = e2e.cache;
        let hits = (c1.hits - c0.hits) as f64;
        let misses = (c1.misses - c0.misses) as f64;
        m.insert("cache.hit_rate", trace::ratio(hits, hits + misses));
        m.insert(
            "cache.canon_hit_share",
            trace::ratio((c1.canon_hits - c0.canon_hits) as f64, hits),
        );
        m.insert(
            "cache.evictions_per_req",
            trace::ratio((c1.evictions - c0.evictions) as f64, sent),
        );
        println!(
            "per layer (traced pass, {} spans):",
            traced.tracer.spans.len()
        );
        let pcts: &BTreeMap<&str, Pct> = &traced.pcts;
        let mut out = Vec::new();
        for name in PER_LAYER {
            let v = *m
                .get(name)
                .ok_or(format!("per-layer metric {name} missing"))?;
            match pcts.get(name) {
                Some(p) => println!("  {name:<34} {:>14} {}", p.describe(), unit_of(name)),
                None => println!("  {name:<34} {v:>14.4} {}", unit_of(name)),
            }
            out.push((name, v, unit_of(name)));
        }
        let shares: Vec<String> = ["codec", "canon", "cache", "engines"]
            .iter()
            .map(|l| format!("{l} {:.3}", m[format!("{l}.time_share").as_str()]))
            .collect();
        println!("layer shares of span time: {}", shares.join(", "));
        if let Kind::Sessions(_) = wl.kind {
            println!(
                "audit replay share of delta time: {:.3}",
                m["session.audit_time_share"]
            );
        }
        let dir = std::path::Path::new("ndg1-bench/traces");
        let path = dir.join(format!("{}-seed{}.jsonl", wl.name, args.seed));
        match std::fs::create_dir_all(dir)
            .and_then(|_| std::fs::write(&path, traced.tracer.jsonl()))
        {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => println!("spans not written ({}): {e}", path.display()),
        }
        out
    } else {
        e2e_metrics
    };
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        ok,
        e2e.timed.sent + e2e.warm.sent,
        e2e.timed.failed() + e2e.warm.failed(),
        metrics_json(&metrics)
    );
    Ok(ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            if e.is_empty() {
                println!("{}", include_str!("../README.md"));
                return ExitCode::SUCCESS;
            }
            eprintln!("ndg1-bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("ndg1-bench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two traced runs of every workload at tiny scale count identical
    /// work, and nothing fails end to end or in the replays. One test,
    /// because the `ndg_obs` counters are process-wide.
    #[test]
    fn traced_work_repeats_and_nothing_fails() {
        let scale = Scale::tiny();
        for name in workload::NAMES {
            let wl = workload::build(name, 7, scale).expect("workload builds");
            let e2e = drive::run(&wl, 0.3, scale.session_warmup_ops, 0).expect("server runs");
            assert!(e2e.timed.sent > 0, "{name}: nothing sent");
            let failed = e2e.timed.failed() + e2e.warm.failed();
            assert_eq!(failed, 0, "{name}: {:?}", e2e.timed.first_bad);
            let work = |t: trace::Traced| {
                assert_eq!(t.tally.failed(), 0, "{name}: {:?}", t.tally.first_bad);
                t.tracer
                    .spans
                    .into_iter()
                    .map(|s| (s.name, s.req, s.work))
                    .collect::<Vec<_>>()
            };
            let first = work(traced(&wl, scale));
            assert!(
                first.iter().any(|(_, _, w)| !w.is_empty()),
                "{name}: no work counted"
            );
            assert_eq!(
                first,
                work(traced(&wl, scale)),
                "{name}: work counts differ"
            );
        }
    }
}
