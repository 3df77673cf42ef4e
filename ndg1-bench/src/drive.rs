//! The end-to-end pass: an in-process `ndg-serve` TCP server with the
//! binary's defaults, driven over loopback by closed-loop clients, every
//! answer checked against its reference.

use crate::stats::{percentile, windowed, Pct, Sample, Windowed, WINDOW_S};
use crate::workload::{
    close_line, op_line, session_id, Kind, Op, Script, Sessions, Stateless, Workload, CONNS,
    SLOTS_PER_CONN,
};
use ndg_exec::Executor;
use ndg_serve::router::DEFAULT_CACHE_CAPACITY;
use ndg_serve::TcpOptions;
use ndg_serve::{payload_of, spawn_tcp_with, CacheStats, ConnSnapshot, Router, ServerHandle};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Answers checked against references, and the timed ones' samples.
#[derive(Default, Debug)]
pub struct Tally {
    pub sent: u64,
    pub matched: u64,
    /// `err` answers other than shedding.
    pub errs: u64,
    pub shed: u64,
    pub missing: u64,
    /// `ok` answers whose payload differs from the reference.
    pub mismatched: u64,
    pub first_bad: Option<String>,
    /// Latency: µs from writing a request line to reading its response
    /// line.
    pub samples: Vec<Sample>,
    /// The same, for `resync` only.
    pub resync_us: Vec<f64>,
}

impl Tally {
    /// Count `resp` to `line`; whether it matched `expected`.
    pub fn note(&mut self, line: &str, resp: &str, expected: &str) -> bool {
        self.sent += 1;
        if payload_of(resp) == expected {
            self.matched += 1;
            return true;
        }
        if resp.starts_with("err") && resp.contains(";code=overloaded;") {
            self.shed += 1;
        } else if resp.starts_with("err") {
            self.errs += 1;
        } else {
            self.mismatched += 1;
        }
        self.first_bad.get_or_insert_with(|| {
            format!("request {line}\n  answered {resp}\n  expected {expected}")
        });
        false
    }

    fn note_missing(&mut self, n: usize, why: &str) {
        self.sent += n as u64;
        self.missing += n as u64;
        self.first_bad
            .get_or_insert_with(|| format!("{n} responses missing: {why}"));
    }

    pub fn merge(&mut self, o: Tally) {
        self.sent += o.sent;
        self.matched += o.matched;
        self.errs += o.errs;
        self.shed += o.shed;
        self.missing += o.missing;
        self.mismatched += o.mismatched;
        if self.first_bad.is_none() {
            self.first_bad = o.first_bad;
        }
        self.samples.extend(o.samples);
        self.resync_us.extend(o.resync_us);
    }

    pub fn failed(&self) -> u64 {
        self.errs + self.shed + self.missing + self.mismatched
    }

    /// Every answer matched its reference; shed answers are counted in
    /// the error rate but are not wrong answers.
    pub fn correct(&self) -> bool {
        self.errs + self.missing + self.mismatched == 0
    }
}

/// One client connection; a batch is its lines plus a blank flush line.
struct Conn {
    r: BufReader<TcpStream>,
    w: BufWriter<TcpStream>,
}

impl Conn {
    fn connect(addr: std::net::SocketAddr) -> Result<Conn, String> {
        let s = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        s.set_nodelay(true).map_err(|e| e.to_string())?;
        s.set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        let r = BufReader::new(s.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            r,
            w: BufWriter::new(s),
        })
    }

    /// Send `lines` as one batch and read their answers in order, each
    /// with the µs from the start of the call to its arrival; the start
    /// comes first.
    fn call(&mut self, lines: &[&str]) -> Result<(Instant, Vec<(String, f64)>), String> {
        let t0 = Instant::now();
        for l in lines {
            self.w.write_all(l.as_bytes()).map_err(|e| e.to_string())?;
            self.w.write_all(b"\n").map_err(|e| e.to_string())?;
        }
        self.w.write_all(b"\n").map_err(|e| e.to_string())?;
        self.w.flush().map_err(|e| e.to_string())?;
        let mut out = Vec::with_capacity(lines.len());
        for _ in lines {
            let mut resp = String::new();
            match self.r.read_line(&mut resp) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(_) => {
                    resp.truncate(resp.trim_end_matches('\n').len());
                    out.push((resp, t0.elapsed().as_secs_f64() * 1e6));
                }
                Err(e) => return Err(e.to_string()),
            }
        }
        Ok((t0, out))
    }
}

/// The timed phase: answers are stamped relative to `t0`, and clients
/// stop at `deadline`.
#[derive(Clone, Copy)]
struct Timed {
    t0: Instant,
    deadline: Instant,
}

impl Timed {
    fn sample(&self, start: Instant, lat_us: f64, ok: bool) -> Sample {
        Sample {
            done_s: start.duration_since(self.t0).as_secs_f64() + lat_us * 1e-6,
            lat_us,
            ok,
        }
    }
}

/// Send stateless lines from `order` (shared `cursor`, `batch` lines per
/// flush) until `order` is exhausted or, when `timed`, cycling it until
/// the deadline.
fn stateless_client(
    t: &mut Conn,
    wl: &Stateless,
    order: &[usize],
    cursor: &AtomicUsize,
    timed: Option<Timed>,
    tally: &mut Tally,
) {
    loop {
        if timed.is_some_and(|x| Instant::now() >= x.deadline) {
            return;
        }
        let p = cursor.fetch_add(wl.batch, Ordering::Relaxed);
        let idx: Vec<usize> = match timed {
            Some(_) => (p..p + wl.batch).map(|i| order[i % order.len()]).collect(),
            None if p >= order.len() => return,
            None => order[p..(p + wl.batch).min(order.len())].to_vec(),
        };
        let lines: Vec<&str> = idx.iter().map(|&i| wl.lines[i].as_str()).collect();
        match t.call(&lines) {
            Ok((start, resps)) => {
                for ((&i, line), (resp, us)) in idx.iter().zip(&lines).zip(resps) {
                    let ok = tally.note(line, &resp, &wl.expected[i]);
                    if let Some(x) = timed {
                        tally.samples.push(x.sample(start, us, ok));
                    }
                }
            }
            Err(e) => {
                tally.note_missing(lines.len(), &e);
                return;
            }
        }
    }
}

/// What a session client sends next on one slot.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Step {
    Open,
    Op(Op),
    Close,
}

struct Slot {
    script: usize,
    sid: String,
    epoch: u64,
    /// Next op index; `None` before the open.
    pos: Option<usize>,
}

/// An epoch-echo client driving [`SLOTS_PER_CONN`] sessions of its own,
/// one op at a time, cycling through every `stride`-th script.
pub struct SessionClient<'a> {
    scripts: &'a [Script],
    slots: Vec<Slot>,
    next_script: usize,
    stride: usize,
    turn: usize,
    ids: u64,
}

impl<'a> SessionClient<'a> {
    pub fn new(wl: &'a Sessions, conn: usize) -> SessionClient<'a> {
        let mut c = SessionClient {
            scripts: &wl.scripts,
            slots: Vec::new(),
            next_script: conn,
            stride: CONNS,
            turn: 0,
            ids: 0,
        };
        for _ in 0..SLOTS_PER_CONN {
            let script = c.take_script();
            c.slots.push(Slot {
                script,
                sid: String::new(),
                epoch: 0,
                pos: None,
            });
        }
        c
    }

    fn take_script(&mut self) -> usize {
        let s = self.next_script % self.scripts.len();
        self.next_script += self.stride;
        s
    }

    pub fn slots(&self) -> usize {
        self.slots.len()
    }

    /// The next request of `slot`, and what it is.
    pub fn line(&mut self, slot: usize) -> (String, Step) {
        self.ids += 1;
        let id = format!("q{}", self.ids);
        let s = &self.slots[slot];
        let script = &self.scripts[s.script];
        match s.pos {
            None => {
                let mut line = script.open_line.clone();
                line = line.replacen("id=o;", &format!("id={id};"), 1);
                (line, Step::Open)
            }
            Some(p) if p < script.ops.len() => {
                let op = script.ops[p];
                (op_line(&id, &s.sid, s.epoch, op), Step::Op(op))
            }
            Some(_) => (close_line(&id, &s.sid), Step::Close),
        }
    }

    /// Check `slot`'s answer and advance it.
    pub fn absorb(&mut self, slot: usize, line: &str, resp: &str, tally: &mut Tally) {
        let s = &mut self.slots[slot];
        let script = &self.scripts[s.script];
        match s.pos {
            None => {
                tally.note(line, resp, &script.expected_open);
                s.sid = session_id(resp).unwrap_or("none").to_string();
                s.pos = Some(0);
            }
            Some(p) if p < script.ops.len() => {
                tally.note(line, resp, &script.expected[p]);
                if let Op::Delta(_) = script.ops[p] {
                    s.epoch += 1;
                }
                s.pos = Some(p + 1);
            }
            Some(_) => {
                tally.note(line, resp, &script.expected_close);
                let next = self.take_script();
                let s = &mut self.slots[slot];
                *s = Slot {
                    script: next,
                    sid: String::new(),
                    epoch: 0,
                    pos: None,
                };
            }
        }
    }

    /// The slot whose turn it is.
    pub fn next_slot(&mut self) -> usize {
        self.turn += 1;
        (self.turn - 1) % self.slots.len()
    }

    /// One op on the next slot in turn; `false` when the connection
    /// failed.
    fn step(&mut self, t: &mut Conn, tally: &mut Tally, timed: Option<Timed>) -> bool {
        let slot = self.next_slot();
        let (line, step) = self.line(slot);
        match t.call(&[&line]) {
            Ok((start, mut resps)) => {
                let (resp, us) = resps.pop().expect("one answer per line");
                let matched = tally.matched;
                self.absorb(slot, &line, &resp, tally);
                if let Some(x) = timed {
                    tally
                        .samples
                        .push(x.sample(start, us, tally.matched > matched));
                    if step == Step::Op(Op::Resync) {
                        tally.resync_us.push(us);
                    }
                }
                true
            }
            Err(e) => {
                tally.note_missing(1, &e);
                false
            }
        }
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// Linux's clock of the CPU time every thread of the process has used.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Process CPU time (user + system, all threads), seconds, to the
/// nanosecond: the `/proc/self/stat` utime + stime without its 10 ms
/// ticks.
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a writable timespec with the 64-bit Linux layout.
    if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) } != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Resident set size, MiB.
pub fn rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

extern "C" {
    /// glibc: return free heap pages of every arena to the kernel.
    fn malloc_trim(pad: usize) -> i32;
}

/// VmRSS after returning free heap pages to the kernel, so the reading
/// counts live memory rather than how fragmented the arenas happen to be.
fn trimmed_rss_mb() -> f64 {
    // SAFETY: `malloc_trim` takes no pointers and only releases pages the
    // allocator holds free; it is safe to call at any time.
    unsafe {
        malloc_trim(0);
    }
    rss_mb()
}

/// The `ndg-serve` binary's router: environment executor, default cache
/// capacity, canon on, default session config, no recorder.
pub fn server_router() -> Router {
    Router::new(Executor::from_env(), DEFAULT_CACHE_CAPACITY)
}

/// A server with the `ndg-serve` binary's defaults, its connected
/// clients, and (for sessions) the clients' state after warm-up.
struct Served<'a> {
    router: Arc<Router>,
    server: ServerHandle,
    conns: Vec<Conn>,
    sessions: Vec<SessionClient<'a>>,
}

/// Build the router, bind, connect and warm up: the span `setup_s`
/// times.
fn set_up<'a>(wl: &'a Workload, warm_ops: usize, tally: &mut Tally) -> Result<Served<'a>, String> {
    let router = Arc::new(server_router());
    let server = spawn_tcp_with(router.clone(), "127.0.0.1:0", TcpOptions::default())
        .map_err(|e| format!("bind: {e}"))?;
    let mut conns = (0..CONNS)
        .map(|_| Conn::connect(server.addr()))
        .collect::<Result<Vec<_>, _>>()?;
    let mut sessions = Vec::new();
    let parts: Vec<Tally> = match &wl.kind {
        Kind::Stateless(s) => {
            let cursor = AtomicUsize::new(0);
            std::thread::scope(|sc| {
                let hs: Vec<_> = conns
                    .iter_mut()
                    .map(|c| {
                        let cursor = &cursor;
                        sc.spawn(move || {
                            let mut t = Tally::default();
                            stateless_client(c, s, &s.warmup, cursor, None, &mut t);
                            t
                        })
                    })
                    .collect();
                hs.into_iter().map(|h| h.join().expect("client")).collect()
            })
        }
        Kind::Sessions(s) => {
            sessions = (0..CONNS).map(|c| SessionClient::new(s, c)).collect();
            std::thread::scope(|sc| {
                let hs: Vec<_> = conns
                    .iter_mut()
                    .zip(sessions.iter_mut())
                    .map(|(c, client)| {
                        sc.spawn(move || {
                            let mut t = Tally::default();
                            for _ in 0..warm_ops * client.slots() {
                                if !client.step(c, &mut t, None) {
                                    break;
                                }
                            }
                            t
                        })
                    })
                    .collect();
                hs.into_iter().map(|h| h.join().expect("client")).collect()
            })
        }
    };
    for p in parts {
        tally.merge(p);
    }
    Ok(Served {
        router,
        server,
        conns,
        sessions,
    })
}

fn tear_down(s: Served<'_>) {
    drop(s.conns);
    s.server.stop();
}

/// Result of the end-to-end pass.
pub struct E2e {
    /// Timed-phase answers (warm-up answers are checked into `warm`);
    /// its samples are summarized below.
    pub timed: Tally,
    /// Whole-run latency percentiles.
    pub p50: Pct,
    pub p99: Pct,
    /// The reported figures: medians over [`WINDOW_S`] windows.
    pub windowed: Windowed,
    pub resync_p50: Pct,
    pub warm: Tally,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub rss_growth_mb: f64,
    /// Every set-up's duration, in the order they ran.
    pub setup_s: Vec<f64>,
    pub cache: (CacheStats, CacheStats),
    pub conn: ConnSnapshot,
}

/// Time one set-up and tear it down again.
fn timed_setup(wl: &Workload, warm_ops: usize, warm: &mut Tally) -> Result<f64, String> {
    let t = Instant::now();
    let s = set_up(wl, warm_ops, warm)?;
    let secs = t.elapsed().as_secs_f64();
    tear_down(s);
    Ok(secs)
}

/// Set up and run the closed loop for `seconds`. `extra_setups` more
/// set-ups, half before and half after, feed the set-up median; spread
/// over the run, they do not all land in one slow or fast spell of a
/// shared machine.
pub fn run(
    wl: &Workload,
    seconds: f64,
    warm_ops: usize,
    extra_setups: usize,
) -> Result<E2e, String> {
    let mut warm = Tally::default();
    let mut setup_s = Vec::new();
    for _ in 0..extra_setups / 2 {
        setup_s.push(timed_setup(wl, warm_ops, &mut warm)?);
    }
    let rss0 = trimmed_rss_mb();
    let t_setup = Instant::now();
    let mut served = set_up(wl, warm_ops, &mut warm)?;
    setup_s.push(t_setup.elapsed().as_secs_f64());
    let cache0 = served.router.cache_stats();
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    let phase = Timed { t0, deadline };
    // (seconds since t0, process CPU seconds) at each window boundary.
    let mut ticks = vec![(0.0, cpu0)];
    let cursor = AtomicUsize::new(0);
    let parts: Vec<Tally> = std::thread::scope(|sc| {
        let hs: Vec<_> = match &wl.kind {
            Kind::Stateless(s) => {
                let cursor = &cursor;
                served
                    .conns
                    .iter_mut()
                    .map(|c| {
                        sc.spawn(move || {
                            let mut t = Tally::default();
                            stateless_client(c, s, &s.timed, cursor, Some(phase), &mut t);
                            t
                        })
                    })
                    .collect()
            }
            Kind::Sessions(_) => served
                .conns
                .iter_mut()
                .zip(served.sessions.iter_mut())
                .map(|(c, client)| {
                    sc.spawn(move || {
                        let mut t = Tally::default();
                        while Instant::now() < deadline && client.step(c, &mut t, Some(phase)) {}
                        t
                    })
                })
                .collect(),
        };
        for k in 1.. {
            let at = t0 + Duration::from_secs_f64(k as f64 * WINDOW_S);
            if at > deadline {
                break;
            }
            std::thread::sleep(at.saturating_duration_since(Instant::now()));
            ticks.push((t0.elapsed().as_secs_f64(), cpu_seconds()));
        }
        hs.into_iter().map(|h| h.join().expect("client")).collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_end = cpu_seconds();
    let cpu_s = cpu_end - cpu0;
    if ticks.len() < 2 {
        // Shorter than one window: the whole run is the window.
        ticks.push((wall_s, cpu_end));
    }
    let mut timed = Tally::default();
    for p in parts {
        timed.merge(p);
    }
    // The client's own samples go before the memory reading.
    let windowed = windowed(&timed.samples, &ticks);
    let mut lat_us: Vec<f64> = timed.samples.iter().map(|s| s.lat_us).collect();
    let p50 = percentile(&mut lat_us, 0.5);
    let p99 = percentile(&mut lat_us, 0.99);
    let resync_p50 = percentile(&mut timed.resync_us, 0.5);
    drop(lat_us);
    timed.samples = Vec::new();
    timed.resync_us = Vec::new();
    let rss_growth_mb = trimmed_rss_mb() - rss0;
    let cache = (cache0, served.router.cache_stats());
    let conn = served.router.conn_stats().snapshot();
    tear_down(served);
    for _ in extra_setups / 2..extra_setups {
        setup_s.push(timed_setup(wl, warm_ops, &mut warm)?);
    }
    Ok(E2e {
        timed,
        p50,
        p99,
        windowed,
        resync_p50,
        warm,
        wall_s,
        cpu_s,
        rss_growth_mb,
        setup_s,
        cache,
        conn,
    })
}
