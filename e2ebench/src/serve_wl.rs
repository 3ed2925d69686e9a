//! `table-cold` and `column-hot`: a closed loop of two keep-alive clients
//! (one per core) against `explainti serve`'s library entry point run in
//! a child process with `ServeConfig` defaults. A client writes its next
//! request only after reading the previous response in full; request
//! bytes are rendered before timing starts.

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use explainti_api::InterpretTableResponse;
use explainti_serve::ServeConfig;
use serde_json::{json, Value};

use crate::child::{self, Boot, Child, Spawn};
use crate::client::{self, dechunk, Conn, Framing};
use crate::inputs::{self, http_post, ColdStream, Tab, CHECK_TABLES, HOT_COLUMNS, WARMUP_TABLES};
use crate::layers::{self, ReplayReq, Tracer};
use crate::report::{Metric, Outcome};
use crate::stats::{median, quantile_u64};
use crate::sys;

/// Client threads, one keep-alive connection each.
pub const CLIENTS: usize = 2;
/// Boots timed per run; `setup_s` is their median.
const BOOTS: usize = 3;
/// `column-hot` replays the warm cache this long before timing.
const HOT_WARM: Duration = Duration::from_secs(1);
/// Cold tables replayed layer by layer in a traced run.
const REPLAY_TABLES: usize = 100;
/// Rounds over the 64 hot columns in a traced run's replay.
const HOT_REPLAY_ROUNDS: usize = 8;
/// Training samples the `nn` replay steps through.
const NN_SAMPLES: usize = 128;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    TableCold,
    ColumnHot,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::TableCold => "table-cold",
            Kind::ColumnHot => "column-hot",
        }
    }
}

/// Where a phase draws requests from.
enum Source<'a> {
    /// A shared cursor over never-repeated requests; ends when exhausted.
    Stream(&'a [Vec<u8>], &'a AtomicUsize),
    /// Each client cycles through the set from its own offset.
    Cycle(&'a [Vec<u8>]),
}

impl Source<'_> {
    fn next(&self, client: usize, k: usize) -> Option<(usize, &[u8])> {
        match self {
            Source::Stream(reqs, next) => {
                let i = next.fetch_add(1, Ordering::Relaxed);
                reqs.get(i).map(|r| (i, r.as_slice()))
            }
            Source::Cycle(reqs) => {
                let i = (client * reqs.len() / CLIENTS + k) % reqs.len();
                Some((i, reqs[i].as_slice()))
            }
        }
    }
}

struct PhaseCfg<'a> {
    src: Source<'a>,
    /// Stop starting requests after this long; `None` runs the source dry.
    until: Option<Duration>,
    /// Framing every response must use.
    framing: Framing,
    /// Keep raw bodies for checks after timing (cold streams).
    keep_bodies: bool,
    /// Bodies every response must equal, by request id (hot replays).
    expected: Option<&'a [Vec<u8>]>,
    /// Record write/read child spans per request.
    traced: bool,
}

/// One request as the client saw it; times are ns from the phase start.
#[derive(Clone, Copy)]
struct Sample {
    id: u32,
    start_ns: u64,
    write_ns: u64,
    end_ns: u64,
    ok: bool,
}

#[derive(Default)]
struct ClientLog {
    samples: Vec<Sample>,
    /// Raw bodies back to back; `ends[i]` closes sample `i`'s body.
    bodies: Vec<u8>,
    ends: Vec<usize>,
    errors: Vec<String>,
}

struct PhaseOut {
    logs: Vec<ClientLog>,
    start: Instant,
    elapsed: Duration,
}

impl PhaseOut {
    fn samples(&self) -> impl Iterator<Item = &Sample> {
        self.logs.iter().flat_map(|l| l.samples.iter())
    }

    fn failed(&self) -> u64 {
        self.samples().filter(|s| !s.ok).count() as u64
    }

    /// Latencies in ns; a failed request counts as slower than any success.
    fn latencies(&self) -> Vec<u64> {
        self.samples().map(|s| if s.ok { s.end_ns - s.start_ns } else { u64::MAX }).collect()
    }

    fn p50_ns(&self) -> Option<f64> {
        quantile_u64(&mut self.latencies(), 0.5).map(|v| v as f64)
    }

    fn first_error(&self) -> Option<&String> {
        self.logs.iter().flat_map(|l| l.errors.iter()).next()
    }
}

fn client_loop(c: usize, conn: &mut Conn, cfg: &PhaseCfg<'_>, start: Instant) -> ClientLog {
    let mut log = ClientLog::default();
    let mut scratch = Vec::new();
    let ns = |t: Instant| t.saturating_duration_since(start).as_nanos() as u64;
    for k in 0.. {
        if cfg.until.is_some_and(|d| start.elapsed() >= d) {
            break;
        }
        let Some((id, req)) = cfg.src.next(c, k) else { break };
        scratch.clear();
        let body = if cfg.keep_bodies { &mut log.bodies } else { &mut scratch };
        let mark = body.len();
        let t0 = Instant::now();
        let (r, t_write) = if cfg.traced {
            let w = conn.send(req);
            let t_write = Instant::now();
            (w.and_then(|()| conn.read_response(body)), t_write)
        } else {
            (conn.exchange(req, body), t0)
        };
        let t1 = Instant::now();
        let same = cfg.expected.map(|exp| exp.get(id).is_some_and(|e| e[..] == body[mark..]));
        let ok = match r {
            Ok((200, framing)) if framing == cfg.framing => {
                if same == Some(false) {
                    log.errors
                        .push(format!("request {id}: served bytes differ from the library's"));
                }
                same != Some(false)
            }
            Ok((status, framing)) => {
                log.errors.push(format!("request {id}: status {status}, framing {framing:?}"));
                false
            }
            Err(e) => {
                log.errors.push(format!("request {id}: {e}"));
                false
            }
        };
        log.samples.push(Sample {
            id: id as u32,
            start_ns: ns(t0),
            write_ns: ns(t_write),
            end_ns: ns(t1),
            ok,
        });
        if cfg.keep_bodies {
            log.ends.push(log.bodies.len());
        }
        if !ok {
            // The connection's state is unknown after a failure.
            break;
        }
    }
    log
}

fn phase(conns: &mut [Conn], cfg: &PhaseCfg<'_>) -> PhaseOut {
    let start = Instant::now();
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| s.spawn(move || client_loop(c, conn, cfg, start)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| ClientLog {
                    errors: vec!["client thread panicked".into()],
                    ..Default::default()
                })
            })
            .collect()
    });
    let end_ns = logs.iter().filter_map(|l| l.samples.last()).map(|s| s.end_ns).max().unwrap_or(0);
    PhaseOut { logs, start, elapsed: Duration::from_nanos(end_ns) }
}

fn scrape(addr: std::net::SocketAddr) -> Result<Value, String> {
    let (status, body) =
        client::get(addr, "/v1/metrics").map_err(|e| format!("GET /v1/metrics: {e}"))?;
    if status != 200 {
        return Err(format!("GET /v1/metrics answered {status}"));
    }
    let text = String::from_utf8(body).map_err(|e| e.to_string())?;
    serde_json::from_str(&text).map_err(|e| format!("metrics JSON: {e}"))
}

fn counter(v: &Value, name: &str) -> u64 {
    v.get("counters").and_then(|c| c.get(name)).and_then(Value::as_u64).unwrap_or(0)
}

/// `(count, sum)` of a histogram in the metrics snapshot.
fn hist(v: &Value, name: &str) -> (u64, u64) {
    let h = v.get("histograms").and_then(|h| h.get(name));
    let f = |k: &str| h.and_then(|h| h.get(k)).and_then(Value::as_u64).unwrap_or(0);
    (f("count"), f("sum_ns"))
}

/// What the cold stream's post-timing checks need of each table.
struct Meta {
    title: String,
    headers: Vec<String>,
    truths: Vec<Option<String>>,
}

impl Meta {
    fn of(t: &Tab) -> Self {
        Self {
            title: t.title.clone(),
            headers: t.columns.iter().map(|c| c.header.clone()).collect(),
            truths: t.columns.iter().map(|c| c.truth.clone()).collect(),
        }
    }
}

/// Label agreement by name; for single-label classification micro-F1
/// equals the share of columns labelled correctly.
#[derive(Default)]
struct F1 {
    correct: u64,
    total: u64,
}

impl F1 {
    fn add(&mut self, served: &str, truth: &Option<String>) {
        if let Some(t) = truth {
            self.total += 1;
            self.correct += u64::from(served == t);
        }
    }

    fn value(&self) -> Option<f64> {
        (self.total > 0).then(|| self.correct as f64 / self.total as f64)
    }
}

/// Checks every stored cold response: chunked framing, one
/// `InterpretTableResponse` entry per request column in order, and — for
/// the checked prefix — bytes equal to the library's. Adds the prefix's
/// label agreement to `f1` when one is given.
fn check_cold(
    out: &mut Outcome,
    ph: &PhaseOut,
    metas: &[Meta],
    expected: &[Vec<u8>],
    mut f1: Option<&mut F1>,
) {
    let mut bad = Vec::new();
    for log in &ph.logs {
        let mut begin = 0;
        for (s, &end) in log.samples.iter().zip(&log.ends) {
            let raw = &log.bodies[begin..end];
            begin = end;
            if !s.ok {
                continue;
            }
            let id = s.id as usize;
            let body = match dechunk(raw) {
                Ok(b) => b,
                Err(e) => {
                    bad.push(format!("table {id}: {e}"));
                    continue;
                }
            };
            if let Some(exp) = expected.get(id) {
                if *exp != body {
                    bad.push(format!("table {id}: served bytes differ from the library's"));
                }
            }
            let parsed = std::str::from_utf8(&body).map_err(|e| e.to_string()).and_then(|t| {
                serde_json::from_str::<InterpretTableResponse>(t).map_err(|e| format!("{e}"))
            });
            let (Ok(resp), Some(meta)) = (parsed, metas.get(id)) else {
                bad.push(format!("table {id}: body is not an InterpretTableResponse"));
                continue;
            };
            let headers: Vec<&str> = resp.columns.iter().map(|c| c.header.as_str()).collect();
            if resp.title != meta.title || headers != meta.headers {
                bad.push(format!("table {id}: columns differ from the request's"));
            }
            if id < CHECK_TABLES {
                if let Some(f1) = f1.as_deref_mut() {
                    for (c, truth) in resp.columns.iter().zip(&meta.truths) {
                        f1.add(&c.prediction.label, truth);
                    }
                }
            }
        }
    }
    out.failed += bad.len() as u64;
    if let Some(first) = bad.first() {
        out.problems.push(format!("{} cold responses failed checks; first: {first}", bad.len()));
    }
}

/// The serving inputs of one run.
struct Inputs {
    hot: Vec<inputs::Col>,
    hot_reqs: Vec<Vec<u8>>,
    stream: ColdStream,
    warm_reqs: Vec<Vec<u8>>,
}

fn build_inputs(kind: Kind, seed: u64) -> Inputs {
    let (hot, taken) = inputs::hot_set(seed);
    let hot_reqs = hot
        .iter()
        .map(|c| http_post(&serde_json::to_string(&c.request()).unwrap_or_default()))
        .collect();
    let mut stream = ColdStream::new(seed, taken);
    let warm_reqs = match kind {
        Kind::TableCold => stream.take(WARMUP_TABLES).iter().map(Tab::http).collect(),
        Kind::ColumnHot => Vec::new(),
    };
    Inputs { hot, hot_reqs, stream, warm_reqs }
}

fn connect(addr: std::net::SocketAddr) -> Result<Vec<Conn>, String> {
    (0..CLIENTS).map(|_| Conn::connect(addr).map_err(|e| format!("connect: {e}"))).collect()
}

/// Warm-up: cold sends its warm-up prefix once; hot answers each hot
/// column once (filling the cache) and then replays them for a second.
/// Returns cold tables per second, for sizing the timed stream.
fn warm_up(
    kind: Kind,
    conns: &mut [Conn],
    inp: &Inputs,
    expected: &[Vec<u8>],
    out: &mut Outcome,
) -> f64 {
    let next = AtomicUsize::new(0);
    match kind {
        Kind::TableCold => {
            let once = PhaseCfg {
                src: Source::Stream(&inp.warm_reqs, &next),
                until: None,
                framing: Framing::Chunked,
                keep_bodies: false,
                expected: None,
                traced: false,
            };
            let w = phase(conns, &once);
            out.check(
                w.failed() == 0 && w.samples().count() == inp.warm_reqs.len(),
                format!("warm-up failed: {:?}", w.first_error()),
            );
            inp.warm_reqs.len() as f64 / w.elapsed.as_secs_f64().max(1e-3)
        }
        Kind::ColumnHot => {
            let once = PhaseCfg {
                src: Source::Stream(&inp.hot_reqs, &next),
                until: None,
                framing: Framing::Length,
                keep_bodies: false,
                expected: Some(expected),
                traced: false,
            };
            let w = phase(conns, &once);
            out.check(
                w.failed() == 0 && w.samples().count() == HOT_COLUMNS,
                format!("hot warm-up failed: {:?}", w.first_error()),
            );
            let cycle = PhaseCfg {
                src: Source::Cycle(&inp.hot_reqs),
                until: Some(HOT_WARM),
                framing: Framing::Length,
                keep_bodies: false,
                expected: Some(expected),
                traced: false,
            };
            let w = phase(conns, &cycle);
            out.check(w.failed() == 0, format!("hot warm-up replay failed: {:?}", w.first_error()));
            0.0
        }
    }
}

/// What booting a run's server children yields.
struct Booted {
    boots: Vec<Boot>,
    /// The library's bodies for the checked inputs, by request id.
    expected: Vec<Vec<u8>>,
    server: Child,
}

/// Boots the child that computes the library's expected bodies, then the
/// serving one, on `dir`; `boot_only` adds the run's remaining boots
/// after the timed phase, so `setup_s` samples both ends of the run.
fn boot(kind: Kind, seed: u64, dir: &Path) -> Result<Booted, String> {
    let expect_path = sys::work_dir().join(format!("expect-{}.bin", std::process::id()));
    let expect = Some((kind.name(), seed, expect_path.as_path()));
    let c = Child::spawn(Spawn { dir, serve: false, telemetry_off: false, expect })?;
    let mut boots = vec![c.boot];
    c.finish()?;
    let expected = child::read_records(&expect_path)?;
    let _ = std::fs::remove_file(&expect_path);
    let server = Child::spawn(Spawn { dir, serve: true, telemetry_off: false, expect: None })?;
    boots.push(server.boot);
    Ok(Booted { boots, expected, server })
}

/// Boots `dir` until `boots` holds `BOOTS` samples, each child exiting
/// as soon as it has answered healthz.
fn boot_only(dir: &Path, boots: &mut Vec<Boot>) -> Result<(), String> {
    while boots.len() < BOOTS {
        let c = Child::spawn(Spawn { dir, serve: false, telemetry_off: false, expect: None })?;
        boots.push(c.boot);
        c.finish()?;
    }
    Ok(())
}

/// A timed phase: cold streams never-repeated tables and keeps their
/// bodies for checking; hot cycles the hot set, each response compared
/// with the library's bytes as it arrives.
fn timed<'a>(
    kind: Kind,
    pool: &'a [Vec<u8>],
    next: &'a AtomicUsize,
    hot_reqs: &'a [Vec<u8>],
    expected: &'a [Vec<u8>],
    secs: f64,
    traced: bool,
) -> PhaseCfg<'a> {
    let until = Some(Duration::from_secs_f64(secs));
    match kind {
        Kind::TableCold => PhaseCfg {
            src: Source::Stream(pool, next),
            until,
            framing: Framing::Chunked,
            keep_bodies: true,
            expected: None,
            traced,
        },
        Kind::ColumnHot => PhaseCfg {
            src: Source::Cycle(hot_reqs),
            until,
            framing: Framing::Length,
            keep_bodies: false,
            expected: Some(expected),
            traced,
        },
    }
}

/// One second of a timed phase: units answered and latency quantiles of
/// the requests that ended in it.
struct Window {
    units: u64,
    p50_ns: u64,
    p99_ns: u64,
}

/// The timed phase cut into whole seconds by request end time. A failed
/// request counts as slower than every success in its second.
fn windows(ph: &PhaseOut, unit_of: impl Fn(&Sample) -> u64) -> Vec<Window> {
    let n = ph.elapsed.as_secs() as usize;
    let mut lat: Vec<Vec<u64>> = vec![Vec::new(); n];
    let mut units = vec![0u64; n];
    for s in ph.samples() {
        let i = (s.end_ns / 1_000_000_000) as usize;
        if i < n {
            lat[i].push(if s.ok { s.end_ns - s.start_ns } else { u64::MAX });
            units[i] += if s.ok { unit_of(s) } else { 0 };
        }
    }
    lat.iter_mut()
        .zip(units)
        .map(|(l, units)| Window {
            units,
            p50_ns: quantile_u64(l, 0.5).unwrap_or(u64::MAX),
            p99_ns: quantile_u64(l, 0.99).unwrap_or(u64::MAX),
        })
        .collect()
}

fn median_ns(v: impl Iterator<Item = u64>) -> Option<f64> {
    median(&v.map(|x| x as f64).collect::<Vec<_>>())
}

/// Runs a serve workload on the model in `dir`. Untraced, it reports the
/// end-to-end metrics; traced, the per-layer ones (the caller adds
/// `core.train.epoch_s`) and writes the spans to `spans`.
pub fn run(
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: Option<&Path>,
    dir: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    let spans = trace;
    let trace = trace.is_some();
    let clock = Instant::now();
    // Created first so client and replay spans share one time origin.
    let mut tr = Tracer::new();
    let mut stages: Vec<(&str, f64)> = Vec::new();
    let mut stage = |name| stages.push((name, clock.elapsed().as_secs_f64()));
    let mut inp = build_inputs(kind, seed);
    stage("inputs");
    let Booted { mut boots, expected, server } = boot(kind, seed, dir)?;
    stage("boots");
    let want = match kind {
        Kind::TableCold => CHECK_TABLES,
        Kind::ColumnHot => HOT_COLUMNS,
    };
    if expected.len() != want {
        return Err(format!("library produced {} expected bodies, wanted {want}", expected.len()));
    }
    let (_, config) =
        client::get(server.addr, "/v1/config").map_err(|e| format!("GET /v1/config: {e}"))?;
    out.note(
        "serve_config",
        serde_json::from_str(&String::from_utf8_lossy(&config)).unwrap_or(Value::Null),
    );
    out.note("serve_config_defaults", json!(format!("{:?}", ServeConfig::default())));
    let mut conns = connect(server.addr)?;
    let rate = warm_up(kind, &mut conns, &inp, &expected, out);
    stage("warm_up");

    // Timed cold tables, sized from the warm-up rate with a 3x margin;
    // the stream's content depends only on the seed, not on its length.
    let timed_secs = if trace { 2.0 * seconds as f64 / 3.0 } else { seconds as f64 };
    let (pool, metas): (Vec<Vec<u8>>, Vec<Meta>) = match kind {
        Kind::TableCold => {
            let n = CHECK_TABLES + (rate * timed_secs * 3.0).ceil() as usize;
            let tabs = inp.stream.take(n);
            let metas = tabs.iter().map(Meta::of).collect();
            (tabs.iter().map(Tab::http).collect(), metas)
        }
        Kind::ColumnHot => (Vec::new(), Vec::new()),
    };
    out.note("timed_stream_tables", json!(pool.len()));
    stage("timed_inputs");
    let next = AtomicUsize::new(0);
    let timed_cfg =
        |secs: f64, traced: bool| timed(kind, &pool, &next, &inp.hot_reqs, &expected, secs, traced);

    let before = scrape(server.addr)?;
    let phases: Vec<PhaseOut> = if trace {
        let third = seconds as f64 / 3.0;
        vec![
            phase(&mut conns, &timed_cfg(third, true)),
            phase(&mut conns, &timed_cfg(third, false)),
        ]
    } else {
        vec![phase(&mut conns, &timed_cfg(seconds as f64, false))]
    };
    let after = scrape(server.addr)?;
    stage("timed");
    let hwm_kb = sys::vm_hwm_kb(&server.pid());
    drop(conns);
    server.finish()?;
    stage("shutdown");
    boot_only(dir, &mut boots)?;
    stage("boots_after");

    for ph in &phases {
        out.attempted += ph.samples().count() as u64;
        out.failed += ph.failed();
        if let Some(e) = ph.first_error() {
            out.problems.push(e.clone());
        }
    }
    let delta = |name: &str| counter(&after, name).saturating_sub(counter(&before, name));
    let (hits, misses) = (delta("serve.cache.hit"), delta("serve.cache.miss"));
    match kind {
        Kind::TableCold => {
            out.check(hits == 0, format!("cold timed phase hit the cache {hits} times"))
        }
        Kind::ColumnHot => {
            out.check(misses == 0, format!("hot timed phase missed the cache {misses} times"))
        }
    }
    for c in ["serve.jobs.expired", "serve.jobs.retried", "serve.worker.panics"] {
        out.check(counter(&after, c) == 0, format!("{c} = {}", counter(&after, c)));
    }
    let mut f1 = F1::default();
    if kind == Kind::TableCold {
        let reached = phases[0].samples().filter(|s| (s.id as usize) < CHECK_TABLES).count();
        out.check(
            reached == CHECK_TABLES,
            format!("timed phase reached {reached} of the {CHECK_TABLES} checked tables"),
        );
        out.check(
            next.load(Ordering::Relaxed) < pool.len(),
            "cold stream ran out before the phase ended",
        );
        for (i, ph) in phases.iter().enumerate() {
            check_cold(out, ph, &metas, &expected, (i == 0).then_some(&mut f1));
        }
    } else {
        // Every hot response already matched the library's bytes.
        let served: Vec<String> = expected
            .iter()
            .map(|b| {
                serde_json::from_str::<explainti_api::PredictResponse>(&String::from_utf8_lossy(b))
                    .map(|r| r.label)
                    .unwrap_or_default()
            })
            .collect();
        for (c, label) in inp.hot.iter().zip(&served) {
            f1.add(label, &c.truth);
        }
    }
    stage("checks");
    out.note("stages_s", json!(stages.iter().map(|(n, t)| json!([n, t])).collect::<Vec<_>>()));
    let setup_s = median_ns(boots.iter().map(|b| b.boot_ns)).map(|v| v / 1e9);
    out.note("boots_ns", json!(boots.iter().map(|b| b.boot_ns).collect::<Vec<_>>()));

    if !trace {
        let ph = &phases[0];
        let mut lat = ph.latencies();
        let n = lat.len() as u64;
        let units: u64 = match kind {
            Kind::TableCold => ph
                .samples()
                .filter(|s| s.ok)
                .map(|s| metas[s.id as usize].headers.len() as u64)
                .sum(),
            Kind::ColumnHot => ph.samples().filter(|s| s.ok).count() as u64,
        };
        let unit_name = if kind == Kind::TableCold { "columns" } else { "requests" };
        out.note("timed_phase", json!({"seconds": ph.elapsed.as_secs_f64(), "requests": n, "units": units, "unit": unit_name}));
        let unit_of = |s: &Sample| match kind {
            Kind::TableCold => metas[s.id as usize].headers.len() as u64,
            Kind::ColumnHot => 1,
        };
        // Throughput and p50 are medians over the phase's seconds, so a
        // few seconds of host interference do not move them.
        let win = windows(ph, unit_of);
        let per_second: Vec<Value> =
            win.iter().map(|w| json!([w.units, w.p50_ns, w.p99_ns])).collect();
        out.note(
            "slices",
            json!({"columns": ["units", "p50_ns", "p99_ns"], "per_second": per_second}),
        );
        let mut p = |q| quantile_u64(&mut lat, q).map(|v| v as f64 / 1e3);
        out.note(
            "whole_phase",
            json!({
                "throughput_per_s": units as f64 / ph.elapsed.as_secs_f64().max(1e-9),
                "latency_p50_us": p(0.5),
                "latency_p99_us": p(0.99),
            }),
        );
        let per_window = |f: fn(&Window) -> u64, scale: f64| {
            median(&win.iter().map(|w| f(w) as f64 * scale).collect::<Vec<_>>())
        };
        let note = format!("median of {} one-second windows", win.len());
        // Host interference multiplies a second's p99 (up to tenfold on a
        // shared 2-vCPU VM) where it moves p50 and throughput by a tenth,
        // so p99 takes the lower quartile of the seconds, not the median:
        // the tail latency at least a quarter of the run's seconds held.
        let mut p99s: Vec<u64> = win.iter().map(|w| w.p99_ns).collect();
        let p99 = quantile_u64(&mut p99s, 0.25).map(|v| v as f64 / 1e3);
        let mut p99_note = format!("lower quartile of {} one-second windows' p99", win.len());
        if !crate::stats::p99_supported(lat.len() / win.len().max(1)) {
            p99_note.push_str("; fewer than 1000 samples per window");
        }
        out.metrics = vec![
            Metric::new("setup_s", setup_s, "s", boots.len() as u64),
            Metric::new("throughput_per_s", per_window(|w| w.units, 1.0), "1/s", units)
                .with_note(&note),
            Metric::new("latency_p50_us", per_window(|w| w.p50_ns, 1e-3), "us", n).with_note(&note),
            Metric::new("latency_p99_us", p99, "us", n).with_note(&p99_note),
            Metric::new("peak_rss_mb", hwm_kb.map(|k| k as f64 / 1024.0), "MB", 1),
            Metric::new("f1_micro", f1.value(), "ratio", f1.total),
        ];
        return Ok(());
    }

    // ---- Traced run: live figures, then the layer replays. ----
    let (traced, untraced) = (&phases[0], &phases[1]);
    let base = tr.offset(traced.start);
    for log in &traced.logs {
        for s in &log.samples {
            let root = tr.spans.len();
            tr.spans.push(layers::Span {
                name: "client.request",
                request: s.id,
                start_ns: base + s.start_ns,
                end_ns: base + s.end_ns,
                parent: None,
                units: 1,
            });
            tr.spans.push(layers::Span {
                name: "client.write",
                request: s.id,
                start_ns: base + s.start_ns,
                end_ns: base + s.write_ns,
                parent: Some(root),
                units: 1,
            });
            tr.spans.push(layers::Span {
                name: "client.read",
                request: s.id,
                start_ns: base + s.write_ns,
                end_ns: base + s.end_ns,
                parent: Some(root),
                units: 1,
            });
        }
    }
    let pct = |a: Option<f64>, b: Option<f64>| a.zip(b).map(|(a, b)| (a / b - 1.0) * 100.0);
    let trace_overhead = pct(traced.p50_ns(), untraced.p50_ns());

    // The same phase against a server booted with telemetry off.
    let quiet = Child::spawn(Spawn { dir, serve: true, telemetry_off: true, expect: None })?;
    let mut conns = connect(quiet.addr)?;
    warm_up(kind, &mut conns, &inp, &expected, out);
    next.store(0, Ordering::Relaxed);
    let off = phase(&mut conns, &timed_cfg(seconds as f64 / 3.0, false));
    drop(conns);
    quiet.finish()?;
    out.attempted += off.samples().count() as u64;
    out.failed += off.failed();
    if kind == Kind::TableCold {
        check_cold(out, &off, &metas, &expected, None);
    }
    let obs_overhead = pct(untraced.p50_ns(), off.p50_ns());

    let (batches, batched) = {
        let (c1, s1) = hist(&after, "serve.batch.size");
        let (c0, s0) = hist(&before, "serve.batch.size");
        (c1.saturating_sub(c0), s1.saturating_sub(s0))
    };

    // Replays, in this process, on a model rebuilt from the same directory.
    let (mut model, dataset) = layers::replay_boot(&mut tr, dir)?;
    let labels = dataset.collection.type_labels.clone();
    let check = inputs::check_tables(seed);
    let check_reqs: Vec<Vec<u8>> = check.iter().take(REPLAY_TABLES).map(Tab::http).collect();
    let reqs: Vec<(u32, ReplayReq<'_>)> = match kind {
        Kind::TableCold => check
            .iter()
            .zip(&check_reqs)
            .enumerate()
            .map(|(i, (t, b))| (i as u32, ReplayReq::Table(t, b)))
            .collect(),
        Kind::ColumnHot => (0..HOT_REPLAY_ROUNDS)
            .flat_map(|_| inp.hot.iter().zip(&inp.hot_reqs).enumerate())
            .map(|(i, (c, b))| (i as u32, ReplayReq::Column(c, b)))
            .collect(),
    };
    let hit_path = kind == Kind::ColumnHot;
    layers::replay_requests(&mut tr, &model, &labels, &reqs, hit_path)?;
    let nproc = sys::nproc();
    let (visited, queries) = layers::replay_model(&mut tr, &mut model, &reqs, hit_path, nproc);
    layers::replay_nn(&mut tr, &model, NN_SAMPLES);
    layers::replay_offline(
        &mut tr,
        &model,
        &dataset,
        &sys::work_dir().join(format!("save-{}", std::process::id())),
    )?;

    // Client latency minus the replayed compute of the same request.
    let replayed: std::collections::BTreeMap<u32, f64> = {
        let mut by: std::collections::BTreeMap<u32, Vec<f64>> = Default::default();
        for (id, ns) in tr.root_totals("replay.request") {
            by.entry(id).or_default().push(ns as f64);
        }
        by.into_iter().filter_map(|(id, v)| median(&v).map(|m| (id, m))).collect()
    };
    let overhead: Vec<f64> = traced
        .samples()
        .filter(|s| s.ok)
        .filter_map(|s| replayed.get(&s.id).map(|r| (s.end_ns - s.start_ns) as f64 - r))
        .collect();

    let mut m = layers::replay_metrics(&tr);
    if nproc < 2 {
        for x in m.iter_mut().filter(|x| x.name == "pool.serial_predict_us") {
            *x =
                Metric::skipped(&x.name, "us", "one core: a fan-out comparison means nothing here");
        }
    }
    m.push(Metric::new(
        "serve.overhead_us",
        median(&overhead).map(|v| v / 1e3),
        "us",
        overhead.len() as u64,
    ));
    m.push(Metric::new("obs.overhead_pct", obs_overhead, "%", off.samples().count() as u64));
    m.push(Metric::new(
        "bench.trace_overhead_pct",
        trace_overhead,
        "%",
        traced.samples().count() as u64,
    ));
    m.push(Metric::new(
        "serve.cache.hit_ratio",
        (hits + misses > 0).then(|| hits as f64 / (hits + misses) as f64),
        "ratio",
        hits + misses,
    ));
    // Zero when no micro-batch ran, as on a fully cached phase.
    let mean_batch = if batches == 0 { 0.0 } else { batched as f64 / batches as f64 };
    m.push(Metric::new("serve.batch.mean_size", Some(mean_batch), "jobs", batches));
    m.push(Metric::new("ann.visited_per_query", Some(visited), "nodes", queries));
    m.push(Metric::new(
        "core.persist.load_ms",
        median_ns(boots.iter().map(|b| b.load_ns)).map(|v| v / 1e6),
        "ms",
        boots.len() as u64,
    ));
    m.push(Metric::new(
        "serve.start_ms",
        median_ns(boots.iter().map(|b| b.boot_ns - b.load_ns)).map(|v| v / 1e6),
        "ms",
        boots.len() as u64,
    ));
    out.metrics = m;
    out.note("setup_s", json!(setup_s));
    if let Some(spans) = spans {
        tr.write_jsonl(spans).map_err(|e| format!("write {spans:?}: {e}"))?;
        out.note("spans_file", json!(spans.to_string_lossy().into_owned()));
    }
    Ok(())
}
