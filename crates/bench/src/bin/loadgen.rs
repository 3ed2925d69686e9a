//! Socket-level load generator for the inference server — the
//! measurement substrate behind `BENCH_serve.json` and CI's SLO gate.
//!
//! Two traffic shapes over real TCP connections:
//!
//! * **closed loop** — `--conns` clients, each issuing its next request
//!   the moment the previous response lands. Measures capacity.
//! * **open loop** — a Poisson-free fixed arrival schedule at each rate
//!   in `--rates`, independent of response times (the shape that
//!   exposes queueing collapse; late dispatches are counted instead of
//!   silently coordinated away).
//!
//! Latency quantiles are computed exactly from the recorded samples
//! (not bucketed), and every run re-measures a serial **calibration**
//! mean first so the committed baseline is machine-normalised: the gate
//! compares `p99 / calib_mean` ratios, which transfer across runner
//! generations far better than absolute nanoseconds.
//!
//! `--failpoints SPEC` arms in-process failpoints *after* calibration,
//! so an injected slowdown inflates the normalised p99 rather than
//! cancelling out — that is what CI's negative gate arm relies on.

use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use explainti_sync::{classes, OrderedMutex};
use std::time::{Duration, Instant};

use explainti_bench::{column_payloads, exchange, read_framed};
use explainti_core::{ExplainTi, ExplainTiConfig};
use explainti_corpus::{generate_wiki, WikiConfig};
use explainti_serve::{start, ServeConfig};
use serde_json::{json, Value};

const USAGE: &str = "\
loadgen — socket-level load generator for the ExplainTI server

  --addr HOST:PORT      target an already-running server
  --self-host           boot an untrained in-process server (default)
  --workers N           prediction workers for the self-hosted server (default 2)
  --mode closed|open|both   traffic shape (default closed)
  --conns N             closed-loop client connections (default 4)
  --keep-alive          reuse one persistent connection per client instead
                        of a fresh socket per request; responses are framed
                        (Content-Length / chunked) and reconnects are counted
  --rates R1,R2,...     open-loop arrival rates in req/s (default 20,50)
  --duration-s S        seconds per phase (default 5)
  --repeat-frac F       fraction of requests drawn from a hot set of 8
                        payloads, exercising the response cache (default 0.3)
  --calib N             serial calibration requests (default 16)
  --failpoints SPEC     arm failpoints AFTER calibration (self-host only),
                        e.g. 'serve.batch.slow=always'
  --out PATH            report path (default BENCH_serve.json)
  --write-baseline PATH also write the report as a blessed baseline
  --gate PATH           compare against a baseline report; with
  --max-p99-ratio R     fail (exit 1) when normalized_p99 exceeds
                        R x baseline (default 1.3)
";

struct Args {
    addr: Option<String>,
    self_host: bool,
    workers: usize,
    mode: String,
    conns: usize,
    keep_alive: bool,
    rates: Vec<f64>,
    duration_s: u64,
    repeat_frac: f64,
    calib: usize,
    failpoints: Option<String>,
    out: String,
    write_baseline: Option<String>,
    gate: Option<String>,
    max_p99_ratio: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: None,
        self_host: false,
        workers: 2,
        mode: "closed".to_string(),
        conns: 4,
        keep_alive: false,
        rates: vec![20.0, 50.0],
        duration_s: 5,
        repeat_frac: 0.3,
        calib: 16,
        failpoints: None,
        out: "BENCH_serve.json".to_string(),
        write_baseline: None,
        gate: None,
        max_p99_ratio: 1.3,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize| -> Result<String, String> {
        *i += 1;
        argv.get(*i).cloned().ok_or_else(|| format!("{} needs a value", argv[*i - 1]))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--addr" => args.addr = Some(value(&mut i)?),
            "--self-host" => args.self_host = true,
            "--workers" => {
                args.workers = value(&mut i)?.parse().map_err(|e| format!("--workers: {e}"))?
            }
            "--mode" => args.mode = value(&mut i)?,
            "--conns" => {
                args.conns = value(&mut i)?.parse().map_err(|e| format!("--conns: {e}"))?
            }
            "--keep-alive" => args.keep_alive = true,
            "--rates" => {
                args.rates = value(&mut i)?
                    .split(',')
                    .filter(|s| !s.trim().is_empty())
                    .map(|s| s.trim().parse::<f64>().map_err(|e| format!("--rates: {e}")))
                    .collect::<Result<_, _>>()?;
            }
            "--duration-s" => {
                args.duration_s =
                    value(&mut i)?.parse().map_err(|e| format!("--duration-s: {e}"))?;
            }
            "--repeat-frac" => {
                args.repeat_frac =
                    value(&mut i)?.parse().map_err(|e| format!("--repeat-frac: {e}"))?;
            }
            "--calib" => {
                args.calib = value(&mut i)?.parse().map_err(|e| format!("--calib: {e}"))?
            }
            "--failpoints" => args.failpoints = Some(value(&mut i)?),
            "--out" => args.out = value(&mut i)?,
            "--write-baseline" => args.write_baseline = Some(value(&mut i)?),
            "--gate" => args.gate = Some(value(&mut i)?),
            "--max-p99-ratio" => {
                args.max_p99_ratio =
                    value(&mut i)?.parse().map_err(|e| format!("--max-p99-ratio: {e}"))?;
            }
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
        i += 1;
    }
    if !matches!(args.mode.as_str(), "closed" | "open" | "both") {
        return Err(format!("--mode must be closed|open|both, got {}", args.mode));
    }
    if args.conns == 0 || args.duration_s == 0 {
        return Err("--conns and --duration-s must be positive".to_string());
    }
    if args.addr.is_some() && args.failpoints.is_some() {
        return Err("--failpoints arms in-process failpoints; it needs --self-host".to_string());
    }
    Ok(args)
}

/// One `Connection: close` interpret exchange: status, latency, and the
/// `X-Trace-Id` the server minted for the request (for joining failures
/// against trace logs).
fn one_request(addr: &SocketAddr, body: &str) -> Result<(u16, u64, Option<String>), String> {
    let started = Instant::now();
    let resp = exchange(addr, "POST", "/v1/interpret", body)?;
    let elapsed_ns = started.elapsed().as_nanos() as u64;
    Ok((resp.status, elapsed_ns, resp.header("x-trace-id").map(str::to_string)))
}

fn fetch_metrics(addr: &SocketAddr) -> Option<Value> {
    let resp = exchange(addr, "GET", "/v1/metrics", "").ok()?;
    serde_json::from_str(&resp.body).ok()
}

/// A persistent-connection client for `--keep-alive`: one socket per
/// client thread, framed responses, and a single fresh-socket retry
/// when a reused connection turns out to be stale (the server may have
/// idled it out between requests — that is recovery, not an error).
struct KeepAliveClient {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
}

impl KeepAliveClient {
    fn new(addr: SocketAddr) -> Self {
        Self { addr, stream: None, buf: Vec::new() }
    }

    fn try_once(&mut self, body: &str) -> Result<(u16, Option<String>, bool), String> {
        if self.stream.is_none() {
            let s = TcpStream::connect_timeout(&self.addr, Duration::from_secs(10))
                .map_err(|e| e.to_string())?;
            s.set_read_timeout(Some(Duration::from_secs(30))).map_err(|e| e.to_string())?;
            self.buf.clear();
            self.stream = Some(s);
        }
        let Some(stream) = self.stream.as_mut() else {
            return Err("no connection".to_string());
        };
        let msg = format!(
            "POST /v1/interpret HTTP/1.1\r\nHost: loadgen\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        stream.write_all(msg.as_bytes()).map_err(|e| e.to_string())?;
        let resp = read_framed(stream, &mut self.buf)?;
        let close = resp.header("connection").is_some_and(|v| v.eq_ignore_ascii_case("close"));
        Ok((resp.status, resp.header("x-trace-id").map(str::to_string), close))
    }

    /// One exchange, reusing the socket when possible. Returns the
    /// usual (status, latency, trace) triple plus whether the exchange
    /// rode an already-used connection.
    fn request(&mut self, body: &str) -> Result<(u16, u64, Option<String>, bool), String> {
        let started = Instant::now();
        let reused = self.stream.is_some();
        let outcome = match self.try_once(body) {
            Ok(ok) => Ok((ok, reused)),
            Err(_) if reused => {
                self.stream = None;
                self.try_once(body).map(|ok| (ok, false))
            }
            Err(e) => Err(e),
        };
        match outcome {
            Ok(((status, trace_id, close), reused)) => {
                if close {
                    self.stream = None;
                }
                Ok((status, started.elapsed().as_nanos() as u64, trace_id, reused))
            }
            Err(e) => {
                self.stream = None;
                Err(e)
            }
        }
    }
}

fn counter_of(metrics: &Value, name: &str) -> u64 {
    metrics.get("counters").and_then(|c| c.get(name)).and_then(Value::as_u64).unwrap_or(0)
}

/// Exact quantile from recorded samples (sorts a copy).
fn quantiles(mut samples: Vec<u64>) -> (u64, u64, u64, u64) {
    if samples.is_empty() {
        return (0, 0, 0, 0);
    }
    samples.sort_unstable();
    let at = |q: f64| {
        let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
        samples[rank - 1]
    };
    (at(0.50), at(0.99), at(0.999), samples[samples.len() - 1])
}

/// Shared per-phase accounting.
struct PhaseStats {
    latencies_ns: OrderedMutex<Vec<u64>>,
    sent: AtomicU64,
    errors: AtomicU64,
    late: AtomicU64,
    reused: AtomicU64,
    opened: AtomicU64,
    error_traces: OrderedMutex<Vec<String>>,
}

impl Default for PhaseStats {
    fn default() -> Self {
        Self {
            latencies_ns: OrderedMutex::new(&classes::BENCH_LOADGEN_LATENCIES, Vec::new()),
            sent: AtomicU64::default(),
            errors: AtomicU64::default(),
            late: AtomicU64::default(),
            reused: AtomicU64::default(),
            opened: AtomicU64::default(),
            error_traces: OrderedMutex::new(&classes::BENCH_LOADGEN_ERRORS, Vec::new()),
        }
    }
}

impl PhaseStats {
    /// Records a keep-alive exchange, folding the reuse flag into the
    /// connection accounting before the shared outcome bookkeeping.
    fn record_keepalive(&self, outcome: Result<(u16, u64, Option<String>, bool), String>) {
        match outcome {
            Ok((status, ns, trace, reused)) => {
                if reused {
                    // ORDERING: Relaxed — load-report tallies; read after
                    // every client thread has joined.
                    self.reused.fetch_add(1, Ordering::Relaxed);
                    explainti_obs::add_counter("loadgen.reused", 1);
                } else {
                    // ORDERING: Relaxed — tally, see above.
                    self.opened.fetch_add(1, Ordering::Relaxed);
                }
                self.record(Ok((status, ns, trace)));
            }
            Err(e) => {
                // ORDERING: Relaxed — tally, see above.
                self.opened.fetch_add(1, Ordering::Relaxed);
                self.record(Err(e));
            }
        }
    }
    fn record(&self, outcome: Result<(u16, u64, Option<String>), String>) {
        // ORDERING: Relaxed — load-report tallies only; totals are read
        // after the phase's client threads join, which synchronises.
        self.sent.fetch_add(1, Ordering::Relaxed);
        explainti_obs::add_counter("loadgen.sent", 1);
        match outcome {
            Ok((status, ns, trace)) => {
                self.latencies_ns.lock().push(ns);
                explainti_obs::registry().histogram("loadgen.request").record(ns);
                if status >= 500 {
                    // ORDERING: Relaxed — tally, see above.
                    self.errors.fetch_add(1, Ordering::Relaxed);
                    explainti_obs::add_counter("loadgen.errors", 1);
                    if let Some(id) = trace {
                        let mut t = self.error_traces.lock();
                        if t.len() < 20 {
                            t.push(id);
                        }
                    }
                }
            }
            Err(_) => {
                // ORDERING: Relaxed — tally, see above.
                self.errors.fetch_add(1, Ordering::Relaxed);
                explainti_obs::add_counter("loadgen.errors", 1);
            }
        }
    }

    fn summary(&self, duration_s: f64) -> Value {
        let samples = self.latencies_ns.lock().clone();
        let (p50, p99, p999, max) = quantiles(samples);
        // ORDERING: Relaxed — tallies are final once the phase's client
        // threads have joined (the same contract covers the loads below).
        let sent = self.sent.load(Ordering::Relaxed);
        json!({
            "sent": sent,
            "errors": self.errors.load(Ordering::Relaxed), // ORDERING: Relaxed — as above
            "late": self.late.load(Ordering::Relaxed), // ORDERING: Relaxed — as above
            "throughput_rps": sent as f64 / duration_s,
            "p50_ns": p50,
            "p99_ns": p99,
            "p999_ns": p999,
            "max_ns": max,
            "connections_opened": self.opened.load(Ordering::Relaxed), // ORDERING: Relaxed — as above
            "reused_requests": self.reused.load(Ordering::Relaxed), // ORDERING: Relaxed — as above
            "error_trace_ids": self.error_traces.lock().clone(),
        })
    }

    fn p99_ns(&self) -> u64 {
        let samples = self.latencies_ns.lock().clone();
        quantiles(samples).1
    }
}

/// A deterministic payload picker: a hot set of 8 bodies re-requested
/// with probability `repeat_frac` (cache hits), cold bodies otherwise.
fn pick_payload<'a>(
    payloads: &'a [String],
    cold_cursor: &AtomicUsize,
    repeat_frac: f64,
    tick: u64,
) -> &'a str {
    let hot = payloads.len().min(8);
    // splitmix-style hash of the tick stands in for an RNG: cheap,
    // deterministic, and shared-state-free across client threads.
    let mut h = tick.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    h ^= h >> 31;
    if ((h % 1000) as f64) < repeat_frac * 1000.0 {
        &payloads[(h % hot as u64) as usize]
    } else {
        // ORDERING: Relaxed — the cursor only needs atomicity to spread
        // cold payloads across threads; no payload data is published.
        let i = cold_cursor.fetch_add(1, Ordering::Relaxed);
        &payloads[i % payloads.len()]
    }
}

/// Samples the server's instantaneous queue depth while a phase runs.
fn spawn_queue_sampler(
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    out: Arc<OrderedMutex<Vec<Value>>>,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let started = Instant::now();
        // ORDERING: Relaxed — stop is a lone flag; one extra 100 ms
        // sample after the store is harmless.
        while !stop.load(Ordering::Relaxed) {
            if let Some(m) = fetch_metrics(&addr) {
                let depth = m
                    .get("gauges")
                    .and_then(|g| g.get("serve.queue.depth"))
                    .and_then(Value::as_f64)
                    .unwrap_or(0.0);
                out.lock().push(json!({
                    "t_ms": started.elapsed().as_millis() as u64,
                    "depth": depth,
                }));
            }
            std::thread::sleep(Duration::from_millis(100));
        }
    })
}

fn run_closed(
    addr: SocketAddr,
    payloads: Arc<Vec<String>>,
    conns: usize,
    duration: Duration,
    repeat_frac: f64,
    keep_alive: bool,
) -> PhaseStats {
    let stats = Arc::new(PhaseStats::default());
    let cold = Arc::new(AtomicUsize::new(0));
    let deadline = Instant::now() + duration;
    let workers: Vec<_> = (0..conns)
        .map(|w| {
            let (stats, payloads, cold) =
                (Arc::clone(&stats), Arc::clone(&payloads), Arc::clone(&cold));
            std::thread::spawn(move || {
                let mut client = keep_alive.then(|| KeepAliveClient::new(addr));
                let mut tick = (w as u64) << 32;
                while Instant::now() < deadline {
                    tick += 1;
                    let body = pick_payload(&payloads, &cold, repeat_frac, tick);
                    match client.as_mut() {
                        Some(c) => stats.record_keepalive(c.request(body)),
                        None => {
                            // ORDERING: Relaxed — tally, read post-join.
                            stats.opened.fetch_add(1, Ordering::Relaxed);
                            stats.record(one_request(&addr, body));
                        }
                    }
                }
            })
        })
        .collect();
    for w in workers {
        let _ = w.join();
    }
    Arc::try_unwrap(stats).unwrap_or_default()
}

fn run_open(
    addr: SocketAddr,
    payloads: Arc<Vec<String>>,
    rate: f64,
    duration: Duration,
    repeat_frac: f64,
    senders: usize,
    keep_alive: bool,
) -> PhaseStats {
    let stats = Arc::new(PhaseStats::default());
    let cold = Arc::new(AtomicUsize::new(0));
    let total = (rate * duration.as_secs_f64()).ceil() as u64;
    let next = Arc::new(AtomicU64::new(0));
    let started = Instant::now();
    let workers: Vec<_> = (0..senders)
        .map(|_| {
            let (stats, payloads, cold, next) =
                (Arc::clone(&stats), Arc::clone(&payloads), Arc::clone(&cold), Arc::clone(&next));
            std::thread::spawn(move || {
                let mut client = keep_alive.then(|| KeepAliveClient::new(addr));
                loop {
                    // ORDERING: Relaxed — slot counter; atomicity alone
                    // assigns each schedule slot to one sender.
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= total {
                        break;
                    }
                    let target = started + Duration::from_secs_f64(i as f64 / rate);
                    let now = Instant::now();
                    if target > now {
                        std::thread::sleep(target - now);
                    } else if now.saturating_duration_since(target) > Duration::from_millis(100) {
                        // The schedule slipped: every sender is busy waiting
                        // on the server. Record it — this is the open-loop
                        // signal closed-loop benches hide.
                        // ORDERING: Relaxed — tally, read post-join.
                        stats.late.fetch_add(1, Ordering::Relaxed);
                        explainti_obs::add_counter("loadgen.late", 1);
                    }
                    let body = pick_payload(&payloads, &cold, repeat_frac, i);
                    match client.as_mut() {
                        Some(c) => stats.record_keepalive(c.request(body)),
                        None => {
                            // ORDERING: Relaxed — tally, read post-join.
                            stats.opened.fetch_add(1, Ordering::Relaxed);
                            stats.record(one_request(&addr, body));
                        }
                    }
                }
            })
        })
        .collect();
    for w in workers {
        let _ = w.join();
    }
    Arc::try_unwrap(stats).unwrap_or_default()
}

/// Boots an untrained in-process server on an ephemeral port.
fn self_host(workers: usize) -> explainti_serve::ServerHandle {
    let d = generate_wiki(&WikiConfig { num_tables: 40, seed: 4242, ..Default::default() });
    let cfg = ExplainTiConfig::bert_like(2048, 32);
    let mut m = ExplainTi::new(&d, cfg);
    for t in 0..m.tasks().len() {
        m.refresh_store(t);
    }
    let labels = d.collection.type_labels.clone();
    let serve_cfg = ServeConfig {
        workers: workers.max(1),
        cache_cap: 512,
        deadline_ms: 60_000,
        ..Default::default()
    };
    start(Arc::new(m), labels, serve_cfg).expect("self-hosted server failed to start")
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("loadgen: {e}");
            std::process::exit(2);
        }
    };
    explainti_obs::set_level(explainti_obs::Level::Info);

    let payloads = Arc::new(column_payloads(120, 0x10ad, 6));
    assert!(!payloads.is_empty(), "payload corpus is empty");

    let mut handle = None;
    let addr: SocketAddr = match &args.addr {
        Some(a) => a.parse().unwrap_or_else(|e| {
            eprintln!("loadgen: bad --addr {a}: {e}");
            std::process::exit(2);
        }),
        None => {
            eprintln!("[self-hosting an untrained server with {} workers]", args.workers.max(1));
            let h = self_host(args.workers);
            let addr = h.addr();
            handle = Some(h);
            addr
        }
    };

    // -- Calibration: serial requests on cold payloads ---------------------
    let mut calib = Vec::new();
    for i in 0..args.calib.max(4) {
        let body = &payloads[(i * 7) % payloads.len()];
        match one_request(&addr, body) {
            Ok((200, ns, _)) => calib.push(ns),
            Ok((status, _, _)) => eprintln!("[calibration request got {status}]"),
            Err(e) => eprintln!("[calibration request failed: {e}]"),
        }
    }
    assert!(calib.len() >= 2, "calibration failed: server at {addr} is not answering");
    // Drop the slowest third: first-touch effects (cold caches, lazy
    // allocation) otherwise leak into the normalisation divisor.
    calib.sort_unstable();
    calib.truncate(calib.len() - calib.len() / 3);
    let calib_mean_ns = calib.iter().sum::<u64>() as f64 / calib.len() as f64;
    eprintln!(
        "[calibration: mean {:.2} ms over {} serial requests]",
        calib_mean_ns / 1e6,
        calib.len()
    );

    // -- Arm failpoints only now, so they cannot deflate the divisor -------
    if let Some(spec) = &args.failpoints {
        match explainti_faults::configure_from_spec(spec) {
            Ok(n) => eprintln!("[armed {n} failpoint(s): {spec}]"),
            Err(e) => {
                eprintln!("loadgen: bad --failpoints: {e}");
                std::process::exit(2);
            }
        }
    }

    let duration = Duration::from_secs(args.duration_s);
    let queue_curve = Arc::new(OrderedMutex::new(&classes::BENCH_LOADGEN_QUEUE_CURVE, Vec::new()));
    let stop = Arc::new(AtomicBool::new(false));
    let sampler = spawn_queue_sampler(addr, Arc::clone(&stop), Arc::clone(&queue_curve));

    let mut report = std::collections::BTreeMap::<String, Value>::new();
    report.insert("target".into(), json!(addr.to_string()));
    report.insert("self_host".into(), json!(args.addr.is_none()));
    report.insert(
        "machine".into(),
        json!({
            "available_parallelism":
                std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        }),
    );
    report
        .insert("calibration".into(), json!({ "requests": calib.len(), "mean_ns": calib_mean_ns }));
    report.insert("payloads".into(), json!(payloads.len()));
    report.insert("repeat_frac".into(), json!(args.repeat_frac));

    let mut normalized_p99 = None;

    if matches!(args.mode.as_str(), "closed" | "both") {
        let before = fetch_metrics(&addr);
        let stats = run_closed(
            addr,
            Arc::clone(&payloads),
            args.conns,
            duration,
            args.repeat_frac,
            args.keep_alive,
        );
        let after = fetch_metrics(&addr);
        let mut phase = stats.summary(duration.as_secs_f64());
        let norm = stats.p99_ns() as f64 / calib_mean_ns;
        normalized_p99 = Some(norm);
        if let Value::Object(obj) = &mut phase {
            obj.insert("conns".into(), json!(args.conns));
            obj.insert("duration_s".into(), json!(args.duration_s));
            obj.insert("keep_alive".into(), json!(args.keep_alive));
            obj.insert("normalized_p99".into(), json!(norm));
            if let (Some(b), Some(a)) = (&before, &after) {
                // The server's own view of reuse, as a cross-check on
                // the client-side reused_requests count.
                let reused = counter_of(a, "serve.keepalive.reused")
                    .saturating_sub(counter_of(b, "serve.keepalive.reused"));
                obj.insert("server_keepalive_reused".into(), json!(reused));
                let hits = counter_of(a, "serve.cache.hit")
                    .saturating_sub(counter_of(b, "serve.cache.hit"));
                let misses = counter_of(a, "serve.cache.miss")
                    .saturating_sub(counter_of(b, "serve.cache.miss"));
                let lookups = hits + misses;
                obj.insert(
                    "cache".into(),
                    json!({
                        "hits": hits,
                        "misses": misses,
                        "hit_ratio": if lookups > 0 { hits as f64 / lookups as f64 } else { 0.0 },
                    }),
                );
            }
        }
        eprintln!(
            "[closed x{}{}: {} req ({} reused / {} conns), p99 {:.2} ms, normalized {:.2}]",
            args.conns,
            if args.keep_alive { " keep-alive" } else { "" },
            phase.get("sent").and_then(Value::as_u64).unwrap_or(0),
            stats.reused.load(Ordering::Relaxed), // ORDERING: Relaxed — post-join read
            stats.opened.load(Ordering::Relaxed), // ORDERING: Relaxed — post-join read
            stats.p99_ns() as f64 / 1e6,
            norm,
        );
        report.insert("closed".into(), phase);
    }

    if matches!(args.mode.as_str(), "open" | "both") {
        let mut sweeps = Vec::new();
        for &rate in &args.rates {
            if rate <= 0.0 {
                continue;
            }
            let senders = args.conns.max(8);
            let stats = run_open(
                addr,
                Arc::clone(&payloads),
                rate,
                duration,
                args.repeat_frac,
                senders,
                args.keep_alive,
            );
            let mut phase = stats.summary(duration.as_secs_f64());
            if let Value::Object(obj) = &mut phase {
                obj.insert("rate_rps".into(), json!(rate));
                obj.insert("senders".into(), json!(senders));
                obj.insert("keep_alive".into(), json!(args.keep_alive));
                obj.insert("normalized_p99".into(), json!(stats.p99_ns() as f64 / calib_mean_ns));
            }
            eprintln!(
                "[open @{rate}/s: {} req, {} late, p99 {:.2} ms]",
                phase.get("sent").and_then(Value::as_u64).unwrap_or(0),
                phase.get("late").and_then(Value::as_u64).unwrap_or(0),
                stats.p99_ns() as f64 / 1e6,
            );
            sweeps.push(phase);
        }
        report.insert("open".into(), json!(sweeps));
    }

    // ORDERING: Relaxed — lone stop flag for the sampler thread; the
    // join below is the synchronisation point.
    stop.store(true, Ordering::Relaxed);
    let _ = sampler.join();
    report.insert("queue_depth".into(), json!(queue_curve.lock().clone()));

    if let Some(h) = handle.take() {
        h.shutdown();
        let mut h = h;
        h.join();
    }

    // -- Gate: compare machine-normalised p99 against a blessed baseline ---
    let mut gate_failed = false;
    if let Some(path) = &args.gate {
        let current = normalized_p99.unwrap_or_else(|| {
            eprintln!("loadgen: --gate needs a closed-loop phase (use --mode closed|both)");
            std::process::exit(2);
        });
        let baseline: Value = std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|s| serde_json::from_str(&s).map_err(|e| e.to_string()))
            .unwrap_or_else(|e| {
                eprintln!("loadgen: cannot read baseline {path}: {e}");
                std::process::exit(2);
            });
        let base = baseline
            .get("closed")
            .and_then(|c| c.get("normalized_p99"))
            .and_then(Value::as_f64)
            .unwrap_or_else(|| {
                eprintln!("loadgen: baseline {path} has no closed.normalized_p99");
                std::process::exit(2);
            });
        let ratio = if base > 0.0 { current / base } else { f64::INFINITY };
        gate_failed = ratio > args.max_p99_ratio;
        report.insert(
            "gate".into(),
            json!({
                "baseline_path": path,
                "baseline_normalized_p99": base,
                "current_normalized_p99": current,
                "ratio": ratio,
                "max_ratio": args.max_p99_ratio,
                "passed": !gate_failed,
            }),
        );
        eprintln!(
            "[gate: normalized p99 {current:.2} vs baseline {base:.2} -> ratio {ratio:.2} \
             (limit {:.2}) {}]",
            args.max_p99_ratio,
            if gate_failed { "FAIL" } else { "ok" },
        );
    }

    let report = Value::Object(report);
    if let Ok(text) = serde_json::to_string_pretty(&report) {
        if std::fs::write(&args.out, &text).is_ok() {
            eprintln!("[saved {:?}]", args.out);
        }
        if let Some(base_path) = &args.write_baseline {
            if std::fs::write(base_path, &text).is_ok() {
                eprintln!("[blessed baseline {base_path:?}]");
            }
        }
    }

    if gate_failed {
        eprintln!("loadgen: SLO gate FAILED — p99 regressed beyond the allowed ratio");
        std::process::exit(1);
    }
}
