//! Zero-downtime swap drill — CI's `swap-smoke` gate.
//!
//! Boots a self-hosted sharded server, drives keep-alive interpret
//! traffic from `--conns` clients, and performs `--swaps` model swaps
//! *while the traffic is running*. The gate is strict:
//!
//! * serving traffic must see **zero 5xx** across every swap,
//! * every client must observe the generation advance (old and new
//!   `X-Model-Generation` values on the same persistent connection),
//! * the final `/v1/config` generation must be `1 + swaps`.
//!
//! The chaos arm (`--expect-swap-failures`, paired with
//! `--failpoints serve.swap.commit=always`) inverts the swap gate:
//! every swap must fail with a typed 5xx on the admin endpoint, the
//! generation must never move, and serving traffic must *still* see
//! zero 5xx — proving commit-stage rollback is invisible to callers.

use std::collections::{BTreeMap, BTreeSet};
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use explainti_sync::{classes, OrderedMutex};
use std::time::Duration;

use explainti_api::PredictRequest;
use explainti_core::{ExplainTi, ExplainTiConfig};
use explainti_corpus::{generate_wiki, Dataset, WikiConfig};
use explainti_serve::{start, ServeConfig};
use serde_json::json;

const USAGE: &str = "\
swapdrill — zero-downtime model-swap drill for the ExplainTI server

  --conns N               keep-alive serving clients (default 4)
  --phase-s S             seconds of traffic between swaps (default 2)
  --workers N             prediction workers (default 2)
  --shards N              store shards for the boot model (default 4)
  --replicas N            replicas per sample (default 2)
  --swaps N               swaps driven under load (default 2)
  --failpoints SPEC       arm failpoints before the first swap,
                          e.g. 'serve.swap.commit=always'
  --expect-swap-failures  chaos arm: every swap must FAIL (5xx) while
                          serving stays clean and the generation holds
  --out PATH              write the JSON report here as well as stdout
";

struct Args {
    conns: usize,
    phase_s: u64,
    workers: usize,
    shards: usize,
    replicas: usize,
    swaps: usize,
    failpoints: Option<String>,
    expect_swap_failures: bool,
    out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        conns: 4,
        phase_s: 2,
        workers: 2,
        shards: 4,
        replicas: 2,
        swaps: 2,
        failpoints: None,
        expect_swap_failures: false,
        out: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize| -> Result<String, String> {
        *i += 1;
        argv.get(*i).cloned().ok_or_else(|| format!("{} needs a value", argv[*i - 1]))
    };
    let int = |s: String, flag: &str| s.parse::<usize>().map_err(|e| format!("{flag}: {e}"));
    while i < argv.len() {
        match argv[i].as_str() {
            "--conns" => args.conns = int(value(&mut i)?, "--conns")?,
            "--phase-s" => args.phase_s = int(value(&mut i)?, "--phase-s")? as u64,
            "--workers" => args.workers = int(value(&mut i)?, "--workers")?,
            "--shards" => args.shards = int(value(&mut i)?, "--shards")?,
            "--replicas" => args.replicas = int(value(&mut i)?, "--replicas")?,
            "--swaps" => args.swaps = int(value(&mut i)?, "--swaps")?,
            "--failpoints" => args.failpoints = Some(value(&mut i)?),
            "--expect-swap-failures" => args.expect_swap_failures = true,
            "--out" => args.out = Some(value(&mut i)?),
            "--help" | "-h" => {
                eprint!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
        i += 1;
    }
    if args.conns == 0 || args.swaps == 0 {
        return Err("--conns and --swaps must be at least 1".to_string());
    }
    Ok(args)
}

fn tiny(seed: u64, shards: usize, replicas: usize) -> (ExplainTi, Dataset) {
    let d = generate_wiki(&WikiConfig { num_tables: 16, seed, ..Default::default() });
    let cfg = ExplainTiConfig::bert_like(2048, 32).with_store_layout(shards, replicas);
    let mut m = ExplainTi::new(&d, cfg);
    for t in 0..m.tasks().len() {
        m.refresh_store(t);
    }
    (m, d)
}

/// Saves a fresh tiny model to a scratch dir — one valid swap candidate
/// per requested swap, each from a distinct corpus seed.
fn candidate_dirs(swaps: usize) -> Vec<std::path::PathBuf> {
    (0..swaps)
        .map(|i| {
            let seed = 100 + i as u64;
            let dir = std::env::temp_dir()
                .join(format!("explainti-swapdrill-{seed}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let (model, dataset) = tiny(seed, 1, 1);
            model.save_to_dir(&dir, &dataset).expect("save swap candidate");
            dir
        })
        .collect()
}

/// Serving-side tallies, merged across all keep-alive clients.
#[derive(Default)]
struct Tally {
    requests: u64,
    server_5xx: u64,
    statuses: BTreeMap<u16, u64>,
    generations: BTreeSet<u64>,
    reconnects: u64,
    transport_errors: u64,
}

/// Reads one `Content-Length`-framed response off a persistent stream,
/// leaving pipelined leftovers in `buf`. Returns (status, generation).
fn read_one(stream: &mut TcpStream, buf: &mut Vec<u8>) -> Result<(u16, Option<u64>), String> {
    let mut fill = |buf: &mut Vec<u8>| -> Result<(), String> {
        let mut scratch = [0u8; 8192];
        let n = stream.read(&mut scratch).map_err(|e| e.to_string())?;
        if n == 0 {
            return Err("connection closed mid-response".to_string());
        }
        buf.extend_from_slice(&scratch[..n]);
        Ok(())
    };
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        fill(buf)?;
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    buf.drain(..head_end + 4);
    let status: u16 =
        head.split_whitespace().nth(1).and_then(|s| s.parse().ok()).ok_or_else(|| {
            format!("unparseable head: {:?}", head.chars().take(80).collect::<String>())
        })?;
    let header = |name: &str| {
        head.lines()
            .filter_map(|l| l.split_once(':'))
            .find(|(k, _)| k.trim().eq_ignore_ascii_case(name))
            .map(|(_, v)| v.trim().to_string())
    };
    let generation = header("x-model-generation").and_then(|v| v.parse().ok());
    let content_length: usize = header("content-length")
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| "response without Content-Length on a keep-alive stream".to_string())?;
    while buf.len() < content_length {
        fill(buf)?;
    }
    buf.drain(..content_length);
    Ok((status, generation))
}

/// One keep-alive client: POSTs interpret payloads until `stop`,
/// reconnecting (and counting it) when the server closes the socket.
fn client_loop(addr: SocketAddr, payloads: Arc<Vec<String>>, stop: Arc<AtomicBool>) -> Tally {
    let mut tally = Tally::default();
    let mut stream: Option<TcpStream> = None;
    let mut buf = Vec::new();
    let mut n = 0usize;
    // ORDERING: Relaxed — lone stop flag; the drill joins the driver
    // threads before reading results.
    while !stop.load(Ordering::Relaxed) {
        let s = match &mut stream {
            Some(s) => s,
            None => {
                buf.clear();
                match TcpStream::connect_timeout(&addr, Duration::from_secs(5)) {
                    Ok(s) => {
                        let _ = s.set_read_timeout(Some(Duration::from_secs(30)));
                        stream.insert(s)
                    }
                    Err(_) => {
                        tally.transport_errors += 1;
                        std::thread::sleep(Duration::from_millis(20));
                        continue;
                    }
                }
            }
        };
        let body = &payloads[n % payloads.len()];
        n += 1;
        let msg = format!(
            "POST /v1/interpret HTTP/1.1\r\nHost: swapdrill\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let outcome = s
            .write_all(msg.as_bytes())
            .map_err(|e| e.to_string())
            .and_then(|()| read_one(s, &mut buf));
        match outcome {
            Ok((status, generation)) => {
                tally.requests += 1;
                *tally.statuses.entry(status).or_insert(0) += 1;
                if status >= 500 {
                    tally.server_5xx += 1;
                }
                if let Some(g) = generation {
                    tally.generations.insert(g);
                }
            }
            Err(_) => {
                // Mid-stream close: reconnect and keep going. Swap
                // commits must NOT cause these in steady state, but a
                // benign server-side keep-alive cap would.
                tally.reconnects += 1;
                stream = None;
            }
        }
    }
    tally
}

/// One `Connection: close` admin exchange. Returns (status, body).
fn admin(addr: &SocketAddr, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
    let mut stream =
        TcpStream::connect_timeout(addr, Duration::from_secs(10)).map_err(|e| e.to_string())?;
    let msg = format!(
        "{method} {path} HTTP/1.1\r\nHost: swapdrill\r\nConnection: close\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(msg.as_bytes()).map_err(|e| e.to_string())?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw).map_err(|e| e.to_string())?;
    let status: u16 =
        raw.split_whitespace().nth(1).and_then(|s| s.parse().ok()).ok_or_else(|| {
            format!("unparseable response: {:?}", raw.chars().take(80).collect::<String>())
        })?;
    let body = raw.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    Ok((status, body))
}

fn build_payloads() -> Vec<String> {
    let d = generate_wiki(&WikiConfig { num_tables: 24, seed: 0x5a9, ..Default::default() });
    let mut payloads = Vec::new();
    for table in &d.collection.tables {
        for col in &table.columns {
            if col.cells.is_empty() {
                continue;
            }
            let req = PredictRequest {
                title: table.title.clone(),
                header: col.header.clone(),
                cells: col.cells.iter().take(4).cloned().collect(),
            };
            if let Ok(body) = serde_json::to_string(&req) {
                payloads.push(body);
            }
        }
    }
    payloads
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("swapdrill: {e}");
            std::process::exit(2);
        }
    };
    explainti_obs::set_level(explainti_obs::Level::Info);

    let candidates = candidate_dirs(args.swaps);
    eprintln!("[saved {} swap candidate(s)]", candidates.len());

    let (model, dataset) = tiny(4242, args.shards, args.replicas);
    let labels = dataset.collection.type_labels.clone();
    let serve_cfg = ServeConfig {
        workers: args.workers.max(1),
        max_batch: 8,
        cache_cap: 512,
        deadline_ms: 60_000,
        shards: args.shards,
        replicas: args.replicas,
        ..Default::default()
    };
    let handle = start(Arc::new(model), labels, serve_cfg).expect("self-hosted server");
    let addr = handle.addr();
    eprintln!(
        "[serving on {addr} — {} shard(s) x{} replica(s), {} worker(s)]",
        args.shards,
        args.replicas,
        args.workers.max(1)
    );

    if let Some(spec) = &args.failpoints {
        match explainti_faults::configure_from_spec(spec) {
            Ok(n) => eprintln!("[armed {n} failpoint(s): {spec}]"),
            Err(e) => {
                eprintln!("swapdrill: bad --failpoints: {e}");
                std::process::exit(2);
            }
        }
    }

    // -- Keep-alive serving traffic, running across every swap -------------
    let payloads = Arc::new(build_payloads());
    assert!(!payloads.is_empty(), "payload corpus is empty");
    let stop = Arc::new(AtomicBool::new(false));
    let tallies = Arc::new(OrderedMutex::new(&classes::BENCH_SWAP_TALLIES, Vec::<Tally>::new()));
    let clients: Vec<_> = (0..args.conns)
        .map(|_| {
            let (payloads, stop, tallies) =
                (Arc::clone(&payloads), Arc::clone(&stop), Arc::clone(&tallies));
            std::thread::spawn(move || {
                let tally = client_loop(addr, payloads, stop);
                tallies.lock().push(tally);
            })
        })
        .collect();

    let phase = Duration::from_secs(args.phase_s.max(1));
    std::thread::sleep(phase); // steady-state traffic on the boot generation

    // -- Swaps under load ---------------------------------------------------
    let mut swap_results = Vec::new();
    for (i, dir) in candidates.iter().enumerate() {
        let body = format!(
            r#"{{"model_dir":{}}}"#,
            serde_json::to_string(&dir.display().to_string()).unwrap_or_default()
        );
        let result = admin(&addr, "POST", "/v1/admin/swap", &body);
        match &result {
            Ok((status, body)) => eprintln!("[swap {}/{}: {status} {body}]", i + 1, args.swaps),
            Err(e) => eprintln!("[swap {}/{}: transport error {e}]", i + 1, args.swaps),
        }
        swap_results.push(result);
        std::thread::sleep(phase);
    }

    // ORDERING: Relaxed — lone stop flag, joined below.
    stop.store(true, Ordering::Relaxed);
    for c in clients {
        let _ = c.join();
    }

    // -- Final generation from /v1/config -----------------------------------
    let final_generation = admin(&addr, "GET", "/v1/config", "")
        .ok()
        .filter(|(status, _)| *status == 200)
        .and_then(|(_, body)| serde_json::from_str::<explainti_api::ConfigResponse>(&body).ok())
        .map(|cfg| cfg.model.generation);
    handle.shutdown();

    // -- Merge tallies and gate ---------------------------------------------
    let mut total = Tally::default();
    for t in tallies.lock().iter() {
        total.requests += t.requests;
        total.server_5xx += t.server_5xx;
        total.reconnects += t.reconnects;
        total.transport_errors += t.transport_errors;
        for (s, n) in &t.statuses {
            *total.statuses.entry(*s).or_insert(0) += n;
        }
        total.generations.extend(t.generations.iter().copied());
    }

    let mut failures = Vec::new();
    if total.requests == 0 {
        failures.push("no serving traffic completed".to_string());
    }
    if total.server_5xx > 0 {
        failures.push(format!("serving traffic saw {} 5xx responses", total.server_5xx));
    }
    if args.expect_swap_failures {
        for (i, r) in swap_results.iter().enumerate() {
            match r {
                Ok((status, _)) if *status >= 500 => {}
                Ok((status, _)) => {
                    failures.push(format!("swap {} answered {status}, expected a 5xx", i + 1))
                }
                Err(e) => failures.push(format!("swap {} transport error: {e}", i + 1)),
            }
        }
        if final_generation != Some(1) {
            failures.push(format!("generation moved to {final_generation:?} despite failed swaps"));
        }
        if total.generations.iter().any(|g| *g != 1) {
            failures.push(format!(
                "serving traffic observed generations {:?}, expected only 1",
                total.generations
            ));
        }
    } else {
        for (i, r) in swap_results.iter().enumerate() {
            match r {
                Ok((200, _)) => {}
                Ok((status, body)) => {
                    failures.push(format!("swap {} answered {status}: {body}", i + 1))
                }
                Err(e) => failures.push(format!("swap {} transport error: {e}", i + 1)),
            }
        }
        let expected = 1 + args.swaps as u64;
        if final_generation != Some(expected) {
            failures.push(format!("final generation is {final_generation:?}, expected {expected}"));
        }
        if total.generations.len() < 2 {
            failures.push(format!(
                "serving traffic observed generations {:?}, expected the swap to be visible",
                total.generations
            ));
        }
    }

    let swap_statuses = swap_results
        .iter()
        .map(|r| match r {
            Ok((status, _)) => json!(status),
            Err(e) => json!({ "transport_error": e }),
        })
        .collect::<Vec<_>>();
    let status_counts =
        total.statuses.iter().map(|(s, n)| (s.to_string(), *n)).collect::<BTreeMap<_, _>>();
    let serving = json!({
        "requests": total.requests,
        "server_5xx": total.server_5xx,
        "statuses": status_counts,
        "generations_observed": total.generations.iter().copied().collect::<Vec<_>>(),
        "reconnects": total.reconnects,
        "transport_errors": total.transport_errors,
    });
    let report = json!({
        "mode": if args.expect_swap_failures { "chaos" } else { "normal" },
        "conns": args.conns,
        "shards": args.shards,
        "replicas": args.replicas,
        "swaps_requested": args.swaps,
        "swap_statuses": swap_statuses,
        "serving": serving,
        "final_generation": final_generation,
        "failures": failures,
        "pass": failures.is_empty(),
    });
    let pretty = serde_json::to_string_pretty(&report).unwrap_or_default();
    println!("{pretty}");
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, &pretty) {
            eprintln!("swapdrill: writing {path}: {e}");
        }
    }

    for dir in &candidates {
        let _ = std::fs::remove_dir_all(dir);
    }
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("swapdrill: GATE FAILED: {f}");
        }
        std::process::exit(1);
    }
    eprintln!("swapdrill: gate passed — zero serving 5xx across {} swap(s)", args.swaps);
}
