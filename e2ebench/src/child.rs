//! The program under test as a child process: boots a model directory
//! the way `explainti serve` does, times the boot, and serves until its
//! parent closes stdin. Running the server in its own process keeps the
//! benchmark's inputs, latency logs and checks out of `peak_rss_mb`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use explainti_api::{
    ColumnPrediction, InterpretTableResponse, PredictResponse, DEFAULT_TOP_K, SCHEMA_VERSION,
};
use explainti_core::ExplainTi;
use explainti_serve::ServeConfig;

use crate::client;
use crate::inputs::{self, Col};

/// Kernel-pool width of every process the benchmark runs, child or not.
pub const POOL_THREADS: usize = 2;

/// Child entry point: `--child-boot <dir> [--serve] [--expect <kind> <seed> <file>]`.
pub fn main(args: &[String]) -> Result<(), String> {
    let dir = PathBuf::from(args.first().ok_or("--child-boot needs a model directory")?);
    let serve = args.iter().any(|a| a == "--serve");
    let expect = args.iter().position(|a| a == "--expect").map(|i| &args[i + 1..]);

    explainti_pool::configure(POOL_THREADS);
    let t0 = Instant::now();
    let (model, dataset) =
        ExplainTi::load_from_dir(&dir).map_err(|e| format!("load {dir:?}: {e}"))?;
    let load_ns = t0.elapsed().as_nanos();
    let labels = dataset.collection.type_labels.clone();
    let model = Arc::new(model);
    // Defaults throughout; `threads: 0` keeps the pool pinned above.
    let mut handle =
        explainti_serve::start(Arc::clone(&model), labels.clone(), ServeConfig::default())
            .map_err(|e| format!("serve::start: {e}"))?;
    let addr = handle.addr();
    // Readiness is polled without sleeping: the listener is bound before
    // `start` returns, so a connect always lands and the GET waits for
    // the event loop.
    let mut healthy = false;
    for _ in 0..1000 {
        if matches!(client::get(addr, "/v1/healthz"), Ok((200, _))) {
            healthy = true;
            break;
        }
    }
    let boot_ns = t0.elapsed().as_nanos();
    if !healthy {
        handle.shutdown();
        handle.join();
        return Err("healthz never answered 200".into());
    }
    println!("READY {addr} {load_ns} {boot_ns}");
    std::io::stdout().flush().map_err(|e| e.to_string())?;

    if let Some(spec) = expect {
        let (kind, seed, file) = match spec {
            [k, s, f, ..] => (k.as_str(), s.parse::<u64>().map_err(|e| e.to_string())?, f),
            _ => return Err("--expect needs <kind> <seed> <file>".into()),
        };
        let bodies = expected_bodies(&model, &labels, kind, seed);
        write_records(Path::new(file), &bodies).map_err(|e| format!("write {file}: {e}"))?;
        println!("EXPECT {}", bodies.len());
    }

    // A serving child runs until the parent closes our stdin; EOF starts
    // the server's graceful drain.
    let watcher = serve.then(|| {
        let flag = handle.shutdown_flag();
        std::thread::spawn(move || {
            let _ = std::io::stdin().read_to_end(&mut Vec::new());
            flag.store(true, Ordering::SeqCst);
        })
    });
    if !serve {
        handle.shutdown();
    }
    handle.join();
    drop(dataset);
    match watcher.map(|w| w.join()) {
        Some(Err(_)) => Err("stdin watcher panicked".into()),
        _ => Ok(()),
    }
}

/// The library's answer for one column, as the server projects it.
pub fn column_response(model: &ExplainTi, labels: &[String], c: &Col) -> PredictResponse {
    let cells: Vec<&str> = c.cells.iter().map(String::as_str).collect();
    PredictResponse::from_prediction(
        &model.predict_column(&c.title, &c.header, &cells),
        labels,
        DEFAULT_TOP_K,
    )
}

/// The library's answer for every checked input, serialised as the
/// server's (de-chunked) response body.
fn expected_bodies(model: &ExplainTi, labels: &[String], kind: &str, seed: u64) -> Vec<Vec<u8>> {
    let to_bytes =
        |s: Result<String, _>| -> Vec<u8> { s.map(String::into_bytes).unwrap_or_default() };
    match kind {
        "column-hot" => inputs::hot_set(seed)
            .0
            .iter()
            .map(|c| to_bytes(serde_json::to_string(&column_response(model, labels, c))))
            .collect(),
        _ => inputs::check_tables(seed)
            .iter()
            .map(|t| {
                let columns = t
                    .columns
                    .iter()
                    .map(|c| ColumnPrediction {
                        header: c.header.clone(),
                        prediction: column_response(model, labels, c),
                    })
                    .collect();
                let resp = InterpretTableResponse {
                    schema_version: SCHEMA_VERSION,
                    title: t.title.clone(),
                    columns,
                };
                to_bytes(serde_json::to_string(&resp))
            })
            .collect(),
    }
}

fn write_records(path: &Path, records: &[Vec<u8>]) -> std::io::Result<()> {
    let mut out = Vec::new();
    for r in records {
        out.extend_from_slice(&(r.len() as u64).to_le_bytes());
        out.extend_from_slice(r);
    }
    std::fs::write(path, out)
}

pub fn read_records(path: &Path) -> Result<Vec<Vec<u8>>, String> {
    let data = std::fs::read(path).map_err(|e| format!("read {path:?}: {e}"))?;
    let mut out = Vec::new();
    let mut pos = 0;
    while pos < data.len() {
        let len_bytes: [u8; 8] = data
            .get(pos..pos + 8)
            .and_then(|b| b.try_into().ok())
            .ok_or("truncated record length")?;
        let len = u64::from_le_bytes(len_bytes) as usize;
        pos += 8;
        out.push(data.get(pos..pos + len).ok_or("truncated record")?.to_vec());
        pos += len;
    }
    Ok(out)
}

/// One boot as the child measured it.
#[derive(Debug, Clone, Copy)]
pub struct Boot {
    /// `ExplainTi::load_from_dir`.
    pub load_ns: u64,
    /// From the start of the load to the first healthz 200.
    pub boot_ns: u64,
}

/// A running child, killed and reaped on drop if not finished cleanly.
pub struct Child {
    proc: Option<std::process::Child>,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
    pub boot: Boot,
}

pub struct Spawn<'a> {
    pub dir: &'a Path,
    pub serve: bool,
    /// Start with `EXPLAINTI_LOG=off` instead of the default telemetry.
    pub telemetry_off: bool,
    pub expect: Option<(&'a str, u64, &'a Path)>,
}

impl Child {
    pub fn spawn(s: Spawn<'_>) -> Result<Child, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut cmd = Command::new(exe);
        cmd.arg("--child-boot").arg(s.dir);
        if s.serve {
            cmd.arg("--serve");
        }
        if let Some((kind, seed, file)) = s.expect {
            cmd.arg("--expect").arg(kind).arg(seed.to_string()).arg(file);
        }
        cmd.env_remove("EXPLAINTI_LOG")
            .env_remove("EXPLAINTI_THREADS")
            .env_remove("EXPLAINTI_FAILPOINTS");
        if s.telemetry_off {
            cmd.env("EXPLAINTI_LOG", "off");
        }
        let mut proc = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn server child: {e}"))?;
        let stdin = proc.stdin.take();
        let stdout = BufReader::new(proc.stdout.take().ok_or("child stdout missing")?);
        let mut child = Child {
            proc: Some(proc),
            stdin,
            stdout,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            boot: Boot { load_ns: 0, boot_ns: 0 },
        };
        let line = child.read_line()?;
        let parts: Vec<&str> = line.split_whitespace().collect();
        match parts.as_slice() {
            ["READY", addr, load, boot] => {
                child.addr = addr.parse().map_err(|e| format!("child addr {addr}: {e}"))?;
                child.boot = Boot {
                    load_ns: load.parse().map_err(|_| "bad load_ns")?,
                    boot_ns: boot.parse().map_err(|_| "bad boot_ns")?,
                };
            }
            _ => return Err(format!("server child did not boot: {line:?}")),
        }
        if s.expect.is_some() {
            let line = child.read_line()?;
            if !line.starts_with("EXPECT ") {
                return Err(format!("server child computed no expectations: {line:?}"));
            }
        }
        Ok(child)
    }

    fn read_line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        self.stdout.read_line(&mut line).map_err(|e| e.to_string())?;
        Ok(line.trim().to_string())
    }

    pub fn pid(&self) -> String {
        self.proc.as_ref().map(|p| p.id().to_string()).unwrap_or_default()
    }

    /// Closes stdin (the child's cue to drain and exit) and waits for a
    /// clean exit.
    pub fn finish(mut self) -> Result<(), String> {
        drop(self.stdin.take());
        let Some(mut proc) = self.proc.take() else { return Ok(()) };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match proc.try_wait().map_err(|e| e.to_string())? {
                Some(status) if status.success() => return Ok(()),
                Some(status) => return Err(format!("server child exited with {status}")),
                None if Instant::now() > deadline => {
                    let _ = proc.kill();
                    let _ = proc.wait();
                    return Err("server child did not drain within 30 s".into());
                }
                None => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }
}

impl Drop for Child {
    fn drop(&mut self) {
        if let Some(mut proc) = self.proc.take() {
            let _ = proc.kill();
            let _ = proc.wait();
        }
    }
}
