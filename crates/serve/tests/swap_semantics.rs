//! Zero-downtime model-swap semantics against a live server: a swap
//! installs a new generation atomically, in-flight requests finish on
//! the generation they started on, failed swaps roll back, and the v3
//! admin routes (swap / store / shutdown alias) answer typed responses.
//!
//! The failpoint registry is process-global, so every failpoint-driven
//! test serialises on one mutex and clears the registry around its
//! drill.

// Integration tests may panic freely; the crate's unwrap/expect
// lints target the request path (EA006), not test assertions.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};

use explainti_api::{StoreStatusResponse, SwapResponse};
use explainti_core::{ExplainTi, ExplainTiConfig};
use explainti_corpus::{generate_wiki, Dataset, WikiConfig};
use explainti_faults as faults;
use explainti_serve::{start, ServeConfig};

fn lock() -> MutexGuard<'static, ()> {
    static GUARD: Mutex<()> = Mutex::new(());
    GUARD.lock().unwrap_or_else(|e| e.into_inner())
}

fn tiny(seed: u64) -> (ExplainTi, Dataset) {
    let d = generate_wiki(&WikiConfig { num_tables: 16, seed, ..Default::default() });
    let mut m = ExplainTi::new(&d, ExplainTiConfig::bert_like(2048, 32));
    for t in 0..m.tasks().len() {
        m.refresh_store(t);
    }
    (m, d)
}

/// Saves a fresh tiny model (seeded corpus) to a scratch dir and
/// returns the dir — a valid swap candidate.
fn saved_model_dir(tag: &str, seed: u64) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("explainti-swap-{tag}-{seed}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (model, dataset) = tiny(seed);
    model.save_to_dir(&dir, &dataset).expect("save swap candidate");
    dir
}

fn request_raw(addr: &std::net::SocketAddr, method: &str, path: &str, body: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let msg = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(msg.as_bytes()).unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    raw
}

fn request(addr: &std::net::SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let raw = request_raw(addr, method, path, body);
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparseable response: {raw:?}"));
    let body = raw.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    (status, body)
}

fn header_of<'a>(raw: &'a str, name: &str) -> Option<&'a str> {
    raw.split("\r\n\r\n").next().and_then(|head| {
        head.lines()
            .filter_map(|l| l.split_once(':'))
            .find(|(k, _)| k.trim().eq_ignore_ascii_case(name))
            .map(|(_, v)| v.trim())
    })
}

fn generation_of(raw: &str) -> Option<u64> {
    header_of(raw, "x-model-generation").and_then(|v| v.parse().ok())
}

fn boot_server(cfg: ServeConfig) -> (explainti_serve::ServerHandle, std::net::SocketAddr) {
    let (model, dataset) = tiny(4242);
    let labels = dataset.collection.type_labels.clone();
    let handle = start(Arc::new(model), labels, cfg).expect("start server");
    let addr = handle.addr();
    (handle, addr)
}

const COL: &str =
    r#"{"title":"1994 world cup","header":"country","cells":["costa rica","morocco"]}"#;

#[test]
fn swap_installs_new_generation_and_next_requests_see_it() {
    let _guard = lock();
    faults::clear_all();
    let candidate = saved_model_dir("happy", 7);
    let (mut handle, addr) = boot_server(ServeConfig { workers: 2, ..Default::default() });

    // Boot generation is 1, on the config body and the response header.
    let raw = request_raw(&addr, "GET", "/v1/config", "");
    assert!(raw.starts_with("HTTP/1.1 200"), "raw: {raw}");
    assert_eq!(generation_of(&raw), Some(1));
    let body = raw.split_once("\r\n\r\n").map(|(_, b)| b).unwrap_or_default();
    let config: explainti_api::ConfigResponse = serde_json::from_str(body).unwrap();
    assert_eq!(config.model.generation, 1);
    assert!(!body.contains("shards") && !body.contains("replicas"), "body: {body}");

    let raw = request_raw(&addr, "POST", "/v1/interpret", COL);
    assert!(raw.starts_with("HTTP/1.1 200"), "raw: {raw}");
    assert_eq!(generation_of(&raw), Some(1));

    // Swap to the saved candidate: 1 → 2, after its smoke verification.
    let swap_body = format!(
        r#"{{"model_dir":{}}}"#,
        serde_json::to_string(&candidate.display().to_string()).unwrap()
    );
    let (status, body) = request(&addr, "POST", "/v1/admin/swap", &swap_body);
    assert_eq!(status, 200, "swap failed: {body}");
    let swap: SwapResponse = serde_json::from_str(&body).unwrap();
    assert_eq!((swap.previous_generation, swap.generation), (1, 2));

    // The very next request serves — and reports — generation 2.
    let raw = request_raw(&addr, "POST", "/v1/interpret", COL);
    assert!(raw.starts_with("HTTP/1.1 200"), "raw: {raw}");
    assert_eq!(generation_of(&raw), Some(2));
    let (status, body) = request(&addr, "GET", "/v1/config", "");
    assert_eq!(status, 200);
    let config: explainti_api::ConfigResponse = serde_json::from_str(&body).unwrap();
    assert_eq!(config.model.generation, 2);

    // Wrong methods on the admin routes answer 405 with a derived Allow.
    let raw = request_raw(&addr, "GET", "/v1/admin/swap", "");
    assert!(raw.starts_with("HTTP/1.1 405"), "raw: {raw}");
    assert_eq!(header_of(&raw, "allow"), Some("POST"));
    let raw = request_raw(&addr, "POST", "/v1/admin/store", "");
    assert!(raw.starts_with("HTTP/1.1 405"), "raw: {raw}");
    assert_eq!(header_of(&raw, "allow"), Some("GET"));

    let _ = std::fs::remove_dir_all(&candidate);
    handle.shutdown();
    handle.join();
}

#[test]
fn in_flight_request_finishes_on_the_old_generation() {
    let _guard = lock();
    faults::clear_all();
    let candidate = saved_model_dir("inflight", 9);
    let (mut handle, addr) = boot_server(ServeConfig { workers: 1, ..Default::default() });

    // Stall the prediction batch so the interpret request is guaranteed
    // to still be in flight — already dispatched, generation snapshotted
    // — while the swap loads and commits.
    faults::configure("serve.batch.slow", faults::Policy::Always);
    let inflight = std::thread::spawn(move || request_raw(&addr, "POST", "/v1/interpret", COL));
    // Give the worker time to pick the request up before swapping.
    std::thread::sleep(std::time::Duration::from_millis(20));
    let swap_body = format!(
        r#"{{"model_dir":{}}}"#,
        serde_json::to_string(&candidate.display().to_string()).unwrap()
    );
    let (status, body) = request(&addr, "POST", "/v1/admin/swap", &swap_body);
    assert_eq!(status, 200, "swap failed: {body}");
    let swap: SwapResponse = serde_json::from_str(&body).unwrap();
    assert_eq!(swap.generation, 2);

    // The pre-swap request completed successfully on generation 1.
    let raw = inflight.join().unwrap();
    assert!(raw.starts_with("HTTP/1.1 200"), "in-flight request failed: {raw}");
    assert_eq!(generation_of(&raw), Some(1), "in-flight request jumped generations: {raw}");
    faults::clear_all();

    // And the generation after it is 2.
    let raw = request_raw(&addr, "POST", "/v1/interpret", COL);
    assert_eq!(generation_of(&raw), Some(2));

    let _ = std::fs::remove_dir_all(&candidate);
    handle.shutdown();
    handle.join();
}

#[test]
fn failed_swaps_roll_back_and_report_typed_errors() {
    let _guard = lock();
    faults::clear_all();
    let candidate = saved_model_dir("rollback", 11);
    let (mut handle, addr) = boot_server(ServeConfig { workers: 1, ..Default::default() });
    let swap_body = format!(
        r#"{{"model_dir":{}}}"#,
        serde_json::to_string(&candidate.display().to_string()).unwrap()
    );

    // Load failure: 400, generation unchanged.
    faults::configure("serve.swap.load", faults::Policy::Times(1));
    let (status, body) = request(&addr, "POST", "/v1/admin/swap", &swap_body);
    assert_eq!(status, 400, "body: {body}");
    assert!(body.contains("BadRequest"), "body: {body}");

    // Verify failure: 400, generation unchanged.
    faults::configure("serve.swap.verify", faults::Policy::Times(1));
    let (status, body) = request(&addr, "POST", "/v1/admin/swap", &swap_body);
    assert_eq!(status, 400, "body: {body}");

    // Commit failure: 500 and rollback — the old generation serves on.
    faults::configure("serve.swap.commit", faults::Policy::Times(1));
    let (status, body) = request(&addr, "POST", "/v1/admin/swap", &swap_body);
    assert_eq!(status, 500, "body: {body}");
    assert!(body.contains("previous generation still serving"), "body: {body}");
    let raw = request_raw(&addr, "POST", "/v1/interpret", COL);
    assert!(raw.starts_with("HTTP/1.1 200"), "raw: {raw}");
    assert_eq!(generation_of(&raw), Some(1), "rollback must keep generation 1");

    // A nonexistent snapshot dir is a clean 400 (no failpoint needed).
    let (status, body) =
        request(&addr, "POST", "/v1/admin/swap", r#"{"model_dir":"/nonexistent/snapshot"}"#);
    assert_eq!(status, 400, "body: {body}");

    // With the registry clear the same candidate swaps in fine.
    faults::clear_all();
    let (status, body) = request(&addr, "POST", "/v1/admin/swap", &swap_body);
    assert_eq!(status, 200, "post-drill swap failed: {body}");
    let swap: SwapResponse = serde_json::from_str(&body).unwrap();
    assert_eq!((swap.previous_generation, swap.generation), (1, 2));

    let _ = std::fs::remove_dir_all(&candidate);
    handle.shutdown();
    handle.join();
}

#[test]
fn store_status_reports_generation_and_stored() {
    let _guard = lock();
    faults::clear_all();
    let (model, dataset) = tiny(21);
    let stored = model.tasks()[0].q.stored();
    assert!(stored > 0);
    let labels = dataset.collection.type_labels.clone();
    let cfg = ServeConfig { workers: 1, ..Default::default() };
    let mut handle = start(Arc::new(model), labels, cfg).expect("start server");
    let addr = handle.addr();

    let (status, body) = request(&addr, "GET", "/v1/admin/store", "");
    assert_eq!(status, 200, "store status failed: {body}");
    assert!(!body.contains("shards"), "body: {body}");
    let store: StoreStatusResponse = serde_json::from_str(&body).unwrap();
    assert_eq!(store.generation, 1);
    assert_eq!(store.stored, stored);
    assert!(!store.swap_in_progress);

    handle.shutdown();
    handle.join();
}

#[test]
fn shutdown_lives_only_under_admin() {
    let _guard = lock();
    faults::clear_all();
    let (mut handle, addr) = boot_server(ServeConfig { workers: 1, ..Default::default() });
    // The pre-v3 alias is gone (schema v5): an unknown route, no drain.
    let raw = request_raw(&addr, "POST", "/v1/shutdown", "");
    assert!(raw.starts_with("HTTP/1.1 404"), "raw: {raw}");
    let raw = request_raw(&addr, "POST", "/v1/admin/shutdown", "");
    assert!(raw.starts_with("HTTP/1.1 200"), "raw: {raw}");
    assert!(header_of(&raw, "deprecation").is_none(), "raw: {raw}");
    handle.join();
}
