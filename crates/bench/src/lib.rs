//! # explainti-bench
//!
//! The reproduction harness: one binary per table/figure of the paper
//! (`table2`–`table5`, `fig3`, `fig5`, `fig6`, `fig7`, `online_sim`), the
//! `ablation` bin, and four measurement bins: `kernels` (matmul, GELU,
//! batched embedding and GE retrieval timings with bitwise checks),
//! `loadgen` (socket-level load against the server), `swapdrill` (hot
//! swaps under traffic) and `obs_snapshot` (per-stage telemetry of one
//! train + evaluate cycle).
//!
//! Every binary reads `EXPLAINTI_SCALE` (default 1.0) to grow or shrink
//! the corpora and training budget consistently; results print in the
//! paper's table layout and are also written as JSON under
//! `bench-results/`. The socket bins share one small HTTP/1.1 client
//! ([`read_framed`], [`exchange`]) and one payload builder
//! ([`column_payloads`]).

#![warn(missing_docs)]

use std::io::{Read, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use explainti_api::PredictRequest;
use explainti_core::{build_tokenizer, ExplainTiConfig, TaskData};
use explainti_corpus::{generate_git, generate_wiki, scaled, Dataset, GitConfig, WikiConfig};
use explainti_encoder::mlm::{pretrain_mlm, PretrainConfig};
use explainti_encoder::{EncoderConfig, TransformerEncoder, Variant};
use explainti_nn::ParamStore;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Maximum sequence length used by every model in the harness.
pub const MAX_SEQ: usize = 32;
/// Tokenizer vocabulary cap.
pub const VOCAB_CAP: usize = 2048;

/// Reads the experiment scale from `EXPLAINTI_SCALE`.
pub fn scale() -> f64 {
    explainti_corpus::scale_from_env()
}

/// The Wiki-like benchmark at a given scale (≈900 tables at scale 1).
pub fn wiki_dataset(scale: f64) -> Dataset {
    generate_wiki(&WikiConfig {
        num_tables: scaled(900, scale),
        titles_per_topic: scaled(18, scale.sqrt()),
        ..Default::default()
    })
}

/// The Git-like benchmark at a given scale (≈320 tables at scale 1).
pub fn git_dataset(scale: f64) -> Dataset {
    generate_git(&GitConfig { num_tables: scaled(320, scale), ..Default::default() })
}

/// Paper-default ExplainTI configuration for a dataset at a scale.
pub fn explainti_config(variant: Variant, scale: f64) -> ExplainTiConfig {
    let mut cfg = match variant {
        Variant::BertLike => ExplainTiConfig::bert_like(VOCAB_CAP, MAX_SEQ),
        Variant::RobertaLike => ExplainTiConfig::roberta_like(VOCAB_CAP, MAX_SEQ),
    };
    cfg.epochs = scaled(8, scale.min(1.25)).max(2);
    cfg
}

/// Pre-trains one encoder checkpoint for a dataset/variant pair. The
/// checkpoint is shared by every transformer model of that variant in a
/// run — the analogue of all baselines starting from the same published
/// BERT/RoBERTa weights.
pub fn pretrained_checkpoint(dataset: &Dataset, variant: Variant) -> Vec<f32> {
    let tokenizer = build_tokenizer(dataset, VOCAB_CAP);
    let mut cfg = match variant {
        Variant::BertLike => EncoderConfig::bert_like(tokenizer.vocab_size(), MAX_SEQ),
        Variant::RobertaLike => EncoderConfig::roberta_like(tokenizer.vocab_size(), MAX_SEQ),
    };
    cfg.vocab_size = tokenizer.vocab_size();
    let mut rng = SmallRng::seed_from_u64(0x9e7a);
    let mut store = ParamStore::new();
    let encoder = TransformerEncoder::new(&mut store, cfg, &mut rng);

    let mut seqs = Vec::new();
    let type_data = TaskData::prepare_type(dataset, &tokenizer, MAX_SEQ, false);
    for &i in &type_data.train_idx {
        seqs.push(type_data.samples[i].encoded.clone());
    }
    if !dataset.collection.annotated_pairs().is_empty() {
        let rel_data = TaskData::prepare_relation(dataset, &tokenizer, MAX_SEQ, false);
        for &i in &rel_data.train_idx {
            seqs.push(rel_data.samples[i].encoded.clone());
        }
    }
    pretrain_mlm(&encoder, &mut store, &seqs, &PretrainConfig::default(), &mut rng);
    encoder.export_weights(&store)
}

/// Writes a JSON report next to the printed table.
pub fn write_json(name: &str, value: &serde_json::Value) {
    let dir = std::path::Path::new("bench-results");
    if std::fs::create_dir_all(dir).is_ok() {
        let path = dir.join(format!("{name}.json"));
        if let Ok(s) = serde_json::to_string_pretty(value) {
            let _ = std::fs::write(&path, s);
            eprintln!("[saved {path:?}]");
        }
    }
}

/// Formats an F1 triple as three table cells.
pub fn f1_cells(f1: explainti_metrics::F1Scores) -> [String; 3] {
    [format!("{:.3}", f1.micro), format!("{:.3}", f1.macro_), format!("{:.3}", f1.weighted)]
}

/// Dash cells for unsupported tasks.
pub fn dash_cells() -> [String; 3] {
    ["-".into(), "-".into(), "-".into()]
}

// ---- Socket clients ---------------------------------------------------

/// Single-column `POST /v1/interpret` bodies drawn from a synthetic Wiki
/// corpus of `tables` tables generated from `seed` — the distribution
/// the models train on, so payload sizes are representative rather than
/// adversarial. Each column keeps at most `max_cells` cells; columns
/// without cells are skipped.
pub fn column_payloads(tables: usize, seed: u64, max_cells: usize) -> Vec<String> {
    let d = generate_wiki(&WikiConfig { num_tables: tables, seed, ..Default::default() });
    let mut payloads = Vec::new();
    for table in &d.collection.tables {
        for col in &table.columns {
            if col.cells.is_empty() {
                continue;
            }
            let req = PredictRequest {
                title: table.title.clone(),
                header: col.header.clone(),
                cells: col.cells.iter().take(max_cells).cloned().collect(),
            };
            if let Ok(body) = serde_json::to_string(&req) {
                payloads.push(body);
            }
        }
    }
    payloads
}

/// One HTTP response as the socket clients read it.
#[derive(Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// `(name, value)` header pairs in wire order, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The body (de-chunked), decoded lossily as UTF-8.
    pub body: String,
}

impl Response {
    /// The first value of header `name` (pass it lowercased).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }
}

/// Reads exactly one framed HTTP response off `stream` —
/// `Content-Length` or chunked transfer-encoding, never read-to-EOF —
/// leaving any pipelined leftovers in `buf` for the next call. A
/// response with neither framing header is an error.
pub fn read_framed(stream: &mut impl Read, buf: &mut Vec<u8>) -> Result<Response, String> {
    fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
        haystack.windows(needle.len()).position(|w| w == needle)
    }
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
        if let Some(pos) = find(buf, b"\r\n\r\n") {
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
    let headers = head
        .lines()
        .skip(1)
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    let mut resp = Response { status, headers, body: String::new() };
    let mut body = Vec::new();
    if resp.header("transfer-encoding").is_some_and(|v| v.eq_ignore_ascii_case("chunked")) {
        loop {
            let nl = loop {
                if let Some(pos) = find(buf, b"\r\n") {
                    break pos;
                }
                fill(buf)?;
            };
            let size = usize::from_str_radix(String::from_utf8_lossy(&buf[..nl]).trim(), 16)
                .map_err(|e| format!("bad chunk size: {e}"))?;
            buf.drain(..nl + 2);
            // Chunk payload + CRLF; the terminal 0-chunk is followed by
            // the final CRLF, so the same arithmetic consumes it.
            let framed = size.checked_add(2).ok_or("chunk size overflows")?;
            while buf.len() < framed {
                fill(buf)?;
            }
            body.extend(buf.drain(..size));
            buf.drain(..2);
            if size == 0 {
                break;
            }
        }
    } else {
        let len: usize = resp
            .header("content-length")
            .and_then(|v| v.parse().ok())
            .ok_or("response has neither Content-Length nor chunked framing")?;
        while buf.len() < len {
            fill(buf)?;
        }
        body.extend(buf.drain(..len));
    }
    resp.body = String::from_utf8_lossy(&body).into_owned();
    Ok(resp)
}

/// One `Connection: close` exchange with the server at `addr`: sends
/// `method path` with `body`, reads until the server closes, and decodes
/// the one framed response.
pub fn exchange(
    addr: &SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> Result<Response, String> {
    let mut stream =
        TcpStream::connect_timeout(addr, Duration::from_secs(10)).map_err(|e| e.to_string())?;
    let msg = format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(msg.as_bytes()).map_err(|e| e.to_string())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(|e| e.to_string())?;
    read_framed(&mut raw.as_slice(), &mut Vec::new())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn framed_reader_splits_pipelined_responses() {
        let wire = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nX-Trace-Id: ab\r\n\r\nhi\
                     HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n\
                     3\r\n{\"a\r\n2\r\n\":\r\n0\r\n\r\n\
                     HTTP/1.1 200 OK\r\n\r\n";
        let (mut stream, mut buf) = (&wire[..], Vec::new());
        let first = read_framed(&mut stream, &mut buf).unwrap();
        assert_eq!((first.status, first.body.as_str()), (200, "hi"));
        assert_eq!(first.header("x-trace-id"), Some("ab"));
        let second = read_framed(&mut stream, &mut buf).unwrap();
        assert_eq!(second.body, "{\"a\":");
        assert!(read_framed(&mut stream, &mut buf).is_err(), "unframed response accepted");
    }

    #[test]
    fn scaled_datasets_shrink() {
        let small = wiki_dataset(0.05);
        assert!(small.collection.tables.len() < 60);
        let git = git_dataset(0.05);
        assert!(git.collection.tables.len() < 30);
    }

    #[test]
    fn checkpoint_is_reusable_across_models() {
        let d = wiki_dataset(0.03);
        let ckpt = pretrained_checkpoint(&d, Variant::BertLike);
        assert!(!ckpt.is_empty());
        // Importing into an ExplainTI model must succeed (layout match).
        let mut m = explainti_core::ExplainTi::new(&d, explainti_config(Variant::BertLike, 0.03));
        m.load_encoder(&ckpt);
    }
}
