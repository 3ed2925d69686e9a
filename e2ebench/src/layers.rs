//! The traced run's per-layer measurements. Every number here is taken
//! from outside the program: the benchmark opens a span around a public
//! call into one layer, so no span or counter is added to program code.
//! Spans are kept in memory and written out as JSONL when the run ends;
//! a layer's figure is its spans' self time (duration minus the time its
//! child spans cover).

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use explainti_api::{
    ColumnPrediction, InterpretTableRequest, PredictRequest, PredictResponse, DEFAULT_TOP_K,
    SCHEMA_VERSION,
};
use explainti_core::{ExplainTi, ExplainTiConfig, TaskKind};
use explainti_corpus::{Dataset, Split};
use explainti_encoder::TransformerEncoder;
use explainti_nn::{AdamW, Graph, Linear, LinearSchedule, ParamStore};
use explainti_serve::cache::LruCache;
use explainti_serve::http::{self, Extras};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::Deserialize;

use crate::child::POOL_THREADS;
use crate::inputs::{Col, Tab};
use crate::report::Metric;
use crate::stats::median;

/// One timed interval. `request` is the input index the span belongs
/// to; `units` is how many columns the span's root covered, so
/// per-column figures divide by it.
pub struct Span {
    pub name: &'static str,
    pub request: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub units: u32,
}

pub struct Tracer {
    t0: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self { t0: Instant::now(), spans: Vec::new() }
    }

    pub fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Nanoseconds from the tracer's origin to `at`.
    pub fn offset(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.t0).as_nanos() as u64
    }

    pub fn open(
        &mut self,
        name: &'static str,
        request: u32,
        parent: Option<usize>,
        units: u32,
    ) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span { name, request, start_ns, end_ns: start_ns, parent, units });
        self.spans.len() - 1
    }

    pub fn close(&mut self, idx: usize) {
        self.spans[idx].end_ns = self.now_ns();
    }

    pub fn time<R>(
        &mut self,
        name: &'static str,
        request: u32,
        parent: Option<usize>,
        units: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        let s = self.open(name, request, parent, units);
        let r = f();
        self.close(s);
        r
    }

    fn duration(&self, i: usize) -> u64 {
        self.spans[i].end_ns.saturating_sub(self.spans[i].start_ns)
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_times(&self) -> Vec<u64> {
        let mut child_sum = vec![0u64; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                child_sum[p] += self.duration(i);
            }
        }
        (0..self.spans.len()).map(|i| self.duration(i).saturating_sub(child_sum[i])).collect()
    }

    fn root(&self, mut i: usize) -> usize {
        while let Some(p) = self.spans[i].parent {
            i = p;
        }
        i
    }

    /// Per layer: for each root span, the self time of that layer's spans
    /// under it divided by the root's units, in ns. The figures are then
    /// summarised by their median.
    pub fn per_unit_ns(&self, name: &str) -> Vec<f64> {
        let selfs = self.self_times();
        let mut by_root: BTreeMap<usize, u64> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.name == name {
                *by_root.entry(self.root(i)).or_default() += selfs[i];
            }
        }
        by_root
            .into_iter()
            .map(|(root, ns)| ns as f64 / f64::from(self.spans[root].units.max(1)))
            .collect()
    }

    /// Total duration of each root span named `name`, keyed by request.
    pub fn root_totals(&self, name: &str) -> Vec<(u32, u64)> {
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.parent.is_none() && s.name == name)
            .map(|(i, s)| (s.request, self.duration(i)))
            .collect()
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"request\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"units\":{}}}\n",
                s.name, s.request, s.start_ns, s.end_ns, parent, s.units
            ));
        }
        std::fs::write(path, out)
    }
}

/// One replayed request: the exact bytes a client sent, and what they
/// carry.
pub enum ReplayReq<'a> {
    Table(&'a Tab, &'a [u8]),
    Column(&'a Col, &'a [u8]),
}

impl ReplayReq<'_> {
    fn columns(&self) -> Vec<&Col> {
        match self {
            ReplayReq::Table(t, _) => t.columns.iter().collect(),
            ReplayReq::Column(c, _) => vec![c],
        }
    }
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

/// Replays the boot path (`corpus.json` → `Dataset` → `ExplainTi::new`
/// → weights → `refresh_store`), returning the rebuilt model: the same
/// steps `load_from_dir` takes after verifying the manifest.
pub fn replay_boot(tr: &mut Tracer, dir: &Path) -> Result<(ExplainTi, Dataset), String> {
    let text = std::fs::read_to_string(dir.join("corpus.json")).map_err(|e| e.to_string())?;
    let dataset: Dataset = tr
        .time("corpus.parse", 0, None, 1, || serde_json::from_str(&text))
        .map_err(|e| format!("{e}"))?;
    let mut model = tr.time("core.model.new", 0, None, 1, || {
        ExplainTi::new(&dataset, ExplainTiConfig::bert_like(2048, 32))
    });
    let weights = std::fs::read(dir.join("weights.bin")).map_err(|e| e.to_string())?;
    model.load_weight_bytes(&weights).map_err(|e| e.to_string())?;
    tr.time("core.store.refresh", 0, None, 1, || {
        for task in 0..model.tasks().len() {
            model.refresh_store(task);
        }
    });
    Ok((model, dataset))
}

/// Replays each request through the public calls the server makes for
/// it. `hit_path` mirrors a cached column (parse, cache get, serialize,
/// render); otherwise the miss path runs encode, cache get, predict,
/// cache insert, serialize and render. Each request is one root span.
pub fn replay_requests(
    tr: &mut Tracer,
    model: &ExplainTi,
    labels: &[String],
    reqs: &[(u32, ReplayReq<'_>)],
    hit_path: bool,
) -> Result<(), String> {
    let mut cache: LruCache<u64, Arc<PredictResponse>> =
        LruCache::new(explainti_serve::ServeConfig::default().cache_cap);
    let filler = Arc::new(PredictResponse {
        schema_version: SCHEMA_VERSION,
        label: String::new(),
        label_id: 0,
        confidence: 0.0,
        local: Vec::new(),
        global: Vec::new(),
        structural: Vec::new(),
    });
    for k in 0..cache.capacity() as u64 {
        cache.insert(u64::MAX - k, Arc::clone(&filler));
    }
    if hit_path {
        for (_, r) in reqs {
            for c in r.columns() {
                cache.insert(c.key(), Arc::new(crate::child::column_response(model, labels, c)));
            }
        }
    }
    let extras =
        Extras { trace_id: Some("0123456789abcdef"), generation: Some(1), ..Default::default() };
    for (id, r) in reqs {
        let id = *id;
        let cols = r.columns();
        let units = cols.len() as u32;
        let p = tr.open("replay.request", id, None, units);
        let bytes = match r {
            ReplayReq::Table(_, b) | ReplayReq::Column(_, b) => *b,
        };
        let parsed = tr.time("serve.http.parse", id, Some(p), units, || http::parse_request(bytes));
        let http::Parse::Complete { request, .. } = parsed else {
            return Err(format!("replayed request {id} did not parse"));
        };
        let body = std::str::from_utf8(&request.body).map_err(|e| e.to_string())?;
        match r {
            ReplayReq::Table(..) => {
                let req = tr
                    .time("api.parse", id, Some(p), units, || {
                        serde_json::from_str::<serde_json::Value>(body)
                            .and_then(|v| InterpretTableRequest::from_value(&v))
                    })
                    .map_err(|e| format!("{e}"))?;
                let mut encs = Vec::new();
                for col in &req.columns {
                    let cells: Vec<&str> = col.cells.iter().map(String::as_str).collect();
                    encs.push(tr.time("tokenizer.encode", id, Some(p), units, || {
                        model.encode_ad_hoc_column(&req.title, &col.header, &cells)
                    }));
                }
                let keys: Vec<u64> = cols.iter().map(|c| c.key()).collect();
                for k in &keys {
                    let hit = tr
                        .time("serve.cache.lookup", id, Some(p), units, || cache.get(k).is_some());
                    if hit {
                        return Err(format!("replayed cold request {id} hit the cache"));
                    }
                }
                let preds = tr.time("core.predict", id, Some(p), units, || {
                    model.predict_encoded_batch(&encs)
                });
                let mut pieces = Vec::new();
                for (i, (pred, col)) in preds.iter().zip(&req.columns).enumerate() {
                    let resp =
                        Arc::new(PredictResponse::from_prediction(pred, labels, DEFAULT_TOP_K));
                    tr.time("serve.cache.lookup", id, Some(p), units, || {
                        cache.insert(keys[i], Arc::clone(&resp))
                    });
                    let cp = ColumnPrediction {
                        header: col.header.clone(),
                        prediction: (*resp).clone(),
                    };
                    let json = tr
                        .time("api.serialize", id, Some(p), units, || serde_json::to_string(&cp))
                        .map_err(|e| format!("{e}"))?;
                    pieces.push(if i == 0 {
                        format!("{{\"columns\":[{json}")
                    } else {
                        format!(",{json}")
                    });
                }
                let tail = format!(
                    "],\"schema_version\":{SCHEMA_VERSION},\"title\":{}}}",
                    serde_json::to_string(&req.title).unwrap_or_default()
                );
                pieces.push(tail);
                tr.time("serve.http.render", id, Some(p), units, || {
                    let mut wire =
                        http::render_chunked_head(200, "application/json", &extras, true);
                    for piece in &pieces {
                        wire.extend_from_slice(&http::render_chunk(piece.as_bytes()));
                    }
                    wire.extend_from_slice(http::LAST_CHUNK);
                    std::hint::black_box(wire)
                });
            }
            ReplayReq::Column(c, _) => {
                let req = tr
                    .time("api.parse", id, Some(p), units, || {
                        serde_json::from_str::<serde_json::Value>(body)
                            .and_then(|v| PredictRequest::from_value(&v))
                    })
                    .map_err(|e| format!("{e}"))?;
                std::hint::black_box(&req);
                let key = c.key();
                let resp = tr
                    .time("serve.cache.lookup", id, Some(p), units, || cache.get(&key).cloned())
                    .ok_or_else(|| format!("replayed hot request {id} missed the cache"))?;
                let json = tr
                    .time("api.serialize", id, Some(p), units, || serde_json::to_string(&*resp))
                    .map_err(|e| format!("{e}"))?;
                tr.time("serve.http.render", id, Some(p), units, || {
                    std::hint::black_box(http::render_full(
                        200,
                        "application/json",
                        &json,
                        &extras,
                        true,
                    ))
                });
            }
        }
        tr.close(p);
    }
    Ok(())
}

/// Model-layer replays over the same inputs: encode and predict (as
/// their own roots on the hit path, which never runs them), predict at
/// pool width 1, the standalone encoder, GE retrieval, and the LE/GE/SE
/// ablations. Returns `ann.visited_per_query`.
pub fn replay_model(
    tr: &mut Tracer,
    model: &mut ExplainTi,
    reqs: &[(u32, ReplayReq<'_>)],
    hit_path: bool,
    nproc: usize,
) -> (f64, u64) {
    let encoded: Vec<(u32, Vec<explainti_tokenizer::Encoded>)> = reqs
        .iter()
        .map(|(id, r)| {
            let cols = r.columns();
            let units = cols.len() as u32;
            let encs = cols
                .iter()
                .map(|c| {
                    let cells: Vec<&str> = c.cells.iter().map(String::as_str).collect();
                    if hit_path {
                        tr.time("tokenizer.encode", *id, None, units, || {
                            model.encode_ad_hoc_column(&c.title, &c.header, &cells)
                        })
                    } else {
                        model.encode_ad_hoc_column(&c.title, &c.header, &cells)
                    }
                })
                .collect();
            (*id, encs)
        })
        .collect();
    if hit_path {
        for (id, encs) in &encoded {
            tr.time("core.predict", *id, None, encs.len() as u32, || {
                std::hint::black_box(model.predict_encoded_batch(encs))
            });
        }
    }
    if nproc > 1 {
        explainti_pool::configure(1);
        for (id, encs) in &encoded {
            tr.time("pool.serial_predict", *id, None, encs.len() as u32, || {
                std::hint::black_box(model.predict_encoded_batch(encs))
            });
        }
        explainti_pool::configure(POOL_THREADS);
    }

    // A standalone encoder carrying the served weights.
    let mut store = ParamStore::new();
    let mut rng = SmallRng::seed_from_u64(0xbe7c);
    let encoder = TransformerEncoder::new(&mut store, model.cfg.encoder.clone(), &mut rng);
    encoder.import_weights(&mut store, &model.export_encoder());
    let task = model.task_index(TaskKind::Type).unwrap_or(0);
    let visited = explainti_obs::registry().counter("hnsw.nodes_visited");
    let mut queries = 0u64;
    let mut visits = 0u64;
    for (id, encs) in &encoded {
        for enc in encs {
            let cls = tr
                .time("encoder.forward", *id, None, 1, || encoder.embed_cls(&store, enc, &mut rng));
            let before = visited.load(Ordering::Relaxed);
            tr.time("core.store.top_k", *id, None, 1, || {
                std::hint::black_box(model.tasks()[task].q.top_k(&cls, model.cfg.top_k, None))
            });
            visits += visited.load(Ordering::Relaxed) - before;
            queries += 1;
        }
    }

    // Each module is charged what switching it off saves, as in the
    // paper's Table V; the four arms run back to back per request.
    type Arm = (&'static str, fn(&mut ExplainTiConfig, bool));
    let arms: [Arm; 4] = [
        ("explain.full", |_, _| {}),
        ("explain.no_le", |c, on| c.use_le = on),
        ("explain.no_ge", |c, on| c.use_ge = on),
        ("explain.no_se", |c, on| c.use_se = on),
    ];
    for (id, encs) in &encoded {
        for (name, flip) in arms {
            flip(&mut model.cfg, false);
            tr.time(name, *id, None, encs.len() as u32, || {
                std::hint::black_box(model.predict_encoded_batch(encs))
            });
            flip(&mut model.cfg, true);
        }
    }
    (if queries == 0 { 0.0 } else { visits as f64 / queries as f64 }, queries)
}

/// Training-layer replays on a fresh `ParamStore`: an encoder plus a
/// linear head, one forward + cross-entropy, backward and (per batch)
/// AdamW step per training sample.
pub fn replay_nn(tr: &mut Tracer, model: &ExplainTi, samples: usize) {
    let task = model.task_index(TaskKind::Type).unwrap_or(0);
    let data = &model.tasks()[task].data;
    let mut store = ParamStore::new();
    let mut rng = SmallRng::seed_from_u64(0x7a1e);
    let encoder = TransformerEncoder::new(&mut store, model.cfg.encoder.clone(), &mut rng);
    let head = Linear::new(&mut store, "bench.head", encoder.d_model(), data.num_classes, &mut rng);
    let mut opt = AdamW::new(LinearSchedule::constant(model.cfg.lr));
    let idx: Vec<usize> = data.train_idx.iter().copied().take(samples).collect();
    for (b, batch) in idx.chunks(model.cfg.batch_size.max(1)).enumerate() {
        for &i in batch {
            let s = &data.samples[i];
            let mut g = Graph::new();
            let loss = tr.time("nn.forward", i as u32, None, 1, || {
                let e = encoder.forward(&mut g, &store, &s.encoded, true, &mut rng);
                let cls = encoder.cls(&mut g, e);
                let logits = head.forward(&mut g, &store, cls);
                g.cross_entropy(logits, &[s.label])
            });
            tr.time("nn.backward", i as u32, None, 1, || {
                g.backward(loss);
                g.flush_grads(&mut store);
            });
        }
        tr.time("nn.optim_step", b as u32, None, 1, || opt.step(&mut store));
    }
}

/// `evaluate` and `save_to_dir` on the replay model.
pub fn replay_offline(
    tr: &mut Tracer,
    model: &ExplainTi,
    dataset: &Dataset,
    scratch: &Path,
) -> Result<(), String> {
    tr.time("core.evaluate", 0, None, 1, || {
        std::hint::black_box(model.evaluate(TaskKind::Type, Split::Test))
    });
    let saved = tr.time("core.persist.save", 0, None, 1, || model.save_to_dir(scratch, dataset));
    let _ = std::fs::remove_dir_all(scratch);
    saved.map_err(|e| format!("save_to_dir: {e}"))
}

/// The per-layer metrics derivable from replay spans alone.
pub fn replay_metrics(tr: &Tracer) -> Vec<Metric> {
    let med = |name: &str| -> (Option<f64>, u64) {
        let v = tr.per_unit_ns(name);
        (median(&v), v.len() as u64)
    };
    let mut out = Vec::new();
    let mut push = |name: &str, span: &str, unit: &str, scale: fn(f64) -> f64| {
        let (v, n) = med(span);
        out.push(Metric::new(name, v.map(scale), unit, n));
    };
    push("serve.http.parse_us", "serve.http.parse", "us", us);
    push("serve.http.render_us", "serve.http.render", "us", us);
    push("api.parse_us", "api.parse", "us", us);
    push("api.serialize_us", "api.serialize", "us", us);
    push("serve.cache.lookup_us", "serve.cache.lookup", "us", us);
    push("tokenizer.encode_us", "tokenizer.encode", "us", us);
    push("core.predict_us", "core.predict", "us", us);
    push("pool.serial_predict_us", "pool.serial_predict", "us", us);
    push("encoder.forward_us", "encoder.forward", "us", us);
    push("core.store.top_k_us", "core.store.top_k", "us", us);
    push("corpus.parse_ms", "corpus.parse", "ms", ms);
    push("core.model.new_ms", "core.model.new", "ms", ms);
    push("core.store.refresh_ms", "core.store.refresh", "ms", ms);
    push("nn.forward_us", "nn.forward", "us", us);
    push("nn.backward_us", "nn.backward", "us", us);
    push("nn.optim_step_us", "nn.optim_step", "us", us);
    push("core.evaluate_ms", "core.evaluate", "ms", ms);
    push("core.persist.save_ms", "core.persist.save", "ms", ms);
    let (full, n) = med("explain.full");
    for (name, arm) in [
        ("core.explain.le_us", "explain.no_le"),
        ("core.explain.ge_us", "explain.no_ge"),
        ("core.explain.se_us", "explain.no_se"),
    ] {
        let (without, _) = med(arm);
        out.push(Metric::new(name, full.zip(without).map(|(f, w)| us(f - w)), "us", n));
    }
    out
}
