//! # explainti-api
//!
//! The stable typed surface between ExplainTI's interpretation engine
//! and everything that talks to it: the `interpret` CLI command
//! (`--json`), the `explainti serve` HTTP server, and any external
//! client. One set of serde DTOs in, one set out — the CLI and the
//! server produce byte-identical JSON for the same model and input.
//!
//! Request side: [`PredictRequest`] (a single ad-hoc column) and
//! [`InterpretTableRequest`] (a whole table). Response side:
//! [`PredictResponse`] (prediction + top-k multi-view explanations)
//! and [`InterpretTableResponse`]. Failures are a typed [`ApiError`]
//! with an [`ErrorCode`] that maps onto HTTP status codes.
//!
//! ## Wire ownership and versioning
//!
//! The explanation payloads are **wire-owned** DTOs
//! ([`LocalExplanation`], [`GlobalExplanation`],
//! [`StructuralExplanation`]) rather than re-exports of
//! `explainti_core`'s in-memory types: the engine's internals can now
//! evolve (new fields, different numerics) without silently changing
//! the public JSON, and the golden-JSON test in this crate pins the
//! exact bytes. `From<core>` impls keep the projection one-liners.
//! Every top-level response carries [`SCHEMA_VERSION`] in a
//! `schema_version` field; the field names are byte-compatible with the
//! pre-versioned wire format, so existing clients only see one added
//! key.

#![warn(missing_docs)]

use explainti_core::{GlobalInfluence, LocalSpan, Prediction, StructuralNeighbor};
use explainti_table::Table;
use serde::{Deserialize, Serialize};

/// Default number of explanations per view in a [`PredictResponse`].
pub const DEFAULT_TOP_K: usize = 3;

/// Version of the response wire format. Bumped when a field changes
/// meaning or disappears; additive fields keep the version.
///
/// **v2** (event-driven serving front-end): [`ApiError`] gained a typed
/// `retry_after_s` field, [`ErrorCode`] the `TooManyConnections` (429)
/// and `RequestTimeout` (408) variants, and [`ConfigResponse`] the
/// connection-layer knobs (`max_conns`, a dispatcher-thread count,
/// `read_timeout_ms`, `idle_timeout_ms`). All additive, but the error
/// body shape changed (every error now carries `retry_after_s`), so the
/// version bumped.
///
/// **v3** (sharded store + hot swap): the admin surface became typed —
/// [`SwapRequest`]/[`SwapResponse`] behind `POST /v1/admin/swap`,
/// [`StoreStatusResponse`] behind `GET /v1/admin/store`, [`ErrorCode`]
/// gained `SwapInProgress` (409) and `ShardUnavailable` (503),
/// [`ModelInfo`] now carries the live `generation`, and
/// [`ConfigResponse`] the store layout (`shards`, `replicas`,
/// `swap_verify`). Shutdown moved to `POST /v1/admin/shutdown` (the old
/// path answered with a `Deprecation` header until v5).
///
/// **v4** (int8 inference): [`ConfigResponse`] gained a flag reporting
/// whether the server ran the encoder forward and GE similarity on an
/// int8 path.
///
/// **v5** (one f32 inference path): the int8 path was deleted, so
/// [`ConfigResponse`] lost that flag, and the deprecated
/// `POST /v1/shutdown` alias is gone (it answers 404; use
/// `POST /v1/admin/shutdown`). Every other body is unchanged apart from
/// `schema_version`.
///
/// **v6** (one request queue): the dispatcher tier and the separate
/// per-column prediction queue were deleted, so [`ConfigResponse`] lost
/// `dispatchers` and `queue_cap` (the request queue is sized by
/// `max_conns`, and `max_batch` now counts requests). The unused online
/// store maintenance was deleted too, so `ShardStatus` and
/// [`StoreStatusResponse`] lost their `tombstones` fields. Every other
/// body is unchanged apart from `schema_version`.
///
/// **v7** (one unsharded store): the embedding store is one flat slab,
/// so its shard/replica layout is gone. [`ConfigResponse`] lost
/// `shards` and `replicas`; [`StoreStatusResponse`] lost `shards`, and
/// `ShardStatus` was deleted with it; [`ErrorCode`] lost
/// `ShardUnavailable`, since no shard can be down. `GET
/// /v1/admin/store` reports `generation`, `stored` and
/// `swap_in_progress`. Every other body is unchanged apart from
/// `schema_version`.
///
/// **v8** (every swap verifies): the switch that skipped a swap's
/// pre-commit smoke prediction was deleted, so [`ConfigResponse`] lost
/// `swap_verify` and [`SwapResponse`] lost `verified` (it could only be
/// true). A candidate that fails verification still answers 400. Every
/// other body is unchanged apart from `schema_version`.
///
/// **v9** (one request per forward): a worker runs one forward over the
/// cache misses of the request it popped and never batches requests
/// together, so [`ConfigResponse`] lost `max_batch`. Every other body
/// is unchanged apart from `schema_version`.
///
/// **v10** (persisted embedding store): a model loads its embedding
/// store from its snapshot instead of re-embedding it, so the
/// `--threads` width sizes nothing a server runs and [`ConfigResponse`]
/// lost `threads`. Every other body is unchanged apart from
/// `schema_version`.
///
/// **v11** (one attempt per forward): [`ErrorCode`] lost its 503
/// backpressure variant, which only a failpoint could produce, and a
/// panicked forward answers a typed 500 (`Internal`) without a retry.
/// Every other body is unchanged apart from `schema_version`.
pub const SCHEMA_VERSION: u32 = 11;

// ---- Requests ---------------------------------------------------------

/// One ad-hoc column to interpret.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PredictRequest {
    /// Table title (page/file context, `p` in the serialisation).
    pub title: String,
    /// Column header (`h`).
    pub header: String,
    /// Cell values, top to bottom (`v…`).
    pub cells: Vec<String>,
}

/// One column of an [`InterpretTableRequest`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ColumnData {
    /// Column header.
    pub header: String,
    /// Cell values, top to bottom.
    pub cells: Vec<String>,
}

/// A whole table to interpret column by column.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InterpretTableRequest {
    /// Table title.
    pub title: String,
    /// The columns, in table order.
    pub columns: Vec<ColumnData>,
}

impl InterpretTableRequest {
    /// Builds a request from an in-memory [`Table`] (e.g. parsed CSV).
    pub fn from_table(table: &Table) -> Self {
        Self {
            title: table.title.clone(),
            columns: table
                .columns
                .iter()
                .map(|c| ColumnData { header: c.header.clone(), cells: c.cells.clone() })
                .collect(),
        }
    }

    /// The column at `idx` as a single-column [`PredictRequest`].
    pub fn column_request(&self, idx: usize) -> PredictRequest {
        let col = &self.columns[idx];
        PredictRequest {
            title: self.title.clone(),
            header: col.header.clone(),
            cells: col.cells.clone(),
        }
    }
}

// ---- Wire-owned explanation DTOs --------------------------------------

/// One local (attention-rollout token window) explanation on the wire.
///
/// Field names are byte-compatible with the serialisation of core's
/// `LocalSpan`, which this crate used to expose directly; the type is
/// owned here so the wire format is pinned independently of the engine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LocalExplanation {
    /// Start token offset of the window within the serialised column.
    pub start: usize,
    /// Window length in tokens.
    pub window: usize,
    /// Paired window start for cross-column (CPA) explanations.
    pub pair_start: Option<usize>,
    /// The window's surface text.
    pub text: String,
    /// Relevance mass attributed to the window.
    pub relevance: f32,
}

impl From<&LocalSpan> for LocalExplanation {
    fn from(s: &LocalSpan) -> Self {
        Self {
            start: s.start,
            window: s.window,
            pair_start: s.pair_start,
            text: s.text.clone(),
            relevance: s.relevance,
        }
    }
}

/// One global (influential training sample) explanation on the wire.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GlobalExplanation {
    /// Index of the influential training sample.
    pub sample: usize,
    /// Influence weight (similarity-scaled vote).
    pub influence: f32,
    /// The influential sample's label.
    pub label: usize,
}

impl From<&GlobalInfluence> for GlobalExplanation {
    fn from(g: &GlobalInfluence) -> Self {
        Self { sample: g.sample, influence: g.influence, label: g.label }
    }
}

/// One structural (attended graph neighbour) explanation on the wire.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StructuralExplanation {
    /// Graph node id of the attended neighbour.
    pub node: usize,
    /// Attention mass on the neighbour.
    pub attention: f32,
    /// The neighbour's label (`usize::MAX` when unlabelled).
    pub label: usize,
}

impl From<&StructuralNeighbor> for StructuralExplanation {
    fn from(n: &StructuralNeighbor) -> Self {
        Self { node: n.node, attention: n.attention, label: n.label }
    }
}

// ---- Responses --------------------------------------------------------

/// A prediction with its top-k multi-view explanations.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PredictResponse {
    /// Wire-format version ([`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Predicted label name (from the model's label set).
    pub label: String,
    /// Predicted label index into the model's label set.
    pub label_id: usize,
    /// Softmax confidence of the predicted label.
    pub confidence: f32,
    /// Top-k local explanations (non-overlapping windows, best first).
    pub local: Vec<LocalExplanation>,
    /// Top-k global explanations (influential training samples).
    pub global: Vec<GlobalExplanation>,
    /// Top-k structural explanations (attended graph neighbours).
    pub structural: Vec<StructuralExplanation>,
}

impl PredictResponse {
    /// Projects a core [`Prediction`] onto the wire format: label index
    /// resolved against `labels`, each explanation view truncated to its
    /// top `top_k` entries (the local view via the non-overlapping
    /// diverse selection the verification UI uses).
    pub fn from_prediction(p: &Prediction, labels: &[String], top_k: usize) -> Self {
        let label = labels.get(p.label).cloned().unwrap_or_else(|| format!("label#{}", p.label));
        Self {
            schema_version: SCHEMA_VERSION,
            label,
            label_id: p.label,
            confidence: p.confidence,
            local: p.explanation.top_local_diverse(top_k).into_iter().map(Into::into).collect(),
            global: p.explanation.top_global(top_k).iter().map(Into::into).collect(),
            structural: p.explanation.top_structural(top_k).iter().map(Into::into).collect(),
        }
    }
}

/// One column's prediction inside an [`InterpretTableResponse`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ColumnPrediction {
    /// The column's header, echoed for alignment.
    pub header: String,
    /// The column's prediction and explanations.
    pub prediction: PredictResponse,
}

/// Per-column predictions for a whole table.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InterpretTableResponse {
    /// Wire-format version ([`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// The table title, echoed from the request.
    pub title: String,
    /// One entry per request column, in request order.
    pub columns: Vec<ColumnPrediction>,
}

// ---- Introspection ----------------------------------------------------

/// Static facts about the served model, reported by `GET /v1/config`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelInfo {
    /// Encoder hidden width (`d_model`).
    pub d_model: usize,
    /// Number of transformer layers.
    pub layers: usize,
    /// Maximum serialised sequence length.
    pub max_seq: usize,
    /// Tokenizer vocabulary size.
    pub vocab_size: usize,
    /// Number of output labels (column types).
    pub num_labels: usize,
    /// Total trainable scalar weights.
    pub num_weights: usize,
    /// Monotonic id of the model generation answering the request; bumps
    /// on every committed `POST /v1/admin/swap`.
    pub generation: u64,
}

/// Effective serving knobs, reported by `GET /v1/config` so operators
/// can see what a running instance actually resolved (flags, env,
/// defaults) without re-deriving it from the launch command line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConfigResponse {
    /// Wire-format version ([`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Forward permits: how many forwards run at once.
    pub workers: usize,
    /// Prediction cache capacity (entries).
    pub cache_cap: usize,
    /// Per-request deadline in milliseconds.
    pub deadline_ms: u64,
    /// Explanations per view in responses.
    pub top_k: usize,
    /// Hard cap on simultaneously open connections (one thread each);
    /// beyond it new connections answer a typed 429 with `Retry-After`.
    pub max_conns: usize,
    /// Slow-loris read deadline: a partially received request older
    /// than this answers a typed 408 and the connection closes.
    pub read_timeout_ms: u64,
    /// Idle keep-alive connections are closed after this long.
    pub idle_timeout_ms: u64,
    /// Facts about the loaded model.
    pub model: ModelInfo,
}

// ---- Admin ------------------------------------------------------------

/// `POST /v1/admin/swap` request: hot-swap the serving model to the
/// snapshot in `model_dir` (a directory written by `train`/`save`, with
/// a crash-safe MANIFEST). The new generation loads in the background;
/// in-flight requests finish on the old one.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SwapRequest {
    /// Model directory to load the next generation from.
    pub model_dir: String,
}

/// `POST /v1/admin/swap` success response. The candidate passed its
/// pre-commit smoke prediction; one that fails answers 400 instead.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SwapResponse {
    /// Wire-format version ([`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Id of the generation now serving.
    pub generation: u64,
    /// Id of the generation that was serving before the swap.
    pub previous_generation: u64,
}

/// `GET /v1/admin/store` response: the live generation's explanation
/// store.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoreStatusResponse {
    /// Wire-format version ([`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Id of the generation whose store is being reported.
    pub generation: u64,
    /// Stored embeddings (one per training sample of the type task).
    pub stored: usize,
    /// True while a swap is loading/verifying in the background.
    pub swap_in_progress: bool,
}

// ---- Errors -----------------------------------------------------------

/// Machine-readable failure category; maps onto an HTTP status.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorCode {
    /// Malformed request (bad JSON, missing fields, empty input).
    BadRequest,
    /// Unknown endpoint.
    NotFound,
    /// Endpoint exists but not for this HTTP method.
    MethodNotAllowed,
    /// Request body exceeds the configured limit.
    PayloadTooLarge,
    /// The per-request deadline elapsed before the server answered.
    DeadlineExceeded,
    /// The server is draining for shutdown and takes no new work.
    ShuttingDown,
    /// Unexpected server-side failure.
    Internal,
    /// The server is at its hard connection limit — retry after the
    /// body's `retry_after_s` (also sent as a `Retry-After` header).
    TooManyConnections,
    /// The client did not deliver a complete request within the
    /// connection's read deadline (slow-loris defence).
    RequestTimeout,
    /// A model swap is already loading or verifying — retry after the
    /// body's `retry_after_s`.
    SwapInProgress,
}

impl ErrorCode {
    /// The HTTP status code this error category maps to.
    pub fn status(self) -> u16 {
        match self {
            ErrorCode::BadRequest => 400,
            ErrorCode::NotFound => 404,
            ErrorCode::MethodNotAllowed => 405,
            ErrorCode::PayloadTooLarge => 413,
            ErrorCode::ShuttingDown => 503,
            ErrorCode::DeadlineExceeded => 504,
            ErrorCode::Internal => 500,
            ErrorCode::TooManyConnections => 429,
            ErrorCode::RequestTimeout => 408,
            ErrorCode::SwapInProgress => 409,
        }
    }
}

/// A typed API failure, serialised as the error response body.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ApiError {
    /// Failure category.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
    /// When set, the client should wait this many seconds before
    /// retrying; the server mirrors it as a `Retry-After` header. Sent
    /// with `TooManyConnections` and `RequestTimeout`, `null` otherwise.
    pub retry_after_s: Option<u64>,
}

impl ApiError {
    /// A new error with the given category and message.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        Self { code, message: message.into(), retry_after_s: None }
    }

    /// Attaches a typed retry hint (mirrored as `Retry-After`).
    pub fn with_retry_after(mut self, seconds: u64) -> Self {
        self.retry_after_s = Some(seconds);
        self
    }

    /// A `BadRequest` error.
    pub fn bad_request(message: impl Into<String>) -> Self {
        Self::new(ErrorCode::BadRequest, message)
    }

    /// An `Internal` error (HTTP 500) — unexpected server-side failure,
    /// e.g. a panicking prediction forward.
    pub fn internal(message: impl Into<String>) -> Self {
        Self::new(ErrorCode::Internal, message)
    }

    /// A `TooManyConnections` error (HTTP 429) with its retry hint.
    pub fn too_many_connections(message: impl Into<String>, retry_after_s: u64) -> Self {
        Self::new(ErrorCode::TooManyConnections, message).with_retry_after(retry_after_s)
    }

    /// A `RequestTimeout` error (HTTP 408) with its retry hint.
    pub fn request_timeout(message: impl Into<String>, retry_after_s: u64) -> Self {
        Self::new(ErrorCode::RequestTimeout, message).with_retry_after(retry_after_s)
    }

    /// A `SwapInProgress` error (HTTP 409) with its retry hint.
    pub fn swap_in_progress(message: impl Into<String>, retry_after_s: u64) -> Self {
        Self::new(ErrorCode::SwapInProgress, message).with_retry_after(retry_after_s)
    }

    /// The HTTP status of this error.
    pub fn status(&self) -> u16 {
        self.code.status()
    }
}

impl std::fmt::Display for ApiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}: {}", self.code, self.message)
    }
}

impl std::error::Error for ApiError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips_through_json() {
        let req = InterpretTableRequest {
            title: "1990 nba draft".into(),
            columns: vec![
                ColumnData { header: "player".into(), cells: vec!["Les Jepsen".into()] },
                ColumnData { header: "round".into(), cells: vec!["1".into(), "2".into()] },
            ],
        };
        let json = serde_json::to_string(&req).unwrap();
        let back: InterpretTableRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(back, req);
        assert_eq!(back.column_request(1).header, "round");
        assert_eq!(back.column_request(1).title, "1990 nba draft");
    }

    #[test]
    fn response_round_trips_through_json() {
        let resp = PredictResponse {
            schema_version: SCHEMA_VERSION,
            label: "country".into(),
            label_id: 4,
            confidence: 0.87,
            local: vec![LocalExplanation {
                start: 3,
                window: 4,
                pair_start: None,
                text: "costa rica".into(),
                relevance: 0.61,
            }],
            global: vec![GlobalExplanation { sample: 12, influence: 0.5, label: 4 }],
            structural: vec![StructuralExplanation { node: 7, attention: 0.9, label: 4 }],
        };
        let json = serde_json::to_string(&InterpretTableResponse {
            schema_version: SCHEMA_VERSION,
            title: "t".into(),
            columns: vec![ColumnPrediction { header: "h".into(), prediction: resp }],
        })
        .unwrap();
        let back: InterpretTableResponse = serde_json::from_str(&json).unwrap();
        assert_eq!(back.schema_version, SCHEMA_VERSION);
        assert_eq!(back.columns.len(), 1);
        assert_eq!(back.columns[0].prediction.label, "country");
        assert_eq!(back.columns[0].prediction.label_id, 4);
        assert_eq!(back.columns[0].prediction.local[0].text, "costa rica");
    }

    /// Pins the exact response bytes: the pre-versioned (PR 2) wire
    /// format — alphabetically ordered keys, core field names — plus the
    /// single added `schema_version` key. Every float is exactly
    /// representable so formatting is platform-independent. If this test
    /// breaks, the wire format changed and `SCHEMA_VERSION` must bump.
    #[test]
    fn golden_json_matches_frozen_wire_format() {
        let resp = PredictResponse {
            schema_version: SCHEMA_VERSION,
            label: "country".into(),
            label_id: 4,
            confidence: 0.5,
            local: vec![
                LocalExplanation {
                    start: 3,
                    window: 4,
                    pair_start: None,
                    text: "costa rica".into(),
                    relevance: 0.25,
                },
                LocalExplanation {
                    start: 9,
                    window: 2,
                    pair_start: Some(1),
                    text: "norway".into(),
                    relevance: 0.125,
                },
            ],
            global: vec![GlobalExplanation { sample: 12, influence: 0.75, label: 4 }],
            structural: vec![StructuralExplanation { node: 7, attention: 0.5, label: 4 }],
        };
        let golden = concat!(
            "{",
            "\"confidence\":0.5,",
            "\"global\":[{\"influence\":0.75,\"label\":4,\"sample\":12}],",
            "\"label\":\"country\",",
            "\"label_id\":4,",
            "\"local\":[",
            "{\"pair_start\":null,\"relevance\":0.25,\"start\":3,\"text\":\"costa rica\",\"window\":4},",
            "{\"pair_start\":1,\"relevance\":0.125,\"start\":9,\"text\":\"norway\",\"window\":2}",
            "],",
            "\"schema_version\":11,",
            "\"structural\":[{\"attention\":0.5,\"label\":4,\"node\":7}]",
            "}",
        );
        assert_eq!(serde_json::to_string(&resp).unwrap(), golden);
    }

    /// Pins the v3 admin DTO bytes: swap and store-status payloads are
    /// part of the frozen wire surface from the moment they ship.
    #[test]
    fn golden_json_freezes_v3_admin_dtos() {
        let swap =
            SwapResponse { schema_version: SCHEMA_VERSION, generation: 2, previous_generation: 1 };
        assert_eq!(
            serde_json::to_string(&swap).unwrap(),
            "{\"generation\":2,\"previous_generation\":1,\"schema_version\":11}",
        );
        let status = StoreStatusResponse {
            schema_version: SCHEMA_VERSION,
            generation: 2,
            stored: 81,
            swap_in_progress: false,
        };
        assert_eq!(
            serde_json::to_string(&status).unwrap(),
            concat!(
                "{\"generation\":2,",
                "\"schema_version\":11,",
                "\"stored\":81,",
                "\"swap_in_progress\":false}",
            ),
        );
        let req: SwapRequest = serde_json::from_str("{\"model_dir\":\"/models/next\"}").unwrap();
        assert_eq!(req.model_dir, "/models/next");
    }

    /// Freezes the v3 error body of the swap admin code, retry hint
    /// included.
    #[test]
    fn golden_json_freezes_v3_error_bodies() {
        let swap = ApiError::swap_in_progress("swap already loading", 2);
        assert_eq!(
            serde_json::to_string(&swap).unwrap(),
            concat!(
                "{\"code\":\"SwapInProgress\",",
                "\"message\":\"swap already loading\",",
                "\"retry_after_s\":2}",
            ),
        );
        assert_eq!(swap.status(), 409);
    }

    /// Freezes the v2 error bodies: every error carries `retry_after_s`
    /// (`null` unless the server attached a retry hint), and the two
    /// connection-layer codes serialise with their hints. If these
    /// bytes change, the wire format changed and `SCHEMA_VERSION` must
    /// bump again.
    #[test]
    fn golden_json_freezes_v2_error_bodies() {
        let tmc = ApiError::too_many_connections("connection limit (2) reached", 1);
        assert_eq!(
            serde_json::to_string(&tmc).unwrap(),
            concat!(
                "{\"code\":\"TooManyConnections\",",
                "\"message\":\"connection limit (2) reached\",",
                "\"retry_after_s\":1}",
            ),
        );
        assert_eq!(tmc.status(), 429);
        let rt = ApiError::request_timeout("request not received within 10000 ms", 1);
        assert_eq!(
            serde_json::to_string(&rt).unwrap(),
            concat!(
                "{\"code\":\"RequestTimeout\",",
                "\"message\":\"request not received within 10000 ms\",",
                "\"retry_after_s\":1}",
            ),
        );
        assert_eq!(rt.status(), 408);
        // Errors without a hint carry an explicit null, so the body
        // shape is uniform across every ErrorCode.
        assert_eq!(
            serde_json::to_string(&ApiError::bad_request("nope")).unwrap(),
            "{\"code\":\"BadRequest\",\"message\":\"nope\",\"retry_after_s\":null}",
        );
    }

    /// The wire DTOs must serialise byte-identically to the core types
    /// they replaced (minus the response-level `schema_version`), so PR 2
    /// clients keep parsing unchanged.
    #[test]
    fn wire_dtos_serialize_identically_to_core_types() {
        let core_span = LocalSpan {
            start: 3,
            window: 4,
            pair_start: Some(7),
            text: "costa rica".into(),
            relevance: 0.25,
        };
        assert_eq!(
            serde_json::to_string(&LocalExplanation::from(&core_span)).unwrap(),
            serde_json::to_string(&core_span).unwrap(),
        );
        let core_global = GlobalInfluence { sample: 12, influence: 0.75, label: 4 };
        assert_eq!(
            serde_json::to_string(&GlobalExplanation::from(&core_global)).unwrap(),
            serde_json::to_string(&core_global).unwrap(),
        );
        let core_structural = StructuralNeighbor { node: 7, attention: 0.5, label: 4 };
        assert_eq!(
            serde_json::to_string(&StructuralExplanation::from(&core_structural)).unwrap(),
            serde_json::to_string(&core_structural).unwrap(),
        );
    }

    #[test]
    fn config_response_round_trips() {
        let cfg = ConfigResponse {
            schema_version: SCHEMA_VERSION,
            workers: 4,
            cache_cap: 1024,
            deadline_ms: 5000,
            top_k: 3,
            max_conns: 1024,
            read_timeout_ms: 10_000,
            idle_timeout_ms: 60_000,
            model: ModelInfo {
                d_model: 32,
                layers: 2,
                max_seq: 64,
                vocab_size: 5000,
                num_labels: 11,
                num_weights: 123456,
                generation: 1,
            },
        };
        let json = serde_json::to_string(&cfg).unwrap();
        let back: ConfigResponse = serde_json::from_str(&json).unwrap();
        assert_eq!(back, cfg);
        assert!(json.contains("\"max_conns\":1024"));
        assert!(json.contains("\"generation\":1"));
        assert!(json.contains("\"schema_version\":11"));
    }

    #[test]
    fn from_prediction_truncates_to_top_k() {
        let span = |start: usize, relevance: f32| LocalSpan {
            start,
            window: 2,
            pair_start: None,
            text: String::new(),
            relevance,
        };
        let p = Prediction {
            label: 1,
            confidence: 0.8,
            probs: vec![0.2, 0.8],
            explanation: explainti_core::Explanation {
                // Windows at 0, 10, 20, 30 are non-overlapping.
                local: vec![span(0, 0.4), span(10, 0.3), span(20, 0.2), span(30, 0.1)],
                global: (0..5)
                    .map(|i| GlobalInfluence { sample: i, influence: 0.2, label: 0 })
                    .collect(),
                structural: vec![],
            },
        };
        let labels = vec!["city".to_string(), "country".to_string()];
        let resp = PredictResponse::from_prediction(&p, &labels, 2);
        assert_eq!(resp.label, "country");
        assert_eq!(resp.local.len(), 2);
        assert_eq!(resp.global.len(), 2);
        assert!(resp.structural.is_empty());
    }

    #[test]
    fn error_codes_map_to_http_statuses() {
        assert_eq!(ApiError::bad_request("nope").status(), 400);
        assert_eq!(ApiError::new(ErrorCode::ShuttingDown, "bye").status(), 503);
        assert_eq!(ApiError::new(ErrorCode::DeadlineExceeded, "late").status(), 504);
        assert_eq!(ApiError::new(ErrorCode::TooManyConnections, "full").status(), 429);
        assert_eq!(ApiError::new(ErrorCode::RequestTimeout, "slow").status(), 408);
        assert_eq!(ApiError::bad_request("nope").retry_after_s, None);
        assert_eq!(ApiError::too_many_connections("full", 2).retry_after_s, Some(2));
        let json = serde_json::to_string(&ApiError::new(ErrorCode::ShuttingDown, "bye")).unwrap();
        let back: ApiError = serde_json::from_str(&json).unwrap();
        assert_eq!(back.code, ErrorCode::ShuttingDown);
    }
}
