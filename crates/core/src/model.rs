//! The ExplainTI model: encoder + per-task heads + the three explanation
//! modules (Algorithms 1, 2 and 4 of the paper).
//!
//! Design notes on faithfulness to the paper:
//!
//! * **LE (Algorithm 1)** — each window's `t_j` is the mean embedding of
//!   the live positions *outside* the window ("the representation of the
//!   sample without each window", as Algorithm 1 describes), scored by
//!   `KL(softmax(s_j) ‖ softmax(logits))` and normalised into relevance
//!   scores `RS_j` (Eq. 3). `RS_j` enters the graph as a constant (no
//!   gradient through the KL), and the local logits are the RS-weighted
//!   sum of the window logits `s_j`; the paper aggregates the σ-activated
//!   scores — summing logits instead keeps the op set minimal (DESIGN.md).
//! * **GE (Algorithm 2)** — cosine influence scores (Eq. 4) are computed
//!   in-graph against ℓ2-normalised stored embeddings (norms detached), so
//!   the GE loss shapes the encoder, with retrieval by one exact scan of
//!   the embedding store's flat slab.
//! * **SE (Algorithm 4)** — dot-product attention over `r` neighbours
//!   sampled from the column graph, restricted to nodes present in the
//!   embedding store; the attended context is concatenated with `E_[CLS]`
//!   for the final classifier (Eq. 9). An isolated node falls back to
//!   attending to itself.

use crate::config::{ExplainTiConfig, TaskKind};
use crate::data::{build_tokenizer, TaskData};
use crate::explain::{Explanation, GlobalInfluence, LocalSpan, Prediction, StructuralNeighbor};
use crate::store::EmbeddingStore;
use explainti_corpus::{Dataset, Split};
use explainti_encoder::{InferenceEncoder, Scratch, TransformerEncoder};
use explainti_metrics::{f1_scores, F1Scores};
use explainti_nn::{kl_divergence, softmax, Graph, Linear, NodeId, ParamStore, Tensor};
use explainti_tokenizer::Tokenizer;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Per-task classification heads (`W`, `W_l`, `W_g`, `W_s` in the paper).
pub(crate) struct TaskHeads {
    /// Base classifier over `E_[CLS]` (Eq. 1).
    pub w: Linear,
    /// Local-view scorer (Eq. 2).
    pub w_l: Linear,
    /// Global-view classifier (Eq. 8's `l_G`).
    pub w_g: Linear,
    /// Structural classifier over `[E_s ‖ E_[CLS]]` (Eq. 9).
    pub w_s: Linear,
}

/// One task's data, heads, and embedding store.
pub struct TaskState {
    /// Serialised samples, graph and splits.
    pub data: TaskData,
    pub(crate) heads: TaskHeads,
    /// The embedding store `Q` (training samples only).
    pub q: EmbeddingStore,
}

/// Result of one sample's forward pass, used by training and prediction.
pub(crate) struct SampleForward {
    pub graph: Graph,
    /// Final prediction logits (structural when SE is on, base otherwise).
    pub final_logits: NodeId,
    /// Local logits `l_L`, when LE is enabled and windows exist.
    pub l_l: Option<NodeId>,
    /// Global logits `l_G`, when GE is enabled and `Q` is non-empty.
    pub l_g: Option<NodeId>,
    pub local_spans: Vec<LocalSpan>,
    pub global_infl: Vec<GlobalInfluence>,
    pub structural: Vec<StructuralNeighbor>,
}

/// Everything one training forward of a sample draws from the model RNG,
/// in draw order: the encoder's dropout masks, then SE's neighbours.
pub(crate) struct SampleDraws {
    masks: Vec<Tensor>,
    neighbours: Vec<usize>,
}

/// The end-to-end ExplainTI model.
pub struct ExplainTi {
    /// Model configuration (ablation switches included).
    pub cfg: ExplainTiConfig,
    /// The tokenizer (vocabulary from the training split).
    pub tokenizer: Tokenizer,
    pub(crate) store: ParamStore,
    pub(crate) encoder: TransformerEncoder,
    pub(crate) tasks: Vec<TaskState>,
    pub(crate) rng: SmallRng,
}

impl ExplainTi {
    /// Builds a model over `dataset`. `cfg.encoder.vocab_size` is treated
    /// as a vocabulary *cap*; the actual size comes from the tokenizer.
    ///
    /// The relation task is registered only when the dataset annotates
    /// pairs (GitTables does not).
    pub fn new(dataset: &Dataset, mut cfg: ExplainTiConfig) -> Self {
        let tokenizer = build_tokenizer(dataset, cfg.encoder.vocab_size);
        cfg.encoder.vocab_size = tokenizer.vocab_size();
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let mut store = ParamStore::new();
        let encoder = TransformerEncoder::new(&mut store, cfg.encoder.clone(), &mut rng);
        let d = encoder.d_model();

        let mut tasks = Vec::new();
        let type_data =
            TaskData::prepare_type(dataset, &tokenizer, cfg.encoder.max_seq, cfg.use_pp);
        tasks.push(TaskState {
            heads: TaskHeads {
                w: Linear::new(&mut store, "type.w", d, type_data.num_classes, &mut rng),
                w_l: Linear::new(&mut store, "type.w_l", d, type_data.num_classes, &mut rng),
                w_g: Linear::new(&mut store, "type.w_g", d, type_data.num_classes, &mut rng),
                w_s: Linear::new(&mut store, "type.w_s", 2 * d, type_data.num_classes, &mut rng),
            },
            q: EmbeddingStore::new(d),
            data: type_data,
        });
        if !dataset.collection.annotated_pairs().is_empty() {
            let rel_data =
                TaskData::prepare_relation(dataset, &tokenizer, cfg.encoder.max_seq, cfg.use_pp);
            tasks.push(TaskState {
                heads: TaskHeads {
                    w: Linear::new(&mut store, "rel.w", d, rel_data.num_classes, &mut rng),
                    w_l: Linear::new(&mut store, "rel.w_l", d, rel_data.num_classes, &mut rng),
                    w_g: Linear::new(&mut store, "rel.w_g", d, rel_data.num_classes, &mut rng),
                    w_s: Linear::new(&mut store, "rel.w_s", 2 * d, rel_data.num_classes, &mut rng),
                },
                q: EmbeddingStore::new(d),
                data: rel_data,
            });
        }

        Self { cfg, tokenizer, store, encoder, tasks, rng }
    }

    /// Registered tasks.
    pub fn tasks(&self) -> &[TaskState] {
        &self.tasks
    }

    /// Index of a task by kind, if registered.
    pub fn task_index(&self, kind: TaskKind) -> Option<usize> {
        self.tasks.iter().position(|t| t.data.kind == kind)
    }

    /// Total number of trainable weights (diagnostics).
    pub fn num_weights(&self) -> usize {
        self.store.num_weights()
    }

    pub(crate) fn store(&self) -> &ParamStore {
        &self.store
    }

    pub(crate) fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    /// Masked-token pre-training of the encoder on the training-split
    /// serialisations (the stand-in for loading a published BERT/RoBERTa
    /// checkpoint; see DESIGN.md §2). Returns the final-epoch MLM loss.
    pub fn pretrain(&mut self, cfg: &explainti_encoder::mlm::PretrainConfig) -> f32 {
        let mut seqs = Vec::new();
        for task in &self.tasks {
            for &idx in &task.data.train_idx {
                seqs.push(task.data.samples[idx].encoded.clone());
            }
        }
        explainti_encoder::mlm::pretrain_mlm(
            &self.encoder,
            &mut self.store,
            &seqs,
            cfg,
            &mut self.rng,
        )
    }

    /// Exports the encoder weights (to share a pre-trained checkpoint
    /// across models built on the same tokenizer and encoder config).
    pub fn export_encoder(&self) -> Vec<f32> {
        self.encoder.export_weights(&self.store)
    }

    /// Imports encoder weights exported by [`Self::export_encoder`].
    pub fn load_encoder(&mut self, checkpoint: &[f32]) {
        self.encoder.import_weights(&mut self.store, checkpoint);
    }

    /// Runs the encoder over every training sample of `task` and rewrites
    /// each sample's row in the embedding store `Q` (Algorithm 2's
    /// initialisation/refresh), stamped with the current weights.
    ///
    /// Training runs it; a loaded model reads the rows its snapshot
    /// persisted instead (`store.bin`, written by
    /// [`Self::save_to_dir`]).
    pub fn refresh_store(&mut self, task: usize) {
        let _span = explainti_obs::span!("store.refresh");
        let stamp = self.weights_stamp();
        let cls = self.embed_train_split(task);
        let state = &mut self.tasks[task];
        for (&idx, cls) in state.data.train_idx.iter().zip(cls) {
            state.q.set(idx, cls.as_slice(), state.data.samples[idx].label);
        }
        state.q.stamp(stamp);
    }

    /// `E_[CLS]` of every training sample of `task` under the current
    /// weights, in `train_idx` order: one
    /// [`TransformerEncoder::embed_cls_batch`] call on the tape-free
    /// inference encoder.
    pub(crate) fn embed_train_split(&self, task: usize) -> Vec<Tensor> {
        let data = &self.tasks[task].data;
        let encs: Vec<explainti_tokenizer::Encoded> =
            data.train_idx.iter().map(|&idx| data.samples[idx].encoded.clone()).collect();
        self.encoder.embed_cls_batch(&self.store, &encs)
    }

    /// Full tape forward over one sample, producing all logits and
    /// explanation bundles, as the trainer runs it when `training` (the
    /// model RNG advances by exactly [`Self::draw_sample`]) or on the tape
    /// without dropout otherwise.
    #[cfg(test)]
    pub(crate) fn forward_sample(
        &mut self,
        task: usize,
        sample_idx: usize,
        training: bool,
    ) -> SampleForward {
        let draws = training.then(|| {
            let mut rng = self.rng.clone();
            let draws = self.draw_sample(task, sample_idx, &mut rng);
            self.rng = rng;
            draws
        });
        self.forward_drawn(task, sample_idx, draws.as_ref())
    }

    /// Draws from `rng`, in order, everything one training forward of
    /// `sample_idx` consumes. The training step and the trainer's in-order
    /// pre-pass both call it, and [`Self::forward_drawn`] draws nothing,
    /// so a batch's samples can run in any order on any thread.
    pub(crate) fn draw_sample(
        &self,
        task: usize,
        sample_idx: usize,
        rng: &mut SmallRng,
    ) -> SampleDraws {
        let masks = self.encoder.draw_dropout_masks(rng);
        let neighbours = if self.cfg.use_se {
            self.sample_structural(task, sample_idx, rng)
        } else {
            Vec::new()
        };
        SampleDraws { masks, neighbours }
    }

    /// Full tape forward over one sample, producing all logits and
    /// explanation bundles, under pre-drawn `draws` (a training pass,
    /// which back-propagates through the encoder) or none (no dropout).
    pub(crate) fn forward_drawn(
        &self,
        task: usize,
        sample_idx: usize,
        draws: Option<&SampleDraws>,
    ) -> SampleForward {
        let _span = explainti_obs::span!("model.forward");
        let encoded = &self.tasks[task].data.samples[sample_idx].encoded;
        let mut g = Graph::new();
        let masks = draws.map_or(&[][..], |d| &d.masks);
        let (emb, _) = self.encoder.forward_masked(&mut g, &self.store, encoded, masks);
        let neighbours = draws.map(|d| &d.neighbours[..]);
        self.heads(g, emb, task, encoded, Some(sample_idx), neighbours, true)
    }

    /// Inference forward over one encoded sequence: the tape-free
    /// `engine`, then the heads on a fresh tape seeded with its output.
    /// `with_views = false` skips LE and GE, which contribute training
    /// losses and explanations but never the final logits.
    fn infer(
        &self,
        engine: &InferenceEncoder<'_>,
        scratch: &mut Scratch,
        task: usize,
        encoded: &explainti_tokenizer::Encoded,
        node: Option<usize>,
        with_views: bool,
    ) -> SampleForward {
        let _span = explainti_obs::span!("model.forward");
        let e = engine.forward(encoded, scratch);
        let mut g = Graph::new();
        let emb = g.input(Tensor::from_vec(encoded.ids.len(), engine.d_model(), e.to_vec()));
        self.heads(g, emb, task, encoded, node, None, with_views)
    }

    /// The heads over the encoder output `emb` on tape `g`. `node` is the
    /// sample's column-graph node when it exists in the task data; ad-hoc
    /// inputs (e.g. freshly ingested CSV columns) pass `None`, in which
    /// case SE falls back to self-attention and GE retrieves without
    /// self-exclusion. `train_neighbours` is SE's drawn neighbours on a
    /// training pass and `None` at inference.
    ///
    /// Takes `&self`: the prediction path reads shared state only, so
    /// concurrent callers (the inference server's connection threads) can
    /// share one model behind an `Arc` without locking.
    #[allow(clippy::too_many_arguments)]
    fn heads(
        &self,
        mut graph: Graph,
        emb: NodeId,
        task: usize,
        encoded: &explainti_tokenizer::Encoded,
        node: Option<usize>,
        train_neighbours: Option<&[usize]>,
        with_views: bool,
    ) -> SampleForward {
        let kind = self.tasks[task].data.kind;
        let training = train_neighbours.is_some();
        let g = &mut graph;
        let cls = self.encoder.cls(g, emb);
        let cls_value = g.value(cls).clone();

        // Final prediction logits: the structural classifier (Eq. 9) when
        // SE is enabled, otherwise the base classifier over E_[CLS]
        // (Eq. 1). Computed first so LE's relevance scores compare window
        // distributions against the *actual* prediction distribution.
        let (final_logits, structural) = if self.cfg.use_se {
            self.structural_explanations(task, g, cls, &cls_value, node, train_neighbours)
        } else {
            let base = self.tasks[task].heads.w.forward(g, &self.store, cls);
            (base, Vec::new())
        };

        // --- LE: Algorithm 1 -------------------------------------------
        let (l_l, local_spans) = if self.cfg.use_le && with_views {
            self.local_explanations(task, g, emb, final_logits, encoded, kind)
        } else {
            (None, Vec::new())
        };

        // --- GE: Algorithm 2 -------------------------------------------
        let (l_g, global_infl) = if self.cfg.use_ge && with_views {
            self.global_explanations(task, g, cls, &cls_value, node, training)
        } else {
            (None, Vec::new())
        };

        SampleForward { graph, final_logits, l_l, l_g, local_spans, global_infl, structural }
    }

    /// Algorithm 1: sliding-window relevance scores and local logits.
    #[allow(clippy::too_many_arguments)]
    fn local_explanations(
        &self,
        task: usize,
        g: &mut Graph,
        emb: NodeId,
        reference_logits: NodeId,
        encoded: &explainti_tokenizer::Encoded,
        kind: TaskKind,
    ) -> (Option<NodeId>, Vec<LocalSpan>) {
        let _span = explainti_obs::span!("explain.le");
        let k = self.cfg.window;
        let len = encoded.len;
        // Enumerate concept anchors `(start, len, paired_start)`: sliding
        // windows for ExplainTI, marker-delimited segments for the
        // SelfExplain reproduction; pairwise anchors for relations.
        let mut anchors: Vec<(usize, usize, Option<usize>)> = Vec::new();
        match self.cfg.le_mode {
            crate::config::LeMode::Segments => {
                // Segments between special/marker tokens (ids < 8).
                let mut start = None;
                for pos in 1..len {
                    let special = encoded.ids[pos] < 8;
                    match (start, special) {
                        (None, false) => start = Some(pos),
                        (Some(s), true) => {
                            anchors.push((s, pos - s, None));
                            start = None;
                        }
                        _ => {}
                    }
                }
                if let Some(s) = start {
                    anchors.push((s, len - s, None));
                }
            }
            crate::config::LeMode::SlidingWindow => match kind {
                TaskKind::Type => {
                    let last = len.saturating_sub(k);
                    for j in 1..last {
                        anchors.push((j, k, None));
                    }
                }
                TaskKind::Relation => {
                    let second = encoded.second_start.unwrap_or(len / 2);
                    let stride = self.cfg.pair_stride.max(1);
                    let first_last = second.saturating_sub(k);
                    let last = len.saturating_sub(k);
                    let mut j = 1;
                    while j < first_last {
                        let mut js = second;
                        while js < last {
                            anchors.push((j, k, Some(js)));
                            js += stride;
                        }
                        j += stride;
                    }
                }
            },
        }
        if anchors.is_empty() {
            return (None, Vec::new());
        }

        let full_probs = softmax(g.value(reference_logits).as_slice());
        // Mean embedding over the live (non-pad) positions, used to build
        // each window's "input without the concept" representation.
        let live = g.rows_range(emb, 0, len);
        let all_mean = g.mean_rows(live);
        let mut window_nodes: Vec<NodeId> = Vec::with_capacity(anchors.len());
        let mut kls: Vec<f32> = Vec::with_capacity(anchors.len());
        for &(j, wlen, js) in &anchors {
            // Algorithm 1 describes t_j as "the representation of the
            // sample without each window"; we realise that literally as
            // the mean embedding over every live position *outside* the
            // window(s): t_j = (len·mean_all − k·mean_win) / (len − k).
            // Scoring the sample-minus-window distribution makes
            // KL(s_j ‖ logits) large exactly when the window carries the
            // prediction — the behaviour the paper's Fig 1/6 examples
            // show. (The paper's inline formula `mean(E_win) − E_CLS` is
            // a window-centric vector whose KL ranking anti-correlates
            // with relevance at our scale; see DESIGN.md.)
            let win = g.rows_range(emb, j, wlen);
            let win_mean = g.mean_rows(win);
            let (removed_mean, removed_count) = match js {
                Some(js) => {
                    let win2 = g.rows_range(emb, js, wlen);
                    let win2_mean = g.mean_rows(win2);
                    let sum = g.add(win_mean, win2_mean);
                    (g.scale(sum, 0.5), 2 * wlen)
                }
                None => (win_mean, wlen),
            };
            let remaining = len.saturating_sub(removed_count).max(1) as f32;
            let scaled_all = g.scale(all_mean, len as f32 / remaining);
            let scaled_win = g.scale(removed_mean, removed_count as f32 / remaining);
            let t = g.sub(scaled_all, scaled_win);
            let s = self.tasks[task].heads.w_l.forward(g, &self.store, t);
            let probs = softmax(g.value(s).as_slice());
            let score = match self.cfg.le_scoring {
                crate::config::LeScoring::KlDivergence => kl_divergence(&probs, &full_probs),
                crate::config::LeScoring::LogitDrop => {
                    let pred = full_probs
                        .iter()
                        .enumerate()
                        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                        .map(|(i, _)| i)
                        .unwrap_or(0);
                    (full_probs[pred] - probs[pred]).abs()
                }
            };
            kls.push(score);
            window_nodes.push(s);
        }

        let tot: f32 = kls.iter().sum();
        let rs: Vec<f32> = if tot > 1e-12 {
            kls.iter().map(|k| k / tot).collect()
        } else {
            vec![1.0 / kls.len() as f32; kls.len()]
        };

        // l_L = Σ_j RS_j · s_j (relevance-weighted window logits).
        let mut l_l: Option<NodeId> = None;
        for (s, &w) in window_nodes.iter().zip(&rs) {
            let scaled = g.scale(*s, w);
            l_l = Some(match l_l {
                Some(acc) => g.add(acc, scaled),
                None => scaled,
            });
        }

        let mut spans: Vec<LocalSpan> = anchors
            .iter()
            .zip(&rs)
            .map(|(&(j, wlen, js), &relevance)| {
                let mut text = self.tokenizer.decode(&encoded.ids[j..j + wlen]);
                if let Some(js) = js {
                    text.push_str(" ⟷ ");
                    text.push_str(&self.tokenizer.decode(&encoded.ids[js..js + wlen]));
                }
                LocalSpan { start: j, window: wlen, pair_start: js, text, relevance }
            })
            .collect();
        spans.sort_by(|a, b| {
            b.relevance.partial_cmp(&a.relevance).unwrap_or(std::cmp::Ordering::Equal)
        });
        (l_l, spans)
    }

    /// Algorithm 2: top-K influential samples and global logits.
    fn global_explanations(
        &self,
        task: usize,
        g: &mut Graph,
        cls: NodeId,
        cls_value: &Tensor,
        node: Option<usize>,
        training: bool,
    ) -> (Option<NodeId>, Vec<GlobalInfluence>) {
        let _span = explainti_obs::span!("explain.ge");
        let exclude = if training { node } else { None };
        let found = self.tasks[task].q.top_k(cls_value, self.cfg.top_k, exclude);
        if found.is_empty() {
            return (None, Vec::new());
        }
        let d = self.encoder.d_model();
        let kn = found.len();
        let mut q_raw = Tensor::zeros(kn, d);
        let mut q_hat = Tensor::zeros(kn, d);
        for (r, n) in found.iter().enumerate() {
            let e = self.tasks[task].q.get(n.id).expect("retrieved neighbour must be stored");
            q_raw.row_slice_mut(r).copy_from_slice(e);
            // `Tensor::norm`'s sequential f32 sum, so the bits match it.
            let norm = e.iter().map(|v| v * v).sum::<f32>().sqrt().max(1e-6);
            for (dst, &src) in q_hat.row_slice_mut(r).iter_mut().zip(e) {
                *dst = src / norm;
            }
        }
        // cos(E_CLS, q) with detached norms: (E/‖E‖) · q̂.
        let inv_norm = 1.0 / cls_value.norm().max(1e-6);
        let q_hat_n = g.input(q_hat);
        let q_raw_n = g.input(q_raw);
        let scaled_cls = g.scale(cls, inv_norm);
        let sims = g.matmul_nt(scaled_cls, q_hat_n);
        let is_node = g.softmax(sims);
        let e_g = g.matmul(is_node, q_raw_n);
        let l_g = self.tasks[task].heads.w_g.forward(g, &self.store, e_g);

        let is_values = g.value(is_node).as_slice().to_vec();
        let mut infl: Vec<GlobalInfluence> = found
            .iter()
            .zip(is_values)
            .map(|(n, influence)| GlobalInfluence {
                sample: n.id,
                influence,
                label: self.tasks[task].q.label(n.id).unwrap_or(usize::MAX),
            })
            .collect();
        infl.sort_by(|a, b| {
            b.influence.partial_cmp(&a.influence).unwrap_or(std::cmp::Ordering::Equal)
        });
        (Some(l_g), infl)
    }

    /// Algorithm 4's neighbour draw: `sample_r` column-graph neighbours
    /// of `sample_idx` that are in the embedding store, drawn from `rng`.
    fn sample_structural(&self, task: usize, sample_idx: usize, rng: &mut SmallRng) -> Vec<usize> {
        let state = &self.tasks[task];
        let pred = |n: usize| n != sample_idx && state.q.has(n);
        state.data.graph.sample_neighbors(sample_idx, self.cfg.sample_r, Some(&pred), rng)
    }

    /// Algorithm 4: graph-attention aggregation and structural logits.
    fn structural_explanations(
        &self,
        task: usize,
        g: &mut Graph,
        cls: NodeId,
        cls_value: &Tensor,
        node: Option<usize>,
        train_neighbours: Option<&[usize]>,
    ) -> (NodeId, Vec<StructuralNeighbor>) {
        let _span = explainti_obs::span!("explain.se");
        // Training samples fresh neighbours per step (the paper's uniform
        // sampling), drawn by `draw_sample`; inference uses a per-node
        // deterministic draw so predictions are reproducible. Ad-hoc
        // inputs (node = None) have no graph node and fall through to the
        // self-attention fallback.
        let sampled = match (train_neighbours, node) {
            (Some(drawn), _) => drawn.to_vec(),
            (None, Some(sample_idx)) => {
                let mut eval_rng = SmallRng::seed_from_u64(
                    self.cfg.seed ^ (sample_idx as u64).wrapping_mul(0x9e3779b97f4a7c15),
                );
                self.sample_structural(task, sample_idx, &mut eval_rng)
            }
            (None, None) => Vec::new(),
        };

        let d = self.encoder.d_model();
        let (neigh_matrix, ids): (Tensor, Vec<usize>) = if sampled.is_empty() {
            // Isolated or ad-hoc node: attend to the sample itself so
            // E_s = E_[CLS]; the structural view is reported empty.
            (cls_value.clone(), Vec::new())
        } else {
            let mut m = Tensor::zeros(sampled.len(), d);
            for (row, &n) in sampled.iter().enumerate() {
                m.row_slice_mut(row).copy_from_slice(self.tasks[task].q.get(n).unwrap());
            }
            (m, sampled)
        };

        let n_node = g.input(neigh_matrix);
        // Eq. 5 uses raw dot products; post-layer-norm embeddings have
        // norm ~ sqrt(d), so raw dots saturate the softmax into a hard
        // (and noisy) max. Temperature-scaling by 1/d keeps the attention
        // soft enough to average out bad neighbours (noted in DESIGN.md).
        let (as_values_node, e_s) = match self.cfg.se_aggregation {
            crate::config::SeAggregation::Attention => {
                let scores = g.matmul_nt(cls, n_node);
                let scaled = g.scale(scores, 1.0 / d as f32);
                let as_node = g.softmax(scaled);
                let e_s = g.matmul(as_node, n_node);
                (as_node, e_s)
            }
            crate::config::SeAggregation::MeanPooling => {
                let rows = g.value(n_node).rows();
                let uniform = g.input(Tensor::full(1, rows, 1.0 / rows as f32));
                let e_s = g.mean_rows(n_node);
                (uniform, e_s)
            }
        };
        let as_node = as_values_node;
        let e_star = g.concat_cols(e_s, cls);
        let logits = self.tasks[task].heads.w_s.forward(g, &self.store, e_star);

        // Merge duplicate neighbours (with-replacement sampling) by
        // summing attention mass.
        let as_values = g.value(as_node).as_slice().to_vec();
        // BTreeMap, not HashMap: with a HashMap, ties on attention would
        // surface in hash order and the SE ranking would differ run to run.
        let mut merged: std::collections::BTreeMap<usize, f32> = std::collections::BTreeMap::new();
        for (&id, &a) in ids.iter().zip(&as_values) {
            *merged.entry(id).or_insert(0.0) += a;
        }
        let mut structural: Vec<StructuralNeighbor> = merged
            .into_iter()
            .map(|(node, attention)| StructuralNeighbor {
                node,
                attention,
                label: self.tasks[task].q.label(node).unwrap_or(usize::MAX),
            })
            .collect();
        structural.sort_by(|a, b| {
            b.attention
                .partial_cmp(&a.attention)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.node.cmp(&b.node))
        });
        (logits, structural)
    }

    /// Serialises an ad-hoc column with the model's tokenizer, ready for
    /// [`Self::predict_encoded`] / [`Self::predict_encoded_batch`]. The
    /// serving path calls this up front so cache keys and queued jobs
    /// carry the encoded form.
    pub fn encode_ad_hoc_column(
        &self,
        title: &str,
        header: &str,
        cells: &[&str],
    ) -> explainti_tokenizer::Encoded {
        explainti_tokenizer::encode_column(
            &self.tokenizer,
            title,
            header,
            cells,
            self.cfg.encoder.max_seq,
        )
    }

    /// Predicts the type of an *ad-hoc* column that is not part of the
    /// dataset (e.g. freshly ingested from CSV): the column is serialised
    /// with the model's tokenizer, LE and GE work as usual, and SE falls
    /// back to self-attention because the column has no graph node.
    ///
    /// Takes `&self` — the prediction path is shared-state-safe, so an
    /// `Arc<ExplainTi>` serves concurrent predictions without locking.
    pub fn predict_column(&self, title: &str, header: &str, cells: &[&str]) -> Prediction {
        let encoded = self.encode_ad_hoc_column(title, header, cells);
        self.predict_encoded(&encoded)
    }

    /// Predicts one pre-encoded ad-hoc column (type task) with full
    /// multi-view explanations.
    pub fn predict_encoded(&self, encoded: &explainti_tokenizer::Encoded) -> Prediction {
        let task = self.task_index(TaskKind::Type).expect("type task not registered");
        self.predict_one(task, encoded, None)
    }

    /// Predicts a batch of pre-encoded ad-hoc columns (type task) on one
    /// inference-engine build and one scratch, on the calling thread —
    /// the entry point a serve worker runs one request's cache misses
    /// through. Results are in input order and identical to per-sample
    /// [`Self::predict_encoded`] calls.
    pub fn predict_encoded_batch(&self, encs: &[explainti_tokenizer::Encoded]) -> Vec<Prediction> {
        let _span = explainti_obs::span!("model.predict_batch");
        let task = self.task_index(TaskKind::Type).expect("type task not registered");
        let engine = InferenceEncoder::new(&self.encoder, &self.store);
        let mut scratch = engine.scratch();
        encs.iter()
            .map(|enc| {
                Self::prediction_from(self.infer(&engine, &mut scratch, task, enc, None, true))
            })
            .collect()
    }

    /// Predicts one sample with full multi-view explanations.
    pub fn predict(&self, kind: TaskKind, sample_idx: usize) -> Prediction {
        let task = self.task_index(kind).expect("task not registered");
        self.predict_one(task, &self.tasks[task].data.samples[sample_idx].encoded, Some(sample_idx))
    }

    fn predict_one(
        &self,
        task: usize,
        encoded: &explainti_tokenizer::Encoded,
        node: Option<usize>,
    ) -> Prediction {
        let engine = InferenceEncoder::new(&self.encoder, &self.store);
        let mut scratch = engine.scratch();
        Self::prediction_from(self.infer(&engine, &mut scratch, task, encoded, node, true))
    }

    fn prediction_from(fwd: SampleForward) -> Prediction {
        let logits = fwd.graph.value(fwd.final_logits).as_slice().to_vec();
        let probs = softmax(&logits);
        let label = probs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap_or(0);
        Prediction {
            label,
            confidence: probs[label],
            probs,
            explanation: Explanation {
                local: fwd.local_spans,
                global: fwd.global_infl,
                structural: fwd.structural,
            },
        }
    }

    /// Evaluates F1 over a split of a task. The split's samples are
    /// predicted in contiguous chunks on [`explainti_pool::map_chunks`],
    /// each independently, so the scores do not depend on the width.
    pub fn evaluate(&self, kind: TaskKind, split: Split) -> F1Scores {
        let _span = explainti_obs::span!("evaluate");
        let task = self.task_index(kind).expect("task not registered");
        let data = &self.tasks[task].data;
        let indices = data.indices(split);
        let engine = InferenceEncoder::new(&self.encoder, &self.store);
        let preds = explainti_pool::map_chunks(indices, |chunk| {
            let mut scratch = engine.scratch();
            chunk
                .iter()
                .map(|&idx| {
                    let encoded = &data.samples[idx].encoded;
                    let fwd = self.infer(&engine, &mut scratch, task, encoded, Some(idx), false);
                    fwd.graph.value(fwd.final_logits).argmax_row(0)
                })
                .collect()
        });
        let actual: Vec<usize> = indices.iter().map(|&idx| data.samples[idx].label).collect();
        f1_scores(&preds, &actual, data.num_classes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use explainti_corpus::{generate_wiki, WikiConfig};

    fn model() -> ExplainTi {
        let d = generate_wiki(&WikiConfig { num_tables: 50, seed: 21, ..Default::default() });
        let cfg = ExplainTiConfig::bert_like(2048, 32);
        ExplainTi::new(&d, cfg)
    }

    #[test]
    fn registers_both_wiki_tasks() {
        let m = model();
        assert_eq!(m.tasks().len(), 2);
        assert!(m.task_index(TaskKind::Type).is_some());
        assert!(m.task_index(TaskKind::Relation).is_some());
    }

    #[test]
    fn forward_produces_all_views_after_store_init() {
        let mut m = model();
        m.refresh_store(0);
        // Use a sample whose graph node has train-split neighbours so the
        // structural view is populated (isolated nodes legitimately fall
        // back to an empty structural view).
        let sample = (0..m.tasks[0].data.samples.len())
            .find(|&i| m.tasks[0].data.graph.neighbors(i).iter().any(|&n| m.tasks[0].q.has(n)))
            .expect("some sample has stored neighbours");
        let fwd = m.forward_sample(0, sample, false);
        assert!(fwd.l_l.is_some(), "LE missing");
        assert!(fwd.l_g.is_some(), "GE missing");
        assert!(!fwd.local_spans.is_empty());
        assert!(!fwd.global_infl.is_empty());
        assert!(!fwd.structural.is_empty());
        let c = m.tasks[0].data.num_classes;
        assert_eq!(fwd.graph.value(fwd.final_logits).shape(), (1, c));
    }

    #[test]
    fn relevance_scores_sum_to_one() {
        let mut m = model();
        m.refresh_store(0);
        let fwd = m.forward_sample(0, 3, false);
        let total: f32 = fwd.local_spans.iter().map(|s| s.relevance).sum();
        assert!((total - 1.0).abs() < 1e-4, "RS sum {total}");
    }

    #[test]
    fn influence_scores_sum_to_one_and_sorted() {
        let mut m = model();
        m.refresh_store(0);
        let fwd = m.forward_sample(0, 5, false);
        let total: f32 = fwd.global_infl.iter().map(|s| s.influence).sum();
        assert!((total - 1.0).abs() < 1e-4);
        for pair in fwd.global_infl.windows(2) {
            assert!(pair[0].influence >= pair[1].influence);
        }
    }

    #[test]
    fn attention_scores_sum_to_one() {
        let mut m = model();
        m.refresh_store(0);
        let fwd = m.forward_sample(0, 2, false);
        let total: f32 = fwd.structural.iter().map(|s| s.attention).sum();
        assert!((total - 1.0).abs() < 1e-4);
    }

    #[test]
    fn training_excludes_self_from_global_view() {
        let mut m = model();
        m.refresh_store(0);
        let train0 = m.tasks[0].data.train_idx[0];
        let fwd = m.forward_sample(0, train0, true);
        assert!(fwd.global_infl.iter().all(|g| g.sample != train0));
    }

    #[test]
    fn ablations_drop_their_views() {
        let d = generate_wiki(&WikiConfig { num_tables: 40, seed: 22, ..Default::default() });
        let cfg = ExplainTiConfig::bert_like(2048, 32).without("le").without("ge").without("se");
        let mut m = ExplainTi::new(&d, cfg);
        m.refresh_store(0);
        let fwd = m.forward_sample(0, 0, false);
        assert!(fwd.l_l.is_none());
        assert!(fwd.l_g.is_none());
        assert!(fwd.local_spans.is_empty());
        assert!(fwd.structural.is_empty());
    }

    #[test]
    fn prediction_probabilities_are_a_distribution() {
        let mut m = model();
        m.refresh_store(0);
        let p = m.predict(TaskKind::Type, 1);
        let total: f32 = p.probs.iter().sum();
        assert!((total - 1.0).abs() < 1e-4);
        assert_eq!(
            p.label,
            p.probs.iter().enumerate().max_by(|a, b| a.1.partial_cmp(b.1).unwrap()).unwrap().0
        );
    }

    #[test]
    fn batched_adhoc_prediction_matches_single() {
        let mut m = model();
        m.refresh_store(0);
        let e1 = m.encode_ad_hoc_column("1994 world cup", "country", &["costa rica", "norway"]);
        let e2 = m.encode_ad_hoc_column("grand prix", "driver", &["senna", "prost"]);
        let singles = [m.predict_encoded(&e1), m.predict_encoded(&e2)];
        let batch = m.predict_encoded_batch(&[e1, e2]);
        assert_eq!(batch.len(), 2);
        for (b, s) in batch.iter().zip(&singles) {
            assert_eq!(b.label, s.label);
            assert_eq!(b.probs, s.probs);
            assert_eq!(b.explanation.local.len(), s.explanation.local.len());
            for (bl, sl) in b.explanation.local.iter().zip(&s.explanation.local) {
                assert_eq!(bl.start, sl.start);
                assert_eq!(bl.relevance, sl.relevance);
            }
        }
    }

    /// Engines are built per call from the live store, so after a
    /// weight update `predict` and `evaluate` give the tape's answers
    /// for the new weights.
    #[test]
    fn inference_follows_a_weight_update_like_the_tape() {
        let mut m = model();
        m.refresh_store(0);
        let probe = m.tasks[0].data.train_idx[0];
        let before = m.predict(TaskKind::Type, probe);

        let label = m.tasks[0].data.samples[probe].label;
        let fwd = m.forward_sample(0, probe, true);
        let mut g = fwd.graph;
        let loss = g.cross_entropy(fwd.final_logits, &[label]);
        g.backward(loss);
        g.flush_grads(m.store_mut());
        explainti_nn::AdamW::new(explainti_nn::LinearSchedule::constant(0.05)).step(m.store_mut());

        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let after = m.predict(TaskKind::Type, probe);
        let tape = m.forward_sample(0, probe, false);
        assert_ne!(bits(&after.probs), bits(&before.probs), "the update moved the prediction");
        assert_eq!(
            bits(&after.probs),
            bits(&softmax(tape.graph.value(tape.final_logits).as_slice()))
        );
        let spans = |s: &[LocalSpan]| {
            s.iter().map(|l| (l.start, l.relevance.to_bits())).collect::<Vec<_>>()
        };
        assert_eq!(spans(&after.explanation.local), spans(&tape.local_spans));

        let split = Split::Test;
        let (mut preds, mut actual) = (Vec::new(), Vec::new());
        for &idx in m.tasks[0].data.indices(split).to_vec().iter() {
            let f = m.forward_sample(0, idx, false);
            preds.push(f.graph.value(f.final_logits).argmax_row(0));
            actual.push(m.tasks[0].data.samples[idx].label);
        }
        let want = f1_scores(&preds, &actual, m.tasks[0].data.num_classes);
        assert_eq!(m.evaluate(TaskKind::Type, split), want);
    }

    #[test]
    fn shared_model_predicts_concurrently() {
        let mut m = model();
        m.refresh_store(0);
        let expected = m.predict_column("geography", "city", &["barcelona", "kyoto"]);
        let shared = std::sync::Arc::new(m);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let m = std::sync::Arc::clone(&shared);
                std::thread::spawn(move || {
                    m.predict_column("geography", "city", &["barcelona", "kyoto"])
                })
            })
            .collect();
        for h in handles {
            let p = h.join().unwrap();
            assert_eq!(p.label, expected.label);
            assert_eq!(p.probs, expected.probs);
        }
    }

    /// The forward draws nothing itself: a training `forward_sample`
    /// advances the model RNG exactly as `draw_sample` does, for both
    /// tasks, with SE (neighbour draws) on and off.
    #[test]
    fn a_training_forward_draws_exactly_draw_sample() {
        let state = |rng: &SmallRng| format!("{rng:?}");
        for use_se in [true, false] {
            let mut m = model();
            m.cfg.use_se = use_se;
            for task in 0..m.tasks.len() {
                m.refresh_store(task);
            }
            for task in 0..m.tasks.len() {
                let data = &m.tasks[task].data;
                let sample = *data
                    .train_idx
                    .iter()
                    .find(|&&i| data.graph.neighbors(i).iter().any(|&n| m.tasks[task].q.has(n)))
                    .expect("some training sample has stored neighbours");
                let start = m.rng.clone();
                let mut drawn = start.clone();
                let draws = m.draw_sample(task, sample, &mut drawn);
                assert_eq!(draws.neighbours.is_empty(), !use_se, "task {task}, SE {use_se}");
                m.forward_sample(task, sample, true);
                assert_ne!(state(&m.rng), state(&start), "a training forward draws");
                assert_eq!(state(&m.rng), state(&drawn), "task {task}, SE {use_se}");
            }
        }
    }

    #[test]
    fn relation_forward_uses_pairwise_windows() {
        let mut m = model();
        m.refresh_store(1);
        let fwd = m.forward_sample(1, 0, false);
        assert!(!fwd.local_spans.is_empty());
        assert!(fwd.local_spans.iter().all(|s| s.pair_start.is_some()));
    }
}
