//! Engine differential suite: the tape-free `InferenceEncoder`'s full
//! `max_seq × d_model` output must be `f32::to_bits`-equal to the tape
//! forward (`TransformerEncoder::forward(.., training = false)`) on the
//! golden corpus, at every live length, on relation pairs, and at
//! `max_seq` 4 (below the packed kernel's 8-row cutoff, so the naive
//! product path runs), 16 and 32.
//!
//! The kernels-matrix CI job runs this suite on the AVX2 arm and on the
//! forced-scalar arm (`EXPLAINTI_NO_SIMD=1`).

use explainti_core::{build_tokenizer, ExplainTi, ExplainTiConfig, TaskData};
use explainti_corpus::{generate_wiki, Dataset, WikiConfig};
use explainti_encoder::{EncoderConfig, InferenceEncoder, TransformerEncoder};
use explainti_nn::{Graph, ParamStore};
use explainti_tokenizer::{Encoded, Tokenizer, PAD};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// The golden-explanations corpus and vocabulary cap.
fn golden_corpus() -> Dataset {
    generate_wiki(&WikiConfig { num_tables: 16, seed: 4242, ..Default::default() })
}

/// A standalone encoder over `tok`'s vocabulary whose every parameter
/// (LayerNorm gains and all biases included) is moved off its
/// initialisation, so no weight is a trivial 0 or 1.
fn perturbed_encoder(tok: &Tokenizer, max_seq: usize) -> (TransformerEncoder, ParamStore) {
    let mut store = ParamStore::new();
    let mut rng = SmallRng::seed_from_u64(17);
    let cfg = EncoderConfig::bert_like(tok.vocab_size(), max_seq);
    let encoder = TransformerEncoder::new(&mut store, cfg, &mut rng);
    let mut state = 0x2545_f491_4f6c_dd1du64;
    for i in 0..store.len() {
        let id = store.param_id_at(i);
        for v in store.value_mut(id).as_mut_slice() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            *v += ((state >> 40) as f32 / 16_777_216.0 - 0.5) * 0.2;
        }
    }
    (encoder, store)
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Asserts the engine and the tape agree bit for bit on every sequence.
fn assert_engine_matches_tape(
    encoder: &TransformerEncoder,
    store: &ParamStore,
    encs: &[Encoded],
    what: &str,
) {
    assert!(!encs.is_empty(), "{what}: no sequences");
    let engine = InferenceEncoder::new(encoder, store);
    let mut scratch = engine.scratch();
    let mut rng = SmallRng::seed_from_u64(0);
    for (i, enc) in encs.iter().enumerate() {
        let mut g = Graph::new();
        let node = encoder.forward(&mut g, store, enc, false, &mut rng);
        let want = bits(g.value(node).as_slice());
        let got = bits(engine.forward(enc, &mut scratch));
        assert_eq!(got, want, "{what}: sequence {i} (live length {}) differs", enc.len);
    }
}

#[test]
fn engine_matches_tape_on_the_golden_corpus() {
    let d = golden_corpus();
    let cfg = ExplainTiConfig::bert_like(2048, 32);
    let model = ExplainTi::new(&d, cfg.clone());
    // The golden model's own encoder weights, in a standalone store.
    let mut store = ParamStore::new();
    let mut rng = SmallRng::seed_from_u64(0);
    let encoder = TransformerEncoder::new(&mut store, model.cfg.encoder.clone(), &mut rng);
    encoder.import_weights(&mut store, &model.export_encoder());
    for task in model.tasks() {
        let encs: Vec<Encoded> = task.data.samples.iter().map(|s| s.encoded.clone()).collect();
        assert_engine_matches_tape(
            &encoder,
            &store,
            &encs,
            &format!("golden {:?}", task.data.kind),
        );
    }
}

#[test]
fn engine_matches_tape_at_every_live_length_and_max_seq() {
    let d = golden_corpus();
    let tok = build_tokenizer(&d, 2048);
    for max_seq in [4usize, 16, 32] {
        let (encoder, store) = perturbed_encoder(&tok, max_seq);
        let vocab = tok.vocab_size();
        let encs: Vec<Encoded> = (1..=max_seq)
            .map(|len| Encoded {
                ids: (0..max_seq)
                    .map(|i| if i < len { (i * 7 + 11) % vocab } else { PAD })
                    .collect(),
                len,
                second_start: None,
            })
            .collect();
        assert_engine_matches_tape(&encoder, &store, &encs, &format!("max_seq {max_seq}"));
    }
}

#[test]
fn engine_matches_tape_on_relation_pairs() {
    let d = golden_corpus();
    let tok = build_tokenizer(&d, 2048);
    let (encoder, store) = perturbed_encoder(&tok, 32);
    let rel = TaskData::prepare_relation(&d, &tok, 32, false);
    let pairs: Vec<Encoded> = rel.samples.iter().take(8).map(|s| s.encoded.clone()).collect();
    assert!(pairs.iter().all(|e| e.second_start.is_some()), "relation samples are pairs");
    assert_engine_matches_tape(&encoder, &store, &pairs, "relation pairs");
}
