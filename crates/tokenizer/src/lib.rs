//! # explainti-tokenizer
//!
//! Vocabulary construction and tokenisation for table serialisations.
//!
//! The paper feeds serialised tables to BERT/RoBERTa tokenizers; this crate
//! provides the equivalent for the from-scratch encoder: lower-casing and
//! punctuation-aware word splitting, frequency-based vocabulary building,
//! and a greedy longest-prefix subword fallback (WordPiece-style) so that
//! unseen cell values still map to informative pieces instead of `[UNK]`.
//!
//! Special tokens mirror the paper's serialisation of Section II-B:
//! `[CLS] Title p Header h Cell v… [SEP]`, with `Title`/`Header`/`Cell`
//! represented by dedicated marker tokens.

#![warn(missing_docs)]

use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Integer token identifier.
pub type TokenId = usize;

/// Padding token id.
pub const PAD: TokenId = 0;
/// Unknown token id.
pub const UNK: TokenId = 1;
/// Classification token id (sequence start, `E_[CLS]` source).
pub const CLS: TokenId = 2;
/// Separator token id.
pub const SEP: TokenId = 3;
/// Mask token id (used by masked-token pre-training).
pub const MASK: TokenId = 4;
/// Marker preceding a table title.
pub const TITLE: TokenId = 5;
/// Marker preceding a column header.
pub const HEADER: TokenId = 6;
/// Marker preceding the cell values.
pub const CELL: TokenId = 7;

const SPECIALS: [&str; 8] =
    ["[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]", "[TITLE]", "[HEADER]", "[CELL]"];

/// Splits text into lower-cased word tokens; digits are kept per-character
/// so numeric cells share structure across values.
pub fn normalize(text: &str) -> Vec<String> {
    let mut words = Vec::new();
    let mut current = String::new();
    for ch in text.chars() {
        if ch.is_alphanumeric() {
            if ch.is_ascii_digit() {
                if !current.is_empty() {
                    words.push(std::mem::take(&mut current));
                }
                words.push(ch.to_string());
            } else {
                current.extend(ch.to_lowercase());
            }
        } else if !current.is_empty() {
            words.push(std::mem::take(&mut current));
        }
    }
    if !current.is_empty() {
        words.push(current);
    }
    words
}

/// A trained vocabulary with subword fallback.
#[derive(Debug, Clone)]
pub struct Tokenizer {
    token_to_id: HashMap<String, TokenId>,
    id_to_token: Vec<String>,
    max_piece_len: usize,
}

impl Tokenizer {
    /// Builds a vocabulary from an iterator of corpus texts.
    ///
    /// Keeps the `max_vocab` most frequent words (ties broken
    /// lexicographically for determinism) plus every single character seen,
    /// which guarantees the greedy subword segmenter terminates without
    /// `[UNK]` for any word made of seen characters.
    pub fn train<'a, I: IntoIterator<Item = &'a str>>(texts: I, max_vocab: usize) -> Self {
        // BTreeMaps so iteration (and therefore vocabulary ids) is
        // deterministic across runs — the analyzer's EA001 check rejects
        // hash-order iteration on this path.
        let mut counts: BTreeMap<String, u64> = BTreeMap::new();
        let mut chars: BTreeSet<String> = BTreeSet::new();
        for text in texts {
            for w in normalize(text) {
                for ch in w.chars() {
                    chars.insert(ch.to_string());
                }
                *counts.entry(w).or_insert(0) += 1;
            }
        }
        let mut ranked: Vec<(String, u64)> = counts.into_iter().collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));

        let mut id_to_token: Vec<String> = SPECIALS.iter().map(|s| s.to_string()).collect();
        let mut token_to_id: HashMap<String, TokenId> =
            id_to_token.iter().enumerate().map(|(i, t)| (t.clone(), i)).collect();

        let push = |tok: String, t2i: &mut HashMap<String, TokenId>, i2t: &mut Vec<String>| {
            if !t2i.contains_key(&tok) {
                t2i.insert(tok.clone(), i2t.len());
                i2t.push(tok);
            }
        };

        // Characters first: they are the safety net for the segmenter.
        for ch in chars {
            push(ch, &mut token_to_id, &mut id_to_token);
        }
        for (tok, _) in ranked {
            if id_to_token.len() >= max_vocab {
                break;
            }
            push(tok, &mut token_to_id, &mut id_to_token);
        }
        let max_piece_len = id_to_token.iter().map(|t| t.chars().count()).max().unwrap_or(1);
        Self { token_to_id, id_to_token, max_piece_len }
    }

    /// Vocabulary size, including special tokens.
    pub fn vocab_size(&self) -> usize {
        self.id_to_token.len()
    }

    /// Looks up the text of a token id (for rendering explanations).
    pub fn token(&self, id: TokenId) -> &str {
        self.id_to_token.get(id).map(String::as_str).unwrap_or("[UNK]")
    }

    /// Looks up the id of an exact token string.
    pub fn id(&self, token: &str) -> Option<TokenId> {
        self.token_to_id.get(token).copied()
    }

    /// Segments one normalised word into vocabulary pieces using greedy
    /// longest-prefix matching; unmatched characters become `[UNK]`.
    pub fn encode_word(&self, word: &str) -> Vec<TokenId> {
        if let Some(&id) = self.token_to_id.get(word) {
            return vec![id];
        }
        let chars: Vec<char> = word.chars().collect();
        let mut out = Vec::new();
        let mut start = 0;
        while start < chars.len() {
            let mut matched = None;
            let longest = (chars.len() - start).min(self.max_piece_len);
            for len in (1..=longest).rev() {
                let piece: String = chars[start..start + len].iter().collect();
                if let Some(&id) = self.token_to_id.get(&piece) {
                    matched = Some((id, len));
                    break;
                }
            }
            match matched {
                Some((id, len)) => {
                    out.push(id);
                    start += len;
                }
                None => {
                    out.push(UNK);
                    start += 1;
                }
            }
        }
        out
    }

    /// Tokenises arbitrary text into ids (no special tokens added).
    pub fn tokenize(&self, text: &str) -> Vec<TokenId> {
        normalize(text).iter().flat_map(|w| self.encode_word(w)).collect()
    }

    /// Renders a window of ids back to text (for human-readable
    /// explanations), skipping padding and the structural marker tokens —
    /// `[TITLE]`/`[HEADER]`/`[CELL]`/`[SEP]` frame the serialisation but
    /// are not explanation content.
    pub fn decode(&self, ids: &[TokenId]) -> String {
        let mut out = String::new();
        for &id in ids {
            if id < SPECIALS.len() {
                continue;
            }
            if !out.is_empty() {
                out.push(' ');
            }
            out.push_str(self.token(id));
        }
        out
    }
}

/// A fixed-length encoded sequence ready for the encoder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Encoded {
    /// Token ids, padded with `[PAD]` to the configured length.
    pub ids: Vec<TokenId>,
    /// Number of non-padding positions.
    pub len: usize,
    /// For sentence pairs: index where the second segment starts;
    /// `None` for single sentences.
    pub second_start: Option<usize>,
}

impl Encoded {
    /// Attention pad mask: `0.0` for real tokens, `-1e9` for padding.
    pub fn pad_mask(&self) -> Vec<f32> {
        (0..self.ids.len()).map(|i| self.pad_mask_at(i)).collect()
    }

    /// Entry `i` of [`Self::pad_mask`], without building the vector.
    pub fn pad_mask_at(&self, i: usize) -> f32 {
        if i < self.len {
            0.0
        } else {
            -1e9
        }
    }
}

/// Assembles `[CLS] [TITLE] p [HEADER] h [CELL] v… [SEP]`, truncating the
/// cell tokens to honour `max_len` (the paper truncates at 64 tokens).
pub fn encode_column(
    tok: &Tokenizer,
    title: &str,
    header: &str,
    cells: &[&str],
    max_len: usize,
) -> Encoded {
    assert!(max_len >= 8, "max_len too small for the serialisation frame");
    let mut ids = vec![CLS, TITLE];
    ids.extend(tok.tokenize(title));
    ids.push(HEADER);
    ids.extend(tok.tokenize(header));
    ids.push(CELL);
    for cell in cells {
        if ids.len() + 1 >= max_len {
            break;
        }
        let piece = tok.tokenize(cell);
        let room = max_len.saturating_sub(ids.len() + 1);
        ids.extend(piece.into_iter().take(room));
    }
    ids.truncate(max_len - 1);
    ids.push(SEP);
    let len = ids.len();
    ids.resize(max_len, PAD);
    Encoded { ids, len, second_start: None }
}

/// Assembles the sentence-pair serialisation of Section II-B:
/// `[CLS] …column i… [SEP] …column j… [SEP]`, splitting the budget evenly.
pub fn encode_column_pair(
    tok: &Tokenizer,
    title: &str,
    header_i: &str,
    cells_i: &[&str],
    header_j: &str,
    cells_j: &[&str],
    max_len: usize,
) -> Encoded {
    assert!(max_len >= 16, "pair serialisation needs max_len >= 16 (each segment needs 8)");
    let half = max_len / 2;
    let first = encode_column(tok, title, header_i, cells_i, half);
    let mut ids = first.ids[..first.len].to_vec();
    let second_start = ids.len();

    let mut tail = vec![TITLE];
    tail.extend(tok.tokenize(title));
    tail.push(HEADER);
    tail.extend(tok.tokenize(header_j));
    tail.push(CELL);
    for cell in cells_j {
        if ids.len() + tail.len() + 1 >= max_len {
            break;
        }
        let piece = tok.tokenize(cell);
        let room = max_len.saturating_sub(ids.len() + tail.len() + 1);
        tail.extend(piece.into_iter().take(room));
    }
    ids.extend(tail);
    ids.truncate(max_len - 1);
    ids.push(SEP);
    let len = ids.len();
    ids.resize(max_len, PAD);
    Encoded { ids, len, second_start: Some(second_start) }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Tokenizer {
        Tokenizer::train(
            [
                "1990 nba draft",
                "player nba team",
                "Les Jepsen Golden State Warriors",
                "Chicago Bulls",
            ],
            256,
        )
    }

    #[test]
    fn normalize_lowercases_and_splits_digits() {
        assert_eq!(normalize("Chicago-Bulls 42"), vec!["chicago", "bulls", "4", "2"]);
    }

    #[test]
    fn normalize_handles_unicode() {
        assert_eq!(normalize("Zürich"), vec!["zürich"]);
    }

    #[test]
    fn specials_have_fixed_ids() {
        let t = toy();
        assert_eq!(t.id("[PAD]"), Some(PAD));
        assert_eq!(t.id("[CLS]"), Some(CLS));
        assert_eq!(t.id("[CELL]"), Some(CELL));
    }

    #[test]
    fn known_word_round_trips() {
        let t = toy();
        let ids = t.tokenize("nba draft");
        assert_eq!(t.decode(&ids), "nba draft");
    }

    #[test]
    fn unknown_word_falls_back_to_pieces() {
        let t = toy();
        // "nbadraft" is unseen as a word but segmentable from seen pieces.
        let ids = t.encode_word("nbadraft");
        assert!(ids.len() >= 2);
        assert!(ids.iter().all(|&id| id != UNK));
    }

    #[test]
    fn truly_unknown_chars_become_unk() {
        let t = toy();
        let ids = t.encode_word("Ω");
        assert_eq!(ids, vec![UNK]);
    }

    #[test]
    fn encode_column_layout() {
        let t = toy();
        let e = encode_column(&t, "1990 nba draft", "player", &["Les Jepsen"], 32);
        assert_eq!(e.ids[0], CLS);
        assert_eq!(e.ids[e.len - 1], SEP);
        assert_eq!(e.ids.len(), 32);
        assert!(e.ids[e.len..].iter().all(|&i| i == PAD));
        let text = t.decode(&e.ids[..e.len]);
        assert!(text.contains("player"));
        assert!(text.contains("jepsen"));
    }

    #[test]
    fn encode_column_respects_max_len() {
        let t = toy();
        let cells: Vec<&str> = vec!["Golden State Warriors"; 50];
        let e = encode_column(&t, "1990 nba draft", "player", &cells, 16);
        assert_eq!(e.ids.len(), 16);
        assert!(e.len <= 16);
        assert_eq!(e.ids[e.len - 1], SEP);
    }

    #[test]
    fn encode_pair_has_two_segments() {
        let t = toy();
        let e = encode_column_pair(
            &t,
            "1990 nba draft",
            "player",
            &["Les Jepsen"],
            "nba team",
            &["Golden State Warriors"],
            40,
        );
        let second = e.second_start.unwrap();
        assert!(second > 0 && second < e.len);
        assert_eq!(e.ids[0], CLS);
        // Exactly two separators.
        let seps = e.ids[..e.len].iter().filter(|&&i| i == SEP).count();
        assert_eq!(seps, 2);
    }

    #[test]
    fn pad_mask_matches_length() {
        let t = toy();
        let e = encode_column(&t, "t", "h", &["v"], 12);
        let m = e.pad_mask();
        assert_eq!(m.len(), 12);
        assert!(m[..e.len].iter().all(|&v| v == 0.0));
        assert!(m[e.len..].iter().all(|&v| v < -1e8));
    }

    #[test]
    fn vocab_is_deterministic() {
        let a = toy();
        let b = toy();
        assert_eq!(a.vocab_size(), b.vocab_size());
        for i in 0..a.vocab_size() {
            assert_eq!(a.token(i), b.token(i));
        }
    }

    #[test]
    fn vocab_cap_is_respected() {
        let texts: Vec<String> = (0..500).map(|i| format!("word{i}")).collect();
        let t = Tokenizer::train(texts.iter().map(String::as_str), 64);
        // Characters and specials always enter; word additions stop at cap.
        assert!(t.vocab_size() <= 64 + 48);
    }

    // ---- Hostile-input robustness: degrade, never panic ---------------

    #[test]
    fn nuls_and_control_chars_normalize_without_panic() {
        // NUL and control characters are not alphanumeric, so they act
        // as separators; nothing may panic or leak into a token.
        assert_eq!(normalize("a\0b"), vec!["a", "b"]);
        assert_eq!(normalize("\0\u{1}\u{7f}"), Vec::<String>::new());
        let t = toy();
        let enc = encode_column(&t, "ti\0tle", "hea\0der", &["ce\0ll", "\0"], 32);
        assert!(enc.len <= 32);
        assert!(enc.ids.iter().all(|&id| id < t.vocab_size()));
    }

    #[test]
    fn replacement_chars_and_wide_unicode_tokenize() {
        let t = toy();
        // U+FFFD (lossy-UTF-8 output), CJK, emoji, RTL text: unknown
        // characters fall back to subword/char segmentation, never panic.
        for text in ["\u{fffd}\u{fffd}", "東京タワー", "🦀🦀🦀", "مرحبا", "a\u{0301}"]
        {
            let ids = t.tokenize(text);
            assert!(ids.iter().all(|&id| id < t.vocab_size()), "{text}");
        }
    }

    #[test]
    fn pathologically_wide_input_is_truncated_not_panicking() {
        let t = toy();
        let cells: Vec<String> = (0..10_000).map(|i| format!("cell{i}")).collect();
        let refs: Vec<&str> = cells.iter().map(String::as_str).collect();
        let enc = encode_column(&t, "wide", "header", &refs, 64);
        assert_eq!(enc.ids.len(), 64, "sequence budget must bound the encoding");
        assert!(enc.len <= 64);
        // A single absurdly long word also stays within budget.
        let long = "x".repeat(100_000);
        let enc = encode_column(&t, &long, &long, &[&long], 32);
        assert_eq!(enc.ids.len(), 32);
    }

    #[test]
    fn empty_inputs_produce_frame_only_encodings() {
        let t = toy();
        assert_eq!(normalize(""), Vec::<String>::new());
        assert!(t.tokenize("").is_empty());
        let enc = encode_column(&t, "", "", &[], 16);
        // [CLS] [TITLE] [HEADER] [CELL] [SEP] frame, padded out.
        assert!(enc.len >= 5);
        assert_eq!(enc.ids.len(), 16);
    }
}
