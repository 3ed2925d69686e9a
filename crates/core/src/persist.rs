//! Model checkpointing: the weight encoding and the crash-safe
//! model-directory snapshot protocol.
//!
//! The binary weight format is deliberately simple — magic, version,
//! weight count, little-endian `f32`s — so checkpoints stay portable
//! across builds. A checkpoint carries *weights only*: the loader must
//! construct the model with the same dataset and configuration first
//! (construction order defines the parameter layout), which mirrors how
//! pre-trained LM checkpoints work.
//!
//! ## Snapshot layout (format version 3)
//!
//! A model directory holds `corpus.json`, `weights.bin`, `store.bin` and
//! `MANIFEST.json`. The model is always built with
//! `ExplainTiConfig::bert_like(2048, 32)`: the encoder variants differ
//! only in pre-training masks, which `train` never runs, so a snapshot
//! records no variant. `store.bin` is the embedding store `Q` of every
//! task, so a load reads the rows instead of re-embedding every training
//! sample:
//!
//! ```text
//! magic    8 bytes   "EXPLTIQ1"
//! stamp    u64 LE    FNV-1a 64 of the weights.bin bytes the rows were embedded under
//! dim      u32 LE    embedding width (the encoder's d_model)
//! tasks    u32 LE    number of tasks
//! rows     u64 LE    per task: its train-split size
//! payload  f32 LE    per task, rows × dim, in train_idx order
//! ```
//!
//! The rows are bit-for-bit what [`ExplainTi::refresh_store`] computes
//! from the saved weights: a save writes the rows a store holds when
//! their stamp is the saved weights' (a trained model's case) and
//! re-embeds the task otherwise, and a load refuses a `store.bin` whose
//! stamp, width, task count or row counts disagree with `weights.bin`
//! and the corpus.
//!
//! ## Snapshot atomicity (DESIGN.md §11)
//!
//! `save_to_dir` treats the model directory as durable production state,
//! not a scratch directory. Every artifact is written with
//! write-to-temp → fsync → atomic rename, and a `MANIFEST.json` carrying
//! the snapshot format version plus per-file sizes and FNV-1a 64
//! checksums is written **last** (with the same protocol). A crash at any
//! point therefore leaves either the previous complete snapshot (manifest
//! still describes the old files) or a detectably torn one — never a
//! silently wrong model. `load_from_dir` refuses to load anything the
//! manifest does not vouch for, returning a typed [`PersistError`]: a
//! load yields the whole model or an error, nothing in between. It opens
//! only the manifest and the three [`ARTIFACTS`] inside the directory,
//! and only when each is a regular file of the size the manifest states.
//!
//! Failpoint sites (`explainti-faults`) bracket every write and rename so
//! the crash matrix in `crates/core/tests/crash_recovery.rs` can prove
//! that property for each interleaving.

use crate::config::ExplainTiConfig;
use crate::model::ExplainTi;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use explainti_corpus::Dataset;
use serde::{Deserialize, Serialize};
use std::fs::File;
use std::io::{self, Write};
use std::path::Path;

const MAGIC: &[u8; 8] = b"EXPLTI01";

/// `store.bin` magic (see the module docs for the layout).
const STORE_MAGIC: &[u8; 8] = b"EXPLTIQ1";

/// `store.bin` bytes before the per-task row counts: magic, stamp, dim
/// and task count.
const STORE_HEADER: usize = 8 + 8 + 4 + 4;

/// Snapshot directory format version recorded in `MANIFEST.json`.
/// Version 2 added `store.bin`; version 3 dropped `variant.txt`.
pub const SNAPSHOT_FORMAT_VERSION: u32 = 3;

/// Manifest file name, written last so its presence certifies a complete
/// snapshot.
pub const MANIFEST_NAME: &str = "MANIFEST.json";

/// The files a manifest lists, in write order; the manifest lists
/// nothing else.
pub const ARTIFACTS: [&str; 3] = ["corpus.json", "weights.bin", "store.bin"];

/// Why a model directory could not be saved or loaded.
#[derive(Debug)]
pub enum PersistError {
    /// An underlying filesystem operation failed (includes injected
    /// failpoint trips, which simulate crashes/IO errors).
    Io(io::Error),
    /// The snapshot is incomplete: the manifest is missing, or a file the
    /// manifest promises does not exist. Typical of a crash mid-save.
    TornSnapshot {
        /// What exactly is missing or inconsistent.
        detail: String,
    },
    /// A file exists but is not a regular file or its bytes do not match
    /// the manifest (checksum or size mismatch, unparsable content, wrong
    /// format version, a manifest entry that is not a snapshot artifact).
    Corrupt {
        /// The offending file name.
        file: String,
        /// What failed to verify.
        detail: String,
    },
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "snapshot io error: {e}"),
            PersistError::TornSnapshot { detail } => {
                write!(f, "torn snapshot (refusing to load): {detail}")
            }
            PersistError::Corrupt { file, detail } => {
                write!(f, "corrupt snapshot file {file}: {detail}")
            }
        }
    }
}

impl std::error::Error for PersistError {}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io(e)
    }
}

/// FNV-1a 64-bit — tiny, dependency-free, and adequate for detecting torn
/// or bit-flipped snapshot files (not an adversarial integrity check).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

/// One artifact's entry in `MANIFEST.json`. The checksum is hex-encoded
/// because the vendored JSON layer stores numbers as `f64` (exact only to
/// 2^53).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ManifestFile {
    /// File name relative to the snapshot directory.
    pub name: String,
    /// File size in bytes.
    pub bytes: u64,
    /// FNV-1a 64 checksum of the file contents, lowercase hex.
    pub fnv1a64: String,
}

/// `MANIFEST.json`: written last, verified first.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Manifest {
    /// Snapshot directory layout version ([`SNAPSHOT_FORMAT_VERSION`]).
    pub format_version: u32,
    /// Every artifact in the snapshot, with size and checksum.
    pub files: Vec<ManifestFile>,
}

/// Returns an injected-fault IO error when the failpoint `site` trips.
fn failpoint(site: &str) -> Result<(), PersistError> {
    if explainti_faults::triggered(site) {
        return Err(PersistError::Io(io::Error::other(format!("failpoint {site} tripped"))));
    }
    Ok(())
}

/// Writes one artifact crash-safely: temp file, fsync, atomic rename.
/// `short` names the failpoint family (`persist.before_write.{short}`,
/// `persist.after_write.{short}`, `persist.after_rename.{short}`); each
/// site simulates a crash at that boundary by erroring out, leaving the
/// directory exactly as a real crash would.
fn write_artifact(dir: &Path, name: &str, short: &str, data: &[u8]) -> Result<(), PersistError> {
    failpoint(&format!("persist.before_write.{short}"))?;
    let tmp = dir.join(format!(".{name}.tmp"));
    {
        let mut f = File::create(&tmp)?;
        f.write_all(data)?;
        f.sync_all()?;
    }
    failpoint(&format!("persist.after_write.{short}"))?;
    std::fs::rename(&tmp, dir.join(name))?;
    failpoint(&format!("persist.after_rename.{short}"))?;
    Ok(())
}

/// Writes one artifact with [`write_artifact`] and lists it in
/// `manifest`; returns its FNV-1a 64.
fn write_listed(
    dir: &Path,
    manifest: &mut Manifest,
    name: &str,
    short: &str,
    data: &[u8],
) -> Result<u64, PersistError> {
    write_artifact(dir, name, short, data)?;
    let sum = fnv1a64(data);
    manifest.files.push(ManifestFile {
        name: name.to_string(),
        bytes: data.len() as u64,
        fnv1a64: format!("{sum:016x}"),
    });
    Ok(sum)
}

/// Fsyncs the directory itself so renames are durable (best-effort: not
/// every filesystem supports opening a directory for sync).
fn sync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

/// Encodes a flat weight vector into the checkpoint format.
pub fn encode_weights(weights: &[f32]) -> Bytes {
    let mut buf = BytesMut::with_capacity(MAGIC.len() + 8 + weights.len() * 4);
    buf.put_slice(MAGIC);
    buf.put_u64_le(weights.len() as u64);
    for &w in weights {
        buf.put_f32_le(w);
    }
    buf.freeze()
}

/// Decodes a checkpoint produced by [`encode_weights`].
pub fn decode_weights(mut data: &[u8]) -> io::Result<Vec<f32>> {
    if data.len() < MAGIC.len() + 8 {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "checkpoint too short"));
    }
    if &data[..MAGIC.len()] != MAGIC {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "bad checkpoint magic"));
    }
    data.advance(MAGIC.len());
    let n = data.get_u64_le() as usize;
    if n.checked_mul(4) != Some(data.remaining()) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "checkpoint payload mismatch: header says {n} weights, body has {} bytes",
                data.remaining()
            ),
        ));
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(data.get_f32_le());
    }
    Ok(out)
}

impl ExplainTi {
    /// Snapshot of every trainable weight (encoder + all heads).
    pub fn export_all_weights(&self) -> Vec<f32> {
        self.store().to_flat()
    }

    /// Restores a snapshot from [`Self::export_all_weights`].
    ///
    /// # Panics
    /// Panics if the snapshot does not match the model layout.
    pub fn import_all_weights(&mut self, weights: &[f32]) {
        self.store_mut().load_flat(weights);
    }

    /// Loads `weights.bin` bytes (an [`encode_weights`] checkpoint) into
    /// this model.
    ///
    /// Fails when the bytes are corrupt or the weight count does not
    /// match (i.e. the model was built with a different
    /// dataset/configuration).
    pub fn load_weight_bytes(&mut self, data: &[u8]) -> io::Result<()> {
        let weights = decode_weights(data)?;
        if weights.len() != self.num_weights() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "checkpoint has {} weights but the model expects {}",
                    weights.len(),
                    self.num_weights()
                ),
            ));
        }
        self.import_all_weights(&weights);
        Ok(())
    }

    /// The stamp of the current weights: the FNV-1a 64 of the
    /// `weights.bin` bytes [`Self::save_to_dir`] writes for them.
    pub(crate) fn weights_stamp(&self) -> u64 {
        fnv1a64(&encode_weights(&self.export_all_weights()))
    }

    /// Writes the full model-directory layout (`corpus.json`,
    /// `weights.bin`, `store.bin`, `MANIFEST.json`) that
    /// [`Self::load_from_dir`], the CLI and the inference server all
    /// consume. The corpus snapshot is required because tokenizer and
    /// parameter layouts derive deterministically from it.
    ///
    /// Crash-safe: each artifact goes through write-to-temp + fsync +
    /// atomic rename, and the checksummed manifest is written last — a
    /// crash anywhere leaves the previous complete snapshot loadable or a
    /// detectably torn directory, never a silently mixed one.
    pub fn save_to_dir(&self, dir: &Path, dataset: &Dataset) -> Result<(), PersistError> {
        let _span = explainti_obs::span!("persist.save_dir");
        std::fs::create_dir_all(dir)?;
        let mut manifest = Manifest { format_version: SNAPSHOT_FORMAT_VERSION, files: Vec::new() };
        {
            // The corpus text is the largest buffer a save makes; it is
            // dropped before the weights and the store are encoded.
            let corpus = serde_json::to_string(dataset)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e}")))?;
            write_listed(dir, &mut manifest, "corpus.json", "corpus", corpus.as_bytes())?;
        }
        let weights = encode_weights(&self.export_all_weights());
        let stamp = write_listed(dir, &mut manifest, "weights.bin", "weights", &weights)?;
        drop(weights);
        let store = self.encode_store(stamp);
        write_listed(dir, &mut manifest, "store.bin", "store", &store)?;
        let manifest_json = serde_json::to_string_pretty(&manifest)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e}")))?;
        write_artifact(dir, MANIFEST_NAME, "manifest", manifest_json.as_bytes())?;
        sync_dir(dir);
        Ok(())
    }

    /// `store.bin` for the weights stamped `stamp`, encoded straight into
    /// one buffer. A task whose store holds every train-split row under
    /// these weights is written as it stands; any other task is embedded
    /// afresh, so the rows are always what [`Self::refresh_store`]
    /// computes from the saved weights.
    fn encode_store(&self, stamp: u64) -> Vec<u8> {
        let d = self.encoder.d_model();
        let rows: usize = self.tasks.iter().map(|t| t.data.train_idx.len()).sum();
        let mut buf = Vec::with_capacity(STORE_HEADER + 8 * self.tasks.len() + rows * d * 4);
        buf.extend_from_slice(STORE_MAGIC);
        buf.extend_from_slice(&stamp.to_le_bytes());
        buf.extend_from_slice(&(d as u32).to_le_bytes());
        buf.extend_from_slice(&(self.tasks.len() as u32).to_le_bytes());
        for state in &self.tasks {
            buf.extend_from_slice(&(state.data.train_idx.len() as u64).to_le_bytes());
        }
        let mut put = |row: &[f32]| {
            for v in row {
                buf.extend_from_slice(&v.to_le_bytes());
            }
        };
        for (task, state) in self.tasks.iter().enumerate() {
            let held: Option<Vec<&[f32]>> = match state.q.embedded_under() {
                Some(s) if s == stamp => {
                    state.data.train_idx.iter().map(|&idx| state.q.get(idx)).collect()
                }
                _ => None,
            };
            match held {
                Some(held) => held.into_iter().for_each(&mut put),
                None => self.embed_train_split(task).iter().for_each(|cls| put(cls.as_slice())),
            }
        }
        buf
    }

    /// Fills every task's store from `store.bin` bytes as
    /// [`Self::refresh_store`] fills it — rows in `train_idx` order,
    /// labels from the corpus — and stamps it `stamp`, the checksum of
    /// the loaded `weights.bin`. The header is checked against this model
    /// before any store is touched, so a row count read from the file
    /// never sizes an allocation; a mismatch is the returned detail.
    fn load_store(&mut self, mut data: &[u8], stamp: u64) -> Result<(), String> {
        if data.len() < STORE_HEADER || &data[..STORE_MAGIC.len()] != STORE_MAGIC {
            return Err("missing or bad store header".to_string());
        }
        data.advance(STORE_MAGIC.len());
        let found = data.get_u64_le();
        if found != stamp {
            return Err(format!(
                "rows were embedded under weights {found:016x}, but weights.bin is {stamp:016x}"
            ));
        }
        let d = self.encoder.d_model();
        let dim = data.get_u32_le() as usize;
        if dim != d {
            return Err(format!("rows are {dim} wide; the encoder embeds {d}"));
        }
        let tasks = data.get_u32_le() as usize;
        if tasks != self.tasks.len() {
            return Err(format!("{tasks} tasks stored; the corpus has {}", self.tasks.len()));
        }
        if data.remaining() < 8 * tasks {
            return Err("truncated row counts".to_string());
        }
        for (task, state) in self.tasks.iter().enumerate() {
            let rows = data.get_u64_le();
            let want = state.data.train_idx.len();
            if rows != want as u64 {
                return Err(format!("task {task} stores {rows} rows; its train split has {want}"));
            }
        }
        let want: usize = self.tasks.iter().map(|t| t.data.train_idx.len() * d * 4).sum();
        if data.remaining() != want {
            return Err(format!(
                "payload is {} bytes; the train splits need {want}",
                data.remaining()
            ));
        }
        let mut row = vec![0.0f32; d];
        for state in &mut self.tasks {
            for &idx in &state.data.train_idx {
                for v in &mut row {
                    *v = data.get_f32_le();
                }
                state.q.set(idx, &row, state.data.samples[idx].label);
            }
            state.q.stamp(stamp);
        }
        Ok(())
    }

    /// Rebuilds a model from a directory written by [`Self::save_to_dir`]
    /// (or the `train` CLI command): verifies the manifest, reads the
    /// corpus snapshot, builds the model with the fixed CLI configuration
    /// (`ExplainTiConfig::bert_like(2048, 32)`), loads the weight
    /// checkpoint, and fills every task's embedding store from
    /// `store.bin`, whose rows are the ones the loaded weights embed, so
    /// GE/SE retrievals match them without re-embedding a sample. Returns
    /// the dataset alongside the model because serving needs the label
    /// names.
    ///
    /// Refuses to load torn or corrupt snapshots with a typed error:
    /// the manifest must list exactly the [`ARTIFACTS`], every one must
    /// be a regular file that matches its manifest size and FNV-1a 64
    /// checksum, and parse, and `store.bin` must agree with `weights.bin`
    /// and the corpus — otherwise the previous snapshot (if the manifest
    /// still describes it) is what gets loaded, by construction of
    /// [`Self::save_to_dir`]. A snapshot of another format version
    /// (version 1 had no `store.bin`, version 2 a `variant.txt`) is
    /// `Corrupt` naming the manifest; re-run `train` to write a current
    /// one.
    pub fn load_from_dir(dir: &Path) -> Result<(ExplainTi, Dataset), PersistError> {
        let _span = explainti_obs::span!("persist.load_dir");
        let corrupt_manifest =
            |detail: String| PersistError::Corrupt { file: MANIFEST_NAME.to_string(), detail };
        let manifest_bytes = read_regular(dir, MANIFEST_NAME, None)?;
        let manifest: Manifest = std::str::from_utf8(&manifest_bytes)
            .map_err(|e| e.to_string())
            .and_then(|text| serde_json::from_str(text).map_err(|e| e.to_string()))
            .map_err(corrupt_manifest)?;
        if manifest.format_version != SNAPSHOT_FORMAT_VERSION {
            return Err(corrupt_manifest(format!(
                "format_version {} (this build reads {SNAPSHOT_FORMAT_VERSION}); \
                 re-run `train` to write a current snapshot",
                manifest.format_version
            )));
        }
        if let Some(stray) = manifest.files.iter().find(|f| !ARTIFACTS.contains(&f.name.as_str())) {
            return Err(corrupt_manifest(format!(
                "lists {:?}, which is not one of the snapshot artifacts {ARTIFACTS:?}",
                stray.name
            )));
        }

        let (corpus_bytes, _) = read_verified(dir, &manifest, "corpus.json")?;
        let (weight_bytes, stamp) = read_verified(dir, &manifest, "weights.bin")?;
        let (store_bytes, _) = read_verified(dir, &manifest, "store.bin")?;

        let corpus_text = String::from_utf8(corpus_bytes).map_err(|e| PersistError::Corrupt {
            file: "corpus.json".to_string(),
            detail: format!("not UTF-8: {e}"),
        })?;
        let dataset: Dataset = serde_json::from_str(&corpus_text).map_err(|e| {
            PersistError::Corrupt { file: "corpus.json".to_string(), detail: format!("{e}") }
        })?;
        drop(corpus_text);
        // The vocabulary cap and sequence length are the fixed CLI-wide
        // model-directory convention (see `ExplainTiConfig::bert_like`).
        let mut model = ExplainTi::new(&dataset, ExplainTiConfig::bert_like(2048, 32));
        model.load_weight_bytes(&weight_bytes).map_err(|e| PersistError::Corrupt {
            file: "weights.bin".to_string(),
            detail: format!("{e}"),
        })?;
        drop(weight_bytes);
        model
            .load_store(&store_bytes, stamp)
            .map_err(|detail| PersistError::Corrupt { file: "store.bin".to_string(), detail })?;
        Ok((model, dataset))
    }
}

/// Reads `dir/name` when it is a regular file — never a FIFO, device or
/// directory, whose open or read could block or run unbounded — of
/// `bytes` bytes when that is given. A missing file is a torn snapshot.
fn read_regular(dir: &Path, name: &str, bytes: Option<u64>) -> Result<Vec<u8>, PersistError> {
    let path = dir.join(name);
    let meta = match std::fs::metadata(&path) {
        Ok(m) => m,
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            return Err(PersistError::TornSnapshot {
                detail: format!(
                    "{name} missing from {dir:?} — incomplete save; re-run `train` to write a \
                     complete snapshot"
                ),
            });
        }
        Err(e) => return Err(e.into()),
    };
    let corrupt = |detail: String| PersistError::Corrupt { file: name.to_string(), detail };
    if !meta.is_file() {
        return Err(corrupt("not a regular file".to_string()));
    }
    let check_size = |found: u64| match bytes {
        Some(want) if want != found => {
            Err(corrupt(format!("size mismatch: manifest says {want} bytes, file has {found}")))
        }
        _ => Ok(()),
    };
    check_size(meta.len())?;
    let data = std::fs::read(&path)?;
    check_size(data.len() as u64)?;
    Ok(data)
}

/// Reads the artifact `name` as [`read_regular`] does and checks it
/// against its manifest entry; returns its bytes and FNV-1a 64.
fn read_verified(
    dir: &Path,
    manifest: &Manifest,
    name: &str,
) -> Result<(Vec<u8>, u64), PersistError> {
    let entry = manifest.files.iter().find(|f| f.name == name).ok_or_else(|| {
        PersistError::TornSnapshot { detail: format!("{name} absent from manifest") }
    })?;
    let mut data = read_regular(dir, name, Some(entry.bytes))?;
    // Chaos site: simulate silent media corruption of this artifact
    // after it was read back.
    let short = name.split('.').next().unwrap_or(name);
    if explainti_faults::triggered(&format!("persist.load.corrupt.{short}")) {
        if let Some(b) = data.first_mut() {
            *b ^= 0xff;
        }
    }
    let sum = fnv1a64(&data);
    if format!("{sum:016x}") != entry.fnv1a64 {
        return Err(PersistError::Corrupt {
            file: name.to_string(),
            detail: format!("checksum mismatch: manifest {} != actual {sum:016x}", entry.fnv1a64),
        });
    }
    Ok((data, sum))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExplainTiConfig;
    use explainti_corpus::{generate_wiki, WikiConfig};

    #[test]
    fn encode_decode_roundtrip() {
        let weights = vec![1.0f32, -2.5, 0.0, 3.25e-8];
        let bytes = encode_weights(&weights);
        assert_eq!(decode_weights(&bytes).unwrap(), weights);
    }

    #[test]
    fn corrupt_magic_is_rejected() {
        let mut bytes = encode_weights(&[1.0]).to_vec();
        bytes[0] = b'X';
        assert!(decode_weights(&bytes).is_err());
    }

    #[test]
    fn truncated_payload_is_rejected() {
        let bytes = encode_weights(&[1.0, 2.0]);
        assert!(decode_weights(&bytes[..bytes.len() - 2]).is_err());
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn wrong_layout_is_rejected() {
        let d = generate_wiki(&WikiConfig { num_tables: 30, seed: 78, ..Default::default() });
        let mut m = ExplainTi::new(&d, ExplainTiConfig::bert_like(2048, 24));
        let err = m.load_weight_bytes(&encode_weights(&[0.0; 7])).unwrap_err();
        assert!(err.to_string().contains("checkpoint has 7 weights"), "{err}");
    }

    #[test]
    fn manifest_round_trips_through_json() {
        let m = Manifest {
            format_version: SNAPSHOT_FORMAT_VERSION,
            files: vec![ManifestFile {
                name: "weights.bin".to_string(),
                bytes: 1234,
                fnv1a64: format!("{:016x}", fnv1a64(b"hello")),
            }],
        };
        let text = serde_json::to_string(&m).unwrap();
        let back: Manifest = serde_json::from_str(&text).unwrap();
        assert_eq!(back.format_version, m.format_version);
        assert_eq!(back.files.len(), 1);
        assert_eq!(back.files[0].name, "weights.bin");
        assert_eq!(back.files[0].bytes, 1234);
        assert_eq!(back.files[0].fnv1a64, m.files[0].fnv1a64);
    }

    #[test]
    fn missing_manifest_is_a_torn_snapshot() {
        let dir = std::env::temp_dir().join("explainti-no-manifest");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::remove_file(dir.join(MANIFEST_NAME)).ok();
        match ExplainTi::load_from_dir(&dir) {
            Err(PersistError::TornSnapshot { .. }) => {}
            Err(e) => panic!("expected TornSnapshot, got {e}"),
            Ok(_) => panic!("expected TornSnapshot, got a loaded model"),
        }
    }
}
