//! Seeded workload inputs. One `--seed` drives the training corpus, the
//! hot column set and the cold table stream. Each draws from its own
//! sub-seed of the Wiki generator, and no `(title, header, cells)` key —
//! the server's response-cache key — appears twice across them, so a
//! cold request can never be answered from the cache.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashSet, VecDeque};
use std::hash::{Hash, Hasher};

use explainti_api::{InterpretTableRequest, PredictRequest};
use explainti_corpus::{generate_wiki, Dataset, WikiConfig};
use explainti_table::Table;

/// Tables in the training corpus. Past ~760 tables the type task stores
/// more than the store's exact-scan cutoff (1,024 samples), so GE
/// retrieval runs over HNSW, as it does at the CLI's default corpus size.
pub const TRAIN_TABLES: usize = 900;
/// Training epochs of the served model.
pub const EPOCHS: usize = 3;
/// Distinct single-column bodies `column-hot` replays.
pub const HOT_COLUMNS: usize = 64;
/// Cold tables sent before timing starts; the timed phase never sends them.
pub const WARMUP_TABLES: usize = 1500;
/// Leading tables of the timed cold stream whose served bytes are checked
/// against the library and whose labels give `f1_micro`.
pub const CHECK_TABLES: usize = 400;
/// Tables per generator call of the cold stream.
const CHUNK_TABLES: usize = 2048;

/// splitmix64 of `seed` and a per-input salt.
pub fn sub_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed.wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub fn training_corpus(seed: u64) -> Dataset {
    generate_wiki(&WikiConfig {
        num_tables: TRAIN_TABLES,
        seed: sub_seed(seed, 1),
        ..Default::default()
    })
}

/// A request body rendered as the exact bytes a client writes.
pub fn http_post(body: &str) -> Vec<u8> {
    format!(
        "POST /v1/interpret HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// One column with its ground-truth label name (`None` for the
/// generator's unannotated filler columns).
#[derive(Clone)]
pub struct Col {
    pub title: String,
    pub header: String,
    pub cells: Vec<String>,
    pub truth: Option<String>,
}

impl Col {
    /// Hash of what the server's response cache keys on.
    pub fn key(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.title.hash(&mut h);
        self.header.hash(&mut h);
        self.cells.hash(&mut h);
        h.finish()
    }

    pub fn request(&self) -> PredictRequest {
        PredictRequest {
            title: self.title.clone(),
            header: self.header.clone(),
            cells: self.cells.clone(),
        }
    }
}

/// A table as the benchmark keeps it: columns plus ground truth.
pub struct Tab {
    pub title: String,
    pub columns: Vec<Col>,
}

impl Tab {
    fn from_table(t: &Table, labels: &[String]) -> Self {
        let columns = t
            .columns
            .iter()
            .map(|c| Col {
                title: t.title.clone(),
                header: c.header.clone(),
                cells: c.cells.clone(),
                truth: c.type_label.and_then(|l| labels.get(l).cloned()),
            })
            .collect();
        Self { title: t.title.clone(), columns }
    }

    pub fn request(&self) -> InterpretTableRequest {
        InterpretTableRequest {
            title: self.title.clone(),
            columns: self
                .columns
                .iter()
                .map(|c| explainti_api::ColumnData {
                    header: c.header.clone(),
                    cells: c.cells.clone(),
                })
                .collect(),
        }
    }

    pub fn http(&self) -> Vec<u8> {
        http_post(&serde_json::to_string(&self.request()).unwrap_or_default())
    }
}

/// The 64 hot columns and the cache keys they occupy.
pub fn hot_set(seed: u64) -> (Vec<Col>, HashSet<u64>) {
    let d = generate_wiki(&WikiConfig {
        num_tables: 4 * HOT_COLUMNS,
        seed: sub_seed(seed, 2),
        ..Default::default()
    });
    let labels = &d.collection.type_labels;
    let mut seen = HashSet::new();
    let mut hot = Vec::with_capacity(HOT_COLUMNS);
    for t in &d.collection.tables {
        for c in Tab::from_table(t, labels).columns {
            if hot.len() < HOT_COLUMNS && c.truth.is_some() && seen.insert(c.key()) {
                hot.push(c);
            }
        }
    }
    assert_eq!(hot.len(), HOT_COLUMNS, "generator yielded too few distinct hot columns");
    (hot, seen)
}

/// The never-repeating cold table stream: warm-up prefix first, then the
/// timed tables. Tables come from consecutive generator chunks, each on
/// its own sub-seed, so the stream is the same for a seed however much
/// of it a run consumes.
pub struct ColdStream {
    seed: u64,
    chunk: u64,
    pending: VecDeque<Tab>,
    seen: HashSet<u64>,
}

impl ColdStream {
    /// A stream whose keys avoid `taken` (the hot set's).
    pub fn new(seed: u64, taken: HashSet<u64>) -> Self {
        Self { seed, chunk: 0, pending: VecDeque::new(), seen: taken }
    }

    pub fn next_table(&mut self) -> Tab {
        loop {
            if let Some(t) = self.pending.pop_front() {
                let keys: Vec<u64> = t.columns.iter().map(Col::key).collect();
                let distinct: HashSet<u64> = keys.iter().copied().collect();
                if distinct.len() == keys.len() && keys.iter().all(|k| !self.seen.contains(k)) {
                    self.seen.extend(keys);
                    return t;
                }
                continue;
            }
            let d = generate_wiki(&WikiConfig {
                num_tables: CHUNK_TABLES,
                seed: sub_seed(self.seed, 1000 + self.chunk),
                ..Default::default()
            });
            self.chunk += 1;
            let labels = &d.collection.type_labels;
            self.pending.extend(d.collection.tables.iter().map(|t| Tab::from_table(t, labels)));
        }
    }

    pub fn take(&mut self, n: usize) -> Vec<Tab> {
        (0..n).map(|_| self.next_table()).collect()
    }
}

/// The timed cold stream's first `CHECK_TABLES` tables (after the
/// warm-up prefix): every run sends them, so their served bytes and
/// labels are compared in every run.
pub fn check_tables(seed: u64) -> Vec<Tab> {
    let (_, taken) = hot_set(seed);
    let mut stream = ColdStream::new(seed, taken);
    stream.take(WARMUP_TABLES);
    stream.take(CHECK_TABLES)
}
