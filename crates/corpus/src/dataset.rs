//! Dataset container: a table collection plus splits and provenance.
//!
//! Provenance records which cells actually carry the label signal (they
//! were drawn from the type's discriminative core pool). The simulated
//! judges in `explainti-xeval` score explanations by overlap with this
//! ground truth — the synthetic stand-in for the paper's human evaluation.

use explainti_table::TableCollection;
use serde::{Deserialize, Serialize};

/// Which split a table belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Split {
    /// Training split (80%).
    Train,
    /// Validation split (10%).
    Valid,
    /// Test split (10%).
    Test,
}

/// Ground-truth rationale for one annotated column.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ColProvenance {
    /// Row indices whose cells came from the type's core pool.
    pub signal_rows: Vec<usize>,
    /// True when the column was generated ambiguous (shared-pool heavy).
    pub weak: bool,
}

/// Ground-truth rationale for one annotated column pair.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PairProvenance {
    /// Signal rows of the subject column.
    pub subject_signal_rows: Vec<usize>,
    /// Signal rows of the object column.
    pub object_signal_rows: Vec<usize>,
    /// True when either column is ambiguous.
    pub weak: bool,
}

/// A generated benchmark: tables, labels, splits, and provenance.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dataset {
    /// Human-readable dataset name (`wiki-synth`, `git-synth`).
    pub name: String,
    /// The tables and label vocabularies.
    pub collection: TableCollection,
    /// Split assignment per table (aligned with `collection.tables`).
    pub table_split: Vec<Split>,
    /// Provenance per annotated column (aligned with
    /// `collection.annotated_columns()`).
    pub col_provenance: Vec<ColProvenance>,
    /// Provenance per annotated pair (aligned with
    /// `collection.annotated_pairs()`).
    pub pair_provenance: Vec<PairProvenance>,
}

impl Dataset {
    /// Sample indices of the column-type task belonging to `split`.
    pub fn type_sample_indices(&self, split: Split) -> Vec<usize> {
        self.collection
            .annotated_columns()
            .iter()
            .enumerate()
            .filter(|(_, (cref, _))| self.table_split[cref.table] == split)
            .map(|(i, _)| i)
            .collect()
    }

    /// Dataset statistics in Table II's columns.
    pub fn statistics(&self) -> DatasetStats {
        DatasetStats {
            name: self.name.clone(),
            num_tables: self.collection.tables.len(),
            avg_rows: self.collection.avg_rows(),
            avg_cols: self.collection.avg_annotated_cols(),
            num_type_labels: self.collection.type_labels.len(),
            num_relation_labels: self.collection.relation_labels.len(),
            num_type_samples: self.collection.annotated_columns().len(),
            num_relation_samples: self.collection.annotated_pairs().len(),
        }
    }
}

/// Row of Table II.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DatasetStats {
    /// Dataset name.
    pub name: String,
    /// Number of tables.
    pub num_tables: usize,
    /// Average rows per table.
    pub avg_rows: f64,
    /// Average annotated columns per table.
    pub avg_cols: f64,
    /// Number of column-type labels.
    pub num_type_labels: usize,
    /// Number of relation labels.
    pub num_relation_labels: usize,
    /// Total annotated columns.
    pub num_type_samples: usize,
    /// Total annotated pairs.
    pub num_relation_samples: usize,
}

/// Deterministically assigns tables to splits with an 8:1:1 ratio by
/// cycling positions (the paper reuses TURL's fixed splits; ours are fixed
/// by construction order, which is itself seeded).
pub fn assign_splits(num_tables: usize) -> Vec<Split> {
    (0..num_tables)
        .map(|i| match i % 10 {
            8 => Split::Valid,
            9 => Split::Test,
            _ => Split::Train,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_are_eight_one_one() {
        let s = assign_splits(100);
        let train = s.iter().filter(|&&x| x == Split::Train).count();
        let valid = s.iter().filter(|&&x| x == Split::Valid).count();
        let test = s.iter().filter(|&&x| x == Split::Test).count();
        assert_eq!((train, valid, test), (80, 10, 10));
    }

    #[test]
    fn splits_cover_every_table() {
        assert_eq!(assign_splits(37).len(), 37);
    }
}
