//! Local dissimilarity matrix construction (Figure 12).
//!
//! Each data holder compares its own objects in the clear — the third party
//! never needs to intervene for intra-site pairs — and ships the resulting
//! local matrix to the third party. Publishing a local dissimilarity matrix
//! leaks no private values (the paper cites the proof of \[3\]: given only the
//! distance between two secret points there are infinitely many candidate
//! pairs).

use std::collections::HashMap;

use ppc_cluster::CondensedDistanceMatrix;

use crate::distance::attribute_distance;
use crate::distance::edit::{BitParallel, WORD_BITS};
use crate::error::CoreError;
use crate::matrix::DataMatrix;
use crate::schema::AttributeDescriptor;
use crate::value::{AttributeKind, AttributeValue};

/// Builds the local dissimilarity matrix of one attribute column
/// (Figure 12: `d[m][n] = distance(D_J[m], D_J[n])` for `n ≤ m`).
pub fn local_dissimilarity_column(
    descriptor: &AttributeDescriptor,
    column: &[&AttributeValue],
) -> Result<CondensedDistanceMatrix, CoreError> {
    if descriptor.kind == AttributeKind::Alphanumeric {
        return edit_distance_column(descriptor, column);
    }
    let n = column.len();
    let mut matrix = CondensedDistanceMatrix::zeros(n);
    for i in 1..n {
        for j in 0..i {
            let d = attribute_distance(descriptor, column[i], column[j])?;
            matrix.set(i, j, d);
        }
    }
    Ok(matrix)
}

/// The alphanumeric case of [`local_dissimilarity_column`]: every value is
/// validated once, each object's per-character match words are built once,
/// and the bit-parallel kernel runs them against every earlier object.
fn edit_distance_column(
    descriptor: &AttributeDescriptor,
    column: &[&AttributeValue],
) -> Result<CondensedDistanceMatrix, CoreError> {
    // Spell every value in dense per-column symbol ids, so an object's
    // match words are one table row per symbol.
    let mut ids: HashMap<char, usize> = HashMap::new();
    let mut strings = Vec::with_capacity(column.len());
    for value in column {
        descriptor.validate_value(value)?;
        let s = value.as_alphanumeric().expect("validated");
        let spelled: Vec<usize> = s
            .chars()
            .map(|c| {
                let next = ids.len();
                *ids.entry(c).or_insert(next)
            })
            .collect();
        strings.push(spelled);
    }
    let max_blocks = strings
        .iter()
        .map(|s| s.len().div_ceil(WORD_BITS))
        .max()
        .unwrap_or(0);
    // Row `c` of the table (`blocks` words, for the current pattern) marks
    // where symbol `c` occurs in the pattern. Only the pattern's own rows
    // are ever set, and they are cleared again after its pass.
    let mut table = vec![0u64; ids.len() * max_blocks];
    let mut kernel = BitParallel::default();
    let mut matrix = CondensedDistanceMatrix::zeros(column.len());
    for (i, pattern) in strings.iter().enumerate().skip(1) {
        let blocks = pattern.len().div_ceil(WORD_BITS);
        for (p, &c) in pattern.iter().enumerate() {
            table[c * blocks + p / WORD_BITS] |= 1 << (p % WORD_BITS);
        }
        for (j, text) in strings[..i].iter().enumerate() {
            let d = kernel.distance(1, pattern.len(), text.len(), |q, w| {
                table[text[q] * blocks + w]
            });
            matrix.set(i, j, f64::from(d));
        }
        for &c in pattern {
            table[c * blocks..][..blocks].fill(0);
        }
    }
    Ok(matrix)
}

/// Builds the local dissimilarity matrix of attribute `attribute_index` of a
/// whole partition.
pub fn local_dissimilarity(
    data: &DataMatrix,
    attribute_index: usize,
) -> Result<CondensedDistanceMatrix, CoreError> {
    let descriptor = data.schema().attribute_at(attribute_index)?.clone();
    let column = data.column(attribute_index)?;
    local_dissimilarity_column(&descriptor, &column)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Alphabet;
    use crate::record::Record;
    use crate::schema::Schema;

    fn sample_matrix() -> DataMatrix {
        let schema = Schema::new(vec![
            AttributeDescriptor::numeric("age"),
            AttributeDescriptor::categorical("blood"),
            AttributeDescriptor::alphanumeric("dna", Alphabet::dna()),
        ])
        .unwrap();
        DataMatrix::with_rows(
            schema,
            vec![
                Record::new(vec![
                    AttributeValue::numeric(30.0),
                    AttributeValue::categorical("A"),
                    AttributeValue::alphanumeric("acgt"),
                ]),
                Record::new(vec![
                    AttributeValue::numeric(40.0),
                    AttributeValue::categorical("B"),
                    AttributeValue::alphanumeric("aggt"),
                ]),
                Record::new(vec![
                    AttributeValue::numeric(35.0),
                    AttributeValue::categorical("A"),
                    AttributeValue::alphanumeric("tttt"),
                ]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn numeric_local_matrix_matches_absolute_differences() {
        let m = local_dissimilarity(&sample_matrix(), 0).unwrap();
        assert_eq!(m.get(1, 0), 10.0);
        assert_eq!(m.get(2, 0), 5.0);
        assert_eq!(m.get(2, 1), 5.0);
        assert_eq!(m.get(0, 0), 0.0);
    }

    #[test]
    fn categorical_local_matrix_is_equality_pattern() {
        let m = local_dissimilarity(&sample_matrix(), 1).unwrap();
        assert_eq!(m.get(1, 0), 1.0);
        assert_eq!(m.get(2, 0), 0.0);
        assert_eq!(m.get(2, 1), 1.0);
    }

    #[test]
    fn alphanumeric_local_matrix_is_edit_distance() {
        let m = local_dissimilarity(&sample_matrix(), 2).unwrap();
        assert_eq!(m.get(1, 0), 1.0); // acgt vs aggt
        assert_eq!(m.get(2, 0), 3.0); // acgt vs tttt
        assert_eq!(m.get(2, 1), 3.0); // aggt vs tttt
    }

    #[test]
    fn invalid_attribute_index_errors() {
        assert!(local_dissimilarity(&sample_matrix(), 9).is_err());
    }

    #[test]
    fn empty_partition_yields_empty_matrix() {
        let schema = Schema::new(vec![AttributeDescriptor::numeric("x")]).unwrap();
        let data = DataMatrix::new(schema);
        let m = local_dissimilarity(&data, 0).unwrap();
        assert_eq!(m.len(), 0);
    }
}
