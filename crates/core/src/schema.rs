//! Schemas and attribute weight vectors.
//!
//! §3 of the paper: data holders "have previously agreed on the list of
//! attributes that are going to be used for clustering" and this list (with
//! comparison functions) is also shared with the third party. At the end of
//! the construction, each data holder may impose a *weight vector* merging
//! the per-attribute dissimilarity matrices into the final one.

use serde::{Deserialize, Serialize};

use crate::alphabet::Alphabet;
use crate::error::CoreError;
use crate::value::{AttributeKind, AttributeValue};

/// Description of one attribute used for clustering.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttributeDescriptor {
    /// Attribute name (unique within a schema).
    pub name: String,
    /// Data type.
    pub kind: AttributeKind,
    /// Alphabet for alphanumeric attributes (ignored otherwise).
    pub alphabet: Option<Alphabet>,
}

impl AttributeDescriptor {
    /// Declares a numeric attribute.
    pub fn numeric(name: impl Into<String>) -> Self {
        AttributeDescriptor {
            name: name.into(),
            kind: AttributeKind::Numeric,
            alphabet: None,
        }
    }

    /// Declares a categorical attribute.
    pub fn categorical(name: impl Into<String>) -> Self {
        AttributeDescriptor {
            name: name.into(),
            kind: AttributeKind::Categorical,
            alphabet: None,
        }
    }

    /// Declares an alphanumeric attribute over `alphabet`.
    pub fn alphanumeric(name: impl Into<String>, alphabet: Alphabet) -> Self {
        AttributeDescriptor {
            name: name.into(),
            kind: AttributeKind::Alphanumeric,
            alphabet: Some(alphabet),
        }
    }

    /// Returns the declared alphabet, erroring for non-alphanumeric kinds
    /// or a missing declaration.
    pub fn require_alphabet(&self) -> Result<&Alphabet, CoreError> {
        match (&self.kind, &self.alphabet) {
            (AttributeKind::Alphanumeric, Some(a)) => Ok(a),
            (AttributeKind::Alphanumeric, None) => Err(CoreError::Protocol(format!(
                "alphanumeric attribute '{}' has no alphabet declared",
                self.name
            ))),
            _ => Err(CoreError::Protocol(format!(
                "attribute '{}' is not alphanumeric",
                self.name
            ))),
        }
    }

    /// Checks that `value` matches this attribute's kind (and alphabet).
    pub fn validate_value(&self, value: &AttributeValue) -> Result<(), CoreError> {
        if value.kind() != self.kind {
            return Err(CoreError::TypeMismatch {
                attribute: self.name.clone(),
                expected: self.kind.to_string(),
                found: value.kind().to_string(),
            });
        }
        if let (AttributeKind::Alphanumeric, Some(alphabet)) = (self.kind, &self.alphabet) {
            if let Some(s) = value.as_alphanumeric() {
                alphabet.validate(s)?;
            }
        }
        Ok(())
    }
}

/// The agreed list of clustering attributes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Schema {
    attributes: Vec<AttributeDescriptor>,
}

impl Schema {
    /// Builds a schema, checking attribute-name uniqueness.
    pub fn new(attributes: Vec<AttributeDescriptor>) -> Result<Self, CoreError> {
        if attributes.is_empty() {
            return Err(CoreError::EmptyInput);
        }
        for (i, a) in attributes.iter().enumerate() {
            if attributes[..i].iter().any(|b| b.name == a.name) {
                return Err(CoreError::SchemaMismatch(format!(
                    "duplicate attribute name '{}'",
                    a.name
                )));
            }
            if a.kind == AttributeKind::Alphanumeric && a.alphabet.is_none() {
                return Err(CoreError::SchemaMismatch(format!(
                    "alphanumeric attribute '{}' must declare an alphabet",
                    a.name
                )));
            }
        }
        Ok(Schema { attributes })
    }

    /// Attributes in declaration order.
    pub fn attributes(&self) -> &[AttributeDescriptor] {
        &self.attributes
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.attributes.len()
    }

    /// Whether the schema declares no attributes (never true for a
    /// successfully constructed schema).
    pub fn is_empty(&self) -> bool {
        self.attributes.is_empty()
    }

    /// Index of the attribute called `name`.
    pub fn index_of(&self, name: &str) -> Result<usize, CoreError> {
        self.attributes
            .iter()
            .position(|a| a.name == name)
            .ok_or_else(|| CoreError::UnknownAttribute(name.to_string()))
    }

    /// Descriptor of the attribute called `name`.
    pub fn attribute(&self, name: &str) -> Result<&AttributeDescriptor, CoreError> {
        Ok(&self.attributes[self.index_of(name)?])
    }

    /// Descriptor at position `index`.
    pub fn attribute_at(&self, index: usize) -> Result<&AttributeDescriptor, CoreError> {
        self.attributes
            .get(index)
            .ok_or_else(|| CoreError::UnknownAttribute(format!("#{index}")))
    }

    /// Uniform weight vector over this schema's attributes.
    pub fn uniform_weights(&self) -> WeightVector {
        WeightVector::uniform(self.len())
    }
}

/// Attribute weights used to merge per-attribute dissimilarity matrices.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WeightVector {
    weights: Vec<f64>,
}

impl WeightVector {
    /// Builds a weight vector; weights must be non-negative, not all zero,
    /// and are normalised to sum to 1.
    pub fn new(weights: Vec<f64>) -> Result<Self, CoreError> {
        if weights.is_empty() {
            return Err(CoreError::InvalidWeights("empty weight vector".into()));
        }
        if weights.iter().any(|w| !w.is_finite() || *w < 0.0) {
            return Err(CoreError::InvalidWeights(
                "weights must be finite and non-negative".into(),
            ));
        }
        let sum: f64 = weights.iter().sum();
        if sum <= 0.0 {
            return Err(CoreError::InvalidWeights("weights sum to zero".into()));
        }
        Ok(WeightVector {
            weights: weights.into_iter().map(|w| w / sum).collect(),
        })
    }

    /// Adopts weights that are already normalised — as [`weights`]
    /// returned them, e.g. after a wire round trip — without dividing by
    /// their float sum again, which can move a weight by an ulp. They must
    /// be finite, non-negative and sum to 1 within 1e-9.
    ///
    /// [`weights`]: Self::weights
    pub fn from_normalised(weights: Vec<f64>) -> Result<Self, CoreError> {
        if weights.is_empty() {
            return Err(CoreError::InvalidWeights("empty weight vector".into()));
        }
        if weights.iter().any(|w| !w.is_finite() || *w < 0.0) {
            return Err(CoreError::InvalidWeights(
                "weights must be finite and non-negative".into(),
            ));
        }
        let sum: f64 = weights.iter().sum();
        if (sum - 1.0).abs() > 1e-9 {
            return Err(CoreError::InvalidWeights(format!(
                "normalised weights sum to {sum}, not 1"
            )));
        }
        Ok(WeightVector { weights })
    }

    /// Uniform weights over `n` attributes.
    pub fn uniform(n: usize) -> Self {
        WeightVector {
            weights: vec![1.0 / n.max(1) as f64; n.max(1)],
        }
    }

    /// Normalised weights (they sum to 1).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Number of attributes covered.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// Whether the vector is empty (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Checks the vector covers exactly the schema's attributes.
    pub fn validate_for(&self, schema: &Schema) -> Result<(), CoreError> {
        if self.weights.len() != schema.len() {
            return Err(CoreError::InvalidWeights(format!(
                "weight vector has {} entries but the schema has {} attributes",
                self.weights.len(),
                schema.len()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_schema() -> Schema {
        Schema::new(vec![
            AttributeDescriptor::numeric("age"),
            AttributeDescriptor::categorical("blood_type"),
            AttributeDescriptor::alphanumeric("dna", Alphabet::dna()),
        ])
        .unwrap()
    }

    #[test]
    fn schema_construction_and_lookup() {
        let schema = sample_schema();
        assert_eq!(schema.len(), 3);
        assert!(!schema.is_empty());
        assert_eq!(schema.index_of("blood_type").unwrap(), 1);
        assert!(schema.index_of("missing").is_err());
        assert_eq!(
            schema.attribute("dna").unwrap().kind,
            AttributeKind::Alphanumeric
        );
        assert!(schema.attribute_at(2).is_ok());
        assert!(schema.attribute_at(3).is_err());
    }

    #[test]
    fn schema_rejects_duplicates_and_missing_alphabets() {
        assert!(Schema::new(vec![]).is_err());
        assert!(Schema::new(vec![
            AttributeDescriptor::numeric("x"),
            AttributeDescriptor::numeric("x"),
        ])
        .is_err());
        let missing_alphabet = AttributeDescriptor {
            name: "dna".into(),
            kind: AttributeKind::Alphanumeric,
            alphabet: None,
        };
        assert!(Schema::new(vec![missing_alphabet]).is_err());
    }

    #[test]
    fn descriptor_validation() {
        let schema = sample_schema();
        let age = schema.attribute("age").unwrap();
        assert!(age.validate_value(&AttributeValue::numeric(30.0)).is_ok());
        assert!(age
            .validate_value(&AttributeValue::categorical("x"))
            .is_err());
        let dna = schema.attribute("dna").unwrap();
        assert!(dna
            .validate_value(&AttributeValue::alphanumeric("acgt"))
            .is_ok());
        assert!(dna
            .validate_value(&AttributeValue::alphanumeric("xyz"))
            .is_err());
        assert!(dna.require_alphabet().is_ok());
        assert!(age.require_alphabet().is_err());
    }

    #[test]
    fn weight_vector_normalisation_and_validation() {
        let w = WeightVector::new(vec![2.0, 1.0, 1.0]).unwrap();
        assert!((w.weights().iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((w.weights()[0] - 0.5).abs() < 1e-12);
        assert_eq!(w.len(), 3);
        assert!(WeightVector::new(vec![]).is_err());
        assert!(WeightVector::new(vec![-1.0, 2.0]).is_err());
        assert!(WeightVector::new(vec![0.0, 0.0]).is_err());
        assert!(WeightVector::new(vec![f64::NAN]).is_err());
        let schema = sample_schema();
        assert!(w.validate_for(&schema).is_ok());
        assert!(WeightVector::uniform(2).validate_for(&schema).is_err());
        assert_eq!(schema.uniform_weights().len(), 3);
    }
}
