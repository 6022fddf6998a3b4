//! Evaluation metrics.

/// Fraction of predictions equal to the target class.
///
/// # Panics
///
/// Panics if the slices differ in length or are empty.
pub fn accuracy(predictions: &[f32], targets: &[f32]) -> f32 {
    assert_eq!(predictions.len(), targets.len(), "length mismatch");
    assert!(!predictions.is_empty(), "empty evaluation set");
    let correct = predictions
        .iter()
        .zip(targets)
        .filter(|(p, t)| p == t)
        .count();
    correct as f32 / predictions.len() as f32
}

/// L2 distance between two parameter vectors (used to compare training
/// pipelines for equivalence).
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn param_distance(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "length mismatch");
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f32>()
        .sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_counts_matches() {
        assert_eq!(accuracy(&[0.0, 1.0, 1.0], &[0.0, 1.0, 0.0]), 2.0 / 3.0);
        assert_eq!(accuracy(&[1.0], &[1.0]), 1.0);
    }

    #[test]
    fn param_distance_euclidean() {
        assert_eq!(param_distance(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
        assert_eq!(param_distance(&[1.0], &[1.0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        accuracy(&[1.0], &[1.0, 2.0]);
    }
}
