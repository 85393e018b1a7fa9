//! Brute-force k-nearest-neighbour classification — estimator benchmark
//! application (paper Table 1, an Anthill application). Distinct from the
//! estimator's internal kNN regression: this is the *workload*, a dense
//! all-pairs distance scan plus majority vote.

/// A labelled point in d-dimensional space.
#[derive(Debug, Clone, PartialEq)]
pub struct LabelledPoint {
    /// Coordinates.
    pub coords: Vec<f64>,
    /// Class label.
    pub label: u32,
}

/// Squared Euclidean distance between two coordinate slices.
#[inline]
pub(crate) fn dist2(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Classify `query` by majority vote among its `k` nearest points in
/// `training`. Distance ties are broken by training order; vote ties by the
/// smaller label. Panics on an empty training set or `k == 0`.
pub fn classify(training: &[LabelledPoint], query: &[f64], k: usize) -> u32 {
    assert!(k >= 1, "k must be at least 1");
    assert!(!training.is_empty(), "empty training set");
    let mut dists: Vec<(f64, usize)> = training
        .iter()
        .enumerate()
        .map(|(i, p)| (dist2(&p.coords, query), i))
        .collect();
    dists.sort_by(|a, b| {
        a.0.partial_cmp(&b.0)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.1.cmp(&b.1))
    });
    let k = k.min(dists.len());
    let mut votes: Vec<(u32, usize)> = Vec::new();
    for &(_, i) in &dists[..k] {
        let label = training[i].label;
        match votes.iter_mut().find(|(l, _)| *l == label) {
            Some((_, c)) => *c += 1,
            None => votes.push((label, 1)),
        }
    }
    votes
        .into_iter()
        .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
        .expect("k >= 1 guarantees at least one vote")
        .0
}

/// Classify a batch of queries (the parallel workload shape).
pub fn classify_batch(training: &[LabelledPoint], queries: &[Vec<f64>], k: usize) -> Vec<u32> {
    queries.iter().map(|q| classify(training, q, k)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(coords: &[f64], label: u32) -> LabelledPoint {
        LabelledPoint {
            coords: coords.to_vec(),
            label,
        }
    }

    fn two_clusters() -> Vec<LabelledPoint> {
        vec![
            pt(&[0.0, 0.0], 0),
            pt(&[0.1, 0.0], 0),
            pt(&[0.0, 0.1], 0),
            pt(&[5.0, 5.0], 1),
            pt(&[5.1, 5.0], 1),
            pt(&[5.0, 5.1], 1),
        ]
    }

    #[test]
    fn nearest_cluster_wins() {
        let t = two_clusters();
        assert_eq!(classify(&t, &[0.2, 0.2], 3), 0);
        assert_eq!(classify(&t, &[4.8, 4.9], 3), 1);
    }

    #[test]
    fn k1_returns_label_of_nearest() {
        let t = two_clusters();
        assert_eq!(classify(&t, &[2.4, 2.4], 1), 0);
        assert_eq!(classify(&t, &[2.6, 2.6], 1), 1);
    }

    #[test]
    fn vote_tie_prefers_smaller_label() {
        let t = vec![pt(&[0.0], 1), pt(&[2.0], 0)];
        // Equidistant with k=2: one vote each; label 0 wins the tie.
        assert_eq!(classify(&t, &[1.0], 2), 0);
    }

    #[test]
    fn k_larger_than_training_set_is_clamped() {
        let t = two_clusters();
        let l = classify(&t, &[0.0, 0.0], 100);
        // All 6 points vote: 3 vs 3 tie, smaller label wins.
        assert_eq!(l, 0);
    }

    #[test]
    fn batch_matches_singles() {
        let t = two_clusters();
        let qs = vec![vec![0.0, 0.0], vec![5.0, 5.0]];
        assert_eq!(classify_batch(&t, &qs, 3), vec![0, 1]);
    }

    #[test]
    fn dist2_is_squared_euclidean() {
        assert_eq!(dist2(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(dist2(&[1.0], &[1.0]), 0.0);
    }
}
