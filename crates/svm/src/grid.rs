//! k-fold cross-validation and hyperparameter grid search
//! (paper §7: "optimal parameters obtained using grid search, and performed
//! three-fold cross-validation").
//!
//! Everything a fit needs besides its hyperparameters depends on the fold
//! only: the seeded split, the scaler fitted on the training part, the
//! scaled rows and their kernel matrices. So each fold is prepared once
//! per call into a cache that every candidate shares — the training Gram
//! matrix and the held-out × training matrix of every distinct kernel,
//! the RBF ones sharing one squared-distance pass — and a candidate only
//! runs SMO on it and scores the held-out rows from the cached matrix.
//! Every value comes from the same floating-point operations in the same
//! order as training an [`Svm`](crate::Svm) on the fold and calling
//! `predict`, so results equal that per-candidate pipeline bit for bit.

use crate::scaler::StandardScaler;
use crate::smo::{kernel_matrices, label_of, solve, support, Kernel, SvmParams};
use crate::Dataset;
use rand::{rngs::SmallRng, seq::SliceRandom, SeedableRng};

/// Mean k-fold cross-validated accuracy of one hyperparameter setting.
///
/// Each fold fits its own scaler on the training split only (no leakage).
/// This is the one-candidate case of the fold caches [`grid_search`]
/// shares, so it scores exactly as a grid search does.
///
/// # Panics
///
/// Panics if `k < 2` or the dataset has fewer than `k` samples.
pub fn k_fold_accuracy(data: &Dataset, k: usize, params: &SvmParams, seed: u64) -> f64 {
    cross_validate(data, k, seed, &[*params])[0]
}

/// Result of a grid search.
#[derive(Debug, Clone, PartialEq)]
pub struct GridSearchResult {
    /// Winning hyperparameters.
    pub params: SvmParams,
    /// Its cross-validated accuracy.
    pub accuracy: f64,
    /// Accuracy of every evaluated candidate, in evaluation order.
    pub all: Vec<(SvmParams, f64)>,
}

/// Grid-searches `C` and RBF `gamma` (plus a linear-kernel row) by k-fold
/// cross-validation, returning the best setting — the adversary's strongest
/// classifier configuration.
///
/// Folds are prepared once on the worker pool, then every (candidate,
/// fold) fit fans out over the shared caches. `all` keeps the serial
/// evaluation order and ties break toward the earlier candidate, so the
/// winner matches serial execution for any thread count. (Nested under a
/// parallel caller, both levels run inline; see `stash_par`.)
pub fn grid_search(
    data: &Dataset,
    cs: &[f64],
    gammas: &[f64],
    k: usize,
    seed: u64,
) -> GridSearchResult {
    let mut candidates = Vec::new();
    for &c in cs {
        candidates.push(SvmParams { kernel: Kernel::Linear, c, ..Default::default() });
        for &gamma in gammas {
            candidates.push(SvmParams { kernel: Kernel::Rbf { gamma }, c, ..Default::default() });
        }
    }

    let accuracies = cross_validate(data, k, seed, &candidates);
    let all: Vec<(SvmParams, f64)> = candidates.into_iter().zip(accuracies).collect();

    let mut best: Option<(SvmParams, f64)> = None;
    for &(params, acc) in &all {
        if best.as_ref().is_none_or(|(_, b)| acc > *b) {
            best = Some((params, acc));
        }
    }
    let (params, accuracy) = best.expect("grid must be non-empty");
    GridSearchResult { params, accuracy, all }
}

/// Mean k-fold accuracy of every candidate, in candidate order. Per-fold
/// `(correct, total)` pairs are summed in fold order, so the result is
/// identical for any `STASH_THREADS`.
fn cross_validate(data: &Dataset, k: usize, seed: u64, candidates: &[SvmParams]) -> Vec<f64> {
    assert!(k >= 2, "need at least 2 folds");
    assert!(data.len() >= k, "fewer samples than folds");
    let mut idx: Vec<usize> = (0..data.len()).collect();
    idx.shuffle(&mut SmallRng::seed_from_u64(seed));

    // Distinct kernels in first-use order, and each candidate's position
    // among them.
    let mut kernels: Vec<Kernel> = Vec::new();
    let kernel_of: Vec<usize> = candidates
        .iter()
        .map(|p| {
            kernels.iter().position(|&kern| kern == p.kernel).unwrap_or_else(|| {
                kernels.push(p.kernel);
                kernels.len() - 1
            })
        })
        .collect();

    let folds = stash_par::par_trials(k, |fold| Fold::new(data, &idx, k, fold, &kernels));
    let fits: Vec<(usize, usize)> =
        (0..candidates.len()).flat_map(|c| (0..k).map(move |fold| (c, fold))).collect();
    let scores =
        stash_par::par_map(fits, |_, (c, fold)| folds[fold].score(kernel_of[c], &candidates[c]));

    scores
        .chunks_exact(k)
        .map(|per_fold| {
            let correct: usize = per_fold.iter().map(|&(c, _)| c).sum();
            let total: usize = per_fold.iter().map(|&(_, t)| t).sum();
            correct as f64 / total.max(1) as f64
        })
        .collect()
}

/// One cross-validation fold, prepared once and shared by every candidate.
struct Fold {
    /// Training labels as ±1.0.
    y: Vec<f64>,
    /// Held-out labels.
    test_labels: Vec<i8>,
    /// Per distinct kernel, `(n + m) × n` row-major: the `n × n` training
    /// Gram matrix, then each of the `m` held-out rows against every
    /// training row. Empty when the training part is single-class.
    kernels: Vec<Vec<f64>>,
}

impl Fold {
    /// Splits off fold `fold` of the shuffled indices (every `k`-th one is
    /// held out), scales both parts with a scaler fitted on the training
    /// part and builds the kernel matrices of `kernels`.
    fn new(data: &Dataset, idx: &[usize], k: usize, fold: usize, kernels: &[Kernel]) -> Fold {
        let test_idx: Vec<usize> =
            idx.iter().enumerate().filter(|(i, _)| i % k == fold).map(|(_, &v)| v).collect();
        let train_idx: Vec<usize> =
            idx.iter().enumerate().filter(|(i, _)| i % k != fold).map(|(_, &v)| v).collect();
        let train = data.subset(&train_idx);
        let test = data.subset(&test_idx);
        let y: Vec<f64> = train.labels().iter().map(|&l| f64::from(l)).collect();
        let test_labels = test.labels().to_vec();
        // A fold may end up single-class on tiny datasets; it is scored as
        // chance rather than trained.
        if train.labels().iter().all(|&l| l == train.labels()[0]) {
            return Fold { y, test_labels, kernels: Vec::new() };
        }
        let scaler = StandardScaler::fit(&train);
        let rows: Vec<Vec<f64>> =
            train.features().iter().chain(test.features()).map(|f| scaler.transform(f)).collect();
        let kernels = kernel_matrices(kernels, &rows, train.len());
        Fold { y, test_labels, kernels }
    }

    /// `(correct, total)` on the held-out rows of a model trained with
    /// `params` on the training part; a single-class fold scores as chance.
    fn score(&self, kernel: usize, params: &SvmParams) -> (usize, usize) {
        let m = self.test_labels.len();
        if self.kernels.is_empty() {
            return (m / 2, m);
        }
        let decisions = self.decisions(kernel, params);
        let correct =
            decisions.iter().zip(&self.test_labels).filter(|(&d, &l)| label_of(d) == l).count();
        (correct, m)
    }

    /// Decision values on the held-out rows of a model trained with
    /// `params` on the training part, from cached kernel `kernel`: each
    /// sums its support vectors in training order, as `Svm::decision` does.
    fn decisions(&self, kernel: usize, params: &SvmParams) -> Vec<f64> {
        let n = self.y.len();
        let (gram, cross) = self.kernels[kernel].split_at(n * n);
        let (alpha, bias) = solve(gram, &self.y, params);
        let coeffs: Vec<(usize, f64)> = support(&alpha, &self.y).collect();
        cross
            .chunks_exact(n)
            .map(|row| coeffs.iter().fold(bias, |s, &(i, c)| s + c * row[i]))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Svm;
    use rand::Rng;

    fn blobs(separation: f64, n: usize, seed: u64) -> Dataset {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut d = Dataset::new();
        for _ in 0..n {
            d.push(vec![separation + rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)], 1);
            d.push(vec![-separation + rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)], -1);
        }
        d
    }

    #[test]
    fn cv_high_on_separable_data() {
        let d = blobs(3.0, 30, 1);
        let acc = k_fold_accuracy(&d, 3, &SvmParams::default(), 7);
        assert!(acc > 0.95, "cv accuracy {acc}");
    }

    #[test]
    fn cv_near_chance_on_identical_classes() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut d = Dataset::new();
        for i in 0..120 {
            d.push(
                vec![rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)],
                if i % 2 == 0 { 1 } else { -1 },
            );
        }
        let acc = k_fold_accuracy(&d, 3, &SvmParams::default(), 7);
        assert!((0.3..0.7).contains(&acc), "cv accuracy {acc} should be near 0.5");
    }

    #[test]
    fn grid_search_finds_good_setting() {
        let d = blobs(2.0, 25, 3);
        let res = grid_search(&d, &[0.1, 1.0, 10.0], &[0.01, 0.1, 1.0], 3, 11);
        assert!(res.accuracy > 0.9, "best accuracy {}", res.accuracy);
        // 3 Cs × (1 linear + 3 gammas) candidates.
        assert_eq!(res.all.len(), 12);
        let max_all = res.all.iter().map(|(_, a)| *a).fold(f64::MIN, f64::max);
        assert!((res.accuracy - max_all).abs() < 1e-12);
    }

    #[test]
    fn fold_decisions_match_a_trained_model_bit_for_bit() {
        let data = blobs(0.3, 20, 5);
        let k = 3;
        let mut idx: Vec<usize> = (0..data.len()).collect();
        idx.shuffle(&mut SmallRng::seed_from_u64(3));
        let kernels = [Kernel::Linear, Kernel::Rbf { gamma: 0.1 }, Kernel::Rbf { gamma: 1.0 }];
        for fold in 0..k {
            let cache = Fold::new(&data, &idx, k, fold, &kernels);
            let part = |held_out: bool| -> Dataset {
                let rows: Vec<usize> = idx
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| (i % k == fold) == held_out)
                    .map(|(_, &v)| v)
                    .collect();
                data.subset(&rows)
            };
            let scaler = StandardScaler::fit(&part(false));
            let (train, test) =
                (scaler.transform_dataset(&part(false)), scaler.transform_dataset(&part(true)));
            for (i, &kernel) in kernels.iter().enumerate() {
                for c in [0.3, 10.0] {
                    let params = SvmParams { kernel, c, ..Default::default() };
                    let model = Svm::train(&train, &params);
                    let expected: Vec<u64> =
                        test.features().iter().map(|f| model.decision(f).to_bits()).collect();
                    let got: Vec<u64> =
                        cache.decisions(i, &params).iter().map(|d| d.to_bits()).collect();
                    assert_eq!(got, expected, "fold {fold}, {params:?}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least 2 folds")]
    fn one_fold_panics() {
        let d = blobs(1.0, 5, 0);
        let _ = k_fold_accuracy(&d, 1, &SvmParams::default(), 0);
    }

    #[test]
    #[should_panic(expected = "fewer samples than folds")]
    fn more_folds_than_samples_panics() {
        let d = blobs(1.0, 1, 0);
        let _ = grid_search(&d, &[1.0], &[0.1], 3, 0);
    }
}
