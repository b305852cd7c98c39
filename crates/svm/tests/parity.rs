//! Bit-exact parity of the fold-cached cross-validation with a
//! per-candidate reference pipeline (fresh split, scaler, kernel matrix,
//! SMO and `predict` for every candidate and fold): both must give the
//! same `GridSearchResult` and the same trained models, compared with
//! `to_bits`, at pool sizes 1 and 2.

use rand::{rngs::SmallRng, Rng, SeedableRng};
use stash_svm::{grid_search, k_fold_accuracy, Dataset, Kernel, StandardScaler, Svm, SvmParams};
use std::sync::Mutex;

/// The per-candidate pipeline, kept as the reference.
mod reference {
    use rand::{rngs::SmallRng, seq::SliceRandom, SeedableRng};
    use stash_svm::{Dataset, Kernel, StandardScaler, SvmParams};

    fn eval(kernel: Kernel, a: &[f64], b: &[f64]) -> f64 {
        match kernel {
            Kernel::Linear => a.iter().zip(b).map(|(x, y)| x * y).sum(),
            Kernel::Rbf { gamma } => {
                let d2: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
                (-gamma * d2).exp()
            }
        }
    }

    pub struct Model {
        kernel: Kernel,
        support_vectors: Vec<Vec<f64>>,
        coeffs: Vec<f64>,
        pub bias: f64,
    }

    impl Model {
        pub fn decision(&self, features: &[f64]) -> f64 {
            let mut s = self.bias;
            for (sv, &c) in self.support_vectors.iter().zip(&self.coeffs) {
                s += c * eval(self.kernel, sv, features);
            }
            s
        }

        pub fn n_support_vectors(&self) -> usize {
            self.support_vectors.len()
        }

        fn predict(&self, features: &[f64]) -> i8 {
            if self.decision(features) >= 0.0 {
                1
            } else {
                -1
            }
        }
    }

    pub fn train(data: &Dataset, params: &SvmParams) -> Model {
        let n = data.len();
        let x = data.features();
        let y: Vec<f64> = data.labels().iter().map(|&l| f64::from(l)).collect();
        let mut k = vec![vec![0.0f64; n]; n];
        for i in 0..n {
            for j in i..n {
                let v = eval(params.kernel, &x[i], &x[j]);
                k[i][j] = v;
                k[j][i] = v;
            }
        }
        let mut alpha = vec![0.0f64; n];
        let mut b = 0.0f64;
        let f = |alpha: &[f64], b: f64, i: usize, k: &[Vec<f64>]| -> f64 {
            let mut s = b;
            for j in 0..n {
                if alpha[j] != 0.0 {
                    s += alpha[j] * y[j] * k[i][j];
                }
            }
            s
        };
        let mut rng_state = 0x1234_5678_9ABC_DEF0u64;
        let mut next_rand = move || {
            rng_state ^= rng_state << 13;
            rng_state ^= rng_state >> 7;
            rng_state ^= rng_state << 17;
            rng_state
        };
        let mut passes = 0usize;
        let mut iters = 0usize;
        while passes < params.max_passes && iters < params.max_iters {
            iters += 1;
            let mut changed = 0usize;
            for i in 0..n {
                let ei = f(&alpha, b, i, &k) - y[i];
                let violates = (y[i] * ei < -params.tol && alpha[i] < params.c)
                    || (y[i] * ei > params.tol && alpha[i] > 0.0);
                if !violates {
                    continue;
                }
                let mut j = (next_rand() % (n as u64 - 1)) as usize;
                if j >= i {
                    j += 1;
                }
                let ej = f(&alpha, b, j, &k) - y[j];
                let (ai_old, aj_old) = (alpha[i], alpha[j]);
                let (lo, hi) = if (y[i] - y[j]).abs() > f64::EPSILON {
                    ((aj_old - ai_old).max(0.0), (params.c + aj_old - ai_old).min(params.c))
                } else {
                    ((ai_old + aj_old - params.c).max(0.0), (ai_old + aj_old).min(params.c))
                };
                if (hi - lo).abs() < 1e-12 {
                    continue;
                }
                let eta = 2.0 * k[i][j] - k[i][i] - k[j][j];
                if eta >= 0.0 {
                    continue;
                }
                let mut aj = aj_old - y[j] * (ei - ej) / eta;
                aj = aj.clamp(lo, hi);
                if (aj - aj_old).abs() < 1e-7 {
                    continue;
                }
                let ai = ai_old + y[i] * y[j] * (aj_old - aj);
                alpha[i] = ai;
                alpha[j] = aj;
                let b1 = b - ei - y[i] * (ai - ai_old) * k[i][i] - y[j] * (aj - aj_old) * k[i][j];
                let b2 = b - ej - y[i] * (ai - ai_old) * k[i][j] - y[j] * (aj - aj_old) * k[j][j];
                b = if ai > 0.0 && ai < params.c {
                    b1
                } else if aj > 0.0 && aj < params.c {
                    b2
                } else {
                    (b1 + b2) / 2.0
                };
                changed += 1;
            }
            if changed == 0 {
                passes += 1;
            } else {
                passes = 0;
            }
        }
        let mut support_vectors = Vec::new();
        let mut coeffs = Vec::new();
        for i in 0..n {
            if alpha[i] > 1e-9 {
                support_vectors.push(x[i].clone());
                coeffs.push(alpha[i] * y[i]);
            }
        }
        Model { kernel: params.kernel, support_vectors, coeffs, bias: b }
    }

    pub fn k_fold_accuracy(data: &Dataset, k: usize, params: &SvmParams, seed: u64) -> f64 {
        let mut idx: Vec<usize> = (0..data.len()).collect();
        idx.shuffle(&mut SmallRng::seed_from_u64(seed));
        let (mut total_correct, mut total) = (0usize, 0usize);
        for fold in 0..k {
            let test_idx: Vec<usize> =
                idx.iter().enumerate().filter(|(i, _)| i % k == fold).map(|(_, &v)| v).collect();
            let train_idx: Vec<usize> =
                idx.iter().enumerate().filter(|(i, _)| i % k != fold).map(|(_, &v)| v).collect();
            let train_set = data.subset(&train_idx);
            let test_set = data.subset(&test_idx);
            total += test_set.len();
            if train_set.labels().iter().all(|&l| l == train_set.labels()[0]) {
                total_correct += test_set.len() / 2;
                continue;
            }
            let scaler = StandardScaler::fit(&train_set);
            let model = train(&scaler.transform_dataset(&train_set), params);
            let test_scaled = scaler.transform_dataset(&test_set);
            total_correct += test_scaled
                .features()
                .iter()
                .zip(test_scaled.labels())
                .filter(|(f, &l)| model.predict(f) == l)
                .count();
        }
        total_correct as f64 / total.max(1) as f64
    }

    pub fn grid_search(
        data: &Dataset,
        cs: &[f64],
        gammas: &[f64],
        k: usize,
        seed: u64,
    ) -> (SvmParams, f64, Vec<(SvmParams, f64)>) {
        let mut all = Vec::new();
        for &c in cs {
            let linear = SvmParams { kernel: Kernel::Linear, c, ..Default::default() };
            all.push((linear, k_fold_accuracy(data, k, &linear, seed)));
            for &gamma in gammas {
                let rbf = SvmParams { kernel: Kernel::Rbf { gamma }, c, ..Default::default() };
                all.push((rbf, k_fold_accuracy(data, k, &rbf, seed)));
            }
        }
        let mut best: Option<(SvmParams, f64)> = None;
        for &(params, acc) in &all {
            if best.as_ref().is_none_or(|(_, b)| acc > *b) {
                best = Some((params, acc));
            }
        }
        let (params, acc) = best.expect("grid must be non-empty");
        (params, acc, all)
    }
}

/// Serializes the tests of this file: each sets `STASH_THREADS`.
static POOL: Mutex<()> = Mutex::new(());

const CS: [f64; 3] = [0.3, 1.0, 10.0];
const GAMMAS: [f64; 3] = [0.02, 0.1, 0.5];

fn params_bits(p: &SvmParams) -> (u64, u64, u64, usize, usize) {
    let gamma = match p.kernel {
        Kernel::Linear => u64::MAX,
        Kernel::Rbf { gamma } => gamma.to_bits(),
    };
    (gamma, p.c.to_bits(), p.tol.to_bits(), p.max_passes, p.max_iters)
}

/// Runs the grid search, `k_fold_accuracy` and the trained models of
/// every candidate at pool sizes 1 and 2 and compares each with the
/// reference bit for bit. Models train on the scaled training set and
/// are judged by their decision values on the scaled held-out rows.
fn assert_parity(name: &str, train: &Dataset, held_out: &Dataset, k: usize, seed: u64) {
    let _guard = POOL.lock().unwrap_or_else(|e| e.into_inner());
    let (ref_params, ref_acc, ref_all) = reference::grid_search(train, &CS, &GAMMAS, k, seed);
    let scaler = StandardScaler::fit(train);
    let scaled = scaler.transform_dataset(train);
    let held_out = scaler.transform_dataset(held_out);
    for threads in ["1", "2"] {
        std::env::set_var("STASH_THREADS", threads);
        let ctx = format!("{name}, seed {seed}, {threads} thread(s)");
        let res = grid_search(train, &CS, &GAMMAS, k, seed);
        assert_eq!(params_bits(&res.params), params_bits(&ref_params), "{ctx}: winner");
        assert_eq!(res.accuracy.to_bits(), ref_acc.to_bits(), "{ctx}: accuracy");
        assert_eq!(res.all.len(), ref_all.len(), "{ctx}: candidates");
        for ((p, acc), (rp, racc)) in res.all.iter().zip(&ref_all) {
            assert_eq!(params_bits(p), params_bits(rp), "{ctx}: candidate order");
            assert_eq!(acc.to_bits(), racc.to_bits(), "{ctx}: accuracy of {p:?}");
            let one = k_fold_accuracy(train, k, p, seed);
            assert_eq!(one.to_bits(), racc.to_bits(), "{ctx}: k_fold_accuracy of {p:?}");
        }
        if scaled.labels().iter().all(|&l| l == scaled.labels()[0]) {
            continue;
        }
        for (p, _) in &ref_all {
            let model = Svm::train(&scaled, p);
            let expected = reference::train(&scaled, p);
            assert_eq!(model.bias().to_bits(), expected.bias.to_bits(), "{ctx}: bias of {p:?}");
            assert_eq!(model.n_support_vectors(), expected.n_support_vectors(), "{ctx}: {p:?}");
            for f in held_out.features().iter().chain(scaled.features()) {
                assert_eq!(
                    model.decision(f).to_bits(),
                    expected.decision(f).to_bits(),
                    "{ctx}: decision of {p:?}"
                );
            }
        }
    }
}

fn blobs(separation: f64, n: usize, seed: u64) -> Dataset {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut d = Dataset::new();
    for _ in 0..n {
        d.push(vec![separation + rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)], 1);
        d.push(vec![-separation + rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)], -1);
    }
    d
}

fn identical_classes(n: usize, seed: u64) -> Dataset {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut d = Dataset::new();
    for i in 0..n {
        d.push(
            vec![rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)],
            if i % 2 == 0 { 1 } else { -1 },
        );
    }
    d
}

/// Histogram-shaped 256-dimensional rows at the fig10 scale (62 blocks
/// per class): two near-identical classes with a mean shift.
fn histogram_rows(blocks_per_class: usize, shift: f64, seed: u64) -> Dataset {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut data = Dataset::new();
    for _ in 0..blocks_per_class {
        for (label, mu) in [(-1i8, 0.0), (1i8, shift)] {
            let features: Vec<f64> =
                (0..256).map(|i| (i as f64 / 64.0).sin() + mu + rng.gen_range(-0.3..0.3)).collect();
            data.push(features, label);
        }
    }
    data
}

#[test]
fn separable_blobs_match_reference() {
    for seed in [1, 2, 3] {
        assert_parity("blobs", &blobs(2.0, 25, seed), &blobs(2.0, 10, seed + 100), 3, seed + 10);
    }
    assert_parity("blobs, 5 folds", &blobs(0.5, 20, 4), &blobs(0.5, 10, 104), 5, 14);
}

#[test]
fn identical_classes_match_reference() {
    for seed in [1, 2, 3] {
        let data = identical_classes(60, seed);
        assert_parity("identical", &data, &identical_classes(20, seed + 100), 3, seed + 20);
    }
}

#[test]
fn fig10_scale_histograms_match_reference() {
    for (shift, seed) in [(0.02, 31), (0.5, 32)] {
        let data = histogram_rows(62, shift, seed);
        assert_parity("fig10 histograms", &data, &histogram_rows(8, shift, seed + 100), 3, seed);
    }
}

#[test]
fn single_class_fold_matches_reference() {
    // Four rows, one of them negative: the fold holding it out trains on
    // one class only and counts as chance.
    let mut tiny = Dataset::new();
    for (x, l) in [(0.1, 1), (0.4, 1), (-0.3, -1), (0.9, 1)] {
        tiny.push(vec![x, 1.0 - x], l);
    }
    for seed in [0, 5, 9] {
        assert_parity("single-class fold", &tiny, &tiny, 3, seed);
    }
    let mut all_positive = Dataset::new();
    for x in [0.1, 0.4, 0.9] {
        all_positive.push(vec![x], 1);
    }
    assert_parity("one class", &all_positive, &all_positive, 3, 1);
}
