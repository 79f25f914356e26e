//! The Laplace mechanism in vector form (Definition 6).

use rand::Rng;

/// One sample from `Laplace(0, scale)` via inverse-CDF sampling.
///
/// Always inlined: MEASURE draws one per measured value, and whether the
/// draw loop kept the generator in registers otherwise followed unrelated
/// inlining choices in its callers — an out-of-line call cost ~10 ns a draw
/// (~40 % of `warm_hit_1d`'s MEASURE).
#[inline(always)]
pub fn laplace_noise(rng: &mut impl Rng, scale: f64) -> f64 {
    assert!(scale >= 0.0, "laplace scale must be non-negative");
    if scale == 0.0 {
        return 0.0;
    }
    // `gen` is uniform on [0, 1); its endpoint 0.0 would give u = −0.5 and
    // ln 0 = −∞, so that one value (probability 2⁻⁵³) is redrawn. Every other
    // draw consumes exactly one RNG word.
    let mut unit: f64 = rng.gen();
    while unit == 0.0 {
        unit = rng.gen();
    }
    // u uniform in (-0.5, 0.5); inverse CDF: -b·sgn(u)·ln(1 − 2|u|).
    let u = unit - 0.5;
    -scale * u.signum() * (1.0 - 2.0 * u.abs()).ln()
}

/// Adds iid `Laplace(0, scale)` noise to each entry of `answers`.
pub fn add_laplace_noise(answers: &mut [f64], scale: f64, rng: &mut impl Rng) {
    for a in answers {
        *a += laplace_noise(rng, scale);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    /// Replays a fixed list of `next_u64` words, then saturates.
    struct Scripted(std::vec::IntoIter<u64>);

    impl RngCore for Scripted {
        fn next_u64(&mut self) -> u64 {
            self.0.next().unwrap_or(u64::MAX)
        }
    }

    #[test]
    fn the_zero_endpoint_of_the_uniform_draw_is_redrawn() {
        // next_u64() == 0 makes gen::<f64>() exactly 0.0, i.e. u = −0.5.
        let mut rng = Scripted(vec![0, 1 << 63].into_iter());
        assert_eq!(laplace_noise(&mut rng, 1.0), 0.0, "the redraw is u = 0");
        assert_eq!(rng.next_u64(), u64::MAX, "both scripted words were used");
    }

    proptest! {
        /// No RNG output makes a noisy answer non-finite. A quarter of the
        /// words are below 2¹¹ — the ones `gen::<f64>()` maps to 0.0.
        #[test]
        fn noise_is_finite_for_every_rng_script(
            script in proptest::collection::vec((0u64..4, 0u64..u64::MAX), 16),
        ) {
            let words: Vec<u64> =
                script.into_iter().map(|(k, w)| if k == 0 { w >> 53 } else { w }).collect();
            let mut answers = vec![1.0; 8];
            add_laplace_noise(&mut answers, 3.0, &mut Scripted(words.into_iter()));
            prop_assert!(answers.iter().all(|a| a.is_finite()), "{:?}", answers);
        }
    }

    #[test]
    fn sample_moments() {
        let mut rng = StdRng::seed_from_u64(42);
        let scale = 2.0;
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| laplace_noise(&mut rng, scale)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        // Laplace(0, b) has variance 2b².
        assert!((var - 2.0 * scale * scale).abs() < 0.2, "var {var}");
    }

    #[test]
    fn zero_scale_is_noiseless() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut v = vec![1.0, 2.0];
        add_laplace_noise(&mut v, 0.0, &mut rng);
        assert_eq!(v, vec![1.0, 2.0]);
    }

    #[test]
    fn median_is_zero() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 100_000;
        let below = (0..n)
            .filter(|_| laplace_noise(&mut rng, 1.0) < 0.0)
            .count();
        let frac = below as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.01, "frac {frac}");
    }
}
