//! Random-variate sampling used by the synthetic workload model.
//!
//! Only the `rand` core crate is a dependency, so the handful of
//! distributions the generator needs — normal, log-normal, gamma, beta,
//! Poisson and Zipf weights — are implemented here with standard algorithms
//! (Box-Muller, Marsaglia-Tsang, gamma-ratio beta, inversion/normal-approx
//! Poisson).

use rand::Rng;

/// Samples a standard normal via the Box-Muller transform.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Avoid ln(0) by sampling u1 from the half-open (0, 1].
    let u1: f64 = 1.0 - rng.random::<f64>();
    let u2: f64 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Samples `LogNormal(mu, sigma)` (parameters of the underlying normal).
///
/// # Panics
///
/// Panics if `sigma` is negative or not finite.
pub fn log_normal<R: Rng + ?Sized>(rng: &mut R, mu: f64, sigma: f64) -> f64 {
    assert!(
        sigma.is_finite() && sigma >= 0.0,
        "sigma must be finite and non-negative"
    );
    (mu + sigma * standard_normal(rng)).exp()
}

/// Samples `Gamma(shape, 1)` using Marsaglia-Tsang, with the standard
/// `U^(1/shape)` boost for `shape < 1`.
///
/// # Panics
///
/// Panics if `shape` is not strictly positive and finite.
pub fn gamma<R: Rng + ?Sized>(rng: &mut R, shape: f64) -> f64 {
    Gamma::new(shape).sample(rng)
}

/// Samples `Beta(alpha, beta)` as `Ga / (Ga + Gb)`.
///
/// # Panics
///
/// Panics if either parameter is not strictly positive and finite.
pub fn beta<R: Rng + ?Sized>(rng: &mut R, alpha: f64, b: f64) -> f64 {
    Beta::new(alpha, b).sample(rng)
}

/// A `Gamma(shape, 1)` sampler with its Marsaglia-Tsang constants
/// computed once: [`gamma`] and every Beta draw of the session-length
/// model go through it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Gamma {
    /// `1 / shape` when `shape < 1` (the `U^(1/shape)` boost, whose
    /// uniform is drawn before the inner `Gamma(shape + 1)`), else `None`.
    boost: Option<f64>,
    d: f64,
    c: f64,
}

impl Gamma {
    /// # Panics
    ///
    /// Panics if `shape` is not strictly positive and finite.
    pub(crate) fn new(shape: f64) -> Self {
        assert!(
            shape.is_finite() && shape > 0.0,
            "gamma shape must be positive"
        );
        // G(a) = G(a + 1) * U^(1/a)
        let (boost, inner) = if shape < 1.0 {
            (Some(1.0 / shape), shape + 1.0)
        } else {
            (None, shape)
        };
        let d = inner - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        Gamma { boost, d, c }
    }

    pub(crate) fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let boost = self.boost.map(|exponent| {
            (1.0 - rng.random::<f64>())
                .max(f64::MIN_POSITIVE)
                .powf(exponent)
        });
        let (d, c) = (self.d, self.c);
        let g = loop {
            let x = standard_normal(rng);
            let v = (1.0 + c * x).powi(3);
            if v <= 0.0 {
                continue;
            }
            let u: f64 = (1.0 - rng.random::<f64>()).max(f64::MIN_POSITIVE);
            if u.ln() < 0.5 * x * x + d - d * v + d * v.ln() {
                break d * v;
            }
        };
        boost.map_or(g, |b| g * b)
    }
}

/// A `Beta(alpha, beta)` sampler over two precomputed [`Gamma`]s.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Beta {
    a: Gamma,
    b: Gamma,
}

impl Beta {
    /// # Panics
    ///
    /// Panics if either parameter is not strictly positive and finite.
    pub(crate) fn new(alpha: f64, b: f64) -> Self {
        Beta {
            a: Gamma::new(alpha),
            b: Gamma::new(b),
        }
    }

    pub(crate) fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let x = self.a.sample(rng);
        let y = self.b.sample(rng);
        if x + y == 0.0 {
            0.5
        } else {
            x / (x + y)
        }
    }
}

/// Samples `Poisson(lambda)`; inversion for small `lambda`, rounded normal
/// approximation for large.
///
/// # Panics
///
/// Panics if `lambda` is negative or not finite.
pub fn poisson<R: Rng + ?Sized>(rng: &mut R, lambda: f64) -> u64 {
    assert!(
        lambda.is_finite() && lambda >= 0.0,
        "lambda must be finite and non-negative"
    );
    if lambda == 0.0 {
        return 0;
    }
    if lambda < 30.0 {
        // Knuth inversion.
        let l = (-lambda).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= rng.random::<f64>();
            if p <= l {
                return k;
            }
            k += 1;
        }
    }
    // Normal approximation with continuity correction.
    let x = lambda + lambda.sqrt() * standard_normal(rng) + 0.5;
    if x < 0.0 {
        0
    } else {
        x as u64
    }
}

/// Unnormalized Zipf weights `1 / rank^s` for ranks `1..=n`.
///
/// # Panics
///
/// Panics if `s` is negative or not finite.
pub fn zipf_weights(n: usize, s: f64) -> Vec<f64> {
    assert!(
        s.is_finite() && s >= 0.0,
        "zipf exponent must be finite and non-negative"
    );
    (1..=n).map(|rank| 1.0 / (rank as f64).powf(s)).collect()
}

/// A cumulative-weight table for weighted sampling of indices in O(1)
/// expected time.
///
/// A draw `x` in `[0, total)` picks the first index whose cumulative
/// weight exceeds `x` — exactly `partition_point(|c| c <= x)` over the
/// cumulative weights, clamped to the last index — so zero-weight indices
/// are never drawn. A guide table (Chen and Asau's indexed search) holds,
/// for each of `len()` equal slices of `[0, total)`, the first index
/// whose cumulative weight falls in that slice or a later one: the
/// search starts there and walks forward over the few indices that share
/// `x`'s slice. It costs 4 bytes a weight and is built in one pass.
///
/// # Examples
///
/// ```
/// use cablevod_trace::dist::WeightedIndex;
/// use rand::SeedableRng;
///
/// let table = WeightedIndex::new([1.0, 0.0, 3.0]).expect("valid weights");
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let idx = table.sample(&mut rng);
/// assert!(idx == 0 || idx == 2, "zero-weight index never drawn");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedIndex {
    cumulative: Vec<f64>,
    /// `guide[k]`: the first index whose cumulative weight maps to slice
    /// `k` or later under [`WeightedIndex::slice`].
    guide: Vec<u32>,
    /// Slices per unit of weight: `len() / total`.
    scale: f64,
}

impl WeightedIndex {
    /// Builds a table from non-negative weights. Returns `None` when the
    /// weights sum to zero (nothing can be sampled).
    ///
    /// # Panics
    ///
    /// Panics if any weight is negative or not finite.
    pub fn new<I: IntoIterator<Item = f64>>(weights: I) -> Option<Self> {
        let mut cumulative = Vec::new();
        let mut sum = 0.0;
        for w in weights {
            assert!(
                w.is_finite() && w >= 0.0,
                "weights must be finite and non-negative"
            );
            sum += w;
            cumulative.push(sum);
        }
        if sum <= 0.0 || cumulative.is_empty() {
            return None;
        }
        let slices = cumulative.len();
        let mut table = WeightedIndex {
            guide: Vec::with_capacity(slices),
            scale: slices as f64 / sum,
            cumulative,
        };
        // `slice` is monotone in its argument, so a slice's first index is
        // a lower bound on the answer for every draw in that slice.
        let mut i = 0;
        for k in 0..slices {
            while i < slices && table.slice(table.cumulative[i]) < k {
                i += 1;
            }
            table
                .guide
                .push(u32::try_from(i).expect("a weight table indexes with u32"));
        }
        Some(table)
    }

    /// Number of weights in the table.
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// Whether the table is empty (never true for a constructed table).
    pub fn is_empty(&self) -> bool {
        self.cumulative.is_empty()
    }

    /// Total weight.
    pub fn total(&self) -> f64 {
        *self.cumulative.last().expect("table is non-empty")
    }

    /// Samples an index proportionally to its weight.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        self.index_at(self.point(rng))
    }

    /// The draw [`WeightedIndex::sample`] resolves: a point in `[0, total]`.
    fn point<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        rng.random::<f64>() * self.total()
    }

    /// The guide slice `x` falls in (a NaN `x` maps to slice 0).
    fn slice(&self, x: f64) -> usize {
        ((x * self.scale) as usize).min(self.cumulative.len() - 1)
    }

    /// The index [`WeightedIndex::sample`] returns for the point `x`: the
    /// first whose cumulative weight exceeds `x`, clamped to the last, by
    /// a forward walk from `x`'s slice's guide entry.
    fn index_at(&self, x: f64) -> usize {
        let n = self.cumulative.len();
        let mut i = self.guide[self.slice(x)] as usize;
        while i < n && self.cumulative[i] <= x {
            i += 1;
        }
        let index = i.min(n - 1);
        debug_assert_eq!(index, self.binary_search(x), "guided search at {x}");
        index
    }

    /// What [`WeightedIndex::index_at`] must return: `partition_point`
    /// (`<= x` keeps zero-weight indices unreachable).
    fn binary_search(&self, x: f64) -> usize {
        self.cumulative
            .partition_point(|&c| c <= x)
            .min(self.cumulative.len() - 1)
    }
}

/// Samples from one [`WeightedIndex`] drawn now and resolved later, all
/// at once: each draw takes the random number [`WeightedIndex::sample`]
/// would, in the same place in the stream, and resolves to the index it
/// would return. Resolving in ascending order of the 512-slice region a
/// draw falls in sweeps a table larger than the cache instead of probing
/// it at random, which is what a million-user table needs.
#[derive(Debug, Default)]
pub(crate) struct DeferredDraws {
    points: Vec<f64>,
    /// Draw numbers by region, after [`DeferredDraws::resolve`]'s counting
    /// sort.
    order: Vec<u32>,
    /// Each region's first slot in `order`, advanced to its end by the
    /// scatter.
    starts: Vec<usize>,
}

impl DeferredDraws {
    const REGION_SHIFT: u32 = 9;

    /// Forgets every draw; the next one is draw 0.
    pub(crate) fn clear(&mut self) {
        self.points.clear();
    }

    /// Takes the next draw from `rng`.
    pub(crate) fn draw<R: Rng + ?Sized>(&mut self, table: &WeightedIndex, rng: &mut R) {
        self.points.push(table.point(rng));
    }

    /// Calls `resolved(draw number, index)` for every draw since the last
    /// [`DeferredDraws::clear`], in region order.
    pub(crate) fn resolve(
        &mut self,
        table: &WeightedIndex,
        mut resolved: impl FnMut(usize, usize),
    ) {
        let region = |x: f64| table.slice(x) >> Self::REGION_SHIFT;
        self.starts.clear();
        self.starts
            .resize(((table.len() - 1) >> Self::REGION_SHIFT) + 2, 0);
        for &x in &self.points {
            self.starts[region(x) + 1] += 1;
        }
        for r in 1..self.starts.len() {
            self.starts[r] += self.starts[r - 1];
        }
        self.order.clear();
        self.order.resize(self.points.len(), 0);
        for (draw, &x) in self.points.iter().enumerate() {
            let slot = &mut self.starts[region(x)];
            self.order[*slot] = u32::try_from(draw).expect("a batch counts draws with u32");
            *slot += 1;
        }
        for &draw in &self.order {
            let draw = draw as usize;
            resolved(draw, table.index_at(self.points[draw]));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xDECAF)
    }

    #[test]
    fn normal_moments() {
        let mut r = rng();
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut r)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn gamma_mean_matches_shape() {
        let mut r = rng();
        for shape in [0.45, 1.0, 2.5, 9.0] {
            let n = 20_000;
            let mean = (0..n).map(|_| gamma(&mut r, shape)).sum::<f64>() / n as f64;
            assert!(
                (mean - shape).abs() < 0.08 * shape.max(1.0),
                "shape {shape}: mean {mean}"
            );
        }
    }

    #[test]
    fn beta_mean_and_median() {
        let mut r = rng();
        let n = 40_000;
        let mut samples: Vec<f64> = (0..n).map(|_| beta(&mut r, 0.45, 2.5)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        assert!((mean - 0.45 / 2.95).abs() < 0.01, "mean {mean}");
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let median = samples[n / 2];
        // The paper's "50% of sessions last less than 8 minutes" for a
        // 100-minute program needs a median viewing fraction near 0.08.
        assert!((0.05..0.11).contains(&median), "median {median}");
        assert!(samples.iter().all(|&x| (0.0..=1.0).contains(&x)));
    }

    #[test]
    fn poisson_small_and_large_lambda() {
        let mut r = rng();
        for lambda in [0.5, 4.0, 200.0] {
            let n = 20_000;
            let mean = (0..n).map(|_| poisson(&mut r, lambda)).sum::<u64>() as f64 / n as f64;
            assert!(
                (mean - lambda).abs() < 0.05 * lambda.max(2.0),
                "lambda {lambda}: mean {mean}"
            );
        }
        assert_eq!(poisson(&mut r, 0.0), 0);
    }

    #[test]
    fn zipf_weights_decay() {
        let w = zipf_weights(100, 0.8);
        assert_eq!(w.len(), 100);
        assert_eq!(w[0], 1.0);
        assert!(w.windows(2).all(|p| p[0] > p[1]));
        assert!((w[9] - 1.0 / 10f64.powf(0.8)).abs() < 1e-12);
    }

    #[test]
    fn weighted_index_distribution() {
        let table = WeightedIndex::new([1.0, 2.0, 7.0]).expect("valid");
        let mut r = rng();
        let mut counts = [0u32; 3];
        for _ in 0..30_000 {
            counts[table.sample(&mut r)] += 1;
        }
        let f0 = counts[0] as f64 / 30_000.0;
        let f2 = counts[2] as f64 / 30_000.0;
        assert!((f0 - 0.1).abs() < 0.01, "{counts:?}");
        assert!((f2 - 0.7).abs() < 0.01, "{counts:?}");
    }

    #[test]
    fn weighted_index_rejects_zero_total() {
        assert!(WeightedIndex::new([0.0, 0.0]).is_none());
        assert!(WeightedIndex::new(std::iter::empty()).is_none());
    }

    #[test]
    fn zero_weight_head_is_never_sampled() {
        let table = WeightedIndex::new([0.0, 1.0]).expect("valid");
        let mut r = rng();
        for _ in 0..1_000 {
            assert_eq!(table.sample(&mut r), 1);
        }
    }

    #[test]
    fn deferred_draws_resolve_to_the_samples() {
        // Zero runs across several 512-slice regions.
        let weights = (0..5_000u32).map(|i| if i % 7 < 3 { 0.0 } else { f64::from(i % 13) });
        let table = WeightedIndex::new(weights).expect("valid");
        let (mut direct, mut deferred) = (rng(), rng());
        let expected: Vec<usize> = (0..3_000).map(|_| table.sample(&mut direct)).collect();
        let mut draws = DeferredDraws::default();
        draws.draw(&table, &mut rng());
        draws.clear();
        for _ in 0..3_000 {
            draws.draw(&table, &mut deferred);
        }
        let mut got = vec![usize::MAX; 3_000];
        draws.resolve(&table, |draw, index| got[draw] = index);
        assert_eq!(got, expected);
        assert_eq!(
            direct.random::<u64>(),
            deferred.random::<u64>(),
            "the same stream"
        );
    }

    /// Weights from `(kind, exponent)` draws: kind 0 is a zero weight,
    /// any other a power of ten from 1e-300 to 1e300, wrapped in runs of
    /// leading and trailing zeros. `single` keeps only the first positive
    /// weight; a table needs one, so an all-zero draw gets one at its end.
    fn weights(draws: &[(u32, i32)], lead: usize, trail: usize, single: bool) -> Vec<f64> {
        let mut weights = vec![0.0; lead];
        weights.extend(draws.iter().map(|&(kind, exponent)| {
            if kind == 0 {
                0.0
            } else {
                10f64.powi(exponent - 300)
            }
        }));
        if single {
            let mut seen = false;
            for w in weights.iter_mut().filter(|w| **w > 0.0) {
                if seen {
                    *w = 0.0;
                }
                seen = true;
            }
        }
        if !weights.iter().any(|&w| w > 0.0) {
            weights.push(1.0);
        }
        weights.extend(std::iter::repeat_n(0.0, trail));
        weights
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        /// The guided search is the binary search at zero, just below and
        /// at the total, on and beside every slice edge and every
        /// cumulative weight, and at random draws through `sample`.
        #[test]
        fn guided_search_is_the_binary_search(
            draws in prop::collection::vec((0u32..4, 0i32..601), 1..48),
            shape in (0usize..5, 0usize..5, 0u32..4),
            seed in 0u64..1_000,
        ) {
            let (lead, trail, single) = shape;
            let table = WeightedIndex::new(weights(&draws, lead, trail, single == 0))
                .expect("a positive weight");
            let total = table.total();
            let n = table.len();
            let mut points = vec![0.0, total.next_down(), total];
            for k in 0..=n {
                let edge = k as f64 / table.scale;
                points.extend([edge.next_down(), edge, edge.next_up()]);
            }
            for &c in &table.cumulative {
                points.extend([c.next_down(), c, c.next_up()]);
            }
            for x in points.into_iter().filter(|&x| (0.0..=total).contains(&x)) {
                prop_assert_eq!(table.index_at(x), table.binary_search(x), "x = {}", x);
            }
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..64 {
                let x = rng.clone().random::<f64>() * total;
                prop_assert_eq!(table.sample(&mut rng), table.binary_search(x), "x = {}", x);
            }
        }
    }
}
