//! Deterministic randomness: seed derivation and the latency-shaped
//! distributions the simulator samples from.
//!
//! Every component derives its own stream from a master seed via SplitMix64,
//! so adding a component never perturbs the draws of another — a property the
//! calibration tests rely on.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// The ChaCha12 keystream kernel every `SimRng` refills through on this
/// host: `"avx2"` or `"portable"`. Both give the same stream, so only the
/// speed of a run depends on it.
pub use rand::rngs::keystream_kernel;

use crate::math;
use crate::ziggurat::{F, R, X};

/// One step of SplitMix64 (Steele, Lea & Flood 2014); used only to derive
/// independent seeds from a master seed plus a stream label.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Derives a child seed from a master seed and a textual stream label.
pub fn derive_seed(master: u64, label: &str) -> u64 {
    // FNV-1a over the label, mixed with the master through SplitMix64.
    let mut h: u64 = 0xCBF29CE484222325;
    for b in label.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100000001B3);
    }
    let mut state = master ^ h;
    splitmix64(&mut state)
}

/// A seedable RNG with the distribution helpers the latency models need.
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: StdRng,
}

/// Which part of the ziggurat a normal draw ended in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Route {
    /// Inside its layer's rectangle: one `u64`, no libm.
    Core,
    /// In a layer's wedge, accepted against `exp(-x²/2)`.
    Wedge,
    /// Beyond `R`, from the tail sampler.
    Tail,
}

/// The sign bit of an `f64`.
const SIGN: u64 = 1 << 63;

/// `2^-52`: scales a 52-bit integer into `[0, 1)`.
const UNIT_52: f64 = 1.0 / (1u64 << 52) as f64;

impl SimRng {
    /// Creates an RNG from a raw seed.
    pub fn from_seed(seed: u64) -> Self {
        SimRng {
            inner: StdRng::seed_from_u64(seed),
        }
    }

    /// Creates an RNG for a labelled stream derived from a master seed.
    pub fn derived(master: u64, label: &str) -> Self {
        Self::from_seed(derive_seed(master, label))
    }

    /// Uniform in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Uniform integer in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        self.inner.gen_range(0..n)
    }

    /// Bernoulli trial with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.uniform() < p
        }
    }

    /// Standard normal by a 256-layer ziggurat (Marsaglia & Tsang 2000,
    /// in Doornik's 2005 form; the tables are checked in beside their
    /// generator, in the private `ziggurat` module). One `u64` a draw:
    /// its low 8 bits pick the layer, bit 11 the sign and bits 12–63 the
    /// point across the layer. About 98.5 % of draws end at the first
    /// comparison, with no libm call; the wedges (`exp`) and the tail
    /// beyond `R` (`ln`) take the rest.
    pub fn standard_normal(&mut self) -> f64 {
        self.ziggurat().0
    }

    /// [`standard_normal`](Self::standard_normal), with the part of the
    /// ziggurat the draw ended in.
    #[inline(always)]
    fn ziggurat(&mut self) -> (f64, Route) {
        loop {
            let bits = self.inner.next_u64();
            let layer = (bits & 0xFF) as usize;
            // 52 bits, centred in their cell: u in (0, 1), never 0.
            let u = ((bits >> 12) as f64 + 0.5) * UNIT_52;
            let x = u * f64::from_bits(X[layer]);
            // Bit 11 moved to bit 63: negating by sign bit keeps the two
            // halves exact mirrors.
            let signed =
                |magnitude: f64| f64::from_bits(magnitude.to_bits() | ((bits << 52) & SIGN));
            if x < f64::from_bits(X[layer + 1]) {
                return (signed(x), Route::Core);
            }
            if layer == 0 {
                return (signed(self.normal_tail()), Route::Tail);
            }
            let (below, above) = (f64::from_bits(F[layer]), f64::from_bits(F[layer + 1]));
            if below + (above - below) * self.uniform() < math::exp(-0.5 * x * x) {
                return (signed(x), Route::Wedge);
            }
        }
    }

    /// A normal conditioned on exceeding `R` (Marsaglia 1964): `R + x`
    /// for `x` exponential with rate `R`, kept with probability
    /// `exp(-x²/2)`.
    fn normal_tail(&mut self) -> f64 {
        loop {
            // u in (0, 1] keeps ln() finite.
            let x = -math::ln(1.0 - self.uniform()) / R;
            let y = -math::ln(1.0 - self.uniform());
            if y + y >= x * x {
                return R + x;
            }
        }
    }

    /// Normal with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, sd: f64) -> f64 {
        mean + sd * self.standard_normal()
    }

    /// Exponential with the given mean (queueing delays).
    pub fn exponential(&mut self, mean: f64) -> f64 {
        debug_assert!(mean > 0.0);
        let u = 1.0 - self.uniform();
        -mean * math::ln(u)
    }

    /// Pareto with scale `xm` and shape `alpha` (heavy-tailed outliers such
    /// as bufferbloat spikes). Mean is finite only for `alpha > 1`.
    pub fn pareto(&mut self, xm: f64, alpha: f64) -> f64 {
        debug_assert!(xm > 0.0 && alpha > 0.0);
        let u = 1.0 - self.uniform();
        xm / math::powf(u, 1.0 / alpha)
    }
}

/// A log-normal parameterised by its *median* and log-space sigma — the
/// natural parameterisation for network latency, whose distribution is
/// right-skewed with occasional large outliers. Built once per path or
/// server, so `ln(median)` is taken once rather than on every draw.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    ln_median: f64,
    sigma: f64,
}

impl LogNormal {
    /// The log-normal with the given median (> 0) and log-space sigma.
    pub fn new(median: f64, sigma: f64) -> Self {
        debug_assert!(median > 0.0);
        LogNormal {
            ln_median: math::ln(median),
            sigma,
        }
    }

    /// One draw: a standard normal, scaled and exponentiated.
    #[inline]
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        math::exp(self.ln_median + self.sigma * rng.standard_normal())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism_same_seed_same_stream() {
        let mut a = SimRng::from_seed(7);
        let mut b = SimRng::from_seed(7);
        for _ in 0..100 {
            assert_eq!(a.uniform().to_bits(), b.uniform().to_bits());
        }
    }

    #[test]
    fn derived_streams_differ_by_label() {
        let mut a = SimRng::derived(7, "ping");
        let mut b = SimRng::derived(7, "dns");
        let va: Vec<u64> = (0..8).map(|_| a.uniform().to_bits()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.uniform().to_bits()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn derive_seed_is_stable() {
        // Pin the derivation so refactors cannot silently change campaigns.
        assert_eq!(derive_seed(1, "x"), derive_seed(1, "x"));
        assert_ne!(derive_seed(1, "x"), derive_seed(2, "x"));
        assert_ne!(derive_seed(1, "x"), derive_seed(1, "y"));
    }

    #[test]
    fn sampler_draws_are_pinned() {
        // Exact bits of the first draws of one seed at the arguments the
        // simulation passes, then of the stream's first wedge and first
        // tail normal: a drift in the keystream, in the ziggurat's tables
        // or in libm (`exp`, `ln`, `powf`) fails here, by name, before it
        // moves any campaign hash.
        use crate::link::WAN_SIGMA;
        use crate::node::AccessProfile;
        let (cloud, datacenter, home) = (
            AccessProfile::cloud_vm(),
            AccessProfile::datacenter(),
            AccessProfile::home_cable(),
        );
        let mut r = SimRng::from_seed(42);
        let mut drawn = [
            r.uniform(),
            r.uniform(),
            r.standard_normal(),
            r.standard_normal(),
            r.standard_normal(),
            r.exponential(5.0),
            r.pareto(home.spike_scale_ms, 1.8),
            r.pareto(cloud.spike_scale_ms, 1.8),
            LogNormal::new(35.0, WAN_SIGMA).sample(&mut r),
            cloud.latency().sample(&mut r),
            datacenter.latency().sample(&mut r),
            home.latency().sample(&mut r),
            0.0,
            0.0,
        ];
        // Further down the stream: its first wedge and first tail normal,
        // each after the pinned number of normals that ended elsewhere.
        let mut skipped = [0u32; 2];
        for (k, route) in [Route::Wedge, Route::Tail].into_iter().enumerate() {
            drawn[12 + k] = loop {
                match r.ziggurat() {
                    (z, ended) if ended == route => break z,
                    _ => skipped[k] += 1,
                }
            };
        }
        assert_eq!(
            skipped,
            [316, 997],
            "normals before the wedge and the tail draw"
        );
        let pinned: [u64; 14] = [
            0x3FE0_D98E_EC64_44E4, // uniform 0.5265574090027738
            0x3FE1_5E01_4267_F5AA, // uniform 0.5427252099031439
            0x3FE3_9820_A336_5D73, // standard_normal 0.6123202502957795
            0x3FDF_1973_93DA_896A, // standard_normal 0.4859284347422973
            0xBF99_14E1_B3D0_DF57, // standard_normal -0.02449371967324451
            0x4005_715A_77F3_7A3D, // exponential(5) 2.680348336332172
            0x4030_D0EE_F5C1_09B0, // pareto(8, 1.8) 16.81614623987997
            0x4016_E371_0D6A_29C8, // pareto(2, 1.8) 5.722110948185623
            0x4041_A9FC_B78A_64A6, // WAN, 35 ms median 35.328024809431824
            0x3FD3_2F52_93D8_98EF, // cloud VM access 0.29976334035963154
            0x3FD4_35AC_5BC5_E232, // datacenter access 0.315775956747106
            0x4003_0724_3708_7096, // home cable access 2.3784870433283443
            0x3FA1_B764_DDBD_39D3, // wedge (top layer) 0.03460231024529361
            0xC010_B0BC_7A0A_EC13, // tail -4.172593981663357
        ];
        for (i, (x, bits)) in drawn.iter().zip(pinned).enumerate() {
            assert_eq!(
                x.to_bits(),
                bits,
                "draw {i}: {x} ({:#018x}) is not {}",
                x.to_bits(),
                f64::from_bits(bits)
            );
        }
    }

    #[test]
    fn uniform_bounds() {
        let mut r = SimRng::from_seed(3);
        for _ in 0..10_000 {
            let u = r.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::from_seed(3);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-0.5));
        assert!(r.chance(1.5));
    }

    #[test]
    fn normal_moments_are_plausible() {
        let mut r = SimRng::from_seed(11);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| r.normal(10.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.15, "variance {var}");
    }

    /// Φ, the standard normal CDF, through erfc's Chebyshev fit
    /// (Numerical Recipes' `erfcc`: relative error below 1.2e-7, four
    /// orders under the Kolmogorov bound it is used against).
    fn phi(z: f64) -> f64 {
        let x = z.abs() / std::f64::consts::SQRT_2;
        let t = 1.0 / (1.0 + 0.5 * x);
        let poly = [
            -1.26551223,
            1.00002368,
            0.37409196,
            0.09678418,
            -0.18628806,
            0.27886807,
            -1.13520398,
            1.48851587,
            -0.82215223,
            0.17087277,
        ];
        let horner = poly[1..].iter().rev().fold(0.0, |acc, c| c + t * acc);
        let erfc = t * (-x * x + poly[0] + t * horner).exp();
        if z >= 0.0 {
            1.0 - 0.5 * erfc
        } else {
            0.5 * erfc
        }
    }

    #[test]
    fn ziggurat_draws_are_standard_normal() {
        let n = 1_000_000;
        let mut r = SimRng::from_seed(29);
        let mut z: Vec<f64> = (0..n).map(|_| r.standard_normal()).collect();
        let nf = n as f64;
        let mean = z.iter().sum::<f64>() / nf;
        let moment = |k: i32| z.iter().map(|x| (x - mean).powi(k)).sum::<f64>() / nf;
        let (var, kurtosis) = (moment(2), moment(4) / moment(2).powi(2));
        // Each within five standard errors: sqrt(1/n), sqrt(2/n), sqrt(24/n).
        assert!(mean.abs() < 0.005, "mean {mean}");
        assert!((var - 1.0).abs() < 0.0071, "variance {var}");
        assert!((kurtosis - 3.0).abs() < 0.0245, "kurtosis {kurtosis}");
        // P(|z| > 3) = 0.0026998, standard error sqrt(p/n) = 5.2e-5.
        let beyond3 = z.iter().filter(|x| x.abs() > 3.0).count() as f64 / nf;
        assert!(
            (beyond3 - 0.0026998).abs() < 2.6e-4,
            "P(|z| > 3) = {beyond3}"
        );
        // Kolmogorov–Smirnov against Φ: P(√n·D > 1.95) ≈ 0.001.
        z.sort_by(f64::total_cmp);
        let d = z.iter().enumerate().fold(0.0f64, |d, (i, &x)| {
            let p = phi(x);
            d.max(p - i as f64 / nf).max((i + 1) as f64 / nf - p)
        });
        assert!(d * nf.sqrt() < 1.95, "KS statistic D = {d}");
    }

    #[test]
    fn ziggurat_reaches_tail_and_wedges_symmetrically() {
        let n = 1_000_000;
        let mut r = SimRng::from_seed(31);
        // Per route, draws with the sign bit clear and set.
        let mut counts = [[0u32; 2]; 3];
        let mut tail_excess = 0.0;
        for _ in 0..n {
            let (z, route) = r.ziggurat();
            counts[route as usize][z.is_sign_negative() as usize] += 1;
            if route == Route::Tail {
                assert!(z.abs() > R, "a tail draw inside R: {z}");
                tail_excess += z.abs() - R;
            } else {
                assert!(
                    z.abs() < f64::from_bits(X[0]),
                    "a layer draw beyond X[0]: {z}"
                );
            }
        }
        for (route, [pos, neg]) in [Route::Core, Route::Wedge, Route::Tail].iter().zip(counts) {
            let total = (pos + neg) as f64;
            // Each side Binomial(total, 1/2): within 4.5 standard errors.
            let skew = (pos as f64 - neg as f64).abs();
            assert!(
                skew < 4.5 * total.sqrt(),
                "{route:?}: {pos} positive, {neg} negative"
            );
        }
        let share = |route: Route| counts[route as usize].iter().sum::<u32>() as f64 / n as f64;
        // Every |z| > R comes from the tail: P = 2(1 − Φ(R)) = 2.58e-4,
        // standard error 1.6e-5.
        assert!(
            (share(Route::Tail) - 2.58e-4).abs() < 8e-5,
            "tail share {}",
            share(Route::Tail)
        );
        // E[|z| − R | |z| > R] = φ(R)/(1 − Φ(R)) − R = 0.243, standard
        // error about 0.014 over the ~260 tail draws.
        let density = (-0.5 * R * R).exp() / (2.0 * std::f64::consts::PI).sqrt();
        let want = density / (1.0 - phi(R)) - R;
        let got = tail_excess / counts[Route::Tail as usize].iter().sum::<u32>() as f64;
        assert!(
            (got - want).abs() < 0.07,
            "mean excess over R {got}, not {want}"
        );
        let wedge = share(Route::Wedge);
        assert!((0.005..0.02).contains(&wedge), "wedge share {wedge}");
    }

    #[test]
    fn lognormal_median_is_the_median() {
        let mut r = SimRng::from_seed(13);
        let n = 50_001;
        let d = LogNormal::new(30.0, 0.5);
        let mut samples: Vec<f64> = (0..n).map(|_| d.sample(&mut r)).collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[n / 2];
        assert!((median - 30.0).abs() < 1.0, "median {median}");
        assert!(samples.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn exponential_mean() {
        let mut r = SimRng::from_seed(17);
        let n = 50_000;
        let mean = (0..n).map(|_| r.exponential(5.0)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.15, "mean {mean}");
    }

    #[test]
    fn pareto_lower_bound_and_tail() {
        let mut r = SimRng::from_seed(19);
        let samples: Vec<f64> = (0..10_000).map(|_| r.pareto(2.0, 2.5)).collect();
        assert!(samples.iter().all(|&x| x >= 2.0));
        // A heavy tail must actually produce some values well above xm.
        assert!(samples.iter().any(|&x| x > 6.0));
    }

    #[test]
    fn below_covers_range() {
        let mut r = SimRng::from_seed(23);
        let mut seen = [false; 5];
        for _ in 0..200 {
            seen[r.below(5)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
