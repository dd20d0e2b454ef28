//! Deterministic randomness: seed derivation and the latency-shaped
//! distributions the simulator samples from.
//!
//! Every component derives its own stream from a master seed via SplitMix64,
//! so adding a component never perturbs the draws of another — a property the
//! calibration tests rely on.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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
    /// Cached second normal variate from Box–Muller.
    spare_normal: Option<f64>,
}

impl SimRng {
    /// Creates an RNG from a raw seed.
    pub fn from_seed(seed: u64) -> Self {
        SimRng {
            inner: StdRng::seed_from_u64(seed),
            spare_normal: None,
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

    /// Standard normal via Box–Muller (no rand_distr dependency).
    pub fn standard_normal(&mut self) -> f64 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        // Draw u in (0,1] to keep ln() finite.
        let u = 1.0 - self.uniform();
        let v = self.uniform();
        let r = (-2.0 * u.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * v;
        self.spare_normal = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Normal with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, sd: f64) -> f64 {
        mean + sd * self.standard_normal()
    }

    /// Log-normal parameterised by the *median* and the log-space sigma —
    /// the natural parameterisation for network latency, whose distribution
    /// is right-skewed with occasional large outliers.
    pub fn lognormal_median(&mut self, median: f64, sigma: f64) -> f64 {
        debug_assert!(median > 0.0);
        (median.ln() + sigma * self.standard_normal()).exp()
    }

    /// Exponential with the given mean (queueing delays).
    pub fn exponential(&mut self, mean: f64) -> f64 {
        debug_assert!(mean > 0.0);
        let u = 1.0 - self.uniform();
        -mean * u.ln()
    }

    /// Pareto with scale `xm` and shape `alpha` (heavy-tailed outliers such
    /// as bufferbloat spikes). Mean is finite only for `alpha > 1`.
    pub fn pareto(&mut self, xm: f64, alpha: f64) -> f64 {
        debug_assert!(xm > 0.0 && alpha > 0.0);
        let u = 1.0 - self.uniform();
        xm / u.powf(1.0 / alpha)
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
        // Exact bits of the first draws of one seed, recorded from the
        // four-block keystream buffer, at the arguments the simulation
        // passes: a drift in the keystream or in libm (`ln`, `sqrt`,
        // `sin`/`cos`, `exp`, `powf`) fails here, by name, before it moves
        // any campaign hash.
        use crate::link::WAN_SIGMA;
        use crate::node::AccessProfile;
        let (cloud, datacenter, home) = (
            AccessProfile::cloud_vm(),
            AccessProfile::datacenter(),
            AccessProfile::home_cable(),
        );
        let mut r = SimRng::from_seed(42);
        let drawn = [
            r.uniform(),
            r.uniform(),
            // Three normals: a Box–Muller pair, then a fresh pair whose
            // spare the WAN draw below takes.
            r.standard_normal(),
            r.standard_normal(),
            r.standard_normal(),
            r.exponential(5.0),
            r.pareto(home.spike_scale_ms, 1.8),
            r.pareto(cloud.spike_scale_ms, 1.8),
            r.lognormal_median(35.0, WAN_SIGMA),
            r.lognormal_median(cloud.median_ms, cloud.sigma),
            r.lognormal_median(datacenter.median_ms, datacenter.sigma),
            r.lognormal_median(home.median_ms, home.sigma),
        ];
        let pinned: [u64; 12] = [
            0x3FE0_D98E_EC64_44E4, // uniform 0.5265574090027738
            0x3FE1_5E01_4267_F5AA, // uniform 0.5427252099031439
            0xBFF2_E5D0_FA69_7F94, // standard_normal -1.1811075002405902
            0x3FE9_5FB8_09AC_D98B, // standard_normal 0.7929344357460634
            0xBFCD_1F5F_CF36_A702, // standard_normal -0.2275199662956809
            0x401A_BE8C_34D7_3483, // exponential(5) 6.6860817200041565
            0x4036_E371_0D6A_29C8, // pareto(8, 1.8) 22.888443792742493
            0x4001_4D19_19FC_6BDC, // pareto(2, 1.8) 2.1626455335767627
            0x4041_9831_3784_7BB1, // WAN, 35 ms median 35.189001979531334
            0x3FD3_5774_5139_E31A, // cloud VM access 0.3022127907966464
            0x3FD9_7F66_F4E5_89A3, // datacenter access 0.39840101161657965
            0x4007_3426_2720_1655, // home cable access 2.9004633957545516
        ];
        for (i, (x, bits)) in drawn.iter().zip(pinned).enumerate() {
            assert_eq!(
                x.to_bits(),
                bits,
                "draw {i}: {x} is not {}",
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

    #[test]
    fn lognormal_median_is_the_median() {
        let mut r = SimRng::from_seed(13);
        let n = 50_001;
        let mut samples: Vec<f64> = (0..n).map(|_| r.lognormal_median(30.0, 0.5)).collect();
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
