//! Property-based tests for the statistics crate.

use proptest::prelude::*;

use edns_stats::{mean, median, pearson, quantile, spearman, BoxPlot, Ecdf, Summary};

fn arb_data() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-1e6f64..1e6, 1..200)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn quantiles_are_monotone_and_within_range(data in arb_data(), q1 in 0.0f64..1.0, q2 in 0.0f64..1.0) {
        let (lo, hi) = (q1.min(q2), q1.max(q2));
        let vlo = quantile(&data, lo).unwrap();
        let vhi = quantile(&data, hi).unwrap();
        prop_assert!(vlo <= vhi + 1e-9);
        let min = data.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = data.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(vlo >= min - 1e-9 && vhi <= max + 1e-9);
    }

    #[test]
    fn median_is_a_true_median(data in arb_data()) {
        let m = median(&data).unwrap();
        let below = data.iter().filter(|&&x| x <= m + 1e-9).count();
        let above = data.iter().filter(|&&x| x >= m - 1e-9).count();
        prop_assert!(below * 2 >= data.len(), "at least half at or below");
        prop_assert!(above * 2 >= data.len(), "at least half at or above");
    }

    #[test]
    fn summary_orders_its_five_numbers(data in arb_data()) {
        let s = Summary::of(&data).unwrap();
        prop_assert!(s.min <= s.q1 + 1e-9);
        prop_assert!(s.q1 <= s.median + 1e-9);
        prop_assert!(s.median <= s.q3 + 1e-9);
        prop_assert!(s.q3 <= s.max + 1e-9);
        prop_assert!(s.min <= s.mean + 1e-9 && s.mean <= s.max + 1e-9);
        prop_assert_eq!(s.count, data.len());
    }

    #[test]
    fn shifting_data_shifts_summary(data in arb_data(), shift in -1e3f64..1e3) {
        let shifted: Vec<f64> = data.iter().map(|x| x + shift).collect();
        let a = Summary::of(&data).unwrap();
        let b = Summary::of(&shifted).unwrap();
        prop_assert!((b.median - a.median - shift).abs() < 1e-6);
        prop_assert!((b.iqr() - a.iqr()).abs() < 1e-6, "IQR is shift-invariant");
    }

    #[test]
    fn ecdf_is_a_valid_cdf(data in arb_data(), x in -1e6f64..1e6) {
        let e = Ecdf::new(&data).unwrap();
        let p = e.at(x);
        prop_assert!((0.0..=1.0).contains(&p));
        prop_assert!(e.at(x + 1.0) >= p, "monotone");
        prop_assert_eq!(e.at(f64::INFINITY), 1.0);
        prop_assert_eq!(e.at(f64::NEG_INFINITY), 0.0);
    }

    #[test]
    fn ks_distance_is_a_pseudometric(a in arb_data(), b in arb_data()) {
        let ea = Ecdf::new(&a).unwrap();
        let eb = Ecdf::new(&b).unwrap();
        let d = ea.ks_distance(&eb);
        prop_assert!((0.0..=1.0).contains(&d));
        prop_assert!((d - eb.ks_distance(&ea)).abs() < 1e-12);
        prop_assert!(ea.ks_distance(&ea) < 1e-12);
    }

    #[test]
    fn boxplot_whiskers_bracket_the_box(data in arb_data()) {
        let b = BoxPlot::of("x", &data).unwrap();
        prop_assert!(b.whisker_lo <= b.summary.q1 + 1e-9);
        prop_assert!(b.whisker_hi >= b.summary.q3 - 1e-9);
        // Outliers lie strictly outside the whiskers.
        for &o in &b.outliers {
            prop_assert!(o < b.whisker_lo || o > b.whisker_hi);
        }
        // Outlier count + in-whisker count == total.
        let inside = data
            .iter()
            .filter(|&&x| x >= b.whisker_lo && x <= b.whisker_hi)
            .count();
        prop_assert_eq!(inside + b.outliers.len(), data.len());
    }

    #[test]
    fn pearson_is_scale_invariant(data in proptest::collection::vec((-1e3f64..1e3, -1e3f64..1e3), 3..100), a in 0.1f64..10.0, b in -100.0f64..100.0) {
        let x: Vec<f64> = data.iter().map(|(x, _)| *x).collect();
        let y: Vec<f64> = data.iter().map(|(_, y)| *y).collect();
        if let Some(r) = pearson(&x, &y) {
            prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r));
            let y2: Vec<f64> = y.iter().map(|v| a * v + b).collect();
            if let Some(r2) = pearson(&x, &y2) {
                prop_assert!((r - r2).abs() < 1e-6, "positive affine transform preserves r");
            }
        }
    }

    #[test]
    fn spearman_is_monotone_invariant(x in proptest::collection::vec(-1e3f64..1e3, 3..60)) {
        // Against a strictly increasing transform of itself: rho == 1.
        let y: Vec<f64> = x.iter().map(|v| v * 3.0 + 7.0).collect();
        if let Some(rho) = spearman(&x, &y) {
            prop_assert!((rho - 1.0).abs() < 1e-9, "rho {}", rho);
        }
    }

    #[test]
    fn mean_lies_between_extremes(data in arb_data()) {
        let m = mean(&data).unwrap();
        let min = data.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = data.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(m >= min - 1e-9 && m <= max + 1e-9);
    }
}
