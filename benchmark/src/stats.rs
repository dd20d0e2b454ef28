//! The repetition reducer: every headline number is the median of a
//! workload's in-process repetitions, printed with min, max and the count.

/// Median, extremes and count of a set of repetitions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub count: usize,
}

impl Summary {
    /// Reduces `values`; `None` when there is nothing to reduce. The
    /// median of an even count is the mean of the two middle values.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let median = if n % 2 == 1 {
            sorted[n / 2]
        } else {
            (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
        };
        Some(Summary {
            median,
            min: sorted[0],
            max: sorted[n - 1],
            count: n,
        })
    }

    /// `(max − min) ÷ median`: how far apart the repetitions of one run sit.
    pub fn spread_share(&self) -> f64 {
        (self.max - self.min) / self.median
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_has_no_summary() {
        assert_eq!(Summary::of(&[]), None);
    }

    #[test]
    fn odd_count_takes_the_middle_value() {
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.median, s.min, s.max, s.count), (2.0, 1.0, 3.0, 3));
    }

    #[test]
    fn even_count_averages_the_two_middle_values() {
        let s = Summary::of(&[4.0, 1.0, 2.0, 10.0]).unwrap();
        assert_eq!((s.median, s.min, s.max, s.count), (3.0, 1.0, 10.0, 4));
    }

    #[test]
    fn single_value_is_its_own_median_with_zero_spread() {
        let s = Summary::of(&[5.0]).unwrap();
        assert_eq!((s.median, s.min, s.max, s.count), (5.0, 5.0, 5.0, 1));
        assert_eq!(s.spread_share(), 0.0);
    }

    #[test]
    fn spread_is_relative_to_the_median() {
        let s = Summary::of(&[9.0, 10.0, 12.0]).unwrap();
        assert!((s.spread_share() - 0.3).abs() < 1e-12);
    }
}
