//! Order statistics over repetition samples.

use crate::record::obj;
use serde_json::Value;

/// Median, quartiles, range and count of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// Summarises `samples`; `None` when empty.
    pub fn of(samples: &[f64]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let [q1, median, q3] = quartiles_sorted(&v);
        Some(Self { n: v.len(), min: v[0], q1, median, q3, max: v[v.len() - 1] })
    }

    /// Inter-quartile distance as a share of the median — the spread the
    /// regression bounds are judged against.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }

    pub fn to_json(self, samples: &[f64]) -> Value {
        obj(vec![
            ("n", Value::Int(self.n as i64)),
            ("min", Value::Float(self.min)),
            ("q1", Value::Float(self.q1)),
            ("median", Value::Float(self.median)),
            ("q3", Value::Float(self.q3)),
            ("max", Value::Float(self.max)),
            ("samples", Value::Array(samples.iter().map(|&x| Value::Float(x)).collect())),
        ])
    }
}

pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).map_or(0.0, |s| s.median)
}

/// The three cut points of Python's `statistics.quantiles(v, n=4)` (the
/// default "exclusive" method), so a spread computed here equals the one a
/// Python harness computes from the same samples. One sample yields itself.
fn quartiles_sorted(v: &[f64]) -> [f64; 3] {
    let ld = v.len();
    if ld == 1 {
        return [v[0]; 3];
    }
    let m = ld + 1;
    std::array::from_fn(|k| {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

/// `p`-th percentile (0..=100) by nearest rank on a copy of `samples`.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.min, s.q1, s.median, s.q3, s.max), (1.0, 1.0, 2.0, 3.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[2.0, 1.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
        assert_eq!(median(&[]), 0.0);
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(Summary::of(&v).unwrap().spread(), 1.0);
        assert_eq!(Summary::of(&[2.0]).unwrap().spread(), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }
}
