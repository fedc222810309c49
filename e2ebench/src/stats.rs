//! Estimators: per-input minima, percentiles and geometric means.

/// Repeated timings of a fixed set of distinct inputs.
///
/// Every input is repeated once per round; an input's latency is the
/// minimum of its repeats, because contention on a shared host only ever
/// adds time.
#[derive(Debug, Clone)]
pub struct PerInput {
    samples: Vec<Vec<f64>>,
}

impl PerInput {
    /// An empty record for `inputs` distinct inputs.
    pub fn new(inputs: usize) -> Self {
        Self {
            samples: vec![Vec::new(); inputs],
        }
    }

    /// Records one repeat of input `i`.
    pub fn push(&mut self, i: usize, value: f64) {
        self.samples[i].push(value);
    }

    /// Smallest repeat count over the inputs.
    pub fn repeats(&self) -> usize {
        self.samples.iter().map(Vec::len).min().unwrap_or(0)
    }

    /// Each input's minimum, in input order (`NaN` for an input never run).
    pub fn minima(&self) -> Vec<f64> {
        self.samples
            .iter()
            .map(|s| s.iter().copied().fold(f64::NAN, f64::min))
            .collect()
    }

    /// Every repeat of every input, flattened.
    pub fn all(&self) -> Vec<f64> {
        self.samples.iter().flatten().copied().collect()
    }
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values` by linear interpolation
/// between closest ranks: rank `q·(n−1)` of the sorted values. `NaN` for an
/// empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Geometric mean of positive `values` (`NaN` for an empty slice).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_input_minimum_ignores_contended_repeats() {
        let mut p = PerInput::new(3);
        for (i, v) in [(0, 5.0), (1, 2.0), (2, 9.0), (0, 3.0), (1, 7.0), (2, 4.0)] {
            p.push(i, v);
        }
        p.push(0, 30.0);
        assert_eq!(p.minima(), vec![3.0, 2.0, 4.0]);
        assert_eq!(p.repeats(), 2);
        assert_eq!(p.all().len(), 7);
    }

    #[test]
    fn quantiles_interpolate_between_closest_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quantile(&v, 0.9), 4.6);
        assert_eq!(median(&[1.0, 2.0]), 1.5);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!((quantile(&hundred, 0.9) - 90.1).abs() < 1e-12);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn geomean_of_known_values() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[3.0]) - 3.0).abs() < 1e-12);
    }
}
