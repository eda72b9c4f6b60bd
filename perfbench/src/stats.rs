//! Order statistics over measured samples.

/// Linear-interpolated quantile `q` of `sorted` (ascending). Zero samples
/// give zero.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median, first and third quartile, and sample count of `values`.
#[derive(Clone, Copy, Debug, Default)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let sorted = sorted(values);
        Summary {
            n: sorted.len(),
            median: quantile(&sorted, 0.5),
            q1: quantile(&sorted, 0.25),
            q3: quantile(&sorted, 0.75),
        }
    }

    pub fn json(&self) -> String {
        format!(
            "{{\"n\":{},\"median\":{},\"q1\":{},\"q3\":{}}}",
            self.n, self.median, self.q1, self.q3
        )
    }
}

/// `values` sorted ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}
