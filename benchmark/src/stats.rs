//! Aggregation of one timing over the reps of a run.

/// Best, median and quartiles of a sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub best: f64,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

/// Which end of a sample is its best value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// By what share of `base` the value `new` is worse (negative:
    /// better).
    pub fn worse_by(self, base: f64, new: f64) -> f64 {
        match self {
            Better::Lower => (new - base) / base,
            Better::Higher => (base - new) / base,
        }
    }
}

/// The quantile at `p` of sorted `xs` by the rule Python's
/// `statistics.quantiles(method="exclusive")` uses, so the spreads
/// printed here are the ones the acceptance check computes.
fn quantile_sorted(xs: &[f64], p: f64) -> f64 {
    let n = xs.len();
    if n == 1 {
        return xs[0];
    }
    let pos = p * (n as f64 + 1.0);
    let j = (pos.floor() as usize).clamp(1, n - 1);
    let delta = pos - j as f64;
    xs[j - 1] * (1.0 - delta) + xs[j] * delta
}

/// Summarises a non-empty sample; `better` picks which end is `best`.
pub fn summarize(values: &[f64], better: Better) -> Summary {
    assert!(!values.is_empty(), "summarize needs at least one value");
    let mut xs = values.to_vec();
    xs.sort_by(|a, b| a.total_cmp(b));
    let best = match better {
        Better::Lower => xs[0],
        Better::Higher => xs[xs.len() - 1],
    };
    Summary {
        n: xs.len(),
        best,
        median: quantile_sorted(&xs, 0.5),
        q1: quantile_sorted(&xs, 0.25),
        q3: quantile_sorted(&xs, 0.75),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_follows_the_direction_and_quartiles_match_python() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        let lo = summarize(&xs, Better::Lower);
        assert_eq!(lo.best, 1.0);
        assert_eq!((lo.q1, lo.median, lo.q3), (2.75, 5.5, 8.25));
        let hi = summarize(&xs, Better::Higher);
        assert_eq!(hi.best, 10.0);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0], Better::Lower);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let two = summarize(&[1.0, 2.0], Better::Lower);
        assert_eq!((two.q1, two.median, two.q3), (0.75, 1.5, 2.25));
        let one = summarize(&[4.0], Better::Lower);
        assert_eq!((one.best, one.median, one.q1, one.q3), (4.0, 4.0, 4.0, 4.0));
    }

    #[test]
    fn worse_by_is_signed_by_direction() {
        assert!((Better::Lower.worse_by(10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((Better::Higher.worse_by(10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(Better::Higher.worse_by(10.0, 11.0) < 0.0);
    }
}
