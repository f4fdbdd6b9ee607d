//! Small numeric helpers: seeded inputs, order statistics, JSON output.

use srsf::prelude::Scalar;

/// splitmix64: a seeded stream of 64-bit words, so every input the
/// benchmark hands the solver is a pure function of `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A right-hand side with entries uniform in `[0, 1)` (real and
    /// imaginary parts drawn independently for complex scalars).
    pub fn vector<T: Scalar>(&mut self, n: usize) -> Vec<T> {
        (0..n)
            .map(|_| {
                let re = self.unit();
                let im = if T::IS_COMPLEX { self.unit() } else { 0.0 };
                T::from_re_im(re, im)
            })
            .collect()
    }
}

/// Median of a non-empty sample (mean of the two middle values for an
/// even count).
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Nearest-rank percentile `q` in `(0, 1]` of a non-empty sample.
pub fn percentile(v: &[f64], q: f64) -> f64 {
    let s = sorted(v);
    let rank = (q * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

fn sorted(v: &[f64]) -> Vec<f64> {
    assert!(!v.is_empty(), "order statistic of an empty sample");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// One reported metric: name, value and unit.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The result line: `{"correct": .., "attempted": .., "failed": ..,
/// "metrics": {name: {"value": .., "unit": ..}}}`. Non-finite values have
/// no JSON spelling and are written as `null`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() {
                format!("{:?}", m.value)
            } else {
                "null".to_string()
            };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.5);
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn rng_repeats_per_seed() {
        let a: Vec<f64> = Rng::new(7, 1).vector(16);
        let b: Vec<f64> = Rng::new(7, 1).vector(16);
        let c: Vec<f64> = Rng::new(8, 1).vector(16);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.iter().all(|x| (0.0..1.0).contains(x)));
    }

    #[test]
    fn json_shape() {
        let line = result_json(true, 3, 0, &[metric("setup_s", 0.5, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
