//! A flat JSON object writer for the phase result line, and the
//! summary statistics every phase shares.

use std::fmt::Write as _;

/// Flat JSON object, keys in insertion order.
pub struct Obj {
    body: String,
}

impl Obj {
    pub fn new() -> Self {
        Obj {
            body: String::new(),
        }
    }

    fn key(&mut self, k: &str) {
        if !self.body.is_empty() {
            self.body.push_str(", ");
        }
        let _ = write!(self.body, "\"{k}\": ");
    }

    /// A number; non-finite values are written as `null`.
    pub fn num(&mut self, k: &str, v: f64) {
        self.key(k);
        if v.is_finite() {
            let _ = write!(self.body, "{v}");
        } else {
            self.body.push_str("null");
        }
    }

    pub fn bool(&mut self, k: &str, v: bool) {
        self.key(k);
        let _ = write!(self.body, "{v}");
    }

    pub fn str(&mut self, k: &str, v: &str) {
        self.key(k);
        let _ = write!(self.body, "{v:?}");
    }

    pub fn strs(&mut self, k: &str, vs: &[String]) {
        self.key(k);
        let items: Vec<String> = vs.iter().map(|v| format!("{v:?}")).collect();
        let _ = write!(self.body, "[{}]", items.join(", "));
    }

    pub fn finish(self) -> String {
        format!("{{{}}}", self.body)
    }
}

/// Nearest-rank quantile of an ascending slice (`q` in 0..=1).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.iter().sum::<f64>() / v.len() as f64
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
