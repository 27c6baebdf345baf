//! Metric rows, the printed table and the final JSON line.

use std::fmt::Write as _;

pub struct Row {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples the value summarises.
    pub samples: usize,
}

#[derive(Default)]
pub struct Report {
    pub rows: Vec<Row>,
}

impl Report {
    pub fn push(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: usize,
    ) {
        self.rows.push(Row {
            name: name.into(),
            value,
            unit,
            samples,
        });
    }

    /// Pushes the `q`-quantile of `values`, failing when fewer than ten
    /// samples lie beyond it.
    pub fn quantile(
        &mut self,
        name: impl Into<String>,
        values: &[f64],
        q: f64,
        unit: &'static str,
    ) -> Result<(), String> {
        let name = name.into();
        let value = quantile(values, q).ok_or_else(|| {
            format!(
                "{name}: {} samples leave fewer than 10 beyond the {q} quantile",
                values.len()
            )
        })?;
        self.push(name, value, unit, values.len());
        Ok(())
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.rows.iter().find(|r| r.name == name).map(|r| r.value)
    }

    /// One line per metric: name, value, unit and sample count.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for r in &self.rows {
            let _ = writeln!(
                out,
                "  {:<40} {:>16.4} {:<6} n={}",
                r.name, r.value, r.unit, r.samples
            );
        }
        out
    }

    /// The result line: `correct`, `attempted`, `failed` and every
    /// metric with its unit, numbers printed with all their digits.
    pub fn json(&self, correct: bool, attempted: u64, failed: u64) -> Result<String, String> {
        let mut metrics = String::new();
        for (i, r) in self.rows.iter().enumerate() {
            if !r.value.is_finite() {
                return Err(format!("{} is not a finite number", r.name));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                r.name, r.value, r.unit
            );
        }
        Ok(format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}"
        ))
    }
}

/// Answers checked over a run, and how many were wrong or failed.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn add(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    pub fn check(&mut self, got: bool, want: bool) {
        self.add(1, u64::from(got != want));
    }
}

/// Nearest-rank quantile, or `None` when fewer than ten samples lie
/// beyond it.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
    (sorted.len().saturating_sub(rank) >= 10).then(|| sorted[rank - 1])
}

pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The value a tenth of the way in from the slow end of `values`
/// (nearest rank): the 10th percentile of rates, the 90th of latencies.
pub fn slow_decile(values: &[f64], higher_is_faster: bool) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = sorted.len().div_ceil(10).max(1);
    if higher_is_faster {
        sorted[rank - 1]
    } else {
        sorted[sorted.len() - rank]
    }
}
