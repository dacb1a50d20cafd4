//! Percentiles from exact sorted samples, the metric table, and the
//! result line.

use std::time::Duration;

/// Nearest-rank quantile of `samples` (sorted in place): the smallest
/// sample with at least `q` of all samples at or below it.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    samples.sort_by(f64::total_cmp);
    let rank = (q * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

pub fn median(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The process's peak resident set (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Timings of one untraced pass, the input of the end-to-end metrics.
pub struct PassTimes {
    /// What one set-up unit is called ("sessions", "epochs").
    pub unit: &'static str,
    /// Seconds per set-up.
    pub setup_s: Vec<f64>,
    /// Milliseconds to each cold unit's first answer.
    pub first_ms: Vec<f64>,
    /// Milliseconds per query.
    pub query_ms: Vec<f64>,
    /// Wall time of the query phases.
    pub query_wall: Duration,
}

impl PassTimes {
    pub fn p50_ms(&self) -> f64 {
        median(&mut self.query_ms.clone())
    }

    /// The end-to-end metrics every workload reports.
    pub fn put(mut self, m: &mut Metrics) {
        let (units, unit, n) = (self.setup_s.len(), self.unit, self.query_ms.len());
        let per_unit = format!("median of {units} {unit}");
        m.put("setup_s", median(&mut self.setup_s), "s", per_unit.clone());
        m.put(
            "first_answer_ms",
            median(&mut self.first_ms),
            "ms",
            per_unit,
        );
        m.put(
            "query_p50_ms",
            quantile(&mut self.query_ms, 0.50),
            "ms",
            format!("n={n}"),
        );
        let beyond = n - (0.99 * n as f64).ceil() as usize;
        m.put(
            "query_p99_ms",
            quantile(&mut self.query_ms, 0.99),
            "ms",
            format!("n={n}, {beyond} beyond"),
        );
        m.put(
            "queries_per_s",
            n as f64 / self.query_wall.as_secs_f64(),
            "1/s",
            format!("{n} queries"),
        );
    }
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// What the value summarizes (sample count, scope).
    pub note: String,
}

/// An ordered metric table.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(
        &mut self,
        name: &'static str,
        value: f64,
        unit: &'static str,
        note: impl Into<String>,
    ) {
        self.0.push(Metric {
            name,
            value,
            unit,
            note: note.into(),
        });
    }

    /// Prints one aligned line per metric.
    pub fn print(&self) {
        for m in &self.0 {
            println!("{:<28} {:>16.6} {:<8} {}", m.name, m.value, m.unit, m.note);
        }
    }

    /// The result line: `correct`, `attempted`, `failed` and the metrics
    /// named in `keep` with their units. A metric the workload does not
    /// exercise reads 0.
    pub fn result_json(
        &self,
        correct: bool,
        attempted: u64,
        failed: u64,
        keep: &[(&str, &str)],
    ) -> String {
        let fields: Vec<String> = keep
            .iter()
            .map(|&(name, unit)| {
                let m = self.0.iter().find(|m| m.name == name);
                if let Some(m) = m {
                    assert_eq!(m.unit, unit, "metric {name} measured in the wrong unit");
                }
                let value = m.map_or(0.0, |m| m.value);
                let value = if value.is_finite() { value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            fields.join(", ")
        )
    }
}
