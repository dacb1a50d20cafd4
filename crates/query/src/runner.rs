//! Workload execution and method comparison.
//!
//! The paper's evaluation runs the *same* query sequence under different
//! methods — exact adaptive indexing vs. partial adaptation at 1 % and 5 %
//! error bounds — each starting from a freshly initialized index, and
//! compares per-query evaluation time and objects read. [`compare_methods`]
//! reproduces exactly that protocol.

use std::time::Duration;

use pai_common::{AggregateValue, IoSnapshot, LatencyHistogram, PaiError, Result};
use pai_core::{ApproximateEngine, EngineConfig};
use pai_index::eval::QueryStats;
use pai_index::init::{build, InitConfig};
use pai_index::ExactEngine;
use pai_storage::raw::RawFile;

use crate::workload::Workload;

/// An evaluation method in the paper's sense.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Method {
    /// Exact adaptive indexing (processes every partial tile).
    Exact,
    /// Partial adaptation under accuracy constraint φ.
    Approx { phi: f64 },
}

impl Method {
    /// Human label, e.g. `exact` / `phi=5%`.
    pub fn label(&self) -> String {
        match self {
            Method::Exact => "exact".into(),
            Method::Approx { phi } => format!("phi={}%", phi * 100.0),
        }
    }
}

/// Per-query measurements (one row of the Figure 2 data).
#[derive(Debug, Clone)]
pub struct QueryRecord {
    pub query_index: usize,
    pub elapsed: Duration,
    /// The query's I/O: every meter's delta over the evaluation (gauges
    /// keep their level when the query finished; see
    /// `pai_common::counters`).
    pub io: IoSnapshot,
    /// Time spent waiting on index locks (zero for single-owner engines).
    pub lock_wait: Duration,
    /// Bytes an exact (`φ = 0`) evaluation of this query was *predicted*
    /// to read, from zone maps + classification before evaluation. Exact
    /// object pricing on fixed-stride backends; mean-row/mean-block
    /// pricing elsewhere (the cost-estimate gate pins how tightly it
    /// tracks the metered `bytes_read` per backend).
    pub predicted_bytes: u64,
    pub selected: u64,
    pub tiles_partial: usize,
    pub tiles_processed: usize,
    pub tiles_split: usize,
    /// Reported upper error bound (0 for the exact method).
    pub error_bound: f64,
    /// The aggregate values the method returned.
    pub values: Vec<AggregateValue>,
}

impl QueryRecord {
    /// The record of query `query_index`, evaluated with `stats`.
    fn new(
        query_index: usize,
        stats: QueryStats,
        predicted_bytes: u64,
        error_bound: f64,
        values: Vec<AggregateValue>,
    ) -> Self {
        QueryRecord {
            query_index,
            elapsed: stats.elapsed,
            io: stats.io,
            lock_wait: stats.lock_wait,
            predicted_bytes,
            selected: stats.selected,
            tiles_partial: stats.tiles_partial,
            tiles_processed: stats.tiles_processed,
            tiles_split: stats.tiles_split,
            error_bound,
            values,
        }
    }
}

/// One method's run over a workload.
#[derive(Debug, Clone)]
pub struct MethodRun {
    pub label: String,
    pub method: Method,
    pub init_elapsed: Duration,
    pub records: Vec<QueryRecord>,
}

impl MethodRun {
    pub fn total_elapsed(&self) -> Duration {
        self.records.iter().map(|r| r.elapsed).sum()
    }

    pub fn total_objects_read(&self) -> u64 {
        self.records.iter().map(|r| r.io.objects_read).sum()
    }

    /// Total bytes pulled from the raw file across the run — the meter that
    /// separates storage backends for the same query sequence.
    pub fn total_bytes_read(&self) -> u64 {
        self.records.iter().map(|r| r.io.bytes_read).sum()
    }

    /// Total `read_rows` calls across the run — the meter that separates
    /// batched from tile-at-a-time adaptation for the same query sequence.
    pub fn total_read_calls(&self) -> u64 {
        self.records.iter().map(|r| r.io.read_calls).sum()
    }

    /// Total remote retries across the run.
    pub fn total_retries(&self) -> u64 {
        self.records.iter().map(|r| r.io.retries).sum()
    }

    /// All per-query fetch latency histograms merged into one run-level
    /// distribution — p50/p99 over every transport request the run
    /// issued, regardless of which query issued it.
    pub fn fetch_hist(&self) -> LatencyHistogram {
        let mut h = LatencyHistogram::new();
        for r in &self.records {
            h.merge(&r.io.fetch_hist);
        }
        h
    }

    /// Per-query evaluation times in seconds (the Figure 2 series).
    pub fn time_series_secs(&self) -> Vec<f64> {
        self.records
            .iter()
            .map(|r| r.elapsed.as_secs_f64())
            .collect()
    }

    /// Per-query objects-read series (the paper's cost proxy).
    pub fn objects_series(&self) -> Vec<f64> {
        self.records
            .iter()
            .map(|r| r.io.objects_read as f64)
            .collect()
    }

    /// Per-query bytes-read series (the backend-comparison cost metric).
    pub fn bytes_series(&self) -> Vec<f64> {
        self.records
            .iter()
            .map(|r| r.io.bytes_read as f64)
            .collect()
    }
}

/// Runs `workload` under one method, building a fresh index first.
pub fn run_workload(
    file: &dyn RawFile,
    init_cfg: &InitConfig,
    engine_cfg: &EngineConfig,
    workload: &Workload,
    method: Method,
) -> Result<MethodRun> {
    for q in &workload.queries {
        q.validate(file.schema(), false)?;
    }
    let (index, init_report) = build(file, init_cfg)?;
    let mut records = Vec::with_capacity(workload.len());

    match method {
        Method::Exact => {
            let mut engine = ExactEngine::new(index, file, engine_cfg.adapt.clone())?;
            for (i, q) in workload.queries.iter().enumerate() {
                let predicted = pai_core::predict_query_io(
                    engine.index(),
                    file,
                    &q.window,
                    &q.aggs,
                    engine_cfg,
                )?;
                let res = engine.evaluate(&q.window, &q.aggs)?;
                records.push(QueryRecord::new(
                    i,
                    res.stats,
                    predicted.bytes,
                    0.0,
                    res.values,
                ));
            }
        }
        Method::Approx { phi } => {
            let mut engine = ApproximateEngine::new(index, file, engine_cfg.clone())?;
            for (i, q) in workload.queries.iter().enumerate() {
                let predicted = pai_core::predict_query_io(
                    engine.index(),
                    file,
                    &q.window,
                    &q.aggs,
                    engine_cfg,
                )?;
                let res = engine.evaluate(&q.window, &q.aggs, phi)?;
                if !res.met_constraint {
                    return Err(PaiError::internal(format!(
                        "query {i} failed to meet phi={phi} after exhausting tiles"
                    )));
                }
                records.push(QueryRecord::new(
                    i,
                    res.stats,
                    predicted.bytes,
                    res.error_bound,
                    res.values,
                ));
            }
        }
    }

    Ok(MethodRun {
        label: method.label(),
        method,
        init_elapsed: init_report.elapsed,
        records,
    })
}

/// Runs the workload under every method (fresh index each), in order.
pub fn compare_methods(
    file: &dyn RawFile,
    init_cfg: &InitConfig,
    engine_cfg: &EngineConfig,
    workload: &Workload,
    methods: &[Method],
) -> Result<Vec<MethodRun>> {
    methods
        .iter()
        .map(|&m| run_workload(file, init_cfg, engine_cfg, workload, m))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pai_common::AggregateFunction;
    use pai_index::init::GridSpec;
    use pai_index::MetadataPolicy;
    use pai_storage::{CsvFormat, DatasetSpec};

    fn setup() -> (pai_storage::MemFile, DatasetSpec, InitConfig, Workload) {
        let spec = DatasetSpec {
            rows: 4000,
            columns: 4,
            seed: 99,
            ..Default::default()
        };
        let file = spec.build_mem(CsvFormat::default()).unwrap();
        let init = InitConfig {
            grid: GridSpec::Fixed { nx: 6, ny: 6 },
            domain: Some(spec.domain),
            metadata: MetadataPolicy::AllNumeric,
        };
        let start = Workload::centered_window(&spec.domain, 0.05);
        let wl = Workload::shifted_sequence(
            &spec.domain,
            start,
            12,
            vec![AggregateFunction::Mean(2)],
            5,
        );
        (file, spec, init, wl)
    }

    #[test]
    fn exact_and_approx_runs_complete() {
        let (file, _, init, wl) = setup();
        let cfg = EngineConfig::paper_evaluation();
        let runs = compare_methods(
            &file,
            &init,
            &cfg,
            &wl,
            &[Method::Exact, Method::Approx { phi: 0.05 }],
        )
        .unwrap();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].records.len(), 12);
        assert_eq!(runs[1].records.len(), 12);
        assert_eq!(runs[0].label, "exact");
        assert_eq!(runs[1].label, "phi=5%");
        // Every approximate bound within phi.
        assert!(runs[1].records.iter().all(|r| r.error_bound <= 0.05));
        // The approximate run must not read more than the exact one overall.
        assert!(runs[1].total_objects_read() <= runs[0].total_objects_read());
    }

    #[test]
    fn approx_values_close_to_exact() {
        let (file, _, init, wl) = setup();
        let cfg = EngineConfig::paper_evaluation();
        let runs = compare_methods(
            &file,
            &init,
            &cfg,
            &wl,
            &[Method::Exact, Method::Approx { phi: 0.05 }],
        )
        .unwrap();
        for (e, a) in runs[0].records.iter().zip(&runs[1].records) {
            let (ev, av) = (e.values[0].as_f64().unwrap(), a.values[0].as_f64().unwrap());
            // phi=5% with Estimate normalization: |approx-exact| <= 5% of
            // |approx| (plus float slack).
            assert!(
                (av - ev).abs() <= 0.05 * av.abs() + 1e-9,
                "query {}: approx {av} vs exact {ev}",
                e.query_index
            );
        }
    }

    #[test]
    fn series_helpers() {
        let (file, _, init, wl) = setup();
        let cfg = EngineConfig::paper_evaluation();
        let run = run_workload(&file, &init, &cfg, &wl, Method::Approx { phi: 0.01 }).unwrap();
        assert_eq!(run.time_series_secs().len(), wl.len());
        assert_eq!(run.objects_series().len(), wl.len());
        assert!(run.total_elapsed() > Duration::ZERO);
    }

    #[test]
    fn records_carry_real_meter_bytes() {
        let (file, _, init, wl) = setup();
        file.counters().reset();
        let cfg = EngineConfig::paper_evaluation();
        let run = run_workload(&file, &init, &cfg, &wl, Method::Approx { phi: 0.05 }).unwrap();
        let total = file.counters().snapshot();
        assert_eq!(total.full_scans, 1, "init is the only full scan");
        // Everything the meters saw beyond the init scan is attributed to
        // exactly one query record: per-record bytes are real, not derived.
        assert_eq!(run.total_bytes_read(), total.bytes_read - file.size_bytes());
        assert!(run.total_bytes_read() > 0);
        // Same accounting for objects: the init scan touched every row once.
        assert_eq!(run.total_objects_read(), total.objects_read - 4000);
        assert_eq!(run.bytes_series().len(), wl.len());
    }

    #[test]
    fn filtered_workload_rejected() {
        let (file, _, init, mut wl) = setup();
        wl.queries[0] = wl.queries[0]
            .clone()
            .with_filter(crate::query::Filter::new(3, 0.0, 1.0));
        let cfg = EngineConfig::paper_evaluation();
        assert!(run_workload(&file, &init, &cfg, &wl, Method::Exact).is_err());
    }
}
