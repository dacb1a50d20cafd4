//! Integration tests for the workload/runner/report layer: determinism,
//! trace round-trips through the runner, and the report summary math over
//! real runs.

use pai_query::report::{series_correlation, summarize, to_csv};
use pai_query::{compare_methods, run_workload};
use partial_adaptive_indexing::prelude::*;

fn setup() -> (MemFile, DatasetSpec, InitConfig, Workload) {
    let spec = DatasetSpec {
        rows: 12_000,
        columns: 4,
        seed: 33,
        ..Default::default()
    };
    let file = spec.build_mem(CsvFormat::default()).unwrap();
    let init = InitConfig {
        grid: GridSpec::Fixed { nx: 8, ny: 8 },
        domain: Some(spec.domain),
        metadata: MetadataPolicy::AllNumeric,
    };
    let start = Workload::centered_window(&spec.domain, 0.02);
    let wl =
        Workload::shifted_sequence(&spec.domain, start, 20, vec![AggregateFunction::Mean(2)], 9);
    (file, spec, init, wl)
}

#[test]
fn runs_are_deterministic_in_io() {
    let (file, _, init, wl) = setup();
    let cfg = EngineConfig::paper_evaluation();
    let a = run_workload(&file, &init, &cfg, &wl, Method::Approx { phi: 0.05 }).unwrap();
    let b = run_workload(&file, &init, &cfg, &wl, Method::Approx { phi: 0.05 }).unwrap();
    // Timing differs; logical work must not.
    assert_eq!(a.objects_series(), b.objects_series());
    let splits_a: Vec<usize> = a.records.iter().map(|r| r.tiles_split).collect();
    let splits_b: Vec<usize> = b.records.iter().map(|r| r.tiles_split).collect();
    assert_eq!(splits_a, splits_b);
    for (ra, rb) in a.records.iter().zip(&b.records) {
        assert_eq!(ra.values[0].as_f64(), rb.values[0].as_f64());
        assert_eq!(ra.error_bound, rb.error_bound);
    }
}

#[test]
fn trace_round_trip_preserves_run_behaviour() {
    let (file, _, init, wl) = setup();
    let text = pai_query::trace::to_text(&wl);
    let replayed = pai_query::trace::from_text(&text).unwrap();
    assert_eq!(wl.queries, replayed.queries);

    let cfg = EngineConfig::paper_evaluation();
    let a = run_workload(&file, &init, &cfg, &wl, Method::Approx { phi: 0.05 }).unwrap();
    let b = run_workload(&file, &init, &cfg, &replayed, Method::Approx { phi: 0.05 }).unwrap();
    assert_eq!(a.objects_series(), b.objects_series());
}

#[test]
fn summary_and_csv_over_real_runs() {
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

    let csv = to_csv(&runs);
    assert_eq!(csv.lines().count(), wl.len() + 1);
    assert!(csv.starts_with(
        "query,exact_time_ms,exact_objects,exact_bytes,exact_read_calls,exact_blocks_read,\
         exact_blocks_skipped,exact_http_requests,exact_http_bytes,exact_retries,\
         exact_fetch_inflight_peak,exact_overlap_ratio,exact_parts_resized,\
         exact_fetch_p50_us,exact_fetch_p99_us,\
         exact_cache_hits,exact_cache_misses,exact_cache_evictions,exact_cache_spill_bytes,\
         exact_cache_mem_bytes,exact_synopsis_hits,exact_synopsis_blocks,exact_synopsis_bytes,\
         exact_rows_ingested,exact_delta_blocks,exact_compactions,\
         exact_blocks_rewritten,exact_cache_invalidations,\
         exact_predicted_bytes,exact_lock_wait_ms,phi=5%_time_ms,phi=5%_objects,\
         phi=5%_bytes,phi=5%_read_calls,phi=5%_blocks_read,phi=5%_blocks_skipped,\
         phi=5%_http_requests,phi=5%_http_bytes,phi=5%_retries,phi=5%_fetch_inflight_peak,\
         phi=5%_overlap_ratio,phi=5%_parts_resized,phi=5%_fetch_p50_us,phi=5%_fetch_p99_us,\
         phi=5%_cache_hits,phi=5%_cache_misses,phi=5%_cache_evictions,phi=5%_cache_spill_bytes,\
         phi=5%_cache_mem_bytes,phi=5%_synopsis_hits,phi=5%_synopsis_blocks,\
         phi=5%_synopsis_bytes,phi=5%_rows_ingested,phi=5%_delta_blocks,phi=5%_compactions,\
         phi=5%_blocks_rewritten,phi=5%_cache_invalidations,\
         phi=5%_predicted_bytes,phi=5%_lock_wait_ms"
    ));

    // predicted_bytes tracks the exact run's metered bytes. On a CSV
    // backend the prediction prices objects at the file's *mean* row
    // length, so allow a small relative tolerance for row-length variance
    // (the cost-estimate gate pins per-backend tolerances properly).
    for rec in &runs[0].records {
        let (p, m) = (rec.predicted_bytes as f64, rec.io.bytes_read as f64);
        assert!(
            (p - m).abs() <= 0.02 * m + 64.0,
            "query {}: predicted {} vs metered {}",
            rec.query_index,
            rec.predicted_bytes,
            rec.io.bytes_read
        );
    }

    let summary = summarize(&runs[0], &runs[1], 10);
    assert!(
        summary.objects_ratio <= 1.0,
        "approx reads at most what exact reads"
    );
    assert!(
        summary.bytes_ratio <= 1.0,
        "fewer objects on the same backend means fewer bytes"
    );
    assert!(summary.overall_speedup > 0.0);
    assert_eq!(summary.focus_query, 10);

    // The paper's C3 claim direction: evaluation time correlates with
    // objects read for the exact method on a fresh index.
    let corr = series_correlation(&runs[0].time_series_secs(), &runs[0].objects_series());
    if let Some(c) = corr {
        assert!(c > 0.0, "time should move with I/O, got {c}");
    }
}

#[test]
fn zoom_and_jump_workloads_complete_under_all_methods() {
    let (file, spec, init, _) = setup();
    let cfg = EngineConfig::paper_evaluation();
    let aggs = vec![AggregateFunction::Sum(2), AggregateFunction::Count];
    for wl in [
        Workload::zoom_sequence(&spec.domain, 8, 0.6, aggs.clone()),
        Workload::random_jumps(&spec.domain, 8, 0.01, aggs.clone(), 4),
        Workload::dense_focus(
            &spec.domain,
            &[(250.0, 250.0), (750.0, 750.0)],
            8,
            0.01,
            aggs,
        ),
    ] {
        let runs = compare_methods(
            &file,
            &init,
            &cfg,
            &wl,
            &[Method::Exact, Method::Approx { phi: 0.05 }],
        )
        .unwrap();
        assert_eq!(runs[0].records.len(), wl.len(), "{}", wl.name);
        assert_eq!(runs[1].records.len(), wl.len(), "{}", wl.name);
        assert!(runs[1]
            .records
            .iter()
            .all(|r| r.error_bound <= 0.05 + 1e-12));
    }
}

#[test]
fn eager_refinement_improves_later_queries() {
    let (file, _, init, wl) = setup();
    let lazy_cfg = EngineConfig::paper_evaluation();
    let eager_cfg = EngineConfig {
        eager: EagerRefinement::ExtraTiles(4),
        ..EngineConfig::paper_evaluation()
    };
    let lazy = run_workload(&file, &init, &lazy_cfg, &wl, Method::Approx { phi: 0.05 }).unwrap();
    let eager = run_workload(&file, &init, &eager_cfg, &wl, Method::Approx { phi: 0.05 }).unwrap();
    // Eager refinement front-loads I/O; by the tail of the sequence the
    // per-query bounds should be no worse on average.
    let tail = wl.len() / 2;
    let mean = |run: &pai_query::MethodRun| {
        run.records[tail..]
            .iter()
            .map(|r| r.error_bound)
            .sum::<f64>()
            / (wl.len() - tail) as f64
    };
    assert!(
        mean(&eager) <= mean(&lazy) + 1e-12,
        "eager tail bounds {} vs lazy {}",
        mean(&eager),
        mean(&lazy)
    );
}
