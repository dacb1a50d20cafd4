//! A multi-view "dashboard" over one shared adaptive index:
//!
//! * a UI thread runs accuracy-constrained queries (the user's brush),
//! * linked views run concurrent metadata-only estimates (no file I/O),
//! * a latency-sensitive widget uses the **I/O-budget** mode — the dual of
//!   the paper's problem: fix the cost, report the best bound achieved,
//! * and a progressive renderer replays the per-tile convergence trace.
//!
//! Run with:
//! ```text
//! cargo run --release --example dashboard
//! ```

use std::sync::Arc;

use pai_core::SharedIndex;
use partial_adaptive_indexing::prelude::*;

fn main() -> Result<()> {
    let spec = DatasetSpec {
        rows: 150_000,
        columns: 6,
        seed: 5,
        // Clustered storage + the zone-mapped compressed backend: the
        // dashboard's meters show blocks read and blocks skipped live.
        order: RowOrder::ZOrder,
        ..Default::default()
    };
    let file = spec.build_zone_mem()?;
    let init = InitConfig {
        grid: GridSpec::Fixed { nx: 12, ny: 12 },
        domain: Some(spec.domain),
        metadata: MetadataPolicy::AllNumeric,
    };
    let (index, _) = build(&file, &init)?;

    // --- shared index: one writer, several reader views ---------------------
    // Batched pipeline: 4 tiles per plan→fetch→apply round, so the brush
    // coalesces its reads while linked views keep rendering during its I/O.
    let shared = Arc::new(SharedIndex::new(
        index,
        file.clone(),
        EngineConfig {
            adapt_batch: 4,
            ..EngineConfig::paper_evaluation()
        },
    )?);
    let domain = spec.domain;

    println!("-- concurrent dashboard: 1 brushing thread + 3 linked views --");
    std::thread::scope(|s| {
        let brush = Arc::clone(&shared);
        s.spawn(move || {
            let mut w = Rect::new(200.0, 400.0, 200.0, 400.0);
            for i in 0..6 {
                w = w.shifted(40.0, 25.0).clamped_into(&domain);
                let res = brush
                    .evaluate(&w, &[AggregateFunction::Mean(2)], 0.02)
                    .expect("brush query");
                println!(
                    "  [brush {i}] mean {}  bound {:.3}%  {} objects in {} reads / {} blocks  \
                     (lock wait {:?}, {} plan conflicts)",
                    res.values[0],
                    res.error_bound * 100.0,
                    res.stats.io.objects_read,
                    res.stats.io.read_calls,
                    res.stats.io.blocks_read,
                    res.stats.lock_wait,
                    res.stats.plan_conflicts
                );
            }
        });
        for view in 0..3 {
            let reader = Arc::clone(&shared);
            s.spawn(move || {
                for i in 0..10 {
                    let off = (view * 120 + i * 35) as f64 % 600.0;
                    let w = Rect::new(off, off + 300.0, off, off + 300.0).clamped_into(&domain);
                    let res = reader
                        .estimate(&w, &[AggregateFunction::Mean(2)])
                        .expect("linked view estimate");
                    // Estimates are instantaneous (metadata-only); the view
                    // renders value + uncertainty.
                    assert!(res.stats.io.objects_read == 0);
                }
            });
        }
    });
    let linked_total = shared.with_index(|idx| idx.leaf_count());
    println!("  index now has {linked_total} leaf tiles (adapted by the brush)\n");

    // --- I/O-budget mode: "spend at most 500 object reads" ------------------
    println!("-- latency-first widget: fixed I/O budgets on a fresh index --");
    let (index2, _) = build(&file, &init)?;
    let mut budgeted = ApproximateEngine::new(index2, &file, EngineConfig::paper_evaluation())?;
    let hot = Rect::new(420.0, 620.0, 380.0, 580.0);
    for budget in [0u64, 100, 500, 5_000] {
        let res = budgeted.evaluate_with_io_budget(&hot, &[AggregateFunction::Mean(3)], budget)?;
        println!(
            "  budget {:>5} objects -> read {:>5}, bound {:>7.3}%",
            budget,
            res.stats.io.objects_read,
            res.error_bound * 100.0
        );
    }

    // --- progressive rendering: per-tile convergence trace ------------------
    println!("\n-- progressive convergence of one tight query (phi = 0.5%) --");
    let (index3, _) = build(&file, &init)?;
    let mut tracer = ApproximateEngine::new(index3, &file, EngineConfig::paper_evaluation())?;
    let (res, trace) = tracer.evaluate_traced(&hot, &[AggregateFunction::Mean(3)], 0.005)?;
    for step in trace.iter().take(8) {
        println!(
            "  after {:>2} tiles: estimate {:>9.4}  bound {:>7.3}%  ({} objects, {} blocks)",
            step.tiles_processed,
            step.estimate.unwrap_or(f64::NAN),
            step.error_bound * 100.0,
            step.io.objects_read,
            step.io.blocks_read
        );
    }
    if trace.len() > 8 {
        println!("  ... {} more steps ...", trace.len() - 8);
    }
    println!(
        "  final: {} within ±{:.3}% after {} tiles",
        res.values[0],
        res.error_bound * 100.0,
        res.stats.tiles_processed
    );
    Ok(())
}
