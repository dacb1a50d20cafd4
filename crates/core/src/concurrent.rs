//! Concurrent access to one shared adaptive index.
//!
//! An exploration dashboard typically renders several linked views at once
//! (map window, heatmap, summary panel) while the user keeps interacting.
//! [`SharedIndex`] supports that pattern with a `parking_lot` read-write
//! lock and the **plan → fetch → apply** pipeline:
//!
//! * any number of **readers** run [`SharedIndex::estimate`] concurrently —
//!   metadata-only answers with confidence intervals, zero file I/O;
//! * **adaptive queries** ([`SharedIndex::evaluate`]) never hold a lock
//!   across file I/O. Each refinement round
//!   1. *plans* under the **read lock**: classifies the window, selects a
//!      batch of candidate tiles, and computes their pure refinement plans
//!      (entry snapshots + locators) — readers keep running;
//!   2. *fetches* the batched values with **no lock held** — the expensive
//!      stage, and the one that used to stall every reader. With
//!      `fetch_workers > 1` the batch's fetch units stream in overlapped,
//!      each unit's plans applying while later units are still in flight;
//!   3. *applies* each plan under **its own short write lock** with an
//!      optimistic version check ([`pai_index::still_applies`]) at that
//!      plan's apply moment: if the index changed underneath a plan
//!      (another writer split the tile), the plan is discarded and the
//!      affected region re-plans from the refined children on the next
//!      round. Answers stay sound either way; the conflicted fetch is the
//!      price of optimism, bounded by one batch per losing writer and
//!      surfaced in the stats. Per-plan locks mean readers interleave
//!      between every apply — no reader ever waits behind a whole batch.
//!
//! Lock-wait time and plan conflicts are surfaced in
//! [`QueryStats::lock_wait`] / [`QueryStats::plan_conflicts`] so dashboards
//! can watch contention. [`SharedIndex::evaluate_locked`] retains the
//! pre-pipeline behaviour (write lock across the whole query) as the
//! sequential-consistency baseline the concurrency benchmarks compare
//! against.
//!
//! The raw file itself needs no locking: [`RawFile`] implementations open
//! independent handles per batch and their meters are atomic.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use pai_common::geometry::{Point2, Rect};
use pai_common::{AggregateFunction, PaiError, Result, RunningStats};
use pai_index::eval::{query_attrs, QueryStats};
use pai_index::{apply_enrich, apply_plan, still_applies, ObjectEntry, TileId, ValinorIndex};
use pai_storage::raw::{AppendReceipt, RawFile};
use parking_lot::RwLock;

use crate::config::{validate_phi, EngineConfig};
use crate::engine::{
    assess, candidate_views, estimate_readonly, evaluate_on, fetch_plans_each, plan_candidate,
    synopsis_hit, ApproxResult, BatchPlan,
};
use crate::state::QueryState;

/// A thread-safe wrapper around one index + raw file + engine config.
pub struct SharedIndex<F: RawFile> {
    index: RwLock<ValinorIndex>,
    file: F,
    config: EngineConfig,
}

impl<F: RawFile> SharedIndex<F> {
    pub fn new(index: ValinorIndex, file: F, config: EngineConfig) -> Result<Self> {
        config.validate()?;
        Ok(SharedIndex {
            index: RwLock::new(index),
            file,
            config,
        })
    }

    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    pub fn file(&self) -> &F {
        &self.file
    }

    /// Metadata-only estimate under a read lock: any number of these run in
    /// parallel, never touch the file, never mutate the index — and, since
    /// adaptive writers only take the write lock for the brief apply stage,
    /// they are never blocked behind a writer's file I/O either.
    pub fn estimate(&self, window: &Rect, aggs: &[AggregateFunction]) -> Result<ApproxResult> {
        let t0 = Instant::now();
        let index = self.index.read();
        let wait = t0.elapsed();
        let mut res = estimate_readonly(&index, &self.config, window, aggs)?;
        res.stats.lock_wait = wait;
        Ok(res)
    }

    /// Zero-I/O answer composed purely from the backend's block synopses,
    /// under a read lock: never touches the data path, never adapts the
    /// index, ticks only the synopsis meters. `Ok(None)` when the backend
    /// carries no synopses or they cannot bound some requested aggregate.
    /// Works regardless of [`EngineConfig::synopsis`] — the flag gates the
    /// *adaptive* paths' automatic synopsis-first attempt, while this
    /// method is the explicit reader entry point (dashboard panels, the
    /// concurrent stress harness).
    pub fn estimate_synopsis(
        &self,
        window: &Rect,
        aggs: &[AggregateFunction],
    ) -> Result<Option<ApproxResult>> {
        let t0 = Instant::now();
        let io0 = self.file.counters().snapshot();
        query_attrs(self.file.schema(), aggs)?;
        let Some(blocks) = self.file.block_synopses() else {
            return Ok(None);
        };
        let lw = Instant::now();
        let index = self.index.read();
        let wait = lw.elapsed();
        let classification = index.classify(window);
        let Some(hit) = synopsis_hit(
            &index,
            &self.file,
            &self.config,
            blocks,
            window,
            aggs,
            classification.selected_total,
            f64::INFINITY,
        ) else {
            return Ok(None);
        };
        let stats = QueryStats {
            selected: classification.selected_total,
            tiles_full: classification.full.len(),
            tiles_partial: classification.partial.len(),
            io: self.file.counters().snapshot().since(&io0),
            elapsed: t0.elapsed(),
            lock_wait: wait,
            ..Default::default()
        };
        Ok(Some(ApproxResult { stats, ..hit }))
    }

    /// Accuracy-constrained evaluation through the non-blocking pipeline;
    /// adapts the shared index so every subsequent reader starts tighter.
    ///
    /// Readers are never blocked by this method's file I/O: locks are held
    /// only for pure planning (read lock) and the in-memory apply (write
    /// lock). Concurrent writers may refine the same region; plans whose
    /// tile changed underneath them are detected by an index version check
    /// and discarded (counted in `QueryStats::plan_conflicts`), and the
    /// affected region re-plans against the winner's refined tiles on the
    /// next round.
    ///
    /// Every plan a round fetched is applied, even when the bound meets φ
    /// part-way through the batch; the stop rule is checked once per round.
    /// [`crate::ApproximateEngine::evaluate`] instead drops the plans past
    /// its stop point, so with `adapt_batch > 1` this path can process more
    /// tiles per query. That is deliberate: the fetch is already paid, and
    /// the extra applies refine the shared index for every later query. On
    /// the `serve-ingest` benchmark workload (seed 1, a 2-core machine),
    /// stopping mid-batch here cut `leaf_count` from 3984 to 2846 and
    /// raised objects read per query from 12.5k to 17.5k and query p50
    /// from 1.03 to 1.79 ms. A merged adaptation loop must keep this rule
    /// or re-measure that workload.
    ///
    /// The per-round state rebuild means the exact float merge order can
    /// differ in the last ulp from [`crate::ApproximateEngine::evaluate`];
    /// the confidence intervals remain sound bounds either way.
    pub fn evaluate(
        &self,
        window: &Rect,
        aggs: &[AggregateFunction],
        phi: f64,
    ) -> Result<ApproxResult> {
        validate_phi(phi)?;
        let t0 = Instant::now();
        let io0 = self.file.counters().snapshot();
        let attrs = query_attrs(self.file.schema(), aggs)?;
        let config = &self.config;

        let mut lock_wait = Duration::ZERO;
        let mut plan_conflicts = 0usize;

        // Synopsis-first: seed metadata-free cold starts (brief write lock,
        // only when some attribute has no global bounds) and try a zero-I/O
        // answer under the read lock before entering the adaptation loop.
        if config.synopsis {
            if let Some(blocks) = self.file.block_synopses() {
                let need_seed = {
                    let index = self.index.read();
                    attrs.iter().any(|&a| index.global_bounds(a).is_none())
                };
                if need_seed {
                    let lw = Instant::now();
                    let mut index = self.index.write();
                    lock_wait += lw.elapsed();
                    crate::synopsis::seed_missing_global_bounds(&mut index, blocks, &attrs);
                }
                let lw = Instant::now();
                let index = self.index.read();
                lock_wait += lw.elapsed();
                let classification = index.classify(window);
                if let Some(hit) = synopsis_hit(
                    &index,
                    &self.file,
                    config,
                    blocks,
                    window,
                    aggs,
                    classification.selected_total,
                    phi,
                ) {
                    let stats = QueryStats {
                        selected: classification.selected_total,
                        tiles_full: classification.full.len(),
                        tiles_partial: classification.partial.len(),
                        io: self.file.counters().snapshot().since(&io0),
                        elapsed: t0.elapsed(),
                        lock_wait,
                        ..Default::default()
                    };
                    return Ok(ApproxResult { stats, ..hit });
                }
            }
        }
        // In-window stats of partial tiles this query already processed,
        // keyed by tile. Rebuilding the state from a fresh snapshot each
        // round folds these instead of re-reading (tile ids are never
        // reused, so stale keys are merely ignored).
        let mut resolved: HashMap<TileId, Vec<RunningStats>> = HashMap::new();
        let mut step = 0usize;
        let (mut tiles_processed, mut tiles_split, mut tiles_enriched) = (0usize, 0usize, 0usize);
        // Initial-classification shape, captured on the first round so the
        // reported stats mean the same thing as the sequential engine's
        // (what the query *found*, not what it left behind).
        let mut initial_shape: Option<(u64, usize, usize)> = None;

        loop {
            // ---- Stage 1: plan under the read lock (pure). ----
            let lw = Instant::now();
            let index = self.index.read();
            lock_wait += lw.elapsed();
            let classification = index.classify(window);
            let (selected, tiles_full, tiles_partial) = *initial_shape.get_or_insert((
                classification.selected_total,
                classification.full.len(),
                classification.partial.len(),
            ));
            let state = QueryState::from_classification_resolved(
                &index,
                &classification,
                &attrs,
                &resolved,
            )?;
            let (estimates, bound) = assess(config, aggs, &state);
            if state.candidates.is_empty() || bound <= phi {
                let met_constraint = bound <= phi;
                let (values, cis) = estimates.into_iter().map(|e| (e.value, e.ci)).unzip();
                let stats = QueryStats {
                    selected,
                    tiles_full,
                    tiles_partial,
                    tiles_processed,
                    tiles_split,
                    tiles_enriched,
                    io: self.file.counters().snapshot().since(&io0),
                    elapsed: t0.elapsed(),
                    lock_wait,
                    plan_conflicts,
                };
                return Ok(ApproxResult {
                    values,
                    cis,
                    error_bound: bound,
                    phi,
                    met_constraint,
                    stats,
                });
            }
            let picks = config.policy.pick_batch(
                state.candidates.len(),
                step,
                config.adapt_batch,
                |alive| candidate_views(&index, config, aggs, &state, alive),
            );
            let plans: Vec<BatchPlan> = picks
                .iter()
                .map(|&p| plan_candidate(&index, &state.candidates[p], window, &attrs, config))
                .collect::<Result<_>>()?;
            drop(index);

            // ---- Stages 2 + 3, overlapped: fetch with no lock held, apply
            // each plan under its own short write lock as its fetch unit
            // lands (later units may still be in flight). Readers — and
            // competing writers' apply stages — interleave between every
            // apply, so no one ever waits behind this writer's I/O *or*
            // behind the rest of its batch. The optimistic version check
            // runs per plan, against the index as it is at that plan's
            // apply moment: a fast path when nothing changed since
            // planning, a slow path while the tile is still a leaf (leaf
            // entries never change except by splitting the leaf).
            fetch_plans_each(&self.file, &plans, window, config, |i, values| {
                let plan = &plans[i];
                let lw = Instant::now();
                let mut index = self.index.write();
                lock_wait += lw.elapsed();
                if still_applies(&index, plan.tile(), plan.planned_version()) {
                    match plan {
                        BatchPlan::Partial(p) => {
                            let out = apply_plan(&mut index, p, window, &config.adapt, values)?;
                            tiles_split += usize::from(out.did_split);
                            resolved.insert(p.tile, out.in_window);
                            tiles_processed += 1;
                        }
                        BatchPlan::Enrich(p) => {
                            apply_enrich(&mut index, p, values)?;
                            tiles_processed += 1;
                            tiles_enriched += 1;
                        }
                    }
                } else {
                    // Concurrently split: the other writer already refined
                    // this tile, so discard the plan — its id never
                    // classifies again (children carry new ids), and the
                    // region re-plans from the refined children next round.
                    // The conflicted fetch is the price of optimism,
                    // bounded by one batch per losing writer.
                    plan_conflicts += 1;
                }
                step += 1;
                Ok(())
            })?;
        }
    }

    /// Accuracy-constrained evaluation holding the **write lock for the
    /// whole query** — the pre-pipeline behaviour, preserved as the strict
    /// sequential baseline. Readers stall for the full evaluation,
    /// including all file I/O; `concurrent_bench` measures exactly that
    /// difference. Use [`SharedIndex::evaluate`] unless you need the
    /// single-owner engine's byte-for-byte trajectory on a shared index.
    pub fn evaluate_locked(
        &self,
        window: &Rect,
        aggs: &[AggregateFunction],
        phi: f64,
    ) -> Result<ApproxResult> {
        let lw = Instant::now();
        let mut index = self.index.write();
        let wait = lw.elapsed();
        let mut res = evaluate_on(&mut index, &self.file, &self.config, window, aggs, phi)?;
        res.stats.lock_wait = wait;
        Ok(res)
    }

    /// Streaming ingest through the same plan → fetch → apply discipline
    /// as queries: the batch appends to the raw file with **no lock held**
    /// (the backend has its own append latching), then the new entries
    /// extend the index under one short write lock. Readers observe either
    /// none or all of the batch; adaptive writers racing this method are
    /// protected by the same version counter their plans already check.
    ///
    /// The whole batch is validated against the index domain *before* any
    /// mutation, so a rejected batch neither appends nor indexes — callers
    /// can retry or drop it without tearing state. Entries are indexed in
    /// append order, which keeps a streamed session's index trajectory
    /// identical to one built statically from the same base+appended rows.
    pub fn ingest(&self, rows: &[Vec<f64>]) -> Result<AppendReceipt> {
        let schema = self.file.schema();
        let (ax, ay) = (schema.x_axis(), schema.y_axis());
        {
            let index = self.index.read();
            for (i, row) in rows.iter().enumerate() {
                if row.len() != schema.len() {
                    return Err(PaiError::config(format!(
                        "ingest row {i} has {} values, schema has {} columns",
                        row.len(),
                        schema.len()
                    )));
                }
                let p = Point2::new(row[ax], row[ay]);
                if index.leaf_for_point(p).is_none() {
                    return Err(PaiError::config(format!(
                        "ingest row {i} at ({}, {}) lies outside the index domain {}",
                        p.x,
                        p.y,
                        index.domain()
                    )));
                }
            }
        }
        let receipt = self.file.append_rows(rows)?;
        let mut index = self.index.write();
        for (row, &locator) in rows.iter().zip(receipt.locators.iter()) {
            index.ingest_entry(ObjectEntry::new(row[ax], row[ay], locator), row)?;
        }
        Ok(receipt)
    }

    /// Runs a closure against a read-locked snapshot of the index (for
    /// analytics like `pai_query::analytics::heatmap`).
    pub fn with_index<R>(&self, f: impl FnOnce(&ValinorIndex) -> R) -> R {
        f(&self.index.read())
    }

    /// Consumes the wrapper, returning the index.
    pub fn into_index(self) -> ValinorIndex {
        self.index.into_inner()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pai_index::init::{build, GridSpec, InitConfig};
    use pai_index::MetadataPolicy;
    use pai_storage::ground_truth::window_truth;
    use pai_storage::{CsvFormat, DatasetSpec, MemFile};
    use std::sync::Arc;

    fn shared_with(rows: u64, config: EngineConfig) -> (Arc<SharedIndex<MemFile>>, DatasetSpec) {
        let spec = DatasetSpec {
            rows,
            columns: 4,
            seed: 71,
            ..Default::default()
        };
        let file = spec.build_mem(CsvFormat::default()).unwrap();
        let init = InitConfig {
            grid: GridSpec::Fixed { nx: 6, ny: 6 },
            domain: Some(spec.domain),
            metadata: MetadataPolicy::AllNumeric,
        };
        let (index, _) = build(&file, &init).unwrap();
        (
            Arc::new(SharedIndex::new(index, file, config).unwrap()),
            spec,
        )
    }

    fn shared(rows: u64) -> (Arc<SharedIndex<MemFile>>, DatasetSpec) {
        shared_with(rows, EngineConfig::paper_evaluation())
    }

    #[test]
    fn estimates_run_without_io() {
        let (shared, _) = shared(2000);
        shared.file().counters().reset();
        let res = shared
            .estimate(
                &Rect::new(100.0, 500.0, 100.0, 500.0),
                &[AggregateFunction::Mean(2)],
            )
            .unwrap();
        assert_eq!(shared.file().counters().objects_read(), 0);
        assert!(res.error_bound.is_finite());
    }

    #[test]
    fn evaluate_adapts_shared_state_for_readers() {
        let (shared, _) = shared(3000);
        let window = Rect::new(150.0, 600.0, 150.0, 600.0);
        let aggs = [AggregateFunction::Mean(2)];
        let before = shared.estimate(&window, &aggs).unwrap();
        shared.evaluate(&window, &aggs, 0.01).unwrap();
        let after = shared.estimate(&window, &aggs).unwrap();
        assert!(
            after.error_bound <= before.error_bound + 1e-12,
            "adaptation tightens reader estimates: {} -> {}",
            before.error_bound,
            after.error_bound
        );
    }

    #[test]
    fn pipelined_evaluate_is_sound_and_meets_phi() {
        let (shared, _) = shared(4000);
        let window = Rect::new(150.0, 650.0, 200.0, 700.0);
        let aggs = [AggregateFunction::Sum(2), AggregateFunction::Mean(2)];
        let res = shared.evaluate(&window, &aggs, 0.05).unwrap();
        assert!(res.met_constraint);
        assert!(res.error_bound <= 0.05);
        let truth = window_truth(shared.file(), &window, &[2]).unwrap();
        assert!(
            res.cis[0].unwrap().contains(truth[0].stats.sum()),
            "sum CI {} must contain truth {}",
            res.cis[0].unwrap(),
            truth[0].stats.sum()
        );
        assert!(res.cis[1].unwrap().contains(truth[0].stats.mean().unwrap()));
        shared.with_index(|idx| idx.validate_invariants().unwrap());
    }

    #[test]
    fn pipelined_exact_matches_locked_exact() {
        // phi = 0 fully resolves every tile under both protocols, so the
        // values must agree to float-merge tolerance.
        let (a, _) = shared(2500);
        let (b, _) = shared(2500);
        let window = Rect::new(120.0, 640.0, 120.0, 640.0);
        let aggs = [AggregateFunction::Sum(3), AggregateFunction::Count];
        let ra = a.evaluate(&window, &aggs, 0.0).unwrap();
        let rb = b.evaluate_locked(&window, &aggs, 0.0).unwrap();
        assert_eq!(ra.error_bound, 0.0);
        assert_eq!(rb.error_bound, 0.0);
        let (x, y) = (
            ra.values[0].as_f64().unwrap(),
            rb.values[0].as_f64().unwrap(),
        );
        assert!((x - y).abs() <= 1e-9 * (1.0 + y.abs()), "{x} vs {y}");
        assert_eq!(ra.values[1].as_f64(), rb.values[1].as_f64());
    }

    #[test]
    fn repeated_pipelined_query_needs_no_io() {
        let (shared, _) = shared(3000);
        let window = Rect::new(100.0, 500.0, 100.0, 500.0);
        let aggs = [AggregateFunction::Mean(2)];
        let r1 = shared.evaluate(&window, &aggs, 0.0).unwrap();
        assert!(r1.stats.io.objects_read > 0, "first pass adapts");
        let r2 = shared.evaluate(&window, &aggs, 0.0).unwrap();
        assert!(
            r2.stats.io.objects_read < r1.stats.io.objects_read,
            "adaptation persisted: the repeat is cheaper ({} vs {})",
            r2.stats.io.objects_read,
            r1.stats.io.objects_read
        );
        assert_eq!(r2.stats.plan_conflicts, 0, "single writer never conflicts");
    }

    #[test]
    fn concurrent_readers_and_writers() {
        let (shared, spec) = shared(5000);
        let domain = spec.domain;
        std::thread::scope(|s| {
            // Writers: adaptive queries walking across the domain.
            for t in 0..2 {
                let shared = Arc::clone(&shared);
                s.spawn(move || {
                    for i in 0..8 {
                        let off = (t * 50 + i * 40) as f64;
                        let w = Rect::new(100.0 + off, 400.0 + off, 100.0 + off, 400.0 + off)
                            .clamped_into(&domain);
                        let res = shared
                            .evaluate(&w, &[AggregateFunction::Sum(2)], 0.05)
                            .unwrap();
                        assert!(res.met_constraint);
                    }
                });
            }
            // Readers: concurrent metadata estimates.
            for _ in 0..4 {
                let shared = Arc::clone(&shared);
                s.spawn(move || {
                    for i in 0..20 {
                        let off = (i * 17 % 500) as f64;
                        let w = Rect::new(off, off + 300.0, off, off + 300.0).clamped_into(&domain);
                        let res = shared.estimate(&w, &[AggregateFunction::Mean(2)]).unwrap();
                        assert!(res.error_bound >= 0.0);
                    }
                });
            }
        });
        shared.with_index(|idx| idx.validate_invariants().unwrap());
    }

    #[test]
    fn batched_shared_evaluate_is_sound() {
        let (shared, _) = shared_with(
            4000,
            EngineConfig {
                adapt_batch: 6,
                ..EngineConfig::paper_evaluation()
            },
        );
        let window = Rect::new(180.0, 700.0, 150.0, 620.0);
        let aggs = [AggregateFunction::Sum(2)];
        let res = shared.evaluate(&window, &aggs, 0.02).unwrap();
        assert!(res.met_constraint);
        let truth = window_truth(shared.file(), &window, &[2]).unwrap();
        // Fully-resolved answers give point CIs whose float merge order can
        // differ from the sequential scan's; compare with endpoint slack
        // (same tolerance the I/O-budget engine test uses).
        let ci = res.cis[0].unwrap();
        let t = truth[0].stats.sum();
        assert!(
            ci.contains(t)
                || (t - ci.lo()).abs() < 1e-9 * (1.0 + ci.lo().abs())
                || (t - ci.hi()).abs() < 1e-9 * (1.0 + ci.hi().abs()),
            "truth {t} escaped CI {ci}"
        );
        shared.with_index(|idx| idx.validate_invariants().unwrap());
    }

    #[test]
    fn shared_evaluate_applies_every_fetched_plan() {
        // The owned loop stops mid-batch once the bound meets phi; the
        // shared loop applies every plan its round fetched. Same file,
        // same starting index, same batch size: where a batch overshoots
        // phi, the shared path processes strictly more tiles.
        let config = EngineConfig {
            adapt_batch: 8,
            ..EngineConfig::paper_evaluation()
        };
        let (shared, _) = shared_with(4000, config.clone());
        let index = shared.with_index(|idx| idx.clone());
        let mut owned = crate::ApproximateEngine::new(index, shared.file(), config).unwrap();
        let window = Rect::new(150.0, 650.0, 200.0, 700.0);
        let aggs = [AggregateFunction::Sum(2)];
        let phi = 0.05;
        let a = owned.evaluate(&window, &aggs, phi).unwrap();
        let b = shared.evaluate(&window, &aggs, phi).unwrap();
        assert!(a.met_constraint && b.met_constraint);
        assert_eq!(b.stats.plan_conflicts, 0, "single writer never conflicts");
        assert!(
            b.stats.tiles_processed > a.stats.tiles_processed,
            "shared {} vs owned {} tiles: the batch must overshoot phi",
            b.stats.tiles_processed,
            a.stats.tiles_processed
        );
    }

    #[test]
    fn with_index_supports_analytics_snapshots() {
        let (shared, _) = shared(1000);
        let leaves = shared.with_index(|idx| idx.leaf_count());
        assert!(leaves >= 36);
    }
}
