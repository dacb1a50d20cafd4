//! The partial-adaptation engine (§3's method, end to end).
//!
//! Per query: classify tiles, assemble confidence intervals from metadata,
//! and — while the upper error bound exceeds the user's constraint `φ` —
//! process the highest-priority candidate tile and fold its now-exact
//! contribution back in. Every processed tile permanently refines the index
//! (split + metadata), so later queries in the same area start tighter:
//! adaptation is *partial* per query but cumulative across the session.
//!
//! Three evaluation modes share the same loop:
//! * [`ApproximateEngine::evaluate`] — accuracy-constrained (the paper);
//! * [`ApproximateEngine::evaluate_with_io_budget`] — the dual problem:
//!   spend at most a given number of object reads and report the best
//!   achievable bound (interactivity-first, as the paper's introduction
//!   motivates);
//! * [`estimate_readonly`] — metadata only, zero I/O, no adaptation (used
//!   by concurrent readers and overview visualizations).

use std::time::Instant;

use pai_common::geometry::Rect;
use pai_common::{
    AggregateFunction, AggregateValue, AttrId, Interval, IoSnapshot, PaiError, Result, RowLocator,
};
use pai_index::eval::{query_attrs, QueryStats};
use pai_index::{
    apply_enrich, apply_plan, fetch_window, plan_enrich, plan_tile, EnrichPlan, ReadPolicy, TileId,
    TilePlan, ValinorIndex,
};
use pai_storage::batch::read_row_groups;
use pai_storage::raw::{BlockSynopsis, RawFile};

use crate::bound::upper_error_bound;
use crate::ci::{estimate_aggregate, AggregateEstimate};
use crate::config::{validate_phi, EagerRefinement, EngineConfig};
use crate::policy::CandidateView;
use crate::state::{Candidate, CandidateKind, QueryState};

/// One step of a progressive evaluation trace: the state of the answer
/// after `tiles_processed` tiles — what a progressive-visualization client
/// (see the survey line of related work in the paper) would render.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProgressStep {
    /// Tiles processed so far for this query (0 = metadata-only answer).
    pub tiles_processed: usize,
    /// Upper error bound at this point.
    pub error_bound: f64,
    /// Estimate of the first aggregate at this point (`None` when empty).
    pub estimate: Option<f64>,
    /// The query's I/O so far: every meter's delta since the query began
    /// (all zero at the metadata-only step 0; a synopsis hit carries the
    /// I/O of the synopsis answer itself).
    pub io: IoSnapshot,
}

/// Result of one approximate evaluation.
#[derive(Debug, Clone)]
pub struct ApproxResult {
    /// Approximate value per requested aggregate.
    pub values: Vec<AggregateValue>,
    /// Confidence interval per aggregate (`None` for empty selections).
    /// The exact answer is guaranteed to lie inside.
    pub cis: Vec<Option<Interval>>,
    /// Achieved upper error bound (max over aggregates).
    pub error_bound: f64,
    /// The constraint the query ran under (`f64::INFINITY` for budgeted or
    /// read-only evaluations, which impose no accuracy constraint).
    pub phi: f64,
    /// Whether `error_bound <= phi` was reached. Budgeted/read-only
    /// evaluations report `true` vacuously.
    pub met_constraint: bool,
    /// Execution metrics (I/O deltas, tiles processed/split/enriched, time).
    pub stats: QueryStats,
}

/// How long the adaptation loop may keep processing tiles.
enum StopRule {
    /// Until the bound drops to `phi` (the paper's constraint).
    Accuracy { phi: f64 },
    /// Until the next candidate would exceed the remaining object budget.
    IoBudget { remaining: u64 },
}

/// The shared per-query evaluation context: everything the loop needs,
/// borrowed from whichever owner (engine or shared index) drives it.
struct EvalCtx<'a> {
    index: &'a mut ValinorIndex,
    file: &'a dyn RawFile,
    config: &'a EngineConfig,
}

impl EvalCtx<'_> {
    fn run(
        &mut self,
        window: &Rect,
        aggs: &[AggregateFunction],
        mut stop: StopRule,
        mut trace: Option<&mut Vec<ProgressStep>>,
    ) -> Result<ApproxResult> {
        let t0 = Instant::now();
        let io0 = self.file.counters().snapshot();
        let attrs = query_attrs(self.index.schema(), aggs)?;

        let classification = self.index.classify(window);

        // Synopsis-first: before any fetch is planned, try to answer the
        // query from the backend's per-block synopses. Even on a miss the
        // pass seeds global attribute bounds for metadata-free cold starts,
        // which must happen before candidates capture their metadata view.
        if self.config.synopsis {
            if let Some(blocks) = self.file.block_synopses() {
                // The hit step reports the synopsis answer's own I/O, not
                // a lazy synopsis derivation `block_synopses` may have run.
                let io_syn = self.file.counters().snapshot();
                crate::synopsis::seed_missing_global_bounds(self.index, blocks, &attrs);
                if let StopRule::Accuracy { phi } = stop {
                    if let Some(hit) = synopsis_hit(
                        self.index,
                        self.file,
                        self.config,
                        blocks,
                        window,
                        aggs,
                        classification.selected_total,
                        phi,
                    ) {
                        let mut stats = QueryStats {
                            selected: classification.selected_total,
                            tiles_full: classification.full.len(),
                            tiles_partial: classification.partial.len(),
                            ..Default::default()
                        };
                        stats.io = self.file.counters().snapshot().since(&io0);
                        stats.elapsed = t0.elapsed();
                        if let Some(t) = trace.as_deref_mut() {
                            t.push(ProgressStep {
                                tiles_processed: 0,
                                error_bound: hit.error_bound,
                                estimate: hit.values.first().and_then(|v| v.as_f64()),
                                io: self.file.counters().snapshot().since(&io_syn),
                            });
                        }
                        return Ok(ApproxResult { stats, ..hit });
                    }
                }
            }
        }

        let mut state = QueryState::from_classification(self.index, &classification, &attrs)?;
        let mut stats = QueryStats {
            selected: classification.selected_total,
            tiles_full: classification.full.len(),
            tiles_partial: classification.partial.len(),
            ..Default::default()
        };

        // The partial-adaptation loop, pipelined per iteration as
        // plan (pure) → coalesced fetch → apply + re-check.
        let mut step = 0usize;
        let (mut estimates, mut bound) = assess(self.config, aggs, &state);
        if let Some(t) = trace.as_deref_mut() {
            t.push(ProgressStep {
                tiles_processed: 0,
                error_bound: bound,
                estimate: estimates.first().and_then(|e| e.value.as_f64()),
                io: IoSnapshot::default(),
            });
        }
        'outer: loop {
            if state.candidates.is_empty() {
                break;
            }
            // Stage 1 — plan: select the batch the sequential loop would
            // process next and compute each tile's pure refinement plan.
            let picks = match stop {
                StopRule::Accuracy { phi } => {
                    if bound <= phi {
                        break;
                    }
                    let (index, config) = (&*self.index, self.config);
                    config.policy.pick_batch(
                        state.candidates.len(),
                        step,
                        config.adapt_batch,
                        |alive| candidate_views(index, config, aggs, &state, alive),
                    )
                }
                StopRule::IoBudget { ref mut remaining } => {
                    if bound <= 0.0 {
                        break;
                    }
                    // Costs must be re-checked against the shrinking budget
                    // per tile, so budgeted evaluation stays tile-at-a-time.
                    // Among candidates that fit the budget, let the policy
                    // choose; stop when nothing fits.
                    let all: Vec<usize> = (0..state.candidates.len()).collect();
                    let views = candidate_views(self.index, self.config, aggs, &state, &all);
                    let affordable: Vec<usize> = (0..views.len())
                        .filter(|&i| views[i].cost <= *remaining)
                        .collect();
                    if affordable.is_empty() {
                        break;
                    }
                    let sub: Vec<CandidateView> = affordable.iter().map(|&i| views[i]).collect();
                    let chosen = affordable[self.config.policy.pick(&sub, step)];
                    *remaining = remaining.saturating_sub(views[chosen].cost);
                    vec![chosen]
                }
            };
            let plans: Vec<BatchPlan> = picks
                .iter()
                .map(|&p| {
                    plan_candidate(
                        self.index,
                        &state.candidates[p],
                        window,
                        &attrs,
                        self.config,
                    )
                })
                .collect::<Result<_>>()?;

            // Stage 2 + 3 — fetch and apply, overlapped when configured:
            // the batch's fetch units (one coalesced read per distinct
            // attribute set) stream into the apply stage as they complete,
            // and each plan is installed in sequential pick order with the
            // stop rule re-evaluated after every tile. Plans fetched past
            // the stop point are discarded unapplied — and their fetches
            // still run to completion — so the processed-tile trajectory,
            // every answer and CI, and every logical meter are identical to
            // the tile-at-a-time loop at any `fetch_workers` count.
            let file = self.file;
            let mut stopped = false;
            fetch_plans_each(file, &plans, window, self.config, |i, values| {
                if stopped {
                    return Ok(());
                }
                self.apply_one(&mut state, &plans[i], values, window, &mut stats)?;
                step += 1;
                (estimates, bound) = assess(self.config, aggs, &state);
                if let Some(t) = trace.as_deref_mut() {
                    t.push(ProgressStep {
                        tiles_processed: step,
                        error_bound: bound,
                        estimate: estimates.first().and_then(|e| e.value.as_f64()),
                        io: file.counters().snapshot().since(&io0),
                    });
                }
                match stop {
                    StopRule::Accuracy { phi } => {
                        if bound <= phi {
                            stopped = true;
                        }
                    }
                    StopRule::IoBudget { .. } => {
                        if bound <= 0.0 {
                            stopped = true;
                        }
                    }
                }
                Ok(())
            })?;
            if stopped {
                break 'outer;
            }
        }
        let (phi, met_constraint) = match stop {
            StopRule::Accuracy { phi } => (phi, bound <= phi),
            StopRule::IoBudget { .. } => (f64::INFINITY, true),
        };

        // Future-work knob: keep adapting after the constraint is met.
        if let (EagerRefinement::ExtraTiles(extra), true) = (self.config.eager, met_constraint) {
            let mut done = 0;
            while done < extra && !state.candidates.is_empty() {
                let all: Vec<usize> = (0..state.candidates.len()).collect();
                let views = candidate_views(self.index, self.config, aggs, &state, &all);
                let pick = self.config.policy.pick(&views, step);
                self.process_candidate(&mut state, pick, window, &attrs, &mut stats)?;
                step += 1;
                done += 1;
            }
            if done > 0 {
                (estimates, bound) = assess(self.config, aggs, &state);
            }
        }

        stats.io = self.file.counters().snapshot().since(&io0);
        stats.elapsed = t0.elapsed();
        let (values, cis) = estimates.into_iter().map(|e| (e.value, e.ci)).unzip();
        Ok(ApproxResult {
            values,
            cis,
            error_bound: bound,
            phi,
            met_constraint,
            stats,
        })
    }

    /// Processes candidate `pick` as a one-tile batch: partial tiles go
    /// through the paper's `process(t)` (plan + read + split + reorganize +
    /// metadata); full-but-bounded tiles get an enrichment read. Either way
    /// the candidate's contribution becomes exact. Used by the sequential
    /// paths (eager refinement) that pick one tile at a time.
    fn process_candidate(
        &mut self,
        state: &mut QueryState,
        pick: usize,
        window: &Rect,
        attrs: &[usize],
        stats: &mut QueryStats,
    ) -> Result<()> {
        let plan = plan_candidate(
            self.index,
            &state.candidates[pick],
            window,
            attrs,
            self.config,
        )?;
        fetch_plans_each(
            self.file,
            std::slice::from_ref(&plan),
            window,
            self.config,
            |_, values| self.apply_one(state, &plan, values, window, stats),
        )
    }

    /// Applies one fetched plan, folding the now-exact contribution into
    /// the query state.
    fn apply_one(
        &mut self,
        state: &mut QueryState,
        plan: &BatchPlan,
        values: &[Vec<f64>],
        window: &Rect,
        stats: &mut QueryStats,
    ) -> Result<()> {
        let pick = state
            .candidates
            .iter()
            .position(|c| c.tile == plan.tile())
            .ok_or_else(|| PaiError::internal("batch plan names an already-resolved candidate"))?;
        match plan {
            BatchPlan::Partial(p) => {
                let out = apply_plan(self.index, p, window, &self.config.adapt, values)?;
                stats.tiles_processed += 1;
                stats.tiles_split += usize::from(out.did_split);
                state.resolve(pick, &out.in_window);
            }
            BatchPlan::Enrich(p) => {
                apply_enrich(self.index, p, values)?;
                stats.tiles_processed += 1;
                stats.tiles_enriched += 1;
                let exact = p.resolved_stats(values)?;
                state.resolve(pick, &exact);
            }
        }
        Ok(())
    }
}

/// One candidate's refinement plan: either the full `process(t)` of a
/// partially-contained tile or the enrichment read of a fully-contained
/// tile with missing metadata. Both variants are pure plans computed
/// against an immutable index view; `pai-core::concurrent` fetches them
/// without holding any lock.
pub(crate) enum BatchPlan {
    Partial(TilePlan),
    Enrich(EnrichPlan),
}

impl BatchPlan {
    pub(crate) fn tile(&self) -> TileId {
        match self {
            BatchPlan::Partial(p) => p.tile,
            BatchPlan::Enrich(p) => p.tile,
        }
    }

    pub(crate) fn planned_version(&self) -> u64 {
        match self {
            BatchPlan::Partial(p) => p.planned_version,
            BatchPlan::Enrich(p) => p.planned_version,
        }
    }

    fn locators(&self) -> &[RowLocator] {
        match self {
            BatchPlan::Partial(p) => &p.locators,
            BatchPlan::Enrich(p) => &p.locators,
        }
    }

    fn read_attrs(&self) -> &[AttrId] {
        match self {
            BatchPlan::Partial(p) => &p.read_attrs,
            BatchPlan::Enrich(p) => &p.read_attrs,
        }
    }
}

/// Plans the processing of one candidate (pure, `&index`).
pub(crate) fn plan_candidate(
    index: &ValinorIndex,
    cand: &Candidate,
    window: &Rect,
    attrs: &[AttrId],
    config: &EngineConfig,
) -> Result<BatchPlan> {
    Ok(match cand.kind {
        CandidateKind::Partial => {
            BatchPlan::Partial(plan_tile(index, cand.tile, window, attrs, &config.adapt)?)
        }
        CandidateKind::FullBounded => BatchPlan::Enrich(plan_enrich(index, cand.tile, attrs)?),
    })
}

/// The batch's window pushdown hint. The window-only safety rule has one
/// home: `pai_index::fetch_window`. The batch-level extension on top: an
/// all-enrichment batch is safe under any read policy (enrich tiles are
/// fully contained in the window, so every locator is in-window by
/// construction).
fn batch_pushdown<'w>(
    plans: &[BatchPlan],
    window: &'w Rect,
    config: &EngineConfig,
) -> Option<&'w Rect> {
    fetch_window(&config.adapt, window).or_else(|| {
        plans
            .iter()
            .all(|p| matches!(p, BatchPlan::Enrich(_)))
            .then_some(window)
    })
}

/// Groups plan indices by attribute set, preserving first-seen order — one
/// returned unit is one `read_rows` call. COUNT-only style plans (no
/// attributes to read) charge no I/O: their slot in `out` is prefilled with
/// synthesized empty rows and they join no unit.
fn fetch_units<'p>(
    plans: &'p [BatchPlan],
    out: &mut [Option<Vec<Vec<f64>>>],
) -> Vec<(&'p [AttrId], Vec<usize>)> {
    let mut units: Vec<(&[AttrId], Vec<usize>)> = Vec::new();
    for (i, plan) in plans.iter().enumerate() {
        if plan.read_attrs().is_empty() {
            out[i] = Some(vec![Vec::new(); plan.locators().len()]);
            continue;
        }
        match units.iter_mut().find(|(a, _)| *a == plan.read_attrs()) {
            Some((_, members)) => members.push(i),
            None => units.push((plan.read_attrs(), vec![i])),
        }
    }
    units
}

/// Stage 2 + 3 of the pipeline: fetches every plan's locators with as few
/// `read_rows` calls as possible — one coalesced cross-tile call per
/// distinct attribute set (plans with no attributes to read are answered
/// without touching the file) — and invokes `on_plan(i, values)` for each
/// plan **in plan order**, with value rows positionally aligned with the
/// plan's locators. Later fetch units overlap earlier applies when
/// `config.fetch_workers > 1`.
///
/// The query `window` is pushed down to the storage backend when every
/// plan's locator set is provably window-only: enrichment plans always are
/// (their tiles are fully contained in the window), partial-tile plans are
/// under [`ReadPolicy::WindowOnly`] (the default). Under
/// [`ReadPolicy::FullTile`] the hint is withheld — those plans consume
/// out-of-window values for child enrichment, which a zone-map skip would
/// corrupt.
///
/// Equivalence guarantees, at any worker count:
/// * The same fetch units are issued — grouping, pushdown, and the
///   `read_row_groups` call per unit are byte-identical to the sequential
///   path, and units are *claimed* in the sequential issue order — so every
///   logical meter (and, absent adaptive sizing, every transport meter)
///   lands on the same totals.
/// * `on_plan` runs in strict plan order 0, 1, 2, …, so apply-side state,
///   answers, CIs, and trajectories cannot observe fetch completion order.
/// * Every claimed fetch runs to completion before this returns (the
///   channel is drained even after an error or an `on_plan` early-out by
///   the caller's own flag), so an apply-side stop never truncates the
///   batch's I/O differently than the fetch-then-apply path would.
pub(crate) fn fetch_plans_each(
    file: &dyn RawFile,
    plans: &[BatchPlan],
    window: &Rect,
    config: &EngineConfig,
    mut on_plan: impl FnMut(usize, &[Vec<f64>]) -> Result<()>,
) -> Result<()> {
    let pushdown = batch_pushdown(plans, window, config);
    let mut out: Vec<Option<Vec<Vec<f64>>>> = plans.iter().map(|_| None).collect();
    let units = fetch_units(plans, &mut out);
    let workers = config.fetch_workers.min(units.len());
    if workers <= 1 {
        // Sequential: fetch every unit, then apply in plan order — exactly
        // the fetch-then-apply loop this helper generalizes.
        for (attrs, members) in units {
            let locs: Vec<&[RowLocator]> = members.iter().map(|&i| plans[i].locators()).collect();
            let fetched = read_row_groups(file, &locs, attrs, pushdown)?;
            for (i, rows) in members.into_iter().zip(fetched) {
                out[i] = Some(rows);
            }
        }
        for (i, values) in out.iter().enumerate() {
            on_plan(i, values.as_deref().expect("every plan fetched"))?;
        }
        return Ok(());
    }

    // Overlapped: a bounded pool of producer threads claims units in issue
    // order and streams results back; this thread applies plans the moment
    // their unit (and every earlier plan's unit) has landed.
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    let next = AtomicUsize::new(0);
    let units = &units;
    std::thread::scope(|s| {
        let (tx, rx) = mpsc::channel::<(usize, Result<Vec<Vec<Vec<f64>>>>)>();
        for _ in 0..workers {
            let tx = tx.clone();
            let next = &next;
            s.spawn(move || loop {
                let u = next.fetch_add(1, Ordering::Relaxed);
                if u >= units.len() {
                    break;
                }
                let (attrs, members) = &units[u];
                let locs: Vec<&[RowLocator]> =
                    members.iter().map(|&i| plans[i].locators()).collect();
                let res = read_row_groups(file, &locs, attrs, pushdown);
                if tx.send((u, res)).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        let mut first_err: Option<PaiError> = None;
        let mut cursor = 0usize;
        // Exactly one message arrives per unit (the receiver outlives the
        // loop, so no send ever fails on the success path); draining them
        // all keeps in-flight fetches running to completion even after an
        // error, preserving fetch-meter behavior.
        for _ in 0..units.len() {
            let Ok((u, res)) = rx.recv() else { break };
            match res {
                Ok(fetched) => {
                    if first_err.is_none() {
                        for (&i, rows) in units[u].1.iter().zip(fetched) {
                            out[i] = Some(rows);
                        }
                    }
                }
                Err(e) => {
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
            }
            while first_err.is_none() && cursor < plans.len() && out[cursor].is_some() {
                if let Err(e) = on_plan(cursor, out[cursor].as_deref().expect("resolved")) {
                    first_err = Some(e);
                    break;
                }
                cursor += 1;
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    })
}

/// Attempts to answer the whole query from block synopses. `Some` means
/// the composed estimates' combined bound already meets `phi`: the query
/// is done with zero data I/O, and the synopsis meters have been ticked.
/// The returned result carries default stats — the caller owns the
/// timing/I/O accounting.
#[allow(clippy::too_many_arguments)]
pub(crate) fn synopsis_hit(
    index: &ValinorIndex,
    file: &dyn RawFile,
    config: &EngineConfig,
    blocks: &[BlockSynopsis],
    window: &Rect,
    aggs: &[AggregateFunction],
    selected_total: u64,
    phi: f64,
) -> Option<ApproxResult> {
    let schema = index.schema();
    let ans = crate::synopsis::try_answer(
        blocks,
        schema.x_axis(),
        schema.y_axis(),
        window,
        selected_total,
        aggs,
        config,
    )?;
    let bound = ans
        .estimates
        .iter()
        .map(|e| bound_of(config, e))
        .fold(0.0f64, f64::max);
    if bound > phi {
        return None;
    }
    let counters = file.counters();
    counters.add_synopsis_hits(1);
    counters.add_synopsis_blocks(ans.blocks);
    counters.add_synopsis_bytes(ans.bytes);
    let (values, cis) = ans.estimates.into_iter().map(|e| (e.value, e.ci)).unzip();
    Some(ApproxResult {
        values,
        cis,
        error_bound: bound,
        phi,
        met_constraint: true,
        stats: QueryStats::default(),
    })
}

/// Current estimates and the combined (max-over-aggregates) bound.
pub(crate) fn assess(
    config: &EngineConfig,
    aggs: &[AggregateFunction],
    state: &QueryState,
) -> (Vec<AggregateEstimate>, f64) {
    let estimates: Vec<AggregateEstimate> = aggs
        .iter()
        .map(|agg| estimate_aggregate(agg, state, config.estimator, config.assume_non_null))
        .collect();
    let bound = estimates
        .iter()
        .map(|e| bound_of(config, e))
        .fold(0.0f64, f64::max);
    (estimates, bound)
}

pub(crate) fn bound_of(config: &EngineConfig, e: &AggregateEstimate) -> f64 {
    if e.unbounded {
        return f64::INFINITY;
    }
    match (&e.ci, e.value.as_f64()) {
        (Some(ci), Some(v)) => upper_error_bound(v, ci.lo(), ci.hi(), config.normalization),
        // Empty selection: nothing to be wrong about.
        _ => 0.0,
    }
}

/// Builds the policy's view of a subset of candidates (`subset` holds
/// indices into `state.candidates`): a per-candidate interval width reduced
/// over the query's aggregates (each aggregate's widths normalized across
/// the subset first, so attributes with different scales contribute
/// comparably), plus cost proxies.
///
/// Normalization over the *subset* — not all candidates — is what lets
/// [`crate::SelectionPolicy::pick_batch`] reproduce the sequential pick
/// order exactly: after each simulated removal the remaining candidates are
/// re-normalized just as the one-at-a-time loop would.
pub(crate) fn candidate_views(
    index: &ValinorIndex,
    config: &EngineConfig,
    aggs: &[AggregateFunction],
    state: &QueryState,
    subset: &[usize],
) -> Vec<CandidateView> {
    let mut widths = vec![0.0f64; subset.len()];
    for agg in aggs {
        let per_agg: Vec<f64> = subset
            .iter()
            .map(|&i| contribution_width(config, agg, state, &state.candidates[i]))
            .collect();
        let max = per_agg.iter().copied().fold(0.0f64, f64::max);
        if max == 0.0 {
            continue;
        }
        for (w, &raw) in widths.iter_mut().zip(&per_agg) {
            let norm = if raw.is_infinite() {
                f64::INFINITY
            } else {
                raw / max
            };
            if norm > *w {
                *w = norm;
            }
        }
    }
    subset
        .iter()
        .zip(widths)
        .map(|(&i, width)| {
            let c = &state.candidates[i];
            CandidateView {
                width,
                selected: c.selected,
                cost: match (c.kind, config.adapt.read) {
                    (CandidateKind::FullBounded, _) => index.tile(c.tile).object_count(),
                    (CandidateKind::Partial, ReadPolicy::WindowOnly) => c.selected,
                    (CandidateKind::Partial, ReadPolicy::FullTile) => {
                        index.tile(c.tile).object_count()
                    }
                },
            }
        })
        .collect()
}

/// Width of one candidate's contribution interval for one aggregate — the
/// `w(t)` of the selection score.
fn contribution_width(
    config: &EngineConfig,
    agg: &AggregateFunction,
    state: &QueryState,
    c: &crate::state::Candidate,
) -> f64 {
    let assume = config.assume_non_null;
    match *agg {
        AggregateFunction::Count => 0.0,
        AggregateFunction::Sum(a) | AggregateFunction::Mean(a) => c
            .sum_bounds(state.attr_pos(a), assume)
            .map_or(f64::INFINITY, |iv| iv.width()),
        AggregateFunction::Min(a)
        | AggregateFunction::Max(a)
        | AggregateFunction::Variance(a)
        | AggregateFunction::StdDev(a) => c
            .value_bounds(state.attr_pos(a))
            .map_or(f64::INFINITY, |iv| iv.width()),
    }
}

/// Metadata-only evaluation: assembles estimates and intervals from the
/// index *as it currently is* — no file access, no adaptation, `&index`
/// only. This is what concurrent readers and overview UIs use.
pub fn estimate_readonly(
    index: &ValinorIndex,
    config: &EngineConfig,
    window: &Rect,
    aggs: &[AggregateFunction],
) -> Result<ApproxResult> {
    let t0 = Instant::now();
    let attrs = query_attrs(index.schema(), aggs)?;
    let classification = index.classify(window);
    let state = QueryState::from_classification(index, &classification, &attrs)?;
    let (estimates, bound) = assess(config, aggs, &state);
    let (values, cis) = estimates.into_iter().map(|e| (e.value, e.ci)).unzip();
    Ok(ApproxResult {
        values,
        cis,
        error_bound: bound,
        phi: f64::INFINITY,
        met_constraint: true,
        stats: QueryStats {
            selected: classification.selected_total,
            tiles_full: classification.full.len(),
            tiles_partial: classification.partial.len(),
            elapsed: t0.elapsed(),
            ..Default::default()
        },
    })
}

/// The approximate query-answering engine over a [`ValinorIndex`].
pub struct ApproximateEngine<'f> {
    index: ValinorIndex,
    file: &'f dyn RawFile,
    config: EngineConfig,
}

impl<'f> ApproximateEngine<'f> {
    pub fn new(index: ValinorIndex, file: &'f dyn RawFile, config: EngineConfig) -> Result<Self> {
        config.validate()?;
        Ok(ApproximateEngine {
            index,
            file,
            config,
        })
    }

    pub fn index(&self) -> &ValinorIndex {
        &self.index
    }

    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Consumes the engine, returning the (partially adapted) index.
    pub fn into_index(self) -> ValinorIndex {
        self.index
    }

    /// Evaluates a window-aggregate query with accuracy constraint `phi`
    /// (relative upper error bound, e.g. `0.05` for the paper's "5 %").
    pub fn evaluate(
        &mut self,
        window: &Rect,
        aggs: &[AggregateFunction],
        phi: f64,
    ) -> Result<ApproxResult> {
        validate_phi(phi)?;
        EvalCtx {
            index: &mut self.index,
            file: self.file,
            config: &self.config,
        }
        .run(window, aggs, StopRule::Accuracy { phi }, None)
    }

    /// Like [`Self::evaluate`], additionally returning the progressive
    /// trace: the (bound, estimate, cumulative I/O) after each processed
    /// tile, starting from the metadata-only answer. A progressive UI can
    /// replay it as successively tighter renderings.
    pub fn evaluate_traced(
        &mut self,
        window: &Rect,
        aggs: &[AggregateFunction],
        phi: f64,
    ) -> Result<(ApproxResult, Vec<ProgressStep>)> {
        validate_phi(phi)?;
        let mut trace = Vec::new();
        let res = EvalCtx {
            index: &mut self.index,
            file: self.file,
            config: &self.config,
        }
        .run(window, aggs, StopRule::Accuracy { phi }, Some(&mut trace))?;
        Ok((res, trace))
    }

    /// Exact evaluation through the same machinery (`φ = 0`); useful as a
    /// cross-check against [`pai_index::ExactEngine`].
    pub fn evaluate_exact(
        &mut self,
        window: &Rect,
        aggs: &[AggregateFunction],
    ) -> Result<ApproxResult> {
        self.evaluate(window, aggs, 0.0)
    }

    /// The dual problem: evaluate under an **I/O budget** instead of an
    /// accuracy constraint. Processes tiles (in policy order) only while the
    /// next tile's read cost fits into `max_objects`, then reports the best
    /// bound achieved. `max_objects = 0` is the pure metadata answer.
    ///
    /// Costs are exact for `ReadPolicy::WindowOnly` partial tiles (selected
    /// counts are known from the index) and for whole-tile reads.
    pub fn evaluate_with_io_budget(
        &mut self,
        window: &Rect,
        aggs: &[AggregateFunction],
        max_objects: u64,
    ) -> Result<ApproxResult> {
        EvalCtx {
            index: &mut self.index,
            file: self.file,
            config: &self.config,
        }
        .run(
            window,
            aggs,
            StopRule::IoBudget {
                remaining: max_objects,
            },
            None,
        )
    }

    /// Metadata-only estimate against the engine's current index state
    /// (no I/O, no adaptation).
    pub fn estimate(&self, window: &Rect, aggs: &[AggregateFunction]) -> Result<ApproxResult> {
        estimate_readonly(&self.index, &self.config, window, aggs)
    }
}

/// Runs one accuracy-constrained evaluation against an externally owned
/// index (the building block for [`crate::concurrent::SharedIndex`]).
pub fn evaluate_on(
    index: &mut ValinorIndex,
    file: &dyn RawFile,
    config: &EngineConfig,
    window: &Rect,
    aggs: &[AggregateFunction],
    phi: f64,
) -> Result<ApproxResult> {
    config.validate()?;
    validate_phi(phi)?;
    EvalCtx {
        index,
        file,
        config,
    }
    .run(window, aggs, StopRule::Accuracy { phi }, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EagerRefinement;
    use crate::policy::SelectionPolicy;
    use pai_index::init::{build, GridSpec, InitConfig};
    use pai_index::MetadataPolicy;
    use pai_storage::ground_truth::window_truth;
    use pai_storage::{CsvFormat, DatasetSpec, MemFile};

    fn dataset(rows: u64, seed: u64) -> (MemFile, DatasetSpec) {
        let spec = DatasetSpec {
            rows,
            columns: 4,
            seed,
            ..Default::default()
        };
        (spec.build_mem(CsvFormat::default()).unwrap(), spec)
    }

    fn engine<'f>(file: &'f MemFile, spec: &DatasetSpec, grid: usize) -> ApproximateEngine<'f> {
        let init = InitConfig {
            grid: GridSpec::Fixed { nx: grid, ny: grid },
            domain: Some(spec.domain),
            metadata: MetadataPolicy::AllNumeric,
        };
        let (idx, _) = build(file, &init).unwrap();
        ApproximateEngine::new(idx, file, EngineConfig::paper_evaluation()).unwrap()
    }

    #[test]
    fn ci_contains_truth_and_bound_met() {
        let (file, spec) = dataset(3000, 7);
        let mut eng = engine(&file, &spec, 6);
        let window = Rect::new(150.0, 650.0, 200.0, 700.0);
        let aggs = [AggregateFunction::Sum(2), AggregateFunction::Mean(2)];
        let res = eng.evaluate(&window, &aggs, 0.05).unwrap();
        assert!(res.met_constraint);
        assert!(res.error_bound <= 0.05);

        let truth = window_truth(&file, &window, &[2]).unwrap();
        let ci_sum = res.cis[0].unwrap();
        assert!(
            ci_sum.contains(truth[0].stats.sum()),
            "sum CI {ci_sum} must contain truth {}",
            truth[0].stats.sum()
        );
        let ci_mean = res.cis[1].unwrap();
        assert!(ci_mean.contains(truth[0].stats.mean().unwrap()));
        eng.index().validate_invariants().unwrap();
    }

    #[test]
    fn looser_phi_reads_less() {
        let (file, spec) = dataset(5000, 13);
        let window = Rect::new(100.0, 600.0, 100.0, 600.0);
        let aggs = [AggregateFunction::Mean(2)];
        let mut reads = Vec::new();
        for phi in [0.0, 0.01, 0.05, 0.25] {
            let mut eng = engine(&file, &spec, 6);
            let res = eng.evaluate(&window, &aggs, phi).unwrap();
            assert!(res.met_constraint, "phi={phi}");
            reads.push(res.stats.io.objects_read);
        }
        // Monotone: tighter constraints cannot read fewer objects.
        for w in reads.windows(2) {
            assert!(
                w[0] >= w[1],
                "reads must not increase with looser phi: {reads:?}"
            );
        }
        // And the extremes must actually differ on this workload.
        assert!(
            reads[0] > reads[3],
            "exact should read more than 25%: {reads:?}"
        );
    }

    #[test]
    fn phi_zero_matches_exact_engine() {
        let (file, spec) = dataset(2000, 21);
        let window = Rect::new(300.0, 800.0, 100.0, 700.0);
        let aggs = [
            AggregateFunction::Count,
            AggregateFunction::Sum(3),
            AggregateFunction::Min(3),
            AggregateFunction::Max(3),
        ];
        let mut approx = engine(&file, &spec, 5);
        let a = approx.evaluate_exact(&window, &aggs).unwrap();

        let init = InitConfig {
            grid: GridSpec::Fixed { nx: 5, ny: 5 },
            domain: Some(spec.domain),
            metadata: MetadataPolicy::AllNumeric,
        };
        let (idx, _) = build(&file, &init).unwrap();
        let mut exact =
            pai_index::ExactEngine::new(idx, &file, pai_index::AdaptConfig::default()).unwrap();
        let e = exact.evaluate(&window, &aggs).unwrap();

        for (i, (av, ev)) in a.values.iter().zip(&e.values).enumerate() {
            match (av.as_f64(), ev.as_f64()) {
                (Some(x), Some(y)) => {
                    assert!(
                        (x - y).abs() <= 1e-6 * (1.0 + y.abs()),
                        "agg {i}: {x} vs {y}"
                    )
                }
                (None, None) => {}
                other => panic!("agg {i}: {other:?}"),
            }
        }
        assert_eq!(a.error_bound, 0.0);
    }

    #[test]
    fn count_queries_are_free() {
        let (file, spec) = dataset(1000, 3);
        let mut eng = engine(&file, &spec, 4);
        file.counters().reset();
        let res = eng
            .evaluate(
                &Rect::new(0.0, 400.0, 0.0, 400.0),
                &[AggregateFunction::Count],
                0.0,
            )
            .unwrap();
        assert_eq!(res.stats.io.objects_read, 0, "counts come from the index");
        assert_eq!(res.error_bound, 0.0);
        assert_eq!(res.stats.tiles_processed, 0, "no adaptation needed at all");
    }

    #[test]
    fn met_constraint_reported_honestly() {
        let (file, spec) = dataset(800, 5);
        let mut eng = engine(&file, &spec, 3);
        let res = eng
            .evaluate(
                &Rect::new(100.0, 900.0, 100.0, 900.0),
                &[AggregateFunction::Sum(2)],
                1e-15,
            )
            .unwrap();
        // With phi this tight every candidate gets processed; the result is
        // exact, so the bound is 0 and the constraint is met.
        assert!(res.met_constraint);
        assert_eq!(res.stats.tiles_processed, res.stats.tiles_partial);
    }

    #[test]
    fn eager_refinement_processes_extra_tiles() {
        let (file, spec) = dataset(4000, 31);
        let window = Rect::new(100.0, 700.0, 100.0, 700.0);
        let aggs = [AggregateFunction::Mean(2)];

        let mk = |eager| {
            let init = InitConfig {
                grid: GridSpec::Fixed { nx: 6, ny: 6 },
                domain: Some(spec.domain),
                metadata: MetadataPolicy::AllNumeric,
            };
            let (idx, _) = build(&file, &init).unwrap();
            ApproximateEngine::new(
                idx,
                &file,
                EngineConfig {
                    eager,
                    ..EngineConfig::paper_evaluation()
                },
            )
            .unwrap()
        };
        let mut lazy = mk(EagerRefinement::Off);
        let rl = lazy.evaluate(&window, &aggs, 0.10).unwrap();
        let mut eager = mk(EagerRefinement::ExtraTiles(3));
        let re = eager.evaluate(&window, &aggs, 0.10).unwrap();
        assert!(re.stats.tiles_processed >= rl.stats.tiles_processed);
        assert!(
            re.error_bound <= rl.error_bound + 1e-12,
            "extra work can only tighten"
        );
    }

    #[test]
    fn all_policies_satisfy_constraint() {
        let (file, spec) = dataset(3000, 41);
        let window = Rect::new(200.0, 700.0, 200.0, 700.0);
        let aggs = [AggregateFunction::Sum(2)];
        for policy in [
            SelectionPolicy::ScoreGreedy { alpha: 1.0 },
            SelectionPolicy::ScoreGreedy { alpha: 0.5 },
            SelectionPolicy::ScoreGreedy { alpha: 0.0 },
            SelectionPolicy::CostBenefit,
            SelectionPolicy::Random { seed: 7 },
        ] {
            let init = InitConfig {
                grid: GridSpec::Fixed { nx: 6, ny: 6 },
                domain: Some(spec.domain),
                metadata: MetadataPolicy::AllNumeric,
            };
            let (idx, _) = build(&file, &init).unwrap();
            let mut eng = ApproximateEngine::new(
                idx,
                &file,
                EngineConfig {
                    policy,
                    ..EngineConfig::paper_evaluation()
                },
            )
            .unwrap();
            let res = eng.evaluate(&window, &aggs, 0.05).unwrap();
            assert!(res.met_constraint, "{}", policy.name());
            let truth = window_truth(&file, &window, &[2]).unwrap();
            assert!(
                res.cis[0].unwrap().contains(truth[0].stats.sum()),
                "{} CI must contain truth",
                policy.name()
            );
        }
    }

    #[test]
    fn metadata_free_init_still_sound() {
        let (file, spec) = dataset(1500, 57);
        let init = InitConfig {
            grid: GridSpec::Fixed { nx: 4, ny: 4 },
            domain: Some(spec.domain),
            metadata: MetadataPolicy::None,
        };
        let (idx, _) = build(&file, &init).unwrap();
        let mut eng = ApproximateEngine::new(idx, &file, EngineConfig::paper_evaluation()).unwrap();
        let window = Rect::new(100.0, 600.0, 100.0, 600.0);
        // Without init metadata or global bounds, every tile is unbounded:
        // the engine must process its way to a sound answer.
        let aggs = [AggregateFunction::Sum(2)];
        let res = eng.evaluate(&window, &aggs, 0.05).unwrap();
        assert!(res.met_constraint);
        // Fully-resolved answers give point CIs; compare with the tolerant
        // verifier (float merge order differs from the sequential scan).
        crate::verify::assert_verified(
            &file,
            &window,
            &aggs,
            &res,
            crate::bound::NormalizationMode::Estimate,
        );
    }

    #[test]
    fn invalid_phi_rejected() {
        let (file, spec) = dataset(100, 1);
        let mut eng = engine(&file, &spec, 2);
        let w = Rect::new(0.0, 1.0, 0.0, 1.0);
        assert!(eng.evaluate(&w, &[AggregateFunction::Count], -0.5).is_err());
        assert!(eng
            .evaluate(&w, &[AggregateFunction::Count], f64::NAN)
            .is_err());
    }

    #[test]
    fn adaptation_accumulates_across_queries() {
        let (file, spec) = dataset(6000, 77);
        let mut eng = engine(&file, &spec, 6);
        let aggs = [AggregateFunction::Mean(2)];
        let w1 = Rect::new(100.0, 500.0, 100.0, 500.0);
        let r1 = eng.evaluate(&w1, &aggs, 0.01).unwrap();
        // Re-pose the same query: the index kept its adaptation.
        let r2 = eng.evaluate(&w1, &aggs, 0.01).unwrap();
        assert!(
            r2.stats.io.objects_read < r1.stats.io.objects_read.max(1),
            "second pass should be cheaper: {} vs {}",
            r2.stats.io.objects_read,
            r1.stats.io.objects_read
        );
    }

    // ---- I/O-budget mode ---------------------------------------------------

    #[test]
    fn io_budget_is_respected_exactly() {
        let (file, spec) = dataset(4000, 91);
        let window = Rect::new(150.0, 650.0, 150.0, 650.0);
        let aggs = [AggregateFunction::Sum(2)];
        for budget in [0u64, 50, 200, 1000, u64::MAX] {
            let mut eng = engine(&file, &spec, 6);
            file.counters().reset();
            let res = eng.evaluate_with_io_budget(&window, &aggs, budget).unwrap();
            assert!(
                res.stats.io.objects_read <= budget,
                "budget {budget}: read {}",
                res.stats.io.objects_read
            );
            assert!(res.met_constraint, "budget mode has no constraint to miss");
            assert_eq!(res.phi, f64::INFINITY);
            // Whatever was achieved, the CI still contains the truth.
            let truth = window_truth(&file, &window, &[2]).unwrap();
            if let Some(ci) = res.cis[0] {
                assert!(
                    ci.contains(truth[0].stats.sum())
                        || (truth[0].stats.sum() - ci.lo()).abs() < 1e-9 * (1.0 + ci.lo().abs())
                        || (truth[0].stats.sum() - ci.hi()).abs() < 1e-9 * (1.0 + ci.hi().abs()),
                    "budget {budget}: truth escaped CI"
                );
            }
        }
    }

    #[test]
    fn larger_budget_tightens_bound() {
        let (file, spec) = dataset(4000, 92);
        let window = Rect::new(150.0, 650.0, 150.0, 650.0);
        let aggs = [AggregateFunction::Mean(2)];
        let mut bounds = Vec::new();
        for budget in [0u64, 100, 500, 5000] {
            let mut eng = engine(&file, &spec, 6);
            let res = eng.evaluate_with_io_budget(&window, &aggs, budget).unwrap();
            bounds.push(res.error_bound);
        }
        for w in bounds.windows(2) {
            assert!(w[1] <= w[0] + 1e-12, "bounds must tighten: {bounds:?}");
        }
        assert!(bounds[0] > bounds[3], "extremes must differ: {bounds:?}");
    }

    #[test]
    fn zero_budget_equals_readonly_estimate() {
        let (file, spec) = dataset(2000, 93);
        let window = Rect::new(200.0, 700.0, 200.0, 700.0);
        let aggs = [AggregateFunction::Sum(2)];
        let mut eng = engine(&file, &spec, 5);
        let ro = eng.estimate(&window, &aggs).unwrap();
        let budget0 = eng.evaluate_with_io_budget(&window, &aggs, 0).unwrap();
        assert_eq!(ro.values[0].as_f64(), budget0.values[0].as_f64());
        assert_eq!(ro.error_bound, budget0.error_bound);
        assert_eq!(budget0.stats.io.objects_read, 0);
    }

    #[test]
    fn traced_evaluation_converges_monotonically() {
        let (file, spec) = dataset(4000, 95);
        let window = Rect::new(150.0, 650.0, 150.0, 650.0);
        let aggs = [AggregateFunction::Mean(2)];
        let mut eng = engine(&file, &spec, 6);
        let (res, trace) = eng.evaluate_traced(&window, &aggs, 0.01).unwrap();
        assert!(res.met_constraint);
        assert_eq!(
            trace.len(),
            res.stats.tiles_processed + 1,
            "one step per tile + initial"
        );
        // Bounds tighten monotonically; I/O grows monotonically.
        for w in trace.windows(2) {
            assert!(w[1].error_bound <= w[0].error_bound + 1e-12);
            assert!(w[1].io.objects_read >= w[0].io.objects_read);
            assert!(w[1].io.bytes_read >= w[0].io.bytes_read);
            assert_eq!(w[1].tiles_processed, w[0].tiles_processed + 1);
        }
        // The final step's meters match the result's I/O accounting.
        let last = trace.last().unwrap();
        assert_eq!(last.io.objects_read, res.stats.io.objects_read);
        assert_eq!(last.io.bytes_read, res.stats.io.bytes_read);
        assert_eq!(trace.last().unwrap().error_bound, res.error_bound);
        // Every intermediate estimate is within its own (wider) bound of
        // the final answer — the progressive rendering never lies.
        let final_est = res.values[0].as_f64().unwrap();
        for s in &trace {
            if let Some(e) = s.estimate {
                if s.error_bound.is_finite() && e.abs() > 1e-9 {
                    assert!(
                        (e - final_est).abs() <= s.error_bound * e.abs() * 2.0 + 1e-6,
                        "step {} estimate {e} too far from final {final_est} (bound {})",
                        s.tiles_processed,
                        s.error_bound
                    );
                }
            }
        }
    }

    #[test]
    fn binary_backend_matches_csv_with_less_io() {
        let spec = DatasetSpec {
            rows: 3000,
            columns: 4,
            seed: 7,
            ..Default::default()
        };
        let csv = spec.build_mem(CsvFormat::default()).unwrap();
        let bin = spec.build_bin_mem().unwrap();
        let init = InitConfig {
            grid: GridSpec::Fixed { nx: 6, ny: 6 },
            domain: Some(spec.domain),
            metadata: MetadataPolicy::AllNumeric,
        };
        let window = Rect::new(150.0, 650.0, 200.0, 700.0);
        let aggs = [AggregateFunction::Sum(2), AggregateFunction::Mean(3)];

        let (ci, _) = build(&csv, &init).unwrap();
        let mut ce = ApproximateEngine::new(ci, &csv, EngineConfig::paper_evaluation()).unwrap();
        let rc = ce.evaluate(&window, &aggs, 0.05).unwrap();

        let (bi, _) = build(&bin, &init).unwrap();
        let mut be = ApproximateEngine::new(bi, &bin, EngineConfig::paper_evaluation()).unwrap();
        let rb = be.evaluate(&window, &aggs, 0.05).unwrap();

        // Same scan order, same values, same adaptation loop: identical
        // approximate answers and trajectory on either backend.
        for (c, b) in rc.values.iter().zip(&rb.values) {
            assert_eq!(c.as_f64(), b.as_f64());
        }
        assert_eq!(rc.error_bound, rb.error_bound);
        assert_eq!(rc.stats.tiles_processed, rb.stats.tiles_processed);
        assert_eq!(rc.stats.tiles_split, rb.stats.tiles_split);
        assert_eq!(rc.stats.io.objects_read, rb.stats.io.objects_read);
        // The binary backend fetches values, not whole text records.
        assert!(rb.stats.io.objects_read > 0, "workload must adapt");
        assert!(
            rb.stats.io.bytes_read < rc.stats.io.bytes_read,
            "binary adaptation reads must be cheaper: {} vs {}",
            rb.stats.io.bytes_read,
            rc.stats.io.bytes_read
        );
        // The CI really contains the truth on the binary path too.
        let truth = window_truth(&bin, &window, &[2]).unwrap();
        assert!(rb.cis[0].unwrap().contains(truth[0].stats.sum()));
    }

    #[test]
    fn zone_backend_matches_others_with_less_io() {
        let spec = DatasetSpec {
            rows: 3000,
            columns: 4,
            seed: 7,
            ..Default::default()
        };
        let bin = spec.build_bin_mem().unwrap();
        let zone = spec.build_zone_mem().unwrap();
        let init = InitConfig {
            grid: GridSpec::Fixed { nx: 6, ny: 6 },
            domain: Some(spec.domain),
            metadata: MetadataPolicy::AllNumeric,
        };
        let window = Rect::new(150.0, 650.0, 200.0, 700.0);
        let aggs = [AggregateFunction::Sum(2), AggregateFunction::Mean(3)];

        let (bi, _) = build(&bin, &init).unwrap();
        let mut be = ApproximateEngine::new(bi, &bin, EngineConfig::paper_evaluation()).unwrap();
        let rb = be.evaluate(&window, &aggs, 0.05).unwrap();

        let (zi, _) = build(&zone, &init).unwrap();
        let mut ze = ApproximateEngine::new(zi, &zone, EngineConfig::paper_evaluation()).unwrap();
        let rz = ze.evaluate(&window, &aggs, 0.05).unwrap();

        // Identical answers and trajectory — the compression and pushdown
        // are invisible except through the meters.
        for (b, z) in rb.values.iter().zip(&rz.values) {
            assert_eq!(b.as_f64(), z.as_f64());
        }
        assert_eq!(rb.error_bound, rz.error_bound);
        assert_eq!(rb.stats.tiles_processed, rz.stats.tiles_processed);
        assert_eq!(rb.stats.io.objects_read, rz.stats.io.objects_read);
        assert!(rz.stats.io.objects_read > 0, "workload must adapt");
        // Bit-packed fetches move fewer bytes than 8-byte-per-value PaiBin.
        assert!(
            rz.stats.io.bytes_read < rb.stats.io.bytes_read,
            "zone adaptation reads must be cheaper: {} vs {}",
            rz.stats.io.bytes_read,
            rb.stats.io.bytes_read
        );
        // Both block-structured backends meter their block touches.
        assert!(rz.stats.io.blocks_read > 0);
        assert!(rb.stats.io.blocks_read > 0);
        let truth = window_truth(&zone, &window, &[2]).unwrap();
        assert!(rz.cis[0].unwrap().contains(truth[0].stats.sum()));
    }

    #[test]
    fn traced_evaluation_carries_block_meters() {
        let spec = DatasetSpec {
            rows: 3000,
            columns: 4,
            seed: 11,
            ..Default::default()
        };
        let zone = spec.build_zone_mem().unwrap();
        let init = InitConfig {
            grid: GridSpec::Fixed { nx: 6, ny: 6 },
            domain: Some(spec.domain),
            metadata: MetadataPolicy::AllNumeric,
        };
        let (zi, _) = build(&zone, &init).unwrap();
        let mut eng = ApproximateEngine::new(zi, &zone, EngineConfig::paper_evaluation()).unwrap();
        let (res, trace) = eng
            .evaluate_traced(
                &Rect::new(150.0, 650.0, 150.0, 650.0),
                &[AggregateFunction::Mean(2)],
                0.01,
            )
            .unwrap();
        assert!(res.met_constraint);
        for w in trace.windows(2) {
            assert!(
                w[1].io.blocks_read >= w[0].io.blocks_read,
                "monotone block I/O"
            );
        }
        let last = trace.last().unwrap();
        assert_eq!(last.io.blocks_read, res.stats.io.blocks_read);
        assert_eq!(last.io.blocks_skipped, res.stats.io.blocks_skipped);
        assert!(last.io.blocks_read > 0, "zone fetches are block-metered");
    }

    #[test]
    fn readonly_estimate_does_not_adapt() {
        let (file, spec) = dataset(2000, 94);
        let window = Rect::new(200.0, 700.0, 200.0, 700.0);
        let eng = engine(&file, &spec, 5);
        let leaves_before = eng.index().leaf_count();
        file.counters().reset();
        let res = eng
            .estimate(&window, &[AggregateFunction::Mean(2)])
            .unwrap();
        assert_eq!(file.counters().objects_read(), 0);
        assert_eq!(eng.index().leaf_count(), leaves_before);
        assert!(res.error_bound.is_finite());
    }

    fn engine_cfg<'f>(
        file: &'f MemFile,
        spec: &DatasetSpec,
        grid: usize,
        metadata: MetadataPolicy,
        config: EngineConfig,
    ) -> ApproximateEngine<'f> {
        let init = InitConfig {
            grid: GridSpec::Fixed { nx: grid, ny: grid },
            domain: Some(spec.domain),
            metadata,
        };
        let (idx, _) = build(file, &init).unwrap();
        ApproximateEngine::new(idx, file, config).unwrap()
    }

    #[test]
    fn synopsis_hit_answers_with_zero_data_io() {
        let (file, spec) = dataset(3000, 21);
        let cfg = EngineConfig::paper_evaluation().with_synopsis();
        let mut eng = engine_cfg(&file, &spec, 6, MetadataPolicy::AllNumeric, cfg);
        // A window containing every block's envelope: all blocks fully
        // covered, so the synopsis answer is exact and meets any phi.
        let window = Rect::new(-1e9, 1e9, -1e9, 1e9);
        let aggs = [
            AggregateFunction::Sum(2),
            AggregateFunction::Mean(2),
            AggregateFunction::Count,
        ];
        // Warm the lazily-computed synopses: on scan-based backends the
        // one-time derivation pays a metered scan (zone/http read them
        // from the header instead); the *query* itself must then be free.
        let _ = file.block_synopses();
        file.counters().reset();
        let res = eng.evaluate(&window, &aggs, 0.05).unwrap();
        assert!(res.met_constraint);
        assert_eq!(res.stats.io.objects_read, 0, "zero data I/O on a hit");
        assert_eq!(res.stats.io.read_calls, 0);
        assert_eq!(res.stats.io.fetch_wall_us, 0);
        assert_eq!(res.stats.io.synopsis_hits, 1);
        assert!(res.stats.io.synopsis_blocks > 0);
        assert!(res.stats.io.synopsis_bytes > 0);
        let truth = window_truth(&file, &window, &[2]).unwrap();
        let ci = res.cis[0].unwrap();
        let t = truth[0].stats.sum();
        assert!(
            ci.contains(t) || (t - ci.lo()).abs() < 1e-9 * (1.0 + t.abs()),
            "truth {t} escaped synopsis CI {ci}"
        );
        assert_eq!(res.values[2], AggregateValue::Count(3000));
    }

    #[test]
    fn synopsis_hit_trace_is_a_single_step() {
        let (file, spec) = dataset(2000, 33);
        let cfg = EngineConfig::paper_evaluation().with_synopsis();
        let mut eng = engine_cfg(&file, &spec, 5, MetadataPolicy::AllNumeric, cfg);
        let window = Rect::new(-1e9, 1e9, -1e9, 1e9);
        let (res, trace) = eng
            .evaluate_traced(&window, &[AggregateFunction::Mean(3)], 0.1)
            .unwrap();
        assert_eq!(res.stats.io.synopsis_hits, 1);
        assert_eq!(trace.len(), 1, "hit = one metadata-only step");
        assert_eq!(trace[0].tiles_processed, 0);
        assert_eq!(trace[0].io.synopsis_hits, 1);
        assert!(trace[0].io.synopsis_bytes > 0);
        assert_eq!(trace[0].io.objects_read, 0);
    }

    #[test]
    fn synopsis_miss_is_identical_to_synopsis_off() {
        // phi = 0 on a window that cuts blocks: the synopsis CI has width,
        // so the attempt misses and the adaptation path must be untouched.
        let (file, spec) = dataset(3000, 44);
        let _ = file.block_synopses();
        let window = Rect::new(150.0, 650.0, 200.0, 700.0);
        let aggs = [AggregateFunction::Sum(2), AggregateFunction::Mean(2)];
        let mut on = engine_cfg(
            &file,
            &spec,
            6,
            MetadataPolicy::AllNumeric,
            EngineConfig::paper_evaluation().with_synopsis(),
        );
        let mut off = engine_cfg(
            &file,
            &spec,
            6,
            MetadataPolicy::AllNumeric,
            EngineConfig::paper_evaluation(),
        );
        let ra = on.evaluate(&window, &aggs, 0.0).unwrap();
        let rb = off.evaluate(&window, &aggs, 0.0).unwrap();
        assert_eq!(ra.stats.io.synopsis_hits, 0, "phi = 0 cut window misses");
        assert_eq!(ra.values, rb.values);
        assert_eq!(ra.cis, rb.cis);
        assert_eq!(ra.error_bound, rb.error_bound);
        assert_eq!(ra.stats.io.objects_read, rb.stats.io.objects_read);
    }

    #[test]
    fn metadata_free_cold_start_bounded_by_seeding() {
        let (file, spec) = dataset(2500, 55);
        let window = Rect::new(150.0, 650.0, 200.0, 700.0);
        let aggs = [AggregateFunction::Sum(2)];
        // Without synopses a None-policy session starts unbounded.
        let mut off = engine_cfg(
            &file,
            &spec,
            6,
            MetadataPolicy::None,
            EngineConfig::paper_evaluation(),
        );
        let (_, trace_off) = off.evaluate_traced(&window, &aggs, 0.0).unwrap();
        assert!(
            trace_off[0].error_bound.is_infinite(),
            "no metadata, no global bounds: the step-0 answer is unbounded"
        );
        // With synopses the pass seeds global bounds before assessment, so
        // even the metadata-only step 0 is a sound finite interval.
        let mut on = engine_cfg(
            &file,
            &spec,
            6,
            MetadataPolicy::None,
            EngineConfig::paper_evaluation().with_synopsis(),
        );
        let (res_on, trace_on) = on.evaluate_traced(&window, &aggs, 0.0).unwrap();
        assert!(
            trace_on[0].error_bound.is_finite(),
            "seeded global bounds make step 0 bounded"
        );
        // Both converge to the same exact answer.
        let res_off = off.evaluate(&window, &aggs, 0.0).unwrap();
        let (a, b) = (
            res_on.values[0].as_f64().unwrap(),
            res_off.values[0].as_f64().unwrap(),
        );
        assert!((a - b).abs() <= 1e-9 * (1.0 + b.abs()), "{a} vs {b}");
    }
}
