//! Tile processing: the `process(t)` operation of the paper, split into a
//! **plan → fetch → apply** pipeline.
//!
//! Processing a partially-contained tile does everything the problem
//! definition in §3.1 charges for: read the needed attribute values of the
//! tile's objects from the raw file, split the tile into subtiles
//! (policy-driven), reorganize its entries, and compute metadata for the new
//! subtiles. Since the refinement pipeline refactor those steps are three
//! separable stages:
//!
//! 1. [`plan_tile`] — **pure**, `&index` only: snapshots the tile's entries,
//!    decides window membership and which locators/attributes must be read.
//!    Plans from several tiles can be fetched together in one batched read
//!    (`pai_storage::batch`), and planning never blocks concurrent readers.
//! 2. The caller fetches the plan's `locators`/`read_attrs` however it likes
//!    (single call, cross-tile batch, sharded threads).
//! 3. [`apply_plan`] — installs the split, reorganized entries, and subtile
//!    metadata, returning the [`ProcessOutcome`] with the *exact* in-window
//!    statistics so the engine can swap this tile's contribution from a
//!    bounded interval to an exact value. The statistics themselves are also
//!    available without mutating anything via [`TilePlan::in_window_stats`]
//!    (the optimistic concurrent applier uses this when the index changed
//!    underneath a plan).
//!
//! [`process_tile`] composes the three stages for one tile — the paper's
//! original `process(t)` — and is what the exact engine uses.
//!
//! [`enrich_tile`] (and its [`plan_enrich`]/[`apply_enrich`] stages) is the
//! companion for fully-contained tiles whose metadata lacks the requested
//! attribute: one whole-tile read installs exact stats (the "index
//! enrichment" of §2.2).

use pai_common::geometry::Rect;
use pai_common::{AttrId, PaiError, Result, RowLocator, RunningStats};
use pai_storage::raw::RawFile;

use crate::config::{AdaptConfig, ReadPolicy};
use crate::index::ValinorIndex;
use crate::metadata::AttrMeta;
use crate::tile::TileId;

/// What processing one tile produced.
#[derive(Debug, Clone)]
pub struct ProcessOutcome {
    /// Exact statistics over the tile's objects inside the query window,
    /// one per requested attribute (same order as the `attrs` argument).
    pub in_window: Vec<RunningStats>,
    /// Objects selected by the query inside this tile (`count(t∩Q)`).
    pub selected: u64,
    /// Objects actually read from the raw file.
    pub objects_read: u64,
    /// Whether the tile was split.
    pub did_split: bool,
    /// The leaves created by the split (empty when `did_split == false`).
    pub new_leaves: Vec<TileId>,
}

/// A pure refinement plan for one partially-contained leaf tile: everything
/// `process(t)` needs to know *before* touching the raw file, computed
/// against an immutable index view.
///
/// The plan snapshots the tile's entries (cheap 24-byte copies), so its
/// statistics can be computed from fetched values alone even if the index
/// is mutated between planning and applying (see
/// `pai-core::concurrent::SharedIndex`).
#[derive(Debug, Clone)]
pub struct TilePlan {
    /// The planned tile.
    pub tile: TileId,
    /// Objects selected by the query inside this tile (`count(t∩Q)`).
    pub selected: u64,
    /// Locators to fetch, in entry order (selected entries under
    /// [`ReadPolicy::WindowOnly`], every entry under
    /// [`ReadPolicy::FullTile`]).
    pub locators: Vec<RowLocator>,
    /// Attributes to read for each locator (enrich policy already applied);
    /// empty for COUNT-only queries, which charge no I/O.
    pub read_attrs: Vec<AttrId>,
    /// Index mutation counter at plan time (optimistic-concurrency stamp).
    pub planned_version: u64,
    /// The leaf's entry count at plan time (the second stamp
    /// [`still_applies`] checks: ingest appends entries to leaves).
    pub planned_entries: usize,
    /// Snapshot of the tile's entries at plan time.
    entries: Vec<crate::entry::ObjectEntry>,
    /// Per-entry window membership, aligned with `entries`.
    in_window: Vec<bool>,
    /// For each locator, the position of its entry in `entries` — the
    /// positional alignment that replaces any per-object keyed lookup.
    entry_of: Vec<u32>,
    /// For each query attribute, its column within `read_attrs`.
    attr_pos: Vec<usize>,
}

impl TilePlan {
    /// Objects the fetch stage will read for this plan (0 when no
    /// attributes are needed).
    pub fn objects_to_read(&self) -> u64 {
        if self.read_attrs.is_empty() {
            0
        } else {
            self.locators.len() as u64
        }
    }

    /// Exact in-window statistics for the query's attributes, computed
    /// purely from the fetched `values` (one row per locator, in locator
    /// order). Never touches the index — the data in the raw file is
    /// immutable, so these statistics are correct even if the tile was
    /// concurrently split after planning.
    pub fn in_window_stats(&self, values: &[Vec<f64>]) -> Result<Vec<RunningStats>> {
        if values.len() != self.locators.len() {
            return Err(PaiError::internal(format!(
                "plan for {:?} expected {} fetched rows, got {}",
                self.tile,
                self.locators.len(),
                values.len()
            )));
        }
        let mut stats = vec![RunningStats::new(); self.attr_pos.len()];
        for (vals, &ei) in values.iter().zip(&self.entry_of) {
            if !self.in_window[ei as usize] {
                continue;
            }
            for (s, &pos) in stats.iter_mut().zip(&self.attr_pos) {
                let v = *vals.get(pos).ok_or_else(|| {
                    PaiError::internal("fetched row shorter than the plan's attribute list")
                })?;
                s.push(v);
            }
        }
        Ok(stats)
    }
}

/// Plans the processing of one partially-contained leaf tile against
/// `query` — the pure first stage of `process(t)`.
///
/// `attrs` are the query's aggregate attributes; the [`AdaptConfig`] decides
/// how much to read ([`ReadPolicy`]) and which attributes get metadata.
pub fn plan_tile(
    index: &ValinorIndex,
    tile_id: TileId,
    query: &Rect,
    attrs: &[AttrId],
    cfg: &AdaptConfig,
) -> Result<TilePlan> {
    let tile = index.tile(tile_id);
    if !tile.is_leaf() {
        return Err(PaiError::internal(format!(
            "process_tile on non-leaf {tile_id:?}"
        )));
    }
    // Snapshot entries: cheap copies, and they stay valid across the split.
    let entries = tile.entries().to_vec();

    let read_attrs = cfg.enrich.resolve(attrs);
    let in_window: Vec<bool> = entries.iter().map(|e| e.in_window(query)).collect();
    let selected = in_window.iter().filter(|&&b| b).count() as u64;

    // Which objects to read from the file, remembering each locator's
    // entry so fetched rows align back positionally.
    let (locators, entry_of): (Vec<RowLocator>, Vec<u32>) = match cfg.read {
        ReadPolicy::WindowOnly => entries
            .iter()
            .enumerate()
            .zip(&in_window)
            .filter(|&(_, &sel)| sel)
            .map(|((i, e), _)| (e.locator, i as u32))
            .unzip(),
        ReadPolicy::FullTile => entries
            .iter()
            .enumerate()
            .map(|(i, e)| (e.locator, i as u32))
            .unzip(),
    };
    let attr_pos: Vec<usize> = attrs
        .iter()
        .map(|a| {
            read_attrs
                .iter()
                .position(|r| r == a)
                .expect("attrs is a subset of read_attrs by construction")
        })
        .collect();
    Ok(TilePlan {
        tile: tile_id,
        selected,
        locators,
        read_attrs,
        planned_version: index.version(),
        planned_entries: entries.len(),
        entries,
        in_window,
        entry_of,
        attr_pos,
    })
}

/// The optimistic-concurrency applicability check, in one place: a plan
/// computed at `planned_version` over a leaf of `planned_entries` entries
/// still applies if nothing changed since planning, or if its tile is still
/// a leaf with the same entry count. A leaf's entries change in two ways
/// only: a split turns it into an inner tile, and streaming ingest
/// ([`ValinorIndex::ingest_entry`]) appends to it — so an unchanged count
/// on a leaf means unchanged entries. Writers call this under the write
/// lock immediately before [`apply_plan`] / [`apply_enrich`]; a `false`
/// means another writer split the tile or an ingest grew it underneath the
/// plan, which must then not be applied. (A grown leaf can be planned
/// afresh: its new plan's locators extend the old plan's.)
pub fn still_applies(
    index: &ValinorIndex,
    tile: TileId,
    planned_version: u64,
    planned_entries: usize,
) -> bool {
    if index.version() == planned_version {
        return true;
    }
    let tile = index.tile(tile);
    tile.is_leaf() && tile.entries().len() == planned_entries
}

/// Applies a fetched plan: performs the split decision, reorganizes
/// entries, and installs subtile/in-place metadata — the mutation stage of
/// `process(t)`.
///
/// `values` must be the rows fetched for `plan.locators` (in order) with
/// `plan.read_attrs` as columns. The caller is responsible for the tile
/// still being the leaf it planned; under optimistic concurrency, check
/// [`still_applies`] first and discard the plan when it no longer applies.
pub fn apply_plan(
    index: &mut ValinorIndex,
    plan: &TilePlan,
    query: &Rect,
    cfg: &AdaptConfig,
    values: &[Vec<f64>],
) -> Result<ProcessOutcome> {
    let tile = index.tile(plan.tile);
    if !tile.is_leaf() {
        return Err(PaiError::internal(format!(
            "apply_plan on non-leaf {:?} (tile split since planning?)",
            plan.tile
        )));
    }
    let tile_rect = tile.rect;
    let depth = tile.depth;

    // Exact in-window statistics, from the positionally aligned rows.
    let stats = plan.in_window_stats(values)?;

    // Locator -> fetched-row lookup for redistributing values onto split
    // children: one sort of the (small) locator batch, then binary search —
    // no per-object hashing.
    let mut by_locator: Vec<(u64, u32)> = plan
        .locators
        .iter()
        .enumerate()
        .map(|(vi, l)| (l.raw(), vi as u32))
        .collect();
    by_locator.sort_unstable_by_key(|&(raw, _)| raw);
    let value_of = |loc: RowLocator| -> Option<&Vec<f64>> {
        by_locator
            .binary_search_by_key(&loc.raw(), |&(raw, _)| raw)
            .ok()
            .map(|i| &values[by_locator[i].1 as usize])
    };

    // Split decision: worth it only for populous, still-divisible tiles,
    // and only while the memory budget (if any) has headroom.
    let within_budget = cfg
        .max_index_bytes
        .is_none_or(|budget| index.memory_bytes() < budget);
    let mut did_split = false;
    let mut new_leaves = Vec::new();
    if within_budget && plan.entries.len() as u64 >= cfg.min_split_objects && depth < cfg.max_depth
    {
        if let Some(rects) = cfg.split.child_rects(&tile_rect, query, &plan.entries) {
            let extent_ok = rects
                .iter()
                .all(|r| r.width() >= cfg.min_tile_extent && r.height() >= cfg.min_tile_extent);
            if extent_ok && rects.len() >= 2 {
                new_leaves = index.split_leaf(plan.tile, rects)?;
                did_split = true;
            }
        }
    }

    if did_split {
        // Children whose entries were all read get exact metadata for the
        // read attributes; the rest keep the inherited bounds installed by
        // `split_leaf`.
        for &child in &new_leaves {
            let child_entries = index.tile(child).entries();
            if child_entries.is_empty() {
                continue;
            }
            let all_read = child_entries.iter().all(|e| value_of(e.locator).is_some());
            if !all_read {
                continue;
            }
            let mut per_attr: Vec<Vec<f64>> =
                vec![Vec::with_capacity(child_entries.len()); plan.read_attrs.len()];
            for e in child_entries {
                let vals = value_of(e.locator).expect("all_read checked above");
                for (bucket, &v) in per_attr.iter_mut().zip(vals.iter()) {
                    bucket.push(v);
                }
            }
            for (i, attr) in plan.read_attrs.iter().enumerate() {
                index
                    .tile_mut(child)
                    .meta
                    .set(*attr, AttrMeta::exact_from_values(&per_attr[i]));
            }
        }
    } else if plan.locators.len() == plan.entries.len() && !plan.entries.is_empty() {
        // No split, but the whole tile was read (FullTile policy, or a
        // window that happens to select every object): enrich in place.
        let mut per_attr: Vec<Vec<f64>> =
            vec![Vec::with_capacity(plan.entries.len()); plan.read_attrs.len()];
        // Locators cover every entry here, in entry order.
        for vals in values {
            for (bucket, &v) in per_attr.iter_mut().zip(vals.iter()) {
                bucket.push(v);
            }
        }
        for (i, attr) in plan.read_attrs.iter().enumerate() {
            index
                .tile_mut(plan.tile)
                .meta
                .set(*attr, AttrMeta::exact_from_values(&per_attr[i]));
        }
    }

    Ok(ProcessOutcome {
        in_window: stats,
        selected: plan.selected,
        objects_read: plan.objects_to_read(),
        did_split,
        new_leaves,
    })
}

/// Reads a plan's locators, synthesizing empty rows when no attributes are
/// needed (a COUNT-only query answers from in-index axis values alone, so
/// it charges no I/O).
///
/// `window` is the pushdown hint forwarded to
/// [`RawFile::read_rows_window`]. Pass the query window **only when every
/// requested locator is in-window** (the [`ReadPolicy::WindowOnly`] plans,
/// whose locator set is filtered against the window at plan time) — the
/// backend may answer provably-out-of-window rows with NaN, which
/// full-tile plans would then feed into child metadata. [`fetch_window`]
/// computes the right hint from a config.
pub fn fetch_values(
    file: &dyn RawFile,
    locators: &[RowLocator],
    read_attrs: &[AttrId],
    window: Option<&Rect>,
) -> Result<Vec<Vec<f64>>> {
    if read_attrs.is_empty() {
        Ok(vec![Vec::new(); locators.len()])
    } else {
        file.read_rows_window(locators, read_attrs, window)
    }
}

/// The pushdown hint a tile-processing fetch may safely carry: the query
/// window under [`ReadPolicy::WindowOnly`] (plan locators are all
/// in-window, so a zone-map skip can never touch a row whose value is
/// consumed), nothing under [`ReadPolicy::FullTile`] (out-of-window rows
/// feed child enrichment and must be materialized).
pub fn fetch_window<'q>(cfg: &AdaptConfig, query: &'q Rect) -> Option<&'q Rect> {
    match cfg.read {
        ReadPolicy::WindowOnly => Some(query),
        ReadPolicy::FullTile => None,
    }
}

/// Processes one partially-contained leaf tile against `query`: the
/// original single-tile `process(t)`, composed as plan → fetch → apply.
///
/// `attrs` are the query's aggregate attributes; the [`AdaptConfig`] decides
/// how much to read ([`ReadPolicy`]), whether/how to split
/// ([`crate::SplitPolicy`]), and which attributes get metadata.
pub fn process_tile(
    index: &mut ValinorIndex,
    file: &dyn RawFile,
    tile_id: TileId,
    query: &Rect,
    attrs: &[AttrId],
    cfg: &AdaptConfig,
) -> Result<ProcessOutcome> {
    let plan = plan_tile(index, tile_id, query, attrs, cfg)?;
    let values = fetch_values(
        file,
        &plan.locators,
        &plan.read_attrs,
        fetch_window(cfg, query),
    )?;
    apply_plan(index, &plan, query, cfg, &values)
}

/// Where one query attribute's exact statistics come from when an
/// enrichment plan resolves.
#[derive(Debug, Clone)]
enum EnrichSource {
    /// Already exact in the tile's metadata at plan time (snapshot).
    Exact(RunningStats),
    /// Column `i` of the fetched values.
    Fetched(usize),
}

/// A pure enrichment plan for one fully-contained leaf tile whose metadata
/// is missing (or only bounded for) some requested attribute.
///
/// Like [`TilePlan`], the plan is computed against an immutable index view
/// and carries enough snapshot state ([`EnrichPlan::resolved_stats`]) to
/// resolve the tile's contribution even if the index changed underneath.
#[derive(Debug, Clone)]
pub struct EnrichPlan {
    /// The planned tile.
    pub tile: TileId,
    /// Locators of every entry, in entry order (empty when nothing needs
    /// reading).
    pub locators: Vec<RowLocator>,
    /// The attributes whose metadata must be read (the missing subset of
    /// the query's attributes); empty when the tile is already fully exact.
    pub read_attrs: Vec<AttrId>,
    /// Index mutation counter at plan time (optimistic-concurrency stamp).
    pub planned_version: u64,
    /// The leaf's entry count at plan time (see [`still_applies`]).
    pub planned_entries: usize,
    /// Per query attribute: where its exact stats come from.
    sources: Vec<EnrichSource>,
}

impl EnrichPlan {
    /// Objects the fetch stage will read for this plan.
    pub fn objects_to_read(&self) -> u64 {
        if self.read_attrs.is_empty() {
            0
        } else {
            self.locators.len() as u64
        }
    }

    /// Exact whole-tile statistics per query attribute, combining the
    /// plan-time metadata snapshot with the fetched columns. Pure — usable
    /// even when the structural apply was skipped due to a concurrent
    /// split.
    pub fn resolved_stats(&self, values: &[Vec<f64>]) -> Result<Vec<RunningStats>> {
        self.sources
            .iter()
            .map(|src| match src {
                EnrichSource::Exact(stats) => Ok(*stats),
                EnrichSource::Fetched(col) => {
                    let mut s = RunningStats::new();
                    for row in values {
                        s.push(*row.get(*col).ok_or_else(|| {
                            PaiError::internal("fetched row shorter than the enrich attribute list")
                        })?);
                    }
                    Ok(s)
                }
            })
            .collect()
    }
}

/// Plans the enrichment read for a fully-contained tile — the pure first
/// stage of [`enrich_tile`]. The plan is empty (nothing to fetch) when
/// every requested attribute already has exact stats, or the tile holds no
/// objects.
pub fn plan_enrich(index: &ValinorIndex, tile_id: TileId, attrs: &[AttrId]) -> Result<EnrichPlan> {
    let tile = index.tile(tile_id);
    if !tile.is_leaf() {
        return Err(PaiError::internal(format!(
            "enrich_tile on non-leaf {tile_id:?}"
        )));
    }
    let mut read_attrs = Vec::new();
    let mut sources = Vec::with_capacity(attrs.len());
    for &a in attrs {
        match tile.meta.get(a).and_then(AttrMeta::exact_stats) {
            Some(stats) => sources.push(EnrichSource::Exact(*stats)),
            None => {
                sources.push(EnrichSource::Fetched(read_attrs.len()));
                read_attrs.push(a);
            }
        }
    }
    // An empty tile needs no read and must not have empty stats installed
    // (mirrors the pre-pipeline behaviour of skipping empty tiles).
    let locators: Vec<RowLocator> = if read_attrs.is_empty() || tile.entries().is_empty() {
        read_attrs.clear();
        for src in &mut sources {
            if matches!(src, EnrichSource::Fetched(_)) {
                *src = EnrichSource::Exact(RunningStats::new());
            }
        }
        Vec::new()
    } else {
        tile.entries().iter().map(|e| e.locator).collect()
    };
    Ok(EnrichPlan {
        tile: tile_id,
        locators,
        read_attrs,
        planned_version: index.version(),
        planned_entries: tile.entries().len(),
        sources,
    })
}

/// Installs the fetched enrichment values as exact metadata — the mutation
/// stage of [`enrich_tile`]. Returns the number of objects the plan read.
pub fn apply_enrich(
    index: &mut ValinorIndex,
    plan: &EnrichPlan,
    values: &[Vec<f64>],
) -> Result<u64> {
    if plan.read_attrs.is_empty() {
        return Ok(0);
    }
    if !index.tile(plan.tile).is_leaf() {
        return Err(PaiError::internal(format!(
            "apply_enrich on non-leaf {:?} (tile split since planning?)",
            plan.tile
        )));
    }
    if values.len() != plan.locators.len() {
        return Err(PaiError::internal(format!(
            "enrich plan for {:?} expected {} fetched rows, got {}",
            plan.tile,
            plan.locators.len(),
            values.len()
        )));
    }
    let mut per_attr: Vec<Vec<f64>> =
        vec![Vec::with_capacity(plan.locators.len()); plan.read_attrs.len()];
    for vals in values {
        for (bucket, &v) in per_attr.iter_mut().zip(vals.iter()) {
            bucket.push(v);
        }
    }
    for (i, attr) in plan.read_attrs.iter().enumerate() {
        index
            .tile_mut(plan.tile)
            .meta
            .set(*attr, AttrMeta::exact_from_values(&per_attr[i]));
    }
    Ok(plan.locators.len() as u64)
}

/// Reads a whole leaf tile and installs exact metadata for `attrs`:
/// plan → fetch → apply for the enrichment path.
///
/// Used for fully-contained tiles whose metadata is missing or only bounded
/// for a requested attribute. Returns the number of objects read (0 when the
/// tile already had exact stats for every requested attribute).
pub fn enrich_tile(
    index: &mut ValinorIndex,
    file: &dyn RawFile,
    tile_id: TileId,
    attrs: &[AttrId],
) -> Result<u64> {
    let plan = plan_enrich(index, tile_id, attrs)?;
    if plan.read_attrs.is_empty() {
        return Ok(0);
    }
    let values = file.read_rows(&plan.locators, &plan.read_attrs)?;
    apply_enrich(index, &plan, &values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EnrichPolicy;
    use crate::entry::ObjectEntry;
    use crate::init::{build, GridSpec, InitConfig};
    use crate::split::SplitPolicy;
    use pai_common::geometry::Point2;
    use pai_storage::{CsvFormat, MemFile, Schema};

    /// 3x3 grid over [0,30)^2; objects mirror the spirit of Figure 1:
    /// col2 is the "rating" attribute with value 10*i.
    fn setup() -> (MemFile, ValinorIndex) {
        setup_with(crate::config::MetadataPolicy::AllNumeric)
    }

    fn setup_with(metadata: crate::config::MetadataPolicy) -> (MemFile, ValinorIndex) {
        let rows = vec![
            vec![2.0, 12.0, 10.0],  // t1-ish: left-middle cell
            vec![8.0, 18.0, 20.0],  // t1-ish
            vec![14.0, 27.0, 30.0], // top-middle
            vec![12.0, 14.0, 40.0], // centre
            vec![16.0, 12.0, 50.0], // centre
            vec![25.0, 5.0, 60.0],  // bottom-right
            vec![28.0, 8.0, 70.0],  // bottom-right
        ];
        let f = MemFile::from_rows(Schema::synthetic(3), CsvFormat::default(), rows).unwrap();
        let cfg = InitConfig {
            grid: GridSpec::Fixed { nx: 3, ny: 3 },
            domain: Some(Rect::new(0.0, 30.0, 0.0, 30.0)),
            metadata,
        };
        let (idx, _) = build(&f, &cfg).unwrap();
        (f, idx)
    }

    fn adapt_cfg(split: SplitPolicy, read: ReadPolicy) -> AdaptConfig {
        AdaptConfig {
            split,
            read,
            enrich: EnrichPolicy::QueryAttrs,
            min_split_objects: 1,
            min_tile_extent: 1e-9,
            max_depth: 16,
            max_index_bytes: None,
        }
    }

    #[test]
    fn window_only_processing_reads_selected_objects() {
        let (f, mut idx) = setup();
        // Query over the centre cell region, partially overlapping it.
        let q = Rect::new(11.0, 15.0, 11.0, 16.0); // selects (12,14) only
        let centre = idx.leaf_for_point(Point2::new(15.0, 15.0)).unwrap();
        f.counters().reset();
        let cfg = adapt_cfg(SplitPolicy::QueryAligned, ReadPolicy::WindowOnly);
        let out = process_tile(&mut idx, &f, centre, &q, &[2], &cfg).unwrap();
        assert_eq!(out.selected, 1);
        assert_eq!(
            out.objects_read, 1,
            "window-only reads just the selected object"
        );
        assert_eq!(out.in_window[0].sum(), 40.0);
        assert!(out.did_split);
        idx.validate_invariants().unwrap();
    }

    #[test]
    fn full_tile_processing_reads_everything_and_enriches_children() {
        let (f, mut idx) = setup();
        let q = Rect::new(11.0, 15.0, 11.0, 16.0);
        let centre = idx.leaf_for_point(Point2::new(15.0, 15.0)).unwrap();
        f.counters().reset();
        let cfg = adapt_cfg(SplitPolicy::QueryAligned, ReadPolicy::FullTile);
        let out = process_tile(&mut idx, &f, centre, &q, &[2], &cfg).unwrap();
        assert_eq!(out.objects_read, 2, "full-tile reads all tile objects");
        assert!(out.did_split);
        // Every non-empty child now has exact metadata.
        for &c in &out.new_leaves {
            if idx.tile(c).object_count() > 0 {
                assert!(idx.tile(c).meta.has_exact(2), "child {c:?}");
            }
        }
    }

    #[test]
    fn window_only_children_metadata_split_exact_vs_bounded() {
        let (f, mut idx) = setup();
        // Query fully covering the left part of the left-middle cell.
        let q = Rect::new(0.0, 5.0, 10.0, 20.0); // selects (2,12); (8,18) is out
        let t = idx.leaf_for_point(Point2::new(5.0, 15.0)).unwrap();
        let cfg = adapt_cfg(SplitPolicy::QueryAligned, ReadPolicy::WindowOnly);
        let out = process_tile(&mut idx, &f, t, &q, &[2], &cfg).unwrap();
        assert!(out.did_split);
        let mut exact_children = 0;
        let mut bounded_children = 0;
        for &c in &out.new_leaves {
            if idx.tile(c).object_count() == 0 {
                continue;
            }
            match idx.tile(c).meta.get(2) {
                Some(m) if m.is_exact() => exact_children += 1,
                Some(_) => bounded_children += 1,
                None => panic!("child lost its inherited bounds"),
            }
        }
        assert_eq!(exact_children, 1, "in-window child has exact stats");
        assert_eq!(
            bounded_children, 1,
            "out-of-window child keeps parent bounds"
        );
        // Inherited bounds equal the parent's pre-split [min,max] = [10,20].
        let bounded = out
            .new_leaves
            .iter()
            .find(|&&c| idx.tile(c).object_count() > 0 && !idx.tile(c).meta.has_exact(2))
            .copied()
            .unwrap();
        assert_eq!(
            idx.tile(bounded).meta.get(2).unwrap().value_bounds(),
            Some(pai_common::Interval::new(10.0, 20.0))
        );
    }

    #[test]
    fn no_split_below_min_objects() {
        let (f, mut idx) = setup();
        let q = Rect::new(11.0, 15.0, 11.0, 16.0);
        let centre = idx.leaf_for_point(Point2::new(15.0, 15.0)).unwrap();
        let cfg = AdaptConfig {
            min_split_objects: 100,
            ..adapt_cfg(SplitPolicy::QueryAligned, ReadPolicy::WindowOnly)
        };
        let out = process_tile(&mut idx, &f, centre, &q, &[2], &cfg).unwrap();
        assert!(!out.did_split);
        assert!(out.new_leaves.is_empty());
        assert!(idx.tile(centre).is_leaf());
    }

    #[test]
    fn no_split_policy_reads_only() {
        let (f, mut idx) = setup();
        let q = Rect::new(11.0, 15.0, 11.0, 16.0);
        let centre = idx.leaf_for_point(Point2::new(15.0, 15.0)).unwrap();
        let cfg = adapt_cfg(SplitPolicy::NoSplit, ReadPolicy::WindowOnly);
        let out = process_tile(&mut idx, &f, centre, &q, &[2], &cfg).unwrap();
        assert!(!out.did_split);
        assert_eq!(out.in_window[0].sum(), 40.0);
    }

    #[test]
    fn whole_tile_selected_enriches_in_place_without_split() {
        let (f, mut idx) = setup();
        // Window covering the full bottom-right cell contents but the cell
        // is partial w.r.t. the window (window cuts through empty space).
        let q = Rect::new(21.0, 30.0, 0.0, 10.0);
        let t = idx.leaf_for_point(Point2::new(25.0, 5.0)).unwrap();
        let cfg = AdaptConfig {
            split: SplitPolicy::NoSplit,
            ..adapt_cfg(SplitPolicy::NoSplit, ReadPolicy::WindowOnly)
        };
        let out = process_tile(&mut idx, &f, t, &q, &[2], &cfg).unwrap();
        assert_eq!(out.selected, 2);
        assert!(!out.did_split);
        // All entries were read, so the tile's metadata got refreshed.
        assert!(idx.tile(t).meta.has_exact(2));
        assert_eq!(idx.tile(t).meta.get(2).unwrap().exact_sum(), Some(130.0));
    }

    #[test]
    fn max_depth_stops_splitting() {
        let (f, mut idx) = setup();
        let q = Rect::new(11.0, 15.0, 11.0, 16.0);
        let centre = idx.leaf_for_point(Point2::new(15.0, 15.0)).unwrap();
        let cfg = AdaptConfig {
            max_depth: 0,
            ..adapt_cfg(SplitPolicy::QueryAligned, ReadPolicy::WindowOnly)
        };
        let out = process_tile(&mut idx, &f, centre, &q, &[2], &cfg).unwrap();
        assert!(!out.did_split, "depth 0 tiles are at max_depth already");
    }

    #[test]
    fn enrich_tile_reads_once_and_is_idempotent() {
        let (f, mut idx) = setup();
        let t = idx.leaf_for_point(Point2::new(25.0, 5.0)).unwrap();
        // Wipe the metadata to simulate MetadataPolicy::None.
        idx.tile_mut(t).meta = crate::metadata::TileMetadata::new(3);
        f.counters().reset();
        let read = enrich_tile(&mut idx, &f, t, &[2]).unwrap();
        assert_eq!(read, 2);
        assert!(idx.tile(t).meta.has_exact(2));
        let again = enrich_tile(&mut idx, &f, t, &[2]).unwrap();
        assert_eq!(again, 0, "second enrichment is free");
    }

    #[test]
    fn plan_is_pure_and_apply_matches_process() {
        // plan_tile must not touch the index or the file; applying the plan
        // with fetched values must equal the one-shot process_tile.
        let (f, mut idx) = setup();
        let q = Rect::new(11.0, 15.0, 11.0, 16.0);
        let centre = idx.leaf_for_point(Point2::new(15.0, 15.0)).unwrap();
        let cfg = adapt_cfg(SplitPolicy::QueryAligned, ReadPolicy::WindowOnly);

        f.counters().reset();
        let version_before = idx.version();
        let plan = plan_tile(&idx, centre, &q, &[2], &cfg).unwrap();
        assert_eq!(
            f.counters().snapshot(),
            Default::default(),
            "planning is free"
        );
        assert_eq!(idx.version(), version_before, "planning mutates nothing");
        assert_eq!(plan.selected, 1);
        assert_eq!(plan.objects_to_read(), 1);
        assert_eq!(plan.read_attrs, vec![2]);

        let values = fetch_values(&f, &plan.locators, &plan.read_attrs, None).unwrap();
        // The pure stats match what apply reports.
        let pure = plan.in_window_stats(&values).unwrap();
        let out = apply_plan(&mut idx, &plan, &q, &cfg, &values).unwrap();
        assert_eq!(out.in_window, pure);
        assert_eq!(out.in_window[0].sum(), 40.0);
        assert!(out.did_split);
        assert!(idx.version() > version_before, "apply bumps the version");
        idx.validate_invariants().unwrap();
    }

    #[test]
    fn stale_plan_apply_is_rejected_but_stats_survive() {
        let (f, mut idx) = setup();
        let q = Rect::new(11.0, 15.0, 11.0, 16.0);
        let centre = idx.leaf_for_point(Point2::new(15.0, 15.0)).unwrap();
        let cfg = adapt_cfg(SplitPolicy::QueryAligned, ReadPolicy::WindowOnly);
        let plan = plan_tile(&idx, centre, &q, &[2], &cfg).unwrap();
        let values = fetch_values(&f, &plan.locators, &plan.read_attrs, None).unwrap();
        // Another writer splits the tile between plan and apply.
        process_tile(&mut idx, &f, centre, &q, &[2], &cfg).unwrap();
        assert!(idx.version() != plan.planned_version);
        let err = apply_plan(&mut idx, &plan, &q, &cfg, &values).unwrap_err();
        assert!(err.to_string().contains("non-leaf"), "{err}");
        // The fetched values still resolve the contribution purely.
        let stats = plan.in_window_stats(&values).unwrap();
        assert_eq!(stats[0].sum(), 40.0);
    }

    #[test]
    fn ingest_into_a_planned_leaf_invalidates_the_plan() {
        // Ingest appends to a leaf without splitting it. A plan made before
        // the append must not apply after it: enrichment would install
        // exact stats that miss the new row.
        let (f, mut idx) = setup_with(crate::config::MetadataPolicy::None);
        let q = Rect::new(11.0, 15.0, 11.0, 16.0);
        let centre = idx.leaf_for_point(Point2::new(15.0, 15.0)).unwrap();
        let cfg = adapt_cfg(SplitPolicy::QueryAligned, ReadPolicy::WindowOnly);
        let enrich = plan_enrich(&idx, centre, &[2]).unwrap();
        let partial = plan_tile(&idx, centre, &q, &[2], &cfg).unwrap();
        assert_eq!(enrich.planned_entries, 2);

        // A write elsewhere bumps the version; the centre plans still apply.
        let corner = idx.leaf_for_point(Point2::new(25.0, 5.0)).unwrap();
        enrich_tile(&mut idx, &f, corner, &[2]).unwrap();
        assert_ne!(idx.version(), enrich.planned_version);
        assert!(still_applies(&idx, centre, enrich.planned_version, 2));

        idx.ingest_entry(
            ObjectEntry::new(15.0, 15.0, RowLocator::new(7)),
            &[15.0, 15.0, 1000.0],
        )
        .unwrap();
        assert!(idx.tile(centre).is_leaf(), "ingest never splits");
        assert!(!still_applies(
            &idx,
            centre,
            enrich.planned_version,
            enrich.planned_entries
        ));
        assert!(!still_applies(
            &idx,
            centre,
            partial.planned_version,
            partial.planned_entries
        ));
        // A fresh plan sees the grown leaf and applies.
        let fresh = plan_enrich(&idx, centre, &[2]).unwrap();
        assert_eq!(fresh.planned_entries, 3);
        assert!(still_applies(
            &idx,
            centre,
            fresh.planned_version,
            fresh.planned_entries
        ));
    }

    #[test]
    fn enrich_plan_resolves_from_snapshot_and_fetch() {
        let (f, mut idx) = setup();
        let t = idx.leaf_for_point(Point2::new(25.0, 5.0)).unwrap();
        // Attr 2 already exact from init metadata; plan over it is free.
        let free = plan_enrich(&idx, t, &[2]).unwrap();
        assert_eq!(free.objects_to_read(), 0);
        let resolved = free.resolved_stats(&[]).unwrap();
        assert_eq!(resolved[0].sum(), 130.0, "snapshot path");

        // Wipe metadata: the plan now fetches, and apply installs it.
        idx.tile_mut(t).meta = crate::metadata::TileMetadata::new(3);
        let plan = plan_enrich(&idx, t, &[2]).unwrap();
        assert_eq!(plan.objects_to_read(), 2);
        let values = f.read_rows(&plan.locators, &plan.read_attrs).unwrap();
        let read = apply_enrich(&mut idx, &plan, &values).unwrap();
        assert_eq!(read, 2);
        assert!(idx.tile(t).meta.has_exact(2));
        let resolved = plan.resolved_stats(&values).unwrap();
        assert_eq!(
            Some(&resolved[0]),
            idx.tile(t).meta.get(2).unwrap().exact_stats(),
            "pure resolution equals the installed metadata"
        );
    }

    #[test]
    fn plan_values_align_positionally() {
        // Fetched rows must line up with locators in request order — the
        // positional alignment that replaced per-object hashing.
        let (f, idx) = setup();
        let q = Rect::new(0.0, 30.0, 0.0, 30.0);
        let t = idx.leaf_for_point(Point2::new(25.0, 5.0)).unwrap();
        let cfg = adapt_cfg(SplitPolicy::NoSplit, ReadPolicy::FullTile);
        let plan = plan_tile(&idx, t, &q, &[2], &cfg).unwrap();
        assert_eq!(plan.locators.len(), 2);
        let values = f.read_rows(&plan.locators, &plan.read_attrs).unwrap();
        let stats = plan.in_window_stats(&values).unwrap();
        assert_eq!(stats[0].sum(), 130.0);
        assert_eq!(stats[0].count(), 2);
        // Wrong-shaped values are an error, not a misalignment.
        assert!(plan.in_window_stats(&values[..1]).is_err());
    }

    #[test]
    fn process_non_leaf_is_error() {
        let (f, mut idx) = setup();
        let q = Rect::new(11.0, 15.0, 11.0, 16.0);
        let centre = idx.leaf_for_point(Point2::new(15.0, 15.0)).unwrap();
        let cfg = adapt_cfg(SplitPolicy::QueryAligned, ReadPolicy::WindowOnly);
        process_tile(&mut idx, &f, centre, &q, &[2], &cfg).unwrap();
        assert!(process_tile(&mut idx, &f, centre, &q, &[2], &cfg).is_err());
    }

    #[test]
    fn memory_budget_blocks_splits_but_not_reads() {
        let (f, mut idx) = setup();
        let q = Rect::new(11.0, 15.0, 11.0, 16.0);
        let centre = idx.leaf_for_point(Point2::new(15.0, 15.0)).unwrap();
        let cfg = AdaptConfig {
            // Budget below the current footprint: splitting is off.
            max_index_bytes: Some(1),
            ..adapt_cfg(SplitPolicy::QueryAligned, ReadPolicy::WindowOnly)
        };
        let out = process_tile(&mut idx, &f, centre, &q, &[2], &cfg).unwrap();
        assert!(!out.did_split, "budget exhausted: no structural growth");
        assert_eq!(
            out.in_window[0].sum(),
            40.0,
            "reads still happen; answers exact"
        );
        assert!(idx.tile(centre).is_leaf());
    }

    #[test]
    fn generous_budget_allows_splits() {
        let (f, mut idx) = setup();
        let q = Rect::new(11.0, 15.0, 11.0, 16.0);
        let centre = idx.leaf_for_point(Point2::new(15.0, 15.0)).unwrap();
        let cfg = AdaptConfig {
            max_index_bytes: Some(64 * 1024 * 1024),
            ..adapt_cfg(SplitPolicy::QueryAligned, ReadPolicy::WindowOnly)
        };
        let out = process_tile(&mut idx, &f, centre, &q, &[2], &cfg).unwrap();
        assert!(out.did_split);
    }

    #[test]
    fn selected_count_matches_entries() {
        let (f, mut idx) = setup();
        let q = Rect::new(0.0, 30.0, 0.0, 30.0); // everything
        let t = idx.leaf_for_point(Point2::new(15.0, 15.0)).unwrap();
        let cfg = adapt_cfg(
            SplitPolicy::Grid { rows: 2, cols: 2 },
            ReadPolicy::WindowOnly,
        );
        let out = process_tile(&mut idx, &f, t, &q, &[2], &cfg).unwrap();
        assert_eq!(out.selected, 2);
        assert_eq!(out.in_window[0].count(), 2);
        assert_eq!(out.in_window[0].sum(), 90.0);
    }
}
