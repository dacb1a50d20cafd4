//! Cross-tile batched positional reads.
//!
//! The adaptation pipeline processes a *batch* of tiles per iteration; each
//! tile contributes a group of [`RowLocator`]s it needs values for. Issuing
//! one `read_rows` per tile wastes the backends' internal coalescing: every
//! call sorts and merges only its own locators. [`read_row_groups`] instead
//! concatenates all groups into **one** `read_rows` call, so
//!
//! * on [`crate::BinFile`], adjacent rows from *different* tiles coalesce
//!   into shared runs (one seek + one read per run, across tile boundaries);
//! * on CSV backends, one pass over the sorted offsets replaces per-tile
//!   passes — fewer syscalls and no repeated buffer warm-up.
//!
//! Results come back sliced per group, positionally aligned with the input
//! locators, so callers never re-associate rows by key. Fetch concurrency
//! lives one level up: the engine overlaps whole fetch units (one call per
//! attribute set) with its apply stage (`EngineConfig::fetch_workers`).

use pai_common::geometry::Rect;
use pai_common::{AttrId, Result, RowLocator};

use crate::raw::RawFile;

/// Reads several locator groups in one coalesced `read_rows` call.
///
/// Returns one `Vec` of value rows per input group, each aligned with that
/// group's locators in order — exactly what a per-group `read_rows` would
/// have returned, minus the per-call overhead.
///
/// `window` is the active query window, pushed down to the backend
/// ([`RawFile::read_rows_window`]): zone-mapped backends may answer rows in
/// blocks provably disjoint from it with NaN instead of touching storage.
/// Pass `Some` only when every caller-side consumer ignores the values of
/// out-of-window rows (the engine's window-only read policy does); pass
/// `None` to force a plain fetch.
pub fn read_row_groups(
    file: &dyn RawFile,
    groups: &[&[RowLocator]],
    attrs: &[AttrId],
    window: Option<&Rect>,
) -> Result<Vec<Vec<Vec<f64>>>> {
    let total: usize = groups.iter().map(|g| g.len()).sum();
    let mut flat = Vec::with_capacity(total);
    for g in groups {
        flat.extend_from_slice(g);
    }
    let rows = file.read_rows_window(&flat, attrs, window)?;
    debug_assert_eq!(rows.len(), total);
    let mut rows = rows.into_iter();
    Ok(groups
        .iter()
        .map(|g| rows.by_ref().take(g.len()).collect())
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BinFile, Schema};

    fn sample(rows: u64) -> BinFile {
        let data: Vec<Vec<f64>> = (0..rows)
            .map(|i| vec![i as f64, 0.5, i as f64 * 10.0])
            .collect();
        BinFile::from_rows(&Schema::synthetic(3), data).unwrap()
    }

    #[test]
    fn groups_come_back_aligned() {
        let f = sample(10);
        let g1: Vec<RowLocator> = [3u64, 1].iter().map(|&r| RowLocator::new(r)).collect();
        let g2: Vec<RowLocator> = [9u64, 0, 4].iter().map(|&r| RowLocator::new(r)).collect();
        let out = read_row_groups(&f, &[&g1, &g2], &[2], None).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0], vec![vec![30.0], vec![10.0]]);
        assert_eq!(out[1], vec![vec![90.0], vec![0.0], vec![40.0]]);
        assert_eq!(f.counters().read_calls(), 1, "one call for both groups");
    }

    #[test]
    fn cross_group_runs_coalesce() {
        let f = sample(8);
        // Two tiles covering adjacent row ranges: together they are one
        // contiguous run, so the batched read needs a single seek.
        let g1: Vec<RowLocator> = (0..4).map(RowLocator::new).collect();
        let g2: Vec<RowLocator> = (4..8).map(RowLocator::new).collect();
        f.counters().reset();
        let out = read_row_groups(&f, &[&g1, &g2], &[2], None).unwrap();
        assert_eq!(out[0].len() + out[1].len(), 8);
        assert_eq!(f.counters().seeks(), 1, "adjacent groups fuse into one run");

        // The same groups fetched separately cannot fuse.
        f.counters().reset();
        f.read_rows(&g1, &[2]).unwrap();
        f.read_rows(&g2, &[2]).unwrap();
        assert_eq!(f.counters().seeks(), 2);
        assert_eq!(f.counters().read_calls(), 2);
    }

    #[test]
    fn empty_groups_are_fine() {
        let f = sample(4);
        let g1: Vec<RowLocator> = Vec::new();
        let g2: Vec<RowLocator> = vec![RowLocator::new(2)];
        let out = read_row_groups(&f, &[&g1, &g2, &g1], &[0], None).unwrap();
        assert!(out[0].is_empty());
        assert_eq!(out[1], vec![vec![2.0]]);
        assert!(out[2].is_empty());
    }

    #[test]
    fn window_pushdown_reaches_the_backend() {
        // Zone-backed groups with a window: rows in provably-dead blocks
        // come back NaN without I/O, in-window groups are untouched.
        let data: Vec<Vec<f64>> = (0..32).map(|i| vec![i as f64, 0.5, i as f64]).collect();
        let f = crate::ZoneFile::from_rows_with_block(&Schema::synthetic(3), data, 4).unwrap();
        let dead: Vec<RowLocator> = (0..4).map(RowLocator::new).collect();
        let live: Vec<RowLocator> = (20..24).map(RowLocator::new).collect();
        let window = pai_common::geometry::Rect::new(20.0, 24.0, 0.0, 1.0);
        let out = read_row_groups(&f, &[&dead, &live], &[2], Some(&window)).unwrap();
        assert!(out[0].iter().all(|v| v[0].is_nan()));
        assert_eq!(out[1], vec![vec![20.0], vec![21.0], vec![22.0], vec![23.0]]);
        assert_eq!(f.counters().blocks_skipped(), 1);
    }
}
