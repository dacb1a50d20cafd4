//! The audit's ground truth: an in-memory copy of the image's axis columns
//! and the audited attribute, bucketed on a fine grid so
//! `ground_truth::window_truth` visits only the cells a window overlaps.
//! Scanning the 2M-row image once per audited query would cost more than
//! the timed phase itself.

use pai_common::geometry::Rect;
use pai_common::{AttrId, IoCounters, PaiError, Result, RowLocator};
use pai_storage::raw::RowHandler;
use pai_storage::{RawFile, Record, Schema};

/// Cells per axis of the bucketing grid.
const CELLS: usize = 128;

/// Read-only `RawFile` over `[x, y, attr]` triples copied out of the image
/// by one full scan. Only the scan paths exist; positional reads refuse.
pub struct OracleFile {
    schema: Schema,
    domain: Rect,
    /// Per grid cell, `[x, y, attr]` triples in file order.
    cells: Vec<Vec<[f64; 3]>>,
    counters: IoCounters,
}

impl OracleFile {
    /// Copies `attr` and both axes of every row of `file` (whose points all
    /// lie in `domain`).
    pub fn load(file: &dyn RawFile, domain: Rect, attr: AttrId) -> Result<OracleFile> {
        let schema = file.schema().clone();
        if schema.x_axis() != 0 || schema.y_axis() != 1 || attr != 2 {
            return Err(PaiError::config(
                "the oracle stores columns 0 and 1 as axes and column 2 as the attribute",
            ));
        }
        let mut oracle = OracleFile {
            schema,
            domain,
            cells: vec![Vec::new(); CELLS * CELLS],
            counters: IoCounters::new(),
        };
        file.scan(&mut |_, _, rec| {
            let row = [rec.f64(0)?, rec.f64(1)?, rec.f64(attr)?];
            let cell = oracle.cell_of(row[0], row[1]);
            oracle.cells[cell].push(row);
            Ok(())
        })?;
        Ok(oracle)
    }

    fn axis_cell(&self, v: f64, lo: f64, hi: f64) -> usize {
        let f = ((v - lo) / (hi - lo) * CELLS as f64).floor();
        (f.max(0.0) as usize).min(CELLS - 1)
    }

    fn cell_of(&self, x: f64, y: f64) -> usize {
        let d = &self.domain;
        self.axis_cell(y, d.y_min, d.y_max) * CELLS + self.axis_cell(x, d.x_min, d.x_max)
    }

    /// Number of rows held.
    pub fn rows(&self) -> u64 {
        self.cells.iter().map(|c| c.len() as u64).sum()
    }

    fn visit(
        &self,
        cells: impl Iterator<Item = usize>,
        handler: &mut RowHandler<'_>,
    ) -> Result<()> {
        for c in cells {
            for row in &self.cells[c] {
                handler(0, RowLocator::new(0), &Record::from_values(row, 0))?;
            }
        }
        Ok(())
    }
}

impl RawFile for OracleFile {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn counters(&self) -> &IoCounters {
        &self.counters
    }

    fn size_bytes(&self) -> u64 {
        self.rows() * 24
    }

    fn scan(&self, handler: &mut RowHandler<'_>) -> Result<()> {
        self.visit(0..self.cells.len(), handler)
    }

    fn read_rows(&self, _: &[RowLocator], _: &[AttrId]) -> Result<Vec<Vec<f64>>> {
        Err(PaiError::unsupported("the audit oracle only scans"))
    }

    /// Visits every cell the window's closed extent touches: a superset of
    /// the rows inside it, as the trait contract allows.
    fn scan_filtered(&self, window: &Rect, handler: &mut RowHandler<'_>) -> Result<()> {
        let d = &self.domain;
        let (x0, x1) = (
            self.axis_cell(window.x_min, d.x_min, d.x_max),
            self.axis_cell(window.x_max, d.x_min, d.x_max),
        );
        let (y0, y1) = (
            self.axis_cell(window.y_min, d.y_min, d.y_max),
            self.axis_cell(window.y_max, d.y_min, d.y_max),
        );
        let cells = (y0..=y1).flat_map(|cy| (x0..=x1).map(move |cx| cy * CELLS + cx));
        self.visit(cells, handler)
    }
}
