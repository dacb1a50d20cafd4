//! Benchmark-side tracing: spans recorded around the calls this benchmark
//! makes into each crate, kept in memory and written out when a run ends.
//!
//! Storage spans come from [`TracedFile`], a `RawFile` forwarding wrapper;
//! engine spans come from the runners (around `ApproximateEngine::evaluate`)
//! and from [`TracedEngine`] (around the server's `ServeEngine` calls).
//! Nothing inside the program is instrumented.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use pai_common::geometry::Rect;
use pai_common::{AggregateFunction, AttrId, IoCounters, IoSnapshot, Result, RowLocator};
use pai_core::{ApproxResult, SharedIndex};
use pai_index::eval::QueryStats;
use pai_server::ServeEngine;
use pai_storage::cache::BlockCache;
use pai_storage::raw::RowHandler;
use pai_storage::{
    AppendReceipt, BlockStats, BlockSynopsis, CompactionReport, RawFile, ScanPartition, Schema,
};

use crate::report::{median, ratio, Metrics};

/// Span names, one per layer boundary this benchmark crosses.
pub const SCAN: &str = "storage.scan";
pub const READ: &str = "storage.read";
pub const APPEND: &str = "storage.append";
pub const COMPACT: &str = "storage.compact";
pub const BUILD: &str = "index.build";
pub const EVALUATE: &str = "core.evaluate";
pub const INGEST: &str = "core.ingest";

/// One recorded interval. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Span that caused this one (0 = none).
    pub parent: u64,
    /// Query in flight when the span ran (0 = none).
    pub query: u64,
    /// Rows the call touched (locators read, rows appended, blocks
    /// rewritten); 0 where it does not apply.
    pub rows: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder shared by every traced wrapper of one run.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    /// The query the (single) client has in flight and its root span id.
    /// Spans from storage worker threads read these, so they attach to
    /// the query that caused them. Stays 0 on multi-client workloads.
    query: AtomicU64,
    root: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            query: AtomicU64::new(0),
            root: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        })
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Marks `query` as in flight and returns the id its root span will
    /// carry.
    pub fn begin_query(&self, query: u64) -> u64 {
        let root = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.root.store(root, Ordering::SeqCst);
        self.query.store(query, Ordering::SeqCst);
        root
    }

    /// Closes the query opened by [`Tracer::begin_query`] with its root
    /// span.
    pub fn end_query(&self, root: u64, name: &'static str, start: Instant, end: Instant) {
        let query = self.query.swap(0, Ordering::SeqCst);
        self.root.store(0, Ordering::SeqCst);
        self.push(Span {
            id: root,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: 0,
            query,
            rows: 0,
        });
    }

    /// Records a span under whatever query is in flight.
    pub fn record(&self, name: &'static str, start: Instant, end: Instant, rows: u64) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(Span {
            id,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: self.root.load(Ordering::SeqCst),
            query: self.query.load(Ordering::SeqCst),
            rows,
        });
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span buffer lock").push(span);
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer lock").clone()
    }

    /// Writes every span as one CSV row.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,name,start_ns,end_ns,parent,query,rows")?;
        for s in self.spans.lock().expect("span buffer lock").iter() {
            writeln!(
                out,
                "{},{},{},{},{},{},{}",
                s.id, s.name, s.start_ns, s.end_ns, s.parent, s.query, s.rows
            )?;
        }
        out.flush()
    }
}

/// Times `f` as a span named `name`.
fn timed<T>(tracer: &Tracer, name: &'static str, rows: u64, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    tracer.record(name, t0, Instant::now(), rows);
    out
}

/// Forwarding `RawFile` wrapper that records a span around every call that
/// does I/O. It forwards all 16 trait methods, the defaulted ones too: a
/// missed `block_stats`, `read_rows_window` or `scan_filtered` forward would
/// silently turn off pushdown, and a missed `attach_cache` the cache. The
/// traced run's answers and meters are checked against an unwrapped run to
/// catch exactly that.
pub struct TracedFile<F> {
    inner: F,
    tracer: Arc<Tracer>,
}

impl<F: RawFile> TracedFile<F> {
    pub fn new(inner: F, tracer: Arc<Tracer>) -> Self {
        TracedFile { inner, tracer }
    }
}

impl<F: RawFile> RawFile for TracedFile<F> {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn counters(&self) -> &IoCounters {
        self.inner.counters()
    }

    fn size_bytes(&self) -> u64 {
        self.inner.size_bytes()
    }

    fn scan(&self, handler: &mut RowHandler<'_>) -> Result<()> {
        timed(&self.tracer, SCAN, 0, || self.inner.scan(handler))
    }

    fn read_rows(&self, locators: &[RowLocator], attrs: &[AttrId]) -> Result<Vec<Vec<f64>>> {
        timed(&self.tracer, READ, locators.len() as u64, || {
            self.inner.read_rows(locators, attrs)
        })
    }

    fn partitions(&self, n: usize) -> Result<Vec<ScanPartition>> {
        self.inner.partitions(n)
    }

    fn scan_partition(&self, partition: ScanPartition, handler: &mut RowHandler<'_>) -> Result<()> {
        timed(&self.tracer, SCAN, 0, || {
            self.inner.scan_partition(partition, handler)
        })
    }

    fn block_stats(&self) -> Option<&[BlockStats]> {
        self.inner.block_stats()
    }

    fn block_synopses(&self) -> Option<&[BlockSynopsis]> {
        self.inner.block_synopses()
    }

    fn value_bytes_hint(&self) -> Option<f64> {
        self.inner.value_bytes_hint()
    }

    fn scan_filtered(&self, window: &Rect, handler: &mut RowHandler<'_>) -> Result<()> {
        timed(&self.tracer, SCAN, 0, || {
            self.inner.scan_filtered(window, handler)
        })
    }

    fn read_rows_window(
        &self,
        locators: &[RowLocator],
        attrs: &[AttrId],
        window: Option<&Rect>,
    ) -> Result<Vec<Vec<f64>>> {
        timed(&self.tracer, READ, locators.len() as u64, || {
            self.inner.read_rows_window(locators, attrs, window)
        })
    }

    fn attach_cache(&self, cache: Arc<BlockCache>) -> bool {
        self.inner.attach_cache(cache)
    }

    fn append_rows(&self, rows: &[Vec<f64>]) -> Result<AppendReceipt> {
        timed(&self.tracer, APPEND, rows.len() as u64, || {
            self.inner.append_rows(rows)
        })
    }

    fn invalidate_cache(&self) -> u64 {
        self.inner.invalidate_cache()
    }

    fn compact_once(&self, domain: &Rect, min_run: usize) -> Result<Option<CompactionReport>> {
        let t0 = Instant::now();
        let out = self.inner.compact_once(domain, min_run);
        // Idle polls of the background compactor are not work: only passes
        // that installed a rewrite become spans.
        if let Ok(Some(report)) = &out {
            self.tracer
                .record(COMPACT, t0, Instant::now(), report.blocks_rewritten);
        }
        out
    }
}

/// What the traced serving engine saw of each evaluation.
#[derive(Debug, Default, Clone, Copy)]
pub struct EngineTotals {
    pub evaluations: u64,
    pub evaluate: Duration,
    pub lock_wait: Duration,
    pub plan_conflicts: u64,
    pub zero_io: u64,
    pub synopsis_hits: u64,
    pub tiles_processed: u64,
    pub tiles_split: u64,
    pub tiles_enriched: u64,
    pub ingests: u64,
    pub ingest: Duration,
}

impl EngineTotals {
    pub fn add_stats(&mut self, stats: &QueryStats) {
        self.evaluations += 1;
        self.lock_wait += stats.lock_wait;
        self.plan_conflicts += stats.plan_conflicts as u64;
        self.zero_io += u64::from(stats.io.objects_read == 0);
        self.synopsis_hits += u64::from(stats.io.synopsis_hits > 0);
        self.tiles_processed += stats.tiles_processed as u64;
        self.tiles_split += stats.tiles_split as u64;
        self.tiles_enriched += stats.tiles_enriched as u64;
    }
}

/// `ServeEngine` wrapper timing the server's calls into `pai-core`.
pub struct TracedEngine<F: RawFile> {
    pub shared: Arc<SharedIndex<F>>,
    pub tracer: Arc<Tracer>,
    /// Shared by every epoch of a traced pass.
    pub totals: Arc<Mutex<EngineTotals>>,
}

impl<F: RawFile> ServeEngine for TracedEngine<F> {
    fn evaluate(
        &self,
        window: &Rect,
        aggs: &[AggregateFunction],
        phi: f64,
    ) -> Result<ApproxResult> {
        let t0 = Instant::now();
        let out = self.shared.evaluate(window, aggs, phi);
        let t1 = Instant::now();
        self.tracer.record(EVALUATE, t0, t1, 0);
        let mut totals = self.totals.lock().expect("engine totals lock");
        totals.evaluate += t1 - t0;
        if let Ok(res) = &out {
            totals.add_stats(&res.stats);
        }
        out
    }

    fn ingest(&self, rows: &[Vec<f64>]) -> Result<AppendReceipt> {
        let t0 = Instant::now();
        let out = self.shared.ingest(rows);
        let t1 = Instant::now();
        self.tracer.record(INGEST, t0, t1, rows.len() as u64);
        let mut totals = self.totals.lock().expect("engine totals lock");
        totals.ingests += 1;
        totals.ingest += t1 - t0;
        out
    }
}

/// Per-parent union of child span time inside the parent's interval: a
/// layer's self time is its span minus this. Children may overlap (two
/// fetch workers), so intervals are merged before summing.
pub fn child_cover_ns(parent: &Span, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let mut covered = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in children.iter() {
        let (s, e) = (s.max(parent.start_ns), e.min(parent.end_ns));
        if e <= s {
            continue;
        }
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    covered
}

/// For each `outer` span in recording order, the total µs of `inner` spans
/// that started inside it (e.g. the scans of each index build).
pub fn inner_us(spans: &[Span], outer: &str, inner: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|o| o.name == outer)
        .map(|o| {
            spans
                .iter()
                .filter(|s| s.name == inner && o.start_ns <= s.start_ns && s.start_ns <= o.end_ns)
                .map(|s| s.dur_ns() as f64 / 1e3)
                .sum()
        })
        .collect()
}

/// The storage read-path metrics every workload reports: `io` is the meter
/// delta over the query phase of `queries` answered queries; times and rows
/// come from the traced `storage.read` and `storage.scan` spans.
pub fn storage_reads(m: &mut Metrics, io: &IoSnapshot, queries: f64, spans: &[Span]) {
    let (read_ns, read_rows) = spans
        .iter()
        .filter(|s| s.name == READ)
        .fold((0u64, 0u64), |(t, r), s| (t + s.dur_ns(), r + s.rows));
    let mut scan_us = inner_us(spans, BUILD, SCAN);
    let pq = |v: u64| v as f64 / queries;
    m.put("storage.read_calls", pq(io.read_calls), "count/q", "");
    m.put("storage.read_us", pq(read_ns) / 1e3, "us/q", "");
    m.put(
        "storage.read_ns_per_row",
        ratio(read_ns as f64, read_rows as f64),
        "ns",
        format!("{read_rows} rows"),
    );
    m.put("storage.objects_read", pq(io.objects_read), "count/q", "");
    m.put("storage.bytes_read", pq(io.bytes_read), "B/q", "");
    m.put("storage.blocks_read", pq(io.blocks_read), "count/q", "");
    m.put(
        "storage.blocks_skipped",
        pq(io.blocks_skipped),
        "count/q",
        "",
    );
    m.put(
        "storage.skip_ratio",
        ratio(
            io.blocks_skipped as f64,
            (io.blocks_read + io.blocks_skipped) as f64,
        ),
        "ratio",
        "",
    );
    m.put(
        "storage.scan_us",
        median(&mut scan_us),
        "us",
        "median over index builds",
    );
    m.put("storage.http_requests", pq(io.http_requests), "count/q", "");
    m.put("storage.http_bytes", pq(io.http_bytes), "B/q", "");
    m.put("storage.fetch_wall_us", pq(io.fetch_wall_us), "us/q", "");
    m.put("storage.overlap_ratio", io.overlap_ratio(), "ratio", "");
}
