//! Thread-safe I/O accounting.
//!
//! The paper's evaluation observes that "evaluation times closely follow the
//! number of objects (i.e., CSV file rows) that need to be read from the raw
//! data file". These counters make that metric explicit and hardware-neutral:
//! every raw-file access path increments them, and the benchmark harness
//! reports them next to wall-clock time.
//!
//! Every meter is declared once, as one row of the `io_meters!` table at
//! the bottom of this file. A row names the field, its adder, its kind and a
//! doc line; the table generates the atomic cell, the [`IoSnapshot`] field,
//! the getter and adder on [`IoCounters`], and the meter's part of
//! [`IoSnapshot::since`], [`IoCounters::snapshot`] and [`IoCounters::reset`].
//! Snapshots travel whole (`QueryStats::io`, `ProgressStep::io`,
//! `QueryRecord::io`), so a new meter reaches every report without further
//! plumbing. The kinds:
//!
//! * `sum` — a running total; a window delta subtracts (saturating).
//! * `peak` — a high-water mark; a window delta keeps the later snapshot's
//!   mark (a reset zeroes it between windows).
//! * `gauge` — a level; a window delta keeps the later snapshot's level.
//! * `hist` — a latency distribution; a window delta subtracts bucket-wise.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::hist::{AtomicHistogram, LatencyHistogram};

/// Monotonic counters for raw-file access. Cheap to clone (shared handle).
#[derive(Debug, Default, Clone)]
pub struct IoCounters {
    inner: Arc<Inner>,
}

impl IoSnapshot {
    /// Fetch-stage busy time over fetch-stage wall time, i.e.
    /// `fetch_request_us / fetch_wall_us`. The numerator sums the
    /// microseconds spent *inside* individual transport requests (summed
    /// across workers, so overlapped requests count multiply); the
    /// denominator is the wall-clock the caller actually waited on
    /// span-batch fetches. Interpretation: `0.0` — no span-batch fetch ran
    /// in the window (local backend, or every span was a cache hit);
    /// `~1.0` — sequential fetching, one request in flight at a time;
    /// `> 1.0` — overlapped workers hid request latency (the value is the
    /// average number of requests concurrently in flight while fetching);
    /// `< 1.0` — per-batch overhead outside requests (merge planning,
    /// adaptive sizing, thread handoff) dominated the window.
    pub fn overlap_ratio(&self) -> f64 {
        if self.fetch_wall_us == 0 {
            0.0
        } else {
            self.fetch_request_us as f64 / self.fetch_wall_us as f64
        }
    }
}

impl IoCounters {
    /// Fresh counters, all zero.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Storage and semantics of one meter kind (see the module docs).
#[rustfmt::skip]
macro_rules! meter_kind {
    (cell hist) => { AtomicHistogram };
    (cell $kind:ident) => { AtomicU64 };
    (value hist) => { LatencyHistogram };
    (value $kind:ident) => { u64 };
    (record sum, $cell:expr, $n:expr) => { $cell.fetch_add($n, Ordering::Relaxed) };
    (record peak, $cell:expr, $n:expr) => { $cell.fetch_max($n, Ordering::Relaxed) };
    (record gauge, $cell:expr, $n:expr) => { $cell.store($n, Ordering::Relaxed) };
    (read hist, $cell:expr) => { $cell.snapshot() };
    (read $kind:ident, $cell:expr) => { $cell.load(Ordering::Relaxed) };
    (reset hist, $cell:expr) => { $cell.reset() };
    (reset $kind:ident, $cell:expr) => { $cell.store(0, Ordering::Relaxed) };
    (since sum, $later:expr, $earlier:expr) => { $later.saturating_sub($earlier) };
    (since peak, $later:expr, $earlier:expr) => { $later };
    (since gauge, $later:expr, $earlier:expr) => { $later };
    (since hist, $later:expr, $earlier:expr) => { $later.since(&$earlier) };
}

/// Generates everything per-meter from one table. A row reads
/// `name: kind, adder(n);` — `adder()` records one unit, `+ other` also
/// feeds meter `other` from the same adder, and a row without an adder is
/// fed only that way.
macro_rules! io_meters {
    (@amount) => { 1 };
    (@amount $n:ident) => { $n };
    ($(
        $(#[doc = $doc:literal])+
        $name:ident: $kind:ident $(, $adder:ident($($n:ident)?) $(+ $also:ident)?)?;
    )+) => {
        #[derive(Debug, Default)]
        struct Inner {
            $($name: meter_kind!(cell $kind),)+
        }

        /// A point-in-time copy of the counter values.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct IoSnapshot {
            $($(#[doc = $doc])+ pub $name: meter_kind!(value $kind),)+
        }

        impl IoSnapshot {
            /// Meter deltas `self - earlier`, per kind: sums subtract
            /// (saturating, for safety against snapshots taken out of
            /// order), peaks and gauges keep `self`'s value, histograms
            /// subtract bucket-wise.
            pub fn since(&self, earlier: &IoSnapshot) -> IoSnapshot {
                IoSnapshot {
                    $($name: meter_kind!(since $kind, self.$name, earlier.$name),)+
                }
            }
        }

        impl IoCounters {
            $(
                $(
                    #[doc = concat!(
                        "Records into [`IoSnapshot::", stringify!($name),
                        "`] (a ", stringify!($kind), ")."
                    )]
                    #[inline]
                    pub fn $adder(&self $(, $n: u64)?) {
                        let amount: u64 = io_meters!(@amount $($n)?);
                        meter_kind!(record $kind, self.inner.$name, amount);
                        $(self.inner.$also.record(amount);)?
                    }
                )?

                #[doc = concat!("Current value of [`IoSnapshot::", stringify!($name), "`].")]
                pub fn $name(&self) -> meter_kind!(value $kind) {
                    meter_kind!(read $kind, self.inner.$name)
                }
            )+

            /// Captures current values.
            pub fn snapshot(&self) -> IoSnapshot {
                IoSnapshot {
                    $($name: self.$name(),)+
                }
            }

            /// Resets all counters to zero.
            pub fn reset(&self) {
                $(meter_kind!(reset $kind, self.inner.$name);)+
            }
        }
    };
}

io_meters! {
    /// Rows materialized from the file (the paper's headline cost).
    objects_read: sum, add_objects(n);
    /// Logical bytes pulled from the file.
    bytes_read: sum, add_bytes(n);
    /// Random-access seek operations issued.
    seeks: sum, add_seeks(n);
    /// Full-file sequential scans performed (initialization, ground truth).
    full_scans: sum, add_full_scan();
    /// `read_rows` invocations issued; batched adaptation coalesces many
    /// tiles into one call, so this (not `objects_read`) is what it shrinks.
    read_calls: sum, add_read_call();
    /// Storage blocks materialized (`PaiBin` pages, `PaiZone` blocks; 0 on CSV).
    blocks_read: sum, add_blocks_read(n);
    /// Blocks a zone-map pushdown proved irrelevant and never touched.
    blocks_skipped: sum, add_blocks_skipped(n);
    /// Ranged HTTP requests issued by a remote backend (0 locally); the
    /// meter request coalescing shrinks.
    http_requests: sum, add_http_requests(n);
    /// Bytes on the wire for those requests, headers and bodies in both
    /// directions (0 locally); over-fetch shows up here, not in `bytes_read`.
    http_bytes: sum, add_http_bytes(n);
    /// Remote requests retried after a transient fault (0 locally).
    retries: sum, add_retries(n);
    /// Peak concurrently in-flight fetch requests (1 for a sequential fetch
    /// path, 0 when no span-batch fetch ran).
    fetch_inflight_peak: peak, note_fetch_inflight(n);
    /// Microseconds spent inside fetch requests, summed across requests
    /// (and across workers, so overlap inflates it).
    fetch_request_us: sum, add_fetch_request_us(n) + fetch_hist;
    /// Wall-clock microseconds the caller waited on span-batch fetches.
    fetch_wall_us: sum, add_fetch_wall_us(n);
    /// Adaptive part-sizer parameter changes.
    parts_resized: sum, add_parts_resized(n);
    /// Spans served from the block cache, subtracted before coalescing
    /// (0 when no cache is attached).
    cache_hits: sum, add_cache_hits(n);
    /// Spans the block cache handed to the transport.
    cache_misses: sum, add_cache_misses(n);
    /// Cache entries evicted to stay inside the memory + disk budgets.
    cache_evictions: sum, add_cache_evictions(n);
    /// Bytes written to the cache's disk-spill tier.
    cache_spill_bytes: sum, add_cache_spill_bytes(n);
    /// Bytes resident in the cache's memory tier.
    cache_mem_bytes: gauge, set_cache_mem_bytes(n);
    /// Queries answered entirely from block synopses (zero data I/O).
    synopsis_hits: sum, add_synopsis_hits(n);
    /// Block synopses consulted by the synopsis evaluator (hit or miss).
    synopsis_blocks: sum, add_synopsis_blocks(n);
    /// In-memory synopsis metadata bytes consulted (never on the transport).
    synopsis_bytes: sum, add_synopsis_bytes(n);
    /// Rows appended through an ingest path.
    rows_ingested: sum, add_rows_ingested(n);
    /// Sealed delta blocks currently live: ingest raises it, compaction
    /// lowers it.
    delta_blocks: gauge, set_delta_blocks(n);
    /// Completed compaction passes (delta runs re-clustered into Z-order).
    compactions: sum, add_compactions(n);
    /// Storage blocks rewritten by compaction.
    blocks_rewritten: sum, add_blocks_rewritten(n);
    /// Cached spans dropped because their object's generation tag changed
    /// (a remote rewrite, or a compaction retiring a base).
    cache_invalidations: sum, add_cache_invalidations(n);
    /// Distribution of per-request fetch latencies (one observation per
    /// transport request, log2 µs buckets), fed by `add_fetch_request_us`;
    /// `fetch_hist.p50_us()` / `p99_us()` are the headline quantiles.
    fetch_hist: hist;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let c = IoCounters::new();
        c.add_objects(10);
        c.add_objects(5);
        c.add_bytes(100);
        c.add_seeks(2);
        c.add_full_scan();
        c.add_read_call();
        c.add_read_call();
        c.add_blocks_read(3);
        c.add_blocks_skipped(9);
        c.add_http_requests(4);
        c.add_http_bytes(777);
        c.add_retries(2);
        c.note_fetch_inflight(3);
        c.note_fetch_inflight(1);
        c.add_fetch_request_us(900);
        c.add_fetch_wall_us(300);
        c.add_parts_resized(1);
        c.add_cache_hits(6);
        c.add_cache_misses(2);
        c.add_cache_evictions(1);
        c.add_cache_spill_bytes(4096);
        c.set_cache_mem_bytes(128);
        c.set_cache_mem_bytes(96);
        c.add_synopsis_hits(1);
        c.add_synopsis_blocks(12);
        c.add_synopsis_bytes(2048);
        c.add_rows_ingested(64);
        c.set_delta_blocks(5);
        c.set_delta_blocks(3);
        c.add_compactions(1);
        c.add_blocks_rewritten(8);
        c.add_cache_invalidations(4);
        assert_eq!(c.objects_read(), 15);
        assert_eq!(c.bytes_read(), 100);
        assert_eq!(c.seeks(), 2);
        assert_eq!(c.full_scans(), 1);
        assert_eq!(c.read_calls(), 2);
        assert_eq!(c.blocks_read(), 3);
        assert_eq!(c.blocks_skipped(), 9);
        assert_eq!(c.http_requests(), 4);
        assert_eq!(c.http_bytes(), 777);
        assert_eq!(c.retries(), 2);
        // fetch_inflight_peak keeps the max, never sums.
        assert_eq!(c.fetch_inflight_peak(), 3);
        assert_eq!(c.fetch_request_us(), 900);
        assert_eq!(c.fetch_wall_us(), 300);
        assert_eq!(c.parts_resized(), 1);
        assert_eq!(c.cache_hits(), 6);
        assert_eq!(c.cache_misses(), 2);
        assert_eq!(c.cache_evictions(), 1);
        assert_eq!(c.cache_spill_bytes(), 4096);
        // cache_mem_bytes is a gauge: the last stored level, never a sum.
        assert_eq!(c.cache_mem_bytes(), 96);
        assert_eq!(c.synopsis_hits(), 1);
        assert_eq!(c.synopsis_blocks(), 12);
        assert_eq!(c.synopsis_bytes(), 2048);
        assert_eq!(c.rows_ingested(), 64);
        // delta_blocks is a gauge: the last stored level, never a sum.
        assert_eq!(c.delta_blocks(), 3);
        assert_eq!(c.compactions(), 1);
        assert_eq!(c.blocks_rewritten(), 8);
        assert_eq!(c.cache_invalidations(), 4);
        assert_eq!(c.snapshot().overlap_ratio(), 3.0);
        // Every add_fetch_request_us call is one histogram observation.
        assert_eq!(c.fetch_hist().count(), 1);
        assert!(c.fetch_hist().p50_us() >= 900);
    }

    #[test]
    fn clones_share_state() {
        let a = IoCounters::new();
        let b = a.clone();
        a.add_objects(7);
        assert_eq!(b.objects_read(), 7);
    }

    #[test]
    fn snapshot_deltas() {
        let c = IoCounters::new();
        c.add_objects(3);
        let s1 = c.snapshot();
        c.add_objects(4);
        c.add_bytes(9);
        c.add_blocks_read(2);
        c.add_blocks_skipped(5);
        c.add_http_requests(3);
        c.add_http_bytes(64);
        c.add_retries(1);
        c.note_fetch_inflight(2);
        c.add_fetch_request_us(50);
        c.add_fetch_wall_us(40);
        c.add_parts_resized(2);
        c.add_cache_hits(5);
        c.add_cache_misses(3);
        c.add_cache_evictions(2);
        c.add_cache_spill_bytes(512);
        c.set_cache_mem_bytes(777);
        c.add_synopsis_hits(2);
        c.add_synopsis_blocks(7);
        c.add_synopsis_bytes(640);
        c.add_rows_ingested(16);
        c.set_delta_blocks(9);
        c.add_compactions(1);
        c.add_blocks_rewritten(6);
        c.add_cache_invalidations(3);
        let s2 = c.snapshot();
        let d = s2.since(&s1);
        assert_eq!(d.objects_read, 4);
        assert_eq!(d.bytes_read, 9);
        assert_eq!(d.blocks_read, 2);
        assert_eq!(d.blocks_skipped, 5);
        assert_eq!(d.http_requests, 3);
        assert_eq!(d.http_bytes, 64);
        assert_eq!(d.retries, 1);
        // Peak passes through the delta; durations subtract like totals.
        assert_eq!(d.fetch_inflight_peak, 2);
        assert_eq!(d.fetch_request_us, 50);
        assert_eq!(d.fetch_wall_us, 40);
        assert_eq!(d.parts_resized, 2);
        assert_eq!(d.cache_hits, 5);
        assert_eq!(d.cache_misses, 3);
        assert_eq!(d.cache_evictions, 2);
        assert_eq!(d.cache_spill_bytes, 512);
        // The memory-tier gauge passes through like the in-flight peak.
        assert_eq!(d.cache_mem_bytes, 777);
        assert_eq!(d.synopsis_hits, 2);
        assert_eq!(d.synopsis_blocks, 7);
        assert_eq!(d.synopsis_bytes, 640);
        assert_eq!(d.rows_ingested, 16);
        // The delta-block gauge passes through like the memory gauge.
        assert_eq!(d.delta_blocks, 9);
        assert_eq!(d.compactions, 1);
        assert_eq!(d.blocks_rewritten, 6);
        assert_eq!(d.cache_invalidations, 3);
        // The histogram delta carries only the window's observations.
        assert_eq!(d.fetch_hist.count(), 1);
        // An idle window reports no overlap.
        assert_eq!(IoSnapshot::default().overlap_ratio(), 0.0);
        // Out-of-order snapshots saturate instead of underflowing.
        assert_eq!(s1.since(&s2).objects_read, 0);
    }

    #[test]
    fn reset_zeroes() {
        let c = IoCounters::new();
        c.add_objects(3);
        c.reset();
        assert_eq!(c.snapshot(), IoSnapshot::default());
    }

    #[test]
    fn concurrent_increments() {
        let c = IoCounters::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.add_objects(1);
                    }
                });
            }
        });
        assert_eq!(c.objects_read(), 4000);
    }
}
