//! `HttpFile`: a real remote object-store backend over HTTP/1.1 ranged GETs.
//!
//! [`crate::LatencyFile`] simulates the remote *cost model*; this module is
//! the remote *transport*. An [`HttpFile`] serves a PaiBin or PaiZone image
//! that lives behind an HTTP object store (in tests and benches, the
//! bundled [`crate::objstore::ObjectStore`]) and implements the full
//! [`crate::RawFile`] surface — scans, positional reads, zone-map pushdown —
//! by fetching byte ranges on demand. Three client-side mechanisms make
//! that viable when every request pays a round trip:
//!
//! * **Request coalescing** ([`HttpBlob::read_spans`]) — the decode layers
//!   hand the client *batches* of byte spans (one per block run), and the
//!   client merges spans that are adjacent or nearly so (gap ≤
//!   [`HttpOptions::coalesce_gap`]) into single ranged GETs, capped at
//!   [`HttpOptions::part_bytes`] per request — the "part size" an object
//!   store serves efficiently. Skipped zone-map blocks never enter a batch,
//!   so pushdown translates directly into GETs never issued.
//! * **Connection reuse** — keep-alive connections are pooled and recycled
//!   across requests (and across concurrent readers).
//! * **Bounded retry with exponential backoff** — transient failures (5xx
//!   responses, dropped connections, short reads) are retried up to
//!   [`HttpOptions::max_retries`] times, doubling
//!   [`HttpOptions::backoff`] each attempt. Every retry is metered.
//! * **Overlapped fetching** ([`HttpOptions::fetch_workers`]) — a bounded
//!   pool of scoped worker threads issues a span batch's merged GETs
//!   concurrently and streams each completed group through a channel back
//!   to the calling thread, which slices arrived groups into their output
//!   spans while later GETs are still in flight. The groups are computed
//!   *before* any worker starts, so the request pattern (and every logical
//!   meter) is byte-identical to the sequential path — only wall-clock
//!   changes. `fetch_workers = 1` is exactly the old sequential loop.
//! * **Adaptive part sizing** ([`HttpOptions::adaptive`]) — instead of
//!   trusting the static `coalesce_gap`/`part_bytes` knobs, the client
//!   learns an effective gap and part size per object from the observed
//!   span-gap distribution (EWMA over recent batches), floored at the
//!   static knobs so it only ever merges *more* aggressively. Every
//!   parameter change is metered as `parts_resized`.
//!
//! Metering: the wrapped file's logical meters (`bytes_read`, `seeks`,
//! `blocks_read`, …) tick exactly as they do on a local `ZoneFile`/`BinFile`
//! — answers and logical I/O are byte-identical by construction — while
//! the transport meters make the remote story visible end-to-end:
//! `http_requests` (ranged GETs issued), `http_bytes` (bytes on the wire in
//! both directions, headers included), `retries`, plus the pipeline meters
//! `fetch_inflight_peak`, `fetch_request_us`/`fetch_wall_us` (whose ratio
//! is the overlap factor), and `parts_resized`. The naive and coalesced
//! clients share one group-fetch path ([`HttpBlob::read_spans`] treats a
//! naive batch as single-span groups), so retry/backoff metering is
//! identical in both modes by construction.

use std::io::{BufRead, BufReader, Read, Seek, SeekFrom, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use pai_common::geometry::Rect;
use pai_common::{AttrId, IoCounters, PaiError, Result, RowLocator};

use crate::cache::{BlockCache, CacheConfig, CacheMode};
use crate::column::{BinFile, PAIBIN_MAGIC};
use crate::raw::{BlockStats, BlockSynopsis, RawFile, RowHandler, ScanPartition};
use crate::schema::Schema;
use crate::zone::{ZoneFile, PAIZONE_MAGIC, PAIZONE_MAGIC_V2};

/// Client-side tuning for a remote object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpOptions {
    /// Target size of one ranged GET — the object store's "part" size.
    /// Coalescing never grows a merged request beyond this (a single span
    /// larger than a part is still fetched in one request).
    pub part_bytes: u64,
    /// Maximum gap (bytes) bridged when merging adjacent spans into one
    /// request. Gap bytes are fetched and discarded, so this should stay
    /// near the per-request overhead (~250 wire bytes) they save.
    pub coalesce_gap: u64,
    /// Whether to coalesce at all. `false` is the naive client: one ranged
    /// GET per span, exactly as requested (the baseline `remote_bench`
    /// measures against).
    pub coalesce: bool,
    /// How many times a transiently-failed request is retried before the
    /// error surfaces.
    pub max_retries: u32,
    /// Backoff before the first retry; doubles on each subsequent one.
    pub backoff: Duration,
    /// Fetch workers for one span batch: merged GETs are issued by up to
    /// this many scoped threads concurrently, streaming completed groups
    /// into the caller while later GETs are in flight. `1` (the default)
    /// is the sequential loop; values are clamped to the group count.
    pub fetch_workers: usize,
    /// Learn the effective `coalesce_gap`/`part_bytes` per object from the
    /// observed span-gap distribution (EWMA over recent batches) instead
    /// of trusting the static knobs. The learned values are floored at the
    /// static ones, so adaptive sizing only ever merges more aggressively
    /// (never more GETs than the static configuration would issue on the
    /// same batch).
    pub adaptive: bool,
    /// Build a private tiered block cache for this object (see
    /// [`crate::cache`]): span-batch hits are served locally and
    /// subtracted *before* coalescing, so repeat visits to hot blocks
    /// issue GETs only for the misses. `None` (the default) is uncached.
    /// For a cache *shared* across files, wrap with
    /// [`crate::CachedFile`] instead.
    pub cache: Option<CacheConfig>,
    /// How long cached spans may be served without re-checking the remote
    /// object's `ETag`. `None` (the default) never proactively revalidates:
    /// a fully-cached batch does zero HTTP work, and a mutation is only
    /// noticed when some miss issues a GET. `Some(ttl)` probes the object
    /// with a 1-byte GET once per `ttl` before serving hits, so even
    /// all-hit batches notice a replaced object within the TTL. Either
    /// way, an observed ETag change drops every cached span of the object
    /// and refetches the batch — stale spans become misses, never lies.
    /// Replacements are assumed layout-compatible (same length and format,
    /// e.g. a compaction rewrite); a reshaped object needs a reopen.
    pub revalidate_ttl: Option<Duration>,
}

impl Default for HttpOptions {
    fn default() -> Self {
        HttpOptions {
            part_bytes: 64 * 1024,
            coalesce_gap: 256,
            coalesce: true,
            max_retries: 4,
            backoff: Duration::from_millis(1),
            fetch_workers: 1,
            adaptive: false,
            cache: None,
            revalidate_ttl: None,
        }
    }
}

impl HttpOptions {
    /// The naive client: no coalescing, every span its own ranged GET.
    pub fn naive() -> Self {
        HttpOptions {
            coalesce: false,
            ..HttpOptions::default()
        }
    }

    /// Default options with the given part size (`0` = naive client).
    pub fn with_part_bytes(part_bytes: u64) -> Self {
        if part_bytes == 0 {
            HttpOptions::naive()
        } else {
            HttpOptions {
                part_bytes,
                ..HttpOptions::default()
            }
        }
    }

    /// These options with `n` overlapped fetch workers (min 1).
    pub fn with_fetch_workers(mut self, n: usize) -> Self {
        self.fetch_workers = n.max(1);
        self
    }

    /// These options with adaptive part sizing switched on or off.
    pub fn with_adaptive(mut self, adaptive: bool) -> Self {
        self.adaptive = adaptive;
        self
    }

    /// These options with a private tiered block cache of the given
    /// budgets (see [`CacheConfig`]).
    pub fn with_cache(mut self, cache: CacheConfig) -> Self {
        self.cache = Some(cache);
        self
    }

    /// These options with an ETag-revalidation TTL (see
    /// [`HttpOptions::revalidate_ttl`]).
    pub fn with_revalidate_ttl(mut self, ttl: Option<Duration>) -> Self {
        self.revalidate_ttl = ttl;
        self
    }
}

/// Classifies an attempt failure: retry or surface.
enum GetError {
    /// Worth retrying: 5xx, dropped connection, short read.
    Transient(String),
    /// Not worth retrying: 4xx, malformed response.
    Permanent(PaiError),
}

/// One parsed response head.
struct ResponseHead {
    status: u16,
    content_length: Option<u64>,
    /// Total object size from `Content-Range: bytes a-b/total`.
    total: Option<u64>,
    /// The object's entity tag (quotes stripped), if the store sent one.
    etag: Option<String>,
    head_bytes: u64,
}

/// A pooled keep-alive connection.
type Conn = BufReader<TcpStream>;

/// The HTTP/1.1 range client for one remote object: connection pool,
/// retry/backoff, transport metering.
pub struct HttpClient {
    addr: SocketAddr,
    object: String,
    opts: HttpOptions,
    counters: IoCounters,
    pool: Mutex<Vec<Conn>>,
    /// Last `ETag` observed on any successful response.
    etag: Mutex<Option<String>>,
    /// Sticky flag: some response revealed the object changed generations
    /// since the last observation. Consumed by [`HttpClient::take_etag_change`].
    etag_changed: AtomicBool,
}

impl HttpClient {
    fn new(addr: SocketAddr, object: String, opts: HttpOptions, counters: IoCounters) -> Self {
        HttpClient {
            addr,
            object,
            opts,
            counters,
            pool: Mutex::new(Vec::new()),
            etag: Mutex::new(None),
            etag_changed: AtomicBool::new(false),
        }
    }

    /// Records a response's entity tag; a change against the previously
    /// observed tag raises the sticky changed flag.
    fn note_etag(&self, tag: Option<&str>) {
        let Some(tag) = tag else { return };
        let mut seen = self.etag.lock().expect("etag");
        if seen.as_deref().is_some_and(|old| old != tag) {
            self.etag_changed.store(true, Ordering::Relaxed);
        }
        *seen = Some(tag.to_string());
    }

    /// Consumes the changed flag: `true` exactly once per detected
    /// generation change.
    fn take_etag_change(&self) -> bool {
        self.etag_changed.swap(false, Ordering::Relaxed)
    }

    fn checkout(&self) -> std::io::Result<Conn> {
        if let Some(conn) = self.pool.lock().expect("conn pool").pop() {
            return Ok(conn);
        }
        let stream = TcpStream::connect(self.addr)?;
        // Many small request/response exchanges per connection: Nagle's
        // algorithm would serialize them against delayed ACKs.
        stream.set_nodelay(true)?;
        Ok(BufReader::new(stream))
    }

    fn checkin(&self, conn: Conn) {
        let mut pool = self.pool.lock().expect("conn pool");
        if pool.len() < 8 {
            pool.push(conn);
        }
    }

    /// Fetches bytes `[start, end)` with bounded retry. Returns the body and
    /// the object's total size (from `Content-Range`).
    pub fn get_range(&self, start: u64, end: u64) -> Result<(Vec<u8>, u64)> {
        debug_assert!(end > start, "empty ranges never reach the client");
        let mut attempt = 0u32;
        loop {
            match self.try_get(start, end) {
                Ok(ok) => return Ok(ok),
                Err(GetError::Permanent(e)) => return Err(e),
                Err(GetError::Transient(what)) => {
                    if attempt >= self.opts.max_retries {
                        return Err(PaiError::internal(format!(
                            "remote GET bytes={start}-{} failed after {attempt} retries: {what}",
                            end - 1
                        )));
                    }
                    self.counters.add_retries(1);
                    let delay = self.opts.backoff * 2u32.saturating_pow(attempt);
                    if !delay.is_zero() {
                        std::thread::sleep(delay);
                    }
                    attempt += 1;
                }
            }
        }
    }

    /// One attempt: checkout a connection, issue the ranged GET, read the
    /// response. The connection returns to the pool only on full success.
    fn try_get(&self, start: u64, end: u64) -> std::result::Result<(Vec<u8>, u64), GetError> {
        let mut conn = self
            .checkout()
            .map_err(|e| GetError::Transient(format!("connect: {e}")))?;
        let request = format!(
            "GET /{} HTTP/1.1\r\nHost: {}\r\nRange: bytes={start}-{}\r\nConnection: keep-alive\r\n\r\n",
            self.object,
            self.addr,
            end - 1
        );
        self.counters.add_http_requests(1);
        self.counters.add_http_bytes(request.len() as u64);
        if let Err(e) = conn.get_mut().write_all(request.as_bytes()) {
            return Err(GetError::Transient(format!("send: {e}")));
        }
        let head = read_head(&mut conn).map_err(GetError::Transient)?;
        self.counters.add_http_bytes(head.head_bytes);
        if head.status >= 500 {
            // The server answered; the keep-alive connection is reusable
            // once the (usually empty) error body is drained — returning it
            // undrained would desync the stream for the next request.
            let reusable = match head.content_length {
                Some(0) => true,
                Some(n) => {
                    let mut sink = vec![0u8; n as usize];
                    let ok = conn.read_exact(&mut sink).is_ok();
                    if ok {
                        self.counters.add_http_bytes(n);
                    }
                    ok
                }
                None => false, // unknown body length: cannot trust the stream
            };
            if reusable {
                self.checkin(conn);
            }
            return Err(GetError::Transient(format!("HTTP {}", head.status)));
        }
        if head.status != 206 && head.status != 200 {
            return Err(GetError::Permanent(PaiError::internal(format!(
                "remote GET bytes={start}-{}: HTTP {}",
                end - 1,
                head.status
            ))));
        }
        self.note_etag(head.etag.as_deref());
        let expected = head.content_length.ok_or_else(|| {
            GetError::Permanent(PaiError::internal("response carried no Content-Length"))
        })?;
        let mut body = vec![0u8; expected as usize];
        let mut got = 0usize;
        while got < body.len() {
            match conn.read(&mut body[got..]) {
                Ok(0) => {
                    self.counters.add_http_bytes(got as u64);
                    return Err(GetError::Transient(format!(
                        "short read: {got} of {expected} body bytes"
                    )));
                }
                Ok(n) => got += n,
                Err(e) => {
                    self.counters.add_http_bytes(got as u64);
                    return Err(GetError::Transient(format!("recv: {e}")));
                }
            }
        }
        self.counters.add_http_bytes(expected);
        let total = head.total.unwrap_or(expected);
        self.checkin(conn);
        Ok((body, total))
    }
}

/// Reads a status line plus headers. Errors are transient (connection-level).
fn read_head(conn: &mut Conn) -> std::result::Result<ResponseHead, String> {
    let mut line = String::new();
    let mut head_bytes = 0u64;
    conn.read_line(&mut line)
        .map_err(|e| format!("recv: {e}"))?;
    if line.is_empty() {
        return Err("connection closed before any response".into());
    }
    head_bytes += line.len() as u64;
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed status line {line:?}"))?;
    let mut content_length = None;
    let mut total = None;
    let mut etag = None;
    loop {
        let mut header = String::new();
        conn.read_line(&mut header)
            .map_err(|e| format!("recv: {e}"))?;
        if header.is_empty() {
            return Err("connection closed inside the response head".into());
        }
        head_bytes += header.len() as u64;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((key, value)) = header.split_once(':') {
            let value = value.trim();
            if key.eq_ignore_ascii_case("content-length") {
                content_length = value.parse().ok();
            } else if key.eq_ignore_ascii_case("content-range") {
                // `bytes a-b/total` or `bytes */total`.
                total = value.rsplit('/').next().and_then(|t| t.parse().ok());
            } else if key.eq_ignore_ascii_case("etag") {
                etag = Some(value.trim_matches('"').to_string());
            }
        }
    }
    Ok(ResponseHead {
        status,
        content_length,
        total,
        etag,
        head_bytes,
    })
}

/// Per-object adaptive-sizing state: EWMAs over the span batches this blob
/// has served. Gaps feed the effective coalesce gap, cluster extents feed
/// the effective part size.
#[derive(Debug, Default)]
struct Sizer {
    /// EWMA of bridgeable inter-span gaps (gaps small enough that fetching
    /// them as waste beats a second round trip).
    gap_ewma: f64,
    /// EWMA of the largest contiguous span-cluster extent per batch.
    extent_ewma: f64,
    /// The `(gap, part)` pair last handed out, for `parts_resized`.
    last: Option<(u64, u64)>,
}

/// Smoothing factor for the sizer EWMAs: recent batches dominate, but one
/// odd batch cannot whipsaw the parameters.
const SIZER_ALPHA: f64 = 0.25;
/// Gaps above this are cluster breaks, not bridgeable waste — they never
/// feed the gap EWMA and the learned gap never exceeds it.
const SIZER_GAP_CEILING: u64 = 16 * 1024;
/// The learned part size never exceeds what an object store serves well.
const SIZER_PART_CEILING: u64 = 1 << 20;

/// A remote object addressed as a flat byte blob: the span-fetch layer the
/// binary backends read through when their bytes live behind HTTP.
pub struct HttpBlob {
    client: HttpClient,
    len: u64,
    /// The object's leading bytes, captured by the single open-time GET
    /// that also learns the total size: magic sniffing and header decoding
    /// start from this buffer instead of re-fetching offset 0.
    prefix: Vec<u8>,
    /// Adaptive-sizing state (used only when `opts.adaptive`).
    sizer: Mutex<Sizer>,
    /// Bound block cache, if any: span-batch hits are served from it and
    /// subtracted before coalescing. Set once, at open or attach time.
    cache: OnceLock<CacheBinding>,
    /// When the object's ETag was last proactively checked (see
    /// [`HttpOptions::revalidate_ttl`]).
    last_validated: Mutex<Instant>,
}

/// A blob's handle into a (possibly shared) block cache.
struct CacheBinding {
    cache: Arc<BlockCache>,
    /// This blob's object id within the cache's registry.
    object: u64,
}

impl std::fmt::Debug for HttpBlob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HttpBlob")
            .field("addr", &self.client.addr)
            .field("object", &self.client.object)
            .field("len", &self.len)
            .finish()
    }
}

impl HttpBlob {
    /// Connects to `addr` and opens `object` with a single part-sized GET
    /// that learns the total size (from `Content-Range`) and captures the
    /// leading bytes for header decoding. Empty objects are rejected (no
    /// valid image is zero bytes).
    pub fn open(
        addr: impl ToSocketAddrs,
        object: impl Into<String>,
        opts: HttpOptions,
        counters: IoCounters,
    ) -> Result<HttpBlob> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| PaiError::config("object store address resolves to nothing"))?;
        let client = HttpClient::new(addr, object.into(), opts, counters);
        let chunk = client.opts.part_bytes.clamp(4096, 1 << 20);
        let (prefix, len) = client.get_range(0, chunk)?;
        let blob = HttpBlob {
            client,
            len,
            prefix,
            sizer: Mutex::new(Sizer::default()),
            cache: OnceLock::new(),
            last_validated: Mutex::new(Instant::now()),
        };
        if let Some(cfg) = blob.client.opts.cache.clone() {
            blob.attach_cache(Arc::new(BlockCache::new(cfg)));
        }
        Ok(blob)
    }

    /// Binds a block cache to this blob's span-fetch path (at most once
    /// per blob; later calls are no-ops returning `false`). Shared caches
    /// key entries by object name, so two blobs opening the same object
    /// hit each other's admissions.
    pub fn attach_cache(&self, cache: Arc<BlockCache>) -> bool {
        let object = cache.object_id(&self.client.object);
        self.cache.set(CacheBinding { cache, object }).is_ok()
    }

    /// The bound block cache, if any.
    pub fn cache(&self) -> Option<&Arc<BlockCache>> {
        self.cache.get().map(|b| &b.cache)
    }

    /// The leading bytes captured at open time (up to one part).
    pub(crate) fn prefix(&self) -> &[u8] {
        &self.prefix
    }

    /// Total object size in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the object is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The shared transport meters.
    pub fn counters(&self) -> &IoCounters {
        &self.client.counters
    }

    /// The client tuning this blob was opened with.
    pub fn options(&self) -> &HttpOptions {
        &self.client.opts
    }

    /// Fetches raw bytes `[off, off + len)` in one ranged GET (no
    /// coalescing; header decoding and probes use this).
    pub fn fetch(&self, off: u64, len: u64) -> Result<Vec<u8>> {
        if len == 0 {
            return Ok(Vec::new());
        }
        let (bytes, _) = self.client.get_range(off, off + len)?;
        if bytes.len() as u64 != len {
            return Err(PaiError::internal(format!(
                "remote returned {} bytes for a {len}-byte range",
                bytes.len()
            )));
        }
        Ok(bytes)
    }

    /// Fetches many `(offset, len)` spans, coalescing them into as few
    /// ranged GETs as the options allow. Results come back in input order,
    /// each exactly `len` bytes. Spans must lie inside the object.
    ///
    /// With `fetch_workers > 1` the merged GETs are issued by a bounded
    /// pool of scoped threads and each completed group is sliced into its
    /// output spans while later GETs are still in flight; the groups
    /// themselves are computed up front either way, so the request pattern
    /// is identical at every worker count. The naive client takes exactly
    /// this path with single-span groups — retry, backoff, and every meter
    /// are shared between the naive and coalesced modes by construction.
    ///
    /// Misses admit to a bound cache under [`CacheMode::Admit`]; scan
    /// paths use [`HttpBlob::read_spans_mode`] to opt into the one-touch
    /// streaming rule instead.
    pub fn read_spans(&self, spans: &[(u64, u64)]) -> Result<Vec<Vec<u8>>> {
        self.read_spans_mode(spans, CacheMode::Admit)
    }

    /// [`HttpBlob::read_spans`] with an explicit cache-admission mode.
    ///
    /// When a cache is bound, each span is looked up first and hits are
    /// copied straight into the output — *before* sorting, adaptive
    /// sizing, and coalescing, so only the miss spans shape the merged
    /// GETs. A fully-cached batch does zero HTTP work (and adds zero
    /// fetch wall time); an empty cache leaves the request pattern
    /// byte-identical to the uncached client. Fetched misses are then
    /// offered back to the cache under `mode`'s admission rule.
    ///
    /// Staleness guard: if any GET in the batch reveals a changed `ETag`
    /// (the store replaced the object mid-session), every cached span of
    /// the object is dropped and — when the batch had copied any cache
    /// hits, which may now be from the retired generation — the whole
    /// batch is refetched once against the emptied cache. The result
    /// therefore never mixes generations that a single GET could tell
    /// apart.
    pub fn read_spans_mode(&self, spans: &[(u64, u64)], mode: CacheMode) -> Result<Vec<Vec<u8>>> {
        self.maybe_revalidate()?;
        let (out, had_hits) = self.read_spans_attempt(spans, mode)?;
        if self.client.take_etag_change() {
            self.invalidate_cached_spans();
            if had_hits {
                // The hits came from the old generation; the cache is now
                // empty for this object, so one retry fetches everything
                // fresh (and its GETs re-observe the *new* tag, so this
                // cannot recurse).
                let (out, _) = self.read_spans_attempt(spans, mode)?;
                return Ok(out);
            }
        }
        Ok(out)
    }

    /// Probes the object's current `ETag` with a 1-byte GET when the
    /// configured [`HttpOptions::revalidate_ttl`] has lapsed, dropping
    /// cached spans if the object changed. A no-op without a TTL, without
    /// a bound cache, or within the TTL.
    fn maybe_revalidate(&self) -> Result<()> {
        let Some(ttl) = self.client.opts.revalidate_ttl else {
            return Ok(());
        };
        if self.cache.get().is_none() || self.len == 0 {
            return Ok(());
        }
        {
            let mut last = self.last_validated.lock().expect("revalidate clock");
            if last.elapsed() < ttl {
                return Ok(());
            }
            *last = Instant::now();
        }
        let _ = self.client.get_range(0, 1)?;
        if self.client.take_etag_change() {
            self.invalidate_cached_spans();
        }
        Ok(())
    }

    /// Drops every span this blob has cached (no-op without a bound
    /// cache), metering the removals as `cache_invalidations` and
    /// republishing the `cache_mem_bytes` gauge. Returns how many entries
    /// were dropped.
    pub fn invalidate_cached_spans(&self) -> u64 {
        let Some(b) = self.cache.get() else { return 0 };
        let n = b.cache.invalidate_object(b.object);
        if n > 0 {
            self.client.counters.add_cache_invalidations(n);
            self.client.counters.set_cache_mem_bytes(b.cache.mem_used());
        }
        n
    }

    /// One pass of the span-batch fetch: cache hits copied out, misses
    /// coalesced, fetched, and offered back. Returns the output buffers
    /// and whether any span was served from the cache.
    fn read_spans_attempt(
        &self,
        spans: &[(u64, u64)],
        mode: CacheMode,
    ) -> Result<(Vec<Vec<u8>>, bool)> {
        let mut had_hits = false;
        let mut out: Vec<Vec<u8>> = vec![Vec::new(); spans.len()];
        if spans.is_empty() {
            return Ok((out, had_hits));
        }
        for &(off, len) in spans {
            if off.checked_add(len).is_none_or(|end| end > self.len) {
                return Err(PaiError::internal(format!(
                    "span {off}+{len} exceeds the {}-byte remote object",
                    self.len
                )));
            }
        }
        let opts = &self.client.opts;
        let counters = &self.client.counters;
        let binding = self.cache.get();
        let mut idx: Vec<usize> = (0..spans.len()).filter(|&i| spans[i].1 > 0).collect();
        if let Some(b) = binding {
            idx.retain(|&i| {
                let (off, len) = spans[i];
                match b.cache.lookup(b.object, off, len) {
                    Some(data) => {
                        out[i] = data.as_ref().clone();
                        counters.add_cache_hits(1);
                        had_hits = true;
                        false
                    }
                    None => {
                        counters.add_cache_misses(1);
                        true
                    }
                }
            });
        }
        idx.sort_by_key(|&i| spans[i].0);
        let (gap, part) = if opts.adaptive && opts.coalesce {
            self.adapt_sizing(spans, &idx)
        } else {
            (opts.coalesce_gap, opts.part_bytes)
        };
        // Greedy merge over offset-sorted spans: bridge gaps up to the
        // effective gap, stop growing a request at the effective part size.
        let mut groups: Vec<(u64, u64, Vec<usize>)> = Vec::new();
        for &i in &idx {
            let (off, len) = spans[i];
            let end = off + len;
            match groups.last_mut() {
                Some((g_start, g_end, members))
                    if opts.coalesce
                        && off <= g_end.saturating_add(gap)
                        && end.max(*g_end) - *g_start <= part =>
                {
                    *g_end = (*g_end).max(end);
                    members.push(i);
                }
                _ => groups.push((off, end, vec![i])),
            }
        }
        if groups.is_empty() {
            return Ok((out, had_hits));
        }
        let wall = Instant::now();
        let result = self.fetch_groups(spans, &groups, &mut out);
        self.client
            .counters
            .add_fetch_wall_us(wall.elapsed().as_micros() as u64);
        result?;
        if let Some(b) = binding {
            for &i in &idx {
                let (off, _) = spans[i];
                b.cache.admit(b.object, off, &out[i], mode, counters);
            }
        }
        Ok((out, had_hits))
    }

    /// Learns the effective `(gap, part)` for this batch: feeds the batch's
    /// bridgeable gaps and largest cluster extent into the per-object
    /// EWMAs, then returns the learned values floored at the static knobs.
    /// `idx` is the offset-sorted non-empty span order.
    fn adapt_sizing(&self, spans: &[(u64, u64)], idx: &[usize]) -> (u64, u64) {
        let opts = &self.client.opts;
        let mut sizer = self.sizer.lock().expect("sizer");
        let mut gap_sum = 0u64;
        let mut gap_n = 0u64;
        for pair in idx.windows(2) {
            let prev_end = spans[pair[0]].0 + spans[pair[0]].1;
            let gap = spans[pair[1]].0.saturating_sub(prev_end);
            if gap <= SIZER_GAP_CEILING {
                gap_sum += gap;
                gap_n += 1;
            }
        }
        if gap_n > 0 {
            let mean = gap_sum as f64 / gap_n as f64;
            sizer.gap_ewma += SIZER_ALPHA * (mean - sizer.gap_ewma);
        }
        // Bridge comfortably past the typical gap, but never a cluster
        // break, and never less than the static knob.
        let gap = (opts.coalesce_gap.max((sizer.gap_ewma * 4.0) as u64)).min(SIZER_GAP_CEILING);
        // Largest contiguous cluster extent under that gap (ignoring the
        // part cap): the part size that would serve it in one GET.
        let mut max_extent = 0u64;
        let mut c_start = 0u64;
        let mut c_end = 0u64;
        for (k, &i) in idx.iter().enumerate() {
            let (off, len) = spans[i];
            let end = off + len;
            if k == 0 || off > c_end.saturating_add(gap) {
                c_start = off;
                c_end = end;
            } else {
                c_end = c_end.max(end);
            }
            max_extent = max_extent.max(c_end - c_start);
        }
        if max_extent > 0 {
            sizer.extent_ewma += SIZER_ALPHA * (max_extent as f64 - sizer.extent_ewma);
        }
        // Twice the typical worst cluster, capped at what a store serves
        // well, floored at the static knob.
        let part = ((sizer.extent_ewma * 2.0) as u64)
            .min(SIZER_PART_CEILING)
            .max(opts.part_bytes);
        let eff = (gap, part);
        if sizer.last != Some(eff) {
            self.client.counters.add_parts_resized(1);
            sizer.last = Some(eff);
        }
        eff
    }

    /// Fetches every merged group and slices each into its output spans.
    /// Sequential when one worker suffices; otherwise a bounded scoped
    /// worker pool overlaps the GETs and the calling thread consumes
    /// completed groups off a channel as they land. Either way every group
    /// is fetched exactly once and every span sliced exactly once, and on
    /// failure the remaining workers stop claiming new groups, the channel
    /// drains, and the first error surfaces.
    fn fetch_groups(
        &self,
        spans: &[(u64, u64)],
        groups: &[(u64, u64, Vec<usize>)],
        out: &mut [Vec<u8>],
    ) -> Result<()> {
        let counters = &self.client.counters;
        let scatter = |out: &mut [Vec<u8>], g_start: u64, members: &[usize], bytes: &[u8]| {
            for &i in members {
                let (off, len) = spans[i];
                let a = (off - g_start) as usize;
                out[i] = bytes[a..a + len as usize].to_vec();
            }
        };
        let workers = self.client.opts.fetch_workers.min(groups.len()).max(1);
        if workers == 1 {
            counters.note_fetch_inflight(1);
            for (g_start, g_end, members) in groups {
                let t0 = Instant::now();
                let bytes = self.fetch(*g_start, g_end - g_start)?;
                counters.add_fetch_request_us(t0.elapsed().as_micros() as u64);
                scatter(out, *g_start, members, &bytes);
            }
            return Ok(());
        }
        let next = AtomicUsize::new(0);
        let abort = AtomicBool::new(false);
        let inflight = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, Result<Vec<u8>>)>();
        std::thread::scope(|s| {
            for _ in 0..workers {
                let tx = tx.clone();
                let (next, abort, inflight) = (&next, &abort, &inflight);
                s.spawn(move || loop {
                    if abort.load(Ordering::Relaxed) {
                        break;
                    }
                    let g = next.fetch_add(1, Ordering::Relaxed);
                    if g >= groups.len() {
                        break;
                    }
                    let now = inflight.fetch_add(1, Ordering::Relaxed) + 1;
                    counters.note_fetch_inflight(now as u64);
                    let (g_start, g_end, _) = groups[g];
                    let t0 = Instant::now();
                    let res = self.fetch(g_start, g_end - g_start);
                    counters.add_fetch_request_us(t0.elapsed().as_micros() as u64);
                    inflight.fetch_sub(1, Ordering::Relaxed);
                    if res.is_err() {
                        abort.store(true, Ordering::Relaxed);
                    }
                    if tx.send((g, res)).is_err() {
                        break;
                    }
                });
            }
            drop(tx);
            // Consume completed groups while later GETs are in flight: the
            // channel closes once every worker has exited, so this drains
            // all outstanding work even after a failure.
            let mut first_err = None;
            while let Ok((g, res)) = rx.recv() {
                match res {
                    Ok(bytes) => scatter(out, groups[g].0, &groups[g].2, &bytes),
                    Err(e) => {
                        if first_err.is_none() {
                            first_err = Some(e);
                        }
                    }
                }
            }
            match first_err {
                Some(e) => Err(e),
                None => Ok(()),
            }
        })
    }
}

/// Buffered sequential `Read + Seek` over a remote blob, used to decode
/// file headers at open time. Reads ahead one part per miss so a
/// header decode costs a handful of GETs, not one per field.
pub struct BlobReader<'a> {
    blob: &'a HttpBlob,
    pos: u64,
    buf: Vec<u8>,
    buf_start: u64,
}

impl<'a> BlobReader<'a> {
    /// A reader positioned at byte 0, primed with the blob's open-time
    /// prefix so short headers decode with zero additional GETs.
    pub fn new(blob: &'a HttpBlob) -> Self {
        BlobReader {
            blob,
            pos: 0,
            buf: blob.prefix().to_vec(),
            buf_start: 0,
        }
    }
}

impl Read for BlobReader<'_> {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        if out.is_empty() || self.pos >= self.blob.len() {
            return Ok(0);
        }
        let in_buf =
            self.pos >= self.buf_start && self.pos < self.buf_start + self.buf.len() as u64;
        if !in_buf {
            let chunk = self
                .blob
                .options()
                .part_bytes
                .clamp(4096, 1 << 20)
                .min(self.blob.len() - self.pos);
            self.buf = self
                .blob
                .fetch(self.pos, chunk)
                .map_err(|e| std::io::Error::other(e.to_string()))?;
            self.buf_start = self.pos;
        }
        let at = (self.pos - self.buf_start) as usize;
        let n = out.len().min(self.buf.len() - at);
        out[..n].copy_from_slice(&self.buf[at..at + n]);
        self.pos += n as u64;
        Ok(n)
    }
}

impl Seek for BlobReader<'_> {
    fn seek(&mut self, pos: SeekFrom) -> std::io::Result<u64> {
        let target = match pos {
            SeekFrom::Start(p) => p as i128,
            SeekFrom::Current(d) => self.pos as i128 + d as i128,
            SeekFrom::End(d) => self.blob.len() as i128 + d as i128,
        };
        if target < 0 {
            return Err(std::io::Error::other("seek before byte 0"));
        }
        self.pos = target as u64;
        Ok(self.pos)
    }
}

/// Which format the remote object decoded as.
#[derive(Debug, Clone)]
enum HttpInner {
    /// A PaiZone image: compressed blocks + zone-map pushdown over HTTP.
    Zone(ZoneFile),
    /// A PaiBin image: fixed-stride columns over HTTP.
    Bin(BinFile),
}

/// A raw file whose bytes live in a remote object store, fetched with
/// coalesced, retried HTTP range requests. See the module docs.
///
/// Cloning is cheap; clones share the connection pool and every meter.
#[derive(Debug, Clone)]
pub struct HttpFile {
    inner: HttpInner,
    blob: Arc<HttpBlob>,
}

impl HttpFile {
    /// Opens the object `object` on the store at `addr`, sniffing the
    /// format from its magic (PaiZone and PaiBin images are supported).
    pub fn open(
        addr: impl ToSocketAddrs,
        object: impl Into<String>,
        opts: HttpOptions,
    ) -> Result<HttpFile> {
        let blob = Arc::new(HttpBlob::open(addr, object, opts, IoCounters::new())?);
        let magic = blob.prefix().get(..8).unwrap_or_default();
        let inner = if magic == PAIZONE_MAGIC || magic == PAIZONE_MAGIC_V2 {
            HttpInner::Zone(ZoneFile::open_remote(Arc::clone(&blob))?)
        } else if magic == PAIBIN_MAGIC {
            HttpInner::Bin(BinFile::open_remote(Arc::clone(&blob))?)
        } else {
            return Err(PaiError::internal(
                "remote object is neither a PaiZone nor a PaiBin image",
            ));
        };
        Ok(HttpFile { inner, blob })
    }

    /// Whether the remote image decoded as PaiZone (zone maps + pushdown).
    pub fn is_zone(&self) -> bool {
        matches!(self.inner, HttpInner::Zone(_))
    }

    /// The underlying blob (length, transport meters, options).
    pub fn blob(&self) -> &HttpBlob {
        &self.blob
    }

    fn as_raw(&self) -> &dyn RawFile {
        match &self.inner {
            HttpInner::Zone(z) => z,
            HttpInner::Bin(b) => b,
        }
    }
}

impl RawFile for HttpFile {
    fn schema(&self) -> &Schema {
        self.as_raw().schema()
    }

    fn counters(&self) -> &IoCounters {
        self.as_raw().counters()
    }

    fn size_bytes(&self) -> u64 {
        self.as_raw().size_bytes()
    }

    fn scan(&self, handler: &mut RowHandler<'_>) -> Result<()> {
        self.as_raw().scan(handler)
    }

    fn read_rows(&self, locators: &[RowLocator], attrs: &[AttrId]) -> Result<Vec<Vec<f64>>> {
        self.as_raw().read_rows(locators, attrs)
    }

    fn partitions(&self, n: usize) -> Result<Vec<ScanPartition>> {
        self.as_raw().partitions(n)
    }

    fn scan_partition(&self, partition: ScanPartition, handler: &mut RowHandler<'_>) -> Result<()> {
        self.as_raw().scan_partition(partition, handler)
    }

    fn block_stats(&self) -> Option<&[BlockStats]> {
        self.as_raw().block_stats()
    }

    fn block_synopses(&self) -> Option<&[BlockSynopsis]> {
        self.as_raw().block_synopses()
    }

    fn value_bytes_hint(&self) -> Option<f64> {
        self.as_raw().value_bytes_hint()
    }

    fn scan_filtered(&self, window: &Rect, handler: &mut RowHandler<'_>) -> Result<()> {
        self.as_raw().scan_filtered(window, handler)
    }

    fn read_rows_window(
        &self,
        locators: &[RowLocator],
        attrs: &[AttrId],
        window: Option<&Rect>,
    ) -> Result<Vec<Vec<f64>>> {
        self.as_raw().read_rows_window(locators, attrs, window)
    }

    fn attach_cache(&self, cache: Arc<BlockCache>) -> bool {
        self.blob.attach_cache(cache)
    }

    fn invalidate_cache(&self) -> u64 {
        self.blob.invalidate_cached_spans()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objstore::{Fault, FaultPlan, ObjectStore};
    use crate::zone::encode_zone_rows_with;
    use crate::Schema;

    /// Rows striped so consecutive 4-row blocks cover disjoint x ranges.
    fn striped_rows(n: u64) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| vec![i as f64, (i % 7) as f64, i as f64 * 10.0])
            .collect()
    }

    fn zone_bytes(n: u64, block_rows: u32) -> Vec<u8> {
        encode_zone_rows_with(&Schema::synthetic(3), striped_rows(n), block_rows).unwrap()
    }

    fn serve_zone(n: u64, block_rows: u32) -> (ObjectStore, ZoneFile) {
        let store = ObjectStore::serve().unwrap();
        store.put("data.paizone", zone_bytes(n, block_rows));
        let local =
            ZoneFile::from_rows_with_block(&Schema::synthetic(3), striped_rows(n), block_rows)
                .unwrap();
        (store, local)
    }

    fn collect_rows(f: &dyn RawFile) -> Vec<(u64, Vec<f64>)> {
        let mut rows = Vec::new();
        f.scan(&mut |_, loc, rec| {
            let mut vals = Vec::new();
            rec.extract_f64(&[0, 1, 2], &mut vals)?;
            rows.push((loc.raw(), vals));
            Ok(())
        })
        .unwrap();
        rows
    }

    #[test]
    fn http_zone_round_trips_scans_and_reads() {
        let (store, local) = serve_zone(64, 4);
        let f = HttpFile::open(store.addr(), "data.paizone", HttpOptions::default()).unwrap();
        assert!(f.is_zone());
        assert_eq!(f.schema().len(), 3);
        assert_eq!(f.size_bytes(), local.size_bytes());
        assert_eq!(collect_rows(&f), collect_rows(&local), "scan parity");

        let locs: Vec<RowLocator> = [3u64, 40, 41, 7]
            .iter()
            .map(|&r| RowLocator::new(r))
            .collect();
        assert_eq!(
            f.read_rows(&locs, &[2, 0]).unwrap(),
            local.read_rows(&locs, &[2, 0]).unwrap(),
            "positional parity"
        );
        assert!(f.counters().http_requests() > 0, "requests metered");
        assert!(f.counters().http_bytes() > 0, "wire bytes metered");
        assert_eq!(f.counters().retries(), 0, "no faults, no retries");
        // Logical meters match the local twin exactly (scan + read).
        assert_eq!(f.counters().objects_read(), local.counters().objects_read());
        assert_eq!(f.counters().bytes_read(), local.counters().bytes_read());
        assert_eq!(f.counters().blocks_read(), local.counters().blocks_read());
    }

    #[test]
    fn http_bin_round_trips() {
        let store = ObjectStore::serve().unwrap();
        let schema = Schema::synthetic(3);
        store.put(
            "data.paibin",
            crate::column::encode_rows(&schema, striped_rows(20)).unwrap(),
        );
        let local = BinFile::from_rows(&schema, striped_rows(20)).unwrap();
        let f = HttpFile::open(store.addr(), "data.paibin", HttpOptions::default()).unwrap();
        assert!(!f.is_zone());
        assert_eq!(collect_rows(&f), collect_rows(&local));
        let locs: Vec<RowLocator> = (0..20).rev().map(RowLocator::new).collect();
        assert_eq!(
            f.read_rows(&locs, &[1]).unwrap(),
            local.read_rows(&locs, &[1]).unwrap()
        );
        assert!(f.counters().http_requests() > 0);
    }

    #[test]
    fn unknown_or_foreign_objects_fail_cleanly() {
        let store = ObjectStore::serve().unwrap();
        store.put(
            "not-a-pai-file",
            b"hello world, definitely not columnar".to_vec(),
        );
        assert!(HttpFile::open(store.addr(), "missing", HttpOptions::default()).is_err());
        let err =
            HttpFile::open(store.addr(), "not-a-pai-file", HttpOptions::default()).unwrap_err();
        assert!(err.to_string().contains("neither"), "{err}");
    }

    #[test]
    fn coalescing_issues_fewer_requests_than_naive_for_identical_answers() {
        let (store, local) = serve_zone(256, 4);
        let naive = HttpFile::open(store.addr(), "data.paizone", HttpOptions::naive()).unwrap();
        let before = store.requests_served();
        let naive_rows = collect_rows(&naive);
        let naive_reqs = store.requests_served() - before;

        let coalesced =
            HttpFile::open(store.addr(), "data.paizone", HttpOptions::default()).unwrap();
        let before = store.requests_served();
        let client_before = coalesced.counters().http_requests();
        let coalesced_rows = collect_rows(&coalesced);
        let coalesced_reqs = store.requests_served() - before;

        assert_eq!(naive_rows, coalesced_rows, "same rows either way");
        assert_eq!(naive_rows, collect_rows(&local), "and both match local");
        assert!(
            coalesced_reqs < naive_reqs,
            "coalescing must merge adjacent block spans: {coalesced_reqs} vs {naive_reqs}"
        );
        // Client-side meters agree with the server's request count.
        assert_eq!(
            coalesced.counters().http_requests() - client_before,
            coalesced_reqs
        );
    }

    #[test]
    fn pushdown_skips_translate_into_never_issued_requests() {
        let (store, local) = serve_zone(256, 4);
        let f = HttpFile::open(store.addr(), "data.paizone", HttpOptions::default()).unwrap();
        let window = Rect::new(100.0, 120.0, -1.0, 8.0); // rows 100..120 of 256
        let served_before = store.requests_served();
        let mut rows = Vec::new();
        f.scan_filtered(&window, &mut |_, loc, _| {
            rows.push(loc.raw());
            Ok(())
        })
        .unwrap();
        let filtered_reqs = store.requests_served() - served_before;
        assert!(rows.iter().all(|&r| (100..120).contains(&r)));
        assert!(f.counters().blocks_skipped() > 0, "zone maps pruned");

        // The same scan without the window costs strictly more requests.
        let served_before = store.requests_served();
        f.scan(&mut |_, _, _| Ok(())).unwrap();
        let full_reqs = store.requests_served() - served_before;
        assert!(
            filtered_reqs < full_reqs,
            "skipped blocks must be GETs never issued: {filtered_reqs} vs {full_reqs}"
        );

        // Windowed positional reads agree with the local twin bit-for-bit.
        let locs: Vec<RowLocator> = (0..8).chain(100..108).map(RowLocator::new).collect();
        let remote = f.read_rows_window(&locs, &[2], Some(&window)).unwrap();
        let expect = local.read_rows_window(&locs, &[2], Some(&window)).unwrap();
        assert_eq!(remote.len(), expect.len());
        for (r, e) in remote.iter().zip(&expect) {
            assert_eq!(r[0].to_bits(), e[0].to_bits(), "NaN-exact parity");
        }
    }

    #[test]
    fn transient_5xx_is_retried_and_metered() {
        let (store, local) = serve_zone(64, 4);
        let f = HttpFile::open(store.addr(), "data.paizone", HttpOptions::default()).unwrap();
        store.push_fault(Fault::Status5xx);
        let locs: Vec<RowLocator> = (10..14).map(RowLocator::new).collect();
        let vals = f.read_rows(&locs, &[2]).unwrap();
        assert_eq!(vals, local.read_rows(&locs, &[2]).unwrap());
        assert_eq!(f.counters().retries(), 1, "one 5xx, one retry");
        assert_eq!(store.faults_injected(), 1);
    }

    #[test]
    fn short_read_mid_block_is_retried() {
        let (store, local) = serve_zone(64, 4);
        let f = HttpFile::open(store.addr(), "data.paizone", HttpOptions::default()).unwrap();
        store.push_fault(Fault::ShortRead);
        let locs: Vec<RowLocator> = (0..64).map(RowLocator::new).collect();
        assert_eq!(
            f.read_rows(&locs, &[0, 1, 2]).unwrap(),
            local.read_rows(&locs, &[0, 1, 2]).unwrap()
        );
        assert!(f.counters().retries() >= 1);
    }

    #[test]
    fn connection_drop_between_coalesced_ranges_is_retried() {
        let (store, local) = serve_zone(256, 4);
        let f = HttpFile::open(store.addr(), "data.paizone", HttpOptions::default()).unwrap();
        // A full scan issues several coalesced GETs; kill the connection
        // between two of them.
        store.push_fault(Fault::Drop);
        assert_eq!(collect_rows(&f), collect_rows(&local));
        assert!(f.counters().retries() >= 1, "the dropped GET was retried");
    }

    #[test]
    fn persistent_faults_exhaust_retries_and_surface() {
        let store = ObjectStore::serve_with(
            std::time::Duration::ZERO,
            FaultPlan::Periodic {
                fault: Fault::Status5xx,
                every: 1, // every request fails, forever
            },
        )
        .unwrap();
        store.put("data.paizone", zone_bytes(16, 4));
        let opts = HttpOptions {
            max_retries: 2,
            backoff: Duration::ZERO,
            ..HttpOptions::default()
        };
        let err = HttpFile::open(store.addr(), "data.paizone", opts).unwrap_err();
        assert!(err.to_string().contains("after 2 retries"), "{err}");
    }

    #[test]
    fn blob_read_spans_coalesces_by_gap_and_part() {
        let store = ObjectStore::serve().unwrap();
        store.put("blob", (0..=255u8).cycle().take(4096).collect::<Vec<u8>>());
        let opts = HttpOptions {
            part_bytes: 1024,
            coalesce_gap: 16,
            ..HttpOptions::default()
        };
        let blob = HttpBlob::open(store.addr(), "blob", opts, IoCounters::new()).unwrap();
        assert_eq!(blob.len(), 4096);
        let probe_reqs = blob.counters().http_requests();

        // Three spans, gaps of 8 bytes: one merged GET.
        let spans = [(0u64, 32u64), (40, 32), (80, 32)];
        let bufs = blob.read_spans(&spans).unwrap();
        assert_eq!(blob.counters().http_requests() - probe_reqs, 1);
        for (&(off, len), buf) in spans.iter().zip(&bufs) {
            assert_eq!(buf.len() as u64, len);
            assert_eq!(buf[0], (off % 256) as u8, "correct slice out of the merge");
        }

        // A gap beyond the threshold splits the request.
        let before = blob.counters().http_requests();
        blob.read_spans(&[(0, 32), (1000, 32)]).unwrap();
        assert_eq!(blob.counters().http_requests() - before, 2);

        // The part-size cap stops a merge from growing unboundedly.
        let before = blob.counters().http_requests();
        blob.read_spans(&[(0, 900), (900, 900)]).unwrap();
        assert_eq!(
            blob.counters().http_requests() - before,
            2,
            "1800 > part_bytes: two GETs"
        );

        // Out-of-range spans are errors, not truncated reads.
        assert!(blob.read_spans(&[(4000, 200)]).is_err());

        // Unsorted and duplicate spans come back in input order.
        let bufs = blob.read_spans(&[(64, 8), (0, 8), (64, 8)]).unwrap();
        assert_eq!(bufs[0], bufs[2]);
        assert_eq!(bufs[1][0], 0);
    }

    #[test]
    fn overlapped_read_spans_matches_sequential_with_identical_requests() {
        let store = ObjectStore::serve_with(Duration::from_millis(2), FaultPlan::Off).unwrap();
        store.put("blob", (0..=255u8).cycle().take(8192).collect::<Vec<u8>>());
        let opts = HttpOptions {
            part_bytes: 256,
            coalesce_gap: 16,
            ..HttpOptions::default()
        };
        // Eight well-separated spans: eight groups at part 256 / gap 16.
        let spans: Vec<(u64, u64)> = (0..8).map(|i| (i * 1000, 64)).collect();

        let seq = HttpBlob::open(store.addr(), "blob", opts.clone(), IoCounters::new()).unwrap();
        let seq_before = seq.counters().http_requests();
        let seq_bufs = seq.read_spans(&spans).unwrap();
        let seq_reqs = seq.counters().http_requests() - seq_before;
        assert_eq!(seq.counters().fetch_inflight_peak(), 1, "sequential peak");
        assert!(seq.counters().fetch_wall_us() > 0);

        let ovl = HttpBlob::open(
            store.addr(),
            "blob",
            opts.with_fetch_workers(4),
            IoCounters::new(),
        )
        .unwrap();
        let ovl_before = ovl.counters().http_requests();
        let ovl_bufs = ovl.read_spans(&spans).unwrap();
        let ovl_reqs = ovl.counters().http_requests() - ovl_before;

        assert_eq!(seq_bufs, ovl_bufs, "same bytes at every worker count");
        assert_eq!(seq_reqs, ovl_reqs, "same GETs at every worker count");
        assert_eq!(seq_reqs, 8);
        // With 4 workers and 2ms-per-request latency the pool is saturated
        // almost immediately; at least two requests overlap.
        assert!(
            ovl.counters().fetch_inflight_peak() >= 2,
            "workers overlapped: peak {}",
            ovl.counters().fetch_inflight_peak()
        );
        assert!(
            ovl.counters().fetch_request_us() > ovl.counters().fetch_wall_us(),
            "summed request time exceeds wall time when requests overlap"
        );
    }

    #[test]
    fn naive_and_coalesced_meter_retries_identically() {
        // The naive client is single-span groups through the same
        // group-fetch path; a scripted fault costs exactly one metered
        // retry in both modes, for identical answers.
        let (store, local) = serve_zone(64, 4);
        let locs: Vec<RowLocator> = (10..14).map(RowLocator::new).collect();
        let expect = local.read_rows(&locs, &[2]).unwrap();

        let naive = HttpFile::open(store.addr(), "data.paizone", HttpOptions::naive()).unwrap();
        store.push_fault(Fault::Status5xx);
        assert_eq!(naive.read_rows(&locs, &[2]).unwrap(), expect);
        assert_eq!(naive.counters().retries(), 1, "naive meters the retry");

        let coalesced =
            HttpFile::open(store.addr(), "data.paizone", HttpOptions::default()).unwrap();
        store.push_fault(Fault::Status5xx);
        assert_eq!(coalesced.read_rows(&locs, &[2]).unwrap(), expect);
        assert_eq!(
            coalesced.counters().retries(),
            naive.counters().retries(),
            "identical retry metering in both modes"
        );
    }

    #[test]
    fn overlapped_fetch_survives_midstream_faults() {
        // Faults landing on group N while group N+1 is in flight: bounded
        // retry, no lost or duplicated spans, identical bytes.
        let store = ObjectStore::serve().unwrap();
        let payload: Vec<u8> = (0..=255u8).cycle().take(16384).collect();
        store.put("blob", payload.clone());
        let opts = HttpOptions {
            part_bytes: 256,
            coalesce_gap: 16,
            backoff: Duration::ZERO,
            ..HttpOptions::default()
        }
        .with_fetch_workers(4);
        let blob = HttpBlob::open(store.addr(), "blob", opts, IoCounters::new()).unwrap();
        let spans: Vec<(u64, u64)> = (0..12).map(|i| (i * 1200, 128)).collect();
        store.push_fault(Fault::Status5xx);
        store.push_fault(Fault::Drop);
        store.push_fault(Fault::ShortRead);
        let bufs = blob.read_spans(&spans).unwrap();
        for (&(off, len), buf) in spans.iter().zip(&bufs) {
            assert_eq!(buf.as_slice(), &payload[off as usize..(off + len) as usize]);
        }
        assert!(blob.counters().retries() >= 3, "every fault was retried");
    }

    #[test]
    fn overlapped_fetch_surfaces_exhausted_retries_without_hanging() {
        let store = ObjectStore::serve_with(
            Duration::ZERO,
            FaultPlan::Periodic {
                fault: Fault::Status5xx,
                every: 1,
            },
        )
        .unwrap();
        store.put("blob", vec![7u8; 8192]);
        let opts = HttpOptions {
            max_retries: 1,
            backoff: Duration::ZERO,
            part_bytes: 256,
            coalesce_gap: 16,
            ..HttpOptions::default()
        }
        .with_fetch_workers(4);
        // Opening itself retries; build the blob against a healthy store
        // first, then poison the plan via a fresh store is impossible —
        // so tolerate the open failing loudly instead.
        match HttpBlob::open(store.addr(), "blob", opts, IoCounters::new()) {
            Err(e) => assert!(e.to_string().contains("retries"), "{e}"),
            Ok(blob) => {
                let spans: Vec<(u64, u64)> = (0..8).map(|i| (i * 1000, 64)).collect();
                let err = blob.read_spans(&spans).unwrap_err();
                assert!(err.to_string().contains("retries"), "{err}");
            }
        }
    }

    #[test]
    fn adaptive_sizing_merges_at_least_as_well_as_static() {
        let store = ObjectStore::serve().unwrap();
        let payload: Vec<u8> = (0..=255u8).cycle().take(65536).collect();
        store.put("blob", payload.clone());
        // Gaps of 936 bytes: above the static coalesce_gap (256), well
        // below the sizer's cluster-break ceiling — the static client
        // cannot merge these, the adaptive one learns to.
        let spans: Vec<(u64, u64)> = (0..16).map(|i| (i * 1000, 64)).collect();
        let base = HttpOptions {
            part_bytes: 4096,
            ..HttpOptions::default()
        };

        let fixed = HttpBlob::open(store.addr(), "blob", base.clone(), IoCounters::new()).unwrap();
        let before = fixed.counters().http_requests();
        let fixed_bufs = fixed.read_spans(&spans).unwrap();
        let fixed_reqs = fixed.counters().http_requests() - before;
        assert_eq!(fixed.counters().parts_resized(), 0);

        let adaptive = HttpBlob::open(
            store.addr(),
            "blob",
            base.with_adaptive(true),
            IoCounters::new(),
        )
        .unwrap();
        let before = adaptive.counters().http_requests();
        let adaptive_bufs = adaptive.read_spans(&spans).unwrap();
        let adaptive_reqs = adaptive.counters().http_requests() - before;

        assert_eq!(fixed_bufs, adaptive_bufs, "sizing never changes bytes");
        assert!(
            adaptive_reqs < fixed_reqs,
            "learned gap merges what the static gap cannot: {adaptive_reqs} vs {fixed_reqs}"
        );
        assert!(
            adaptive.counters().parts_resized() >= 1,
            "the resize was metered"
        );

        // Repeating the workload never regresses, and once the EWMAs have
        // converged the parameters stop changing.
        for _ in 0..60 {
            let before = adaptive.counters().http_requests();
            adaptive.read_spans(&spans).unwrap();
            assert!(adaptive.counters().http_requests() - before <= adaptive_reqs);
        }
        let resized = adaptive.counters().parts_resized();
        adaptive.read_spans(&spans).unwrap();
        assert_eq!(adaptive.counters().parts_resized(), resized, "converged");
    }

    #[test]
    fn empty_and_zero_length_spans_cost_nothing() {
        let store = ObjectStore::serve().unwrap();
        store.put("blob", vec![5u8; 64]);
        let blob = HttpBlob::open(
            store.addr(),
            "blob",
            HttpOptions::default(),
            IoCounters::new(),
        )
        .unwrap();
        let before = blob.counters().http_requests();
        assert!(blob.read_spans(&[]).unwrap().is_empty());
        let bufs = blob.read_spans(&[(0, 0)]).unwrap();
        assert!(bufs[0].is_empty());
        assert_eq!(blob.counters().http_requests(), before, "no GETs issued");
    }

    #[test]
    fn connections_are_reused_across_requests() {
        let (store, _) = serve_zone(64, 4);
        let f = HttpFile::open(store.addr(), "data.paizone", HttpOptions::naive()).unwrap();
        let locs: Vec<RowLocator> = (0..32).map(RowLocator::new).collect();
        f.read_rows(&locs, &[2]).unwrap();
        f.read_rows(&locs, &[0]).unwrap();
        assert!(
            f.counters().http_requests() > 4,
            "sanity: many GETs happened"
        );
        // No server-side way to count connections directly, but the pool
        // keeps at most a handful open; assert the blob answered everything
        // without error and the pool is bounded.
        assert!(f.blob().client.pool.lock().unwrap().len() <= 8);
    }

    #[test]
    fn cached_blob_serves_repeat_reads_without_gets() {
        let (store, local) = serve_zone(256, 4);
        let cached = HttpFile::open(
            store.addr(),
            "data.paizone",
            HttpOptions::default().with_cache(CacheConfig::new(1 << 20, 0)),
        )
        .unwrap();
        let uncached =
            HttpFile::open(store.addr(), "data.paizone", HttpOptions::default()).unwrap();
        let locs: Vec<RowLocator> = (40..80).map(RowLocator::new).collect();

        // Cold: an empty cache leaves the GET pattern identical to the
        // uncached client on the same batch.
        let b0 = cached.counters().http_requests();
        let u0 = uncached.counters().http_requests();
        let cold = cached.read_rows(&locs, &[0, 2]).unwrap();
        let expect = uncached.read_rows(&locs, &[0, 2]).unwrap();
        assert_eq!(cold, expect);
        assert_eq!(cold, local.read_rows(&locs, &[0, 2]).unwrap());
        assert_eq!(
            cached.counters().http_requests() - b0,
            uncached.counters().http_requests() - u0,
            "cold run: identical GET pattern"
        );
        assert!(cached.counters().cache_misses() > 0);
        assert_eq!(cached.counters().cache_hits(), 0);

        // Warm: every span hits, zero GETs issued, identical bytes.
        let b1 = cached.counters().http_requests();
        let warm = cached.read_rows(&locs, &[0, 2]).unwrap();
        assert_eq!(warm, cold, "cache returns byte-identical values");
        assert_eq!(
            cached.counters().http_requests() - b1,
            0,
            "fully-cached batch does zero HTTP work"
        );
        assert!(cached.counters().cache_hits() > 0);
        // Logical meters are cache-blind: both runs metered the same
        // objects and bytes.
        assert_eq!(
            cached.counters().objects_read(),
            uncached.counters().objects_read() * 2
        );
        // Uncached clients report no cache traffic at all.
        assert_eq!(uncached.counters().cache_hits(), 0);
        assert_eq!(uncached.counters().cache_misses(), 0);
    }

    #[test]
    fn mutated_object_invalidates_cached_spans_instead_of_serving_stale() {
        let store = ObjectStore::serve().unwrap();
        store.put("blob", vec![0xAAu8; 4096]);
        let opts = HttpOptions::default().with_cache(CacheConfig::new(1 << 20, 0));
        let blob = HttpBlob::open(store.addr(), "blob", opts, IoCounters::new()).unwrap();

        let spans = [(0u64, 64u64), (512, 64), (1024, 64)];
        let cold = blob.read_spans(&spans).unwrap();
        assert!(cold.iter().all(|b| b.iter().all(|&x| x == 0xAA)));
        let before = blob.counters().http_requests();
        blob.read_spans(&spans).unwrap();
        assert_eq!(
            blob.counters().http_requests() - before,
            0,
            "precondition: fully cached, zero GETs"
        );

        // Replace the object mid-session. The next batch mixes cached
        // spans with one miss; the miss's GET reveals the new ETag, every
        // cached span is dropped, and the batch refetches — the caller
        // never sees old-generation bytes next to new ones.
        store.put("blob", vec![0xBBu8; 4096]);
        let mixed = [(0u64, 64u64), (512, 64), (2048, 64)];
        let bufs = blob.read_spans(&mixed).unwrap();
        assert!(
            bufs.iter().all(|b| b.iter().all(|&x| x == 0xBB)),
            "stale cached spans must miss, not lie"
        );
        assert!(
            blob.counters().cache_invalidations() > 0,
            "invalidation metered"
        );

        // The cache is coherent again: a warm repeat serves the new
        // generation with zero GETs.
        let before = blob.counters().http_requests();
        let again = blob.read_spans(&mixed).unwrap();
        assert_eq!(again, bufs);
        assert_eq!(blob.counters().http_requests() - before, 0);
    }

    #[test]
    fn invalidation_republishes_the_mem_gauge() {
        let store = ObjectStore::serve().unwrap();
        store.put("blob", vec![0x5Au8; 2048]);
        let opts = HttpOptions::default().with_cache(CacheConfig::new(1 << 20, 0));
        let blob = HttpBlob::open(store.addr(), "blob", opts, IoCounters::new()).unwrap();
        blob.read_spans(&[(0u64, 64u64), (256, 64)]).unwrap();
        let cache = &blob.cache.get().expect("private cache bound").cache;
        assert_eq!(blob.counters().cache_mem_bytes(), 128, "admits published");

        assert_eq!(blob.invalidate_cached_spans(), 2);
        assert_eq!(cache.mem_used(), 0);
        assert_eq!(
            blob.counters().cache_mem_bytes(),
            cache.mem_used(),
            "gauge follows the released bytes"
        );
    }

    #[test]
    fn revalidate_ttl_catches_mutation_on_fully_cached_batches() {
        let store = ObjectStore::serve().unwrap();
        store.put("blob", vec![0x11u8; 2048]);
        let opts = HttpOptions::default()
            .with_cache(CacheConfig::new(1 << 20, 0))
            .with_revalidate_ttl(Some(Duration::ZERO)); // probe every batch
        let blob = HttpBlob::open(store.addr(), "blob", opts, IoCounters::new()).unwrap();
        let spans = [(0u64, 64u64), (128, 64)];
        blob.read_spans(&spans).unwrap();

        store.put("blob", vec![0x22u8; 2048]);
        // Every span is cached, so without the TTL probe no GET would ever
        // observe the new generation.
        let bufs = blob.read_spans(&spans).unwrap();
        assert!(
            bufs.iter().all(|b| b.iter().all(|&x| x == 0x22)),
            "TTL probe must catch the replaced object"
        );
        assert!(blob.counters().cache_invalidations() > 0);
    }

    #[test]
    fn shared_cache_spans_files_opening_the_same_object() {
        let (store, _) = serve_zone(64, 4);
        let cache = Arc::new(BlockCache::new(CacheConfig::new(1 << 20, 0)));
        let a = HttpFile::open(store.addr(), "data.paizone", HttpOptions::default()).unwrap();
        let b = HttpFile::open(store.addr(), "data.paizone", HttpOptions::default()).unwrap();
        assert!(a.attach_cache(Arc::clone(&cache)));
        assert!(b.attach_cache(Arc::clone(&cache)), "b binds the same cache");
        assert!(!a.attach_cache(Arc::clone(&cache)), "at most one per file");

        let locs: Vec<RowLocator> = (0..16).map(RowLocator::new).collect();
        let va = a.read_rows(&locs, &[2]).unwrap();
        // b's reads hit what a admitted: same object name, same entries.
        let before = b.counters().http_requests();
        let vb = b.read_rows(&locs, &[2]).unwrap();
        assert_eq!(va, vb);
        assert_eq!(b.counters().http_requests() - before, 0);
        assert!(b.counters().cache_hits() > 0);
    }
}
