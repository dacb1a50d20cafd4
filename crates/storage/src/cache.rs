//! Tiered block cache behind the [`RawFile`] seam.
//!
//! Exploration workloads re-visit the same regions: analysts pan and zoom
//! over hot areas, so the same storage blocks are fetched from the object
//! store again and again. The remote transport (see [`crate::remote`])
//! makes each fetch cheap; this module makes the *second* fetch free. A
//! [`BlockCache`] sits **below the span-batch fetcher**: when a cached span
//! batch arrives, cache hits are subtracted *before* coalescing and GET
//! issue, so a fully-cached batch does zero HTTP work and a partial hit
//! issues ranged GETs only for the miss spans.
//!
//! Two tiers, both bounded:
//!
//! * **Memory** — hit data served as shared buffers, evicted LRU when the
//!   byte budget is exceeded;
//! * **Disk spill** — memory-tier victims demote to per-entry files under a
//!   spill directory (written to a temp name and atomically renamed, so a
//!   concurrent reader never observes a torn block) until the disk budget
//!   is exceeded, at which point the coldest spilled entries are deleted.
//!   A spill file that disappears underneath the cache simply degrades to
//!   a miss.
//!
//! **Admission is adaptation-aware.** The adaptation layer's chosen tiles
//! arrive here as positional reads ([`CacheMode::Admit`]) — those are
//! blocks the tile-selection policy scored highest, so they are always
//! admitted on miss. Streaming scans ([`CacheMode::Stream`]) are one-touch
//! by default and bypass admission; each scanned-and-missed span is instead
//! recorded in a ghost set, and a *second* touch admits it. Because a
//! zone-mapped scan only reads blocks that survived pruning, the ghost set
//! is exactly a zone-map hit count: blocks that windows keep selecting get
//! cached, blocks a scan touched once never displace hot data. Upper
//! layers can also mark ranges hot explicitly with [`BlockCache::mark_hot`].
//!
//! **The cache is transport-only.** Logical meters (`objects_read`,
//! `bytes_read`, `seeks`, `blocks_read`, …) tick identically with and
//! without a cache — the span fetcher meters per span regardless of which
//! tier served it — so answers, CIs, trajectories, and every logical meter
//! are byte-identical to the uncached run. Only the transport meters
//! (`http_requests`, `http_bytes`) shrink, and the new cache meters
//! (`cache_hits`/`cache_misses`/`cache_evictions`/`cache_spill_bytes`/
//! `cache_mem_bytes`) tell the story.
//!
//! [`CachedFile`] is the seam-level entry point: it wraps any inner
//! backend, binds a (possibly shared) [`BlockCache`] to the inner
//! transport via [`RawFile::attach_cache`], and delegates every access.
//! Backends without a cache-capable transport delegate inertly — wrapping
//! a local file is harmless. Per-file private caches come from
//! [`crate::HttpOptions`] carrying a [`CacheConfig`].

use std::collections::{BTreeMap, HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use pai_common::geometry::Rect;
use pai_common::{AttrId, IoCounters, Result, RowLocator};

use crate::raw::{
    AppendReceipt, BlockStats, BlockSynopsis, CompactionReport, RawFile, RowHandler, ScanPartition,
};
use crate::schema::Schema;

/// Lock shards: enough that concurrent readers on different blocks rarely
/// contend. Finding a global-LRU victim reads the head of every shard's
/// tick index, one lock at a time, so it costs O(SHARDS · log n).
const SHARDS: usize = 16;

/// Per-shard cap on the ghost (touched-once) set; exceeding it clears the
/// shard's ghosts, which only delays admission by one extra touch.
const TOUCH_CAP: usize = 1 << 14;

/// Distinguishes cache instances in spill-file names so two caches sharing
/// a spill directory never collide.
static CACHE_SEQ: AtomicU64 = AtomicU64::new(0);

/// Size and placement of a [`BlockCache`]'s tiers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConfig {
    /// Byte budget of the in-memory tier (`0` disables it).
    pub mem_bytes: u64,
    /// Byte budget of the disk-spill tier (`0` disables spilling).
    pub disk_bytes: u64,
    /// Directory for spill files. `None` with a nonzero `disk_bytes` spills
    /// under the system temp directory (cleaned up on drop).
    pub spill_dir: Option<PathBuf>,
}

impl CacheConfig {
    /// A config with the given tier budgets and default spill placement.
    pub fn new(mem_bytes: u64, disk_bytes: u64) -> Self {
        CacheConfig {
            mem_bytes,
            disk_bytes,
            spill_dir: None,
        }
    }

    /// This config spilling under `dir` instead of the system temp dir.
    pub fn with_spill_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.spill_dir = Some(dir.into());
        self
    }
}

/// How a span batch wants its misses treated by the admission policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheMode {
    /// Positional reads chosen by the adaptation layer: always admit on
    /// miss — these are the blocks the tile scores ranked hottest.
    Admit,
    /// One-touch streaming scans: serve hits, but admit a miss only if the
    /// span was touched before (ghost-set promotion). A single cold scan
    /// never displaces hot data.
    Stream,
}

/// Cache key: one exact span of one registered object. Spans are the
/// deterministic units the decode layers request (block runs), so they
/// double as block ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Key {
    object: u64,
    off: u64,
    len: u64,
}

/// Where an entry's bytes currently live.
enum Tier {
    /// Resident in memory, served as a shared buffer.
    Mem(Arc<Vec<u8>>),
    /// Demoted to a spill file of exactly `len` bytes.
    Disk(PathBuf),
}

impl Tier {
    fn is_mem(&self) -> bool {
        matches!(self, Tier::Mem(_))
    }
}

struct Entry {
    tier: Tier,
    /// Logical LRU clock value at last touch.
    last_used: u64,
}

#[derive(Default)]
struct Shard {
    /// Resident entries. Changed only through [`Shard::insert`] and
    /// [`Shard::remove`], which keep the tick indexes in step with it.
    map: HashMap<Key, Entry>,
    /// Memory-tier entries by `last_used`. Ticks come from one global
    /// counter and tag at most one entry each, so they are unique and the
    /// first key is this shard's least recently used memory entry.
    mem_lru: BTreeMap<u64, Key>,
    /// Disk-tier entries by `last_used`, likewise.
    disk_lru: BTreeMap<u64, Key>,
    /// Ghost set: spans a `Stream`-mode batch missed once. A second miss
    /// promotes to admission.
    touched: HashSet<Key>,
}

impl Shard {
    fn lru_mut(&mut self, mem: bool) -> &mut BTreeMap<u64, Key> {
        if mem {
            &mut self.mem_lru
        } else {
            &mut self.disk_lru
        }
    }

    /// Inserts `entry` under `key` and indexes it by tick, returning the
    /// entry it replaced (already unindexed).
    fn insert(&mut self, key: Key, entry: Entry) -> Option<Entry> {
        let (tick, mem) = (entry.last_used, entry.tier.is_mem());
        let old = self.map.insert(key, entry);
        if let Some(old) = &old {
            self.lru_mut(old.tier.is_mem()).remove(&old.last_used);
        }
        self.lru_mut(mem).insert(tick, key);
        self.debug_check();
        old
    }

    /// Removes `key`'s entry and its tick-index slot.
    fn remove(&mut self, key: &Key) -> Option<Entry> {
        let old = self.map.remove(key)?;
        self.lru_mut(old.tier.is_mem()).remove(&old.last_used);
        self.debug_check();
        Some(old)
    }

    /// The shard's least recently used entry of one tier, as `(key, tick)`.
    fn coldest(&self, mem: bool) -> Option<(Key, u64)> {
        let lru = if mem { &self.mem_lru } else { &self.disk_lru };
        lru.first_key_value().map(|(&tick, &key)| (key, tick))
    }

    fn debug_check(&self) {
        debug_assert_eq!(
            self.map.len(),
            self.mem_lru.len() + self.disk_lru.len(),
            "every entry indexed exactly once"
        );
    }
}

/// A bounded, sharded, two-tier block cache keyed by `(object, span)`.
///
/// Thread-safe and cheap to share ([`Arc`]); one cache can back many files
/// (and many sessions) at once. See the module docs for the policy.
pub struct BlockCache {
    cfg: CacheConfig,
    shards: Vec<Mutex<Shard>>,
    /// Logical LRU clock (bumped on every touch).
    clock: AtomicU64,
    /// Bytes resident in the memory tier.
    mem_used: AtomicU64,
    /// Bytes resident in the disk tier.
    disk_used: AtomicU64,
    /// Object-name → id registry, so files opening the same remote object
    /// share entries.
    objects: Mutex<HashMap<String, u64>>,
    /// Resolved spill directory (created lazily on first spill).
    spill_dir: PathBuf,
    /// Whether we own (and should remove) the spill directory.
    dir_owned: bool,
    /// Unique prefix for this cache's spill files.
    file_tag: String,
}

impl std::fmt::Debug for BlockCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockCache")
            .field("cfg", &self.cfg)
            .field("mem_used", &self.mem_used.load(Ordering::Relaxed))
            .field("disk_used", &self.disk_used.load(Ordering::Relaxed))
            .finish()
    }
}

impl BlockCache {
    /// Builds an empty cache with the given tier budgets.
    pub fn new(cfg: CacheConfig) -> Self {
        let seq = CACHE_SEQ.fetch_add(1, Ordering::Relaxed);
        let tag = format!("pai-cache-{}-{seq}", std::process::id());
        let (spill_dir, dir_owned) = match &cfg.spill_dir {
            Some(dir) => (dir.clone(), false),
            None => (std::env::temp_dir().join(&tag), true),
        };
        BlockCache {
            cfg,
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            clock: AtomicU64::new(0),
            mem_used: AtomicU64::new(0),
            disk_used: AtomicU64::new(0),
            objects: Mutex::new(HashMap::new()),
            spill_dir,
            dir_owned,
            file_tag: tag,
        }
    }

    /// The configured budgets and spill placement.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Registers (or looks up) an object name, returning its stable id.
    /// Two files opening the same object share cache entries.
    pub fn object_id(&self, name: &str) -> u64 {
        let mut objects = self.objects.lock().expect("cache objects");
        let next = objects.len() as u64;
        *objects.entry(name.to_string()).or_insert(next)
    }

    /// Bytes currently resident in the memory tier.
    pub fn mem_used(&self) -> u64 {
        self.mem_used.load(Ordering::Relaxed)
    }

    /// Bytes currently resident in the disk-spill tier.
    pub fn disk_used(&self) -> u64 {
        self.disk_used.load(Ordering::Relaxed)
    }

    /// Number of cached entries across both tiers.
    pub fn entries(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard").map.len())
            .sum()
    }

    /// Marks spans of `object` as hot: their next miss is admitted even
    /// from a `Stream`-mode batch. Upper layers (e.g. a policy that knows
    /// which tiles score high) use this to pre-seed admission.
    pub fn mark_hot(&self, object: u64, spans: &[(u64, u64)]) {
        for &(off, len) in spans {
            if len == 0 {
                continue;
            }
            let key = Key { object, off, len };
            let mut shard = self.shards[shard_of(&key)].lock().expect("cache shard");
            if shard.touched.len() >= TOUCH_CAP {
                shard.touched.clear();
            }
            shard.touched.insert(key);
        }
    }

    /// Drops every cached span of `object` from both tiers (including its
    /// spill files and ghost-set entries), returning how many entries were
    /// removed. Called when an object's generation changes — a delta
    /// compaction rewrote its blocks, or a remote ETag revealed the object
    /// was replaced — so the cache can never serve spans from a retired
    /// generation. Stale spans become misses, never lies.
    pub fn invalidate_object(&self, object: u64) -> u64 {
        let mut removed = 0u64;
        for shard in &self.shards {
            let mut shard = shard.lock().expect("cache shard");
            let victims: Vec<Key> = shard
                .map
                .keys()
                .filter(|k| k.object == object)
                .copied()
                .collect();
            for key in victims {
                if let Some(entry) = shard.remove(&key) {
                    self.forget(&key, entry);
                    removed += 1;
                }
            }
            shard.touched.retain(|k| k.object != object);
        }
        removed
    }

    /// Looks one span up, bumping its LRU position. Returns the bytes on a
    /// hit (either tier); a spill file that fails to read back degrades to
    /// a miss. The caller meters the hit/miss.
    pub fn lookup(&self, object: u64, off: u64, len: u64) -> Option<Arc<Vec<u8>>> {
        let key = Key { object, off, len };
        let tick = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        let mut shard = self.shards[shard_of(&key)].lock().expect("cache shard");
        // Take the entry out and re-insert it under its new tick, which
        // moves it to the hot end of its tier's index.
        let mut entry = shard.remove(&key)?;
        entry.last_used = tick;
        let data = match &entry.tier {
            Tier::Mem(data) => Arc::clone(data),
            Tier::Disk(path) => match std::fs::read(path) {
                Ok(bytes) if bytes.len() as u64 == len => Arc::new(bytes),
                _ => {
                    // Torn, truncated, or vanished spill file: leave the
                    // entry out and report a miss — correctness never
                    // depends on the spill tier.
                    let _ = std::fs::remove_file(path);
                    self.disk_used.fetch_sub(len, Ordering::Relaxed);
                    return None;
                }
            },
        };
        shard.insert(key, entry);
        Some(data)
    }

    /// Offers a fetched miss span to the cache under `mode`'s admission
    /// rule, then enforces both tier budgets. Evictions and spill bytes
    /// are charged to `counters` (the calling file's meters), and the
    /// memory-tier gauge is republished.
    pub fn admit(&self, object: u64, off: u64, data: &[u8], mode: CacheMode, c: &IoCounters) {
        let len = data.len() as u64;
        if len == 0 {
            return;
        }
        let key = Key { object, off, len };
        let tick = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        {
            let mut shard = self.shards[shard_of(&key)].lock().expect("cache shard");
            if mode == CacheMode::Stream && !shard.touched.contains(&key) {
                // First touch from a streaming scan: remember, don't admit.
                if shard.touched.len() >= TOUCH_CAP {
                    shard.touched.clear();
                }
                shard.touched.insert(key);
                return;
            }
            if len > self.cfg.mem_bytes {
                // Never memory-resident; not worth a spill round trip
                // either when it cannot even fit the memory tier.
                return;
            }
            let entry = Entry {
                tier: Tier::Mem(Arc::new(data.to_vec())),
                last_used: tick,
            };
            if let Some(old) = shard.insert(key, entry) {
                self.forget(&key, old);
            }
            self.mem_used.fetch_add(len, Ordering::Relaxed);
        }
        self.enforce_budgets(c);
        c.set_cache_mem_bytes(self.mem_used.load(Ordering::Relaxed));
    }

    /// Subtracts a replaced entry's bytes from its tier (and deletes its
    /// spill file).
    fn forget(&self, key: &Key, old: Entry) {
        match old.tier {
            Tier::Mem(_) => {
                self.mem_used.fetch_sub(key.len, Ordering::Relaxed);
            }
            Tier::Disk(path) => {
                let _ = std::fs::remove_file(path);
                self.disk_used.fetch_sub(key.len, Ordering::Relaxed);
            }
        }
    }

    /// Evicts least-recently-used entries until both tiers fit their
    /// budgets: memory victims demote to the disk tier (atomic-rename
    /// spill) when it has room, disk victims are deleted. Only one shard
    /// lock is ever held at a time.
    fn enforce_budgets(&self, c: &IoCounters) {
        while self.mem_used.load(Ordering::Relaxed) > self.cfg.mem_bytes {
            let Some((s, key, tick)) = self.coldest(true) else {
                break;
            };
            let mut shard = self.shards[s].lock().expect("cache shard");
            // Re-check under the lock: a concurrent lookup may have bumped
            // the victim, a concurrent admit may have replaced it.
            let still = shard
                .map
                .get(&key)
                .is_some_and(|e| e.last_used == tick && e.tier.is_mem());
            if !still {
                continue;
            }
            let entry = shard.remove(&key).expect("checked above");
            self.mem_used.fetch_sub(key.len, Ordering::Relaxed);
            c.add_cache_evictions(1);
            if key.len <= self.cfg.disk_bytes {
                if let Tier::Mem(data) = &entry.tier {
                    if let Some(path) = self.spill(&key, data, c) {
                        shard.insert(
                            key,
                            Entry {
                                tier: Tier::Disk(path),
                                last_used: entry.last_used,
                            },
                        );
                        self.disk_used.fetch_add(key.len, Ordering::Relaxed);
                    }
                }
            }
        }
        while self.disk_used.load(Ordering::Relaxed) > self.cfg.disk_bytes {
            let Some((s, key, tick)) = self.coldest(false) else {
                break;
            };
            let mut shard = self.shards[s].lock().expect("cache shard");
            let still = shard
                .map
                .get(&key)
                .is_some_and(|e| e.last_used == tick && !e.tier.is_mem());
            if !still {
                continue;
            }
            let entry = shard.remove(&key).expect("checked above");
            self.forget(&key, entry);
            c.add_cache_evictions(1);
        }
    }

    /// Globally coldest entry of the memory (`mem`) or disk tier, as
    /// `(shard, key, tick)`: the oldest of the shards' index heads, read
    /// one lock at a time. The caller re-validates the victim under its
    /// shard lock before acting.
    fn coldest(&self, mem: bool) -> Option<(usize, Key, u64)> {
        let mut best: Option<(usize, Key, u64)> = None;
        for (s, shard) in self.shards.iter().enumerate() {
            let head = shard.lock().expect("cache shard").coldest(mem);
            if let Some((key, tick)) = head {
                if best.is_none_or(|(_, _, t)| tick < t) {
                    best = Some((s, key, tick));
                }
            }
        }
        best
    }

    /// Writes a spill file for `key` (temp name + atomic rename, so a
    /// concurrent reader sees either nothing or the complete block — never
    /// a torn write). Returns `None` on any I/O failure: spilling is an
    /// optimization, never a correctness dependency.
    fn spill(&self, key: &Key, data: &[u8], c: &IoCounters) -> Option<PathBuf> {
        std::fs::create_dir_all(&self.spill_dir).ok()?;
        let name = format!(
            "{}-{}-{}-{}.blk",
            self.file_tag, key.object, key.off, key.len
        );
        let path = self.spill_dir.join(name);
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, data).ok()?;
        std::fs::rename(&tmp, &path).ok()?;
        c.add_cache_spill_bytes(key.len);
        Some(path)
    }
}

impl Drop for BlockCache {
    fn drop(&mut self) {
        for shard in &mut self.shards {
            // Take the whole shard, so the map and its indexes go together.
            let shard = std::mem::take(shard.get_mut().expect("cache shard"));
            for (_, entry) in shard.map {
                if let Tier::Disk(path) = entry.tier {
                    let _ = std::fs::remove_file(path);
                }
            }
        }
        if self.dir_owned {
            let _ = std::fs::remove_dir(&self.spill_dir);
        }
    }
}

fn shard_of(key: &Key) -> usize {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() as usize) % SHARDS
}

/// A [`RawFile`] whose transport reads through a (possibly shared)
/// [`BlockCache`]. Construction binds the cache to the inner backend via
/// [`RawFile::attach_cache`]; every access then delegates unchanged — the
/// cache lives below the span-batch fetcher, so logical meters, answers,
/// and trajectories are byte-identical to the unwrapped file.
pub struct CachedFile {
    inner: Box<dyn RawFile>,
    cache: Arc<BlockCache>,
    attached: bool,
}

impl CachedFile {
    /// Wraps `inner`, binding `cache` to its transport. Inert (but
    /// harmless) when the inner backend has no cache-capable transport.
    pub fn new(inner: Box<dyn RawFile>, cache: Arc<BlockCache>) -> Self {
        let attached = inner.attach_cache(Arc::clone(&cache));
        CachedFile {
            inner,
            cache,
            attached,
        }
    }

    /// Wraps `inner` with a fresh private cache built from `cfg`.
    pub fn with_config(inner: Box<dyn RawFile>, cfg: CacheConfig) -> Self {
        CachedFile::new(inner, Arc::new(BlockCache::new(cfg)))
    }

    /// The cache backing this file (shared handle).
    pub fn cache(&self) -> &Arc<BlockCache> {
        &self.cache
    }

    /// Whether the inner backend actually bound the cache (false for
    /// local backends or one that already had a cache attached).
    pub fn is_attached(&self) -> bool {
        self.attached
    }
}

impl RawFile for CachedFile {
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
        self.inner.scan(handler)
    }

    fn read_rows(&self, locators: &[RowLocator], attrs: &[AttrId]) -> Result<Vec<Vec<f64>>> {
        self.inner.read_rows(locators, attrs)
    }

    fn partitions(&self, n: usize) -> Result<Vec<ScanPartition>> {
        self.inner.partitions(n)
    }

    fn scan_partition(&self, partition: ScanPartition, handler: &mut RowHandler<'_>) -> Result<()> {
        self.inner.scan_partition(partition, handler)
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
        self.inner.scan_filtered(window, handler)
    }

    fn read_rows_window(
        &self,
        locators: &[RowLocator],
        attrs: &[AttrId],
        window: Option<&Rect>,
    ) -> Result<Vec<Vec<f64>>> {
        self.inner.read_rows_window(locators, attrs, window)
    }

    fn attach_cache(&self, cache: Arc<BlockCache>) -> bool {
        self.inner.attach_cache(cache)
    }

    fn append_rows(&self, rows: &[Vec<f64>]) -> Result<AppendReceipt> {
        self.inner.append_rows(rows)
    }

    fn invalidate_cache(&self) -> u64 {
        // The inner backend owns the cache binding (it knows its object
        // id), so invalidation routes through it — not through `cache`
        // directly, which may back other files too.
        self.inner.invalidate_cache()
    }

    fn compact_once(&self, domain: &Rect, min_run: usize) -> Result<Option<CompactionReport>> {
        self.inner.compact_once(domain, min_run)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(n: usize, fill: u8) -> Vec<u8> {
        vec![fill; n]
    }

    #[test]
    fn admit_then_lookup_round_trips() {
        let c = IoCounters::new();
        let cache = BlockCache::new(CacheConfig::new(1 << 20, 0));
        let obj = cache.object_id("a");
        assert!(cache.lookup(obj, 0, 100).is_none());
        cache.admit(obj, 0, &bytes(100, 7), CacheMode::Admit, &c);
        let hit = cache.lookup(obj, 0, 100).expect("admitted");
        assert_eq!(hit.as_slice(), bytes(100, 7).as_slice());
        // Exact-span keying: a different length is a different block.
        assert!(cache.lookup(obj, 0, 99).is_none());
        assert_eq!(cache.mem_used(), 100);
    }

    #[test]
    fn object_ids_stable_and_shared() {
        let cache = BlockCache::new(CacheConfig::new(1024, 0));
        let a = cache.object_id("x");
        let b = cache.object_id("y");
        assert_ne!(a, b);
        assert_eq!(cache.object_id("x"), a, "same name, same id");
    }

    #[test]
    fn stream_mode_is_one_touch_then_admits() {
        let c = IoCounters::new();
        let cache = BlockCache::new(CacheConfig::new(1 << 20, 0));
        let obj = cache.object_id("a");
        cache.admit(obj, 0, &bytes(64, 1), CacheMode::Stream, &c);
        assert!(cache.lookup(obj, 0, 64).is_none(), "first touch bypasses");
        cache.admit(obj, 0, &bytes(64, 1), CacheMode::Stream, &c);
        assert!(cache.lookup(obj, 0, 64).is_some(), "second touch admits");
    }

    #[test]
    fn mark_hot_preseeds_stream_admission() {
        let c = IoCounters::new();
        let cache = BlockCache::new(CacheConfig::new(1 << 20, 0));
        let obj = cache.object_id("a");
        cache.mark_hot(obj, &[(128, 32)]);
        cache.admit(obj, 128, &bytes(32, 2), CacheMode::Stream, &c);
        assert!(cache.lookup(obj, 128, 32).is_some(), "hot span admits");
    }

    #[test]
    fn lru_eviction_respects_mem_budget_and_meters() {
        let c = IoCounters::new();
        let cache = BlockCache::new(CacheConfig::new(256, 0));
        let obj = cache.object_id("a");
        for i in 0..4u64 {
            cache.admit(obj, i * 100, &bytes(100, i as u8), CacheMode::Admit, &c);
        }
        assert!(cache.mem_used() <= 256, "budget held: {}", cache.mem_used());
        assert!(c.cache_evictions() >= 2, "victims metered");
        assert_eq!(c.cache_mem_bytes(), cache.mem_used(), "gauge published");
        // The most recent entry survives.
        assert!(cache.lookup(obj, 300, 100).is_some());
    }

    #[test]
    fn eviction_spills_to_disk_and_serves_from_it() {
        let dir = std::env::temp_dir().join(format!("pai-cache-test-{}", std::process::id()));
        let c = IoCounters::new();
        let cache = BlockCache::new(CacheConfig::new(256, 1 << 20).with_spill_dir(&dir));
        let obj = cache.object_id("a");
        for i in 0..4u64 {
            cache.admit(obj, i * 100, &bytes(100, i as u8), CacheMode::Admit, &c);
        }
        assert!(cache.disk_used() > 0, "victims spilled, not dropped");
        assert!(c.cache_spill_bytes() > 0);
        // A spilled entry still hits, with the right bytes.
        let hit = cache.lookup(obj, 0, 100).expect("served from spill tier");
        assert_eq!(hit.as_slice(), bytes(100, 0).as_slice());
        drop(cache);
        // Spill files are cleaned up on drop.
        let leftovers = std::fs::read_dir(&dir).map(|d| d.count()).unwrap_or(0);
        assert_eq!(leftovers, 0, "spill files removed on drop");
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn vanished_spill_file_degrades_to_miss() {
        let dir = std::env::temp_dir().join(format!("pai-cache-gone-{}", std::process::id()));
        let c = IoCounters::new();
        let cache = BlockCache::new(CacheConfig::new(128, 1 << 20).with_spill_dir(&dir));
        let obj = cache.object_id("a");
        cache.admit(obj, 0, &bytes(100, 3), CacheMode::Admit, &c);
        cache.admit(obj, 100, &bytes(100, 4), CacheMode::Admit, &c);
        assert!(cache.disk_used() > 0);
        for f in std::fs::read_dir(&dir).unwrap() {
            let _ = std::fs::remove_file(f.unwrap().path());
        }
        // One of the two is on the (now empty) disk tier: lookups still
        // answer, the vanished entry just misses.
        let hits = [cache.lookup(obj, 0, 100), cache.lookup(obj, 100, 100)];
        assert_eq!(hits.iter().filter(|h| h.is_some()).count(), 1);
        assert_eq!(cache.disk_used(), 0, "vanished entry uncharged");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_budget_evicts_spilled_entries() {
        let dir = std::env::temp_dir().join(format!("pai-cache-disk-{}", std::process::id()));
        let c = IoCounters::new();
        let cache = BlockCache::new(CacheConfig::new(100, 250).with_spill_dir(&dir));
        let obj = cache.object_id("a");
        for i in 0..5u64 {
            cache.admit(obj, i * 100, &bytes(100, i as u8), CacheMode::Admit, &c);
        }
        assert!(cache.mem_used() <= 100);
        assert!(cache.disk_used() <= 250, "disk: {}", cache.disk_used());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn invalidate_object_drops_both_tiers_and_ghosts() {
        let dir = std::env::temp_dir().join(format!("pai-cache-inv-{}", std::process::id()));
        let c = IoCounters::new();
        let cache = BlockCache::new(CacheConfig::new(256, 1 << 20).with_spill_dir(&dir));
        let keep = cache.object_id("keep");
        let gone = cache.object_id("gone");
        // Overfill the memory tier so some of `gone`'s spans spill to disk.
        for i in 0..4u64 {
            cache.admit(gone, i * 100, &bytes(100, i as u8), CacheMode::Admit, &c);
        }
        cache.admit(keep, 0, &bytes(50, 9), CacheMode::Admit, &c);
        // Ghost entry for `gone`: touched once in Stream mode, not admitted.
        cache.admit(gone, 999, &bytes(10, 1), CacheMode::Stream, &c);
        assert!(cache.disk_used() > 0, "precondition: something spilled");

        let removed = cache.invalidate_object(gone);
        assert!(removed >= 3, "all resident spans dropped: {removed}");
        for i in 0..4u64 {
            assert!(cache.lookup(gone, i * 100, 100).is_none(), "span {i} stale");
        }
        // Ghost cleared too: a Stream re-touch starts from scratch.
        cache.admit(gone, 999, &bytes(10, 1), CacheMode::Stream, &c);
        assert!(cache.lookup(gone, 999, 10).is_none(), "ghost was cleared");
        // Unrelated objects survive, and byte accounting is consistent.
        assert!(cache.lookup(keep, 0, 50).is_some(), "other object kept");
        assert_eq!(cache.mem_used(), 50);
        assert_eq!(cache.disk_used(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cached_file_over_local_backend_is_inert() {
        let rows: Vec<Vec<f64>> = (0..16).map(|i| vec![i as f64, 0.0, 1.0]).collect();
        let inner = crate::ZoneFile::from_rows_with_block(&Schema::synthetic(3), rows, 4).unwrap();
        let f = CachedFile::with_config(Box::new(inner), CacheConfig::new(1 << 20, 0));
        assert!(!f.is_attached(), "local backends have no cache seam");
        let mut n = 0;
        f.scan(&mut |_, _, _| {
            n += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(n, 16);
        assert_eq!(f.cache().entries(), 0);
    }

    #[test]
    fn concurrent_admit_lookup_is_torn_free() {
        let c = IoCounters::new();
        let cache = Arc::new(BlockCache::new(CacheConfig::new(2048, 0)));
        let obj = cache.object_id("a");
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let cache = Arc::clone(&cache);
                let c = c.clone();
                s.spawn(move || {
                    for i in 0..200u64 {
                        let off = (t * 200 + i) % 32 * 64;
                        cache.admit(obj, off, &bytes(64, (off / 64) as u8), CacheMode::Admit, &c);
                        if let Some(hit) = cache.lookup(obj, off, 64) {
                            assert!(
                                hit.iter().all(|&b| b == (off / 64) as u8),
                                "torn block at {off}"
                            );
                        }
                    }
                });
            }
        });
        assert!(cache.mem_used() <= 2048);
    }

    mod model {
        use super::*;
        use proptest::prelude::*;

        /// Memory budget of the modelled cache: a handful of entries.
        const MEM: u64 = 256;
        /// Span lengths; the last never fits the memory tier.
        const LENS: [u64; 5] = [24, 48, 64, 100, 300];

        /// Brute-force reference LRU: the same admission rules, with every
        /// victim found by scanning all entries for the oldest tick.
        #[derive(Default)]
        struct Model {
            disk_bytes: u64,
            clock: u64,
            /// Resident entries: `(in memory, last_used, fill byte)`.
            entries: HashMap<Key, (bool, u64, u8)>,
            touched: HashSet<Key>,
            evictions: u64,
        }

        impl Model {
            fn used(&self, mem: bool) -> u64 {
                self.entries
                    .iter()
                    .filter(|(_, e)| e.0 == mem)
                    .map(|(k, _)| k.len)
                    .sum()
            }

            fn coldest(&self, mem: bool) -> Option<Key> {
                self.entries
                    .iter()
                    .filter(|(_, e)| e.0 == mem)
                    .min_by_key(|(_, e)| e.1)
                    .map(|(k, _)| *k)
            }

            fn admit(&mut self, key: Key, fill: u8, mode: CacheMode) {
                self.clock += 1;
                if mode == CacheMode::Stream && self.touched.insert(key) {
                    return;
                }
                if key.len > MEM {
                    return;
                }
                self.entries.insert(key, (true, self.clock, fill));
                while self.used(true) > MEM {
                    let Some(victim) = self.coldest(true) else {
                        break;
                    };
                    self.evictions += 1;
                    if victim.len <= self.disk_bytes {
                        self.entries.get_mut(&victim).unwrap().0 = false;
                    } else {
                        self.entries.remove(&victim);
                    }
                }
                while self.used(false) > self.disk_bytes {
                    let Some(victim) = self.coldest(false) else {
                        break;
                    };
                    self.evictions += 1;
                    self.entries.remove(&victim);
                }
            }

            fn lookup(&mut self, key: Key) -> Option<u8> {
                self.clock += 1;
                let entry = self.entries.get_mut(&key)?;
                entry.1 = self.clock;
                Some(entry.2)
            }

            fn invalidate(&mut self, object: u64) {
                self.entries.retain(|k, _| k.object != object);
                self.touched.retain(|k| k.object != object);
            }
        }

        /// Resident keys and whether each is in the memory tier.
        fn resident(cache: &BlockCache) -> HashMap<Key, bool> {
            let mut out = HashMap::new();
            for shard in &cache.shards {
                let shard = shard.lock().unwrap();
                for (key, entry) in &shard.map {
                    out.insert(*key, entry.tier.is_mem());
                }
            }
            out
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// Every step of a random admit/lookup/mark_hot/invalidate
            /// sequence leaves the same entries in the same tiers, and the
            /// same eviction count, as the brute-force LRU model.
            #[test]
            fn victims_match_the_brute_force_lru(
                disk_slots in 0usize..3,
                ops in prop::collection::vec(
                    (0u32..10, 0u64..2, 0u64..8, 0usize..LENS.len(), any::<u8>()),
                    1..160,
                ),
            ) {
                let disk_bytes = [0, 64, 384][disk_slots];
                let c = IoCounters::new();
                let cache = BlockCache::new(CacheConfig::new(MEM, disk_bytes));
                let objects = [cache.object_id("a"), cache.object_id("b")];
                let mut model = Model { disk_bytes, ..Model::default() };
                for (step, &(op, obj, slot, len_ix, fill)) in ops.iter().enumerate() {
                    let key = Key { object: objects[obj as usize], off: slot * 128, len: LENS[len_ix] };
                    match op {
                        0..=5 => {
                            let mode = if op < 4 { CacheMode::Admit } else { CacheMode::Stream };
                            let data = vec![fill; key.len as usize];
                            cache.admit(key.object, key.off, &data, mode, &c);
                            model.admit(key, fill, mode);
                        }
                        6 | 7 => {
                            let got = cache.lookup(key.object, key.off, key.len);
                            let want = model.lookup(key);
                            prop_assert_eq!(got.is_some(), want.is_some(), "step {}: hit", step);
                            if let (Some(got), Some(fill)) = (got, want) {
                                prop_assert!(got.len() as u64 == key.len && got.iter().all(|&b| b == fill));
                            }
                        }
                        8 => {
                            cache.mark_hot(key.object, &[(key.off, key.len)]);
                            model.touched.insert(key);
                        }
                        _ => {
                            cache.invalidate_object(key.object);
                            model.invalidate(key.object);
                        }
                    }
                    let want: HashMap<Key, bool> =
                        model.entries.iter().map(|(k, e)| (*k, e.0)).collect();
                    prop_assert_eq!(resident(&cache), want, "step {}: resident set", step);
                    prop_assert_eq!(c.cache_evictions(), model.evictions, "step {}", step);
                    prop_assert_eq!(cache.mem_used(), model.used(true));
                    prop_assert_eq!(cache.disk_used(), model.used(false));
                }
            }
        }
    }
}
