//! explore-local and explore-remote: closed-loop cold analyst sessions.
//!
//! One client. Each session opens the image, builds a fresh crude 8×8
//! `AllNumeric` index and evaluates its seeded stream through
//! `ApproximateEngine::evaluate`, waiting for each answer before sending
//! the next query. φ rotates by session, and runs hold whole rounds of
//! three sessions so every run holds the same φ mix.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pai_common::geometry::{Point2, Rect};
use pai_common::{IoSnapshot, Result};
use pai_core::verify::verify_against_truth;
use pai_core::{ApproxResult, ApproximateEngine, EngineConfig};
use pai_index::eval::QueryStats;
use pai_index::init::{build, GridSpec, InitConfig};
use pai_index::MetadataPolicy;
use pai_storage::{
    BlockCache, CacheConfig, CachedFile, HttpFile, HttpOptions, ObjectStore, RawFile, ZoneFile,
};

use crate::oracle::OracleFile;
use crate::report::{median, ms, ratio, us, Metrics, PassTimes};
use crate::stream;
use crate::trace::{self, TracedFile, Tracer};
use crate::{det_io, result_bits, FETCH_WORKERS};

/// Object name of the image on the in-process object store.
pub const OBJECT: &str = "bench.paizone";

/// The remote leg: the object store serving the image and the shared
/// cache's memory budget.
pub struct Remote {
    pub store: ObjectStore,
    pub cache_bytes: u64,
}

/// One explore workload's fixed inputs.
pub struct Explore {
    pub image: PathBuf,
    pub domain: Rect,
    pub seed: u64,
    /// Queries per session.
    pub per_session: usize,
    /// The view every session opens at (see `stream::home_view`).
    pub home: Rect,
    /// Hot spots the remote sessions jump to.
    pub spots: Vec<Point2>,
    pub remote: Option<Remote>,
}

pub struct QueryOut {
    pub window: Rect,
    pub latency: Duration,
    pub result: std::result::Result<ApproxResult, String>,
}

pub struct SessionOut {
    pub phi: f64,
    /// Open + index build.
    pub setup: Duration,
    pub build: Duration,
    pub queries: Vec<QueryOut>,
    /// Wall time of the query loop.
    pub query_wall: Duration,
    /// I/O meters over the whole session, set-up included.
    pub io: IoSnapshot,
    pub leaf_count: usize,
    pub memory_bytes: usize,
}

pub struct Pass {
    pub sessions: Vec<SessionOut>,
}

impl Pass {
    pub fn queries(&self) -> impl Iterator<Item = (&SessionOut, &QueryOut)> {
        self.sessions
            .iter()
            .flat_map(|s| s.queries.iter().map(move |q| (s, q)))
    }

    pub fn query_count(&self) -> usize {
        self.sessions.iter().map(|s| s.queries.len()).sum()
    }

    pub fn errors(&self) -> u64 {
        self.queries().filter(|(_, q)| q.result.is_err()).count() as u64
    }

    pub fn wall(&self) -> Duration {
        self.sessions.iter().map(|s| s.setup + s.query_wall).sum()
    }

    pub fn times(&self) -> PassTimes {
        PassTimes {
            unit: "sessions",
            setup_s: self
                .sessions
                .iter()
                .map(|s| s.setup.as_secs_f64())
                .collect(),
            first_ms: (self.sessions.iter())
                .filter_map(|s| s.queries.first().map(|q| ms(q.latency)))
                .collect(),
            query_ms: self.queries().map(|(_, q)| ms(q.latency)).collect(),
            query_wall: self.sessions.iter().map(|s| s.query_wall).sum(),
        }
    }
}

impl Explore {
    pub fn init(&self) -> InitConfig {
        InitConfig {
            grid: GridSpec::Fixed { nx: 8, ny: 8 },
            domain: Some(self.domain),
            metadata: MetadataPolicy::AllNumeric,
        }
    }

    pub fn config(&self) -> EngineConfig {
        EngineConfig {
            adapt_batch: 8,
            fetch_workers: FETCH_WORKERS,
            // Synopsis-first only where round trips make it worth a try.
            synopsis: self.remote.is_some(),
            ..EngineConfig::paper_evaluation()
        }
    }

    /// Session `s`'s φ and windows.
    pub fn session_plan(&self, s: usize) -> (f64, Vec<Rect>) {
        let phis = if self.remote.is_some() {
            stream::REMOTE_PHIS
        } else {
            stream::PHIS
        };
        let phi = phis[s % phis.len()];
        let home = self.home;
        let seed = stream::subseed(self.seed, 1, s as u64);
        let windows = match self.remote {
            None => stream::local_session(&self.domain, Some(home), seed, self.per_session),
            Some(_) => {
                stream::remote_session(&self.domain, home, &self.spots, seed, self.per_session)
            }
        };
        (phi, windows)
    }

    /// Fingerprint of the first `n` sessions' φ values and windows.
    pub fn stream_hash(&self, n: usize) -> u64 {
        let plans: Vec<(f64, Vec<Rect>)> = (0..n).map(|s| self.session_plan(s)).collect();
        stream::fingerprint(
            plans
                .iter()
                .flat_map(|(phi, ws)| std::iter::once(*phi).chain(stream::coords(ws))),
        )
    }

    fn open(
        &self,
        tracer: Option<&Arc<Tracer>>,
        cache: &Arc<BlockCache>,
    ) -> Result<Box<dyn RawFile>> {
        Ok(match (&self.remote, tracer) {
            (None, None) => Box::new(ZoneFile::open(&self.image)?),
            (None, Some(t)) => {
                Box::new(TracedFile::new(ZoneFile::open(&self.image)?, Arc::clone(t)))
            }
            (Some(r), t) => {
                let opts = HttpOptions::default().with_fetch_workers(FETCH_WORKERS);
                let http = HttpFile::open(r.store.addr(), OBJECT, opts)?;
                let inner: Box<dyn RawFile> = match t {
                    None => Box::new(http),
                    Some(t) => Box::new(TracedFile::new(http, Arc::clone(t))),
                };
                Box::new(CachedFile::new(inner, Arc::clone(cache)))
            }
        })
    }

    /// Runs `n` sessions with one cache shared by all of them.
    pub fn run(&self, n: usize, tracer: Option<&Arc<Tracer>>) -> Result<Pass> {
        let budget = self.remote.as_ref().map_or(0, |r| r.cache_bytes);
        let cache = Arc::new(BlockCache::new(CacheConfig::new(budget, 0)));
        let aggs = stream::aggs();
        let config = self.config();
        let mut sessions = Vec::with_capacity(n);
        let mut qid = 0u64;
        while sessions.len() < n {
            let (phi, windows) = self.session_plan(sessions.len());
            let t0 = Instant::now();
            let file = self.open(tracer, &cache)?;
            let io0 = file.counters().snapshot();
            let tb = Instant::now();
            let (index, _) = build(&*file, &self.init())?;
            let built = Instant::now();
            if let Some(t) = tracer {
                t.record(trace::BUILD, tb, built, 0);
            }
            let setup = t0.elapsed();
            let mut engine = ApproximateEngine::new(index, &*file, config.clone())?;
            let tq = Instant::now();
            let mut queries = Vec::with_capacity(windows.len());
            for window in windows {
                qid += 1;
                let root = tracer.map(|t| t.begin_query(qid));
                let t = Instant::now();
                let result = engine.evaluate(&window, &aggs, phi);
                let end = Instant::now();
                if let (Some(tracer), Some(root)) = (tracer, root) {
                    tracer.end_query(root, trace::EVALUATE, t, end);
                }
                queries.push(QueryOut {
                    window,
                    latency: end - t,
                    result: result.map_err(|e| e.to_string()),
                });
            }
            let query_wall = tq.elapsed();
            sessions.push(SessionOut {
                phi,
                setup,
                build: built - tb,
                queries,
                query_wall,
                io: file.counters().snapshot().since(&io0),
                leaf_count: engine.index().leaf_count(),
                memory_bytes: engine.index().memory_bytes(),
            });
        }
        Ok(Pass { sessions })
    }

    /// Correctness audit: every CI holds the exact answer and every answer
    /// under φ > 0 met it. Returns one line per violation.
    pub fn audit(&self, pass: &Pass, oracle: &OracleFile) -> Result<Vec<String>> {
        let aggs = stream::aggs();
        let norm = self.config().normalization;
        let mut bad = Vec::new();
        for (i, (s, q)) in pass.queries().enumerate() {
            let Ok(res) = &q.result else { continue };
            let report = verify_against_truth(oracle, &q.window, &aggs, res, norm)?;
            if !report.all_ok() {
                bad.push(format!(
                    "query {i}: answer outside its CI or bound at {}",
                    q.window
                ));
            }
            if s.phi > 0.0 && !res.met_constraint {
                bad.push(format!("query {i}: φ = {} not met at {}", s.phi, q.window));
            }
        }
        Ok(bad)
    }
}

/// Differences between two passes over the same sessions: answers compared
/// as bits, I/O as every deterministic meter, per query and per session.
pub fn compare(a: &Pass, b: &Pass) -> Vec<String> {
    let mut diffs = Vec::new();
    if a.sessions.len() != b.sessions.len() {
        diffs.push(format!(
            "{} vs {} sessions",
            a.sessions.len(),
            b.sessions.len()
        ));
        return diffs;
    }
    for (i, (sa, sb)) in a.sessions.iter().zip(&b.sessions).enumerate() {
        if det_io(&sa.io) != det_io(&sb.io) {
            diffs.push(format!("session {i}: I/O meters differ"));
        }
        for (j, (qa, qb)) in sa.queries.iter().zip(&sb.queries).enumerate() {
            let same = match (&qa.result, &qb.result) {
                (Ok(ra), Ok(rb)) => {
                    result_bits(ra) == result_bits(rb)
                        && det_io(&ra.stats.io) == det_io(&rb.stats.io)
                        && tiles(&ra.stats) == tiles(&rb.stats)
                }
                (Err(ea), Err(eb)) => ea == eb,
                _ => false,
            };
            if !same {
                diffs.push(format!("session {i} query {j}: answer or I/O differs"));
            }
        }
    }
    diffs
}

fn tiles(s: &QueryStats) -> (usize, usize, usize) {
    (s.tiles_processed, s.tiles_split, s.tiles_enriched)
}

/// Per-layer metrics of a traced pass.
pub fn layers(pass: &Pass, spans: &[trace::Span], m: &mut Metrics) {
    let nq = pass.query_count() as f64;
    let ns = pass.sessions.len();
    let mut q_io = IoSnapshot::default();
    let (mut processed, mut split, mut enriched, mut zero_io, mut syn) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    for (_, q) in pass.queries() {
        if let Ok(r) = &q.result {
            q_io = add_io(&q_io, &r.stats.io);
            processed += r.stats.tiles_processed as u64;
            split += r.stats.tiles_split as u64;
            enriched += r.stats.tiles_enriched as u64;
            zero_io += u64::from(r.stats.io.objects_read == 0);
            syn += u64::from(r.stats.io.synopsis_hits > 0);
        }
    }
    let run_io = pass
        .sessions
        .iter()
        .fold(IoSnapshot::default(), |acc, s| add_io(&acc, &s.io));

    // Storage spans: reads attach to their query, scans happen in set-up.
    let mut children: std::collections::HashMap<u64, Vec<(u64, u64)>> = Default::default();
    for s in spans.iter().filter(|s| s.name == trace::READ) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let (mut eval_ns, mut self_ns) = (0u64, 0u64);
    for s in spans.iter().filter(|s| s.name == trace::EVALUATE) {
        let cover = children
            .get_mut(&s.id)
            .map_or(0, |c| trace::child_cover_ns(s, c));
        eval_ns += s.dur_ns();
        self_ns += s.dur_ns() - cover;
    }
    let mut build_us: Vec<f64> = pass.sessions.iter().map(|s| us(s.build)).collect();
    let mut leaves: Vec<f64> = pass.sessions.iter().map(|s| s.leaf_count as f64).collect();
    let mut mem: Vec<f64> = pass
        .sessions
        .iter()
        .map(|s| s.memory_bytes as f64)
        .collect();

    let pq = |v: u64| v as f64 / nq;
    trace::storage_reads(m, &q_io, nq, spans);
    m.put(
        "storage.retries",
        run_io.retries as f64,
        "count",
        "run total",
    );
    m.put(
        "storage.cache_hits",
        run_io.cache_hits as f64,
        "count",
        "run total",
    );
    m.put(
        "storage.cache_misses",
        run_io.cache_misses as f64,
        "count",
        "run total",
    );
    m.put(
        "storage.cache_hit_ratio",
        ratio(
            run_io.cache_hits as f64,
            (run_io.cache_hits + run_io.cache_misses) as f64,
        ),
        "ratio",
        "",
    );
    m.put(
        "storage.cache_evictions",
        run_io.cache_evictions as f64,
        "count",
        "run total",
    );
    m.put(
        "index.build_us",
        median(&mut build_us),
        "us",
        format!("median of {ns} sessions"),
    );
    m.put("index.tiles_processed", pq(processed), "count/q", "");
    m.put("index.tiles_split", pq(split), "count/q", "");
    m.put("index.tiles_enriched", pq(enriched), "count/q", "");
    m.put(
        "index.leaf_count",
        median(&mut leaves),
        "count",
        "median at session end",
    );
    m.put(
        "index.memory_bytes",
        median(&mut mem),
        "B",
        "median at session end",
    );
    m.put("core.evaluate_us", eval_ns as f64 / 1e3 / nq, "us/q", "");
    m.put(
        "core.self_us",
        self_ns as f64 / 1e3 / nq,
        "us/q",
        "evaluate minus storage reads",
    );
    m.put("core.zero_io_ratio", pq(zero_io), "ratio", "");
    m.put("core.synopsis_hit_ratio", pq(syn), "ratio", "");
}

/// Field-wise sum of two meter snapshots (gauges take the later value).
pub fn add_io(a: &IoSnapshot, b: &IoSnapshot) -> IoSnapshot {
    IoSnapshot {
        objects_read: a.objects_read + b.objects_read,
        bytes_read: a.bytes_read + b.bytes_read,
        seeks: a.seeks + b.seeks,
        full_scans: a.full_scans + b.full_scans,
        read_calls: a.read_calls + b.read_calls,
        blocks_read: a.blocks_read + b.blocks_read,
        blocks_skipped: a.blocks_skipped + b.blocks_skipped,
        http_requests: a.http_requests + b.http_requests,
        http_bytes: a.http_bytes + b.http_bytes,
        retries: a.retries + b.retries,
        fetch_request_us: a.fetch_request_us + b.fetch_request_us,
        fetch_wall_us: a.fetch_wall_us + b.fetch_wall_us,
        cache_hits: a.cache_hits + b.cache_hits,
        cache_misses: a.cache_misses + b.cache_misses,
        cache_evictions: a.cache_evictions + b.cache_evictions,
        synopsis_hits: a.synopsis_hits + b.synopsis_hits,
        compactions: a.compactions + b.compactions,
        blocks_rewritten: a.blocks_rewritten + b.blocks_rewritten,
        cache_invalidations: a.cache_invalidations + b.cache_invalidations,
        delta_blocks: b.delta_blocks,
        ..IoSnapshot::default()
    }
}
