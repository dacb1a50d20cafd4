//! serve-ingest: a `PaiServer` over `SharedIndex<AppendableFile<ZoneFile>>`
//! with the background compactor, driven over the wire by two closed-loop
//! clients in two named sessions. One only explores; the other alternates
//! ingest batches of scattered rows with queries.
//!
//! A run is a sequence of epochs, each a fresh server over the same base
//! image, so set-up is measured several times per run.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use pai_common::geometry::Rect;
use pai_common::{AggregateFunction, IoSnapshot, PaiError, Result};
use pai_core::{
    compact_now, spawn_compactor, CompactorConfig, CompactorStats, EngineConfig, SharedIndex,
};
use pai_index::init::{build, GridSpec, InitConfig};
use pai_index::MetadataPolicy;
use pai_server::{
    IngestReply, PaiClient, PaiServer, ServeEngine, ServedReply, ServerConfig, ServerStats,
};
use pai_storage::{AppendableFile, DatasetSpec, RawFile, SynopsisSpec, ZoneFile, DELTA_BLOCK_ROWS};

use crate::explore::add_io;
use crate::report::{median, ms, quantile, ratio, us, Metrics, PassTimes};
use crate::stream;
use crate::trace::{self, EngineTotals, TracedEngine, TracedFile, Tracer};
use crate::{det_io, result_bits, FETCH_WORKERS};

/// Queries the exploring client sends per epoch.
const EXPLORE_QUERIES: usize = 400;
/// Ingest batches (each followed by one query) per epoch.
const INGEST_BATCHES: usize = 200;
/// Rows per ingest batch.
const BATCH_ROWS: usize = 256;
/// φ of the exploring and of the ingesting session's queries.
const EXPLORE_PHI: f64 = 0.05;
const INGEST_PHI: f64 = 0.01;
/// Server worker threads.
const SERVER_WORKERS: usize = 2;
/// Queries one epoch holds.
pub const EPOCH_QUERIES: usize = EXPLORE_QUERIES + INGEST_BATCHES;

pub struct Serve {
    pub image: PathBuf,
    pub spec: DatasetSpec,
    pub seed: u64,
    /// The view the exploring session opens at each epoch.
    pub home: Rect,
}

/// What one client saw.
#[derive(Default)]
pub struct ClientOut {
    pub query_rtts: Vec<Duration>,
    pub server_us: Vec<u64>,
    pub ingest_rtts: Vec<Duration>,
    pub rows_acked: u64,
    /// `Busy`/`ShuttingDown` replies, errors, and answers that missed φ.
    pub refused: u64,
    pub errors: u64,
    pub violations: u64,
    pub wall: Duration,
}

impl ClientOut {
    fn attempted(&self) -> u64 {
        (self.query_rtts.len() + self.ingest_rtts.len()) as u64 + self.refused + self.errors
    }
}

pub struct EpochOut {
    pub setup: Duration,
    pub build: Duration,
    pub explorer: ClientOut,
    pub ingester: ClientOut,
    /// Wall time of the client phase.
    pub wall: Duration,
    /// φ = 0 full-domain count after the clients finished, and what it
    /// must be.
    pub final_count: u64,
    pub expected_count: u64,
    pub server: ServerStats,
    pub compactor: CompactorStats,
    /// I/O meters over the client phase (set-up excluded).
    pub io: IoSnapshot,
    pub leaf_count: usize,
    pub memory_bytes: usize,
}

impl EpochOut {
    fn queries(&self) -> impl Iterator<Item = &Duration> {
        self.explorer
            .query_rtts
            .iter()
            .chain(&self.ingester.query_rtts)
    }
}

pub struct Pass {
    pub epochs: Vec<EpochOut>,
    /// What the traced engine saw over the whole pass (zero when untraced).
    pub engine: EngineTotals,
}

impl Pass {
    pub fn query_count(&self) -> usize {
        self.epochs.iter().map(|e| e.queries().count()).sum()
    }

    pub fn attempted(&self) -> u64 {
        self.epochs
            .iter()
            .map(|e| e.explorer.attempted() + e.ingester.attempted() + 1)
            .sum()
    }

    /// Refusals, errors, φ violations and wrong final counts.
    pub fn failed(&self) -> u64 {
        self.epochs
            .iter()
            .map(|e| {
                let c = |o: &ClientOut| o.refused + o.errors + o.violations;
                c(&e.explorer) + c(&e.ingester) + u64::from(e.final_count != e.expected_count)
            })
            .sum()
    }

    pub fn wall(&self) -> Duration {
        self.epochs.iter().map(|e| e.setup + e.wall).sum()
    }

    pub fn times(&self) -> PassTimes {
        PassTimes {
            unit: "epochs",
            setup_s: self.epochs.iter().map(|e| e.setup.as_secs_f64()).collect(),
            first_ms: (self.epochs.iter())
                .filter_map(|e| e.explorer.query_rtts.first().map(|d| ms(*d)))
                .collect(),
            query_ms: (self.epochs.iter())
                .flat_map(|e| e.queries().map(|d| ms(*d)))
                .collect(),
            query_wall: self.epochs.iter().map(|e| e.wall).sum(),
        }
    }
}

fn init(domain: Rect) -> InitConfig {
    InitConfig {
        grid: GridSpec::Fixed { nx: 8, ny: 8 },
        domain: Some(domain),
        metadata: MetadataPolicy::AllNumeric,
    }
}

fn config() -> EngineConfig {
    EngineConfig {
        adapt_batch: 8,
        fetch_workers: FETCH_WORKERS,
        ..EngineConfig::paper_evaluation()
    }
}

/// The exploring client. `first` is signalled (by a send, or by being
/// dropped on any early exit) once the first answer is in.
fn explore_client(addr: SocketAddr, windows: &[Rect], first: Sender<()>) -> Result<ClientOut> {
    let mut client = PaiClient::connect(addr, "explore")?;
    let aggs = stream::aggs();
    let mut out = ClientOut::default();
    let t0 = Instant::now();
    let mut first = Some(first);
    for w in windows {
        query(&mut client, w, &aggs, EXPLORE_PHI, &mut out);
        if let Some(tx) = first.take() {
            let _ = tx.send(());
        }
    }
    out.wall = t0.elapsed();
    client.close()?;
    Ok(out)
}

/// The ingesting client. It starts once the explorer's first answer is in
/// (`first`), so that answer measures a cold index without a concurrent
/// write stream.
fn ingest_client(
    addr: SocketAddr,
    batches: &[Vec<Vec<f64>>],
    windows: &[Rect],
    first: Receiver<()>,
) -> Result<ClientOut> {
    let mut client = PaiClient::connect(addr, "ingest")?;
    let aggs = stream::aggs();
    let mut out = ClientOut::default();
    let _ = first.recv();
    let t0 = Instant::now();
    for (rows, w) in batches.iter().zip(windows) {
        let t = Instant::now();
        match client.ingest(rows) {
            Ok(IngestReply::Applied(ack)) => {
                out.ingest_rtts.push(t.elapsed());
                out.rows_acked += ack.rows;
            }
            Ok(IngestReply::ShuttingDown) => out.refused += 1,
            Err(_) => out.errors += 1,
        }
        query(&mut client, w, &aggs, INGEST_PHI, &mut out);
    }
    out.wall = t0.elapsed();
    client.close()?;
    Ok(out)
}

fn query(
    client: &mut PaiClient,
    w: &Rect,
    aggs: &[AggregateFunction],
    phi: f64,
    out: &mut ClientOut,
) {
    let t = Instant::now();
    match client.query(w, aggs, phi) {
        Ok(ServedReply::Answer(a)) => {
            out.query_rtts.push(t.elapsed());
            out.server_us.push(a.server_us);
            out.violations += u64::from(!a.met_constraint);
        }
        Ok(ServedReply::Busy | ServedReply::ShuttingDown) => out.refused += 1,
        Err(_) => out.errors += 1,
    }
}

/// The exact number of objects the server indexes, over the wire.
fn full_count(addr: SocketAddr, domain: &Rect) -> Result<u64> {
    let mut client = PaiClient::connect(addr, "audit")?;
    let reply = client.query(domain, &[AggregateFunction::Count], 0.0)?;
    client.close()?;
    match reply {
        ServedReply::Answer(a) => a.values[0]
            .as_f64()
            .map(|c| c as u64)
            .ok_or_else(|| PaiError::internal("empty full-domain count")),
        other => Err(PaiError::internal(format!(
            "audit query refused: {other:?}"
        ))),
    }
}

impl Serve {
    fn domain(&self) -> Rect {
        self.spec.domain
    }

    fn appendable(&self) -> Result<AppendableFile<ZoneFile>> {
        AppendableFile::with_layout(
            ZoneFile::open(&self.image)?,
            self.spec.rows,
            DELTA_BLOCK_ROWS,
            SynopsisSpec::default(),
        )
    }

    /// Epoch `e`'s inputs: the explorer's windows, the ingest batches and
    /// the ingesting session's windows.
    fn plan(&self, e: usize) -> (Vec<Rect>, Vec<Vec<Vec<f64>>>, Vec<Rect>) {
        let d = self.domain();
        let e = e as u64;
        (
            stream::local_session(
                &d,
                Some(self.home),
                stream::subseed(self.seed, 2, e),
                EXPLORE_QUERIES,
            ),
            stream::ingest_batches(
                &self.spec,
                stream::subseed(self.seed, 3, e),
                INGEST_BATCHES,
                BATCH_ROWS,
            ),
            stream::local_session(&d, None, stream::subseed(self.seed, 4, e), INGEST_BATCHES),
        )
    }

    /// Fingerprint of the first `n` epochs' windows and ingest rows.
    pub fn stream_hash(&self, n: usize) -> u64 {
        let plans: Vec<_> = (0..n).map(|e| self.plan(e)).collect();
        stream::fingerprint(plans.iter().flat_map(|(explore, batches, windows)| {
            stream::coords(explore)
                .chain(batches.iter().flatten().flatten().copied())
                .chain(stream::coords(windows))
        }))
    }

    /// Runs `n` epochs.
    pub fn run(&self, n: usize, tracer: Option<&Arc<Tracer>>) -> Result<Pass> {
        let totals = Arc::new(Mutex::new(EngineTotals::default()));
        let mut epochs: Vec<EpochOut> = Vec::with_capacity(n);
        while epochs.len() < n {
            let t0 = Instant::now();
            let file = self.appendable()?;
            let e = epochs.len();
            epochs.push(match tracer {
                None => self.epoch(e, t0, file, None)?,
                Some(t) => {
                    let traced = TracedFile::new(file, Arc::clone(t));
                    self.epoch(e, t0, traced, Some((t, &totals)))?
                }
            });
        }
        let engine = *totals.lock().expect("engine totals lock");
        Ok(Pass { epochs, engine })
    }

    fn epoch<F: RawFile + 'static>(
        &self,
        e: usize,
        t0: Instant,
        file: F,
        tracer: Option<(&Arc<Tracer>, &Arc<Mutex<EngineTotals>>)>,
    ) -> Result<EpochOut> {
        let counters = file.counters().clone();
        let tb = Instant::now();
        let (index, _) = build(&file, &init(self.domain()))?;
        let built = Instant::now();
        if let Some((t, _)) = tracer {
            t.record(trace::BUILD, tb, built, 0);
        }
        let io0 = counters.snapshot();
        let shared = Arc::new(SharedIndex::new(index, file, config())?);
        let compactor = spawn_compactor(Arc::clone(&shared), CompactorConfig::default());
        let engine: Arc<dyn ServeEngine> = match tracer {
            Some((t, totals)) => Arc::new(TracedEngine {
                shared: Arc::clone(&shared),
                tracer: Arc::clone(t),
                totals: Arc::clone(totals),
            }),
            None => Arc::clone(&shared) as Arc<dyn ServeEngine>,
        };
        let mut server = PaiServer::serve(
            engine,
            ServerConfig {
                workers: SERVER_WORKERS,
                ..ServerConfig::default()
            },
        )?;
        let setup = t0.elapsed();

        let (explore, batches, windows) = self.plan(e);
        let addr = server.addr();
        let tc = Instant::now();
        let (first_tx, first_rx) = channel();
        let (explorer, ingester) = std::thread::scope(|sc| {
            let a = sc.spawn(|| explore_client(addr, &explore, first_tx));
            let b = sc.spawn(|| ingest_client(addr, &batches, &windows, first_rx));
            (
                a.join().expect("explore client panicked"),
                b.join().expect("ingest client panicked"),
            )
        });
        let wall = tc.elapsed();
        let (explorer, ingester) = (explorer?, ingester?);

        let final_count = full_count(addr, &self.domain())?;
        let compactor = compactor.stop();
        let server_stats = server.stats();
        server.shutdown();
        drop(server);
        let (leaf_count, memory_bytes) = shared.with_index(|i| (i.leaf_count(), i.memory_bytes()));
        // Connection threads are detached and drop their engine handle only
        // after they see the client's close. Wait for that, so this epoch's
        // index is freed before the next one is built and every epoch adds
        // the same to the peak resident set.
        let t_free = Instant::now();
        while Arc::strong_count(&shared) > 1 && t_free.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(EpochOut {
            setup,
            build: built - tb,
            expected_count: self.spec.rows + ingester.rows_acked,
            explorer,
            ingester,
            wall,
            final_count,
            server: server_stats,
            compactor,
            io: counters.snapshot().since(&io0),
            leaf_count,
            memory_bytes,
        })
    }

    /// The forwarding-wrapper self-check for this workload: one scripted,
    /// single-threaded session of queries, ingest batches and compactions
    /// against the library, untraced and then traced. Answers (as bits),
    /// receipts and every deterministic meter must match.
    pub fn self_check(&self, tracer: &Arc<Tracer>) -> Result<Vec<String>> {
        let a = self.script(self.appendable()?)?;
        let b = self.script(TracedFile::new(self.appendable()?, Arc::clone(tracer)))?;
        let mut diffs = Vec::new();
        if a.len() != b.len() {
            diffs.push("self-check scripts differ in length".to_string());
        }
        for (i, (x, y)) in a.iter().zip(&b).enumerate() {
            if x != y {
                diffs.push(format!("self-check step {i}: traced and untraced differ"));
            }
        }
        Ok(diffs)
    }

    fn script<F: RawFile>(&self, file: F) -> Result<Vec<Vec<u64>>> {
        let counters = file.counters().clone();
        let io0 = counters.snapshot();
        let (index, _) = build(&file, &init(self.domain()))?;
        let shared = SharedIndex::new(index, file, config())?;
        let d = self.domain();
        let windows = stream::local_session(&d, None, stream::subseed(self.seed, 5, 0), 48);
        // Big batches, so sealed delta blocks pile up and compaction runs.
        let batches =
            stream::ingest_batches(&self.spec, stream::subseed(self.seed, 6, 0), 24, 2048);
        let aggs = stream::aggs();
        let mut steps = Vec::new();
        for (i, w) in windows.iter().enumerate() {
            let r = shared.evaluate(w, &aggs, stream::PHIS[i % 3])?;
            let mut step = result_bits(&r);
            step.extend(det_io(&r.stats.io));
            if i % 2 == 1 {
                let receipt = shared.ingest(&batches[i / 2])?;
                step.extend([receipt.start_row, receipt.generation, receipt.delta_blocks]);
            }
            if i % 8 == 7 {
                let report = compact_now(&shared, 2)?;
                step.extend(
                    report
                        .map(|r| [r.generation, r.blocks_rewritten, r.rows])
                        .unwrap_or_default(),
                );
            }
            steps.push(step);
        }
        steps.push(det_io(&counters.snapshot().since(&io0)));
        Ok(steps)
    }
}

/// Ingest latency and throughput of a pass.
pub fn ingest_metrics(pass: &Pass, m: &mut Metrics, prefix_server: bool) {
    let mut lat: Vec<f64> = pass
        .epochs
        .iter()
        .flat_map(|e| e.ingester.ingest_rtts.iter().map(|d| ms(*d)))
        .collect();
    let n = lat.len();
    let rows: u64 = pass.epochs.iter().map(|e| e.ingester.rows_acked).sum();
    let wall: Duration = pass.epochs.iter().map(|e| e.ingester.wall).sum();
    let (p50, rps) = if prefix_server {
        ("server.ingest_p50_ms", "server.ingest_rows_per_s")
    } else {
        ("ingest_p50_ms", "ingest_rows_per_s")
    };
    m.put(p50, quantile(&mut lat, 0.5), "ms", format!("n={n}"));
    m.put(
        rps,
        rows as f64 / wall.as_secs_f64(),
        "rows/s",
        format!("{rows} rows"),
    );
}

/// Per-layer metrics of a traced pass. With two concurrent clients no
/// span belongs to one query, so these are per-layer totals over the run
/// (divided by the operations they served).
pub fn layers(pass: &Pass, spans: &[trace::Span], m: &mut Metrics) {
    let io = pass
        .epochs
        .iter()
        .fold(IoSnapshot::default(), |acc, e| add_io(&acc, &e.io));
    let eng = pass.engine;
    let nq = eng.evaluations as f64;
    let span_sum = |name: &str| -> (f64, u64, u64) {
        spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0.0, 0, 0), |(t, n, r), s| {
                (t + s.dur_ns() as f64 / 1e3, n + 1, r + s.rows)
            })
    };
    let (read_us, _, _) = span_sum(trace::READ);
    let (append_us, appends, _) = span_sum(trace::APPEND);
    let (compact_us, compacts, _) = span_sum(trace::COMPACT);
    let pq = |v: u64| v as f64 / nq;
    let mut build_us: Vec<f64> = pass.epochs.iter().map(|e| us(e.build)).collect();
    let mut leaves: Vec<f64> = pass.epochs.iter().map(|e| e.leaf_count as f64).collect();
    let mut mem: Vec<f64> = pass.epochs.iter().map(|e| e.memory_bytes as f64).collect();
    let mut deltas: Vec<f64> = pass
        .epochs
        .iter()
        .map(|e| e.io.delta_blocks as f64)
        .collect();
    let server_us: u64 = pass
        .epochs
        .iter()
        .flat_map(|e| e.explorer.server_us.iter().chain(&e.ingester.server_us))
        .sum();
    let rtt: Duration = pass.epochs.iter().flat_map(|e| e.queries()).sum();
    let answered = pass.query_count() as f64;
    let eval_us = us(eng.evaluate);

    trace::storage_reads(m, &io, nq, spans);
    m.put(
        "storage.append_us",
        ratio(append_us, appends as f64),
        "us",
        format!("{appends} appends"),
    );
    m.put(
        "storage.compact_us",
        ratio(compact_us, compacts as f64),
        "us",
        format!("{compacts} compactions"),
    );
    m.put(
        "storage.delta_blocks",
        median(&mut deltas),
        "count",
        "median at epoch end",
    );
    m.put(
        "storage.blocks_rewritten",
        io.blocks_rewritten as f64,
        "count",
        "run total",
    );
    m.put(
        "storage.cache_invalidations",
        io.cache_invalidations as f64,
        "count",
        "run total",
    );
    m.put(
        "index.build_us",
        median(&mut build_us),
        "us",
        format!("median of {} epochs", pass.epochs.len()),
    );
    m.put(
        "index.tiles_processed",
        pq(eng.tiles_processed),
        "count/q",
        "",
    );
    m.put("index.tiles_split", pq(eng.tiles_split), "count/q", "");
    m.put(
        "index.tiles_enriched",
        pq(eng.tiles_enriched),
        "count/q",
        "",
    );
    m.put(
        "index.leaf_count",
        median(&mut leaves),
        "count",
        "median at epoch end",
    );
    m.put(
        "index.memory_bytes",
        median(&mut mem),
        "B",
        "median at epoch end",
    );
    m.put(
        "core.evaluate_us",
        eval_us / nq,
        "us/q",
        format!("{} evaluations", eng.evaluations),
    );
    m.put(
        "core.self_us",
        (eval_us - read_us).max(0.0) / nq,
        "us/q",
        "evaluate minus storage reads, totals",
    );
    m.put("core.zero_io_ratio", pq(eng.zero_io), "ratio", "");
    m.put(
        "core.synopsis_hit_ratio",
        pq(eng.synopsis_hits),
        "ratio",
        "",
    );
    m.put("core.lock_wait_us", us(eng.lock_wait) / nq, "us/q", "");
    m.put(
        "core.plan_conflicts",
        eng.plan_conflicts as f64,
        "count",
        "run total",
    );
    m.put(
        "core.compactions",
        pass.epochs
            .iter()
            .map(|e| e.compactor.compactions)
            .sum::<u64>() as f64,
        "count",
        "run total",
    );
    m.put(
        "core.ingest_us",
        ratio(us(eng.ingest), eng.ingests as f64),
        "us",
        format!("{} batches", eng.ingests),
    );
    m.put("server.service_us", server_us as f64 / answered, "us/q", "");
    m.put(
        "server.wire_us",
        (us(rtt) - server_us as f64) / answered,
        "us/q",
        "round trip minus service",
    );
    m.put(
        "server.queue_us",
        (server_us as f64 - eval_us) / answered,
        "us/q",
        "service minus evaluate",
    );
    m.put(
        "server.busy_rejections",
        pass.epochs
            .iter()
            .map(|e| e.server.busy_rejections)
            .sum::<u64>() as f64,
        "count",
        "run total",
    );
    m.put(
        "server.errors",
        pass.epochs.iter().map(|e| e.server.errors).sum::<u64>() as f64,
        "count",
        "run total",
    );
}
