//! Remote object-store benchmarks: the HTTP backend's acceptance gates.
//!
//! Five gates run once at startup against the bundled in-process object
//! store ([`pai_storage::ObjectStore`]):
//!
//! * **equivalence** — the same workload (plus its per-query ground-truth
//!   verification) over HTTP yields byte-identical answers, CIs, error
//!   bounds, and adaptation trajectories to the local `PaiZone` file, at
//!   batch sizes 1 and 8, for both the naive and the coalescing client;
//! * **coalescing + pushdown** — with fault injection off and a
//!   per-request latency injected at the server, the coalescing client
//!   issues strictly fewer ranged GETs, moves strictly fewer wire bytes,
//!   and finishes the workload strictly faster than the naive
//!   one-GET-per-span client;
//! * **overlap** — under the same injected latency, the overlapped fetch
//!   pipeline (`fetch_workers > 1`) finishes the workload strictly faster
//!   than the sequential client at batch sizes 1 and 8, with byte-identical
//!   answers, CIs, trajectories, *and logical meters* (the request pattern
//!   is identical; only wall-clock and `fetch_inflight_peak` move);
//! * **adaptive sizing** — the per-object adaptive part sizer issues no
//!   more ranged GETs than the best hand-tuned static part size from a
//!   sweep, with no answer drift;
//! * **fault recovery** — with periodic 5xx injection on, the same queries
//!   still return identical answers, and the retries are metered into the
//!   per-query records and the report CSV;
//! * **cache re-exploration** — a zipf-skewed revisit workload runs three
//!   exploration sessions (fresh engine + index each) over one shared
//!   tiered block cache: every session's answers, CIs, trajectories, and
//!   logical meters are byte-identical to the uncached run, each session
//!   issues strictly fewer ranged GETs than the previous one, and the hot
//!   third session stays at or below 25 % of the uncached GETs *and* wire
//!   bytes.
//!
//! Every gated configuration's wall-clock, GET count, wire bytes, and
//! overlap ratio land in a `BENCH_remote.json` artifact at the repo root
//! (override the path with `PAI_BENCH_JSON_PATH`); the cache gate's
//! per-session measurements land in a sibling `BENCH_cache.json` (override
//! with `PAI_BENCH_CACHE_JSON_PATH`); CI archives both.
//!
//! The criterion group then times the pushdown truth scan over HTTP
//! (naive vs coalesced vs local) with no injected latency.
//!
//! Knobs: `PAI_BENCH_HTTP_PART_KB`, `PAI_BENCH_HTTP_LATENCY_US`,
//! `PAI_BENCH_HTTP_FAULT`, `PAI_BENCH_FETCH_WORKERS`,
//! `PAI_BENCH_HTTP_ADAPTIVE` steer the shared fixtures
//! (`PAI_BENCH_BACKEND=http`); this bench pins its own stores so the gates
//! stay deterministic.

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pai_bench::{cached_zone, small_setup, Fig2Setup};
use pai_common::geometry::Rect;
use pai_common::{AggregateFunction, IoSnapshot};
use pai_core::{ApproxResult, ApproximateEngine, EngineConfig};
use pai_index::init::build;
use pai_query::{report, run_workload, Method, WindowQuery, Workload};
use pai_storage::ground_truth::window_truth;
use pai_storage::{
    CacheConfig, CachedFile, FaultPlan, HttpFile, HttpOptions, ObjectStore, RawFile,
};

const OBJECT: &str = "remote-bench.paizone";

/// Serves the bench dataset's zone image on a dedicated store.
fn serve(setup: &Fig2Setup, latency: Duration, plan: FaultPlan) -> ObjectStore {
    let zone = cached_zone(&setup.spec);
    let bytes = std::fs::read(zone.path().expect("cached zone on disk")).expect("read image");
    let store = ObjectStore::serve_with(latency, plan).expect("start object store");
    store.put(OBJECT, bytes);
    store
}

struct Outcome {
    results: Vec<ApproxResult>,
    truths: Vec<f64>,
    elapsed: Duration,
    requests: u64,
    wire_bytes: u64,
    io: IoSnapshot,
}

/// One gated configuration's measurements, destined for `BENCH_remote.json`.
struct BenchRow {
    config: String,
    wall_secs: f64,
    gets: u64,
    wire_bytes: u64,
    overlap_ratio: f64,
}

impl BenchRow {
    fn of(config: &str, o: &Outcome) -> BenchRow {
        BenchRow {
            config: config.to_string(),
            wall_secs: o.elapsed.as_secs_f64(),
            gets: o.requests,
            wire_bytes: o.wire_bytes,
            overlap_ratio: o.io.overlap_ratio(),
        }
    }
}

/// Writes the per-config measurement artifact (hand-rolled JSON — the
/// workspace deliberately carries no serialization dependency).
fn write_bench_json(rows: &[BenchRow]) {
    let path = std::env::var("PAI_BENCH_JSON_PATH").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_remote.json").to_string()
    });
    let mut s = String::from("{\n  \"bench\": \"remote\",\n  \"configs\": [\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"config\": \"{}\", \"wall_secs\": {:.6}, \"gets\": {}, \
             \"wire_bytes\": {}, \"overlap_ratio\": {:.3}}}{}\n",
            r.config,
            r.wall_secs,
            r.gets,
            r.wire_bytes,
            r.overlap_ratio,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    std::fs::write(&path, s).expect("write BENCH_remote.json");
    println!("remote bench artifact: {path}");
}

/// Writes the cache gate's per-session artifact (`BENCH_cache.json`, path
/// overridable via `PAI_BENCH_CACHE_JSON_PATH`); hand-rolled JSON like
/// [`write_bench_json`].
fn write_cache_json(rows: &[(String, Outcome)]) {
    let path = std::env::var("PAI_BENCH_CACHE_JSON_PATH").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_cache.json").to_string()
    });
    let mut s = String::from("{\n  \"bench\": \"cache\",\n  \"configs\": [\n");
    for (i, (config, o)) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"config\": \"{}\", \"wall_secs\": {:.6}, \"gets\": {}, \
             \"wire_bytes\": {}, \"cache_hits\": {}, \"cache_misses\": {}, \
             \"cache_mem_bytes\": {}}}{}\n",
            config,
            o.elapsed.as_secs_f64(),
            o.requests,
            o.wire_bytes,
            o.io.cache_hits,
            o.io.cache_misses,
            o.io.cache_mem_bytes,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    std::fs::write(&path, s).expect("write BENCH_cache.json");
    println!("cache bench artifact: {path}");
}

/// Runs the workload (φ = 5 %) plus a per-query truth verification and
/// snapshots the transport meters. `workers` feeds the engine's overlapped
/// fetch/apply pipeline (`EngineConfig::fetch_workers`).
fn run_verified(file: &dyn RawFile, setup: &Fig2Setup, batch: usize, workers: usize) -> Outcome {
    let (index, _) = build(file, &setup.init).expect("init");
    let cfg = EngineConfig {
        adapt_batch: batch,
        fetch_workers: workers,
        ..setup.engine.clone()
    };
    let mut engine = ApproximateEngine::new(index, file, cfg).expect("engine");
    file.counters().reset();
    let t0 = Instant::now();
    let results: Vec<ApproxResult> = setup
        .workload
        .queries
        .iter()
        .map(|q| engine.evaluate(&q.window, &q.aggs, 0.05).expect("evaluate"))
        .collect();
    let truths: Vec<f64> = setup
        .workload
        .queries
        .iter()
        .map(|q| {
            window_truth(file, &q.window, &[2]).expect("truth")[0]
                .stats
                .sum()
        })
        .collect();
    let elapsed = t0.elapsed();
    let io = file.counters().snapshot();
    Outcome {
        results,
        truths,
        elapsed,
        requests: io.http_requests,
        wire_bytes: io.http_bytes,
        io,
    }
}

/// Byte-exact equality of the *logical* meters — the ones the
/// local-vs-remote (and sequential-vs-overlapped) invariant pins. Transport
/// meters are deliberately excluded.
fn assert_logical_meters_equal(label: &str, a: &IoSnapshot, b: &IoSnapshot) {
    assert_eq!(a.objects_read, b.objects_read, "{label}: objects_read");
    assert_eq!(a.bytes_read, b.bytes_read, "{label}: bytes_read");
    assert_eq!(a.seeks, b.seeks, "{label}: seeks");
    assert_eq!(a.read_calls, b.read_calls, "{label}: read_calls");
    assert_eq!(a.blocks_read, b.blocks_read, "{label}: blocks_read");
    assert_eq!(
        a.blocks_skipped, b.blocks_skipped,
        "{label}: blocks_skipped"
    );
    assert_eq!(a.full_scans, b.full_scans, "{label}: full_scans");
}

/// Byte-exact equivalence of two outcomes (answers, CIs, bounds,
/// trajectories, truths).
fn assert_equivalent(label: &str, a: &Outcome, b: &Outcome) {
    assert_eq!(a.results.len(), b.results.len(), "{label}: query count");
    for (i, (x, y)) in a.results.iter().zip(&b.results).enumerate() {
        for (xv, yv) in x.values.iter().zip(&y.values) {
            assert_eq!(xv.as_f64(), yv.as_f64(), "{label}: query {i} answer");
        }
        for (xc, yc) in x.cis.iter().zip(&y.cis) {
            assert_eq!(xc, yc, "{label}: query {i} CI");
        }
        assert_eq!(x.error_bound, y.error_bound, "{label}: query {i} bound");
        assert_eq!(
            x.stats.tiles_processed, y.stats.tiles_processed,
            "{label}: query {i} trajectory"
        );
    }
    assert_eq!(a.truths, b.truths, "{label}: verification truths");
}

/// Injected per-request latency for the latency-sensitive gates:
/// `PAI_BENCH_HTTP_LATENCY_US`, floored at 500 µs so the round-trip cost
/// the overlap/coalescing wins must hide is always real.
fn gate_latency() -> Duration {
    let us = std::env::var("PAI_BENCH_HTTP_LATENCY_US")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0u64)
        .max(500);
    Duration::from_micros(us)
}

/// Gates 1 + 2: equivalence at both batch sizes, then the strict
/// coalescing win under injected per-request latency.
fn assert_coalescing_and_pushdown_win(rows: &mut Vec<BenchRow>) {
    let setup = small_setup(50_000);
    let store = serve(&setup, gate_latency(), FaultPlan::Off);

    let zone = cached_zone(&setup.spec);
    let local1 = run_verified(&zone, &setup, 1, 1);
    let local8 = run_verified(&zone, &setup, 8, 1);

    let open = |opts: HttpOptions| HttpFile::open(store.addr(), OBJECT, opts).expect("open http");
    let coal1 = run_verified(&open(HttpOptions::default()), &setup, 1, 1);
    let coal8 = run_verified(&open(HttpOptions::default()), &setup, 8, 1);
    let naive8 = run_verified(&open(HttpOptions::naive()), &setup, 8, 1);

    assert_equivalent("http batch=1 vs local", &coal1, &local1);
    assert_equivalent("http batch=8 vs local", &coal8, &local8);
    assert_equivalent("naive vs coalesced", &naive8, &coal8);

    assert!(
        coal8.requests < naive8.requests,
        "coalescing must issue strictly fewer ranged GETs: {} vs {}",
        coal8.requests,
        naive8.requests
    );
    assert!(
        coal8.wire_bytes < naive8.wire_bytes,
        "coalescing must move strictly fewer wire bytes: {} vs {}",
        coal8.wire_bytes,
        naive8.wire_bytes
    );
    assert!(
        coal8.elapsed < naive8.elapsed,
        "fewer round trips must win wall-clock: {:?} vs {:?}",
        coal8.elapsed,
        naive8.elapsed
    );
    println!(
        "remote gate (coalescing): naive {} GETs / {} wire bytes / {:?}, \
         coalesced {} GETs / {} wire bytes / {:?} ({:.2}x faster)",
        naive8.requests,
        naive8.wire_bytes,
        naive8.elapsed,
        coal8.requests,
        coal8.wire_bytes,
        coal8.elapsed,
        naive8.elapsed.as_secs_f64() / coal8.elapsed.as_secs_f64()
    );
    rows.push(BenchRow::of("naive batch=8", &naive8));
    rows.push(BenchRow::of("coalesced batch=1", &coal1));
    rows.push(BenchRow::of("coalesced batch=8", &coal8));
}

/// Overlap gate: under injected latency the overlapped fetch pipeline beats
/// the sequential client's wall-clock strictly, at batch sizes 1 and 8,
/// while answers, CIs, trajectories, and every logical meter stay
/// byte-identical (the request pattern is computed before any worker
/// starts, so even the GET count matches).
fn assert_overlap_win(rows: &mut Vec<BenchRow>) {
    let setup = small_setup(50_000);
    let store = serve(&setup, gate_latency(), FaultPlan::Off);
    let open = |opts: HttpOptions| HttpFile::open(store.addr(), OBJECT, opts).expect("open http");

    for batch in [1usize, 8] {
        let seq = run_verified(&open(HttpOptions::default()), &setup, batch, 1);
        let ovl = run_verified(
            &open(HttpOptions::default().with_fetch_workers(8)),
            &setup,
            batch,
            8,
        );
        let label = format!("overlapped vs sequential, batch={batch}");
        assert_equivalent(&label, &ovl, &seq);
        assert_logical_meters_equal(&label, &ovl.io, &seq.io);
        assert_eq!(
            ovl.requests, seq.requests,
            "{label}: overlap must not change the GET count"
        );
        assert!(
            ovl.io.fetch_inflight_peak >= 2,
            "{label}: the pipeline actually overlapped (peak {})",
            ovl.io.fetch_inflight_peak
        );
        assert!(
            ovl.elapsed < seq.elapsed,
            "{label}: overlapped fetch must win wall-clock: {:?} vs {:?}",
            ovl.elapsed,
            seq.elapsed
        );
        println!(
            "remote gate (overlap, batch={batch}): sequential {:?}, overlapped {:?} \
             ({:.2}x faster, peak inflight {}, overlap ratio {:.2})",
            seq.elapsed,
            ovl.elapsed,
            seq.elapsed.as_secs_f64() / ovl.elapsed.as_secs_f64(),
            ovl.io.fetch_inflight_peak,
            ovl.io.overlap_ratio()
        );
        rows.push(BenchRow::of(&format!("sequential batch={batch}"), &seq));
        rows.push(BenchRow::of(&format!("overlapped batch={batch}"), &ovl));
    }
}

/// Adaptive-sizing gate: on the fig2-style workload the per-object adaptive
/// sizer must issue no more ranged GETs than the best hand-tuned static
/// part size from a sweep, with no answer drift.
fn assert_adaptive_sizing_wins(rows: &mut Vec<BenchRow>) {
    let setup = small_setup(50_000);
    let store = serve(&setup, Duration::ZERO, FaultPlan::Off);
    let open = |opts: HttpOptions| HttpFile::open(store.addr(), OBJECT, opts).expect("open http");

    let mut best: Option<(u64, u64)> = None; // (GETs, part bytes)
    let mut reference: Option<Outcome> = None;
    for part_kb in [16u64, 32, 64, 128, 256] {
        let o = run_verified(
            &open(HttpOptions::with_part_bytes(part_kb * 1024)),
            &setup,
            8,
            1,
        );
        if best.is_none_or(|(r, _)| o.requests < r) {
            best = Some((o.requests, part_kb * 1024));
        }
        rows.push(BenchRow::of(&format!("static part={part_kb}KiB"), &o));
        reference.get_or_insert(o);
    }
    let (best_requests, best_part) = best.expect("sweep ran");
    let adaptive = run_verified(
        &open(HttpOptions::default().with_adaptive(true)),
        &setup,
        8,
        1,
    );
    assert_equivalent(
        "adaptive vs static sizing",
        &adaptive,
        reference.as_ref().expect("sweep ran"),
    );
    assert!(
        adaptive.requests <= best_requests,
        "adaptive sizing must issue no more GETs than the best static part \
         ({} bytes): {} vs {}",
        best_part,
        adaptive.requests,
        best_requests
    );
    assert!(
        adaptive.io.parts_resized > 0,
        "the sizer actually adapted its parameters"
    );
    println!(
        "remote gate (adaptive sizing): best static part {} bytes -> {} GETs, \
         adaptive -> {} GETs ({} resizes)",
        best_part, best_requests, adaptive.requests, adaptive.io.parts_resized
    );
    rows.push(BenchRow::of("adaptive sizing", &adaptive));
}

/// Gate 3: under periodic 5xx injection the workload still answers
/// identically, and `retries` lands in the records and the report CSV.
fn assert_fault_recovery_is_metered() {
    let setup = small_setup(20_000);
    let faulty = serve(&setup, Duration::ZERO, "5xx:3".parse().expect("plan"));
    let method = Method::Approx { phi: 0.05 };

    let zone = cached_zone(&setup.spec);
    let baseline =
        run_workload(&zone, &setup.init, &setup.engine, &setup.workload, method).expect("local");

    let http = HttpFile::open(faulty.addr(), OBJECT, HttpOptions::default()).expect("open");
    let run =
        run_workload(&http, &setup.init, &setup.engine, &setup.workload, method).expect("http");

    for (b, h) in baseline.records.iter().zip(&run.records) {
        for (bv, hv) in b.values.iter().zip(&h.values) {
            assert_eq!(bv.as_f64(), hv.as_f64(), "faulted answers must match");
        }
        assert_eq!(b.error_bound, h.error_bound);
    }
    assert!(faulty.faults_injected() > 0, "faults actually fired");
    assert!(
        run.total_retries() > 0,
        "retries must be metered into the records"
    );
    let csv = report::to_csv(std::slice::from_ref(&run));
    assert!(
        csv.lines()
            .next()
            .expect("header")
            .contains("phi=5%_retries"),
        "retries column missing from the report CSV"
    );
    assert!(
        run.records.iter().any(|r| r.io.retries > 0),
        "per-query retries visible in the CSV rows"
    );
    println!(
        "remote gate (faults): {} faults injected, {} retries metered, answers identical",
        faulty.faults_injected(),
        run.total_retries()
    );
}

/// A zipf-skewed re-exploration workload: `n` queries drawn from `bases`
/// base windows laid out across the domain, revisited with zipf(s = 1.2)
/// popularity via inverse-CDF sampling over a hand-rolled LCG (the
/// workspace carries no RNG dependency). Hot windows recur many times —
/// the analyst returning to the same regions — which is the access pattern
/// the tiered block cache exists for.
fn zipf_workload(domain: &Rect, n: usize, bases: usize, seed: u64) -> Workload {
    let windows: Vec<Rect> = (0..bases)
        .map(|i| {
            let f = i as f64 / bases as f64;
            Workload::centered_window(domain, 0.02)
                .shifted(
                    (f - 0.5) * 0.7 * domain.width(),
                    (0.5 - f) * 0.7 * domain.height(),
                )
                .clamped_into(domain)
        })
        .collect();
    let weights: Vec<f64> = (1..=bases).map(|k| 1.0 / (k as f64).powf(1.2)).collect();
    let total: f64 = weights.iter().sum();
    let cdf: Vec<f64> = weights
        .iter()
        .scan(0.0, |acc, w| {
            *acc += w / total;
            Some(*acc)
        })
        .collect();
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let queries = (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = (state >> 11) as f64 / (1u64 << 53) as f64;
            let k = cdf.iter().position(|&c| u <= c).unwrap_or(bases - 1);
            WindowQuery::new(windows[k], vec![AggregateFunction::Mean(2)])
        })
        .collect();
    Workload::new("zipf-reexploration", queries)
}

/// Cache gate: three exploration sessions (fresh engine + index each) over
/// one shared tiered block cache must stay byte-identical to the uncached
/// run while the transport shrinks — strictly fewer GETs each session, and
/// the hot third session at or below 25 % of the uncached GETs and wire
/// bytes.
fn assert_cache_reexploration_win() {
    let mut setup = small_setup(50_000);
    setup.workload = zipf_workload(&setup.spec.domain, 30, 12, 77);
    let store = serve(&setup, gate_latency(), FaultPlan::Off);
    let open = || HttpFile::open(store.addr(), OBJECT, HttpOptions::default()).expect("open http");

    let zone = cached_zone(&setup.spec);
    let local = run_verified(&zone, &setup, 8, 1);
    let uncached = run_verified(&open(), &setup, 8, 1);
    assert_equivalent("uncached http vs local", &uncached, &local);
    assert_eq!(
        uncached.io.cache_hits + uncached.io.cache_misses,
        0,
        "an uncached run must report zero cache traffic"
    );

    // One shared cache, generous enough to hold the hot set in memory;
    // eviction and spill are gated by the storage tests, not here.
    let cached = CachedFile::with_config(Box::new(open()), CacheConfig::new(64 << 20, 0));
    assert!(cached.is_attached(), "http backend binds the cache");
    let sessions: Vec<Outcome> = (0..3)
        .map(|_| run_verified(&cached, &setup, 8, 1))
        .collect();

    for (i, s) in sessions.iter().enumerate() {
        let label = format!("cached session {} vs uncached", i + 1);
        assert_equivalent(&label, s, &uncached);
        assert_logical_meters_equal(&label, &s.io, &uncached.io);
        assert!(
            s.requests <= uncached.requests && s.wire_bytes <= uncached.wire_bytes,
            "{label}: the cache can only remove transport"
        );
    }
    assert!(
        sessions[1].requests < sessions[0].requests && sessions[2].requests <= sessions[1].requests,
        "warm sessions must issue strictly fewer GETs than the cold one and \
         never regress (a fully warmed cache may already be at zero): {} -> {} -> {}",
        sessions[0].requests,
        sessions[1].requests,
        sessions[2].requests
    );
    let hot = &sessions[2];
    assert!(
        hot.requests * 4 <= uncached.requests,
        "hot session must stay at or below 25% of the uncached GETs: {} vs {}",
        hot.requests,
        uncached.requests
    );
    assert!(
        hot.wire_bytes * 4 <= uncached.wire_bytes,
        "hot session must stay at or below 25% of the uncached wire bytes: {} vs {}",
        hot.wire_bytes,
        uncached.wire_bytes
    );
    assert!(
        hot.io.cache_hits > 0 && sessions[0].io.cache_misses > 0,
        "the cache meters must tell the story"
    );
    println!(
        "remote gate (cache): uncached {} GETs / {} wire bytes, cached sessions \
         {} -> {} -> {} GETs ({} -> {} -> {} wire bytes), hot session at {:.1}% \
         of uncached GETs with {} hits",
        uncached.requests,
        uncached.wire_bytes,
        sessions[0].requests,
        sessions[1].requests,
        sessions[2].requests,
        sessions[0].wire_bytes,
        sessions[1].wire_bytes,
        sessions[2].wire_bytes,
        100.0 * hot.requests as f64 / uncached.requests as f64,
        hot.io.cache_hits
    );
    let mut rows = vec![("uncached".to_string(), uncached)];
    for (i, s) in sessions.into_iter().enumerate() {
        rows.push((format!("cached session={}", i + 1), s));
    }
    write_cache_json(&rows);
}

fn bench_remote(c: &mut Criterion) {
    let mut rows = Vec::new();
    assert_coalescing_and_pushdown_win(&mut rows);
    assert_overlap_win(&mut rows);
    assert_adaptive_sizing_wins(&mut rows);
    assert_fault_recovery_is_metered();
    assert_cache_reexploration_win();
    write_bench_json(&rows);

    // Timing: the pushdown truth scan over HTTP, no injected latency.
    let setup = small_setup(50_000);
    let store = serve(&setup, Duration::ZERO, FaultPlan::Off);
    let zone = cached_zone(&setup.spec);
    let naive = HttpFile::open(store.addr(), OBJECT, HttpOptions::naive()).expect("open");
    let coalesced = HttpFile::open(store.addr(), OBJECT, HttpOptions::default()).expect("open");
    let window = pai_query::Workload::centered_window(&setup.spec.domain, 0.02);

    let mut group = c.benchmark_group("http_truth");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::new("local-zone", "2%"), &window, |b, w| {
        b.iter(|| window_truth(&zone, w, &[2]).expect("truth")[0].selected)
    });
    group.bench_with_input(BenchmarkId::new("http-naive", "2%"), &window, |b, w| {
        b.iter(|| window_truth(&naive, w, &[2]).expect("truth")[0].selected)
    });
    group.bench_with_input(BenchmarkId::new("http-coalesced", "2%"), &window, |b, w| {
        b.iter(|| window_truth(&coalesced, w, &[2]).expect("truth")[0].selected)
    });
    group.finish();
}

criterion_group!(benches, bench_remote);
criterion_main!(benches);
