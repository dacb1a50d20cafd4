//! The repository benchmark: one named workload from a seed, every
//! end-to-end metric by name with its unit, a correctness audit, and
//! (with `--trace 1`) a traced pass reporting per-crate metrics.
//!
//! ```text
//! perfbench --workload <explore-local|explore-remote|serve-ingest>
//!           --seed <n> --seconds <s> --trace <0|1>
//!           [--data-dir .bench_data] [--out-dir .bench_out] [--rustc <version>]
//! perfbench --prepare [--data-dir .bench_data]
//! ```
//!
//! The last line of standard output is the JSON result; see `README.md`.

mod explore;
mod oracle;
mod report;
mod serve;
mod stream;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use pai_common::{AggregateValue, IoSnapshot, Result};
use pai_core::ApproxResult;
use pai_storage::{DatasetSpec, FaultPlan, ObjectStore, RawFile, ZoneFile};

use crate::oracle::OracleFile;
use crate::report::{peak_rss_mib, Metrics};
use crate::trace::Tracer;

/// Rows of the benchmark image (`pai_bench::default_spec`, ~122 MiB as
/// PaiZone).
const ROWS: u64 = 2_000_000;
/// Seed of the image itself; the run seed drives only the streams.
const DATA_SEED: u64 = 42;
/// Fetch workers (engine and HTTP client) — one per core of the 2-core
/// reference machine.
pub const FETCH_WORKERS: usize = 2;
/// Every run holds at least this many queries, so p99 has ten samples
/// beyond it.
pub const MIN_QUERIES: usize = 1000;
/// Injected per-GET latency of the remote leg (the floor the repository's
/// remote gates use).
const GET_LATENCY_US: u64 = 500;

/// Printed in this order with `--trace 0`.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("first_answer_ms", "ms"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("queries_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Printed in this order with `--trace 1`.
const PER_LAYER: [(&str, &str); 47] = [
    ("storage.read_calls", "count/q"),
    ("storage.read_us", "us/q"),
    ("storage.read_ns_per_row", "ns"),
    ("storage.objects_read", "count/q"),
    ("storage.bytes_read", "B/q"),
    ("storage.blocks_read", "count/q"),
    ("storage.blocks_skipped", "count/q"),
    ("storage.skip_ratio", "ratio"),
    ("storage.scan_us", "us"),
    ("storage.http_requests", "count/q"),
    ("storage.http_bytes", "B/q"),
    ("storage.fetch_wall_us", "us/q"),
    ("storage.overlap_ratio", "ratio"),
    ("storage.retries", "count"),
    ("storage.cache_hits", "count"),
    ("storage.cache_misses", "count"),
    ("storage.cache_hit_ratio", "ratio"),
    ("storage.cache_evictions", "count"),
    ("storage.append_us", "us"),
    ("storage.compact_us", "us"),
    ("storage.delta_blocks", "count"),
    ("storage.blocks_rewritten", "count"),
    ("storage.cache_invalidations", "count"),
    ("index.build_us", "us"),
    ("index.tiles_processed", "count/q"),
    ("index.tiles_split", "count/q"),
    ("index.tiles_enriched", "count/q"),
    ("index.leaf_count", "count"),
    ("index.memory_bytes", "B"),
    ("core.evaluate_us", "us/q"),
    ("core.self_us", "us/q"),
    ("core.zero_io_ratio", "ratio"),
    ("core.synopsis_hit_ratio", "ratio"),
    ("core.lock_wait_us", "us/q"),
    ("core.plan_conflicts", "count"),
    ("core.compactions", "count"),
    ("core.ingest_us", "us"),
    ("server.service_us", "us/q"),
    ("server.wire_us", "us/q"),
    ("server.queue_us", "us/q"),
    ("server.busy_rejections", "count"),
    ("server.errors", "count"),
    ("server.ingest_p50_ms", "ms"),
    ("server.ingest_rows_per_s", "rows/s"),
    ("trace.overhead_pct", "%"),
    ("trace.overhead_p50_ms", "ms"),
    ("trace.spans", "count"),
];

/// Queries per explore session.
const LOCAL_SESSION_QUERIES: usize = 240;
const REMOTE_SESSION_QUERIES: usize = 180;

/// Wall seconds one unit of work takes on the reference machine (2 cores):
/// a round of three explore sessions, or one serve epoch. A run does a
/// fixed amount of work, `--seconds` over this, so every run of one
/// workload and length measures the same number of sessions and queries.
const LOCAL_ROUND_S: f64 = 5.0;
const REMOTE_ROUND_S: f64 = 21.0;
const SERVE_EPOCH_S: f64 = 1.6;

/// Units of work for a run of `seconds`: at least two, and enough to hold
/// [`MIN_QUERIES`] queries.
fn units(seconds: f64, unit_s: f64, queries_per_unit: usize) -> usize {
    let by_time = (seconds / unit_s).round() as usize;
    by_time.max(2).max(MIN_QUERIES.div_ceil(queries_per_unit))
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Workload {
    ExploreLocal,
    ExploreRemote,
    ServeIngest,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    data_dir: PathBuf,
    out_dir: PathBuf,
    rustc: String,
}

/// What the command line asks for.
enum Command {
    /// Only make sure the image exists, then exit: generation runs in a
    /// process of its own, so it never counts towards a measured run's peak
    /// memory.
    Prepare(PathBuf),
    Run(Args),
}

fn parse_args() -> std::result::Result<Command, String> {
    let mut it = std::env::args().skip(1).peekable();
    let prepare = it.next_if(|a| a == "--prepare").is_some();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut data_dir = PathBuf::from(".bench_data");
    let mut out_dir = PathBuf::from(".bench_out");
    let mut rustc = "unknown".to_string();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "explore-local" => Workload::ExploreLocal,
                    "explore-remote" => Workload::ExploreRemote,
                    "serve-ingest" => Workload::ServeIngest,
                    other => return Err(format!("unknown workload {other}")),
                })
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "bad --seconds")?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--data-dir" => data_dir = value.into(),
            "--out-dir" => out_dir = value.into(),
            "--rustc" => rustc = value,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if prepare {
        return Ok(Command::Prepare(data_dir));
    }
    Ok(Command::Run(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        data_dir,
        out_dir,
        rustc,
    }))
}

/// The benchmark image: generated once per checkout, reused while it opens
/// with the right row count.
fn image(spec: &DatasetSpec, dir: &Path) -> Result<(PathBuf, ZoneFile)> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("default_{}r_{}s.paizone", spec.rows, spec.seed));
    if let Ok(f) = ZoneFile::open(&path) {
        if f.n_rows() == spec.rows {
            return Ok((path, f));
        }
    }
    let tmp = path.with_extension(format!("tmp{}", std::process::id()));
    spec.write_zone(&tmp)?;
    std::fs::rename(&tmp, &path)?;
    let f = ZoneFile::open(&path)?;
    Ok((path, f))
}

/// Row counts of `file` on an `n`×`n` grid over its domain.
fn density(file: &dyn RawFile, spec: &DatasetSpec, n: usize) -> Result<Vec<u64>> {
    let d = spec.domain;
    let mut out = vec![0u64; n * n];
    let cell = |v: f64, lo: f64, hi: f64| (((v - lo) / (hi - lo) * n as f64) as usize).min(n - 1);
    file.scan(&mut |_, _, rec| {
        let (x, y) = (rec.f64(0)?, rec.f64(1)?);
        out[cell(y, d.y_min, d.y_max) * n + cell(x, d.x_min, d.x_max)] += 1;
        Ok(())
    })?;
    Ok(out)
}

/// The meters that repeat exactly for one input stream (timings, peaks and
/// gauges excluded).
pub fn det_io(s: &IoSnapshot) -> Vec<u64> {
    vec![
        s.objects_read,
        s.bytes_read,
        s.seeks,
        s.full_scans,
        s.read_calls,
        s.blocks_read,
        s.blocks_skipped,
        s.http_requests,
        s.http_bytes,
        s.retries,
        s.parts_resized,
        s.cache_hits,
        s.cache_misses,
        s.cache_evictions,
        s.cache_spill_bytes,
        s.synopsis_hits,
        s.synopsis_blocks,
        s.synopsis_bytes,
        s.rows_ingested,
        s.compactions,
        s.blocks_rewritten,
        s.cache_invalidations,
    ]
}

/// An answer as bits: values, CIs, bound and the constraint flag.
pub fn result_bits(r: &ApproxResult) -> Vec<u64> {
    let mut out = Vec::new();
    for v in &r.values {
        out.extend(match v {
            AggregateValue::Count(c) => [0, *c],
            AggregateValue::Float(f) => [1, f.to_bits()],
            AggregateValue::Empty => [2, 0],
        });
    }
    for ci in &r.cis {
        out.extend(ci.map_or([u64::MAX, u64::MAX], |i| {
            [i.lo().to_bits(), i.hi().to_bits()]
        }));
    }
    out.push(r.error_bound.to_bits());
    out.push(u64::from(r.met_constraint));
    out
}

/// Everything a run reports.
struct Outcome {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
    /// Audit violations and traced/untraced mismatches.
    problems: Vec<String>,
    tags: Vec<(String, String)>,
}

fn run_explore(args: &Args, spec: &DatasetSpec, path: &Path, local: &ZoneFile) -> Result<Outcome> {
    let remote = args.workload == Workload::ExploreRemote;
    let mut tags = Vec::new();
    let density = density(local, spec, 16)?;
    let remote_leg = if remote {
        let store = ObjectStore::serve_with(Duration::from_micros(GET_LATENCY_US), FaultPlan::Off)?;
        store.put(explore::OBJECT, std::fs::read(path)?);
        let cache_bytes = local.size_bytes() / 64;
        Some(explore::Remote { store, cache_bytes })
    } else {
        None
    };
    let cache_bytes = remote_leg.as_ref().map_or(0, |r| r.cache_bytes);
    let ex = explore::Explore {
        image: path.to_path_buf(),
        domain: spec.domain,
        seed: args.seed,
        per_session: if remote {
            REMOTE_SESSION_QUERIES
        } else {
            LOCAL_SESSION_QUERIES
        },
        home: stream::home_view(&spec.domain, &density),
        spots: stream::hot_spots(&spec.domain, &density, 8),
        remote: remote_leg,
    };
    let mut metrics = Metrics::default();
    let mut problems = Vec::new();
    let round_s = if remote {
        REMOTE_ROUND_S
    } else {
        LOCAL_ROUND_S
    };
    let per_round = stream::PHIS.len();
    let sessions = per_round * units(args.seconds, round_s, per_round * ex.per_session);
    let pass = ex.run(sessions, None)?;
    pass.times().put(&mut metrics);
    metrics.put(
        "peak_rss_mb",
        peak_rss_mib(),
        "MiB",
        "VmHWM after the timed phase",
    );
    if args.trace {
        let tracer = Tracer::new();
        let traced = ex.run(sessions, Some(&tracer))?;
        problems.extend(
            explore::compare(&pass, &traced)
                .into_iter()
                .map(|d| format!("traced vs untraced: {d}")),
        );
        let spans = tracer.spans();
        explore::layers(&traced, &spans, &mut metrics);
        overhead(
            &mut metrics,
            (pass.wall(), pass.times().p50_ms()),
            (traced.wall(), traced.times().p50_ms()),
        );
        metrics.put("trace.spans", spans.len() as f64, "count", "");
        write_spans(&tracer, args)?;
    }
    let touched: u64 = pass.sessions.iter().map(|s| s.io.bytes_read).sum();
    tags.push(("cache_budget_bytes".into(), cache_bytes.to_string()));
    tags.push(("bytes_touched".into(), touched.to_string()));
    tags.push(("sessions".into(), pass.sessions.len().to_string()));
    tags.push((
        "stream_hash".into(),
        format!("{:016x}", ex.stream_hash(sessions)),
    ));

    let ta = Instant::now();
    let oracle = OracleFile::load(local, spec.domain, 2)?;
    problems.extend(ex.audit(&pass, &oracle)?);
    tags.push((
        "audit_s".into(),
        format!("{:.1}", ta.elapsed().as_secs_f64()),
    ));
    let violations = problems.len() as u64;
    let attempted = pass.query_count() as u64;
    let failed = pass.errors() + violations;
    metrics.put(
        "failed_ratio",
        failed as f64 / attempted as f64,
        "ratio",
        format!("{failed} of {attempted}"),
    );
    Ok(Outcome {
        metrics,
        attempted,
        failed,
        problems,
        tags,
    })
}

/// Traced minus untraced, over identical work.
fn overhead(m: &mut Metrics, untraced: (Duration, f64), traced: (Duration, f64)) {
    m.put(
        "trace.overhead_pct",
        (traced.0.as_secs_f64() / untraced.0.as_secs_f64() - 1.0) * 100.0,
        "%",
        "traced minus untraced wall, same work",
    );
    m.put(
        "trace.overhead_p50_ms",
        traced.1 - untraced.1,
        "ms",
        "traced minus untraced query p50",
    );
}

fn write_spans(tracer: &Tracer, args: &Args) -> Result<()> {
    std::fs::create_dir_all(&args.out_dir)?;
    let name = format!("spans-{:?}-{}.csv", args.workload, args.seed).to_lowercase();
    tracer.write_csv(&args.out_dir.join(name))?;
    Ok(())
}

fn run_serve(args: &Args, spec: &DatasetSpec, path: &Path, local: &ZoneFile) -> Result<Outcome> {
    let sv = serve::Serve {
        image: path.to_path_buf(),
        spec: spec.clone(),
        seed: args.seed,
        home: stream::home_view(&spec.domain, &density(local, spec, 16)?),
    };
    let mut metrics = Metrics::default();
    let mut problems = Vec::new();
    let epochs = units(args.seconds, SERVE_EPOCH_S, serve::EPOCH_QUERIES);
    let pass = sv.run(epochs, None)?;
    pass.times().put(&mut metrics);
    metrics.put(
        "peak_rss_mb",
        peak_rss_mib(),
        "MiB",
        "VmHWM after the timed phase",
    );
    serve::ingest_metrics(&pass, &mut metrics, false);
    if args.trace {
        let tracer = Tracer::new();
        problems.extend(sv.self_check(&tracer)?);
        let tracer = Tracer::new();
        let traced = sv.run(epochs, Some(&tracer))?;
        let spans = tracer.spans();
        serve::layers(&traced, &spans, &mut metrics);
        serve::ingest_metrics(&pass, &mut metrics, true);
        overhead(
            &mut metrics,
            (pass.wall(), pass.times().p50_ms()),
            (traced.wall(), traced.times().p50_ms()),
        );
        metrics.put("trace.spans", spans.len() as f64, "count", "");
        write_spans(&tracer, args)?;
        problems.extend(
            traced
                .epochs
                .iter()
                .filter(|e| e.final_count != e.expected_count)
                .map(|e| {
                    format!(
                        "traced epoch: full count {} != {}",
                        e.final_count, e.expected_count
                    )
                }),
        );
    }
    problems.extend(
        pass.epochs
            .iter()
            .filter(|e| e.final_count != e.expected_count)
            .map(|e| {
                format!(
                    "full-domain count {} != base + acknowledged {}",
                    e.final_count, e.expected_count
                )
            }),
    );
    let attempted = pass.attempted();
    let failed = pass.failed();
    let rows: u64 = pass.epochs.iter().map(|e| e.ingester.rows_acked).sum();
    metrics.put(
        "failed_ratio",
        failed as f64 / attempted as f64,
        "ratio",
        format!("{failed} of {attempted}"),
    );
    Ok(Outcome {
        metrics,
        attempted,
        failed,
        problems,
        tags: vec![
            ("cache_budget_bytes".into(), "0".into()),
            ("rows_ingested".into(), rows.to_string()),
            ("epochs".into(), pass.epochs.len().to_string()),
            (
                "stream_hash".into(),
                format!("{:016x}", sv.stream_hash(epochs)),
            ),
        ],
    })
}

fn run(args: &Args) -> Result<Outcome> {
    let spec = pai_bench::default_spec(ROWS, DATA_SEED);
    let (path, local) = image(&spec, &args.data_dir)?;
    let mut out = match args.workload {
        Workload::ExploreLocal | Workload::ExploreRemote => {
            run_explore(args, &spec, &path, &local)?
        }
        Workload::ServeIngest => run_serve(args, &spec, &path, &local)?,
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let mut tags = vec![
        ("nproc".to_string(), nproc.to_string()),
        ("rustc".into(), args.rustc.clone()),
        ("profile".into(), profile.into()),
        ("dataset_rows".into(), spec.rows.to_string()),
        ("dataset_bytes".into(), local.size_bytes().to_string()),
    ];
    tags.append(&mut out.tags);
    out.tags = tags;
    Ok(out)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Command::Run(a)) => a,
        Ok(Command::Prepare(dir)) => {
            return match image(&pai_bench::default_spec(ROWS, DATA_SEED), &dir) {
                Ok(_) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let t0 = Instant::now();
    let out = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "# perfbench {:?} seed={} trace={}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    for (k, v) in &out.tags {
        println!("# {k}: {v}");
    }
    out.metrics.print();
    for p in &out.problems {
        println!("FAIL {p}");
    }
    println!("# total wall {:.1} s", t0.elapsed().as_secs_f64());
    let keep: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let correct = out.problems.is_empty() && out.failed == 0;
    println!(
        "{}",
        out.metrics
            .result_json(correct, out.attempted, out.failed, keep)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
