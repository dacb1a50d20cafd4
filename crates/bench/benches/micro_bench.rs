//! Micro-benchmarks of the per-query hot path: tile classification,
//! confidence-interval assembly, error-bound computation, and tile scoring.
//! These are the operations the approximate engine runs once (or once per
//! processed tile) for every query, independent of file I/O. Plus the unit
//! cost of a block-cache admit that evicts, which remote reads pay once per
//! missed span when the cache is smaller than the working set.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use pai_bench::small_setup;
use pai_common::geometry::Rect;
use pai_common::{AggregateFunction, IoCounters};
use pai_core::bound::{upper_error_bound, NormalizationMode};
use pai_core::ci::estimate_aggregate;
use pai_core::config::ValueEstimator;
use pai_core::policy::{CandidateView, SelectionPolicy};
use pai_core::state::QueryState;
use pai_index::init::build;
use pai_storage::{BlockCache, CacheConfig, CacheMode};

fn bench_micro(c: &mut Criterion) {
    let setup = small_setup(60_000);
    let file = pai_bench::cached_file(&setup.spec);
    let (index, _) = build(&file, &setup.init).expect("init");
    let window = Rect::new(300.0, 500.0, 300.0, 500.0);

    c.bench_function("classify_window", |b| {
        b.iter(|| std::hint::black_box(index.classify(&window)).selected_total)
    });

    let classification = index.classify(&window);
    c.bench_function("build_query_state", |b| {
        b.iter(|| {
            QueryState::from_classification(&index, &classification, &[2])
                .expect("state")
                .candidates
                .len()
        })
    });

    let state = QueryState::from_classification(&index, &classification, &[2]).unwrap();
    c.bench_function("ci_assembly_sum_mean", |b| {
        b.iter(|| {
            let s = estimate_aggregate(
                &AggregateFunction::Sum(2),
                &state,
                ValueEstimator::Midpoint,
                true,
            );
            let m = estimate_aggregate(
                &AggregateFunction::Mean(2),
                &state,
                ValueEstimator::Midpoint,
                true,
            );
            (s.ci, m.ci)
        })
    });

    c.bench_function("error_bound", |b| {
        b.iter(|| upper_error_bound(100.0, 95.0, 108.0, NormalizationMode::Estimate))
    });

    let views: Vec<CandidateView> = (0..64)
        .map(|i| CandidateView {
            width: (i as f64 * 13.7) % 97.0,
            selected: (i as u64 * 31) % 1000 + 1,
            cost: (i as u64 * 31) % 1000 + 1,
        })
        .collect();
    let policy = SelectionPolicy::ScoreGreedy { alpha: 1.0 };
    c.bench_function("policy_pick_64_candidates", |b| {
        b.iter_batched(
            || views.clone(),
            |v| policy.pick(&v, 0),
            BatchSize::SmallInput,
        )
    });
}

/// One `BlockCache::admit` into a full memory tier, so every admit evicts
/// the least recently used span. The tier is 1/64 of the 2M-row image
/// (1,993,886 bytes, the remote benchmark's budget) filled with 128-byte
/// spans, about 15.6k entries — the shape of query reads on that workload.
fn bench_cache_admit_evict(c: &mut Criterion) {
    const MEM: u64 = 1_993_886;
    const SPAN: u64 = 128;
    let counters = IoCounters::new();
    let cache = BlockCache::new(CacheConfig::new(MEM, 0));
    let obj = cache.object_id("image");
    let span = vec![0u8; SPAN as usize];
    let mut off = 0;
    while cache.mem_used() + SPAN <= MEM {
        cache.admit(obj, off, &span, CacheMode::Admit, &counters);
        off += SPAN;
    }
    let mut group = c.benchmark_group("cache_admit_evict_16k");
    group.sample_size(1000);
    group.bench_function("admit", |b| {
        b.iter(|| {
            cache.admit(obj, off, &span, CacheMode::Admit, &counters);
            off += SPAN;
        })
    });
    group.finish();
    assert!(
        counters.cache_evictions() > 1000,
        "every timed admit evicts"
    );
}

criterion_group!(benches, bench_micro, bench_cache_admit_evict);
criterion_main!(benches);
