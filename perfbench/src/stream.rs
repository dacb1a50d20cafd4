//! Seeded input streams. Everything the program receives — windows, φ
//! values, ingest rows — is generated here from the run seed, so one seed
//! gives byte-identical streams and another seed changes them.

use pai_common::geometry::{Point2, Rect};
use pai_common::AggregateFunction;
use pai_query::Workload;
use pai_storage::{DatasetSpec, PointDistribution};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Fraction of the domain area one exploration window covers (Figure 2).
pub const WINDOW: f64 = 0.02;

/// φ per explore-local session, rotating: 5 %, 1 %, exact.
pub const PHIS: [f64; 3] = [0.05, 0.01, 0.0];
/// φ per explore-remote session, rotating. Exact answers over 500 µs round
/// trips cost ~150 ms per query, which would leave too few sessions per run.
pub const REMOTE_PHIS: [f64; 3] = [0.10, 0.05, 0.02];

/// The aggregates every query asks for.
pub fn aggs() -> Vec<AggregateFunction> {
    vec![AggregateFunction::Count, AggregateFunction::Mean(2)]
}

/// SplitMix64 over `(seed, stream, i)`: independent sub-seeds per session,
/// segment and stream kind.
pub fn subseed(seed: u64, stream: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over the bits of `values`: a fingerprint of a run's inputs, so
/// two runs can show they received byte-identical streams.
pub fn fingerprint(values: impl IntoIterator<Item = f64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// The four coordinates of each window, for [`fingerprint`].
pub fn coords(windows: &[Rect]) -> impl Iterator<Item = f64> + '_ {
    windows
        .iter()
        .flat_map(|w| [w.x_min, w.x_max, w.y_min, w.y_max])
}

fn windows(w: Workload) -> Vec<Rect> {
    w.queries.into_iter().map(|q| q.window).collect()
}

/// A Figure 2 pan of `n` windows starting at a uniformly placed window.
fn pan_from_random(domain: &Rect, n: usize, rng: &mut StdRng) -> Vec<Rect> {
    let start = Workload::random_jumps(domain, 1, WINDOW, aggs(), rng.gen()).queries[0].window;
    windows(Workload::shifted_sequence(
        domain,
        start,
        n,
        aggs(),
        rng.gen(),
    ))
}

/// `n` zoom steps (factor 0.75) into a random square region covering 9 % of
/// the domain.
fn zoom_into_random(domain: &Rect, n: usize, rng: &mut StdRng) -> Vec<Rect> {
    let region = Workload::random_jumps(domain, 1, 0.09, aggs(), rng.gen()).queries[0].window;
    windows(Workload::zoom_sequence(&region, n, 0.75, aggs()))
}

/// An explore-local session: the opening view `home` if any, then cycles
/// of a 24-step pan, a 6-step zoom and 8 random jumps, truncated to `n`
/// windows.
pub fn local_session(domain: &Rect, home: Option<Rect>, seed: u64, n: usize) -> Vec<Rect> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out: Vec<Rect> = home.into_iter().collect();
    while out.len() < n {
        out.extend(pan_from_random(domain, 24, &mut rng));
        out.extend(zoom_into_random(domain, 6, &mut rng));
        out.extend(windows(Workload::random_jumps(
            domain,
            8,
            WINDOW,
            aggs(),
            rng.gen(),
        )));
    }
    out.truncate(n);
    out
}

/// The home view every session opens at: a 2 % window centered on the
/// densest cell of the density grid. A cold session's first query then does
/// the same work whatever the seed, so `first_answer_ms` compares like with
/// like; the seed drives everything after it.
pub fn home_view(domain: &Rect, density: &[u64]) -> Rect {
    let spot = hot_spots(domain, density, 1)[0];
    let proto = Workload::centered_window(domain, WINDOW);
    proto
        .shifted(spot.x - proto.center().x, spot.y - proto.center().y)
        .clamped_into(domain)
}

/// The dataset's hot spots: centers of the densest cells of a 16×16 grid,
/// densest first, at most `k`, no two in adjacent cells.
pub fn hot_spots(domain: &Rect, density: &[u64], k: usize) -> Vec<Point2> {
    let n = (density.len() as f64).sqrt() as usize;
    let mut order: Vec<usize> = (0..density.len()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(density[i]), i));
    let mut picked: Vec<usize> = Vec::new();
    for i in order {
        let (x, y) = ((i % n) as i64, (i / n) as i64);
        let near = picked.iter().any(|&p| {
            let (px, py) = ((p % n) as i64, (p / n) as i64);
            (px - x).abs() <= 1 && (py - y).abs() <= 1
        });
        if !near {
            picked.push(i);
        }
        if picked.len() == k {
            break;
        }
    }
    let (cw, ch) = (domain.width() / n as f64, domain.height() / n as f64);
    picked
        .into_iter()
        .map(|i| {
            Point2::new(
                domain.x_min + ((i % n) as f64 + 0.5) * cw,
                domain.y_min + ((i / n) as f64 + 0.5) * ch,
            )
        })
        .collect()
}

/// `draws` hot-spot ranks in zipf(s = 1.2) proportions over `k` ranks
/// (largest-remainder rounding), in seeded order. A fixed multiset instead
/// of independent draws: every session visits the same spots as often, so
/// seeds change the order, jitter and pans but not how popular a spot is.
fn zipf_schedule(k: usize, draws: usize, rng: &mut StdRng) -> Vec<usize> {
    let weights: Vec<f64> = (1..=k).map(|r| 1.0 / (r as f64).powf(1.2)).collect();
    let total: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| w / total * draws as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..k).collect();
    by_remainder
        .sort_by(|&a, &b| (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor())));
    let short = draws - counts.iter().sum::<usize>();
    for &r in by_remainder.iter().take(short) {
        counts[r] += 1;
    }
    let mut out: Vec<usize> = counts
        .iter()
        .enumerate()
        .flat_map(|(r, &c)| std::iter::repeat_n(r, c))
        .collect();
    for i in (1..out.len()).rev() {
        out.swap(i, rng.gen_range(0..=i));
    }
    out
}

/// Steps of one explore-remote pan, the jump included.
const REMOTE_PAN: usize = 24;

/// An explore-remote session: the opening view `home`, then cycles of a
/// jump to a zipf-popular hot spot (jittered by up to a quarter window)
/// followed by a 23-step pan from there, truncated to `n` windows. Popular
/// spots recur within and across sessions.
pub fn remote_session(
    domain: &Rect,
    home: Rect,
    spots: &[Point2],
    seed: u64,
    n: usize,
) -> Vec<Rect> {
    let mut rng = StdRng::seed_from_u64(seed);
    let proto = Workload::centered_window(domain, WINDOW);
    let cycles = (n.saturating_sub(1)).div_ceil(REMOTE_PAN);
    let mut out = vec![home];
    for rank in zipf_schedule(spots.len(), cycles, &mut rng) {
        let c = spots[rank];
        let jx = rng.gen_range(-0.25..=0.25) * proto.width();
        let jy = rng.gen_range(-0.25..=0.25) * proto.height();
        let start = proto
            .shifted(c.x - proto.center().x + jx, c.y - proto.center().y + jy)
            .clamped_into(domain);
        out.extend(windows(Workload::shifted_sequence(
            domain,
            start,
            REMOTE_PAN,
            aggs(),
            rng.gen(),
        )));
    }
    out.truncate(n);
    out
}

/// `batches` ingest batches of `rows` rows scattered uniformly over the
/// domain, from the repository's dataset generator.
pub fn ingest_batches(
    base: &DatasetSpec,
    seed: u64,
    batches: usize,
    rows: usize,
) -> Vec<Vec<Vec<f64>>> {
    let spec = DatasetSpec {
        rows: (batches * rows) as u64,
        distribution: PointDistribution::Uniform,
        seed,
        order: pai_storage::RowOrder::Generated,
        ..base.clone()
    };
    let all: Vec<Vec<f64>> = spec.rows_iter().collect();
    all.chunks(rows).map(|c| c.to_vec()).collect()
}
