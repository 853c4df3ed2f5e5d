//! Criterion benches for the statistical-query engine.

use criterion::{criterion_group, criterion_main, Criterion};
use singling_out_core::game::DataModel;
use so_bench::models::wide_tabular_model;
use so_data::dist::RecordDistribution;
use so_data::rng::seeded_rng;
use so_data::{Dataset, DatasetBuilder, UniformBits, VersionedDataset};
use so_query::{
    count_dataset, count_dataset_scalar, select_dataset, select_dataset_scalar, BoundedNoiseSum,
    CountingEngine, IntRangePredicate, KeyedHashPredicate, Predicate, QueryAuditor, SubsetQuery,
    SubsetSumMechanism,
};

fn bench_subset_queries(c: &mut Criterion) {
    let n = 10_000usize;
    let mut rng = seeded_rng(1);
    let x = UniformBits::new(n).sample(&mut rng);
    let q = SubsetQuery::from_indices(n, &(0..n).step_by(2).collect::<Vec<_>>());
    c.bench_function("subset_sum_true_answer_10k", |b| {
        b.iter(|| q.true_answer(&x));
    });
    let mut mech = BoundedNoiseSum::new(x, 5.0, seeded_rng(2));
    c.bench_function("bounded_noise_answer_10k", |b| {
        b.iter(|| mech.answer(&q));
    });
}

fn bench_predicates(c: &mut Criterion) {
    let d = UniformBits::new(64);
    let mut rng = seeded_rng(3);
    let records = d.sample_n(10_000, &mut rng);
    let p = KeyedHashPredicate::new(7, 100, 0);
    c.bench_function("keyed_hash_predicate_10k_records", |b| {
        b.iter(|| records.iter().filter(|r| p.eval(*r)).count());
    });
}

fn sampled_dataset(n: usize, seed: u64) -> Dataset {
    let model = wide_tabular_model();
    let rows = model.sample_dataset(n, &mut seeded_rng(seed));
    let mut b = DatasetBuilder::from_parts(
        model.sampler().distribution().schema().clone(),
        (**model.sampler().interner()).clone(),
    );
    for r in &rows {
        b.push_row(r.clone());
    }
    b.finish()
}

fn bench_dataset_scan(c: &mut Criterion) {
    let ds = sampled_dataset(50_000, 4);
    let pred = IntRangePredicate {
        col: 1,
        lo: 1_000,
        hi: 20_000,
    };
    c.bench_function("count_dataset_range_50k_rows", |bch| {
        bch.iter(|| count_dataset(&ds, &pred));
    });
}

/// Bitmap column-scan kernels vs the row-at-a-time oracle at n = 100k.
fn bench_bitmap_vs_scalar(c: &mut Criterion) {
    let ds = sampled_dataset(100_000, 5);
    let pred = IntRangePredicate {
        col: 1,
        lo: 1_000,
        hi: 20_000,
    };
    let mut g = c.benchmark_group("count_range_100k");
    g.bench_function("bitmap", |b| b.iter(|| count_dataset(&ds, &pred)));
    g.bench_function("scalar", |b| b.iter(|| count_dataset_scalar(&ds, &pred)));
    g.finish();

    let mut g = c.benchmark_group("select_range_100k");
    g.bench_function("bitmap", |b| b.iter(|| select_dataset(&ds, &pred)));
    g.bench_function("scalar", |b| b.iter(|| select_dataset_scalar(&ds, &pred)));
    g.finish();
}

/// Repeated queries against the engine answer from the cached bitmap — a
/// popcount, no rescan.
fn bench_engine_cached(c: &mut Criterion) {
    let ds = sampled_dataset(100_000, 6);
    let pred = IntRangePredicate {
        col: 1,
        lo: 1_000,
        hi: 20_000,
    };
    // Disable trail retention: the bench loop issues millions of queries.
    let data = VersionedDataset::new(ds);
    let mut engine = CountingEngine::with_auditor(&data, QueryAuditor::without_trail(None));
    engine.count(&pred); // warm the cache
    c.bench_function("counting_engine_cached_100k", |b| {
        b.iter(|| engine.count(&pred));
    });
}

criterion_group!(
    benches,
    bench_subset_queries,
    bench_predicates,
    bench_dataset_scan,
    bench_bitmap_vs_scalar,
    bench_engine_cached
);
criterion_main!(benches);
