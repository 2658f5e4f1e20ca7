//! Soft-state store churn: insert / expire / re-insert cycles over the
//! seq-addressed shared-row layout.
//!
//! Exercises the paths the `engine_fixpoint` joins do not: TTL expiry in
//! global seq order, lazy seq-list compaction under heavy removal, and
//! index maintenance across generations of the same keys.  The `repro`
//! binary records the same workload into `BENCH_engine.json` so the cost of
//! churn is part of the cross-PR perf trajectory.

use criterion::{criterion_group, criterion_main, Criterion};
use pasn_bench::store_churn_cycle;

fn store_churn(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_churn");
    group.sample_size(10);

    group.bench_function("insert_expire_reinsert_10k", |b| {
        b.iter(|| store_churn_cycle(10_000).total_tuples())
    });
    group.bench_function("scan_ordered_after_churn_10k", |b| {
        let store = store_churn_cycle(10_000);
        let flow = store.pred_id("flow").expect("the cycle populated `flow`");
        b.iter(|| store.scan_ordered_rows(flow).count())
    });
    group.finish();
}

criterion_group!(benches, store_churn);
criterion_main!(benches);
