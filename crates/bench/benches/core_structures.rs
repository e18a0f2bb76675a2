//! Criterion micro-benchmarks for PapyrusKV's core data structures — the
//! real-time performance-regression harness complementing the virtual-time
//! figure binaries.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use papyruskv::bloom::Bloom;
use papyruskv::lru::{CacheEntry, LruCache};
use papyruskv::memtable::{Entry, MemTable};

fn keys(n: usize) -> Vec<Vec<u8>> {
    (0..n).map(|i| format!("key-{:08x}", i.wrapping_mul(2654435761)).into_bytes()).collect()
}

fn bench_memtable(c: &mut Criterion) {
    let ks = keys(5_000);
    c.bench_function("memtable/insert-freeze-5k", |b| {
        b.iter(|| {
            let mut m = MemTable::new();
            for k in &ks {
                m.insert(k, Entry::value(bytes::Bytes::from_static(b"value")));
            }
            black_box(m.freeze().len())
        });
    });
}

fn bench_bloom(c: &mut Criterion) {
    let ks = keys(10_000);
    let mut bloom = Bloom::with_capacity(10_000, 10);
    for k in &ks {
        bloom.insert(k);
    }
    c.bench_function("bloom/lookup-10k", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for k in &ks {
                hits += usize::from(bloom.maybe_contains(black_box(k)));
            }
            black_box(hits)
        });
    });
}

fn bench_lru(c: &mut Criterion) {
    let ks = keys(2_000);
    c.bench_function("lru/churn-2k", |b| {
        b.iter(|| {
            let mut cache = LruCache::new(64 << 10);
            for k in &ks {
                cache.insert(k, CacheEntry::value(bytes::Bytes::from_static(b"0123456789")));
                let _ = cache.get(k);
            }
            black_box(cache.len())
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_memtable, bench_bloom, bench_lru
}
criterion_main!(benches);
