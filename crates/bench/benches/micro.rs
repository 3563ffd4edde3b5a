//! Microbenchmarks of the simulator's hot structures: the set-associative
//! TLB, the cuckoo filter, the reuse-distance tracker, the event queue,
//! the 4-level page table and the workload generators.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mgpu_types::{Asid, Cycle, PageSize, PhysPage, TranslationKey, VirtPage};

fn key(v: u64) -> TranslationKey {
    TranslationKey::new(Asid(0), VirtPage(v))
}

/// An LRU TLB with every way of every set occupied, plus the next key
/// that was never inserted.
fn full_tlb(entries: usize, ways: usize) -> (tlb::Tlb, u64) {
    use tlb::{ReplacementPolicy, Tlb, TlbConfig, TlbEntry};
    let mut t = Tlb::new(TlbConfig::new(entries, ways, ReplacementPolicy::Lru));
    let mut v = 0u64;
    while t.len() < t.capacity() {
        t.insert(key(v), TlbEntry::new(PhysPage(v)));
        v += 1;
    }
    (t, v)
}

fn tlb_ops(c: &mut Criterion) {
    use tlb::{ReplacementPolicy, Tlb, TlbConfig, TlbEntry};
    let mut group = c.benchmark_group("tlb");
    // Each TLB is built outside its timed closure: the harness calls the
    // closure once per sample, so state built inside it would be rebuilt
    // (and re-warmed) for every few hundred timed calls.
    //
    // The per-CU L1 geometry: 16 entries, fully associative.
    let mut l1 = Tlb::new(TlbConfig::fully_associative(16, ReplacementPolicy::Lru));
    for v in 0..16 {
        l1.insert(key(v), TlbEntry::new(PhysPage(v)));
    }
    let mut v = 0u64;
    group.bench_function("lookup_hit_16fa", |b| {
        b.iter(|| {
            v = (v + 5) % 16;
            black_box(l1.lookup(key(v)))
        });
    });
    // The L2 geometry: 512 entries, 16-way.
    let (mut l2, _) = full_tlb(512, 16);
    let mut v = 0u64;
    group.bench_function("lookup_hit_512x16", |b| {
        b.iter(|| {
            v = (v + 17) % 512;
            black_box(l2.lookup(key(v)))
        });
    });
    let mut v = 1 << 20;
    group.bench_function("insert_evict_512x16", |b| {
        b.iter(|| {
            v += 1;
            black_box(l2.insert(key(v), TlbEntry::new(PhysPage(v))))
        });
    });
    // The IOMMU geometry with full sets: a miss scans all 64 ways, and an
    // insert of a fresh key always evicts.
    let (mut iommu, fresh) = full_tlb(4096, 64);
    let mut v = fresh;
    group.bench_function("lookup_miss_4096x64", |b| {
        b.iter(|| {
            v += 1;
            black_box(iommu.lookup(key(v)))
        });
    });
    group.bench_function("insert_evict_4096x64", |b| {
        b.iter(|| {
            v += 1;
            black_box(iommu.insert(key(v), TlbEntry::new(PhysPage(v))))
        });
    });
    group.finish();
}

fn cuckoo_ops(c: &mut Criterion) {
    use filters::{CuckooConfig, CuckooFilter};
    let mut group = c.benchmark_group("cuckoo");
    group.bench_function("insert_remove_2048x8", |b| {
        let mut f = CuckooFilter::new(CuckooConfig::new(2048, 8));
        let mut v = 0u64;
        b.iter(|| {
            v += 1;
            f.insert(v);
            f.remove(v.saturating_sub(900));
            black_box(f.contains(v / 2))
        });
    });
    group.finish();
}

fn reuse_tracker(c: &mut Criterion) {
    use least_tlb::metrics::ReuseTracker;
    c.bench_function("reuse_tracker_record_32k_keys", |b| {
        let mut t = ReuseTracker::new();
        let mut x = 0x12345u64;
        b.iter(|| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            black_box(t.record(key(x % 32_768)))
        });
    });
}

fn event_queue(c: &mut Criterion) {
    use sim_engine::EventQueue;
    c.bench_function("event_queue_schedule_pop", |b| {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut t = 0u64;
        b.iter(|| {
            t += 1;
            q.schedule(Cycle(t + 500), t);
            q.schedule(Cycle(t + 10), t);
            black_box(q.pop())
        });
    });
}

fn page_table(c: &mut Criterion) {
    use pagetable::PageTable;
    c.bench_function("page_table_translate_4level", |b| {
        let mut pt = PageTable::new();
        for v in 0..10_000u64 {
            pt.map(VirtPage(v * 7), PhysPage(v), PageSize::Size4K)
                .unwrap();
        }
        let mut v = 0u64;
        b.iter(|| {
            v = (v + 13) % 10_000;
            black_box(pt.translate(VirtPage(v * 7)))
        });
    });
}

fn workload_gen(c: &mut Criterion) {
    use workloads::{AppKind, AppWorkload, Scale};
    let mut group = c.benchmark_group("workload_next_op");
    for kind in [AppKind::St, AppKind::Mt, AppKind::Pr, AppKind::Aes] {
        group.bench_function(kind.name(), |b| {
            let mut app = AppWorkload::new(kind, Asid(0), 4, 64, Scale::Paper, 7);
            let mut i = 0usize;
            b.iter(|| {
                i += 1;
                black_box(app.next_op(i % 4, i % 64))
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    tlb_ops,
    cuckoo_ops,
    reuse_tracker,
    event_queue,
    page_table,
    workload_gen
);
criterion_main!(benches);
