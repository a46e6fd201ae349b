//! Criterion micro-benchmarks of page-table lookup: gang walk (§5.1)
//! vs per-page vertical walks, on the real page table.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use memif_hwsim::PhysAddr;
use memif_mm::{PageSize, PageTable, Pte, VirtAddr};

fn build_table(pages: u32) -> (PageTable, VirtAddr) {
    let mut t = PageTable::new();
    let base = VirtAddr::new(0x4000_0000);
    for i in 0..u64::from(pages) {
        t.map(
            base.offset(i * 4096),
            Pte::mapping(PhysAddr::new(0x8_0000_0000 + i * 4096), PageSize::Small4K),
        )
        .unwrap();
    }
    (t, base)
}

fn bench_lookup(c: &mut Criterion) {
    let mut g = c.benchmark_group("page_lookup");
    for pages in [16u32, 64, 256, 512] {
        let (table, base) = build_table(pages);
        g.throughput(Throughput::Elements(u64::from(pages)));
        g.bench_with_input(BenchmarkId::new("gang", pages), &pages, |b, &n| {
            b.iter(|| {
                let (entries, stats) = table.lookup_range(base, n, PageSize::Small4K, true);
                assert_eq!(
                    stats.vertical as u64 + stats.horizontal as u64,
                    u64::from(n)
                );
                entries.len()
            });
        });
        g.bench_with_input(BenchmarkId::new("per_page", pages), &pages, |b, &n| {
            b.iter(|| {
                let (entries, _) = table.lookup_range(base, n, PageSize::Small4K, false);
                entries.len()
            });
        });
    }
    g.finish();
}

fn bench_pte_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("pte_ops");
    g.bench_function("compare_exchange_success", |b| {
        let (mut table, base) = build_table(1);
        let young = Pte::mapping(PhysAddr::new(0x8_0000_0000), PageSize::Small4K);
        let done = young.with_young(false);
        b.iter(|| {
            table.compare_exchange(base, young, done).unwrap();
            table.replace(base, young).unwrap();
        });
    });
    g.bench_function("map_unmap", |b| {
        let mut table = PageTable::new();
        let va = VirtAddr::new(0x10_0000);
        let pte = Pte::mapping(PhysAddr::new(0x8_0000_0000), PageSize::Small4K);
        b.iter(|| {
            table.map(va, pte).unwrap();
            table.unmap(va, PageSize::Small4K).unwrap()
        });
    });
    g.finish();
}

criterion_group!(benches, bench_lookup, bench_pte_ops);
criterion_main!(benches);
