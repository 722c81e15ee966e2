//! E4/E7 — pointer-table microbenches: resolution scaling with live-entry
//! count, allocation under both Vptr policies, and compaction cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dmi_core::{ElemType, PointerTable, VptrPolicy};

fn table_ops(c: &mut Criterion) {
    // Resolution scaling through the TLB (`resolve`, what the wrapper
    // calls) and without it (`peek`, the bare binary search) — the A/B the
    // TLB is judged by.
    let mut g = c.benchmark_group("e4_table_resolution");
    for cached in [true, false] {
        for log2_n in [4u32, 8, 12, 14] {
            let n = 1u32 << log2_n;
            let mut t = PointerTable::new(u32::MAX, VptrPolicy::PaperMonotonic);
            let vptrs: Vec<u32> = (0..n).map(|_| t.alloc(4, ElemType::U32).unwrap()).collect();
            let label = if cached { "entries" } else { "entries_uncached" };
            g.bench_with_input(BenchmarkId::new(label, n), &n, |b, &n| {
                let mut i = 0u32;
                b.iter(|| {
                    let v = vptrs[(i % n) as usize] + (i % 16);
                    i = i.wrapping_add(1);
                    if cached {
                        t.resolve(v)
                    } else {
                        t.peek(v)
                    }
                });
            });
        }
    }
    g.finish();

    let mut g = c.benchmark_group("e7_alloc_free_policies");
    for (name, policy) in [
        ("monotonic", VptrPolicy::PaperMonotonic),
        ("first_fit", VptrPolicy::FirstFitReuse),
    ] {
        g.bench_function(name, |b| {
            let mut t = PointerTable::new(1 << 24, policy);
            // Standing population so placement has to search.
            let keep: Vec<u32> = (0..256)
                .map(|_| t.alloc(16, ElemType::U32).unwrap())
                .collect();
            std::hint::black_box(&keep);
            b.iter(|| {
                let v = t.alloc(16, ElemType::U32).unwrap();
                t.free(v, 0).unwrap();
            });
        });
    }
    g.finish();
}

criterion_group!(benches, table_ops);
criterion_main!(benches);
