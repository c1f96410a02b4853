//! Criterion: speed of the construction step (E1's engine) across
//! algorithms and sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use exclusion_lb::{construct, ConstructConfig, Permutation};
use exclusion_mutex::{AlgorithmInfo, AlgorithmRegistry};
use exclusion_shmem::DynRef;
use std::hint::black_box;

fn bench_construct(c: &mut Criterion) {
    let mut group = c.benchmark_group("construct");
    group.sample_size(20);
    for n in [4usize, 8, 16] {
        for r in AlgorithmRegistry::global().instantiate(n, AlgorithmInfo::register_only) {
            if r.label == "filter" && n > 8 {
                continue; // cubic-cost baseline: keep the bench fast
            }
            let alg = DynRef(r.automaton.as_ref());
            let pi = Permutation::reversed(n);
            group.bench_with_input(
                BenchmarkId::new(&r.label, n),
                &(alg, pi),
                |b, (alg, pi)| {
                    b.iter(|| {
                        let c = construct(alg, black_box(pi), &ConstructConfig::default())
                            .expect("construct");
                        black_box(c.cost())
                    });
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_construct);
criterion_main!(benches);
