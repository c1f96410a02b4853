//! Criterion: canonical sequential executions and their SC pricing
//! (E6/E7's engine).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use exclusion_cost::sc_cost;
use exclusion_mutex::{AlgorithmInfo, AlgorithmRegistry};
use exclusion_shmem::sched::run_sequential;
use exclusion_shmem::{DynRef, ProcessId};
use std::hint::black_box;

fn bench_canonical(c: &mut Criterion) {
    let mut group = c.benchmark_group("canonical-run");
    group.sample_size(20);
    for n in [8usize, 32] {
        for r in AlgorithmRegistry::global().instantiate(n, AlgorithmInfo::register_only) {
            if r.label == "filter" && n > 8 {
                continue;
            }
            let alg = DynRef(r.automaton.as_ref());
            let order: Vec<_> = ProcessId::all(n).collect();
            group.bench_with_input(BenchmarkId::new(&r.label, n), &alg, |b, alg| {
                b.iter(|| {
                    let exec = run_sequential(alg, black_box(&order), 10_000_000).expect("run");
                    black_box(exec.len())
                });
            });
        }
    }
    group.finish();

    let mut group = c.benchmark_group("sc-cost");
    group.sample_size(20);
    let n = 32;
    let alg = exclusion_mutex::DekkerTournament::new(n);
    let order: Vec<_> = ProcessId::all(n).collect();
    let exec = run_sequential(&alg, &order, 10_000_000).expect("run");
    group.bench_function("dekker-32", |b| {
        b.iter(|| black_box(sc_cost(&alg, black_box(&exec)).expect("replay").total()));
    });
    group.finish();
}

criterion_group!(benches, bench_canonical);
criterion_main!(benches);
