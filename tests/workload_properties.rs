//! Integration: cross-suite properties of the scenario engine — every
//! algorithm stays safe under every scheduler, the greedy adversary
//! dominates the baselines it exists to beat, and parallel sweeps are
//! deterministic.

use exclusion::cost::sc_cost;
use exclusion::mutex::{AlgorithmInfo, AlgorithmRegistry, DekkerTournament};
use exclusion::shmem::sched::{
    run_random, run_scheduler, run_sequential, Burst, GreedyAdversary, Random, RoundRobin,
    Sequential, Stagger,
};
use exclusion::shmem::{Automaton, DynRef, ProcessId, Scheduler};
use exclusion::workload::{sweep, Scenario, SchedSpec, SweepOptions, JSON_SCHEMA};
use proptest::prelude::*;

/// One of every scheduler, configured for `n` processes and `passages`
/// passages (the sequential order is repeated so it, too, reaches the
/// target).
fn all_schedulers(n: usize, passages: usize, seed: u64) -> Vec<Box<dyn Scheduler>> {
    let mut order: Vec<ProcessId> = Vec::new();
    for _ in 0..passages {
        order.extend(ProcessId::all(n));
    }
    vec![
        Box::new(Sequential::new(order)),
        Box::new(RoundRobin::new()),
        Box::new(Random::new(seed)),
        Box::new(GreedyAdversary::new()),
        Box::new(Burst::new(n.div_ceil(2), 2 * n)),
        Box::new(Stagger::stride(n, 2 * n)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any suite algorithm, any size, any seed, under *every* scheduler
    /// (the three refactored drivers and the three adversarial ones):
    /// runs terminate, stay well formed, preserve mutual exclusion, and
    /// complete exactly the requested passages.
    #[test]
    fn every_scheduler_preserves_safety_on_every_algorithm(
        n in 2usize..=5,
        alg_idx in 0usize..7,
        seed in any::<u64>(),
        passages in 1usize..=2,
    ) {
        let r = AlgorithmRegistry::global()
            .instantiate(n, AlgorithmInfo::register_only)
            .remove(alg_idx);
        let alg = DynRef(r.automaton.as_ref());
        for mut sched in all_schedulers(n, passages, seed) {
            let exec = run_scheduler(&alg, sched.as_mut(), passages, 50_000_000)
                .map_err(|e| TestCaseError::fail(
                    format!("{} under {}: {e}", alg.name(), sched.name()),
                ))?;
            prop_assert!(exec.well_formed(n), "{} under {}", alg.name(), sched.name());
            prop_assert!(exec.mutual_exclusion(n), "{} under {}", alg.name(), sched.name());
            prop_assert_eq!(
                exec.critical_order().len(),
                n * passages,
                "{} under {}",
                alg.name(),
                sched.name()
            );
        }
    }
}

/// The adversary never extracts *less* SC cost than the canonical
/// (no-contention) sequential run — contention only adds state changes.
#[test]
fn greedy_adversary_never_extracts_less_than_canonical() {
    for n in [2usize, 3, 4, 6, 8] {
        for r in AlgorithmRegistry::global().instantiate(n, AlgorithmInfo::register_only) {
            let alg = DynRef(r.automaton.as_ref());
            let order: Vec<_> = ProcessId::all(n).collect();
            let seq = run_sequential(&alg, &order, 1_000_000).expect("canonical run");
            let seq_sc = sc_cost(&alg, &seq).expect("replay").total();
            let adv = run_scheduler(&alg, &mut GreedyAdversary::new(), 1, 50_000_000)
                .unwrap_or_else(|e| panic!("{} n={n}: {e}", alg.name()));
            let adv_sc = sc_cost(&alg, &adv).expect("replay").total();
            assert!(
                adv_sc >= seq_sc,
                "{} n={n}: adversary {adv_sc} < sequential {seq_sc}",
                alg.name()
            );
        }
    }
}

/// The acceptance bar for the greedy adversary: on the tournament lock
/// at n = 8 it extracts at least as much SC cost as the random fair
/// scheduler manages on any of a 16-seed grid, for 1 and 2 passages.
#[test]
fn greedy_beats_every_random_schedule_on_dekker_n8() {
    let alg = DekkerTournament::new(8);
    for passages in [1usize, 2] {
        let adv = run_scheduler(&alg, &mut GreedyAdversary::new(), passages, 50_000_000)
            .expect("adversary run");
        let adv_sc = sc_cost(&alg, &adv).expect("replay").total();
        for seed in 0..16u64 {
            let rnd = run_random(&alg, passages, 50_000_000, seed).expect("random run");
            let rnd_sc = sc_cost(&alg, &rnd).expect("replay").total();
            assert!(
                adv_sc >= rnd_sc,
                "passages={passages} seed={seed}: adversary {adv_sc} < random {rnd_sc}"
            );
        }
    }
}

/// A sharded sweep is a pure function of its scenario grid: thread
/// count changes nothing, and the JSON report carries the schema tag.
#[test]
fn sweeps_are_deterministic_and_reportable() {
    let scenarios: Vec<Scenario> = ["dekker-tree", "burns-lynch"]
        .into_iter()
        .flat_map(|alg| {
            [
                SchedSpec::greedy(),
                SchedSpec::random(),
                SchedSpec::stagger(8),
            ]
            .into_iter()
            .map(move |sched| {
                Scenario::builder(alg, 4)
                    .passages(2)
                    .sched(sched)
                    .seeds(1..=4)
                    .build()
                    .expect("valid")
            })
        })
        .collect();
    let opts = |threads| SweepOptions {
        threads,
        ..SweepOptions::default()
    };
    let serial = sweep(&scenarios, &opts(1));
    let sharded = sweep(&scenarios, &opts(4));
    assert_eq!(serial, sharded);
    assert_eq!(serial.to_json(), sharded.to_json());
    assert!(serial.to_json().contains(JSON_SCHEMA));
    assert_eq!(
        serial.to_csv().lines().count(),
        serial.records.len() + 1,
        "CSV: header plus one line per record"
    );
    // 2 algorithms × (greedy 1 + random 4 + stagger 4) runs.
    assert_eq!(serial.records.len(), 18);
    assert!(serial.records.iter().all(|r| r.error.is_none()));
}
