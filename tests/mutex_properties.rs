//! Integration: safety of the *whole standard registry* under
//! randomized schedules (property-based) and exhaustive exploration,
//! plus the per-lock exhaustive verdicts at deeper passage bounds and
//! larger `n`, and the planted races the explorer must refute.
//!
//! The suites iterate [`AlgorithmRegistry::standard`] rather than a
//! private algorithm list, with the entry count pinned against
//! `fixtures::STANDARD_ALGORITHMS` — registering a new lock without
//! widening these grids is a test failure, not a silent coverage gap.

use exclusion::explore::{explore, ExploreConfig, ExploreReport};
use exclusion::mutex::broken::{BrokenPeterson, RacyBool};
use exclusion::mutex::stale_tournament::StaleTournament;
use exclusion::mutex::AlgorithmRegistry;
use exclusion::shmem::sched::{run_random, run_round_robin};
use exclusion::shmem::testing::{fixtures, Alternator, NoLock};
use exclusion::shmem::{replay, DynAutomaton, DynRef};
use proptest::prelude::*;

/// Canonical names of every standard entry, pinned to the fixture
/// count so index-based proptest strategies cannot silently truncate.
fn standard_names() -> Vec<String> {
    let names: Vec<String> = AlgorithmRegistry::global()
        .entries()
        .map(|e| e.info().name.clone())
        .collect();
    assert_eq!(
        names.len(),
        fixtures::STANDARD_ALGORITHMS,
        "standard registry grew; bump fixtures::STANDARD_ALGORITHMS and the strategies here"
    );
    names
}

/// The entries whose runs must *complete*: everything except the two
/// splitter locks, which honestly declare `deadlock_free: false` (a
/// fair schedule can starve a loser, so a passage target would hang).
/// Their mutual exclusion is still certified exhaustively below.
fn deadlock_free_names() -> Vec<String> {
    let names: Vec<String> = AlgorithmRegistry::global()
        .entries()
        .filter(|e| e.info().deadlock_free)
        .map(|e| e.info().name.clone())
        .collect();
    assert_eq!(names.len(), fixtures::STANDARD_ALGORITHMS - 2);
    names
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any deadlock-free registry entry, any size 1–6, any seed: random
    /// fair schedules preserve mutual exclusion and well-formedness.
    #[test]
    fn random_schedules_preserve_mutual_exclusion(
        n in 1usize..=6,
        alg_idx in 0usize..15,
        seed in any::<u64>(),
        passages in 1usize..=3,
    ) {
        let names = deadlock_free_names();
        prop_assert_eq!(names.len(), 15, "widen alg_idx to match the registry");
        let alg = AlgorithmRegistry::global()
            .resolve_str(&names[alg_idx], n)
            .expect("standard entries resolve")
            .automaton;
        let exec = run_random(&DynRef(alg.as_ref()), passages, fixtures::MAX_STEPS, seed)
            .expect("fair run terminates");
        prop_assert!(exec.well_formed(n));
        prop_assert!(exec.mutual_exclusion(n));
        prop_assert_eq!(exec.critical_order().len(), n * passages);
    }

    /// Round-robin (deterministic fair) schedules likewise.
    #[test]
    fn round_robin_preserves_mutual_exclusion(
        n in 1usize..=6,
        alg_idx in 0usize..15,
        passages in 1usize..=3,
    ) {
        let names = deadlock_free_names();
        prop_assert_eq!(names.len(), 15, "widen alg_idx to match the registry");
        let alg = AlgorithmRegistry::global()
            .resolve_str(&names[alg_idx], n)
            .expect("standard entries resolve")
            .automaton;
        let exec = run_round_robin(&DynRef(alg.as_ref()), passages, fixtures::MAX_STEPS)
            .expect("terminates");
        prop_assert!(exec.mutual_exclusion(n));
    }
}

/// Explores every interleaving of `alg` in which each process performs
/// at most `passages` passages.
fn explore_at(alg: &(dyn DynAutomaton + Sync), passages: usize) -> ExploreReport {
    explore(
        alg,
        &ExploreConfig {
            passages,
            max_states: 50_000_000,
            ..ExploreConfig::default()
        },
    )
}

/// Asserts that the explorer refutes mutual exclusion for `alg` with a
/// witness that replays to two processes in the critical section, and
/// returns the witness length.
fn assert_refuted(alg: &(dyn DynAutomaton + Sync), passages: usize) -> usize {
    let report = explore_at(alg, passages);
    let name = alg.name();
    let cex = report
        .violation
        .unwrap_or_else(|| panic!("{name} x{passages}: the race must be found"));
    assert_ne!(cex.culprits.0, cex.culprits.1, "{name}");
    assert!(!cex.trace.mutual_exclusion(alg.processes()), "{name}");
    let dref = DynRef(alg);
    let sys = replay(&dref, cex.trace.steps(), |_| {}).expect("witness replays");
    assert_eq!(sys.in_critical().count(), 2, "{name} x{passages}");
    cex.trace.len()
}

#[test]
fn exhaustive_model_check_registry_n2() {
    for name in standard_names() {
        let alg = AlgorithmRegistry::global()
            .resolve_str(&name, 2)
            .expect("standard entries resolve")
            .automaton;
        let report = explore_at(alg.as_ref(), 2);
        assert!(
            report.certified_safe(),
            "{name}: {} states, violation: {:?}",
            report.states,
            report.violation
        );
    }
}

#[test]
fn exhaustive_model_check_registry_n3_single_passage() {
    for name in standard_names() {
        let alg = AlgorithmRegistry::global()
            .resolve_str(&name, 3)
            .expect("standard entries resolve")
            .automaton;
        let report = explore_at(alg.as_ref(), 1);
        assert!(report.certified_safe(), "{name}: {} states", report.states);
    }
}

/// Certified safe at (lock, n, passages) points beyond the
/// registry-wide grids above.
#[test]
fn exhaustive_exploration_certifies_deeper_instances() {
    const CASES: &[(&str, usize, usize)] = &[
        ("dekker-tree", 2, 3),
        ("dekker-tree", 3, 2),
        ("dekker-tree", 4, 1),
        ("peterson", 2, 3),
        ("peterson", 4, 1),
        ("burns-lynch", 2, 3),
        ("burns-lynch", 3, 2),
        ("splitter", 3, 2),
        ("splitter-gate", 3, 2),
        ("rpeterson", 2, 3),
        ("rtas", 3, 2),
        // Crash-free, the planted recovery bug never fires.
        ("broken-recover", 3, 2),
    ];
    for &(name, n, passages) in CASES {
        let alg = AlgorithmRegistry::global()
            .resolve_str(name, n)
            .expect("standard entries resolve")
            .automaton;
        let report = explore_at(alg.as_ref(), passages);
        assert!(
            report.certified_safe(),
            "{name} n={n} x{passages}: {} states, violation: {:?}",
            report.states,
            report.violation
        );
    }
}

#[test]
fn exhaustive_exploration_refutes_the_planted_races() {
    assert_refuted(&RacyBool::new(2), 1);
    // The inverted tie-break.
    assert_refuted(&BrokenPeterson, 2);
    // The stale wake-up needs two full passages to set up, so its
    // witness is not a trivial interleaving; one passage each is
    // race-free.
    let stale = StaleTournament::new(2);
    assert!(assert_refuted(&stale, 3) > 30);
    assert_refuted(&stale, 2);
    assert!(explore_at(&stale, 1).certified_safe());
}

/// The reference automata of `shmem::testing`: the alternator is
/// safe, the no-op lock is caught, and a capped budget certifies
/// nothing.
#[test]
fn exhaustive_exploration_of_the_reference_automata() {
    let report = explore_at(&Alternator::new(3), 1);
    assert!(report.certified_safe());
    assert!(report.states > 3);
    assert!(explore_at(&Alternator::new(2), 2).certified_safe());
    assert_refuted(&NoLock::new(3), 1);
    let capped = explore(
        &Alternator::new(4),
        &ExploreConfig {
            max_states: 3,
            ..ExploreConfig::default()
        },
    );
    assert!(capped.truncated);
    assert!(!capped.certified_safe());
}
