//! Integration: the full construct → encode → bits → decode pipeline
//! across crates, at sizes beyond the unit tests.

use exclusion::lb::{
    construct, decode, encode, run_pipeline, verify_counting, ConstructConfig, Encoding,
    Permutation,
};
use exclusion::mutex::{AlgorithmInfo, AlgorithmRegistry, Bakery, DekkerTournament};
use exclusion::shmem::{Automaton, DynRef};

#[test]
fn pipeline_dekker_n16() {
    let alg = DekkerTournament::new(16);
    for rank in [0u64, 1 << 20, u64::MAX % exclusion::lb::factorial(16)] {
        let pi = Permutation::unrank(16, rank);
        let report = run_pipeline(&alg, &pi, &ConstructConfig::default(), 3)
            .unwrap_or_else(|e| panic!("rank {rank}: {e}"));
        // 16 processes, 4 levels: canonical shape 4·16·4 = 256 is the
        // floor; the adversarial construction may cost more.
        assert!(report.cost >= 256, "cost {}", report.cost);
        assert!(report.bits >= report.cost, "γ cells are ≥ 1 bit per unit");
    }
}

#[test]
fn pipeline_bakery_n12() {
    let alg = Bakery::new(12);
    let pi = Permutation::reversed(12);
    let report = run_pipeline(&alg, &pi, &ConstructConfig::default(), 3).unwrap();
    // Bakery's doorway scan is quadratic.
    assert!(report.cost >= 12 * 12, "cost {}", report.cost);
}

#[test]
fn whole_suite_pipeline_n8() {
    for r in AlgorithmRegistry::global().instantiate(8, AlgorithmInfo::register_only) {
        let alg = DynRef(r.automaton.as_ref());
        let pi = Permutation::unrank(8, 4321);
        run_pipeline(&alg, &pi, &ConstructConfig::default(), 2)
            .unwrap_or_else(|e| panic!("{}: {e}", alg.name()));
    }
}

#[test]
fn counting_exhaustive_n5_dekker() {
    let alg = DekkerTournament::new(5);
    let report = verify_counting(&alg, &ConstructConfig::default()).unwrap();
    assert_eq!(report.permutations, 120);
    assert!(report.all_distinct);
    assert!(report.holds());
    // The information floor: log2(120) ≈ 6.9 bits.
    assert!(report.min_bits as f64 >= report.log2_nfact);
}

#[test]
fn decode_from_bits_only_across_algorithms() {
    // Serialize the encoding, forget everything but the bytes and the
    // algorithm, and reconstruct α_π.
    for r in AlgorithmRegistry::global().instantiate(6, AlgorithmInfo::register_only) {
        let alg = DynRef(r.automaton.as_ref());
        let pi = Permutation::unrank(6, 599);
        let c = construct(&alg, &pi, &ConstructConfig::default()).unwrap();
        let (bytes, bits) = encode(&c).to_bits();
        let enc = Encoding::from_bits(&bytes, bits, 6).unwrap();
        let alpha = decode(&alg, &enc).unwrap_or_else(|e| panic!("{}: {e}", alg.name()));
        assert!(c.is_linearization(&alpha), "{}", alg.name());
        assert_eq!(alpha.critical_order(), pi.order(), "{}", alg.name());
        assert!(alpha.mutual_exclusion(6), "{}", alg.name());
    }
}

#[test]
fn encodings_injective_across_permutations_and_costs_bounded() {
    use std::collections::HashSet;
    let alg = DekkerTournament::new(4);
    let mut encodings = HashSet::new();
    let mut max_cost = 0;
    for pi in Permutation::all(4) {
        let c = construct(&alg, &pi, &ConstructConfig::default()).unwrap();
        max_cost = max_cost.max(c.cost());
        assert!(encodings.insert(encode(&c).to_bits()), "collision at {pi}");
    }
    assert_eq!(encodings.len(), 24);
    // Theorem 7.5 numerically: max cost ≥ log2(4!)/κ with κ ≤ 8.
    assert!((max_cost * 8) as f64 >= exclusion::lb::log2_factorial(4));
}
