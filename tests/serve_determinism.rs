//! Determinism and bounded memory of the open-stream serve engine:
//! reports are a pure function of `(job, options)` — bit-identical
//! across worker counts and repeated runs — and the live structures
//! (in-flight lanes, pending ring) never exceed their configured
//! capacities no matter how long the stream is.

use exclusion::serve::{serve, ServeJob, ServeOptions};
use proptest::prelude::*;

/// Registry algorithms cheap enough for a property grid.
const ALGORITHMS: [&str; 4] = ["peterson", "dekker-tree", "tas-sim", "ticket"];

/// One spec per arrival-model family, parameters picked to exercise
/// idle gaps, saturation, and everything between.
const ARRIVALS: [&str; 4] = [
    "steady:gap=3",
    "poisson:rate=0.3",
    "bursty:size=3,gap=7",
    "diurnal:period=128,peak=1",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The same job served on 1, 2 and 4 workers — and served twice —
    /// yields `==` reports and byte-identical JSON. The stripe is kept
    /// small so every run spans many stripes and the merge order
    /// actually matters.
    #[test]
    fn reports_are_bit_identical_across_workers_and_reruns(
        alg_idx in 0..ALGORITHMS.len(),
        arr_idx in 0..ARRIVALS.len(),
        n in 2usize..5,
        deadline_raw in 0u64..100,
        seed in any::<u64>(),
    ) {
        // Half the cases wait forever; the rest get patience 0..50.
        let deadline = (deadline_raw < 50).then_some(deadline_raw);
        let job = ServeJob::new(ALGORITHMS[alg_idx], n, 3_000)
            .unwrap()
            .arrivals(ARRIVALS[arr_idx])
            .unwrap();
        let opts = |workers| ServeOptions {
            workers,
            stripe: 256,
            deadline,
            seed,
            ..ServeOptions::default()
        };
        let one = serve(&job, &opts(1));
        let two = serve(&job, &opts(2));
        let four = serve(&job, &opts(4));
        let again = serve(&job, &opts(4));
        prop_assert_eq!(&one, &two);
        prop_assert_eq!(&one, &four);
        prop_assert_eq!(&four, &again);
        prop_assert_eq!(one.to_json(), four.to_json());
        // Conservation: every offered request ends somewhere.
        prop_assert_eq!(one.completed + one.abandoned + one.unserved, 3_000);
        prop_assert!(one.errors.is_empty());
    }
}

/// A million requests fit in bounded memory: at most `n` requests are
/// ever in flight and the pending ring never exceeds its capacity —
/// the stream is materialized one arrival at a time, so nothing scales
/// with the request count.
#[test]
fn a_million_requests_stay_within_the_ring_and_lanes() {
    let job = ServeJob::new("tas-sim", 2, 1_000_000)
        .unwrap()
        .arrivals("steady:gap=8")
        .unwrap();
    let opts = ServeOptions {
        ring: 4,
        stripe: 65_536,
        ..ServeOptions::default()
    };
    let report = serve(&job, &opts);
    assert_eq!(report.completed + report.abandoned, 1_000_000);
    assert!(report.errors.is_empty());
    assert!(
        report.peak_in_flight <= 2,
        "peak in-flight {} exceeds the {} lanes",
        report.peak_in_flight,
        2
    );
    assert!(
        report.peak_queue <= 4,
        "peak queue {} exceeds the ring capacity 4",
        report.peak_queue
    );
    // The solo stream is cache-friendly: the fast path must carry
    // almost all of it.
    assert!(report.cache_hits > report.cache_misses);
}
