//! Register-only mutual exclusion algorithms as deterministic automata
//! over the [`exclusion_shmem`] model.
//!
//! The suite spans the cost spectrum the paper's related-work section
//! surveys:
//!
//! | Algorithm | Canonical SC cost | Notes |
//! |---|---|---|
//! | [`DekkerTournament`] | Θ(n log n) | local-spin tournament; the tight upper bound (see [`stale_tournament`]) |
//! | [`Peterson`] | Θ(n log n) | tournament; remote spins under contention |
//! | [`Dijkstra`] | Θ(n²) | the original 1965 algorithm |
//! | [`BurnsLynch`] | Θ(n²) | one shared bit per process (space-optimal) |
//! | [`Bakery`] | Θ(n²) | Lamport's first-come-first-served lock |
//! | [`Filter`] | Θ(n³) | level-based generalization of Peterson |
//! | [`Splitter`] | unbounded | two registers total; fully symmetric under process permutation (the orbit-reduction showcase) |
//!
//! The [`rmw`] module adds locks built on read-modify-write primitives
//! (TAS, TTAS, MCS) — outside the paper's register-only
//! model, but priced by the same cost models for comparison; the
//! lower-bound construction rejects them with a diagnostic. The
//! [`queue`] module re-derives the three queue locks as *composable*
//! [`queue::Queue`]/[`queue::Signal`]/[`queue::Handoff`] modules over a
//! shared phase machine — registered as `mcs`, `clh`, `ticket` — and
//! is the formal side of the hardware differential harness
//! (`exclusion_workload::hwbench`).
//!
//! The [`recover`] module adds *crash-recoverable* locks for the
//! fault-injection model ([`exclusion_shmem::fault`]): [`RPeterson`]
//! (tournament with a Golab–Ramaraju-style healing pass), [`RTas`]
//! (CAS lock whose register records the owner), and the deliberately
//! broken [`BrokenRecover`] whose recovery leaks other processes'
//! critical sections — the planted bug crash-aware certification must
//! catch.
//!
//! Every algorithm is exhaustively model-checked for small `n` by the
//! `exclusion-explore` explorer (the workspace's `tests/mutex_properties.rs`
//! and `tests/safety_conformance.rs`); the deliberately broken locks in
//! [`broken`] and the subtly racy [`stale_tournament`] reconstruction
//! verify that the explorer is actually capable of rejecting bad
//! protocols.
//!
//! # Example
//!
//! ```
//! use exclusion_mutex::DekkerTournament;
//! use exclusion_shmem::sched::run_sequential;
//! use exclusion_shmem::ProcessId;
//!
//! // The canonical execution of the paper: n processes, each entering
//! // the critical section exactly once, here in identity order.
//! let alg = DekkerTournament::new(8);
//! let order: Vec<_> = ProcessId::all(8).collect();
//! let exec = run_sequential(&alg, &order, 100_000)?;
//! assert!(exec.is_canonical(8));
//! # Ok::<(), exclusion_shmem::RunError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bakery;
pub mod broken;
pub mod burns_lynch;
pub mod dekker;
pub mod dijkstra;
pub mod filter;
pub mod peterson;
pub mod queue;
pub mod recover;
pub mod registry;
pub mod rmw;
pub mod splitter;
pub mod stale_tournament;
pub mod tree;

pub use bakery::Bakery;
pub use burns_lynch::BurnsLynch;
pub use dekker::DekkerTournament;
pub use dijkstra::Dijkstra;
pub use filter::Filter;
pub use peterson::Peterson;
pub use queue::{Clh, Mcs, QueueLock, Ticket};
pub use recover::{BrokenRecover, RPeterson, RTas};
pub use registry::{
    AlgorithmEntry, AlgorithmInfo, AlgorithmRegistry, DynAlgorithm, ResolvedAlgorithm,
};
pub use rmw::{McsSim, TasSim, TtasSim};
pub use splitter::Splitter;
