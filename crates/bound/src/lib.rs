//! The adaptive lower-bound adversary engine: constructively forcing
//! Ω(n log n) cost at scales exhaustive search cannot reach.
//!
//! The paper's theorem is an *adversary construction*: a scheduler that
//! forces any register-only mutual exclusion algorithm to pay
//! Ω(n log n) state changes. Elsewhere in this workspace that adversary
//! exists in two approximations — sampled schedulers
//! (`exclusion-workload`'s greedy/burst/stagger policies) that
//! lower-bound the optimum heuristically, and `exclusion-explore`'s
//! exhaustive search that is exact but only reaches n ≤ 4. This crate
//! makes the bound itself a runnable artifact in between:
//!
//! * [`AdaptiveAdversary`] — the paper's information-theoretic strategy
//!   as an executable, *adaptive* [`Scheduler`]: it maintains the
//!   awareness partition (which processes are still mutually unaware),
//!   harvests chargeable state changes read-first, reveals information
//!   to the smallest audience, and merges awareness groups balanced —
//!   an encoding-argument strategy, not a fixed schedule. It is fed
//!   observations through the ordinary incremental `ViewTable` views,
//!   so it composes with the streaming pricer `run_priced` unchanged,
//!   and is registered in the scheduler registry as `fanlynch`;
//! * [`fn@force`] — plays the full adversary game for one algorithm
//!   instance (the adaptive strategy plus the greedy baseline it must
//!   dominate) and returns a [`ForcedRun`]: the forced cost per cost
//!   model (SC/CC/DSM) and a replayable [`Script`] witness schedule;
//! * [`force_curve`] — sweeps a grid of `n` (typically the doubling
//!   grid 4..128) and reports a per-model least-squares [`Fit`] against
//!   the paper's `c·n·log₂n` growth law;
//! * [`force_crash`] / [`force_crash_curve`] — the *crash* game: the
//!   same portfolio played through the fault driver under a bounded
//!   crash budget, priced in remote memory references (RMR-CC /
//!   RMR-DSM) — the currency of the recoverable-mutual-exclusion
//!   literature — with budget 0 reproducing the crash-free pipeline's
//!   CC/DSM columns bit-identically.
//!
//! The adversary plays *fair* games: the same starvation valve as the
//! greedy adversary bounds how long any live process is ignored, so
//! runs of livelock-free algorithms terminate — which is also why
//! algorithms whose worst case is unbounded under SC (remote spins,
//! pumpable forever) still produce finite forced costs here.
//!
//! # Example
//!
//! ```
//! use exclusion_bound::{force_curve, BoundConfig, SC};
//! use exclusion_mutex::registry::AlgorithmRegistry;
//!
//! let reg = AlgorithmRegistry::standard();
//! let curve = force_curve(&reg, "dekker-tree", &[4, 8, 16], &BoundConfig::default()).unwrap();
//! // The adversary forces at least as much as the greedy baseline …
//! for cell in &curve.cells {
//!     assert!(cell.forced[SC] >= cell.greedy[SC]);
//! }
//! // … and the curve fits c·n·log₂n with a positive coefficient.
//! assert!(curve.fits[SC].c > 0.0);
//! ```
//!
//! [`Scheduler`]: exclusion_shmem::Scheduler
//! [`Script`]: exclusion_shmem::sched::Script

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
#[cfg(test)]
mod equivalence;
pub mod fit;
pub mod force;

pub use adversary::AdaptiveAdversary;
pub use fit::{doubling_grid, fit_nlogn, nlogn, Fit};
pub use force::{
    force, force_crash, force_crash_curve, force_curve, force_probed, models_json, register_only,
    rmr_models_json, BoundConfig, BoundCurve, CrashCurve, CrashForcedRun, CrashRow, ForcedRun,
    MODELS, RMR_CC, RMR_MODELS, SC,
};
