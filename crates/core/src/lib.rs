//! The Fan & Lynch 2006 lower-bound machinery, executable.
//!
//! The paper proves: any deterministic, livelock-free, register-only
//! mutual exclusion algorithm has a canonical execution of state-change
//! cost Ω(n log n). The proof is a pipeline, and this crate *runs* it
//! against real algorithms:
//!
//! 1. [`construct()`](construct()) (§5, Figure 1) — for a permutation π, weave a set of
//!    **metasteps** `M` and a partial order `≼` such that every
//!    linearization is a canonical execution in which processes enter
//!    the critical section in order π, with later-in-π processes
//!    invisible to earlier ones;
//! 2. [`encode()`](encode()) (§6, Figure 2) — compress `(M, ≼)` into a cell table
//!    `E_π` of O(C(α_π)) bits;
//! 3. [`decode()`](decode()) (§7, Figure 3) — reconstruct a linearization of
//!    `(M, ≼)` from `E_π` and the algorithm's transition function alone.
//!
//! Since decoding is injective on the n! permutations, some `E_π` has
//! ≥ log₂ n! bits, so some α_π costs Ω(n log n) — Theorem 7.5. The
//! [`verify`] module packages each theorem as an executable check, and
//! `exclusion-bench` turns them into the experiment tables (README:
//! "Examples and experiments").
//!
//! # Example
//!
//! The full pipeline on the tournament lock:
//!
//! ```
//! use exclusion_lb::{construct, decode, encode, ConstructConfig, Permutation};
//! use exclusion_mutex::DekkerTournament;
//!
//! let alg = DekkerTournament::new(4);
//! let pi = Permutation::unrank(4, 17);
//! let c = construct(&alg, &pi, &ConstructConfig::default())?;
//!
//! // Every linearization is canonical with critical sections in order π.
//! let alpha = c.linearize();
//! assert!(alpha.is_canonical(4));
//! assert_eq!(alpha.critical_order(), pi.order());
//!
//! // Encode to bits, decode back — without knowing π.
//! let e = encode(&c);
//! let alpha2 = decode(&alg, &e)?;
//! assert!(c.is_linearization(&alpha2));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bits;
pub mod bitset;
pub mod construct;
pub mod decode;
pub mod encode;
pub mod error;
pub mod metastep;
pub mod perm;
pub mod stats;
pub mod verify;

mod linearize;

pub use construct::{construct, construct_stages, ConstructConfig, Construction, Dag};
pub use decode::decode;
pub use encode::{encode, Cell, Encoding};
pub use error::{ConstructError, DecodeError};
pub use metastep::{Metastep, MetastepId, MetastepKind};
pub use perm::{factorial, log2_factorial, Permutation};
pub use stats::ConstructionStats;
pub use verify::{run_pipeline, verify_counting, CountingReport, PipelineError, PipelineReport};
