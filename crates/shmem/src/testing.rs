//! Small reference automata used by tests, documentation examples, and
//! failure-injection suites.
//!
//! These are deliberately minimal; the real algorithm library lives in
//! the `exclusion-mutex` crate.

use crate::automaton::{Automaton, NextStep, Observation};
use crate::ids::{ProcessId, RegisterId, Value};
use crate::step::CritKind;

/// The canonical small-`n` fixture grid shared by the cross-crate
/// equivalence and conformance suites (`tests/streaming_equivalence.rs`,
/// `tests/safety_conformance.rs`, `tests/exhaustive_bounds.rs`, …), so
/// every suite exercises the same algorithm × scheduler × seed
/// combinations instead of each maintaining a drifting private copy.
///
/// Algorithms and schedulers are named by their registry spec spellings
/// (this crate sits below the registries, so the grid is strings by
/// design — each suite resolves them against the registry it tests).
pub mod fixtures {
    /// Process counts the exhaustive small-`n` suites certify at.
    pub const SMALL_NS: &[usize] = &[2, 3];

    /// How many entries the standard algorithm registry carries. The
    /// registry lives above this crate, so the suites that iterate it
    /// (`tests/mutex_properties.rs`, `tests/spec_roundtrip.rs`, …) pin
    /// the count here: a new entry must bump this constant, which is
    /// the reminder to extend the grids that enumerate by index.
    pub const STANDARD_ALGORITHMS: usize = 17;

    /// The seed grid shared by every seeded-scheduler sweep.
    pub const SEEDS: &[u64] = &[1, 7, 42];

    /// Passage target the small-`n` grids drive every process to.
    pub const PASSAGES: usize = 2;

    /// Step budget generous enough for every grid combination.
    pub const MAX_STEPS: usize = 50_000_000;

    /// Canonical spec spellings of the scheduling policies the grids
    /// sweep, with arrival parameters scaled to `n` the way the
    /// registry's own defaults scale.
    #[must_use]
    pub fn sched_specs(n: usize) -> Vec<String> {
        vec![
            "sequential".into(),
            "round-robin".into(),
            "random".into(),
            "greedy-adversary".into(),
            "fanlynch".into(),
            format!("burst:wave={},gap={}", n.div_ceil(2), 2 * n),
            format!("stagger:stride={}", 2 * n),
        ]
    }
}

/// Phases of the [`Alternator`] state machine.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum AltPhase {
    Remainder,
    Waiting,
    Entering,
    Critical,
    Exiting,
    HandOver,
}

/// Per-process state of [`Alternator`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct AltState(AltPhase);

// Alternator states pack into one inline word, so the testing fixture
// also exercises `dynamic`'s allocation-free erasure path (`Packed`).
impl crate::dynamic::WordState for AltState {
    const WORDS: usize = 1;

    fn pack(&self, out: &mut [u64]) {
        out[0] = match self.0 {
            AltPhase::Remainder => 0,
            AltPhase::Waiting => 1,
            AltPhase::Entering => 2,
            AltPhase::Critical => 3,
            AltPhase::Exiting => 4,
            AltPhase::HandOver => 5,
        };
    }

    fn unpack(words: &[u64]) -> Self {
        AltState(match words[0] {
            0 => AltPhase::Remainder,
            1 => AltPhase::Waiting,
            2 => AltPhase::Entering,
            3 => AltPhase::Critical,
            4 => AltPhase::Exiting,
            _ => AltPhase::HandOver,
        })
    }
}

/// A token-ring "lock": a single `turn` register cycles through process
/// indices; process `i` busy-waits until `turn == i`, enters, and hands
/// the token to `i + 1 (mod n)`.
///
/// Mutual exclusion always holds. Progress requires every process to keep
/// taking passages (it is *not* livelock-free if a process stops
/// participating), which makes it a convenient fixture: correct under
/// fair full-participation schedules, and a clean example of a busy-wait
/// read that does not change state.
#[derive(Clone, Copy, Debug)]
pub struct Alternator {
    n: usize,
}

impl Alternator {
    /// An `n`-process token ring.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "need at least one process");
        Alternator { n }
    }

    fn turn() -> RegisterId {
        RegisterId::new(0)
    }
}

impl Automaton for Alternator {
    type State = AltState;

    fn processes(&self) -> usize {
        self.n
    }

    fn registers(&self) -> usize {
        1
    }

    fn initial_state(&self, _pid: ProcessId) -> AltState {
        AltState(AltPhase::Remainder)
    }

    fn next_step(&self, pid: ProcessId, state: &AltState) -> NextStep {
        match state.0 {
            AltPhase::Remainder => NextStep::Crit(CritKind::Try),
            AltPhase::Waiting => NextStep::Read(Self::turn()),
            AltPhase::Entering => NextStep::Crit(CritKind::Enter),
            AltPhase::Critical => NextStep::Crit(CritKind::Exit),
            AltPhase::Exiting => {
                NextStep::Write(Self::turn(), ((pid.index() + 1) % self.n) as Value)
            }
            AltPhase::HandOver => NextStep::Crit(CritKind::Rem),
        }
    }

    fn observe(&self, pid: ProcessId, state: &AltState, obs: Observation) -> AltState {
        match (state.0, obs) {
            (AltPhase::Remainder, Observation::Crit) => AltState(AltPhase::Waiting),
            (AltPhase::Waiting, Observation::Read(v)) => {
                if v == pid.index() as Value {
                    AltState(AltPhase::Entering)
                } else {
                    *state
                }
            }
            (AltPhase::Entering, Observation::Crit) => AltState(AltPhase::Critical),
            (AltPhase::Critical, Observation::Crit) => AltState(AltPhase::Exiting),
            (AltPhase::Exiting, Observation::Write) => AltState(AltPhase::HandOver),
            (AltPhase::HandOver, Observation::Crit) => AltState(AltPhase::Remainder),
            _ => *state,
        }
    }

    fn register_name(&self, _reg: RegisterId) -> String {
        "turn".to_string()
    }

    fn name(&self) -> String {
        "alternator".to_string()
    }
}

/// A "lock" that performs no synchronization at all: every process goes
/// `try → enter → exit → rem` immediately. Used to verify that the
/// explorer and the execution predicates actually catch violations.
#[derive(Clone, Copy, Debug)]
pub struct NoLock {
    n: usize,
}

impl NoLock {
    /// An `n`-process non-lock.
    #[must_use]
    pub fn new(n: usize) -> Self {
        NoLock { n }
    }
}

/// Per-process state of [`NoLock`]: just a phase counter.
pub type NoLockState = u8;

impl Automaton for NoLock {
    type State = NoLockState;

    fn processes(&self) -> usize {
        self.n
    }

    fn registers(&self) -> usize {
        1
    }

    fn initial_state(&self, _pid: ProcessId) -> u8 {
        0
    }

    fn next_step(&self, _pid: ProcessId, state: &u8) -> NextStep {
        match state {
            0 => NextStep::Crit(CritKind::Try),
            1 => NextStep::Crit(CritKind::Enter),
            2 => NextStep::Crit(CritKind::Exit),
            _ => NextStep::Crit(CritKind::Rem),
        }
    }

    fn observe(&self, _pid: ProcessId, state: &u8, _obs: Observation) -> u8 {
        (state + 1) % 4
    }

    fn name(&self) -> String {
        "no-lock".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{run_round_robin, run_sequential};

    #[test]
    fn alternator_round_robin_is_safe_and_canonical() {
        let alg = Alternator::new(5);
        let exec = run_round_robin(&alg, 1, 100_000).unwrap();
        assert!(exec.is_canonical(5));
        assert!(exec.mutual_exclusion(5));
    }

    #[test]
    fn alternator_identity_order_runs_sequentially() {
        let alg = Alternator::new(3);
        let order: Vec<_> = ProcessId::all(3).collect();
        let exec = run_sequential(&alg, &order, 1_000).unwrap();
        assert!(exec.is_canonical(3));
    }

    #[test]
    fn no_lock_violates_mutual_exclusion_under_round_robin() {
        let alg = NoLock::new(2);
        let exec = run_round_robin(&alg, 1, 1_000).unwrap();
        assert!(!exec.mutual_exclusion(2));
    }
}
