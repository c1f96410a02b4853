//! Intentionally incorrect "locks" for failure-injection tests: they
//! exist so the test suite can prove that the model checker, the
//! execution predicates, and the lower-bound machinery actually detect
//! bad algorithms rather than vacuously passing.

use exclusion_shmem::{Automaton, CritKind, NextStep, Observation, ProcessId, RegisterId, Value};

/// The classic non-atomic test-and-set race: read the lock bit, and if it
/// is clear, write it and enter. Two processes can both read 0 and both
/// enter.
#[derive(Clone, Copy, Debug)]
pub struct RacyBool {
    n: usize,
}

impl RacyBool {
    /// An `n`-process racy lock.
    #[must_use]
    pub fn new(n: usize) -> Self {
        RacyBool { n }
    }

    fn bit(&self) -> RegisterId {
        RegisterId::new(0)
    }
}

/// Per-process state of [`RacyBool`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum RacyBoolState {
    /// In the remainder section.
    Remainder,
    /// Polling the lock bit.
    Poll,
    /// Saw 0; about to claim.
    Claim,
    /// About to enter.
    Entering,
    /// Holding the "lock".
    Critical,
    /// Releasing.
    Release,
    /// About to rest.
    Resting,
}

impl Automaton for RacyBool {
    type State = RacyBoolState;

    fn processes(&self) -> usize {
        self.n
    }

    fn registers(&self) -> usize {
        1
    }

    fn initial_state(&self, _pid: ProcessId) -> RacyBoolState {
        RacyBoolState::Remainder
    }

    fn next_step(&self, _pid: ProcessId, state: &RacyBoolState) -> NextStep {
        match state {
            RacyBoolState::Remainder => NextStep::Crit(CritKind::Try),
            RacyBoolState::Poll => NextStep::Read(self.bit()),
            RacyBoolState::Claim => NextStep::Write(self.bit(), 1),
            RacyBoolState::Entering => NextStep::Crit(CritKind::Enter),
            RacyBoolState::Critical => NextStep::Crit(CritKind::Exit),
            RacyBoolState::Release => NextStep::Write(self.bit(), 0),
            RacyBoolState::Resting => NextStep::Crit(CritKind::Rem),
        }
    }

    fn observe(&self, _pid: ProcessId, state: &RacyBoolState, obs: Observation) -> RacyBoolState {
        match (state, obs) {
            (RacyBoolState::Remainder, Observation::Crit) => RacyBoolState::Poll,
            (RacyBoolState::Poll, Observation::Read(v)) => {
                if v == 0 {
                    RacyBoolState::Claim
                } else {
                    *state // lock taken: spin
                }
            }
            (RacyBoolState::Claim, Observation::Write) => RacyBoolState::Entering,
            (RacyBoolState::Entering, Observation::Crit) => RacyBoolState::Critical,
            (RacyBoolState::Critical, Observation::Crit) => RacyBoolState::Release,
            (RacyBoolState::Release, Observation::Write) => RacyBoolState::Resting,
            (RacyBoolState::Resting, Observation::Crit) => RacyBoolState::Remainder,
            _ => *state,
        }
    }

    fn name(&self) -> String {
        "racy-bool".to_string()
    }
}

/// Peterson's two-process algorithm with the tie-break test inverted —
/// the canonical "looks right, is wrong" bug.
#[derive(Clone, Copy, Debug)]
pub struct BrokenPeterson;

/// Per-process state of [`BrokenPeterson`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BrokenPetersonState {
    /// In the remainder section.
    Remainder,
    /// Writing `flag[me] := 1`.
    SetFlag,
    /// Writing `turn := me`.
    SetTurn,
    /// Reading the rival's flag.
    CheckRival,
    /// Reading the tie-break (with the inverted test).
    CheckTurn,
    /// About to enter.
    Entering,
    /// Holding the lock.
    Critical,
    /// Releasing `flag[me]`.
    Release,
    /// About to rest.
    Resting,
}

impl BrokenPeterson {
    fn flag(&self, i: usize) -> RegisterId {
        RegisterId::new(i)
    }

    fn turn(&self) -> RegisterId {
        RegisterId::new(2)
    }
}

impl Automaton for BrokenPeterson {
    type State = BrokenPetersonState;

    fn processes(&self) -> usize {
        2
    }

    fn registers(&self) -> usize {
        3
    }

    fn initial_state(&self, _pid: ProcessId) -> BrokenPetersonState {
        BrokenPetersonState::Remainder
    }

    fn next_step(&self, pid: ProcessId, state: &BrokenPetersonState) -> NextStep {
        let me = pid.index();
        match state {
            BrokenPetersonState::Remainder => NextStep::Crit(CritKind::Try),
            BrokenPetersonState::SetFlag => NextStep::Write(self.flag(me), 1),
            BrokenPetersonState::SetTurn => NextStep::Write(self.turn(), me as Value),
            BrokenPetersonState::CheckRival => NextStep::Read(self.flag(1 - me)),
            BrokenPetersonState::CheckTurn => NextStep::Read(self.turn()),
            BrokenPetersonState::Entering => NextStep::Crit(CritKind::Enter),
            BrokenPetersonState::Critical => NextStep::Crit(CritKind::Exit),
            BrokenPetersonState::Release => NextStep::Write(self.flag(me), 0),
            BrokenPetersonState::Resting => NextStep::Crit(CritKind::Rem),
        }
    }

    fn observe(
        &self,
        pid: ProcessId,
        state: &BrokenPetersonState,
        obs: Observation,
    ) -> BrokenPetersonState {
        match (state, obs) {
            (BrokenPetersonState::Remainder, Observation::Crit) => BrokenPetersonState::SetFlag,
            (BrokenPetersonState::SetFlag, Observation::Write) => BrokenPetersonState::SetTurn,
            (BrokenPetersonState::SetTurn, Observation::Write) => BrokenPetersonState::CheckRival,
            (BrokenPetersonState::CheckRival, Observation::Read(v)) => {
                if v == 0 {
                    BrokenPetersonState::Entering
                } else {
                    BrokenPetersonState::CheckTurn
                }
            }
            (BrokenPetersonState::CheckTurn, Observation::Read(v)) => {
                // BUG: enters when the tie-break names *itself* (correct
                // Peterson enters when it names the rival).
                if v == pid.index() as Value {
                    BrokenPetersonState::Entering
                } else {
                    BrokenPetersonState::CheckRival
                }
            }
            (BrokenPetersonState::Entering, Observation::Crit) => BrokenPetersonState::Critical,
            (BrokenPetersonState::Critical, Observation::Crit) => BrokenPetersonState::Release,
            (BrokenPetersonState::Release, Observation::Write) => BrokenPetersonState::Resting,
            (BrokenPetersonState::Resting, Observation::Crit) => BrokenPetersonState::Remainder,
            _ => *state,
        }
    }

    fn name(&self) -> String {
        "broken-peterson".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn racy_bool_sometimes_behaves() {
        // Sequential schedules never trigger the race, which is exactly
        // why a model checker is needed.
        use exclusion_shmem::sched::run_sequential;
        let alg = RacyBool::new(2);
        let order: Vec<_> = ProcessId::all(2).collect();
        let exec = run_sequential(&alg, &order, 1_000).unwrap();
        assert!(exec.mutual_exclusion(2));
    }
}
