//! Lamport's bakery algorithm.
//!
//! Every arriving process draws a ticket one larger than the maximum it
//! can see, then waits for every process with a smaller (ticket, id) pair.
//! The doorway scan reads all `n` number registers, so a passage costs
//! Θ(n) even without contention — Θ(n²) over a canonical execution, a
//! useful contrast with the tournament algorithms' Θ(n log n).
//!
//! Tickets grow without bound across passages; states (and therefore the
//! model checker's state space) stay finite for bounded-passage runs.

use exclusion_shmem::{Automaton, CritKind, NextStep, Observation, ProcessId, RegisterId, Value};

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Phase {
    Remainder,
    /// Doorway: `choosing[me] := 1`.
    SetChoosing,
    /// Doorway: scan `number[j]`, accumulating the maximum.
    ScanMax,
    /// Doorway: `number[me] := max + 1`.
    WriteNumber,
    /// Doorway: `choosing[me] := 0`.
    ClearChoosing,
    /// Wait: spin until `choosing[j] == 0`.
    WaitChoosing,
    /// Wait: spin until `number[j] == 0` or `(number[j], j) > (ticket, me)`.
    WaitNumber,
    Entering,
    Critical,
    /// Exit: `number[me] := 0`.
    ClearNumber,
    Resting,
}

/// Per-process state: phase, scan index, and the running max / drawn
/// ticket.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct BakeryState {
    phase: Phase,
    /// Scan index `j` for the doorway and waiting loops.
    j: u32,
    /// Running maximum during the doorway scan; the drawn ticket
    /// afterwards.
    ticket: Value,
}

/// Lamport's bakery algorithm for `n` processes.
///
/// # Example
///
/// ```
/// use exclusion_mutex::Bakery;
/// use exclusion_shmem::sched::run_round_robin;
///
/// let alg = Bakery::new(3);
/// let exec = run_round_robin(&alg, 1, 100_000).unwrap();
/// assert!(exec.is_canonical(3));
/// assert!(exec.mutual_exclusion(3));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Bakery {
    n: usize,
}

impl Bakery {
    /// An `n`-process instance.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "need at least one process");
        Bakery { n }
    }

    fn choosing(&self, i: usize) -> RegisterId {
        RegisterId::new(i)
    }

    fn number(&self, i: usize) -> RegisterId {
        RegisterId::new(self.n + i)
    }

    /// Advance the wait loop past process `j` (or past ourselves).
    fn next_wait(&self, pid: ProcessId, j: u32) -> BakeryState {
        let mut j = j + 1;
        if j as usize == pid.index() {
            j += 1;
        }
        if j as usize >= self.n {
            BakeryState {
                phase: Phase::Entering,
                j: 0,
                ticket: 0,
            }
        } else {
            BakeryState {
                phase: Phase::WaitChoosing,
                j,
                ticket: 0,
            }
        }
    }
}

impl Automaton for Bakery {
    type State = BakeryState;

    fn processes(&self) -> usize {
        self.n
    }

    fn registers(&self) -> usize {
        2 * self.n
    }

    fn initial_state(&self, _pid: ProcessId) -> BakeryState {
        BakeryState {
            phase: Phase::Remainder,
            j: 0,
            ticket: 0,
        }
    }

    fn next_step(&self, pid: ProcessId, state: &BakeryState) -> NextStep {
        match state.phase {
            Phase::Remainder => NextStep::Crit(CritKind::Try),
            Phase::SetChoosing => NextStep::Write(self.choosing(pid.index()), 1),
            Phase::ScanMax => NextStep::Read(self.number(state.j as usize)),
            Phase::WriteNumber => NextStep::Write(self.number(pid.index()), state.ticket + 1),
            Phase::ClearChoosing => NextStep::Write(self.choosing(pid.index()), 0),
            Phase::WaitChoosing => NextStep::Read(self.choosing(state.j as usize)),
            Phase::WaitNumber => NextStep::Read(self.number(state.j as usize)),
            Phase::Entering => NextStep::Crit(CritKind::Enter),
            Phase::Critical => NextStep::Crit(CritKind::Exit),
            Phase::ClearNumber => NextStep::Write(self.number(pid.index()), 0),
            Phase::Resting => NextStep::Crit(CritKind::Rem),
        }
    }

    fn observe(&self, pid: ProcessId, state: &BakeryState, obs: Observation) -> BakeryState {
        match (state.phase, obs) {
            (Phase::Remainder, Observation::Crit) => BakeryState {
                phase: Phase::SetChoosing,
                j: 0,
                ticket: 0,
            },
            (Phase::SetChoosing, Observation::Write) => BakeryState {
                phase: Phase::ScanMax,
                j: 0,
                ticket: 0,
            },
            (Phase::ScanMax, Observation::Read(v)) => {
                let ticket = state.ticket.max(v);
                if state.j as usize + 1 >= self.n {
                    BakeryState {
                        phase: Phase::WriteNumber,
                        j: 0,
                        ticket,
                    }
                } else {
                    BakeryState {
                        phase: Phase::ScanMax,
                        j: state.j + 1,
                        ticket,
                    }
                }
            }
            (Phase::WriteNumber, Observation::Write) => BakeryState {
                phase: Phase::ClearChoosing,
                j: 0,
                ticket: state.ticket + 1,
            },
            (Phase::ClearChoosing, Observation::Write) => {
                // Start the wait loop at the first other process.
                let first = if pid.index() == 0 { 1 } else { 0 };
                if self.n == 1 {
                    BakeryState {
                        phase: Phase::Entering,
                        j: 0,
                        ticket: state.ticket,
                    }
                } else {
                    BakeryState {
                        phase: Phase::WaitChoosing,
                        j: first as u32,
                        ticket: state.ticket,
                    }
                }
            }
            (Phase::WaitChoosing, Observation::Read(v)) => {
                if v != 0 {
                    *state // j is still choosing: spin (free)
                } else {
                    BakeryState {
                        phase: Phase::WaitNumber,
                        ..*state
                    }
                }
            }
            (Phase::WaitNumber, Observation::Read(v)) => {
                let j = state.j as usize;
                let me = pid.index();
                let j_goes_first = v != 0 && (v, j) < (state.ticket, me);
                if j_goes_first {
                    *state // j holds a smaller ticket: spin (free)
                } else {
                    let mut next = self.next_wait(pid, state.j);
                    if next.phase != Phase::Entering {
                        next.ticket = state.ticket;
                    }
                    next
                }
            }
            (Phase::Entering, Observation::Crit) => BakeryState {
                phase: Phase::Critical,
                j: 0,
                ticket: 0,
            },
            (Phase::Critical, Observation::Crit) => BakeryState {
                phase: Phase::ClearNumber,
                j: 0,
                ticket: 0,
            },
            (Phase::ClearNumber, Observation::Write) => BakeryState {
                phase: Phase::Resting,
                j: 0,
                ticket: 0,
            },
            (Phase::Resting, Observation::Crit) => BakeryState {
                phase: Phase::Remainder,
                j: 0,
                ticket: 0,
            },
            (phase, obs) => unreachable!("bakery: {phase:?} cannot observe {obs:?}"),
        }
    }

    fn register_home(&self, reg: RegisterId) -> Option<ProcessId> {
        Some(ProcessId::new(reg.index() % self.n))
    }

    fn register_name(&self, reg: RegisterId) -> String {
        let i = reg.index();
        if i < self.n {
            format!("choosing[{i}]")
        } else {
            format!("number[{}]", i - self.n)
        }
    }

    fn name(&self) -> String {
        "bakery".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exclusion_shmem::sched::{run_random, run_round_robin, run_sequential};

    #[test]
    fn sequential_cost_grows_linearly_per_process() {
        let alg = Bakery::new(8);
        let order: Vec<_> = ProcessId::all(8).collect();
        let exec = run_sequential(&alg, &order, 10_000).unwrap();
        assert!(exec.is_canonical(8));
        // Every passage scans all 8 numbers plus waits: ≥ n reads each.
        assert!(exec.shared_accesses() >= 8 * 8);
    }

    #[test]
    fn contended_schedules_are_safe() {
        for n in [2, 3, 4] {
            let alg = Bakery::new(n);
            let exec = run_round_robin(&alg, 2, 1_000_000).unwrap();
            assert!(exec.mutual_exclusion(n));
            for seed in 0..10 {
                let exec = run_random(&alg, 2, 1_000_000, seed).unwrap();
                assert!(exec.mutual_exclusion(n), "n = {n}, seed = {seed}");
            }
        }
    }

    #[test]
    fn tickets_increase_across_overlapping_passages() {
        let alg = Bakery::new(2);
        let exec = run_round_robin(&alg, 3, 1_000_000).unwrap();
        assert!(exec.well_formed(2));
        // Find the largest ticket ever written.
        let max_ticket = exec
            .iter()
            .filter_map(|s| match s {
                exclusion_shmem::Step::Write { reg, value, .. } if reg.index() >= 2 => Some(*value),
                _ => None,
            })
            .max()
            .unwrap();
        assert!(max_ticket >= 2);
    }
}
