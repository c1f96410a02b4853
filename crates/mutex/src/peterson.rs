//! Peterson's algorithm, generalized to `n` processes by a tournament
//! tree.
//!
//! At every internal node the two sides run Peterson's classic
//! two-process protocol: raise your flag, cede the tie-break, and wait
//! while the rival's flag is up and the tie-break still names you. The
//! waiting loop alternates reads of two registers, so — unlike
//! Yang–Anderson — a *contended* wait is not free in the SC model (each
//! read changes the local program counter). In canonical executions there
//! is no contention and each node costs O(1), giving the same O(n log n)
//! canonical shape as Yang–Anderson.

use exclusion_shmem::{Automaton, CritKind, NextStep, Observation, ProcessId, RegisterId, Value};

use crate::tree::Tree;

const REGS_PER_NODE: usize = 3;
const FLAG0: usize = 0;
const FLAG1: usize = 1;
const TURN: usize = 2;

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Phase {
    Remainder,
    /// Entry: `flag[v][s] := 1`.
    SetFlag,
    /// Entry: `turn[v] := s` (the last writer waits).
    SetTurn,
    /// Entry wait, first half: read the rival's flag.
    CheckRival,
    /// Entry wait, second half: read the tie-break.
    CheckTurn,
    Entering,
    Critical,
    /// Exit, per node (root → leaf): `flag[v][s] := 0`.
    Release,
    Resting,
}

/// Per-process state: phase plus the level it applies to.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct PetersonState {
    phase: Phase,
    level: u8,
}

/// Peterson's tournament algorithm for `n` processes (`n = 2` is exactly
/// the classic two-process algorithm).
///
/// # Example
///
/// ```
/// use exclusion_mutex::Peterson;
/// use exclusion_shmem::sched::run_round_robin;
///
/// let alg = Peterson::new(3);
/// let exec = run_round_robin(&alg, 1, 100_000).unwrap();
/// assert!(exec.is_canonical(3));
/// assert!(exec.mutual_exclusion(3));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Peterson {
    tree: Tree,
}

impl Peterson {
    /// An `n`-process instance.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Peterson { tree: Tree::new(n) }
    }

    fn reg(&self, node: usize, which: usize) -> RegisterId {
        RegisterId::new((node - 1) * REGS_PER_NODE + which)
    }

    fn flag_reg(&self, node: usize, side: u8) -> RegisterId {
        self.reg(node, if side == 0 { FLAG0 } else { FLAG1 })
    }

    fn turn_reg(&self, node: usize) -> RegisterId {
        self.reg(node, TURN)
    }

    fn levels(&self) -> usize {
        self.tree.levels()
    }

    /// Tournament depth — exposed for the recoverable wrapper in
    /// [`crate::recover`], whose healing pass walks the levels top-down.
    pub(crate) fn level_count(&self) -> usize {
        self.levels()
    }

    /// The acting process's own flag register at `level` — what the
    /// recoverable wrapper's healing pass lowers.
    pub(crate) fn own_flag(&self, pid: ProcessId, level: u8) -> RegisterId {
        let h = self.tree.hop(pid.index(), level as usize);
        self.flag_reg(h.node, h.side)
    }

    fn won(&self, level: u8) -> PetersonState {
        if (level as usize) + 1 < self.levels() {
            PetersonState {
                phase: Phase::SetFlag,
                level: level + 1,
            }
        } else {
            PetersonState {
                phase: Phase::Entering,
                level: 0,
            }
        }
    }
}

impl Automaton for Peterson {
    type State = PetersonState;

    fn processes(&self) -> usize {
        self.tree.processes()
    }

    fn registers(&self) -> usize {
        self.tree.nodes() * REGS_PER_NODE
    }

    fn initial_state(&self, _pid: ProcessId) -> PetersonState {
        PetersonState {
            phase: Phase::Remainder,
            level: 0,
        }
    }

    fn next_step(&self, pid: ProcessId, state: &PetersonState) -> NextStep {
        let hop = |lvl: u8| self.tree.hop(pid.index(), lvl as usize);
        match state.phase {
            Phase::Remainder => NextStep::Crit(CritKind::Try),
            Phase::SetFlag => {
                let h = hop(state.level);
                NextStep::Write(self.flag_reg(h.node, h.side), 1)
            }
            Phase::SetTurn => {
                let h = hop(state.level);
                NextStep::Write(self.turn_reg(h.node), Value::from(h.side))
            }
            Phase::CheckRival => {
                let h = hop(state.level);
                NextStep::Read(self.flag_reg(h.node, 1 - h.side))
            }
            Phase::CheckTurn => {
                let h = hop(state.level);
                NextStep::Read(self.turn_reg(h.node))
            }
            Phase::Entering => NextStep::Crit(CritKind::Enter),
            Phase::Critical => NextStep::Crit(CritKind::Exit),
            Phase::Release => {
                let h = hop(state.level);
                NextStep::Write(self.flag_reg(h.node, h.side), 0)
            }
            Phase::Resting => NextStep::Crit(CritKind::Rem),
        }
    }

    fn observe(&self, pid: ProcessId, state: &PetersonState, obs: Observation) -> PetersonState {
        let side = |lvl: u8| self.tree.hop(pid.index(), lvl as usize).side;
        let lvl = state.level;
        let go = |phase| PetersonState { phase, level: lvl };
        match (state.phase, obs) {
            (Phase::Remainder, Observation::Crit) => {
                if self.levels() == 0 {
                    PetersonState {
                        phase: Phase::Entering,
                        level: 0,
                    }
                } else {
                    PetersonState {
                        phase: Phase::SetFlag,
                        level: 0,
                    }
                }
            }
            (Phase::SetFlag, Observation::Write) => go(Phase::SetTurn),
            (Phase::SetTurn, Observation::Write) => go(Phase::CheckRival),
            (Phase::CheckRival, Observation::Read(v)) => {
                if v == 0 {
                    self.won(lvl)
                } else {
                    go(Phase::CheckTurn)
                }
            }
            (Phase::CheckTurn, Observation::Read(v)) => {
                if v == Value::from(side(lvl)) {
                    go(Phase::CheckRival) // still my turn to wait: re-check
                } else {
                    self.won(lvl)
                }
            }
            (Phase::Entering, Observation::Crit) => go(Phase::Critical),
            (Phase::Critical, Observation::Crit) => {
                if self.levels() == 0 {
                    PetersonState {
                        phase: Phase::Resting,
                        level: 0,
                    }
                } else {
                    PetersonState {
                        phase: Phase::Release,
                        level: (self.levels() - 1) as u8,
                    }
                }
            }
            (Phase::Release, Observation::Write) => {
                if lvl == 0 {
                    PetersonState {
                        phase: Phase::Resting,
                        level: 0,
                    }
                } else {
                    PetersonState {
                        phase: Phase::Release,
                        level: lvl - 1,
                    }
                }
            }
            (Phase::Resting, Observation::Crit) => PetersonState {
                phase: Phase::Remainder,
                level: 0,
            },
            (phase, obs) => unreachable!("peterson: {phase:?} cannot observe {obs:?}"),
        }
    }

    fn register_name(&self, reg: RegisterId) -> String {
        let idx = reg.index();
        let node = idx / REGS_PER_NODE + 1;
        match idx % REGS_PER_NODE {
            FLAG0 => format!("flag[{node}][0]"),
            FLAG1 => format!("flag[{node}][1]"),
            _ => format!("turn[{node}]"),
        }
    }

    fn name(&self) -> String {
        "peterson".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exclusion_shmem::sched::{run_random, run_round_robin, run_sequential};

    #[test]
    fn sequential_canonical_in_reverse_order() {
        let alg = Peterson::new(5);
        let order: Vec<_> = (0..5).rev().map(ProcessId::new).collect();
        let exec = run_sequential(&alg, &order, 10_000).unwrap();
        assert!(exec.is_canonical(5));
        assert_eq!(exec.critical_order(), order);
    }

    #[test]
    fn contended_schedules_are_safe() {
        for n in [2, 3, 4, 6] {
            let alg = Peterson::new(n);
            let exec = run_round_robin(&alg, 2, 1_000_000).unwrap();
            assert!(exec.mutual_exclusion(n), "round robin, n = {n}");
            for seed in 0..10 {
                let exec = run_random(&alg, 1, 1_000_000, seed).unwrap();
                assert!(exec.mutual_exclusion(n), "random, n = {n} seed = {seed}");
            }
        }
    }

    #[test]
    fn single_process_needs_no_tree() {
        let alg = Peterson::new(1);
        assert_eq!(alg.registers(), 0);
        let exec = run_round_robin(&alg, 1, 100).unwrap();
        assert!(exec.is_canonical(1));
    }
}
