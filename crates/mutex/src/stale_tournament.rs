//! A **deliberately retained, subtly unsafe** local-spin tournament — a
//! from-memory reconstruction of Yang & Anderson's two-process element
//! whose staleness race the exhaustive explorer finds automatically.
//!
//! Each node of the arbitration tree uses presence registers
//! `C[v][side]`, a tie-break register `T[v]`, and spin mailboxes
//! `S[v][side]` with a two-phase wake-up (`0 → 1` "rival poked you,
//! re-check the tie-break", `→ 2` "rival has exited, go"). The structure
//! looks right, and every *sequential* and most random schedules behave —
//! yet the protocol is broken:
//!
//! 1. `p0` exits and, **after withdrawing its presence flag**, reads the
//!    tie-break to find whom to wake;
//! 2. a fresh rival `p1` has just written the tie-break but then wins the
//!    node *directly* (it sees `p0`'s presence withdrawn), so it never
//!    waits;
//! 3. `p0` nevertheless issues the wake-up `S[v][1] := 2`. `p1` finishes
//!    its passage, starts the next one, resets its mailbox — and the
//!    stale wake-up lands *after* the reset;
//! 4. one encounter later `p1` loses the tie-break legitimately, waits,
//!    consumes the stale `2`, passes the second-phase check (the
//!    tie-break genuinely names it), and walks into an occupied critical
//!    section.
//!
//! `exclusion-explore` finds a replayable witness at `n = 2` within two
//! passages per process, in a few thousand states
//! (`tests/mutex_properties.rs`). This is why the workspace's actual
//! upper-bound witness is [`DekkerTournament`](crate::DekkerTournament)
//! instead. Exhausting both exit orders (withdraw-then-read and
//! read-then-withdraw) shifts but does not close the window, which is
//! precisely why this artifact is worth keeping: it demonstrates that the
//! explorer rejects plausible-but-wrong synchronization, so its green
//! verdicts on the real suite carry weight.

use exclusion_shmem::{Automaton, CritKind, NextStep, Observation, ProcessId, RegisterId, Value};

use crate::tree::Tree;

const REGS_PER_NODE: usize = 5;
const C0: usize = 0;
const C1: usize = 1;
const T: usize = 2;
const S0: usize = 3;
const S1: usize = 4;

/// Phases of the per-process state machine.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Phase {
    /// In the remainder section; next step is `try`.
    Remainder,
    /// Entry, per node: reset my spin flag `S[v][s] := 0`.
    ResetSpin,
    /// Entry: announce presence, `C[v][s] := 1`.
    Announce,
    /// Entry: tie-break, `T[v] := s` (the *last* writer waits).
    SetTurn,
    /// Entry: read the rival's presence `C[v][1-s]`.
    ReadRival,
    /// Entry: read the tie-break.
    ReadTurn,
    /// Entry (lost tie-break): read the rival's spin flag before poking.
    ReadRivalSpin,
    /// Entry: poke the rival, `S[v][1-s] := 1`, in case both lost.
    PokeRival,
    /// Entry: local spin `while S[v][s] == 0`.
    WaitFirst,
    /// Entry: woke with ≥ 1; re-read the tie-break.
    ReadTurnAgain,
    /// Entry: still the loser; local spin `while S[v][s] ≤ 1`.
    WaitSecond,
    /// Won every node: next step is `enter`.
    Entering,
    /// In the critical section; next step is `exit`.
    Critical,
    /// Exit, per node (root → leaf): withdraw, `C[v][s] := 0`.
    ExitWithdraw,
    /// Exit: read the tie-break to find a possibly waiting rival.
    ExitReadTurn,
    /// Exit: release the rival, `S[v][1-s] := 2`.
    ExitRelease,
    /// All nodes released: next step is `rem`.
    Resting,
}

/// Per-process state: the phase and the climb/release level it applies
/// to. `level` counts from the leaf (0) towards the root.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct StaleState {
    phase: Phase,
    level: u8,
}

/// The unsafe reconstructed tournament, kept as a checker benchmark —
/// see the module documentation for the race. **Do not use as a lock.**
///
/// # Example
///
/// Sequential schedules behave, which is exactly what makes the bug
/// subtle:
///
/// ```
/// use exclusion_mutex::stale_tournament::StaleTournament;
/// use exclusion_shmem::sched::run_sequential;
/// use exclusion_shmem::ProcessId;
///
/// let alg = StaleTournament::new(4);
/// let order: Vec<_> = ProcessId::all(4).collect();
/// let exec = run_sequential(&alg, &order, 10_000).unwrap();
/// assert!(exec.is_canonical(4));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct StaleTournament {
    tree: Tree,
}

impl StaleTournament {
    /// An `n`-process instance.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        StaleTournament { tree: Tree::new(n) }
    }

    /// The arbitration-tree geometry.
    #[must_use]
    pub fn tree(&self) -> &Tree {
        &self.tree
    }

    fn reg(&self, node: usize, which: usize) -> RegisterId {
        RegisterId::new((node - 1) * REGS_PER_NODE + which)
    }

    fn c_reg(&self, node: usize, side: u8) -> RegisterId {
        self.reg(node, if side == 0 { C0 } else { C1 })
    }

    fn s_reg(&self, node: usize, side: u8) -> RegisterId {
        self.reg(node, if side == 0 { S0 } else { S1 })
    }

    fn t_reg(&self, node: usize) -> RegisterId {
        self.reg(node, T)
    }

    fn levels(&self) -> usize {
        self.tree.levels()
    }

    /// State after winning the node at `level`: climb, or enter.
    fn won(&self, level: u8) -> StaleState {
        if (level as usize) + 1 < self.levels() {
            StaleState {
                phase: Phase::ResetSpin,
                level: level + 1,
            }
        } else {
            StaleState {
                phase: Phase::Entering,
                level: 0,
            }
        }
    }

    /// State after finishing the exit protocol at `level`: descend, or
    /// rest.
    fn released(&self, level: u8) -> StaleState {
        if level == 0 {
            StaleState {
                phase: Phase::Resting,
                level: 0,
            }
        } else {
            StaleState {
                phase: Phase::ExitWithdraw,
                level: level - 1,
            }
        }
    }
}

impl Automaton for StaleTournament {
    type State = StaleState;

    fn processes(&self) -> usize {
        self.tree.processes()
    }

    fn registers(&self) -> usize {
        self.tree.nodes() * REGS_PER_NODE
    }

    fn initial_state(&self, _pid: ProcessId) -> StaleState {
        StaleState {
            phase: Phase::Remainder,
            level: 0,
        }
    }

    fn next_step(&self, pid: ProcessId, state: &StaleState) -> NextStep {
        let hop = |lvl: u8| self.tree.hop(pid.index(), lvl as usize);
        match state.phase {
            Phase::Remainder => NextStep::Crit(CritKind::Try),
            Phase::ResetSpin => {
                let h = hop(state.level);
                NextStep::Write(self.s_reg(h.node, h.side), 0)
            }
            Phase::Announce => {
                let h = hop(state.level);
                NextStep::Write(self.c_reg(h.node, h.side), 1)
            }
            Phase::SetTurn => {
                let h = hop(state.level);
                NextStep::Write(self.t_reg(h.node), Value::from(h.side))
            }
            Phase::ReadRival => {
                let h = hop(state.level);
                NextStep::Read(self.c_reg(h.node, 1 - h.side))
            }
            Phase::ReadTurn | Phase::ReadTurnAgain => {
                let h = hop(state.level);
                NextStep::Read(self.t_reg(h.node))
            }
            Phase::ReadRivalSpin => {
                let h = hop(state.level);
                NextStep::Read(self.s_reg(h.node, 1 - h.side))
            }
            Phase::PokeRival => {
                let h = hop(state.level);
                NextStep::Write(self.s_reg(h.node, 1 - h.side), 1)
            }
            Phase::WaitFirst | Phase::WaitSecond => {
                let h = hop(state.level);
                NextStep::Read(self.s_reg(h.node, h.side))
            }
            Phase::Entering => NextStep::Crit(CritKind::Enter),
            Phase::Critical => NextStep::Crit(CritKind::Exit),
            Phase::ExitWithdraw => {
                let h = hop(state.level);
                NextStep::Write(self.c_reg(h.node, h.side), 0)
            }
            Phase::ExitReadTurn => {
                let h = hop(state.level);
                NextStep::Read(self.t_reg(h.node))
            }
            Phase::ExitRelease => {
                let h = hop(state.level);
                NextStep::Write(self.s_reg(h.node, 1 - h.side), 2)
            }
            Phase::Resting => NextStep::Crit(CritKind::Rem),
        }
    }

    fn observe(&self, pid: ProcessId, state: &StaleState, obs: Observation) -> StaleState {
        let side = |lvl: u8| self.tree.hop(pid.index(), lvl as usize).side;
        let lvl = state.level;
        let go = |phase| StaleState { phase, level: lvl };
        match (state.phase, obs) {
            (Phase::Remainder, Observation::Crit) => {
                if self.levels() == 0 {
                    StaleState {
                        phase: Phase::Entering,
                        level: 0,
                    }
                } else {
                    StaleState {
                        phase: Phase::ResetSpin,
                        level: 0,
                    }
                }
            }
            (Phase::ResetSpin, Observation::Write) => go(Phase::Announce),
            (Phase::Announce, Observation::Write) => go(Phase::SetTurn),
            (Phase::SetTurn, Observation::Write) => go(Phase::ReadRival),
            (Phase::ReadRival, Observation::Read(v)) => {
                if v == 0 {
                    self.won(lvl)
                } else {
                    go(Phase::ReadTurn)
                }
            }
            (Phase::ReadTurn, Observation::Read(v)) => {
                if v == Value::from(side(lvl)) {
                    go(Phase::ReadRivalSpin)
                } else {
                    self.won(lvl)
                }
            }
            (Phase::ReadRivalSpin, Observation::Read(v)) => {
                if v == 0 {
                    go(Phase::PokeRival)
                } else {
                    go(Phase::WaitFirst)
                }
            }
            (Phase::PokeRival, Observation::Write) => go(Phase::WaitFirst),
            (Phase::WaitFirst, Observation::Read(v)) => {
                if v == 0 {
                    *state // keep spinning: free in the SC model
                } else {
                    go(Phase::ReadTurnAgain)
                }
            }
            (Phase::ReadTurnAgain, Observation::Read(v)) => {
                if v == Value::from(side(lvl)) {
                    go(Phase::WaitSecond)
                } else {
                    self.won(lvl)
                }
            }
            (Phase::WaitSecond, Observation::Read(v)) => {
                if v <= 1 {
                    *state // keep spinning
                } else {
                    self.won(lvl)
                }
            }
            (Phase::Entering, Observation::Crit) => go(Phase::Critical),
            (Phase::Critical, Observation::Crit) => {
                if self.levels() == 0 {
                    StaleState {
                        phase: Phase::Resting,
                        level: 0,
                    }
                } else {
                    StaleState {
                        phase: Phase::ExitWithdraw,
                        level: (self.levels() - 1) as u8,
                    }
                }
            }
            (Phase::ExitWithdraw, Observation::Write) => go(Phase::ExitReadTurn),
            (Phase::ExitReadTurn, Observation::Read(v)) => {
                if v == Value::from(side(lvl)) {
                    // The last tie-break writer is me: no rival waits.
                    self.released(lvl)
                } else {
                    go(Phase::ExitRelease)
                }
            }
            (Phase::ExitRelease, Observation::Write) => self.released(lvl),
            (Phase::Resting, Observation::Crit) => StaleState {
                phase: Phase::Remainder,
                level: 0,
            },
            (phase, obs) => unreachable!("stale-tournament: {phase:?} cannot observe {obs:?}"),
        }
    }

    fn register_home(&self, reg: RegisterId) -> Option<ProcessId> {
        let idx = reg.index();
        let node = idx / REGS_PER_NODE + 1;
        let which = idx % REGS_PER_NODE;
        let side = match which {
            S0 => 0u8,
            S1 => 1u8,
            _ => return None,
        };
        // Home of a spin register: the lowest-indexed process whose path
        // arrives at `node` on `side` — the representative of that
        // subtree.
        let levels = self.tree.levels();
        let child = node * 2 + side as usize;
        let depth = usize::BITS as usize - 1 - child.leading_zeros() as usize;
        let first_leaf = child << (levels - depth);
        let pid = first_leaf - (1 << levels);
        (pid < self.processes()).then(|| ProcessId::new(pid))
    }

    fn register_name(&self, reg: RegisterId) -> String {
        let idx = reg.index();
        let node = idx / REGS_PER_NODE + 1;
        match idx % REGS_PER_NODE {
            C0 => format!("C[{node}][0]"),
            C1 => format!("C[{node}][1]"),
            T => format!("T[{node}]"),
            S0 => format!("S[{node}][0]"),
            _ => format!("S[{node}][1]"),
        }
    }

    fn name(&self) -> String {
        "stale-tournament".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exclusion_shmem::sched::{run_random, run_round_robin, run_sequential};

    #[test]
    fn solo_passage_is_short() {
        let alg = StaleTournament::new(8);
        let order = [ProcessId::new(3)];
        let exec = run_sequential(&alg, &order, 1_000).unwrap();
        // 3 levels * (4 entry + 2..3 exit) + 4 critical steps: well under
        // 30 steps, and no spinning.
        assert!(exec.len() < 30, "solo passage took {} steps", exec.len());
    }

    #[test]
    fn sequential_canonical_any_order() {
        let alg = StaleTournament::new(6);
        for order in [
            vec![0, 1, 2, 3, 4, 5],
            vec![5, 4, 3, 2, 1, 0],
            vec![2, 0, 5, 1, 4, 3],
        ] {
            let order: Vec<_> = order.into_iter().map(ProcessId::new).collect();
            let exec = run_sequential(&alg, &order, 10_000).unwrap();
            assert!(exec.is_canonical(6));
            assert!(exec.mutual_exclusion(6));
            assert_eq!(exec.critical_order(), order);
        }
    }

    #[test]
    fn round_robin_and_random_schedules_fail_to_expose_the_race() {
        // The race needs a precisely staged stall; naive dynamic testing
        // passes, which is the point of keeping this artifact.
        for n in [2, 3] {
            let alg = StaleTournament::new(n);
            let exec = run_round_robin(&alg, 2, 1_000_000).unwrap();
            assert!(exec.mutual_exclusion(n), "n = {n}");
            for seed in 0..10 {
                let exec = run_random(&alg, 2, 1_000_000, seed).unwrap();
                assert!(exec.mutual_exclusion(n), "n = {n}, seed = {seed}");
            }
        }
    }

    #[test]
    fn spin_registers_have_subtree_homes() {
        let alg = StaleTournament::new(4);
        // Node 2 (left child of root) side 0 is process 0's slot.
        let s = alg.s_reg(2, 0);
        assert_eq!(alg.register_home(s), Some(ProcessId::new(0)));
        // Root node side 1 covers processes 2,3; the representative is 2.
        let s = alg.s_reg(1, 1);
        assert_eq!(alg.register_home(s), Some(ProcessId::new(2)));
        // Non-spin registers have no home.
        assert_eq!(alg.register_home(alg.t_reg(1)), None);
    }
}
