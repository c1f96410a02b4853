//! The filter lock (Peterson's algorithm generalized by levels).
//!
//! `n - 1` filter levels each admit one fewer process: at level `L` a
//! process volunteers as victim and waits until no other process is at
//! level ≥ `L` or a newer victim arrives. Each level scans all `n`
//! processes, so a solo passage costs Θ(n²) — the most expensive baseline
//! in the suite, bracketing the others from above.

use exclusion_shmem::{Automaton, CritKind, NextStep, Observation, ProcessId, RegisterId, Value};

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Phase {
    Remainder,
    /// `level[me] := L`.
    SetLevel,
    /// `victim[L] := me`.
    SetVictim,
    /// Scan: read `level[j]`.
    ScanLevel,
    /// `level[j] ≥ L`: check whether a newer victim displaced us.
    CheckVictim,
    Entering,
    Critical,
    /// Exit: `level[me] := 0`.
    ClearLevel,
    Resting,
}

/// Per-process state: phase, current filter level, and scan index.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct FilterState {
    phase: Phase,
    /// Current level, `1..=n-1`.
    level: u32,
    /// Scan index over processes.
    j: u32,
}

/// The `n`-process filter lock.
///
/// # Example
///
/// ```
/// use exclusion_mutex::Filter;
/// use exclusion_shmem::sched::run_round_robin;
///
/// let alg = Filter::new(3);
/// let exec = run_round_robin(&alg, 1, 100_000).unwrap();
/// assert!(exec.is_canonical(3));
/// assert!(exec.mutual_exclusion(3));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Filter {
    n: usize,
    /// Filter levels processes climb (`1..=levels`); at least `n - 1`.
    levels: usize,
}

impl Filter {
    /// An `n`-process instance with the minimal `n - 1` levels.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Filter::with_levels(n, n.saturating_sub(1))
    }

    /// An instance over-provisioned to `levels` filter levels — a lock
    /// sized for up to `levels + 1` processes, run by `n` of them. Extra
    /// levels keep mutual exclusion (each level only filters harder) and
    /// make every passage proportionally more expensive; the registry
    /// exposes this as the `filter:levels=L` spec parameter.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `levels < n - 1` (fewer levels would admit
    /// more than one process to the critical section; the registry
    /// rejects such specs before construction).
    #[must_use]
    pub fn with_levels(n: usize, levels: usize) -> Self {
        assert!(n >= 1, "need at least one process");
        assert!(
            levels + 1 >= n,
            "a filter lock for {n} processes needs at least {} levels",
            n - 1
        );
        Filter { n, levels }
    }

    fn level_reg(&self, i: usize) -> RegisterId {
        RegisterId::new(i)
    }

    fn victim_reg(&self, level: u32) -> RegisterId {
        RegisterId::new(self.n + (level as usize - 1))
    }

    /// Move the scan at `level` past process `j`, entering or climbing
    /// when the scan completes.
    fn advance_scan(&self, pid: ProcessId, level: u32, j: u32) -> FilterState {
        let mut j = j + 1;
        if j as usize == pid.index() {
            j += 1;
        }
        if (j as usize) < self.n {
            FilterState {
                phase: Phase::ScanLevel,
                level,
                j,
            }
        } else if (level as usize) < self.levels {
            FilterState {
                phase: Phase::SetLevel,
                level: level + 1,
                j: 0,
            }
        } else {
            FilterState {
                phase: Phase::Entering,
                level: 0,
                j: 0,
            }
        }
    }

    fn start_scan(&self, pid: ProcessId, level: u32) -> FilterState {
        let first = if pid.index() == 0 { 1 } else { 0 };
        if self.n == 1 || first >= self.n {
            FilterState {
                phase: Phase::Entering,
                level: 0,
                j: 0,
            }
        } else {
            FilterState {
                phase: Phase::ScanLevel,
                level,
                j: first as u32,
            }
        }
    }
}

impl Automaton for Filter {
    type State = FilterState;

    fn processes(&self) -> usize {
        self.n
    }

    fn registers(&self) -> usize {
        // level[0..n] plus victim[1..=levels].
        self.n + self.levels
    }

    fn initial_state(&self, _pid: ProcessId) -> FilterState {
        FilterState {
            phase: Phase::Remainder,
            level: 0,
            j: 0,
        }
    }

    fn next_step(&self, pid: ProcessId, state: &FilterState) -> NextStep {
        match state.phase {
            Phase::Remainder => NextStep::Crit(CritKind::Try),
            Phase::SetLevel => {
                NextStep::Write(self.level_reg(pid.index()), Value::from(state.level))
            }
            Phase::SetVictim => NextStep::Write(self.victim_reg(state.level), pid.index() as Value),
            Phase::ScanLevel => NextStep::Read(self.level_reg(state.j as usize)),
            Phase::CheckVictim => NextStep::Read(self.victim_reg(state.level)),
            Phase::Entering => NextStep::Crit(CritKind::Enter),
            Phase::Critical => NextStep::Crit(CritKind::Exit),
            Phase::ClearLevel => NextStep::Write(self.level_reg(pid.index()), 0),
            Phase::Resting => NextStep::Crit(CritKind::Rem),
        }
    }

    fn observe(&self, pid: ProcessId, state: &FilterState, obs: Observation) -> FilterState {
        match (state.phase, obs) {
            (Phase::Remainder, Observation::Crit) => {
                if self.n == 1 {
                    FilterState {
                        phase: Phase::Entering,
                        level: 0,
                        j: 0,
                    }
                } else {
                    FilterState {
                        phase: Phase::SetLevel,
                        level: 1,
                        j: 0,
                    }
                }
            }
            (Phase::SetLevel, Observation::Write) => FilterState {
                phase: Phase::SetVictim,
                level: state.level,
                j: 0,
            },
            (Phase::SetVictim, Observation::Write) => self.start_scan(pid, state.level),
            (Phase::ScanLevel, Observation::Read(v)) => {
                if v >= Value::from(state.level) {
                    FilterState {
                        phase: Phase::CheckVictim,
                        ..*state
                    }
                } else {
                    self.advance_scan(pid, state.level, state.j)
                }
            }
            (Phase::CheckVictim, Observation::Read(v)) => {
                if v == pid.index() as Value {
                    // Still the victim with a rival at ≥ level: spin by
                    // re-reading the rival's level.
                    FilterState {
                        phase: Phase::ScanLevel,
                        ..*state
                    }
                } else {
                    // Displaced: the whole wait condition is false; climb.
                    if (state.level as usize) < self.levels {
                        FilterState {
                            phase: Phase::SetLevel,
                            level: state.level + 1,
                            j: 0,
                        }
                    } else {
                        FilterState {
                            phase: Phase::Entering,
                            level: 0,
                            j: 0,
                        }
                    }
                }
            }
            (Phase::Entering, Observation::Crit) => FilterState {
                phase: Phase::Critical,
                level: 0,
                j: 0,
            },
            (Phase::Critical, Observation::Crit) => {
                if self.n == 1 {
                    FilterState {
                        phase: Phase::Resting,
                        level: 0,
                        j: 0,
                    }
                } else {
                    FilterState {
                        phase: Phase::ClearLevel,
                        level: 0,
                        j: 0,
                    }
                }
            }
            (Phase::ClearLevel, Observation::Write) => FilterState {
                phase: Phase::Resting,
                level: 0,
                j: 0,
            },
            (Phase::Resting, Observation::Crit) => FilterState {
                phase: Phase::Remainder,
                level: 0,
                j: 0,
            },
            (phase, obs) => unreachable!("filter: {phase:?} cannot observe {obs:?}"),
        }
    }

    fn register_home(&self, reg: RegisterId) -> Option<ProcessId> {
        (reg.index() < self.n).then(|| ProcessId::new(reg.index()))
    }

    fn register_name(&self, reg: RegisterId) -> String {
        let i = reg.index();
        if i < self.n {
            format!("level[{i}]")
        } else {
            format!("victim[{}]", i - self.n + 1)
        }
    }

    fn name(&self) -> String {
        "filter".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exclusion_shmem::sched::{run_random, run_round_robin, run_sequential};

    #[test]
    fn sequential_canonical_quadratic_solo_cost() {
        let alg = Filter::new(6);
        let order: Vec<_> = ProcessId::all(6).collect();
        let exec = run_sequential(&alg, &order, 100_000).unwrap();
        assert!(exec.is_canonical(6));
        // Each passage visits n-1 levels, each scanning n-1 rivals.
        assert!(exec.shared_accesses() >= 6 * 5 * 5);
    }

    #[test]
    fn contended_schedules_are_safe() {
        for n in [2, 3, 4] {
            let alg = Filter::new(n);
            let exec = run_round_robin(&alg, 2, 1_000_000).unwrap();
            assert!(exec.mutual_exclusion(n));
            for seed in 0..10 {
                let exec = run_random(&alg, 1, 1_000_000, seed).unwrap();
                assert!(exec.mutual_exclusion(n), "n = {n}, seed = {seed}");
            }
        }
    }
}
