//! The construction step — procedures `Construct` and `Generate` of the
//! paper's Figure 1.
//!
//! Given an algorithm `A` and a permutation π, stage `i` runs process
//! `p_{π_i}` from its `try` to its `rem`, weaving its steps into the
//! partial order of metasteps built by the previous stages so that no
//! lower-indexed (earlier-in-π) process can ever observe it:
//!
//! * a **write** is inserted into the minimal unexecuted write metastep
//!   on the same register, where the metastep's winning write immediately
//!   overwrites it (line 16 of Figure 1) — or, if every write metastep on
//!   the register precedes the process's frontier, a fresh write metastep
//!   is created with this write as winner, ordered after all maximal
//!   unexecuted reads of the register (its *prereads*, lines 19–26);
//! * a **read** is inserted into the minimal unexecuted write metastep
//!   whose value would change the reader's state — the `SC` predicate
//!   (lines 28–31) — or, if none exists, becomes a fresh read metastep
//!   (the read of the *current* value must change the state, else the
//!   process is stuck and livelock freedom is violated);
//! * a **critical step** becomes its own metastep (lines 37–39).
//!
//! Two implementation notes:
//!
//! 1. Because the automaton is deterministic and a process's state
//!    depends only on its own projection, the stage threads the process
//!    state incrementally instead of re-linearizing `Plin(M, ≼, m′)` at
//!    every iteration; the equivalence is asserted by replay in tests.
//! 2. A fresh read metastep is additionally ordered before the minimal
//!    unexecuted write metastep on its register (becoming its preread),
//!    which pins down the value it reads in *every* linearization.

use exclusion_shmem::{Automaton, NextStep, Observation, ProcessId, RegisterId, Step, Value};

use crate::bitset::BitSet;
use crate::error::ConstructError;
use crate::metastep::{Metastep, MetastepId, MetastepKind};
use crate::perm::Permutation;

/// Direct-edge adjacency of the partial order `≼` (edges are the
/// relations the construction adds; `≼` is their reflexive-transitive
/// closure).
#[derive(Clone, Debug, Default)]
pub struct Dag {
    preds: Vec<Vec<MetastepId>>,
    succs: Vec<Vec<MetastepId>>,
}

impl Dag {
    fn add_node(&mut self) {
        self.preds.push(Vec::new());
        self.succs.push(Vec::new());
    }

    fn add_edge(&mut self, a: MetastepId, b: MetastepId) {
        debug_assert_ne!(a, b, "no self edges");
        self.preds[b.index()].push(a);
        self.succs[a.index()].push(b);
    }

    /// Direct predecessors of `m`.
    #[must_use]
    pub fn preds(&self, m: MetastepId) -> &[MetastepId] {
        &self.preds[m.index()]
    }

    /// Direct successors of `m`.
    #[must_use]
    pub fn succs(&self, m: MetastepId) -> &[MetastepId] {
        &self.succs[m.index()]
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.preds.len()
    }

    /// Whether the DAG has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.preds.is_empty()
    }

    /// Whether `a ≼ b` (reflexive, transitive reachability). Linear in
    /// the explored region; intended for tests and sparse queries — the
    /// construction itself uses a frontier bitset for its hot path.
    #[must_use]
    pub fn le(&self, a: MetastepId, b: MetastepId) -> bool {
        if a == b {
            return true;
        }
        let mut seen = BitSet::with_capacity(self.len());
        let mut stack = vec![b];
        while let Some(x) = stack.pop() {
            for &p in &self.preds[x.index()] {
                if p == a {
                    return true;
                }
                if seen.insert(p.index()) {
                    stack.push(p);
                }
            }
        }
        false
    }
}

/// The monotone ancestor set of the current stage's frontier metastep
/// `m′`: `contains(µ)` answers `µ ≼ m′` in O(1), and advancing the
/// frontier costs amortized O(edges) per stage.
struct Frontier {
    in_anc: BitSet,
}

impl Frontier {
    fn new() -> Self {
        Frontier {
            in_anc: BitSet::new(),
        }
    }

    fn contains(&self, m: MetastepId) -> bool {
        self.in_anc.contains(m.index())
    }

    /// Moves the frontier to `to` (which must be ≽ the previous
    /// frontier), pulling every new ancestor into the set.
    fn advance(&mut self, dag: &Dag, to: MetastepId) {
        let mut stack = vec![to];
        while let Some(x) = stack.pop() {
            if !self.in_anc.insert(x.index()) {
                continue;
            }
            for &p in &dag.preds[x.index()] {
                if !self.in_anc.contains(p.index()) {
                    stack.push(p);
                }
            }
        }
    }
}

/// Budget and variant switches for the construction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ConstructConfig {
    /// Maximum number of steps a single process may take in its stage.
    pub max_steps_per_stage: usize,
    /// Whether to apply the SR-read ordering completion (implementation
    /// note 2 of the module docs): order every fresh read metastep before the minimal
    /// unexecuted write metastep on its register. Disabling it
    /// reproduces Figure 1 verbatim; the E10 ablation measures how often
    /// the verbatim rule yields executions whose decoding breaks.
    pub sr_preread_remedy: bool,
}

impl Default for ConstructConfig {
    fn default() -> Self {
        ConstructConfig {
            max_steps_per_stage: 1_000_000,
            sr_preread_remedy: true,
        }
    }
}

/// The output of the construction step: the metastep set `M`, the
/// partial order `≼` (as its generating edges), and the bookkeeping the
/// encoding and decoding steps need.
#[derive(Clone, Debug)]
pub struct Construction {
    pub(crate) n: usize,
    pub(crate) registers: usize,
    pub(crate) metasteps: Vec<Metastep>,
    pub(crate) dag: Dag,
    /// Per process: the metasteps containing it, in its program order
    /// (they are totally ordered in ≼).
    pub(crate) chains: Vec<Vec<MetastepId>>,
    /// Per register: its write metasteps, in ≼ order (Lemma 5.3).
    pub(crate) reg_writes: Vec<Vec<MetastepId>>,
    /// The stage order: π for a full construction, a prefix of it for
    /// [`construct_stages`].
    pub(crate) stages: Vec<ProcessId>,
    /// How often the SR-read ordering completion (module docs, note 2)
    /// actually added an edge — i.e. a fresh read metastep coexisted
    /// with unexecuted writes on its register, making the read's value
    /// linearization-dependent under Figure 1 verbatim.
    pub(crate) sr_remedy_edges: usize,
}

impl Construction {
    /// Number of processes.
    #[must_use]
    pub fn processes(&self) -> usize {
        self.n
    }

    /// Number of registers of the underlying algorithm.
    #[must_use]
    pub fn registers(&self) -> usize {
        self.registers
    }

    /// The stage order this construction ran: the permutation π for a
    /// full construction, a prefix of one for [`construct_stages`].
    #[must_use]
    pub fn stages(&self) -> &[ProcessId] {
        &self.stages
    }

    /// All metasteps, indexed by [`MetastepId`].
    #[must_use]
    pub fn metasteps(&self) -> &[Metastep] {
        &self.metasteps
    }

    /// One metastep.
    #[must_use]
    pub fn metastep(&self, id: MetastepId) -> &Metastep {
        &self.metasteps[id.index()]
    }

    /// The partial order's generating edges.
    #[must_use]
    pub fn dag(&self) -> &Dag {
        &self.dag
    }

    /// The chain of metasteps containing process `p`, in program order.
    #[must_use]
    pub fn chain(&self, p: ProcessId) -> &[MetastepId] {
        &self.chains[p.index()]
    }

    /// The write metasteps of register `reg`, in ≼ order.
    #[must_use]
    pub fn register_writes(&self, reg: RegisterId) -> &[MetastepId] {
        &self.reg_writes[reg.index()]
    }

    /// The state-change cost `C` shared by all linearizations (Lemma
    /// 6.1), by the metastep accounting of Theorem 6.2.
    #[must_use]
    pub fn cost(&self) -> usize {
        self.metasteps.iter().map(Metastep::cost).sum()
    }

    /// Total number of process steps across all metasteps.
    #[must_use]
    pub fn total_steps(&self) -> usize {
        self.metasteps.iter().map(Metastep::size).sum()
    }

    /// Number of times the SR-read ordering completion added an edge
    /// (0 means Figure 1 verbatim would have produced the same partial
    /// order).
    #[must_use]
    pub fn sr_remedy_edges(&self) -> usize {
        self.sr_remedy_edges
    }
}

/// Runs `Construct(π)` (Figure 1) for `alg`.
///
/// # Errors
///
/// Returns [`ConstructError`] when the algorithm violates the paper's
/// livelock-freedom assumption for this permutation (a process busy-waits
/// forever or exceeds the stage budget) — see the error type for the
/// three diagnosed causes.
///
/// # Example
///
/// ```
/// use exclusion_lb::{construct, ConstructConfig, Permutation};
/// use exclusion_mutex::DekkerTournament;
///
/// let alg = DekkerTournament::new(4);
/// let pi = Permutation::reversed(4);
/// let c = construct(&alg, &pi, &ConstructConfig::default()).unwrap();
/// assert!(c.cost() > 0);
/// ```
pub fn construct<A: Automaton>(
    alg: &A,
    pi: &Permutation,
    cfg: &ConstructConfig,
) -> Result<Construction, ConstructError> {
    assert_eq!(
        pi.len(),
        alg.processes(),
        "permutation size must match process count"
    );
    construct_stages(alg, pi.order(), cfg)
}

/// Runs only the first `|stages|` stages of the construction — the
/// paper's intermediate `(M_i, ≼_i)`.
///
/// `stages` must list distinct processes; it need not cover all of them.
/// Lemma 5.4 says the processes of a stage prefix behave identically in
/// the prefix construction and in any extension — the workspace tests
/// verify exactly that through this entry point.
///
/// # Errors
///
/// Returns [`ConstructError`] as [`construct`] does.
///
/// # Panics
///
/// Panics if `stages` repeats a process or names one out of range.
pub fn construct_stages<A: Automaton>(
    alg: &A,
    stages: &[ProcessId],
    cfg: &ConstructConfig,
) -> Result<Construction, ConstructError> {
    let n = alg.processes();
    let mut seen = vec![false; n];
    for p in stages {
        assert!(p.index() < n, "{p} out of range");
        assert!(
            !std::mem::replace(&mut seen[p.index()], true),
            "{p} repeated"
        );
    }
    let registers = alg.registers();
    let mut c = Construction {
        n,
        registers,
        metasteps: Vec::new(),
        dag: Dag::default(),
        chains: vec![Vec::new(); n],
        reg_writes: vec![Vec::new(); registers],
        stages: stages.to_vec(),
        sr_remedy_edges: 0,
    };
    // Read metasteps per register that are not yet prereads and may still
    // be overtaken by a future write metastep (cleared at each write
    // metastep creation; see implementation note 2 in the module docs).
    let mut pending_reads: Vec<Vec<MetastepId>> = vec![Vec::new(); registers];

    for (stage, &pid) in stages.iter().enumerate() {
        generate(alg, &mut c, &mut pending_reads, stage, pid, cfg)?;
    }
    Ok(c)
}

/// One stage of the construction: `Generate(M, ≼, π_i)`.
fn generate<A: Automaton>(
    alg: &A,
    c: &mut Construction,
    pending_reads: &mut [Vec<MetastepId>],
    stage: usize,
    pid: ProcessId,
    cfg: &ConstructConfig,
) -> Result<(), ConstructError> {
    let mut state = alg.initial_state(pid);
    let mut frontier = Frontier::new();

    // Line 8: the stage opens with p's `try` metastep.
    let mut m_prev = new_crit(c, Step::crit(pid, exclusion_shmem::CritKind::Try));
    c.chains[pid.index()].push(m_prev);
    frontier.advance(&c.dag, m_prev);
    state = alg.observe(pid, &state, Observation::Crit);

    for _ in 0..cfg.max_steps_per_stage {
        match alg.next_step(pid, &state) {
            NextStep::Write(reg, value) => {
                let e = Step::write(pid, reg, value);
                let mw = first_unexecuted_write(c, &frontier, reg, |_| true);
                let target = if let Some(mw) = mw {
                    // Line 16: hide the write under mw's winner.
                    c.metasteps[mw.index()].writes.push(e);
                    mw
                } else {
                    // Lines 19–26: fresh write metastep, overtaking all
                    // pending reads on the register.
                    let m = new_write(c, reg, e);
                    let cands = std::mem::take(&mut pending_reads[reg.index()]);
                    for r in maximal_unexecuted(c, &frontier, cands) {
                        c.dag.add_edge(r, m);
                        c.metasteps[m.index()].pread.push(r);
                        c.metasteps[r.index()].preread_of = Some(m);
                    }
                    c.reg_writes[reg.index()].push(m);
                    m
                };
                c.chains[pid.index()].push(target);
                c.dag.add_edge(m_prev, target);
                m_prev = target;
                frontier.advance(&c.dag, m_prev);
                let next = alg.observe(pid, &state, Observation::Write);
                if next == state {
                    return Err(ConstructError::WriteLoop { stage, pid, reg });
                }
                state = next;
            }
            NextStep::Read(reg) => {
                let e = Step::read(pid, reg);
                // Lines 28–31: minimal unexecuted write metastep whose
                // value changes the reader's state.
                let msw = first_unexecuted_write(c, &frontier, reg, |m| {
                    let v = c.metasteps[m.index()].value().expect("write value");
                    alg.observe(pid, &state, Observation::Read(v)) != state
                });
                if let Some(msw) = msw {
                    let v = c.metasteps[msw.index()].value().expect("write value");
                    c.metasteps[msw.index()].reads.push(e);
                    c.chains[pid.index()].push(msw);
                    c.dag.add_edge(m_prev, msw);
                    m_prev = msw;
                    frontier.advance(&c.dag, m_prev);
                    state = alg.observe(pid, &state, Observation::Read(v));
                } else {
                    // Lines 33–35 (+ implementation note 2): fresh read
                    // metastep, reading the current value.
                    let cur = current_value(alg, c, &frontier, reg);
                    let next = alg.observe(pid, &state, Observation::Read(cur));
                    if next == state {
                        return Err(ConstructError::Stuck { stage, pid, reg });
                    }
                    let m = new_read(c, reg, e);
                    let wmin = cfg
                        .sr_preread_remedy
                        .then(|| first_unexecuted_write(c, &frontier, reg, |_| true))
                        .flatten();
                    if let Some(wmin) = wmin {
                        // Completion: pin the read before every
                        // unexecuted write on the register.
                        c.dag.add_edge(m, wmin);
                        c.metasteps[wmin.index()].pread.push(m);
                        c.metasteps[m.index()].preread_of = Some(wmin);
                        c.sr_remedy_edges += 1;
                    } else {
                        pending_reads[reg.index()].push(m);
                    }
                    c.chains[pid.index()].push(m);
                    c.dag.add_edge(m_prev, m);
                    m_prev = m;
                    frontier.advance(&c.dag, m_prev);
                    state = next;
                }
            }
            NextStep::Rmw(reg, _) => {
                // The paper's model has registers only; diagnose rather
                // than silently mis-handle stronger primitives.
                return Err(ConstructError::UnsupportedStep { stage, pid, reg });
            }
            NextStep::Crit(kind) => {
                // Lines 37–39.
                let m = new_crit(c, Step::crit(pid, kind));
                c.chains[pid.index()].push(m);
                c.dag.add_edge(m_prev, m);
                m_prev = m;
                frontier.advance(&c.dag, m_prev);
                state = alg.observe(pid, &state, Observation::Crit);
                if kind == exclusion_shmem::CritKind::Rem {
                    return Ok(());
                }
            }
        }
    }
    Err(ConstructError::BudgetExceeded {
        stage,
        pid,
        limit: cfg.max_steps_per_stage,
    })
}

/// The first (minimal, by Lemma 5.3's total order) write metastep on
/// `reg` that is not ≼ the frontier and satisfies `accept`.
fn first_unexecuted_write(
    c: &Construction,
    frontier: &Frontier,
    reg: RegisterId,
    accept: impl Fn(MetastepId) -> bool,
) -> Option<MetastepId> {
    c.reg_writes[reg.index()]
        .iter()
        .copied()
        .filter(|&m| !frontier.contains(m))
        .find(|&m| accept(m))
}

/// The value of `reg` at the frontier: the value of the last write
/// metastep ≼ m′, or the initial value.
fn current_value<A: Automaton>(
    alg: &A,
    c: &Construction,
    frontier: &Frontier,
    reg: RegisterId,
) -> Value {
    c.reg_writes[reg.index()]
        .iter()
        .take_while(|&&m| frontier.contains(m))
        .last()
        .and_then(|&m| c.metasteps[m.index()].value())
        .unwrap_or_else(|| alg.initial_value(reg))
}

/// The maximal (w.r.t. ≼) elements among the candidates not ≼ the
/// frontier — the set `Mr` of Figure 1 line 21.
fn maximal_unexecuted(
    c: &Construction,
    frontier: &Frontier,
    cands: Vec<MetastepId>,
) -> Vec<MetastepId> {
    let alive: Vec<MetastepId> = cands
        .into_iter()
        .filter(|&m| !frontier.contains(m))
        .collect();
    alive
        .iter()
        .copied()
        .filter(|&m| alive.iter().all(|&other| other == m || !c.dag.le(m, other)))
        .collect()
}

fn new_metastep(c: &mut Construction, m: Metastep) -> MetastepId {
    let id = m.id;
    c.metasteps.push(m);
    c.dag.add_node();
    id
}

fn new_crit(c: &mut Construction, step: Step) -> MetastepId {
    let id = MetastepId(c.metasteps.len() as u32);
    new_metastep(
        c,
        Metastep {
            id,
            kind: MetastepKind::Crit,
            reg: None,
            writes: Vec::new(),
            winner: None,
            reads: Vec::new(),
            crit: Some(step),
            pread: Vec::new(),
            preread_of: None,
        },
    )
}

fn new_write(c: &mut Construction, reg: RegisterId, winner: Step) -> MetastepId {
    let id = MetastepId(c.metasteps.len() as u32);
    new_metastep(
        c,
        Metastep {
            id,
            kind: MetastepKind::Write,
            reg: Some(reg),
            writes: Vec::new(),
            winner: Some(winner),
            reads: Vec::new(),
            crit: None,
            pread: Vec::new(),
            preread_of: None,
        },
    )
}

fn new_read(c: &mut Construction, reg: RegisterId, read: Step) -> MetastepId {
    let id = MetastepId(c.metasteps.len() as u32);
    new_metastep(
        c,
        Metastep {
            id,
            kind: MetastepKind::Read,
            reg: Some(reg),
            writes: Vec::new(),
            winner: None,
            reads: vec![read],
            crit: None,
            pread: Vec::new(),
            preread_of: None,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use exclusion_mutex::{AlgorithmInfo, AlgorithmRegistry, Bakery, DekkerTournament};
    use exclusion_shmem::testing::Alternator;
    use exclusion_shmem::Automaton;
    use exclusion_shmem::DynRef;

    #[test]
    fn dekker_identity_construction_succeeds() {
        let alg = DekkerTournament::new(4);
        let pi = Permutation::identity(4);
        let c = construct(&alg, &pi, &ConstructConfig::default()).unwrap();
        assert!(c.cost() > 0);
        // Every process chain starts with its try metastep and ends with
        // its rem metastep.
        for p in ProcessId::all(4) {
            let chain = c.chain(p);
            assert!(chain.len() >= 4);
            let first = c.metastep(chain[0]);
            assert_eq!(first.kind(), MetastepKind::Crit);
            let last = c.metastep(*chain.last().unwrap());
            assert_eq!(
                last.crit().and_then(Step::crit_kind),
                Some(exclusion_shmem::CritKind::Rem)
            );
        }
    }

    #[test]
    fn whole_suite_constructs_for_assorted_permutations() {
        for r in AlgorithmRegistry::global().instantiate(5, AlgorithmInfo::register_only) {
            let alg = DynRef(r.automaton.as_ref());
            for pi in [
                Permutation::identity(5),
                Permutation::reversed(5),
                Permutation::unrank(5, 77),
            ] {
                let c = construct(&alg, &pi, &ConstructConfig::default())
                    .unwrap_or_else(|e| panic!("{} {pi}: {e}", alg.name()));
                assert!(c.cost() > 0, "{}", alg.name());
                assert_eq!(c.processes(), 5);
            }
        }
    }

    #[test]
    fn register_writes_are_chain_ordered() {
        let alg = Bakery::new(4);
        let pi = Permutation::reversed(4);
        let c = construct(&alg, &pi, &ConstructConfig::default()).unwrap();
        // Lemma 5.3: per register, write metasteps are totally ordered;
        // our list is in creation order, which must agree with ≼.
        for reg in exclusion_shmem::RegisterId::all(alg.registers()) {
            let ws = c.register_writes(reg);
            for pair in ws.windows(2) {
                assert!(c.dag().le(pair[0], pair[1]));
                assert!(!c.dag().le(pair[1], pair[0]));
            }
        }
    }

    #[test]
    fn process_chains_are_totally_ordered() {
        let alg = DekkerTournament::new(4);
        let pi = Permutation::unrank(4, 13);
        let c = construct(&alg, &pi, &ConstructConfig::default()).unwrap();
        for p in ProcessId::all(4) {
            let chain = c.chain(p);
            for pair in chain.windows(2) {
                assert!(
                    c.dag().le(pair[0], pair[1]),
                    "{p}: {} and {} unordered",
                    pair[0],
                    pair[1]
                );
            }
        }
    }

    #[test]
    fn each_process_takes_at_most_one_step_per_metastep() {
        let alg = Bakery::new(5);
        let pi = Permutation::unrank(5, 99);
        let c = construct(&alg, &pi, &ConstructConfig::default()).unwrap();
        for m in c.metasteps() {
            let mut owners: Vec<_> = m.owners().collect();
            owners.sort();
            let before = owners.len();
            owners.dedup();
            assert_eq!(before, owners.len(), "{} has a duplicate owner", m.id());
        }
    }

    #[test]
    fn alternator_with_wrong_permutation_is_diagnosed_stuck() {
        // Alternator is not livelock-free: p1 cannot enter before p0.
        let alg = Alternator::new(2);
        let pi = Permutation::reversed(2);
        let err = construct(&alg, &pi, &ConstructConfig::default()).unwrap_err();
        assert!(
            matches!(err, ConstructError::Stuck { stage: 0, .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn alternator_identity_constructs() {
        let alg = Alternator::new(3);
        let pi = Permutation::identity(3);
        let c = construct(&alg, &pi, &ConstructConfig::default()).unwrap();
        assert!(c.cost() > 0);
    }

    #[test]
    fn prereads_are_mutual() {
        // Wherever pread(m) lists r, the read r records preread_of = m,
        // and the edge r ≼ m exists.
        let alg = Bakery::new(4);
        let pi = Permutation::reversed(4);
        let c = construct(&alg, &pi, &ConstructConfig::default()).unwrap();
        let mut prereads_seen = 0;
        for m in c.metasteps() {
            for &r in m.pread() {
                prereads_seen += 1;
                assert_eq!(c.metastep(r).preread_of(), Some(m.id()));
                assert!(c.dag().le(r, m.id()));
            }
        }
        // Bakery's doorway scan makes prereads plentiful here.
        assert!(prereads_seen > 0);
    }

    /// A two-process automaton exhibiting the read-value ambiguity of
    /// Figure 1 verbatim (module docs, note 2): `p0` writes `ℓ := 1` and
    /// stops; `p1` busy-waits until `ℓ == 0` (the initial value). In
    /// stage 1, `p0`'s write is unexecuted but reading its value would
    /// *not* change `p1`'s state, so `p1`'s read becomes a fresh read
    /// metastep — and without the ordering completion it is unordered
    /// against the write, making the value it reads depend on the
    /// linearization.
    #[derive(Clone, Copy, Debug)]
    struct GateToy;

    impl exclusion_shmem::Automaton for GateToy {
        type State = u8;

        fn processes(&self) -> usize {
            2
        }
        fn registers(&self) -> usize {
            1
        }
        fn initial_state(&self, _p: ProcessId) -> u8 {
            0
        }
        fn next_step(&self, p: ProcessId, s: &u8) -> exclusion_shmem::NextStep {
            use exclusion_shmem::{CritKind, NextStep};
            match (p.index(), s) {
                (_, 0) => NextStep::Crit(CritKind::Try),
                (0, 1) => NextStep::Write(RegisterId::new(0), 1),
                (1, 1) => NextStep::Read(RegisterId::new(0)),
                (_, 2) => NextStep::Crit(CritKind::Enter),
                (_, 3) => NextStep::Crit(CritKind::Exit),
                _ => NextStep::Crit(CritKind::Rem),
            }
        }
        fn observe(&self, p: ProcessId, s: &u8, obs: exclusion_shmem::Observation) -> u8 {
            use exclusion_shmem::Observation;
            match (p.index(), s, obs) {
                (1, 1, Observation::Read(v)) => {
                    if v == 0 {
                        2 // gate open: proceed
                    } else {
                        1 // keep spinning
                    }
                }
                (_, 4, _) => 0,
                _ => s + 1,
            }
        }
    }

    #[test]
    fn remedy_pins_the_ambiguous_read() {
        let pi = Permutation::identity(2);
        let c = construct(&GateToy, &pi, &ConstructConfig::default()).unwrap();
        assert_eq!(c.sr_remedy_edges(), 1, "the completion must fire once");
        // With the completion, every linearization replays: p1's read is
        // ordered before p0's write and always returns 0.
        for seed in 0..20 {
            let lin = c.linearize_random(seed);
            exclusion_shmem::replay(&GateToy, lin.steps(), |_| {})
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn without_remedy_some_linearization_diverges() {
        let pi = Permutation::identity(2);
        let cfg = ConstructConfig {
            sr_preread_remedy: false,
            ..ConstructConfig::default()
        };
        let c = construct(&GateToy, &pi, &cfg).unwrap();
        assert_eq!(c.sr_remedy_edges(), 0);
        let mut diverged = false;
        let mut lins = vec![c.linearize()];
        lins.extend((0..20).map(|s| c.linearize_random(s)));
        for lin in lins {
            if exclusion_shmem::replay(&GateToy, lin.steps(), |_| {}).is_err() {
                diverged = true;
                break;
            }
        }
        assert!(
            diverged,
            "Figure 1 verbatim must leave a linearization whose read sees the wrong value"
        );
    }

    #[test]
    fn papers_own_preread_rule_covers_the_reverse_order() {
        // With π = (1 0), the read metastep exists *before* the write is
        // created, and Figure 1's own lines 21–24 order it as a preread:
        // no completion needed, all linearizations replay.
        let pi = Permutation::reversed(2);
        let cfg = ConstructConfig {
            sr_preread_remedy: false,
            ..ConstructConfig::default()
        };
        let c = construct(&GateToy, &pi, &cfg).unwrap();
        for seed in 0..20 {
            let lin = c.linearize_random(seed);
            exclusion_shmem::replay(&GateToy, lin.steps(), |_| {})
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn suite_never_triggers_the_remedy() {
        // The real algorithms' busy-waits are always released by an
        // already-constructed state-changing write, so the completion's
        // precondition never arises for them (reported in E10b).
        for r in AlgorithmRegistry::global().instantiate(5, AlgorithmInfo::register_only) {
            let alg = DynRef(r.automaton.as_ref());
            for rank in [0u64, 60, 119] {
                let pi = Permutation::unrank(5, rank);
                let c = construct(&alg, &pi, &ConstructConfig::default()).unwrap();
                assert_eq!(c.sr_remedy_edges(), 0, "{}", alg.name());
            }
        }
    }

    #[test]
    fn cost_equals_step_accounting() {
        let alg = DekkerTournament::new(4);
        let pi = Permutation::identity(4);
        let c = construct(&alg, &pi, &ConstructConfig::default()).unwrap();
        let by_hand: usize = c
            .metasteps()
            .iter()
            .map(|m| match m.kind() {
                MetastepKind::Crit => 0,
                MetastepKind::Read => 1,
                MetastepKind::Write => m.writes().len() + 1 + m.reads().len(),
            })
            .sum();
        assert_eq!(c.cost(), by_hand);
    }
}
