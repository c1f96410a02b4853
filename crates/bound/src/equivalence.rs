//! The spec for the adversaries' incremental pick index: both
//! adversaries must pick exactly what their full-scan predecessors
//! picked, at every step, under every driver.
//!
//! [`ReferenceGreedy`] and [`ReferenceAdaptive`] are those predecessors,
//! kept verbatim: each pick scans all `n` views. [`Checked`] drives an
//! incremental adversary and its reference in lockstep over the same
//! contexts and fails on the first pick where they differ. The drivers
//! covered: `run_priced` over the deadlock-free registry, `run_faulted`
//! with crash plans over the recoverable locks, serve (whose idle lanes flip `done` between steps
//! without reporting them, so every pick diffs), a hand-built driver
//! that polls twice at one step, and adversaries reused across runs and
//! sizes.

use std::cmp::Reverse;

use exclusion_cost::run_priced;
use exclusion_mutex::registry::{AlgorithmInfo, AlgorithmRegistry};
use exclusion_mutex::Peterson;
use exclusion_serve::{serve, ServeJob, ServeOptions};
use exclusion_shmem::sched::{GreedyAdversary, SchedContext, Scheduler, ViewTable};
use exclusion_shmem::{
    run_faulted, CritKind, DynRef, Executed, FaultPlan, NextStep, NoProbe, ProcessId, System,
};

use crate::adversary::{mix, Partition};
use crate::force::{play, BoundConfig};
use crate::AdaptiveAdversary;

/// The greedy adversary as it was before the pick index: one pass over
/// all views per pick.
#[derive(Clone, Debug)]
struct ReferenceGreedy {
    last_picked: Vec<Option<usize>>,
    patience: Option<usize>,
}

impl Scheduler for ReferenceGreedy {
    fn name(&self) -> String {
        "greedy-reference".into()
    }

    fn pick(&mut self, ctx: &SchedContext<'_>) -> Option<ProcessId> {
        let n = ctx.views.len();
        let patience = self.patience.unwrap_or(4 * n + 4);
        if self.last_picked.len() != n {
            self.last_picked = vec![None; n];
        } else if ctx.step == 0 {
            self.last_picked.fill(None);
        }
        type GreedyKey = (usize, usize, Reverse<usize>, usize);
        let mut starved: Option<(usize, ProcessId)> = None;
        let mut best: Option<(GreedyKey, ProcessId)> = None;
        for v in ctx.live() {
            let waited = match self.last_picked[v.pid.index()] {
                Some(s) => ctx.step.saturating_sub(s + 1),
                None => ctx.step,
            };
            if waited >= patience && starved.is_none_or(|(w, _)| waited >= w) {
                starved = Some((waited, v.pid));
            }
            let class = match (v.next, v.changes_state) {
                (NextStep::Crit(CritKind::Try), _) => 0usize,
                (NextStep::Write(..) | NextStep::Rmw(..), true) => 1,
                (NextStep::Read(_), true) => 2,
                (NextStep::Crit(_), _) => 3,
                (_, false) => 4,
            };
            let key = (class, v.passages, Reverse(waited), v.pid.index());
            if best.is_none_or(|(k, _)| key < k) {
                best = Some((key, v.pid));
            }
        }
        let picked = starved.map(|(_, p)| p).or(best.map(|(_, p)| p))?;
        self.last_picked[picked.index()] = Some(ctx.step);
        Some(picked)
    }

    fn wants_step_previews(&self) -> bool {
        true
    }
}

/// The adaptive adversary as it was before the pick index: an audience
/// pass and a classification pass over all views per pick.
#[derive(Clone, Debug)]
struct ReferenceAdaptive {
    tiebreak: u64,
    patience: Option<usize>,
    last_picked: Vec<Option<usize>>,
    last_writer: Vec<Option<ProcessId>>,
    aware: Partition,
    audience: Vec<usize>,
}

impl ReferenceAdaptive {
    fn ensure_register(&mut self, reg: exclusion_shmem::RegisterId) {
        if reg.index() >= self.last_writer.len() {
            self.last_writer.resize(reg.index() + 1, None);
        }
        if reg.index() >= self.audience.len() {
            self.audience.resize(reg.index() + 1, 0);
        }
    }

    fn learn(&mut self, pid: ProcessId, next: NextStep, charged: bool) {
        match next {
            NextStep::Read(reg) => {
                self.ensure_register(reg);
                if charged {
                    if let Some(w) = self.last_writer[reg.index()] {
                        self.aware.union(pid.index(), w.index());
                    }
                }
            }
            NextStep::Rmw(reg, _) => {
                self.ensure_register(reg);
                if charged {
                    if let Some(w) = self.last_writer[reg.index()] {
                        self.aware.union(pid.index(), w.index());
                    }
                }
                self.last_writer[reg.index()] = Some(pid);
            }
            NextStep::Write(reg, _) => {
                self.ensure_register(reg);
                self.last_writer[reg.index()] = Some(pid);
            }
            NextStep::Crit(_) => {}
        }
    }
}

impl Scheduler for ReferenceAdaptive {
    fn name(&self) -> String {
        "fanlynch-reference".into()
    }

    fn pick(&mut self, ctx: &SchedContext<'_>) -> Option<ProcessId> {
        let n = ctx.views.len();
        let patience = self.patience.unwrap_or(4 * n + 4);
        if self.last_picked.len() != n || ctx.step == 0 {
            self.last_picked.clear();
            self.last_picked.resize(n, None);
            self.last_writer.clear();
            self.audience.clear();
            self.aware.reset(n);
        }
        self.audience.iter_mut().for_each(|a| *a = 0);
        for v in ctx.live() {
            if let NextStep::Read(reg) | NextStep::Rmw(reg, _) = v.next {
                self.ensure_register(reg);
                self.audience[reg.index()] += 1;
            }
        }
        type Key = (usize, usize, usize, Reverse<usize>, usize);
        let mut starved: Option<(usize, ProcessId)> = None;
        let mut best: Option<(Key, ProcessId)> = None;
        for v in ctx.live() {
            let waited = match self.last_picked[v.pid.index()] {
                Some(s) => ctx.step.saturating_sub(s + 1),
                None => ctx.step,
            };
            if waited >= patience && starved.is_none_or(|(w, _)| waited >= w) {
                starved = Some((waited, v.pid));
            }
            let (class, subkey) = match (v.next, v.changes_state) {
                (NextStep::Crit(CritKind::Try), _) => (0usize, 0usize),
                (NextStep::Read(reg), true) => {
                    let merged = match self.last_writer.get(reg.index()).copied().flatten() {
                        Some(w) => self.aware.merged_size(v.pid.index(), w.index()),
                        None => self.aware.group_size(v.pid.index()),
                    };
                    (1, merged)
                }
                (NextStep::Write(reg, _) | NextStep::Rmw(reg, _), true) => {
                    (2, self.audience.get(reg.index()).copied().unwrap_or(0))
                }
                (NextStep::Crit(_), _) => (3, 0),
                (_, false) => (4, 0),
            };
            let key = (
                class,
                v.passages,
                subkey,
                Reverse(waited),
                v.pid.index() ^ (self.tiebreak as usize),
            );
            if best.is_none_or(|(k, _)| key < k) {
                best = Some((key, v.pid));
            }
        }
        let picked = starved.map(|(_, p)| p).or(best.map(|(_, p)| p))?;
        self.last_picked[picked.index()] = Some(ctx.step);
        let view = &ctx.views[picked.index()];
        self.learn(picked, view.next, view.changes_state);
        Some(picked)
    }

    fn wants_step_previews(&self) -> bool {
        true
    }
}

/// An incremental adversary and its reference, driven in lockstep:
/// every pick asks both and panics on the first disagreement.
/// Reported steps reach the incremental adversary only.
struct Checked<S, R> {
    inner: S,
    reference: R,
    picks: usize,
}

impl<S: Scheduler, R: Scheduler> Scheduler for Checked<S, R> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn pick(&mut self, ctx: &SchedContext<'_>) -> Option<ProcessId> {
        let got = self.inner.pick(ctx);
        let want = self.reference.pick(ctx);
        assert_eq!(
            got,
            want,
            "{} left its reference scan at pick {} (step {}, n = {})",
            self.inner.name(),
            self.picks,
            ctx.step,
            ctx.views.len()
        );
        self.picks += 1;
        got
    }

    fn wants_step_previews(&self) -> bool {
        self.inner.wants_step_previews()
    }

    fn executed(&mut self, done: &Executed) {
        self.inner.executed(done);
    }
}

fn greedy(patience: Option<usize>) -> Checked<GreedyAdversary, ReferenceGreedy> {
    Checked {
        inner: patience.map_or_else(GreedyAdversary::new, GreedyAdversary::with_patience),
        reference: ReferenceGreedy {
            last_picked: Vec::new(),
            patience,
        },
        picks: 0,
    }
}

fn adaptive(seed: u64, patience: Option<usize>) -> Checked<AdaptiveAdversary, ReferenceAdaptive> {
    Checked {
        inner: match patience {
            None => AdaptiveAdversary::new(seed),
            Some(p) => AdaptiveAdversary::with_patience(seed, p),
        },
        reference: ReferenceAdaptive {
            tiebreak: mix(seed),
            patience,
            last_picked: Vec::new(),
            last_writer: Vec::new(),
            aware: Partition::default(),
            audience: Vec::new(),
        },
        picks: 0,
    }
}

/// Seed `s` of the grid: the adaptive adversary's tie-break seed, and
/// for the greedy adversary (which has no seed) the default valve at
/// seed 0 and a tight `patience = s` valve otherwise, so the valve's
/// ties are exercised too.
fn greedy_patience(seed: u64) -> Option<usize> {
    (seed > 0).then_some(seed as usize)
}

#[test]
fn picks_match_the_reference_over_the_registry_under_run_priced() {
    let registry = AlgorithmRegistry::global();
    for n in [2, 3, 5, 8] {
        for entry in registry.instantiate(n, |info: &AlgorithmInfo| info.deadlock_free) {
            let alg = DynRef(entry.automaton.as_ref());
            for seed in 0..5 {
                let mut a = adaptive(seed, None);
                let _ = run_priced(&alg, &mut a, 1, 200_000);
                assert!(a.picks > 0, "{} n={n}", entry.label);
                assert_eq!(a.inner.diff_syncs(), 0, "{} n={n}", entry.label);
                let mut g = greedy(greedy_patience(seed));
                let _ = run_priced(&alg, &mut g, 1, 200_000);
                assert!(g.picks > 0, "{} n={n}", entry.label);
                assert_eq!(g.inner.diff_syncs(), 0, "{} n={n}", entry.label);
            }
        }
    }
}

#[test]
fn faulted_picks_match_the_reference_and_never_diff() {
    let registry = AlgorithmRegistry::global();
    let mut crashes = 0;
    for n in [2, 3, 5] {
        for entry in registry.instantiate(n, |info: &AlgorithmInfo| info.recoverable) {
            let alg = DynRef(entry.automaton.as_ref());
            for seed in 0..3 {
                for plan in [FaultPlan::random(seed, 4), FaultPlan::in_critical(3)] {
                    let mut a = adaptive(seed, None);
                    let mut a_plan = plan.clone();
                    let _ = run_faulted(&alg, &mut a, &mut a_plan, 2, 20_000);
                    assert!(a.picks > 0, "{} n={n}", entry.label);
                    assert_eq!(a.inner.diff_syncs(), 0, "{} n={n}", entry.label);
                    let mut g = greedy(greedy_patience(seed));
                    let mut g_plan = plan.clone();
                    let _ = run_faulted(&alg, &mut g, &mut g_plan, 2, 20_000);
                    assert!(g.picks > 0, "{} n={n}", entry.label);
                    assert_eq!(g.inner.diff_syncs(), 0, "{} n={n}", entry.label);
                    crashes += a_plan.crashes() + g_plan.crashes();
                }
            }
        }
    }
    assert!(crashes > 0, "no plan injected a crash");
}

#[test]
fn serve_picks_match_the_reference_through_the_diff_path() {
    let options = ServeOptions {
        workers: 1,
        stripe: 512,
        ..ServeOptions::default()
    };
    for (alg, n) in [("peterson", 4), ("tas-sim", 3), ("dekker-tree", 5)] {
        for arrivals in ["poisson:rate=0.25", "steady:gap=16"] {
            let base = ServeJob::new(alg, n, 2_000)
                .unwrap()
                .arrivals(arrivals)
                .unwrap();
            let jobs = [
                base.clone()
                    .scheduler("greedy", |seed| Box::new(greedy(greedy_patience(seed % 4)))),
                base.scheduler("fanlynch", |seed| Box::new(adaptive(seed, None))),
            ];
            for job in &jobs {
                let report = serve(job, &options);
                assert!(
                    report.errors.is_empty(),
                    "{alg} {arrivals}: {:?}",
                    report.errors
                );
                assert_eq!(report.completed, 2_000, "{alg} {arrivals}");
            }
        }
    }
}

/// Drives `sched` like `run_scheduler_with` does, except that every
/// step is polled twice (three times every third step) and only the
/// last answer runs: the discarded picks still advance the adversaries'
/// pick clocks, so the skip counts of the processes picked at the
/// current step saturate at 0.
fn run_repolling(alg: &DynRef<'_>, sched: &mut impl Scheduler, max_steps: usize) {
    let mut sys = System::new(alg);
    let mut table = ViewTable::new(&sys, 1, true);
    for step in 0..max_steps {
        let ctx = SchedContext {
            step,
            target_passages: 1,
            views: table.views(),
        };
        let polls = if step % 3 == 0 { 3 } else { 2 };
        let mut picked = None;
        for _ in 0..polls {
            picked = sched.pick(&ctx);
        }
        let Some(p) = picked else {
            return;
        };
        let done = sys.step(p);
        table.apply(&sys, 1, &done);
        sched.executed(&done);
    }
}

#[test]
fn repolled_picks_match_the_reference() {
    let registry = AlgorithmRegistry::global();
    for n in [2, 3, 5] {
        for entry in registry.instantiate(n, |info: &AlgorithmInfo| info.deadlock_free) {
            let alg = DynRef(entry.automaton.as_ref());
            for patience in [None, Some(0), Some(1), Some(3)] {
                let mut a = adaptive(7, patience);
                run_repolling(&alg, &mut a, 3_000);
                let mut g = greedy(patience);
                run_repolling(&alg, &mut g, 3_000);
                assert!(a.picks > 0 && g.picks > 0, "{}", entry.label);
            }
        }
    }
}

#[test]
fn reused_adversaries_match_the_reference_across_runs_and_sizes() {
    let mut a = adaptive(3, None);
    let mut g = greedy(None);
    for n in [5, 3, 5, 5, 2, 8] {
        let alg = Peterson::new(n);
        let _ = run_priced(&alg, &mut a, 2, 1_000_000).unwrap();
        let _ = run_priced(&alg, &mut g, 2, 1_000_000).unwrap();
        // A faulted run whose first step is a crash reaches the
        // adversaries at step 1: no reset, a stale model, and a diff.
        let mut plan = FaultPlan::at_steps(vec![(0, ProcessId::new(0))]);
        let _ = run_faulted(&alg, &mut a, &mut plan.clone(), 1, 1_000_000);
        let _ = run_faulted(&alg, &mut g, &mut plan, 1, 1_000_000);
    }
}

#[test]
fn a_force_game_never_takes_the_diff_path() {
    let registry = AlgorithmRegistry::global();
    let peterson = registry.resolve_str("peterson", 16).unwrap();
    let alg = peterson.automaton.as_ref();
    let cfg = BoundConfig::default();
    let (priced, traced) = play(alg, AdaptiveAdversary::new(cfg.seed), &cfg, NoProbe).unwrap();
    assert!(priced.steps > 0);
    assert_eq!(traced.into_inner().diff_syncs(), 0);
    let (priced, traced) = play(alg, GreedyAdversary::new(), &cfg, NoProbe).unwrap();
    assert!(priced.steps > 0);
    assert_eq!(traced.into_inner().diff_syncs(), 0);
}
