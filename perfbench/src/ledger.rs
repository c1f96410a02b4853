//! The layer ledger: a workload's recorded schedules replayed through
//! the benchmark's own loop over the public step pipeline,
//! `System::step` → `CostTracker::observe` → `ViewTable::apply` →
//! `Scheduler::pick`, one layer added per pass, so each pass's time per
//! step is the cumulative cost of its layers (ROADMAP item 3's table).

use std::hint::black_box;
use std::time::Instant;

use exclusion_cost::CostTracker;
use exclusion_shmem::{
    canonicalize_snapshot, DynAutomaton, DynRef, ProcessId, SchedContext, Scheduler, System,
    ViewTable,
};

use crate::alloc::Counting;
use crate::stats::median;

/// One recorded run: the automaton, how its engine kept views, and the
/// schedule it took.
pub struct Tape<'a> {
    /// The automaton the run drove.
    pub alg: &'a dyn DynAutomaton,
    /// The passage target the engine's view table used.
    pub passages: usize,
    /// Whether the engine's scheduler wanted step previews.
    pub previews: bool,
    /// The recorded picks, replayed by the last pass's `pick`.
    pub picks: Vec<ProcessId>,
}

/// Replays recorded picks by step index, like `sched::Script`, but
/// borrowing them so a pass copies nothing.
struct Replay<'a>(&'a [ProcessId]);

impl Scheduler for Replay<'_> {
    fn name(&self) -> String {
        "replay".into()
    }

    fn pick(&mut self, ctx: &SchedContext<'_>) -> Option<ProcessId> {
        self.0.get(ctx.step).copied()
    }
}

/// Where replaying one tape ended.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct Replayed {
    /// Steps the system took before the replayed scheduler stopped.
    pub steps: u64,
    /// Passages completed, over all processes.
    pub passages: u64,
    /// `[sc, cc, dsm]` totals.
    pub costs: [u64; 3],
}

/// What replaying a set of tapes measured.
pub struct Ledger {
    /// Where each tape's replay ended.
    pub per_tape: Vec<Replayed>,
    /// Steps over all tapes.
    pub steps: u64,
    /// Cumulative median ns per step: step, +observe, +apply, +pick.
    pub cumulative_ns: [f64; 4],
}

impl Ledger {
    /// Per-layer ns per step: the differences of the cumulative columns.
    pub fn layer_ns(&self) -> [f64; 4] {
        let c = self.cumulative_ns;
        [c[0], c[1] - c[0], c[2] - c[1], c[3] - c[2]]
    }
}

/// One pass over every tape with the first `L + 1` layers of the
/// pipeline; returns where each tape's replay ended. Each pass steps
/// until its source of picks runs out: the recorded picks, or in the
/// last pass the replaying scheduler, which returns `None` past them.
fn pass<const L: u8>(tapes: &[Tape<'_>]) -> Vec<Replayed> {
    let mut out = Vec::with_capacity(tapes.len());
    for tape in tapes {
        let alg = DynRef(tape.alg);
        let mut sys = System::new(&alg);
        let mut tracker = CostTracker::new(&alg);
        let mut table = ViewTable::new(&sys, tape.passages, tape.previews);
        let picks = &tape.picks;
        let mut script = Replay(picks);
        let mut steps = 0;
        loop {
            let next = if L >= 3 {
                let ctx = SchedContext {
                    step: steps,
                    target_passages: tape.passages,
                    views: table.views(),
                };
                script.pick(&ctx)
            } else {
                picks.get(steps).copied()
            };
            let Some(pid) = next else { break };
            steps += 1;
            let done = sys.step(pid);
            if L >= 1 {
                tracker.observe(&done);
            }
            if L >= 2 {
                table.apply(&sys, tape.passages, &done);
            }
        }
        let costs = [
            tracker.sc().total() as u64,
            tracker.cc().total() as u64,
            tracker.dsm().total() as u64,
        ];
        let passages = (0..sys.processes())
            .map(|i| sys.passages(ProcessId::new(i)) as u64)
            .sum();
        out.push(black_box(Replayed {
            steps: steps as u64,
            passages,
            costs,
        }));
    }
    out
}

fn timed<T>(repeat: usize, f: impl Fn() -> T) -> (f64, T) {
    let t = Instant::now();
    for _ in 1..repeat {
        black_box(f());
    }
    let out = f();
    (t.elapsed().as_nanos() as f64 / repeat as f64, out)
}

/// Replays `tapes` through all four passes `rounds` times, rotating the
/// passes so drift hits each alike, and takes each pass's median. Short
/// tape sets repeat inside a sample until it lasts about 100 ms.
pub fn replay(tapes: &[Tape<'_>], rounds: usize) -> Ledger {
    let steps: u64 = tapes.iter().map(|t| t.picks.len() as u64).sum();
    let (probe_ns, per_tape) = timed(1, || pass::<3>(tapes));
    let repeat = (100e6 / probe_ns.max(1.0)).ceil().max(1.0) as usize;
    let mut samples: [Vec<f64>; 4] = Default::default();
    for _ in 0..rounds {
        samples[0].push(timed(repeat, || pass::<0>(tapes)).0);
        samples[1].push(timed(repeat, || pass::<1>(tapes)).0);
        samples[2].push(timed(repeat, || pass::<2>(tapes)).0);
        samples[3].push(timed(repeat, || pass::<3>(tapes)).0);
    }
    let per_step = |s: &mut Vec<f64>| median(s) / steps.max(1) as f64;
    Ledger {
        per_tape,
        steps,
        cumulative_ns: [
            per_step(&mut samples[0]),
            per_step(&mut samples[1]),
            per_step(&mut samples[2]),
            per_step(&mut samples[3]),
        ],
    }
}

/// Costs of `System::snapshot` and `canonicalize_snapshot` at the
/// states the tapes pass through.
pub struct SnapshotCosts {
    /// Median ns per `snapshot()`.
    pub snapshot_ns: f64,
    /// Allocations per `snapshot()`.
    pub snapshot_allocs: f64,
    /// Median ns per `canonicalize_snapshot`.
    pub canonicalize_ns: f64,
    /// States sampled.
    pub states: u64,
}

/// Samples up to `budget` states spread evenly over the tapes and, at
/// each, times a batch of snapshots and of canonicalizations (less one
/// clock read pair, `timer_ns`) and counts the snapshots' allocations.
pub fn snapshot_costs(tapes: &[Tape<'_>], budget: u64, timer_ns: f64) -> SnapshotCosts {
    const BATCH: u32 = 32;
    let per_call = |t: Instant| (t.elapsed().as_nanos() as f64 - timer_ns) / f64::from(BATCH);
    let steps: u64 = tapes.iter().map(|t| t.picks.len() as u64 + 1).sum();
    let stride = steps.div_ceil(budget.max(1)).max(1);
    let (mut snap, mut canon) = (Vec::new(), Vec::new());
    let (mut allocs, mut states) = (0u64, 0u64);
    let mut k = 0u64;
    for tape in tapes {
        let alg = DynRef(tape.alg);
        let mut sys = System::new(&alg);
        let picks = &tape.picks;
        for i in 0..=picks.len() {
            if k.is_multiple_of(stride) {
                let t = Instant::now();
                for _ in 0..BATCH {
                    black_box(sys.snapshot());
                }
                snap.push(per_call(t));
                let s = sys.snapshot();
                let t = Instant::now();
                for _ in 0..BATCH {
                    black_box(canonicalize_snapshot(tape.alg, &s));
                }
                canon.push(per_call(t));
                let counting = Counting::start();
                black_box(sys.snapshot());
                allocs += counting.count();
                drop(counting);
                states += 1;
            }
            k += 1;
            if let Some(&p) = picks.get(i) {
                sys.step(p);
            }
        }
    }
    SnapshotCosts {
        snapshot_ns: median(&mut snap),
        snapshot_allocs: allocs as f64 / states.max(1) as f64,
        canonicalize_ns: median(&mut canon),
        states,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exclusion_cost::run_priced;
    use exclusion_mutex::registry::AlgorithmRegistry;
    use exclusion_shmem::sched::{RoundRobin, Traced};

    #[test]
    fn a_replay_ends_where_the_recorded_run_ended() {
        let alg = AlgorithmRegistry::global()
            .resolve_str("peterson", 3)
            .unwrap()
            .automaton;
        let mut traced = Traced::new(RoundRobin::new());
        let run = run_priced(&DynRef(alg.as_ref()), &mut traced, 2, 100_000).unwrap();
        let tape = |picks| Tape {
            alg: alg.as_ref(),
            passages: 2,
            previews: false,
            picks,
        };
        let picks = traced.into_picks();
        let whole = replay(&[tape(picks.clone())], 1).per_tape[0];
        assert_eq!(
            whole,
            Replayed {
                steps: run.steps as u64,
                passages: 6,
                costs: [run.sc.total(), run.cc.total(), run.dsm.total()].map(|c| c as u64),
            }
        );
        // A tape cut short replays to a different end.
        let cut = replay(&[tape(picks[..picks.len() - 1].to_vec())], 1).per_tape[0];
        assert_eq!(cut.steps, whole.steps - 1);
        assert!(cut.passages < whole.passages || cut.costs != whole.costs);
    }
}
