//! The adaptive lower-bound adversary: a stateful [`Scheduler`] that
//! plays the paper's information-theoretic game move by move.
//!
//! # Strategy
//!
//! The paper's adversary forces Ω(n log n) state changes by controlling
//! *what each process knows*: as long as two processes have never
//! (transitively) observed each other's writes, the adversary can still
//! order them either way, and every bit of ordering information it is
//! forced to reveal costs the algorithm a state change. The executable
//! strategy here maintains exactly that structure — an *awareness
//! partition* of the processes, coarsened as scheduled reads observe
//! scheduled writes — and picks the next process by three rules, refined
//! from the greedy charged-steps-first adversary:
//!
//! 1. **Harvest reads before writes.** A charged read is a unit of cost
//!    with no externality: executing it cannot un-charge anyone else's
//!    pending step. A charged write can — it may overwrite the very
//!    value other processes were about to be charged for reading. So
//!    among charged shared steps, all pending charged reads are
//!    harvested before the next write is allowed to clobber a register
//!    ([`GreedyAdversary`] schedules writes first and routinely donates
//!    those reads back to the algorithm).
//! 2. **Reveal to the smallest audience.** Among charged writes, prefer
//!    the register with the fewest pending readers: information the
//!    algorithm must pay to re-acquire later, revealed to as few
//!    processes as possible per step — the move-by-move version of
//!    keeping unaware groups large.
//! 3. **Merge balanced.** Among charged reads, prefer the one whose
//!    observation merges the two *smallest* awareness groups (the read's
//!    process and the last writer of its register). Balanced merges
//!    maximize the number of merge rounds the adversary can force —
//!    log n rounds, as in the encoding argument — instead of growing one
//!    aware blob that absorbs singletons in a linear number of cheap
//!    steps.
//!
//! Everything else matches the greedy adversary deliberately: `try`
//! steps are recruited first (contention needs participants), free
//! critical steps and free spins come last, ties prefer the fewest
//! completed passages, and the same starvation valve keeps the schedule
//! fair in the paper's sense so runs of livelock-free algorithms
//! terminate. The valve is also what makes *unbounded* SC algorithms
//! (remote spins, pumpable forever by a true adversary) yield a finite
//! forced cost: the adversary milks each pump for `patience` picks per
//! valve window and no more.
//!
//! The adversary infers everything from the [`SchedContext`] it is
//! shown: each pick executes the picked process's previewed step, so
//! the last writer of every register and the awareness partition are
//! reconstructed exactly, with no access to the [`System`] internals —
//! it composes with every generic driver, including the streaming
//! pricer `run_priced`, unchanged.
//!
//! # Pick cost
//!
//! The adversary does not rescan the `n` views per pick. Its pick order
//! lives in a [`PickIndex`] (shared with the greedy adversary), and each
//! pick re-keys only the processes whose key can have moved since the
//! last one:
//!
//! * the processes whose views changed — the one that stepped, and the
//!   waiters of the register it wrote, whose previews can flip;
//! * the charged writers of a register whose audience changed (rule 2's
//!   subkey), found through the index's per-register writer lists;
//! * the pending readers of a register whose last writer changed, and,
//!   after a fresh awareness merge, every charged read (rule 3's
//!   subkey; merges are rare — hundreds per game against hundreds of
//!   thousands of picks).
//!
//! Audiences are counts kept current as views change, not a pass per
//! pick. Drivers that report every step through
//! [`Scheduler::executed`] (`run_scheduler_with`, `run_priced`,
//! `run_faulted_with`, and [`Traced`] wrappers around the adversary)
//! let the index find the changed views from those reports; any other
//! driver still gets the same picks, with the index diffing the views
//! it is shown against its own copy. A pick then costs
//! O(affected · log n); at n = 256–1024 the game runs several times
//! faster than with the per-pick scan, and picks stay bit-identical to
//! it (the reference scans live on in this crate's equivalence tests).
//!
//! Determinism: picks are a pure function of the observed run prefix
//! and the seed (which only perturbs final tie-breaks); all state lives
//! in index-addressed vectors, so there is no hash-iteration
//! nondeterminism to leak in. Same algorithm, `n` and seed ⇒ the same
//! schedule, bit for bit, pinned by the workspace's determinism suite.
//!
//! [`GreedyAdversary`]: exclusion_shmem::sched::GreedyAdversary
//! [`System`]: exclusion_shmem::System
//! [`Traced`]: exclusion_shmem::sched::Traced

use exclusion_shmem::probe::{NoProbe, Probe, TraceEvent};
use exclusion_shmem::sched::{PickIndex, SchedContext, Scheduler};
use exclusion_shmem::{CritKind, Executed, NextStep, ProcessId, ProcessView, RegisterId};

/// Deterministically scrambles the seed into a tie-break mask
/// (SplitMix64 finalizer).
pub(crate) fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Union-find over process indices, by size with path halving — the
/// awareness partition. Plain vectors, fully deterministic.
#[derive(Clone, Debug, Default)]
pub(crate) struct Partition {
    parent: Vec<usize>,
    size: Vec<usize>,
}

impl Partition {
    pub(crate) fn reset(&mut self, n: usize) {
        self.parent.clear();
        self.parent.extend(0..n);
        self.size.clear();
        self.size.resize(n, 1);
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    /// Size of the group `x` belongs to.
    pub(crate) fn group_size(&mut self, x: usize) -> usize {
        let root = self.find(x);
        self.size[root]
    }

    /// The size the merged group of `a` and `b` would have (their
    /// current combined size; just `|group(a)|` when already merged).
    pub(crate) fn merged_size(&mut self, a: usize, b: usize) -> usize {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            self.size[ra]
        } else {
            self.size[ra] + self.size[rb]
        }
    }

    pub(crate) fn union(&mut self, a: usize, b: usize) {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        if self.size[ra] < self.size[rb] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb] = ra;
        self.size[ra] += self.size[rb];
    }
}

/// The adaptive lower-bound adversary (see the module docs for the
/// strategy). Registered in the scheduler registry as `fanlynch`, after
/// the paper's authors.
///
/// The probe parameter `P` defaults to [`NoProbe`], so the adversary is
/// unobserved (and its instrumentation compiles away) unless
/// [`with_probe`](AdaptiveAdversary::with_probe) attaches one; a probed
/// adversary reports each strategy move as it happens —
/// [`Harvest`](TraceEvent::Harvest) for rule 1,
/// [`Reveal`](TraceEvent::Reveal) for rule 2, and
/// [`Merge`](TraceEvent::Merge) whenever the awareness partition
/// coarsens. The probe never influences a pick: probed and unprobed
/// adversaries produce bit-identical schedules (pinned by
/// `tests/trace_equivalence.rs`).
///
/// # Example
///
/// ```
/// use exclusion_bound::AdaptiveAdversary;
/// use exclusion_cost::run_priced;
/// use exclusion_mutex::DekkerTournament;
///
/// let alg = DekkerTournament::new(8);
/// let priced = run_priced(&alg, &mut AdaptiveAdversary::new(0), 1, 1_000_000).unwrap();
/// assert!(priced.sc.total() > 0);
/// ```
#[derive(Clone, Debug)]
pub struct AdaptiveAdversary<P: Probe = NoProbe> {
    patience: Option<usize>,
    /// The live processes by `(class, passages, subkey)`, then
    /// longest-unscheduled, then the seed-perturbed pid; also the
    /// starvation valve's pick clock, exactly as in the greedy
    /// adversary.
    index: PickIndex,
    /// `last_writer[r]`: the process whose (scheduled) write or RMW
    /// most recently set register `r`. Grown on demand — the adversary
    /// learns the register space from the previews it sees.
    last_writer: Vec<Option<ProcessId>>,
    /// The awareness partition: groups of processes that have
    /// (transitively) observed each other.
    aware: Partition,
    /// `audience[r]`: live processes whose pending step reads register
    /// `r` (the audience a write to `r` would reveal to), kept current
    /// as views change. Grown on demand.
    audience: Vec<usize>,
    /// Scratch: registers whose audience changed this pick.
    moved: Vec<RegisterId>,
    /// Whether the awareness partition coarsened since the last pick,
    /// which moves every charged read's merge-size subkey.
    merged: bool,
    /// Observer of strategy moves; [`NoProbe`] by default.
    probe: P,
}

/// The pick key before the skip clock and the tie-break — class, fewest
/// passages, then the class's knowledge subkey (a group or audience
/// size, so below `n`) — packed into a [`PickIndex`] rank. Every field
/// fits its bits exactly, so the packed order is the tuple order.
fn rank(class: usize, passages: usize, subkey: usize) -> u128 {
    (class as u128) << 120 | (passages as u128) << 56 | subkey as u128
}

impl AdaptiveAdversary {
    /// An adaptive adversary with the default patience of `4·n + 4`
    /// picks (the greedy adversary's valve, for like-for-like
    /// comparisons). The seed perturbs final tie-breaks only.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        AdaptiveAdversary {
            patience: None,
            index: PickIndex::new(mix(seed) as usize),
            last_writer: Vec::new(),
            aware: Partition::default(),
            audience: Vec::new(),
            moved: Vec::new(),
            merged: false,
            probe: NoProbe,
        }
    }

    /// An adversary whose starvation valve triggers after `patience`
    /// consecutive skips. Lower is fairer (and extracts less from
    /// pumpable spins); `usize::MAX` disables the valve, and runs of
    /// remote-spin algorithms may then exhaust their budget.
    #[must_use]
    pub fn with_patience(seed: u64, patience: usize) -> Self {
        AdaptiveAdversary {
            patience: Some(patience),
            ..AdaptiveAdversary::new(seed)
        }
    }
}

impl<P: Probe> AdaptiveAdversary<P> {
    /// Attaches `probe` to observe the adversary's strategy moves,
    /// keeping all accumulated state. Typically used with a
    /// [`SharedProbe`](exclusion_shmem::probe::SharedProbe) so the
    /// pricing driver can observe the same run through the same probe
    /// (as `force_probed` does).
    #[must_use]
    pub fn with_probe<Q: Probe>(self, probe: Q) -> AdaptiveAdversary<Q> {
        let AdaptiveAdversary {
            patience,
            index,
            last_writer,
            aware,
            audience,
            moved,
            merged,
            probe: _,
        } = self;
        AdaptiveAdversary {
            patience,
            index,
            last_writer,
            aware,
            audience,
            moved,
            merged,
            probe,
        }
    }

    /// How many picks had to diff the whole context to find the views
    /// that changed (see [`PickIndex::diff_syncs`]).
    #[cfg(test)]
    pub(crate) fn diff_syncs(&self) -> usize {
        self.index.diff_syncs()
    }

    /// The number of awareness groups still separate — `n` at the start
    /// of a run, decreasing as scheduled reads observe scheduled
    /// writes. Exposed for reports and tests.
    #[must_use]
    pub fn groups(&mut self) -> usize {
        (0..self.aware.parent.len())
            .filter(|&p| self.aware.find(p) == p)
            .count()
    }

    fn ensure_register(&mut self, reg: RegisterId) {
        if reg.index() >= self.last_writer.len() {
            self.last_writer.resize(reg.index() + 1, None);
        }
    }

    /// Makes `pid` the last writer of `reg`; the charged reads of `reg`
    /// now merge with a different group, so their keys are stale.
    fn set_writer(&mut self, reg: RegisterId, pid: ProcessId) {
        if self.last_writer[reg.index()] != Some(pid) {
            self.last_writer[reg.index()] = Some(pid);
            self.index.mark_readers(reg);
        }
    }

    /// Merges the reader's and writer's awareness groups, reporting a
    /// fresh merge (the partition actually coarsened) to the probe.
    fn merge_aware(&mut self, reader: ProcessId, writer: ProcessId, step: usize) {
        let fresh = self.aware.find(reader.index()) != self.aware.find(writer.index());
        self.aware.union(reader.index(), writer.index());
        self.merged |= fresh;
        if fresh && self.probe.enabled() {
            let merged = self.aware.group_size(reader.index());
            let groups = self.groups();
            self.probe.record(&TraceEvent::Merge {
                index: step,
                reader,
                writer,
                merged,
                groups,
            });
        }
    }

    /// Records the execution of `pid`'s previewed step `next` into the
    /// adversary's model of the run: writers become the last writer of
    /// their register, charged reads (and RMWs, which read too) merge
    /// the reader's awareness group with the last writer's. Each rule
    /// firing is reported to the probe with `step` as its pick index.
    fn learn(&mut self, pid: ProcessId, next: NextStep, charged: bool, step: usize) {
        match next {
            NextStep::Read(reg) => {
                self.ensure_register(reg);
                if charged {
                    let writer = self.last_writer[reg.index()];
                    if self.probe.enabled() {
                        self.probe.record(&TraceEvent::Harvest {
                            index: step,
                            reader: pid,
                            reg,
                            writer,
                        });
                    }
                    if let Some(w) = writer {
                        self.merge_aware(pid, w, step);
                    }
                }
            }
            NextStep::Rmw(reg, _) => {
                self.ensure_register(reg);
                if charged {
                    let writer = self.last_writer[reg.index()];
                    if self.probe.enabled() {
                        self.probe.record(&TraceEvent::Harvest {
                            index: step,
                            reader: pid,
                            reg,
                            writer,
                        });
                    }
                    if let Some(w) = writer {
                        self.merge_aware(pid, w, step);
                    }
                    if self.probe.enabled() {
                        self.probe.record(&TraceEvent::Reveal {
                            index: step,
                            writer: pid,
                            reg,
                            audience: self.audience.get(reg.index()).copied().unwrap_or(0),
                        });
                    }
                }
                self.set_writer(reg, pid);
            }
            NextStep::Write(reg, _) => {
                self.ensure_register(reg);
                if charged && self.probe.enabled() {
                    self.probe.record(&TraceEvent::Reveal {
                        index: step,
                        writer: pid,
                        reg,
                        audience: self.audience.get(reg.index()).copied().unwrap_or(0),
                    });
                }
                self.set_writer(reg, pid);
            }
            NextStep::Crit(_) => {}
        }
    }
}

/// The register `v` counts in the audience of: the one its pending
/// read (or RMW) reads, if it is live.
fn audience_of(v: &ProcessView) -> Option<RegisterId> {
    match v.next {
        NextStep::Read(reg) | NextStep::Rmw(reg, _) if !v.done => Some(reg),
        _ => None,
    }
}

impl<P: Probe> Scheduler for AdaptiveAdversary<P> {
    fn name(&self) -> String {
        "fanlynch".into()
    }

    fn pick(&mut self, ctx: &SchedContext<'_>) -> Option<ProcessId> {
        let n = ctx.views.len();
        // Derived per pick, not latched: a reused adversary driven over
        // a different-sized algorithm gets that run's default valve,
        // like the rest of the per-run state below.
        let patience = self.patience.unwrap_or(4 * n + 4);
        // Audiences follow the views: each changed view moves at most
        // one live reader from one register to another, and the
        // charged writes to those registers are re-keyed (rule 2's
        // externality measure).
        let (audience, moved) = (&mut self.audience, &mut self.moved);
        let fresh = self.index.begin(ctx, |old, new| {
            let (from, to) = (audience_of(old), audience_of(new));
            if from != to {
                if let Some(reg) = from {
                    audience[reg.index()] -= 1;
                    moved.push(reg);
                }
                if let Some(reg) = to {
                    count_reader(audience, reg);
                    moved.push(reg);
                }
            }
        });
        if fresh {
            // A pick at step 0 is the start of a (possibly new) run.
            self.last_writer.clear();
            self.aware.reset(n);
            self.merged = false;
            self.audience.clear();
            for reg in ctx.views.iter().filter_map(audience_of) {
                count_reader(&mut self.audience, reg);
            }
        }
        for reg in self.moved.drain(..) {
            self.index.mark_writers(reg);
        }
        if std::mem::take(&mut self.merged) {
            // Charged reads are class 1.
            self.index.mark_filed(rank(1, 0, 0), rank(2, 0, 0));
        }
        // Key order: class, fewest passages (keep everyone in the
        // contended trying section), the class's knowledge subkey,
        // longest-unscheduled, then a seed-perturbed pid tie-break. The
        // starvation valve mirrors the greedy adversary's exactly
        // (including its latest-maximum tie-break).
        let (aware, last_writer, audience) = (&mut self.aware, &self.last_writer, &self.audience);
        self.index.rekey(|v| {
            let (class, subkey) = match (v.next, v.changes_state) {
                // Recruit everyone into the trying section first.
                (NextStep::Crit(CritKind::Try), _) => (0, 0),
                // Rule 1+3: harvest charged reads before any write can
                // clobber what they are about to observe; among them,
                // merge the smallest awareness groups first.
                (NextStep::Read(reg), true) => {
                    let merged = match last_writer.get(reg.index()).copied().flatten() {
                        Some(w) => aware.merged_size(v.pid.index(), w.index()),
                        None => aware.group_size(v.pid.index()),
                    };
                    (1, merged)
                }
                // Rule 2: charged writes (and RMWs) reveal to the
                // smallest audience.
                (NextStep::Write(reg, _) | NextStep::Rmw(reg, _), true) => {
                    (2, audience.get(reg.index()).copied().unwrap_or(0))
                }
                // Free critical progress only when nothing is
                // chargeable.
                (NextStep::Crit(_), _) => (3, 0),
                // Free spins last: they cost nothing and learn nothing.
                (_, false) => (4, 0),
            };
            rank(class, v.passages, subkey)
        });
        let picked = self.index.select(ctx.step, patience)?;
        // The driver will execute exactly the previewed step of the
        // process we return; fold it into the model now.
        let view = &ctx.views[picked.index()];
        self.learn(picked, view.next, view.changes_state, ctx.step);
        Some(picked)
    }

    fn wants_step_previews(&self) -> bool {
        true
    }

    fn executed(&mut self, done: &Executed) {
        self.index.executed(done);
    }
}

/// Counts one more live reader of `reg`.
fn count_reader(audience: &mut Vec<usize>, reg: RegisterId) {
    if reg.index() >= audience.len() {
        audience.resize(reg.index() + 1, 0);
    }
    audience[reg.index()] += 1;
}

#[cfg(test)]
mod tests {
    use super::*;
    use exclusion_shmem::sched::run_scheduler;
    use exclusion_shmem::testing::Alternator;

    #[test]
    fn adaptive_terminates_and_is_deterministic() {
        let alg = Alternator::new(4);
        let a = run_scheduler(&alg, &mut AdaptiveAdversary::new(7), 2, 100_000).unwrap();
        let b = run_scheduler(&alg, &mut AdaptiveAdversary::new(7), 2, 100_000).unwrap();
        assert_eq!(a, b);
        assert!(a.well_formed(4));
        assert!(a.mutual_exclusion(4));
        assert_eq!(a.critical_order().len(), 8);
    }

    #[test]
    fn reused_adversary_reproduces_its_first_run() {
        let alg = Alternator::new(3);
        let mut sched = AdaptiveAdversary::new(0);
        let a = run_scheduler(&alg, &mut sched, 2, 100_000).unwrap();
        let b = run_scheduler(&alg, &mut sched, 2, 100_000).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn reuse_across_sizes_matches_a_fresh_adversary() {
        // The default starvation valve is 4·n + 4 *per run*: driving a
        // reused adversary over a smaller algorithm must re-derive it,
        // not keep the first run's larger latch (Peterson's bouncing
        // spin makes the valve load-bearing, so a stale patience would
        // change the schedule).
        use exclusion_mutex::Peterson;
        let big = Peterson::new(6);
        let small = Peterson::new(2);
        let mut reused = AdaptiveAdversary::new(0);
        let _ = run_scheduler(&big, &mut reused, 1, 1_000_000).unwrap();
        let replay = run_scheduler(&small, &mut reused, 2, 1_000_000).unwrap();
        let fresh = run_scheduler(&small, &mut AdaptiveAdversary::new(0), 2, 1_000_000).unwrap();
        assert_eq!(replay, fresh);
    }

    #[test]
    fn never_burns_steps_on_free_spins_when_charged_steps_exist() {
        // Alternator: only the token holder makes progress; the
        // adversary must match the minimal sequential step count.
        let alg = Alternator::new(3);
        let adaptive = run_scheduler(&alg, &mut AdaptiveAdversary::new(0), 1, 100_000).unwrap();
        let order: Vec<_> = ProcessId::all(3).collect();
        let seq = exclusion_shmem::sched::run_sequential(&alg, &order, 100_000).unwrap();
        assert_eq!(adaptive.len(), seq.len());
    }

    #[test]
    fn probed_adversary_matches_unprobed_and_reports_merges() {
        use exclusion_mutex::Peterson;
        struct Collect(Vec<TraceEvent>);
        impl Probe for Collect {
            fn record(&mut self, ev: &TraceEvent) {
                self.0.push(*ev);
            }
        }
        let alg = Peterson::new(4);
        let plain = run_scheduler(&alg, &mut AdaptiveAdversary::new(0), 1, 1_000_000).unwrap();
        let mut probe = Collect(Vec::new());
        let mut probed = AdaptiveAdversary::new(0).with_probe(&mut probe);
        let traced = run_scheduler(&alg, &mut probed, 1, 1_000_000).unwrap();
        drop(probed);
        // The probe observes; it never steers.
        assert_eq!(plain, traced);
        // Merges strictly coarsen the partition: group counts descend.
        let groups: Vec<usize> = probe
            .0
            .iter()
            .filter_map(|ev| match ev {
                TraceEvent::Merge { groups, .. } => Some(*groups),
                _ => None,
            })
            .collect();
        assert!(!groups.is_empty(), "contended peterson must merge");
        assert!(groups.windows(2).all(|w| w[1] < w[0]), "{groups:?}");
        assert!(probe
            .0
            .iter()
            .any(|ev| matches!(ev, TraceEvent::Harvest { .. })));
    }

    #[test]
    fn partition_unions_by_size_and_counts_groups() {
        let mut adv = AdaptiveAdversary::new(0);
        adv.aware.reset(4);
        assert_eq!(adv.groups(), 4);
        adv.aware.union(0, 1);
        adv.aware.union(2, 3);
        assert_eq!(adv.groups(), 2);
        assert_eq!(adv.aware.merged_size(0, 2), 4);
        assert_eq!(adv.aware.merged_size(0, 1), 2);
        adv.aware.union(1, 3);
        assert_eq!(adv.groups(), 1);
    }
}
