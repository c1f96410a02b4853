//! The formal-vs-hardware differential harness: one arrival schedule,
//! two executions.
//!
//! A [`HwScenario`] names a registry algorithm, an arrival model
//! (`exclusion_serve`'s registry), a process count and a per-process
//! request count. [`run_scenario`] then executes the scenario twice:
//!
//! * the **simulated leg** ([`run_sim`]) admits processes into the
//!   registry automaton at their arrival ticks, interleaves the
//!   in-flight ones round-robin, and prices the run under the SC, CC
//!   and DSM models — crash-free CC *is* the RMR cost of the
//!   cache-coherent model, so `cc / passages` is the simulated RMR per
//!   passage;
//! * the **hardware leg** ([`run_hw`]) replays the *same* per-thread
//!   arrival lanes against the matching `exclusion_spin` lock on real
//!   atomics ([`exclusion_spin::paced::paced_run`]), recording the
//!   acquisition order the silicon produced and wall-clock timings.
//!
//! The two legs must agree on the observable contract — per-thread
//! passage counts (acquisition-order multisets) and total passages —
//! while the *costs* are deliberately different currencies: simulated
//! remote references on one side, measured nanoseconds on the other.
//! `BENCH_hw.json` co-reports both, which is where the O(1)-RMR
//! queue-lock story meets the Ω(n log n) register-only boundary on
//! actual hardware.
//!
//! Wall-clock fields (`elapsed_ns`, wait statistics) are measurements,
//! not reproducible artifacts: everything else in a row is
//! deterministic for a given scenario, and byte-identity comparisons
//! must exclude the timing fields.

use exclusion_cost::CostTracker;
use exclusion_mutex::AlgorithmRegistry;
use exclusion_serve::arrival::ArrivalRegistry;
use exclusion_shmem::dynamic::DynRef;
use exclusion_shmem::{CritKind, ProcessId, RunError, System};
use exclusion_spin::paced::paced_run;
use exclusion_spin::{
    ClhLock, DekkerTreeLock, McsLock, PetersonTreeLock, RawLock, TasLock, TicketLock, TtasLock,
};

/// One differential scenario: an algorithm × arrival model × size.
#[derive(Clone, Debug)]
pub struct HwScenario {
    /// Algorithm spec (a standard-registry name, e.g. `mcs`).
    pub alg: String,
    /// Arrival-model spec (e.g. `steady:gap=64`).
    pub arrivals: String,
    /// Processes / threads.
    pub n: usize,
    /// Requests (passages) per process.
    pub requests_per_process: usize,
    /// Seed for seeded arrival models.
    pub seed: u64,
    /// Hardware pacing: nanoseconds per arrival tick.
    pub ns_per_tick: u64,
}

/// The simulated leg's outcome.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SimLeg {
    /// Automaton steps executed.
    pub steps: usize,
    /// Total state-change (SC) cost.
    pub sc: usize,
    /// Total cache-coherent cost — crash-free, this is the RMR-CC cost.
    pub cc: usize,
    /// Total distributed-shared-memory cost.
    pub dsm: usize,
    /// Completed passages (equals the total request count).
    pub passages: usize,
    /// Critical-section entry order, as process indices.
    pub order: Vec<usize>,
}

impl SimLeg {
    /// Simulated RMR (cache-coherent remote references) per passage —
    /// the quantity whose flatness across `n` certifies a local-spin
    /// lock.
    #[must_use]
    pub fn rmr_per_passage(&self) -> f64 {
        if self.passages == 0 {
            0.0
        } else {
            self.cc as f64 / self.passages as f64
        }
    }
}

/// The hardware leg's outcome.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct HwLeg {
    /// The `exclusion_spin` lock that ran.
    pub lock: String,
    /// Completed passages.
    pub passages: usize,
    /// Acquisition order, as thread indices.
    pub order: Vec<usize>,
    /// Total wall-clock in nanoseconds (measurement; not reproducible).
    pub elapsed_ns: u64,
    /// Mean arrival-to-entry wait in nanoseconds.
    pub mean_wait_ns: u64,
    /// Worst arrival-to-entry wait in nanoseconds.
    pub max_wait_ns: u64,
}

/// One completed differential row: both legs plus the agreement
/// verdict.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct HwRow {
    /// The scenario's algorithm spec.
    pub alg: String,
    /// The scenario's resolved arrival label.
    pub arrivals: String,
    /// Processes / threads.
    pub n: usize,
    /// The simulated leg.
    pub sim: SimLeg,
    /// The hardware leg.
    pub hw: HwLeg,
    /// Whether per-thread passage counts and totals agree between the
    /// legs.
    pub agree: bool,
}

impl HwRow {
    /// One JSON object per row. Deterministic for a given scenario
    /// except the `elapsed_ns` / `*_wait_ns` measurement fields —
    /// byte-identity comparisons must exclude those.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"alg\":{:?},\"arrivals\":{:?},\"n\":{},\"agree\":{},\
             \"sim\":{{\"steps\":{},\"sc\":{},\"cc\":{},\"dsm\":{},\"passages\":{},\
             \"rmr_per_passage\":{:.4}}},\
             \"hw\":{{\"lock\":{:?},\"passages\":{},\"elapsed_ns\":{},\
             \"mean_wait_ns\":{},\"max_wait_ns\":{}}}}}",
            self.alg,
            self.arrivals,
            self.n,
            self.agree,
            self.sim.steps,
            self.sim.sc,
            self.sim.cc,
            self.sim.dsm,
            self.sim.passages,
            self.sim.rmr_per_passage(),
            self.hw.lock,
            self.hw.passages,
            self.hw.elapsed_ns,
            self.hw.mean_wait_ns,
            self.hw.max_wait_ns,
        )
    }
}

/// Errors a differential run can produce.
#[derive(Debug)]
pub enum HwError {
    /// The algorithm or arrival spec did not resolve.
    Spec(String),
    /// The algorithm has no hardware twin in `exclusion_spin`.
    NoHardwareTwin(String),
    /// The simulated leg did not finish within its step budget.
    Run(RunError),
}

impl std::fmt::Display for HwError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HwError::Spec(e) => write!(f, "{e}"),
            HwError::NoHardwareTwin(alg) => {
                write!(f, "`{alg}` has no hardware twin in exclusion-spin")
            }
            HwError::Run(e) => write!(f, "simulated leg: {e}"),
        }
    }
}

impl std::error::Error for HwError {}

/// The hardware twin of a registry algorithm name, if it has one.
///
/// The composable queue locks map to their atomics implementations;
/// the `-sim` spellings map to the same twins, and the register-only
/// tournament entries map to the tree locks.
#[must_use]
pub fn hardware_twin(alg: &str, threads: usize) -> Option<Box<dyn RawLock>> {
    let canonical = alg.split(':').next().unwrap_or(alg);
    Some(match canonical {
        "mcs" | "mcs-sim" => Box::new(McsLock::new(threads)) as Box<dyn RawLock>,
        "clh" => Box::new(ClhLock::new(threads)),
        "ticket" => Box::new(TicketLock::new(threads)),
        "tas" | "tas-sim" => Box::new(TasLock::new(threads)),
        "ttas" | "ttas-sim" => Box::new(TtasLock::new(threads)),
        "peterson" => Box::new(PetersonTreeLock::new(threads)),
        "dekker-tree" => Box::new(DekkerTreeLock::new(threads)),
        _ => return None,
    })
}

/// Expands an arrival spec into per-process lanes: one shared stream of
/// `n × requests_per_process` arrival ticks, request `j` assigned to
/// process `j mod n` — every process gets the same number of requests,
/// interleaved the way the model emits them.
///
/// # Errors
///
/// [`HwError::Spec`] if the arrival spec does not resolve.
pub fn arrival_lanes(
    arrivals: &str,
    n: usize,
    requests_per_process: usize,
    seed: u64,
) -> Result<(String, Vec<Vec<u64>>), HwError> {
    let resolved = ArrivalRegistry::global()
        .resolve_str(arrivals, n)
        .map_err(|e| HwError::Spec(e.to_string()))?;
    let mut model = resolved.build(seed);
    let mut lanes = vec![Vec::with_capacity(requests_per_process); n];
    let mut clock = 0u64;
    for j in 0..n * requests_per_process {
        // The serve engine's non-decreasing clamp, reproduced.
        clock = clock.max(model.next_arrival());
        lanes[j % n].push(clock);
    }
    Ok((resolved.label, lanes))
}

/// Step budget for the simulated leg, scaled to the workload.
fn sim_step_budget(n: usize, total_requests: usize) -> usize {
    50_000 + total_requests * n * 200
}

/// Runs the simulated leg: admits each process into the automaton at
/// its arrival ticks, steps the in-flight set round-robin (one step =
/// one tick), fast-forwards idle gaps, and prices the whole run.
///
/// # Errors
///
/// [`HwError::Spec`] if the algorithm does not resolve;
/// [`HwError::Run`] if the run exceeds its step budget.
pub fn run_sim(alg: &str, n: usize, lanes: &[Vec<u64>]) -> Result<SimLeg, HwError> {
    let resolved = AlgorithmRegistry::global()
        .resolve_str(alg, n)
        .map_err(|e| HwError::Spec(e.to_string()))?;
    let automaton = DynRef(resolved.automaton.as_ref());
    let mut sys = System::new(&automaton);
    let mut tracker = CostTracker::new(&automaton);

    let total: usize = lanes.iter().map(Vec::len).sum();
    let budget = sim_step_budget(n, total);
    let mut next_req = vec![0usize; n];
    let mut active = vec![false; n];
    let mut order = Vec::with_capacity(total);
    let mut completed = 0usize;
    let mut tick = 0u64;
    let mut rr = 0usize;

    while completed < total {
        for p in 0..n {
            if !active[p] && lanes[p].get(next_req[p]).is_some_and(|&a| a <= tick) {
                active[p] = true;
            }
        }
        let Some(p) = (0..n).map(|k| (rr + k) % n).find(|&p| active[p]) else {
            // Nobody in flight: fast-forward to the next arrival.
            tick = (0..n)
                .filter_map(|p| lanes[p].get(next_req[p]).copied())
                .min()
                .expect("requests remain");
            continue;
        };
        if tracker.steps() >= budget {
            return Err(HwError::Run(RunError {
                limit: budget,
                completed,
                processes: n,
            }));
        }
        let pid = ProcessId::new(p);
        let done = sys.step(pid);
        tracker.observe(&done);
        match done.step.crit_kind() {
            Some(CritKind::Enter) => order.push(p),
            Some(CritKind::Rem) => {
                active[p] = false;
                next_req[p] += 1;
                completed += 1;
            }
            _ => {}
        }
        rr = (p + 1) % n;
        tick += 1;
    }

    let steps = tracker.steps();
    let (sc, cc, dsm) = tracker.into_reports();
    Ok(SimLeg {
        steps,
        sc: sc.total(),
        cc: cc.total(),
        dsm: dsm.total(),
        passages: completed,
        order,
    })
}

/// Runs the hardware leg: the same lanes, paced onto a real
/// `exclusion_spin` lock.
///
/// # Errors
///
/// [`HwError::NoHardwareTwin`] if the algorithm has no atomics
/// implementation.
pub fn run_hw(alg: &str, n: usize, lanes: &[Vec<u64>], ns_per_tick: u64) -> Result<HwLeg, HwError> {
    let lock = hardware_twin(alg, n).ok_or_else(|| HwError::NoHardwareTwin(alg.to_string()))?;
    let report = paced_run(lock.as_ref(), lanes, ns_per_tick);
    let waits: Vec<u64> = report.acquisitions.iter().map(|a| a.wait_ns).collect();
    let mean_wait_ns = if waits.is_empty() {
        0
    } else {
        waits.iter().sum::<u64>() / waits.len() as u64
    };
    Ok(HwLeg {
        lock: report.lock.clone(),
        passages: report.acquisitions.len(),
        order: report.order(),
        elapsed_ns: report.elapsed_ns,
        mean_wait_ns,
        max_wait_ns: waits.into_iter().max().unwrap_or(0),
    })
}

/// Per-thread passage counts — the acquisition-order multiset the two
/// legs must agree on.
#[must_use]
pub fn passage_counts(order: &[usize], n: usize) -> Vec<usize> {
    let mut counts = vec![0usize; n];
    for &tid in order {
        counts[tid] += 1;
    }
    counts
}

/// Runs both legs of a scenario and checks agreement.
///
/// # Errors
///
/// As [`arrival_lanes`], [`run_sim`] and [`run_hw`].
pub fn run_scenario(sc: &HwScenario) -> Result<HwRow, HwError> {
    let (label, lanes) = arrival_lanes(&sc.arrivals, sc.n, sc.requests_per_process, sc.seed)?;
    let sim = run_sim(&sc.alg, sc.n, &lanes)?;
    let hw = run_hw(&sc.alg, sc.n, &lanes, sc.ns_per_tick)?;
    let agree = sim.passages == hw.passages
        && passage_counts(&sim.order, sc.n) == passage_counts(&hw.order, sc.n);
    Ok(HwRow {
        alg: sc.alg.clone(),
        arrivals: label,
        n: sc.n,
        sim,
        hw,
        agree,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario(alg: &str, arrivals: &str, n: usize) -> HwScenario {
        HwScenario {
            alg: alg.into(),
            arrivals: arrivals.into(),
            n,
            requests_per_process: 3,
            seed: 7,
            ns_per_tick: 50,
        }
    }

    #[test]
    fn lanes_are_balanced_and_non_decreasing() {
        let (label, lanes) = arrival_lanes("steady:gap=4", 3, 5, 0).unwrap();
        assert_eq!(label, "steady:gap=4");
        assert_eq!(lanes.len(), 3);
        for lane in &lanes {
            assert_eq!(lane.len(), 5);
            assert!(lane.windows(2).all(|w| w[0] <= w[1]));
        }
        // Steady gap 4 with requests interleaved round-robin.
        assert_eq!(lanes[0], [0, 12, 24, 36, 48]);
        assert_eq!(lanes[1], [4, 16, 28, 40, 52]);
    }

    #[test]
    fn sim_leg_completes_all_requests_for_every_queue_lock() {
        for alg in ["mcs", "clh", "ticket"] {
            let (_, lanes) = arrival_lanes("steady:gap=2", 3, 4, 0).unwrap();
            let sim = run_sim(alg, 3, &lanes).unwrap_or_else(|e| panic!("{alg}: {e}"));
            assert_eq!(sim.passages, 12, "{alg}");
            assert_eq!(sim.order.len(), 12, "{alg}");
            assert_eq!(passage_counts(&sim.order, 3), [4, 4, 4], "{alg}");
            assert!(sim.sc > 0 && sim.cc > 0, "{alg}");
        }
    }

    #[test]
    fn scenario_legs_agree_for_queue_locks_and_contrast_entries() {
        for alg in ["mcs", "clh", "ticket", "ttas-sim", "dekker-tree"] {
            for arrivals in ["steady:gap=8", "bursty:size=2,gap=16"] {
                let row = run_scenario(&scenario(alg, arrivals, 2))
                    .unwrap_or_else(|e| panic!("{alg} under {arrivals}: {e}"));
                assert!(row.agree, "{alg} under {arrivals}: legs disagree");
                assert_eq!(row.sim.passages, 6, "{alg} under {arrivals}");
                assert_eq!(row.hw.passages, 6, "{alg} under {arrivals}");
            }
        }
    }

    #[test]
    fn unknown_specs_and_missing_twins_error_cleanly() {
        assert!(matches!(
            run_scenario(&scenario("no-such-lock", "steady", 2)),
            Err(HwError::Spec(_))
        ));
        assert!(matches!(
            run_scenario(&scenario("bakery", "steady", 2)),
            Err(HwError::NoHardwareTwin(_))
        ));
        assert!(matches!(
            arrival_lanes("no-such-arrivals", 2, 1, 0),
            Err(HwError::Spec(_))
        ));
    }

    #[test]
    fn row_json_is_balanced_and_carries_both_costs() {
        let row = run_scenario(&scenario("mcs", "steady:gap=8", 2)).unwrap();
        let json = row.to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        for key in [
            "\"sim\"",
            "\"hw\"",
            "\"rmr_per_passage\"",
            "\"elapsed_ns\"",
            "\"dsm\"",
            "\"agree\":true",
        ] {
            assert!(json.contains(key), "{key} missing from {json}");
        }
    }

    #[test]
    fn seeded_arrivals_reproduce_per_seed() {
        let a = arrival_lanes("poisson:rate=0.5", 4, 6, 42).unwrap();
        let b = arrival_lanes("poisson:rate=0.5", 4, 6, 42).unwrap();
        let c = arrival_lanes("poisson:rate=0.5", 4, 6, 43).unwrap();
        assert_eq!(a, b);
        assert_ne!(a.1, c.1);
    }
}
