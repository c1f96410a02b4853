//! The four workloads: how each is set up from its seed, what its fixed
//! job is, which deterministic facts it must reproduce, and which
//! invariants its outputs must hold whatever the reference says.
//!
//! Everything here goes through the public APIs of `exclusion-serve`,
//! `exclusion-explore` and `exclusion-bound`; nothing in the crates is
//! changed or reached into.

use exclusion_bound::{force, force_probed, BoundConfig, ForcedRun, SC};
use exclusion_cost::run_priced;
use exclusion_explore::{
    analyze, analyze_probed, conformance_registry, price_schedule, ExploreConfig, ExploreReport,
    Model, WorstCaseReport, WorstCost,
};
use exclusion_mutex::registry::{AlgorithmRegistry, DynAlgorithm};
use exclusion_serve::{serve, ServeJob, ServeOptions, ServeReport};
use exclusion_shmem::sched::Script;
use exclusion_shmem::{DynRef, Probe, System};

/// The benchmark's workloads, in `BENCHMARK.json` order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// `tas-sim` n=4 under `steady:gap=64` at one worker: solo admissions.
    ServeSparse,
    /// `peterson` n=4 under `poisson:rate=0.25` at two workers: busy lanes.
    ServeSaturated,
    /// `analyze` at n=4 over four locks and one known violation.
    ExploreN4,
    /// `force` at large n on four register-only locks.
    AdversaryWide,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::ServeSparse,
        Workload::ServeSaturated,
        Workload::ExploreN4,
        Workload::AdversaryWide,
    ];

    /// The workload's name on the command line and in reference files.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeSparse => "serve-sparse",
            Workload::ServeSaturated => "serve-saturated",
            Workload::ExploreN4 => "explore-n4",
            Workload::AdversaryWide => "adversary-wide",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The committed reference outputs for this workload.
    pub fn reference_text(self) -> &'static str {
        match self {
            Workload::ServeSparse => include_str!("../reference/serve-sparse.txt"),
            Workload::ServeSaturated => include_str!("../reference/serve-saturated.txt"),
            Workload::ExploreN4 => include_str!("../reference/explore-n4.txt"),
            Workload::AdversaryWide => include_str!("../reference/adversary-wide.txt"),
        }
    }

    /// Whether the workload's outputs depend on `--seed`. Explore takes
    /// no seed, and serve's steady arrivals and round-robin scheduler
    /// ignore it.
    pub fn seeded(self) -> bool {
        matches!(self, Workload::ServeSaturated | Workload::AdversaryWide)
    }

    /// The algorithm specs and process counts the workload resolves.
    pub fn algorithms(self) -> &'static [(&'static str, usize)] {
        match self {
            Workload::ServeSparse => &[("tas-sim", 4)],
            Workload::ServeSaturated => &[("peterson", 4)],
            Workload::ExploreN4 => EXPLORE_ALGS,
            Workload::AdversaryWide => ADVERSARY_ALGS,
        }
    }
}

/// Requests in one serve job.
pub const SERVE_REQUESTS: u64 = 1_000_000;

const EXPLORE_ALGS: &[(&str, usize)] = &[
    ("peterson", 4),
    ("dekker-tree", 4),
    ("bakery", 4),
    ("mcs", 4),
    ("broken", 4),
];

const EXPLORE_MODELS: [Model; 5] = [Model::Sc, Model::Sc, Model::Sc, Model::Dsm, Model::Sc];

const ADVERSARY_ALGS: &[(&str, usize)] = &[
    ("peterson", 256),
    ("dekker-tree", 1024),
    ("bakery", 256),
    ("filter", 32),
];

/// One resolved algorithm instance of an explore or adversary job.
pub struct Instance {
    /// `name/model` (explore) or `name@n` (adversary): the op's label.
    pub label: String,
    /// The resolved automaton.
    pub alg: DynAlgorithm,
    /// The cost model an explore instance searches (SC for adversary).
    pub model: Model,
    /// The registry's `deadlock_free` metadata.
    pub deadlock_free: bool,
}

/// A workload's inputs, built from the seed. Building this is the
/// set-up that `setup_s` times.
pub enum Prepared {
    /// A serve job and its options.
    Serve {
        /// The resolved job.
        job: ServeJob,
        /// Worker count and seed.
        opts: ServeOptions,
    },
    /// Explore instances and their shared bounds.
    Explore {
        /// Bounds and worker count.
        cfg: ExploreConfig,
        /// One per instance, in job order.
        instances: Vec<Instance>,
    },
    /// Adversary games and their shared configuration.
    Adversary {
        /// Tie-break seed and budgets.
        cfg: BoundConfig,
        /// One per game, in job order.
        instances: Vec<Instance>,
    },
}

/// What one execution of a workload's fixed job returned.
pub enum Output {
    /// The serve report.
    Serve(Box<ServeReport>),
    /// One `analyze` result per instance.
    Explore(Vec<(ExploreReport, Option<WorstCaseReport>)>),
    /// One game per instance.
    Adversary(Vec<ForcedRun>),
}

/// The deterministic facts one op label produced, and how many ops
/// (requests, instances or games) stand behind them.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct OpFacts {
    /// The op label (`serve`, `bakery/sc`, `filter@32`).
    pub label: String,
    /// Ops attempted under this label in one job.
    pub ops: u64,
    /// `key value` pairs, compared verbatim against the reference.
    pub facts: Vec<(String, String)>,
}

fn resolve_all(
    registry: &AlgorithmRegistry,
    algs: &[(&str, usize)],
    models: impl Fn(usize) -> Model,
    label: impl Fn(&str, usize, Model) -> String,
) -> Result<Vec<Instance>, String> {
    algs.iter()
        .enumerate()
        .map(|(i, &(name, n))| {
            let r = registry
                .resolve_str(name, n)
                .map_err(|e| format!("{name} n={n}: {e}"))?;
            Ok(Instance {
                label: label(name, n, models(i)),
                alg: r.automaton,
                model: models(i),
                deadlock_free: r.deadlock_free,
            })
        })
        .collect()
}

/// Builds the workload's inputs from `seed`.
///
/// # Errors
///
/// A message if a spec fails to resolve.
pub fn prepare(w: Workload, seed: u64) -> Result<Prepared, String> {
    match w {
        Workload::ServeSparse | Workload::ServeSaturated => {
            let (alg, arrivals, workers) = if w == Workload::ServeSparse {
                ("tas-sim", "steady:gap=64", 1)
            } else {
                ("peterson", "poisson:rate=0.25", 2)
            };
            let job = ServeJob::new(alg, 4, SERVE_REQUESTS)
                .and_then(|j| j.arrivals(arrivals))
                .map_err(|e| e.to_string())?;
            let opts = ServeOptions {
                workers,
                seed,
                ..ServeOptions::default()
            };
            Ok(Prepared::Serve { job, opts })
        }
        Workload::ExploreN4 => {
            let registry = conformance_registry();
            let instances = resolve_all(
                &registry,
                EXPLORE_ALGS,
                |i| EXPLORE_MODELS[i],
                |name, _, model| format!("{name}/{model}"),
            )?;
            let cfg = ExploreConfig {
                workers: 2,
                ..ExploreConfig::default()
            };
            Ok(Prepared::Explore { cfg, instances })
        }
        Workload::AdversaryWide => {
            let instances = resolve_all(
                AlgorithmRegistry::global(),
                ADVERSARY_ALGS,
                |_| Model::Sc,
                |name, n, _| format!("{name}@{n}"),
            )?;
            let cfg = BoundConfig {
                seed,
                ..BoundConfig::default()
            };
            Ok(Prepared::Adversary { cfg, instances })
        }
    }
}

impl Prepared {
    /// Ops in one job: one serve call, or one explore instance or
    /// adversary game each.
    pub fn ops(&self) -> usize {
        match self {
            Prepared::Serve { .. } => 1,
            Prepared::Explore { instances, .. } | Prepared::Adversary { instances, .. } => {
                instances.len()
            }
        }
    }

    /// Runs one op of the job with tracing off.
    pub fn run_op(&self, op: usize) -> Output {
        match self {
            Prepared::Serve { job, opts } => Output::Serve(Box::new(serve(job, opts))),
            Prepared::Explore { cfg, instances } => {
                let i = &instances[op];
                Output::Explore(vec![analyze(i.alg.as_ref(), i.model, cfg)])
            }
            Prepared::Adversary { cfg, instances } => {
                Output::Adversary(vec![force(instances[op].alg.as_ref(), cfg)])
            }
        }
    }

    /// Runs the fixed job with tracing off.
    pub fn run(&self) -> Output {
        let mut out = self.run_op(0);
        for op in 1..self.ops() {
            out.extend(self.run_op(op));
        }
        out
    }

    /// Runs one op (an instance or a game) of an explore or adversary
    /// job through the engine's probed entry point. `None` for serve,
    /// which has no probe.
    pub fn run_op_probed(&self, op: usize, probe: &mut dyn Probe) -> Option<Output> {
        match self {
            Prepared::Serve { .. } => None,
            Prepared::Explore { cfg, instances } => {
                let i = &instances[op];
                Some(Output::Explore(vec![analyze_probed(
                    i.alg.as_ref(),
                    i.model,
                    cfg,
                    probe,
                )]))
            }
            Prepared::Adversary { cfg, instances } => Some(Output::Adversary(vec![force_probed(
                instances[op].alg.as_ref(),
                cfg,
                probe,
            )])),
        }
    }

    /// The instances of an explore or adversary job (empty for serve).
    pub fn instances(&self) -> &[Instance] {
        match self {
            Prepared::Serve { .. } => &[],
            Prepared::Explore { instances, .. } | Prepared::Adversary { instances, .. } => {
                instances
            }
        }
    }
}

impl Output {
    /// Appends another job's per-op outputs (used to reassemble a job
    /// that was run one op at a time).
    pub fn extend(&mut self, more: Output) {
        match (self, more) {
            (Output::Explore(a), Output::Explore(b)) => a.extend(b),
            (Output::Adversary(a), Output::Adversary(b)) => a.extend(b),
            _ => panic!("only explore and adversary outputs are assembled per op"),
        }
    }

    /// Work completed: requests (serve) or interned states plus
    /// worst-case product nodes (explore). Adversary work is priced
    /// steps of both strategies, which a game does not report; see
    /// [`crate::probe::StepCounter`].
    pub fn work(&self) -> u64 {
        match self {
            Output::Serve(r) => r.completed,
            Output::Explore(rs) => rs
                .iter()
                .map(|(r, w)| (r.states + w.as_ref().map_or(0, |w| w.nodes)) as u64)
                .sum(),
            Output::Adversary(_) => 0,
        }
    }

    /// The job's deterministic facts, one entry per op label. Counters
    /// that are not results (the explorer's greedy incumbent, serve's
    /// cache counters, schema tags) are deliberately left out, and so
    /// are witness spellings, which may differ between parallel runs.
    pub fn facts(&self, prepared: &Prepared) -> Vec<OpFacts> {
        fn kv(pairs: &[(&str, String)]) -> Vec<(String, String)> {
            pairs
                .iter()
                .map(|(k, v)| ((*k).to_string(), v.clone()))
                .collect()
        }
        match self {
            Output::Serve(r) => vec![OpFacts {
                label: "serve".into(),
                ops: r.requests,
                facts: kv(&[
                    ("completed", r.completed.to_string()),
                    ("abandoned", r.abandoned.to_string()),
                    ("unserved", r.unserved.to_string()),
                    ("errors", r.errors.len().to_string()),
                    ("steps", r.steps.to_string()),
                    ("ticks", r.ticks.to_string()),
                    ("total_latency", r.total_latency.to_string()),
                    ("sc_total", r.sc_total.to_string()),
                    ("cc_total", r.cc_total.to_string()),
                    ("dsm_total", r.dsm_total.to_string()),
                    ("peak_in_flight", r.peak_in_flight.to_string()),
                    ("peak_queue", r.peak_queue.to_string()),
                    ("latency_p50", r.latency.quantile(0.5).to_string()),
                    ("latency_p99", r.latency.quantile(0.99).to_string()),
                    ("latency_hist", r.latency.to_json()),
                    ("cost_sc_hist", r.cost_sc.to_json()),
                    ("cost_cc_hist", r.cost_cc.to_json()),
                    ("cost_dsm_hist", r.cost_dsm.to_json()),
                ]),
            }],
            Output::Explore(rs) => rs
                .iter()
                .zip(prepared.instances())
                .map(|((r, w), inst)| {
                    let verdict = match (&r.violation, &r.hazard) {
                        (Some(_), _) => "refuted".to_string(),
                        (None, Some(h)) => format!("hazard:{}", h.kind),
                        (None, None) if r.truncated => "truncated".to_string(),
                        (None, None) => "certified".to_string(),
                    };
                    let worst = w.as_ref().map_or_else(
                        || ("none".to_string(), 0, 0, false),
                        |w| (cost_label(&w.cost), w.nodes, w.edges, w.truncated),
                    );
                    OpFacts {
                        label: inst.label.clone(),
                        ops: 1,
                        facts: kv(&[
                            ("verdict", verdict),
                            ("states", r.states.to_string()),
                            ("edges", r.edges.to_string()),
                            ("depth", r.depth.to_string()),
                            ("truncated", r.truncated.to_string()),
                            (
                                "violation_len",
                                r.violation
                                    .as_ref()
                                    .map_or(0, |c| c.schedule.len())
                                    .to_string(),
                            ),
                            ("worst", worst.0),
                            ("worst_nodes", worst.1.to_string()),
                            ("worst_edges", worst.2.to_string()),
                            ("worst_truncated", worst.3.to_string()),
                        ]),
                    }
                })
                .collect(),
            Output::Adversary(runs) => runs
                .iter()
                .zip(prepared.instances())
                .map(|(run, inst)| {
                    let triple = |c: &[usize; 3]| format!("{}/{}/{}", c[0], c[1], c[2]);
                    OpFacts {
                        label: inst.label.clone(),
                        ops: 1,
                        facts: kv(&[
                            ("forced", triple(&run.forced)),
                            ("adaptive", triple(&run.adaptive)),
                            ("greedy", triple(&run.greedy)),
                            ("winner", run.winner.join("/")),
                            ("steps", run.steps.to_string()),
                            ("errors", run.errors.len().to_string()),
                        ]),
                    }
                })
                .collect(),
        }
    }

    /// Checks the invariants that hold whatever the reference says, and
    /// returns the problems found per op label. `deep` adds the checks
    /// that re-run work (witness replays, a cross-check game per
    /// explore instance); they are pure functions of the output, so one
    /// deep check per process suffices.
    pub fn problems(&self, prepared: &Prepared, deep: bool) -> Vec<(String, Vec<String>)> {
        match self {
            Output::Serve(r) => {
                let mut p = Vec::new();
                if r.completed != r.requests {
                    p.push(format!(
                        "completed {} of {} requests",
                        r.completed, r.requests
                    ));
                }
                if r.unserved != 0 {
                    p.push(format!("{} requests unserved", r.unserved));
                }
                p.extend(r.errors.iter().cloned());
                vec![("serve".into(), p)]
            }
            Output::Explore(rs) => rs
                .iter()
                .zip(prepared.instances())
                .map(|((r, w), inst)| (inst.label.clone(), explore_problems(inst, r, w, deep)))
                .collect(),
            Output::Adversary(runs) => runs
                .iter()
                .zip(prepared.instances())
                .map(|(run, inst)| (inst.label.clone(), adversary_problems(inst, run, deep)))
                .collect(),
        }
    }
}

/// `exact:N`, `unbounded` or `unknown`.
pub fn cost_label(cost: &WorstCost) -> String {
    match cost {
        WorstCost::Exact { cost, .. } => format!("exact:{cost}"),
        WorstCost::Unbounded { .. } => "unbounded".into(),
        WorstCost::Unknown => "unknown".into(),
    }
}

fn explore_problems(
    inst: &Instance,
    r: &ExploreReport,
    w: &Option<WorstCaseReport>,
    deep: bool,
) -> Vec<String> {
    let mut p = Vec::new();
    if r.truncated {
        p.push("exploration truncated".into());
    }
    let broken = inst.label.starts_with("broken/");
    if broken {
        // The known violation must be found, and found replayably.
        match &r.violation {
            None => p.push("the broken lock was not refuted".into()),
            Some(cex) => {
                let dref = DynRef(inst.alg.as_ref());
                let mut sys = System::new(&dref);
                for &pid in &cex.schedule {
                    sys.step(pid);
                }
                if sys.in_critical().count() < 2 {
                    p.push("the counterexample does not replay to a violation".into());
                }
            }
        }
        return p;
    }
    if r.certified_deadlock_free() != inst.deadlock_free {
        p.push(format!(
            "deadlock-freedom verdict {} disagrees with the registry ({})",
            r.certified_deadlock_free(),
            inst.deadlock_free
        ));
    }
    let Some(w) = w else {
        p.push("no worst-case search ran".into());
        return p;
    };
    if w.truncated {
        p.push(format!("worst-case search truncated at {} nodes", w.nodes));
    }
    match &w.cost {
        WorstCost::Unknown => p.push("worst case unknown".into()),
        WorstCost::Exact { cost, schedule } if deep => {
            let priced = price_schedule(inst.alg.as_ref(), inst.model, schedule);
            if priced != *cost {
                p.push(format!("worst-case witness prices to {priced}, not {cost}"));
            }
            if inst.model == Model::Sc {
                // The exact supremum bounds what the adversary forces.
                let game = force(inst.alg.as_ref(), &BoundConfig::default());
                if game.forced[SC] > *cost {
                    p.push(format!(
                        "force reaches SC {} above the exact worst case {cost}",
                        game.forced[SC]
                    ));
                }
            }
        }
        WorstCost::Unbounded { prefix, cycle } if deep => {
            let price = |laps: usize| {
                let mut picks = prefix.clone();
                for _ in 0..laps {
                    picks.extend_from_slice(cycle);
                }
                price_schedule(inst.alg.as_ref(), inst.model, &picks)
            };
            if price(2) <= price(1) {
                p.push("the pump cycle adds no cost".into());
            }
        }
        _ => {}
    }
    p
}

fn adversary_problems(inst: &Instance, run: &ForcedRun, deep: bool) -> Vec<String> {
    let mut p: Vec<String> = run.errors.clone();
    if !run.completed() {
        p.push("no strategy completed the game".into());
        return p;
    }
    for m in 0..3 {
        if run.forced[m] < run.greedy[m] || run.forced[m] < run.adaptive[m] {
            p.push(format!("forced cost below a strategy's in model {m}"));
        }
    }
    if deep {
        let priced = run_priced(
            &DynRef(inst.alg.as_ref()),
            &mut Script::new(run.schedule.clone()),
            run.passages,
            run.steps + 1,
        );
        match priced {
            Ok(pr) if pr.sc.total() == run.forced[SC] && pr.steps == run.steps => {}
            Ok(pr) => p.push(format!(
                "witness replays to SC {} in {} steps, not {} in {}",
                pr.sc.total(),
                pr.steps,
                run.forced[SC],
                run.steps
            )),
            Err(e) => p.push(format!("witness does not replay: {e}")),
        }
    }
    p
}
