//! The traced run: per-layer metrics, timed from outside each layer.
//!
//! 1. `AlgorithmRegistry::resolve_str` is timed in batches.
//! 2. Untraced and traced runs of each op alternate for about
//!    `--seconds`; the traced ones run with the counting allocator on
//!    and, for explore and the adversary, through [`LayerProbe`]; serve
//!    gets a [`PickCounter`] round-robin injected through
//!    `ServeJob::scheduler`. The median ratio of traced to untraced job
//!    time, minus one, is `trace.overhead_frac`.
//! 3. The ledger replays the workload's schedules (serve: recorded by a
//!    `Traced` wrapper, in a job that also samples pick contexts for
//!    `shmem.rr_pick_ns`; explore: the witnesses; adversary: the
//!    winning schedules) through [`ledger::replay`] and checks that the
//!    replay takes exactly the workload's steps, passages and costs.
//! 4. Adversary strategies are timed pick by pick in fresh games.
//!
//! Metrics a workload does not exercise (explore's on a serve workload,
//! say) are reported as 0.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use exclusion_bound::{AdaptiveAdversary, SC};
use exclusion_cost::run_priced;
use exclusion_explore::{conformance_registry, price_schedule, Model, WorstCost};
use exclusion_mutex::registry::AlgorithmRegistry;
use exclusion_serve::{serve, ServeOptions, ServeReport};
use exclusion_shmem::sched::{GreedyAdversary, RoundRobin, Traced};
use exclusion_shmem::{DynRef, ProcessId, SchedContext, Scheduler};

use crate::alloc::Counting;
use crate::ledger::{self, Replayed, Tape};
use crate::probe::{
    time_picks, timer_overhead_ns, LayerProbe, PickCounter, PickSample, PickSampler, TimedPick,
};
use crate::reference::Expected;
use crate::spans::Spans;
use crate::stats::median;
use crate::workload::{Output, Prepared, Workload};
use crate::{warm_up, Book, Metric};

/// Every per-layer metric, with its unit, in `BENCHMARK.json` order.
pub const LAYER_METRICS: [(&str, &str); 27] = [
    ("mutex.resolve_us", "us"),
    ("shmem.step_ns", "ns"),
    ("cost.observe_ns", "ns"),
    ("shmem.view_apply_ns", "ns"),
    ("shmem.rr_pick_ns", "ns"),
    ("shmem.snapshot_ns", "ns"),
    ("shmem.snapshot_allocs", "count"),
    ("shmem.canonicalize_ns", "ns"),
    ("serve.picks_per_request", "count"),
    ("serve.engine_ns_per_step", "ns"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.allocs_per_request", "count"),
    ("serve.steps_per_request", "count"),
    ("explore.build_s", "s"),
    ("explore.worst_s", "s"),
    ("explore.build_ns_per_state", "ns"),
    ("explore.layer_ms_max", "ms"),
    ("explore.dedup_ratio", "ratio"),
    ("explore.peak_frontier", "count"),
    ("explore.allocs_per_state", "count"),
    ("bound.adaptive_game_s", "s"),
    ("bound.greedy_game_s", "s"),
    ("bound.adaptive_pick_ns", "ns"),
    ("bound.greedy_pick_ns", "ns"),
    ("bound.pick_share", "ratio"),
    ("bound.merges_per_game", "count"),
    ("trace.overhead_frac", "ratio"),
];

/// Ledger passes repeated per traced run.
const LEDGER_ROUNDS: usize = 3;
/// States sampled for the snapshot and canonicalization costs.
const SNAPSHOT_STATES: u64 = 2_000;

/// What one untraced-and-traced pair of jobs measured beyond its
/// outputs.
#[derive(Default)]
struct TracedJob {
    /// Untraced job time, s.
    plain_s: f64,
    /// Traced job time, s.
    traced_s: f64,
    allocs: u64,
    /// Engine-clock ns: `[Explore, Worst, Game 0, Game 1]`.
    engine_ns: [u64; 4],
    layer_max_ns: u64,
    /// Layer, Merge, Harvest and Reveal events.
    events: [u64; 4],
    /// Round-robin picks in a traced serve job.
    picks: u64,
}

/// Records a serve stripe's picks, and samples their contexts, and
/// hands the picks over when the engine drops the stripe's scheduler.
struct Recorder {
    traced: Option<Traced<PickSampler<RoundRobin>>>,
    sink: Arc<Mutex<Vec<Vec<ProcessId>>>>,
}

impl Scheduler for Recorder {
    fn name(&self) -> String {
        "round-robin".into()
    }

    fn pick(&mut self, ctx: &SchedContext<'_>) -> Option<ProcessId> {
        self.traced.as_mut().and_then(|t| t.pick(ctx))
    }
}

impl Drop for Recorder {
    fn drop(&mut self) {
        if let (Some(traced), Ok(mut sink)) = (self.traced.take(), self.sink.lock()) {
            sink.push(traced.into_picks());
        }
    }
}

/// Median µs per `resolve_str` over the workload's algorithm specs.
fn resolve_us(w: Workload) -> f64 {
    let conformance;
    let registry = if w == Workload::ExploreN4 {
        conformance = conformance_registry();
        &conformance
    } else {
        AlgorithmRegistry::global()
    };
    let mut batches: Vec<f64> = (0..15)
        .map(|_| {
            let t = Instant::now();
            let mut calls = 0u32;
            while t.elapsed() < Duration::from_millis(4) {
                for _ in 0..16 {
                    for &(spec, n) in w.algorithms() {
                        std::hint::black_box(registry.resolve_str(spec, n).is_ok());
                        calls += 1;
                    }
                }
            }
            t.elapsed().as_secs_f64() * 1e6 / f64::from(calls)
        })
        .collect();
    median(&mut batches)
}

/// Runs the job once untraced and once traced, alternating op by op
/// (a serve job is one op) so that drift in the host's speed hits both
/// alike. Returns both outputs.
fn paired_job(prepared: &Prepared, spans: &mut Spans, job: u32) -> (Output, Output, TracedJob) {
    let mut tj = TracedJob::default();
    let t = Instant::now();
    let mut plain = prepared.run_op(0);
    tj.plain_s += t.elapsed().as_secs_f64();
    if let Prepared::Serve {
        job: serve_job,
        opts,
    } = prepared
    {
        let picks = Arc::new(AtomicU64::new(0));
        let sink = Arc::clone(&picks);
        let counted = serve_job.clone().scheduler("round-robin", move |_| {
            Box::new(PickCounter::new(RoundRobin::new(), Arc::clone(&sink)))
        });
        let t = Instant::now();
        let span = spans.open("serve.serve", None, job);
        let counting = Counting::start();
        let report = serve(&counted, opts);
        tj.allocs = counting.count();
        drop(counting);
        spans.close(span);
        tj.traced_s = t.elapsed().as_secs_f64();
        tj.picks = picks.load(Ordering::Relaxed);
        return (plain, Output::Serve(Box::new(report)), tj);
    }
    let (name, mut traced) = match prepared {
        Prepared::Explore { .. } => ("explore.analyze", Output::Explore(Vec::new())),
        _ => ("bound.force", Output::Adversary(Vec::new())),
    };
    let root = spans.open("job", None, job);
    for op in 0..prepared.ops() {
        if op > 0 {
            let t = Instant::now();
            plain.extend(prepared.run_op(op));
            tj.plain_s += t.elapsed().as_secs_f64();
        }
        let t = Instant::now();
        let span = spans.open(name, Some(root), op as u32);
        let counting = Counting::start();
        let mut probe = LayerProbe::new(spans, span, op as u32);
        let o = prepared
            .run_op_probed(op, &mut probe)
            .expect("explore and adversary ops take a probe");
        tj.allocs += counting.count();
        drop(counting);
        for (total, part) in tj.engine_ns.iter_mut().zip(probe.engine_ns) {
            *total += part;
        }
        tj.layer_max_ns = tj.layer_max_ns.max(probe.layer_max_ns);
        for (total, part) in
            tj.events
                .iter_mut()
                .zip([probe.layers, probe.merges, probe.harvests, probe.reveals])
        {
            *total += part;
        }
        spans.close(span);
        tj.traced_s += t.elapsed().as_secs_f64();
        traced.extend(o);
    }
    spans.close(root);
    (plain, traced, tj)
}

/// What the workload reported for one ledger tape (for serve, for all
/// tapes together): its steps, and its passages and `[sc, cc, dsm]`
/// costs where known.
struct Expectation {
    steps: u64,
    passages: Option<u64>,
    costs: [Option<u64>; 3],
}

fn model_slot(model: Model) -> usize {
    match model {
        Model::Sc => 0,
        Model::Cc => 1,
        Model::Dsm => 2,
    }
}

/// Checks where each replay ended against the workload's figures;
/// records a run failure on any difference.
fn check_ledger(replayed: &[Replayed], expected: &[Expectation], book: &mut Book<'_>) {
    if replayed.len() != expected.len() {
        book.fail_run(format!(
            "the ledger replayed {} tapes, the workload gave {}",
            replayed.len(),
            expected.len()
        ));
    }
    for (i, (r, want)) in replayed.iter().zip(expected).enumerate() {
        let costs_ok = r
            .costs
            .iter()
            .zip(want.costs)
            .all(|(c, w)| w.is_none_or(|w| w == *c));
        let passages_ok = want.passages.is_none_or(|p| p == r.passages);
        if r.steps != want.steps || !passages_ok || !costs_ok {
            book.fail_run(format!(
                "ledger tape {i}: replayed {} steps, {} passages, costing {:?}; \
                 workload reported {} steps, {:?} passages, costing {:?}",
                r.steps, r.passages, r.costs, want.steps, want.passages, want.costs
            ));
        }
    }
}

/// Runs the traced run and returns the per-layer metrics.
///
/// # Errors
///
/// A message if the chrome trace cannot be written.
pub fn run<'a>(
    w: Workload,
    seed: u64,
    seconds: u64,
    prepared: &'a Prepared,
    expected: Option<&'a Expected>,
) -> Result<(Vec<Metric>, Book<'a>), String> {
    let mut m: BTreeMap<&'static str, f64> = LAYER_METRICS.iter().map(|&(n, _)| (n, 0.0)).collect();
    let timer_ns = timer_overhead_ns();
    m.insert("mutex.resolve_us", resolve_us(w));

    let (warm, work) = warm_up(prepared);
    let mut book = Book::open(prepared, expected, &warm);

    let mut spans = Spans::new();
    let mut jobs: Vec<TracedJob> = Vec::new();
    let start = Instant::now();
    while jobs.len() < 2 || start.elapsed() < Duration::from_secs(seconds) {
        let (plain, traced, tj) = paired_job(prepared, &mut spans, jobs.len() as u32);
        book.record(&plain);
        book.record(&traced);
        jobs.push(tj);
    }
    let median_of =
        |f: &dyn Fn(&TracedJob) -> f64| median(&mut jobs.iter().map(f).collect::<Vec<_>>());
    let plain_s = median_of(&|j| j.plain_s);
    m.insert(
        "trace.overhead_frac",
        median_of(&|j| j.traced_s / j.plain_s) - 1.0,
    );
    let per_job = |f: &dyn Fn(&TracedJob) -> u64| median_of(&|j| f(j) as f64);
    let allocs = per_job(&|j| j.allocs);

    // The ledger's tapes, from the workload's own outputs.
    let resolved;
    let mut tapes: Vec<Tape<'_>> = Vec::new();
    let mut expect: Vec<Expectation> = Vec::new();
    // Serve's stripes are separate tapes, but its report has totals only.
    let mut serve_workers = None;
    match (prepared, &warm) {
        (Prepared::Serve { job, opts }, Output::Serve(report)) => {
            let sink = Arc::new(Mutex::new(Vec::new()));
            let samples: Arc<Mutex<Vec<PickSample<RoundRobin>>>> = Arc::default();
            let (stripes, contexts) = (Arc::clone(&sink), Arc::clone(&samples));
            let recording = job.clone().scheduler("round-robin", move |_| {
                let sampler = PickSampler::new(RoundRobin::new(), Arc::clone(&contexts));
                Box::new(Recorder {
                    traced: Some(Traced::new(sampler)),
                    sink: Arc::clone(&stripes),
                })
            });
            // Cached solo passages skip the scheduler, so the schedule is
            // recorded with the cache off; the outputs must not change.
            // The pick contexts sampled here are uncached ones too.
            let uncached = serve(
                &recording,
                &ServeOptions {
                    cache: false,
                    ..opts.clone()
                },
            );
            if Output::Serve(Box::new(uncached)).facts(prepared) != warm.facts(prepared) {
                book.fail_run("the uncached recording run differs from the workload".into());
            }
            let (spec, n) = w.algorithms()[0];
            resolved = AlgorithmRegistry::global()
                .resolve_str(spec, n)
                .map_err(|e| e.to_string())?
                .automaton;
            let picks = std::mem::take(&mut *sink.lock().map_err(|e| e.to_string())?);
            for p in picks {
                tapes.push(Tape {
                    alg: resolved.as_ref(),
                    passages: usize::MAX,
                    previews: false,
                    picks: p,
                });
            }
            serve_workers = Some(opts.workers);
            let totals = [report.sc_total, report.cc_total, report.dsm_total];
            expect.push(Expectation {
                steps: report.steps,
                passages: Some(report.completed),
                costs: totals.map(Some),
            });
            let samples = std::mem::take(&mut *samples.lock().map_err(|e| e.to_string())?);
            serve_metrics(&mut m, report, &jobs, allocs, &samples);
        }
        (Prepared::Explore { cfg, instances }, Output::Explore(rs)) => {
            for ((r, wc), inst) in rs.iter().zip(instances) {
                // An exact worst case is the explorer's own figure; the
                // other witnesses are priced by the explorer's pricer.
                let (picks, cost) = match (&r.violation, wc.as_ref().map(|w| &w.cost)) {
                    (Some(cex), _) => (cex.schedule.clone(), None),
                    (None, Some(WorstCost::Exact { cost, schedule })) => {
                        (schedule.clone(), Some(*cost))
                    }
                    (None, Some(WorstCost::Unbounded { prefix, cycle })) => {
                        ([prefix.as_slice(), cycle].concat(), None)
                    }
                    _ => continue,
                };
                let cost =
                    cost.unwrap_or_else(|| price_schedule(inst.alg.as_ref(), inst.model, &picks));
                let mut costs = [None; 3];
                costs[model_slot(inst.model)] = Some(cost as u64);
                expect.push(Expectation {
                    steps: picks.len() as u64,
                    passages: None,
                    costs,
                });
                tapes.push(Tape {
                    alg: inst.alg.as_ref(),
                    passages: cfg.passages,
                    previews: false,
                    picks,
                });
            }
            let states: usize = rs.iter().map(|(r, _)| r.states).sum();
            let dedup: usize = rs.iter().map(|(r, _)| r.dedup_hits).sum();
            let build_ns = per_job(&|j| j.engine_ns[0]);
            m.insert("explore.build_s", build_ns / 1e9);
            m.insert("explore.worst_s", per_job(&|j| j.engine_ns[1]) / 1e9);
            m.insert("explore.build_ns_per_state", build_ns / states as f64);
            m.insert("explore.layer_ms_max", per_job(&|j| j.layer_max_ns) / 1e6);
            m.insert(
                "explore.dedup_ratio",
                dedup as f64 / (states + dedup) as f64,
            );
            let frontier = rs.iter().map(|(r, _)| r.peak_frontier).max().unwrap_or(0);
            m.insert("explore.peak_frontier", frontier as f64);
            m.insert("explore.allocs_per_state", allocs / work as f64);
        }
        (Prepared::Adversary { cfg, instances }, Output::Adversary(runs)) => {
            for (run, inst) in runs.iter().zip(instances) {
                let winner = if run.winner[SC] == "fanlynch" {
                    run.adaptive
                } else {
                    run.greedy
                };
                // The winning schedule runs every process through the
                // game's passages.
                expect.push(Expectation {
                    steps: run.steps as u64,
                    passages: Some((inst.alg.processes() * run.passages) as u64),
                    costs: winner.map(|c| Some(c as u64)),
                });
                tapes.push(Tape {
                    alg: inst.alg.as_ref(),
                    passages: run.passages,
                    previews: true,
                    picks: run.schedule.clone(),
                });
            }
            m.insert("bound.adaptive_game_s", per_job(&|j| j.engine_ns[2]) / 1e9);
            m.insert("bound.greedy_game_s", per_job(&|j| j.engine_ns[3]) / 1e9);
            m.insert(
                "bound.merges_per_game",
                per_job(&|j| j.events[1]) / instances.len() as f64,
            );
            strategy_metrics(&mut m, &mut book, cfg, instances, runs, work, timer_ns);
        }
        _ => unreachable!("a workload's warm-up output matches its inputs"),
    }

    let ledger = ledger::replay(&tapes, LEDGER_ROUNDS);
    if serve_workers.is_some() {
        let total = ledger
            .per_tape
            .iter()
            .fold(Replayed::default(), |sum, t| Replayed {
                steps: sum.steps + t.steps,
                passages: sum.passages + t.passages,
                costs: [0, 1, 2].map(|k| sum.costs[k] + t.costs[k]),
            });
        check_ledger(&[total], &expect, &mut book);
    } else {
        check_ledger(&ledger.per_tape, &expect, &mut book);
    }
    let [step, observe, apply, pick] = ledger.layer_ns();
    m.insert("shmem.step_ns", step);
    m.insert("cost.observe_ns", observe);
    m.insert("shmem.view_apply_ns", apply);
    if let (Some(workers), Output::Serve(report)) = (serve_workers, &warm) {
        // Wall time per step counts each worker's share of the job.
        let workers = workers as f64;
        let wall_per_step = plain_s * 1e9 * workers / report.steps as f64;
        let picks_per_step = jobs[0].picks as f64 / report.steps as f64;
        m.insert(
            "serve.engine_ns_per_step",
            wall_per_step - ledger.cumulative_ns[2] - m["shmem.rr_pick_ns"] * picks_per_step,
        );
    }
    let snap = ledger::snapshot_costs(&tapes, SNAPSHOT_STATES, timer_ns);
    m.insert("shmem.snapshot_ns", snap.snapshot_ns);
    m.insert("shmem.snapshot_allocs", snap.snapshot_allocs);
    m.insert("shmem.canonicalize_ns", snap.canonicalize_ns);

    eprintln!(
        "ledger, ns per step, cumulative over {} steps in {} tapes: step {:.1} | +observe {:.1} \
         | +apply {:.1} | +pick {:.1}  (replay pick {pick:.1}; timer pair {timer_ns:.1})",
        ledger.steps,
        tapes.len(),
        ledger.cumulative_ns[0],
        ledger.cumulative_ns[1],
        ledger.cumulative_ns[2],
        ledger.cumulative_ns[3],
    );
    eprintln!("snapshot costs over {} sampled states", snap.states);
    let events = jobs[0].events;
    eprintln!(
        "probe events per traced job: {} layer, {} merge, {} harvest, {} reveal",
        events[0], events[1], events[2], events[3]
    );
    eprintln!("spans: name, total ms, self ms");
    for (name, (total, own)) in spans.self_times() {
        eprintln!(
            "  {name:<22} {:>10.2} {:>10.2}",
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
    let out = Path::new("perfbench").join("out");
    std::fs::create_dir_all(&out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    let file = out.join(format!("{}-seed{seed}.trace.json", w.name()));
    std::fs::write(&file, spans.chrome_json())
        .map_err(|e| format!("cannot write {}: {e}", file.display()))?;
    eprintln!("chrome trace: {}", file.display());

    let metrics = LAYER_METRICS
        .iter()
        .map(|&(name, unit)| (name, m[name], unit))
        .collect();
    Ok((metrics, book))
}

fn serve_metrics(
    m: &mut BTreeMap<&'static str, f64>,
    report: &ServeReport,
    jobs: &[TracedJob],
    allocs: f64,
    samples: &[PickSample<RoundRobin>],
) {
    let requests = report.completed as f64;
    m.insert("shmem.rr_pick_ns", time_picks(samples));
    m.insert("serve.picks_per_request", jobs[0].picks as f64 / requests);
    let lookups = report.cache_hits + report.cache_misses;
    if lookups > 0 {
        m.insert(
            "serve.cache_hit_ratio",
            report.cache_hits as f64 / lookups as f64,
        );
    }
    m.insert("serve.allocs_per_request", allocs / requests);
    m.insert("serve.steps_per_request", report.steps as f64 / requests);
}

/// Plays each strategy of each game again with every pick timed, and
/// checks that the timed games reproduce the workload's costs and
/// step counts.
fn strategy_metrics(
    m: &mut BTreeMap<&'static str, f64>,
    book: &mut Book<'_>,
    cfg: &exclusion_bound::BoundConfig,
    instances: &[crate::workload::Instance],
    runs: &[exclusion_bound::ForcedRun],
    work: u64,
    timer_ns: f64,
) {
    let mut ns = [0f64; 2];
    let mut picks = [0u64; 2];
    let mut wall = 0f64;
    let mut steps = 0u64;
    for (inst, run) in instances.iter().zip(runs) {
        let alg = DynRef(inst.alg.as_ref());
        let mut adaptive = TimedPick::new(AdaptiveAdversary::new(cfg.seed));
        let mut greedy = TimedPick::new(GreedyAdversary::new());
        for (k, sched, want) in [
            (0, &mut adaptive as &mut dyn Scheduler, run.adaptive),
            (1, &mut greedy as &mut dyn Scheduler, run.greedy),
        ] {
            let t = Instant::now();
            let priced = run_priced(&alg, sched, cfg.passages, cfg.max_steps);
            wall += t.elapsed().as_secs_f64() * 1e9;
            match priced {
                Ok(p) if [p.sc.total(), p.cc.total(), p.dsm.total()] == want => {
                    steps += p.steps as u64;
                }
                Ok(_) | Err(_) => book.fail_run(format!(
                    "{}: the timed {} strategy did not reproduce the game",
                    inst.label,
                    ["adaptive", "greedy"][k]
                )),
            }
        }
        ns[0] += adaptive.ns as f64;
        ns[1] += greedy.ns as f64;
        picks[0] += adaptive.picks;
        picks[1] += greedy.picks;
    }
    if steps != work {
        book.fail_run(format!(
            "timed strategies took {steps} steps, the workload {work}"
        ));
    }
    let net = |k: usize| ns[k] - picks[k] as f64 * timer_ns;
    m.insert("bound.adaptive_pick_ns", net(0) / picks[0] as f64);
    m.insert("bound.greedy_pick_ns", net(1) / picks[1] as f64);
    let timers = (picks[0] + picks[1]) as f64 * timer_ns;
    m.insert("bound.pick_share", (net(0) + net(1)) / (wall - timers));
}

#[cfg(test)]
mod tests {
    use super::*;
    use exclusion_serve::ServeJob;

    #[test]
    fn a_ledger_that_ends_elsewhere_fails_the_run() {
        let prepared = Prepared::Serve {
            job: ServeJob::new("tas-sim", 2, 100).unwrap(),
            opts: ServeOptions::default(),
        };
        let out = prepared.run();
        let replayed = Replayed {
            steps: 10,
            passages: 2,
            costs: [3, 4, 5],
        };
        let expect = |passages, sc| Expectation {
            steps: 10,
            passages,
            costs: [sc, None, Some(5)],
        };
        let mut book = Book::open(&prepared, None, &out);
        check_ledger(&[replayed], &[expect(Some(2), Some(3))], &mut book);
        check_ledger(&[replayed], &[expect(None, None)], &mut book);
        assert_eq!(book.failed, 0, "{:?}", book.reasons);
        check_ledger(&[replayed], &[expect(Some(3), Some(3))], &mut book);
        assert_eq!(book.failed, book.attempted);
        let mut book = Book::open(&prepared, None, &out);
        check_ledger(&[replayed], &[expect(Some(2), Some(4))], &mut book);
        assert_eq!(book.failed, book.attempted);
    }
}
