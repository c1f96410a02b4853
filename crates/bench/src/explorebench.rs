//! The exhaustive-exploration benchmark behind `BENCH_explore.json`:
//! exact worst-case cost tables for the register-only suite at small
//! `n`, each cell cross-checked two ways — finite witnesses must
//! replay to exactly the optimum through the streaming pricer, and
//! unbounded verdicts must pump (each extra cycle lap adds the same
//! positive charge).
//!
//! Run it with `cargo run --release -p exclusion-bench --bin
//! bench_explore -- --out BENCH_explore.json`. CI runs the `--quick`
//! grid (n ∈ {2, 3}) on every push and uploads the JSON as an
//! artifact; the binary exits nonzero if any cell fails certification
//! or a cross-check.
//!
//! The table also carries an **orbit-reduction gate**: a genuinely
//! symmetric entry is explored with and without canonicalization, the
//! verdicts must agree, and the quotient must shrink the state space
//! by at least 10x — the regression guard for the symmetry machinery
//! that makes exact verdicts past n = 4 feasible at all.

use std::fmt::Write as _;
use std::time::Instant;

use exclusion_cost::run_priced;
use exclusion_explore::report::cost_label;
use exclusion_explore::{
    analyze, conformance_registry, explore, price_schedule, worst_case, ExploreConfig, Model,
    WorstCaseReport, WorstCost,
};
use exclusion_shmem::dynamic::{DynAutomaton, DynRef};
use exclusion_shmem::sched::Script;

/// Schema tag stamped into `BENCH_explore.json`.
pub const BENCH_SCHEMA: &str = "exclusion-bench-explore/v2";

/// The register-only algorithms of the paper's model — the rows of the
/// worst-case table.
pub const ALGORITHMS: [&str; 6] = [
    "dekker-tree",
    "peterson",
    "bakery",
    "filter",
    "dijkstra",
    "burns-lynch",
];

/// One (algorithm, n, model) cell of the table.
#[derive(Clone, Debug)]
pub struct ExploreCell {
    /// Algorithm spec.
    pub algorithm: String,
    /// Process count.
    pub n: usize,
    /// Cost model of the worst-case search.
    pub model: Model,
    /// Reachable states of the (plain) safety exploration.
    pub safety_states: usize,
    /// Whether safety and deadlock-freedom were certified.
    pub certified: bool,
    /// The exact worst-case verdict.
    pub worst: WorstCaseReport,
    /// Whether the witness cross-check passed (finite: replays to the
    /// optimum via `run_priced`; unbounded: the pump cycle adds a
    /// constant positive charge per lap).
    pub witness_ok: bool,
    /// Wall-clock nanoseconds for the cell: the SC cell carries the
    /// shared `analyze` pass (safety + SC search on one graph) plus its
    /// cross-checks; the CC cell carries its own product-graph search
    /// plus cross-checks.
    pub wall_ns: u128,
}

/// One orbit-reduction measurement: the same bounded space explored
/// with and without symmetry canonicalization.
#[derive(Clone, Debug)]
pub struct ReductionCheck {
    /// Algorithm spec (a registry entry declaring symmetry).
    pub algorithm: String,
    /// Process count.
    pub n: usize,
    /// Reachable orbit representatives with canonicalization on.
    pub reduced_states: usize,
    /// Raw reachable states with canonicalization off.
    pub full_states: usize,
    /// Whether the two runs agreed on every verdict (safety, hazard
    /// kind, BFS depth) — reduction must change the count, not the
    /// conclusion.
    pub verdicts_agree: bool,
    /// Wall-clock nanoseconds for both explorations.
    pub wall_ns: u128,
}

impl ReductionCheck {
    /// How many raw states each orbit representative stands for.
    #[must_use]
    pub fn ratio(&self) -> f64 {
        if self.reduced_states == 0 {
            0.0
        } else {
            self.full_states as f64 / self.reduced_states as f64
        }
    }

    /// The gate: verdicts agree and the quotient shrinks ≥ 10x.
    #[must_use]
    pub fn passes(&self) -> bool {
        self.verdicts_agree && self.ratio() >= 10.0
    }
}

/// The planted `broken` lock must be caught at every table size.
#[derive(Clone, Debug)]
pub struct BrokenCheck {
    /// Process count.
    pub n: usize,
    /// Whether the explorer found the violation.
    pub caught: bool,
    /// Length of the (minimal) counterexample schedule.
    pub schedule_len: usize,
}

fn check_witness(alg: &dyn DynAutomaton, report: &WorstCaseReport) -> bool {
    match &report.cost {
        WorstCost::Exact { cost, schedule } => {
            let dref = DynRef(alg);
            let Ok(priced) = run_priced(
                &dref,
                &mut Script::new(schedule.clone()),
                report.passages,
                schedule.len() + 1,
            ) else {
                return false;
            };
            priced.steps == schedule.len() && report.model.total_of(&priced) == *cost
        }
        WorstCost::Unbounded { prefix, cycle } => {
            let lap = |k: usize| {
                let mut picks = prefix.clone();
                for _ in 0..k {
                    picks.extend_from_slice(cycle);
                }
                price_schedule(alg, report.model, &picks)
            };
            let (zero, one, two) = (lap(0), lap(1), lap(2));
            // Each lap must add the same positive charge; spelled
            // without subtraction so a non-pumping regression reports
            // `false` instead of underflowing.
            one > zero && two + zero == 2 * one
        }
        WorstCost::Unknown => false,
    }
}

/// Runs the table grid: SC at every `n`, CC at `n ≤ 3` (its product
/// space explodes past that — see the module docs of
/// `exclusion-explore`), plus the `broken` catch at each `n ≤ 3`.
#[must_use]
pub fn run(quick: bool) -> (Vec<ExploreCell>, Vec<BrokenCheck>, Vec<ReductionCheck>) {
    let ns: &[usize] = if quick { &[2, 3] } else { &[2, 3, 4] };
    let registry = conformance_registry();
    let cfg = ExploreConfig::default();
    let mut cells = Vec::new();
    for &n in ns {
        for name in ALGORITHMS {
            let alg = registry
                .resolve_str(name, n)
                .expect("table algorithms resolve")
                .automaton;
            // One SC graph serves both the safety verdicts and the SC
            // worst-case search (`analyze`); only CC needs its own
            // product-graph build.
            let start = Instant::now();
            let (safety, sc_worst) = analyze(alg.as_ref(), Model::Sc, &cfg);
            let sc_wall = start.elapsed().as_nanos();
            for model in [Model::Sc, Model::Cc] {
                if model == Model::Cc && n > 3 {
                    continue;
                }
                let start = Instant::now();
                let worst = match (model, &sc_worst) {
                    (Model::Sc, Some(w)) => w.clone(),
                    // Fallback for an uncertified row (the table still
                    // renders; all_clean fails on `certified`).
                    _ => worst_case(alg.as_ref(), model, &cfg),
                };
                let witness_ok = check_witness(alg.as_ref(), &worst);
                let wall_ns =
                    start.elapsed().as_nanos() + if model == Model::Sc { sc_wall } else { 0 };
                cells.push(ExploreCell {
                    algorithm: name.to_string(),
                    n,
                    model,
                    safety_states: safety.states,
                    certified: safety.certified_deadlock_free(),
                    worst,
                    witness_ok,
                    wall_ns,
                });
            }
        }
    }
    let broken = ns
        .iter()
        .filter(|&&n| n <= 3)
        .map(|&n| {
            let alg = registry
                .resolve_str("broken", n)
                .expect("broken resolves")
                .automaton;
            let report = explore(alg.as_ref(), &cfg);
            BrokenCheck {
                n,
                caught: report.violation.is_some(),
                schedule_len: report.violation.map_or(0, |v| v.schedule.len()),
            }
        })
        .collect();
    // The orbit-reduction gate: the symmetric splitter lock, at the
    // smallest n whose orbits are big enough for a 10x quotient.
    let reductions = [if quick { 4 } else { 5 }]
        .into_iter()
        .map(|n| {
            let alg = registry
                .resolve_str("splitter", n)
                .expect("splitter resolves")
                .automaton;
            let start = Instant::now();
            let reduced = explore(alg.as_ref(), &cfg);
            let full = explore(
                alg.as_ref(),
                &ExploreConfig {
                    symmetry: false,
                    ..cfg
                },
            );
            ReductionCheck {
                algorithm: "splitter".into(),
                n,
                reduced_states: reduced.states,
                full_states: full.states,
                verdicts_agree: !reduced.truncated
                    && !full.truncated
                    && reduced.certified_safe() == full.certified_safe()
                    && reduced.depth == full.depth
                    && reduced.hazard.as_ref().map(|h| h.kind)
                        == full.hazard.as_ref().map(|h| h.kind),
                wall_ns: start.elapsed().as_nanos(),
            }
        })
        .collect();
    (cells, broken, reductions)
}

/// Whether every cell certified, every cross-check passed, nothing
/// truncated, the planted race was caught at every size, and every
/// orbit-reduction gate (verdict agreement + ≥ 10x shrink) passed.
#[must_use]
pub fn all_clean(
    cells: &[ExploreCell],
    broken: &[BrokenCheck],
    reductions: &[ReductionCheck],
) -> bool {
    cells
        .iter()
        .all(|c| c.certified && c.witness_ok && !c.worst.truncated)
        && broken.iter().all(|b| b.caught)
        && reductions.iter().all(ReductionCheck::passes)
}

/// The table as aligned text, one block per model.
#[must_use]
pub fn to_text(
    cells: &[ExploreCell],
    broken: &[BrokenCheck],
    reductions: &[ReductionCheck],
) -> String {
    let mut out = String::new();
    for model in [Model::Sc, Model::Cc] {
        let mine: Vec<&ExploreCell> = cells.iter().filter(|c| c.model == model).collect();
        if mine.is_empty() {
            continue;
        }
        let _ = writeln!(out, "exact worst-case {} cost:", model);
        let _ = writeln!(
            out,
            "  {:<12} {:>3} {:>9} {:>8} {:>9} {:>6}",
            "algorithm", "n", "states", "exact", "cert", "ok"
        );
        for c in mine {
            let _ = writeln!(
                out,
                "  {:<12} {:>3} {:>9} {:>8} {:>9} {:>6}",
                c.algorithm,
                c.n,
                c.safety_states,
                cost_label(&c.worst.cost),
                if c.certified { "yes" } else { "NO" },
                if c.witness_ok { "yes" } else { "NO" },
            );
        }
    }
    for b in broken {
        let _ = writeln!(
            out,
            "broken lock at n={}: {} (counterexample: {} steps)",
            b.n,
            if b.caught { "caught" } else { "MISSED" },
            b.schedule_len
        );
    }
    for r in reductions {
        let _ = writeln!(
            out,
            "orbit reduction {} at n={}: {} -> {} states ({:.1}x, gate >=10x: {})",
            r.algorithm,
            r.n,
            r.full_states,
            r.reduced_states,
            r.ratio(),
            if r.passes() { "pass" } else { "FAIL" },
        );
    }
    out
}

/// The full benchmark as one JSON document.
#[must_use]
pub fn to_json(
    cells: &[ExploreCell],
    broken: &[BrokenCheck],
    reductions: &[ReductionCheck],
    quick: bool,
) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"schema\":\"{BENCH_SCHEMA}\",\"quick\":{quick},\"cells\":["
    );
    for (i, c) in cells.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"algorithm\":\"{}\",\"n\":{},\"model\":\"{}\",\"safety_states\":{},\
             \"certified\":{},\"witness_ok\":{},\"wall_ms\":{:.3},\"worst\":{}}}",
            c.algorithm,
            c.n,
            c.model,
            c.safety_states,
            c.certified,
            c.witness_ok,
            c.wall_ns as f64 / 1e6,
            exclusion_explore::report::worst_json(&c.worst),
        );
    }
    out.push_str("],\"broken\":[");
    for (i, b) in broken.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"n\":{},\"caught\":{},\"schedule_len\":{}}}",
            b.n, b.caught, b.schedule_len
        );
    }
    out.push_str("],\"reductions\":[");
    for (i, r) in reductions.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"algorithm\":\"{}\",\"n\":{},\"reduced_states\":{},\"full_states\":{},\
             \"ratio\":{:.3},\"verdicts_agree\":{},\"pass\":{},\"wall_ms\":{:.3}}}",
            r.algorithm,
            r.n,
            r.reduced_states,
            r.full_states,
            r.ratio(),
            r.verdicts_agree,
            r.passes(),
            r.wall_ns as f64 / 1e6,
        );
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_grid_is_clean_and_serializes() {
        let (cells, broken, reductions) = run(true);
        // 6 algorithms × 2 ns × 2 models.
        assert_eq!(cells.len(), 24);
        assert_eq!(broken.len(), 2);
        assert_eq!(reductions.len(), 1);
        assert!(
            all_clean(&cells, &broken, &reductions),
            "{}",
            to_text(&cells, &broken, &reductions)
        );
        let json = to_json(&cells, &broken, &reductions, true);
        assert!(json.starts_with(&format!("{{\"schema\":\"{BENCH_SCHEMA}\"")));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        let text = to_text(&cells, &broken, &reductions);
        assert!(text.contains("dekker-tree"));
        assert!(text.contains("caught"));
        assert!(text.contains("orbit reduction"));
    }
}
