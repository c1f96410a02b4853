//! The adaptive lower-bound benchmark behind `BENCH_bound.json`:
//! forced-cost curves for the register-only suite, adaptive vs greedy
//! per cost model, cross-checked against the exhaustive exact optimum
//! where exhaustive search can still reach (n ∈ {2, 3}).
//!
//! Run it with `cargo run --release -p exclusion-bench --bin
//! bench_bound -- --out BENCH_bound.json`. CI runs the `--quick` grid
//! (n ≤ 16) on every push and uploads the JSON as an artifact; the
//! binary exits nonzero if any game fails to complete, the portfolio
//! fails to dominate its greedy member, a witness schedule does not
//! replay to the forced SC cost, or a small-`n` forced cost exceeds
//! the exhaustive supremum (the adversary must be *sound*: it plays
//! real schedules, so it can approach the optimum but never pass it).

use std::fmt::Write as _;
use std::time::Instant;

use exclusion_bound::{fit_nlogn, force, models_json, BoundConfig, Fit, ForcedRun, MODELS, SC};
use exclusion_cost::run_priced;
use exclusion_explore::report::json_escape;
use exclusion_explore::{worst_case, ExploreConfig, Model};
use exclusion_mutex::registry::AlgorithmRegistry;
use exclusion_shmem::dynamic::DynRef;

/// Schema tag stamped into `BENCH_bound.json`.
pub const BENCH_SCHEMA: &str = "exclusion-bench-bound/v2";

/// The register-only algorithms of the paper's model — the curves of
/// the report, derived from the registry's own `uses_rmw` metadata
/// (see `exclusion_bound::register_only`) so the benchmark cannot
/// drift from the suite.
#[must_use]
pub fn algorithms() -> Vec<String> {
    exclusion_bound::register_only(AlgorithmRegistry::global())
}

/// One (algorithm, n) game of the benchmark grid.
#[derive(Clone, Debug)]
pub struct BoundCell {
    /// The game's outcome.
    pub run: ForcedRun,
    /// Whether the game completed and the forced cost dominates the
    /// greedy baseline under every model.
    pub dominated: bool,
    /// Whether the witness schedule replayed to exactly the forced SC
    /// cost through the streaming pricer.
    pub witness_ok: bool,
    /// Wall-clock nanoseconds for the whole game (both strategies plus
    /// the replay cross-check).
    pub wall_ns: u128,
}

/// The small-`n` soundness cross-check against exhaustive search: the
/// adversary plays real schedules, so its forced cost can never exceed
/// the exact supremum — and must still dominate the greedy baseline
/// the game plays beside it.
#[derive(Clone, Debug)]
pub struct ExactCheck {
    /// Algorithm spec.
    pub algorithm: String,
    /// Process count (small enough for exhaustive search).
    pub n: usize,
    /// The adversary's forced SC cost.
    pub forced_sc: usize,
    /// The greedy baseline's SC cost ([`ForcedRun::greedy`]).
    pub greedy: usize,
    /// The exact SC supremum, `None` when unbounded (remote spins).
    pub exact: Option<usize>,
    /// `greedy ≤ forced ≤ exact` (upper bound vacuous when
    /// unbounded).
    pub sound: bool,
}

/// Grid sizes per algorithm. Filter's forced runs grow ~n³ steps, so
/// its curve stops at 64 on the full grid (n = 128 alone costs about a
/// minute and exhausts the adaptive strategy's default step budget).
fn grid_for(algorithm: &str, quick: bool) -> Vec<usize> {
    let hi = match (quick, algorithm) {
        (true, _) => 16,
        (false, "filter") => 64,
        (false, _) => 128,
    };
    exclusion_bound::doubling_grid(4, hi)
}

/// Runs the benchmark grid: every register-only algorithm over its
/// grid, plus the exact cross-check at n ∈ {2, 3}.
#[must_use]
pub fn run(quick: bool) -> (Vec<BoundCell>, Vec<ExactCheck>) {
    let registry = AlgorithmRegistry::global();
    let cfg = BoundConfig::default();
    let mut cells = Vec::new();
    for algorithm in algorithms() {
        for n in grid_for(&algorithm, quick) {
            let alg = registry
                .resolve_str(&algorithm, n)
                .expect("benchmark specs resolve")
                .automaton;
            let start = Instant::now();
            let mut run = force(alg.as_ref(), &cfg);
            run.algorithm = algorithm.clone();
            let dominated =
                run.completed() && (0..MODELS.len()).all(|m| run.forced[m] >= run.greedy[m]);
            let witness_ok = run.completed()
                && run_priced(
                    &DynRef(alg.as_ref()),
                    &mut run.script(),
                    cfg.passages,
                    run.steps + 1,
                )
                .is_ok_and(|p| p.steps == run.steps && p.sc.total() == run.forced[SC]);
            cells.push(BoundCell {
                run,
                dominated,
                witness_ok,
                wall_ns: start.elapsed().as_nanos(),
            });
        }
    }

    let mut exact = Vec::new();
    for algorithm in algorithms() {
        for n in [2usize, 3] {
            let alg = registry
                .resolve_str(&algorithm, n)
                .expect("benchmark specs resolve")
                .automaton;
            let run = force(alg.as_ref(), &cfg);
            let worst = worst_case(alg.as_ref(), Model::Sc, &ExploreConfig::default());
            let forced_sc = run.forced[SC];
            let sound = run.completed()
                && forced_sc >= run.greedy[SC]
                && worst.cost.exact().is_none_or(|e| forced_sc <= e);
            exact.push(ExactCheck {
                algorithm: algorithm.clone(),
                n,
                forced_sc,
                greedy: run.greedy[SC],
                exact: worst.cost.exact(),
                sound,
            });
        }
    }
    (cells, exact)
}

/// Per-algorithm SC fits over the completed cells of the grid.
#[must_use]
pub fn fits(cells: &[BoundCell]) -> Vec<(String, Fit)> {
    algorithms()
        .into_iter()
        .map(|algorithm| {
            let (ns, costs): (Vec<usize>, Vec<usize>) = cells
                .iter()
                .filter(|c| c.run.algorithm == algorithm && c.run.completed())
                .map(|c| (c.run.n, c.run.forced[SC]))
                .unzip();
            (algorithm, fit_nlogn(&ns, &costs))
        })
        .collect()
}

/// Whether every cell dominated and replayed, and every exact check
/// was sound — the benchmark binary's exit criterion.
#[must_use]
pub fn all_clean(cells: &[BoundCell], exact: &[ExactCheck]) -> bool {
    cells.iter().all(|c| c.dominated && c.witness_ok) && exact.iter().all(|e| e.sound)
}

/// The human-readable table printed to stderr.
#[must_use]
pub fn to_text(cells: &[BoundCell], exact: &[ExactCheck]) -> String {
    let mut out =
        String::from("algorithm        n     steps  sc-forced  sc-greedy   winner            ok\n");
    for c in cells {
        let _ = writeln!(
            out,
            "{:<12} {:>5} {:>9} {:>10} {:>10}   {:<17} {}",
            json_escape(&c.run.algorithm),
            c.run.n,
            c.run.steps,
            c.run.forced[SC],
            c.run.greedy[SC],
            c.run.winner[SC],
            if c.dominated && c.witness_ok {
                "yes"
            } else {
                "NO"
            },
        );
    }
    out.push_str("fits (sc ~ c*n*log2 n):\n");
    for (algorithm, fit) in fits(cells) {
        let _ = writeln!(
            out,
            "  {:<12} c = {:>8.2}  r2 = {:.3}",
            algorithm, fit.c, fit.r2
        );
    }
    out.push_str("exact cross-check (n in {2,3}):\n");
    for e in exact {
        let _ = writeln!(
            out,
            "  {:<12} n={}  greedy {:>4} <= forced {:>4} <= exact {:<9} {}",
            e.algorithm,
            e.n,
            e.greedy,
            e.forced_sc,
            e.exact.map_or("unbounded".into(), |x| x.to_string()),
            if e.sound { "yes" } else { "NO" },
        );
    }
    out
}

/// The JSON report written to `BENCH_bound.json`.
#[must_use]
pub fn to_json(cells: &[BoundCell], exact: &[ExactCheck], quick: bool) -> String {
    let mut out = format!("{{\"schema\":\"{BENCH_SCHEMA}\",\"quick\":{quick},\"cells\":[");
    for (i, c) in cells.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"algorithm\":\"{}\",\"n\":{},\"steps\":{},\"forced\":{{{}}},\"adaptive\":{{{}}},\"greedy\":{{{}}},\"winner\":\"{}\",\"dominated\":{},\"witness_ok\":{},\"wall_ns\":{}}}",
            json_escape(&c.run.algorithm),
            c.run.n,
            c.run.steps,
            models_json(&c.run.forced),
            models_json(&c.run.adaptive),
            models_json(&c.run.greedy),
            c.run.winner[SC],
            c.dominated,
            c.witness_ok,
            c.wall_ns,
        );
    }
    out.push_str("],\"fits\":{");
    for (i, (algorithm, fit)) in fits(cells).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\"{}\":{{\"c\":{:.6},\"r2\":{:.6}}}",
            json_escape(algorithm),
            fit.c,
            fit.r2
        );
    }
    out.push_str("},\"exact\":[");
    for (i, e) in exact.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"algorithm\":\"{}\",\"n\":{},\"forced_sc\":{},\"greedy\":{},\"exact\":{},\"sound\":{}}}",
            json_escape(&e.algorithm),
            e.n,
            e.forced_sc,
            e.greedy,
            e.exact.map_or("null".into(), |x| x.to_string()),
            e.sound,
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
        let registry = AlgorithmRegistry::global();
        let cfg = BoundConfig::default();
        // One representative column instead of the whole quick grid
        // (the binary covers that): the cell must dominate and replay.
        let alg = registry.resolve_str("peterson", 8).unwrap().automaton;
        let run = force(alg.as_ref(), &cfg);
        assert!(run.completed());
        assert!(run.forced[SC] >= run.greedy[SC]);
        let cell = BoundCell {
            run,
            dominated: true,
            witness_ok: true,
            wall_ns: 1,
        };
        let exact = ExactCheck {
            algorithm: "peterson".into(),
            n: 2,
            forced_sc: 55,
            greedy: 35,
            exact: None,
            sound: true,
        };
        let (cells, checks) = (std::slice::from_ref(&cell), std::slice::from_ref(&exact));
        assert!(all_clean(cells, checks));
        let json = to_json(cells, checks, true);
        assert!(json.contains("\"schema\":\"exclusion-bench-bound/v2\""));
        assert!(
            json.contains("\"exact\":null"),
            "unbounded serializes as null"
        );
        assert!(to_text(&[cell], &[exact]).contains("peterson"));
    }

    #[test]
    fn grids_scale_with_mode_and_cap_filter() {
        assert_eq!(grid_for("peterson", true), vec![4, 8, 16]);
        assert_eq!(grid_for("peterson", false), vec![4, 8, 16, 32, 64, 128]);
        assert_eq!(grid_for("filter", false), vec![4, 8, 16, 32, 64]);
    }
}
