//! The `workload` CLI: build a scenario grid, run a sharded sweep,
//! print a summary table, and optionally write JSON/CSV reports — plus
//! the `explore` subcommand for exhaustive small-`n` certification, the
//! `bound` subcommand for adaptive forced-cost curves, and the `crash`
//! subcommand for crash-recoverable certification and forced-RMR
//! curves under a crash-budget adversary.
//!
//! ```text
//! workload                                  # default grid, all cores
//! workload --algs dekker-tree,bakery --n 8 --passages 2 \
//!          --scheds greedy,random,burst,stagger --seeds 8 \
//!          --threads 4 --json sweep.json --csv sweep.csv
//! workload --algs filter:levels=6 --scheds burst:wave=2,gap=32
//! workload --list                           # both registries, with metadata
//! workload explore --n 3 --model sc --json explore.json
//! workload explore --algs broken --n 2      # catch the planted race
//! workload bound --algs all --n 4..64       # force the Ω(n log n) bound
//! workload crash --sched fanlynch:crashes=2 # certify + crash the locks
//! ```
//!
//! Algorithms and schedulers are registry specs; unknown names fail
//! with the registry contents and a nearest-name suggestion.

use std::fmt::Write as _;
use std::process::ExitCode;

use exclusion_explore::{analyze, explore, report as xreport, ExploreConfig, Model};
use exclusion_mutex::registry::AlgorithmRegistry;
use exclusion_workload::schedreg::SchedulerRegistry;
use exclusion_workload::{sweep, Scenario, SchedSpec, SweepOptions};

const USAGE: &str = "\
workload — adversarial scenario sweeps over the mutual exclusion suite

USAGE:
    workload [OPTIONS]            sampled cost sweep (the default mode)
    workload explore [OPTIONS]    exhaustive exploration (see explore --help)
    workload bound [OPTIONS]      adaptive forced-cost curves (see bound --help)
    workload crash [OPTIONS]      crash-recoverable certification and
                                  forced-RMR curves (see crash --help)
    workload trace [OPTIONS]      trace one run to Chrome/Perfetto JSON
                                  (see trace --help)
    workload serve [OPTIONS]      open-stream lock service: arrival
                                  models, deadlines, live percentiles
                                  (see serve --help)
    workload hwbench [OPTIONS]    formal-vs-hardware differential: same
                                  arrival schedule simulated and run on
                                  real atomics (see hwbench --help)

OPTIONS:
    --algs A,B,...       algorithm specs to sweep (default:
                         dekker-tree,peterson); parameterized specs like
                         filter:levels=6 or ttas-sim:backoff=4 work
    --n N                processes per run (default: 8)
    --passages P         passages per process (default: 2)
    --scheds S,T,...     scheduler specs: sequential | round-robin |
                         random | greedy | burst[:wave=W,gap=G] |
                         stagger[:stride=S] (legacy burst:WxG and
                         stagger:S also parse; default:
                         greedy,random,burst,stagger)

                         Multi-parameter specs work inside a list
                         (greedy,burst:wave=2,gap=32,stagger parses as
                         two specs: a `k=v` fragment cannot start a
                         spec, so it attaches to the one before it),
                         and repeating --algs/--scheds appends
    --seeds K            seed-grid size for seeded schedulers (default: 8)
    --seed-base B        first seed of the grid (default: 1)
    --threads T          worker threads, 0 = one per core (default: 0)
    --max-steps N        step budget per run (default: 50000000)
    --no-record          stream costs in a single pass without recording
                         executions (the default engine)
    --record             record every execution and price it by replay
                         (the legacy engine; same results, ~4x the work —
                         kept for A/B measurement)
    --json PATH          write the JSON report (`-` for stdout)
    --csv PATH           write the per-run CSV (`-` for stdout)
    --metrics PATH       aggregate trace metrics over every run and
                         write the metrics JSON (`-` for stdout)
    --quiet              suppress the summary table and timing
    --list               print both registries (entries, parameters,
                         metadata) and exit
    --list-algs          print known algorithm names and exit
    --help               this text
";

struct Args {
    algs: Vec<String>,
    n: usize,
    passages: usize,
    scheds: Vec<String>,
    seeds: u64,
    seed_base: u64,
    threads: usize,
    max_steps: usize,
    record: bool,
    json: Option<String>,
    csv: Option<String>,
    metrics: Option<String>,
    quiet: bool,
}

/// Splits a comma-separated spec list, keeping multi-parameter specs
/// whole: a fragment that cannot *start* a spec (its name part
/// contains `=`) is a continuation of the previous spec's parameter
/// list, so `greedy,burst:wave=2,gap=32` is two specs, not three.
fn split_specs(s: &str) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for part in s.split(',') {
        let starts_spec = !part.split(':').next().unwrap_or("").contains('=');
        match out.last_mut() {
            Some(last) if !starts_spec => {
                last.push(',');
                last.push_str(part);
            }
            _ => out.push(part.to_string()),
        }
    }
    out
}

/// Both registries rendered as aligned text — the CLI's `--list`.
fn render_registries(algs: &AlgorithmRegistry, scheds: &SchedulerRegistry) -> String {
    let mut out = String::from("algorithms:\n");
    let _ = writeln!(
        out,
        "  {:<12} {:>5}  {:<5} {:<11} summary / params",
        "name", "min_n", "rmw", "cost"
    );
    for e in algs.entries() {
        let i = e.info();
        let _ = writeln!(
            out,
            "  {:<12} {:>5}  {:<5} {:<11} {}",
            i.name, i.min_n, i.uses_rmw, i.cost_class, i.summary
        );
        for p in &i.params {
            let _ = writeln!(out, "  {:<37} :{}=…  {}", "", p.key, p.help);
        }
    }
    out.push_str("\nschedulers:\n");
    let _ = writeln!(
        out,
        "  {:<17} {:<7} {:<18} summary / params",
        "name", "seeded", "aliases"
    );
    for e in scheds.entries() {
        let i = e.info();
        let _ = writeln!(
            out,
            "  {:<17} {:<7} {:<18} {}",
            i.name,
            i.seeded,
            i.aliases.join(","),
            i.summary
        );
        for p in &i.params {
            let _ = writeln!(out, "  {:<44} :{}=…  {}", "", p.key, p.help);
        }
    }
    out
}

fn parse_args(argv: &[String]) -> Result<Option<Args>, String> {
    let mut args = Args {
        algs: vec!["dekker-tree".into(), "peterson".into()],
        n: 8,
        passages: 2,
        scheds: vec![
            "greedy".into(),
            "random".into(),
            "burst".into(),
            "stagger".into(),
        ],
        seeds: 8,
        seed_base: 1,
        threads: 0,
        max_steps: 50_000_000,
        record: false,
        json: None,
        csv: None,
        metrics: None,
        quiet: false,
    };
    // First --algs/--scheds replaces the default list; repeats append,
    // so multi-parameter specs (whose commas would collide with the
    // list separator) can ride in their own flag occurrence.
    let mut algs_set = false;
    let mut scheds_set = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--algs" => {
                let mut items = split_specs(&value()?);
                if !std::mem::replace(&mut algs_set, true) {
                    args.algs.clear();
                }
                args.algs.append(&mut items);
            }
            "--n" => args.n = value()?.parse().map_err(|e| format!("--n: {e}"))?,
            "--passages" => {
                args.passages = value()?.parse().map_err(|e| format!("--passages: {e}"))?;
            }
            "--scheds" => {
                let mut items = split_specs(&value()?);
                if !std::mem::replace(&mut scheds_set, true) {
                    args.scheds.clear();
                }
                args.scheds.append(&mut items);
            }
            "--seeds" => args.seeds = value()?.parse().map_err(|e| format!("--seeds: {e}"))?,
            "--seed-base" => {
                args.seed_base = value()?.parse().map_err(|e| format!("--seed-base: {e}"))?;
            }
            "--threads" => {
                args.threads = value()?.parse().map_err(|e| format!("--threads: {e}"))?;
            }
            "--max-steps" => {
                args.max_steps = value()?.parse().map_err(|e| format!("--max-steps: {e}"))?;
            }
            "--record" => args.record = true,
            "--no-record" => args.record = false,
            "--json" => args.json = Some(value()?),
            "--csv" => args.csv = Some(value()?),
            "--metrics" => args.metrics = Some(value()?),
            "--quiet" => args.quiet = true,
            "--list" => {
                print!(
                    "{}",
                    render_registries(AlgorithmRegistry::global(), SchedulerRegistry::global())
                );
                return Ok(None);
            }
            "--list-algs" => {
                for name in AlgorithmRegistry::global().names() {
                    println!("{name}");
                }
                return Ok(None);
            }
            "--help" | "-h" => {
                print!("{USAGE}");
                return Ok(None);
            }
            other => return Err(format!("unknown flag `{other}` (try --help)")),
        }
    }
    if args.seeds == 0 {
        return Err("--seeds must be positive".into());
    }
    Ok(Some(args))
}

/// The grid is wired through the registries: scenario construction
/// parses both specs and resolves them once, so unknown names and bad
/// parameters fail here — with the registry contents and a
/// nearest-name suggestion in the message — before anything runs.
fn build_grid(args: &Args) -> Result<Vec<Scenario>, String> {
    let seeds: Vec<u64> = (0..args.seeds).map(|k| args.seed_base + k).collect();
    let mut scenarios = Vec::new();
    for alg in &args.algs {
        for sched_name in &args.scheds {
            let sched = SchedSpec::parse(sched_name).map_err(|e| e.to_string())?;
            let scenario = Scenario::builder(alg.clone(), args.n)
                .passages(args.passages)
                .sched(sched)
                .seeds(seeds.iter().copied())
                .max_steps(args.max_steps)
                .build()
                .map_err(|e| e.to_string())?;
            scenarios.push(scenario);
        }
    }
    Ok(scenarios)
}

fn emit(path: &str, what: &str, content: &str) -> Result<(), String> {
    if path == "-" {
        print!("{content}");
        Ok(())
    } else {
        std::fs::write(path, content).map_err(|e| format!("writing {what} to {path}: {e}"))?;
        eprintln!("wrote {what} to {path}");
        Ok(())
    }
}

const EXPLORE_USAGE: &str = "\
workload explore — exhaustive bounded exploration: certified safety
verdicts and exact worst-case costs

USAGE:
    workload explore [OPTIONS]

OPTIONS:
    --algs A,B,...       algorithm specs to explore (default: every
                         entry of the conformance registry — the
                         standard suite plus the deliberately unsafe
                         `broken` lock)
    --n N                processes per instance (default: 3)
    --passages P         passage bound per process (default: 1)
    --model M            cost model for the worst-case search:
                         sc | cc | dsm (default: sc)
    --depth D            BFS depth bound (default: none)
    --max-states S       transposition-table cap (default: 2000000)
    --workers W          worker threads, 0 = one per core (default: 0)
    --no-worst           skip the exact worst-case search (verdicts only)
    --no-symmetry        disable orbit reduction (explore the raw state
                         space even for symmetric algorithms)
    --por                enable ample-set partial-order reduction for
                         the certification pass (verdict-preserving;
                         the worst-case search always runs without it,
                         and witness depths may exceed the minimum)
    --compress           store 128-bit fingerprints instead of full
                         snapshots in the transposition table (verdicts
                         then hold modulo fingerprint collisions)
    --spill              stream BFS frontiers through an unlinked temp
                         file instead of holding them in memory
    --json PATH          write the JSON report (`-` for stdout)
    --quiet              suppress the text table
    --help               this text

Exit status is nonzero when any explored algorithm other than `broken`
fails certification, or when `broken` is explored and NOT caught.
";

struct ExploreArgs {
    algs: Vec<String>,
    n: usize,
    model: Model,
    no_worst: bool,
    json: Option<String>,
    quiet: bool,
    cfg: ExploreConfig,
}

fn parse_explore_args(argv: &[String]) -> Result<Option<ExploreArgs>, String> {
    let mut args = ExploreArgs {
        algs: Vec::new(),
        n: 3,
        model: Model::Sc,
        no_worst: false,
        json: None,
        quiet: false,
        cfg: ExploreConfig::default(),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--algs" => args.algs.extend(split_specs(&value()?)),
            "--n" => args.n = value()?.parse().map_err(|e| format!("--n: {e}"))?,
            "--passages" => {
                args.cfg.passages = value()?.parse().map_err(|e| format!("--passages: {e}"))?;
            }
            "--model" => {
                let v = value()?;
                args.model = Model::parse(&v)
                    .ok_or_else(|| format!("--model: `{v}` is not one of sc|cc|dsm"))?;
            }
            "--depth" => {
                args.cfg.max_depth = Some(value()?.parse().map_err(|e| format!("--depth: {e}"))?);
            }
            "--max-states" => {
                args.cfg.max_states = value()?.parse().map_err(|e| format!("--max-states: {e}"))?;
            }
            "--workers" => {
                args.cfg.workers = value()?.parse().map_err(|e| format!("--workers: {e}"))?;
            }
            "--no-worst" => args.no_worst = true,
            "--no-symmetry" => args.cfg.symmetry = false,
            "--por" => args.cfg.por = true,
            "--compress" => args.cfg.compress = true,
            "--spill" => args.cfg.spill = true,
            "--json" => args.json = Some(value()?),
            "--quiet" => args.quiet = true,
            "--help" | "-h" => {
                print!("{EXPLORE_USAGE}");
                return Ok(None);
            }
            other => return Err(format!("unknown flag `{other}` (try explore --help)")),
        }
    }
    if args.cfg.passages == 0 {
        return Err("--passages must be positive".into());
    }
    // The explorer's transposition table caps the instance size; turn
    // its internal asserts into flag errors.
    if args.n == 0 || args.n > 64 {
        return Err("--n must be between 1 and 64 (the explorer's process cap)".into());
    }
    // Single source of truth for the node-id budget: the explorer's
    // own structured validation, surfaced as a flag error with the
    // actual limit spelled out instead of an assert mid-run.
    if let Err(e) = args.cfg.validated() {
        return Err(e.to_string());
    }
    Ok(Some(args))
}

fn run_explore(argv: &[String]) -> Result<(), String> {
    let Some(args) = parse_explore_args(argv)? else {
        return Ok(());
    };
    let registry = exclusion_explore::conformance_registry();
    let specs: Vec<String> = if args.algs.is_empty() {
        registry
            .names()
            .into_iter()
            .filter(|name| {
                // Skip entries the requested n cannot instantiate (the
                // default grid at n=1 would otherwise trip on `broken`).
                registry.get(name).is_some_and(|e| e.info().min_n <= args.n)
            })
            .collect()
    } else {
        args.algs.clone()
    };

    let mut rows: Vec<Vec<String>> = vec![[
        "algorithm",
        "states",
        "edges",
        "depth",
        "safe",
        "dl-free",
        "worst",
        "note",
    ]
    .iter()
    .map(ToString::to_string)
    .collect()];
    let mut json_items: Vec<String> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    for spec in &specs {
        let resolved = registry
            .resolve_str(spec, args.n)
            .map_err(|e| e.to_string())?;
        let alg = resolved.automaton;
        // `analyze` shares one graph between certification and the SC
        // worst-case search; `--no-worst` skips the search entirely.
        let (report, worst) = if args.no_worst {
            (explore(alg.as_ref(), &args.cfg), None)
        } else {
            analyze(alg.as_ref(), args.model, &args.cfg)
        };
        let note = if let Some(v) = &report.violation {
            format!(
                "violation in {} steps ({} and {} in critical)",
                v.schedule.len(),
                v.culprits.0.index(),
                v.culprits.1.index()
            )
        } else if let Some(h) = &report.hazard {
            format!("{} ({} doomed states)", h.kind, h.doomed_states)
        } else if report.truncated {
            format!(
                "truncated at {} states, not certified — raise --max-states",
                report.states
            )
        } else {
            String::new()
        };
        // `broken` must be caught; everything else must certify what
        // its registry metadata promises: mutual exclusion always, and
        // deadlock-freedom unless the entry disclaims it (the splitter
        // locks), in which case the hazard must be *found* — a certified
        // negative, not a free pass. A truncated run proves nothing
        // either way, so it always fails with the explicit diagnostic
        // rather than a clean pass.
        let caught = report.violation.is_some();
        if resolved.label == "broken" {
            if !caught {
                if report.truncated {
                    failures.push(format!("{}: {note}", resolved.label));
                } else {
                    failures.push(format!("{}: planted race NOT caught", resolved.label));
                }
            }
        } else if report.truncated {
            failures.push(format!("{}: {note}", resolved.label));
        } else if resolved.deadlock_free {
            if !report.certified_deadlock_free() {
                failures.push(format!("{}: not certified ({note})", resolved.label));
            }
        } else if !report.certified_safe() {
            failures.push(format!("{}: not certified safe ({note})", resolved.label));
        } else if args.n > 1 && report.hazard.is_none() {
            failures.push(format!(
                "{}: expected contention hazard NOT found",
                resolved.label
            ));
        }
        rows.push(vec![
            resolved.label.clone(),
            report.states.to_string(),
            report.edges.to_string(),
            report.depth.to_string(),
            if caught {
                "NO"
            } else if report.certified_safe() {
                "yes"
            } else {
                "?" // truncated: nothing was proved
            }
            .to_string(),
            if caught || report.hazard.is_some() {
                "NO"
            } else if report.certified_deadlock_free() {
                "yes"
            } else {
                "?"
            }
            .to_string(),
            worst
                .as_ref()
                .map_or_else(|| "-".into(), |w| xreport::cost_label(&w.cost)),
            note,
        ]);
        let mut item = format!("{{\"explore\":{}", xreport::explore_json(&report));
        match &worst {
            Some(w) => {
                let _ = write!(item, ",\"worst\":{}}}", xreport::worst_json(w));
            }
            None => item.push_str(",\"worst\":null}"),
        }
        json_items.push(item);
    }

    if !args.quiet {
        // First and last (note) columns left-aligned, numbers right.
        let cols = rows[0].len();
        print!(
            "{}",
            exclusion_workload::report::text_table(&rows, &[0, cols - 1])
        );
    }
    if let Some(path) = &args.json {
        let json = format!(
            "{{\"schema\":\"{}\",\"n\":{},\"passages\":{},\"model\":\"{}\",\"results\":[{}]}}",
            xreport::JSON_SCHEMA,
            args.n,
            args.cfg.passages,
            args.model,
            json_items.join(",")
        );
        emit(path, "JSON report", &json)?;
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("; "))
    }
}

const BOUND_USAGE: &str = "\
workload bound — play the adaptive lower-bound adversary game and
report the forced cost per model, with a least-squares fit of the SC
curve against the paper's c·n·log₂n growth law

USAGE:
    workload bound [OPTIONS]

OPTIONS:
    --algs A,B,...|all   algorithm specs to force (default: all — every
                         registry entry)
    --n LO..HI|N,M,...   the n grid: a doubling range (4..64 means
                         4,8,16,32,64; the upper end is always
                         included) or an explicit comma list
                         (default: 4..64)
    --passages P         passages per process (default: 1)
    --seed S             adaptive tie-break seed (default: 0)
    --patience K         starvation-valve threshold for both portfolio
                         strategies (default: 4n+4)
    --max-steps N        step budget per strategy run (default: 50000000)
    --json PATH          write the JSON report (`-` for stdout)
    --quiet              suppress the text table
    --help               this text

Exit status is nonzero when any game fails to complete within its step
budget, when the forced cost falls below the greedy baseline anywhere
(the adversary portfolio must dominate it), or when a completed SC
curve does not fit c·n·log₂n with c > 0.
";

struct BoundArgs {
    algs: Vec<String>,
    ns: Vec<usize>,
    json: Option<String>,
    quiet: bool,
    cfg: exclusion_bound::BoundConfig,
}

/// Parses the `--n` grid: `LO..HI` (doubling, upper end included) or an
/// explicit comma list.
fn parse_grid(s: &str) -> Result<Vec<usize>, String> {
    let ns = if let Some((lo, hi)) = s.split_once("..") {
        let lo: usize = lo.parse().map_err(|e| format!("--n: {e}"))?;
        let hi: usize = hi.parse().map_err(|e| format!("--n: {e}"))?;
        exclusion_bound::doubling_grid(lo, hi)
    } else {
        s.split(',')
            .map(|part| part.parse().map_err(|e| format!("--n: {e}")))
            .collect::<Result<Vec<usize>, String>>()?
    };
    if ns.is_empty() || ns.contains(&0) {
        return Err(format!("--n: `{s}` is not a usable grid"));
    }
    Ok(ns)
}

fn parse_bound_args(argv: &[String]) -> Result<Option<BoundArgs>, String> {
    let mut args = BoundArgs {
        algs: Vec::new(),
        ns: exclusion_bound::doubling_grid(4, 64),
        json: None,
        quiet: false,
        cfg: exclusion_bound::BoundConfig::default(),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--algs" => args.algs.extend(split_specs(&value()?)),
            "--n" => args.ns = parse_grid(&value()?)?,
            "--passages" => {
                args.cfg.passages = value()?.parse().map_err(|e| format!("--passages: {e}"))?;
            }
            "--seed" => args.cfg.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--patience" => {
                args.cfg.patience = Some(value()?.parse().map_err(|e| format!("--patience: {e}"))?);
            }
            "--max-steps" => {
                args.cfg.max_steps = value()?.parse().map_err(|e| format!("--max-steps: {e}"))?;
            }
            "--json" => args.json = Some(value()?),
            "--quiet" => args.quiet = true,
            "--help" | "-h" => {
                print!("{BOUND_USAGE}");
                return Ok(None);
            }
            other => return Err(format!("unknown flag `{other}` (try bound --help)")),
        }
    }
    if args.cfg.passages == 0 {
        return Err("--passages must be positive".into());
    }
    if args.algs.is_empty() || args.algs.iter().any(|a| a == "all") {
        // A forced-passage game only terminates against locks that
        // guarantee progress; entries disclaiming deadlock-freedom
        // (the splitter locks) are excluded from `all`, though naming
        // one explicitly still plays it (and reports its stall).
        args.algs = AlgorithmRegistry::global()
            .entries()
            .filter(|e| e.info().deadlock_free)
            .map(|e| e.info().name.clone())
            .collect();
    }
    Ok(Some(args))
}

fn run_bound(argv: &[String]) -> Result<(), String> {
    use exclusion_bound::{force_curve, BoundCurve, MODELS, SC};

    let Some(args) = parse_bound_args(argv)? else {
        return Ok(());
    };
    let registry = AlgorithmRegistry::global();
    let mut curves: Vec<BoundCurve> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    let start = std::time::Instant::now();
    for spec in &args.algs {
        let curve = force_curve(registry, spec, &args.ns, &args.cfg).map_err(|e| e.to_string())?;
        for cell in &curve.cells {
            if !cell.completed() {
                failures.push(format!(
                    "{} n={}: no strategy completed ({})",
                    curve.algorithm,
                    cell.n,
                    cell.errors.join("; ")
                ));
                continue;
            }
            for (m, model) in MODELS.iter().enumerate() {
                if cell.forced[m] < cell.greedy[m] {
                    failures.push(format!(
                        "{} n={} {model}: forced {} below greedy {}",
                        curve.algorithm, cell.n, cell.forced[m], cell.greedy[m]
                    ));
                }
            }
        }
        if curve
            .cells
            .iter()
            .any(exclusion_bound::ForcedRun::completed)
            && curve.fits[SC].c <= 0.0
        {
            failures.push(format!(
                "{}: SC fit c = {} is not positive",
                curve.algorithm, curve.fits[SC].c
            ));
        }
        curves.push(curve);
    }

    if !args.quiet {
        let mut rows: Vec<Vec<String>> = vec![[
            "algorithm",
            "n",
            "steps",
            "sc",
            "sc-adapt",
            "sc-greedy",
            "cc",
            "dsm",
            "winner",
            "note",
        ]
        .iter()
        .map(ToString::to_string)
        .collect()];
        for curve in &curves {
            for cell in &curve.cells {
                rows.push(vec![
                    curve.algorithm.clone(),
                    cell.n.to_string(),
                    cell.steps.to_string(),
                    cell.forced[0].to_string(),
                    cell.adaptive[0].to_string(),
                    cell.greedy[0].to_string(),
                    cell.forced[1].to_string(),
                    cell.forced[2].to_string(),
                    cell.winner[SC].to_string(),
                    cell.errors.join("; "),
                ]);
            }
        }
        let cols = rows[0].len();
        print!(
            "{}",
            exclusion_workload::report::text_table(&rows, &[0, cols - 2, cols - 1])
        );
        for curve in &curves {
            println!(
                "{}: sc ≈ {:.2}·n·log₂n (r² {:.3}); cc c={:.2}, dsm c={:.2}",
                curve.algorithm,
                curve.fits[0].c,
                curve.fits[0].r2,
                curve.fits[1].c,
                curve.fits[2].c
            );
        }
        eprintln!(
            "forced {} curves / {} games in {:.1} ms",
            curves.len(),
            curves.iter().map(|c| c.cells.len()).sum::<usize>(),
            start.elapsed().as_secs_f64() * 1e3
        );
    }
    if let Some(path) = &args.json {
        emit(path, "JSON report", &bound_json(&args, &curves))?;
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("; "))
    }
}

/// Hand-rolled JSON for the bound report, matching the house style of
/// the sweep and explore reports. Witness schedules are summarized by
/// length (they can run to millions of picks); replay them via the
/// library API instead.
fn bound_json(args: &BoundArgs, curves: &[exclusion_bound::BoundCurve]) -> String {
    use exclusion_bound::{models_json, MODELS};
    use exclusion_explore::report::json_escape;

    let mut out = format!(
        "{{\"schema\":\"exclusion-bound/v1\",\"passages\":{},\"seed\":{},\"max_steps\":{},\"grid\":{:?},\"curves\":[",
        args.cfg.passages, args.cfg.seed, args.cfg.max_steps, args.ns
    );
    for (i, curve) in curves.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"algorithm\":\"{}\",\"fits\":{{",
            json_escape(&curve.algorithm)
        );
        for (m, model) in MODELS.iter().enumerate() {
            let _ = write!(
                out,
                "{}\"{model}\":{{\"c\":{:.6},\"r2\":{:.6}}}",
                if m > 0 { "," } else { "" },
                curve.fits[m].c,
                curve.fits[m].r2
            );
        }
        out.push_str("},\"cells\":[");
        for (j, cell) in curve.cells.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let errors = cell
                .errors
                .iter()
                .map(|e| format!("\"{}\"", json_escape(e)))
                .collect::<Vec<_>>()
                .join(",");
            let _ = write!(
                out,
                "{{\"n\":{},\"steps\":{},\"schedule_len\":{},\"forced\":{{{}}},\"adaptive\":{{{}}},\"greedy\":{{{}}},\"winner\":\"{}\",\"errors\":[{errors}]}}",
                cell.n,
                cell.steps,
                cell.schedule.len(),
                models_json(&cell.forced),
                models_json(&cell.adaptive),
                models_json(&cell.greedy),
                cell.winner[0],
            );
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

const CRASH_USAGE: &str = "\
workload crash — the crash-budget adversary: exhaustively certify every
recoverable lock against bounded crash injection, then play the crash
game and report the forced cost in remote memory references (RMR-CC /
RMR-DSM) per crash budget

USAGE:
    workload crash [OPTIONS]

OPTIONS:
    --algs A,B,...|all   algorithm specs (default: every registry entry
                         claiming `recoverable`, the planted
                         broken-recover included)
    --n LO..HI|N,M,...   the n grid for the crash game (default: 2,3)
    --crashes K          the crash budget: games sweep every k in 0..=K
                         and certification uses K itself (default: from
                         --sched, else 1)
    --sched SPEC         a scheduler spec whose `crashes=` parameter
                         supplies the budget when --crashes is absent
                         (e.g. fanlynch:crashes=2). The game itself
                         always plays the full adaptive + greedy
                         portfolio; the spec is the budget's spelling,
                         not a strategy override (default: fanlynch)
    --no-certify         skip the exhaustive certification pass
    --no-symmetry        disable orbit reduction in the certification
                         pass (partial-order reduction is never applied
                         under crash branching)
    --compress           fingerprint the certification pass's
                         transposition table
    --spill              stream certification BFS frontiers through an
                         unlinked temp file
    --max-states S       certification transposition-table cap
                         (default: 2000000)
    --passages P         passages per process (default: 1)
    --seed S             adaptive tie-break seed (default: 0)
    --patience K         starvation-valve threshold for both portfolio
                         strategies (default: 4n+4)
    --max-steps N        step budget per strategy run (default: 50000000)
    --json PATH          write the JSON report (`-` for stdout)
    --quiet              suppress the text tables
    --help               this text

Certification explores the product of system states and crashes-used
exhaustively, so it runs only at the grid points with n <= 3; honest
locks must certify and the planted broken-recover must be refuted with
a replayable crash witness. Exit status is nonzero when either
expectation fails, when any crash game fails to complete, or when a
forced RMR cost falls below the greedy baseline.
";

struct CrashArgs {
    algs: Vec<String>,
    ns: Vec<usize>,
    budget: usize,
    certify: bool,
    json: Option<String>,
    quiet: bool,
    cfg: exclusion_bound::BoundConfig,
    /// Explorer knobs for the certification pass (`passages` is taken
    /// from `cfg` so the game and the certification agree on bounds).
    xcfg: ExploreConfig,
}

fn parse_crash_args(argv: &[String]) -> Result<Option<CrashArgs>, String> {
    let mut args = CrashArgs {
        algs: Vec::new(),
        ns: vec![2, 3],
        budget: 0,
        certify: true,
        json: None,
        quiet: false,
        cfg: exclusion_bound::BoundConfig::default(),
        xcfg: ExploreConfig::default(),
    };
    let mut sched = String::from("fanlynch");
    let mut crashes: Option<usize> = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--algs" => args.algs.extend(split_specs(&value()?)),
            "--n" => args.ns = parse_grid(&value()?)?,
            "--crashes" => {
                crashes = Some(value()?.parse().map_err(|e| format!("--crashes: {e}"))?);
            }
            "--sched" => sched = value()?,
            "--no-certify" => args.certify = false,
            "--no-symmetry" => args.xcfg.symmetry = false,
            "--compress" => args.xcfg.compress = true,
            "--spill" => args.xcfg.spill = true,
            "--max-states" => {
                args.xcfg.max_states =
                    value()?.parse().map_err(|e| format!("--max-states: {e}"))?;
            }
            "--passages" => {
                args.cfg.passages = value()?.parse().map_err(|e| format!("--passages: {e}"))?;
            }
            "--seed" => args.cfg.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--patience" => {
                args.cfg.patience = Some(value()?.parse().map_err(|e| format!("--patience: {e}"))?);
            }
            "--max-steps" => {
                args.cfg.max_steps = value()?.parse().map_err(|e| format!("--max-steps: {e}"))?;
            }
            "--json" => args.json = Some(value()?),
            "--quiet" => args.quiet = true,
            "--help" | "-h" => {
                print!("{CRASH_USAGE}");
                return Ok(None);
            }
            other => return Err(format!("unknown flag `{other}` (try crash --help)")),
        }
    }
    if args.cfg.passages == 0 {
        return Err("--passages must be positive".into());
    }
    // The budget comes from --crashes, else from the scheduler spec's
    // `crashes=` parameter (`fanlynch:crashes=2`), else defaults to 1.
    // Resolving through the registry also validates the spelling, so
    // `fanlynch:crashes=-1` fails here with the registry's own error.
    let resolved = SchedulerRegistry::global()
        .resolve_str(&sched, 2)
        .map_err(|e| format!("--sched: {e}"))?;
    args.budget = match crashes {
        Some(k) => k,
        None if resolved.crashes > 0 => resolved.crashes,
        None => 1,
    };
    // Same structured validation as the explore subcommand: an
    // oversized --max-states is a flag error, not a mid-run assert.
    if let Err(e) = args.xcfg.validated() {
        return Err(e.to_string());
    }
    if args.algs.is_empty() || args.algs.iter().any(|a| a == "all") {
        args.algs = AlgorithmRegistry::global()
            .entries()
            .filter(|e| e.info().recoverable)
            .map(|e| e.info().name.clone())
            .collect();
    }
    Ok(Some(args))
}

fn run_crash(argv: &[String]) -> Result<(), String> {
    use exclusion_bound::{force_crash_curve, CrashCurve, RMR_CC, RMR_MODELS};
    use exclusion_explore::certify_recoverable;

    let Some(args) = parse_crash_args(argv)? else {
        return Ok(());
    };
    let registry = AlgorithmRegistry::global();
    let ks: Vec<usize> = (0..=args.budget).collect();
    let mut failures: Vec<String> = Vec::new();
    let start = std::time::Instant::now();

    // Pass 1: exhaustive certification at the small grid points. The
    // planted broken-recover must be refuted, honest locks must certify.
    let mut certs: Vec<(String, usize, exclusion_explore::CrashReport)> = Vec::new();
    if args.certify {
        let xcfg = ExploreConfig {
            passages: args.cfg.passages,
            ..args.xcfg
        };
        for spec in &args.algs {
            for &n in args.ns.iter().filter(|&&n| n <= 3) {
                let resolved = registry.resolve_str(spec, n).map_err(|e| e.to_string())?;
                let report = certify_recoverable(resolved.automaton.as_ref(), args.budget, &xcfg);
                let planted = resolved.label == "broken-recover";
                // A truncated exploration certifies (and refutes)
                // nothing: fail loudly instead of printing a clean
                // pass, whatever the entry.
                if report.truncated && report.violation.is_none() {
                    failures.push(format!(
                        "{} n={n}: truncated at {} states, not certified under {} crashes \
                         — raise the state cap",
                        resolved.label, report.states, args.budget
                    ));
                } else if planted && args.budget > 0 && report.violation.is_none() {
                    failures.push(format!(
                        "{} n={n}: planted unsafe recovery NOT caught under {} crashes",
                        resolved.label, args.budget
                    ));
                } else if !planted && !report.certified_recoverable() {
                    failures.push(format!(
                        "{} n={n}: not certified under {} crashes",
                        resolved.label, args.budget
                    ));
                }
                certs.push((resolved.label, n, report));
            }
        }
    }

    // Pass 2: the crash game, swept over budgets 0..=K.
    let mut curves: Vec<CrashCurve> = Vec::new();
    for spec in &args.algs {
        let curve = force_crash_curve(registry, spec, &args.ns, &ks, &args.cfg)
            .map_err(|e| e.to_string())?;
        for row in &curve.rows {
            for cell in &row.cells {
                if !cell.completed() {
                    failures.push(format!(
                        "{} n={} k={}: no strategy completed ({})",
                        curve.algorithm,
                        cell.n,
                        row.budget,
                        cell.errors.join("; ")
                    ));
                    continue;
                }
                for (m, model) in RMR_MODELS.iter().enumerate() {
                    if cell.forced[m] < cell.greedy[m] {
                        failures.push(format!(
                            "{} n={} k={} {model}: forced {} below greedy {}",
                            curve.algorithm, cell.n, row.budget, cell.forced[m], cell.greedy[m]
                        ));
                    }
                }
            }
        }
        curves.push(curve);
    }

    if !args.quiet {
        if !certs.is_empty() {
            let mut rows: Vec<Vec<String>> = vec![[
                "algorithm",
                "n",
                "budget",
                "states",
                "depth",
                "recoverable",
                "witness",
            ]
            .iter()
            .map(ToString::to_string)
            .collect()];
            for (label, n, report) in &certs {
                rows.push(vec![
                    label.clone(),
                    n.to_string(),
                    report.budget.to_string(),
                    report.states.to_string(),
                    report.depth.to_string(),
                    if report.violation.is_some() {
                        "NO"
                    } else if report.certified_recoverable() {
                        "yes"
                    } else {
                        "?" // truncated: nothing was proved
                    }
                    .to_string(),
                    report.violation.as_ref().map_or_else(String::new, |v| {
                        format!("{} steps, {} crashes", v.picks.len(), v.crashes())
                    }),
                ]);
            }
            let cols = rows[0].len();
            print!(
                "{}",
                exclusion_workload::report::text_table(&rows, &[0, cols - 1])
            );
        }
        let mut rows: Vec<Vec<String>> = vec![[
            "algorithm",
            "n",
            "k",
            "steps",
            "inj",
            "rmr-cc",
            "cc-adapt",
            "cc-greedy",
            "rmr-dsm",
            "winner",
            "note",
        ]
        .iter()
        .map(ToString::to_string)
        .collect()];
        for curve in &curves {
            for row in &curve.rows {
                for cell in &row.cells {
                    rows.push(vec![
                        curve.algorithm.clone(),
                        cell.n.to_string(),
                        row.budget.to_string(),
                        cell.steps.to_string(),
                        cell.injected.to_string(),
                        cell.forced[RMR_CC].to_string(),
                        cell.adaptive[RMR_CC].to_string(),
                        cell.greedy[RMR_CC].to_string(),
                        cell.forced[1].to_string(),
                        cell.winner[RMR_CC].to_string(),
                        cell.errors.join("; "),
                    ]);
                }
            }
        }
        let cols = rows[0].len();
        print!(
            "{}",
            exclusion_workload::report::text_table(&rows, &[0, cols - 2, cols - 1])
        );
        eprintln!(
            "crash-certified {} cells / forced {} games in {:.1} ms",
            certs.len(),
            curves
                .iter()
                .map(|c| c.rows.iter().map(|r| r.cells.len()).sum::<usize>())
                .sum::<usize>(),
            start.elapsed().as_secs_f64() * 1e3
        );
    }
    if let Some(path) = &args.json {
        emit(path, "JSON report", &crash_json(&args, &certs, &curves))?;
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("; "))
    }
}

/// Hand-rolled JSON for the crash report, matching the house style.
/// Witness traces are summarized by length and crash count; replay them
/// via the library API (`CrashForcedRun::replay_artifacts`,
/// `CrashCounterexample::replay_artifacts`) instead.
fn crash_json(
    args: &CrashArgs,
    certs: &[(String, usize, exclusion_explore::CrashReport)],
    curves: &[exclusion_bound::CrashCurve],
) -> String {
    use exclusion_bound::{rmr_models_json, RMR_CC, RMR_MODELS};
    use exclusion_explore::report::json_escape;

    let mut out = format!(
        "{{\"schema\":\"exclusion-crash/v1\",\"passages\":{},\"seed\":{},\"budget\":{},\"grid\":{:?},\"certify\":[",
        args.cfg.passages, args.cfg.seed, args.budget, args.ns
    );
    for (i, (label, n, report)) in certs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let witness = report.violation.as_ref().map_or_else(
            || "null".into(),
            |v| {
                format!(
                    "{{\"steps\":{},\"crashes\":{}}}",
                    v.picks.len(),
                    v.crashes()
                )
            },
        );
        let _ = write!(
            out,
            "{{\"algorithm\":\"{}\",\"n\":{n},\"budget\":{},\"states\":{},\"edges\":{},\"depth\":{},\"certified\":{},\"violation\":{witness}}}",
            json_escape(label),
            report.budget,
            report.states,
            report.edges,
            report.depth,
            report.certified_recoverable(),
        );
    }
    out.push_str("],\"curves\":[");
    for (i, curve) in curves.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"algorithm\":\"{}\",\"rows\":[",
            json_escape(&curve.algorithm)
        );
        for (j, row) in curve.rows.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"crashes\":{},\"fits\":{{", row.budget);
            for (m, model) in RMR_MODELS.iter().enumerate() {
                let _ = write!(
                    out,
                    "{}\"{model}\":{{\"c\":{:.6},\"r2\":{:.6}}}",
                    if m > 0 { "," } else { "" },
                    row.fits[m].c,
                    row.fits[m].r2
                );
            }
            out.push_str("},\"cells\":[");
            for (c, cell) in row.cells.iter().enumerate() {
                if c > 0 {
                    out.push(',');
                }
                let errors = cell
                    .errors
                    .iter()
                    .map(|e| format!("\"{}\"", json_escape(e)))
                    .collect::<Vec<_>>()
                    .join(",");
                let _ = write!(
                    out,
                    "{{\"n\":{},\"steps\":{},\"injected\":{},\"forced\":{{{}}},\"adaptive\":{{{}}},\"greedy\":{{{}}},\"winner\":\"{}\",\"errors\":[{errors}]}}",
                    cell.n,
                    cell.steps,
                    cell.injected,
                    rmr_models_json(&cell.forced),
                    rmr_models_json(&cell.adaptive),
                    rmr_models_json(&cell.greedy),
                    cell.winner[RMR_CC],
                );
            }
            out.push_str("]}");
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

const TRACE_USAGE: &str = "\
workload trace — run one scenario with the structured probe attached
and export a Chrome trace-event JSON (load it at https://ui.perfetto.dev)

USAGE:
    workload trace [OPTIONS]

OPTIONS:
    --alg A              algorithm spec (default: peterson)
    --sched S            scheduler spec; `fanlynch` (aliases: adaptive,
                         fan-lynch) is constructed directly so its
                         internal awareness-merge / harvest / reveal
                         events are captured too (default: fanlynch)
    --n N                processes (default: 8)
    --passages P         passages per process (default: 1)
    --seed S             scheduler seed / adaptive tie-break (default: 1)
    --max-steps N        step budget (default: 50000000)
    --out PATH           write the Chrome trace JSON (`-` for stdout,
                         the default)
    --metrics PATH       also write the aggregated metrics JSON
    --progress every:N   print a status line to stderr every N events
                         (`--progress=every:N` also parses; 0 = off)
    --help               this text

The exported trace is a pure function of (alg, sched, n, passages,
seed): two identical invocations emit byte-identical JSON.
";

struct TraceArgs {
    alg: String,
    sched: String,
    n: usize,
    passages: usize,
    seed: u64,
    max_steps: usize,
    out: String,
    metrics: Option<String>,
    every: u64,
}

fn parse_progress(v: &str) -> Result<u64, String> {
    let v = v.strip_prefix("every:").unwrap_or(v);
    v.parse().map_err(|e| format!("--progress: {e}"))
}

fn parse_trace_args(argv: &[String]) -> Result<Option<TraceArgs>, String> {
    let mut args = TraceArgs {
        alg: "peterson".into(),
        sched: "fanlynch".into(),
        n: 8,
        passages: 1,
        seed: 1,
        max_steps: 50_000_000,
        out: "-".into(),
        metrics: None,
        every: 0,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--alg" => args.alg = value()?,
            "--sched" => args.sched = value()?,
            "--n" => args.n = value()?.parse().map_err(|e| format!("--n: {e}"))?,
            "--passages" => {
                args.passages = value()?.parse().map_err(|e| format!("--passages: {e}"))?;
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--max-steps" => {
                args.max_steps = value()?.parse().map_err(|e| format!("--max-steps: {e}"))?;
            }
            "--out" => args.out = value()?,
            "--metrics" => args.metrics = Some(value()?),
            "--progress" => args.every = parse_progress(&value()?)?,
            "--help" | "-h" => {
                print!("{TRACE_USAGE}");
                return Ok(None);
            }
            other => match other.strip_prefix("--progress=") {
                Some(v) => args.every = parse_progress(v)?,
                None => return Err(format!("unknown flag `{other}` (try trace --help)")),
            },
        }
    }
    if args.passages == 0 {
        return Err("--passages must be positive".into());
    }
    Ok(Some(args))
}

/// The trace subcommand's composite sink: always collects (for the
/// Chrome export), optionally aggregates metrics, optionally prints
/// progress — one probe handed to the whole run.
struct TraceSink {
    collect: exclusion_trace::CollectingProbe,
    metrics: Option<exclusion_trace::Metrics>,
    progress: exclusion_trace::Progress,
}

impl exclusion_trace::Probe for TraceSink {
    fn record(&mut self, ev: &exclusion_trace::TraceEvent) {
        self.collect.record(ev);
        if let Some(m) = &mut self.metrics {
            m.record(ev);
        }
        self.progress.record(ev);
    }
}

fn run_trace(argv: &[String]) -> Result<(), String> {
    use exclusion_trace::{Probe as _, SharedProbe, SpanScope, TraceEvent};

    let Some(args) = parse_trace_args(argv)? else {
        return Ok(());
    };
    let mut sink = TraceSink {
        collect: exclusion_trace::CollectingProbe::new(),
        metrics: args
            .metrics
            .as_ref()
            .map(|_| exclusion_trace::Metrics::new()),
        progress: exclusion_trace::Progress::new(args.every),
    };
    // The adaptive adversary is special-cased by name: the registry's
    // erased builder cannot carry a probe, so `fanlynch` is constructed
    // directly and shares the sink with the pricing driver — that is
    // what puts awareness-merge/harvest/reveal events in the trace.
    let fanlynch = matches!(args.sched.as_str(), "fanlynch" | "adaptive" | "fan-lynch");
    sink.record(&TraceEvent::SpanStart {
        scope: SpanScope::Run,
        tag: 0,
    });
    let start = std::time::Instant::now();
    let (steps, sc, cc, dsm) = if fanlynch {
        let resolved = AlgorithmRegistry::global()
            .resolve_str(&args.alg, args.n)
            .map_err(|e| e.to_string())?;
        let alg = resolved.automaton;
        let cell = std::cell::RefCell::new(&mut sink as &mut dyn exclusion_trace::Probe);
        let probe = SharedProbe::new(&cell);
        let mut sched = exclusion_bound::AdaptiveAdversary::new(args.seed).with_probe(probe);
        let priced = exclusion_cost::run_priced_probed(
            &exclusion_shmem::dynamic::DynRef(alg.as_ref()),
            &mut sched,
            args.passages,
            args.max_steps,
            probe,
        )
        .map_err(|e| e.to_string())?;
        (
            priced.steps,
            priced.sc.total(),
            priced.cc.total(),
            priced.dsm.total(),
        )
    } else {
        let sched = SchedSpec::parse(&args.sched).map_err(|e| e.to_string())?;
        let scenario = Scenario::builder(args.alg.clone(), args.n)
            .passages(args.passages)
            .sched(sched)
            .seeds([args.seed])
            .max_steps(args.max_steps)
            .build()
            .map_err(|e| e.to_string())?;
        let record = exclusion_workload::run_probed(&scenario, args.seed, &mut sink);
        if let Some(e) = record.error {
            return Err(e);
        }
        (record.steps, record.sc, record.cc, record.dsm)
    };
    sink.record(&TraceEvent::SpanEnd {
        scope: SpanScope::Run,
        tag: 0,
        wall_ns: u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX),
    });
    eprintln!(
        "traced {} {} n={} seed={}: {} steps / {} events | sc {sc} cc {cc} dsm {dsm}",
        args.alg,
        args.sched,
        args.n,
        args.seed,
        steps,
        sink.collect.len(),
    );
    emit(
        &args.out,
        "Chrome trace",
        &exclusion_trace::chrome_trace(sink.collect.events()),
    )?;
    if let Some(path) = &args.metrics {
        let m = sink.metrics.as_ref().expect("metrics were requested");
        emit(path, "metrics JSON", &exclusion_trace::metrics_json(m))?;
    }
    Ok(())
}

const SERVE_USAGE: &str = "\
workload serve — drive an open stream of lock requests through one
algorithm as a deterministic discrete-event loop, with bounded-memory
live percentiles

USAGE:
    workload serve [OPTIONS]

OPTIONS:
    --alg A              algorithm spec (default: peterson)
    --n N                processes = max requests in flight (default: 4)
    --sched S            scheduler spec from the registry
                         (default: round-robin)
    --arrivals M         arrival model spec: steady[:gap=G] |
                         poisson[:rate=R] | bursty[:size=B,gap=G] |
                         diurnal[:period=P,peak=R,trough=R]
                         (default: poisson:rate=0.25)
    --requests N         stream length (default: 1000000)
    --deadline D         queue patience in ticks; a request waiting
                         longer abandons, and is counted
                         (default: wait forever)
    --ring R             pending-ring capacity, 0 = 2n (default: 0)
    --stripe S           requests per shard (default: 8192)
    --workers W          worker threads, 0 = one per core (default: 0)
    --seed S             base seed (default: 1)
    --max-steps N        step budget per stripe (default: 50000000)
    --no-cache           disable the solo-admission cache
    --json PATH          write the JSON report (`-` for stdout,
                         the default)
    --progress every:N   print a status line to stderr every N events
                         (0 = off)
    --quiet              suppress the stderr summary
    --help               this text

The report is a pure function of every option above except --workers
and --progress: byte-identical across worker counts and repeated runs.
Failed stripes (step budget, misbehaving scheduler) are reported in
the JSON and exit nonzero; they never panic.
";

struct ServeArgs {
    alg: String,
    n: usize,
    sched: String,
    arrivals: String,
    requests: u64,
    deadline: Option<u64>,
    ring: usize,
    stripe: u64,
    workers: usize,
    seed: u64,
    max_steps: u64,
    cache: bool,
    json: String,
    every: u64,
    quiet: bool,
}

fn parse_serve_args(argv: &[String]) -> Result<Option<ServeArgs>, String> {
    let mut args = ServeArgs {
        alg: "peterson".into(),
        n: 4,
        sched: "round-robin".into(),
        arrivals: "poisson:rate=0.25".into(),
        requests: 1_000_000,
        deadline: None,
        ring: 0,
        stripe: 8192,
        workers: 0,
        seed: 1,
        max_steps: 50_000_000,
        cache: true,
        json: "-".into(),
        every: 0,
        quiet: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--alg" => args.alg = value()?,
            "--n" => args.n = value()?.parse().map_err(|e| format!("--n: {e}"))?,
            "--sched" => args.sched = value()?,
            "--arrivals" => args.arrivals = value()?,
            "--requests" => {
                args.requests = value()?.parse().map_err(|e| format!("--requests: {e}"))?;
            }
            "--deadline" => {
                args.deadline = Some(value()?.parse().map_err(|e| format!("--deadline: {e}"))?);
            }
            "--ring" => args.ring = value()?.parse().map_err(|e| format!("--ring: {e}"))?,
            "--stripe" => args.stripe = value()?.parse().map_err(|e| format!("--stripe: {e}"))?,
            "--workers" => {
                args.workers = value()?.parse().map_err(|e| format!("--workers: {e}"))?;
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--max-steps" => {
                args.max_steps = value()?.parse().map_err(|e| format!("--max-steps: {e}"))?;
            }
            "--no-cache" => args.cache = false,
            "--json" => args.json = value()?,
            "--progress" => args.every = parse_progress(&value()?)?,
            "--quiet" => args.quiet = true,
            "--help" | "-h" => {
                print!("{SERVE_USAGE}");
                return Ok(None);
            }
            other => match other.strip_prefix("--progress=") {
                Some(v) => args.every = parse_progress(v)?,
                None => return Err(format!("unknown flag `{other}` (try serve --help)")),
            },
        }
    }
    if args.stripe == 0 {
        return Err("--stripe must be positive".into());
    }
    Ok(Some(args))
}

fn run_serve(argv: &[String]) -> Result<(), String> {
    use exclusion_serve::{ServeJob, ServeOptions};

    let Some(args) = parse_serve_args(argv)? else {
        return Ok(());
    };
    // Registry schedulers are built per stripe; closed-scenario
    // policies that size themselves by passages (`sequential`) get the
    // stripe length as the hint — one serve stripe admits at most
    // `stripe` requests.
    let resolved = SchedulerRegistry::global()
        .resolve_str(&args.sched, args.n)
        .map_err(|e| e.to_string())?;
    let passages_hint = usize::try_from(args.stripe).unwrap_or(usize::MAX);
    let job = ServeJob::new(&args.alg, args.n, args.requests)
        .map_err(|e| e.to_string())?
        .arrivals(&args.arrivals)
        .map_err(|e| e.to_string())?
        .scheduler(resolved.label.clone(), move |seed| {
            resolved.build(passages_hint, seed)
        });
    let opts = ServeOptions {
        workers: args.workers,
        stripe: args.stripe,
        ring: args.ring,
        deadline: args.deadline,
        seed: args.seed,
        max_steps: args.max_steps,
        cache: args.cache,
        progress: args.every,
    };
    let start = std::time::Instant::now();
    let report = exclusion_serve::serve(&job, &opts);
    let elapsed = start.elapsed().as_secs_f64();
    if !args.quiet {
        #[allow(clippy::cast_precision_loss)]
        let rate = |x: u64| x as f64 / elapsed.max(1e-9);
        eprintln!(
            "served {} of {} requests ({} abandoned, {} unserved) on {} {} under {} [{}]",
            report.completed,
            report.requests,
            report.abandoned,
            report.unserved,
            report.algorithm,
            format_args!("n={}", report.n),
            report.scheduler,
            report.arrivals,
        );
        eprintln!(
            "  {} steps in {:.1} ms wall ({:.0} requests/s, {:.0} steps/s) | cache {} hits / {} misses",
            report.steps,
            elapsed * 1e3,
            rate(report.completed),
            rate(report.steps),
            report.cache_hits,
            report.cache_misses,
        );
        eprintln!(
            "  latency ticks p50 {} p90 {} p99 {} p999 {} | throughput {:.4}/tick | abandonment {:.4}",
            report.latency.quantile(0.50),
            report.latency.quantile(0.90),
            report.latency.quantile(0.99),
            report.latency.quantile(0.999),
            report.throughput(),
            report.abandonment_rate(),
        );
    }
    emit(&args.json, "serve report", &report.to_json())?;
    if !report.errors.is_empty() {
        return Err(format!(
            "{} stripes failed ({})",
            report.errors.len(),
            report.errors[0]
        ));
    }
    Ok(())
}

const HWBENCH_USAGE: &str = "\
workload hwbench — formal-vs-hardware differential: generate one
arrival schedule, run it through the simulated registry automaton
(priced under SC/CC/DSM) and through the matching exclusion-spin lock
on real atomics, and co-report simulated RMR against measured
nanoseconds

USAGE:
    workload hwbench [OPTIONS]

OPTIONS:
    --algs A,B,...       registry specs with hardware twins
                         (default: mcs,clh,ticket)
    --arrivals M,N,...   arrival model specs
                         (default: steady:gap=64,bursty)
    --n N                processes = threads (default: 4)
    --requests R         requests (passages) per process (default: 8)
    --seed S             seed for seeded arrival models (default: 1)
    --ns-per-tick NS     hardware pacing in ns per arrival tick
                         (default: 200)
    --json PATH          write the JSON report (`-` for stdout,
                         the default)
    --quiet              suppress the stderr summary
    --help               this text

Exits nonzero if any scenario's two legs disagree on per-thread
passage counts. All row fields are deterministic per scenario except
elapsed_ns / mean_wait_ns / max_wait_ns, which are measurements —
exclude them from byte-identity comparisons.
";

struct HwbenchArgs {
    algs: Vec<String>,
    arrivals: Vec<String>,
    n: usize,
    requests: usize,
    seed: u64,
    ns_per_tick: u64,
    json: String,
    quiet: bool,
}

fn parse_hwbench_args(argv: &[String]) -> Result<Option<HwbenchArgs>, String> {
    let mut args = HwbenchArgs {
        algs: vec!["mcs".into(), "clh".into(), "ticket".into()],
        arrivals: vec!["steady:gap=64".into(), "bursty".into()],
        n: 4,
        requests: 8,
        seed: 1,
        ns_per_tick: 200,
        json: "-".into(),
        quiet: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--algs" => args.algs = split_specs(&value()?),
            "--arrivals" => args.arrivals = split_specs(&value()?),
            "--n" => args.n = value()?.parse().map_err(|e| format!("--n: {e}"))?,
            "--requests" => {
                args.requests = value()?.parse().map_err(|e| format!("--requests: {e}"))?;
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--ns-per-tick" => {
                args.ns_per_tick = value()?
                    .parse()
                    .map_err(|e| format!("--ns-per-tick: {e}"))?;
            }
            "--json" => args.json = value()?,
            "--quiet" => args.quiet = true,
            "--help" | "-h" => {
                print!("{HWBENCH_USAGE}");
                return Ok(None);
            }
            other => return Err(format!("unknown flag `{other}` (try hwbench --help)")),
        }
    }
    if args.n == 0 || args.requests == 0 {
        return Err("--n and --requests must be positive".into());
    }
    Ok(Some(args))
}

fn run_hwbench(argv: &[String]) -> Result<(), String> {
    use exclusion_workload::hwbench::{run_scenario, HwScenario};

    let Some(args) = parse_hwbench_args(argv)? else {
        return Ok(());
    };
    let mut rows = Vec::new();
    for alg in &args.algs {
        for arrivals in &args.arrivals {
            let row = run_scenario(&HwScenario {
                alg: alg.clone(),
                arrivals: arrivals.clone(),
                n: args.n,
                requests_per_process: args.requests,
                seed: args.seed,
                ns_per_tick: args.ns_per_tick,
            })
            .map_err(|e| format!("{alg} under {arrivals}: {e}"))?;
            if !args.quiet {
                eprintln!(
                    "{} under {} n={}: sim {} steps, rmr/passage {:.2}, dsm {} | hw {} in {:.2} ms (mean wait {} ns) | {}",
                    row.alg,
                    row.arrivals,
                    row.n,
                    row.sim.steps,
                    row.sim.rmr_per_passage(),
                    row.sim.dsm,
                    row.hw.lock,
                    row.hw.elapsed_ns as f64 / 1e6,
                    row.hw.mean_wait_ns,
                    if row.agree { "legs agree" } else { "LEGS DISAGREE" },
                );
            }
            rows.push(row);
        }
    }
    let mut json = String::from("{\"schema\":\"exclusion-hwbench/v1\",\"rows\":[");
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&row.to_json());
    }
    json.push_str("]}");
    emit(&args.json, "hwbench report", &json)?;
    let disagreements = rows.iter().filter(|r| !r.agree).count();
    if disagreements > 0 {
        return Err(format!(
            "{disagreements} scenarios disagree between simulation and hardware"
        ));
    }
    Ok(())
}

fn run() -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("explore") {
        return run_explore(&argv[1..]);
    }
    if argv.first().map(String::as_str) == Some("bound") {
        return run_bound(&argv[1..]);
    }
    if argv.first().map(String::as_str) == Some("crash") {
        return run_crash(&argv[1..]);
    }
    if argv.first().map(String::as_str) == Some("trace") {
        return run_trace(&argv[1..]);
    }
    if argv.first().map(String::as_str) == Some("serve") {
        return run_serve(&argv[1..]);
    }
    if argv.first().map(String::as_str) == Some("hwbench") {
        return run_hwbench(&argv[1..]);
    }
    let Some(args) = parse_args(&argv)? else {
        return Ok(());
    };
    let scenarios = build_grid(&args)?;
    let jobs: usize = scenarios.iter().map(|s| s.effective_seeds().len()).sum();
    if !args.quiet {
        eprintln!(
            "sweeping {} scenarios / {} runs on {} threads ...",
            scenarios.len(),
            jobs,
            if args.threads == 0 {
                std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
            } else {
                args.threads
            }
        );
    }
    let start = std::time::Instant::now();
    let report = sweep(
        &scenarios,
        &SweepOptions {
            threads: args.threads,
            record: args.record,
            metrics: args.metrics.is_some(),
        },
    );
    let elapsed = start.elapsed();
    if !args.quiet {
        print!("{}", report.to_text());
        let busy_ns: u64 = report.records.iter().map(|r| r.wall_ns).sum();
        #[allow(clippy::cast_precision_loss)]
        let throughput = report.records.len() as f64 / elapsed.as_secs_f64().max(1e-9);
        eprintln!(
            "swept {} runs in {:.1} ms wall ({throughput:.0} runs/s, {:.1} ms of worker time, {} pricing)",
            report.records.len(),
            elapsed.as_secs_f64() * 1e3,
            busy_ns as f64 / 1e6,
            if args.record { "replay" } else { "streaming" },
        );
    }
    if let Some(path) = &args.json {
        emit(path, "JSON report", &report.to_json())?;
    }
    if let Some(path) = &args.csv {
        emit(path, "CSV report", &report.to_csv())?;
    }
    if let Some(path) = &args.metrics {
        let m = report.metrics.as_ref().expect("metrics were requested");
        emit(path, "metrics JSON", &exclusion_trace::metrics_json(m))?;
    }
    let failures: usize = report.summaries.iter().map(|s| s.failures).sum();
    if failures > 0 {
        return Err(format!("{failures} runs exhausted their step budget"));
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("workload: {msg}");
            ExitCode::FAILURE
        }
    }
}
