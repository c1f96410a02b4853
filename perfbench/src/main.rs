//! The workspace benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Sets a workload up from its seed, runs its fixed job repeatedly for
//! about `--seconds` seconds after one untimed warm-up, checks every
//! output against the committed reference and the invariants in
//! [`workload`], and prints one JSON object as the last line of
//! standard output. With `--trace 0` it carries the end-to-end metrics,
//! measured with tracing off; with `--trace 1` the per-layer metrics of
//! the traced run in [`traced`]. See `perfbench/README.md`.
//!
//! Two more modes serve the benchmark itself: `--setup-only` sets the
//! workload up, prints the nanoseconds from the start of `main` to the
//! end of set-up and exits (the child processes `setup_s` is taken
//! from), and `--write-reference` prints the reference section for
//! `--seed`.

mod alloc;
mod ledger;
mod probe;
mod reference;
mod spans;
mod stats;
mod traced;
mod workload;

use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use crate::probe::StepCounter;
use crate::reference::{judge, Expected, Reference};
use crate::stats::median;
use crate::workload::{prepare, OpFacts, Output, Prepared, Workload};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// The seed the benchmark's documentation and baselines use.
pub const DEFAULT_SEED: u64 = 1;
/// A second committed seed that no tuning used.
pub const HELD_OUT_SEED: u64 = 2;
/// Child processes that time their set-up for `setup_s`, of which the
/// median is reported.
const SETUP_SPAWNS: usize = 41;
/// Timed jobs per run, at least.
const MIN_JOBS: usize = 3;

enum Mode {
    Measure,
    SetupOnly,
    WriteReference,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    mode: Mode,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, DEFAULT_SEED, 10, false);
    let mut mode = Mode::Measure;
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--setup-only" => mode = Mode::SetupOnly,
            "--write-reference" => mode = Mode::WriteReference,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        mode,
    })
}

/// Ops attempted and failed, and why they failed.
pub struct Book<'a> {
    prepared: &'a Prepared,
    expected: Option<&'a Expected>,
    baseline: Vec<OpFacts>,
    deep: Vec<(String, Vec<String>)>,
    /// Ops attempted so far.
    pub attempted: u64,
    /// Ops failed so far.
    pub failed: u64,
    /// One line per distinct failure reason.
    pub reasons: Vec<String>,
}

impl<'a> Book<'a> {
    /// Opens the book on the warm-up job's output: its facts become the
    /// baseline every later job must repeat, and its deep invariants
    /// are checked once.
    pub fn open(prepared: &'a Prepared, expected: Option<&'a Expected>, warm: &Output) -> Self {
        let mut book = Book {
            prepared,
            expected,
            baseline: warm.facts(prepared),
            deep: warm.problems(prepared, true),
            attempted: 0,
            failed: 0,
            reasons: Vec::new(),
        };
        book.record(warm);
        book
    }

    fn fail(&mut self, reason: String) {
        if !self.reasons.contains(&reason) {
            self.reasons.push(reason);
        }
    }

    /// Accounts one job's output: an op fails if its facts differ from
    /// the reference or from the warm-up job, or if it breaks an
    /// invariant.
    pub fn record(&mut self, out: &Output) {
        let facts = out.facts(self.prepared);
        let mismatches = self.expected.map(|e| judge(e, &facts)).unwrap_or_default();
        let all_bad = mismatches.iter().any(|(l, _)| l == "*");
        let shallow = out.problems(self.prepared, false);
        for (i, op) in facts.iter().enumerate() {
            self.attempted += op.ops;
            let mut why: Vec<String> = mismatches
                .iter()
                .filter(|(l, _)| l == &op.label || l == "*")
                .map(|(_, m)| format!("differs from the reference: {m}"))
                .collect();
            if self.baseline.get(i) != Some(op) {
                why.push("differs from the warm-up job".into());
            }
            for (label, problems) in self.deep.iter().chain(&shallow) {
                if label == &op.label {
                    why.extend(problems.iter().cloned());
                }
            }
            if !why.is_empty() || all_bad {
                self.failed += op.ops;
                for w in why {
                    self.fail(format!("{}: {w}", op.label));
                }
            }
        }
    }

    /// Records a failure of the whole run that no single op explains.
    pub fn fail_run(&mut self, reason: String) {
        self.failed = self.attempted;
        self.fail(reason);
    }
}

/// The untimed warm-up job. For the adversary it runs each game
/// through a step counter, since priced steps of both strategies — the
/// workload's unit of work — are not in `ForcedRun`.
pub fn warm_up(prepared: &Prepared) -> (Output, u64) {
    if let Prepared::Adversary { .. } = prepared {
        let mut all = Output::Adversary(Vec::new());
        let mut work = 0;
        for op in 0..prepared.instances().len() {
            let mut counter = StepCounter::default();
            let out = prepared
                .run_op_probed(op, &mut counter)
                .expect("adversary games take a probe");
            work += counter.steps.iter().sum::<u64>();
            all.extend(out);
        }
        (all, work)
    } else {
        let out = prepared.run();
        let work = out.work();
        (out, work)
    }
}

/// Median set-up time of [`SETUP_SPAWNS`] child processes, each of
/// which sets the workload up, reports the time from the start of its
/// `main` to the end of set-up, and exits. A fresh process pays the
/// registry's one-time initialisation, which a repeat in this process
/// would not; the time to start and stop a process is the OS's, so the
/// child reports its own figure instead of being timed from outside.
fn setup_seconds(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the benchmark: {e}"))?;
    let mut times = Vec::with_capacity(SETUP_SPAWNS);
    for _ in 0..SETUP_SPAWNS {
        let out = Command::new(&exe)
            .args(["--setup-only", "--workload", args.workload.name()])
            .args(["--seed", &args.seed.to_string()])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot start the set-up child: {e}"))?;
        if !out.status.success() {
            return Err(format!("the set-up child failed: {}", out.status));
        }
        let ns: u64 = String::from_utf8_lossy(&out.stdout)
            .trim()
            .parse()
            .map_err(|e| format!("the set-up child printed no time: {e}"))?;
        times.push(ns as f64 / 1e9);
    }
    Ok(median(&mut times))
}

/// Peak resident set of this process so far, in MiB, from
/// `/proc/self/status`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// A metric as printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// The untraced run: warm-up, then timed jobs for about `seconds`.
fn measure<'a>(
    args: &Args,
    prepared: &'a Prepared,
    expected: Option<&'a Expected>,
) -> Result<(Vec<Metric>, Book<'a>), String> {
    let setup_s = setup_seconds(args)?;
    let (warm, work) = warm_up(prepared);
    // Read before any timed job: repeated jobs leave the allocator's
    // arenas fragmented differently from run to run, but the first job
    // in a fresh process peaks the same way each time.
    let peak_rss_mb = peak_rss_mb()?;
    let mut book = Book::open(prepared, expected, &warm);
    drop(warm);
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut walls: Vec<f64> = Vec::new();
    loop {
        let t = Instant::now();
        let out = prepared.run();
        walls.push(t.elapsed().as_secs_f64());
        book.record(&out);
        let typical = Duration::from_secs_f64(median(&mut walls.clone()));
        if walls.len() >= MIN_JOBS && start.elapsed() + typical > budget {
            break;
        }
    }
    eprintln!(
        "{}: {} timed jobs, wall_s {walls:?}",
        args.workload.name(),
        walls.len()
    );
    let wall_s = median(&mut walls);
    let metrics = vec![
        ("setup_s", setup_s, "s"),
        ("wall_s", wall_s, "s"),
        ("peak_rss_mb", peak_rss_mb, "MiB"),
        ("work_per_s", work as f64 / wall_s, "1/s"),
    ];
    Ok((metrics, book))
}

fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

fn run(args: &Args, start: Instant) -> Result<(), String> {
    let prepared = prepare(args.workload, args.seed)?;
    match args.mode {
        Mode::SetupOnly => {
            let ns = start.elapsed().as_nanos();
            drop(std::hint::black_box(prepared));
            println!("{ns}");
            return Ok(());
        }
        Mode::WriteReference => {
            let (warm, _) = warm_up(&prepared);
            let seed = args.workload.seeded().then_some(args.seed);
            print!("{}", reference::render(seed, &warm.facts(&prepared)));
            return Ok(());
        }
        Mode::Measure => {}
    }
    let reference = Reference::parse(args.workload.reference_text())
        .map_err(|e| format!("{} reference: {e}", args.workload.name()))?;
    let expected = reference.for_seed(args.seed);
    if expected.is_none() {
        eprintln!(
            "{}: no reference for seed {}; checking invariants and repeatability only \
             (reference seeds: {:?})",
            args.workload.name(),
            args.seed,
            reference.seeds()
        );
    }
    let (metrics, book) = if args.trace {
        traced::run(args.workload, args.seed, args.seconds, &prepared, expected)?
    } else {
        measure(args, &prepared, expected)?
    };
    for r in &book.reasons {
        eprintln!("FAILED {r}");
    }
    let correct = book.failed == 0 && book.reasons.is_empty();
    print_result(correct, book.attempted, book.failed, &metrics);
    Ok(())
}

fn main() -> ExitCode {
    let start = Instant::now();
    match parse_args().and_then(|args| run(&args, start)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exclusion_serve::{ServeJob, ServeOptions};

    fn small_serve() -> Prepared {
        Prepared::Serve {
            job: ServeJob::new("tas-sim", 4, 2_000)
                .and_then(|j| j.arrivals("steady:gap=64"))
                .unwrap(),
            opts: ServeOptions {
                workers: 1,
                stripe: 500,
                ..ServeOptions::default()
            },
        }
    }

    fn expected_for(prepared: &Prepared, out: &Output, edit: impl Fn(&str) -> String) -> Expected {
        let text = edit(&reference::render(Some(5), &out.facts(prepared)));
        Reference::parse(&text)
            .unwrap()
            .for_seed(5)
            .unwrap()
            .clone()
    }

    #[test]
    fn a_matching_reference_passes_the_run() {
        let prepared = small_serve();
        let out = prepared.run();
        let expected = expected_for(&prepared, &out, str::to_string);
        let mut book = Book::open(&prepared, Some(&expected), &out);
        book.record(&prepared.run());
        assert_eq!(
            (book.attempted, book.failed),
            (4_000, 0),
            "{:?}",
            book.reasons
        );
    }

    #[test]
    fn a_perturbed_reference_value_fails_the_run() {
        let prepared = small_serve();
        let out = prepared.run();
        let expected = expected_for(&prepared, &out, |t| {
            t.replace("serve.unserved 0", "serve.unserved 1")
        });
        let mut book = Book::open(&prepared, Some(&expected), &out);
        book.record(&prepared.run());
        assert_eq!((book.attempted, book.failed), (4_000, 4_000));
        assert!(book.reasons[0].contains("unserved is 0, reference 1"));
    }
}
