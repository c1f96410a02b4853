//! Benchmark-side observers: a cheap [`Probe`] for the traced run, a
//! step counter for the untraced one, and a timing wrapper around any
//! [`Scheduler`].

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use exclusion_shmem::{
    Probe, ProcessId, ProcessView, SchedContext, Scheduler, SpanScope, TraceEvent,
};

use crate::spans::Spans;

/// The traced run's probe. It turns the engines' Explore/Worst/Game
/// spans into benchmark spans (benchmark clock) and sums the engines'
/// own `wall_ns` per phase, counts Layer/Merge/Harvest/Reveal events
/// and times the gap between Layer events. Per-step Executed/Charged
/// events are dropped on arrival, so the probed pass stays close to the
/// unprobed one.
pub struct LayerProbe<'a> {
    spans: &'a mut Spans,
    parent: usize,
    op: u32,
    open: Vec<usize>,
    last_mark: u64,
    /// Engine-clock ns per scope and tag: `[Explore, Worst, Game 0, Game 1]`.
    pub engine_ns: [u64; 4],
    /// Layer events seen.
    pub layers: u64,
    /// Longest gap between consecutive Layer events (or from a span's
    /// start to its first Layer event), ns.
    pub layer_max_ns: u64,
    /// Merge events seen.
    pub merges: u64,
    /// Harvest events seen.
    pub harvests: u64,
    /// Reveal events seen.
    pub reveals: u64,
}

impl<'a> LayerProbe<'a> {
    /// A probe recording engine spans under span `parent` of op `op`.
    pub fn new(spans: &'a mut Spans, parent: usize, op: u32) -> Self {
        LayerProbe {
            spans,
            parent,
            op,
            open: Vec::new(),
            last_mark: 0,
            engine_ns: [0; 4],
            layers: 0,
            layer_max_ns: 0,
            merges: 0,
            harvests: 0,
            reveals: 0,
        }
    }

    fn slot(scope: SpanScope, tag: u32) -> Option<(usize, &'static str)> {
        match (scope, tag) {
            (SpanScope::Explore, _) => Some((0, "explore.build")),
            (SpanScope::Worst, _) => Some((1, "explore.worst")),
            (SpanScope::Game, 0) => Some((2, "bound.game.adaptive")),
            (SpanScope::Game, _) => Some((3, "bound.game.greedy")),
            (SpanScope::Run, _) => None,
        }
    }
}

impl Probe for LayerProbe<'_> {
    fn record(&mut self, ev: &TraceEvent) {
        match *ev {
            TraceEvent::SpanStart { scope, tag } => {
                if let Some((_, name)) = Self::slot(scope, tag) {
                    let parent = self.open.last().copied().unwrap_or(self.parent);
                    let id = self.spans.open(name, Some(parent), self.op);
                    self.open.push(id);
                    self.last_mark = self.spans.now();
                }
            }
            TraceEvent::SpanEnd {
                scope,
                tag,
                wall_ns,
            } => {
                if let Some((slot, _)) = Self::slot(scope, tag) {
                    self.engine_ns[slot] += wall_ns;
                    if let Some(id) = self.open.pop() {
                        self.spans.close(id);
                    }
                }
            }
            TraceEvent::Layer { .. } => {
                self.layers += 1;
                let now = self.spans.now();
                self.layer_max_ns = self.layer_max_ns.max(now - self.last_mark);
                self.last_mark = now;
            }
            TraceEvent::Merge { .. } => self.merges += 1,
            TraceEvent::Harvest { .. } => self.harvests += 1,
            TraceEvent::Reveal { .. } => self.reveals += 1,
            _ => {}
        }
    }
}

/// Counts executed steps per `force()` strategy (Game span tag): the
/// adversary workload's unit of work, which `ForcedRun` reports only
/// for the winning schedule.
#[derive(Default)]
pub struct StepCounter {
    tag: usize,
    /// Steps per strategy: `[adaptive, greedy]`.
    pub steps: [u64; 2],
}

impl Probe for StepCounter {
    fn record(&mut self, ev: &TraceEvent) {
        match *ev {
            TraceEvent::SpanStart {
                scope: SpanScope::Game,
                tag,
            } => self.tag = usize::from(tag != 0),
            TraceEvent::Executed { .. } => self.steps[self.tag] += 1,
            _ => {}
        }
    }
}

/// Counts the wrapped scheduler's picks and adds them to `sink` when
/// the engine drops it. It allocates nothing, so a serve job run under
/// it with the counting allocator on counts the engine's allocations
/// only (and the one `Box` per stripe any injected scheduler costs).
pub struct PickCounter<S> {
    inner: S,
    picks: u64,
    sink: Arc<AtomicU64>,
}

impl<S: Scheduler> PickCounter<S> {
    /// Wraps `inner`, reporting into `sink`.
    pub fn new(inner: S, sink: Arc<AtomicU64>) -> Self {
        PickCounter {
            inner,
            picks: 0,
            sink,
        }
    }
}

impl<S: Scheduler> Scheduler for PickCounter<S> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn pick(&mut self, ctx: &SchedContext<'_>) -> Option<ProcessId> {
        self.picks += 1;
        self.inner.pick(ctx)
    }

    fn wants_step_previews(&self) -> bool {
        self.inner.wants_step_previews()
    }
}

impl<S> Drop for PickCounter<S> {
    fn drop(&mut self) {
        self.sink.fetch_add(self.picks, Ordering::Relaxed);
    }
}

/// The contexts a [`PickSampler`] kept: the scheduler's state just
/// before the pick, and the views and step it picked from.
pub type PickSample<S> = (S, Vec<ProcessView>, usize, usize);

/// Keeps a copy of every `SAMPLE_EVERY`-th pick's context of the
/// wrapped scheduler (at most `SAMPLE_CAP` per stripe), handing them to
/// `sink` when the engine drops it. Copying contexts allocates, so it
/// runs only in the recording job, never where allocations are counted.
/// The sampled picks are timed afterwards in a batch ([`time_picks`]):
/// a clock read costs
/// more than a round-robin pick, so timing each call would measure the
/// clock.
pub struct PickSampler<S> {
    inner: S,
    picks: u64,
    samples: Vec<PickSample<S>>,
    sink: Arc<Mutex<Vec<PickSample<S>>>>,
}

const SAMPLE_EVERY: u64 = 8;
const SAMPLE_CAP: usize = 256;

impl<S: Scheduler + Clone> PickSampler<S> {
    /// Wraps `inner`, reporting into `sink`.
    pub fn new(inner: S, sink: Arc<Mutex<Vec<PickSample<S>>>>) -> Self {
        PickSampler {
            inner,
            picks: 0,
            samples: Vec::new(),
            sink,
        }
    }
}

impl<S: Scheduler + Clone> Scheduler for PickSampler<S> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn pick(&mut self, ctx: &SchedContext<'_>) -> Option<ProcessId> {
        if self.picks.is_multiple_of(SAMPLE_EVERY) && self.samples.len() < SAMPLE_CAP {
            self.samples.push((
                self.inner.clone(),
                ctx.views.to_vec(),
                ctx.step,
                ctx.target_passages,
            ));
        }
        self.picks += 1;
        self.inner.pick(ctx)
    }

    fn wants_step_previews(&self) -> bool {
        self.inner.wants_step_previews()
    }
}

impl<S> Drop for PickSampler<S> {
    fn drop(&mut self) {
        if let Ok(mut sink) = self.sink.lock() {
            sink.append(&mut self.samples);
        }
    }
}

/// Median ns per pick over the sampled contexts: each sample's
/// scheduler state is cloned and asked to pick again, in batches of at
/// least a millisecond. The clone is part of the figure.
pub fn time_picks<S: Scheduler + Clone>(samples: &[PickSample<S>]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let batch = || {
        for (sched, views, step, target) in samples {
            let ctx = SchedContext {
                step: *step,
                target_passages: *target,
                views,
            };
            black_box(sched.clone().pick(black_box(&ctx)));
        }
    };
    let t = Instant::now();
    batch();
    let once = t.elapsed().as_nanos().max(1) as f64;
    let repeat = (1e6 / once).ceil() as usize;
    let mut per_pick: Vec<f64> = (0..31)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..repeat {
                batch();
            }
            t.elapsed().as_nanos() as f64 / (repeat * samples.len()) as f64
        })
        .collect();
    crate::stats::median(&mut per_pick)
}

/// Times every `pick` of the wrapped scheduler, for schedulers whose
/// picks take microseconds. Timings include one clock read pair each;
/// subtract [`timer_overhead_ns`] per pick.
pub struct TimedPick<S> {
    inner: S,
    /// ns spent in `pick`, clock reads included.
    pub ns: u64,
    /// Picks made.
    pub picks: u64,
}

impl<S: Scheduler> TimedPick<S> {
    /// Wraps `inner`; read the totals from the fields.
    pub fn new(inner: S) -> Self {
        TimedPick {
            inner,
            ns: 0,
            picks: 0,
        }
    }
}

impl<S: Scheduler> Scheduler for TimedPick<S> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn pick(&mut self, ctx: &SchedContext<'_>) -> Option<ProcessId> {
        let t = Instant::now();
        let p = self.inner.pick(ctx);
        self.ns += u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.picks += 1;
        p
    }

    fn wants_step_previews(&self) -> bool {
        self.inner.wants_step_previews()
    }
}

/// ns one `Instant::now()` + `elapsed()` pair adds to a timed region:
/// the median of 21 batches.
pub fn timer_overhead_ns() -> f64 {
    const PAIRS: u32 = 20_000;
    let mut batches: Vec<f64> = (0..21)
        .map(|_| {
            let t = Instant::now();
            let mut sink = 0u128;
            for _ in 0..PAIRS {
                let s = Instant::now();
                sink += black_box(s.elapsed()).as_nanos();
            }
            black_box(sink);
            t.elapsed().as_nanos() as f64 / f64::from(PAIRS)
        })
        .collect();
    crate::stats::median(&mut batches)
}
