//! Queue locks deconstructed into composable modules — the Golab-style
//! decomposition of MCS, CLH and the ticket lock over the shared
//! [`Automaton`] core.
//!
//! Every queue-based lock factors into three cooperating micro-programs:
//!
//! 1. a **[`Queue`] module** — enqueue and predecessor discovery,
//!    centered on one fetch-and-store (or fetch-and-add) on a shared
//!    tail word;
//! 2. a **[`Signal`] module** — the waiting discipline: a single-register
//!    spin whose failed polls leave the process state *unchanged* (so
//!    the SC model prices the whole wait at zero);
//! 3. a **[`Handoff`] module** — the release protocol that wakes exactly
//!    the successor: a flag write, a counter bump, or the MCS
//!    CAS-out/link-wait dance.
//!
//! [`QueueLock`] wires any compatible triple into one automaton sharing
//! a single phase machine and critical-section cycle. The three
//! classical instantiations are
//!
//! | Lock | queue | signal | handoff |
//! |---|---|---|---|
//! | [`Mcs`] | [`LinkedTail`] | [`OwnFlag`] | [`SuccessorFlag`] |
//! | [`Clh`] | [`SwapTail`] | [`PredecessorFlag`] | [`ReleaseCell`] |
//! | [`Ticket`] | [`TicketCounter`] | [`TicketMatch`] | [`BumpCounter`] |
//!
//! registered as `mcs`, `clh` and `ticket`. The composed MCS executes
//! the same step sequences as the monolithic [`crate::rmw::McsSim`]
//! (pinned by tests), with one deliberate improvement: [`LinkedTail`]
//! homes *both* per-process words (`locked[i]` **and** `next[i]`) at
//! process `i`, so the composable MCS is a true local-spin lock under
//! the DSM model — finite O(1) remote accesses per passage — while
//! `mcs-sim`, CLH (spinning on the predecessor's node) and ticket
//! (spinning on the shared counter) are DSM-pumpable, exactly as the
//! literature classifies them.
//!
//! # Example
//!
//! ```
//! use exclusion_mutex::Mcs;
//! use exclusion_shmem::sched::run_round_robin;
//!
//! let exec = run_round_robin(&Mcs::new(3), 2, 100_000)?;
//! assert!(exec.mutual_exclusion(3));
//! # Ok::<(), exclusion_shmem::RunError>(())
//! ```

use exclusion_shmem::dynamic::WordState;
use exclusion_shmem::{
    Automaton, CritKind, NextStep, Observation, ProcessId, RegisterId, RmwOp, Value,
};

/// Phase machine shared by every composed queue lock.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum QPhase {
    Remainder,
    /// Running the queue module's enqueue micro-program.
    Enqueue(u8),
    /// Parked in the signal module's spin.
    Waiting,
    Entering,
    Critical,
    /// Running the handoff module's release micro-program.
    Release(u8),
    Resting,
}

/// Per-process state of a [`QueueLock`]: the shared phase machine plus
/// one token word threaded through the modules (a drawn ticket, a
/// packed `(node, predecessor)` pair, a successor index — whatever the
/// family's modules agree on).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct QState {
    phase: QPhase,
    token: Value,
}

impl QState {
    fn at(phase: QPhase, token: Value) -> Self {
        QState { phase, token }
    }
}

impl WordState for QState {
    const WORDS: usize = 2;

    fn pack(&self, out: &mut [u64]) {
        // Injective phase encoding: low byte is the variant tag, the
        // next byte carries the Enqueue/Release program counter.
        out[0] = match self.phase {
            QPhase::Remainder => 0,
            QPhase::Enqueue(pc) => 1 | (u64::from(pc) << 8),
            QPhase::Waiting => 2,
            QPhase::Entering => 3,
            QPhase::Critical => 4,
            QPhase::Release(pc) => 5 | (u64::from(pc) << 8),
            QPhase::Resting => 6,
        };
        out[1] = self.token;
    }

    fn unpack(words: &[u64]) -> Self {
        let pc = (words[0] >> 8) as u8;
        let phase = match words[0] & 0xFF {
            0 => QPhase::Remainder,
            1 => QPhase::Enqueue(pc),
            2 => QPhase::Waiting,
            3 => QPhase::Entering,
            4 => QPhase::Critical,
            5 => QPhase::Release(pc),
            6 => QPhase::Resting,
            w => unreachable!("invalid queue phase word {w}"),
        };
        QState {
            phase,
            token: words[1],
        }
    }
}

/// What one observed step of a [`Queue`] micro-program resolved to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Enqueued {
    /// Continue the enqueue program at `pc` with `token`.
    Step {
        /// The next enqueue program counter.
        pc: u8,
        /// The token to carry forward.
        token: Value,
    },
    /// The fast path: the queue was empty, the lock is acquired without
    /// ever consulting the signal module.
    Acquired {
        /// The token to hold through the critical section.
        token: Value,
    },
    /// Enqueued behind a predecessor: park in the signal module's spin.
    Queued {
        /// The token identifying what to spin on.
        token: Value,
    },
}

/// What one observed step of a [`Handoff`] micro-program resolved to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Released {
    /// Continue the release program at `pc` with `token`.
    Step {
        /// The next release program counter.
        pc: u8,
        /// The token to carry forward.
        token: Value,
    },
    /// The passage is over; rest with `token` (CLH recycles its
    /// predecessor's node through it).
    Done {
        /// The token to carry into the next passage.
        token: Value,
    },
}

/// The enqueue module: owns the shared-memory layout and the program
/// that announces a contender and discovers its predecessor.
///
/// # Contract
///
/// * [`op`](Queue::op) returns only memory steps (`Read`/`Write`/`Rmw`),
///   never `Crit` — the phase machine owns the critical cycle.
/// * Exactly one step of the program performs the ordering RMW
///   (fetch-and-store or fetch-and-add) on
///   [`enqueue_register`](Queue::enqueue_register); the system-wide
///   order of those RMWs **is** the FIFO service order, the defining
///   queue-lock property the property suite pins.
/// * The module owns the register file: [`registers`](Queue::registers),
///   [`initial_value`](Queue::initial_value) and
///   [`register_home`](Queue::register_home) describe the layout the
///   signal and handoff modules index into.
/// * [`observe`](Queue::observe) is total over the program's own
///   `(pc, observation)` pairs and must terminate in
///   [`Enqueued::Acquired`] or [`Enqueued::Queued`] after a bounded
///   number of steps — enqueueing never blocks.
pub trait Queue {
    /// Total shared registers of the lock's layout.
    fn registers(&self) -> usize;

    /// Initial register contents (default all-zero).
    fn initial_value(&self, reg: RegisterId) -> Value {
        let _ = reg;
        0
    }

    /// DSM home of `reg`, if any (default: remote to everyone).
    fn register_home(&self, reg: RegisterId) -> Option<ProcessId> {
        let _ = reg;
        None
    }

    /// The token a process rests with before its first passage.
    fn initial_token(&self, p: ProcessId) -> Value {
        let _ = p;
        0
    }

    /// The word whose RMW order defines the queue order.
    fn enqueue_register(&self) -> RegisterId;

    /// The memory step at program counter `pc`.
    fn op(&self, p: ProcessId, pc: u8, token: Value) -> NextStep;

    /// Advances the program on the observed result of [`op`](Queue::op).
    fn observe(&self, p: ProcessId, pc: u8, token: Value, obs: Observation) -> Enqueued;
}

/// The waiting module: a single-register spin between enqueue and entry.
///
/// # Contract
///
/// * [`op`](Signal::op) is one read of one register, chosen by `token`
///   (a local flag, the predecessor's node, the serving counter).
/// * [`grant`](Signal::grant) returns `Some(token)` exactly when the
///   observed value grants the lock; `None` **must leave the process
///   state unchanged**, so a failed poll is free under the SC model
///   (the paper's busy-wait exemption) and cache-cheap under CC.
pub trait Signal {
    /// The single spin read.
    fn op(&self, p: ProcessId, token: Value) -> NextStep;

    /// `Some(next_token)` when the observation grants entry, `None` to
    /// keep spinning (state unchanged).
    fn grant(&self, p: ProcessId, token: Value, obs: Observation) -> Option<Value>;
}

/// The release module: the exit-protocol micro-program that wakes
/// exactly the successor (or nobody, when the queue empties).
///
/// # Contract
///
/// * [`op`](Handoff::op) returns only memory steps, never `Crit`.
/// * [`observe`](Handoff::observe) must reach [`Released::Done`] under
///   every fair schedule; the only wait it may contain is the MCS-style
///   link-wait, a single-register spin that repeats its own `pc` with
///   an unchanged token (SC-free, like [`Signal::grant`]'s `None`).
/// * `Done`'s token becomes the process's resting token — this is where
///   CLH's node recycling lives.
pub trait Handoff {
    /// The memory step at program counter `pc`.
    fn op(&self, p: ProcessId, pc: u8, token: Value) -> NextStep;

    /// Advances the program on the observed result of
    /// [`op`](Handoff::op).
    fn observe(&self, p: ProcessId, pc: u8, token: Value, obs: Observation) -> Released;
}

/// A queue lock composed from a [`Queue`], a [`Signal`] and a
/// [`Handoff`] module: one phase machine, one critical cycle, one
/// packed two-word state, regardless of family.
#[derive(Clone, Copy, Debug)]
pub struct QueueLock<Q, S, H> {
    n: usize,
    name: &'static str,
    symmetric: bool,
    queue: Q,
    signal: S,
    handoff: H,
}

impl<Q: Queue, S, H> QueueLock<Q, S, H> {
    /// The word whose RMW order is the service order — exposed so the
    /// FIFO property suite can pair enqueue steps with entry steps.
    #[must_use]
    pub fn enqueue_register(&self) -> RegisterId {
        self.queue.enqueue_register()
    }
}

impl<Q: Queue, S: Signal, H: Handoff> Automaton for QueueLock<Q, S, H> {
    type State = QState;

    fn processes(&self) -> usize {
        self.n
    }

    fn registers(&self) -> usize {
        self.queue.registers()
    }

    fn initial_value(&self, reg: RegisterId) -> Value {
        self.queue.initial_value(reg)
    }

    fn initial_state(&self, p: ProcessId) -> QState {
        QState::at(QPhase::Remainder, self.queue.initial_token(p))
    }

    fn register_home(&self, reg: RegisterId) -> Option<ProcessId> {
        self.queue.register_home(reg)
    }

    fn next_step(&self, p: ProcessId, s: &QState) -> NextStep {
        match s.phase {
            QPhase::Remainder => NextStep::Crit(CritKind::Try),
            QPhase::Enqueue(pc) => self.queue.op(p, pc, s.token),
            QPhase::Waiting => self.signal.op(p, s.token),
            QPhase::Entering => NextStep::Crit(CritKind::Enter),
            QPhase::Critical => NextStep::Crit(CritKind::Exit),
            QPhase::Release(pc) => self.handoff.op(p, pc, s.token),
            QPhase::Resting => NextStep::Crit(CritKind::Rem),
        }
    }

    fn observe(&self, p: ProcessId, s: &QState, obs: Observation) -> QState {
        match (s.phase, obs) {
            // The resting token survives the crit cycle: CLH re-enters
            // with its recycled node already in hand.
            (QPhase::Remainder, Observation::Crit) => QState::at(QPhase::Enqueue(0), s.token),
            (QPhase::Enqueue(pc), obs) => match self.queue.observe(p, pc, s.token, obs) {
                Enqueued::Step { pc, token } => QState::at(QPhase::Enqueue(pc), token),
                Enqueued::Acquired { token } => QState::at(QPhase::Entering, token),
                Enqueued::Queued { token } => QState::at(QPhase::Waiting, token),
            },
            (QPhase::Waiting, obs) => match self.signal.grant(p, s.token, obs) {
                Some(token) => QState::at(QPhase::Entering, token),
                None => *s, // failed poll: single-register spin, SC-free
            },
            (QPhase::Entering, Observation::Crit) => QState::at(QPhase::Critical, s.token),
            (QPhase::Critical, Observation::Crit) => QState::at(QPhase::Release(0), s.token),
            (QPhase::Release(pc), obs) => match self.handoff.observe(p, pc, s.token, obs) {
                Released::Step { pc, token } => QState::at(QPhase::Release(pc), token),
                Released::Done { token } => QState::at(QPhase::Resting, token),
            },
            (QPhase::Resting, Observation::Crit) => QState::at(QPhase::Remainder, s.token),
            (phase, obs) => unreachable!("{}: {phase:?} cannot observe {obs:?}", self.name),
        }
    }

    fn name(&self) -> String {
        self.name.to_string()
    }

    fn symmetric(&self) -> bool {
        self.symmetric
    }
}

// ---------------------------------------------------------------- MCS

/// MCS enqueue: clear the own `next` link, raise the own `locked` flag,
/// swap into the tail, link behind the predecessor if there was one.
///
/// Layout: `locked[i] = i`, `next[i] = n + i`, `tail = 2n`. Both
/// per-process words are DSM-homed at process `i` — the queue node
/// lives in its owner's memory, which is what makes MCS local-spin
/// under DSM (the monolithic `mcs-sim` homes only the `locked` bank).
#[derive(Clone, Copy, Debug)]
pub struct LinkedTail {
    n: usize,
}

impl LinkedTail {
    fn locked(&self, i: usize) -> RegisterId {
        RegisterId::new(i)
    }
    fn next(&self, i: usize) -> RegisterId {
        RegisterId::new(self.n + i)
    }
    fn tail(&self) -> RegisterId {
        RegisterId::new(2 * self.n)
    }
}

impl Queue for LinkedTail {
    fn registers(&self) -> usize {
        2 * self.n + 1
    }

    fn register_home(&self, reg: RegisterId) -> Option<ProcessId> {
        (reg.index() < 2 * self.n).then(|| ProcessId::new(reg.index() % self.n))
    }

    fn enqueue_register(&self) -> RegisterId {
        self.tail()
    }

    fn op(&self, p: ProcessId, pc: u8, token: Value) -> NextStep {
        let me = p.index();
        match pc {
            0 => NextStep::Write(self.next(me), 0),
            1 => NextStep::Write(self.locked(me), 1),
            2 => NextStep::Rmw(self.tail(), RmwOp::Swap(me as Value + 1)),
            // token = predecessor index, discovered by the swap.
            _ => NextStep::Write(self.next(token as usize), me as Value + 1),
        }
    }

    fn observe(&self, _p: ProcessId, pc: u8, _token: Value, obs: Observation) -> Enqueued {
        match (pc, obs) {
            (0, Observation::Write) => Enqueued::Step { pc: 1, token: 0 },
            (1, Observation::Write) => Enqueued::Step { pc: 2, token: 0 },
            (2, Observation::Rmw(old_tail)) => {
                if old_tail == 0 {
                    Enqueued::Acquired { token: 0 } // empty queue: fast path
                } else {
                    Enqueued::Step {
                        pc: 3,
                        token: old_tail - 1,
                    }
                }
            }
            (_, Observation::Write) => Enqueued::Queued { token: 0 },
            (pc, obs) => unreachable!("mcs enqueue: pc {pc} cannot observe {obs:?}"),
        }
    }
}

/// MCS wait: spin on the thread's **own** `locked` flag — local under
/// both CC and DSM; the predecessor's handoff write is what changes it.
#[derive(Clone, Copy, Debug)]
pub struct OwnFlag;

impl Signal for OwnFlag {
    fn op(&self, p: ProcessId, _token: Value) -> NextStep {
        NextStep::Read(RegisterId::new(p.index()))
    }

    fn grant(&self, _p: ProcessId, _token: Value, obs: Observation) -> Option<Value> {
        match obs {
            Observation::Read(locked) => (locked == 0).then_some(0),
            obs => unreachable!("mcs signal: cannot observe {obs:?}"),
        }
    }
}

/// MCS release: read the own `next` link; if empty, try to CAS the tail
/// back to zero; if a successor is mid-link, wait for the link (an
/// SC-free single-register spin), then drop the successor's flag.
#[derive(Clone, Copy, Debug)]
pub struct SuccessorFlag {
    n: usize,
}

impl SuccessorFlag {
    fn locked(&self, i: usize) -> RegisterId {
        RegisterId::new(i)
    }
    fn next(&self, i: usize) -> RegisterId {
        RegisterId::new(self.n + i)
    }
    fn tail(&self) -> RegisterId {
        RegisterId::new(2 * self.n)
    }
}

impl Handoff for SuccessorFlag {
    fn op(&self, p: ProcessId, pc: u8, token: Value) -> NextStep {
        let me = p.index();
        match pc {
            0 | 2 => NextStep::Read(self.next(me)),
            1 => NextStep::Rmw(
                self.tail(),
                RmwOp::CompareAndSwap {
                    expect: me as Value + 1,
                    new: 0,
                },
            ),
            // token = successor index, discovered from the link.
            _ => NextStep::Write(self.locked(token as usize), 0),
        }
    }

    fn observe(&self, p: ProcessId, pc: u8, token: Value, obs: Observation) -> Released {
        let me = p.index() as Value;
        match (pc, obs) {
            (0, Observation::Read(next)) => {
                if next == 0 {
                    Released::Step { pc: 1, token: 0 }
                } else {
                    Released::Step {
                        pc: 3,
                        token: next - 1,
                    }
                }
            }
            (1, Observation::Rmw(old_tail)) => {
                if old_tail == me + 1 {
                    Released::Done { token: 0 } // no successor: queue empty
                } else {
                    Released::Step { pc: 2, token: 0 } // successor mid-link
                }
            }
            (2, Observation::Read(next)) => {
                if next == 0 {
                    Released::Step { pc: 2, token } // link-wait: SC-free
                } else {
                    Released::Step {
                        pc: 3,
                        token: next - 1,
                    }
                }
            }
            (_, Observation::Write) => Released::Done { token: 0 },
            (pc, obs) => unreachable!("mcs handoff: pc {pc} cannot observe {obs:?}"),
        }
    }
}

// ---------------------------------------------------------------- CLH

/// CLH enqueue: raise the own node flag, then swap the node index into
/// the tail; the swapped-out value is the predecessor's node.
///
/// Layout: node flags `0..=n` (index `n` is the released sentinel the
/// tail starts at), `tail = n + 1`. Nodes migrate between processes as
/// they recycle, so no fixed DSM home is honest — every node access is
/// remote, which is exactly why CLH is *not* a local-spin lock under
/// DSM (the conformance suite pins the resulting pump).
#[derive(Clone, Copy, Debug)]
pub struct SwapTail {
    n: usize,
}

impl SwapTail {
    fn node(&self, i: Value) -> RegisterId {
        RegisterId::new(usize::try_from(i).expect("node index fits usize"))
    }
    fn tail(&self) -> RegisterId {
        RegisterId::new(self.n + 1)
    }
}

impl Queue for SwapTail {
    fn registers(&self) -> usize {
        self.n + 2
    }

    fn initial_value(&self, reg: RegisterId) -> Value {
        if reg == self.tail() {
            self.n as Value // tail starts at the released sentinel node
        } else {
            0
        }
    }

    fn initial_token(&self, p: ProcessId) -> Value {
        pack(p.index() as Value, 0)
    }

    fn enqueue_register(&self) -> RegisterId {
        self.tail()
    }

    fn op(&self, _p: ProcessId, pc: u8, token: Value) -> NextStep {
        let (my_node, _) = unpack(token);
        match pc {
            0 => NextStep::Write(self.node(my_node), 1),
            _ => NextStep::Rmw(self.tail(), RmwOp::Swap(my_node)),
        }
    }

    fn observe(&self, _p: ProcessId, pc: u8, token: Value, obs: Observation) -> Enqueued {
        let (my_node, _) = unpack(token);
        match (pc, obs) {
            (0, Observation::Write) => Enqueued::Step { pc: 1, token },
            (_, Observation::Rmw(old_tail)) => Enqueued::Queued {
                token: pack(my_node, old_tail),
            },
            (pc, obs) => unreachable!("clh enqueue: pc {pc} cannot observe {obs:?}"),
        }
    }
}

/// CLH wait: spin on the **predecessor's** node flag until it drops —
/// cache-local under CC (the flag is read-shared until the release
/// write invalidates it) but remote under DSM.
#[derive(Clone, Copy, Debug)]
pub struct PredecessorFlag;

impl Signal for PredecessorFlag {
    fn op(&self, _p: ProcessId, token: Value) -> NextStep {
        let (_, pred) = unpack(token);
        NextStep::Read(RegisterId::new(
            usize::try_from(pred).expect("node index fits usize"),
        ))
    }

    fn grant(&self, _p: ProcessId, token: Value, obs: Observation) -> Option<Value> {
        match obs {
            Observation::Read(flag) => (flag == 0).then_some(token),
            obs => unreachable!("clh signal: cannot observe {obs:?}"),
        }
    }
}

/// CLH release: drop the own node flag; the freed node is abandoned to
/// the successor and the predecessor's node is recycled as the next
/// passage's own node — the index-pool version of the pointer original.
#[derive(Clone, Copy, Debug)]
pub struct ReleaseCell;

impl Handoff for ReleaseCell {
    fn op(&self, _p: ProcessId, _pc: u8, token: Value) -> NextStep {
        let (my_node, _) = unpack(token);
        NextStep::Write(
            RegisterId::new(usize::try_from(my_node).expect("node index fits usize")),
            0,
        )
    }

    fn observe(&self, _p: ProcessId, _pc: u8, token: Value, obs: Observation) -> Released {
        let (_, pred) = unpack(token);
        match obs {
            Observation::Write => Released::Done {
                token: pack(pred, 0), // recycle the predecessor's node
            },
            obs => unreachable!("clh handoff: cannot observe {obs:?}"),
        }
    }
}

// ------------------------------------------------------------- ticket

/// Ticket enqueue: one fetch-and-add on the `next` counter draws the
/// ticket; the draw order is the service order.
///
/// Layout: `next = 0`, `serving = 1`. Tickets are draw numbers, not
/// process ids, so the whole family is pid-free and the lock declares
/// full process-permutation symmetry.
#[derive(Clone, Copy, Debug)]
pub struct TicketCounter;

impl TicketCounter {
    fn next_reg(&self) -> RegisterId {
        RegisterId::new(0)
    }
}

impl Queue for TicketCounter {
    fn registers(&self) -> usize {
        2
    }

    fn enqueue_register(&self) -> RegisterId {
        self.next_reg()
    }

    fn op(&self, _p: ProcessId, _pc: u8, _token: Value) -> NextStep {
        NextStep::Rmw(self.next_reg(), RmwOp::FetchAdd(1))
    }

    fn observe(&self, _p: ProcessId, _pc: u8, _token: Value, obs: Observation) -> Enqueued {
        match obs {
            Observation::Rmw(ticket) => Enqueued::Queued { token: ticket },
            obs => unreachable!("ticket enqueue: cannot observe {obs:?}"),
        }
    }
}

/// Ticket wait: spin reading the shared `serving` counter until it
/// equals the drawn ticket — every release invalidates *all* waiters'
/// cached copies, the Θ(n)-RMR-per-passage contrast to the queue spins.
#[derive(Clone, Copy, Debug)]
pub struct TicketMatch;

impl Signal for TicketMatch {
    fn op(&self, _p: ProcessId, _token: Value) -> NextStep {
        NextStep::Read(RegisterId::new(1))
    }

    fn grant(&self, _p: ProcessId, token: Value, obs: Observation) -> Option<Value> {
        match obs {
            Observation::Read(serving) => (serving == token).then_some(token),
            obs => unreachable!("ticket signal: cannot observe {obs:?}"),
        }
    }
}

/// Ticket release: bump `serving` to the next ticket — a broadcast
/// handoff that wakes whoever drew it.
#[derive(Clone, Copy, Debug)]
pub struct BumpCounter;

impl Handoff for BumpCounter {
    fn op(&self, _p: ProcessId, _pc: u8, token: Value) -> NextStep {
        NextStep::Write(RegisterId::new(1), token + 1)
    }

    fn observe(&self, _p: ProcessId, _pc: u8, _token: Value, obs: Observation) -> Released {
        match obs {
            Observation::Write => Released::Done { token: 0 },
            obs => unreachable!("ticket handoff: cannot observe {obs:?}"),
        }
    }
}

// ------------------------------------------------------- constructors

/// The composable MCS lock: [`LinkedTail`] + [`OwnFlag`] +
/// [`SuccessorFlag`]. Registered as `mcs`.
pub type Mcs = QueueLock<LinkedTail, OwnFlag, SuccessorFlag>;

impl Mcs {
    /// An `n`-process composable MCS lock.
    #[must_use]
    pub fn new(n: usize) -> Self {
        QueueLock {
            n,
            name: "mcs",
            symmetric: false, // pid-indexed register banks
            queue: LinkedTail { n },
            signal: OwnFlag,
            handoff: SuccessorFlag { n },
        }
    }
}

/// The composable CLH lock: [`SwapTail`] + [`PredecessorFlag`] +
/// [`ReleaseCell`]. Registered as `clh`.
pub type Clh = QueueLock<SwapTail, PredecessorFlag, ReleaseCell>;

impl Clh {
    /// An `n`-process composable CLH lock.
    #[must_use]
    pub fn new(n: usize) -> Self {
        QueueLock {
            n,
            name: "clh",
            symmetric: false, // node indices start out pid-assigned
            queue: SwapTail { n },
            signal: PredecessorFlag,
            handoff: ReleaseCell,
        }
    }
}

/// The composable ticket lock: [`TicketCounter`] + [`TicketMatch`] +
/// [`BumpCounter`]. Registered as `ticket`.
pub type Ticket = QueueLock<TicketCounter, TicketMatch, BumpCounter>;

impl Ticket {
    /// An `n`-process composable ticket lock.
    #[must_use]
    pub fn new(n: usize) -> Self {
        QueueLock {
            n,
            name: "ticket",
            symmetric: true, // tickets are draw numbers, pid-free
            queue: TicketCounter,
            signal: TicketMatch,
            handoff: BumpCounter,
        }
    }
}

fn pack(hi: Value, lo: Value) -> Value {
    hi << 32 | lo
}

fn unpack(v: Value) -> (Value, Value) {
    (v >> 32, v & 0xFFFF_FFFF)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rmw::McsSim;
    use exclusion_shmem::sched::{run_random, run_round_robin, run_sequential};

    #[test]
    fn composed_locks_complete_canonical_runs() {
        fn check<A: Automaton>(alg: &A) {
            let order: Vec<_> = ProcessId::all(5).collect();
            let exec = run_sequential(alg, &order, 100_000)
                .unwrap_or_else(|e| panic!("{}: {e}", alg.name()));
            assert!(exec.is_canonical(5), "{}", alg.name());
            assert_eq!(exec.critical_order(), order, "{}", alg.name());
        }
        check(&Mcs::new(5));
        check(&Clh::new(5));
        check(&Ticket::new(5));
    }

    #[test]
    fn composed_locks_are_safe_under_contention() {
        fn check<A: Automaton>(alg: &A) {
            let exec = run_round_robin(alg, 2, 1_000_000)
                .unwrap_or_else(|e| panic!("{}: {e}", alg.name()));
            assert!(exec.mutual_exclusion(3), "{}", alg.name());
            for seed in 0..10 {
                let exec = run_random(alg, 2, 1_000_000, seed)
                    .unwrap_or_else(|e| panic!("{}: {e}", alg.name()));
                assert!(exec.mutual_exclusion(3), "{} seed {seed}", alg.name());
            }
        }
        check(&Mcs::new(3));
        check(&Clh::new(3));
        check(&Ticket::new(3));
    }

    /// The decomposition is conservative: under identical schedules the
    /// composed MCS executes the **same step sequences** as the
    /// monolithic `mcs-sim` (same layout, same micro-program order), so
    /// every verdict about one transfers to the other.
    #[test]
    fn composed_mcs_traces_identically_to_its_monolithic_twin() {
        let (a, b) = (Mcs::new(4), McsSim::new(4));
        let order: Vec<_> = ProcessId::all(4).collect();
        let ea = run_sequential(&a, &order, 100_000).unwrap();
        let eb = run_sequential(&b, &order, 100_000).unwrap();
        assert_eq!(ea.steps(), eb.steps(), "sequential");
        for passages in [1, 3] {
            let ea = run_round_robin(&a, passages, 1_000_000).unwrap();
            let eb = run_round_robin(&b, passages, 1_000_000).unwrap();
            assert_eq!(ea.steps(), eb.steps(), "round robin x{passages}");
        }
        for seed in [1, 7, 42] {
            let ea = run_random(&a, 2, 1_000_000, seed).unwrap();
            let eb = run_random(&b, 2, 1_000_000, seed).unwrap();
            assert_eq!(ea.steps(), eb.steps(), "random seed {seed}");
        }
    }

    /// The one deliberate divergence from the twin: the composable MCS
    /// homes both per-process words, so its spins (and its link-wait)
    /// are DSM-local.
    #[test]
    fn mcs_homes_both_per_process_banks() {
        let mcs = Mcs::new(3);
        let sim = McsSim::new(3);
        for i in 0..3 {
            let own = Some(ProcessId::new(i));
            assert_eq!(mcs.register_home(RegisterId::new(i)), own, "locked[{i}]");
            assert_eq!(mcs.register_home(RegisterId::new(3 + i)), own, "next[{i}]");
            assert_eq!(sim.register_home(RegisterId::new(3 + i)), None);
        }
        assert_eq!(mcs.register_home(RegisterId::new(6)), None, "tail");
        // CLH nodes recycle across processes: no honest fixed home.
        let clh = Clh::new(3);
        for r in 0..clh.registers() {
            assert_eq!(clh.register_home(RegisterId::new(r)), None);
        }
    }

    #[test]
    fn clh_nodes_recycle_through_the_token() {
        let alg = Clh::new(2);
        let exec = run_round_robin(&alg, 4, 1_000_000).unwrap();
        assert!(exec.mutual_exclusion(2));
        assert_eq!(exec.critical_order().len(), 8);
    }

    #[test]
    fn ticket_is_fifo_and_symmetric() {
        let alg = Ticket::new(4);
        let exec = run_round_robin(&alg, 1, 100_000).unwrap();
        assert_eq!(exec.critical_order(), ProcessId::all(4).collect::<Vec<_>>());
        assert!(alg.symmetric());
        assert!(!Mcs::new(4).symmetric());
        assert!(!Clh::new(4).symmetric());
    }

    #[test]
    fn qstate_words_round_trip() {
        let states = [
            QState::at(QPhase::Remainder, 0),
            QState::at(QPhase::Enqueue(0), 7),
            QState::at(QPhase::Enqueue(3), u64::MAX),
            QState::at(QPhase::Waiting, 5),
            QState::at(QPhase::Entering, 1),
            QState::at(QPhase::Critical, 2),
            QState::at(QPhase::Release(2), 9),
            QState::at(QPhase::Resting, 0),
        ];
        for s in states {
            let mut w = [0u64; 2];
            s.pack(&mut w);
            assert_eq!(QState::unpack(&w), s);
        }
    }
}
