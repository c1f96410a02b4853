//! A counting global allocator for the traced run.
//!
//! Counting is off unless a [`Counting`] guard is alive, so the
//! untraced end-to-end run pays one relaxed load per allocation and
//! nothing else. Counts are whole allocations (not bytes): they repeat
//! exactly from run to run, which is what a later change can cite.
//!
//! The counter is striped over cache lines by thread, so the explorer's
//! workers do not contend on one line while counting.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// The benchmark binary's allocator: the system allocator plus a
/// switchable allocation counter.
pub struct CountingAlloc;

#[repr(align(128))]
struct Stripe(AtomicU64);

const STRIPES: usize = 16;

static ON: AtomicBool = AtomicBool::new(false);
static ALLOCS: [Stripe; STRIPES] = [const { Stripe(AtomicU64::new(0)) }; STRIPES];

thread_local! {
    // Only its address is used: it tells threads apart without an
    // allocation or a destructor, either of which would recurse here.
    static MARK: u8 = const { 0 };
}

fn tally() {
    if ON.load(Ordering::Relaxed) {
        // Fibonacci hashing: the top bits depend on every address bit.
        let mark = MARK.with(|m| std::ptr::from_ref(m) as u64);
        let slot = (mark.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 60) as usize % STRIPES;
        ALLOCS[slot].0.fetch_add(1, Ordering::Relaxed);
    }
}

fn total() -> u64 {
    ALLOCS.iter().map(|s| s.0.load(Ordering::Relaxed)).sum()
}

// SAFETY: every method forwards to `System` with the caller's
// arguments unchanged; the counter is a side effect that touches no
// memory the allocator hands out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally();
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally();
        // SAFETY: forwarded verbatim; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally();
        // SAFETY: forwarded verbatim; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; the caller upholds `dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Counts allocations (including reallocations) made by every thread
/// while it is alive. Guards must not nest.
pub struct Counting {
    start: u64,
}

impl Counting {
    /// Starts counting.
    pub fn start() -> Counting {
        let start = total();
        ON.store(true, Ordering::SeqCst);
        Counting { start }
    }

    /// Allocations since [`Counting::start`].
    pub fn count(&self) -> u64 {
        total() - self.start
    }
}

impl Drop for Counting {
    fn drop(&mut self) {
        ON.store(false, Ordering::SeqCst);
    }
}
