//! A counting global allocator.
//!
//! Counting is off by default, so an untraced run pays one relaxed load
//! per allocation and nothing else. A traced run switches it on around a
//! single call into a layer with [`measure`], which returns the number of
//! allocations the call made and the peak heap growth over the level the
//! heap had when the call started.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

/// The process-wide allocator: [`System`] plus optional counters.
pub struct Counting;

static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

fn on_alloc(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    let live = LIVE.fetch_add(bytes as i64, Ordering::Relaxed) + bytes as i64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn on_free(bytes: usize) {
    LIVE.fetch_sub(bytes as i64, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters never touch the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if ENABLED.load(Ordering::Relaxed) && !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if ENABLED.load(Ordering::Relaxed) && !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        if ENABLED.load(Ordering::Relaxed) {
            on_free(layout.size());
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if ENABLED.load(Ordering::Relaxed) && !p.is_null() {
            on_free(layout.size());
            on_alloc(new_size);
        }
        p
    }
}

/// What one counted call did to the heap.
#[derive(Debug, Clone, Copy)]
pub struct HeapUse {
    /// Allocations (each `realloc` counts as one).
    pub allocs: u64,
    /// Peak bytes live above the level at the start of the call.
    pub peak_bytes: i64,
}

/// Runs `f` with counting on. Calls must not overlap.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, HeapUse) {
    ALLOCS.store(0, Ordering::Relaxed);
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    ENABLED.store(true, Ordering::SeqCst);
    let out = f();
    ENABLED.store(false, Ordering::SeqCst);
    let used = HeapUse {
        allocs: ALLOCS.load(Ordering::Relaxed),
        peak_bytes: PEAK.load(Ordering::Relaxed),
    };
    (out, used)
}
