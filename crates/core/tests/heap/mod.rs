//! A global allocator that keeps each thread's live heap bytes and the
//! allocations it made, for the tests that count what an operation leaves
//! allocated or allocates at all. A test binary declares `mod heap;` and so
//! installs it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

/// An allocation (or a reallocation) of `bytes`.
fn grew(bytes: usize) {
    // `try_with`: a thread's last frees may run after its locals are gone.
    let _ = LIVE.try_with(|live| live.set(live.get() + bytes as i64));
    let _ = ALLOCS.try_with(|allocs| allocs.set(allocs.get() + 1));
}

fn shrank(bytes: usize) {
    let _ = LIVE.try_with(|live| live.set(live.get() - bytes as i64));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter is a
// thread-local `Cell` with a const initialiser, which neither allocates nor
// re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(layout.size());
        // SAFETY: `ptr` came from `System` through this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        shrank(layout.size());
        grew(new_size);
        // SAFETY: `ptr`/`layout` came from this allocator; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The heap bytes live on this thread, net of what it freed.
pub fn live() -> i64 {
    LIVE.with(Cell::get)
}

/// The result of `f` and the heap bytes it left live on this thread.
pub fn held<T>(f: impl FnOnce() -> T) -> (T, i64) {
    let before = live();
    let out = f();
    (out, live() - before)
}

/// The allocations and reallocations this thread has made.
pub fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// The result of `f` and the allocations and reallocations it made on this
/// thread.
#[allow(dead_code, reason = "not every test binary that installs the allocator counts")]
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = allocs();
    let out = f();
    (out, allocs() - before)
}
