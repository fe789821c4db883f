//! The steady state of a cooperative run allocates nothing.
//!
//! Every per-run structure — the calendar queue's nodes and bucket heads,
//! the truth table, the sources' heaps and scratch buffers, the feedback
//! target buffer, the fault layer's retry queue — is sized at build time
//! or reaches its high-water mark early. This test builds each scenario,
//! runs the first half of its horizon to get past those marks, and then
//! counts every allocation the second half makes on this thread.
//!
//! `outage_medium` is left out on purpose: while the cache link is down
//! its held backlog legitimately grows to a new high-water mark once
//! (about 40 KB) in the second half, which is growth of simulated state,
//! not steady-state churn.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use besync_scenarios::{by_name, ReadySystem};
use besync_sim::SimTime;

thread_local! {
    /// Whether this thread's allocations are being counted.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    /// Allocations and bytes counted on this thread.
    static COUNTED: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// The system allocator, counting the allocations of threads that opted
/// in. Other test threads (and the harness) run uncounted.
struct Counting;

impl Counting {
    fn record(bytes: usize) {
        // `try_with` keeps allocations during thread teardown safe.
        let _ = COUNTING.try_with(|on| {
            if on.get() {
                COUNTED.with(|c| {
                    let (n, b) = c.get();
                    c.set((n + 1, b + bytes as u64));
                });
            }
        });
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::record(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::record(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::record(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Allocations and bytes made on this thread while `f` runs.
fn counted(f: impl FnOnce()) -> (u64, u64) {
    COUNTED.with(|c| c.set((0, 0)));
    COUNTING.with(|on| on.set(true));
    f();
    COUNTING.with(|on| on.set(false));
    COUNTED.with(|c| c.get())
}

#[test]
fn second_half_of_a_coop_run_allocates_nothing() {
    for name in ["medium", "fluct_medium", "lossy_aware_medium"] {
        let spec = by_name(name).unwrap_or_else(|| panic!("no scenario `{name}`"));
        let ReadySystem::Coop(mut system) = spec.build() else {
            panic!("`{name}` is not a cooperative scenario");
        };
        let horizon = system.horizon();
        system.run_until(SimTime::new(horizon.seconds() / 2.0));
        let (allocs, bytes) = counted(|| system.run_until(horizon));
        assert_eq!(
            (allocs, bytes),
            (0, 0),
            "`{name}`: the second half of the run made {allocs} allocations ({bytes} B)"
        );
        // The run completed: the report still accounts to the horizon.
        assert!(system.into_report().updates_processed > 0);
    }
}
