//! Verifies the scratch-buffer pipeline's allocation contract: once a
//! [`camo_litho::MaskEvaluator`] session is warmed up, the per-step
//! rasterise + convolve path (`apply_moves`) performs **zero** heap
//! allocations — every buffer (mask raster, convolution scratch, cached
//! taps, polygon/coverage scratch, intensity images) is reused.
//!
//! Allocations are counted per thread: `cargo test` runs the tests on
//! parallel threads, and each test must see only its own.

use camo_geometry::{Clip, Coord, FragmentationParams, MaskState, Rect};
use camo_litho::{LithoConfig, LithoSimulator};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts every allocation routed through the global allocator on the
/// thread that makes it.
struct CountingAllocator;

thread_local! {
    /// Const-initialised and without a destructor, so the allocator can
    /// bump it without allocating, at any point of a thread's life.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_allocation() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// Every method delegates verbatim to `System`; the counter increment has
// no effect on layout, pointer validity or aliasing.
// SAFETY: `System` upholds the `GlobalAlloc` contract on our behalf.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: caller contract is forwarded unchanged to `System.alloc`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    // SAFETY: caller contract is forwarded unchanged to `System.alloc_zeroed`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc_zeroed(layout)
    }

    // SAFETY: caller contract is forwarded unchanged to `System.realloc`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }

    // SAFETY: caller contract is forwarded unchanged to `System.dealloc`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocations made so far by the calling thread.
fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn steady_state_apply_moves_is_allocation_free() {
    let mut clip = Clip::new(Rect::new(0, 0, 1000, 1000));
    clip.add_target(Rect::new(465, 465, 535, 535).to_polygon());
    clip.add_target(Rect::new(200, 460, 270, 540).to_polygon());
    let mask = MaskState::from_clip(&clip, &FragmentationParams::via_layer());
    let sim = LithoSimulator::new(LithoConfig::default());

    let mut eval = sim.evaluator(&mask);
    let n = eval.mask().segment_count();
    let outward: Vec<Coord> = vec![1; n];
    let inward: Vec<Coord> = vec![-1; n];

    // Warm-up: populate the nominal image slot, the taps cache and every
    // scratch buffer along both move directions.
    let _ = eval.epe();
    eval.apply_moves(&outward);
    let _ = eval.epe();
    eval.apply_moves(&inward);
    let _ = eval.epe();

    let before = allocations();
    for _ in 0..5 {
        eval.apply_moves(&outward);
        eval.apply_moves(&inward);
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "steady-state rasterise/convolve allocated {} times",
        after - before
    );

    // The session still produces correct results afterwards.
    let report = eval.epe();
    assert_eq!(report.per_point.len(), n);
    assert!(report.per_point.iter().all(|e| e.is_finite()));
}

#[test]
fn epe_measurement_only_allocates_its_report() {
    let mut clip = Clip::new(Rect::new(0, 0, 1000, 1000));
    clip.add_target(Rect::new(465, 465, 535, 535).to_polygon());
    let mask = MaskState::from_clip(&clip, &FragmentationParams::via_layer());
    let sim = LithoSimulator::new(LithoConfig::fast());

    let mut eval = sim.evaluator(&mask);
    let n = eval.mask().segment_count();
    let _ = eval.epe();
    eval.apply_moves(&vec![1; n]);
    let _ = eval.epe();
    eval.apply_moves(&vec![-1; n]);

    // A measurement after warm-up allocates only the report itself (a
    // couple of small vectors), never per-pixel buffers.
    let before = allocations();
    let _ = eval.epe();
    let after = allocations();
    assert!(
        after - before <= 4,
        "EPE measurement allocated {} times (expected only the report)",
        after - before
    );
}
