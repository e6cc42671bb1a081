//! Behavioural tests of the workspace pool: a workspace checked back in is
//! fully reset before reuse (results bit-identical to a fresh simulator),
//! and pool exhaustion falls back to allocation rather than blocking.

use camo_geometry::{Clip, Coord, FragmentationParams, MaskState, Rect};
use camo_litho::trace::{Stage, TraceSink};
use camo_litho::{LithoConfig, LithoSimulator, ProcessCorner};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn mask_with_vias(positions: &[(Coord, Coord)], size: Coord, region: Coord) -> MaskState {
    let mut clip = Clip::new(Rect::new(0, 0, region, region));
    for &(x, y) in positions {
        clip.add_target(Rect::new(x, y, x + size, y + size).to_polygon());
    }
    MaskState::from_clip(&clip, &FragmentationParams::via_layer())
}

#[test]
fn recycled_workspace_is_fully_reset_between_clips() {
    let sim = LithoSimulator::new(LithoConfig::fast());
    // Three clips with different geometries (raster sizes, polygon counts)
    // evaluated back to back on the same simulator: every session after the
    // first recycles the pooled workspace of the previous one.
    let clips = [
        mask_with_vias(&[(465, 465)], 70, 1000),
        mask_with_vias(&[(200, 200), (600, 640), (900, 300)], 70, 1200),
        mask_with_vias(&[(100, 700)], 90, 900),
    ];
    let mut shared_results = Vec::new();
    for mask in &clips {
        let mut eval = sim.evaluator(mask);
        let moves: Vec<Coord> = vec![2; mask.segment_count()];
        eval.apply_moves(&moves);
        let full = eval.evaluate();
        let inner = eval.aerial(ProcessCorner::inner()).clone();
        shared_results.push((full, inner));
        // eval drops here, checking its workspace back into the pool.
    }
    assert!(
        sim.pool().reuse_count() >= 2,
        "later sessions must recycle the pooled workspace (reuses = {})",
        sim.pool().reuse_count()
    );
    // A pristine simulator (fresh pool, nothing to recycle) must produce
    // bit-identical results — any state leaking through the pool would
    // diverge here.
    for (mask, (shared_full, shared_inner)) in clips.iter().zip(&shared_results) {
        let fresh_sim = LithoSimulator::new(LithoConfig::fast());
        let mut eval = fresh_sim.evaluator(mask);
        let moves: Vec<Coord> = vec![2; mask.segment_count()];
        eval.apply_moves(&moves);
        let full = eval.evaluate();
        assert_eq!(full.epe.per_point, shared_full.epe.per_point);
        assert_eq!(full.pv_band.to_bits(), shared_full.pv_band.to_bits());
        assert_eq!(
            eval.aerial(ProcessCorner::inner()).data(),
            shared_inner.data()
        );
    }
}

#[test]
fn concurrent_sessions_beyond_pool_capacity_never_block() {
    // Cap the pool at a single idle workspace, then hold many simultaneous
    // sessions: checkout must fall back to allocation, not deadlock.
    let sim = LithoSimulator::new(LithoConfig::fast()).with_pool_capacity(1);
    let mask = mask_with_vias(&[(465, 465)], 70, 1000);
    let mut sessions: Vec<_> = (0..6).map(|_| sim.evaluator(&mask)).collect();
    assert_eq!(sim.pool().allocation_count(), 6);
    let reports: Vec<_> = sessions.iter_mut().map(|e| e.epe()).collect();
    for r in &reports[1..] {
        assert_eq!(r.per_point, reports[0].per_point);
    }
    drop(sessions);
    // Check-ins beyond the cap are dropped, not hoarded.
    assert_eq!(sim.pool().idle_count(), 1);
    // And the next session recycles the one retained workspace.
    let _ = sim.evaluator(&mask).epe();
    assert_eq!(sim.pool().reuse_count(), 1);
}

#[test]
fn one_shot_calls_share_the_pool() {
    // The stateless facade methods all route through pooled sessions: after
    // a warm-up call, repeated one-shots stop allocating workspaces.
    let sim = LithoSimulator::new(LithoConfig::fast());
    let mask = mask_with_vias(&[(465, 465)], 70, 1000);
    let _ = sim.evaluate(&mask);
    let allocations_after_warmup = sim.pool().allocation_count();
    let a = sim.evaluate(&mask);
    let b = sim.evaluate_epe(&mask);
    let _ = sim.pv_band_image(&mask);
    let _ = sim.aerial(&mask, ProcessCorner::nominal());
    assert_eq!(
        sim.pool().allocation_count(),
        allocations_after_warmup,
        "one-shot calls must recycle the pooled workspace"
    );
    assert_eq!(a.epe.per_point, b.per_point);
}

#[test]
fn clones_share_context_and_pool() {
    let sim = LithoSimulator::new(LithoConfig::fast());
    let clone = sim.clone();
    let mask = mask_with_vias(&[(465, 465)], 70, 1000);
    let _ = sim.evaluate(&mask);
    let reuses_before = clone.pool().reuse_count();
    let _ = clone.evaluate(&mask);
    assert!(
        clone.pool().reuse_count() > reuses_before,
        "a cloned simulator must draw from the same pool"
    );
    assert!(std::ptr::eq(sim.context(), clone.context()));
}

/// Counts the convolutions a simulator starts.
#[derive(Debug, Default)]
struct ConvolveCounter(AtomicUsize);

impl TraceSink for ConvolveCounter {
    fn stage_start(&self, stage: Stage) {
        if stage == Stage::Convolve {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }
    fn stage_end(&self, _stage: Stage) {}
}

/// Runs the shape of one OPC step — open a session, read EPE, move every
/// segment, read EPE — and returns the convolutions it started plus the
/// bits of both EPE reads.
fn one_step_session(
    sim: &LithoSimulator,
    counter: &ConvolveCounter,
    mask: &MaskState,
) -> (usize, Vec<u64>) {
    let before = counter.0.load(Ordering::Relaxed);
    let mut eval = sim.evaluator(mask);
    let mut bits: Vec<u64> = eval.epe().per_point.iter().map(|e| e.to_bits()).collect();
    eval.apply_moves(&vec![2; mask.segment_count()]);
    bits.extend(eval.epe().per_point.iter().map(|e| e.to_bits()));
    (counter.0.load(Ordering::Relaxed) - before, bits)
}

#[test]
fn recycled_workspace_convolves_only_the_images_the_session_reads() {
    // Regression: a recycled workspace keeps the previous session's 0 nm
    // and 20 nm-defocus images. Opening a session used to recompute both
    // and every step refreshed both, although this sequence reads only the
    // nominal image, so a warm pool started about twice the convolutions
    // of a fresh simulator.
    let mask = mask_with_vias(&[(200, 200), (600, 640)], 70, 1000);
    let warm_counter = Arc::new(ConvolveCounter::default());
    let warm = LithoSimulator::new(LithoConfig::fast()).with_trace_sink(warm_counter.clone());
    let _ = warm.evaluate(&mask); // leaves a two-image workspace in the pool
    let (warm_convolutions, warm_bits) = one_step_session(&warm, &warm_counter, &mask);
    assert_eq!(warm.pool().reuse_count(), 1, "the session must recycle");

    let fresh_counter = Arc::new(ConvolveCounter::default());
    let fresh = LithoSimulator::new(LithoConfig::fast()).with_trace_sink(fresh_counter.clone());
    let (fresh_convolutions, fresh_bits) = one_step_session(&fresh, &fresh_counter, &mask);
    assert_eq!(fresh.pool().reuse_count(), 0);

    assert!(fresh_convolutions > 0);
    assert_eq!(
        warm_convolutions, fresh_convolutions,
        "a recycled workspace must convolve no more than a fresh one"
    );
    assert_eq!(warm_bits, fresh_bits);
}
