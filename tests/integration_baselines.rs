//! Cross-engine comparisons on a shared clip: the qualitative ordering the
//! paper's tables rely on must hold on our substrate too.

use camo::{CamoConfig, CamoEngine};
use camo_baselines::{CalibreLikeOpc, DamoLikeOpc, OpcConfig, OpcEngine, PixelIlt};
use camo_geometry::{Clip, Rect};
use camo_litho::{LithoConfig, LithoSimulator};
use std::time::Instant;

fn two_via_clip() -> Clip {
    let mut clip = Clip::with_name(Rect::new(0, 0, 900, 900), "IB1");
    clip.add_target(Rect::new(265, 415, 335, 485).to_polygon());
    clip.add_target(Rect::new(565, 415, 635, 485).to_polygon());
    clip
}

fn fast_opc(max_steps: usize) -> OpcConfig {
    let mut opc = OpcConfig::via_layer();
    opc.max_steps = max_steps;
    opc
}

#[test]
fn every_engine_beats_the_uncorrected_initial_mask() {
    let clip = two_via_clip();
    let sim = LithoSimulator::new(LithoConfig::fast());
    let opc = fast_opc(5);
    let initial_epe = sim.evaluate(&opc.initial_mask(&clip)).total_epe();

    let outcomes = vec![
        (
            "Calibre-like",
            CalibreLikeOpc::new(opc.clone()).optimize(&clip, &sim),
        ),
        (
            "DAMO-like",
            DamoLikeOpc::new(opc.clone()).optimize(&clip, &sim),
        ),
        (
            "CAMO",
            CamoEngine::new(opc.clone(), CamoConfig::fast()).optimize(&clip, &sim),
        ),
    ];
    for (name, outcome) in &outcomes {
        assert!(
            outcome.total_epe() <= initial_epe + 1e-9,
            "{name} should not be worse than the uncorrected mask: {} vs {initial_epe}",
            outcome.total_epe()
        );
    }
}

#[test]
fn one_shot_engine_is_fastest_iterative_engines_are_more_accurate() {
    let clip = two_via_clip();
    let sim = LithoSimulator::new(LithoConfig::fast());
    let opc = fast_opc(6);

    // Engines never read the clock, so the test times each call itself,
    // after one untimed call has filled the simulator's workspace pool.
    let _ = DamoLikeOpc::new(opc.clone()).optimize(&clip, &sim);
    let start = Instant::now();
    let damo_outcome = DamoLikeOpc::new(opc.clone()).optimize(&clip, &sim);
    let damo_time = start.elapsed();
    let start = Instant::now();
    let calibre_outcome = CalibreLikeOpc::new(opc.clone()).optimize(&clip, &sim);
    let calibre_time = start.elapsed();

    // Runtime ordering: the one-shot engine performs a single simulation
    // round, the iterative one several.
    assert!(damo_outcome.steps < calibre_outcome.steps.max(2));
    assert!(damo_time <= calibre_time);
    // Accuracy ordering (the headline shape of Table 1).
    assert!(calibre_outcome.total_epe() <= damo_outcome.total_epe() + 1e-9);
}

#[test]
fn modulated_camo_is_competitive_with_the_calibre_like_teacher() {
    let clip = two_via_clip();
    let sim = LithoSimulator::new(LithoConfig::fast());
    let opc = fast_opc(8);
    let calibre_outcome = CalibreLikeOpc::new(opc.clone()).optimize(&clip, &sim);
    let camo_outcome = CamoEngine::new(opc, CamoConfig::fast()).optimize(&clip, &sim);
    // Even untrained, modulated CAMO must land in the same EPE regime as the
    // teacher: within a couple of nanometres per measure point of whatever
    // the teacher converged to (training then closes the remaining gap).
    let points = camo_outcome.mask.segment_count() as f64;
    assert!(
        camo_outcome.total_epe() <= calibre_outcome.total_epe() + 2.5 * points,
        "CAMO {} vs Calibre {}",
        camo_outcome.total_epe(),
        calibre_outcome.total_epe()
    );
}

#[test]
fn pixel_ilt_produces_a_manufacturable_segment_mask() {
    let clip = two_via_clip();
    let sim = LithoSimulator::new(LithoConfig::fast());
    let mut ilt = PixelIlt::new(fast_opc(1));
    ilt.iterations = 5;
    let outcome = ilt.optimize(&clip, &sim);
    assert!(outcome.total_epe().is_finite());
    for poly in outcome.mask.mask_polygons() {
        assert!(poly.area() > 0);
        assert!(poly.is_counter_clockwise());
    }
}

#[test]
fn engine_outcomes_are_reproducible() {
    let clip = two_via_clip();
    let sim = LithoSimulator::new(LithoConfig::fast());
    let opc = fast_opc(4);
    let a = CamoEngine::new(opc.clone(), CamoConfig::fast()).optimize(&clip, &sim);
    let b = CamoEngine::new(opc, CamoConfig::fast()).optimize(&clip, &sim);
    assert_eq!(a.mask.offsets(), b.mask.offsets());
    assert_eq!(a.epe_trajectory, b.epe_trajectory);
}
