//! End-to-end metal-layer flow: routing-clip generation → 60 nm measure-point
//! fragmentation → simulation → OPC with the Calibre-like engine and CAMO.

#[path = "../crates/geometry/tests/oracle/mod.rs"]
mod oracle;

use camo::engine::action_to_move;
use camo::{CamoConfig, CamoEngine};
use camo_baselines::{CalibreLikeOpc, OpcConfig, OpcEngine};
use camo_geometry::FragmentationParams;
use camo_litho::{LithoConfig, LithoSimulator};
use camo_workloads::{metal_test_set, MetalGenerator, MetalParams};

fn small_metal_params() -> MetalParams {
    MetalParams {
        clip_size: 700,
        track_pitch: 140,
        width_range: (50, 60),
        min_length: 150,
        margin: 60,
    }
}

fn fast_opc(max_steps: usize) -> OpcConfig {
    let mut opc = OpcConfig::metal_layer();
    opc.max_steps = max_steps;
    opc
}

#[test]
fn metal_fragmentation_places_measure_points_every_60nm() {
    let mut generator = MetalGenerator::new(small_metal_params(), 5);
    let case = generator.generate_regular("IM1", 2);
    assert_eq!(case.clip.targets().len(), 2);
    let frags = case.clip.fragment(&FragmentationParams::metal_layer());
    assert_eq!(frags.measure_points.len(), case.measure_points);
    // A 580 nm line edge carries ~9 measure points; two edges per line plus
    // the two ends, times two lines.
    assert!(
        case.measure_points > 20,
        "expected dense measure points, got {}",
        case.measure_points
    );
    // Every measure point lies on its segment.
    for mp in &frags.measure_points {
        let seg = &frags.segments[mp.segment];
        assert_eq!(mp.location, seg.control_point());
    }
}

#[test]
fn calibre_like_reduces_epe_on_metal_routing() {
    let mut generator = MetalGenerator::new(small_metal_params(), 7);
    let case = generator.generate_routing("IM2", 2);
    let sim = LithoSimulator::new(LithoConfig::fast());
    let mut engine = CalibreLikeOpc::new(fast_opc(6));
    let outcome = engine.optimize(&case.clip, &sim);
    let first = outcome.epe_trajectory.first().copied().expect("non-empty");
    let last = outcome.epe_trajectory.last().copied().expect("non-empty");
    assert!(last < first, "metal EPE should improve: {first} -> {last}");
    assert!(outcome.pv_band() > 0.0);
}

#[test]
fn camo_handles_metal_clips_without_panicking_and_tracks_trajectory() {
    let mut generator = MetalGenerator::new(small_metal_params(), 13);
    let case = generator.generate_routing("IM3", 2);
    let sim = LithoSimulator::new(LithoConfig::fast());
    let mut engine = CamoEngine::new(fast_opc(3), CamoConfig::fast());
    let outcome = engine.optimize(&case.clip, &sim);
    assert!(outcome.total_epe().is_finite());
    assert_eq!(outcome.epe_trajectory.len(), outcome.steps + 1);
    // The segment graph of a metal clip links neighbouring segments along
    // the same wire (spacing < 250 nm).
    let mask = engine.opc_config().initial_mask(&case.clip);
    let graph = engine.graph(&mask);
    assert!(
        graph.mean_degree() >= 1.0,
        "metal graph should not be edgeless"
    );
}

#[test]
fn modulator_ablation_changes_metal_trajectory() {
    let mut generator = MetalGenerator::new(small_metal_params(), 21);
    let case = generator.generate_regular("IM4", 1);
    let sim = LithoSimulator::new(LithoConfig::fast());
    let mut with = CamoEngine::new(fast_opc(4), CamoConfig::fast());
    let mut without = CamoEngine::new(fast_opc(4), CamoConfig::fast().without_modulator());
    let with_outcome = with.optimize(&case.clip, &sim);
    let without_outcome = without.optimize(&case.clip, &sim);
    // With an untrained policy the modulator is what provides direction; the
    // two trajectories must differ and the modulated one must not be worse.
    assert_ne!(with_outcome.epe_trajectory, without_outcome.epe_trajectory);
    assert!(with_outcome.total_epe() <= without_outcome.total_epe() + 1e-9);
}

#[test]
fn node_features_match_the_per_cell_oracle_at_every_step_of_a_metal_trajectory() {
    // `CamoEngine::optimize`'s chooser on the shared step loop, with the
    // features of every step compared to the former per-segment encoder.
    let clip = &metal_test_set()[0].clip;
    let sim = LithoSimulator::new(LithoConfig::fast());
    let mut engine = CamoEngine::new(OpcConfig::metal_layer(), CamoConfig::fast());
    let opc = engine.opc_config().clone();
    let initial = opc.initial_mask(clip);
    let graph = engine.graph(&initial);
    let mut steps = 0;
    let replay = opc.run_steps(&initial, &sim, |mask, epe| {
        let features = engine.node_features(mask);
        assert_eq!(features.len(), mask.segment_count());
        for (segment, got) in features.iter().enumerate() {
            let expected =
                oracle::segment_features_stacked(mask, segment, &engine.config().features);
            assert!(
                got.iter()
                    .map(|v| v.to_bits())
                    .eq(expected.iter().map(|v| v.to_bits())),
                "step {steps}, segment {segment}: features differ from the oracle"
            );
        }
        steps += 1;
        engine
            .decide(mask, &graph, epe, None)
            .iter()
            .map(|(a, _)| action_to_move(*a))
            .collect()
    });
    assert!(replay.steps > 1, "the trajectory must move the mask");
    assert_ne!(replay.mask.offsets(), initial.offsets());
    // The replayed chooser is the engine's own.
    let outcome = engine.optimize(clip, &sim);
    assert_eq!(outcome.steps, replay.steps);
    assert_eq!(outcome.mask.offsets(), replay.mask.offsets());
}
