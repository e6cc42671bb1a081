//! Quickstart: run CAMO on a single via clip and print the correction.
//!
//! ```text
//! cargo run -p camo --release --example quickstart
//! ```

use camo::{CamoConfig, CamoEngine};
use camo_baselines::{OpcConfig, OpcEngine};
use camo_geometry::{Clip, Rect};
use camo_litho::{LithoConfig, LithoSimulator};
use std::time::Instant;

fn main() {
    // 1. Describe the target layout: a 2-via clip, 70 nm vias.
    let mut clip = Clip::with_name(Rect::new(0, 0, 1200, 1200), "quickstart");
    clip.add_target(Rect::new(465, 565, 535, 635).to_polygon());
    clip.add_target(Rect::new(665, 565, 735, 635).to_polygon());

    // 2. Pick a lithography model (the fast configuration keeps this example
    //    under a second) and the CAMO engine.
    let simulator = LithoSimulator::new(LithoConfig::fast());
    let mut engine = CamoEngine::new(OpcConfig::via_layer(), CamoConfig::fast());

    // 3. Optimise. Even without training the OPC-inspired modulator steers
    //    the untrained policy like classic EPE feedback. Engines never read
    //    the clock, so the example times the call itself.
    let start = Instant::now();
    let outcome = engine.optimize(&clip, &simulator);
    let runtime = start.elapsed();

    println!("clip: {}", clip.name());
    println!("segments moved: {}", outcome.mask.segment_count());
    println!("steps taken:    {}", outcome.steps);
    println!(
        "EPE trajectory: {:?}",
        outcome
            .epe_trajectory
            .iter()
            .map(|e| e.round())
            .collect::<Vec<_>>()
    );
    println!("final EPE:      {:.1} nm", outcome.total_epe());
    println!("final PV band:  {:.0} nm^2", outcome.pv_band());
    println!("runtime:        {:.3} s", runtime.as_secs_f64());
    println!();
    println!("per-segment offsets (nm): {:?}", outcome.mask.offsets());
}
