//! Seeded inputs and the served job specifications of every workload.

use camo::CamoEngine;
use camo_geometry::{Clip, Point, Polygon, Vector};
use camo_serve::exec::{build_engine, Engine};
use camo_serve::wire::{EngineKind, JobSpec, Layer, LithoSpec};
use camo_workloads::{metal_test_set, via_test_set};

/// Worker threads of every workload (the batch runtime and `serve`).
pub const THREADS: usize = 2;

/// Policy seed of the served CAMO engine.
const POLICY_SEED: u64 = 2024;

/// Step budget of the mixed stream's optimize and sweep jobs: at one step
/// the nominal rate loads `serve` ~20%; with more steps queueing amplifies
/// host noise into the latencies (see camobench/README.md).
const STREAM_STEPS: usize = 1;

/// Largest seeded shift of a suite clip's pattern per axis, nm: four
/// pixels of the paper litho, two of the fast litho.
const SHIFT_NM: i64 = 20;

/// The served CAMO job at paper litho (px5) for one layer.
pub fn paper_job(layer: Layer) -> JobSpec {
    JobSpec {
        litho: LithoSpec::paper(),
        layer,
        engine: EngineKind::Camo { seed: POLICY_SEED },
        max_steps: None,
    }
}

/// The served CAMO job of the mixed request stream (fast litho, via,
/// at most [`STREAM_STEPS`] steps).
pub fn stream_job() -> JobSpec {
    JobSpec {
        litho: LithoSpec::fast(),
        max_steps: Some(STREAM_STEPS),
        ..paper_job(Layer::Via)
    }
}

/// The engine `serve` builds for `job`.
pub fn camo_engine(job: &JobSpec) -> CamoEngine {
    match build_engine(job) {
        Engine::Camo(engine) => *engine,
        Engine::Calibre(_) => unreachable!("every workload job names the CAMO engine"),
    }
}

/// Table-1 via suite: the 13 `via_test_set` clips (2–6 vias plus SRAFs,
/// `ViaGenerator` seed 777), each pattern shifted by a seeded offset in
/// whole pixels of `litho`.
pub fn via_suite(seed: u64, litho: &LithoSpec) -> Vec<Clip> {
    shifted_suite(via_test_set().into_iter().map(|c| c.clip), seed, litho)
}

/// Table-2 metal suite: the ten `metal_test_set` clips (`MetalGenerator`
/// seed 7), each pattern shifted by a seeded offset in whole pixels of
/// `litho`.
pub fn metal_suite(seed: u64, litho: &LithoSpec) -> Vec<Clip> {
    shifted_suite(metal_test_set().into_iter().map(|c| c.clip), seed, litho)
}

/// Shifts every clip's targets and SRAFs by a seeded whole number of
/// `litho` pixels, up to ±[`SHIFT_NM`] per axis, inside the unchanged clip
/// region.
///
/// Regenerating a suite from a new generator seed changes its cost a lot
/// (measured at px5 on two threads: ±25% for metal, whose wire extents
/// are random, and ±15% for via), which would drown the change under
/// test. A whole-pixel shift moves every coordinate the program reads but
/// keeps the pixel phase, so every seed gets the paper suite's work and
/// bit-identical EPE and PV band. Sub-pixel shifts (1 nm steps) moved the
/// metal EPE sum by 5.3% (IQR over median, seeds 1–10), which a quality
/// bound would then have to tolerate.
fn shifted_suite(clips: impl Iterator<Item = Clip>, seed: u64, litho: &LithoSpec) -> Vec<Clip> {
    let px = litho.to_config().pixel_size;
    let mut rng = SplitMix(seed);
    clips
        .map(|clip| {
            let shift = Vector::new(
                rng.offset(SHIFT_NM / px) * px,
                rng.offset(SHIFT_NM / px) * px,
            );
            shifted(&clip, shift)
        })
        .collect()
}

fn shifted(clip: &Clip, v: Vector) -> Clip {
    let mut out = Clip::with_name(clip.region(), clip.name());
    for target in clip.targets() {
        let vertices = target
            .vertices()
            .iter()
            .map(|p| Point::new(p.x + v.dx, p.y + v.dy))
            .collect();
        out.add_target(Polygon::new(vertices));
    }
    for sraf in clip.srafs() {
        out.add_sraf(sraf.translated(v));
    }
    out
}

/// SplitMix64: the benchmark's own seeded stream (schedules, shifts).
#[derive(Debug, Clone)]
pub struct SplitMix(pub u64);

impl SplitMix {
    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform integer in `[-max, max]`.
    fn offset(&mut self, max: i64) -> i64 {
        (self.next_u64() % (2 * max as u64 + 1)) as i64 - max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shifts_keep_shapes_and_follow_the_seed() {
        let suites = [
            (
                via_test_set()
                    .into_iter()
                    .map(|c| c.clip)
                    .collect::<Vec<_>>(),
                via_suite as fn(u64, &LithoSpec) -> Vec<Clip>,
                LithoSpec::paper(),
            ),
            (
                via_test_set().into_iter().map(|c| c.clip).collect(),
                via_suite,
                LithoSpec::fast(),
            ),
            (
                metal_test_set().into_iter().map(|c| c.clip).collect(),
                metal_suite,
                LithoSpec::paper(),
            ),
        ];
        for (paper, suite_of, litho) in suites {
            let px = litho.to_config().pixel_size;
            let suite = suite_of(5, &litho);
            assert_eq!(suite, suite_of(5, &litho));
            assert_ne!(suite, suite_of(6, &litho));
            for (orig, clip) in paper.iter().zip(&suite) {
                assert_eq!(clip.name(), orig.name());
                assert_eq!(clip.targets().len(), orig.targets().len());
                assert_eq!(clip.srafs().len(), orig.srafs().len());
                for (a, b) in clip.targets().iter().zip(orig.targets()) {
                    assert_eq!(a.area(), b.area());
                    assert!(clip.region().contains_rect(&a.bounding_box()));
                    let (moved, was) = (a.bounding_box(), b.bounding_box());
                    assert_eq!((moved.x0 - was.x0) % px, 0, "whole pixels in x");
                    assert_eq!((moved.y0 - was.y0) % px, 0, "whole pixels in y");
                }
            }
        }
    }
}
