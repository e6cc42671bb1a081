//! Mask rasterisation and aerial-image computation.
//!
//! Since the scratch-buffer pipeline rewrite these are thin stateless
//! wrappers over [`crate::pipeline`]: rasterisation is *analytic* (exact
//! per-pixel area coverage of the rectilinear mask, no intermediate 1 nm
//! grid) and convolution runs windowed over the mask content with a
//! branch-free interior. Hot loops should prefer the session API
//! ([`crate::MaskEvaluator`]), which reuses buffers across steps; these
//! functions allocate fresh ones per call.

use crate::kernel::OpticalModel;
use crate::pipeline::{aerial_window, convolve_window, TapsCache};
use camo_geometry::{Coord, CoverageScratch, MaskState, Raster, Rect};

/// The region simulated for a mask: the clip region grown by `guard_nm` so
/// that kernels never see a hard boundary at the clip edge. Use
/// [`crate::LithoConfig::guard_band_nm`] (≥ the widest kernel's 3σ support,
/// rounded up to whole pixels) for the guard; `0` reproduces the seed's
/// unguarded behaviour.
pub fn simulation_region(mask: &MaskState, guard_nm: Coord) -> Rect {
    mask.clip().region().expanded(guard_nm)
}

/// Rasterises the current mask (moved polygons plus SRAFs) over the clip
/// region grown by `guard_nm`, at `pixel_size` nm per pixel.
///
/// Pixel values are the *exact area coverage* of the mask in `[0, 1]`,
/// computed analytically per pixel. This anti-aliasing is what lets 1–2 nm
/// segment movements change the aerial image smoothly instead of snapping
/// to the simulation pixel grid; it matches the seed's 1 nm fine-grid fill +
/// box downsample to within accumulation rounding (≪ 1e-9) while doing
/// 25–100× less work.
pub fn rasterize_mask(mask: &MaskState, pixel_size: Coord, guard_nm: Coord) -> Raster {
    let mut raster = Raster::new(simulation_region(mask, guard_nm), pixel_size);
    let win = raster.full_window();
    let mut cov = CoverageScratch::default();
    let mut verts = Vec::new();
    for i in 0..mask.clip().targets().len() {
        mask.moved_polygon_vertices(i, &mut verts);
        raster.fill_polygon_coverage_in(&verts, 1.0, win, &mut cov);
    }
    for &sraf in mask.sraf_rects() {
        raster.fill_rect_coverage_in(sraf, 1.0, win);
    }
    raster.clamp_window(win, 0.0, 1.0);
    raster
}

/// Computes the aerial image of a rasterised mask under `model`, with an
/// optional extra defocus blur in nm (used by process corners).
///
/// Each kernel contributes `weight · (mask ⊛ g_σ)²`, a SOCS-style incoherent
/// sum. The result is normalised so that a large open area prints at
/// intensity ≈ `model.total_weight()`. Only the window reachable from the
/// mask content (content grown by the kernel support) is convolved — the
/// amplitude is identically zero elsewhere, so this is exact, not an
/// approximation.
pub fn aerial_image(mask_raster: &Raster, model: &OpticalModel, defocus_blur_nm: f64) -> Raster {
    let mut intensity = Raster::with_dimensions(
        mask_raster.origin(),
        mask_raster.pixel_size(),
        mask_raster.width(),
        mask_raster.height(),
    );
    let Some(content) = mask_raster.nonzero_window() else {
        return intensity;
    };
    let (w, h) = (mask_raster.width(), mask_raster.height());
    let mut taps = TapsCache::new(mask_raster.pixel_size());
    taps.populate(model, defocus_blur_nm);
    let radius = taps
        .max_radius(model, defocus_blur_nm)
        .expect("taps just populated");
    let win = content.expanded(radius, w, h);
    let mut tmp = vec![0.0; w * h];
    let mut amp = vec![0.0; w * h];
    let mut live = Vec::with_capacity(h);
    aerial_window(
        mask_raster.data(),
        w,
        h,
        model,
        defocus_blur_nm,
        &taps,
        win,
        &mut tmp,
        &mut amp,
        &mut live,
        intensity.data_mut(),
    );
    intensity
}

/// Separable 2-D convolution with the same 1-D taps in x and y.
/// Edges are handled by renormalising over the in-bounds taps, so intensity
/// does not artificially fall off at the clip boundary.
pub fn convolve_separable(input: &Raster, taps: &[f64]) -> Raster {
    let (w, h) = (input.width(), input.height());
    let mut out = Raster::with_dimensions(input.origin(), input.pixel_size(), w, h);
    if w == 0 || h == 0 {
        return out;
    }
    let mut sum = 0.0;
    for &t in taps {
        sum += t;
    }
    let mut tmp = vec![0.0; w * h];
    let mut live = Vec::with_capacity(h);
    convolve_window(
        input.data(),
        w,
        h,
        taps,
        sum,
        input.full_window(),
        &mut tmp,
        out.data_mut(),
        &mut live,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::OpticalModel;
    use crate::reference;
    use camo_geometry::{Clip, FragmentationParams, MaskState, Point, Rect};

    fn via_mask(size: i64) -> MaskState {
        let mut clip = Clip::new(Rect::new(0, 0, 1000, 1000));
        let half = size / 2;
        clip.add_target(Rect::new(500 - half, 500 - half, 500 + half, 500 + half).to_polygon());
        MaskState::from_clip(&clip, &FragmentationParams::via_layer())
    }

    #[test]
    fn rasterized_mask_area_matches_geometry() {
        let mask = via_mask(70);
        let raster = rasterize_mask(&mask, 5, 0);
        let filled = raster.count_above(0.5) as i64 * 25;
        assert!(
            (filled - 4900).abs() <= 500,
            "area {filled} too far from 4900"
        );
    }

    #[test]
    fn aerial_peak_is_at_pattern_center() {
        let mask = via_mask(70);
        let raster = rasterize_mask(&mask, 5, 0);
        let image = aerial_image(&raster, &OpticalModel::default(), 0.0);
        let center = image.sample(Point::new(500, 500));
        let corner = image.sample(Point::new(100, 100));
        assert!(center > 10.0 * corner.max(1e-12));
        assert!(center <= OpticalModel::default().total_weight() + 1e-9);
    }

    #[test]
    fn larger_pattern_prints_brighter() {
        let small = via_mask(50);
        let large = via_mask(90);
        let model = OpticalModel::default();
        let i_small =
            aerial_image(&rasterize_mask(&small, 5, 0), &model, 0.0).sample(Point::new(500, 500));
        let i_large =
            aerial_image(&rasterize_mask(&large, 5, 0), &model, 0.0).sample(Point::new(500, 500));
        assert!(i_large > i_small);
    }

    #[test]
    fn defocus_blur_lowers_peak_intensity() {
        let mask = via_mask(70);
        let raster = rasterize_mask(&mask, 5, 0);
        let model = OpticalModel::default();
        let nominal = aerial_image(&raster, &model, 0.0).sample(Point::new(500, 500));
        let defocused = aerial_image(&raster, &model, 25.0).sample(Point::new(500, 500));
        assert!(defocused < nominal);
    }

    #[test]
    fn degenerate_raster_shapes_match_reference_bit_for_bit() {
        // Rasters narrower than the kernel (every pixel a border pixel) and
        // radius-0 kernels must match the seed implementation exactly.
        let mut tiny = Raster::new(Rect::new(0, 0, 30, 30), 10); // 3×3 pixels
        tiny.fill_rect(Rect::new(0, 0, 20, 30), 0.7);
        tiny.fill_rect(Rect::new(10, 10, 30, 20), 0.4);
        let wide_taps: Vec<f64> = (0..11).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let single_tap = vec![0.3];
        for (raster, taps) in [(&tiny, &wide_taps), (&tiny, &single_tap)] {
            let expected = reference::convolve_separable(raster, taps);
            let got = convolve_separable(raster, taps);
            for (i, (a, b)) in got.data().iter().zip(expected.data()).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "taps={} pixel {i}: {a:e} vs {b:e}",
                    taps.len()
                );
            }
        }
    }

    #[test]
    fn convolution_preserves_uniform_fields() {
        let mut r = Raster::new(Rect::new(0, 0, 200, 200), 5);
        r.fill_rect(Rect::new(0, 0, 200, 200), 1.0);
        let taps = crate::kernel::GaussianKernel::new(1.0, 30.0).taps(5, 0.0);
        let out = convolve_separable(&r, &taps);
        for &v in out.data() {
            assert!((v - 1.0).abs() < 1e-9, "uniform field distorted: {v}");
        }
    }

    #[test]
    fn guard_band_makes_clip_edge_intensity_boundary_free() {
        // Regression for the simulation_region guard-band bug: the region
        // must be grown by the widest kernel's support so that intensity at
        // the clip edge is what an arbitrarily oversized region would give.
        let mut clip = Clip::new(Rect::new(0, 0, 1000, 1000));
        // A via hugging the left clip edge.
        clip.add_target(Rect::new(0, 465, 70, 535).to_polygon());
        let mask = MaskState::from_clip(&clip, &FragmentationParams::via_layer());
        let config = crate::LithoConfig::default();
        let guard = config.guard_band_nm();
        let model = &config.optical;

        let guarded = aerial_image(&rasterize_mask(&mask, 5, guard), model, 0.0);
        let oversized = aerial_image(&rasterize_mask(&mask, 5, 2 * guard), model, 0.0);
        for y in (400..=600).step_by(10) {
            for x in (0..=100).step_by(5) {
                let p = Point::new(x, y);
                let a = guarded.sample(p);
                let b = oversized.sample(p);
                assert!(
                    (a - b).abs() < 1e-9,
                    "clip-edge intensity at {p} depends on the region: {a} vs {b}"
                );
            }
        }

        // And the unguarded seed behaviour really was boundary-sensitive
        // (border renormalisation inflated intensity at the clip edge).
        let unguarded = aerial_image(&rasterize_mask(&mask, 5, 0), model, 0.0);
        let p = Point::new(2, 500);
        assert!(
            (unguarded.sample(p) - oversized.sample(p)).abs() > 1e-3,
            "expected the unguarded region to distort clip-edge intensity"
        );
    }

    #[test]
    fn analytic_raster_matches_reference_fine_grid() {
        for (size, bias, guard) in [(70, 0, 0), (70, 3, 180), (50, -2, 95), (90, 2, 0)] {
            let mut mask = via_mask(size);
            mask.apply_uniform_bias(bias);
            let fast = rasterize_mask(&mask, 5, guard);
            let slow = reference::rasterize_mask(&mask, 5, guard);
            assert_eq!(fast.width(), slow.width());
            assert_eq!(fast.height(), slow.height());
            for (a, b) in fast.data().iter().zip(slow.data()) {
                assert!((a - b).abs() < 1e-9, "coverage mismatch: {a} vs {b}");
            }
        }
    }

    #[test]
    fn windowed_aerial_matches_reference_everywhere() {
        let mut mask = via_mask(70);
        mask.apply_uniform_bias(3);
        for guard in [0, 180] {
            let raster = rasterize_mask(&mask, 5, guard);
            for blur in [0.0, 20.0] {
                let fast = aerial_image(&raster, &OpticalModel::default(), blur);
                let slow = reference::aerial_image(&raster, &OpticalModel::default(), blur);
                for (i, (a, b)) in fast.data().iter().zip(slow.data()).enumerate() {
                    assert!(
                        (a - b).abs() < 1e-9,
                        "intensity mismatch at {i} (guard {guard}, blur {blur}): {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn windowed_convolution_matches_reference() {
        // Content pushed against the raster border exercises both the
        // interior fast path and the renormalised border strips.
        let mut r = Raster::new(Rect::new(0, 0, 300, 300), 5);
        r.fill_rect(Rect::new(0, 0, 80, 300), 0.7);
        r.fill_rect(Rect::new(230, 140, 300, 260), 1.0);
        for sigma in [12.0, 30.0, 60.0, 200.0] {
            let taps = crate::kernel::GaussianKernel::new(1.0, sigma).taps(5, 0.0);
            let fast = convolve_separable(&r, &taps);
            let slow = reference::convolve_separable(&r, &taps);
            for (a, b) in fast.data().iter().zip(slow.data()) {
                assert!((a - b).abs() < 1e-9, "σ {sigma}: {a} vs {b}");
            }
        }
    }
}
