//! Process-variation band computation.

use camo_geometry::{PixelWindow, Raster};

/// Computes the PV-band area in nm²: the area printed under the *outer*
/// corner but not under the *inner* corner.
///
/// Both images must share dimensions and pixel size.
///
/// # Panics
///
/// Panics if the image dimensions differ.
pub fn pv_band_area(
    inner_intensity: &Raster,
    inner_threshold: f64,
    outer_intensity: &Raster,
    outer_threshold: f64,
) -> f64 {
    pv_band_area_in(
        inner_intensity,
        inner_threshold,
        outer_intensity,
        outer_threshold,
        inner_intensity.full_window(),
    )
}

/// Computes the PV-band area inside one pixel window only, in nm².
///
/// Counting is per pixel and exact, so summing this over a partition of the
/// image's pixels reproduces [`pv_band_area`] bit for bit — the property
/// layout tiling uses to stitch per-tile PV contributions into the exact
/// layout total.
///
/// # Panics
///
/// Panics if the image dimensions or pixel sizes differ, or the window
/// exceeds the image.
pub fn pv_band_area_in(
    inner_intensity: &Raster,
    inner_threshold: f64,
    outer_intensity: &Raster,
    outer_threshold: f64,
    win: PixelWindow,
) -> f64 {
    assert_eq!(inner_intensity.width(), outer_intensity.width());
    assert_eq!(inner_intensity.height(), outer_intensity.height());
    assert_eq!(inner_intensity.pixel_size(), outer_intensity.pixel_size());
    assert!(
        win.x1 <= inner_intensity.width() && win.y1 <= inner_intensity.height(),
        "window exceeds the image"
    );
    let px = inner_intensity.pixel_size() as f64;
    let w = inner_intensity.width();
    let mut band_pixels = 0usize;
    for iy in win.y0..win.y1 {
        let row_in = &inner_intensity.data()[iy * w + win.x0..iy * w + win.x1];
        let row_out = &outer_intensity.data()[iy * w + win.x0..iy * w + win.x1];
        band_pixels += row_in
            .iter()
            .zip(row_out)
            .filter(|&(&i_in, &i_out)| {
                let printed_inner = i_in > inner_threshold;
                i_out > outer_threshold && !printed_inner
            })
            .count();
    }
    band_pixels as f64 * px * px
}

/// Computes the PV-band as a binary raster (1.0 inside the band), useful for
/// visualisation (Figure 6 of the paper).
///
/// Both images must share dimensions and pixel size.
///
/// # Panics
///
/// Panics if the image dimensions or pixel sizes differ.
pub fn pv_band_image(
    inner_intensity: &Raster,
    inner_threshold: f64,
    outer_intensity: &Raster,
    outer_threshold: f64,
) -> Raster {
    assert_eq!(inner_intensity.width(), outer_intensity.width());
    assert_eq!(inner_intensity.height(), outer_intensity.height());
    assert_eq!(
        inner_intensity.pixel_size(),
        outer_intensity.pixel_size(),
        "PV-band images must share a pixel size"
    );
    let mut out = Raster::with_dimensions(
        inner_intensity.origin(),
        inner_intensity.pixel_size(),
        inner_intensity.width(),
        inner_intensity.height(),
    );
    for ((o, &i_in), &i_out) in out
        .data_mut()
        .iter_mut()
        .zip(inner_intensity.data())
        .zip(outer_intensity.data())
    {
        let printed_inner = i_in > inner_threshold;
        let printed_outer = i_out > outer_threshold;
        *o = if printed_outer && !printed_inner {
            1.0
        } else {
            0.0
        };
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aerial::{aerial_image, rasterize_mask};
    use crate::kernel::OpticalModel;
    use crate::process::ProcessCorner;
    use crate::resist::ResistModel;
    use camo_geometry::{Clip, FragmentationParams, MaskState, Rect};

    fn via_mask() -> MaskState {
        let mut clip = Clip::new(Rect::new(0, 0, 1000, 1000));
        clip.add_target(Rect::new(465, 465, 535, 535).to_polygon());
        MaskState::from_clip(&clip, &FragmentationParams::via_layer())
    }

    #[test]
    fn pv_band_is_positive_for_printing_feature() {
        let mask = via_mask();
        let raster = rasterize_mask(&mask, 5, 0);
        let model = OpticalModel::default();
        let resist = ResistModel::default();
        let inner_c = ProcessCorner::inner();
        let outer_c = ProcessCorner::outer();
        let inner = aerial_image(&raster, &model, inner_c.defocus_nm);
        let outer = aerial_image(&raster, &model, outer_c.defocus_nm);
        let area = pv_band_area(
            &inner,
            resist.dosed_threshold(inner_c.dose),
            &outer,
            resist.dosed_threshold(outer_c.dose),
        );
        assert!(area > 0.0, "PV band must be positive, got {area}");
        // Band should be a ring, far smaller than the full printed area.
        assert!(area < 70.0 * 70.0 * 4.0);
    }

    #[test]
    fn identical_corners_give_zero_band() {
        let mask = via_mask();
        let raster = rasterize_mask(&mask, 5, 0);
        let model = OpticalModel::default();
        let image = aerial_image(&raster, &model, 0.0);
        let t = ResistModel::default().threshold;
        assert_eq!(pv_band_area(&image, t, &image, t), 0.0);
    }

    #[test]
    fn band_image_area_matches_band_area() {
        let mask = via_mask();
        let raster = rasterize_mask(&mask, 5, 0);
        let model = OpticalModel::default();
        let resist = ResistModel::default();
        let inner = aerial_image(&raster, &model, 20.0);
        let outer = aerial_image(&raster, &model, 0.0);
        let t_in = resist.dosed_threshold(0.96);
        let t_out = resist.dosed_threshold(1.04);
        let area = pv_band_area(&inner, t_in, &outer, t_out);
        let img = pv_band_image(&inner, t_in, &outer, t_out);
        let img_area = img.count_above(0.5) as f64 * 25.0;
        assert!((area - img_area).abs() < 1e-9);
    }

    #[test]
    fn windowed_band_areas_partition_the_total() {
        use camo_geometry::PixelWindow;
        let mask = via_mask();
        let raster = rasterize_mask(&mask, 5, 0);
        let model = OpticalModel::default();
        let resist = ResistModel::default();
        let inner = aerial_image(&raster, &model, 20.0);
        let outer = aerial_image(&raster, &model, 0.0);
        let t_in = resist.dosed_threshold(0.96);
        let t_out = resist.dosed_threshold(1.04);
        let total = pv_band_area(&inner, t_in, &outer, t_out);
        // Any partition of the pixel grid must sum to the exact total.
        let (w, h) = (inner.width(), inner.height());
        let split_x = w / 3;
        let split_y = 2 * h / 3;
        let windows = [
            (0, 0, split_x, split_y),
            (split_x, 0, w, split_y),
            (0, split_y, split_x, h),
            (split_x, split_y, w, h),
        ];
        let mut sum = 0.0;
        for (x0, y0, x1, y1) in windows {
            sum += pv_band_area_in(&inner, t_in, &outer, t_out, PixelWindow { x0, y0, x1, y1 });
        }
        assert_eq!(sum, total, "windowed sums must partition exactly");
    }

    #[test]
    #[should_panic(expected = "window exceeds")]
    fn windowed_band_area_rejects_oversized_window() {
        use camo_geometry::PixelWindow;
        let mask = via_mask();
        let raster = rasterize_mask(&mask, 5, 0);
        let img = aerial_image(&raster, &OpticalModel::default(), 0.0);
        let win = PixelWindow {
            x0: 0,
            y0: 0,
            x1: img.width() + 1,
            y1: img.height(),
        };
        let _ = pv_band_area_in(&img, 0.5, &img, 0.5, win);
    }

    #[test]
    #[should_panic(expected = "pixel size")]
    fn band_image_rejects_mismatched_pixel_sizes() {
        // Same dimensions but different resolutions: every pixel pair now
        // covers different nm regions, so the band image would be
        // geometrically wrong. `pv_band_area` already asserted this;
        // `pv_band_image` must too.
        use camo_geometry::{Point, Raster};
        let coarse = Raster::with_dimensions(Point::new(0, 0), 10, 16, 16);
        let fine = Raster::with_dimensions(Point::new(0, 0), 5, 16, 16);
        let _ = pv_band_image(&coarse, 0.5, &fine, 0.5);
    }
}
