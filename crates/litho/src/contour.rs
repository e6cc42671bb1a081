//! Printed-contour extraction from aerial images.

use camo_geometry::Raster;

/// Thresholds an aerial image into a binary print image (1.0 = printed).
pub fn print_image(intensity: &Raster, threshold: f64) -> Raster {
    let mut out = Raster::with_dimensions(
        intensity.origin(),
        intensity.pixel_size(),
        intensity.width(),
        intensity.height(),
    );
    for (o, &i) in out.data_mut().iter_mut().zip(intensity.data()) {
        *o = if i > threshold { 1.0 } else { 0.0 };
    }
    out
}

/// Returns the pixel coordinates `(ix, iy)` of contour cells: printed pixels
/// with at least one non-printed 4-neighbour (or on the image border).
pub fn contour_cells(binary: &Raster) -> Vec<(usize, usize)> {
    let w = binary.width();
    let h = binary.height();
    let mut cells = Vec::new();
    for iy in 0..h {
        for ix in 0..w {
            if binary.get(ix, iy) < 0.5 {
                continue;
            }
            let on_border = ix == 0 || iy == 0 || ix + 1 == w || iy + 1 == h;
            let exposed = on_border
                || binary.get(ix - 1, iy) < 0.5
                || binary.get(ix + 1, iy) < 0.5
                || binary.get(ix, iy - 1) < 0.5
                || binary.get(ix, iy + 1) < 0.5;
            if exposed {
                cells.push((ix, iy));
            }
        }
    }
    cells
}

/// Total printed area in nm² of a binary print image.
pub fn printed_area(binary: &Raster) -> f64 {
    let px = binary.pixel_size() as f64;
    binary.count_above(0.5) as f64 * px * px
}

#[cfg(test)]
mod tests {
    use super::*;
    use camo_geometry::{Raster, Rect};

    #[test]
    fn print_image_thresholds() {
        let mut r = Raster::new(Rect::new(0, 0, 50, 50), 10);
        r.fill_rect(Rect::new(0, 0, 30, 50), 0.6);
        let b = print_image(&r, 0.5);
        assert_eq!(b.count_above(0.5), 3 * 5);
        assert!((printed_area(&b) - 1500.0).abs() < 1e-9);
    }

    #[test]
    fn contour_of_solid_square_is_its_ring() {
        let mut r = Raster::new(Rect::new(0, 0, 100, 100), 10);
        r.fill_rect(Rect::new(20, 20, 80, 80), 1.0);
        let cells = contour_cells(&r);
        // 6x6 block: ring = 36 - 16 = 20 cells.
        assert_eq!(cells.len(), 20);
    }

    #[test]
    fn empty_image_has_no_contour() {
        let r = Raster::new(Rect::new(0, 0, 100, 100), 10);
        assert!(contour_cells(&r).is_empty());
    }
}
