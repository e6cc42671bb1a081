//! The squish encoder as it was before the per-step feature index, kept as
//! the reference the library must match bit for bit: every cell centre is
//! tested against every polygon with `Polygon::contains_point`, and `adapt`
//! rebuilds the matrix on every merge. The function bodies are the library's
//! former `SquishPattern::encode`, `AdaptiveSquishTensor::from_pattern`,
//! `adapt`, `segment_features_basic` and `segment_features_stacked`.

// Each test crate that includes this module uses a subset of it.
#![allow(dead_code)]

use camo_geometry::{
    segment_window, AdaptiveSquishTensor, Coord, FeatureConfig, MaskState, Point, Polygon, Rect,
    SquishPattern,
};

/// The former `SquishPattern::encode`.
pub fn encode(
    window: Rect,
    polygons: &[Polygon],
    rects: &[Rect],
    extra_x: &[Coord],
    extra_y: &[Coord],
) -> SquishPattern {
    let mut xs: Vec<Coord> = vec![window.x0, window.x1];
    let mut ys: Vec<Coord> = vec![window.y0, window.y1];
    for p in polygons {
        for (a, b) in p.edges() {
            if a.x == b.x {
                if a.x > window.x0 && a.x < window.x1 {
                    xs.push(a.x);
                }
            } else if a.y > window.y0 && a.y < window.y1 {
                ys.push(a.y);
            }
        }
    }
    for r in rects {
        for x in [r.x0, r.x1] {
            if x > window.x0 && x < window.x1 {
                xs.push(x);
            }
        }
        for y in [r.y0, r.y1] {
            if y > window.y0 && y < window.y1 {
                ys.push(y);
            }
        }
    }
    for &x in extra_x {
        if x > window.x0 && x < window.x1 {
            xs.push(x);
        }
    }
    for &y in extra_y {
        if y > window.y0 && y < window.y1 {
            ys.push(y);
        }
    }
    xs.sort_unstable();
    xs.dedup();
    ys.sort_unstable();
    ys.dedup();

    let cols = xs.len() - 1;
    let rows = ys.len() - 1;
    let delta_x: Vec<Coord> = xs.windows(2).map(|w| w[1] - w[0]).collect();
    let delta_y: Vec<Coord> = ys.windows(2).map(|w| w[1] - w[0]).collect();
    let mut matrix = vec![0.0; cols * rows];
    for row in 0..rows {
        let cy = (ys[row] + ys[row + 1]) / 2;
        for col in 0..cols {
            let cx = (xs[col] + xs[col + 1]) / 2;
            let p = Point::new(cx, cy);
            let covered = polygons.iter().any(|poly| poly.contains_point(p))
                || rects.iter().any(|r| r.contains_point(p) && !r.is_empty());
            if covered {
                matrix[row * cols + col] = 1.0;
            }
        }
    }
    SquishPattern {
        matrix,
        delta_x,
        delta_y,
        cols,
        rows,
    }
}

/// The former `AdaptiveSquishTensor::from_pattern`.
pub fn from_pattern(pattern: &SquishPattern, size: usize) -> AdaptiveSquishTensor {
    assert!(size > 0, "tensor size must be positive");
    let (matrix, dx, dy) = adapt(pattern, size);
    let wx: Coord = dx.iter().sum::<Coord>().max(1);
    let wy: Coord = dy.iter().sum::<Coord>().max(1);
    let mut data = vec![0.0; AdaptiveSquishTensor::CHANNELS * size * size];
    let plane = size * size;
    for (row, &dy_row) in dy.iter().enumerate() {
        for (col, &dx_col) in dx.iter().enumerate() {
            let idx = row * size + col;
            data[idx] = matrix[idx];
            data[plane + idx] = dx_col as f64 / wx as f64;
            data[2 * plane + idx] = dy_row as f64 / wy as f64;
        }
    }
    AdaptiveSquishTensor { data, size }
}

/// Merges or pads a squish pattern to exactly `size × size`.
fn adapt(pattern: &SquishPattern, size: usize) -> (Vec<f64>, Vec<Coord>, Vec<Coord>) {
    let mut matrix = pattern.matrix.clone();
    let mut cols = pattern.cols;
    let mut rows = pattern.rows;
    let mut dx = pattern.delta_x.clone();
    let mut dy = pattern.delta_y.clone();

    // Merge columns while too many.
    while cols > size {
        let (i, _) = dx
            .windows(2)
            .enumerate()
            .min_by_key(|(_, w)| w[0] + w[1])
            .expect("at least two columns when merging");
        let mut new_matrix = Vec::with_capacity(rows * (cols - 1));
        for row in 0..rows {
            for col in 0..cols {
                if col == i + 1 {
                    continue;
                }
                let mut v = matrix[row * cols + col];
                if col == i {
                    v = v.max(matrix[row * cols + col + 1]);
                }
                new_matrix.push(v);
            }
        }
        dx[i] += dx[i + 1];
        dx.remove(i + 1);
        matrix = new_matrix;
        cols -= 1;
    }
    // Merge rows while too many.
    while rows > size {
        let (i, _) = dy
            .windows(2)
            .enumerate()
            .min_by_key(|(_, w)| w[0] + w[1])
            .expect("at least two rows when merging");
        let mut new_matrix = Vec::with_capacity((rows - 1) * cols);
        for row in 0..rows {
            if row == i + 1 {
                continue;
            }
            for col in 0..cols {
                let mut v = matrix[row * cols + col];
                if row == i {
                    v = v.max(matrix[(row + 1) * cols + col]);
                }
                new_matrix.push(v);
            }
        }
        dy[i] += dy[i + 1];
        dy.remove(i + 1);
        matrix = new_matrix;
        rows -= 1;
    }
    // Pad with zero-spacing columns/rows when too few.
    if cols < size {
        let add = size - cols;
        let mut new_matrix = Vec::with_capacity(rows * size);
        for row in 0..rows {
            new_matrix.extend_from_slice(&matrix[row * cols..(row + 1) * cols]);
            new_matrix.extend(std::iter::repeat_n(0.0, add));
        }
        dx.extend(std::iter::repeat_n(0, add));
        matrix = new_matrix;
        cols = size;
    }
    if rows < size {
        let add = size - rows;
        matrix.extend(std::iter::repeat_n(0.0, add * cols));
        dy.extend(std::iter::repeat_n(0, add));
        rows = size;
    }
    debug_assert_eq!(matrix.len(), rows * cols);
    (matrix, dx, dy)
}

/// The former `segment_features_basic`.
pub fn segment_features_basic(
    mask: &MaskState,
    segment: usize,
    config: &FeatureConfig,
) -> Vec<f64> {
    let window = segment_window(mask, segment, config);
    let polys = mask.mask_polygons();
    let pattern = encode(window, &polys, mask.sraf_rects(), &[], &[]);
    from_pattern(&pattern, config.tensor_size).data.clone()
}

/// The former `segment_features_stacked`.
pub fn segment_features_stacked(
    mask: &MaskState,
    segment: usize,
    config: &FeatureConfig,
) -> Vec<f64> {
    let window = segment_window(mask, segment, config);
    let polys = mask.mask_polygons();
    let srafs = mask.sraf_rects();

    let mask_pattern = encode(window, &polys, srafs, &[], &[]);
    let mask_tensor = from_pattern(&mask_pattern, config.tensor_size);

    // Collect target-edge scanlines within the window.
    let mut extra_x = Vec::new();
    let mut extra_y = Vec::new();
    for target in mask.clip().targets() {
        for (a, b) in target.edges() {
            if a.x == b.x {
                extra_x.push(a.x);
            } else {
                extra_y.push(a.y);
            }
        }
    }
    let target_pattern = encode(window, &polys, srafs, &extra_x, &extra_y);
    let target_tensor = from_pattern(&target_pattern, config.tensor_size);

    mask_tensor.concat(&target_tensor)
}
