//! Squish-pattern encoding (Figure 3 of the CAMO paper).
//!
//! Layout windows are sparse, so instead of rasterising them into large pixel
//! images, the *squish pattern* places scanlines only at geometry edges. The
//! window becomes a small occupancy matrix `M` plus two spacing vectors
//! `δx`/`δy` holding the physical width of every grid interval in nm.
//!
//! The policy network needs a fixed input size, so the variable-size squish
//! pattern is converted to an [`AdaptiveSquishTensor`] of `d × d × 3`
//! channels (occupancy, x-spacing, y-spacing), padding or merging grid
//! intervals as required — the "adaptive squish pattern" of Yang et al.
//! (ASPDAC'19) that both RL-OPC and CAMO use.

use crate::point::Coord;
use crate::polygon::Polygon;
use crate::rect::Rect;

/// A variable-size squish encoding of one layout window.
#[derive(Debug, Clone, PartialEq)]
pub struct SquishPattern {
    /// Occupancy matrix, row-major: `matrix[row * cols + col]`, 1.0 when the
    /// grid cell is covered by geometry.
    pub matrix: Vec<f64>,
    /// Horizontal interval widths in nm (length = `cols`).
    pub delta_x: Vec<Coord>,
    /// Vertical interval heights in nm (length = `rows`).
    pub delta_y: Vec<Coord>,
    /// Number of columns.
    pub cols: usize,
    /// Number of rows.
    pub rows: usize,
}

impl SquishPattern {
    /// Encodes the geometry visible in `window`.
    ///
    /// Scanlines are placed at the window boundary and at every edge
    /// coordinate of the geometry that lies strictly inside the window's x
    /// (or y) range: the x of every vertical polygon edge and the y of every
    /// horizontal one, both sides of every rectangle (empty ones included),
    /// and `extra_x` / `extra_y` (CAMO adds the *target* edges when encoding
    /// the mask so that edge movements stand out). The coordinate alone
    /// decides: an edge of geometry that does not meet the window still adds
    /// its scanline. A cell is occupied when its centre, rounded toward zero,
    /// lies in a polygon ([`Polygon::contains_point`]) or in a non-empty
    /// rectangle.
    pub fn encode(
        window: Rect,
        polygons: &[Polygon],
        rects: &[Rect],
        extra_x: &[Coord],
        extra_y: &[Coord],
    ) -> Self {
        let lines = Scanlines::new(polygons, rects, extra_x, extra_y);
        let geometry = SquishGeometry::new(polygons.to_vec(), rects);
        let mut pattern = Self::empty();
        geometry.encode_into(window, &lines, &mut SquishScratch::default(), &mut pattern);
        pattern
    }

    /// A pattern with no cells, for [`SquishGeometry::encode_into`] to fill.
    pub(crate) fn empty() -> Self {
        Self {
            matrix: Vec::new(),
            delta_x: Vec::new(),
            delta_y: Vec::new(),
            cols: 0,
            rows: 0,
        }
    }

    /// Occupancy value at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn occupancy(&self, row: usize, col: usize) -> f64 {
        assert!(
            row < self.rows && col < self.cols,
            "squish index out of range"
        );
        self.matrix[row * self.cols + col]
    }

    /// Total covered area represented by the pattern, nm².
    pub fn covered_area(&self) -> i64 {
        let mut area = 0;
        for row in 0..self.rows {
            for col in 0..self.cols {
                if self.matrix[row * self.cols + col] > 0.5 {
                    area += self.delta_x[col] * self.delta_y[row];
                }
            }
        }
        area
    }

    /// Total window area, nm².
    pub fn window_area(&self) -> i64 {
        let w: Coord = self.delta_x.iter().sum();
        let h: Coord = self.delta_y.iter().sum();
        w * h
    }
}

/// A fixed-size, 3-channel tensor derived from a [`SquishPattern`].
///
/// Channels: 0 = occupancy, 1 = normalised x-spacing of the cell's column,
/// 2 = normalised y-spacing of the cell's row. Spacings are normalised by the
/// window extent so all values lie in `[0, 1]`.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveSquishTensor {
    /// Tensor values, layout `[channel][row][col]` flattened row-major.
    pub data: Vec<f64>,
    /// Side length (rows = cols = `size`).
    pub size: usize,
}

impl AdaptiveSquishTensor {
    /// Number of channels in the tensor.
    pub const CHANNELS: usize = 3;

    /// Converts a squish pattern to a fixed `size × size × 3` tensor.
    ///
    /// Columns/rows are merged (smallest spacing first) when the pattern is
    /// larger than `size`, and zero-spacing entries are appended when it is
    /// smaller, exactly preserving total covered area in the spacing
    /// channels.
    ///
    /// # Panics
    ///
    /// Panics if `size == 0`.
    pub fn from_pattern(pattern: &SquishPattern, size: usize) -> Self {
        let mut data = vec![0.0; Self::CHANNELS * size * size];
        write_tensor(pattern, size, &mut data, &mut SquishScratch::default());
        Self { data, size }
    }

    /// Value of `channel` at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn get(&self, channel: usize, row: usize, col: usize) -> f64 {
        assert!(channel < Self::CHANNELS && row < self.size && col < self.size);
        self.data[channel * self.size * self.size + row * self.size + col]
    }

    /// Flattened length (`3 · size²`).
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor has zero size (never happens for valid tensors).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Concatenates two tensors channel-wise (the layout of CAMO's 6-channel
    /// features: the mask encoding, then the target-edge-highlighted one).
    ///
    /// # Panics
    ///
    /// Panics if the sizes differ.
    pub fn concat(&self, other: &AdaptiveSquishTensor) -> Vec<f64> {
        assert_eq!(
            self.size, other.size,
            "cannot concatenate tensors of different size"
        );
        let mut out = Vec::with_capacity(self.data.len() + other.data.len());
        out.extend_from_slice(&self.data);
        out.extend_from_slice(&other.data);
        out
    }
}

/// Candidate scanline coordinates, sorted and deduplicated: the x of every
/// vertical edge and the y of every horizontal edge of some geometry, plus
/// extra lines. A window's scanlines are its bounds and the candidates
/// strictly inside it (see [`SquishPattern::encode`]).
#[derive(Debug)]
pub(crate) struct Scanlines {
    xs: Vec<Coord>,
    ys: Vec<Coord>,
}

impl Scanlines {
    /// Candidates of `polygons`, `rects` (empty ones included) and the
    /// extra lines.
    pub(crate) fn new(
        polygons: &[Polygon],
        rects: &[Rect],
        extra_x: &[Coord],
        extra_y: &[Coord],
    ) -> Self {
        let mut xs = extra_x.to_vec();
        let mut ys = extra_y.to_vec();
        for p in polygons {
            for (a, b) in p.edges() {
                if a.x == b.x {
                    xs.push(a.x);
                } else {
                    ys.push(a.y);
                }
            }
        }
        for r in rects {
            xs.extend([r.x0, r.x1]);
            ys.extend([r.y0, r.y1]);
        }
        xs.sort_unstable();
        xs.dedup();
        ys.sort_unstable();
        ys.dedup();
        Self { xs, ys }
    }
}

/// Writes the scanlines of the interval `[lo, hi]` into `out`: both bounds
/// and every candidate strictly between them, ascending. A zero-width
/// interval has the single line `lo` and so no cells.
fn window_lines(candidates: &[Coord], lo: Coord, hi: Coord, out: &mut Vec<Coord>) {
    out.clear();
    out.push(lo);
    let start = candidates.partition_point(|&c| c <= lo);
    let end = candidates.partition_point(|&c| c < hi).max(start);
    out.extend_from_slice(&candidates[start..end]);
    if hi > lo {
        out.push(hi);
    }
}

/// The geometry a squish pattern covers, with a bounding box per polygon so
/// that a window visits only the polygons that can cover one of its cells.
#[derive(Debug)]
pub(crate) struct SquishGeometry {
    polygons: Vec<Polygon>,
    bboxes: Vec<Rect>,
    /// The non-empty rectangles; empty ones add scanlines but cover nothing.
    rects: Vec<Rect>,
}

/// Buffers the encoder reuses from one window to the next.
#[derive(Debug, Default)]
pub(crate) struct SquishScratch {
    xs: Vec<Coord>,
    ys: Vec<Coord>,
    /// Cell-centre x of every column, non-decreasing.
    cx: Vec<Coord>,
    crossings: Vec<Coord>,
    dx: Vec<Coord>,
    dy: Vec<Coord>,
    col_group: Vec<usize>,
    row_group: Vec<usize>,
    starts: Vec<usize>,
}

impl SquishGeometry {
    pub(crate) fn new(polygons: Vec<Polygon>, rects: &[Rect]) -> Self {
        Self {
            bboxes: polygons.iter().map(Polygon::bounding_box).collect(),
            polygons,
            rects: rects.iter().filter(|r| !r.is_empty()).copied().collect(),
        }
    }

    /// Encodes `window` into `out` on the scanlines `lines` places in it,
    /// with the occupancy rule of [`SquishPattern::encode`].
    ///
    /// Occupancy is filled row by row, visiting only the polygons whose
    /// bounding box meets the window and spans the row's centre. Each marks
    /// its boundary spans and the cell centres with an odd number of its edge
    /// crossings to their right.
    pub(crate) fn encode_into(
        &self,
        window: Rect,
        lines: &Scanlines,
        scratch: &mut SquishScratch,
        out: &mut SquishPattern,
    ) {
        window_lines(&lines.xs, window.x0, window.x1, &mut scratch.xs);
        window_lines(&lines.ys, window.y0, window.y1, &mut scratch.ys);
        let cols = scratch.xs.len() - 1;
        out.cols = cols;
        out.rows = scratch.ys.len() - 1;
        out.delta_x.clear();
        out.delta_x
            .extend(scratch.xs.windows(2).map(|w| w[1] - w[0]));
        out.delta_y.clear();
        out.delta_y
            .extend(scratch.ys.windows(2).map(|w| w[1] - w[0]));
        out.matrix.clear();
        out.matrix.resize(cols * out.rows, 0.0);

        scratch.cx.clear();
        scratch
            .cx
            .extend(scratch.xs.windows(2).map(|w| (w[0] + w[1]) / 2));
        let cx = &scratch.cx;
        for (row, w) in scratch.ys.windows(2).enumerate() {
            let cy = (w[0] + w[1]) / 2;
            let cells = &mut out.matrix[row * cols..(row + 1) * cols];
            for r in &self.rects {
                if r.y0 <= cy && cy <= r.y1 {
                    cover(cells, cx, r.x0, r.x1);
                }
            }
            for (polygon, bbox) in self.polygons.iter().zip(&self.bboxes) {
                let meets_window = bbox.x0 <= window.x1 && window.x0 <= bbox.x1;
                if meets_window && bbox.y0 <= cy && cy <= bbox.y1 {
                    cover_polygon_row(polygon, cy, cx, cells, &mut scratch.crossings);
                }
            }
        }
    }
}

/// Marks the cells of one row whose centre (`cx`, `cy`) lies in `polygon`
/// by [`Polygon::contains_point`]'s rule: on an edge, or with an odd number
/// of vertical edges spanning `ylo <= cy < yhi` strictly to its right.
fn cover_polygon_row(
    polygon: &Polygon,
    cy: Coord,
    cx: &[Coord],
    cells: &mut [f64],
    crossings: &mut Vec<Coord>,
) {
    crossings.clear();
    for (a, b) in polygon.edges() {
        if a.x == b.x {
            let (ylo, yhi) = (a.y.min(b.y), a.y.max(b.y));
            if ylo <= cy && cy <= yhi {
                cover(cells, cx, a.x, a.x);
                if cy < yhi {
                    crossings.push(a.x);
                }
            }
        } else if a.y == cy {
            cover(cells, cx, a.x.min(b.x), a.x.max(b.x));
        }
    }
    crossings.sort_unstable();
    // Crossings at or left of the current centre; `cx` is non-decreasing.
    let mut left = 0;
    for (cell, &x) in cells.iter_mut().zip(cx) {
        while left < crossings.len() && crossings[left] <= x {
            left += 1;
        }
        if (crossings.len() - left) % 2 == 1 {
            *cell = 1.0;
        }
    }
}

/// Marks the cells whose centre lies in `[lo, hi]`.
fn cover(cells: &mut [f64], cx: &[Coord], lo: Coord, hi: Coord) {
    let start = cx.partition_point(|&c| c < lo);
    let end = cx.partition_point(|&c| c <= hi);
    if start < end {
        cells[start..end].fill(1.0);
    }
}

/// Writes the `size × size × 3` tensor of `pattern` into `out`
/// (`3 · size²` values, layout of [`AdaptiveSquishTensor::data`]).
///
/// Columns, then rows, are merged while more than `size` remain: each merge
/// joins the first adjacent pair with the smallest summed spacing, and a
/// merged cell is occupied when any of its cells is. Missing columns and rows
/// are zero-spacing padding.
pub(crate) fn write_tensor(
    pattern: &SquishPattern,
    size: usize,
    out: &mut [f64],
    scratch: &mut SquishScratch,
) {
    assert!(size > 0, "tensor size must be positive");
    let SquishScratch {
        dx,
        dy,
        col_group,
        row_group,
        starts,
        ..
    } = scratch;
    merge_groups(&pattern.delta_x, size, dx, col_group, starts);
    merge_groups(&pattern.delta_y, size, dy, row_group, starts);
    let plane = size * size;
    let (occupancy, spacing) = out.split_at_mut(plane);
    occupancy.fill(0.0);
    for (row, &g_row) in row_group.iter().enumerate() {
        let cells = &pattern.matrix[row * pattern.cols..(row + 1) * pattern.cols];
        for (&v, &g_col) in cells.iter().zip(col_group.iter()) {
            let merged = &mut occupancy[g_row * size + g_col];
            *merged = merged.max(v);
        }
    }
    let wx = dx.iter().sum::<Coord>().max(1) as f64;
    let wy = dy.iter().sum::<Coord>().max(1) as f64;
    let (x_plane, y_plane) = spacing.split_at_mut(plane);
    for (row, &dy_row) in dy.iter().enumerate() {
        for (col, &dx_col) in dx.iter().enumerate() {
            x_plane[row * size + col] = dx_col as f64 / wx;
            y_plane[row * size + col] = dy_row as f64 / wy;
        }
    }
}

/// Merges the intervals `deltas` down to at most `size`, always joining the
/// first adjacent pair with the smallest sum. Writes the merged spacings,
/// zero-padded to `size`, into `merged` and the merged index of every
/// original interval into `group`.
fn merge_groups(
    deltas: &[Coord],
    size: usize,
    merged: &mut Vec<Coord>,
    group: &mut Vec<usize>,
    starts: &mut Vec<usize>,
) {
    merged.clear();
    merged.extend_from_slice(deltas);
    starts.clear();
    starts.extend(0..deltas.len());
    while merged.len() > size {
        let (i, _) = merged
            .windows(2)
            .enumerate()
            .min_by_key(|(_, w)| w[0] + w[1])
            .expect("at least two intervals when merging");
        merged[i] += merged[i + 1];
        merged.remove(i + 1);
        starts.remove(i + 1);
    }
    group.clear();
    for (g, &start) in starts.iter().enumerate() {
        let end = starts.get(g + 1).copied().unwrap_or(deltas.len());
        group.extend(std::iter::repeat_n(g, end - start));
    }
    merged.resize(size, 0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::Point;

    #[test]
    fn encode_single_rect_window() {
        // A 70 nm via centred in a 500 nm window: 3x3 grid, centre cell set.
        let window = Rect::new(0, 0, 500, 500);
        let via = Rect::new(215, 215, 285, 285);
        let sp = SquishPattern::encode(window, &[via.to_polygon()], &[], &[], &[]);
        assert_eq!(sp.cols, 3);
        assert_eq!(sp.rows, 3);
        assert_eq!(sp.occupancy(1, 1), 1.0);
        assert_eq!(sp.occupancy(0, 0), 0.0);
        assert_eq!(sp.covered_area(), 70 * 70);
        assert_eq!(sp.window_area(), 500 * 500);
        assert_eq!(sp.delta_x, vec![215, 70, 215]);
    }

    #[test]
    fn encode_includes_sraf_rects() {
        let window = Rect::new(0, 0, 400, 400);
        let via = Rect::new(165, 165, 235, 235);
        let sraf = Rect::new(40, 165, 60, 235);
        let sp = SquishPattern::encode(window, &[via.to_polygon()], &[sraf], &[], &[]);
        assert_eq!(sp.covered_area(), 70 * 70 + 20 * 70);
    }

    #[test]
    fn extra_scanlines_add_grid_lines() {
        let window = Rect::new(0, 0, 100, 100);
        let sp0 = SquishPattern::encode(window, &[], &[], &[], &[]);
        assert_eq!(sp0.cols, 1);
        let sp1 = SquishPattern::encode(window, &[], &[], &[30, 60], &[50]);
        assert_eq!(sp1.cols, 3);
        assert_eq!(sp1.rows, 2);
        assert_eq!(sp1.covered_area(), 0);
    }

    #[test]
    fn adaptive_tensor_pads_small_patterns() {
        let window = Rect::new(0, 0, 500, 500);
        let via = Rect::new(215, 215, 285, 285);
        let sp = SquishPattern::encode(window, &[via.to_polygon()], &[], &[], &[]);
        let t = AdaptiveSquishTensor::from_pattern(&sp, 8);
        assert_eq!(t.size, 8);
        assert_eq!(t.len(), 3 * 64);
        // Occupancy channel preserves the filled cell.
        assert_eq!(t.get(0, 1, 1), 1.0);
        // Padded cells carry zero spacing.
        assert_eq!(t.get(1, 0, 7), 0.0);
    }

    #[test]
    fn adaptive_tensor_merges_large_patterns() {
        // Many small rects -> more than `size` grid lines; merging must keep
        // values in [0, 1] and the requested dimensions.
        let window = Rect::new(0, 0, 1000, 1000);
        let rects: Vec<Rect> = (0..12)
            .map(|i| Rect::new(10 + i * 80, 10 + i * 80, 40 + i * 80, 40 + i * 80))
            .collect();
        let polys: Vec<Polygon> = rects.iter().map(|r| r.to_polygon()).collect();
        let sp = SquishPattern::encode(window, &polys, &[], &[], &[]);
        assert!(sp.cols > 8);
        let t = AdaptiveSquishTensor::from_pattern(&sp, 8);
        assert_eq!(t.size, 8);
        for v in &t.data {
            assert!((0.0..=1.0).contains(v), "value {v} out of range");
        }
        // Some occupancy must survive the merge.
        assert!(t.data[..64].iter().sum::<f64>() > 0.0);
    }

    #[test]
    fn concat_produces_six_channels() {
        let window = Rect::new(0, 0, 200, 200);
        let via = Rect::new(65, 65, 135, 135);
        let sp = SquishPattern::encode(window, &[via.to_polygon()], &[], &[], &[]);
        let t = AdaptiveSquishTensor::from_pattern(&sp, 4);
        let stacked = t.concat(&t);
        assert_eq!(stacked.len(), 6 * 16);
    }

    #[test]
    fn window_off_origin_is_supported() {
        let window = Rect::new(1000, 1000, 1500, 1500);
        let via = Rect::new(1215, 1215, 1285, 1285);
        let sp = SquishPattern::encode(window, &[via.to_polygon()], &[], &[], &[]);
        assert_eq!(sp.covered_area(), 70 * 70);
        assert!(sp.matrix.iter().zip(0..).any(|(&v, _)| v > 0.5));
        let p = Point::new(1250, 1250);
        assert!(via.contains_point(p));
    }

    #[test]
    fn far_geometry_adds_scanlines_but_no_occupancy() {
        // The far via lies 1 µm above the window, but its x edges fall inside
        // the window's x range, so they split the window into three columns.
        let window = Rect::new(0, 0, 500, 500);
        let far = Rect::new(100, 1500, 170, 1570);
        let sp = SquishPattern::encode(window, &[far.to_polygon()], &[], &[], &[]);
        assert_eq!(sp.delta_x, vec![100, 70, 330]);
        assert_eq!(sp.delta_y, vec![500]);
        assert_eq!(sp.covered_area(), 0);
        // The same holds for rects, empty ones included.
        let sliver = Rect::new(250, -900, 250, -800);
        let sp = SquishPattern::encode(window, &[], &[far, sliver], &[], &[]);
        assert_eq!(sp.delta_x, vec![100, 70, 80, 250]);
        assert_eq!(sp.covered_area(), 0);
    }

    #[test]
    fn zero_width_window_has_no_columns() {
        let via = Rect::new(215, 215, 285, 285).to_polygon();
        let sp = SquishPattern::encode(Rect::new(250, 0, 250, 500), &[via], &[], &[], &[]);
        assert_eq!((sp.cols, sp.rows), (0, 3));
        assert!(sp.matrix.is_empty());
        // No occupancy and no x-spacing; the rows keep their spacing.
        let t = AdaptiveSquishTensor::from_pattern(&sp, 4);
        assert!(t.data[..2 * 16].iter().all(|&v| v == 0.0));
        assert_eq!(t.get(2, 1, 0), 70.0 / 500.0);
    }
}
