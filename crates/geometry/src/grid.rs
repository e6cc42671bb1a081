//! Rasterisation of rectilinear geometry onto a pixel grid.
//!
//! The lithography simulator consumes masks as pixel grids. [`Raster`] covers
//! a rectangular region at a configurable pixel pitch and supports scanline
//! filling of rectilinear polygons and rectangles.

use crate::point::{Coord, Point};
use crate::polygon::Polygon;
use crate::rect::Rect;

/// A dense 2-D grid of `f64` samples covering a layout region.
///
/// Pixel `(ix, iy)` covers the square
/// `[origin.x + ix·p, origin.x + (ix+1)·p) × [origin.y + iy·p, …)` where `p`
/// is the pixel size in nm. Data is stored row-major with `iy` as the slow
/// axis.
#[derive(Debug, Clone, PartialEq)]
pub struct Raster {
    origin: Point,
    pixel_size: Coord,
    width: usize,
    height: usize,
    data: Vec<f64>,
}

impl Raster {
    /// Creates a zero-filled raster covering `region` at `pixel_size` nm per
    /// pixel. The region is expanded (never truncated) to a whole number of
    /// pixels.
    ///
    /// # Panics
    ///
    /// Panics if `pixel_size <= 0` or the region is empty.
    pub fn new(region: Rect, pixel_size: Coord) -> Self {
        assert!(pixel_size > 0, "pixel size must be positive");
        assert!(!region.is_empty(), "cannot rasterise an empty region");
        let width = ((region.width() + pixel_size - 1) / pixel_size) as usize;
        let height = ((region.height() + pixel_size - 1) / pixel_size) as usize;
        Self {
            origin: region.lower_left(),
            pixel_size,
            width,
            height,
            data: vec![0.0; width * height],
        }
    }

    /// Creates a raster with explicit dimensions (used by the litho kernels
    /// for intermediate images).
    pub fn with_dimensions(origin: Point, pixel_size: Coord, width: usize, height: usize) -> Self {
        assert!(pixel_size > 0, "pixel size must be positive");
        Self {
            origin,
            pixel_size,
            width,
            height,
            data: vec![0.0; width * height],
        }
    }

    /// Re-targets this raster at `region` (expanded to whole pixels, exactly
    /// like [`Self::new`]) and zero-fills it, reusing the existing sample
    /// allocation when its capacity suffices — the in-place counterpart of
    /// [`Self::new`] for callers that recycle raster buffers.
    ///
    /// # Panics
    ///
    /// Panics if `pixel_size <= 0` or the region is empty.
    pub fn reshape(&mut self, region: Rect, pixel_size: Coord) {
        self.reshape_scratch(region, pixel_size);
        self.data.fill(0.0);
    }

    /// Like [`Self::reshape`], but leaves the sample values **unspecified**
    /// (stale data from the previous use may remain): pooled scratch rasters
    /// whose consumers overwrite every sample before reading use this to
    /// skip the zero-fill.
    ///
    /// # Panics
    ///
    /// Panics if `pixel_size <= 0` or the region is empty.
    pub fn reshape_scratch(&mut self, region: Rect, pixel_size: Coord) {
        assert!(pixel_size > 0, "pixel size must be positive");
        assert!(!region.is_empty(), "cannot rasterise an empty region");
        let width = ((region.width() + pixel_size - 1) / pixel_size) as usize;
        let height = ((region.height() + pixel_size - 1) / pixel_size) as usize;
        self.reshape_scratch_with_dimensions(region.lower_left(), pixel_size, width, height);
    }

    /// Like [`Self::reshape_scratch`], but with explicitly provided grid
    /// dimensions (sample values stay unspecified).
    ///
    /// # Panics
    ///
    /// Panics if `pixel_size <= 0`.
    pub fn reshape_scratch_with_dimensions(
        &mut self,
        origin: Point,
        pixel_size: Coord,
        width: usize,
        height: usize,
    ) {
        assert!(pixel_size > 0, "pixel size must be positive");
        self.origin = origin;
        self.pixel_size = pixel_size;
        self.width = width;
        self.height = height;
        let cells = width * height;
        if self.data.len() < cells {
            self.data.resize(cells, 0.0);
        } else {
            self.data.truncate(cells);
        }
    }

    /// Grid width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Grid height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Pixel pitch in nm.
    pub fn pixel_size(&self) -> Coord {
        self.pixel_size
    }

    /// Lower-left corner of the covered region.
    pub fn origin(&self) -> Point {
        self.origin
    }

    /// The covered region in nm.
    pub fn region(&self) -> Rect {
        Rect::new(
            self.origin.x,
            self.origin.y,
            self.origin.x + self.width as Coord * self.pixel_size,
            self.origin.y + self.height as Coord * self.pixel_size,
        )
    }

    /// Raw sample slice (row-major, `iy` slow).
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw sample slice.
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Heap memory retained by this raster, in bytes (capacity, not length —
    /// a reshaped raster keeps its largest-ever allocation, which is what
    /// pooled-buffer footprint accounting has to measure).
    pub fn heap_bytes(&self) -> usize {
        self.data.capacity() * std::mem::size_of::<f64>()
    }

    /// Sample at pixel `(ix, iy)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn get(&self, ix: usize, iy: usize) -> f64 {
        assert!(
            ix < self.width && iy < self.height,
            "pixel index out of range"
        );
        self.data[iy * self.width + ix]
    }

    /// Sets the sample at pixel `(ix, iy)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn set(&mut self, ix: usize, iy: usize, value: f64) {
        assert!(
            ix < self.width && iy < self.height,
            "pixel index out of range"
        );
        self.data[iy * self.width + ix] = value;
    }

    /// Centre of pixel `(ix, iy)` in nm (rounded to the nm grid).
    pub fn pixel_center(&self, ix: usize, iy: usize) -> Point {
        Point::new(
            self.origin.x + ix as Coord * self.pixel_size + self.pixel_size / 2,
            self.origin.y + iy as Coord * self.pixel_size + self.pixel_size / 2,
        )
    }

    /// Pixel indices containing point `p`, or `None` when outside the grid.
    pub fn pixel_at(&self, p: Point) -> Option<(usize, usize)> {
        if p.x < self.origin.x || p.y < self.origin.y {
            return None;
        }
        let ix = ((p.x - self.origin.x) / self.pixel_size) as usize;
        let iy = ((p.y - self.origin.y) / self.pixel_size) as usize;
        if ix < self.width && iy < self.height {
            Some((ix, iy))
        } else {
            None
        }
    }

    /// Value at the pixel containing `p`, or 0.0 outside the grid.
    pub fn sample(&self, p: Point) -> f64 {
        match self.pixel_at(p) {
            Some((ix, iy)) => self.get(ix, iy),
            None => 0.0,
        }
    }

    /// Bilinearly interpolated value at an arbitrary (sub-pixel) location
    /// given in nm. Outside the grid the nearest edge value is used.
    ///
    /// The pixel index and interpolation fraction are derived through an
    /// exact integer/fraction decomposition, so the result is invariant
    /// under translating the raster origin by whole pixels (two rasters
    /// whose grids coincide sample bit-identically at the same absolute
    /// location). Layout tiling relies on this for stitched EPE to match
    /// whole-layout evaluation bit for bit.
    pub fn sample_bilinear(&self, x: f64, y: f64) -> f64 {
        if self.width == 0 || self.height == 0 {
            return 0.0;
        }
        let (ix0, ix1, tx) = bilinear_axis(x - self.origin.x as f64, self.pixel_size, self.width);
        let (iy0, iy1, ty) = bilinear_axis(y - self.origin.y as f64, self.pixel_size, self.height);
        let v00 = self.get(ix0, iy0);
        let v10 = self.get(ix1, iy0);
        let v01 = self.get(ix0, iy1);
        let v11 = self.get(ix1, iy1);
        v00 * (1.0 - tx) * (1.0 - ty)
            + v10 * tx * (1.0 - ty)
            + v01 * (1.0 - tx) * ty
            + v11 * tx * ty
    }

    /// Adds `value` to every pixel whose centre lies inside `rect`.
    pub fn fill_rect(&mut self, rect: Rect, value: f64) {
        let half = self.pixel_size / 2;
        let ix0 = (((rect.x0 - self.origin.x - half).max(0)) / self.pixel_size) as usize;
        let iy0 = (((rect.y0 - self.origin.y - half).max(0)) / self.pixel_size) as usize;
        for iy in iy0..self.height {
            let cy = self.origin.y + iy as Coord * self.pixel_size + half;
            if cy >= rect.y1 {
                break;
            }
            if cy < rect.y0 {
                continue;
            }
            for ix in ix0..self.width {
                let cx = self.origin.x + ix as Coord * self.pixel_size + half;
                if cx >= rect.x1 {
                    break;
                }
                if cx < rect.x0 {
                    continue;
                }
                self.data[iy * self.width + ix] += value;
            }
        }
    }

    /// Adds `value` to every pixel whose centre lies inside the rectilinear
    /// polygon (even-odd scanline fill).
    pub fn fill_polygon(&mut self, polygon: &Polygon, value: f64) {
        let bbox = polygon.bounding_box();
        let half = self.pixel_size / 2;
        // Collect vertical edges once.
        let vertical: Vec<(Coord, Coord, Coord)> = polygon
            .edges()
            .filter(|(a, b)| a.x == b.x)
            .map(|(a, b)| (a.x, a.y.min(b.y), a.y.max(b.y)))
            .collect();
        for iy in 0..self.height {
            let cy = self.origin.y + iy as Coord * self.pixel_size + half;
            if cy < bbox.y0 || cy >= bbox.y1 {
                continue;
            }
            // X positions where the scanline crosses a vertical edge. Using
            // the half-open convention [ylo, yhi) avoids double counting at
            // shared vertices.
            let mut crossings: Vec<Coord> = vertical
                .iter()
                .filter(|&&(_, ylo, yhi)| cy >= ylo && cy < yhi)
                .map(|&(x, _, _)| x)
                .collect();
            crossings.sort_unstable();
            for pair in crossings.chunks_exact(2) {
                let (x_in, x_out) = (pair[0], pair[1]);
                for ix in 0..self.width {
                    let cx = self.origin.x + ix as Coord * self.pixel_size + half;
                    if cx < x_in {
                        continue;
                    }
                    if cx >= x_out {
                        break;
                    }
                    self.data[iy * self.width + ix] += value;
                }
            }
        }
    }

    /// Box-downsamples this raster by an integer `factor`: each output pixel
    /// is the mean of the corresponding `factor × factor` block (missing
    /// samples at the upper edges are treated as 0). The output pixel size is
    /// `factor` times larger.
    ///
    /// Downsampling a 1 nm rasterisation to the simulation pixel size yields
    /// an anti-aliased (area-coverage) mask image, so sub-pixel segment moves
    /// change the image smoothly instead of snapping to the pixel grid.
    ///
    /// # Panics
    ///
    /// Panics if `factor == 0`.
    pub fn downsampled(&self, factor: usize) -> Raster {
        assert!(factor > 0, "downsample factor must be positive");
        if factor == 1 {
            return self.clone();
        }
        let out_w = self.width.div_ceil(factor);
        let out_h = self.height.div_ceil(factor);
        let mut out =
            Raster::with_dimensions(self.origin, self.pixel_size * factor as Coord, out_w, out_h);
        let norm = 1.0 / (factor * factor) as f64;
        let out_data = out.data_mut();
        for oy in 0..out_h {
            for ox in 0..out_w {
                let mut acc = 0.0;
                for sy in 0..factor {
                    let iy = oy * factor + sy;
                    if iy >= self.height {
                        continue;
                    }
                    for sx in 0..factor {
                        let ix = ox * factor + sx;
                        if ix >= self.width {
                            continue;
                        }
                        acc += self.data[iy * self.width + ix];
                    }
                }
                out_data[oy * out_w + ox] = acc * norm;
            }
        }
        out
    }

    /// Clamps every sample to `[lo, hi]`.
    pub fn clamp_values(&mut self, lo: f64, hi: f64) {
        for v in &mut self.data {
            *v = v.clamp(lo, hi);
        }
    }

    /// The window spanning the whole grid.
    pub fn full_window(&self) -> PixelWindow {
        PixelWindow {
            x0: 0,
            y0: 0,
            x1: self.width,
            y1: self.height,
        }
    }

    /// Pixel window covering `region` (in nm), snapped outward to pixel
    /// boundaries and clamped to the grid. `None` when the region misses the
    /// grid entirely.
    pub fn pixel_window(&self, region: Rect) -> Option<PixelWindow> {
        let p = self.pixel_size;
        let rel_x0 = region.x0 - self.origin.x;
        let rel_y0 = region.y0 - self.origin.y;
        let rel_x1 = region.x1 - self.origin.x;
        let rel_y1 = region.y1 - self.origin.y;
        if rel_x1 <= 0 || rel_y1 <= 0 {
            return None;
        }
        let x0 = (rel_x0.max(0) / p) as usize;
        let y0 = (rel_y0.max(0) / p) as usize;
        let x1 = (((rel_x1 + p - 1) / p) as usize).min(self.width);
        let y1 = (((rel_y1 + p - 1) / p) as usize).min(self.height);
        if x0 < x1 && y0 < y1 {
            Some(PixelWindow { x0, y0, x1, y1 })
        } else {
            None
        }
    }

    /// The region in nm covered by a pixel window.
    pub fn window_region(&self, win: PixelWindow) -> Rect {
        let p = self.pixel_size;
        Rect::new(
            self.origin.x + win.x0 as Coord * p,
            self.origin.y + win.y0 as Coord * p,
            self.origin.x + win.x1 as Coord * p,
            self.origin.y + win.y1 as Coord * p,
        )
    }

    /// Zeroes every sample inside `win`.
    pub fn zero_window(&mut self, win: PixelWindow) {
        for iy in win.y0..win.y1 {
            self.data[iy * self.width + win.x0..iy * self.width + win.x1].fill(0.0);
        }
    }

    /// Clamps every sample inside `win` to `[lo, hi]`.
    pub fn clamp_window(&mut self, win: PixelWindow, lo: f64, hi: f64) {
        for iy in win.y0..win.y1 {
            for v in &mut self.data[iy * self.width + win.x0..iy * self.width + win.x1] {
                *v = v.clamp(lo, hi);
            }
        }
    }

    /// Adds `value · coverage` to every pixel of `win` overlapped by `rect`,
    /// where coverage is the *exact* fraction of the pixel square covered by
    /// the rectangle. This is the analytic equivalent of filling a 1 nm grid
    /// and box-downsampling, without the intermediate grid.
    ///
    /// Each row splits into at most two partially-covered border pixels and
    /// a fully-covered interior span; interior pixels all gain the same
    /// contribution (`hx == pixel_size` exactly, in integer nm), added as a
    /// constant. Border pixels use the per-pixel formula, so the result is
    /// bit-identical to the dense per-pixel loop.
    pub fn fill_rect_coverage_in(&mut self, rect: Rect, value: f64, win: PixelWindow) {
        let p = self.pixel_size;
        let inv_area = 1.0 / (p * p) as f64;
        // Clip the rectangle to the window's nm extent.
        let wr = self.window_region(win);
        let x0 = rect.x0.max(wr.x0);
        let y0 = rect.y0.max(wr.y0);
        let x1 = rect.x1.min(wr.x1);
        let y1 = rect.y1.min(wr.y1);
        if x0 >= x1 || y0 >= y1 {
            return;
        }
        let ix0 = ((x0 - self.origin.x) / p) as usize;
        let iy0 = ((y0 - self.origin.y) / p) as usize;
        // Touched columns are [ix0, ix_end); columns whose pixel square is
        // fully covered in x (`hx == p`) are [ifull_lo, ifull_hi). All
        // quotients are of non-negative integers (x1 > x0 ≥ wr.x0 ≥
        // origin.x), so ceil is the usual `(n + p - 1) / p`.
        let ix_end = (((x1 - self.origin.x + p - 1) / p) as usize).min(win.x1);
        let ifull_lo = (((x0 - self.origin.x + p - 1) / p) as usize).clamp(ix0, ix_end);
        let ifull_hi = (((x1 - self.origin.x) / p) as usize).clamp(ifull_lo, ix_end);
        let border = |data: &mut [f64], row: usize, ix: usize, hy: Coord, origin_x: Coord| {
            let px0 = origin_x + ix as Coord * p;
            let hx = x1.min(px0 + p) - x0.max(px0);
            data[row + ix] += value * (hx * hy) as f64 * inv_area;
        };
        for iy in iy0..win.y1 {
            let py0 = self.origin.y + iy as Coord * p;
            if py0 >= y1 {
                break;
            }
            let hy = y1.min(py0 + p) - y0.max(py0);
            let row = iy * self.width;
            for ix in ix0..ifull_lo {
                border(&mut self.data, row, ix, hy, self.origin.x);
            }
            // `(p * hy) as f64` is bit-equal to the per-pixel `(hx * hy)`
            // for interior columns: the i64 product is the same number.
            let c = value * (p * hy) as f64 * inv_area;
            for v in &mut self.data[row + ifull_lo..row + ifull_hi] {
                *v += c;
            }
            for ix in ifull_hi..ix_end {
                border(&mut self.data, row, ix, hy, self.origin.x);
            }
        }
    }

    /// Adds exact area coverage of a rectilinear polygon (even-odd rule) to
    /// the pixels of `win`, reusing `scratch` so the steady-state OPC loop
    /// performs no heap allocation.
    ///
    /// The polygon is decomposed into horizontal bands between consecutive
    /// distinct vertex `y` coordinates; within a band the covered `x`
    /// intervals are constant, so each (band × interval) cell is an exact
    /// rectangle handed to [`Self::fill_rect_coverage_in`].
    pub fn fill_polygon_coverage_in(
        &mut self,
        vertices: &[Point],
        value: f64,
        win: PixelWindow,
        scratch: &mut CoverageScratch,
    ) {
        let n = vertices.len();
        if n < 4 {
            return;
        }
        let wr = self.window_region(win);
        scratch.vertical_edges.clear();
        scratch.band_ys.clear();
        for i in 0..n {
            let a = vertices[i];
            let b = vertices[(i + 1) % n];
            if a.x == b.x {
                scratch
                    .vertical_edges
                    .push((a.x, a.y.min(b.y), a.y.max(b.y)));
            }
            scratch.band_ys.push(a.y);
        }
        scratch.band_ys.sort_unstable();
        scratch.band_ys.dedup();
        for bi in 0..scratch.band_ys.len().saturating_sub(1) {
            let ya = scratch.band_ys[bi];
            let yb = scratch.band_ys[bi + 1];
            if yb <= wr.y0 || ya >= wr.y1 {
                continue;
            }
            // Crossing x positions: vertical edges spanning the whole band
            // (bands are minimal intervals between vertex ys, so an edge
            // either spans a band completely or misses it).
            scratch.crossings.clear();
            for &(x, ylo, yhi) in &scratch.vertical_edges {
                if ylo <= ya && yhi >= yb {
                    scratch.crossings.push(x);
                }
            }
            scratch.crossings.sort_unstable();
            for pair in scratch.crossings.chunks_exact(2) {
                self.fill_rect_coverage_in(Rect::new(pair[0], ya, pair[1], yb), value, win);
            }
        }
    }

    /// Smallest pixel window containing every non-zero sample, or `None`
    /// when the raster is all zero.
    pub fn nonzero_window(&self) -> Option<PixelWindow> {
        let mut win: Option<PixelWindow> = None;
        for iy in 0..self.height {
            let row = &self.data[iy * self.width..(iy + 1) * self.width];
            let first = match row.iter().position(|&v| v != 0.0) {
                Some(i) => i,
                None => continue,
            };
            let last = row
                .iter()
                .rposition(|&v| v != 0.0)
                .expect("row has a non-zero");
            win = Some(match win {
                Some(w) => PixelWindow {
                    x0: w.x0.min(first),
                    y0: w.y0,
                    x1: w.x1.max(last + 1),
                    y1: iy + 1,
                },
                None => PixelWindow {
                    x0: first,
                    y0: iy,
                    x1: last + 1,
                    y1: iy + 1,
                },
            });
        }
        win
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Maximum sample (0.0 for an empty raster).
    pub fn max(&self) -> f64 {
        self.data.iter().cloned().fold(f64::MIN, f64::max).max(0.0)
    }

    /// Number of samples strictly above `threshold`.
    pub fn count_above(&self, threshold: f64) -> usize {
        self.data.iter().filter(|&&v| v > threshold).count()
    }
}

/// One axis of the bilinear lookup: pixel-centre coordinates place sample
/// `i` at `origin + i·p + p/2`, so the interpolation cell for a point at
/// distance `d` from the origin starts at `floor(d/p - 1/2)`.
///
/// The index/fraction split is computed as an exact decomposition
/// `d - p/2 = i·p + frac`, `frac ∈ [0, p)`: all intermediate values stay on
/// a dyadic grid for layout-scale magnitudes, so the fraction (and therefore
/// the interpolated value) does not depend on where the raster origin sits —
/// only on the sample's position relative to the pixel grid. The naive
/// `(d/p - 0.5).floor()` formulation loses that invariance to division
/// rounding.
fn bilinear_axis(d: f64, pixel_size: Coord, n: usize) -> (usize, usize, f64) {
    let p = pixel_size as f64;
    let u = d - 0.5 * p;
    let mut i = (u / p).floor();
    let mut frac = u - i * p;
    // The floored quotient can be off by one ulp around integer boundaries;
    // renormalise so that `frac` is canonical in `[0, p)`.
    if frac < 0.0 {
        i -= 1.0;
        frac += p;
    } else if frac >= p {
        i += 1.0;
        frac -= p;
    }
    let last = n - 1;
    if i < 0.0 {
        // Clamp to the first pixel centre (nearest-edge extension).
        return (0, 1.min(last), 0.0);
    }
    if i >= last as f64 {
        return (last, last, 0.0);
    }
    let ix0 = i as usize;
    (ix0, (ix0 + 1).min(last), frac / p)
}

/// A half-open rectangle of pixel indices `[x0, x1) × [y0, y1)` on a
/// [`Raster`], used to restrict fills and convolutions to the region that
/// actually changed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PixelWindow {
    /// First column.
    pub x0: usize,
    /// First row.
    pub y0: usize,
    /// One past the last column.
    pub x1: usize,
    /// One past the last row.
    pub y1: usize,
}

impl PixelWindow {
    /// Window width in pixels.
    pub fn width(&self) -> usize {
        self.x1 - self.x0
    }

    /// Window height in pixels.
    pub fn height(&self) -> usize {
        self.y1 - self.y0
    }

    /// Number of pixels covered.
    pub fn area(&self) -> usize {
        self.width() * self.height()
    }

    /// Window grown by `margin` pixels on every side, clamped to a
    /// `bounds_w × bounds_h` grid.
    pub fn expanded(&self, margin: usize, bounds_w: usize, bounds_h: usize) -> PixelWindow {
        PixelWindow {
            x0: self.x0.saturating_sub(margin),
            y0: self.y0.saturating_sub(margin),
            x1: (self.x1 + margin).min(bounds_w),
            y1: (self.y1 + margin).min(bounds_h),
        }
    }

    /// Smallest window containing both inputs.
    pub fn union(&self, other: &PixelWindow) -> PixelWindow {
        PixelWindow {
            x0: self.x0.min(other.x0),
            y0: self.y0.min(other.y0),
            x1: self.x1.max(other.x1),
            y1: self.y1.max(other.y1),
        }
    }
}

/// Reusable scratch buffers for [`Raster::fill_polygon_coverage_in`]. Keeping
/// them outside the raster lets one scratch serve many fills without heap
/// allocation in the steady state.
#[derive(Debug, Clone, Default)]
pub struct CoverageScratch {
    vertical_edges: Vec<(Coord, Coord, Coord)>,
    band_ys: Vec<Coord>,
    crossings: Vec<Coord>,
}

impl CoverageScratch {
    /// Pre-allocates capacity for polygons with up to `max_vertices`
    /// vertices, so later fills never allocate.
    pub fn with_capacity(max_vertices: usize) -> Self {
        Self {
            vertical_edges: Vec::with_capacity(max_vertices),
            band_ys: Vec::with_capacity(max_vertices),
            crossings: Vec::with_capacity(max_vertices),
        }
    }

    /// Heap memory retained by the scratch buffers, in bytes (capacities).
    pub fn heap_bytes(&self) -> usize {
        self.vertical_edges.capacity() * std::mem::size_of::<(Coord, Coord, Coord)>()
            + (self.band_ys.capacity() + self.crossings.capacity()) * std::mem::size_of::<Coord>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raster_dimensions_round_up() {
        let r = Raster::new(Rect::new(0, 0, 205, 100), 10);
        assert_eq!(r.width(), 21);
        assert_eq!(r.height(), 10);
        assert_eq!(r.region().width(), 210);
    }

    #[test]
    fn fill_rect_covers_expected_pixels() {
        let mut r = Raster::new(Rect::new(0, 0, 100, 100), 10);
        r.fill_rect(Rect::new(20, 20, 50, 40), 1.0);
        // Pixels with centres at x in {25, 35, 45} and y in {25, 35}: 3x2.
        assert_eq!(r.count_above(0.5), 6);
        assert_eq!(r.sample(Point::new(26, 26)), 1.0);
        assert_eq!(r.sample(Point::new(55, 26)), 0.0);
    }

    #[test]
    fn fill_polygon_matches_fill_rect_for_rectangles() {
        let rect = Rect::new(10, 20, 80, 70);
        let mut a = Raster::new(Rect::new(0, 0, 100, 100), 5);
        let mut b = a.clone();
        a.fill_rect(rect, 1.0);
        b.fill_polygon(&rect.to_polygon(), 1.0);
        assert_eq!(a.data(), b.data());
    }

    #[test]
    fn fill_polygon_handles_l_shape() {
        let l = Polygon::l_shape(Rect::new(0, 0, 100, 100), 50, 50);
        let mut r = Raster::new(Rect::new(0, 0, 100, 100), 1);
        r.fill_polygon(&l, 1.0);
        let filled = r.count_above(0.5) as i64;
        assert_eq!(filled, l.area());
    }

    #[test]
    fn bilinear_sampling_interpolates() {
        let mut r = Raster::new(Rect::new(0, 0, 20, 20), 10);
        r.set(0, 0, 0.0);
        r.set(1, 0, 1.0);
        r.set(0, 1, 0.0);
        r.set(1, 1, 1.0);
        let mid = r.sample_bilinear(10.0, 10.0);
        assert!((mid - 0.5).abs() < 1e-9, "expected 0.5, got {mid}");
    }

    #[test]
    fn pixel_lookup_roundtrip() {
        let r = Raster::new(Rect::new(100, 200, 300, 400), 4);
        let c = r.pixel_center(3, 5);
        assert_eq!(r.pixel_at(c), Some((3, 5)));
        assert_eq!(r.pixel_at(Point::new(0, 0)), None);
    }

    #[test]
    fn downsampling_preserves_mean_coverage() {
        let mut fine = Raster::new(Rect::new(0, 0, 100, 100), 1);
        fine.fill_rect(Rect::new(0, 0, 37, 100), 1.0);
        let coarse = fine.downsampled(10);
        assert_eq!(coarse.width(), 10);
        assert_eq!(coarse.pixel_size(), 10);
        // Total coverage is preserved up to the constant factor.
        assert!((coarse.sum() * 100.0 - fine.sum()).abs() < 1e-9);
        // The partially covered column has fractional coverage.
        let partial = coarse.get(3, 5);
        assert!(
            partial > 0.0 && partial < 1.0,
            "expected fractional coverage, got {partial}"
        );
    }

    #[test]
    fn downsample_factor_one_is_identity() {
        let mut r = Raster::new(Rect::new(0, 0, 20, 20), 2);
        r.fill_rect(Rect::new(0, 0, 10, 10), 1.0);
        assert_eq!(r.downsampled(1), r);
    }

    #[test]
    fn rect_coverage_matches_fine_grid_downsample() {
        // The analytic path must reproduce the 1 nm fill + box downsample
        // exactly (both compute the covered area of each pixel square).
        let rect = Rect::new(13, 27, 88, 61);
        let mut fine = Raster::new(Rect::new(0, 0, 100, 100), 1);
        fine.fill_rect(rect, 1.0);
        let reference = fine.downsampled(5);
        let mut analytic = Raster::new(Rect::new(0, 0, 100, 100), 5);
        let win = analytic.full_window();
        analytic.fill_rect_coverage_in(rect, 1.0, win);
        for (a, b) in analytic.data().iter().zip(reference.data()) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }

    #[test]
    fn polygon_coverage_matches_fine_grid_downsample() {
        let l = Polygon::l_shape(Rect::new(7, 3, 93, 77), 31, 24);
        let mut fine = Raster::new(Rect::new(0, 0, 100, 100), 1);
        fine.fill_polygon(&l, 1.0);
        let reference = fine.downsampled(5);
        let mut analytic = Raster::new(Rect::new(0, 0, 100, 100), 5);
        let win = analytic.full_window();
        let mut scratch = CoverageScratch::default();
        analytic.fill_polygon_coverage_in(l.vertices(), 1.0, win, &mut scratch);
        for (a, b) in analytic.data().iter().zip(reference.data()) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
        // Total coverage equals the exact polygon area.
        assert!((analytic.sum() * 25.0 - l.area() as f64).abs() < 1e-9);
    }

    #[test]
    fn windowed_fill_only_touches_the_window() {
        let rect = Rect::new(0, 0, 100, 100);
        let mut r = Raster::new(rect, 10);
        let win = PixelWindow {
            x0: 2,
            y0: 3,
            x1: 5,
            y1: 6,
        };
        r.fill_rect_coverage_in(rect, 1.0, win);
        for iy in 0..r.height() {
            for ix in 0..r.width() {
                let inside = (win.x0..win.x1).contains(&ix) && (win.y0..win.y1).contains(&iy);
                assert_eq!(r.get(ix, iy) != 0.0, inside, "pixel ({ix},{iy})");
            }
        }
        r.zero_window(win);
        assert_eq!(r.sum(), 0.0);
    }

    #[test]
    fn pixel_window_snaps_outward_and_clamps() {
        let r = Raster::new(Rect::new(0, 0, 100, 100), 10);
        let w = r.pixel_window(Rect::new(11, 19, 30, 41)).expect("window");
        assert_eq!(
            w,
            PixelWindow {
                x0: 1,
                y0: 1,
                x1: 3,
                y1: 5
            }
        );
        assert_eq!(r.window_region(w), Rect::new(10, 10, 30, 50));
        assert_eq!(r.pixel_window(Rect::new(-50, -50, -10, -10)), None);
        assert_eq!(r.pixel_window(Rect::new(200, 200, 300, 300)), None);
        let clamped = r.pixel_window(Rect::new(95, 95, 300, 300)).expect("window");
        assert_eq!(
            clamped,
            PixelWindow {
                x0: 9,
                y0: 9,
                x1: 10,
                y1: 10
            }
        );
    }

    #[test]
    fn nonzero_window_bounds_content() {
        let mut r = Raster::new(Rect::new(0, 0, 100, 100), 10);
        assert_eq!(r.nonzero_window(), None);
        r.set(3, 2, 0.5);
        r.set(7, 8, 0.1);
        assert_eq!(
            r.nonzero_window(),
            Some(PixelWindow {
                x0: 3,
                y0: 2,
                x1: 8,
                y1: 9
            })
        );
    }

    #[test]
    fn pixel_window_ops() {
        let a = PixelWindow {
            x0: 2,
            y0: 2,
            x1: 4,
            y1: 5,
        };
        assert_eq!(a.width(), 2);
        assert_eq!(a.height(), 3);
        assert_eq!(a.area(), 6);
        let b = PixelWindow {
            x0: 0,
            y0: 4,
            x1: 3,
            y1: 6,
        };
        assert_eq!(
            a.union(&b),
            PixelWindow {
                x0: 0,
                y0: 2,
                x1: 4,
                y1: 6
            }
        );
        assert_eq!(
            a.expanded(3, 6, 6),
            PixelWindow {
                x0: 0,
                y0: 0,
                x1: 6,
                y1: 6
            }
        );
    }

    #[test]
    fn bilinear_sampling_is_invariant_under_grid_aligned_origins() {
        // Two rasters whose pixel grids coincide must sample bit-identically
        // at the same absolute location — the contract layout tiling builds
        // its bit-exact stitching on.
        let mut wide = Raster::new(Rect::new(-190, -190, 3195, 3195), 5);
        for iy in 0..wide.height() {
            for ix in 0..wide.width() {
                let v = ((ix * 31 + iy * 17) % 97) as f64 / 97.0;
                wide.set(ix, iy, v);
            }
        }
        let mut narrow = Raster::new(Rect::new(810, 1005, 2310, 2505), 5);
        for iy in 0..narrow.height() {
            for ix in 0..narrow.width() {
                let c = narrow.pixel_center(ix, iy);
                narrow.set(ix, iy, wide.sample(c));
            }
        }
        // Positions on the 0.5 nm lattice EPE measurement walks, well inside
        // the narrow raster so no edge clamping triggers.
        for k in 0..200 {
            let x = 1200.0 + k as f64 * 3.5;
            let y = 1300.0 + (k % 37) as f64 * 10.5;
            let a = wide.sample_bilinear(x, y);
            let b = narrow.sample_bilinear(x, y);
            assert!(
                a.to_bits() == b.to_bits(),
                "sample at ({x}, {y}) depends on the origin: {a} vs {b}"
            );
        }
    }

    #[test]
    fn bilinear_sampling_clamps_to_edges() {
        let mut r = Raster::new(Rect::new(0, 0, 30, 30), 10);
        for iy in 0..3 {
            for ix in 0..3 {
                r.set(ix, iy, (iy * 3 + ix) as f64);
            }
        }
        // Far outside: nearest corner values.
        assert_eq!(r.sample_bilinear(-100.0, -100.0), 0.0);
        assert_eq!(r.sample_bilinear(100.0, 100.0), 8.0);
        // Interior midpoint interpolates all four neighbours.
        let mid = r.sample_bilinear(10.0, 10.0);
        assert!((mid - 2.0).abs() < 1e-12, "expected 2.0, got {mid}");
    }

    #[test]
    fn reshape_reuses_allocation_and_zero_fills() {
        let mut r = Raster::new(Rect::new(0, 0, 100, 100), 10);
        r.fill_rect(Rect::new(0, 0, 100, 100), 1.0);
        let ptr = r.data().as_ptr();
        r.reshape(Rect::new(200, 300, 245, 335), 5);
        assert_eq!(r.origin(), Point::new(200, 300));
        assert_eq!(r.pixel_size(), 5);
        assert_eq!(r.width(), 9);
        assert_eq!(r.height(), 7);
        assert!(r.data().iter().all(|&v| v == 0.0), "reshape must zero-fill");
        assert_eq!(ptr, r.data().as_ptr(), "smaller reshape must not realloc");
        assert_eq!(r, Raster::new(Rect::new(200, 300, 245, 335), 5));
    }

    #[test]
    fn reshape_scratch_keeps_geometry_but_not_values() {
        let mut r = Raster::new(Rect::new(0, 0, 100, 100), 10);
        r.fill_rect(Rect::new(0, 0, 100, 100), 1.0);
        r.reshape_scratch(Rect::new(50, 50, 90, 90), 10);
        // Geometry matches a fresh raster; values are unspecified (here the
        // stale 1.0s survive, which is the point of the fast path).
        let fresh = Raster::new(Rect::new(50, 50, 90, 90), 10);
        assert_eq!(r.origin(), fresh.origin());
        assert_eq!((r.width(), r.height()), (fresh.width(), fresh.height()));
        assert_eq!(r.data().len(), fresh.data().len());
    }

    #[test]
    fn clamp_and_stats() {
        let mut r = Raster::new(Rect::new(0, 0, 10, 10), 1);
        r.fill_rect(Rect::new(0, 0, 10, 10), 2.0);
        assert!((r.max() - 2.0).abs() < 1e-12);
        r.clamp_values(0.0, 1.0);
        assert!((r.max() - 1.0).abs() < 1e-12);
        assert!((r.sum() - 100.0).abs() < 1e-9);
    }
}
