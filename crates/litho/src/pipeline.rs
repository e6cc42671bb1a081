//! The scratch-buffer simulation pipeline.
//!
//! Everything the inner OPC loop executes per step lives here: windowed
//! separable convolution with a branch-free interior, the planner that
//! picks which windows an edit re-convolves, per-`(σ, defocus)` tap
//! caching, and the [`SimWorkspace`] that owns every buffer so the
//! steady-state loop performs no heap allocation.
//!
//! Three properties are load-bearing:
//!
//! * **Window locality** — a Gaussian tap stack of radius `R` pixels maps a
//!   change inside raster window `W` to an amplitude change inside
//!   `W ± R` only, and the amplitude is *identically zero* beyond the mask
//!   content grown by `R` (convolving zeros yields exactly `0.0`). Both full
//!   and incremental evaluation therefore compute only a window and leave
//!   the rest of the buffer untouched/zero, with no approximation.
//! * **Order stability** — per output pixel, taps are accumulated in
//!   ascending index order in every code path (interior, border, full,
//!   windowed), so incremental re-evaluation reproduces full evaluation
//!   bit-for-bit and the fast path matches the seed's reference
//!   implementation to ~1 ulp.
//! * **Zero skipping** — mask layers are sparse, so most multiply-adds of
//!   a window would add exact zeros. The horizontal pass convolves a row
//!   only within `R` of its non-zero extent and writes `+0.0` over the rest
//!   of the span; the vertical pass accumulates only the rows the
//!   horizontal pass convolved. Neither changes a bit, for any finite
//!   input and positive taps: every accumulator starts at `+0.0`, a
//!   round-to-nearest sum is `−0.0` only when both addends are `−0.0`, so
//!   no accumulator ever holds `−0.0`, and adding a skipped `±0.0` product
//!   would leave it unchanged. A skipped pixel's result is `+0.0 / norm =
//!   +0.0`, what the dense sum would have stored.

use crate::kernel::{GaussianKernel, OpticalModel};
use crate::simd;
use camo_geometry::{Coord, CoverageScratch, PixelWindow, Point, Raster, Rect};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Count of kernel discretisations performed process-wide (each one is a
/// `GaussianKernel::taps` derivation plus a cache insert). The shared
/// [`crate::LithoContext`] pre-populates every corner's taps exactly once,
/// so batch runs over any number of clips must not move this counter — the
/// construction-count tests assert exactly that.
static TAP_DERIVATIONS: AtomicUsize = AtomicUsize::new(0);

/// Number of kernel-tap derivations performed so far by this process.
pub fn tap_derivation_count() -> usize {
    TAP_DERIVATIONS.load(Ordering::Relaxed) // relaxed-ok: stats counter; reads are reporting-only
}

/// One discretised kernel: taps plus derived constants reused every step.
#[derive(Debug, Clone)]
pub(crate) struct CachedTaps {
    sigma_bits: u64,
    blur_bits: u64,
    /// Normalised 1-D taps (ascending index order).
    pub values: Vec<f64>,
    /// Sum of `values` accumulated in ascending order — the interior
    /// normaliser, kept identical to the border math's full-support case.
    pub sum: f64,
}

impl CachedTaps {
    /// Tap radius in pixels (`len == 2 · radius + 1`).
    pub fn radius(&self) -> usize {
        self.values.len() / 2
    }
}

/// Cache of discretised taps keyed by `(σ, defocus)` at a fixed pixel size.
///
/// Population ([`Self::populate`]) and lookup ([`Self::lookup`]) are split:
/// the hot path only ever performs immutable lookups, so a fully populated
/// cache can be shared across threads behind [`crate::LithoContext`] without
/// interior mutability or locking. Entries are never evicted, so indices
/// stay stable.
#[derive(Debug, Clone)]
pub(crate) struct TapsCache {
    pixel_size: Coord,
    entries: Vec<CachedTaps>,
}

impl TapsCache {
    pub fn new(pixel_size: Coord) -> Self {
        Self {
            pixel_size,
            entries: Vec::new(),
        }
    }

    pub fn pixel_size(&self) -> Coord {
        self.pixel_size
    }

    /// Index of the cached taps for `kernel` at `blur`, or `None` when that
    /// pair was never populated. Immutable — safe on the shared hot path.
    pub fn lookup(&self, kernel: &GaussianKernel, blur_nm: f64) -> Option<usize> {
        let sigma_bits = kernel.sigma_nm.to_bits();
        let blur_bits = blur_nm.to_bits();
        self.entries
            .iter()
            .position(|e| e.sigma_bits == sigma_bits && e.blur_bits == blur_bits)
    }

    pub fn entry(&self, index: usize) -> &CachedTaps {
        &self.entries[index]
    }

    /// Discretises every kernel of `model` at `blur` that is not already
    /// cached. Construction/cold path only: context building calls this for
    /// each process corner, workspaces only for blurs outside the corner set.
    pub fn populate(&mut self, model: &OpticalModel, blur_nm: f64) {
        for kernel in model.kernels() {
            if self.lookup(kernel, blur_nm).is_some() {
                continue;
            }
            TAP_DERIVATIONS.fetch_add(1, Ordering::Relaxed); // relaxed-ok: stats counter; reads are reporting-only
            let values = kernel.taps(self.pixel_size, blur_nm);
            let mut sum = 0.0;
            for &t in &values {
                sum += t;
            }
            self.entries.push(CachedTaps {
                sigma_bits: kernel.sigma_nm.to_bits(),
                blur_bits: blur_nm.to_bits(),
                values,
                sum,
            });
        }
    }

    /// Largest tap radius over the model's kernels at `blur`, or `None` when
    /// any kernel is missing (the cache was not populated for this blur).
    pub fn max_radius(&self, model: &OpticalModel, blur_nm: f64) -> Option<usize> {
        let mut radius = 0;
        for kernel in model.kernels() {
            let idx = self.lookup(kernel, blur_nm)?;
            radius = radius.max(self.entries[idx].radius());
        }
        Some(radius)
    }
}

/// One row of the separable convolution, output restricted to `[x0, x1)`.
///
/// Interior pixels (full tap support) run branch-free
/// ([`simd::convolve_interior`]) and divide by the precomputed tap sum;
/// border pixels renormalise over the in-bounds taps exactly like the seed
/// implementation, so intensity does not artificially fall off at the
/// raster boundary. Both paths keep per-pixel tap order ascending.
pub(crate) fn convolve_row(
    row_in: &[f64],
    row_out: &mut [f64],
    taps: &[f64],
    taps_sum: f64,
    x0: usize,
    x1: usize,
) {
    let w = row_in.len();
    let len = taps.len();
    let radius = len / 2;
    let bordered = |x: usize, row_out: &mut [f64]| {
        let mut acc = 0.0;
        let mut norm = 0.0;
        for (k, &t) in taps.iter().enumerate() {
            let xi = x as isize + k as isize - radius as isize;
            if xi >= 0 && (xi as usize) < w {
                acc += t * row_in[xi as usize];
                norm += t;
            }
        }
        row_out[x] = if norm > 0.0 { acc / norm } else { 0.0 };
    };
    // Disjoint split: [x0, il) border, [il, ih) interior, [ih, x1) border.
    // Interior means full tap support: il ≥ radius and ih + radius ≤ w —
    // the bounds invariant `simd::convolve_interior` relies on.
    let il = radius.clamp(x0, x1);
    let ih = (w + radius + 1).saturating_sub(len).clamp(il, x1);
    for x in x0..il {
        bordered(x, row_out);
    }
    simd::convolve_interior(row_in, row_out, taps, taps_sum, il, ih);
    for x in ih..x1 {
        bordered(x, row_out);
    }
}

/// Separable 2-D convolution restricted to the output window `win`.
///
/// `input`, `tmp` and `out` are full `w × h` buffers; only `win` of `out`
/// is written (plus the rows of `tmp` the vertical pass needs). `live`
/// receives, in ascending order, the rows holding a non-zero pixel within
/// the window's tap reach, the only rows the vertical pass accumulates;
/// with capacity for `h` rows the call does not allocate. Exact zeros are
/// skipped in both passes without changing a bit of the result, for any
/// finite input and positive taps (see the module docs).
#[allow(clippy::too_many_arguments)]
pub(crate) fn convolve_window(
    input: &[f64],
    w: usize,
    h: usize,
    taps: &[f64],
    taps_sum: f64,
    win: PixelWindow,
    tmp: &mut [f64],
    out: &mut [f64],
    live: &mut Vec<usize>,
) {
    let len = taps.len();
    let radius = len / 2;

    // Horizontal pass over the rows the vertical pass will read. Only the
    // outputs within `radius` of a row's non-zero extent inside the tap
    // reach are convolved; the rest of the span is exactly +0.0.
    let ylo = win.y0.saturating_sub(radius);
    let yhi = (win.y1 + radius).min(h);
    let reach = win.x0.saturating_sub(radius)..(win.x1 + radius).min(w);
    live.clear();
    for y in ylo..yhi {
        let row_in = &input[y * w..(y + 1) * w];
        let row_out = &mut tmp[y * w..(y + 1) * w];
        let seen = &row_in[reach.clone()];
        let Some(a) = seen.iter().position(|&v| v != 0.0) else {
            row_out[win.x0..win.x1].fill(0.0);
            continue;
        };
        let b = seen.iter().rposition(|&v| v != 0.0).unwrap_or(a) + 1;
        let lo = (reach.start + a).saturating_sub(radius).max(win.x0);
        let hi = (reach.start + b + radius).min(win.x1);
        row_out[win.x0..lo].fill(0.0);
        convolve_row(row_in, row_out, taps, taps_sum, lo, hi);
        row_out[hi..win.x1].fill(0.0);
        live.push(y);
    }

    // Vertical pass: per output row, only the live rows inside the tap
    // reach contribute, in ascending row (and so tap) order, divided by
    // the sum of every in-bounds tap.
    for y in win.y0..win.y1 {
        let klo = radius.saturating_sub(y);
        let khi = len.min(h + radius - y);
        let norm = if klo == 0 && khi == len {
            taps_sum
        } else {
            let mut n = 0.0;
            for &t in &taps[klo..khi] {
                n += t;
            }
            n
        };
        let (first, end) = (y + klo - radius, y + khi - radius);
        let rows = &live[live.partition_point(|&r| r < first)..live.partition_point(|&r| r < end)];
        let out_row = &mut out[y * w + win.x0..y * w + win.x1];
        if norm > 0.0 && !rows.is_empty() {
            simd::vertical_row(
                out_row,
                &tmp[win.x0..],
                w,
                rows,
                &taps[klo..khi],
                first,
                norm,
            );
        } else {
            out_row.fill(0.0);
        }
    }
}

/// Recomputes the aerial intensity of `mask_data` inside `win`: zeroes the
/// window, then accumulates `weight · amplitude²` per kernel, exactly as the
/// full-frame computation would for those pixels.
///
/// `taps` must already hold every kernel of `model` at `blur_nm` (shared
/// contexts pre-populate all corners; exotic blurs fall back to a
/// workspace-local cache).
///
/// # Panics
///
/// Panics if `taps` is missing a kernel at `blur_nm`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn aerial_window(
    mask_data: &[f64],
    w: usize,
    h: usize,
    model: &OpticalModel,
    blur_nm: f64,
    taps: &TapsCache,
    win: PixelWindow,
    tmp: &mut [f64],
    amp: &mut [f64],
    live: &mut Vec<usize>,
    intensity: &mut [f64],
) {
    for y in win.y0..win.y1 {
        intensity[y * w + win.x0..y * w + win.x1].fill(0.0);
    }
    for kernel in model.kernels() {
        let idx = taps
            .lookup(kernel, blur_nm)
            .expect("taps cache populated for this blur");
        let entry = taps.entry(idx);
        convolve_window(
            mask_data,
            w,
            h,
            &entry.values,
            entry.sum,
            win,
            tmp,
            amp,
            live,
        );
        let weight = kernel.weight;
        for y in win.y0..win.y1 {
            let row = y * w;
            let out = &mut intensity[row + win.x0..row + win.x1];
            let a = &amp[row + win.x0..row + win.x1];
            simd::square_weighted_add(out, weight, a);
        }
    }
}

/// Multiply-adds of one kernel's separable convolution over output window
/// `win` at tap radius `radius`: the horizontal pass covers `2·radius`
/// extra rows, and both passes apply `2·radius + 1` taps per pixel. The
/// window planner compares windows by this figure.
pub(crate) fn convolve_cost(win: PixelWindow, radius: usize) -> usize {
    let (w, h) = (win.width(), win.height());
    ((h + 2 * radius) * w + h * w) * (2 * radius + 1)
}

/// Plans the convolution windows that bring a cached image up to date after
/// the raster changed inside the windows `dirty`.
///
/// Each dirty window grows by the tap `radius` (clamped to the `w × h`
/// raster) — by window locality, no pixel outside these windows can
/// change. Two planned windows merge into their bounding box while that
/// box costs no more than convolving the pair ([`convolve_cost`]), so the
/// overlapping halos of nearby edits are convolved once. A plan costing
/// more than one re-convolution of the whole `content` window (grown the
/// same way) is replaced by that window. Every grown dirty window ends up
/// inside one planned window, and every planned window inside the grown
/// content window when `dirty` lies inside `content`.
pub(crate) fn plan_windows(
    dirty: &[PixelWindow],
    content: PixelWindow,
    radius: usize,
    w: usize,
    h: usize,
    plan: &mut Vec<PixelWindow>,
) {
    let cost = |win: &PixelWindow| convolve_cost(*win, radius);
    plan.clear();
    plan.extend(dirty.iter().map(|d| d.expanded(radius, w, h)));
    let mut merged = true;
    while merged {
        merged = false;
        let mut i = 0;
        while i < plan.len() {
            let mut j = i + 1;
            while j < plan.len() {
                let bbox = plan[i].union(&plan[j]);
                if cost(&bbox) <= cost(&plan[i]) + cost(&plan[j]) {
                    plan[i] = bbox;
                    plan.swap_remove(j);
                    merged = true;
                } else {
                    j += 1;
                }
            }
            i += 1;
        }
    }
    let whole = content.expanded(radius, w, h);
    if plan.iter().map(cost).sum::<usize>() > cost(&whole) {
        plan.clear();
        plan.push(whole);
    }
}

/// The reusable scratch state of one evaluation session: the mask raster,
/// convolution buffers, polygon/coverage scratch and the derived intensity
/// images (one per defocus value in use).
///
/// Kernel taps live in the shared, immutable [`crate::LithoContext`]; the
/// workspace only keeps a small `extra_taps` cache for blurs outside the
/// configured corner set (a cold path). Workspaces are recycled through
/// [`crate::WorkspacePool`]: `reset` re-targets every buffer at a
/// new clip geometry while keeping the allocations.
#[derive(Debug, Clone)]
pub struct SimWorkspace {
    pub(crate) raster: Raster,
    pub(crate) tmp: Vec<f64>,
    pub(crate) amp: Vec<f64>,
    /// Rows the last horizontal pass convolved, i.e. found a non-zero mask
    /// pixel in reach (capacity: the raster height, so convolution never
    /// allocates).
    pub(crate) live_rows: Vec<usize>,
    /// Fallback taps for blurs the shared context was not built with.
    pub(crate) extra_taps: TapsCache,
    pub(crate) polys: Vec<Vec<Point>>,
    pub(crate) cov: CoverageScratch,
    /// Pixel window known to contain all non-zero mask coverage.
    pub(crate) content: Option<PixelWindow>,
    pub(crate) slots: Vec<DerivedImage>,
    /// Per-row dirty bitmask: `width.div_ceil(64)` words per row, bit `j`
    /// of word `i` covering pixel `64·i + j`. Only rows inside the current
    /// dirty window hold meaningful bits (they are re-zeroed per refresh).
    pub(crate) dirty_words: Vec<u64>,
    /// Per-moved-segment dirty rectangles from the last `apply_moves`
    /// (scratch for [`camo_geometry::MaskState::apply_moves_into`]).
    pub(crate) dirty_rects: Vec<Rect>,
    /// Disjoint sub-windows decomposed from the dirty bitmask (capacity
    /// fixed at [`MAX_SUB_WINDOWS`]; overflow falls back to the dense dirty
    /// window).
    pub(crate) sub_windows: Vec<PixelWindow>,
    /// Convolution windows [`plan_windows`] planned for one cached image
    /// (never more than the sub-windows it was planned from).
    pub(crate) plan: Vec<PixelWindow>,
}

/// Cap on the dirty-bitmask decomposition: more disjoint sub-windows than
/// this falls back to the dense dirty window (the sub-window and plan
/// vectors are preallocated to exactly this capacity, keeping the steady
/// state allocation-free).
pub(crate) const MAX_SUB_WINDOWS: usize = 64;

/// A cached aerial-intensity image at one defocus blur.
#[derive(Debug, Clone)]
pub(crate) struct DerivedImage {
    pub blur_bits: u64,
    pub img: Raster,
    /// Whether `img` matches the current raster. A rebuild clears it, and
    /// the image is recomputed on its next read.
    pub valid: bool,
}

impl SimWorkspace {
    /// Builds a workspace over `raster`'s geometry for a mask with
    /// `polygon_count` target polygons and `segment_count` segments; all
    /// buffers are sized so the steady-state loop never allocates.
    pub(crate) fn new(
        raster: Raster,
        pixel_size: Coord,
        polygon_count: usize,
        segment_count: usize,
    ) -> Self {
        let (width, height) = (raster.width(), raster.height());
        let cells = width * height;
        let words = height * width.div_ceil(64);
        // Upper bound on a moved polygon's vertex count: two vertices per
        // segment plus slack for the closing dedup.
        let vertex_bound = 2 * segment_count + 8;
        Self {
            raster,
            tmp: vec![0.0; cells],
            amp: vec![0.0; cells],
            live_rows: Vec::with_capacity(height),
            extra_taps: TapsCache::new(pixel_size),
            polys: (0..polygon_count)
                .map(|_| Vec::with_capacity(vertex_bound))
                .collect(),
            cov: CoverageScratch::with_capacity(vertex_bound),
            content: None,
            slots: Vec::new(),
            dirty_words: vec![0; words],
            dirty_rects: Vec::with_capacity(segment_count),
            sub_windows: Vec::with_capacity(MAX_SUB_WINDOWS),
            plan: Vec::with_capacity(MAX_SUB_WINDOWS),
        }
    }

    /// Builds a fresh workspace for the given session geometry (the pool's
    /// allocation fallback).
    pub(crate) fn for_geometry(
        region: Rect,
        pixel_size: Coord,
        polygon_count: usize,
        segment_count: usize,
    ) -> Self {
        Self::new(
            Raster::new(region, pixel_size),
            pixel_size,
            polygon_count,
            segment_count,
        )
    }

    /// Fully resets this workspace for a new session over `region`: the
    /// raster and cached images are re-targeted and invalidated, scratch
    /// buffers are resized, and the content window is cleared — while every
    /// allocation large enough is kept. After a reset the workspace behaves
    /// exactly like a freshly built one.
    ///
    /// No buffer is eagerly zeroed: the session's initial full
    /// rasterisation overwrites the mask raster, an invalidated image slot
    /// is zero-filled when its first read recomputes it (so a recycled
    /// workspace convolves only the images the new session reads), and
    /// `tmp`/`amp` are strictly overwrite-before-read within every
    /// convolution window. Skipping the memsets is what makes a pooled
    /// checkout cheaper than a fresh (lazily zeroed) allocation.
    pub(crate) fn reset(
        &mut self,
        region: Rect,
        pixel_size: Coord,
        polygon_count: usize,
        segment_count: usize,
    ) {
        self.raster.reshape_scratch(region, pixel_size);
        let cells = self.raster.width() * self.raster.height();
        resize_scratch(&mut self.tmp, cells);
        resize_scratch(&mut self.amp, cells);
        self.live_rows.clear();
        self.live_rows.reserve(self.raster.height());
        // Dirty-bitmask rows are re-zeroed per refresh, so like `tmp`/`amp`
        // the retained contents need no eager clearing.
        let words = self.raster.height() * self.raster.width().div_ceil(64);
        self.dirty_words.resize(words, 0);
        self.dirty_rects.clear();
        if self.dirty_rects.capacity() < segment_count {
            self.dirty_rects.reserve(segment_count);
        }
        self.sub_windows.clear();
        self.plan.clear();
        if self.extra_taps.pixel_size() != pixel_size {
            self.extra_taps = TapsCache::new(pixel_size);
        }
        let vertex_bound = 2 * segment_count + 8;
        for poly in &mut self.polys {
            poly.clear();
            if poly.capacity() < vertex_bound {
                poly.reserve(vertex_bound - poly.len());
            }
        }
        while self.polys.len() < polygon_count {
            self.polys.push(Vec::with_capacity(vertex_bound));
        }
        self.content = None;
        for slot in &mut self.slots {
            slot.img.reshape_scratch_with_dimensions(
                self.raster.origin(),
                pixel_size,
                self.raster.width(),
                self.raster.height(),
            );
            slot.valid = false;
        }
    }

    /// Heap memory retained by this workspace, in bytes: the mask raster,
    /// convolution scratch, cached intensity images and polygon/coverage
    /// buffers, all measured by **capacity**. Resets re-target but never
    /// shrink buffers, so this is the high-water footprint the workspace
    /// keeps alive while idle — the figure [`crate::WorkspacePool`]'s
    /// retention cap is enforced against.
    pub fn footprint_bytes(&self) -> usize {
        let f64s = self.tmp.capacity() + self.amp.capacity();
        let polys: usize = self.polys.iter().map(|p| p.capacity()).sum();
        let slots: usize = self.slots.iter().map(|s| s.img.heap_bytes()).sum();
        self.raster.heap_bytes()
            + f64s * std::mem::size_of::<f64>()
            + polys * std::mem::size_of::<Point>()
            + self.cov.heap_bytes()
            + slots
            + self.live_rows.capacity() * std::mem::size_of::<usize>()
            + self.dirty_words.capacity() * std::mem::size_of::<u64>()
            + self.dirty_rects.capacity() * std::mem::size_of::<Rect>()
            + (self.sub_windows.capacity() + self.plan.capacity())
                * std::mem::size_of::<PixelWindow>()
    }
}

/// Resizes a scratch buffer to exactly `cells` elements without refilling
/// the retained prefix (contents are unspecified; consumers overwrite
/// before reading).
fn resize_scratch(buf: &mut Vec<f64>, cells: usize) {
    if buf.len() < cells {
        buf.resize(cells, 0.0);
    } else {
        buf.truncate(cells);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Seed-semantics row convolution: per-pixel bounds checks and border
    /// renormalisation, the behaviour `convolve_row` must reproduce bit for
    /// bit (see `crate::reference::convolve_separable`).
    fn reference_row(row_in: &[f64], taps: &[f64], x0: usize, x1: usize) -> Vec<f64> {
        let w = row_in.len();
        let radius = (taps.len() / 2) as isize;
        let mut out = vec![0.0; w];
        for (x, o) in out.iter_mut().enumerate().take(x1).skip(x0) {
            let mut acc = 0.0;
            let mut norm = 0.0;
            for (k, &t) in taps.iter().enumerate() {
                let xi = x as isize + k as isize - radius;
                if xi >= 0 && (xi as usize) < w {
                    acc += t * row_in[xi as usize];
                    norm += t;
                }
            }
            *o = if norm > 0.0 { acc / norm } else { 0.0 };
        }
        out
    }

    fn taps_and_sum(len: usize) -> (Vec<f64>, f64) {
        let radius = len / 2;
        let taps: Vec<f64> = (0..len)
            .map(|i| 1.0 / (1.0 + (i as f64 - radius as f64).abs()))
            .collect();
        let mut sum = 0.0;
        for &t in &taps {
            sum += t;
        }
        (taps, sum)
    }

    fn row(len: usize) -> Vec<f64> {
        (0..len)
            .map(|i| ((i * 37 + 11) % 97) as f64 / 97.0)
            .collect()
    }

    #[test]
    fn kernel_wider_than_row_matches_reference_on_every_arch() {
        // Every output pixel is a border pixel: the interior span [il, ih)
        // is empty and the renormalising closure handles the whole row.
        for w in [1_usize, 2, 5, 6] {
            let (taps, sum) = taps_and_sum(7);
            let input = row(w);
            let expected = reference_row(&input, &taps, 0, w);
            let mut out = vec![0.0; w];
            convolve_row(&input, &mut out, &taps, sum, 0, w);
            for x in 0..w {
                assert_eq!(out[x].to_bits(), expected[x].to_bits(), "w={w} x={x}");
            }
        }
    }

    #[test]
    fn empty_window_writes_nothing() {
        let (taps, sum) = taps_and_sum(5);
        let input = row(16);
        for x0 in [0_usize, 3, 8, 16] {
            let mut out = vec![f64::NAN; 16];
            convolve_row(&input, &mut out, &taps, sum, x0, x0);
            assert!(
                out.iter().all(|v| v.is_nan()),
                "x0==x1=={x0} must leave the row untouched"
            );
        }
    }

    #[test]
    fn radius_zero_kernel_matches_reference_on_every_arch() {
        // A single-tap kernel still divides by the tap (t·x / t is not a
        // bitwise identity), so the reference comparison is meaningful.
        let (taps, sum) = taps_and_sum(1);
        let input = row(67); // odd length leaves a tail past every 4-lane step
        let expected = reference_row(&input, &taps, 0, 67);
        let mut out = vec![0.0; 67];
        convolve_row(&input, &mut out, &taps, sum, 0, 67);
        for x in 0..67 {
            assert_eq!(out[x].to_bits(), expected[x].to_bits(), "x={x}");
        }
    }

    #[test]
    fn partial_windows_match_reference_on_every_arch() {
        // Windows that start or end inside the border and interior spans.
        let (taps, sum) = taps_and_sum(9);
        let input = row(40);
        for (x0, x1) in [(0_usize, 40_usize), (2, 7), (1, 39), (5, 35), (36, 40)] {
            let expected = reference_row(&input, &taps, x0, x1);
            let mut out = vec![0.0; 40];
            convolve_row(&input, &mut out, &taps, sum, x0, x1);
            for x in x0..x1 {
                assert_eq!(
                    out[x].to_bits(),
                    expected[x].to_bits(),
                    "window [{x0},{x1}) x={x}"
                );
            }
        }
    }

    fn win(x0: usize, y0: usize, x1: usize, y1: usize) -> PixelWindow {
        PixelWindow { x0, y0, x1, y1 }
    }

    /// Builds a window inside a `w × h` raster from four raw draws. Starts
    /// past the last pixel are pulled onto it, so windows pile up on the
    /// raster's far edges as well as its origin.
    fn window_in(w: usize, h: usize, (a, b, c, d): (usize, usize, usize, usize)) -> PixelWindow {
        let (x0, y0) = (a.min(w - 1), c.min(h - 1));
        win(x0, y0, (x0 + 1 + b).min(w), (y0 + 1 + d).min(h))
    }

    /// Dense per-pixel oracle of [`convolve_window`] over a `w × h` raster:
    /// every horizontal sum, then the vertical sums of `win`, each over the
    /// in-bounds taps in ascending order and divided by their ascending sum
    /// (or `0.0` when none is in bounds). This is the operation order of the
    /// convolution before it skipped zeros. Pixels outside `win` read NaN.
    fn dense_window(input: &[f64], w: usize, h: usize, taps: &[f64], win: PixelWindow) -> Vec<f64> {
        let radius = taps.len() / 2;
        let conv = |at: usize, n: usize, get: &dyn Fn(usize) -> f64| {
            let (mut acc, mut norm) = (0.0, 0.0);
            for (k, &t) in taps.iter().enumerate() {
                if let Some(i) = (at + k).checked_sub(radius).filter(|&i| i < n) {
                    acc += t * get(i);
                    norm += t;
                }
            }
            if norm > 0.0 {
                acc / norm
            } else {
                0.0
            }
        };
        let horizontal: Vec<f64> = (0..w * h)
            .map(|i| conv(i % w, w, &|x| input[i / w * w + x]))
            .collect();
        let mut out = vec![f64::NAN; w * h];
        for y in win.y0..win.y1 {
            for x in win.x0..win.x1 {
                out[y * w + x] = conv(y, h, &|r| horizontal[r * w + x]);
            }
        }
        out
    }

    /// A sparse mask value: mostly +0.0, else −0.0, a subnormal, or a value
    /// of either sign in (−1000, 1000).
    fn sparse() -> impl Strategy<Value = f64> {
        (0u32..16, -1000.0f64..1000.0, 1u64..1 << 52).prop_map(|(kind, x, m)| match kind {
            0..=9 => 0.0,
            10 | 11 => -0.0,
            12 => f64::from_bits(m),
            _ => x,
        })
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Whatever the dirty windows — overlapping, on the raster edge, up
        /// to a full `MAX_SUB_WINDOWS` decomposition, or the single dense
        /// window an overflow falls back to — every radius-grown dirty
        /// window lies inside one planned window, every planned window
        /// inside the grown content window, and the plan costs no more than
        /// the unmerged windows or one content-window re-convolution.
        #[test]
        fn planned_windows_cover_every_grown_dirty_window_at_no_extra_cost(
            w in 1usize..160,
            h in 1usize..160,
            radius in 0usize..40,
            raw in prop::collection::vec((0usize..170, 0usize..48, 0usize..170, 0usize..48), 1..=MAX_SUB_WINDOWS),
            extra in (0usize..170, 0usize..170, 0usize..170, 0usize..170),
            dense in prop::bool::ANY,
        ) {
            let mut dirty: Vec<PixelWindow> = raw.iter().map(|&r| window_in(w, h, r)).collect();
            let mut content = dirty.iter().fold(window_in(w, h, extra), |c, d| c.union(d));
            if dense {
                let union = dirty.iter().fold(dirty[0], |u, d| u.union(d));
                dirty = vec![union];
                content = content.union(&union);
            }
            let mut plan = Vec::new();
            plan_windows(&dirty, content, radius, w, h, &mut plan);

            let grown: Vec<PixelWindow> = dirty.iter().map(|d| d.expanded(radius, w, h)).collect();
            let whole = content.expanded(radius, w, h);
            let inside = |outer: &PixelWindow, inner: &PixelWindow| {
                outer.x0 <= inner.x0 && outer.y0 <= inner.y0 && outer.x1 >= inner.x1 && outer.y1 >= inner.y1
            };
            for g in &grown {
                prop_assert!(plan.iter().any(|p| inside(p, g)), "{g:?} not covered by {plan:?}");
            }
            prop_assert!(plan.iter().all(|p| inside(&whole, p)), "{plan:?} leaves {whole:?}");
            prop_assert!(plan.len() <= dirty.len());
            let cost = |ws: &[PixelWindow]| ws.iter().map(|p| convolve_cost(*p, radius)).sum::<usize>();
            prop_assert!(cost(&plan) <= cost(&grown), "{plan:?} dearer than {grown:?}");
            prop_assert!(cost(&plan) <= convolve_cost(whole, radius));
        }
    }

    /// Widest raster side and longest kernel the exactness proptest draws.
    const SIDE: usize = 48;
    const MAX_TAPS: usize = 61;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Skipping exact zeros changes no bit: `convolve_window` matches the
        /// dense oracle `to_bits` inside `win` and writes nothing outside it,
        /// and reads no `tmp` pixel it did not write (stale `tmp` is NaN).
        /// Rows are all +0.0, all −0.0, a lone pixel at either end, both ends
        /// (farther apart than 2R when the kernel is short), or sparse mixes
        /// of ±0.0, subnormals and signed values; windows reach every raster
        /// edge, and kernels run from radius 0 to wider than the raster.
        #[test]
        fn zero_skipping_convolution_matches_the_dense_oracle_bit_for_bit(
            w in 1usize..=SIDE,
            h in 1usize..=SIDE,
            half in 0usize..=MAX_TAPS / 2,
            raw in (0usize..SIDE + 8, 0usize..SIDE + 8, 0usize..SIDE + 8, 0usize..SIDE + 8),
            modes in prop::collection::vec(0u32..8, SIDE),
            pixels in prop::collection::vec(sparse(), SIDE * SIDE),
            end in -1000.0f64..1000.0,
            taps in prop::collection::vec(1e-3f64..1.0, MAX_TAPS),
        ) {
            let taps = &taps[..2 * half + 1];
            let mut sum = 0.0;
            for &t in taps {
                sum += t;
            }
            let end = if end == 0.0 { 0.5 } else { end };
            let input: Vec<f64> = (0..w * h)
                .map(|i| {
                    let (x, y) = (i % w, i / w);
                    let (left, right) = (x == 0, x == w - 1);
                    match modes[y] {
                        0 => 0.0,
                        1 => -0.0,
                        2 if left => end,
                        3 if right => end,
                        4 if left || right => end,
                        2..=4 => 0.0,
                        _ => pixels[y * SIDE + x],
                    }
                })
                .collect();
            let win = window_in(w, h, raw);
            let want = dense_window(&input, w, h, taps, win);
            let (mut tmp, mut out) = (vec![f64::NAN; w * h], vec![f64::NAN; w * h]);
            let mut live = Vec::with_capacity(h);
            convolve_window(&input, w, h, taps, sum, win, &mut tmp, &mut out, &mut live);
            prop_assert_eq!(bits(&out), bits(&want), "{}x{} raster, radius {}, {:?}", w, h, half, win);
            prop_assert!(live.windows(2).all(|p| p[0] < p[1]), "live rows {:?} not ascending", live);
        }
    }

    #[test]
    fn nearby_halos_merge_distant_ones_stay_apart_and_the_plan_is_capped() {
        let (w, h, radius) = (400, 100, 10);
        let content = win(0, 0, 400, 100);
        let at = |x0: usize| win(x0, 40, x0 + 4, 44);
        let mut plan = Vec::new();
        // Two spans 2 px apart share almost all of their halos: one window.
        plan_windows(&[at(50), at(56)], content, radius, w, h, &mut plan);
        assert_eq!(plan, [win(40, 30, 70, 54)]);
        // Spans 300 px apart would convolve the gap between them: two windows.
        plan_windows(&[at(50), at(350)], content, radius, w, h, &mut plan);
        assert_eq!(plan, [win(40, 30, 64, 54), win(340, 30, 364, 54)]);
        // Crossing combs: no pair merges (parallel teeth leave gaps, crossing
        // teeth span the whole box), yet together they cost more than one
        // convolution of the content window, so the plan is capped.
        let comb: Vec<PixelWindow> = (0..5)
            .flat_map(|i| [win(2 * i, 0, 2 * i + 1, 9), win(0, 2 * i, 9, 2 * i + 1)])
            .collect();
        plan_windows(&comb, win(0, 0, 9, 9), 0, w, h, &mut plan);
        assert_eq!(plan, [win(0, 0, 9, 9)]);
    }
}
