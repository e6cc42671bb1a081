//! The incremental evaluation session: a mask plus the scratch state needed
//! to re-simulate only what changed.

use crate::epe::{measure_epe, EpeReport};
use crate::pipeline::{aerial_window, plan_windows, DerivedImage, SimWorkspace, MAX_SUB_WINDOWS};
use crate::pool::PooledWorkspace;
use crate::process::ProcessCorner;
use crate::pvband::{pv_band_area, pv_band_area_in};
use crate::simulator::{LithoSimulator, SimulationResult};
use crate::trace::{Stage, StageSpan};
use camo_geometry::{Coord, MaskState, PixelWindow, Raster, Rect};

/// Pixel accounting of the most recent refresh — the evidence the
/// bitmask-sparse dirty-tile path reports to benchmarks and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RefreshStats {
    /// Pixels actually re-rasterised (the sum of disjoint sub-window areas
    /// on the sparse path; the dirty window or whole raster otherwise).
    pub rasterized_pixels: usize,
    /// Pixels the dense dirty-rect path would have re-rasterised (the
    /// snapped dirty window's area; the whole raster on a full rebuild).
    pub dirty_window_pixels: usize,
    /// Disjoint sub-windows refreshed (1 on the dense and full paths).
    pub sub_windows: usize,
    /// Whether the refresh rebuilt the whole raster.
    pub full: bool,
}

/// A stateful evaluation session over one mask.
///
/// Created by [`LithoSimulator::evaluator`]. The evaluator owns the mask and
/// a [`crate::SimWorkspace`] holding the mask raster and one cached aerial
/// image per defocus value read so far. Images follow one rule: *invalidate
/// on rebuild, compute on first read*. Opening a session (or a dirty rect
/// that misses the raster) rasterises the whole mask and only marks the
/// cached images stale; [`Self::epe`], [`Self::evaluate`], [`Self::aerial`]
/// and [`Self::pv_band_in`] compute a stale image over the mask content
/// when they first read it. [`Self::apply_moves`] re-rasterises only the
/// dirty pixels and re-convolves every valid image over the windows one
/// planner chooses. Results are identical to stateless evaluation — the
/// incremental path recomputes exactly the pixels a full pass would produce
/// for the new mask, bit for bit.
///
/// ```
/// use camo_geometry::{Clip, Coord, FragmentationParams, MaskState, Rect};
/// use camo_litho::{LithoConfig, LithoSimulator};
///
/// let mut clip = Clip::new(Rect::new(0, 0, 1000, 1000));
/// clip.add_target(Rect::new(465, 465, 535, 535).to_polygon());
/// let mask = MaskState::from_clip(&clip, &FragmentationParams::via_layer());
/// let sim = LithoSimulator::new(LithoConfig::fast());
///
/// let mut eval = sim.evaluator(&mask);
/// let before = eval.epe().total_abs();
/// let moves: Vec<Coord> = vec![2; eval.mask().segment_count()];
/// eval.apply_moves(&moves); // incremental re-simulation
/// assert!(eval.epe().total_abs() < before);
/// ```
///
/// The session borrows the simulator's shared immutable
/// [`crate::LithoContext`] (kernel taps, thresholds) and checks its
/// [`crate::SimWorkspace`] out of the simulator's [`crate::WorkspacePool`];
/// dropping the evaluator returns the workspace for the next session to
/// reuse. A recycled workspace keeps its image buffers but starts with every
/// image stale, so a session convolves only the images it reads.
#[derive(Debug)]
pub struct MaskEvaluator<'a> {
    sim: &'a LithoSimulator,
    mask: MaskState,
    ws: PooledWorkspace,
    last_refresh: RefreshStats,
}

impl<'a> MaskEvaluator<'a> {
    pub(crate) fn new(sim: &'a LithoSimulator, mask: MaskState) -> Self {
        let ctx = sim.context();
        let region = crate::aerial::simulation_region(&mask, ctx.guard_band_nm());
        let ws = sim.pool().checkout(
            region,
            ctx.config().pixel_size,
            mask.clip().targets().len(),
            mask.segment_count(),
        );
        let mut eval = Self {
            sim,
            mask,
            ws: PooledWorkspace::new(ws, sim.pool_arc()),
            last_refresh: RefreshStats::default(),
        };
        eval.rebuild();
        eval
    }

    /// The simulator this session evaluates against.
    pub fn simulator(&self) -> &LithoSimulator {
        self.sim
    }

    /// The mask under evaluation.
    pub fn mask(&self) -> &MaskState {
        &self.mask
    }

    /// Consumes the session and returns the mask.
    pub fn into_mask(self) -> MaskState {
        self.mask
    }

    /// The current mask coverage raster.
    pub fn mask_raster(&self) -> &Raster {
        &self.ws.raster
    }

    /// Applies one movement per segment and incrementally re-simulates the
    /// dirty region (see [`MaskState::apply_moves`] for the movement
    /// semantics and panics).
    ///
    /// Each moved segment's dirty rect is marked into a per-row bitmask (one
    /// bit per pixel, one `u64` word per 64 pixels), and only the marked
    /// spans inside the union dirty window are re-rasterised — distant
    /// simultaneous moves do not pay for the empty area between them. Every
    /// valid cached image is then re-convolved over the windows the planner
    /// derives from those spans: each span grown by the image's tap radius,
    /// overlapping or nearby halos merged while their bounding box is no
    /// dearer to convolve, and the whole plan capped at one re-convolution
    /// of the mask content. Stale images are left for their first read.
    /// Results stay bit-identical to a fresh full evaluation.
    pub fn apply_moves(&mut self, moves: &[Coord]) {
        let mut rects = std::mem::take(&mut self.ws.dirty_rects);
        let dirty = self.mask.apply_moves_into(moves, &mut rects);
        self.ws.dirty_rects = rects;
        if let Some(dirty_nm) = dirty {
            self.refresh(dirty_nm);
        }
    }

    /// Pixel accounting of the most recent raster refresh (construction
    /// counts as a full rebuild).
    pub fn last_refresh_stats(&self) -> RefreshStats {
        self.last_refresh
    }

    /// Adds `delta` nm to one segment's offset and re-simulates.
    pub fn move_segment(&mut self, id: usize, delta: Coord) {
        let before = self.mask.offsets()[id];
        self.mask.move_segment(id, delta);
        if self.mask.offsets()[id] != before {
            let rect = self.mask.segment_refresh_rect(id);
            self.ws.dirty_rects.clear();
            self.ws.dirty_rects.push(rect);
            self.refresh(rect);
        }
    }

    /// Signed EPE at every measure point under the nominal condition.
    pub fn epe(&mut self) -> EpeReport {
        let config = self.sim.config();
        let threshold = {
            let _span = StageSpan::enter(self.sim.trace_sink(), Stage::Resist);
            self.sim.threshold(ProcessCorner::nominal())
        };
        let slot = self.ensure_slot(0.0);
        let _span = StageSpan::enter(self.sim.trace_sink(), Stage::Epe);
        measure_epe(
            &self.ws.slots[slot].img,
            threshold,
            &self.mask.fragments().measure_points,
            config.epe_search_range,
        )
    }

    /// Full evaluation: nominal EPE plus the PV-band area between the
    /// configured process corners.
    pub fn evaluate(&mut self) -> SimulationResult {
        let config = self.sim.config();
        let epe = self.epe();
        let inner_slot = self.ensure_slot(config.inner_corner.defocus_nm);
        let outer_slot = self.ensure_slot(config.outer_corner.defocus_nm);
        let (inner_threshold, outer_threshold) = {
            let _span = StageSpan::enter(self.sim.trace_sink(), Stage::Resist);
            (
                self.sim.threshold(config.inner_corner),
                self.sim.threshold(config.outer_corner),
            )
        };
        let _span = StageSpan::enter(self.sim.trace_sink(), Stage::PvBand);
        let pv_band = pv_band_area(
            &self.ws.slots[inner_slot].img,
            inner_threshold,
            &self.ws.slots[outer_slot].img,
            outer_threshold,
        );
        SimulationResult { epe, pv_band }
    }

    /// PV-band area restricted to `region` (in nm; snapped outward to pixel
    /// boundaries, clamped to the raster): the area printed under the outer
    /// but not the inner corner, counted over that window only. Layout
    /// tiling uses this to stitch per-tile PV contributions into an exact
    /// layout total. Returns 0.0 when `region` misses the raster.
    pub fn pv_band_in(&mut self, region: Rect) -> f64 {
        let Some(win) = self.ws.raster.pixel_window(region) else {
            return 0.0;
        };
        let config = self.sim.config();
        let (inner_corner, outer_corner) = (config.inner_corner, config.outer_corner);
        let inner_slot = self.ensure_slot(inner_corner.defocus_nm);
        let outer_slot = self.ensure_slot(outer_corner.defocus_nm);
        let _span = StageSpan::enter(self.sim.trace_sink(), Stage::PvBand);
        pv_band_area_in(
            &self.ws.slots[inner_slot].img,
            self.sim.threshold(inner_corner),
            &self.ws.slots[outer_slot].img,
            self.sim.threshold(outer_corner),
            win,
        )
    }

    /// Aerial-intensity image under `corner` (cached per defocus value).
    pub fn aerial(&mut self, corner: ProcessCorner) -> &Raster {
        let slot = self.ensure_slot(corner.defocus_nm);
        &self.ws.slots[slot].img
    }

    /// Rasterises the whole mask from scratch and marks every cached image
    /// stale; each is recomputed on its next read.
    fn rebuild(&mut self) {
        let _span = StageSpan::enter(self.sim.trace_sink(), Stage::Rasterize);
        let ws = &mut *self.ws;
        let polys = move_polygons(ws, &self.mask);
        let content = ws.polys[..polys]
            .iter()
            .filter_map(|verts| vertex_bbox(verts))
            .chain(self.mask.sraf_rects().iter().copied())
            .reduce(|a, b| a.union(&b));
        ws.content = content.and_then(|r| ws.raster.pixel_window(r));
        // All coverage lies inside the content window, so once the raster
        // is zeroed only that window needs filling.
        ws.raster.data_mut().fill(0.0);
        ws.sub_windows.clear();
        ws.sub_windows.extend(ws.content);
        fill_sub_windows(ws, &self.mask, polys);
        for slot in &mut ws.slots {
            slot.valid = false;
        }
        let total = ws.raster.width() * ws.raster.height();
        self.last_refresh = RefreshStats {
            rasterized_pixels: total,
            dirty_window_pixels: total,
            sub_windows: 1,
            full: true,
        };
    }

    /// Re-simulates after the mask changed inside `dirty_nm`, the union of
    /// the per-segment rects in `ws.dirty_rects`: re-rasterises the
    /// bitmask-marked sub-windows of the dirty window (the window itself
    /// when the decomposition overflows [`MAX_SUB_WINDOWS`] or covers it
    /// anyway), then brings every valid cached image up to date.
    fn refresh(&mut self, dirty_nm: Rect) {
        // The mask has already mutated by the time we get here, so a dirty
        // rect that misses the raster (or degenerates when snapped to pixel
        // boundaries) must still trigger a rebuild — early-returning would
        // leave the raster and every cached aerial image stale.
        let ws = &mut *self.ws;
        let Some(win) = ws.raster.pixel_window(dirty_nm) else {
            self.rebuild();
            return;
        };
        if !decompose_dirty(ws, win) || pixels(&ws.sub_windows) >= win.area() {
            ws.sub_windows.clear();
            ws.sub_windows.push(win);
        }
        let raster_span = StageSpan::enter(self.sim.trace_sink(), Stage::Rasterize);
        let polys = move_polygons(ws, &self.mask);
        for &sw in &ws.sub_windows {
            ws.raster.zero_window(sw);
        }
        fill_sub_windows(ws, &self.mask, polys);
        ws.content = Some(ws.content.map_or(win, |c| c.union(&win)));
        self.last_refresh = RefreshStats {
            rasterized_pixels: pixels(&ws.sub_windows),
            dirty_window_pixels: win.area(),
            sub_windows: ws.sub_windows.len(),
            full: false,
        };
        drop(raster_span);
        for i in 0..self.ws.slots.len() {
            if self.ws.slots[i].valid {
                self.update_slot(i);
            }
        }
    }

    /// Index of the cached image for `blur`, computed if it is stale or new.
    fn ensure_slot(&mut self, blur_nm: f64) -> usize {
        let bits = blur_nm.to_bits();
        let index = match self.ws.slots.iter().position(|s| s.blur_bits == bits) {
            Some(i) => i,
            None => {
                let r = &self.ws.raster;
                let img =
                    Raster::with_dimensions(r.origin(), r.pixel_size(), r.width(), r.height());
                self.ws.slots.push(DerivedImage {
                    blur_bits: bits,
                    img,
                    valid: false,
                });
                self.ws.slots.len() - 1
            }
        };
        if !self.ws.slots[index].valid {
            self.update_slot(index);
        }
        index
    }

    /// Brings cached image `index` up to date with the raster by convolving
    /// the windows [`plan_windows`] plans: around the last refresh's
    /// sub-windows for a valid image, over the whole content window for a
    /// stale one (zeroed first, since pixels beyond the content's kernel
    /// reach are exactly zero). Planned windows may overlap: each pixel is
    /// recomputed from the raster alone, so an overlap recomputes the same
    /// bits.
    ///
    /// Taps come from the shared immutable context for corner blurs (the hot
    /// path — no locking, no mutation); blurs outside the corner set fall
    /// back to the workspace-local `extra_taps` cache.
    fn update_slot(&mut self, index: usize) {
        let ctx = self.sim.context();
        let model = &ctx.config().optical;
        let ws = &mut *self.ws;
        let (w, h) = (ws.raster.width(), ws.raster.height());
        let blur = f64::from_bits(ws.slots[index].blur_bits);
        let (taps, radius) = match ctx.max_radius(blur) {
            Some(r) => (ctx.taps(), r),
            None => {
                ws.extra_taps.populate(model, blur);
                let r = ws.extra_taps.max_radius(model, blur);
                (&ws.extra_taps, r.expect("extra taps just populated"))
            }
        };
        let slot = &mut ws.slots[index];
        if !slot.valid {
            slot.img.data_mut().fill(0.0);
        }
        ws.plan.clear();
        if let Some(content) = ws.content {
            let dirty = if slot.valid {
                &ws.sub_windows[..]
            } else {
                std::slice::from_ref(&content)
            };
            plan_windows(dirty, content, radius, w, h, &mut ws.plan);
        }
        for &win in &ws.plan {
            let _span = StageSpan::enter(self.sim.trace_sink(), Stage::Convolve);
            aerial_window(
                ws.raster.data(),
                w,
                h,
                model,
                blur,
                taps,
                win,
                &mut ws.tmp,
                &mut ws.amp,
                &mut ws.live_rows,
                slot.img.data_mut(),
            );
        }
        slot.valid = true;
    }
}

/// Total pixels of a set of disjoint windows.
fn pixels(windows: &[PixelWindow]) -> usize {
    windows.iter().map(PixelWindow::area).sum()
}

/// Writes every moved polygon's vertex loop into `ws.polys` and returns the
/// polygon count.
fn move_polygons(ws: &mut SimWorkspace, mask: &MaskState) -> usize {
    let n = mask.clip().targets().len();
    for (i, verts) in ws.polys[..n].iter_mut().enumerate() {
        mask.moved_polygon_vertices(i, verts);
    }
    n
}

/// Rasterises every zeroed window in `ws.sub_windows` from the first
/// `polys` moved polygons in `ws.polys` plus the SRAFs. Every raster update
/// completes before any convolution reads the raster, so each cached-image
/// pixel sees fully consistent coverage.
fn fill_sub_windows(ws: &mut SimWorkspace, mask: &MaskState, polys: usize) {
    for &sw in &ws.sub_windows {
        for verts in &ws.polys[..polys] {
            ws.raster
                .fill_polygon_coverage_in(verts, 1.0, sw, &mut ws.cov);
        }
        for &sraf in mask.sraf_rects() {
            ws.raster.fill_rect_coverage_in(sraf, 1.0, sw);
        }
        ws.raster.clamp_window(sw, 0.0, 1.0);
    }
}

/// Marks the per-segment dirty rects of the last
/// [`MaskState::apply_moves_into`] into `ws.dirty_words` (one bit per raster
/// pixel, row-major, `⌈w/64⌉` words per row) and decomposes the marked area
/// inside `win` into disjoint sub-windows in `ws.sub_windows` (maximal bands
/// of identical bitmask rows × runs of set bits). Returns `false` when the
/// decomposition would exceed [`MAX_SUB_WINDOWS`].
fn decompose_dirty(ws: &mut SimWorkspace, win: PixelWindow) -> bool {
    let wpr = ws.raster.width().div_ceil(64);
    for iy in win.y0..win.y1 {
        ws.dirty_words[iy * wpr..(iy + 1) * wpr].fill(0);
    }
    for ri in 0..ws.dirty_rects.len() {
        let Some(rw) = ws.raster.pixel_window(ws.dirty_rects[ri]) else {
            continue;
        };
        // `pixel_window` is monotone, so `rw` already sits inside `win`;
        // the clip guards against future callers with partial rect lists.
        let x0 = rw.x0.max(win.x0);
        let x1 = rw.x1.min(win.x1);
        if x0 >= x1 {
            continue;
        }
        for iy in rw.y0.max(win.y0)..rw.y1.min(win.y1) {
            set_bits(&mut ws.dirty_words[iy * wpr..(iy + 1) * wpr], x0, x1);
        }
    }
    ws.sub_windows.clear();
    let mut iy = win.y0;
    while iy < win.y1 {
        let mut band_end = iy + 1;
        while band_end < win.y1 && rows_equal(&ws.dirty_words, wpr, iy, band_end) {
            band_end += 1;
        }
        let row = &ws.dirty_words[iy * wpr..(iy + 1) * wpr];
        let mut x = win.x0;
        while let Some(start) = next_bit(row, x, win.x1, true) {
            let end = next_bit(row, start, win.x1, false).unwrap_or(win.x1);
            if ws.sub_windows.len() == MAX_SUB_WINDOWS {
                return false;
            }
            ws.sub_windows.push(PixelWindow {
                x0: start,
                y0: iy,
                x1: end,
                y1: band_end,
            });
            x = end;
        }
        iy = band_end;
    }
    true
}

/// Sets bits `[x0, x1)` in one bitmask row. Requires `x0 < x1`.
fn set_bits(row: &mut [u64], x0: usize, x1: usize) {
    let (w0, b0) = (x0 / 64, x0 % 64);
    let (w1, b1) = ((x1 - 1) / 64, (x1 - 1) % 64);
    let lo = !0_u64 << b0;
    let hi = !0_u64 >> (63 - b1);
    if w0 == w1 {
        row[w0] |= lo & hi;
    } else {
        row[w0] |= lo;
        row[w0 + 1..w1].fill(!0);
        row[w1] |= hi;
    }
}

/// Whether bitmask rows `a` and `b` are identical.
fn rows_equal(words: &[u64], wpr: usize, a: usize, b: usize) -> bool {
    words[a * wpr..(a + 1) * wpr] == words[b * wpr..(b + 1) * wpr]
}

/// Position of the first bit at or after `from` (and before `limit`) whose
/// value matches `want_set`, scanning a word at a time.
fn next_bit(row: &[u64], from: usize, limit: usize, want_set: bool) -> Option<usize> {
    let mut x = from;
    while x < limit {
        let wi = x / 64;
        let mut word = if want_set { row[wi] } else { !row[wi] };
        word &= !0_u64 << (x % 64);
        if word != 0 {
            let pos = wi * 64 + word.trailing_zeros() as usize;
            return (pos < limit).then_some(pos);
        }
        x = (wi + 1) * 64;
    }
    None
}

fn vertex_bbox(vertices: &[camo_geometry::Point]) -> Option<Rect> {
    let first = vertices.first()?;
    let mut r = Rect::new(first.x, first.y, first.x, first.y);
    for v in &vertices[1..] {
        r = Rect::new(r.x0.min(v.x), r.y0.min(v.y), r.x1.max(v.x), r.y1.max(v.y));
    }
    Some(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulator::LithoConfig;
    use camo_geometry::{Clip, FragmentationParams};

    fn edge_via_mask() -> MaskState {
        // A via flush against the clip edge, so dirty rects from its outer
        // segments extend past the clip (the raster's guard band still
        // covers them — the degenerate case is exercised directly below).
        let mut clip = Clip::new(Rect::new(0, 0, 600, 600));
        clip.add_target(Rect::new(0, 265, 70, 335).to_polygon());
        MaskState::from_clip(&clip, &FragmentationParams::via_layer())
    }

    fn assert_matches_fresh(sim: &LithoSimulator, eval: &mut MaskEvaluator<'_>) {
        let a = eval.epe();
        let ra = eval.evaluate();
        let mut fresh = sim.evaluator(eval.mask());
        let b = fresh.epe();
        assert_eq!(a.per_point, b.per_point, "EPE must match a fresh session");
        let rb = fresh.evaluate();
        assert_eq!(ra.pv_band, rb.pv_band, "PV band must match a fresh session");
    }

    #[test]
    fn off_raster_dirty_rect_falls_back_to_full_refresh() {
        // Regression: the refresh used to early-return when the dirty rect
        // missed the raster, leaving the raster and every cached image
        // stale even though the mask had already mutated.
        let sim = LithoSimulator::new(LithoConfig::fast());
        let mask = edge_via_mask();
        let mut eval = sim.evaluator(&mask);
        let _ = eval.evaluate(); // populate every cached image
        eval.mask.move_segment(0, 2);
        eval.mask.move_segment(1, -1);
        // Hand the refresher a rect far outside the simulation region, the
        // shape of a dirty rect that misses the raster entirely.
        eval.refresh(Rect::new(-100_000, -100_000, -99_000, -99_000));
        assert!(eval.last_refresh_stats().full);
        assert_matches_fresh(&sim, &mut eval);
    }

    #[test]
    fn degenerate_dirty_rect_falls_back_to_full_refresh() {
        // A rect that overlaps the raster in nm but snaps to an empty pixel
        // window (zero width after clamping) must also rebuild.
        let sim = LithoSimulator::new(LithoConfig::fast());
        let mask = edge_via_mask();
        let mut eval = sim.evaluator(&mask);
        let _ = eval.evaluate();
        eval.mask.move_segment(2, 1);
        let region = eval.ws.raster.region();
        // Zero-width slivers on the raster's right edge snap to `None`.
        let sliver = Rect::new(region.x1, region.y0, region.x1, region.y1);
        assert!(eval.ws.raster.pixel_window(sliver).is_none());
        eval.refresh(sliver);
        assert!(eval.last_refresh_stats().full);
        assert_matches_fresh(&sim, &mut eval);
    }

    #[test]
    fn set_bits_and_next_bit_cover_word_boundaries() {
        let mut row = [0_u64; 3];
        set_bits(&mut row, 60, 70); // straddles words 0 and 1
        set_bits(&mut row, 130, 131); // single bit in word 2
        assert_eq!(next_bit(&row, 0, 192, true), Some(60));
        assert_eq!(next_bit(&row, 60, 192, false), Some(70));
        assert_eq!(next_bit(&row, 70, 192, true), Some(130));
        assert_eq!(next_bit(&row, 130, 192, false), Some(131));
        assert_eq!(next_bit(&row, 131, 192, true), None);
        // Bits at or past the limit are not reported.
        assert_eq!(next_bit(&row, 70, 130, true), None);
        let mut full = [0_u64; 4];
        set_bits(&mut full, 10, 200); // interior words fully set
        assert_eq!(full[1], !0);
        assert_eq!(full[2], !0);
        assert_eq!(next_bit(&full, 0, 256, true), Some(10));
        assert_eq!(next_bit(&full, 10, 256, false), Some(200));
    }

    #[test]
    fn distant_simultaneous_moves_refresh_sparsely_and_stay_identical() {
        // Two vias far apart horizontally: applying moves to every segment
        // dirties two distant islands, and the bitmask decomposition must
        // skip the empty span between them while staying bit-identical to a
        // fresh full evaluation.
        let mut clip = Clip::new(Rect::new(0, 0, 8000, 1000));
        clip.add_target(Rect::new(200, 465, 270, 535).to_polygon());
        clip.add_target(Rect::new(7700, 465, 7770, 535).to_polygon());
        let mask = MaskState::from_clip(&clip, &FragmentationParams::via_layer());
        let sim = LithoSimulator::new(LithoConfig::fast());
        let mut eval = sim.evaluator(&mask);
        let _ = eval.evaluate(); // populate every cached image
        let n = eval.mask().segment_count();
        let moves: Vec<Coord> = (0..n).map(|s| [1, -1][s % 2] as Coord).collect();
        eval.apply_moves(&moves);
        let stats = eval.last_refresh_stats();
        assert!(!stats.full, "{stats:?}");
        assert!(stats.sub_windows >= 2, "{stats:?}");
        assert!(
            stats.rasterized_pixels < stats.dirty_window_pixels / 2,
            "sparse refresh should skip the span between the vias: {stats:?}"
        );
        assert_matches_fresh(&sim, &mut eval);
    }

    #[test]
    fn overflowing_decomposition_refreshes_the_dense_window_identically() {
        // A 9 × 9 via grid dirties 9 bands of 9 spans each: 81 sub-windows
        // overflow `MAX_SUB_WINDOWS`, so the step re-rasterises the dense
        // dirty window and the planner convolves around it.
        let mut clip = Clip::new(Rect::new(0, 0, 1800, 1800));
        for i in 0..81 {
            let (x, y) = (65 + 200 * (i % 9), 65 + 200 * (i / 9));
            clip.add_target(Rect::new(x, y, x + 70, y + 70).to_polygon());
        }
        let mask = MaskState::from_clip(&clip, &FragmentationParams::via_layer());
        let sim = LithoSimulator::new(LithoConfig::fast());
        let mut eval = sim.evaluator(&mask);
        let _ = eval.evaluate(); // populate every cached image
        eval.apply_moves(&vec![1; eval.mask().segment_count()]);
        let dirty = eval
            .ws
            .dirty_rects
            .iter()
            .copied()
            .reduce(|a, b| a.union(&b));
        let win = dirty.and_then(|r| eval.ws.raster.pixel_window(r)).unwrap();
        assert!(
            !decompose_dirty(&mut eval.ws, win),
            "the grid must overflow"
        );
        let stats = eval.last_refresh_stats();
        assert_eq!(stats.sub_windows, 1, "{stats:?}");
        assert!(!stats.full, "{stats:?}");
        assert_eq!(stats.rasterized_pixels, stats.dirty_window_pixels);
        assert_matches_fresh(&sim, &mut eval);
    }

    #[test]
    fn repeated_sparse_refreshes_stay_identical_through_an_episode() {
        let mut clip = Clip::new(Rect::new(0, 0, 8000, 1000));
        clip.add_target(Rect::new(200, 465, 270, 535).to_polygon());
        clip.add_target(Rect::new(7700, 465, 7770, 535).to_polygon());
        let mask = MaskState::from_clip(&clip, &FragmentationParams::via_layer());
        let sim = LithoSimulator::new(LithoConfig::fast());
        let mut eval = sim.evaluator(&mask);
        let n = eval.mask().segment_count();
        for step in 0..4 {
            let moves: Vec<Coord> = (0..n)
                .map(|s| [2, -1, 1, -2][(s + step) % 4] as Coord)
                .collect();
            eval.apply_moves(&moves);
            assert_matches_fresh(&sim, &mut eval);
        }
    }

    #[test]
    fn edge_segment_moves_stay_identical_to_full_evaluation() {
        // Segments of a via flush against the clip edge produce dirty rects
        // that poke outside the clip; the incremental path must stay
        // bit-identical to a fresh full evaluation through a whole episode
        // of moves.
        let sim = LithoSimulator::new(LithoConfig::fast());
        let mask = edge_via_mask();
        let mut eval = sim.evaluator(&mask);
        let n = eval.mask().segment_count();
        for step in 0..4 {
            let moves: Vec<Coord> = (0..n)
                .map(|s| [2, -1, 1, -2][(s + step) % 4] as Coord)
                .collect();
            eval.apply_moves(&moves);
            assert_matches_fresh(&sim, &mut eval);
        }
    }
}
