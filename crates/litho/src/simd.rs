//! Hand-written AVX2 for the three kernels of the separable convolution.
//!
//! The SOCS aerial image is a sum of separable Gaussian convolutions, and
//! it is re-simulated after every OPC step, so these loops are the litho
//! hot path: the horizontal interior dot product ([`convolve_interior`]),
//! one output row of the vertical pass ([`vertical_row`]) and the
//! intensity accumulation ([`square_weighted_add`]). Each kernel checks
//! `is_x86_feature_detected!("avx2")` (a cached CPUID probe) and otherwise
//! runs its scalar body, which is also the reference the parity proptests
//! below compare the AVX2 path against. Everything else in the pipeline is
//! plain Rust.
//!
//! Both convolution kernels are register-blocked: a block of 16 outputs
//! keeps four independent 4-lane accumulators in registers across the
//! whole tap loop and stores each output once, after its division. One
//! accumulator per block would make the tap loop a single chain of
//! dependent adds, and accumulating a vertical row in memory would load and
//! store it once per tap.
//!
//! # Bit-identity contract
//!
//! The AVX2 path is `f64::to_bits`-identical to the scalar body: lanes are
//! independent output elements, and each lane performs the scalar body's
//! IEEE-754 operations in the same order — mul then add (never an FMA,
//! which would round once), taps accumulated in ascending index order per
//! output pixel, and `(weight * v) * v` association. This is what keeps the
//! serving tier's determinism contract across hosts with and without AVX2.

/// The backend the convolution kernels run on this host: `"avx2"` or
/// `"scalar"`. Logged by `serve` and reported as the `simd_arch` metric.
pub fn backend() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        return "avx2";
    }
    "scalar"
}

/// `out[i] += weight · amp[i] · amp[i]` — the SOCS intensity accumulation.
pub(crate) fn square_weighted_add(out: &mut [f64], weight: f64, amp: &[f64]) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 was detected just above.
        return unsafe { x86::square_weighted_add(out, weight, amp) };
    }
    square_weighted_add_scalar(out, weight, amp);
}

fn square_weighted_add_scalar(out: &mut [f64], weight: f64, amp: &[f64]) {
    for (o, &v) in out.iter_mut().zip(amp) {
        *o += weight * v * v;
    }
}

/// The interior span `[il, ih)` of one convolution row: for each output
/// pixel `x`, the dot product of `taps` against
/// `row_in[x - radius ..= x + radius]` accumulated in ascending tap order,
/// divided by `taps_sum`.
///
/// # Panics
///
/// Panics unless a non-empty span has full tap support inside both rows
/// (`il ≥ radius`, `ih + radius ≤ row_in.len()`, `ih ≤ row_out.len()`) —
/// the bound the AVX2 path's unchecked loads rely on.
pub(crate) fn convolve_interior(
    row_in: &[f64],
    row_out: &mut [f64],
    taps: &[f64],
    taps_sum: f64,
    il: usize,
    ih: usize,
) {
    let radius = taps.len() / 2;
    assert!(
        il >= ih || (il >= radius && ih + radius <= row_in.len() && ih <= row_out.len()),
        "interior span [{il}, {ih}) lacks full support for radius {radius}"
    );
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 was detected just above, and the assert above
        // checked the span bounds `x86::convolve_interior` requires.
        return unsafe { x86::convolve_interior(row_in, row_out, taps, taps_sum, il, ih) };
    }
    convolve_interior_scalar(row_in, row_out, taps, taps_sum, il, ih);
}

fn convolve_interior_scalar(
    row_in: &[f64],
    row_out: &mut [f64],
    taps: &[f64],
    taps_sum: f64,
    il: usize,
    ih: usize,
) {
    let len = taps.len();
    let radius = len / 2;
    for x in il..ih {
        let window = &row_in[x - radius..x - radius + len];
        let mut acc = 0.0;
        for (t, v) in taps.iter().zip(window) {
            acc += t * v;
        }
        row_out[x] = acc / taps_sum;
    }
}

/// One output row of the vertical pass: for each `x < out.len()`,
/// `out[x] = (Σ taps[r − first] · src[r · stride + x]) / norm` over the
/// rows `r` of `rows`, accumulated in the order `rows` lists them.
///
/// # Panics
///
/// Panics unless every listed row has a tap (`first ≤ r < first +
/// taps.len()`) and a full span inside `src` (`r · stride + out.len() ≤
/// src.len()`) — the bound the AVX2 path's unchecked loads rely on.
pub(crate) fn vertical_row(
    out: &mut [f64],
    src: &[f64],
    stride: usize,
    rows: &[usize],
    taps: &[f64],
    first: usize,
    norm: f64,
) {
    for &r in rows {
        let in_src = r
            .checked_mul(stride)
            .and_then(|start| start.checked_add(out.len()))
            .is_some_and(|end| end <= src.len());
        assert!(
            r >= first && r - first < taps.len() && in_src,
            "row {r} lacks a tap in [{first}, {first} + {}) or a span of {} in the source",
            taps.len(),
            out.len()
        );
    }
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 was detected just above, and the loop above checked
        // the row bounds `x86::vertical_row` requires.
        return unsafe { x86::vertical_row(out, src, stride, rows, taps, first, norm) };
    }
    vertical_row_scalar(out, src, stride, rows, taps, first, norm);
}

fn vertical_row_scalar(
    out: &mut [f64],
    src: &[f64],
    stride: usize,
    rows: &[usize],
    taps: &[f64],
    first: usize,
    norm: f64,
) {
    for (x, o) in out.iter_mut().enumerate() {
        let mut acc = 0.0;
        for &r in rows {
            acc += taps[r - first] * src[r * stride + x];
        }
        *o = acc / norm;
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    /// Association matches the scalar `(weight * v) * v`.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    // SAFETY: loads and stores stay in the zipped prefix of the slices.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn square_weighted_add(out: &mut [f64], weight: f64, amp: &[f64]) {
        let n = out.len().min(amp.len());
        let wv = _mm256_set1_pd(weight);
        let mut x = 0;
        while x + 4 <= n {
            let o = _mm256_loadu_pd(out.as_ptr().add(x));
            let v = _mm256_loadu_pd(amp.as_ptr().add(x));
            let term = _mm256_mul_pd(_mm256_mul_pd(wv, v), v);
            _mm256_storeu_pd(out.as_mut_ptr().add(x), _mm256_add_pd(o, term));
            x += 4;
        }
        super::square_weighted_add_scalar(&mut out[x..n], weight, &amp[x..n]);
    }

    /// `acc[i] += t · src[4i..4i + 4]` per lane, mul then add (not fused).
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2, and `src[..4 · N]` must be readable.
    #[target_feature(enable = "avx2")]
    #[inline]
    // SAFETY: the caller guarantees the 4·N loads are in range.
    unsafe fn accumulate<const N: usize>(acc: &mut [__m256d; N], t: f64, src: *const f64) {
        let tv = _mm256_set1_pd(t);
        for (i, a) in acc.iter_mut().enumerate() {
            *a = _mm256_add_pd(*a, _mm256_mul_pd(tv, _mm256_loadu_pd(src.add(4 * i))));
        }
    }

    /// `out[4i..4i + 4] = acc[i] / norm`.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2, and `out[..4 · N]` must be writable.
    #[target_feature(enable = "avx2")]
    #[inline]
    // SAFETY: the caller guarantees the 4·N stores are in range.
    unsafe fn store_div<const N: usize>(out: *mut f64, acc: &[__m256d; N], norm: __m256d) {
        for (i, a) in acc.iter().enumerate() {
            _mm256_storeu_pd(out.add(4 * i), _mm256_div_pd(*a, norm));
        }
    }

    /// `4 · N` interior outputs: `out[j] = (Σₖ taps[k] · src[j + k]) / sum`.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2, `src[..4 · N + taps.len() - 1]` must be
    /// readable and `out[..4 · N]` writable.
    #[target_feature(enable = "avx2")]
    #[inline]
    // SAFETY: tap k reads src[k..k + 4·N], inside the caller's bound.
    unsafe fn interior_block<const N: usize>(
        out: *mut f64,
        src: *const f64,
        taps: &[f64],
        sum: __m256d,
    ) {
        let mut acc = [_mm256_setzero_pd(); N];
        for (k, &t) in taps.iter().enumerate() {
            accumulate(&mut acc, t, src.add(k));
        }
        store_div(out, &acc, sum);
    }

    /// `4 · N` outputs of a vertical row:
    /// `out[j] = (Σ taps[r − first] · src[r · stride + j]) / norm` over `rows`.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2, every `r` in `rows` must have
    /// `first ≤ r < first + taps.len()` and `src[r · stride..][..4 · N]`
    /// readable, and `out[..4 · N]` must be writable.
    #[target_feature(enable = "avx2")]
    #[inline]
    // SAFETY: row r reads src[r·stride..][..4·N], inside the caller's bound.
    unsafe fn vertical_block<const N: usize>(
        out: *mut f64,
        src: *const f64,
        stride: usize,
        rows: &[usize],
        taps: &[f64],
        first: usize,
        norm: __m256d,
    ) {
        let mut acc = [_mm256_setzero_pd(); N];
        for &r in rows {
            accumulate(&mut acc, taps[r - first], src.add(r * stride));
        }
        store_div(out, &acc, norm);
    }

    /// Lanes are output pixels; each accumulates taps in ascending order
    /// with mul-then-add, exactly the scalar loop, in blocks of 16 outputs
    /// and then 4.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2, and a non-empty span must have
    /// `il ≥ radius`, `ih + radius ≤ row_in.len()` and `ih ≤ row_out.len()`.
    // A block of B outputs at x (x + B ≤ ih) loads indices x - radius up
    // to (x + B - 1) + radius < ih + radius and stores x..x+B ⊆ [il, ih).
    // SAFETY: by the span bounds above, every load and store is in range.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn convolve_interior(
        row_in: &[f64],
        row_out: &mut [f64],
        taps: &[f64],
        taps_sum: f64,
        il: usize,
        ih: usize,
    ) {
        let radius = taps.len() / 2;
        let sum = _mm256_set1_pd(taps_sum);
        let (src, out) = (row_in.as_ptr(), row_out.as_mut_ptr());
        let mut x = il;
        while x + 16 <= ih {
            interior_block::<4>(out.add(x), src.add(x - radius), taps, sum);
            x += 16;
        }
        while x + 4 <= ih {
            interior_block::<1>(out.add(x), src.add(x - radius), taps, sum);
            x += 4;
        }
        super::convolve_interior_scalar(row_in, row_out, taps, taps_sum, x, ih);
    }

    /// Lanes are output pixels; each accumulates the listed rows in order
    /// with mul-then-add, exactly the scalar loop, in blocks of 16 outputs
    /// and then 4.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2, and every `r` in `rows` must satisfy
    /// `first ≤ r < first + taps.len()` and
    /// `r · stride + out.len() ≤ src.len()`.
    // A block of B outputs at x (x + B ≤ out.len()) loads
    // src[r · stride + x..][..B] for each listed row and stores
    // out[x..x + B].
    // SAFETY: by the row bounds above, every load and store is in range.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn vertical_row(
        out: &mut [f64],
        src: &[f64],
        stride: usize,
        rows: &[usize],
        taps: &[f64],
        first: usize,
        norm: f64,
    ) {
        let n = out.len();
        let nv = _mm256_set1_pd(norm);
        let (sp, op) = (src.as_ptr(), out.as_mut_ptr());
        let mut x = 0;
        while x + 16 <= n {
            vertical_block::<4>(op.add(x), sp.add(x), stride, rows, taps, first, nv);
            x += 16;
        }
        while x + 4 <= n {
            vertical_block::<1>(op.add(x), sp.add(x), stride, rows, taps, first, nv);
            x += 4;
        }
        super::vertical_row_scalar(&mut out[x..], &src[x..], stride, rows, taps, first, norm);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Longest slice a case draws, plus room for a start offset of 0–3.
    const MAX_LEN: usize = 300;
    const BUF: usize = MAX_LEN + 4;

    /// Finite values, with −0.0, +0.0 and subnormals of either sign drawn
    /// as often as ordinary values in (−1000, 1000).
    fn finite() -> impl Strategy<Value = f64> {
        (0u32..6, -1000.0f64..1000.0, 1u64..1 << 52).prop_map(|(kind, x, m)| match kind {
            0 => -0.0,
            1 => 0.0,
            2 => f64::from_bits(m),
            3 => -f64::from_bits(m),
            _ => x,
        })
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Whether this host runs the AVX2 path; without it both sides of every
    /// comparison would be the scalar body, so the tests stop and say so.
    fn has_avx2() -> bool {
        let on = backend() == "avx2";
        if !on {
            eprintln!("no AVX2 on this host: the kernels run their scalar bodies only");
        }
        on
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `square_weighted_add` matches its scalar body bit for bit at
        /// every length and slice alignment.
        #[test]
        fn square_weighted_add_matches_its_scalar_body(
            len in 0usize..=MAX_LEN,
            offsets in (0usize..4, 0usize..4),
            a in prop::collection::vec(finite(), BUF),
            b in prop::collection::vec(finite(), BUF),
            c in finite(),
        ) {
            if !has_avx2() {
                return;
            }
            let (oa, ob) = offsets;
            let (dst, src) = (oa..oa + len, &b[ob..ob + len]);
            let (mut want, mut got) = (a.clone(), a.clone());
            square_weighted_add_scalar(&mut want[dst.clone()], c, src);
            square_weighted_add(&mut got[dst], c, src);
            prop_assert_eq!(bits(&want), bits(&got), "square_weighted_add len {} w {:e}", len, c);
        }

        /// `convolve_interior` matches its scalar body bit for bit over any
        /// full-support span of any row, for odd tap counts 1–41, and writes
        /// nothing outside the span.
        #[test]
        fn convolve_interior_matches_its_scalar_body(
            w in 0usize..=MAX_LEN,
            half in 0usize..=20,
            offsets in (0usize..4, 0usize..4),
            span in (0usize..=MAX_LEN, 0usize..=MAX_LEN),
            row in prop::collection::vec(finite(), BUF),
            out in prop::collection::vec(finite(), BUF),
            taps in prop::collection::vec(finite(), 41),
        ) {
            if !has_avx2() {
                return;
            }
            let ((oi, oo), (si, sh)) = (offsets, span);
            let (len, radius) = (2 * half + 1, half);
            let taps = &taps[..len];
            let sum: f64 = taps.iter().sum();
            let taps_sum = if sum == 0.0 { 1.0 } else { sum };
            // Full-support starts are radius..=w-radius; a row narrower than
            // the kernel has only the empty span.
            let (il, ih) = if w >= len {
                let il = radius + si % (w - len + 2);
                (il, il + sh % (w - radius - il + 1))
            } else {
                (0, 0)
            };
            let (row_in, dst) = (&row[oi..oi + w], oo..oo + w);
            let (mut want, mut got) = (out.clone(), out.clone());
            convolve_interior_scalar(row_in, &mut want[dst.clone()], taps, taps_sum, il, ih);
            convolve_interior(row_in, &mut got[dst], taps, taps_sum, il, ih);
            prop_assert_eq!(bits(&want), bits(&got), "w {} taps {} span [{}, {})", w, len, il, ih);
        }

        /// `vertical_row` matches its scalar body bit for bit for any output
        /// width and alignment, any subset of the tap rows (skipped rows
        /// included, and none at all), and writes nothing past `out`.
        #[test]
        fn vertical_row_matches_its_scalar_body(
            n in 0usize..=70,
            pad in 0usize..4,
            offsets in (0usize..4, 0usize..4),
            first in 0usize..4,
            keep in prop::collection::vec(prop::bool::ANY, 1..=13),
            src in prop::collection::vec(finite(), 20 * 77),
            out in prop::collection::vec(finite(), 80),
            taps in prop::collection::vec(finite(), 13),
            norm in finite(),
        ) {
            if !has_avx2() {
                return;
            }
            let (os, oo) = offsets;
            let stride = n + pad;
            let taps = &taps[..keep.len()];
            let rows: Vec<usize> = (0..keep.len()).filter(|&k| keep[k]).map(|k| first + k).collect();
            let norm = if norm == 0.0 { 0.5 } else { norm };
            let (src, dst) = (&src[os..], oo..oo + n);
            let (mut want, mut got) = (out.clone(), out.clone());
            vertical_row_scalar(&mut want[dst.clone()], src, stride, &rows, taps, first, norm);
            vertical_row(&mut got[dst], src, stride, &rows, taps, first, norm);
            prop_assert_eq!(bits(&want), bits(&got), "n {} stride {} rows {:?}", n, stride, rows);
        }
    }
}
