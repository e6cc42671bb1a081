//! Hand-written AVX2 for the four kernels of the separable convolution.
//!
//! The SOCS aerial image is a sum of separable Gaussian convolutions, and
//! it is re-simulated after every OPC step, so these loops are the litho
//! hot path: the horizontal interior dot product ([`convolve_interior`]),
//! the vertical tap accumulation ([`axpy`]), the row normalisation
//! ([`div_into`]) and the intensity accumulation
//! ([`square_weighted_add`]). Each kernel checks
//! `is_x86_feature_detected!("avx2")` (a cached CPUID probe) and otherwise
//! runs its scalar body, which is also the reference the parity proptests
//! below compare the AVX2 path against. Everything else in the pipeline is
//! plain Rust.
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

/// `acc[i] += t · src[i]` — one tap of the vertical convolution pass.
pub(crate) fn axpy(acc: &mut [f64], t: f64, src: &[f64]) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 was detected just above.
        return unsafe { x86::axpy(acc, t, src) };
    }
    axpy_scalar(acc, t, src);
}

fn axpy_scalar(acc: &mut [f64], t: f64, src: &[f64]) {
    for (a, s) in acc.iter_mut().zip(src) {
        *a += t * s;
    }
}

/// `out[i] = acc[i] / norm` — the normalisation store of a convolution row.
pub(crate) fn div_into(out: &mut [f64], acc: &[f64], norm: f64) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 was detected just above.
        return unsafe { x86::div_into(out, acc, norm) };
    }
    div_into_scalar(out, acc, norm);
}

fn div_into_scalar(out: &mut [f64], acc: &[f64], norm: f64) {
    for (o, a) in out.iter_mut().zip(acc) {
        *o = a / norm;
    }
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

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    /// Mul then add per lane — never an FMA.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    // SAFETY: loads and stores stay in the zipped prefix of the slices.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn axpy(acc: &mut [f64], t: f64, src: &[f64]) {
        let n = acc.len().min(src.len());
        let tv = _mm256_set1_pd(t);
        let mut x = 0;
        while x + 4 <= n {
            let a = _mm256_loadu_pd(acc.as_ptr().add(x));
            let s = _mm256_loadu_pd(src.as_ptr().add(x));
            _mm256_storeu_pd(
                acc.as_mut_ptr().add(x),
                _mm256_add_pd(a, _mm256_mul_pd(tv, s)),
            );
            x += 4;
        }
        super::axpy_scalar(&mut acc[x..n], t, &src[x..n]);
    }

    /// # Safety
    ///
    /// The CPU must support AVX2.
    // SAFETY: loads and stores stay in the zipped prefix of the slices.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn div_into(out: &mut [f64], acc: &[f64], norm: f64) {
        let n = out.len().min(acc.len());
        let nv = _mm256_set1_pd(norm);
        let mut x = 0;
        while x + 4 <= n {
            let a = _mm256_loadu_pd(acc.as_ptr().add(x));
            _mm256_storeu_pd(out.as_mut_ptr().add(x), _mm256_div_pd(a, nv));
            x += 4;
        }
        super::div_into_scalar(&mut out[x..n], &acc[x..n], norm);
    }

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

    /// Lanes are output pixels `x..x+4`; each accumulates taps in ascending
    /// order with mul-then-add, exactly the scalar loop.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2, and a non-empty span must have
    /// `il ≥ radius`, `ih + radius ≤ row_in.len()` and `ih ≤ row_out.len()`.
    // The widest load of lanes x..x+4 (x+3 < ih) covers indices up to
    // (x+3) + radius < ih + radius, and the store ends at x+4 ≤ ih.
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
        let mut x = il;
        while x + 4 <= ih {
            let base = x - radius;
            let mut acc = _mm256_setzero_pd();
            for (k, &t) in taps.iter().enumerate() {
                let v = _mm256_loadu_pd(row_in.as_ptr().add(base + k));
                acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_set1_pd(t), v));
            }
            _mm256_storeu_pd(row_out.as_mut_ptr().add(x), _mm256_div_pd(acc, sum));
            x += 4;
        }
        super::convolve_interior_scalar(row_in, row_out, taps, taps_sum, x, ih);
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

        /// `axpy`, `div_into` and `square_weighted_add` match their scalar
        /// bodies bit for bit at every length and slice alignment.
        #[test]
        fn elementwise_kernels_match_their_scalar_bodies(
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
            axpy_scalar(&mut want[dst.clone()], c, src);
            axpy(&mut got[dst.clone()], c, src);
            prop_assert_eq!(bits(&want), bits(&got), "axpy len {} t {:e}", len, c);

            let norm = if c == 0.0 { 0.5 } else { c };
            let (mut want, mut got) = (a.clone(), a.clone());
            div_into_scalar(&mut want[dst.clone()], src, norm);
            div_into(&mut got[dst.clone()], src, norm);
            prop_assert_eq!(bits(&want), bits(&got), "div_into len {} norm {:e}", len, norm);

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
    }
}
