//! Post-training affine INT8 quantization.
//!
//! Implements the standard asymmetric affine scheme used by TFLite and
//! TensorRT's INT8 calibration: `real = scale * (q - zero_point)` with
//! `q ∈ [-128, 127]`. The executor uses it to run graphs in simulated INT8
//! ("fake quantization", the same numerics quantization-aware tooling
//! emulates), and the quantization-error experiments measure the resulting
//! output degradation.

use crate::Tensor;

/// Affine quantization parameters for one tensor.
///
/// # Examples
///
/// ```
/// use edgebench_tensor::QuantParams;
/// let q = QuantParams::from_range(-1.0, 3.0);
/// let (val, deq) = (1.7_f32, q.dequantize(q.quantize(1.7)));
/// assert!((val - deq).abs() < q.scale());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantParams {
    scale: f32,
    zero_point: i32,
}

impl QuantParams {
    /// Derives parameters covering `[min, max]` with 8-bit resolution.
    ///
    /// The range is widened to always contain zero (required so that zero
    /// padding is exactly representable, as TFLite does).
    pub fn from_range(min: f32, max: f32) -> Self {
        let min = min.min(0.0);
        let max = max.max(0.0);
        let span = (max - min).max(1e-8);
        let scale = span / 255.0;
        let zero_point = (-128.0 - min / scale).round().clamp(-128.0, 127.0) as i32;
        QuantParams { scale, zero_point }
    }

    /// Derives parameters from the observed range of a tensor.
    ///
    /// NaN elements are ignored; a tensor with no finite range (empty,
    /// all-NaN, or holding an infinity) gets the default `[0, 1]` grid.
    pub fn observe(t: &Tensor) -> Self {
        Self::observe_slice(t.data())
    }

    /// [`QuantParams::observe`] over a raw slice — the one range scan,
    /// shared by the per-tensor and per-channel schemes.
    ///
    /// The scan keeps [`RANGE_LANES`] independent running min/max pairs and
    /// folds them at the end, so the compiler can hold them in vector
    /// registers. Min and max are order-free on non-NaN values (a NaN never
    /// wins a `<`/`>` comparison, so it is skipped in every lane), and a
    /// `-0.0` versus `+0.0` extreme yields the same parameters, so the
    /// result equals a sequential scan's.
    fn observe_slice(data: &[f32]) -> Self {
        let mut lo = [f32::INFINITY; RANGE_LANES];
        let mut hi = [f32::NEG_INFINITY; RANGE_LANES];
        let chunks = data.chunks_exact(RANGE_LANES);
        let tail = chunks.remainder();
        for chunk in chunks {
            for ((l, h), &v) in lo.iter_mut().zip(&mut hi).zip(chunk) {
                *l = if v < *l { v } else { *l };
                *h = if v > *h { v } else { *h };
            }
        }
        let (mut min, mut max) = (f32::INFINITY, f32::NEG_INFINITY);
        for &v in lo.iter().chain(tail) {
            min = if v < min { v } else { min };
        }
        for &v in hi.iter().chain(tail) {
            max = if v > max { v } else { max };
        }
        if !min.is_finite() || !max.is_finite() {
            return QuantParams::from_range(0.0, 1.0);
        }
        QuantParams::from_range(min, max)
    }

    /// The step between adjacent representable values.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// The integer value representing real zero.
    pub fn zero_point(&self) -> i32 {
        self.zero_point
    }

    /// Quantizes a real value to `i8` (saturating).
    ///
    /// NaN maps to the zero point; `±inf` and values far outside the range
    /// saturate to the grid ends.
    pub fn quantize(&self, x: f32) -> i8 {
        // `as i32` saturates at `i32::MIN/MAX`, so the zero-point add must
        // saturate too, or `-inf` with a negative zero point would wrap.
        let q = ((x / self.scale).round() as i32).saturating_add(self.zero_point);
        q.clamp(-128, 127) as i8
    }

    /// Dequantizes an `i8` back to a real value.
    pub fn dequantize(&self, q: i8) -> f32 {
        (q as i32 - self.zero_point) as f32 * self.scale
    }

    /// Rounds a value through the quantized grid (fake quantization).
    pub fn fake_quant(&self, x: f32) -> f32 {
        self.dequantize(self.quantize(x))
    }

    /// [`QuantParams::fake_quant`] over a slice in place, bit for bit, in
    /// float arithmetic the compiler can vectorize (no `f32 -> i32 -> f32`
    /// round trip, no `roundf` call).
    ///
    /// Per element: `q = x / scale` (a division, as in `quantize`: a
    /// reciprocal multiply would move bytes); round half away from zero as
    /// `trunc` plus one step when the exact fraction `q - trunc(q)` is at
    /// least one half; NaN becomes 0, as `NaN as i32` does; clamp to the
    /// grid `[-128 - zp, 127 - zp]` in zero-point-relative units, which is
    /// where the integer path's clamp lands; `+ 0.0` turns `-0.0` into
    /// `+0.0`, as the integer path produces; then multiply by `scale`.
    /// The fraction `q - trunc(q)` is exact, and every value after the
    /// rounding step is an integer an `f32` holds exactly, so the result
    /// equals `dequantize(quantize(x))`.
    fn fake_quant_slice(&self, data: &mut [f32]) {
        let scale = self.scale;
        let lo = (-128 - self.zero_point) as f32;
        let hi = (127 - self.zero_point) as f32;
        for v in data {
            let q = *v / scale;
            let t = q.trunc();
            let r = if (q - t).abs() >= 0.5 {
                t + 1.0f32.copysign(q)
            } else {
                t
            };
            let r = if r < lo { lo } else { r };
            let r = if r > hi { hi } else { r };
            let r = if q.is_nan() { 0.0 } else { r };
            *v = (r + 0.0) * scale;
        }
    }
}

/// Independent min/max lanes in the range scan of [`QuantParams::observe`].
const RANGE_LANES: usize = 16;

/// Per-output-channel quantization of a conv/dense weight tensor (axis 0),
/// the scheme TFLite uses for weights: one scale per filter keeps wide
/// filters from being crushed by narrow ones.
///
/// Returns the fake-quantized tensor and the per-channel parameters.
pub fn fake_quantize_per_channel(t: &Tensor) -> (Tensor, Vec<QuantParams>) {
    let c = t.shape().dim(0).max(1);
    let per = t.len() / c;
    let mut out = t.clone();
    let mut params = Vec::with_capacity(c);
    for ch in 0..c {
        let p = QuantParams::observe_slice(&t.data()[ch * per..(ch + 1) * per]);
        p.fake_quant_slice(&mut out.data_mut()[ch * per..(ch + 1) * per]);
        params.push(p);
    }
    (out, params)
}

/// Mean absolute error of per-channel 8-bit rounding of `t` (axis 0).
pub fn per_channel_error(t: &Tensor) -> f32 {
    let (q, _) = fake_quantize_per_channel(t);
    if t.is_empty() {
        return 0.0;
    }
    t.mean_abs_diff(&q)
}

/// Quantizes a tensor to `i8` values plus its parameters.
pub fn quantize_tensor(t: &Tensor) -> (Vec<i8>, QuantParams) {
    let p = QuantParams::observe(t);
    (t.data().iter().map(|&v| p.quantize(v)).collect(), p)
}

/// Rounds every element of a tensor through its own 8-bit grid in place and
/// returns the parameters used.
///
/// Bit-identical to applying [`QuantParams::fake_quant`] to every element
/// with the parameters [`QuantParams::observe`] returns.
pub fn fake_quantize_tensor(t: &mut Tensor) -> QuantParams {
    let p = QuantParams::observe(t);
    p.fake_quant_slice(t.data_mut());
    p
}

/// Mean absolute quantization error introduced by 8-bit rounding of `t`.
pub fn quantization_error(t: &Tensor) -> f32 {
    let p = QuantParams::observe(t);
    if t.is_empty() {
        return 0.0;
    }
    let sum: f32 = t.data().iter().map(|&v| (v - p.fake_quant(v)).abs()).sum();
    sum / t.len() as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn quantize_saturates_non_finite_and_extreme_inputs() {
        // Zero points -128 (all-positive range), 127 (all-negative) and -1.
        for (lo, hi) in [(0.0, 1.0), (-1.0, 0.0), (-1.0, 1.0)] {
            let p = QuantParams::from_range(lo, hi);
            let zp = p.zero_point() as i8;
            for (x, want) in [
                (f32::NEG_INFINITY, -128),
                (-f32::MAX, -128),
                (f32::INFINITY, 127),
                (f32::MAX, 127),
                (f32::NAN, zp),
                (-f32::NAN, zp),
            ] {
                assert_eq!(p.quantize(x), want, "range ({lo},{hi}) x={x}");
            }
        }
        // The grid of [0, 1] starts at 0.0: -inf lands there, not at 1.0.
        let p = QuantParams::from_range(0.0, 1.0);
        assert_eq!(p.fake_quant(f32::NEG_INFINITY), 0.0);
        assert_eq!(p.fake_quant(f32::INFINITY), 1.0);
        // The vectorized pass agrees: an infinity gives the same [0, 1]
        // parameters, and NaN lowers to zero.
        let mut t = Tensor::from_vec([4], vec![f32::NEG_INFINITY, f32::INFINITY, f32::NAN, 0.5]);
        assert_eq!(fake_quantize_tensor(&mut t), p);
        assert_eq!(t.data(), &[0.0, 1.0, 0.0, p.fake_quant(0.5)]);
    }

    /// One generated element: `kind` picks a special value or a draw from
    /// `bits`; with `grid` it is kept inside `[lo, hi]`.
    fn element(kind: usize, bits: usize, grid: bool, lo: f32, hi: f32, scale: f32) -> f32 {
        let sign = if bits & 1 == 0 { 1.0 } else { -1.0 };
        let unit = (bits >> 1) as f32 / (1 << 23) as f32; // [0, 1)
                                                          // A `k + 0.5` tie of `x / scale` (exact when `scale` is a power of
                                                          // two) and its neighbours, where division and a reciprocal multiply
                                                          // can round to different sides.
        let tie = ((bits % 512) as f32 - 256.5) * scale;
        let v = match kind {
            0 => sign * 0.0,
            1 => f32::NAN,
            2 => sign * f32::from_bits(bits as u32 & 0x007f_ffff), // subnormal
            3 => tie,
            4 => tie.next_up(),
            5 => tie.next_down(),
            6 => lo,
            7 => hi,
            8 => sign * f32::INFINITY,
            9 => sign * f32::MAX,
            _ => lo + unit * (hi - lo) * if grid { 1.0 } else { sign * 4.0 },
        };
        if grid && !v.is_nan() {
            v.clamp(lo, hi)
        } else {
            v
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn fake_quantize_tensor_matches_per_element_fake_quant(case in (
            (prop::bool::ANY, 0usize..30, 0usize..=255, 0usize..(1 << 23)),
            prop::collection::vec((0usize..14, 0usize..(1 << 24)), 0..300),
        )) {
            // The range is `[-shift, 255 - shift] * step`, so zero points
            // sweep the whole i8 range; `step` is `2^-e`, a power-of-two
            // scale with exact ties, in half the cases. With `grid` the
            // tensor holds both ends and nothing outside them, so the
            // scale is known up front and ties land on it; without it,
            // infinities, `±f32::MAX` and out-of-range values join in.
            let ((grid, e, shift, frac), draws) = case;
            let frac = if frac % 2 == 0 { 0.0 } else { frac as f32 / (1 << 23) as f32 };
            let step = (-(e as f32)).exp2() * (1.0 + frac);
            let (lo, hi) = (-(shift as f32) * step, (255 - shift) as f32 * step);
            let scale = QuantParams::from_range(lo, hi).scale();
            let ends = if grid { vec![lo, hi] } else { vec![] };
            let data: Vec<f32> = draws
                .iter()
                .map(|&(kind, bits)| element(kind, bits, grid, lo, hi, scale))
                .chain(ends)
                .collect();
            let t = Tensor::from_vec([data.len()], data);
            let observed = QuantParams::observe(&t);
            let mut got = t.clone();
            let p = fake_quantize_tensor(&mut got);
            prop_assert_eq!(p, observed);
            for (x, y) in t.data().iter().zip(got.data()) {
                let want = p.fake_quant(*x);
                prop_assert_eq!(y.to_bits(), want.to_bits(), "x={} params {:?}", x, p);
            }
        }
    }

    #[test]
    fn zero_is_exactly_representable() {
        for (lo, hi) in [(-1.0, 1.0), (0.1, 7.0), (-5.0, -0.2), (-0.3, 0.9)] {
            let p = QuantParams::from_range(lo, hi);
            assert_eq!(p.dequantize(p.quantize(0.0)), 0.0, "range ({lo},{hi})");
        }
    }

    #[test]
    fn roundtrip_error_is_below_one_step() {
        let p = QuantParams::from_range(-2.0, 2.0);
        for i in -200..=200 {
            let v = i as f32 / 100.0;
            let e = (v - p.fake_quant(v)).abs();
            assert!(e <= p.scale() * 0.5 + 1e-6, "v={v} e={e}");
        }
    }

    #[test]
    fn out_of_range_saturates() {
        let p = QuantParams::from_range(-1.0, 1.0);
        assert_eq!(p.quantize(50.0), 127);
        assert_eq!(p.quantize(-50.0), -128);
    }

    #[test]
    fn observe_covers_tensor_range() {
        let t = Tensor::from_vec([4], vec![-3.0, 0.0, 1.0, 2.5]);
        let p = QuantParams::observe(&t);
        for &v in t.data() {
            assert!((v - p.fake_quant(v)).abs() <= p.scale());
        }
    }

    #[test]
    fn quantization_error_shrinks_with_range() {
        let narrow = Tensor::from_vec([3], vec![-0.1, 0.0, 0.1]);
        let wide = Tensor::from_vec([3], vec![-10.0, 0.013, 10.0]);
        assert!(quantization_error(&narrow) < quantization_error(&wide));
    }

    #[test]
    fn per_channel_beats_per_tensor_on_imbalanced_filters() {
        // Channel 0 is wide (+-8), channel 1 narrow (+-0.01): one shared
        // scale destroys channel 1; per-channel keeps both.
        let mut data = Vec::new();
        for i in 0..64 {
            data.push((i as f32 / 63.0 - 0.5) * 16.0);
        }
        for i in 0..64 {
            data.push((i as f32 / 63.0 - 0.5) * 0.02);
        }
        let t = Tensor::from_vec([2, 64], data);
        // Whole-tensor MAE improves (the wide channel dominates it)...
        let per_tensor = quantization_error(&t);
        let per_chan = per_channel_error(&t);
        assert!(
            per_chan < per_tensor,
            "per-channel {per_chan} vs per-tensor {per_tensor}"
        );
        // ...but the narrow filter is where per-channel really wins: under a
        // shared scale its error is the shared step; per-channel shrinks it
        // by orders of magnitude.
        let shared = QuantParams::observe(&t);
        let (q, _) = fake_quantize_per_channel(&t);
        let narrow = &t.data()[64..];
        let narrow_shared: f32 = narrow
            .iter()
            .map(|&v| (v - shared.fake_quant(v)).abs())
            .sum::<f32>()
            / 64.0;
        let narrow_pc: f32 = narrow
            .iter()
            .zip(&q.data()[64..])
            .map(|(&a, &b)| (a - b).abs())
            .sum::<f32>()
            / 64.0;
        assert!(
            narrow_pc < narrow_shared / 50.0,
            "narrow-channel: per-channel {narrow_pc} vs shared {narrow_shared}"
        );
    }

    #[test]
    fn per_channel_params_match_channel_count() {
        let t = Tensor::random([8, 3, 3, 3], 1);
        let (q, params) = fake_quantize_per_channel(&t);
        assert_eq!(params.len(), 8);
        assert_eq!(q.shape(), t.shape());
        assert!(t.mean_abs_diff(&q) < params.iter().map(|p| p.scale()).fold(0.0, f32::max));
    }

    #[test]
    fn degenerate_range_does_not_divide_by_zero() {
        let p = QuantParams::from_range(0.0, 0.0);
        assert!(p.scale() > 0.0);
        assert_eq!(p.fake_quant(0.0), 0.0);
    }
}
