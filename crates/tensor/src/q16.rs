//! 16-bit fixed-point arithmetic mirroring the paper's PEs.
//!
//! Table II of the paper specifies "16-bit Fixed Point PE"s. The SnaPEA
//! executor can run its window walks in this representation so that
//! early-termination decisions (sign checks, threshold comparisons) are made
//! on the same quantised partial sums the hardware would see.
//!
//! The format is Q notation with a configurable number of fractional bits
//! (default Q8.8 via [`Q16::DEFAULT_FRAC_BITS`]); multiplies accumulate into
//! a 32-bit register, as hardware MAC units do, and saturate on conversion
//! back to 16 bits.

/// A 16-bit fixed-point value with `FRAC` fractional bits implied by the
/// [`Q16Format`] used to create it.
///
/// `Q16` is a plain wrapper over `i16`; the format travels separately (the
/// hardware fixes it per accelerator configuration, not per value).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Q16(pub i16);

impl Q16 {
    /// Default number of fractional bits (Q8.8).
    pub const DEFAULT_FRAC_BITS: u32 = 8;

    /// The raw underlying bits.
    pub fn raw(self) -> i16 {
        self.0
    }

    /// True if the value is negative (hardware sign-bit check — the single
    /// AND gate the paper describes for exact-mode termination).
    pub fn is_negative(self) -> bool {
        self.0 < 0
    }
}

/// Fixed-point format: the number of fractional bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Q16Format {
    frac_bits: u32,
}

impl Default for Q16Format {
    fn default() -> Self {
        Self {
            frac_bits: Q16::DEFAULT_FRAC_BITS,
        }
    }
}

impl Q16Format {
    /// Creates a format with `frac_bits` fractional bits.
    ///
    /// # Panics
    ///
    /// Panics if `frac_bits >= 16`.
    pub fn new(frac_bits: u32) -> Self {
        assert!(frac_bits < 16, "Q16 supports at most 15 fractional bits");
        Self { frac_bits }
    }

    /// Number of fractional bits.
    pub fn frac_bits(self) -> u32 {
        self.frac_bits
    }

    /// Quantises an `f32` to fixed point, rounding to nearest and saturating.
    pub fn quantize(self, v: f32) -> Q16 {
        let scaled = (v * (1i32 << self.frac_bits) as f32).round();
        Q16(crate::num::sat_i16(scaled))
    }

    /// Converts a fixed-point value back to `f32`.
    pub fn dequantize(self, q: Q16) -> f32 {
        q.0 as f32 / (1i32 << self.frac_bits) as f32
    }

    /// The quantisation step (value of one least-significant bit).
    pub fn lsb(self) -> f32 {
        1.0 / (1i32 << self.frac_bits) as f32
    }
}

/// A 32-bit accumulator for fixed-point MAC chains, as in a hardware MAC
/// unit: products of two Q(16−f).f values are Q(32−2f).2f and are summed at
/// full width, avoiding intermediate overflow for realistic window lengths.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QAcc {
    acc: i64,
}

impl QAcc {
    /// A zeroed accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Multiply-accumulate of two fixed-point operands.
    pub fn mac(&mut self, a: Q16, b: Q16) {
        self.acc += a.0 as i64 * b.0 as i64;
    }

    /// Raw accumulator value (in Q.2f).
    pub fn raw(self) -> i64 {
        self.acc
    }

    /// Rebuilds an accumulator from a raw Q.2f value (the lane kernels
    /// batch several windows' raw sums and hand them back through here).
    pub fn from_raw(acc: i64) -> Self {
        Self { acc }
    }

    /// Sign-bit of the running partial sum — the hardware's termination
    /// signal in exact mode.
    pub fn is_negative(self) -> bool {
        self.acc < 0
    }

    /// Converts the accumulator (Q.2f) back to an `f32` given the operand
    /// format.
    pub fn to_f32(self, fmt: Q16Format) -> f32 {
        self.acc as f32 / (1i64 << (2 * fmt.frac_bits())) as f32
    }

    /// Compares the partial sum against a threshold expressed in the operand
    /// format (the PAU's predictive comparison). The threshold is widened to
    /// the accumulator's Q.2f scale before comparing.
    pub fn below_threshold(self, th: Q16, fmt: Q16Format) -> bool {
        let widened = (th.0 as i64) << fmt.frac_bits();
        self.acc < widened
    }
}

/// Quantises a slice of `f32` values into fixed point.
pub fn quantize_slice(fmt: Q16Format, values: &[f32]) -> Vec<Q16> {
    values.iter().map(|&v| fmt.quantize(v)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_within_lsb() {
        let fmt = Q16Format::default();
        for &v in &[0.0_f32, 1.0, -1.0, 0.5, -0.4999, 3.75, -7.125, 100.0] {
            let q = fmt.quantize(v);
            let back = fmt.dequantize(q);
            assert!((back - v).abs() <= fmt.lsb() / 2.0 + 1e-6, "{v} -> {back}");
        }
    }

    #[test]
    fn saturation() {
        let fmt = Q16Format::new(8);
        assert_eq!(fmt.quantize(1e9).raw(), i16::MAX);
        assert_eq!(fmt.quantize(-1e9).raw(), i16::MIN);
    }

    #[test]
    fn mac_chain_matches_float() {
        let fmt = Q16Format::new(8);
        let xs = [0.5_f32, -1.25, 2.0, 0.125];
        let ws = [1.0_f32, 0.75, -0.5, 2.5];
        let mut acc = QAcc::new();
        for (&x, &w) in xs.iter().zip(ws.iter()) {
            acc.mac(fmt.quantize(x), fmt.quantize(w));
        }
        let float: f32 = xs.iter().zip(ws.iter()).map(|(x, w)| x * w).sum();
        assert!((acc.to_f32(fmt) - float).abs() < 0.02);
    }

    #[test]
    fn sign_and_threshold_checks() {
        let fmt = Q16Format::new(8);
        let mut acc = QAcc::new();
        acc.mac(fmt.quantize(1.0), fmt.quantize(-2.0));
        assert!(acc.is_negative());
        assert!(acc.below_threshold(fmt.quantize(0.0), fmt));
        assert!(acc.below_threshold(fmt.quantize(-1.0), fmt));
        assert!(!acc.below_threshold(fmt.quantize(-3.0), fmt));
        assert!(fmt.quantize(-0.5).is_negative());
        assert!(!fmt.quantize(0.5).is_negative());
    }

    #[test]
    fn quantize_slice_matches_elementwise() {
        let fmt = Q16Format::default();
        let v = [0.1_f32, -0.2, 0.3];
        let q = quantize_slice(fmt, &v);
        assert_eq!(q.len(), 3);
        for (a, &b) in q.iter().zip(v.iter()) {
            assert_eq!(*a, fmt.quantize(b));
        }
    }
}
