//! Bit-level binary16 multiplication.
//!
//! The tensor-core MAC multiplies two FP16 operands exactly (an 11×11-bit
//! significand product fits in 22 bits) and rounds once to FP16, which is
//! what this module models.

use crate::bits::{classify, round_pack, zero, Class};
use crate::F16;

/// A binary16 operand with its bit-field decomposition precomputed.
///
/// `classify` (sign/exponent/significand unpacking with subnormal
/// normalization) is the per-operand front-end of every multiply. In the
/// executor's `cycle × p × m` loop the same activations and weights are
/// multiplied against many partners, so decomposing each operand once and
/// reusing it via [`mul_prepared`] removes the redundant unpacking while
/// keeping results bit-identical to [`mul`].
///
/// # Examples
///
/// ```
/// use eureka_fp16::{arith, F16};
/// let a = arith::Prepared::new(F16::from_f32(-3.0));
/// let b = arith::Prepared::new(F16::from_f32(0.5));
/// assert_eq!(arith::mul_prepared(a, b), arith::mul(a.value(), b.value()));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Prepared {
    raw: F16,
    class: Class,
}

impl Prepared {
    /// Decomposes `x` once for repeated multiplication.
    #[must_use]
    pub fn new(x: F16) -> Self {
        Prepared {
            raw: x,
            class: classify(x),
        }
    }

    /// The original binary16 value.
    #[must_use]
    pub fn value(self) -> F16 {
        self.raw
    }
}

impl From<F16> for Prepared {
    fn from(x: F16) -> Self {
        Prepared::new(x)
    }
}

impl Default for Prepared {
    fn default() -> Self {
        Prepared::new(F16::ZERO)
    }
}

/// Multiplies two pre-decomposed operands — bit-identical to
/// [`mul`]`(a.value(), b.value())` (the differential suite in
/// `tests/kernel_equivalence.rs` proves this exhaustively over the
/// special-value grid), with the per-operand `classify` hoisted out.
#[must_use]
pub fn mul_prepared(a: Prepared, b: Prepared) -> F16 {
    mul_classified(a.class, b.class)
}

/// Multiplies two binary16 values with round-to-nearest-even.
///
/// Special cases follow IEEE 754: `NaN * x = NaN`, `inf * 0 = NaN`,
/// `inf * finite = inf` with the XOR of the signs, and zero results carry
/// the XOR of the signs.
///
/// # Examples
///
/// ```
/// use eureka_fp16::{arith, F16};
/// let p = arith::mul(F16::from_f32(-3.0), F16::from_f32(0.5));
/// assert_eq!(p.to_f32(), -1.5);
/// ```
#[must_use]
pub fn mul(a: F16, b: F16) -> F16 {
    mul_classified(classify(a), classify(b))
}

/// The shared multiply datapath over pre-classified operands.
fn mul_classified(ca: Class, cb: Class) -> F16 {
    match (ca, cb) {
        (Class::Nan, _) | (_, Class::Nan) => F16::NAN,
        (Class::Inf { .. }, Class::Zero { .. }) | (Class::Zero { .. }, Class::Inf { .. }) => {
            F16::NAN
        }
        (Class::Inf { sign: sa }, Class::Inf { sign: sb })
        | (Class::Inf { sign: sa }, Class::Finite(crate::bits::Unpacked { sign: sb, .. }))
        | (Class::Finite(crate::bits::Unpacked { sign: sa, .. }), Class::Inf { sign: sb }) => {
            if sa ^ sb {
                F16::NEG_INFINITY
            } else {
                F16::INFINITY
            }
        }
        (Class::Zero { sign: sa }, Class::Zero { sign: sb })
        | (Class::Zero { sign: sa }, Class::Finite(crate::bits::Unpacked { sign: sb, .. }))
        | (Class::Finite(crate::bits::Unpacked { sign: sa, .. }), Class::Zero { sign: sb }) => {
            zero(sa ^ sb)
        }
        (Class::Finite(ua), Class::Finite(ub)) => {
            let sign = ua.sign ^ ub.sign;
            // Exact 22-bit product of the 11-bit significands. Each
            // significand's leading bit is worth 2^exp, i.e. the value is
            // sig * 2^(exp - 10), so the product is
            // p * 2^(ea + eb - 20) = p * 2^((ea + eb) - guard - 10) with
            // guard = 10.
            let p = u64::from(ua.sig) * u64::from(ub.sig);
            round_pack(sign, ua.exp + ub.exp, p, 10)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference_mul(a: F16, b: F16) -> F16 {
        // f64 holds the exact product of two f16 values, so a single
        // narrowing conversion performs correct rounding.
        F16::from_f64(a.to_f64() * b.to_f64())
    }

    #[test]
    fn simple_products() {
        assert_eq!(mul(F16::from_f32(2.0), F16::from_f32(3.0)).to_f32(), 6.0);
        assert_eq!(mul(F16::from_f32(-2.0), F16::from_f32(3.0)).to_f32(), -6.0);
        assert_eq!(mul(F16::ONE, F16::MAX), F16::MAX);
    }

    #[test]
    fn specials() {
        assert!(mul(F16::NAN, F16::ONE).is_nan());
        assert!(mul(F16::INFINITY, F16::ZERO).is_nan());
        assert_eq!(mul(F16::INFINITY, F16::NEG_ONE), F16::NEG_INFINITY);
        assert_eq!(mul(F16::NEG_ZERO, F16::ONE), F16::NEG_ZERO);
        assert_eq!(mul(F16::NEG_ZERO, F16::NEG_ONE), F16::ZERO);
    }

    #[test]
    fn overflow_and_underflow() {
        assert_eq!(mul(F16::MAX, F16::from_f32(2.0)), F16::INFINITY);
        assert_eq!(
            mul(F16::MIN_POSITIVE_SUBNORMAL, F16::from_f32(0.5)),
            F16::ZERO
        );
        // Subnormal times two stays exact.
        assert_eq!(
            mul(F16::MIN_POSITIVE_SUBNORMAL, F16::from_f32(2.0)).to_f32(),
            2.0 * F16::MIN_POSITIVE_SUBNORMAL.to_f32()
        );
    }

    #[test]
    fn matches_reference_on_grid() {
        // A deterministic sweep over a mixed grid of bit patterns, covering
        // normals, subnormals and sign combinations.
        let mut patterns = vec![0u16, 1, 2, 0x03FF, 0x0400, 0x0401, 0x3C00, 0x7BFF];
        for i in 0..200u16 {
            patterns.push(i.wrapping_mul(331).wrapping_add(17) & 0x7FFF);
        }
        for &pa in &patterns {
            for &pb in &patterns {
                for signs in 0..4u16 {
                    let a = F16::from_bits(pa | ((signs & 1) << 15));
                    let b = F16::from_bits(pb | ((signs >> 1) << 15));
                    let got = mul(a, b);
                    let want = reference_mul(a, b);
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "a={a:?} b={b:?} got={got:?} want={want:?}"
                    );
                }
            }
        }
    }
}
