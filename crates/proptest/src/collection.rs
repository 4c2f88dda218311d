//! Collection strategies (`prop::collection::vec`).

use crate::strategy::Strategy;
use crate::test_runner::TestRng;

/// Anything usable as a vector-length specification: an exact `usize`, a
/// half-open `Range<usize>`, or an inclusive `RangeInclusive<usize>`.
pub trait IntoSizeRange {
    /// `(min, max)` inclusive bounds.
    fn bounds(&self) -> (usize, usize);
}

impl IntoSizeRange for usize {
    fn bounds(&self) -> (usize, usize) {
        (*self, *self)
    }
}

impl IntoSizeRange for core::ops::Range<usize> {
    fn bounds(&self) -> (usize, usize) {
        assert!(self.start < self.end, "empty size range");
        (self.start, self.end - 1)
    }
}

impl IntoSizeRange for core::ops::RangeInclusive<usize> {
    fn bounds(&self) -> (usize, usize) {
        (*self.start(), *self.end())
    }
}

/// Strategy returned by [`vec()`].
#[derive(Clone, Debug)]
pub struct VecStrategy<S> {
    element: S,
    min: usize,
    max: usize,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let len = self.min + rng.below_inclusive((self.max - self.min) as u64) as usize;
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}

/// A vector of values drawn from `element`, with length drawn from `size`.
pub fn vec<S: Strategy>(element: S, size: impl IntoSizeRange) -> VecStrategy<S> {
    let (min, max) = size.bounds();
    VecStrategy { element, min, max }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_and_ranged_lengths() {
        let mut rng = TestRng::for_test("vec");
        for _ in 0..200 {
            assert_eq!(vec(0u8..10, 4usize).generate(&mut rng).len(), 4);
            let l = vec(0u8..10, 2..5).generate(&mut rng).len();
            assert!((2..5).contains(&l));
            let l = vec(0u8..10, 0..=3).generate(&mut rng).len();
            assert!(l <= 3);
        }
    }
}
