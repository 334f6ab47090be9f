//! Fixed-order float reductions.
//!
//! Float addition is not associative, so the *order* of a reduction is
//! part of its value: re-chunking an iterator, parallelising a sum, or
//! reversing a range silently changes low bits and breaks the
//! workspace's bit-identical-across-`--jobs` guarantee. Every float
//! reduction in library code therefore goes through these helpers — one
//! canonical left-to-right fold, one place to audit — and the
//! `float-fold-determinism` lint (MKSS-L011) enforces it.
//!
//! The helpers are exactly `Iterator::sum` for `f64` (a left fold from
//! `0.0`), so migrating a `.sum()` call here is byte-identical; what
//! changes is that the order is now *named* and cannot be refactored
//! away by accident.

/// Left-to-right sum of a slice: `((0.0 + x₀) + x₁) + …`.
pub fn sum_f64(xs: &[f64]) -> f64 {
    sum_f64_by(xs, |x| *x)
}

/// Left-to-right sum of `f(item)` over the iterator, in iteration
/// order.
pub fn sum_f64_by<I, F>(items: I, mut f: F) -> f64
where
    I: IntoIterator,
    F: FnMut(I::Item) -> f64,
{
    let mut acc = 0.0f64;
    for item in items {
        acc += f(item);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_iterator_sum_bit_for_bit() {
        // A sequence engineered so order matters: left-to-right the 1.0
        // is absorbed into 1e16 and the total is 0.0, while reversed the
        // big terms cancel first and the 1.0 survives. Agreement with
        // Iterator::sum is therefore evidence of the same fold order,
        // not just the same multiset.
        let xs = [1.0f64, 1e16, -1e16];
        let iter_sum: f64 = xs.iter().sum();
        assert_eq!(sum_f64(&xs).to_bits(), iter_sum.to_bits());
        assert_eq!(sum_f64(&xs), 0.0);
        let rev: f64 = xs.iter().rev().sum();
        assert_eq!(rev, 1.0);
        assert_ne!(sum_f64(&xs).to_bits(), rev.to_bits());
    }

    #[test]
    fn sum_by_applies_the_key() {
        let xs = [1.5, 2.5, 4.0];
        assert_eq!(sum_f64_by(&xs, |x| x * 2.0), 16.0);
    }
}
