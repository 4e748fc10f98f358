//! Loop coalescing (OpenMP `collapse` by hand).
//!
//! §2.4 of the paper: "the sawtooth-like performance pattern is a 'modulo
//! effect' which emerges from N not being a multiple of the number of
//! threads. A simple way to remove the pattern is to coalesce several outer
//! loop levels in order to lengthen the OpenMP parallel loop" — and the
//! authors explicitly "corroborate the call for extensions of the OpenMP
//! standard towards more flexible options for parallel execution of loop
//! nests" (OpenMP 3.0's `collapse` arrived later).
//!
//! [`Coalesce2`] provides the index algebra: a flattened iteration space
//! plus decoding back to the original loop indices.

/// Two nested loops `for i in 0..n1 { for j in 0..n2 }` flattened into a
/// single space of `n1 * n2` iterations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Coalesce2 {
    n1: usize,
    n2: usize,
}

impl Coalesce2 {
    /// Creates the flattened space.
    pub fn new(n1: usize, n2: usize) -> Self {
        Coalesce2 { n1, n2 }
    }

    /// Total number of flattened iterations.
    pub fn len(&self) -> usize {
        self.n1 * self.n2
    }

    /// Whether the space is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Decodes a flat index into `(i, j)`.
    #[inline]
    pub fn decode(&self, flat: usize) -> (usize, usize) {
        debug_assert!(flat < self.len());
        (flat / self.n2, flat % self.n2)
    }

    /// Encodes `(i, j)` into the flat index.
    #[inline]
    pub fn encode(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < self.n1 && j < self.n2);
        i * self.n2 + j
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalesce2_round_trip() {
        let c = Coalesce2::new(7, 13);
        assert_eq!(c.len(), 91);
        for flat in 0..c.len() {
            let (i, j) = c.decode(flat);
            assert_eq!(c.encode(i, j), flat);
            assert!(i < 7 && j < 13);
        }
    }

    #[test]
    fn coalesce2_is_row_major() {
        let c = Coalesce2::new(3, 4);
        assert_eq!(c.decode(0), (0, 0));
        assert_eq!(c.decode(3), (0, 3));
        assert_eq!(c.decode(4), (1, 0));
        assert_eq!(c.decode(11), (2, 3));
    }
}
