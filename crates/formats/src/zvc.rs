//! Zero-Value Compression (ZVC) format for matrices and 3-D tensors.
//!
//! ZVC codes one linearized stream: a bitmask over row-major positions
//! plus the packed nonzeros. A 3-D tensor's mode-z fiber stream keyed
//! `x·dy + y` is exactly the row-major matrix of shape `(dx·dy, dz)`, so
//! [`ZvcTensor3`] is that [`ZvcMatrix`] — same mask words, same packed
//! values, bit for bit — and delegates everything to it. The mask itself
//! is the crate's one `Bitmask` level.

use crate::coo::CooMatrix;
use crate::error::FormatError;
use crate::level::bitmask;
use crate::tensor::CooTensor3;
use crate::traits::{SparseMatrix, SparseTensor3};
use crate::Value;

/// Zero-value compressed matrix (Fig. 3a, "Zero-value Compression (ZVC)").
///
/// "ZVC stores nonzero elements along with a string of bits to represent
/// each element (a bit value of 1 for a nonzero element and a bit value of
/// 0 for a zero valued element)" (§II). The mask covers the row-major
/// flattened matrix, one bit per logical element, packed into `u64` words.
/// Metadata cost is exactly `rows * cols` bits regardless of sparsity,
/// which is why ZVC wins the mid-density band of Fig. 4a.
#[derive(Debug, Clone, PartialEq)]
pub struct ZvcMatrix {
    rows: usize,
    cols: usize,
    mask: Vec<u64>,
    values: Vec<Value>,
}

impl ZvcMatrix {
    /// Encode from the COO hub.
    pub fn from_coo(coo: &CooMatrix) -> Self {
        let cols = coo.cols();
        Self::from_positions(
            coo.rows(),
            cols,
            coo.iter().map(|(r, c, v)| (r * cols + c, v)),
        )
    }

    /// Encode elements given by strictly ascending row-major flat
    /// positions: the one encoder behind both shapes (the tensor passes
    /// its `(x·dy + y)·dz + z` positions).
    pub(crate) fn from_positions(
        rows: usize,
        cols: usize,
        elements: impl Iterator<Item = (usize, Value)>,
    ) -> Self {
        let mut mask = vec![0u64; bitmask::words(rows * cols)];
        let mut values = Vec::with_capacity(elements.size_hint().0);
        for (flat, v) in elements {
            bitmask::set(&mut mask, flat);
            values.push(v);
        }
        ZvcMatrix {
            rows,
            cols,
            mask,
            values,
        }
    }

    /// Build from a raw mask and packed values (tests / MINT output).
    pub fn from_parts(
        rows: usize,
        cols: usize,
        mask: Vec<u64>,
        values: Vec<Value>,
    ) -> Result<Self, FormatError> {
        bitmask::check(&mask, rows * cols, values.len())?;
        Ok(ZvcMatrix {
            rows,
            cols,
            mask,
            values,
        })
    }

    /// Packed mask words (row-major flat order, LSB first).
    #[inline]
    pub fn mask(&self) -> &[u64] {
        &self.mask
    }

    /// Packed nonzero values in row-major order.
    #[inline]
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Is the bit for flat position `i` set?
    #[inline]
    pub fn bit(&self, i: usize) -> bool {
        bitmask::test(&self.mask, i)
    }

    /// Number of set bits strictly before flat position `i` (rank query;
    /// gives the `values` index of a set position).
    pub fn rank(&self, i: usize) -> usize {
        bitmask::rank(&self.mask, i)
    }
}

impl SparseMatrix for ZvcMatrix {
    fn rows(&self) -> usize {
        self.rows
    }
    fn cols(&self) -> usize {
        self.cols
    }
    fn nnz(&self) -> usize {
        self.values.len()
    }
    fn get(&self, row: usize, col: usize) -> Value {
        let flat = row * self.cols + col;
        if self.bit(flat) {
            self.values[self.rank(flat)]
        } else {
            0.0
        }
    }
    fn to_coo(&self) -> CooMatrix {
        CooMatrix::from_stream(self)
    }
}

/// Zero-value compressed 3-D tensor over the `x -> y -> z` (z fastest)
/// flattened stream (Fig. 3b's ZVC example): the [`ZvcMatrix`] of shape
/// `(dx·dy, dz)` whose row `x·dy + y` is the `(x, y)` mode-z fiber.
#[derive(Debug, Clone, PartialEq)]
pub struct ZvcTensor3 {
    dims: (usize, usize, usize),
    fibers: ZvcMatrix,
}

impl ZvcTensor3 {
    /// Encode from the COO tensor hub.
    pub fn from_coo(coo: &CooTensor3) -> Self {
        let (dx, dy, dz) = coo.shape();
        let positions = coo.iter().map(|(x, y, z, v)| ((x * dy + y) * dz + z, v));
        ZvcTensor3 {
            dims: (dx, dy, dz),
            fibers: ZvcMatrix::from_positions(dx * dy, dz, positions),
        }
    }

    /// Packed mask words.
    #[inline]
    pub fn mask(&self) -> &[u64] {
        self.fibers.mask()
    }

    /// Packed nonzero values.
    #[inline]
    pub fn values(&self) -> &[Value] {
        self.fibers.values()
    }

    /// The `(dx·dy) × dz` matrix of mode-z fibers this tensor is.
    pub(crate) fn fibers(&self) -> &ZvcMatrix {
        &self.fibers
    }
}

impl SparseTensor3 for ZvcTensor3 {
    fn dim_x(&self) -> usize {
        self.dims.0
    }
    fn dim_y(&self) -> usize {
        self.dims.1
    }
    fn dim_z(&self) -> usize {
        self.dims.2
    }
    fn nnz(&self) -> usize {
        self.fibers.nnz()
    }
    fn get(&self, x: usize, y: usize, z: usize) -> Value {
        self.fibers.get(x * self.dims.1 + y, z)
    }
    fn to_coo(&self) -> CooTensor3 {
        CooTensor3::from_fiber_matrix(self.dims.0, self.dims.1, &self.fibers.to_coo())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CooMatrix {
        CooMatrix::from_triplets(
            4,
            4,
            vec![
                (0, 0, 1.0),
                (0, 1, 2.0),
                (1, 0, 3.0),
                (1, 1, 4.0),
                (2, 2, 5.0),
                (3, 3, 6.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn mask_bits_match_fig3a() {
        // Fig. 3a ZVC mask: 1100 1100 0010 0001 over the flat stream.
        let zvc = ZvcMatrix::from_coo(&sample());
        let expected_bits = [
            true, true, false, false, true, true, false, false, false, false, true, false, false,
            false, false, true,
        ];
        for (i, &b) in expected_bits.iter().enumerate() {
            assert_eq!(zvc.bit(i), b, "bit {i}");
        }
        assert_eq!(zvc.values(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn roundtrip() {
        let coo = sample();
        let zvc = ZvcMatrix::from_coo(&coo);
        assert_eq!(zvc.to_coo(), coo);
        assert_eq!(zvc.nnz(), 6);
    }

    #[test]
    fn rank_and_get() {
        let zvc = ZvcMatrix::from_coo(&sample());
        assert_eq!(zvc.rank(0), 0);
        assert_eq!(zvc.rank(5), 3);
        assert_eq!(zvc.get(1, 1), 4.0);
        assert_eq!(zvc.get(3, 0), 0.0);
        assert_eq!(zvc.get(3, 3), 6.0);
    }

    #[test]
    fn large_matrix_crosses_word_boundaries() {
        let triplets: Vec<_> = (0..100)
            .map(|i| (i, (i * 7) % 100, (i + 1) as f64))
            .collect();
        let coo = CooMatrix::from_triplets(100, 100, triplets).unwrap();
        let zvc = ZvcMatrix::from_coo(&coo);
        assert_eq!(zvc.to_coo(), coo);
        assert_eq!(zvc.mask().len(), (100 * 100usize).div_ceil(64));
    }

    #[test]
    fn from_parts_validates() {
        // Wrong number of mask words.
        assert!(ZvcMatrix::from_parts(4, 4, vec![0, 0], vec![]).is_err());
        // Popcount mismatch.
        assert!(ZvcMatrix::from_parts(4, 4, vec![0b11], vec![1.0]).is_err());
        // Tail bits set beyond rows*cols.
        assert!(ZvcMatrix::from_parts(2, 2, vec![1 << 10], vec![1.0]).is_err());
        assert!(ZvcMatrix::from_parts(4, 4, vec![0b11], vec![1.0, 2.0]).is_ok());
    }

    #[test]
    fn tensor_roundtrip() {
        let coo = CooTensor3::from_quads(
            2,
            3,
            4,
            vec![(0, 0, 3, 1.0), (1, 1, 0, 2.0), (1, 2, 3, 3.0)],
        )
        .unwrap();
        let zvc = ZvcTensor3::from_coo(&coo);
        assert_eq!(zvc.to_coo(), coo);
        assert_eq!(zvc.get(1, 1, 0), 2.0);
        assert_eq!(zvc.get(0, 0, 0), 0.0);
        assert_eq!(zvc.nnz(), 3);
    }
}
