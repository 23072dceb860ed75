//! Seeded input generation. Everything the benchmark feeds the program
//! is derived from `--seed` here, with a generator of the benchmark's
//! own, so inputs stay the same when the library's generators change.

use sparseflex_formats::{CooMatrix, CooTensor3, DenseMatrix, Value};
use std::collections::HashSet;

/// SplitMix64: small, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so independent
    /// inputs drawn from one seed do not share a sequence.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (((self.next_u64() >> 11) as u128 * n as u128) >> 53) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A nonzero value: magnitude in `[0.5, 1.5)`, random sign.
    pub fn value(&mut self) -> Value {
        let mag = 0.5 + self.unit();
        if self.next_u64() & 1 == 0 {
            mag
        } else {
            -mag
        }
    }
}

/// `k` distinct sorted indices from `0..total`.
fn distinct(rng: &mut Rng, total: usize, k: usize) -> Vec<usize> {
    assert!(k <= total, "cannot draw {k} distinct of {total}");
    let mut v: Vec<usize> = if k * 2 > total {
        // Dense draw: partial Fisher-Yates over every position.
        let mut all: Vec<usize> = (0..total).collect();
        for i in 0..k {
            let j = i + rng.below(total - i);
            all.swap(i, j);
        }
        all.truncate(k);
        all
    } else {
        let mut seen = HashSet::with_capacity(k);
        let mut out = Vec::with_capacity(k);
        while out.len() < k {
            let f = rng.below(total);
            if seen.insert(f) {
                out.push(f);
            }
        }
        out
    };
    v.sort_unstable();
    v
}

/// A `rows x cols` matrix with exactly `nnz` uniformly placed nonzeros.
pub fn random_matrix(rng: &mut Rng, rows: usize, cols: usize, nnz: usize) -> CooMatrix {
    let triplets = distinct(rng, rows * cols, nnz)
        .into_iter()
        .map(|f| (f / cols, f % cols, rng.value()))
        .collect();
    CooMatrix::from_sorted_triplets(rows, cols, triplets).expect("sorted distinct positions")
}

/// An `n x n` band matrix: `per_row` distinct nonzeros per row, each
/// within `half_width` columns of the diagonal. The band keeps every
/// format's footprint bounded (DIA stores at most `2 * half_width + 1`
/// diagonals) while the gaps inside it keep the structure irregular.
pub fn band_matrix(rng: &mut Rng, n: usize, per_row: usize, half_width: usize) -> CooMatrix {
    let mut triplets = Vec::with_capacity(n * per_row);
    for r in 0..n {
        let lo = r.saturating_sub(half_width);
        let hi = (r + half_width).min(n - 1);
        let k = per_row.min(hi - lo + 1);
        for c in distinct(rng, hi - lo + 1, k) {
            triplets.push((r, lo + c, rng.value()));
        }
    }
    CooMatrix::from_sorted_triplets(n, n, triplets).expect("rows ascend, columns sorted")
}

/// A `dx x dy x dz` tensor with exactly `nnz` uniformly placed nonzeros.
pub fn random_tensor(rng: &mut Rng, (dx, dy, dz): (usize, usize, usize), nnz: usize) -> CooTensor3 {
    let quads = distinct(rng, dx * dy * dz, nnz)
        .into_iter()
        .map(|f| (f / (dy * dz), (f / dz) % dy, f % dz, rng.value()))
        .collect();
    CooTensor3::from_quads(dx, dy, dz, quads).expect("in-bounds positions")
}

/// A fully dense `rows x cols` matrix.
pub fn dense_matrix(rng: &mut Rng, rows: usize, cols: usize) -> DenseMatrix {
    let data = (0..rows * cols).map(|_| rng.value()).collect();
    DenseMatrix::from_vec(rows, cols, data).expect("length matches")
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparseflex_formats::{SparseMatrix, SparseTensor3};

    #[test]
    fn draws_are_distinct_sorted_and_exact() {
        let mut rng = Rng::new(7, 0);
        for (total, k) in [(10, 0), (10, 10), (100, 3), (100, 80), (5000, 400)] {
            let v = distinct(&mut rng, total, k);
            assert_eq!(v.len(), k);
            assert!(v.windows(2).all(|w| w[0] < w[1]));
            assert!(v.iter().all(|&i| i < total));
        }
    }

    #[test]
    fn shapes_and_counts_hold() {
        let mut rng = Rng::new(3, 1);
        assert_eq!(random_matrix(&mut rng, 20, 30, 57).nnz(), 57);
        let band = band_matrix(&mut rng, 64, 4, 6);
        assert_eq!(band.nnz(), 64 * 4);
        assert!(band.iter().all(|(r, c, _)| r.abs_diff(c) <= 6));
        assert_eq!(random_tensor(&mut rng, (4, 5, 6), 33).nnz(), 33);
    }
}
