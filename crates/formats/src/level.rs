//! Level kinds written once.
//!
//! A [`Level`](crate::descriptor::Level) names how one rank of a format
//! is stored. Following *Format Abstraction for Sparse Tensor Algebra
//! Compilers*, each level kind is a small set of operations — build,
//! locate, iterate — and this module implements them once per kind for
//! every container that stores a rank that way:
//!
//! - [`bitmask`]: one bit per position, packed LSB first into `u64`
//!   words. ZVC's flat mask, and `CustomMatrix`'s outer presence mask and
//!   per-fiber inner masks.
//! - [`run_length`]: `(zero run, value)` entries whose runs saturate at
//!   the field width. RLC's flat stream, and `CustomMatrix`'s per-fiber
//!   runs.
//!
//! The 3-D ZVC and RLC containers reach these through their matrix twins
//! (a tensor's mode-z fiber stream is a `(x·y) × z` matrix).

/// The `Bitmask` level over a packed `u64` word slice.
pub(crate) mod bitmask {
    use crate::error::FormatError;
    use std::ops::Range;

    /// Words needed to hold `len` positions.
    #[inline]
    pub(crate) fn words(len: usize) -> usize {
        len.div_ceil(64)
    }

    /// Set the bit of position `i`.
    #[inline]
    pub(crate) fn set(mask: &mut [u64], i: usize) {
        mask[i / 64] |= 1u64 << (i % 64);
    }

    /// Is the bit of position `i` set?
    #[inline]
    pub(crate) fn test(mask: &[u64], i: usize) -> bool {
        (mask[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Number of set bits strictly before position `i`: the index of a
    /// set position among the stored elements.
    pub(crate) fn rank(mask: &[u64], i: usize) -> usize {
        let word = i / 64;
        let mut count: usize = mask[..word].iter().map(|w| w.count_ones() as usize).sum();
        if !i.is_multiple_of(64) {
            count += (mask[word] & ((1u64 << (i % 64)) - 1)).count_ones() as usize;
        }
        count
    }

    /// Check a mask built outside the encoder: exactly the words for
    /// `len` positions, no bit set past `len`, and one set bit per stored
    /// value.
    pub(crate) fn check(mask: &[u64], len: usize, values: usize) -> Result<(), FormatError> {
        if mask.len() != words(len) {
            return Err(FormatError::LengthMismatch {
                what: "zvc mask words",
                expected: words(len),
                actual: mask.len(),
            });
        }
        if !len.is_multiple_of(64) {
            if let Some(&last) = mask.last() {
                if last >> (len % 64) != 0 {
                    return Err(FormatError::MalformedPointer {
                        what: "zvc mask tail bits set",
                    });
                }
            }
        }
        let popcount: usize = mask.iter().map(|w| w.count_ones() as usize).sum();
        if popcount != values {
            return Err(FormatError::LengthMismatch {
                what: "zvc mask popcount vs values",
                expected: popcount,
                actual: values,
            });
        }
        Ok(())
    }

    /// Visit every set position in `range`, ascending. The walk reads
    /// whole words and jumps between set bits with `trailing_zeros`, so
    /// its cost follows the words and set bits in the range, not its
    /// length in bits.
    #[inline]
    pub(crate) fn for_each_set(mask: &[u64], range: Range<usize>, mut visit: impl FnMut(usize)) {
        let Range { start, end } = range;
        if start >= end {
            return;
        }
        let (first, last) = (start / 64, (end - 1) / 64);
        for (w, &word) in mask[first..=last].iter().enumerate() {
            let w = first + w;
            let mut bits = word;
            if w == first {
                bits &= !0u64 << (start % 64);
            }
            if w == last && !end.is_multiple_of(64) {
                bits &= (1u64 << (end % 64)) - 1;
            }
            while bits != 0 {
                visit(w * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
    }
}

/// The `RunLength` level over [`RlcEntry`](crate::rlc::RlcEntry) lists.
pub(crate) mod run_length {
    use crate::rlc::RlcEntry;
    use crate::Value;

    /// Longest zero run a `run_bits`-wide field holds.
    #[inline]
    pub(crate) fn max_run(run_bits: u32) -> u64 {
        (1u64 << run_bits) - 1
    }

    /// Append the entries coding `elements` (strictly ascending positions
    /// counted from 0) to `entries`. A gap longer than the run field
    /// emits extension entries: a full run followed by a stored zero.
    /// Returns the position after the last element, so the caller can
    /// account for the zeros that trail it.
    pub(crate) fn encode(
        run_bits: u32,
        elements: impl IntoIterator<Item = (usize, Value)>,
        entries: &mut Vec<RlcEntry>,
    ) -> u64 {
        let max_run = max_run(run_bits);
        let mut cursor = 0u64;
        for (pos, value) in elements {
            let pos = pos as u64;
            let mut gap = pos - cursor;
            while gap > max_run {
                entries.push(RlcEntry {
                    zeros: max_run,
                    value: 0.0,
                });
                gap -= max_run + 1;
            }
            entries.push(RlcEntry { zeros: gap, value });
            cursor = pos + 1;
        }
        cursor
    }

    /// The stored elements of an entry list as `(position, value)`,
    /// ascending. Extension entries and stored zeros are skipped: they
    /// are metadata, not elements.
    #[inline]
    pub(crate) fn decode(entries: &[RlcEntry]) -> impl Iterator<Item = (u64, Value)> + '_ {
        let mut cursor = 0u64;
        entries.iter().filter_map(move |e| {
            let pos = cursor + e.zeros;
            cursor = pos + 1;
            (e.value != 0.0).then_some((pos, e.value))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::bitmask;

    /// The per-bit reference the word walk must match.
    fn naive_set_bits(mask: &[u64], range: std::ops::Range<usize>) -> Vec<usize> {
        range.filter(|&i| bitmask::test(mask, i)).collect()
    }

    fn walked(mask: &[u64], range: std::ops::Range<usize>) -> Vec<usize> {
        let mut out = Vec::new();
        bitmask::for_each_set(mask, range, |i| out.push(i));
        out
    }

    /// A mask over `len` positions with a fixed irregular pattern plus
    /// every word-edge bit set.
    fn edge_mask(len: usize) -> Vec<u64> {
        let mut mask = vec![0u64; bitmask::words(len)];
        for i in 0..len {
            if i % 7 == 3 || i % 64 == 0 || i % 64 == 63 || i % 11 == 5 {
                bitmask::set(&mut mask, i);
            }
        }
        mask
    }

    #[test]
    fn set_bit_walk_matches_per_bit_loop_at_word_edges() {
        // 200 is not a multiple of 64; 192 is; 0 is the empty mask.
        for len in [0usize, 1, 63, 64, 65, 130, 192, 200] {
            let mask = edge_mask(len);
            assert_eq!(
                walked(&mask, 0..len),
                naive_set_bits(&mask, 0..len),
                "len {len}"
            );
            let edges: Vec<usize> = [0, 1, 63, 64, 65, 127, 128, 129, len]
                .into_iter()
                .filter(|&e| e <= len)
                .collect();
            for &lo in &edges {
                for &hi in &edges {
                    let got = walked(&mask, lo..hi);
                    assert_eq!(got, naive_set_bits(&mask, lo..hi), "len {len} {lo}..{hi}");
                    if lo >= hi {
                        assert!(got.is_empty(), "empty range {lo}..{hi} visited bits");
                    }
                }
            }
        }
        // All ones: every position of a range is visited exactly once.
        let full = vec![!0u64; 3];
        assert_eq!(walked(&full, 63..129), (63..129).collect::<Vec<_>>());
    }
}
