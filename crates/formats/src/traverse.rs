//! Fiber-stream traversal: one streaming interface over every format.
//!
//! The paper's central claim is that a sparse tensor accelerator should
//! consume operands in *any* compression format (Fig. 3). The natural unit
//! of consumption is the **fiber** — Fig. 3's terminology for a
//! one-dimensional slice of the operand holding all stored elements that
//! share their remaining coordinates. For a matrix streamed row-major, a
//! fiber is one compressed row (`row_id`, the sorted column ids, and the
//! stored values); for a 3-D tensor it is one `(x, y)` mode-z fiber —
//! exactly the runs CSF's tree levels point at (Fig. 3b) and the order the
//! paper's Algorithm 1 consumes nonzeros in.
//!
//! [`RowMajorStream`] and [`FiberStream3`] expose that traversal uniformly:
//! every matrix format can push its fibers row-major, and every 3-D tensor
//! format can push its mode-z fibers x-major, regardless of how the bits
//! are laid out. Formats whose storage *is* fiber-shaped (CSR's rows, COO's
//! sorted runs, CSF's level-2 slices, ZVC's packed per-row values) stream
//! zero-copy; padded or transposed layouts (BSR, ELL, DIA, CSC, RLC, Dense)
//! assemble each fiber in scratch borrowed from a [`StreamArena`] as they
//! walk their native structure — no COO hub round-trip, no format
//! conversion, and (once the arena is warm) no heap allocation.
//!
//! The 3-D ZVC and RLC tensors are linearized matrices: the mode-z fiber
//! keyed `x * dim_y + y` is row `x * dim_y + y` of a `(dim_x * dim_y) ×
//! dim_z` [`ZvcMatrix`] / [`RlcMatrix`], so their fiber walk is that
//! matrix's row walk with each row id split back into `(x, y)`. The
//! matrix walks in turn run the crate's one `Bitmask` set-bit walk and
//! `RunLength` position decoder.
//!
//! Kernels written against these traits run unchanged over every format
//! (see `sparseflex-kernels`' format-generic `spmv`/`spmm`/`spgemm`/
//! `mttkrp`/`spttm`), which is the software analogue of the paper's
//! flexible-ACF accelerator: implement one traversal per format, get every
//! kernel for free.
//!
//! # Scratch discipline
//!
//! Every walk draws scratch from a `&mut StreamArena`; the arena-less
//! methods are provided wrappers that build a fresh (heap-free) arena
//! per call for one-shot callers. Hot loops — the tile pipeline, kernel
//! dispatchers, benches — thread one arena through every traversal so
//! scratch-hungry formats (CSC's counting-sort transpose, HiCOO's
//! re-sort, ELL/DIA/BSR fiber assembly) reach a zero-allocation steady
//! state. See
//! [`crate::arena`] for the buffer-ownership rules.
//!
//! # Ordering contract
//!
//! Implementations **must** emit exactly the elements their `to_coo()`
//! produces (stored nonzeros only — padding slots and explicit zeros are
//! skipped), grouped into non-empty fibers, with fiber ids strictly
//! ascending and coordinates strictly ascending within each fiber. This
//! makes the stream a drop-in replacement for the COO hub in any
//! order-sensitive consumer (CSR construction, merge-joins, the
//! weight-stationary dataflow). The arena-threaded and arena-less paths
//! must be bit-for-bit identical.
//!
//! # Ranged traversal
//!
//! Every stream also supports a **ranged** walk,
//! `for_each_fiber_range_in`, restricted to a contiguous range of fiber
//! ids and seeking to it through the format's own structure. The
//! contract: concatenating the ranged walks of contiguous ranges that
//! cover the id space, in range order, yields **exactly** the full
//! `for_each_fiber_in` stream — same fibers, same order, same scratch
//! discipline. The ranged walk is the one required method: the provided
//! `for_each_fiber_in` is the ranged walk over the whole id space, and
//! only `CustomMatrix`'s column-major transpose overrides it. Matrix
//! ranges are over row ids `0..rows`; tensor ranges are over the
//! linearized fiber key `x * dim_y + y` in `0..dim_x * dim_y`.

use crate::arena::StreamArena;
use crate::bsr::BsrMatrix;
use crate::coo::CooMatrix;
use crate::csc::CscMatrix;
use crate::csf::CsfTensor;
use crate::csr::CsrMatrix;
use crate::dense::DenseMatrix;
use crate::dia::DiaMatrix;
use crate::ell::{EllMatrix, ELL_PAD};
use crate::formats::{MatrixData, TensorData};
use crate::hicoo::HiCooTensor;
use crate::level::{bitmask, run_length};
use crate::rlc::{RlcMatrix, RlcTensor3};
use crate::tensor::{CooTensor3, DenseTensor3};
use crate::traits::{SparseMatrix, SparseTensor3};
use crate::zvc::{ZvcMatrix, ZvcTensor3};
use crate::Value;
use std::ops::Range;

/// Callback consuming one matrix row fiber: `(row, col_ids, values)`.
pub type RowFiberSink<'a> = dyn FnMut(usize, &[usize], &[Value]) + 'a;

/// Callback consuming one tensor mode-z fiber: `(x, y, z_ids, values)`.
pub type FiberSink3<'a> = dyn FnMut(usize, usize, &[usize], &[Value]) + 'a;

/// First index in `0..n` for which `below` turns false (standard binary
/// search over an implicitly sorted predicate — the index-pair analogue of
/// [`slice::partition_point`] for streams keyed by two parallel arrays).
fn lower_bound(n: usize, below: impl Fn(usize) -> bool) -> usize {
    let (mut lo, mut hi) = (0, n);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if below(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Row-major fiber traversal over any 2-D format.
///
/// One call to [`for_each_fiber_in`](Self::for_each_fiber_in) pushes every
/// stored row fiber `(row, cols, vals)` through the callback, rows
/// ascending and columns ascending within each row — the order the paper's
/// streaming dataflows (Alg. 1, Fig. 6) consume the operand in. Scratch
/// comes from the caller's [`StreamArena`], so repeat traversals allocate
/// nothing; [`for_each_fiber`](Self::for_each_fiber) is the one-shot
/// wrapper. Hub-only consumers that want individual nonzeros can use the
/// derived triple streams [`for_each_nnz_in`](Self::for_each_nnz_in) /
/// [`for_each_nnz`](Self::for_each_nnz) instead.
pub trait RowMajorStream: SparseMatrix {
    /// Push each non-empty row fiber `(row, col_ids, values)` in row-major
    /// order, assembling scratch-built fibers in `arena`. `col_ids` and
    /// `values` are parallel slices (borrowed from the format where the
    /// layout allows, from the arena otherwise) and are only valid for the
    /// duration of the callback. Provided as the ranged walk over every
    /// row.
    fn for_each_fiber_in(&self, arena: &mut StreamArena, emit: &mut RowFiberSink<'_>) {
        self.for_each_fiber_range_in(0..self.rows(), arena, emit);
    }

    /// Ranged walk: [`for_each_fiber_in`](Self::for_each_fiber_in)
    /// restricted to rows in `range` — same fibers, same order, same
    /// scratch discipline, so concatenating the walks of contiguous ranges
    /// covering `0..rows` reproduces the full stream exactly.
    /// Implementations seek to the range using their native
    /// structure (offset `partition_point`, run skip-scan, bitmask rank,
    /// …) rather than filtering the full walk wherever the layout allows.
    fn for_each_fiber_range_in(
        &self,
        range: Range<usize>,
        arena: &mut StreamArena,
        emit: &mut RowFiberSink<'_>,
    );

    /// One-shot wrapper around [`for_each_fiber_in`](Self::for_each_fiber_in)
    /// with a fresh (heap-free until used) arena.
    fn for_each_fiber(&self, emit: &mut RowFiberSink<'_>) {
        self.for_each_fiber_in(&mut StreamArena::new(), emit);
    }

    /// Push individual `(row, col, value)` triples in row-major order — the
    /// nnz stream view of the same traversal — using the caller's arena.
    fn for_each_nnz_in(&self, arena: &mut StreamArena, emit: &mut dyn FnMut(usize, usize, Value)) {
        self.for_each_fiber_in(arena, &mut |r, cols, vals| {
            for (&c, &v) in cols.iter().zip(vals) {
                emit(r, c, v);
            }
        });
    }

    /// One-shot wrapper around [`for_each_nnz_in`](Self::for_each_nnz_in).
    fn for_each_nnz(&self, emit: &mut dyn FnMut(usize, usize, Value)) {
        self.for_each_nnz_in(&mut StreamArena::new(), emit);
    }
}

/// Mode-z fiber traversal over any 3-D tensor format.
///
/// One call to [`for_each_fiber_in`](Self::for_each_fiber_in) pushes every
/// non-empty `(x, y)` fiber — the z-direction runs of Fig. 3b that CSF's
/// tree levels index — with `(x, y)` lexicographically ascending and z
/// ascending within each fiber. Scratch comes from the caller's
/// [`StreamArena`]; [`for_each_fiber`](Self::for_each_fiber) is the
/// one-shot wrapper.
pub trait FiberStream3: SparseTensor3 {
    /// Push each non-empty fiber `(x, y, z_ids, values)` in `(x, y)`
    /// lexicographic order, assembling scratch-built fibers in `arena`.
    /// `z_ids` and `values` are parallel slices valid only for the duration
    /// of the callback. Provided as the ranged walk over every fiber key.
    fn for_each_fiber_in(&self, arena: &mut StreamArena, emit: &mut FiberSink3<'_>) {
        self.for_each_fiber_range_in(0..self.dim_x() * self.dim_y(), arena, emit);
    }

    /// Ranged walk over the linearized fiber keys `x * dim_y + y`:
    /// [`for_each_fiber_in`](Self::for_each_fiber_in) restricted to fibers
    /// whose key lies in `range`, seeking via the native structure.
    /// Concatenating the walks of contiguous ranges covering the key space
    /// reproduces the full stream exactly.
    fn for_each_fiber_range_in(
        &self,
        range: Range<usize>,
        arena: &mut StreamArena,
        emit: &mut FiberSink3<'_>,
    );

    /// One-shot wrapper around [`for_each_fiber_in`](Self::for_each_fiber_in)
    /// with a fresh (heap-free until used) arena.
    fn for_each_fiber(&self, emit: &mut FiberSink3<'_>) {
        self.for_each_fiber_in(&mut StreamArena::new(), emit);
    }

    /// Push individual `(x, y, z, value)` quads in x-major order using the
    /// caller's arena.
    fn for_each_nnz_in(
        &self,
        arena: &mut StreamArena,
        emit: &mut dyn FnMut(usize, usize, usize, Value),
    ) {
        self.for_each_fiber_in(arena, &mut |x, y, zs, vals| {
            for (&z, &v) in zs.iter().zip(vals) {
                emit(x, y, z, v);
            }
        });
    }

    /// One-shot wrapper around [`for_each_nnz_in`](Self::for_each_nnz_in).
    fn for_each_nnz(&self, emit: &mut dyn FnMut(usize, usize, usize, Value)) {
        self.for_each_nnz_in(&mut StreamArena::new(), emit);
    }
}

// ---------------------------------------------------------------------------
// Matrix implementations
// ---------------------------------------------------------------------------

impl RowMajorStream for CsrMatrix {
    /// Zero-copy: CSR rows *are* fibers. The arena is untouched.
    fn for_each_fiber_range_in(
        &self,
        range: Range<usize>,
        _arena: &mut StreamArena,
        emit: &mut RowFiberSink<'_>,
    ) {
        for r in range.start..range.end.min(self.rows()) {
            let (cols, vals) = self.row(r);
            if !cols.is_empty() {
                emit(r, cols, vals);
            }
        }
    }
}

impl RowMajorStream for CooMatrix {
    /// Zero-copy: the hub arrays are row-major sorted, so each row's
    /// entries form a contiguous run. The arena is untouched.
    ///
    /// Seeks the element window with two `partition_point`s on the sorted
    /// row ids, then run-scans only that window.
    fn for_each_fiber_range_in(
        &self,
        range: Range<usize>,
        _arena: &mut StreamArena,
        emit: &mut RowFiberSink<'_>,
    ) {
        let rids = self.row_ids();
        let mut s = rids.partition_point(|&r| r < range.start);
        let stop = rids.partition_point(|&r| r < range.end);
        while s < stop {
            let r = rids[s];
            let mut e = s + 1;
            while e < stop && rids[e] == r {
                e += 1;
            }
            emit(r, &self.col_ids()[s..e], &self.values()[s..e]);
            s = e;
        }
    }

    fn for_each_nnz_in(&self, _arena: &mut StreamArena, emit: &mut dyn FnMut(usize, usize, Value)) {
        for (r, c, v) in self.iter() {
            emit(r, c, v);
        }
    }
}

impl RowMajorStream for DenseMatrix {
    /// Arena-scratch: compacts each dense row's nonzeros into one fiber
    /// (the stream equivalent of `to_coo`'s row scan).
    fn for_each_fiber_range_in(
        &self,
        range: Range<usize>,
        arena: &mut StreamArena,
        emit: &mut RowFiberSink<'_>,
    ) {
        let StreamArena { coords, vals, .. } = arena;
        for r in range.start..range.end.min(self.rows()) {
            coords.clear();
            vals.clear();
            for (c, &v) in self.row(r).iter().enumerate() {
                if v != 0.0 {
                    coords.push(c);
                    vals.push(v);
                }
            }
            if !coords.is_empty() {
                emit(r, coords, vals);
            }
        }
    }
}

impl RowMajorStream for CscMatrix {
    /// Arena-scratch counting-sort transpose: one O(nnz) bucketing pass
    /// (the same algorithm MINT's CSC→CSR pipeline runs in hardware,
    /// Fig. 8c), then a zero-copy walk of the transposed runs. Steady
    /// state reuses the arena's `idx_a`/`idx_b`/`coords`/`vals` capacity.
    ///
    /// The counting sort restricted to the row band `range`: the walk
    /// still scans the full column-major index (CSC stores nothing
    /// row-contiguous to seek by), but buckets, scatters, and emits only
    /// the band's rows, so scratch is band-sized and bands are independent.
    fn for_each_fiber_range_in(
        &self,
        range: Range<usize>,
        arena: &mut StreamArena,
        emit: &mut RowFiberSink<'_>,
    ) {
        let rows = self.rows();
        let lo = range.start.min(rows);
        let hi = range.end.min(rows);
        if lo >= hi {
            return;
        }
        let band = hi - lo;
        let StreamArena {
            coords,
            vals,
            idx_a: row_ptr,
            idx_b: next,
            ..
        } = arena;
        row_ptr.clear();
        row_ptr.resize(band + 1, 0);
        for &r in self.row_ids() {
            if r >= lo && r < hi {
                row_ptr[r - lo + 1] += 1;
            }
        }
        for i in 0..band {
            row_ptr[i + 1] += row_ptr[i];
        }
        let band_nnz = row_ptr[band];
        coords.clear();
        coords.resize(band_nnz, 0);
        vals.clear();
        vals.resize(band_nnz, 0.0);
        next.clear();
        next.extend_from_slice(row_ptr);
        // Column-major scan fills each row bucket in ascending column order.
        for (r, c, v) in self.iter_col_major() {
            if r >= lo && r < hi {
                let slot = next[r - lo];
                next[r - lo] += 1;
                coords[slot] = c;
                vals[slot] = v;
            }
        }
        for i in 0..band {
            let (s, e) = (row_ptr[i], row_ptr[i + 1]);
            if s < e {
                emit(lo + i, &coords[s..e], &vals[s..e]);
            }
        }
    }
}

impl RowMajorStream for BsrMatrix {
    /// Arena-scratch: walks each block row once, merging the stored blocks'
    /// local rows (block columns are sorted, so concatenation is already
    /// column-ascending) and skipping padding zeros.
    ///
    /// Clamps the block-row window to `range.start / br_h ..
    /// ceil(range.end / br_h)` via the block offsets, then skips the local
    /// rows outside the range inside the two boundary block rows.
    fn for_each_fiber_range_in(
        &self,
        range: Range<usize>,
        arena: &mut StreamArena,
        emit: &mut RowFiberSink<'_>,
    ) {
        let (br_h, bc_w) = self.block_shape();
        let lo = range.start.min(self.rows());
        let hi = range.end.min(self.rows());
        if lo >= hi || br_h == 0 {
            return;
        }
        let StreamArena { coords, vals, .. } = arena;
        for br in lo / br_h..hi.div_ceil(br_h).min(self.num_block_rows()) {
            for lr in 0..br_h {
                let r = br * br_h + lr;
                if r >= hi {
                    break;
                }
                if r < lo {
                    continue;
                }
                coords.clear();
                vals.clear();
                for i in self.row_ptr()[br]..self.row_ptr()[br + 1] {
                    let bc = self.col_ids()[i];
                    let blk = self.block(i);
                    for lc in 0..bc_w {
                        let c = bc * bc_w + lc;
                        if c >= self.cols() {
                            break;
                        }
                        let v = blk[lr * bc_w + lc];
                        if v != 0.0 {
                            coords.push(c);
                            vals.push(v);
                        }
                    }
                }
                if !coords.is_empty() {
                    emit(r, coords, vals);
                }
            }
        }
    }
}

impl RowMajorStream for EllMatrix {
    /// Arena-scratch, single pass: sentinel slots and explicit zeros are
    /// dropped *while* scanning the padded row (not filtered from a
    /// materialized copy), and sortedness is detected on the fly — rows
    /// whose stored slots are already column-ascending (the common case
    /// for encoder-produced ELL) emit directly; only genuinely unsorted
    /// builder-supplied rows pay the re-sort through `pairs`.
    fn for_each_fiber_range_in(
        &self,
        range: Range<usize>,
        arena: &mut StreamArena,
        emit: &mut RowFiberSink<'_>,
    ) {
        let StreamArena {
            coords,
            vals,
            pairs,
            ..
        } = arena;
        for r in range.start..range.end.min(self.rows()) {
            let (cs, vs) = self.row(r);
            coords.clear();
            vals.clear();
            let mut sorted = true;
            for (&c, &v) in cs.iter().zip(vs) {
                if c != ELL_PAD && v != 0.0 {
                    if let Some(&last) = coords.last() {
                        sorted &= last < c;
                    }
                    coords.push(c);
                    vals.push(v);
                }
            }
            if coords.is_empty() {
                continue;
            }
            if !sorted {
                pairs.clear();
                pairs.extend(coords.iter().copied().zip(vals.iter().copied()));
                pairs.sort_unstable_by_key(|&(c, _)| c);
                coords.clear();
                vals.clear();
                for &(c, v) in pairs.iter() {
                    coords.push(c);
                    vals.push(v);
                }
            }
            emit(r, coords, vals);
        }
    }
}

impl RowMajorStream for DiaMatrix {
    /// Arena-scratch: per row, the sorted diagonal offsets yield columns in
    /// ascending order directly (`col = row + offset`). The valid offset
    /// window `0 <= row + k < cols` is located by binary search over the
    /// sorted offsets, so out-of-bounds strip slots are never visited;
    /// padding zeros inside the window are skipped during the scan.
    fn for_each_fiber_range_in(
        &self,
        range: Range<usize>,
        arena: &mut StreamArena,
        emit: &mut RowFiberSink<'_>,
    ) {
        let (rows, cols_n) = (self.rows(), self.cols());
        let offsets = self.offsets();
        let StreamArena { coords, vals, .. } = arena;
        for r in range.start..range.end.min(rows) {
            coords.clear();
            vals.clear();
            let lo = offsets.partition_point(|&k| r as isize + k < 0);
            let hi = offsets.partition_point(|&k| r as isize + k < cols_n as isize);
            for (i, &k) in offsets[lo..hi].iter().enumerate() {
                let v = self.data()[(lo + i) * rows + r];
                if v != 0.0 {
                    coords.push((r as isize + k) as usize);
                    vals.push(v);
                }
            }
            if !coords.is_empty() {
                emit(r, coords, vals);
            }
        }
    }
}

impl RowMajorStream for RlcMatrix {
    /// Native stream: decodes the run-length entries in flat order (which
    /// is row-major by construction), batching each row into one fiber in
    /// arena scratch.
    ///
    /// Skip-scan: the decoder yields positions only (no fiber assembly)
    /// until it reaches the range, and the walk stops at the first
    /// position past it — runs are strictly position-ascending.
    fn for_each_fiber_range_in(
        &self,
        range: Range<usize>,
        arena: &mut StreamArena,
        emit: &mut RowFiberSink<'_>,
    ) {
        let cols_n = self.cols();
        if cols_n == 0 {
            return;
        }
        let lo_pos = range.start as u64 * cols_n as u64;
        let hi_pos = range.end.min(self.rows()) as u64 * cols_n as u64;
        let mut cur_row = usize::MAX;
        let StreamArena { coords, vals, .. } = arena;
        coords.clear();
        vals.clear();
        for (pos, v) in run_length::decode(self.entries()) {
            if pos >= hi_pos {
                break;
            }
            if pos < lo_pos {
                continue;
            }
            let r = (pos as usize) / cols_n;
            if r != cur_row {
                if !coords.is_empty() {
                    emit(cur_row, coords, vals);
                    coords.clear();
                    vals.clear();
                }
                cur_row = r;
            }
            coords.push((pos as usize) % cols_n);
            vals.push(v);
        }
        if !coords.is_empty() {
            emit(cur_row, coords, vals);
        }
    }
}

impl RowMajorStream for ZvcMatrix {
    /// Half zero-copy: values are packed row-major, so each row's values
    /// form a contiguous slice; only the column ids are decoded from the
    /// bitmask into arena scratch.
    ///
    /// Seeks the packed-value cursor with one rank query (popcount of the
    /// mask words before the range), then walks each row's set bits a
    /// word at a time.
    fn for_each_fiber_range_in(
        &self,
        range: Range<usize>,
        arena: &mut StreamArena,
        emit: &mut RowFiberSink<'_>,
    ) {
        let (rows, cols_n) = (self.rows(), self.cols());
        let lo = range.start.min(rows);
        let hi = range.end.min(rows);
        let coords = &mut arena.coords;
        let mut vi = self.rank(lo * cols_n);
        for r in lo..hi {
            let base = r * cols_n;
            coords.clear();
            bitmask::for_each_set(self.mask(), base..base + cols_n, |p| coords.push(p - base));
            if !coords.is_empty() {
                emit(r, coords, &self.values()[vi..vi + coords.len()]);
                vi += coords.len();
            }
        }
    }
}

impl RowMajorStream for MatrixData {
    fn for_each_fiber_range_in(
        &self,
        range: Range<usize>,
        arena: &mut StreamArena,
        emit: &mut RowFiberSink<'_>,
    ) {
        self.row_stream()
            .for_each_fiber_range_in(range, arena, emit);
    }
    fn for_each_nnz_in(&self, arena: &mut StreamArena, emit: &mut dyn FnMut(usize, usize, Value)) {
        self.row_stream().for_each_nnz_in(arena, emit);
    }
}

impl MatrixData {
    /// Borrow the payload as a row-major fiber stream — the format-agnostic
    /// traversal every generic kernel consumes.
    pub fn row_stream(&self) -> &dyn RowMajorStream {
        match self {
            MatrixData::Dense(m) => m,
            MatrixData::Coo(m) => m,
            MatrixData::Csr(m) => m,
            MatrixData::Csc(m) => m,
            MatrixData::Bsr(m) => m,
            MatrixData::Dia(m) => m,
            MatrixData::Ell(m) => m,
            MatrixData::Rlc(m) => m,
            MatrixData::Zvc(m) => m,
        }
    }
}

// ---------------------------------------------------------------------------
// Tensor implementations
// ---------------------------------------------------------------------------

impl FiberStream3 for CooTensor3 {
    /// Zero-copy: the hub arrays are x-major sorted, so each `(x, y)`
    /// fiber's entries form a contiguous run. The arena is untouched.
    ///
    /// Seek: binary-search the sorted hub keys for the range window, then
    /// run-scan only that window.
    fn for_each_fiber_range_in(
        &self,
        range: Range<usize>,
        arena: &mut StreamArena,
        emit: &mut FiberSink3<'_>,
    ) {
        let _ = arena;
        let dy = self.dim_y();
        let (xs, ys) = (self.x_ids(), self.y_ids());
        let key = |i: usize| xs[i] * dy + ys[i];
        let mut s = lower_bound(xs.len(), |i| key(i) < range.start);
        let stop = lower_bound(xs.len(), |i| key(i) < range.end);
        while s < stop {
            let (x, y) = (xs[s], ys[s]);
            let mut e = s + 1;
            while e < stop && xs[e] == x && ys[e] == y {
                e += 1;
            }
            emit(x, y, &self.z_ids()[s..e], &self.values()[s..e]);
            s = e;
        }
    }

    fn for_each_nnz_in(
        &self,
        _arena: &mut StreamArena,
        emit: &mut dyn FnMut(usize, usize, usize, Value),
    ) {
        for (x, y, z, v) in self.iter() {
            emit(x, y, z, v);
        }
    }
}

impl FiberStream3 for CsfTensor {
    /// Zero-copy tree walk: CSF's level-2 slices *are* the fibers — each
    /// `y_ptr` range is one `(x, y)` fiber's z ids and values.
    ///
    /// Seek: the tree walk skips whole x slices entirely outside the key
    /// range and clips the fiber loop at both ends (keys ascend within a
    /// slice because `y_fids` are sorted per slice).
    fn for_each_fiber_range_in(
        &self,
        range: Range<usize>,
        arena: &mut StreamArena,
        emit: &mut FiberSink3<'_>,
    ) {
        let _ = arena;
        let dy = self.dim_y();
        for (si, &x) in self.x_fids().iter().enumerate() {
            if (x + 1) * dy <= range.start {
                continue;
            }
            if x * dy >= range.end {
                break;
            }
            for fi in self.x_ptr()[si]..self.x_ptr()[si + 1] {
                let key = x * dy + self.y_fids()[fi];
                if key < range.start {
                    continue;
                }
                if key >= range.end {
                    break;
                }
                let (s, e) = (self.y_ptr()[fi], self.y_ptr()[fi + 1]);
                if s < e {
                    emit(
                        x,
                        self.y_fids()[fi],
                        &self.z_fids()[s..e],
                        &self.values()[s..e],
                    );
                }
            }
        }
    }
}

impl FiberStream3 for DenseTensor3 {
    /// Arena-scratch: each `(x, y)` run of the flat buffer (z fastest) is
    /// one fiber; zeros are compacted away.
    ///
    /// Direct seek: keys address the flat buffer, so the ranged walk is the
    /// same compaction loop over `range` keys only.
    fn for_each_fiber_range_in(
        &self,
        range: Range<usize>,
        arena: &mut StreamArena,
        emit: &mut FiberSink3<'_>,
    ) {
        let (dx, dy, dz) = (self.dim_x(), self.dim_y(), self.dim_z());
        let StreamArena {
            coords: zs, vals, ..
        } = arena;
        for key in range.start..range.end.min(dx * dy) {
            let (x, y) = (key / dy, key % dy);
            let base = key * dz;
            zs.clear();
            vals.clear();
            for (z, &v) in self.data()[base..base + dz].iter().enumerate() {
                if v != 0.0 {
                    zs.push(z);
                    vals.push(v);
                }
            }
            if !zs.is_empty() {
                emit(x, y, zs, vals);
            }
        }
    }
}

impl FiberStream3 for HiCooTensor {
    /// Arena sort: HiCOO clusters nonzeros by spatial block, so one
    /// `(x, y)` fiber may be split across blocks; the walk decodes the
    /// block-relative coordinates into the arena's `quads` and re-sorts
    /// them x-major once (O(nnz log nnz)) before emitting fibers.
    ///
    /// Block filter: only quads whose fiber key falls in `range` enter the
    /// arena sort, so a ranged walk sorts just its share of the nonzeros.
    fn for_each_fiber_range_in(
        &self,
        range: Range<usize>,
        arena: &mut StreamArena,
        emit: &mut FiberSink3<'_>,
    ) {
        let dy = self.dim_y();
        let StreamArena {
            coords: zs,
            vals,
            quads,
            ..
        } = arena;
        quads.clear();
        quads.extend(self.iter().filter(|&(x, y, _, _)| {
            let key = x * dy + y;
            key >= range.start && key < range.end
        }));
        quads.sort_unstable_by_key(|&(x, y, z, _)| (x, y, z));
        let mut s = 0;
        while s < quads.len() {
            let (x, y) = (quads[s].0, quads[s].1);
            zs.clear();
            vals.clear();
            let mut e = s;
            while e < quads.len() && quads[e].0 == x && quads[e].1 == y {
                zs.push(quads[e].2);
                vals.push(quads[e].3);
                e += 1;
            }
            emit(x, y, zs, vals);
            s = e;
        }
    }
}

impl FiberStream3 for RlcTensor3 {
    /// The fiber matrix's ranged row walk (its row ids are the fiber
    /// keys).
    fn for_each_fiber_range_in(
        &self,
        range: Range<usize>,
        arena: &mut StreamArena,
        emit: &mut FiberSink3<'_>,
    ) {
        linearized_fiber_walk(self.fibers(), self.dim_y(), range, arena, emit);
    }
}

impl FiberStream3 for ZvcTensor3 {
    /// The fiber matrix's ranged row walk (its row ids are the fiber
    /// keys).
    fn for_each_fiber_range_in(
        &self,
        range: Range<usize>,
        arena: &mut StreamArena,
        emit: &mut FiberSink3<'_>,
    ) {
        linearized_fiber_walk(self.fibers(), self.dim_y(), range, arena, emit);
    }
}

/// Walk a tensor stored as the `(dx·dy) × dz` matrix of its mode-z
/// fibers: the matrix's ranged row walk, each row id `k` split into the
/// fiber coordinates `(k / dy, k % dy)`.
fn linearized_fiber_walk(
    fibers: &impl RowMajorStream,
    dy: usize,
    range: Range<usize>,
    arena: &mut StreamArena,
    emit: &mut FiberSink3<'_>,
) {
    fibers.for_each_fiber_range_in(range, arena, &mut |k, zs, vals| {
        emit(k / dy, k % dy, zs, vals)
    });
}

impl FiberStream3 for TensorData {
    fn for_each_fiber_range_in(
        &self,
        range: Range<usize>,
        arena: &mut StreamArena,
        emit: &mut FiberSink3<'_>,
    ) {
        self.fiber_stream()
            .for_each_fiber_range_in(range, arena, emit);
    }
    fn for_each_nnz_in(
        &self,
        arena: &mut StreamArena,
        emit: &mut dyn FnMut(usize, usize, usize, Value),
    ) {
        self.fiber_stream().for_each_nnz_in(arena, emit);
    }
}

impl TensorData {
    /// Borrow the payload as a mode-z fiber stream — the format-agnostic
    /// traversal the generic tensor kernels consume.
    pub fn fiber_stream(&self) -> &dyn FiberStream3 {
        match self {
            TensorData::Dense(t) => t,
            TensorData::Coo(t) => t,
            TensorData::Csf(t) => t,
            TensorData::HiCoo(t) => t,
            TensorData::Rlc(t) => t,
            TensorData::Zvc(t) => t,
        }
    }
}

// ---------------------------------------------------------------------------
// Stream consumers
// ---------------------------------------------------------------------------

/// Materialize any row-major stream as CSR in one pass, drawing both the
/// traversal scratch and the output buffers from `arena` — the streaming
/// replacement for the `to_coo()` hub round-trip when a consumer needs
/// random row access (Gustavson SpGEMM, the weight-stationary simulator).
///
/// The output `row_ptr`/`col_ids`/`values` take their capacity from the
/// arena's recycled-CSR pool; return the produced matrix with
/// [`StreamArena::recycle_csr`] when done and repeated conversions (the
/// tile loop in `core::pipeline`) stop allocating once the largest tile
/// has been seen.
pub fn csr_from_stream_in(
    arena: &mut StreamArena,
    rows: usize,
    cols: usize,
    stream: &dyn RowMajorStream,
) -> CsrMatrix {
    let (mut row_ptr, mut col_ids, mut values) = arena.take_csr_buffers();
    row_ptr.reserve(rows + 1);
    row_ptr.push(0usize);
    stream.for_each_fiber_in(arena, &mut |r, cs, vs| {
        while row_ptr.len() <= r {
            row_ptr.push(col_ids.len());
        }
        col_ids.extend_from_slice(cs);
        values.extend_from_slice(vs);
    });
    while row_ptr.len() <= rows {
        row_ptr.push(col_ids.len());
    }
    CsrMatrix::from_parts(rows, cols, row_ptr, col_ids, values)
        .expect("the stream ordering contract yields valid CSR")
}

/// One-shot wrapper around [`csr_from_stream_in`] with a fresh arena.
pub fn csr_from_stream(rows: usize, cols: usize, stream: &dyn RowMajorStream) -> CsrMatrix {
    csr_from_stream_in(&mut StreamArena::new(), rows, cols, stream)
}

/// Borrow the operand's CSR payload when it already is CSR, else
/// materialize one via [`csr_from_stream_in`] — the zero-copy view shared
/// by the kernel dispatchers and the accelerator runtimes. Owned results
/// can be recycled into the arena with [`StreamArena::recycle_csr`].
pub fn csr_cow_in<'a>(
    arena: &mut StreamArena,
    data: &'a MatrixData,
) -> std::borrow::Cow<'a, CsrMatrix> {
    match data {
        MatrixData::Csr(c) => std::borrow::Cow::Borrowed(c),
        other => std::borrow::Cow::Owned(csr_from_stream_in(
            arena,
            other.rows(),
            other.cols(),
            other.row_stream(),
        )),
    }
}

/// One-shot wrapper around [`csr_cow_in`] with a fresh arena.
pub fn csr_cow(data: &MatrixData) -> std::borrow::Cow<'_, CsrMatrix> {
    csr_cow_in(&mut StreamArena::new(), data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formats::{MatrixFormat, TensorFormat};

    fn all_matrix_formats() -> Vec<MatrixFormat> {
        vec![
            MatrixFormat::Dense,
            MatrixFormat::Coo,
            MatrixFormat::Csr,
            MatrixFormat::Csc,
            MatrixFormat::Bsr { br: 2, bc: 2 },
            MatrixFormat::Dia,
            MatrixFormat::Ell,
            MatrixFormat::Rlc { run_bits: 3 },
            MatrixFormat::Zvc,
        ]
    }

    fn all_tensor_formats() -> Vec<TensorFormat> {
        vec![
            TensorFormat::Dense,
            TensorFormat::Coo,
            TensorFormat::Csf,
            TensorFormat::HiCoo { block: 2 },
            TensorFormat::Rlc { run_bits: 3 },
            TensorFormat::Zvc,
        ]
    }

    fn sample_matrix() -> CooMatrix {
        CooMatrix::from_triplets(
            7,
            6,
            vec![
                (0, 0, 1.0),
                (0, 5, 2.0),
                (1, 2, 3.0),
                (3, 0, 4.0),
                (3, 1, 5.0),
                (3, 5, 6.0),
                (6, 3, -7.0),
                (6, 4, 8.0),
            ],
        )
        .unwrap()
    }

    fn sample_tensor() -> CooTensor3 {
        CooTensor3::from_quads(
            4,
            3,
            5,
            vec![
                (0, 0, 0, 1.0),
                (0, 0, 4, 2.0),
                (0, 2, 1, 3.0),
                (2, 1, 0, 4.0),
                (2, 1, 3, -5.0),
                (3, 2, 2, 6.0),
            ],
        )
        .unwrap()
    }

    /// Streaming any format must enumerate exactly `to_coo()`'s triples in
    /// the same order — the core traversal contract.
    #[test]
    fn matrix_streams_match_coo_hub_for_every_format() {
        let coo = sample_matrix();
        for fmt in all_matrix_formats() {
            let data = MatrixData::encode(&coo, &fmt).unwrap();
            let mut streamed: Vec<(usize, usize, Value)> = Vec::new();
            data.for_each_nnz(&mut |r, c, v| streamed.push((r, c, v)));
            let expect: Vec<_> = coo.iter().collect();
            assert_eq!(streamed, expect, "nnz stream mismatch for {fmt}");

            // Fiber view: rows strictly ascending, cols strictly ascending.
            let mut last_row = None;
            data.for_each_fiber(&mut |r, cs, vs| {
                assert!(!cs.is_empty(), "{fmt} emitted an empty fiber");
                assert_eq!(cs.len(), vs.len());
                assert!(last_row.is_none_or(|lr| lr < r), "{fmt} rows not ascending");
                assert!(
                    cs.windows(2).all(|w| w[0] < w[1]),
                    "{fmt} cols not ascending in row {r}"
                );
                assert!(vs.iter().all(|&v| v != 0.0), "{fmt} emitted explicit zero");
                last_row = Some(r);
            });
        }
    }

    /// A shared warm arena must produce exactly the same stream as the
    /// one-shot wrapper, across repeated traversals of different operands.
    #[test]
    fn shared_arena_streams_match_one_shot_streams() {
        let coo = sample_matrix();
        let mut arena = StreamArena::new();
        for _pass in 0..3 {
            for fmt in all_matrix_formats() {
                let data = MatrixData::encode(&coo, &fmt).unwrap();
                let mut one_shot: Vec<(usize, Vec<usize>, Vec<Value>)> = Vec::new();
                data.for_each_fiber(&mut |r, cs, vs| one_shot.push((r, cs.to_vec(), vs.to_vec())));
                let mut warmed: Vec<(usize, Vec<usize>, Vec<Value>)> = Vec::new();
                data.for_each_fiber_in(&mut arena, &mut |r, cs, vs| {
                    warmed.push((r, cs.to_vec(), vs.to_vec()))
                });
                assert_eq!(one_shot, warmed, "arena changed the stream for {fmt}");
            }
        }
        let tco = sample_tensor();
        for fmt in all_tensor_formats() {
            let data = TensorData::encode(&tco, &fmt).unwrap();
            let mut one_shot: Vec<(usize, usize, Vec<usize>, Vec<Value>)> = Vec::new();
            data.for_each_fiber(&mut |x, y, zs, vs| {
                one_shot.push((x, y, zs.to_vec(), vs.to_vec()))
            });
            let mut warmed: Vec<(usize, usize, Vec<usize>, Vec<Value>)> = Vec::new();
            data.for_each_fiber_in(&mut arena, &mut |x, y, zs, vs| {
                warmed.push((x, y, zs.to_vec(), vs.to_vec()))
            });
            assert_eq!(one_shot, warmed, "arena changed the stream for {fmt}");
        }
    }

    #[test]
    fn tensor_streams_match_coo_hub_for_every_format() {
        let coo = sample_tensor();
        for fmt in all_tensor_formats() {
            let data = TensorData::encode(&coo, &fmt).unwrap();
            let mut streamed: Vec<(usize, usize, usize, Value)> = Vec::new();
            data.for_each_nnz(&mut |x, y, z, v| streamed.push((x, y, z, v)));
            let expect: Vec<_> = coo.iter().collect();
            assert_eq!(streamed, expect, "nnz stream mismatch for {fmt}");

            let mut last_fiber = None;
            data.for_each_fiber(&mut |x, y, zs, vs| {
                assert!(!zs.is_empty(), "{fmt} emitted an empty fiber");
                assert_eq!(zs.len(), vs.len());
                assert!(
                    last_fiber.is_none_or(|lf| lf < (x, y)),
                    "{fmt} fibers not ascending"
                );
                assert!(zs.windows(2).all(|w| w[0] < w[1]));
                last_fiber = Some((x, y));
            });
        }
    }

    #[test]
    fn empty_operands_stream_nothing() {
        let coo = CooMatrix::empty(5, 4);
        for fmt in all_matrix_formats() {
            let data = MatrixData::encode(&coo, &fmt).unwrap();
            data.for_each_fiber(&mut |_, _, _| panic!("empty matrix emitted a fiber"));
        }
        let tco = CooTensor3::empty(3, 3, 3);
        for fmt in all_tensor_formats() {
            let data = TensorData::encode(&tco, &fmt).unwrap();
            data.for_each_fiber(&mut |_, _, _, _| panic!("empty tensor emitted a fiber"));
        }
    }

    /// RLC saturating runs insert zero-valued extension entries; the stream
    /// must skip them (they are metadata, not elements).
    #[test]
    fn rlc_extension_entries_are_skipped() {
        let coo = CooMatrix::from_triplets(2, 40, vec![(0, 39, 9.0), (1, 20, 3.0)]).unwrap();
        let data = MatrixData::encode(&coo, &MatrixFormat::Rlc { run_bits: 3 }).unwrap();
        let mut streamed = Vec::new();
        data.for_each_nnz(&mut |r, c, v| streamed.push((r, c, v)));
        assert_eq!(streamed, vec![(0, 39, 9.0), (1, 20, 3.0)]);
    }

    /// ELL rows with builder-supplied out-of-order slots must still stream
    /// column-ascending (the on-the-fly sortedness detection's slow path).
    #[test]
    fn ell_unsorted_slots_are_resorted() {
        use crate::ell::EllMatrix;
        let m = EllMatrix::from_parts(
            2,
            6,
            3,
            vec![5, 0, 2, 1, ELL_PAD, ELL_PAD],
            vec![1.0, 2.0, 3.0, 4.0, 0.0, 0.0],
        )
        .unwrap();
        let mut fibers: Vec<(usize, Vec<usize>, Vec<Value>)> = Vec::new();
        let mut arena = StreamArena::new();
        m.for_each_fiber_in(&mut arena, &mut |r, cs, vs| {
            fibers.push((r, cs.to_vec(), vs.to_vec()))
        });
        assert_eq!(
            fibers,
            vec![
                (0, vec![0, 2, 5], vec![2.0, 3.0, 1.0]),
                (1, vec![1], vec![4.0]),
            ]
        );
    }

    #[test]
    fn csr_from_stream_round_trips_every_format() {
        let coo = sample_matrix();
        for fmt in all_matrix_formats() {
            let data = MatrixData::encode(&coo, &fmt).unwrap();
            let csr = csr_from_stream(data.rows(), data.cols(), data.row_stream());
            assert_eq!(csr, CsrMatrix::from_coo(&coo), "csr_from_stream for {fmt}");
        }
        // Trailing empty rows must still be pointed at.
        let tall = CooMatrix::from_triplets(6, 3, vec![(1, 1, 2.0)]).unwrap();
        let csr = csr_from_stream(6, 3, &tall);
        assert_eq!(csr.row_ptr(), &[0, 0, 1, 1, 1, 1, 1]);
    }

    /// The arena-backed conversion with CSR recycling must keep producing
    /// correct matrices while reusing the recycled capacity.
    #[test]
    fn csr_from_stream_in_recycles_capacity() {
        let coo = sample_matrix();
        let expect = CsrMatrix::from_coo(&coo);
        let mut arena = StreamArena::new();
        for fmt in all_matrix_formats() {
            let data = MatrixData::encode(&coo, &fmt).unwrap();
            let csr = csr_from_stream_in(&mut arena, data.rows(), data.cols(), data.row_stream());
            assert_eq!(csr, expect, "recycled csr_from_stream_in for {fmt}");
            arena.recycle_csr(csr);
        }
    }

    /// A non-cubic HiCOO block assignment splits (x, y) fibers across
    /// blocks; the stream must still emit them merged and ordered.
    #[test]
    fn hicoo_reorders_block_clustered_elements() {
        let coo = CooTensor3::from_quads(
            8,
            8,
            8,
            vec![
                (0, 0, 0, 1.0),
                (0, 0, 7, 2.0), // same fiber, different z-block
                (7, 7, 1, 3.0),
                (0, 7, 0, 4.0),
            ],
        )
        .unwrap();
        let data = TensorData::encode(&coo, &TensorFormat::HiCoo { block: 2 }).unwrap();
        let mut fibers: Vec<(usize, usize, Vec<usize>)> = Vec::new();
        data.for_each_fiber(&mut |x, y, zs, _| fibers.push((x, y, zs.to_vec())));
        assert_eq!(
            fibers,
            vec![(0, 0, vec![0, 7]), (0, 7, vec![0]), (7, 7, vec![1]),]
        );
    }

    /// `parts` contiguous ranges of near-equal length covering `0..units`
    /// (empty ranges included), the fixed cut points the ranged-walk
    /// tests use.
    fn fixed_ranges(units: usize, parts: usize) -> Vec<Range<usize>> {
        (0..parts)
            .map(|p| p * units / parts..(p + 1) * units / parts)
            .collect()
    }

    /// Concatenating the ranged walks of contiguous covering ranges must
    /// reproduce the full fiber stream exactly, for every matrix format
    /// and any number of cut points.
    #[test]
    fn ranged_matrix_walks_concatenate_to_full_stream() {
        let coo = sample_matrix();
        for fmt in all_matrix_formats() {
            let data = MatrixData::encode(&coo, &fmt).unwrap();
            let mut full: Vec<(usize, Vec<usize>, Vec<Value>)> = Vec::new();
            data.for_each_fiber(&mut |r, cs, vs| full.push((r, cs.to_vec(), vs.to_vec())));
            for parts in [1, 2, 3, 5, 16] {
                let mut arena = StreamArena::new();
                let mut cat: Vec<(usize, Vec<usize>, Vec<Value>)> = Vec::new();
                for range in fixed_ranges(data.rows(), parts) {
                    data.for_each_fiber_range_in(range, &mut arena, &mut |r, cs, vs| {
                        cat.push((r, cs.to_vec(), vs.to_vec()))
                    });
                }
                assert_eq!(cat, full, "{fmt} ranged walk diverged at {parts} parts");
            }
        }
    }

    /// Same contract for the tensor formats over linearized fiber keys.
    #[test]
    fn ranged_tensor_walks_concatenate_to_full_stream() {
        let coo = sample_tensor();
        for fmt in all_tensor_formats() {
            let data = TensorData::encode(&coo, &fmt).unwrap();
            let mut full: Vec<(usize, usize, Vec<usize>, Vec<Value>)> = Vec::new();
            data.for_each_fiber(&mut |x, y, zs, vs| full.push((x, y, zs.to_vec(), vs.to_vec())));
            let keys = coo.dim_x() * coo.dim_y();
            for parts in [1, 2, 3, 7, 32] {
                let mut arena = StreamArena::new();
                let mut cat: Vec<(usize, usize, Vec<usize>, Vec<Value>)> = Vec::new();
                for range in fixed_ranges(keys, parts) {
                    data.for_each_fiber_range_in(range, &mut arena, &mut |x, y, zs, vs| {
                        cat.push((x, y, zs.to_vec(), vs.to_vec()))
                    });
                }
                assert_eq!(cat, full, "{fmt} ranged walk diverged at {parts} parts");
            }
        }
    }

    /// An arbitrary (non-partition) sub-range must emit exactly the fibers
    /// whose row / key falls inside it.
    #[test]
    fn arbitrary_ranges_filter_exactly() {
        let coo = sample_matrix();
        for fmt in all_matrix_formats() {
            let data = MatrixData::encode(&coo, &fmt).unwrap();
            let mut full: Vec<(usize, Vec<usize>)> = Vec::new();
            data.for_each_fiber(&mut |r, cs, _| full.push((r, cs.to_vec())));
            let mut arena = StreamArena::new();
            for (lo, hi) in [(0, 1), (2, 5), (3, 4), (6, 7), (0, 7), (5, 5)] {
                let expect: Vec<_> = full
                    .iter()
                    .filter(|(r, _)| *r >= lo && *r < hi)
                    .cloned()
                    .collect();
                let mut got: Vec<(usize, Vec<usize>)> = Vec::new();
                data.for_each_fiber_range_in(lo..hi, &mut arena, &mut |r, cs, _| {
                    got.push((r, cs.to_vec()))
                });
                assert_eq!(got, expect, "{fmt} range {lo}..{hi}");
            }
        }
    }
}
