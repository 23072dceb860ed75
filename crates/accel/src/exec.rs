//! Cycle-accurate functional execution of the weight-stationary array.
//!
//! [`simulate_ws`] runs `O = A x B` with `B` stationary (one column per
//! PE, tiled) and `A` streaming over the broadcast bus, for every ACF
//! combination of §IV: A in Dense / CSR / COO / CSC against B in Dense /
//! CSC. [`simulate_spgemm`] runs the CSR(A)-CSR(B) Gustavson dataflow
//! (rows of `B` stationary) used by the extreme-sparsity workloads.
//!
//! The simulator is *functional* — it walks every bus beat, performs the
//! index matching the extended PEs do in hardware, and produces the
//! actual output matrix alongside exact cycle counts. Tests validate the
//! output against the software kernels and the cycle counts against the
//! paper's Fig. 6 walkthrough.
//!
//! Host cost scales with the beats and MACs modeled, not with beats x
//! PEs. Two host-side structures get it there, and neither changes the
//! modeled PE semantics or any count:
//!
//! - each k-pass's beats are packed into one flat element buffer with
//!   beat boundaries, allocated once per call and refilled per pass;
//! - CSC stations are indexed k → (PE, value) once per pass, so a
//!   streamed element visits exactly the PEs whose stationary column
//!   holds its k (the match each PE's comparator would report). Dense
//!   stations match every element of the pass, so their MACs are counted
//!   per beat and the outputs swept along B's row.
//!
//! Every output cell still receives its contributions in stream order,
//! so outputs are bit-identical to a per-PE, per-beat walk.

use crate::bus::BusPacking;
use crate::config::AccelConfig;
use crate::energy::{EnergyBreakdown, EnergyModel};
use sparseflex_formats::{
    CscMatrix, CsrMatrix, DenseMatrix, MatrixData, MatrixFormat, SparseMatrix, Value,
};
use std::fmt;
use std::ops::Range;

/// Errors a simulation can raise before running.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// Inner dimensions of A and B disagree.
    DimMismatch {
        /// Columns of A.
        a_cols: usize,
        /// Rows of B.
        b_rows: usize,
    },
    /// The requested ACF pair is not supported by the WS array.
    UnsupportedAcf {
        /// Streaming operand format.
        a: MatrixFormat,
        /// Stationary operand format.
        b: MatrixFormat,
    },
    /// A stationary unit (column or row) cannot fit in a PE buffer even
    /// alone.
    BufferTooSmall {
        /// Slots required by the indivisible unit.
        needed: usize,
        /// Slots available.
        available: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::DimMismatch { a_cols, b_rows } => {
                write!(
                    f,
                    "dimension mismatch: A has {a_cols} cols, B has {b_rows} rows"
                )
            }
            SimError::UnsupportedAcf { a, b } => {
                write!(f, "unsupported ACF pair {a}(A)-{b}(B) on the WS array")
            }
            SimError::BufferTooSmall { needed, available } => {
                write!(
                    f,
                    "stationary unit needs {needed} slots, PE buffer has {available}"
                )
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Cycle totals, split the way Fig. 12 stacks them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CycleBreakdown {
    /// Cycles broadcasting stationary tiles into PE buffers.
    pub load_b: u64,
    /// Cycles streaming matrix A (bus beats x PE stall factor).
    pub stream_a: u64,
    /// Cycles draining output registers to the global buffer.
    pub drain: u64,
}

impl CycleBreakdown {
    /// Total compute-side cycles.
    pub fn total(&self) -> u64 {
        self.load_b + self.stream_a + self.drain
    }
}

/// Activity counters for energy accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ActivityCounts {
    /// MAC lane-operations issued (including zero-operand "wasted" ones).
    pub macs: u64,
    /// MACs where both operands were nonzero (true utilization).
    pub effective_macs: u64,
    /// Element slots moved over the broadcast bus.
    pub bus_slots_used: u64,
    /// PE buffer reads (stationary operand + metadata).
    pub pe_buffer_reads: u64,
    /// PE buffer writes (stationary tile loads).
    pub pe_buffer_writes: u64,
    /// Output-register flushes to the global buffer.
    pub output_flushes: u64,
}

impl ActivityCounts {
    /// PE utilization: effective MACs over issued MACs.
    pub fn utilization(&self) -> f64 {
        if self.macs == 0 {
            0.0
        } else {
            self.effective_macs as f64 / self.macs as f64
        }
    }

    /// On-chip energy (DRAM is accounted separately by the memory model).
    pub fn energy(&self, e: &EnergyModel) -> EnergyBreakdown {
        EnergyBreakdown {
            compute: self.macs as f64 * e.mac_fp32,
            pe_buffer: (self.pe_buffer_reads + self.pe_buffer_writes) as f64 * e.pe_buffer_access,
            global_buffer: self.output_flushes as f64 * e.global_buffer_access,
            noc: self.bus_slots_used as f64 * e.noc_transfer,
            dram: 0.0,
        }
    }
}

/// Result of one simulated kernel execution.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// The computed output matrix (dense accumulation).
    pub output: DenseMatrix,
    /// Cycle breakdown.
    pub cycles: CycleBreakdown,
    /// Activity counters.
    pub counts: ActivityCounts,
    /// Number of stationary column tiles executed.
    pub n_tiles: usize,
    /// Total number of k-range passes across all column tiles.
    pub k_passes: usize,
}

/// One streamed element: `(k, value, row)` — `row` is the output row the
/// element contributes to (for CSC-A streams, `k` is the shared column and
/// the element index is the row).
#[derive(Debug, Clone, Copy)]
struct StreamElem {
    k: usize,
    value: Value,
    row: usize,
}

/// Matrix A resolved once per call into the order its ACF streams it,
/// borrowing the caller's payload wherever that order is already stored.
enum AStream<'a> {
    Dense(&'a DenseMatrix),
    Csr(&'a CsrMatrix),
    /// COO beats pack elements across rows; a CSR view of the (row-major
    /// sorted) triplets gives each row's `[k0, k1)` slice by bisection.
    Coo(CsrMatrix),
    Csc(&'a CscMatrix),
}

impl<'a> AStream<'a> {
    fn new(a: &'a MatrixData) -> Option<Self> {
        match a {
            MatrixData::Dense(d) => Some(AStream::Dense(d)),
            MatrixData::Csr(c) => Some(AStream::Csr(c)),
            MatrixData::Coo(c) => Some(AStream::Coo(CsrMatrix::from_coo(c))),
            MatrixData::Csc(c) => Some(AStream::Csc(c)),
            _ => None,
        }
    }

    /// Column-major streaming changes the output row on every element.
    fn is_col_major(&self) -> bool {
        matches!(self, AStream::Csc(_))
    }

    /// Most elements one pass over `[k0, k1)` can stream.
    fn pass_len_bound(&self, k0: usize, k1: usize) -> usize {
        match self {
            AStream::Dense(d) => d.rows() * (k1 - k0),
            AStream::Csr(c) => c.nnz(),
            AStream::Coo(c) => c.nnz(),
            AStream::Csc(c) => c.nnz(),
        }
    }

    /// Pack the elements with `k in [k0, k1)` into bus beats, following
    /// the per-ACF slot layouts of [`crate::bus`]. Consecutive passes over
    /// the same range (the next tile's, when a tile needs one pass) reuse
    /// the beats already packed.
    fn fill_pass(&self, k0: usize, k1: usize, bus: &BusPacking, beats: &mut PassBeats) {
        if beats.range == Some((k0, k1)) {
            return;
        }
        beats.clear(self.pass_len_bound(k0, k1));
        beats.range = Some((k0, k1));
        match self {
            AStream::Dense(d) => {
                let cap = bus.dense_capacity();
                for r in 0..d.rows() {
                    let row = d.row(r);
                    let mut k = k0;
                    while k < k1 {
                        let end = (k + cap).min(k1);
                        beats.elems.extend((k..end).map(|kk| StreamElem {
                            k: kk,
                            value: row[kk],
                            row: r,
                        }));
                        // Data slots plus one shared row id.
                        beats.close_beat((end - k) as u64 + 1);
                        k = end;
                    }
                }
            }
            AStream::Csr(c) => {
                let cap = bus.pair_capacity();
                for r in 0..c.rows() {
                    let (cols, vals) = in_k_range(c.row(r), k0, k1);
                    for (ks, vs) in cols.chunks(cap).zip(vals.chunks(cap)) {
                        beats
                            .elems
                            .extend(ks.iter().zip(vs).map(|(&k, &value)| StreamElem {
                                k,
                                value,
                                row: r,
                            }));
                        // (data, column id) pairs plus one shared row id.
                        beats.close_beat(2 * ks.len() as u64 + 1);
                    }
                }
            }
            AStream::Coo(c) => {
                // (data, column id, row id) triples; rows mix freely.
                let cap = bus.triple_capacity();
                let mut open = 0usize;
                for r in 0..c.rows() {
                    let (cols, vals) = in_k_range(c.row(r), k0, k1);
                    for (&k, &value) in cols.iter().zip(vals) {
                        beats.elems.push(StreamElem { k, value, row: r });
                        open += 1;
                        if open == cap {
                            beats.close_beat(3 * cap as u64);
                            open = 0;
                        }
                    }
                }
                if open > 0 {
                    beats.close_beat(3 * open as u64);
                }
            }
            AStream::Csc(c) => {
                let cap = bus.pair_capacity();
                for k in k0..k1 {
                    let (rows, vals) = c.col(k);
                    for (rs, vs) in rows.chunks(cap).zip(vals.chunks(cap)) {
                        beats
                            .elems
                            .extend(rs.iter().zip(vs).map(|(&row, &value)| StreamElem {
                                k,
                                value,
                                row,
                            }));
                        // (data, row id) pairs plus one shared column id.
                        beats.close_beat(2 * rs.len() as u64 + 1);
                    }
                }
            }
        }
    }
}

/// The entries of a sorted index list (with its parallel values) whose
/// index lies in `[k0, k1)`.
fn in_k_range<'s>(
    (ks, vs): (&'s [usize], &'s [Value]),
    k0: usize,
    k1: usize,
) -> (&'s [usize], &'s [Value]) {
    let lo = ks.partition_point(|&k| k < k0);
    let hi = lo + ks[lo..].partition_point(|&k| k < k1);
    (&ks[lo..hi], &vs[lo..hi])
}

/// One k-pass of the A stream packed into bus beats: every beat's
/// elements back to back in `elems`, beat `i` ending at `ends[i]`. One
/// instance serves a whole call, cleared and refilled for each pass.
#[derive(Default)]
struct PassBeats {
    elems: Vec<StreamElem>,
    ends: Vec<usize>,
    /// The `[k0, k1)` range packed, once filled.
    range: Option<(usize, usize)>,
    /// Bus slots the pass's beats occupy (data and metadata).
    slots: u64,
}

impl PassBeats {
    /// Empty the buffers, growing them to hold `bound` elements (and as
    /// many beats) so the fill itself never reallocates.
    fn clear(&mut self, bound: usize) {
        self.elems.clear();
        self.ends.clear();
        self.elems.reserve_exact(bound);
        self.ends.reserve_exact(bound);
        self.slots = 0;
    }

    /// Close a beat over the elements pushed since the previous one.
    fn close_beat(&mut self, slots: u64) {
        self.ends.push(self.elems.len());
        self.slots += slots;
    }

    fn iter(&self) -> impl Iterator<Item = &[StreamElem]> + '_ {
        let mut start = 0;
        self.ends.iter().map(move |&end| {
            let beat = &self.elems[start..end];
            start = end;
            beat
        })
    }
}

/// Matrix B as the PEs hold it.
#[derive(Clone, Copy)]
enum Stationary<'a> {
    /// One dense column segment per PE.
    Dense(&'a DenseMatrix),
    /// One compressed column, `(k, value)` pairs, per PE.
    Csc(&'a CscMatrix),
}

impl<'a> Stationary<'a> {
    fn new(b: &'a MatrixData) -> Option<Self> {
        match b {
            MatrixData::Dense(d) => Some(Stationary::Dense(d)),
            MatrixData::Csc(c) => Some(Stationary::Csc(c)),
            _ => None,
        }
    }
}

/// The pass's CSC stations indexed by k: for each `k in [k0, k1)`, the
/// `(PE, value)` pairs holding it, in PE order. A counting sort over the
/// tile's columns builds it once per pass, so each streamed element
/// visits exactly the PEs it matches instead of searching every PE.
#[derive(Default)]
struct KIndex {
    k0: usize,
    /// Bucket `k - k0` is `entries[starts[k - k0]..starts[k - k0 + 1]]`.
    starts: Vec<usize>,
    entries: Vec<(usize, Value)>,
}

impl KIndex {
    /// Index columns `tile` of `csc` over `[k0, k1)`; returns the number
    /// of stationary pairs the pass loads.
    fn rebuild(&mut self, csc: &CscMatrix, tile: Range<usize>, k0: usize, k1: usize) -> usize {
        self.k0 = k0;
        // Counts land two slots past their bucket, so after the prefix
        // sum `starts[b + 1]` is bucket `b`'s fill cursor; once the fill
        // has advanced every cursor, `starts[b]..starts[b + 1]` is the
        // bucket.
        self.starts.clear();
        self.starts.resize(k1 - k0 + 2, 0);
        for j in tile.clone() {
            for &k in in_k_range(csc.col(j), k0, k1).0 {
                self.starts[k - k0 + 2] += 1;
            }
        }
        for i in 1..self.starts.len() {
            self.starts[i] += self.starts[i - 1];
        }
        let total = self.starts[k1 - k0 + 1];
        self.entries.clear();
        self.entries.resize(total, (0, 0.0));
        for (pe, j) in tile.enumerate() {
            let (ks, vs) = in_k_range(csc.col(j), k0, k1);
            for (&k, &v) in ks.iter().zip(vs) {
                let cursor = &mut self.starts[k - k0 + 1];
                self.entries[*cursor] = (pe, v);
                *cursor += 1;
            }
        }
        total
    }

    fn get(&self, k: usize) -> &[(usize, Value)] {
        let b = k - self.k0;
        &self.entries[self.starts[b]..self.starts[b + 1]]
    }
}

/// Per-PE registers while a pass streams against CSC stations.
#[derive(Debug, Clone, Copy)]
struct PeCursor {
    /// Output row the PE's accumulator holds open.
    open_row: Option<usize>,
    /// Beat of the pass that `work` counts.
    beat: usize,
    /// MACs issued in that beat.
    work: u64,
}

impl PeCursor {
    const IDLE: PeCursor = PeCursor {
        open_row: None,
        beat: usize::MAX,
        work: 0,
    };
}

/// The output and counters a simulation accumulates.
struct Tally {
    output: DenseMatrix,
    cycles: CycleBreakdown,
    counts: ActivityCounts,
}

impl Tally {
    fn new(m: usize, n: usize) -> Self {
        Tally {
            output: DenseMatrix::zeros(m, n),
            cycles: CycleBreakdown::default(),
            counts: ActivityCounts::default(),
        }
    }

    /// Account a broadcast load of `slots` stationary element slots.
    fn load(&mut self, bus: &BusPacking, slots: usize) {
        let load = bus.load_run(slots);
        self.cycles.load_b += load.beats;
        self.counts.bus_slots_used += load.slots_used;
        self.counts.pe_buffer_writes += slots as u64;
    }

    /// Output registers drain through per-PE ports into the banked
    /// global buffer (one flush per PE per cycle), not over the shared
    /// input bus.
    fn finish(mut self, num_pes: usize, n_tiles: usize, k_passes: usize) -> SimResult {
        self.cycles.drain = self.counts.output_flushes.div_ceil(num_pes.max(1) as u64);
        SimResult {
            output: self.output,
            cycles: self.cycles,
            counts: self.counts,
            n_tiles,
            k_passes,
        }
    }
}

/// Simulate `O = A x B` on the weight-stationary array.
///
/// Supported ACF pairs: `A in {Dense, CSR, COO, CSC}` x `B in {Dense,
/// CSC}`. For CSR(A)-CSR(B) SpGEMM use [`simulate_spgemm`].
pub fn simulate_ws(
    a: &MatrixData,
    b: &MatrixData,
    cfg: &AccelConfig,
) -> Result<SimResult, SimError> {
    if a.cols() != b.rows() {
        return Err(SimError::DimMismatch {
            a_cols: a.cols(),
            b_rows: b.rows(),
        });
    }
    let unsupported = || SimError::UnsupportedAcf {
        a: a.format(),
        b: b.format(),
    };
    let station = Stationary::new(b).ok_or_else(unsupported)?;
    let stream = AStream::new(a).ok_or_else(unsupported)?;

    let bus = BusPacking {
        slots: cfg.bus_slots,
    };
    let k_dim = a.cols();
    let n = b.cols();
    let p = cfg.num_pes.max(1);
    let lanes = cfg.vector_width as u64;
    let col_major = stream.is_col_major();

    let mut tally = Tally::new(a.rows(), n);
    let mut n_tiles = 0usize;
    let mut k_passes = 0usize;
    let mut beats = PassBeats::default();
    let mut index = KIndex::default();
    let mut pes = vec![PeCursor::IDLE; p.min(n)];

    for tile_start in (0..n).step_by(p) {
        n_tiles += 1;
        let tile = tile_start..(tile_start + cfg.num_pes).min(n);
        // Partition the K dimension into ranges that fit the PE buffers.
        for (k0, k1) in compute_k_ranges(tile.clone(), k_dim, cfg.pe_buffer_elems, station)? {
            k_passes += 1;
            let load_slots = match station {
                Stationary::Dense(_) => tile.len() * (k1 - k0),
                Stationary::Csc(c) => 2 * index.rebuild(c, tile.clone(), k0, k1),
            };
            tally.load(&bus, load_slots);
            stream.fill_pass(k0, k1, &bus, &mut beats);
            match station {
                Stationary::Dense(d) => {
                    stream_dense_pass(&beats, d, tile.clone(), col_major, lanes, &mut tally)
                }
                Stationary::Csc(_) => stream_csc_pass(
                    &beats,
                    &index,
                    tile.start,
                    &mut pes[..tile.len()],
                    col_major,
                    lanes,
                    &mut tally,
                ),
            }
        }
    }
    Ok(tally.finish(cfg.num_pes, n_tiles, k_passes))
}

/// Stream one pass against Dense stations. Every element of the pass
/// lies in its k-range, so it matches every PE of the tile: a beat of
/// `len` elements issues `len` MACs on each PE, and all PEs see the same
/// row sequence, so one open-row register stands for all of them. Each
/// output cell still takes its contributions in stream order.
fn stream_dense_pass(
    beats: &PassBeats,
    b: &DenseMatrix,
    tile: Range<usize>,
    col_major: bool,
    lanes: u64,
    t: &mut Tally,
) {
    let width = tile.len() as u64;
    let n = t.output.cols();
    let mut open_row: Option<usize> = None;
    t.counts.bus_slots_used += beats.slots;
    for beat in beats.iter() {
        let len = beat.len() as u64;
        // The busiest PE issues one MAC per element; a tile without PEs
        // (an array configured with none) issues nothing.
        let busiest = if width == 0 { 0 } else { len };
        t.cycles.stream_a += busiest.div_ceil(lanes).max(1);
        t.counts.macs += len * width;
        t.counts.pe_buffer_reads += len * width;
        for e in beat {
            if col_major {
                t.counts.output_flushes += width;
            } else if open_row != Some(e.row) {
                if open_row.is_some() {
                    t.counts.output_flushes += width;
                }
                open_row = Some(e.row);
            }
            if e.value == 0.0 {
                continue;
            }
            // A zero stationary value adds +0.0, which leaves every cell's
            // bits unchanged: cells start at +0.0, and round-to-nearest
            // addition onto +0.0 never produces -0.0. Adding it keeps the
            // sweep free of data-dependent branches.
            let out = &mut t.output.data_mut()[e.row * n..][tile.clone()];
            let mut effective = 0u64;
            for (o, &bv) in out.iter_mut().zip(&b.row(e.k)[tile.clone()]) {
                let hit = bv != 0.0;
                effective += u64::from(hit);
                *o += if hit { e.value * bv } else { 0.0 };
            }
            t.counts.effective_macs += effective;
        }
    }
    // Close the open accumulators at the end of the pass.
    if !col_major && open_row.is_some() {
        t.counts.output_flushes += width;
    }
}

/// Stream one pass against CSC stations: each element visits the PEs
/// that hold its k, as listed by `index`; PE `i` computes output column
/// `col0 + i`.
fn stream_csc_pass(
    beats: &PassBeats,
    index: &KIndex,
    col0: usize,
    pes: &mut [PeCursor],
    col_major: bool,
    lanes: u64,
    t: &mut Tally,
) {
    pes.fill(PeCursor::IDLE);
    t.counts.bus_slots_used += beats.slots;
    for (bi, beat) in beats.iter().enumerate() {
        let mut max_work = 0u64;
        for e in beat {
            for &(pi, bv) in index.get(e.k) {
                let pe = &mut pes[pi];
                if pe.beat != bi {
                    pe.beat = bi;
                    pe.work = 0;
                }
                pe.work += 1;
                max_work = max_work.max(pe.work);
                t.counts.pe_buffer_reads += 1;
                t.counts.macs += 1;
                if e.value != 0.0 && bv != 0.0 {
                    t.counts.effective_macs += 1;
                    t.output.add_assign(e.row, col0 + pi, e.value * bv);
                }
                if col_major {
                    t.counts.output_flushes += 1;
                } else if pe.open_row != Some(e.row) {
                    if pe.open_row.is_some() {
                        t.counts.output_flushes += 1;
                    }
                    pe.open_row = Some(e.row);
                }
            }
        }
        t.cycles.stream_a += max_work.div_ceil(lanes).max(1);
    }
    // Close the open accumulators at the end of the pass.
    if !col_major {
        t.counts.output_flushes += pes.iter().filter(|pe| pe.open_row.is_some()).count() as u64;
    }
}

/// Compute K-dimension ranges such that every PE's stationary footprint
/// fits its buffer.
fn compute_k_ranges(
    tile: Range<usize>,
    k_dim: usize,
    buffer_elems: usize,
    station: Stationary<'_>,
) -> Result<Vec<(usize, usize)>, SimError> {
    match station {
        Stationary::Dense(_) => {
            // Dense stationary columns: footprint = range length.
            if buffer_elems == 0 {
                return Err(SimError::BufferTooSmall {
                    needed: 1,
                    available: 0,
                });
            }
            let mut ranges = Vec::new();
            let mut k0 = 0;
            while k0 < k_dim {
                let k1 = (k0 + buffer_elems).min(k_dim);
                ranges.push((k0, k1));
                k0 = k1;
            }
            if ranges.is_empty() {
                ranges.push((0, 0));
            }
            Ok(ranges)
        }
        Stationary::Csc(csc) => {
            // Compressed stationary columns: footprint = 2 x entries in
            // range; grow each range greedily until the fullest column
            // would overflow.
            if buffer_elems < 2 {
                return Err(SimError::BufferTooSmall {
                    needed: 2,
                    available: buffer_elems,
                });
            }
            let cap_pairs = buffer_elems / 2;
            // Per-column sorted k lists for the tile.
            let cols_k: Vec<&[usize]> = tile.map(|j| csc.col(j).0).collect();
            let mut ranges = Vec::new();
            let mut k0 = 0usize;
            // Cursor per column into its k list (all start at zero).
            let mut cursors: Vec<usize> = vec![0; cols_k.len()];
            while k0 < k_dim {
                // Find the largest k1 such that every column's entry count
                // in [k0, k1) fits cap_pairs: the limiting column is the
                // one whose (cursor + cap_pairs)-th entry is smallest.
                let mut k1 = k_dim;
                for (ci, ks) in cols_k.iter().enumerate() {
                    let cur = cursors[ci];
                    if cur + cap_pairs < ks.len() {
                        // This column's (cap_pairs+1)-th entry must fall
                        // outside the range.
                        k1 = k1.min(ks[cur + cap_pairs]);
                    }
                }
                if k1 <= k0 {
                    // A single k index overflows a buffer — impossible
                    // since each column holds at most one entry per k.
                    return Err(SimError::BufferTooSmall {
                        needed: 2 * (cap_pairs + 1),
                        available: buffer_elems,
                    });
                }
                ranges.push((k0, k1));
                for (ci, ks) in cols_k.iter().enumerate() {
                    cursors[ci] = ks.partition_point(|&k| k < k1);
                }
                k0 = k1;
            }
            if ranges.is_empty() {
                ranges.push((0, 0));
            }
            Ok(ranges)
        }
    }
}

/// Simulate CSR(A)-CSR(B) SpGEMM with the Gustavson dataflow: rows of `B`
/// are distributed round-robin across PE buffers; each streamed nonzero
/// `A(r, k)` activates the PE holding row `k` of `B`, which multiplies it
/// against that whole compressed row.
pub fn simulate_spgemm(
    a: &CsrMatrix,
    b: &CsrMatrix,
    cfg: &AccelConfig,
) -> Result<SimResult, SimError> {
    if a.cols() != b.rows() {
        return Err(SimError::DimMismatch {
            a_cols: a.cols(),
            b_rows: b.rows(),
        });
    }
    let bus = BusPacking {
        slots: cfg.bus_slots,
    };
    let k_dim = a.cols();
    let p = cfg.num_pes.max(1);

    // Greedy K ranges: add B rows k0..k1 while every PE's footprint
    // (2 slots per stored nonzero of its assigned rows) fits.
    let cap = cfg.pe_buffer_elems;
    let mut k_ranges: Vec<(usize, usize)> = Vec::new();
    {
        let mut k0 = 0usize;
        let mut per_pe = vec![0usize; p];
        let mut k = 0usize;
        while k < k_dim {
            let foot = 2 * b.row_nnz(k);
            if foot > cap {
                return Err(SimError::BufferTooSmall {
                    needed: foot,
                    available: cap,
                });
            }
            let pe = k % p;
            if per_pe[pe] + foot > cap {
                k_ranges.push((k0, k));
                k0 = k;
                per_pe.iter_mut().for_each(|x| *x = 0);
            }
            per_pe[pe] += foot;
            k += 1;
        }
        k_ranges.push((k0, k_dim));
    }

    let mut tally = Tally::new(a.rows(), b.cols());
    // Per-PE MACs of the current beat.
    let mut pe_work = vec![0u64; p];
    for &(k0, k1) in &k_ranges {
        // Load stationary B rows for this range.
        tally.load(&bus, 2 * (b.row_ptr()[k1] - b.row_ptr()[k0]));
        spgemm_pass(
            a,
            b,
            k0,
            k1,
            &bus,
            cfg.vector_width as u64,
            &mut pe_work,
            &mut tally,
        );
    }
    Ok(tally.finish(cfg.num_pes, 1, k_ranges.len()))
}

/// Stream A's nonzeros in `[k0, k1)` as CSR beats against the B rows the
/// PEs hold. `pe_work` is all zeros on entry and on return.
#[allow(clippy::too_many_arguments)]
fn spgemm_pass(
    a: &CsrMatrix,
    b: &CsrMatrix,
    k0: usize,
    k1: usize,
    bus: &BusPacking,
    lanes: u64,
    pe_work: &mut [u64],
    t: &mut Tally,
) {
    let p = pe_work.len();
    let cap = bus.pair_capacity();
    let n = t.output.cols();
    for r in 0..a.rows() {
        let (cols, vals) = in_k_range(a.row(r), k0, k1);
        for (ks, vs) in cols.chunks(cap).zip(vals.chunks(cap)) {
            t.counts.bus_slots_used += 2 * ks.len() as u64 + 1;
            let mut max_work = 0u64;
            for (&k, &v) in ks.iter().zip(vs) {
                let (bcols, bvals) = b.row(k);
                let work = bcols.len() as u64;
                let pe = &mut pe_work[k % p];
                *pe += work;
                max_work = max_work.max(*pe);
                t.counts.macs += work;
                t.counts.effective_macs += work;
                t.counts.pe_buffer_reads += 2 * work; // metadata + value
                t.counts.output_flushes += work; // scatter accumulations
                let out = &mut t.output.data_mut()[r * n..(r + 1) * n];
                for (&j, &bv) in bcols.iter().zip(bvals) {
                    out[j] += v * bv;
                }
            }
            for &k in ks {
                pe_work[k % p] = 0;
            }
            t.cycles.stream_a += max_work.div_ceil(lanes).max(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparseflex_formats::CooMatrix;

    /// The Fig. 6 walkthrough operands.
    /// Matrix A (4x8): A@(0,0), B@(0,2), C@(0,4), H@(3,5).
    fn fig6_a() -> CooMatrix {
        CooMatrix::from_triplets(
            4,
            8,
            vec![(0, 0, 1.0), (0, 2, 2.0), (0, 4, 3.0), (3, 5, 8.0)],
        )
        .unwrap()
    }

    /// Matrix B (8x4): a@(0,0), d@(0,1), b@(2,0), f@(3,2), c@(4,0),
    /// g@(5,2), h@(5,3), e@(7,1).
    fn fig6_b() -> CooMatrix {
        CooMatrix::from_triplets(
            8,
            4,
            vec![
                (0, 0, 1.0),
                (0, 1, 4.0),
                (2, 0, 2.0),
                (3, 2, 6.0),
                (4, 0, 3.0),
                (5, 2, 7.0),
                (5, 3, 8.0),
                (7, 1, 5.0),
            ],
        )
        .unwrap()
    }

    fn encode(coo: &CooMatrix, fmt: MatrixFormat) -> MatrixData {
        MatrixData::encode(coo, &fmt).unwrap()
    }

    fn reference(a: &CooMatrix, b: &CooMatrix) -> DenseMatrix {
        sparseflex_kernels::gemm::gemm_naive(&a.clone().into_dense(), &b.clone().into_dense())
    }

    #[test]
    fn fig6a_dense_dense_takes_8_stream_cycles() {
        let cfg = AccelConfig::walkthrough();
        let a = encode(&fig6_a(), MatrixFormat::Dense);
        let b = encode(&fig6_b(), MatrixFormat::Dense);
        let r = simulate_ws(&a, &b, &cfg).unwrap();
        assert_eq!(r.cycles.stream_a, 8, "Fig. 6a: 8 cycles to send matrix A");
        assert_eq!(r.output, reference(&fig6_a(), &fig6_b()));
    }

    #[test]
    fn fig6b_csr_csc_takes_3_stream_cycles() {
        let cfg = AccelConfig::walkthrough();
        let a = encode(&fig6_a(), MatrixFormat::Csr);
        let b = encode(&fig6_b(), MatrixFormat::Csc);
        let r = simulate_ws(&a, &b, &cfg).unwrap();
        assert_eq!(r.cycles.stream_a, 3, "Fig. 6b: 3 cycles to send matrix A");
        assert_eq!(r.output, reference(&fig6_a(), &fig6_b()));
    }

    #[test]
    fn fig6c_coo_dense_takes_4_stream_cycles() {
        let cfg = AccelConfig::walkthrough();
        let a = encode(&fig6_a(), MatrixFormat::Coo);
        let b = encode(&fig6_b(), MatrixFormat::Dense);
        let r = simulate_ws(&a, &b, &cfg).unwrap();
        assert_eq!(r.cycles.stream_a, 4, "Fig. 6c: 4 cycles to send matrix A");
        assert_eq!(r.output, reference(&fig6_a(), &fig6_b()));
    }

    #[test]
    fn all_acf_pairs_compute_correctly() {
        let cfg = AccelConfig::walkthrough();
        let a_coo = fig6_a();
        let b_coo = fig6_b();
        let expect = reference(&a_coo, &b_coo);
        for a_fmt in [
            MatrixFormat::Dense,
            MatrixFormat::Csr,
            MatrixFormat::Coo,
            MatrixFormat::Csc,
        ] {
            for b_fmt in [MatrixFormat::Dense, MatrixFormat::Csc] {
                let r = simulate_ws(&encode(&a_coo, a_fmt), &encode(&b_coo, b_fmt), &cfg)
                    .unwrap_or_else(|e| panic!("{a_fmt}-{b_fmt}: {e}"));
                assert_eq!(r.output, expect, "wrong output for {a_fmt}(A)-{b_fmt}(B)");
            }
        }
    }

    #[test]
    fn dense_acf_wastes_macs_sparse_acf_does_not() {
        let cfg = AccelConfig::walkthrough();
        let a_coo = fig6_a();
        let b_coo = fig6_b();
        let dense = simulate_ws(
            &encode(&a_coo, MatrixFormat::Dense),
            &encode(&b_coo, MatrixFormat::Dense),
            &cfg,
        )
        .unwrap();
        let sparse = simulate_ws(
            &encode(&a_coo, MatrixFormat::Csr),
            &encode(&b_coo, MatrixFormat::Csc),
            &cfg,
        )
        .unwrap();
        assert!(
            dense.counts.utilization() < 0.2,
            "dense util {}",
            dense.counts.utilization()
        );
        assert_eq!(sparse.counts.utilization(), 1.0);
        assert_eq!(dense.counts.effective_macs, sparse.counts.effective_macs);
    }

    #[test]
    fn tiling_splits_wide_outputs_and_deep_k() {
        // N wider than the PE count and K deeper than the buffer.
        let mut cfg = AccelConfig::walkthrough();
        cfg.num_pes = 2;
        cfg.pe_buffer_elems = 4;
        let a =
            CooMatrix::from_triplets(3, 10, (0..10).map(|k| (k % 3, k, (k + 1) as f64)).collect())
                .unwrap();
        let b = CooMatrix::from_triplets(
            10,
            5,
            (0..10)
                .flat_map(|k| (0..5).map(move |j| (k, j, ((k + j) % 4) as f64 + 1.0)))
                .collect(),
        )
        .unwrap();
        let r = simulate_ws(
            &encode(&a, MatrixFormat::Csr),
            &encode(&b, MatrixFormat::Dense),
            &cfg,
        )
        .unwrap();
        assert_eq!(r.n_tiles, 3); // ceil(5 cols / 2 PEs)
        assert!(r.k_passes >= 3 * 3); // each tile needs ceil(10/4) = 3 passes
        assert_eq!(r.output, reference(&a, &b));
    }

    #[test]
    fn csc_stationary_tiling_by_occupancy() {
        // Stationary CSC columns with very uneven population.
        let mut cfg = AccelConfig::walkthrough();
        cfg.num_pes = 2;
        cfg.pe_buffer_elems = 6; // 3 pairs per PE
        let mut trip = Vec::new();
        for k in 0..12 {
            trip.push((k, 0, 1.0)); // column 0 fully populated
        }
        trip.push((11, 1, 2.0)); // column 1 nearly empty
        let b = CooMatrix::from_triplets(12, 2, trip).unwrap();
        let a = CooMatrix::from_triplets(2, 12, vec![(0, 0, 1.0), (1, 11, 1.0)]).unwrap();
        let r = simulate_ws(
            &encode(&a, MatrixFormat::Csr),
            &encode(&b, MatrixFormat::Csc),
            &cfg,
        )
        .unwrap();
        // Column 0 has 12 entries at 3 pairs per pass -> at least 4 passes.
        assert!(r.k_passes >= 4, "k_passes = {}", r.k_passes);
        assert_eq!(r.output, reference(&a, &b));
    }

    #[test]
    fn spgemm_matches_software() {
        let cfg = AccelConfig::walkthrough();
        let a = CsrMatrix::from_coo(&fig6_a());
        let b = CsrMatrix::from_coo(&fig6_b());
        let r = simulate_spgemm(&a, &b, &cfg).unwrap();
        assert_eq!(r.output, reference(&fig6_a(), &fig6_b()));
        assert_eq!(r.counts.utilization(), 1.0);
    }

    #[test]
    fn spgemm_rejects_oversized_row() {
        let mut cfg = AccelConfig::walkthrough();
        cfg.pe_buffer_elems = 4; // 2 pairs
        let b = CooMatrix::from_triplets(2, 8, (0..8).map(|j| (0, j, 1.0)).collect()).unwrap();
        let a = CooMatrix::from_triplets(1, 2, vec![(0, 0, 1.0)]).unwrap();
        let r = simulate_spgemm(&CsrMatrix::from_coo(&a), &CsrMatrix::from_coo(&b), &cfg);
        assert!(matches!(r, Err(SimError::BufferTooSmall { .. })));
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let cfg = AccelConfig::walkthrough();
        let a = encode(&CooMatrix::empty(2, 3), MatrixFormat::Csr);
        let b = encode(&CooMatrix::empty(4, 2), MatrixFormat::Dense);
        assert!(matches!(
            simulate_ws(&a, &b, &cfg),
            Err(SimError::DimMismatch { .. })
        ));
    }

    #[test]
    fn unsupported_acf_rejected() {
        let cfg = AccelConfig::walkthrough();
        let coo = fig6_a();
        let a = encode(&coo, MatrixFormat::Zvc);
        let b = encode(&fig6_b(), MatrixFormat::Dense);
        assert!(matches!(
            simulate_ws(&a, &b, &cfg),
            Err(SimError::UnsupportedAcf { .. })
        ));
    }

    #[test]
    fn vector_width_limits_beat_throughput() {
        // With one MAC lane, a dense beat of 4 elements takes 4 cycles.
        let mut cfg = AccelConfig::walkthrough();
        cfg.vector_width = 1;
        let a = encode(&fig6_a(), MatrixFormat::Dense);
        let b = encode(&fig6_b(), MatrixFormat::Dense);
        let r = simulate_ws(&a, &b, &cfg).unwrap();
        assert_eq!(r.cycles.stream_a, 8 * 4);
    }

    #[test]
    fn energy_counts_are_consistent() {
        let cfg = AccelConfig::walkthrough();
        let a = encode(&fig6_a(), MatrixFormat::Csr);
        let b = encode(&fig6_b(), MatrixFormat::Csc);
        let r = simulate_ws(&a, &b, &cfg).unwrap();
        let e = r.counts.energy(&EnergyModel::default_28nm());
        assert!(e.total() > 0.0);
        assert_eq!(e.dram, 0.0);
        // Sparse-sparse matching: every MAC read one stationary value.
        assert_eq!(r.counts.pe_buffer_reads, r.counts.macs);
    }
}
