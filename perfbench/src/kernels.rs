//! `kernels_lib`: the library's per-operation kernels called directly,
//! closed loop from one thread — no service, planner or simulator.
//!
//! Operands come in three size classes (about 128², 1024² and 4096²
//! positions) and are pre-encoded in all 9 matrix and 6 tensor formats
//! during set-up. A *round* calls every operation on every format of
//! every size class a fixed number of times; the counts give each size
//! class a similar share of a round's time, so the median call is a
//! small one (dispatch and spawn overhead) and the 99th percentile a
//! large one (throughput on big operands). A run measures whole rounds.
//!
//! Each (operation, size, format) is first called once untimed and its
//! output compared with a dense reference computed from the COO
//! operands; every timed call is then compared bit for bit with that
//! verified output.

use crate::adapter;
use crate::gen::{band_matrix, dense_matrix, random_tensor, Rng};
use crate::metrics::{self, kernel_metric, traverse_metric, MATRIX_FORMATS, OPS, TENSOR_FORMATS};
use crate::report::{peak_rss_mib, Outcome};
use crate::trace::{median, quantile, Tracer};
use sparseflex_core::BatchJob;
use sparseflex_formats::{
    CooMatrix, CooTensor3, CsrMatrix, DataType, DenseMatrix, DenseTensor3, MatrixData,
    MatrixFormat, SparseMatrix, SparseTensor3, StreamArena, TensorData, TensorFormat, Value,
};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// One operand size class.
#[derive(Debug, Clone, Copy)]
struct Size {
    /// Name used in metric names.
    name: &'static str,
    /// Matrix side.
    n: usize,
    /// Tensor shape with about `n * n` positions.
    tensor: (usize, usize, usize),
}

/// The three size classes.
const SIZES: [Size; 3] = [
    Size {
        name: "small",
        n: 128,
        tensor: (16, 32, 32),
    },
    Size {
        name: "medium",
        n: 1024,
        tensor: (64, 128, 128),
    },
    Size {
        name: "large",
        n: 4096,
        tensor: (256, 256, 256),
    },
];

/// Nonzeros per matrix row; tensors get `n * PER_ROW` nonzeros in all.
const PER_ROW: usize = 16;
/// Half width of the matrix band.
const HALF_WIDTH: usize = 64;
/// Columns of the dense factors.
const RANK: usize = 16;
/// Calls per format per round, by size class and operation (in
/// [`OPS`] order), chosen so each size class takes a similar share of a
/// round on a 2-core host.
const CALLS: [[usize; 5]; 3] = [
    [320, 160, 64, 160, 160],
    [20, 10, 5, 10, 10],
    [1, 1, 1, 1, 1],
];
const SETUP_REPS: usize = 3;

fn matrix_formats() -> [MatrixFormat; 9] {
    [
        MatrixFormat::Dense,
        MatrixFormat::Coo,
        MatrixFormat::Csr,
        MatrixFormat::Csc,
        MatrixFormat::Bsr { br: 4, bc: 4 },
        MatrixFormat::Dia,
        MatrixFormat::Ell,
        MatrixFormat::Rlc { run_bits: 8 },
        MatrixFormat::Zvc,
    ]
}

fn tensor_formats() -> [TensorFormat; 6] {
    [
        TensorFormat::Dense,
        TensorFormat::Coo,
        TensorFormat::Csf,
        TensorFormat::HiCoo { block: 8 },
        TensorFormat::Rlc { run_bits: 8 },
        TensorFormat::Zvc,
    ]
}

/// Generated operands of one size class, in hub (COO) form.
#[derive(Debug, Clone, PartialEq)]
pub struct Raw {
    /// Sparse matrix operand.
    pub a: CooMatrix,
    /// Second sparse matrix (SpGEMM's `B`).
    pub b: CooMatrix,
    /// SpMV vector.
    pub x: Vec<Value>,
    /// SpMM dense `B` (`n x RANK`).
    pub d: DenseMatrix,
    /// Sparse tensor operand.
    pub t: CooTensor3,
    /// MTTKRP `B` (`dim_y x RANK`).
    pub fb: DenseMatrix,
    /// MTTKRP `C` and SpTTM `B` (`dim_z x RANK`).
    pub fc: DenseMatrix,
}

/// Generate every size class's operands from `seed`.
pub fn generate(seed: u64) -> Vec<Raw> {
    SIZES
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut rng = Rng::new(seed, 100 + i as u64);
            let (_, dy, dz) = s.tensor;
            Raw {
                a: band_matrix(&mut rng, s.n, PER_ROW, HALF_WIDTH),
                b: band_matrix(&mut rng, s.n, PER_ROW, HALF_WIDTH),
                x: (0..s.n).map(|_| rng.value()).collect(),
                d: dense_matrix(&mut rng, s.n, RANK),
                t: random_tensor(&mut rng, s.tensor, s.n * PER_ROW),
                fb: dense_matrix(&mut rng, dy, RANK),
                fc: dense_matrix(&mut rng, dz, RANK),
            }
        })
        .collect()
}

/// One size class's operands in every format.
struct Encoded {
    mats: Vec<MatrixData>,
    b_csr: MatrixData,
    tens: Vec<TensorData>,
}

fn encode(raw: &Raw) -> Encoded {
    Encoded {
        mats: matrix_formats()
            .iter()
            .map(|f| MatrixData::encode(&raw.a, f).expect("every format encodes the band"))
            .collect(),
        b_csr: MatrixData::encode(&raw.b, &MatrixFormat::Csr).expect("CSR encodes"),
        tens: tensor_formats()
            .iter()
            .map(|f| TensorData::encode(&raw.t, f).expect("every format encodes the tensor"))
            .collect(),
    }
}

/// A kernel's output.
#[derive(Debug, Clone)]
enum Output {
    Vector(Vec<Value>),
    Matrix(DenseMatrix),
    Sparse(CsrMatrix),
    Tensor(DenseTensor3),
}

fn bits_eq(x: &[Value], y: &[Value]) -> bool {
    x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
}

impl Output {
    fn same_bits(&self, other: &Output) -> bool {
        match (self, other) {
            (Output::Vector(x), Output::Vector(y)) => bits_eq(x, y),
            (Output::Matrix(x), Output::Matrix(y)) => {
                x.cols() == y.cols() && bits_eq(x.data(), y.data())
            }
            (Output::Sparse(x), Output::Sparse(y)) => {
                x.row_ptr() == y.row_ptr()
                    && x.col_ids() == y.col_ids()
                    && bits_eq(x.values(), y.values())
            }
            (Output::Tensor(x), Output::Tensor(y)) => bits_eq(x.data(), y.data()),
            _ => false,
        }
    }
}

/// Dense references, computed straight from the COO operands.
struct Reference {
    spmv: Vec<Value>,
    spmm: Vec<Value>,
    /// SpGEMM output row by row, as `(column, value)` in column order.
    spgemm: Vec<Vec<(usize, Value)>>,
    mttkrp: Vec<Value>,
    spttm: Vec<Value>,
    /// Multiply-adds per call, by operation.
    madds: [u64; 5],
}

fn reference(raw: &Raw) -> Reference {
    let n = raw.a.rows();
    let mut spmv = vec![0.0; n];
    let mut spmm = vec![0.0; n * RANK];
    for (r, c, v) in raw.a.iter() {
        spmv[r] += v * raw.x[c];
        for j in 0..RANK {
            spmm[r * RANK + j] += v * raw.d.row(c)[j];
        }
    }
    let b_rows: Vec<Vec<(usize, Value)>> = {
        let mut rows = vec![Vec::new(); raw.b.rows()];
        for (r, c, v) in raw.b.iter() {
            rows[r].push((c, v));
        }
        rows
    };
    let mut a_rows = vec![Vec::new(); n];
    for (r, k, v) in raw.a.iter() {
        a_rows[r].push((k, v));
    }
    let mut acc = vec![0.0; raw.b.cols()];
    let mut touched = vec![false; raw.b.cols()];
    let mut gemm_madds = 0u64;
    let spgemm = a_rows
        .iter()
        .map(|arow| {
            let mut cols = Vec::new();
            for &(k, v) in arow {
                for &(c, bv) in &b_rows[k] {
                    acc[c] += v * bv;
                    if !std::mem::replace(&mut touched[c], true) {
                        cols.push(c);
                    }
                }
                gemm_madds += b_rows[k].len() as u64;
            }
            cols.sort_unstable();
            cols.iter()
                .map(|&c| {
                    touched[c] = false;
                    (c, std::mem::take(&mut acc[c]))
                })
                .collect()
        })
        .collect();
    let (dx, dy, _) = raw.t.shape();
    let mut mttkrp = vec![0.0; dx * RANK];
    let mut spttm = vec![0.0; dx * dy * RANK];
    for (x, y, z, v) in raw.t.iter() {
        for j in 0..RANK {
            mttkrp[x * RANK + j] += v * raw.fb.row(y)[j] * raw.fc.row(z)[j];
            spttm[(x * dy + y) * RANK + j] += v * raw.fc.row(z)[j];
        }
    }
    let (nnz, tnnz) = (raw.a.nnz() as u64, raw.t.nnz() as u64);
    Reference {
        spmv,
        spmm,
        spgemm,
        mttkrp,
        spttm,
        madds: [
            nnz,
            nnz * RANK as u64,
            gemm_madds,
            tnnz * RANK as u64,
            tnnz * RANK as u64,
        ],
    }
}

fn close(x: &[Value], y: &[Value]) -> bool {
    x.len() == y.len()
        && x.iter()
            .zip(y)
            .all(|(p, q)| (p - q).abs() <= 1e-9 * (1.0 + q.abs()))
}

/// Does `out` of operation `op` match the dense reference?
fn matches_reference(op: usize, out: &Output, r: &Reference) -> bool {
    match (op, out) {
        (0, Output::Vector(y)) => close(y, &r.spmv),
        (1, Output::Matrix(m)) => m.cols() == RANK && close(m.data(), &r.spmm),
        (2, Output::Sparse(m)) => {
            // Scatter both rows densely and compare every touched column.
            let (mut got, mut want) = (vec![0.0; m.cols()], vec![0.0; m.cols()]);
            m.rows() == r.spgemm.len()
                && r.spgemm.iter().enumerate().all(|(i, want_row)| {
                    let (cols, vals) = m.row(i);
                    for (&c, &v) in cols.iter().zip(vals) {
                        got[c] = v;
                    }
                    for &(c, v) in want_row {
                        want[c] = v;
                    }
                    let touched = cols.iter().chain(want_row.iter().map(|(c, _)| c));
                    let ok = touched.clone().all(|&c| close(&[got[c]], &[want[c]]));
                    for &c in touched {
                        got[c] = 0.0;
                        want[c] = 0.0;
                    }
                    ok
                })
        }
        (3, Output::Matrix(m)) => m.cols() == RANK && close(m.data(), &r.mttkrp),
        (4, Output::Tensor(t)) => close(t.data(), &r.spttm),
        _ => false,
    }
}

/// Formats operation `op` runs over.
fn format_count(op: usize) -> usize {
    if op < 3 {
        MATRIX_FORMATS.len()
    } else {
        TENSOR_FORMATS.len()
    }
}

/// Call operation `op` on format `f` of one size class, through the adapter.
fn call(op: usize, f: usize, raw: &Raw, enc: &Encoded) -> Option<Output> {
    match op {
        0 => adapter::spmv(&enc.mats[f], &raw.x).ok().map(Output::Vector),
        1 => adapter::spmm(&enc.mats[f], &raw.d).ok().map(Output::Matrix),
        2 => adapter::spgemm(&enc.mats[f], &enc.b_csr)
            .ok()
            .map(Output::Sparse),
        3 => adapter::mttkrp(&enc.tens[f], &raw.fb, &raw.fc)
            .ok()
            .map(Output::Matrix),
        _ => adapter::spttm(&enc.tens[f], &raw.fc)
            .ok()
            .map(Output::Tensor),
    }
}

const SPAN_NAMES: [&str; 5] = [
    "kernels.spmv",
    "kernels.spmm",
    "kernels.spgemm",
    "kernels.mttkrp",
    "kernels.spttm",
];

/// Nanoseconds per stored nonzero of a bare `for_each_fiber_in` walk
/// (warm arena, trivial sink), median over repeated walks.
fn traverse_ns_per_nnz(walk: &mut dyn FnMut(&mut StreamArena) -> usize, nnz: usize) -> f64 {
    let mut arena = StreamArena::new();
    black_box(walk(&mut arena));
    let mut samples = Vec::new();
    let budget = Instant::now();
    while samples.len() < 5
        || (budget.elapsed() < Duration::from_millis(60) && samples.len() < 1000)
    {
        let t = Instant::now();
        black_box(walk(&mut arena));
        samples.push(t.elapsed().as_nanos() as f64 / nnz.max(1) as f64);
    }
    median(&samples)
}

/// Run `kernels_lib` for `seconds` and report its metrics.
pub fn run(seed: u64, seconds: f64, traced: bool, spans_out: Option<&std::path::Path>) -> Outcome {
    let raws = generate(seed);
    let refs: Vec<Reference> = raws.iter().map(reference).collect();
    let mut out = Outcome::default();

    let mut setup_s = Vec::new();
    let mut encoded: Vec<Encoded> = Vec::new();
    for _ in 0..SETUP_REPS {
        encoded.clear();
        let t0 = Instant::now();
        encoded = raws.iter().map(encode).collect();
        setup_s.push(t0.elapsed().as_secs_f64());
    }

    // Untimed verified pass: the first output of every combination.
    let mut first: Vec<Vec<Vec<Option<Output>>>> = Vec::new();
    for (s, (raw, enc)) in raws.iter().zip(&encoded).enumerate() {
        let mut per_op = Vec::new();
        for op in 0..OPS.len() {
            let outs: Vec<Option<Output>> = (0..format_count(op))
                .map(|f| call(op, f, raw, enc).filter(|o| matches_reference(op, o, &refs[s])))
                .collect();
            for o in &outs {
                out.attempt(o.is_some());
            }
            per_op.push(outs);
        }
        first.push(per_op);
    }

    // Timed rounds.
    let mut tr = Tracer::new(traced);
    let mut lat_us: Vec<f64> = Vec::new();
    let mut by_op_size: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); SIZES.len()]; OPS.len()];
    let (mut busy_ns, mut madds, mut rounds) = (0u128, 0u64, 0usize);
    let started = Instant::now();
    let mut call_id = 0u64;
    while rounds == 0 || started.elapsed().as_secs_f64() < seconds {
        for (s, (raw, enc)) in raws.iter().zip(&encoded).enumerate() {
            for op in 0..OPS.len() {
                for (f, want) in first[s][op].iter().enumerate() {
                    for _ in 0..CALLS[s][op] {
                        let t0 = Instant::now();
                        let o = tr.span(SPAN_NAMES[op], call_id, |_| call(op, f, raw, enc));
                        let dt = t0.elapsed();
                        call_id += 1;
                        let ok = match (&o, want) {
                            (Some(o), Some(want)) => o.same_bits(want),
                            _ => false,
                        };
                        out.attempt(ok);
                        busy_ns += dt.as_nanos();
                        madds += refs[s].madds[op];
                        let us = dt.as_secs_f64() * 1e6;
                        lat_us.push(us);
                        by_op_size[op][s].push(us);
                    }
                }
            }
        }
        rounds += 1;
    }
    let busy_s = busy_ns as f64 / 1e9;
    out.notes.push(format!(
        "{rounds} rounds, {} timed calls; matrices band {PER_ROW}/row within +-{HALF_WIDTH}, \
         sides {:?}; tensors {:?}",
        lat_us.len(),
        SIZES.map(|s| s.n),
        SIZES.map(|s| s.tensor)
    ));
    for (s, size) in SIZES.iter().enumerate() {
        let t: f64 = (0..OPS.len())
            .map(|op| by_op_size[op][s].iter().sum::<f64>())
            .sum();
        out.notes.push(format!(
            "{} share of call time: {:.3}",
            size.name,
            t / 1e6 / busy_s
        ));
    }

    let v = |name: String, value: f64, note: &'static str| (name, value, note);
    if !traced {
        // The accelerator-side counterpart of the host kernels: the small
        // SpGEMM pair through the modeled pipeline, untimed.
        let (a, b) = (&raws[0].a, &raws[0].b);
        let w = BatchJob::spgemm(a.clone(), b.clone(), DataType::Fp32).workload;
        let modeled = crate::serve::system()
            .run_pipelined(a, b, &w)
            .map_or(0, |r| r.overlapped_cycles());
        let values = vec![
            v(
                "setup_s".into(),
                median(&setup_s),
                "median of encodings into all 15 formats, 3 sizes",
            ),
            v(
                "ops_per_s".into(),
                lat_us.len() as f64 / busy_s,
                "calls per second of call time",
            ),
            v("latency_p50_us".into(), median(&lat_us), "per call"),
            v(
                "success_share".into(),
                1.0 - out.failed as f64 / out.attempted.max(1) as f64,
                "",
            ),
            v(
                "modeled_cycles".into(),
                modeled as f64,
                "small SpGEMM pair through run_pipelined",
            ),
            v("peak_rss_mib".into(), peak_rss_mib(), ""),
        ];
        metrics::emit(&mut out, false, &values);
        return out;
    }

    if let Some(path) = spans_out {
        if let Err(e) = tr.write(path) {
            out.notes
                .push(format!("could not write spans to {}: {e}", path.display()));
        }
    }
    let mut values = vec![v(
        "latency_p99_us".into(),
        quantile(&lat_us, 0.99),
        "per call",
    )];
    for (op, name) in OPS.iter().enumerate() {
        values.push(v(
            kernel_metric(name, "small"),
            median(&by_op_size[op][0]),
            "all formats",
        ));
        values.push(v(
            kernel_metric(name, "large"),
            median(&by_op_size[op][2]),
            "all formats",
        ));
    }
    values.push(v(
        "kernels.madds_per_s".into(),
        madds as f64 / busy_s,
        "multiply-adds over call time",
    ));
    let (raw, enc) = (&raws[2], &encoded[2]);
    for (f, tag) in MATRIX_FORMATS.iter().enumerate() {
        let m = &enc.mats[f];
        let mut walk = |arena: &mut StreamArena| {
            let mut seen = 0;
            m.row_stream()
                .for_each_fiber_in(arena, &mut |r, _, vals| seen += r + vals.len());
            seen
        };
        values.push(v(
            traverse_metric(tag),
            traverse_ns_per_nnz(&mut walk, raw.a.nnz()),
            "large operand",
        ));
    }
    for (f, tag) in TENSOR_FORMATS.iter().enumerate() {
        let t = &enc.tens[f];
        let mut walk = |arena: &mut StreamArena| {
            let mut seen = 0;
            t.fiber_stream()
                .for_each_fiber_in(arena, &mut |x, y, _, vals| seen += x + y + vals.len());
            seen
        };
        values.push(v(
            traverse_metric(tag),
            traverse_ns_per_nnz(&mut walk, raw.t.nnz()),
            "large operand",
        ));
    }
    metrics::emit(&mut out, true, &values);
    out
}
