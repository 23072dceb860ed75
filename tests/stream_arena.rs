//! Arena-backed streaming properties — the acceptance suite for the
//! zero-alloc traversal redesign.
//!
//! This test binary installs the counting global allocator from
//! `sparseflex_bench::allocs`, so it can assert the tentpole claim
//! directly: after one warm-up traversal grows the [`StreamArena`] to a
//! format's high-water mark, subsequent traversals of **every** matrix
//! and tensor format perform *zero* heap allocations. Alongside, a
//! proptest pins the semantic half of the contract: the arena-backed
//! stream emits exactly the same fiber sequence as the arena-less
//! convenience path, even when one arena is shared dirty across formats
//! and passes. Both halves also cover the ranged walk
//! (`for_each_fiber_range_in`): walks over fixed cut points concatenate
//! to the full stream, and a warm arena's repeat ranged walk allocates
//! nothing. The zero-allocation check also covers the open descriptor
//! compositions `CustomMatrix` stores, in both rank orders.

use proptest::prelude::*;
use sparseflex::formats::{
    csr_from_stream, csr_from_stream_in, CooMatrix, CooTensor3, CustomMatrix, FormatDescriptor,
    Level, MatrixData, MatrixFormat, RankOrder, RowMajorStream, SparseMatrix, SparseTensor3,
    StreamArena, TensorData, TensorFormat, ValuesLayout,
};
use sparseflex_bench::allocs;
use std::ops::Range;

#[global_allocator]
static ALLOC: allocs::CountingAllocator = allocs::CountingAllocator;

/// Every matrix format variant (block/run parameters exercise ragged
/// edges).
fn matrix_formats() -> Vec<MatrixFormat> {
    vec![
        MatrixFormat::Dense,
        MatrixFormat::Coo,
        MatrixFormat::Csr,
        MatrixFormat::Csc,
        MatrixFormat::Bsr { br: 3, bc: 2 },
        MatrixFormat::Dia,
        MatrixFormat::Ell,
        MatrixFormat::Rlc { run_bits: 3 },
        MatrixFormat::Zvc,
    ]
}

/// Open two-rank compositions, stored by `CustomMatrix`: both outer
/// levels × each inner level it supports, in both rank orders.
fn open_descriptors() -> Vec<FormatDescriptor> {
    let mut out = Vec::new();
    for order in [RankOrder::RowMajor, RankOrder::ColMajor] {
        for outer in [Level::Uncompressed, Level::Bitmask] {
            for inner in [
                Level::Singleton,
                Level::Bitmask,
                Level::RunLength { run_bits: 3 },
            ] {
                out.push(FormatDescriptor::new(
                    order,
                    vec![outer, inner],
                    ValuesLayout::Contiguous,
                ));
            }
        }
    }
    out
}

/// Every tensor format variant.
fn tensor_formats() -> Vec<TensorFormat> {
    vec![
        TensorFormat::Dense,
        TensorFormat::Coo,
        TensorFormat::Csf,
        TensorFormat::HiCoo { block: 2 },
        TensorFormat::Rlc { run_bits: 3 },
        TensorFormat::Zvc,
    ]
}

type MatrixFibers = Vec<(usize, Vec<usize>, Vec<f64>)>;
type TensorFibers = Vec<(usize, usize, Vec<usize>, Vec<f64>)>;

fn matrix_fibers_in(data: &MatrixData, arena: &mut StreamArena) -> MatrixFibers {
    let mut out = Vec::new();
    data.row_stream()
        .for_each_fiber_in(arena, &mut |r, cols, vals| {
            out.push((r, cols.to_vec(), vals.to_vec()));
        });
    out
}

fn matrix_fibers_oneshot(data: &MatrixData) -> MatrixFibers {
    let mut out = Vec::new();
    data.row_stream().for_each_fiber(&mut |r, cols, vals| {
        out.push((r, cols.to_vec(), vals.to_vec()));
    });
    out
}

fn tensor_fibers_in(data: &TensorData, arena: &mut StreamArena) -> TensorFibers {
    let mut out = Vec::new();
    data.fiber_stream()
        .for_each_fiber_in(arena, &mut |x, y, zs, vals| {
            out.push((x, y, zs.to_vec(), vals.to_vec()));
        });
    out
}

/// Fixed cut points: `0..units` in thirds (some empty on tiny operands).
fn thirds(units: usize) -> [Range<usize>; 3] {
    [0..units / 3, units / 3..2 * units / 3, 2 * units / 3..units]
}

/// The three ranged walks over [`thirds`] of the rows, concatenated.
fn matrix_fibers_thirds(data: &MatrixData, arena: &mut StreamArena) -> MatrixFibers {
    let mut out = Vec::new();
    for range in thirds(data.rows()) {
        data.row_stream()
            .for_each_fiber_range_in(range, arena, &mut |r, cols, vals| {
                out.push((r, cols.to_vec(), vals.to_vec()));
            });
    }
    out
}

/// The three ranged walks over [`thirds`] of the fiber keys, concatenated.
fn tensor_fibers_thirds(data: &TensorData, arena: &mut StreamArena) -> TensorFibers {
    let mut out = Vec::new();
    for range in thirds(data.dim_x() * data.dim_y()) {
        data.fiber_stream()
            .for_each_fiber_range_in(range, arena, &mut |x, y, zs, vals| {
                out.push((x, y, zs.to_vec(), vals.to_vec()));
            });
    }
    out
}

fn tensor_fibers_oneshot(data: &TensorData) -> TensorFibers {
    let mut out = Vec::new();
    data.fiber_stream().for_each_fiber(&mut |x, y, zs, vals| {
        out.push((x, y, zs.to_vec(), vals.to_vec()));
    });
    out
}

/// Allocation-free traversal fold (the closure must not touch the heap,
/// or the zero-alloc assertion would blame the traversal for it).
fn matrix_checksum(stream: &dyn RowMajorStream, arena: &mut StreamArena) -> f64 {
    let mut acc = 0.0f64;
    stream.for_each_fiber_in(arena, &mut |r, cols, vals| {
        acc += (r + cols.len()) as f64;
        for &v in vals {
            acc += v;
        }
    });
    acc
}

fn tensor_checksum(data: &TensorData, arena: &mut StreamArena) -> f64 {
    let mut acc = 0.0f64;
    data.fiber_stream()
        .for_each_fiber_in(arena, &mut |x, y, zs, vals| {
            acc += (x + y + zs.len()) as f64;
            for &v in vals {
                acc += v;
            }
        });
    acc
}

/// [`matrix_checksum`] over one ranged walk.
fn matrix_range_checksum(
    stream: &dyn RowMajorStream,
    range: Range<usize>,
    arena: &mut StreamArena,
) -> f64 {
    let mut acc = 0.0f64;
    stream.for_each_fiber_range_in(range, arena, &mut |r, cols, vals| {
        acc += (r + cols.len()) as f64;
        for &v in vals {
            acc += v;
        }
    });
    acc
}

/// [`tensor_checksum`] over one ranged walk.
fn tensor_range_checksum(data: &TensorData, range: Range<usize>, arena: &mut StreamArena) -> f64 {
    let mut acc = 0.0f64;
    data.fiber_stream()
        .for_each_fiber_range_in(range, arena, &mut |x, y, zs, vals| {
            acc += (x + y + zs.len()) as f64;
            for &v in vals {
                acc += v;
            }
        });
    acc
}

fn arb_sparse(rows: usize, cols: usize, max_nnz: usize) -> impl Strategy<Value = CooMatrix> {
    proptest::collection::vec(
        ((0..rows), (0..cols), -8i32..8).prop_map(|(r, c, v)| (r, c, v as f64)),
        0..max_nnz,
    )
    .prop_map(move |t| CooMatrix::from_triplets(rows, cols, t).unwrap())
}

fn arb_tensor(
    dx: usize,
    dy: usize,
    dz: usize,
    max_nnz: usize,
) -> impl Strategy<Value = CooTensor3> {
    proptest::collection::vec(
        ((0..dx), (0..dy), (0..dz), -5i32..5).prop_map(|(x, y, z, v)| (x, y, z, v as f64)),
        0..max_nnz,
    )
    .prop_map(move |q| CooTensor3::from_quads(dx, dy, dz, q).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn arena_backed_streams_match_one_shot_streams(
        a in arb_sparse(9, 11, 44),
        t in arb_tensor(5, 4, 6, 30),
    ) {
        // One arena, shared dirty across every format and two passes
        // each: the buffers a previous format left behind must never
        // leak into the next format's emitted fibers. The ranged walks
        // over thirds share the same dirty arena and must concatenate to
        // the full stream.
        let mut arena = StreamArena::new();
        for fmt in matrix_formats() {
            let data = MatrixData::encode(&a, &fmt).unwrap();
            let expect = matrix_fibers_oneshot(&data);
            for pass in 0..2 {
                prop_assert_eq!(
                    &matrix_fibers_in(&data, &mut arena),
                    &expect,
                    "matrix {} pass {}",
                    fmt,
                    pass
                );
            }
            prop_assert_eq!(
                &matrix_fibers_thirds(&data, &mut arena),
                &expect,
                "matrix {} ranged thirds",
                fmt
            );
        }
        for fmt in tensor_formats() {
            let data = TensorData::encode(&t, &fmt).unwrap();
            let expect = tensor_fibers_oneshot(&data);
            for pass in 0..2 {
                prop_assert_eq!(
                    &tensor_fibers_in(&data, &mut arena),
                    &expect,
                    "tensor {} pass {}",
                    fmt,
                    pass
                );
            }
            prop_assert_eq!(
                &tensor_fibers_thirds(&data, &mut arena),
                &expect,
                "tensor {} ranged thirds",
                fmt
            );
        }
    }
}

/// The zero-allocation gates below share the process with sibling test
/// threads, so the count must cover only the measuring thread: an
/// allocation another thread makes while the closure runs is not the
/// closure's.
#[test]
fn sibling_thread_allocations_are_not_counted() {
    use std::sync::atomic::{AtomicBool, Ordering};
    assert!(allocs::probe_installed(), "counting allocator installed");
    let (go, done) = (AtomicBool::new(false), AtomicBool::new(false));
    std::thread::scope(|s| {
        s.spawn(|| {
            while !go.load(Ordering::Acquire) {
                std::hint::spin_loop();
            }
            drop(std::hint::black_box(vec![0u8; 64]));
            done.store(true, Ordering::Release);
        });
        let (n, ()) = allocs::count_allocs(|| {
            go.store(true, Ordering::Release);
            while !done.load(Ordering::Acquire) {
                std::hint::spin_loop();
            }
        });
        assert_eq!(n, 0, "a sibling thread's allocation was counted");
    });
}

#[test]
fn warm_arena_traversals_never_allocate() {
    assert!(allocs::probe_installed(), "counting allocator installed");
    let a = CooMatrix::from_triplets(
        24,
        30,
        (0..120)
            .map(|i| ((i * 7) % 24, (i * 13) % 30, (i % 9) as f64 - 4.0))
            .collect(),
    )
    .unwrap();
    let t = CooTensor3::from_quads(
        8,
        7,
        9,
        (0..90)
            .map(|i| ((i * 3) % 8, (i * 5) % 7, (i * 11) % 9, (i % 7) as f64 - 3.0))
            .collect(),
    )
    .unwrap();
    let mut streams: Vec<(String, Box<dyn RowMajorStream>)> = Vec::new();
    for fmt in matrix_formats() {
        let data = MatrixData::encode(&a, &fmt).unwrap();
        streams.push((fmt.to_string(), Box::new(data)));
    }
    for desc in open_descriptors() {
        let m = CustomMatrix::encode(&a, &desc).unwrap();
        streams.push((desc.to_string(), Box::new(m)));
    }
    for (fmt, stream) in &streams {
        let mut arena = StreamArena::new();
        let warm = matrix_checksum(stream.as_ref(), &mut arena);
        let (allocs_steady, steady) =
            allocs::count_allocs(|| matrix_checksum(stream.as_ref(), &mut arena));
        assert_eq!(warm, steady, "{fmt}: passes must agree");
        assert_eq!(allocs_steady, 0, "{fmt}: steady-state traversal allocated");
        for r in thirds(a.rows()) {
            let mut arena = StreamArena::new();
            let warm = matrix_range_checksum(stream.as_ref(), r.clone(), &mut arena);
            let (n, steady) = allocs::count_allocs(|| {
                matrix_range_checksum(stream.as_ref(), r.clone(), &mut arena)
            });
            assert_eq!(warm, steady, "{fmt} range {r:?}: passes must agree");
            assert_eq!(
                n, 0,
                "{fmt} range {r:?}: steady-state ranged walk allocated"
            );
        }
    }
    for fmt in tensor_formats() {
        let data = TensorData::encode(&t, &fmt).unwrap();
        let mut arena = StreamArena::new();
        let warm = tensor_checksum(&data, &mut arena);
        let (allocs_steady, steady) = allocs::count_allocs(|| tensor_checksum(&data, &mut arena));
        assert_eq!(warm, steady, "{fmt}: passes must agree");
        assert_eq!(allocs_steady, 0, "{fmt}: steady-state traversal allocated");
        for r in thirds(data.dim_x() * data.dim_y()) {
            let mut arena = StreamArena::new();
            let warm = tensor_range_checksum(&data, r.clone(), &mut arena);
            let (n, steady) =
                allocs::count_allocs(|| tensor_range_checksum(&data, r.clone(), &mut arena));
            assert_eq!(warm, steady, "{fmt} range {r:?}: passes must agree");
            assert_eq!(
                n, 0,
                "{fmt} range {r:?}: steady-state ranged walk allocated"
            );
        }
    }
}

#[test]
fn csr_materialization_with_recycling_never_allocates_steady_state() {
    let a = CooMatrix::from_triplets(
        24,
        30,
        (0..120)
            .map(|i| ((i * 7) % 24, (i * 13) % 30, (i % 9) as f64 - 4.0))
            .collect(),
    )
    .unwrap();
    let data = MatrixData::encode(&a, &MatrixFormat::Csc).unwrap();
    let expect = csr_from_stream(24, 30, data.row_stream());
    let mut arena = StreamArena::new();
    // Warm-up cycle: build once, hand the triple back.
    let warm = csr_from_stream_in(&mut arena, 24, 30, data.row_stream());
    assert_eq!(warm, expect, "arena-backed build must match arena-less");
    arena.recycle_csr(warm);
    let (n, rebuilt) = allocs::count_allocs(|| {
        let c = csr_from_stream_in(&mut arena, 24, 30, data.row_stream());
        let ok = c == expect;
        arena.recycle_csr(c);
        ok
    });
    assert!(rebuilt, "recycled rebuild must still match");
    assert_eq!(n, 0, "steady-state CSR materialization allocated");
}
