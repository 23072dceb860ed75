//! Host allocations of the cycle-accurate simulator do not grow with the
//! streamed operand.
//!
//! This test binary installs the counting global allocator from
//! `sparseflex_bench::allocs`. Against one stationary operand (so the
//! tile and k-pass structure is fixed), `simulate_ws` on every ACF pair
//! and `simulate_spgemm` must allocate exactly as many times for an A of
//! `m` rows as for an A of `4m` rows: beats are packed into buffers
//! allocated once per call, never one buffer per beat or per row.

use sparseflex::accel::exec::{simulate_spgemm, simulate_ws, SimResult};
use sparseflex::accel::AccelConfig;
use sparseflex::formats::{CooMatrix, CsrMatrix, MatrixData, MatrixFormat};
use sparseflex::workloads::synth::random_matrix;
use sparseflex_bench::allocs;

#[global_allocator]
static ALLOC: allocs::CountingAllocator = allocs::CountingAllocator;

const M: usize = 12;
const K: usize = 40;
const N: usize = 13;

/// The serving instance and a small-buffer array that needs several
/// k-passes per tile.
fn configs() -> [AccelConfig; 2] {
    let paper = AccelConfig::paper();
    [
        AccelConfig {
            num_pes: 8,
            pe_buffer_elems: 64,
            ..paper
        },
        AccelConfig {
            num_pes: 3,
            vector_width: 2,
            pe_buffer_elems: 10,
            bus_slots: 7,
            ..paper
        },
    ]
}

/// A with `rows` rows at about 30% density.
fn stream_operand(rows: usize) -> CooMatrix {
    random_matrix(rows, K, rows * K * 3 / 10, rows as u64)
}

/// Allocations of one simulation, and its tile/pass structure.
fn measure(run: impl FnOnce() -> SimResult) -> (u64, usize, usize) {
    let (allocs, r) = allocs::count_allocs(run);
    (allocs, r.n_tiles, r.k_passes)
}

#[test]
fn simulator_allocations_do_not_scale_with_streamed_rows() {
    assert!(
        allocs::probe_installed(),
        "counting allocator not installed"
    );
    let b = random_matrix(K, N, K * N / 5, 7);
    let (small, large) = (stream_operand(M), stream_operand(4 * M));
    for cfg in configs() {
        for fa in [
            MatrixFormat::Dense,
            MatrixFormat::Csr,
            MatrixFormat::Coo,
            MatrixFormat::Csc,
        ] {
            for fb in [MatrixFormat::Dense, MatrixFormat::Csc] {
                let b_acf = MatrixData::encode(&b, &fb).unwrap();
                let a_small = MatrixData::encode(&small, &fa).unwrap();
                let a_large = MatrixData::encode(&large, &fa).unwrap();
                let s = measure(|| simulate_ws(&a_small, &b_acf, &cfg).unwrap());
                let l = measure(|| simulate_ws(&a_large, &b_acf, &cfg).unwrap());
                assert_eq!(s, l, "{fa}(A)-{fb}(B), {cfg:?}: (allocs, tiles, passes)");
            }
        }
        let b_csr = CsrMatrix::from_coo(&b);
        let (a_small, a_large) = (CsrMatrix::from_coo(&small), CsrMatrix::from_coo(&large));
        let s = measure(|| simulate_spgemm(&a_small, &b_csr, &cfg).unwrap());
        let l = measure(|| simulate_spgemm(&a_large, &b_csr, &cfg).unwrap());
        assert_eq!(s, l, "spgemm, {cfg:?}: (allocs, tiles, passes)");
    }
}
