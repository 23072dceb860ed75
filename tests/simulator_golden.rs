//! Golden counts for the cycle-accurate simulator.
//!
//! Every `simulate_ws` ACF pair and `simulate_spgemm` run on seeded
//! operands under four array configurations, and each outcome is pinned
//! exactly: the `CycleBreakdown`, every `ActivityCounts` field, the tile
//! and k-pass counts, and an FNV-1a hash over the output's `f64` bit
//! patterns (so a reordered floating-point sum fails too). A rejected
//! run pins its error message instead.
//!
//! The constants below were recorded from the simulator before its host
//! data structures were rewritten; any change to them is a change to
//! what the modeled array does, not to how fast the host simulates it.

use sparseflex::accel::exec::{simulate_spgemm, simulate_ws, SimError, SimResult};
use sparseflex::accel::AccelConfig;
use sparseflex::formats::{CooMatrix, CsrMatrix, MatrixData, MatrixFormat, SparseMatrix};
use sparseflex::workloads::synth::random_matrix;

/// The array configurations every operand pair runs under.
fn configs() -> Vec<(&'static str, AccelConfig)> {
    let paper = AccelConfig::paper();
    vec![
        // Fig. 6: 4 PEs, 5-slot bus, 8-slot buffers.
        ("walkthrough", AccelConfig::walkthrough()),
        // The serving instance: the paper's PE and bus cut to 8 PEs with
        // 64-slot buffers.
        (
            "serving",
            AccelConfig {
                num_pes: 8,
                pe_buffer_elems: 64,
                ..paper
            },
        ),
        // Two-slot buffers: one k per dense pass, one pair per CSC pass.
        (
            "tiny",
            AccelConfig {
                num_pes: 3,
                vector_width: 2,
                pe_buffer_elems: 2,
                bus_slots: 4,
                ..paper
            },
        ),
        // Buffers that hold about one dense B row: several k-passes per
        // tile on every dataflow, and one MAC lane per PE.
        (
            "narrow",
            AccelConfig {
                num_pes: 3,
                vector_width: 1,
                pe_buffer_elems: 24,
                bus_slots: 7,
                ..paper
            },
        ),
    ]
}

/// Seeded operand pairs `(name, A, B)`, all `9 x 37` times `37 x 11`.
/// Their Dense encodings store every zero, so the Dense ACFs also cover
/// zero-valued streamed and stationary elements.
fn operands() -> Vec<(&'static str, CooMatrix, CooMatrix)> {
    let (m, k, n) = (9, 37, 11);
    vec![
        (
            "sparse",
            random_matrix(m, k, m * k / 4, 11),
            random_matrix(k, n, k * n * 3 / 10, 12),
        ),
        // A fully populated, B at 10%.
        (
            "dense_a",
            random_matrix(m, k, m * k, 21),
            random_matrix(k, n, k * n / 10, 22),
        ),
        // An all-zero stationary operand: wasted MACs only on Dense B.
        (
            "zero_b",
            random_matrix(m, k, m * k / 20, 31),
            CooMatrix::empty(k, n),
        ),
        // An all-zero streaming operand against a full B.
        (
            "zero_a",
            CooMatrix::empty(m, k),
            random_matrix(k, n, k * n, 42),
        ),
        // Hyper-sparse on both sides: most rows and columns empty.
        (
            "hyper",
            random_matrix(m, k, 6, 51),
            random_matrix(k, n, 9, 52),
        ),
    ]
}

/// FNV-1a over the output shape and every value's bit pattern.
fn output_hash(r: &SimResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for byte in x.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(r.output.rows() as u64);
    eat(r.output.cols() as u64);
    for v in r.output.data() {
        eat(v.to_bits());
    }
    h
}

fn summary(r: &Result<SimResult, SimError>) -> String {
    match r {
        Err(e) => format!("err {e}"),
        Ok(r) => {
            let (c, a) = (r.cycles, r.counts);
            format!(
                "load_b={} stream_a={} drain={} macs={} eff={} bus={} rd={} wr={} fl={} \
                 tiles={} passes={} out={:016x}",
                c.load_b,
                c.stream_a,
                c.drain,
                a.macs,
                a.effective_macs,
                a.bus_slots_used,
                a.pe_buffer_reads,
                a.pe_buffer_writes,
                a.output_flushes,
                r.n_tiles,
                r.k_passes,
                output_hash(r)
            )
        }
    }
}

/// One line per `(config, operands, kernel)` in a fixed order.
fn outcomes() -> Vec<String> {
    let ws_pairs = [
        (MatrixFormat::Dense, MatrixFormat::Dense),
        (MatrixFormat::Dense, MatrixFormat::Csc),
        (MatrixFormat::Csr, MatrixFormat::Dense),
        (MatrixFormat::Csr, MatrixFormat::Csc),
        (MatrixFormat::Coo, MatrixFormat::Dense),
        (MatrixFormat::Coo, MatrixFormat::Csc),
        (MatrixFormat::Csc, MatrixFormat::Dense),
        (MatrixFormat::Csc, MatrixFormat::Csc),
    ];
    let mut lines = Vec::new();
    for (cfg_name, cfg) in configs() {
        for (op_name, a, b) in operands() {
            for (fa, fb) in ws_pairs {
                let r = simulate_ws(
                    &MatrixData::encode(&a, &fa).unwrap(),
                    &MatrixData::encode(&b, &fb).unwrap(),
                    &cfg,
                );
                lines.push(format!("{cfg_name}/{op_name}/{fa}-{fb} {}", summary(&r)));
            }
            let r = simulate_spgemm(&CsrMatrix::from_coo(&a), &CsrMatrix::from_coo(&b), &cfg);
            lines.push(format!("{cfg_name}/{op_name}/spgemm {}", summary(&r)));
        }
    }
    lines
}

#[test]
fn simulator_counts_match_golden() {
    let got = outcomes();
    for (g, want) in got.iter().zip(GOLDEN) {
        assert_eq!(g, want);
    }
    assert_eq!(got.len(), GOLDEN.len(), "number of pinned outcomes");
}

/// Recorded outcomes, in `outcomes()` order.
#[rustfmt::skip]
const GOLDEN: &[&str] = &[
    "walkthrough/sparse/Dense-Dense load_b=87 stream_a=270 drain=124 macs=3663 eff=263 bus=1676 rd=3663 wr=407 fl=495 tiles=3 passes=15 out=01233219e83f5619",
    "walkthrough/sparse/Dense-CSC load_b=54 stream_a=297 drain=95 macs=1098 eff=263 bus=1540 rd=1098 wr=244 fl=378 tiles=3 passes=13 out=01233219e83f5619",
    "walkthrough/sparse/CSR-Dense load_b=87 stream_a=153 drain=105 macs=913 eff=263 bus=1058 rd=913 wr=407 fl=418 tiles=3 passes=15 out=01233219e83f5619",
    "walkthrough/sparse/CSR-CSC load_b=54 stream_a=147 drain=53 macs=263 eff=263 bus=889 rd=263 wr=244 fl=211 tiles=3 passes=13 out=01233219e83f5619",
    "walkthrough/sparse/COO-Dense load_b=87 stream_a=249 drain=105 macs=913 eff=263 bus=1154 rd=913 wr=407 fl=418 tiles=3 passes=15 out=01233219e83f5619",
    "walkthrough/sparse/COO-CSC load_b=54 stream_a=249 drain=53 macs=263 eff=263 bus=991 rd=263 wr=244 fl=211 tiles=3 passes=13 out=01233219e83f5619",
    "walkthrough/sparse/CSC-Dense load_b=87 stream_a=153 drain=229 macs=913 eff=263 bus=1058 rd=913 wr=407 fl=913 tiles=3 passes=15 out=01233219e83f5619",
    "walkthrough/sparse/CSC-CSC load_b=54 stream_a=153 drain=66 macs=263 eff=263 bus=895 rd=263 wr=244 fl=263 tiles=3 passes=13 out=01233219e83f5619",
    "walkthrough/sparse/spgemm err stationary unit needs 12 slots, PE buffer has 8",
    "walkthrough/dense_a/Dense-Dense load_b=87 stream_a=270 drain=124 macs=3663 eff=360 bus=1676 rd=3663 wr=407 fl=495 tiles=3 passes=15 out=f559cdbf6c98620d",
    "walkthrough/dense_a/Dense-CSC load_b=18 stream_a=270 drain=34 macs=360 eff=360 bus=1349 rd=360 wr=80 fl=135 tiles=3 passes=5 out=f559cdbf6c98620d",
    "walkthrough/dense_a/CSR-Dense load_b=87 stream_a=513 drain=124 macs=3663 eff=360 bus=2918 rd=3663 wr=407 fl=495 tiles=3 passes=15 out=f559cdbf6c98620d",
    "walkthrough/dense_a/CSR-CSC load_b=18 stream_a=513 drain=34 macs=360 eff=360 bus=2591 rd=360 wr=80 fl=135 tiles=3 passes=5 out=f559cdbf6c98620d",
    "walkthrough/dense_a/COO-Dense load_b=87 stream_a=999 drain=124 macs=3663 eff=360 bus=3404 rd=3663 wr=407 fl=495 tiles=3 passes=15 out=f559cdbf6c98620d",
    "walkthrough/dense_a/COO-CSC load_b=18 stream_a=999 drain=34 macs=360 eff=360 bus=3077 rd=360 wr=80 fl=135 tiles=3 passes=5 out=f559cdbf6c98620d",
    "walkthrough/dense_a/CSC-Dense load_b=87 stream_a=555 drain=916 macs=3663 eff=360 bus=2960 rd=3663 wr=407 fl=3663 tiles=3 passes=15 out=f559cdbf6c98620d",
    "walkthrough/dense_a/CSC-CSC load_b=18 stream_a=555 drain=90 macs=360 eff=360 bus=2633 rd=360 wr=80 fl=360 tiles=3 passes=5 out=f559cdbf6c98620d",
    "walkthrough/dense_a/spgemm err stationary unit needs 10 slots, PE buffer has 8",
    "walkthrough/zero_b/Dense-Dense load_b=87 stream_a=270 drain=124 macs=3663 eff=0 bus=1676 rd=3663 wr=407 fl=495 tiles=3 passes=15 out=5ee2fc5346b82827",
    "walkthrough/zero_b/Dense-CSC load_b=0 stream_a=270 drain=0 macs=0 eff=0 bus=1269 rd=0 wr=0 fl=0 tiles=3 passes=3 out=5ee2fc5346b82827",
    "walkthrough/zero_b/CSR-Dense load_b=87 stream_a=36 drain=31 macs=176 eff=0 bus=539 rd=176 wr=407 fl=121 tiles=3 passes=15 out=5ee2fc5346b82827",
    "walkthrough/zero_b/CSR-CSC load_b=0 stream_a=27 drain=0 macs=0 eff=0 bus=123 rd=0 wr=0 fl=0 tiles=3 passes=3 out=5ee2fc5346b82827",
    "walkthrough/zero_b/COO-Dense load_b=87 stream_a=48 drain=31 macs=176 eff=0 bus=551 rd=176 wr=407 fl=121 tiles=3 passes=15 out=5ee2fc5346b82827",
    "walkthrough/zero_b/COO-CSC load_b=0 stream_a=48 drain=0 macs=0 eff=0 bus=144 rd=0 wr=0 fl=0 tiles=3 passes=3 out=5ee2fc5346b82827",
    "walkthrough/zero_b/CSC-Dense load_b=87 stream_a=42 drain=44 macs=176 eff=0 bus=545 rd=176 wr=407 fl=176 tiles=3 passes=15 out=5ee2fc5346b82827",
    "walkthrough/zero_b/CSC-CSC load_b=0 stream_a=42 drain=0 macs=0 eff=0 bus=138 rd=0 wr=0 fl=0 tiles=3 passes=3 out=5ee2fc5346b82827",
    "walkthrough/zero_b/spgemm load_b=0 stream_a=9 drain=0 macs=0 eff=0 bus=41 rd=0 wr=0 fl=0 tiles=1 passes=1 out=5ee2fc5346b82827",
    "walkthrough/zero_a/Dense-Dense load_b=87 stream_a=270 drain=124 macs=3663 eff=0 bus=1676 rd=3663 wr=407 fl=495 tiles=3 passes=15 out=5ee2fc5346b82827",
    "walkthrough/zero_a/Dense-CSC load_b=177 stream_a=270 drain=248 macs=3663 eff=0 bus=2083 rd=3663 wr=814 fl=990 tiles=3 passes=30 out=5ee2fc5346b82827",
    "walkthrough/zero_a/CSR-Dense load_b=87 stream_a=0 drain=0 macs=0 eff=0 bus=407 rd=0 wr=407 fl=0 tiles=3 passes=15 out=5ee2fc5346b82827",
    "walkthrough/zero_a/CSR-CSC load_b=177 stream_a=0 drain=0 macs=0 eff=0 bus=814 rd=0 wr=814 fl=0 tiles=3 passes=30 out=5ee2fc5346b82827",
    "walkthrough/zero_a/COO-Dense load_b=87 stream_a=0 drain=0 macs=0 eff=0 bus=407 rd=0 wr=407 fl=0 tiles=3 passes=15 out=5ee2fc5346b82827",
    "walkthrough/zero_a/COO-CSC load_b=177 stream_a=0 drain=0 macs=0 eff=0 bus=814 rd=0 wr=814 fl=0 tiles=3 passes=30 out=5ee2fc5346b82827",
    "walkthrough/zero_a/CSC-Dense load_b=87 stream_a=0 drain=0 macs=0 eff=0 bus=407 rd=0 wr=407 fl=0 tiles=3 passes=15 out=5ee2fc5346b82827",
    "walkthrough/zero_a/CSC-CSC load_b=177 stream_a=0 drain=0 macs=0 eff=0 bus=814 rd=0 wr=814 fl=0 tiles=3 passes=30 out=5ee2fc5346b82827",
    "walkthrough/zero_a/spgemm err stationary unit needs 22 slots, PE buffer has 8",
    "walkthrough/hyper/Dense-Dense load_b=87 stream_a=270 drain=124 macs=3663 eff=1 bus=1676 rd=3663 wr=407 fl=495 tiles=3 passes=15 out=6cc1c5c3751f0f57",
    "walkthrough/hyper/Dense-CSC load_b=5 stream_a=270 drain=16 macs=81 eff=1 bus=1287 rd=81 wr=18 fl=63 tiles=3 passes=3 out=6cc1c5c3751f0f57",
    "walkthrough/hyper/CSR-Dense load_b=87 stream_a=18 drain=17 macs=66 eff=1 bus=461 rd=66 wr=407 fl=66 tiles=3 passes=15 out=6cc1c5c3751f0f57",
    "walkthrough/hyper/CSR-CSC load_b=5 stream_a=15 drain=1 macs=1 eff=1 bus=69 rd=1 wr=18 fl=1 tiles=3 passes=3 out=6cc1c5c3751f0f57",
    "walkthrough/hyper/COO-Dense load_b=87 stream_a=18 drain=17 macs=66 eff=1 bus=461 rd=66 wr=407 fl=66 tiles=3 passes=15 out=6cc1c5c3751f0f57",
    "walkthrough/hyper/COO-CSC load_b=5 stream_a=18 drain=1 macs=1 eff=1 bus=72 rd=1 wr=18 fl=1 tiles=3 passes=3 out=6cc1c5c3751f0f57",
    "walkthrough/hyper/CSC-Dense load_b=87 stream_a=15 drain=17 macs=66 eff=1 bus=458 rd=66 wr=407 fl=66 tiles=3 passes=15 out=6cc1c5c3751f0f57",
    "walkthrough/hyper/CSC-CSC load_b=5 stream_a=15 drain=1 macs=1 eff=1 bus=69 rd=1 wr=18 fl=1 tiles=3 passes=3 out=6cc1c5c3751f0f57",
    "walkthrough/hyper/spgemm load_b=4 stream_a=5 drain=1 macs=1 eff=1 bus=35 rd=2 wr=18 fl=1 tiles=1 passes=1 out=6cc1c5c3751f0f57",
    "serving/sparse/Dense-Dense load_b=26 stream_a=90 drain=13 macs=3663 eff=263 bus=1127 rd=3663 wr=407 fl=99 tiles=2 passes=2 out=01233219e83f5619",
    "serving/sparse/Dense-CSC load_b=17 stream_a=63 drain=13 macs=1098 eff=263 bus=964 rd=1098 wr=244 fl=99 tiles=2 passes=2 out=01233219e83f5619",
    "serving/sparse/CSR-Dense load_b=26 stream_a=34 drain=13 macs=913 eff=263 bus=773 rd=913 wr=407 fl=99 tiles=2 passes=2 out=01233219e83f5619",
    "serving/sparse/CSR-CSC load_b=17 stream_a=34 drain=12 macs=263 eff=263 bus=610 rd=263 wr=244 fl=95 tiles=2 passes=2 out=01233219e83f5619",
    "serving/sparse/COO-Dense load_b=26 stream_a=34 drain=13 macs=913 eff=263 bus=905 rd=913 wr=407 fl=99 tiles=2 passes=2 out=01233219e83f5619",
    "serving/sparse/COO-CSC load_b=17 stream_a=34 drain=12 macs=263 eff=263 bus=742 rd=263 wr=244 fl=95 tiles=2 passes=2 out=01233219e83f5619",
    "serving/sparse/CSC-Dense load_b=26 stream_a=70 drain=115 macs=913 eff=263 bus=809 rd=913 wr=407 fl=913 tiles=2 passes=2 out=01233219e83f5619",
    "serving/sparse/CSC-CSC load_b=17 stream_a=70 drain=33 macs=263 eff=263 bus=646 rd=263 wr=244 fl=263 tiles=2 passes=2 out=01233219e83f5619",
    "serving/sparse/spgemm load_b=16 stream_a=20 drain=33 macs=263 eff=263 bus=427 rd=526 wr=244 fl=263 tiles=1 passes=1 out=01233219e83f5619",
    "serving/dense_a/Dense-Dense load_b=26 stream_a=90 drain=13 macs=3663 eff=360 bus=1127 rd=3663 wr=407 fl=99 tiles=2 passes=2 out=f559cdbf6c98620d",
    "serving/dense_a/Dense-CSC load_b=6 stream_a=54 drain=13 macs=360 eff=360 bus=800 rd=360 wr=80 fl=99 tiles=2 passes=2 out=f559cdbf6c98620d",
    "serving/dense_a/CSR-Dense load_b=26 stream_a=108 drain=13 macs=3663 eff=360 bus=1847 rd=3663 wr=407 fl=99 tiles=2 passes=2 out=f559cdbf6c98620d",
    "serving/dense_a/CSR-CSC load_b=6 stream_a=108 drain=13 macs=360 eff=360 bus=1520 rd=360 wr=80 fl=99 tiles=2 passes=2 out=f559cdbf6c98620d",
    "serving/dense_a/COO-Dense load_b=26 stream_a=134 drain=13 macs=3663 eff=360 bus=2405 rd=3663 wr=407 fl=99 tiles=2 passes=2 out=f559cdbf6c98620d",
    "serving/dense_a/COO-CSC load_b=6 stream_a=134 drain=13 macs=360 eff=360 bus=2078 rd=360 wr=80 fl=99 tiles=2 passes=2 out=f559cdbf6c98620d",
    "serving/dense_a/CSC-Dense load_b=26 stream_a=148 drain=458 macs=3663 eff=360 bus=1887 rd=3663 wr=407 fl=3663 tiles=2 passes=2 out=f559cdbf6c98620d",
    "serving/dense_a/CSC-CSC load_b=6 stream_a=148 drain=45 macs=360 eff=360 bus=1560 rd=360 wr=80 fl=360 tiles=2 passes=2 out=f559cdbf6c98620d",
    "serving/dense_a/spgemm load_b=5 stream_a=54 drain=45 macs=360 eff=360 bus=800 rd=720 wr=80 fl=360 tiles=1 passes=1 out=f559cdbf6c98620d",
    "serving/zero_b/Dense-Dense load_b=26 stream_a=90 drain=13 macs=3663 eff=0 bus=1127 rd=3663 wr=407 fl=99 tiles=2 passes=2 out=5ee2fc5346b82827",
    "serving/zero_b/Dense-CSC load_b=0 stream_a=54 drain=0 macs=0 eff=0 bus=720 rd=0 wr=0 fl=0 tiles=2 passes=2 out=5ee2fc5346b82827",
    "serving/zero_b/CSR-Dense load_b=26 stream_a=14 drain=10 macs=176 eff=0 bus=485 rd=176 wr=407 fl=77 tiles=2 passes=2 out=5ee2fc5346b82827",
    "serving/zero_b/CSR-CSC load_b=0 stream_a=14 drain=0 macs=0 eff=0 bus=78 rd=0 wr=0 fl=0 tiles=2 passes=2 out=5ee2fc5346b82827",
    "serving/zero_b/COO-Dense load_b=26 stream_a=8 drain=10 macs=176 eff=0 bus=503 rd=176 wr=407 fl=77 tiles=2 passes=2 out=5ee2fc5346b82827",
    "serving/zero_b/COO-CSC load_b=0 stream_a=8 drain=0 macs=0 eff=0 bus=96 rd=0 wr=0 fl=0 tiles=2 passes=2 out=5ee2fc5346b82827",
    "serving/zero_b/CSC-Dense load_b=26 stream_a=28 drain=22 macs=176 eff=0 bus=499 rd=176 wr=407 fl=176 tiles=2 passes=2 out=5ee2fc5346b82827",
    "serving/zero_b/CSC-CSC load_b=0 stream_a=28 drain=0 macs=0 eff=0 bus=92 rd=0 wr=0 fl=0 tiles=2 passes=2 out=5ee2fc5346b82827",
    "serving/zero_b/spgemm load_b=0 stream_a=7 drain=0 macs=0 eff=0 bus=39 rd=0 wr=0 fl=0 tiles=1 passes=1 out=5ee2fc5346b82827",
    "serving/zero_a/Dense-Dense load_b=26 stream_a=90 drain=13 macs=3663 eff=0 bus=1127 rd=3663 wr=407 fl=99 tiles=2 passes=2 out=5ee2fc5346b82827",
    "serving/zero_a/Dense-CSC load_b=51 stream_a=108 drain=25 macs=3663 eff=0 bus=1552 rd=3663 wr=814 fl=198 tiles=2 passes=4 out=5ee2fc5346b82827",
    "serving/zero_a/CSR-Dense load_b=26 stream_a=0 drain=0 macs=0 eff=0 bus=407 rd=0 wr=407 fl=0 tiles=2 passes=2 out=5ee2fc5346b82827",
    "serving/zero_a/CSR-CSC load_b=51 stream_a=0 drain=0 macs=0 eff=0 bus=814 rd=0 wr=814 fl=0 tiles=2 passes=4 out=5ee2fc5346b82827",
    "serving/zero_a/COO-Dense load_b=26 stream_a=0 drain=0 macs=0 eff=0 bus=407 rd=0 wr=407 fl=0 tiles=2 passes=2 out=5ee2fc5346b82827",
    "serving/zero_a/COO-CSC load_b=51 stream_a=0 drain=0 macs=0 eff=0 bus=814 rd=0 wr=814 fl=0 tiles=2 passes=4 out=5ee2fc5346b82827",
    "serving/zero_a/CSC-Dense load_b=26 stream_a=0 drain=0 macs=0 eff=0 bus=407 rd=0 wr=407 fl=0 tiles=2 passes=2 out=5ee2fc5346b82827",
    "serving/zero_a/CSC-CSC load_b=51 stream_a=0 drain=0 macs=0 eff=0 bus=814 rd=0 wr=814 fl=0 tiles=2 passes=4 out=5ee2fc5346b82827",
    "serving/zero_a/spgemm load_b=51 stream_a=0 drain=0 macs=0 eff=0 bus=814 rd=0 wr=814 fl=0 tiles=1 passes=3 out=5ee2fc5346b82827",
    "serving/hyper/Dense-Dense load_b=26 stream_a=90 drain=13 macs=3663 eff=1 bus=1127 rd=3663 wr=407 fl=99 tiles=2 passes=2 out=6cc1c5c3751f0f57",
    "serving/hyper/Dense-CSC load_b=2 stream_a=54 drain=8 macs=81 eff=1 bus=738 rd=81 wr=18 fl=63 tiles=2 passes=2 out=6cc1c5c3751f0f57",
    "serving/hyper/CSR-Dense load_b=26 stream_a=10 drain=7 macs=66 eff=1 bus=441 rd=66 wr=407 fl=55 tiles=2 passes=2 out=6cc1c5c3751f0f57",
    "serving/hyper/CSR-CSC load_b=2 stream_a=10 drain=1 macs=1 eff=1 bus=52 rd=1 wr=18 fl=1 tiles=2 passes=2 out=6cc1c5c3751f0f57",
    "serving/hyper/COO-Dense load_b=26 stream_a=4 drain=7 macs=66 eff=1 bus=443 rd=66 wr=407 fl=55 tiles=2 passes=2 out=6cc1c5c3751f0f57",
    "serving/hyper/COO-CSC load_b=2 stream_a=4 drain=1 macs=1 eff=1 bus=54 rd=1 wr=18 fl=1 tiles=2 passes=2 out=6cc1c5c3751f0f57",
    "serving/hyper/CSC-Dense load_b=26 stream_a=10 drain=9 macs=66 eff=1 bus=441 rd=66 wr=407 fl=66 tiles=2 passes=2 out=6cc1c5c3751f0f57",
    "serving/hyper/CSC-CSC load_b=2 stream_a=10 drain=1 macs=1 eff=1 bus=52 rd=1 wr=18 fl=1 tiles=2 passes=2 out=6cc1c5c3751f0f57",
    "serving/hyper/spgemm load_b=2 stream_a=5 drain=1 macs=1 eff=1 bus=35 rd=2 wr=18 fl=1 tiles=1 passes=1 out=6cc1c5c3751f0f57",
    "tiny/sparse/Dense-Dense load_b=130 stream_a=684 drain=627 macs=3663 eff=263 bus=2423 rd=3663 wr=407 fl=1881 tiles=4 passes=76 out=01233219e83f5619",
    "tiny/sparse/Dense-CSC load_b=81 stream_a=747 drain=366 macs=1098 eff=263 bus=2323 rd=1098 wr=244 fl=1098 tiles=4 passes=70 out=01233219e83f5619",
    "tiny/sparse/CSR-Dense load_b=130 stream_a=332 drain=268 macs=913 eff=263 bus=1403 rd=913 wr=407 fl=803 tiles=4 passes=76 out=01233219e83f5619",
    "tiny/sparse/CSR-CSC load_b=81 stream_a=332 drain=88 macs=263 eff=263 bus=1240 rd=263 wr=244 fl=263 tiles=4 passes=70 out=01233219e83f5619",
    "tiny/sparse/COO-Dense load_b=130 stream_a=332 drain=268 macs=913 eff=263 bus=1403 rd=913 wr=407 fl=803 tiles=4 passes=76 out=01233219e83f5619",
    "tiny/sparse/COO-CSC load_b=81 stream_a=332 drain=88 macs=263 eff=263 bus=1240 rd=263 wr=244 fl=263 tiles=4 passes=70 out=01233219e83f5619",
    "tiny/sparse/CSC-Dense load_b=130 stream_a=332 drain=305 macs=913 eff=263 bus=1403 rd=913 wr=407 fl=913 tiles=4 passes=76 out=01233219e83f5619",
    "tiny/sparse/CSC-CSC load_b=81 stream_a=332 drain=88 macs=263 eff=263 bus=1240 rd=263 wr=244 fl=263 tiles=4 passes=70 out=01233219e83f5619",
    "tiny/sparse/spgemm err stationary unit needs 4 slots, PE buffer has 2",
    "tiny/dense_a/Dense-Dense load_b=130 stream_a=684 drain=627 macs=3663 eff=360 bus=2423 rd=3663 wr=407 fl=1881 tiles=4 passes=76 out=f559cdbf6c98620d",
    "tiny/dense_a/Dense-CSC load_b=25 stream_a=495 drain=120 macs=360 eff=360 bus=1907 rd=360 wr=80 fl=360 tiles=4 passes=20 out=f559cdbf6c98620d",
    "tiny/dense_a/CSR-Dense load_b=130 stream_a=1332 drain=627 macs=3663 eff=360 bus=4403 rd=3663 wr=407 fl=1881 tiles=4 passes=76 out=f559cdbf6c98620d",
    "tiny/dense_a/CSR-CSC load_b=25 stream_a=1332 drain=120 macs=360 eff=360 bus=4076 rd=360 wr=80 fl=360 tiles=4 passes=20 out=f559cdbf6c98620d",
    "tiny/dense_a/COO-Dense load_b=130 stream_a=1332 drain=627 macs=3663 eff=360 bus=4403 rd=3663 wr=407 fl=1881 tiles=4 passes=76 out=f559cdbf6c98620d",
    "tiny/dense_a/COO-CSC load_b=25 stream_a=1332 drain=120 macs=360 eff=360 bus=4076 rd=360 wr=80 fl=360 tiles=4 passes=20 out=f559cdbf6c98620d",
    "tiny/dense_a/CSC-Dense load_b=130 stream_a=1332 drain=1221 macs=3663 eff=360 bus=4403 rd=3663 wr=407 fl=3663 tiles=4 passes=76 out=f559cdbf6c98620d",
    "tiny/dense_a/CSC-CSC load_b=25 stream_a=1332 drain=120 macs=360 eff=360 bus=4076 rd=360 wr=80 fl=360 tiles=4 passes=20 out=f559cdbf6c98620d",
    "tiny/dense_a/spgemm err stationary unit needs 10 slots, PE buffer has 2",
    "tiny/zero_b/Dense-Dense load_b=130 stream_a=684 drain=627 macs=3663 eff=0 bus=2423 rd=3663 wr=407 fl=1881 tiles=4 passes=76 out=5ee2fc5346b82827",
    "tiny/zero_b/Dense-CSC load_b=0 stream_a=468 drain=0 macs=0 eff=0 bus=1800 rd=0 wr=0 fl=0 tiles=4 passes=4 out=5ee2fc5346b82827",
    "tiny/zero_b/CSR-Dense load_b=130 stream_a=64 drain=52 macs=176 eff=0 bus=599 rd=176 wr=407 fl=154 tiles=4 passes=76 out=5ee2fc5346b82827",
    "tiny/zero_b/CSR-CSC load_b=0 stream_a=64 drain=0 macs=0 eff=0 bus=192 rd=0 wr=0 fl=0 tiles=4 passes=4 out=5ee2fc5346b82827",
    "tiny/zero_b/COO-Dense load_b=130 stream_a=64 drain=52 macs=176 eff=0 bus=599 rd=176 wr=407 fl=154 tiles=4 passes=76 out=5ee2fc5346b82827",
    "tiny/zero_b/COO-CSC load_b=0 stream_a=64 drain=0 macs=0 eff=0 bus=192 rd=0 wr=0 fl=0 tiles=4 passes=4 out=5ee2fc5346b82827",
    "tiny/zero_b/CSC-Dense load_b=130 stream_a=64 drain=59 macs=176 eff=0 bus=599 rd=176 wr=407 fl=176 tiles=4 passes=76 out=5ee2fc5346b82827",
    "tiny/zero_b/CSC-CSC load_b=0 stream_a=64 drain=0 macs=0 eff=0 bus=192 rd=0 wr=0 fl=0 tiles=4 passes=4 out=5ee2fc5346b82827",
    "tiny/zero_b/spgemm load_b=0 stream_a=16 drain=0 macs=0 eff=0 bus=48 rd=0 wr=0 fl=0 tiles=1 passes=1 out=5ee2fc5346b82827",
    "tiny/zero_a/Dense-Dense load_b=130 stream_a=684 drain=627 macs=3663 eff=0 bus=2423 rd=3663 wr=407 fl=1881 tiles=4 passes=76 out=5ee2fc5346b82827",
    "tiny/zero_a/Dense-CSC load_b=259 stream_a=1332 drain=1221 macs=3663 eff=0 bus=3478 rd=3663 wr=814 fl=3663 tiles=4 passes=148 out=5ee2fc5346b82827",
    "tiny/zero_a/CSR-Dense load_b=130 stream_a=0 drain=0 macs=0 eff=0 bus=407 rd=0 wr=407 fl=0 tiles=4 passes=76 out=5ee2fc5346b82827",
    "tiny/zero_a/CSR-CSC load_b=259 stream_a=0 drain=0 macs=0 eff=0 bus=814 rd=0 wr=814 fl=0 tiles=4 passes=148 out=5ee2fc5346b82827",
    "tiny/zero_a/COO-Dense load_b=130 stream_a=0 drain=0 macs=0 eff=0 bus=407 rd=0 wr=407 fl=0 tiles=4 passes=76 out=5ee2fc5346b82827",
    "tiny/zero_a/COO-CSC load_b=259 stream_a=0 drain=0 macs=0 eff=0 bus=814 rd=0 wr=814 fl=0 tiles=4 passes=148 out=5ee2fc5346b82827",
    "tiny/zero_a/CSC-Dense load_b=130 stream_a=0 drain=0 macs=0 eff=0 bus=407 rd=0 wr=407 fl=0 tiles=4 passes=76 out=5ee2fc5346b82827",
    "tiny/zero_a/CSC-CSC load_b=259 stream_a=0 drain=0 macs=0 eff=0 bus=814 rd=0 wr=814 fl=0 tiles=4 passes=148 out=5ee2fc5346b82827",
    "tiny/zero_a/spgemm err stationary unit needs 22 slots, PE buffer has 2",
    "tiny/hyper/Dense-Dense load_b=130 stream_a=684 drain=627 macs=3663 eff=1 bus=2423 rd=3663 wr=407 fl=1881 tiles=4 passes=76 out=6cc1c5c3751f0f57",
    "tiny/hyper/Dense-CSC load_b=6 stream_a=468 drain=27 macs=81 eff=1 bus=1818 rd=81 wr=18 fl=81 tiles=4 passes=5 out=6cc1c5c3751f0f57",
    "tiny/hyper/CSR-Dense load_b=130 stream_a=24 drain=22 macs=66 eff=1 bus=479 rd=66 wr=407 fl=66 tiles=4 passes=76 out=6cc1c5c3751f0f57",
    "tiny/hyper/CSR-CSC load_b=6 stream_a=24 drain=1 macs=1 eff=1 bus=90 rd=1 wr=18 fl=1 tiles=4 passes=5 out=6cc1c5c3751f0f57",
    "tiny/hyper/COO-Dense load_b=130 stream_a=24 drain=22 macs=66 eff=1 bus=479 rd=66 wr=407 fl=66 tiles=4 passes=76 out=6cc1c5c3751f0f57",
    "tiny/hyper/COO-CSC load_b=6 stream_a=24 drain=1 macs=1 eff=1 bus=90 rd=1 wr=18 fl=1 tiles=4 passes=5 out=6cc1c5c3751f0f57",
    "tiny/hyper/CSC-Dense load_b=130 stream_a=24 drain=22 macs=66 eff=1 bus=479 rd=66 wr=407 fl=66 tiles=4 passes=76 out=6cc1c5c3751f0f57",
    "tiny/hyper/CSC-CSC load_b=6 stream_a=24 drain=1 macs=1 eff=1 bus=90 rd=1 wr=18 fl=1 tiles=4 passes=5 out=6cc1c5c3751f0f57",
    "tiny/hyper/spgemm err stationary unit needs 4 slots, PE buffer has 2",
    "narrow/sparse/Dense-Dense load_b=62 stream_a=1332 drain=66 macs=3663 eff=263 bus=1991 rd=3663 wr=407 fl=198 tiles=4 passes=8 out=01233219e83f5619",
    "narrow/sparse/Dense-CSC load_b=38 stream_a=630 drain=45 macs=1098 eff=263 bus=1828 rd=1098 wr=244 fl=135 tiles=4 passes=6 out=01233219e83f5619",
    "narrow/sparse/CSR-Dense load_b=62 stream_a=332 drain=66 macs=913 eff=263 bus=1203 rd=913 wr=407 fl=198 tiles=4 passes=8 out=01233219e83f5619",
    "narrow/sparse/CSR-CSC load_b=38 stream_a=174 drain=39 macs=263 eff=263 bus=1036 rd=263 wr=244 fl=115 tiles=4 passes=6 out=01233219e83f5619",
    "narrow/sparse/COO-Dense load_b=62 stream_a=332 drain=66 macs=913 eff=263 bus=1403 rd=913 wr=407 fl=198 tiles=4 passes=8 out=01233219e83f5619",
    "narrow/sparse/COO-CSC load_b=38 stream_a=201 drain=39 macs=263 eff=263 bus=1240 rd=263 wr=244 fl=115 tiles=4 passes=6 out=01233219e83f5619",
    "narrow/sparse/CSC-Dense load_b=62 stream_a=332 drain=305 macs=913 eff=263 bus=1235 rd=913 wr=407 fl=913 tiles=4 passes=8 out=01233219e83f5619",
    "narrow/sparse/CSC-CSC load_b=38 stream_a=264 drain=88 macs=263 eff=263 bus=1072 rd=263 wr=244 fl=263 tiles=4 passes=6 out=01233219e83f5619",
    "narrow/sparse/spgemm load_b=38 stream_a=201 drain=88 macs=263 eff=263 bus=458 rd=526 wr=244 fl=263 tiles=1 passes=6 out=01233219e83f5619",
    "narrow/dense_a/Dense-Dense load_b=62 stream_a=1332 drain=66 macs=3663 eff=360 bus=1991 rd=3663 wr=407 fl=198 tiles=4 passes=8 out=f559cdbf6c98620d",
    "narrow/dense_a/Dense-CSC load_b=13 stream_a=297 drain=33 macs=360 eff=360 bus=1664 rd=360 wr=80 fl=99 tiles=4 passes=4 out=f559cdbf6c98620d",
    "narrow/dense_a/CSR-Dense load_b=62 stream_a=1332 drain=66 macs=3663 eff=360 bus=3539 rd=3663 wr=407 fl=198 tiles=4 passes=8 out=f559cdbf6c98620d",
    "narrow/dense_a/CSR-CSC load_b=13 stream_a=486 drain=33 macs=360 eff=360 bus=3212 rd=360 wr=80 fl=99 tiles=4 passes=4 out=f559cdbf6c98620d",
    "narrow/dense_a/COO-Dense load_b=62 stream_a=1332 drain=66 macs=3663 eff=360 bus=4403 rd=3663 wr=407 fl=198 tiles=4 passes=8 out=f559cdbf6c98620d",
    "narrow/dense_a/COO-CSC load_b=13 stream_a=676 drain=33 macs=360 eff=360 bus=4076 rd=360 wr=80 fl=99 tiles=4 passes=4 out=f559cdbf6c98620d",
    "narrow/dense_a/CSC-Dense load_b=62 stream_a=1332 drain=1221 macs=3663 eff=360 bus=3515 rd=3663 wr=407 fl=3663 tiles=4 passes=8 out=f559cdbf6c98620d",
    "narrow/dense_a/CSC-CSC load_b=13 stream_a=660 drain=120 macs=360 eff=360 bus=3188 rd=360 wr=80 fl=360 tiles=4 passes=4 out=f559cdbf6c98620d",
    "narrow/dense_a/spgemm load_b=12 stream_a=234 drain=120 macs=360 eff=360 bus=863 rd=720 wr=80 fl=360 tiles=1 passes=2 out=f559cdbf6c98620d",
    "narrow/zero_b/Dense-Dense load_b=62 stream_a=1332 drain=66 macs=3663 eff=0 bus=1991 rd=3663 wr=407 fl=198 tiles=4 passes=8 out=5ee2fc5346b82827",
    "narrow/zero_b/Dense-CSC load_b=0 stream_a=252 drain=0 macs=0 eff=0 bus=1584 rd=0 wr=0 fl=0 tiles=4 passes=4 out=5ee2fc5346b82827",
    "narrow/zero_b/CSR-Dense load_b=62 stream_a=64 drain=37 macs=176 eff=0 bus=579 rd=176 wr=407 fl=110 tiles=4 passes=8 out=5ee2fc5346b82827",
    "narrow/zero_b/CSR-CSC load_b=0 stream_a=32 drain=0 macs=0 eff=0 bus=160 rd=0 wr=0 fl=0 tiles=4 passes=4 out=5ee2fc5346b82827",
    "narrow/zero_b/COO-Dense load_b=62 stream_a=64 drain=37 macs=176 eff=0 bus=599 rd=176 wr=407 fl=110 tiles=4 passes=8 out=5ee2fc5346b82827",
    "narrow/zero_b/COO-CSC load_b=0 stream_a=32 drain=0 macs=0 eff=0 bus=192 rd=0 wr=0 fl=0 tiles=4 passes=4 out=5ee2fc5346b82827",
    "narrow/zero_b/CSC-Dense load_b=62 stream_a=64 drain=59 macs=176 eff=0 bus=591 rd=176 wr=407 fl=176 tiles=4 passes=8 out=5ee2fc5346b82827",
    "narrow/zero_b/CSC-CSC load_b=0 stream_a=56 drain=0 macs=0 eff=0 bus=184 rd=0 wr=0 fl=0 tiles=4 passes=4 out=5ee2fc5346b82827",
    "narrow/zero_b/spgemm load_b=0 stream_a=8 drain=0 macs=0 eff=0 bus=40 rd=0 wr=0 fl=0 tiles=1 passes=1 out=5ee2fc5346b82827",
    "narrow/zero_a/Dense-Dense load_b=62 stream_a=1332 drain=66 macs=3663 eff=0 bus=1991 rd=3663 wr=407 fl=198 tiles=4 passes=8 out=5ee2fc5346b82827",
    "narrow/zero_a/Dense-CSC load_b=124 stream_a=1332 drain=132 macs=3663 eff=0 bus=2398 rd=3663 wr=814 fl=396 tiles=4 passes=16 out=5ee2fc5346b82827",
    "narrow/zero_a/CSR-Dense load_b=62 stream_a=0 drain=0 macs=0 eff=0 bus=407 rd=0 wr=407 fl=0 tiles=4 passes=8 out=5ee2fc5346b82827",
    "narrow/zero_a/CSR-CSC load_b=124 stream_a=0 drain=0 macs=0 eff=0 bus=814 rd=0 wr=814 fl=0 tiles=4 passes=16 out=5ee2fc5346b82827",
    "narrow/zero_a/COO-Dense load_b=62 stream_a=0 drain=0 macs=0 eff=0 bus=407 rd=0 wr=407 fl=0 tiles=4 passes=8 out=5ee2fc5346b82827",
    "narrow/zero_a/COO-CSC load_b=124 stream_a=0 drain=0 macs=0 eff=0 bus=814 rd=0 wr=814 fl=0 tiles=4 passes=16 out=5ee2fc5346b82827",
    "narrow/zero_a/CSC-Dense load_b=62 stream_a=0 drain=0 macs=0 eff=0 bus=407 rd=0 wr=407 fl=0 tiles=4 passes=8 out=5ee2fc5346b82827",
    "narrow/zero_a/CSC-CSC load_b=124 stream_a=0 drain=0 macs=0 eff=0 bus=814 rd=0 wr=814 fl=0 tiles=4 passes=16 out=5ee2fc5346b82827",
    "narrow/zero_a/spgemm load_b=124 stream_a=0 drain=0 macs=0 eff=0 bus=814 rd=0 wr=814 fl=0 tiles=1 passes=13 out=5ee2fc5346b82827",
    "narrow/hyper/Dense-Dense load_b=62 stream_a=1332 drain=66 macs=3663 eff=1 bus=1991 rd=3663 wr=407 fl=198 tiles=4 passes=8 out=6cc1c5c3751f0f57",
    "narrow/hyper/Dense-CSC load_b=5 stream_a=252 drain=21 macs=81 eff=1 bus=1602 rd=81 wr=18 fl=63 tiles=4 passes=4 out=6cc1c5c3751f0f57",
    "narrow/hyper/CSR-Dense load_b=62 stream_a=24 drain=22 macs=66 eff=1 bus=479 rd=66 wr=407 fl=66 tiles=4 passes=8 out=6cc1c5c3751f0f57",
    "narrow/hyper/CSR-CSC load_b=5 stream_a=20 drain=1 macs=1 eff=1 bus=86 rd=1 wr=18 fl=1 tiles=4 passes=4 out=6cc1c5c3751f0f57",
    "narrow/hyper/COO-Dense load_b=62 stream_a=24 drain=22 macs=66 eff=1 bus=479 rd=66 wr=407 fl=66 tiles=4 passes=8 out=6cc1c5c3751f0f57",
    "narrow/hyper/COO-CSC load_b=5 stream_a=12 drain=1 macs=1 eff=1 bus=90 rd=1 wr=18 fl=1 tiles=4 passes=4 out=6cc1c5c3751f0f57",
    "narrow/hyper/CSC-Dense load_b=62 stream_a=24 drain=22 macs=66 eff=1 bus=475 rd=66 wr=407 fl=66 tiles=4 passes=8 out=6cc1c5c3751f0f57",
    "narrow/hyper/CSC-CSC load_b=5 stream_a=20 drain=1 macs=1 eff=1 bus=86 rd=1 wr=18 fl=1 tiles=4 passes=4 out=6cc1c5c3751f0f57",
    "narrow/hyper/spgemm load_b=3 stream_a=5 drain=1 macs=1 eff=1 bus=35 rd=2 wr=18 fl=1 tiles=1 passes=1 out=6cc1c5c3751f0f57",
];
