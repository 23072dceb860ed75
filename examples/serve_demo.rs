//! Serving-layer tour: three tenants share one `FlexService` — jobs
//! travel as binary wire frames through admission control into the
//! weighted-fair scheduler, execute on a central-queue worker pool over
//! one shared plan cache, and come back as result frames.
//!
//! Run with `cargo run --release --example serve_demo`.

use sparseflex::formats::{DataType, MatrixData, MatrixFormat, SparseMatrix};
use sparseflex::serve::{wire, FlexService, Priority, ServeConfig, WireJob};
use sparseflex::system::FlexSystem;
use sparseflex::workloads::synth::random_matrix;

fn main() {
    let mut system = FlexSystem::default();
    system.sage.accel.num_pes = 8;
    system.sage.accel.pe_buffer_elems = 64;

    let service = FlexService::start(
        system,
        ServeConfig {
            workers: 4,
            ..ServeConfig::default()
        },
    )
    .expect("service starts");
    // Tenant 3 pays for 4x the share of tenant 1.
    service.register_tenant(1, 1);
    service.register_tenant(2, 2);
    service.register_tenant(3, 4);

    println!("submitting 60 jobs from 3 tenants as wire frames...");
    let tickets: Vec<_> = (0..60)
        .map(|i| {
            let shape = [(16usize, 20usize, 12usize), (24, 16, 20), (12, 28, 16)][i % 3];
            let a = random_matrix(shape.0, shape.1, 80, 50 + (i % 3) as u64);
            let b = random_matrix(shape.1, shape.2, 90, 90 + (i % 3) as u64);
            let job = WireJob {
                tenant: (i % 3) as u32 + 1,
                priority: if i % 5 == 0 {
                    Priority::High
                } else {
                    Priority::Normal
                },
                dtype: DataType::Fp32,
                a: MatrixData::encode(&a, &MatrixFormat::Csr).unwrap(),
                b: MatrixData::encode(&b, &MatrixFormat::Zvc).unwrap(),
            };
            let frame = wire::encode_job(&job).unwrap();
            service.submit_frame(&frame).unwrap()
        })
        .collect();

    for ticket in tickets {
        let outcome = ticket.wait().expect("job completes");
        let result = wire::decode_result(&outcome.result_frame).unwrap();
        assert!(result.output.rows() > 0);
    }

    let stats = service.stats();
    println!(
        "\n{} jobs completed on {} workers ({} rejected)",
        stats.jobs_completed, stats.workers, stats.jobs_rejected
    );
    println!(
        "plan cache: {} hits / {} misses / {} evictions",
        stats.cache.hits, stats.cache.misses, stats.cache.evictions
    );
    println!("\ntenant  weight  submitted  completed  rejected  queue-wait (Mcycles)");
    for t in &stats.tenants {
        println!(
            "{:>6}  {:>6}  {:>9}  {:>9}  {:>8}  {:>20.2}",
            t.tenant,
            t.weight,
            t.submitted,
            t.completed,
            t.rejected,
            t.queue_wait_cycles as f64 / 1e6
        );
    }
}
