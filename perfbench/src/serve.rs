//! The two serving workloads: SpGEMM jobs sent as wire frames from 4
//! tenants into a 2-worker [`FlexService`].
//!
//! * `serve_hot` draws jobs from a small fixed pool of shape x density
//!   classes (0.5% to 100% dense). SAGE picks both dataflows and several
//!   MCF/ACF pairs across the pool; after warm-up every plan is a cache
//!   hit, so host time goes to format encoding, MINT conversion and the
//!   accelerator simulator.
//! * `serve_cold` sends small hyper-sparse jobs whose workload keys are
//!   all new. Each key arrives twice, back to back, from two tenants, and
//!   a run uses more keys than the 256-entry plan cache holds: the
//!   cache's miss, insert and evict path, with an ideal hit share of 0.5.
//!
//! A run has three phases, all on the same generated jobs:
//! 1. *set-up* (timed as `setup_s`, repeated, median reported): build the
//!    system, start the service, register tenants, serve warm-up jobs;
//! 2. *open loop* (latencies), on the last set-up's service: one
//!    generator thread submits each job at its due time at a fixed rate
//!    and polls tickets with `try_wait`; latency runs from the due time
//!    to the observed completion;
//! 3. *drain* (`ops_per_s`): a fixed backlog is submitted to a fresh
//!    paused service, which is then resumed and timed until empty.
//!
//! Every served result is decoded and compared bit for bit with
//! `FlexSystem::run_pipelined` on the same operands. The traced run adds
//! a single-threaded replay of the open-loop jobs with a span around
//! every layer call (see `replay`).

use crate::gen::{random_matrix, Rng};
use crate::metrics;
use crate::report::{peak_rss_mib, Outcome};
use crate::trace::{median, quantile, Tracer};
use sparseflex_accel::{simulate_spgemm, simulate_ws};
use sparseflex_core::{BatchJob, Dataflow, FlexSystem, PlanDiscipline, RunError};
use sparseflex_formats::{
    csr_cow, tile_column_ranges, CooMatrix, DataType, DenseMatrix, MatrixData, MatrixFormat,
    MatrixTile, SparseMatrix,
};
use sparseflex_serve::{
    wire, FlexService, JobOutcome, JobTicket, Priority, ServeConfig, ServeError, WireJob,
    WireResult,
};
use std::collections::{BTreeSet, HashMap};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Which serving workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Fixed pool of classes; every plan is a cache hit after warm-up.
    Hot,
    /// Every workload key new; each arrives twice.
    Cold,
}

/// Open-loop arrival rates (jobs/s): about a tenth of each workload's
/// drain throughput at the commit that introduced the benchmark (2200 to
/// 3100 and 3500 to 5900 jobs/s on a 2-core virtual host, release build;
/// the range is the host's own drift). Frozen so that later changes are
/// measured at the same offered load. At a quarter of the drain
/// throughput the 99th-percentile latency varied by more than half its
/// median between runs on that host.
const HOT_RATE_PER_S: f64 = 225.0;
/// See `HOT_RATE_PER_S`.
const COLD_RATE_PER_S: f64 = 450.0;

/// Drain backlog size per second of `--seconds`: each drain then takes
/// about 7% of the run at the throughput the rates were set from.
const HOT_BACKLOG_PER_S: f64 = 120.0;
const COLD_BACKLOG_PER_S: f64 = 250.0;
/// Drains per run; `ops_per_s` is their median.
const DRAINS: usize = 5;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// The open loop is cut into windows by due time. The first
/// `WARMUP_WINDOWS` warm the service (its arenas and the allocator reach
/// steady state) and are not reported; the latency percentiles are the
/// median of the other windows' percentiles, so one stalled stretch of
/// the host does not decide a run.
const WINDOWS: usize = 12;
const WARMUP_WINDOWS: usize = 3;
const TENANTS: u32 = 4;
const WORKERS: usize = 2;
/// Share of `--seconds` given to the open-loop phase; the drains take
/// most of the rest.
const OPEN_LOOP_SHARE: f64 = 0.6;
/// Mean sleep of the generator's submit-and-poll loop. Each sleep is
/// drawn uniformly from half to one and a half times this: a fixed period
/// would lock the polls to the arrival grid, so every job of a class
/// would be observed the same whole number of periods after its due
/// time, and the median latency would jump by a whole period when the
/// class's service time crossed a poll.
const POLL_PERIOD: Duration = Duration::from_micros(50);
/// Open-loop jobs the traced run replays on one thread, and how many
/// untraced/traced replay pairs it makes.
const REPLAY_JOBS: usize = 600;
const REPLAY_PAIRS: usize = 3;

/// `serve_hot` classes: shapes (m, k, n) x densities of both operands,
/// each density with its draw weight. Sparse classes run as sub-0.4 ms
/// Gustavson jobs and dense ones as millisecond weight-stationary jobs;
/// drawing the sparse ones twice as often puts the median latency inside
/// the cheap cluster instead of in the gap between the two, where it
/// would flip from one cluster to the other between runs.
const HOT_SHAPES: [(usize, usize, usize); 3] = [(32, 32, 32), (48, 96, 32), (64, 64, 64)];
const HOT_DENSITIES: [(f64, usize); 6] = [
    (0.005, 2),
    (0.02, 2),
    (0.1, 2),
    (0.3, 1),
    (0.7, 1),
    (1.0, 1),
];

/// The accelerator every serving run models: the paper's instance cut
/// down to 8 PEs with 64-element buffers, so jobs span several column
/// tiles and the cycle-accurate simulator stays fast.
pub(crate) fn system() -> FlexSystem {
    let mut sys = FlexSystem::default();
    sys.sage.accel.num_pes = 8;
    sys.sage.accel.pe_buffer_elems = 64;
    sys
}

fn config(start_paused: bool) -> ServeConfig {
    ServeConfig {
        workers: WORKERS,
        // Admission limits above any backlog the benchmark builds: it
        // measures service, not shedding.
        queue_capacity: 1 << 16,
        tenant_inflight_cap: 1 << 16,
        start_paused,
        ..ServeConfig::default()
    }
}

/// One operand pair; the unit the reference outputs are keyed on.
#[derive(Debug, Clone)]
pub struct Operands {
    /// Streaming operand.
    pub a: CooMatrix,
    /// Stationary operand.
    pub b: CooMatrix,
}

/// One submission: which operands, from which tenant, as which frame.
#[derive(Debug, Clone, Copy)]
pub struct Job {
    /// Index into [`Inputs::pool`].
    pub op: usize,
    /// Submitting tenant.
    pub tenant: u32,
    /// Index into [`Inputs::frames`].
    pub frame: usize,
}

/// Everything a serving run submits, generated from the seed.
#[derive(Debug)]
pub struct Inputs {
    /// Distinct operand pairs.
    pub pool: Vec<Operands>,
    /// Encoded job frames, shared by jobs with equal operands and tenant.
    pub frames: Vec<Vec<u8>>,
    /// Jobs served during set-up.
    pub warm: Vec<Job>,
    /// One backlog per drain.
    pub drains: Vec<Vec<Job>>,
    /// Open-loop jobs in arrival order.
    pub open: Vec<Job>,
    /// Due time of each open-loop job, from the start of the phase.
    pub due: Vec<Duration>,
}

/// The format a client sends an operand in: dense once half full,
/// CSR otherwise.
fn wire_format(m: &CooMatrix) -> MatrixFormat {
    if m.density() >= 0.5 {
        MatrixFormat::Dense
    } else {
        MatrixFormat::Csr
    }
}

struct JobSet {
    inputs: Inputs,
    frame_ids: HashMap<(usize, u32), usize>,
}

impl JobSet {
    fn job(&mut self, op: usize, tenant: u32) -> Job {
        let pool = &self.inputs.pool;
        let frames = &mut self.inputs.frames;
        let frame = *self.frame_ids.entry((op, tenant)).or_insert_with(|| {
            let o = &pool[op];
            let job = WireJob {
                tenant,
                priority: Priority::Normal,
                dtype: DataType::Fp32,
                a: MatrixData::encode(&o.a, &wire_format(&o.a)).expect("encodable"),
                b: MatrixData::encode(&o.b, &wire_format(&o.b)).expect("encodable"),
            };
            frames.push(wire::encode_job(&job).expect("frame fits"));
            frames.len() - 1
        });
        Job { op, tenant, frame }
    }
}

/// Generate the inputs of one run: the job pool, the frames, and the
/// warm-up, open-loop and (when `drains` is set) drain sequences for
/// `seconds` of measurement. The drains are drawn last, so the other
/// sequences do not depend on whether they are drawn.
pub fn generate(kind: Kind, seed: u64, seconds: f64, drains: bool) -> Inputs {
    let drains = if drains { DRAINS } else { 0 };
    let (rate, backlog_per_s) = match kind {
        Kind::Hot => (HOT_RATE_PER_S, HOT_BACKLOG_PER_S),
        Kind::Cold => (COLD_RATE_PER_S, COLD_BACKLOG_PER_S),
    };
    // Even counts keep cold keys in pairs.
    let arrivals = ((rate * seconds * OPEN_LOOP_SHARE) as usize).max(2) & !1;
    let backlog = ((backlog_per_s * seconds) as usize).max(2) & !1;
    let due = (0..arrivals)
        .map(|i| Duration::from_secs_f64(i as f64 / rate))
        .collect();
    let mut b = JobSet {
        inputs: Inputs {
            pool: Vec::new(),
            frames: Vec::new(),
            warm: Vec::new(),
            drains: Vec::new(),
            open: Vec::new(),
            due,
        },
        frame_ids: HashMap::new(),
    };
    let mut rng = Rng::new(seed, 1);
    match kind {
        Kind::Hot => {
            // Class indices, each repeated by its draw weight.
            let mut draw = Vec::new();
            for &(m, k, n) in &HOT_SHAPES {
                for &(d, weight) in &HOT_DENSITIES {
                    let nnz = |r: usize, c: usize| (((r * c) as f64 * d).round() as usize).max(1);
                    let a = random_matrix(&mut rng, m, k, nnz(m, k));
                    let bm = random_matrix(&mut rng, k, n, nnz(k, n));
                    draw.extend(std::iter::repeat_n(b.inputs.pool.len(), weight));
                    b.inputs.pool.push(Operands { a, b: bm });
                }
            }
            let classes = b.inputs.pool.len();
            // Two passes: the first plans every class, the second runs
            // each from the plan cache.
            for i in 0..2 * classes {
                let job = b.job(i % classes, i as u32 % TENANTS + 1);
                b.inputs.warm.push(job);
            }
            let mut seq = |b: &mut JobSet, count: usize| -> Vec<Job> {
                let mut jobs = Vec::with_capacity(count);
                for i in 0..count {
                    let c = draw[rng.below(draw.len())];
                    jobs.push(b.job(c, i as u32 % TENANTS + 1));
                }
                jobs
            };
            b.inputs.open = seq(&mut b, arrivals);
            for _ in 0..drains {
                let d = seq(&mut b, backlog);
                b.inputs.drains.push(d);
            }
        }
        Kind::Cold => {
            // Each key is minted once and submitted twice, back to back,
            // from a tenant pair; keys are never reused within a run.
            let mut seen = std::collections::HashSet::new();
            let mut seq = |b: &mut JobSet, count: usize| -> Vec<Job> {
                let mut jobs = Vec::with_capacity(count);
                while jobs.len() < count {
                    let (m, k, n) = (rng.range(16, 80), rng.range(16, 80), rng.range(16, 80));
                    let (na, nb) = (rng.range(2, m * k / 64), rng.range(2, k * n / 64));
                    if !seen.insert((m, k, n, na, nb)) {
                        continue;
                    }
                    let a = random_matrix(&mut rng, m, k, na);
                    let bm = random_matrix(&mut rng, k, n, nb);
                    b.inputs.pool.push(Operands { a, b: bm });
                    let op = b.inputs.pool.len() - 1;
                    let t = (op as u32 % 2) * 2 + 1;
                    jobs.push(b.job(op, t));
                    jobs.push(b.job(op, t + 1));
                }
                jobs
            };
            b.inputs.warm = seq(&mut b, 64);
            b.inputs.open = seq(&mut b, arrivals);
            for _ in 0..drains {
                let d = seq(&mut b, backlog);
                b.inputs.drains.push(d);
            }
        }
    }
    b.inputs
}

/// A reference output, kept compact: the shape plus every entry whose
/// bit pattern is not `+0.0`. Most cold outputs are nearly all zeros,
/// and the references of a run must not dominate its peak memory.
#[derive(Debug, Clone, PartialEq)]
struct Expected {
    rows: usize,
    cols: usize,
    entries: Vec<(usize, u64)>,
}

impl Expected {
    fn of(m: &DenseMatrix) -> Self {
        let entries = m
            .data()
            .iter()
            .enumerate()
            .filter(|(_, v)| v.to_bits() != 0)
            .map(|(i, v)| (i, v.to_bits()))
            .collect();
        Expected {
            rows: m.rows(),
            cols: m.cols(),
            entries,
        }
    }

    /// True when `m` equals the reference bit for bit.
    fn matches(&self, m: &DenseMatrix) -> bool {
        if (m.rows(), m.cols()) != (self.rows, self.cols) {
            return false;
        }
        let mut want = self.entries.iter().peekable();
        m.data().iter().enumerate().all(|(i, v)| match want.peek() {
            Some(&&(j, bits)) if j == i => {
                want.next();
                v.to_bits() == bits
            }
            _ => v.to_bits() == 0,
        })
    }
}

/// Reference outputs and modeled cycles: one untimed pass of the job pool
/// through `FlexSystem::run_pipelined` on a fresh system.
fn references(pool: &[Operands]) -> Result<(Vec<Expected>, u64), RunError> {
    let sys = system();
    let mut cycles = 0;
    let mut outs = Vec::with_capacity(pool.len());
    for o in pool {
        let w = BatchJob::spgemm(o.a.clone(), o.b.clone(), DataType::Fp32).workload;
        let run = sys.run_pipelined(&o.a, &o.b, &w)?;
        cycles += run.overlapped_cycles();
        outs.push(Expected::of(&run.output));
    }
    Ok((outs, cycles))
}

/// True when a served outcome decodes to the reference output bit for bit.
fn served_ok(res: &Result<JobOutcome, ServeError>, ticket_id: u64, reference: &Expected) -> bool {
    match res {
        Ok(o) => match wire::decode_result(&o.result_frame) {
            Ok(r) => r.job_id == ticket_id && reference.matches(&r.output),
            Err(_) => false,
        },
        Err(_) => false,
    }
}

fn start_service(paused: bool) -> FlexService {
    let svc = FlexService::start(system(), config(paused)).expect("serve workers start");
    for t in 1..=TENANTS {
        svc.register_tenant(t, 1);
    }
    svc
}

/// Submit `jobs` to a paused service, resume it, and wait for all of
/// them; returns the seconds from resume to the last completion.
fn serve_backlog(
    svc: &FlexService,
    inputs: &Inputs,
    refs: &[Expected],
    jobs: &[Job],
    out: &mut Outcome,
) -> f64 {
    let tickets: Vec<(Job, Option<JobTicket>)> = jobs
        .iter()
        .map(|j| (*j, svc.submit_frame(&inputs.frames[j.frame]).ok()))
        .collect();
    let t0 = Instant::now();
    svc.resume();
    // Each outcome is checked as it is collected and then dropped, so a
    // drain never holds its result frames.
    for (j, t) in tickets {
        out.attempt(t.is_some_and(|t| {
            let id = t.job_id;
            served_ok(&t.wait(), id, &refs[j.op])
        }));
    }
    t0.elapsed().as_secs_f64()
}

/// What the open-loop phase observed.
#[derive(Debug, Default)]
struct OpenLoop {
    /// Latencies per window of due times.
    latency_us: Vec<Vec<f64>>,
    lag_us: Vec<f64>,
    poll_us: Vec<f64>,
    queue_wait_us: Vec<f64>,
    completed: u64,
    stolen: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// Drive the open-loop phase on a warm, running service.
fn open_loop(svc: &FlexService, inputs: &Inputs, refs: &[Expected], out: &mut Outcome) -> OpenLoop {
    let clock_hz = svc.system().sage.accel.clock_hz;
    let before = svc.stats();
    let mut ol = OpenLoop {
        latency_us: vec![Vec::new(); WINDOWS],
        ..OpenLoop::default()
    };
    let mut pending: Vec<(usize, JobTicket)> = Vec::new();
    let mut dither = Rng::new(0, 0x9011);
    let mut next = 0;
    let n = inputs.open.len();
    let start = Instant::now();
    let mut last_iter = Duration::ZERO;
    loop {
        let now = start.elapsed();
        while next < n && inputs.due[next] <= start.elapsed() {
            let lag = start.elapsed() - inputs.due[next];
            ol.lag_us.push(lag.as_secs_f64() * 1e6);
            let job = inputs.open[next];
            match svc.submit_frame(&inputs.frames[job.frame]) {
                Ok(t) => pending.push((next, t)),
                Err(_) => out.attempt(false),
            }
            next += 1;
        }
        pending.retain(|(i, t)| match t.try_wait() {
            None => true,
            Some(res) => {
                let seen = start.elapsed();
                ol.latency_us[*i * WINDOWS / n].push((seen - inputs.due[*i]).as_secs_f64() * 1e6);
                if let Ok(o) = &res {
                    ol.queue_wait_us
                        .push(o.queue_wait_cycles as f64 / clock_hz * 1e6);
                }
                out.attempt(served_ok(&res, t.job_id, &refs[inputs.open[*i].op]));
                false
            }
        });
        if next == n && pending.is_empty() {
            break;
        }
        ol.poll_us.push((now - last_iter).as_secs_f64() * 1e6);
        last_iter = now;
        let mut wake = start.elapsed() + POLL_PERIOD.mul_f64(0.5 + dither.unit());
        if next < n {
            wake = wake.min(inputs.due[next]);
        }
        if let Some(d) = wake.checked_sub(start.elapsed()) {
            std::thread::sleep(d);
        }
    }
    let after = svc.stats();
    ol.completed = after.jobs_completed - before.jobs_completed;
    ol.stolen = after.jobs_stolen - before.jobs_stolen;
    let cache = after.cache.since(before.cache);
    (ol.hits, ol.misses, ol.evictions) = (cache.hits, cache.misses, cache.evictions);
    ol
}

/// Per-layer numbers from a traced replay.
#[derive(Debug, Default)]
struct Replay {
    /// The span recorder (empty when replayed untraced).
    tracer: Option<Tracer>,
    /// Wall time of the whole replay, s.
    seconds: f64,
    /// Modeled MINT conversion cycles per job.
    conversion_cycles: Vec<f64>,
    /// Modeled accelerator compute cycles, summed over jobs.
    compute_cycles: u64,
    /// Wire bytes of the replayed job frames, summed.
    frame_bytes: u64,
    /// Operand nonzeros of the replayed jobs, summed.
    nnz: u64,
    /// Distinct dataflows of the replayed plans.
    dataflows: BTreeSet<String>,
    /// Distinct MCF(A)/MCF(B) -> ACF(A)/ACF(B) choices of the replayed plans.
    pairs: BTreeSet<String>,
    /// Jobs whose replayed output differed from the reference.
    mismatches: u64,
}

/// Replay `jobs` on one thread through the same public calls a service
/// worker makes — `wire::decode_job` → `Planner::evaluate_cached` →
/// `plan_pinned` → `execute_plan` → `wire::encode_result` — with a span
/// around each. `execute_plan` is then split from outside: its steps
/// (`MatrixData::encode`, `tile_column_ranges`, `convert_matrix`,
/// `simulate_spgemm`/`simulate_ws`) are re-run one by one under their
/// own spans. On a plan-cache miss, `Sage::recommend` is timed on its own
/// for the missed key.
fn replay(inputs: &Inputs, refs: &[Expected], jobs: &[Job], traced: bool) -> Replay {
    let sys = system();
    let mut tr = Tracer::new(traced);
    let mut rp = Replay::default();
    let t0 = Instant::now();
    for (j, job) in jobs.iter().enumerate() {
        let id = j as u64;
        let frame = &inputs.frames[job.frame];
        rp.frame_bytes += frame.len() as u64;
        let ok = tr.span(
            "serve.job",
            id,
            |tr| -> Result<bool, Box<dyn std::error::Error>> {
                let wj = tr.span("serve.wire.decode_job", id, |_| wire::decode_job(frame))?;
                let bj = tr.span("serve.service.admit", id, |_| {
                    BatchJob::spgemm(wj.a.to_coo(), wj.b.to_coo(), wj.dtype)
                });
                let (a, b) = (&bj.a, &bj.b);
                let (eval, hit) = tr.span("core.planner.lookup", id, |_| {
                    sys.planner.evaluate_cached(&sys.sage, &bj.workload)
                });
                if !hit {
                    tr.span("sage.recommend", id, |_| {
                        black_box(sys.sage.recommend(&bj.workload))
                    });
                }
                let plan = tr.span("core.planner.schedule", id, |_| {
                    sys.planner.plan_pinned(
                        &sys.sage,
                        a,
                        b,
                        bj.workload,
                        eval,
                        PlanDiscipline::Pipelined,
                    )
                })?;
                let run = tr.span("core.planner.execute", id, |_| {
                    sys.planner.execute_plan(&sys.sage, &plan, a, b)
                })?;
                let (conv, compute) = tr.span(
                    "core.planner.execute_replay",
                    id,
                    |tr| -> Result<(u64, u64), RunError> {
                        let c = plan.choice();
                        let a_mem =
                            tr.span("formats.encode", id, |_| MatrixData::encode(a, &c.mcf_a))?;
                        let b_mem =
                            tr.span("formats.encode", id, |_| MatrixData::encode(b, &c.mcf_b))?;
                        let ranges = &plan.schedule.ranges;
                        let tiles = if ranges[..] == [(0, b_mem.cols())] {
                            let (col_end, data) = (b_mem.cols(), b_mem);
                            vec![MatrixTile {
                                col_start: 0,
                                col_end,
                                data,
                            }]
                        } else {
                            tr.span("formats.tile", id, |_| tile_column_ranges(&b_mem, ranges))?
                        };
                        let (a_acf, conv_a) = tr.span("mint.convert", id, |_| {
                            sys.sage.mint.convert_matrix(&a_mem, &c.acf_a)
                        })?;
                        let mut conv = conv_a.pipelined_cycles();
                        let mut compute = 0;
                        for tile in &tiles {
                            let (t_acf, rep) = tr.span("mint.convert", id, |_| {
                                sys.sage.mint.convert_matrix(&tile.data, &c.acf_b)
                            })?;
                            conv += rep.pipelined_cycles();
                            let sim = tr.span("accel.simulate", id, |_| {
                                if plan.dataflow == Dataflow::GustavsonSpGemm {
                                    simulate_spgemm(
                                        &csr_cow(&a_acf),
                                        &csr_cow(&t_acf),
                                        &sys.sage.accel,
                                    )
                                } else {
                                    simulate_ws(&a_acf, &t_acf, &sys.sage.accel)
                                }
                            })?;
                            compute += sim.cycles.total();
                        }
                        Ok((conv, compute))
                    },
                )?;
                rp.conversion_cycles.push(conv as f64);
                rp.compute_cycles += compute;
                rp.nnz += (a.nnz() + b.nnz()) as u64;
                rp.dataflows.insert(format!("{:?}", plan.dataflow));
                let ch = plan.choice();
                rp.pairs.insert(format!(
                    "{}/{}->{}/{}",
                    ch.mcf_a, ch.mcf_b, ch.acf_a, ch.acf_b
                ));
                let same = refs[job.op].matches(&run.output);
                tr.span("serve.wire.encode_result", id, |_| {
                    wire::encode_result(&WireResult {
                        job_id: id,
                        output: run.output,
                    })
                })?;
                Ok(same)
            },
        );
        if !matches!(ok, Ok(true)) {
            rp.mismatches += 1;
        }
    }
    rp.seconds = t0.elapsed().as_secs_f64();
    rp.tracer = traced.then_some(tr);
    rp
}

fn p50(v: &[f64]) -> f64 {
    median(v)
}

fn p99(v: &[f64]) -> f64 {
    quantile(v, 0.99)
}

/// Run one serving workload for `seconds` and report its metrics:
/// end-to-end ones when `traced` is false, per-layer ones otherwise.
pub fn run(
    kind: Kind,
    seed: u64,
    seconds: f64,
    traced: bool,
    spans_out: Option<&std::path::Path>,
) -> Outcome {
    let inputs = generate(kind, seed, seconds, !traced);
    let mut out = Outcome::default();
    let (refs, modeled_cycles) = references(&inputs.pool).expect("every pool job runs");

    // 1. Set-up, repeated; the last service stays up for the open loop.
    let mut setup_s = Vec::new();
    let mut service: Option<FlexService> = None;
    for _ in 0..SETUP_REPS {
        if let Some(s) = service.take() {
            s.shutdown();
        }
        let t0 = Instant::now();
        let svc = start_service(true);
        serve_backlog(&svc, &inputs, &refs, &inputs.warm, &mut out);
        setup_s.push(t0.elapsed().as_secs_f64());
        service = Some(svc);
    }
    let svc = service.expect("at least one set-up");

    // 2. Open loop on the warm set-up service. It runs before the drains:
    // the drains leave the allocator's heap grown and fragmented, which
    // slows the next seconds of any phase that follows them.
    let ol = open_loop(&svc, &inputs, &refs, &mut out);
    svc.shutdown();

    // 3. Drains, each on a fresh paused service (untraced run only).
    let mut drain_ops = Vec::new();
    for backlog in &inputs.drains {
        let d = start_service(true);
        let secs = serve_backlog(&d, &inputs, &refs, backlog, &mut out);
        drain_ops.push(backlog.len() as f64 / secs);
        d.shutdown();
    }
    let poll = p50(&ol.poll_us);
    let lag = p99(&ol.lag_us);
    out.notes.push(format!(
        "{} open-loop jobs at {:.0}/s; {} pool operand pairs; generator poll p50 {:.1} us, lag p99 {:.1} us",
        inputs.open.len(),
        match kind {
            Kind::Hot => HOT_RATE_PER_S,
            Kind::Cold => COLD_RATE_PER_S,
        },
        inputs.pool.len(),
        poll,
        lag
    ));

    out.notes.push(format!(
        "window p50s {:?} us; window p99s {:?} us (the first {WARMUP_WINDOWS} warm up and are not reported)",
        ol.latency_us.iter().map(|w| p50(w).round()).collect::<Vec<_>>(),
        ol.latency_us.iter().map(|w| p99(w).round()).collect::<Vec<_>>()
    ));
    let v = |name: &str, value: f64, note: &'static str| (name.to_string(), value, note);
    let lat_note = format!(
        "due time to observed completion, median of {} windows; poll p50 {poll:.1} us, generator lag p99 {lag:.1} us",
        WINDOWS - WARMUP_WINDOWS
    );
    let windowed = |pct: fn(&[f64]) -> f64| {
        median(
            &ol.latency_us[WARMUP_WINDOWS..]
                .iter()
                .map(|w| pct(w))
                .collect::<Vec<_>>(),
        )
    };
    let (lat_p50, lat_p99) = (windowed(p50), windowed(p99));
    if !traced {
        let values = vec![
            v(
                "setup_s",
                median(&setup_s),
                "median of set-ups: start, register, warm-up",
            ),
            v(
                "ops_per_s",
                median(&drain_ops),
                "median of drained backlogs",
            ),
            (String::from("latency_p50_us"), lat_p50, lat_note.as_str()),
            v(
                "success_share",
                1.0 - out.failed as f64 / out.attempted.max(1) as f64,
                "",
            ),
            v(
                "modeled_cycles",
                modeled_cycles as f64,
                "run_pipelined over the job pool",
            ),
            v("peak_rss_mib", peak_rss_mib(), ""),
        ];
        metrics::emit(&mut out, false, &values);
        return out;
    }

    // Traced run: replay a prefix of the open-loop jobs on fresh systems,
    // untraced and traced in turn, after a discarded warm-up replay; the
    // tracing overhead compares the medians of the two kinds.
    let jobs = &inputs.open[..inputs.open.len().min(REPLAY_JOBS)];
    replay(&inputs, &refs, &jobs[..jobs.len() / 4], false);
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut rp = Replay::default();
    for _ in 0..REPLAY_PAIRS {
        for traced in [false, true] {
            let r = replay(&inputs, &refs, jobs, traced);
            for j in 0..jobs.len() as u64 {
                out.attempt(j >= r.mismatches);
            }
            if traced {
                traced_s.push(r.seconds);
                rp = r;
            } else {
                plain_s.push(r.seconds);
            }
        }
    }
    let tr = rp.tracer.as_ref().expect("traced replay records spans");
    if let Some(path) = spans_out {
        if let Err(e) = tr.write(path) {
            out.notes
                .push(format!("could not write spans to {}: {e}", path.display()));
        }
    }
    out.notes.push(format!(
        "dataflows: {}",
        rp.dataflows.iter().cloned().collect::<Vec<_>>().join(", ")
    ));
    out.notes.push(format!(
        "MCF/ACF pairs: {}",
        rp.pairs.iter().cloned().collect::<Vec<_>>().join(", ")
    ));
    let us = |name: &str| tr.per_job_self_us(name);
    let exec_ns = tr.total_self_ns("core.planner.execute") as f64;
    let parts_ns: f64 = [
        "formats.encode",
        "formats.tile",
        "mint.convert",
        "accel.simulate",
    ]
    .iter()
    .map(|n| tr.total_self_ns(n) as f64)
    .sum();
    let keys = inputs
        .open
        .iter()
        .map(|j| j.op)
        .collect::<BTreeSet<_>>()
        .len();
    let lookups = (ol.hits + ol.misses).max(1) as f64;

    let values: Vec<(String, f64, &str)> = vec![
        (String::from("latency_p99_us"), lat_p99, lat_note.as_str()),
        v(
            "accel.simulate_us_p50",
            p50(&us("accel.simulate")),
            "per job, summed over tiles",
        ),
        v(
            "accel.host_ns_per_modeled_cycle",
            tr.total_self_ns("accel.simulate") as f64 / rp.compute_cycles.max(1) as f64,
            "simulator host time over modeled compute cycles",
        ),
        v(
            "mint.convert_us_p50",
            p50(&us("mint.convert")),
            "per job: A plus every tile",
        ),
        v(
            "mint.conversion_cycles",
            rp.conversion_cycles.iter().sum::<f64>() / jobs.len().max(1) as f64,
            "modeled, mean per job",
        ),
        v(
            "formats.encode_us_p50",
            p50(&us("formats.encode")),
            "per job: A and B into their MCFs",
        ),
        v(
            "formats.tile_us_p50",
            p50(&us("formats.tile")),
            "per job that cuts tiles",
        ),
        v(
            "planner.execute_us_p50",
            p50(&us("core.planner.execute")),
            "",
        ),
        v(
            "planner.execute_us_p99",
            p99(&us("core.planner.execute")),
            "",
        ),
        v(
            "planner.execute_unattributed_share",
            (exec_ns - parts_ns) / exec_ns.max(1.0),
            "execute_plan time its outside replay does not account for",
        ),
        v(
            "planner.lookup_us_p50",
            p50(&us("core.planner.lookup")),
            "evaluate_cached",
        ),
        v(
            "planner.schedule_us_p50",
            p50(&us("core.planner.schedule")),
            "plan_pinned: encode B, cut tiles, predict",
        ),
        v(
            "planner.cache_hit_share",
            ol.hits as f64 / lookups,
            "service plan cache, open loop",
        ),
        v(
            "planner.searches_per_key",
            ol.misses as f64 / keys.max(1) as f64,
            "service plan cache, open loop",
        ),
        v(
            "planner.cache_evictions",
            ol.evictions as f64,
            "service plan cache, open loop",
        ),
        v(
            "planner.dataflows",
            rp.dataflows.len() as f64,
            "distinct, replayed plans",
        ),
        v(
            "planner.format_pairs",
            rp.pairs.len() as f64,
            "distinct MCF/ACF choices, replayed plans",
        ),
        v(
            "sage.recommend_us_p50",
            p50(&us("sage.recommend")),
            "Sage::recommend on each missed key",
        ),
        v(
            "wire.decode_job_us_p50",
            p50(&us("serve.wire.decode_job")),
            "",
        ),
        v(
            "wire.encode_result_us_p50",
            p50(&us("serve.wire.encode_result")),
            "",
        ),
        v(
            "wire.job_bytes_per_nnz",
            rp.frame_bytes as f64 / rp.nnz.max(1) as f64,
            "job frame bytes over operand nonzeros",
        ),
        v(
            "service.queue_wait_us_p50",
            p50(&ol.queue_wait_us),
            "queue_wait_cycles / clock_hz, untraced open loop",
        ),
        v(
            "service.queue_wait_us_p99",
            p99(&ol.queue_wait_us),
            "queue_wait_cycles / clock_hz, untraced open loop",
        ),
        v(
            "service.steal_share",
            ol.stolen as f64 / ol.completed.max(1) as f64,
            "untraced open loop",
        ),
        v(
            "service.gen_lag_us_p99",
            lag,
            "generator submit time minus due time",
        ),
        v("service.poll_us_p50", poll, "generator loop period"),
        v(
            "trace.overhead_share",
            median(&traced_s) / median(&plain_s) - 1.0,
            "traced over untraced replay time, medians, minus 1",
        ),
    ];
    metrics::emit(&mut out, true, &values);
    out
}
