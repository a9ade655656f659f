//! The four workloads: the inputs generated from the seed, one timed unit
//! of each, and the output checks every unit must pass.

use crate::stats::Digest;
use hplai_core::{
    hplai_flops, run, summit, testbed, Backend, CheckpointSpec, FaultPlan, ProcessGrid, RunConfig,
    RunEvent, RunOutcome, ServiceConfig, ServiceReport, SolveService, SupervisedOutcome,
    Supervisor,
};
use mxp_msgsim::{BcastAlgo, EventStats};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// One functional mixed-precision solve, N = 4096 on a 1×2 grid.
    SolveN4096,
    /// A closed loop of 1000 tiny solves drained by the solve service.
    ServiceSmall,
    /// A timing-fidelity run at Summit 48×144 on the event backend.
    EventSummit6912,
    /// A supervised campaign that checkpoints, faults and restarts.
    CkptRestart,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::SolveN4096,
        Workload::ServiceSmall,
        Workload::EventSummit6912,
        Workload::CkptRestart,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SolveN4096 => "solve-n4096",
            Workload::ServiceSmall => "service-small",
            Workload::EventSummit6912 => "event-summit-6912",
            Workload::CkptRestart => "ckpt-restart",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Problem sizes: the benchmark's own, or a tiny copy of each workload
/// for the benchmark's tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json` names.
    Full,
    /// Same shape of work, seconds-scale sizes.
    Tiny,
}

/// SplitMix64: the seed → input-seed mixer (a bijection, so distinct
/// inputs stay distinct).
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Everything the program receives for one workload, generated from the
/// seed. The program sees only these `RunConfig`s.
pub struct Inputs {
    /// Which workload.
    pub workload: Workload,
    /// The configuration a unit runs: the solve, the event run, or the
    /// faulted, checkpointed campaign. For the service, its first job.
    pub cfg: RunConfig,
    /// The service's batch (empty for the other workloads).
    pub jobs: Vec<RunConfig>,
    /// Distinct generated matrices in the batch.
    pub distinct: usize,
    /// Service worker threads.
    pub workers: usize,
    /// The campaign's supervisor.
    pub supervisor: Supervisor,
    /// Checkpoint directory of the campaign.
    pub ckpt_dir: PathBuf,
    /// The campaign's configuration without faults or checkpoints: the
    /// uninterrupted solve whose solution a restart must reproduce.
    pub plain: Option<RunConfig>,
    /// The campaign's configuration without faults, still checkpointing.
    pub ckpt_free: Option<RunConfig>,
}

/// Service workers per core: enough that the closed loop keeps every core
/// busy. With fewer, a job's latency is bimodal (it has the cores to
/// itself or shares them) and includes waking idle cores, so its median
/// and tail follow the host rather than the program (`perfbench/README.md`
/// has the measurements).
const SERVICE_WORKERS_PER_CORE: usize = 4;

/// The host's parallelism: the cap on shards; service workers are a
/// multiple of it.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

impl Inputs {
    /// Generates the inputs of `workload` from `seed`; checkpoint files go
    /// under `out_dir`.
    pub fn generate(workload: Workload, scale: Scale, seed: u64, out_dir: &Path) -> Inputs {
        let tiny = scale == Scale::Tiny;
        let matrix_seed = mix(seed, 0);
        let ckpt_dir = out_dir.join("checkpoints");
        let mut inputs = Inputs {
            workload,
            cfg: solve_cfg(
                if tiny { 256 } else { 4096 },
                if tiny { 32 } else { 128 },
                matrix_seed,
            ),
            jobs: Vec::new(),
            distinct: 0,
            workers: 1,
            supervisor: Supervisor::reporting(),
            ckpt_dir: ckpt_dir.clone(),
            plain: None,
            ckpt_free: None,
        };
        match workload {
            Workload::SolveN4096 => {}
            Workload::ServiceSmall => {
                let (jobs, distinct) = if tiny { (40, 4) } else { (1000, 32) };
                let seeds: Vec<u64> = (0..distinct as u64).map(|i| mix(seed, 1 + i)).collect();
                inputs.jobs = (0..jobs)
                    .map(|i| solve_cfg(64, 8, seeds[i % distinct]))
                    .collect();
                inputs.distinct = distinct;
                inputs.cfg = inputs.jobs[0].clone();
                inputs.workers = SERVICE_WORKERS_PER_CORE * nproc();
            }
            Workload::EventSummit6912 => {
                let (grid, n) = if tiny {
                    (ProcessGrid::node_local(6, 8, 3, 2), 24 * 768)
                } else {
                    (ProcessGrid::node_local(48, 144, 3, 2), 221_184)
                };
                inputs.cfg = RunConfig::timing(summit(), grid, n, 768)
                    .algo(BcastAlgo::Lib)
                    .backend(Backend::EventTimed)
                    .event_shards(2.min(nproc()))
                    .seed(matrix_seed)
                    .build()
                    .expect("the event workload configuration is valid");
            }
            Workload::CkptRestart => {
                let (n, b, interval, fault) = if tiny {
                    (512, 32, 4, "degrade:4x:k8:g3")
                } else {
                    (4096, 128, 8, "degrade:4x:k16:g3")
                };
                // 2×2: the slow-node scan flags a GCD against the fleet
                // median, which a 2-GCD fleet cannot single out.
                let grid = ProcessGrid::col_major(2, 2, 4);
                let plain = RunConfig::functional(testbed(1, 4), grid, n, b)
                    .seed(matrix_seed)
                    .build()
                    .expect("the campaign configuration is valid");
                let ckpt_free = plain
                    .to_builder()
                    .checkpoint(CheckpointSpec::new(&ckpt_dir, interval))
                    .build()
                    .expect("the checkpointed configuration is valid");
                let faults = FaultPlan::new()
                    .parse_spec(fault, 0)
                    .expect("the injected fault spec parses");
                inputs.cfg = ckpt_free
                    .to_builder()
                    .faults(faults)
                    .build()
                    .expect("the faulted configuration is valid");
                inputs.supervisor = Supervisor::with_restart(1.15, 2, false);
                inputs.plain = Some(plain);
                inputs.ckpt_free = Some(ckpt_free);
            }
        }
        inputs
    }

    /// HPL-MxP flops of one unit.
    pub fn unit_flops(&self) -> f64 {
        match self.workload {
            Workload::ServiceSmall => self.jobs.iter().map(|j| hplai_flops(j.n)).sum(),
            _ => hplai_flops(self.cfg.n),
        }
    }

    /// Solves one unit completes.
    pub fn unit_solves(&self) -> usize {
        match self.workload {
            Workload::ServiceSmall => self.jobs.len(),
            _ => 1,
        }
    }

    /// Empties the campaign's checkpoint directory.
    pub fn clear_ckpt_dir(&self) {
        // The directory may not exist yet; the run creates it.
        let _ = std::fs::remove_dir_all(&self.ckpt_dir);
    }
}

/// A functional 1×2 solve with fp16 trailing updates, look-ahead and the
/// library broadcast (the builder defaults).
fn solve_cfg(n: usize, b: usize, seed: u64) -> RunConfig {
    RunConfig::functional(testbed(1, 2), ProcessGrid::col_major(1, 2, 2), n, b)
        .seed(seed)
        .build()
        .expect("the solve configuration is valid")
}

/// What one unit returned, kept for the layer metrics.
pub enum Detail {
    /// A `run`.
    Run(RunOutcome),
    /// A service drain.
    Service(ServiceReport),
    /// A supervised campaign.
    Campaign(SupervisedOutcome),
}

/// One timed unit and its checks.
pub struct Unit {
    /// Host wall seconds.
    pub wall: f64,
    /// Per-solve latencies, seconds.
    pub latencies: Vec<f64>,
    /// Digest of the unit's outputs; identical across repetitions.
    pub digest: Digest,
    /// Failed output checks.
    pub failures: Vec<String>,
    /// Scheduler statistics when the unit ran on the event backend.
    pub event_stats: Option<EventStats>,
    /// The program's return value (dropped once a newer unit ran, so a
    /// run holds one unit's records at a time).
    pub detail: Option<Detail>,
}

/// Checks a functional outcome's convergence criterion.
fn check_converged(out: &RunOutcome, what: &str, failures: &mut Vec<String>) {
    let passed = out.converged && out.scaled_residual.is_some_and(|s| s < 16.0);
    if !passed {
        failures.push(format!(
            "{what}: converged={} scaled residual {:?}",
            out.converged, out.scaled_residual
        ));
    }
}

/// Digest of a run's solution and simulated results.
fn run_digest(out: &RunOutcome) -> Digest {
    let mut d = Digest::default();
    d.f64(out.perf.runtime);
    d.f64s(out.solution.as_deref().unwrap_or(&[]));
    for rank in &out.records {
        for r in rank {
            d.u64(r.k as u64);
            d.f64s(&[r.getrf, r.trsm, r.cast, r.gemm, r.bcast, r.wait, r.hidden]);
        }
    }
    d
}

/// Runs one unit of the workload. `reference` is the uninterrupted
/// solution a campaign must reproduce.
pub fn run_unit(inp: &Inputs, reference: Option<&[f64]>) -> Unit {
    let mut failures = Vec::new();
    match inp.workload {
        Workload::SolveN4096 | Workload::EventSummit6912 => {
            let t = Instant::now();
            let out = run(&inp.cfg);
            let wall = t.elapsed().as_secs_f64();
            let event_stats = mxp_msgsim::last_event_stats();
            if inp.workload == Workload::SolveN4096 {
                check_converged(&out, "solve", &mut failures);
            } else if !(out.converged && out.perf.runtime > 0.0) {
                failures.push(format!("event run: runtime {}", out.perf.runtime));
            }
            Unit {
                wall,
                latencies: vec![wall],
                digest: run_digest(&out),
                failures,
                event_stats,
                detail: Some(Detail::Run(out)),
            }
        }
        Workload::ServiceSmall => {
            let t = Instant::now();
            let mut svc = SolveService::new(ServiceConfig {
                workers: inp.workers,
                ..Default::default()
            });
            svc.submit_all(inp.jobs.iter().cloned());
            let report = svc.drain();
            let wall = t.elapsed().as_secs_f64();
            let mut digest = Digest::default();
            for job in &report.jobs {
                digest.u64(job.signature());
                check_converged(&job.outcome.outcome, "service job", &mut failures);
            }
            let ranks = inp.cfg.grid.size() as u64;
            if report.jobs.len() != inp.jobs.len() {
                failures.push(format!("service drained {} jobs", report.jobs.len()));
            }
            if report.cache.misses != inp.distinct as u64 * ranks {
                failures.push(format!(
                    "cache misses {} != {} distinct × {ranks} ranks",
                    report.cache.misses, inp.distinct
                ));
            }
            Unit {
                wall,
                latencies: report.jobs.iter().map(|j| j.latency_secs).collect(),
                digest,
                failures,
                event_stats: None,
                detail: Some(Detail::Service(report)),
            }
        }
        Workload::CkptRestart => {
            inp.clear_ckpt_dir();
            let t = Instant::now();
            let sup = inp.supervisor.supervise(&inp.cfg);
            let wall = t.elapsed().as_secs_f64();
            check_converged(&sup.outcome, "campaign", &mut failures);
            if !sup
                .events
                .iter()
                .any(|e| matches!(e, RunEvent::Restarted { .. }))
            {
                failures.push("campaign never restarted from a checkpoint".into());
            }
            // The warm-up unit runs before the reference exists; its
            // digest must still equal every checked unit's.
            if reference.is_some_and(|r| sup.outcome.solution.as_deref() != Some(r)) {
                failures.push("restarted solution differs from the uninterrupted solve".into());
            }
            let mut digest = run_digest(&sup.outcome);
            digest.f64(sup.total_cost);
            digest.u64(sup.attempts as u64);
            for e in &sup.events {
                digest.bytes(e.tag().as_bytes());
            }
            Unit {
                wall,
                latencies: vec![wall],
                digest,
                failures,
                event_stats: None,
                detail: Some(Detail::Campaign(sup)),
            }
        }
    }
}
