//! The repository benchmark: four workloads measured end to end with
//! tracing off, and one separate traced run that splits them into layers.
//! See `perfbench/README.md` for the workloads, the metrics and the
//! layer → metric → workload map.

pub mod layers;
pub mod stats;
pub mod trace;
pub mod workload;

use stats::{median, percentile, quartiles};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;
use workload::{nproc, run_unit, Inputs, Scale, Unit, Workload};

/// End-to-end metrics: name and unit, as `BENCHMARK.json` lists them.
pub const END_TO_END: [(&str, &str); 7] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("gflops", "GFLOP/s"),
    ("solves_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: name and unit, as `BENCHMARK.json` lists them.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("lcg.gen_gelems_per_s", "Gelem/s"),
    ("blas.gemm_mixed_replay_s", "s"),
    ("blas.trsm_replay_s", "s"),
    ("blas.getrf_replay_s", "s"),
    ("blas.cast_replay_s", "s"),
    ("blas.gemm_mixed_gflops", "GFLOP/s"),
    ("blas.trsm_gflops", "GFLOP/s"),
    ("blas.getrf_gflops", "GFLOP/s"),
    ("blas.cast_gbps", "GB/s"),
    ("blas.scratch_misses", "count"),
    ("blas.tune_sweeps", "count"),
    ("core.factor.new_s", "s"),
    ("core.factor.step_s", "s"),
    ("core.factor.step_p50_ms", "ms"),
    ("core.factor.step_max_ms", "ms"),
    ("core.factor.finish_s", "s"),
    ("core.factor.steps", "count"),
    ("core.factor.rank_skew", "ratio"),
    ("core.factor.kernel_gap_s", "s"),
    ("core.ir.s", "s"),
    ("core.ir.sweeps", "count"),
    ("core.runtime.comm_bytes", "B"),
    ("core.service.busy_frac", "ratio"),
    ("core.cache.hits", "count"),
    ("core.cache.misses", "count"),
    ("core.cache.hit_ratio", "ratio"),
    ("msgsim.event.run_s", "s"),
    ("msgsim.event.deliver_s", "s"),
    ("msgsim.event.idle_s", "s"),
    ("msgsim.event.switch_s_est", "s"),
    ("msgsim.event.sched_overhead", "ratio"),
    ("msgsim.event.resumes", "count"),
    ("msgsim.event.local_msgs", "count"),
    ("msgsim.event.cross_msgs", "count"),
    ("msgsim.event.stacks_allocated", "count"),
    ("msgsim.event.stacks_reused", "count"),
    ("msgsim.event.us_per_rank_iter", "us"),
    ("gpusim.rate_lookup_ns", "ns"),
    ("core.checkpoint.overhead_s", "s"),
    ("core.checkpoint.bytes_on_disk", "B"),
    ("core.checkpoint.files", "count"),
    ("core.checkpoint.scan_s", "s"),
    ("core.checkpoint.load_s", "s"),
    ("core.supervisor.attempts", "count"),
    ("core.supervisor.restarted_from_k", "count"),
    ("core.supervisor.attempt1_s", "s"),
    ("core.supervisor.restart_s", "s"),
    ("core.supervisor.cost_ratio", "ratio"),
    ("trace.overhead", "ratio"),
    ("trace.coverage", "ratio"),
];

/// How to run the benchmark once.
#[derive(Clone, Debug)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Seconds of untraced units to measure.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end metrics.
    pub trace: bool,
    /// Problem sizes.
    pub scale: Scale,
    /// Directory for checkpoints, records and Chrome traces.
    pub out_dir: PathBuf,
    /// Set-up times measured by separate processes, added to this
    /// process's own sample.
    pub extra_setup: Vec<f64>,
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name from [`END_TO_END`] or [`PER_LAYER`].
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// The reported value.
    pub value: f64,
    /// The samples it summarizes.
    pub samples: Vec<f64>,
}

/// Result of one benchmark run.
pub struct Outcome {
    /// Units and traced checks attempted.
    pub attempted: usize,
    /// Of which failed a check.
    pub failed: usize,
    /// Why, one line each.
    pub failures: Vec<String>,
    /// The reported metrics.
    pub metrics: Vec<Metric>,
    /// Untraced units measured (the warm-up unit excluded).
    pub units: usize,
}

impl Outcome {
    /// The value of metric `name`.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// The process's set-up: kernel tune resolution (a file hit once the
/// tune file is primed) and one warm-up unit, which also starts the thread
/// pool and is not among the measured units. Returns the seconds it took
/// and the warm-up unit.
pub fn setup(inp: &Inputs) -> (f64, Unit) {
    let t = Instant::now();
    mxp_blas::kernel_info_f32();
    mxp_blas::kernel_info_f64();
    let warm = run_unit(inp, None);
    (t.elapsed().as_secs_f64(), warm)
}

/// Peak resident memory of this process, MB (0 where unknown).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs the benchmark once as `opts` says.
pub fn bench(opts: &Options) -> Outcome {
    let epoch = Instant::now();
    let inp = Inputs::generate(opts.workload, opts.scale, opts.seed, &opts.out_dir);
    let (setup_s, warm) = setup(&inp);
    let reference = inp.plain.as_ref().map(hplai_core::run);
    let reference_x = reference.as_ref().and_then(|r| r.solution.as_deref());

    let mut units: Vec<Unit> = Vec::new();
    let started = Instant::now();
    while units.len() < 3 || started.elapsed().as_secs_f64() < opts.seconds {
        if let Some(prev) = units.last_mut() {
            prev.detail = None;
        }
        units.push(run_unit(&inp, reference_x));
    }

    let mut failures: Vec<String> = warm.failures.clone();
    let mut failed = usize::from(!warm.failures.is_empty());
    for (i, u) in units.iter().enumerate() {
        let mut bad = u.failures.clone();
        if u.digest != warm.digest {
            bad.push("outputs differ from the warm-up unit's".into());
        }
        failed += usize::from(!bad.is_empty());
        failures.extend(bad.into_iter().map(|f| format!("unit {i}: {f}")));
    }
    let mut attempted = units.len() + 1;

    let metrics = if opts.trace {
        let rep = layers::measure(&inp, &units, reference.as_ref(), epoch);
        attempted += rep.checks;
        failed += rep.failures.len();
        failures.extend(rep.failures.iter().cloned());
        let path = opts.out_dir.join(format!(
            "{}-seed{}.trace.json",
            opts.workload.name(),
            opts.seed
        ));
        if let Err(e) = std::fs::write(&path, trace::chrome_trace(&rep.spans)) {
            failures.push(format!("write {}: {e}", path.display()));
            failed += 1;
        }
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = rep
                    .metrics
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(f64::NAN, |m| m.1);
                Metric {
                    name,
                    unit,
                    value,
                    samples: vec![value],
                }
            })
            .collect()
    } else {
        end_to_end(&inp, &units, setup_s, &opts.extra_setup)
    };
    let mut out = Outcome {
        attempted,
        failed,
        failures,
        metrics,
        units: units.len(),
    };
    for m in &mut out.metrics {
        if !m.value.is_finite() {
            out.failures
                .push(format!("metric {} is not finite", m.name));
            out.failed += 1;
            m.value = 0.0;
        }
    }
    write_record(opts, &out);
    inp.clear_ckpt_dir();
    out
}

/// The end-to-end metrics of the untraced units.
fn end_to_end(inp: &Inputs, units: &[Unit], setup_s: f64, extra_setup: &[f64]) -> Vec<Metric> {
    let walls: Vec<f64> = units.iter().map(|u| u.wall).collect();
    let gflops: Vec<f64> = walls.iter().map(|w| inp.unit_flops() / w / 1e9).collect();
    let rates: Vec<f64> = walls.iter().map(|w| inp.unit_solves() as f64 / w).collect();
    // Each unit's percentiles over its own solves (1000 in a drain, one
    // elsewhere), then the median over units: a tail needs many samples
    // beyond it, which only a unit of many solves has.
    let (p50, p99): (Vec<f64>, Vec<f64>) = units
        .iter()
        .map(|u| {
            (
                percentile(&u.latencies, 0.50) * 1e3,
                percentile(&u.latencies, 0.99) * 1e3,
            )
        })
        .unzip();
    let mut setups = vec![setup_s];
    setups.extend_from_slice(extra_setup);
    let rss = peak_rss_mb();
    let metric =
        |(name, unit): (&'static str, &'static str), value: f64, samples: Vec<f64>| Metric {
            name,
            unit,
            value,
            samples,
        };
    let e = END_TO_END;
    vec![
        metric(e[0], median(&walls), walls.clone()),
        metric(e[1], median(&setups), setups),
        metric(e[2], median(&gflops), gflops),
        metric(e[3], median(&rates), rates),
        metric(e[4], median(&p50), p50),
        metric(e[5], median(&p99), p99),
        metric(e[6], rss, vec![rss]),
    ]
}

/// The commit the checkout was made from, read from `.git` in the working
/// directory when there is one (a loose or a packed ref).
fn git_rev() -> String {
    let git = Path::new(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".into()
        } else {
            head.to_string()
        };
    };
    let loose = std::fs::read_to_string(git.join(name)).ok();
    let packed = || {
        let refs = std::fs::read_to_string(git.join("packed-refs")).ok()?;
        refs.lines()
            .find_map(|l| l.strip_suffix(name)?.strip_suffix(' ').map(str::to_string))
    };
    loose
        .or_else(packed)
        .map_or("unknown".into(), |r| r.trim().to_string())
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// Writes the run's record, with provenance and quartiles per metric, to
/// `<out_dir>/<workload>-seed<seed>-trace<0|1>.json`.
fn write_record(opts: &Options, out: &Outcome) {
    let k32 = mxp_blas::kernel_info_f32();
    let k64 = mxp_blas::kernel_info_f64();
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"schema\": \"perfbench-v1\",");
    let _ = writeln!(s, "  \"workload\": {},", json_str(opts.workload.name()));
    let _ = writeln!(s, "  \"seed\": {},", opts.seed);
    let _ = writeln!(s, "  \"seconds\": {},", opts.seconds);
    let _ = writeln!(s, "  \"trace\": {},", opts.trace);
    let _ = writeln!(
        s,
        "  \"provenance\": {{\"git_rev\": {}, \"simd_isa\": {}, \"kernel_f32\": {}, \"kernel_f64\": {}, \"nproc\": {}, \"tune_source\": {}, \"tune_file\": {}}},",
        json_str(&git_rev()),
        json_str(k32.isa.name()),
        json_str(k32.kernel),
        json_str(k64.kernel),
        nproc(),
        json_str(k32.source.name()),
        json_str(&k32.tune_file.map(|p| p.display().to_string()).unwrap_or_default()),
    );
    let _ = writeln!(s, "  \"units\": {},", out.units);
    if let Some(walls) = out.metrics.iter().find(|m| m.name == "wall_s") {
        let walls: Vec<String> = walls.samples.iter().map(f64::to_string).collect();
        let _ = writeln!(s, "  \"unit_walls\": [{}],", walls.join(", "));
    }
    let _ = writeln!(s, "  \"attempted\": {},", out.attempted);
    let _ = writeln!(s, "  \"failed\": {},", out.failed);
    let _ = writeln!(
        s,
        "  \"fail_frac\": {},",
        out.failed as f64 / out.attempted as f64
    );
    let fails: Vec<String> = out.failures.iter().map(|f| json_str(f)).collect();
    let _ = writeln!(s, "  \"failures\": [{}],", fails.join(", "));
    s.push_str("  \"metrics\": {\n");
    for (i, m) in out.metrics.iter().enumerate() {
        let [q1, q2, q3] = quartiles(&m.samples);
        let sep = if i + 1 == out.metrics.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    {}: {{\"value\": {}, \"unit\": {}, \"n\": {}, \"q1\": {q1}, \"median\": {q2}, \"q3\": {q3}}}{sep}",
            json_str(m.name),
            m.value,
            json_str(m.unit),
            m.samples.len(),
        );
    }
    s.push_str("  }\n}\n");
    let path = opts.out_dir.join(format!(
        "{}-seed{}-trace{}.json",
        opts.workload.name(),
        opts.seed,
        u8::from(opts.trace)
    ));
    if let Err(e) = std::fs::write(&path, s) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
}
