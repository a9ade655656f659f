//! The per-layer measurements of the traced run. Every number comes from
//! timing calls into a layer's public functions from outside, or from a
//! value the program already returns.

use crate::stats::{median, percentile};
use crate::trace::{self_times, Recorder, Span, MAIN_LANE};
use crate::workload::{Detail, Inputs, Unit, Workload};
use hplai_core::checkpoint::latest_in;
use hplai_core::factor::{FactorConfig, FactorState, Fidelity};
use hplai_core::ir::{ir_time_model, refine};
use hplai_core::local::count_owned;
use hplai_core::{
    run, run_with_backend, FaultPlan, IterRecord, LocalMatrix, PanelData, RunConfig, RunEvent,
    RunOutcome, Snapshot, Stepper,
};
use mxp_blas::{getrf_nopiv, trsm, Diag, Side, Uplo};
use mxp_gpusim::GcdModel;
use mxp_lcg::{MatrixGen, MatrixKind};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Per-layer metrics as `(name, value)`, plus the spans and the checks
/// the traced run made.
#[derive(Default)]
pub struct LayerReport {
    /// Metric values by name.
    pub metrics: Vec<(&'static str, f64)>,
    /// Every recorded span.
    pub spans: Vec<Span>,
    /// Checks made.
    pub checks: usize,
    /// Failed checks.
    pub failures: Vec<String>,
}

impl LayerReport {
    fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// What one rank of the traced run measured.
struct RankTrace {
    spans: Vec<Span>,
    new_s: f64,
    steps: Vec<f64>,
    finish_s: f64,
    ir_s: f64,
    ir_sweeps: usize,
    total_sim: f64,
    records: Vec<IterRecord>,
    x: Option<Vec<f64>>,
}

/// Ranks whose spans are kept (all ranks keep their per-step totals).
const SPAN_RANKS: usize = 4;

/// The factor config `run` builds from a run config.
fn factor_cfg(cfg: &RunConfig) -> FactorConfig {
    FactorConfig {
        n: cfg.n,
        b: cfg.b,
        algo: cfg.algo,
        lookahead: cfg.lookahead,
        fidelity: cfg.fidelity,
        seed: cfg.seed,
        prec: cfg.prec,
    }
}

/// The stepper-level replay of `run` (no checkpoint, no restart): on each
/// rank `FactorState::new`, `Stepper::step` to the end, `finish`, then
/// `refine` (functional) or the modeled IR charge (timing), each timed.
fn traced_run(cfg: &RunConfig, epoch: Instant, rep: usize) -> (Vec<RankTrace>, f64) {
    let fcfg = factor_cfg(cfg);
    let n_b = cfg.n / cfg.b;
    let started = Instant::now();
    let ranks = run_with_backend(cfg, |ctx| {
        let rank = ctx.rank();
        let mut rec = if rank < SPAN_RANKS {
            Recorder::new(epoch, rank, rep)
        } else {
            Recorder::timing_only(epoch, rank, rep)
        };
        let root = rec.open("rank", None);
        let base = cfg.fleet.as_ref().map_or(1.0, |f| f.speed(rank));
        let speed = cfg.faults.speed_for(rank, base);
        let ir_speed = speed.at(n_b);
        let (mut state, new_s) = rec.time("factor.new", Some(root), || {
            FactorState::new(ctx, &cfg.sys, &fcfg, speed, cfg.cache.as_deref())
        });
        let mut steps = Vec::with_capacity(n_b);
        while !state.done() {
            steps.push(rec.time("factor.step", Some(root), || state.step(ctx)).1);
        }
        let (out, finish_s) = rec.time("factor.finish", Some(root), || state.finish(ctx));
        let (total_sim, ir_s, ir_sweeps, x) = match cfg.fidelity {
            Fidelity::Functional => {
                let local = out.local.as_ref().expect("functional run keeps factors");
                let (ir, s) = rec.time("ir.refine", Some(root), || {
                    refine(ctx, &cfg.sys, &fcfg, local, ir_speed)
                });
                (out.elapsed + ir.elapsed, s, ir.iters, Some(ir.x))
            }
            Fidelity::Timing => {
                let (ir, s) = rec.time("ir.model", Some(root), || {
                    let ir = ir_time_model(&cfg.sys, cfg.n, ctx.grid().size(), 3);
                    ctx.charge(ir / ir_speed);
                    ir
                });
                (out.elapsed + ir, s, 3, None)
            }
        };
        rec.close(root);
        RankTrace {
            spans: rec.spans,
            new_s,
            steps,
            finish_s,
            ir_s,
            ir_sweeps,
            total_sim,
            records: if rank == 0 { out.records } else { Vec::new() },
            x: if rank == 0 { x } else { None },
        }
    })
    .expect("the backend hosts the workload's grid");
    (ranks, started.elapsed().as_secs_f64())
}

/// One kernel call of rank 0's factorization, at local offsets.
#[derive(Clone, Copy, Debug)]
enum Call {
    Getrf {
        lr: usize,
        lc: usize,
    },
    TrsmLeft {
        lr: usize,
        lc: usize,
        n: usize,
    },
    TransCast {
        lr: usize,
        lc: usize,
        n: usize,
    },
    TrsmRight {
        lr: usize,
        lc: usize,
        m: usize,
    },
    Cast {
        lr: usize,
        lc: usize,
        m: usize,
    },
    Gemm {
        lr: usize,
        lc: usize,
        m: usize,
        n: usize,
        l_off: usize,
        u_off: usize,
    },
}

/// Appends a trailing-update GEMM unless its extent is empty (the stepper
/// skips those too).
fn push_gemm(
    calls: &mut Vec<Call>,
    lr: usize,
    lc: usize,
    m: usize,
    n: usize,
    offs: (usize, usize),
) {
    if m > 0 && n > 0 {
        let (l_off, u_off) = offs;
        calls.push(Call::Gemm {
            lr,
            lc,
            m,
            n,
            l_off,
            u_off,
        });
    }
}

/// Rank 0's kernel calls, iteration by iteration, as `FactorState::step`
/// issues them (grid coordinate (0, 0), no checkpoint drains).
fn rank0_calls(cfg: &RunConfig) -> Vec<Vec<Call>> {
    let (p_r, p_c, b) = (cfg.grid.p_r, cfg.grid.p_c, cfg.b);
    let (n_loc_r, n_loc_c) = (cfg.n / p_r, cfg.n / p_c);
    let row = |k: usize| count_owned(k + 1, 0, p_r) * b;
    let col = |k: usize| count_owned(k + 1, 0, p_c) * b;
    let mut prev: Option<(usize, usize, usize)> = None; // (k, m_loc, n_loc)
    (0..cfg.n / b)
        .map(|k| {
            let mut calls = Vec::new();
            let (in_row, in_col) = (k % p_r == 0, k % p_c == 0);
            let (lr_k, lc_k) = (row(k), col(k));
            let (m_loc, n_loc) = (n_loc_r - lr_k, n_loc_c - lc_k);
            if let Some((pk, pm, pn)) = prev.filter(|_| cfg.lookahead) {
                let (lr_p, lc_p) = (row(pk), col(pk));
                if in_row {
                    push_gemm(&mut calls, lr_p, lc_p, b.min(pm), pn, (0, 0));
                }
                if in_col {
                    push_gemm(&mut calls, lr_k, lc_p, m_loc, b.min(pn), (lr_k - lr_p, 0));
                }
            }
            let (diag_r, diag_c) = ((k / p_r) * b, (k / p_c) * b);
            if in_row && in_col {
                calls.push(Call::Getrf {
                    lr: diag_r,
                    lc: diag_c,
                });
            }
            if in_row && n_loc > 0 {
                calls.push(Call::TrsmLeft {
                    lr: diag_r,
                    lc: lc_k,
                    n: n_loc,
                });
                calls.push(Call::TransCast {
                    lr: diag_r,
                    lc: lc_k,
                    n: n_loc,
                });
            }
            if in_col && m_loc > 0 {
                calls.push(Call::TrsmRight {
                    lr: lr_k,
                    lc: diag_c,
                    m: m_loc,
                });
                calls.push(Call::Cast {
                    lr: lr_k,
                    lc: diag_c,
                    m: m_loc,
                });
            }
            if !cfg.lookahead {
                push_gemm(&mut calls, lr_k, lc_k, m_loc, n_loc, (0, 0));
            } else if let Some((pk, _, _)) = prev {
                let offs = (lr_k - row(pk), lc_k - col(pk));
                push_gemm(&mut calls, lr_k, lc_k, m_loc, n_loc, offs);
            }
            if cfg.lookahead {
                prev = Some((k, m_loc, n_loc));
            }
            calls
        })
        .collect()
}

/// Recomputes rank 0's modeled per-iteration times from the call list, in
/// the order `FactorState::step` sums them. Equal bits prove the replay's
/// shapes and counts are the program's.
fn model_matches(cfg: &RunConfig, calls: &[Vec<Call>], records: &[IterRecord]) -> bool {
    let dev = &cfg.sys.gcd;
    let speed = cfg
        .faults
        .speed_for(0, cfg.fleet.as_ref().map_or(1.0, |f| f.speed(0)));
    let n_loc_r = cfg.n / cfg.grid.p_r;
    calls.len() == records.len()
        && calls.iter().zip(records).all(|(iter, rec)| {
            let sp = speed.at(rec.k);
            let (mut getrf, mut trsm, mut cast, mut gemm) = (0.0, 0.0, 0.0, 0.0);
            for call in iter {
                match *call {
                    Call::Getrf { .. } => getrf += dev.getrf_time(cfg.b) / sp,
                    Call::TrsmLeft { n, .. } => trsm += dev.trsm_time(cfg.b, n) / sp,
                    Call::TrsmRight { m, .. } => trsm += dev.trsm_time(cfg.b, m) / sp,
                    Call::TransCast { n, .. } => cast += dev.cast_time(cfg.b * n) / sp,
                    Call::Cast { m, .. } => cast += dev.cast_time(m * cfg.b) / sp,
                    Call::Gemm { m, n, .. } => {
                        gemm += dev.gemm_mixed_time(m, n, cfg.b, n_loc_r) / sp
                    }
                }
            }
            (getrf, trsm, cast, gemm) == (rec.getrf, rec.trsm, rec.cast, rec.gemm)
        })
}

/// Time, work and warm scratch misses of one kernel replay.
#[derive(Default)]
struct Replay {
    /// Seconds per class: gemm, trsm, getrf, cast.
    secs: [f64; 4],
    /// Flops per class (bytes moved for cast).
    work: [f64; 4],
    scratch_misses: usize,
    finite: bool,
}

/// Replays rank 0's kernel calls on the calling thread, on rank 0's
/// generated local matrix, through the same entry points the stepper uses
/// (`getrf_nopiv`, `trsm`, `PanelData::{cast, trans_cast, apply_gemm}`).
/// Panels rank 0 would receive are stood in for by its own latest ones,
/// which are at least as large.
fn replay_kernels(cfg: &RunConfig, calls: &[Vec<Call>], loc: &mut LocalMatrix) -> Replay {
    let b = cfg.b;
    let lda = loc.lda();
    let prec = cfg.prec;
    let mut out = Replay::default();
    let mut diag = vec![0.0f32; b * b];
    let mut l_panel = (PanelData::empty(prec), 0usize);
    let mut u_panel = (PanelData::empty(prec), 0usize);
    let (_, misses0) = mxp_blas::scratch::stats();
    let mut timed = |class: usize, work: f64, f: &mut dyn FnMut()| {
        let t = Instant::now();
        f();
        out.secs[class] += t.elapsed().as_secs_f64();
        out.work[class] += work;
    };
    let fb = b as f64;
    for iter in calls {
        // Panels cast this iteration feed the next one's updates (with
        // look-ahead) or this one's (without).
        let (mut new_l, mut new_u) = (None, None);
        for call in iter {
            match *call {
                Call::Getrf { lr, lc } => {
                    let off = loc.idx(lr, lc);
                    timed(2, 2.0 / 3.0 * fb * fb * fb, &mut || {
                        getrf_nopiv(b, &mut loc.data[off..], lda)
                            .expect("diagonally dominant block")
                    });
                    diag = loc.pack_block(lr, lc);
                }
                Call::TrsmLeft { lr, lc, n } => {
                    let off = loc.idx(lr, lc);
                    timed(1, fb * fb * n as f64, &mut || {
                        trsm(
                            Side::Left,
                            Uplo::Lower,
                            Diag::Unit,
                            b,
                            n,
                            1.0,
                            &diag,
                            b,
                            &mut loc.data[off..],
                            lda,
                        )
                    });
                }
                Call::TrsmRight { lr, lc, m } => {
                    let off = loc.idx(lr, lc);
                    timed(1, fb * fb * m as f64, &mut || {
                        trsm(
                            Side::Right,
                            Uplo::Upper,
                            Diag::NonUnit,
                            m,
                            b,
                            1.0,
                            &diag,
                            b,
                            &mut loc.data[off..],
                            lda,
                        )
                    });
                }
                Call::TransCast { lr, lc, n } => {
                    let off = loc.idx(lr, lc);
                    timed(3, 6.0 * fb * n as f64, &mut || {
                        new_u = Some((PanelData::trans_cast(prec, b, n, &loc.data[off..], lda), n))
                    });
                }
                Call::Cast { lr, lc, m } => {
                    let off = loc.idx(lr, lc);
                    timed(3, 6.0 * fb * m as f64, &mut || {
                        new_l = Some((PanelData::cast(prec, m, b, &loc.data[off..], lda), m))
                    });
                }
                Call::Gemm {
                    lr,
                    lc,
                    m,
                    n,
                    l_off,
                    u_off,
                } => {
                    if !cfg.lookahead {
                        l_panel = new_l.take().unwrap_or(l_panel);
                        u_panel = new_u.take().unwrap_or(u_panel);
                    }
                    let off = loc.idx(lr, lc);
                    let ((l, l_lda), (u, u_lda)) = (&l_panel, &u_panel);
                    timed(0, 2.0 * m as f64 * n as f64 * fb, &mut || {
                        PanelData::apply_gemm(
                            l,
                            u,
                            m,
                            n,
                            b,
                            l_off,
                            *l_lda,
                            u_off,
                            *u_lda,
                            &mut loc.data[off..],
                            lda,
                        )
                    });
                }
            }
        }
        l_panel = new_l.unwrap_or(l_panel);
        u_panel = new_u.unwrap_or(u_panel);
    }
    out.scratch_misses = mxp_blas::scratch::stats().1 - misses0;
    out.finite = loc.data.iter().all(|v| v.is_finite());
    out
}

/// Rank 0's generated local matrix, and the fill rate in Gelem/s (median
/// of repeated fills lasting at least 50 ms in total).
fn lcg_fill(cfg: &RunConfig) -> (LocalMatrix, f64) {
    let gen = MatrixGen::new(cfg.seed, cfg.n, MatrixKind::DiagDominant);
    let mut loc = LocalMatrix::new(&cfg.grid, (0, 0), cfg.n, cfg.b);
    let elems = loc.data.len() as f64;
    let mut rates = Vec::new();
    let started = Instant::now();
    while rates.len() < 3 || started.elapsed().as_secs_f64() < 0.05 {
        let t = Instant::now();
        loc.fill_from(&gen);
        rates.push(elems / t.elapsed().as_secs_f64() / 1e9);
    }
    (loc, median(&rates))
}

/// Nanoseconds per device-model rate lookup over rank 0's call shapes.
fn rate_lookup_ns(dev: &GcdModel, cfg: &RunConfig, calls: &[Vec<Call>]) -> f64 {
    let (b, lda) = (cfg.b, cfg.n / cfg.grid.p_r);
    let shapes: Vec<Call> = calls
        .iter()
        .flatten()
        .copied()
        .filter(|c| !matches!(c, Call::Cast { .. } | Call::TransCast { .. }))
        .collect();
    let mut lookups = 0usize;
    let mut sink = 0.0;
    let started = Instant::now();
    while lookups == 0 || started.elapsed().as_secs_f64() < 0.05 {
        for c in &shapes {
            sink += match *black_box(c) {
                Call::Gemm { m, n, .. } => dev.gemm_mixed_time(m, n, b, lda),
                Call::TrsmLeft { n, .. } => dev.trsm_time(b, n),
                Call::TrsmRight { m, .. } => dev.trsm_time(b, m),
                _ => dev.getrf_time(b),
            };
        }
        lookups += shapes.len();
    }
    black_box(sink);
    started.elapsed().as_secs_f64() * 1e9 / lookups.max(1) as f64
}

/// Measures every layer for the traced run of `inp`. `units` are the
/// untraced units of the same process, newest last.
pub fn measure(
    inp: &Inputs,
    units: &[Unit],
    reference: Option<&RunOutcome>,
    epoch: Instant,
) -> LayerReport {
    let mut rep = LayerReport::default();
    let mut main = Recorder::new(epoch, MAIN_LANE, 0);
    let last = units.last().expect("at least one untraced unit");
    let detail = last
        .detail
        .as_ref()
        .expect("the newest unit keeps its detail");
    let functional = inp.cfg.fidelity == Fidelity::Functional;

    // The configuration the stepper-level replay traces, and the untraced
    // `run` walls and outcome it is compared with.
    let (stepper_cfg, untraced_walls, untraced): (&RunConfig, Vec<f64>, RunOutcome) =
        match (detail, inp.workload) {
            (Detail::Run(out), _) => (
                &inp.cfg,
                units.iter().map(|u| u.wall).collect(),
                out.clone(),
            ),
            (_, Workload::ServiceSmall) => {
                let runs: Vec<(RunOutcome, f64)> = (0..100)
                    .map(|_| main.time("run", None, || run(&inp.cfg)))
                    .collect();
                let walls = runs.iter().map(|r| r.1).collect();
                (&inp.cfg, walls, runs.into_iter().last().expect("runs").0)
            }
            _ => {
                let plain = inp.plain.as_ref().expect("the campaign has a plain config");
                let out = reference.expect("the campaign has a reference").clone();
                let walls = (0..3)
                    .map(|_| main.time("run.plain", None, || run(plain)).1)
                    .collect();
                (plain, walls, out)
            }
        };
    let reps = if inp.workload == Workload::ServiceSmall {
        100
    } else {
        1
    };
    let mut traced_walls = Vec::new();
    let mut rank0_layer_s = 0.0;
    let mut all = Vec::new();
    for r in 0..reps {
        let (ranks, wall) = traced_run(stepper_cfg, epoch, r);
        traced_walls.push(wall);
        let r0 = &ranks[0];
        rank0_layer_s += self_times(&r0.spans)
            .iter()
            .zip(&r0.spans)
            .filter(|(_, s)| s.parent.is_some())
            .map(|(t, _)| t)
            .sum::<f64>();
        let runtime = ranks.iter().map(|t| t.total_sim).fold(0.0, f64::max);
        rep.check(
            runtime.to_bits() == untraced.perf.runtime.to_bits() && r0.x == untraced.solution,
            || "traced replay of `run` differs from the untraced run".into(),
        );
        for t in &ranks {
            rep.spans.extend(t.spans.iter().cloned());
        }
        all = ranks;
    }
    let step_totals: Vec<f64> = all.iter().map(|t| t.steps.iter().sum()).collect();
    let step_s = step_totals.iter().copied().fold(0.0, f64::max);
    let fastest = step_totals.iter().copied().fold(f64::INFINITY, f64::min);
    let steps: Vec<f64> = all.iter().flat_map(|t| t.steps.iter().copied()).collect();
    let max_of = |f: &dyn Fn(&RankTrace) -> f64| all.iter().map(f).fold(0.0, f64::max);
    let r0 = &all[0];

    // Rank 0's kernel calls: checked against the program's own modeled
    // times, replayed for real on functional workloads.
    let calls = rank0_calls(stepper_cfg);
    rep.check(model_matches(stepper_cfg, &calls, &r0.records), || {
        "replayed kernel shapes disagree with rank 0's iteration records".into()
    });
    let (mut lcg_rate, mut replay) = (0.0, Replay::default());
    if functional {
        let ((mut loc, rate), _) = main.time("lcg.fill", None, || lcg_fill(stepper_cfg));
        lcg_rate = rate;
        let pristine = loc.data.clone();
        // A first pass warms the scratch arena; the second is measured.
        replay_kernels(stepper_cfg, &calls, &mut loc);
        loc.data.copy_from_slice(&pristine);
        replay = main
            .time("blas.replay", None, || {
                replay_kernels(stepper_cfg, &calls, &mut loc)
            })
            .0;
        rep.check(replay.finite, || {
            "kernel replay produced non-finite values".into()
        });
    }
    let lookup_ns = main
        .time("gpusim.lookup", None, || {
            rate_lookup_ns(&stepper_cfg.sys.gcd, stepper_cfg, &calls)
        })
        .0;
    let replay_total: f64 = replay.secs.iter().sum();
    let rate = |i: usize| {
        if replay.secs[i] > 0.0 {
            replay.work[i] / replay.secs[i] / 1e9
        } else {
            0.0
        }
    };

    rep.set("lcg.gen_gelems_per_s", lcg_rate);
    rep.set("blas.gemm_mixed_replay_s", replay.secs[0]);
    rep.set("blas.trsm_replay_s", replay.secs[1]);
    rep.set("blas.getrf_replay_s", replay.secs[2]);
    rep.set("blas.cast_replay_s", replay.secs[3]);
    rep.set("blas.gemm_mixed_gflops", rate(0));
    rep.set("blas.trsm_gflops", rate(1));
    rep.set("blas.getrf_gflops", rate(2));
    rep.set("blas.cast_gbps", rate(3));
    rep.set("blas.scratch_misses", replay.scratch_misses as f64);
    rep.set("blas.tune_sweeps", mxp_blas::tune_stats().1 as f64);
    rep.set("core.factor.new_s", max_of(&|t| t.new_s));
    rep.set("core.factor.step_s", step_s);
    rep.set("core.factor.step_p50_ms", percentile(&steps, 0.5) * 1e3);
    rep.set("core.factor.step_max_ms", percentile(&steps, 1.0) * 1e3);
    rep.set("core.factor.finish_s", max_of(&|t| t.finish_s));
    rep.set("core.factor.steps", r0.steps.len() as f64);
    rep.set(
        "core.factor.rank_skew",
        if fastest > 0.0 { step_s / fastest } else { 0.0 },
    );
    rep.set(
        "core.factor.kernel_gap_s",
        if functional {
            step_s - replay_total
        } else {
            0.0
        },
    );
    rep.set("core.ir.s", max_of(&|t| t.ir_s));
    rep.set("core.ir.sweeps", r0.ir_sweeps as f64);

    // Values the untraced units returned.
    let comm_bytes = match detail {
        Detail::Run(out) => out.perf.comm_bytes,
        Detail::Service(s) => s.aggregate.comm_bytes,
        Detail::Campaign(c) => c.outcome.perf.comm_bytes,
    };
    rep.set("core.runtime.comm_bytes", comm_bytes as f64);
    let (busy, hits, misses, ratio) = match detail {
        Detail::Service(s) => (
            s.jobs.iter().map(|j| j.latency_secs).sum::<f64>() / (s.workers as f64 * s.wall_secs),
            s.cache.hits as f64,
            s.cache.misses as f64,
            s.cache.hit_rate(),
        ),
        _ => (0.0, 0.0, 0.0, 0.0),
    };
    rep.set("core.service.busy_frac", busy);
    rep.set("core.cache.hits", hits);
    rep.set("core.cache.misses", misses);
    rep.set("core.cache.hit_ratio", ratio);
    let ev = last.event_stats.unwrap_or_default();
    let rank_iters = (inp.cfg.grid.size() * (inp.cfg.n / inp.cfg.b)) as f64;
    rep.set("msgsim.event.run_s", ev.run_secs);
    rep.set("msgsim.event.deliver_s", ev.deliver_secs);
    rep.set("msgsim.event.idle_s", ev.idle_secs);
    rep.set("msgsim.event.switch_s_est", ev.switch_secs_est);
    rep.set("msgsim.event.sched_overhead", ev.sched_overhead());
    rep.set("msgsim.event.resumes", ev.resumes as f64);
    rep.set("msgsim.event.local_msgs", ev.local_msgs as f64);
    rep.set("msgsim.event.cross_msgs", ev.cross_msgs as f64);
    rep.set("msgsim.event.stacks_allocated", ev.stacks_allocated as f64);
    rep.set("msgsim.event.stacks_reused", ev.stacks_reused as f64);
    rep.set(
        "msgsim.event.us_per_rank_iter",
        if ev.ranks > 0 {
            last.wall / rank_iters * 1e6
        } else {
            0.0
        },
    );
    rep.set("gpusim.rate_lookup_ns", lookup_ns);

    campaign_layers(inp, last, median(&untraced_walls), &mut main, &mut rep);

    let traced = median(&traced_walls);
    rep.set("trace.overhead", traced / median(&untraced_walls) - 1.0);
    rep.set(
        "trace.coverage",
        rank0_layer_s / traced_walls.iter().sum::<f64>(),
    );
    rep.spans.extend(main.spans);
    rep
}

/// Checkpoint and supervisor layers of the campaign (zeros elsewhere).
/// `plain_s` is the wall of the campaign's uninterrupted, uncheckpointed
/// solve.
fn campaign_layers(
    inp: &Inputs,
    last: &Unit,
    plain_s: f64,
    main: &mut Recorder,
    rep: &mut LayerReport,
) {
    let names_ckpt = [
        "core.checkpoint.overhead_s",
        "core.checkpoint.bytes_on_disk",
        "core.checkpoint.files",
        "core.checkpoint.scan_s",
        "core.checkpoint.load_s",
    ];
    let names_sup = [
        "core.supervisor.attempts",
        "core.supervisor.restarted_from_k",
        "core.supervisor.attempt1_s",
        "core.supervisor.restart_s",
        "core.supervisor.cost_ratio",
    ];
    let (Some(Detail::Campaign(sup)), Some(free)) = (&last.detail, &inp.ckpt_free) else {
        for name in names_ckpt.into_iter().chain(names_sup) {
            rep.set(name, 0.0);
        }
        return;
    };
    let abort_k = sup
        .events
        .iter()
        .find_map(|e| match e {
            RunEvent::EarlyTermination { k, .. } => Some(*k),
            _ => None,
        })
        .unwrap_or(usize::MAX);
    let from_k = sup.events.iter().find_map(|e| match e {
        RunEvent::Restarted { from_k, .. } => Some(*from_k),
        _ => None,
    });

    // Fault-free: checkpointed vs plain, and what the snapshots left.
    inp.clear_ckpt_dir();
    let (free_out, free_s) = main.time("run.checkpointed", None, || run(free));
    let files: Vec<u64> = std::fs::read_dir(&inp.ckpt_dir)
        .map(|d| {
            d.flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .collect()
        })
        .unwrap_or_default();

    // The campaign's attempts, one call at a time.
    inp.clear_ckpt_dir();
    let attempt1_s = main.time("run.attempt1", None, || run(&inp.cfg)).1;
    let (path, scan_s) = main.time("checkpoint.latest_in", None, || {
        latest_in(&inp.ckpt_dir, abort_k)
    });
    let (mut load_s, mut restart_s) = (0.0, 0.0);
    match path {
        Some(path) => {
            let (snap, s) = main.time("checkpoint.load", None, || Snapshot::load(&path));
            load_s = s;
            match snap {
                Ok(snap) => {
                    let resumed = inp
                        .cfg
                        .to_builder()
                        .faults(FaultPlan::new())
                        .restart_from(Arc::new(snap))
                        .build()
                        .expect("the snapshot matches the campaign configuration");
                    let (out, s) = main.time("run.restart", None, || run(&resumed));
                    restart_s = s;
                    rep.check(out.solution == sup.outcome.solution, || {
                        "resumed solution differs from the campaign's".into()
                    });
                }
                Err(e) => rep.check(false, || format!("snapshot load: {e}")),
            }
        }
        None => rep.check(false, || "no checkpoint before the abort".into()),
    }

    rep.set(names_ckpt[0], free_s - plain_s);
    rep.set(names_ckpt[1], files.iter().sum::<u64>() as f64);
    rep.set(names_ckpt[2], files.len() as f64);
    rep.set(names_ckpt[3], scan_s);
    rep.set(names_ckpt[4], load_s);
    rep.set(names_sup[0], sup.attempts as f64);
    rep.set(names_sup[1], from_k.map_or(0.0, |k| k as f64));
    rep.set(names_sup[2], attempt1_s);
    rep.set(names_sup[3], restart_s);
    rep.set(names_sup[4], sup.total_cost / free_out.perf.runtime);
}
