//! Run supervision: typed run events, detection, and automated recovery
//! (§VI-B operationalized).
//!
//! The paper's team babysat full-scale runs by watching per-component
//! progress output, terminating sick runs early, scanning the fleet for
//! slow nodes, and resubmitting with offenders excluded. [`Supervisor`]
//! automates that loop over the simulated benchmark:
//!
//! 1. execute the run and stream every rank's per-iteration records
//!    through the [`ProgressMonitor`];
//! 2. convert anomalies into typed [`RunEvent`]s (serializable to a JSONL
//!    event log via [`crate::trace::event_log_jsonl`]);
//! 3. apply the configured [`RecoveryPolicy`]: report only, or abort, scan
//!    the fleet with the [`crate::scan`] mini-benchmark, exclude the slow
//!    GCDs and rerun — from scratch, from the last panel-boundary
//!    checkpoint, or re-gridded onto the survivors ([`Resume`]).
//!
//! Every attempt is charged from the simulated rank clocks. Because runs
//! are simulated, "aborting" cuts the already-computed run at the
//! termination iteration: the attempt costs its slowest rank's clock at
//! the end of that iteration ([`IterRecord::clock`], checkpoint drains and
//! writes included) — exactly the time a real early termination would
//! have spent. An attempt that runs to the end costs its runtime. An
//! attempt resumed from a snapshot starts at the snapshot's clock, which
//! the aborted attempt before it already paid for, so that clock is
//! subtracted.

use crate::checkpoint::{latest_in, Snapshot, SnapshotError};
use crate::factor::{regrid_snapshot, IterRecord};
use crate::grid::ProcessGrid;
use crate::progress::ProgressMonitor;
use crate::report::PerfReport;
use crate::scan::scan_fleet;
use crate::solve::{run, RunConfig, RunOutcome};
use mxp_gpusim::GcdFleet;
use serde::{write_json_string, Serialize};
use std::fmt::Write as _;
use std::sync::Arc;

/// What the supervisor does when the monitor demands termination.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RecoveryPolicy {
    /// Log events only; never rerun (the monitoring-only baseline).
    Report,
    /// Abort, scan the fleet with the mini-benchmark, exclude GCDs slower
    /// than `scan_threshold` × median, and rerun (at most `max_reruns`
    /// times) — the paper's slow-node workflow, automated. Gives up when
    /// the scan flags nobody (e.g. a pure link fault: rerunning the same
    /// job cannot help).
    Rerun {
        /// Relative-to-median gate of the post-incident scan (e.g. 1.15).
        scan_threshold: f64,
        /// Maximum rerun attempts before giving up.
        max_reruns: usize,
        /// Where each rerun starts.
        resume: Resume,
    },
}

/// Where a [`RecoveryPolicy::Rerun`] attempt starts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Resume {
    /// From panel 0: the aborted prefix is thrown away.
    Scratch,
    /// From the newest panel-boundary checkpoint at or before the abort,
    /// with the flagged GCDs swapped for spares. Requires the run to be
    /// configured with [`crate::solve::RunConfigBuilder::checkpoint`];
    /// when no loadable snapshot exists (none written yet, or the file is
    /// corrupt) the rerun starts from scratch and says so in the event log.
    Checkpoint,
    /// As [`Resume::Checkpoint`], but re-grid the survivors instead of
    /// swapping in spares: the faulted rank's process-grid column is
    /// dropped, the checkpointed tiles are re-dealt block-cyclically onto
    /// the shrunken grid ([`regrid_snapshot`]), and the run finishes on
    /// what is left. Falls back to a same-grid restart when the new grid
    /// cannot hold the matrix (block divisibility) or the grid has a
    /// single column.
    Elastic,
}

/// One typed entry of the supervision event log.
#[derive(Clone, Debug, PartialEq)]
pub enum RunEvent {
    /// An attempt started.
    RunStarted {
        /// 1-based attempt number.
        attempt: usize,
        /// Problem size of the attempt.
        n: usize,
        /// Ranks in the grid.
        ranks: usize,
    },
    /// The monitor flagged a component running slower than the model.
    Alert {
        /// Attempt the alert belongs to.
        attempt: usize,
        /// Rank the anomaly was observed on.
        rank: usize,
        /// Iteration of the anomaly.
        k: usize,
        /// Component name ("getrf", "gemm").
        component: &'static str,
        /// Measured / expected ratio.
        slowdown: f64,
    },
    /// Alert count crossed the monitor's limit: the run was terminated.
    EarlyTermination {
        /// Attempt that was terminated.
        attempt: usize,
        /// Iteration the termination took effect at.
        k: usize,
        /// Alerts accumulated by then.
        alerts: usize,
    },
    /// The post-incident fleet scan finished.
    ScanCompleted {
        /// Attempt the scan followed.
        attempt: usize,
        /// GCDs flagged slower than the gate.
        flagged: Vec<usize>,
    },
    /// Flagged GCDs were swapped for healthy spares before the rerun.
    Excluded {
        /// Attempt the exclusion precedes.
        attempt: usize,
        /// The excluded GCD indices.
        gcds: Vec<usize>,
    },
    /// A panel-boundary checkpoint was located and validated for restart.
    CheckpointLoaded {
        /// Attempt the load follows (the aborted one).
        attempt: usize,
        /// Panel cursor the snapshot was taken at.
        k: usize,
        /// Path of the snapshot file.
        path: String,
    },
    /// No usable checkpoint: none on disk, the file failed validation
    /// (corrupt, truncated), or an elastic re-grid was infeasible — the
    /// rerun starts from scratch.
    CheckpointRejected {
        /// Attempt the rejection follows.
        attempt: usize,
        /// Human-readable cause.
        reason: String,
    },
    /// The rerun resumes mid-factorization from a checkpoint.
    Restarted {
        /// The new attempt number.
        attempt: usize,
        /// Panel cursor the attempt resumes at.
        from_k: usize,
        /// Ranks of the resumed grid (smaller than the original after an
        /// elastic re-grid).
        ranks: usize,
    },
    /// An attempt ran to completion.
    RunCompleted {
        /// The completed attempt.
        attempt: usize,
        /// Headline numbers of the attempt.
        perf: PerfReport,
        /// Whether the solve converged.
        converged: bool,
    },
    /// Recovery was abandoned after exhausting the policy's budget.
    GaveUp {
        /// Attempts consumed.
        attempts: usize,
    },
}

impl RunEvent {
    /// Machine-readable event tag (the `"event"` JSON field).
    pub fn tag(&self) -> &'static str {
        match self {
            RunEvent::RunStarted { .. } => "run_started",
            RunEvent::Alert { .. } => "alert",
            RunEvent::EarlyTermination { .. } => "early_termination",
            RunEvent::ScanCompleted { .. } => "scan_completed",
            RunEvent::Excluded { .. } => "excluded",
            RunEvent::CheckpointLoaded { .. } => "checkpoint_loaded",
            RunEvent::CheckpointRejected { .. } => "checkpoint_rejected",
            RunEvent::Restarted { .. } => "restarted",
            RunEvent::RunCompleted { .. } => "run_completed",
            RunEvent::GaveUp { .. } => "gave_up",
        }
    }
}

impl Serialize for RunEvent {
    fn serialize_json(&self, out: &mut String) {
        out.push_str("{\"event\":");
        write_json_string(self.tag(), out);
        match self {
            RunEvent::RunStarted { attempt, n, ranks } => {
                let _ = write!(out, ",\"attempt\":{attempt},\"n\":{n},\"ranks\":{ranks}");
            }
            RunEvent::Alert {
                attempt,
                rank,
                k,
                component,
                slowdown,
            } => {
                let _ = write!(
                    out,
                    ",\"attempt\":{attempt},\"rank\":{rank},\"k\":{k},\"component\":\"{component}\",\"slowdown\":{slowdown}"
                );
            }
            RunEvent::EarlyTermination { attempt, k, alerts } => {
                let _ = write!(out, ",\"attempt\":{attempt},\"k\":{k},\"alerts\":{alerts}");
            }
            RunEvent::ScanCompleted { attempt, flagged } => {
                let _ = write!(out, ",\"attempt\":{attempt},\"flagged\":{flagged:?}");
            }
            RunEvent::Excluded { attempt, gcds } => {
                let _ = write!(out, ",\"attempt\":{attempt},\"gcds\":{gcds:?}");
            }
            RunEvent::CheckpointLoaded { attempt, k, path } => {
                let _ = write!(out, ",\"attempt\":{attempt},\"k\":{k},\"path\":");
                write_json_string(path, out);
            }
            RunEvent::CheckpointRejected { attempt, reason } => {
                let _ = write!(out, ",\"attempt\":{attempt},\"reason\":");
                write_json_string(reason, out);
            }
            RunEvent::Restarted {
                attempt,
                from_k,
                ranks,
            } => {
                let _ = write!(
                    out,
                    ",\"attempt\":{attempt},\"from_k\":{from_k},\"ranks\":{ranks}"
                );
            }
            RunEvent::RunCompleted {
                attempt,
                perf,
                converged,
            } => {
                let _ = write!(out, ",\"attempt\":{attempt},\"perf\":");
                perf.serialize_json(out);
                let _ = write!(out, ",\"converged\":{converged}");
            }
            RunEvent::GaveUp { attempts } => {
                let _ = write!(out, ",\"attempts\":{attempts}");
            }
        }
        out.push('}');
    }
}

/// Result of a supervised run (possibly after recovery).
#[derive(Clone, Debug)]
pub struct SupervisedOutcome {
    /// The full event log, in order.
    pub events: Vec<RunEvent>,
    /// Outcome of the final attempt.
    pub outcome: RunOutcome,
    /// Attempts executed (1 = no recovery needed).
    pub attempts: usize,
    /// Iteration of the first alert of the first attempt, if any — the
    /// detection latency input of the fault sweep.
    pub detection_iter: Option<usize>,
    /// Total simulated cost across attempts, seconds, charged from the
    /// rank clocks: every attempt from where it started to where it was
    /// aborted or finished, plus every fleet scan.
    pub total_cost: f64,
    /// `true` if the final attempt finished without an early termination.
    pub recovered: bool,
}

/// Drives supervised benchmark runs: monitoring, typed events, recovery.
#[derive(Clone, Copy, Debug)]
pub struct Supervisor {
    /// The progress monitor applied to every rank's record stream.
    pub monitor: ProgressMonitor,
    /// The recovery policy applied on termination.
    pub policy: RecoveryPolicy,
}

impl Supervisor {
    /// A monitoring-only supervisor with default thresholds.
    pub fn reporting() -> Self {
        Supervisor {
            monitor: ProgressMonitor::default(),
            policy: RecoveryPolicy::Report,
        }
    }

    /// A supervisor with the paper's operational workflow: early
    /// termination, fleet scan, exclusion, rerun from scratch.
    pub fn with_rerun(scan_threshold: f64, max_reruns: usize) -> Self {
        Self::rerunning(scan_threshold, max_reruns, Resume::Scratch)
    }

    /// A supervisor that recovers by resuming from the last panel-boundary
    /// checkpoint (the resilience workflow; set `elastic` to finish on the
    /// surviving ranks instead of swapping in spares).
    pub fn with_restart(scan_threshold: f64, max_restarts: usize, elastic: bool) -> Self {
        let resume = if elastic {
            Resume::Elastic
        } else {
            Resume::Checkpoint
        };
        Self::rerunning(scan_threshold, max_restarts, resume)
    }

    fn rerunning(scan_threshold: f64, max_reruns: usize, resume: Resume) -> Self {
        Supervisor {
            monitor: ProgressMonitor::default(),
            policy: RecoveryPolicy::Rerun {
                scan_threshold,
                max_reruns,
                resume,
            },
        }
    }

    /// Every rank's alerts, merged and sorted by iteration, and the
    /// iteration the run is cut at if the alert budget was exhausted.
    fn analyze(
        &self,
        cfg: &RunConfig,
        out: &RunOutcome,
        attempt: usize,
    ) -> (Vec<RunEvent>, Option<usize>) {
        let dev = &cfg.sys.gcd;
        let mut alerts: Vec<(usize, RunEvent)> = Vec::new();
        let mut terminate = false;
        for (rank, records) in out.records.iter().enumerate() {
            let coord = cfg.grid.coord_of(rank);
            let (rank_alerts, rank_term) =
                self.monitor
                    .analyze(records, dev, &cfg.grid, cfg.n, cfg.b, coord, cfg.lookahead);
            terminate |= rank_term;
            for a in rank_alerts {
                alerts.push((
                    a.k,
                    RunEvent::Alert {
                        attempt,
                        rank,
                        k: a.k,
                        component: a.component,
                        slowdown: a.slowdown,
                    },
                ));
            }
        }
        alerts.sort_by_key(|(k, _)| *k);
        let budget = self.monitor.max_alerts.saturating_sub(1);
        let abort_k = terminate.then(|| alerts.get(budget).map_or(0, |(k, _)| *k));
        (alerts.into_iter().map(|(_, e)| e).collect(), abort_k)
    }

    /// Runs `cfg` under supervision, applying the recovery policy on
    /// termination. Every attempt is deterministic, so the event log is
    /// reproducible for a given configuration.
    pub fn supervise(&self, cfg: &RunConfig) -> SupervisedOutcome {
        let mut events = Vec::new();
        let mut cfg = cfg.clone();
        let mut attempt = 1;
        let mut total_cost = 0.0;
        let mut detection_iter = None;
        let (outcome, recovered) = loop {
            events.push(RunEvent::RunStarted {
                attempt,
                n: cfg.n,
                ranks: cfg.grid.size(),
            });
            let out = run(&cfg);
            let (alerts, abort_k) = self.analyze(&cfg, &out, attempt);
            if detection_iter.is_none() {
                if let Some(RunEvent::Alert { k, .. }) = alerts.first() {
                    detection_iter = Some(*k);
                }
            }
            events.extend(alerts);
            // A resumed attempt starts at its snapshot's clock, which the
            // aborted attempt before it already paid for.
            let start = cfg.restart.as_ref().map_or(0.0, |s| s.max_clock());
            let Some(abort_k) = abort_k else {
                total_cost += out.perf.runtime - start;
                events.push(completed(attempt, &out));
                break (out, true);
            };
            total_cost += clock_at(&out.records, abort_k) - start;
            events.push(RunEvent::EarlyTermination {
                attempt,
                k: abort_k,
                alerts: events
                    .iter()
                    .filter(|e| matches!(e, RunEvent::Alert { .. }))
                    .count(),
            });
            let RecoveryPolicy::Rerun {
                scan_threshold,
                max_reruns,
                resume,
            } = self.policy
            else {
                // No intervention: report the degraded run as final.
                events.push(completed(attempt, &out));
                break (out, false);
            };
            if attempt > max_reruns {
                events.push(RunEvent::GaveUp { attempts: attempt });
                break (out, false);
            }
            // Post-incident scan on the *effective* fleet: base
            // multipliers with fault factors as of the abort.
            let effective =
                cfg.faults
                    .effective_fleet(cfg.fleet.as_ref(), cfg.grid.size(), abort_k);
            let scan = scan_fleet(&cfg.sys.gcd, &effective, 8 * cfg.b, cfg.b, scan_threshold);
            total_cost += scan.median_time;
            events.push(RunEvent::ScanCompleted {
                attempt,
                flagged: scan.slow.clone(),
            });
            if scan.slow.is_empty() {
                events.push(RunEvent::GaveUp { attempts: attempt });
                break (out, false);
            }
            prepare_rerun(&mut cfg, resume, scan.slow, abort_k, attempt, &mut events);
            attempt += 1;
        };
        SupervisedOutcome {
            events,
            outcome,
            attempts: attempt,
            detection_iter,
            total_cost,
            recovered,
        }
    }
}

fn completed(attempt: usize, out: &RunOutcome) -> RunEvent {
    RunEvent::RunCompleted {
        attempt,
        perf: out.perf.without_host_timing(),
        converged: out.converged,
    }
}

/// The slowest rank's clock at the end of iteration `k`: what an attempt
/// cut there has spent.
fn clock_at(records: &[Vec<IterRecord>], k: usize) -> f64 {
    records
        .iter()
        .filter_map(|rank| rank.iter().find(|r| r.k == k))
        .map(|r| r.clock)
        .fold(0.0, f64::max)
}

/// Reconfigures `cfg` for the rerun after the scan flagged `slow`: loads
/// the snapshot to resume from (unless `resume` is [`Resume::Scratch`]),
/// re-grids it onto the survivors for [`Resume::Elastic`], and otherwise
/// swaps the flagged GCDs for healthy spares.
fn prepare_rerun(
    cfg: &mut RunConfig,
    resume: Resume,
    slow: Vec<usize>,
    abort_k: usize,
    attempt: usize,
    events: &mut Vec<RunEvent>,
) {
    cfg.restart = None;
    let mut snap = match resume {
        Resume::Scratch => None,
        Resume::Checkpoint | Resume::Elastic => load_snapshot(cfg, abort_k, attempt, events),
    };
    let mut excluded = slow;
    let regrid = match (resume, &snap) {
        (Resume::Elastic, Some(s)) => Some(shrink(&cfg.grid, s)),
        _ => None,
    };
    match regrid {
        Some(Ok((regridded, grid))) => {
            // The faulted rank's whole process-grid column leaves.
            let col = cfg.grid.coord_of(excluded[0]).1;
            excluded = (0..cfg.grid.size())
                .filter(|&r| cfg.grid.coord_of(r).1 == col)
                .collect();
            cfg.grid = grid;
            cfg.fleet = None;
            snap = Some(regridded);
        }
        infeasible => {
            if let Some(Err(e)) = infeasible {
                events.push(RunEvent::CheckpointRejected {
                    attempt,
                    reason: format!("elastic re-grid infeasible ({e}); same-grid restart"),
                });
            }
            let base = cfg
                .fleet
                .clone()
                .unwrap_or_else(|| GcdFleet::uniform(cfg.grid.size()));
            cfg.fleet = Some(base.replacing(&excluded));
        }
    }
    cfg.faults = cfg.faults.without_gcds(&excluded);
    events.push(RunEvent::Excluded {
        attempt,
        gcds: excluded,
    });
    if let Some(s) = snap {
        events.push(RunEvent::Restarted {
            attempt: attempt + 1,
            from_k: s.header.k as usize,
            ranks: cfg.grid.size(),
        });
        cfg.restart = Some(Arc::new(s));
    }
}

/// The newest snapshot at or before the abort — faults are virtual, so
/// files written *after* the fault bit also sit on disk and must be
/// skipped. Logs whether it loaded, or why there is none.
fn load_snapshot(
    cfg: &RunConfig,
    abort_k: usize,
    attempt: usize,
    events: &mut Vec<RunEvent>,
) -> Option<Snapshot> {
    let located = cfg
        .checkpoint
        .as_ref()
        .and_then(|spec| latest_in(&spec.dir, abort_k));
    let Some(path) = located else {
        events.push(RunEvent::CheckpointRejected {
            attempt,
            reason: "no checkpoint on disk before the abort".into(),
        });
        return None;
    };
    match Snapshot::load(&path) {
        Ok(s) => {
            events.push(RunEvent::CheckpointLoaded {
                attempt,
                k: s.header.k as usize,
                path: path.display().to_string(),
            });
            Some(s)
        }
        Err(e) => {
            events.push(RunEvent::CheckpointRejected {
                attempt,
                reason: format!("{}: {e}", path.display()),
            });
            None
        }
    }
}

/// The elastic re-grid: the snapshot re-dealt onto the grid with one
/// process-grid column fewer.
fn shrink(grid: &ProcessGrid, snap: &Snapshot) -> Result<(Snapshot, ProcessGrid), SnapshotError> {
    if grid.p_c < 2 {
        return Err(SnapshotError::ConfigMismatch("single-column grid"));
    }
    let size = grid.p_r * (grid.p_c - 1);
    let q = grid.gcds_per_node();
    let q = if q > 0 && size.is_multiple_of(q) {
        q
    } else {
        1
    };
    let new_grid = ProcessGrid::col_major(grid.p_r, grid.p_c - 1, q);
    Ok((regrid_snapshot(snap, grid, &new_grid)?, new_grid))
}

/// Convenience: what fraction of the fault-free baseline the supervised
/// outcome recovered (1.0 = full recovery).
pub fn recovery_ratio(supervised: &SupervisedOutcome, baseline: &RunOutcome) -> f64 {
    supervised.outcome.perf.gflops_per_gcd / baseline.perf.gflops_per_gcd
}

/// Cost-based recovery ratio: the fault-free baseline runtime divided by
/// everything the supervised campaign actually spent — aborted attempts,
/// scans, and resumed tails. `1.0` means the incident was free; against
/// a baseline of the same checkpoint-configured run a recovered campaign
/// never scores above 1 (it cannot cost less than the run with no fault),
/// and a checkpoint restart scores above a full rerun of the same incident
/// because its final attempt pays only for the panels after the snapshot.
pub fn cost_recovery_ratio(supervised: &SupervisedOutcome, baseline: &RunOutcome) -> f64 {
    baseline.perf.runtime / supervised.total_cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::grid::ProcessGrid;
    use crate::solve::RunConfig;
    use crate::systems::testbed;

    fn faulted_cfg(spec: &str) -> RunConfig {
        let grid = ProcessGrid::col_major(2, 2, 4);
        RunConfig::timing(testbed(1, 4), grid, 2048, 128)
            .faults(FaultPlan::new().parse_spec(spec, 0).unwrap())
            .build()
            .unwrap()
    }

    fn clean_cfg() -> RunConfig {
        let grid = ProcessGrid::col_major(2, 2, 4);
        RunConfig::timing(testbed(1, 4), grid, 2048, 128)
            .build()
            .unwrap()
    }

    #[test]
    fn clean_run_completes_without_alerts() {
        let sup = Supervisor::reporting();
        let out = sup.supervise(&clean_cfg());
        assert_eq!(out.attempts, 1);
        assert!(out.recovered);
        assert!(out.detection_iter.is_none());
        assert!(matches!(out.events[0], RunEvent::RunStarted { .. }));
        assert!(matches!(
            out.events.last(),
            Some(RunEvent::RunCompleted { .. })
        ));
    }

    #[test]
    fn slow_gcd_is_detected_and_excluded() {
        let sup = Supervisor::with_rerun(1.15, 2);
        let supervised = sup.supervise(&faulted_cfg("slow-gcd:3x:g3"));
        assert!(supervised.recovered, "events: {:?}", supervised.events);
        assert_eq!(supervised.attempts, 2);
        // The straggler was flagged and excluded.
        assert!(supervised
            .events
            .iter()
            .any(|e| matches!(e, RunEvent::Excluded { gcds, .. } if gcds.contains(&3))));
        // Rerun recovers to within 5% of the fault-free baseline.
        let baseline = run(&clean_cfg());
        let ratio = recovery_ratio(&supervised, &baseline);
        assert!(ratio > 0.95, "recovered only {ratio} of baseline");
    }

    #[test]
    fn detection_is_fast() {
        let sup = Supervisor::reporting();
        let out = sup.supervise(&faulted_cfg("slow-gcd:3x:g3"));
        let k = out.detection_iter.expect("fault must be detected");
        assert!(
            k <= sup.monitor.report_every,
            "detected only at iteration {k}"
        );
    }

    fn ckpt_cfg(dir: &std::path::Path, spec: Option<&str>) -> RunConfig {
        let grid = ProcessGrid::col_major(2, 2, 4);
        let mut bld = RunConfig::timing(testbed(1, 4), grid, 2048, 128)
            .checkpoint(crate::checkpoint::CheckpointSpec::new(dir, 4));
        if let Some(s) = spec {
            bld = bld.faults(FaultPlan::new().parse_spec(s, 0).unwrap());
        }
        bld.build().unwrap()
    }

    /// Pins the alert-index convention. At a checkpoint boundary `k` the
    /// drain applies iteration `k`'s trailing update at iteration `k`'s
    /// device speed but books it into the record of the iteration it
    /// closes, `k - 1` — so a fault switching on exactly at a boundary
    /// raises its first alert one index early. That is booking, not
    /// look-ahead and not an off-by-one in the fault onset: off a boundary
    /// (or without checkpoints) the first alert names the onset itself.
    #[test]
    fn first_alert_at_a_checkpoint_boundary_names_the_drained_record() {
        let first_alert = |interval: Option<usize>, spec: Option<&str>| {
            let dir = std::env::temp_dir().join(format!(
                "hplai-sup-alert-{}-{interval:?}",
                std::process::id()
            ));
            std::fs::remove_dir_all(&dir).ok();
            let grid = ProcessGrid::col_major(2, 2, 4);
            let mut bld = RunConfig::timing(testbed(1, 4), grid, 2048, 128);
            if let Some(i) = interval {
                bld = bld.checkpoint(crate::checkpoint::CheckpointSpec::new(&dir, i));
            }
            if let Some(s) = spec {
                bld = bld.faults(FaultPlan::new().parse_spec(s, 0).unwrap());
            }
            let out = Supervisor::reporting().supervise(&bld.build().unwrap());
            std::fs::remove_dir_all(&dir).ok();
            out.events.into_iter().find_map(|e| match e {
                RunEvent::Alert {
                    rank, k, component, ..
                } => Some((rank, k, component)),
                _ => None,
            })
        };
        // The drain alone never trips the monitor on a healthy run.
        assert_eq!(first_alert(Some(4), None), None);
        assert_eq!(
            first_alert(None, Some("degrade:4x:k8:g3")),
            Some((3, 8, "gemm"))
        );
        assert_eq!(
            first_alert(Some(8), Some("degrade:4x:k12:g3")),
            Some((3, 12, "gemm"))
        );
        assert_eq!(
            first_alert(Some(4), Some("degrade:4x:k8:g3")),
            Some((3, 7, "gemm"))
        );
    }

    #[test]
    fn checkpoint_restart_beats_full_rerun() {
        let dir = std::env::temp_dir().join(format!("hplai-sup-restart-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let cfg = ckpt_cfg(&dir, Some("degrade:4x:k8:g2"));
        let restart = Supervisor::with_restart(1.15, 2, false).supervise(&cfg);
        assert!(restart.recovered, "events: {:?}", restart.events);
        assert!(restart
            .events
            .iter()
            .any(|e| matches!(e, RunEvent::CheckpointLoaded { .. })));
        assert!(restart
            .events
            .iter()
            .any(|e| matches!(e, RunEvent::Restarted { from_k, .. } if *from_k > 0)));
        // The same incident handled by the from-scratch rerun workflow.
        let rerun = Supervisor::with_rerun(1.15, 2).supervise(&cfg);
        assert!(rerun.recovered, "events: {:?}", rerun.events);
        assert!(
            restart.total_cost < rerun.total_cost,
            "restart cost {} must beat full-rerun cost {}",
            restart.total_cost,
            rerun.total_cost
        );
        let baseline = run(&clean_cfg());
        assert!(cost_recovery_ratio(&restart, &baseline) > cost_recovery_ratio(&rerun, &baseline));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_checkpoint_falls_back_to_full_rerun() {
        let dir = std::env::temp_dir().join(format!("hplai-sup-corrupt-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        // Plant a corrupt snapshot; interval 0 keeps the attempts from
        // atomically writing fresh (valid) files over it.
        let mut junk = b"HPLAICKP".to_vec();
        junk.extend_from_slice(&[0x55u8; 64]);
        std::fs::write(dir.join("ckpt_000004.bin"), junk).unwrap();
        let grid = ProcessGrid::col_major(2, 2, 4);
        let cfg = RunConfig::timing(testbed(1, 4), grid, 2048, 128)
            .checkpoint(crate::checkpoint::CheckpointSpec::new(&dir, 0))
            .faults(FaultPlan::new().parse_spec("degrade:4x:k8:g2", 0).unwrap())
            .build()
            .unwrap();
        let out = Supervisor::with_restart(1.15, 2, false).supervise(&cfg);
        // The snapshot is rejected with a typed reason, and recovery still
        // succeeds via the full-rerun fallback.
        assert!(
            out.events
                .iter()
                .any(|e| matches!(e, RunEvent::CheckpointRejected { .. })),
            "events: {:?}",
            out.events
        );
        assert!(
            !out.events
                .iter()
                .any(|e| matches!(e, RunEvent::Restarted { .. })),
            "a corrupt snapshot must not be resumed from"
        );
        assert!(out.recovered, "events: {:?}", out.events);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn elastic_restart_finishes_on_survivors() {
        let dir = std::env::temp_dir().join(format!("hplai-sup-elastic-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let cfg = ckpt_cfg(&dir, Some("degrade:4x:k8:g2"));
        let out = Supervisor::with_restart(1.15, 2, true).supervise(&cfg);
        assert!(out.recovered, "events: {:?}", out.events);
        // GCD 2 sits in grid column 1 (col-major 2×2): that column is
        // dropped and the run finishes on the surviving 2 ranks.
        assert!(out
            .events
            .iter()
            .any(|e| matches!(e, RunEvent::Restarted { ranks: 2, from_k, .. } if *from_k > 0)));
        assert_eq!(out.outcome.perf.simulated_ranks, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn event_log_is_deterministic() {
        let sup = Supervisor::with_rerun(1.15, 2);
        let cfg = faulted_cfg("degrade:3x:k8:g2");
        let a = sup.supervise(&cfg);
        let b = sup.supervise(&cfg);
        assert_eq!(a.events, b.events);
        assert_eq!(a.total_cost, b.total_cost);
    }

    #[test]
    fn events_serialize_to_json_objects() {
        let e = RunEvent::Alert {
            attempt: 1,
            rank: 3,
            k: 7,
            component: "gemm",
            slowdown: 3.2,
        };
        let mut s = String::new();
        e.serialize_json(&mut s);
        let v: serde_json::Value = serde_json::from_str(&s).unwrap();
        assert_eq!(v["event"], "alert");
        assert_eq!(v["rank"], 3.0);
        let e = RunEvent::RunCompleted {
            attempt: 2,
            perf: PerfReport::new(1024, 4, 1.0, 0.8, 0.2),
            converged: true,
        };
        let mut s = String::new();
        e.serialize_json(&mut s);
        let v: serde_json::Value = serde_json::from_str(&s).unwrap();
        assert_eq!(v["event"], "run_completed");
        assert!(v["perf"]["runtime"].as_f64().unwrap() > 0.0);
    }

    #[test]
    fn early_termination_truncates_cost() {
        // A hard failure at iteration 4 must be terminated early; the
        // charged cost stays well below the full degraded runtime.
        let grid = ProcessGrid::col_major(2, 2, 4);
        let cfg = RunConfig::timing(testbed(1, 4), grid, 2048, 64)
            .faults(FaultPlan::new().parse_spec("fail:k4:g1", 0).unwrap())
            .build()
            .unwrap();
        let sup = Supervisor::reporting();
        let out = sup.supervise(&cfg);
        assert!(!out.recovered);
        assert!(out
            .events
            .iter()
            .any(|e| matches!(e, RunEvent::EarlyTermination { .. })));
        assert!(
            out.total_cost < 0.7 * out.outcome.perf.runtime,
            "cost {} vs degraded runtime {}",
            out.total_cost,
            out.outcome.perf.runtime
        );
    }
}
