//! The distributed GPU HPL-AI block LU factorization (Algorithm 1, §III-C)
//! with the §IV-B look-ahead optimization.
//!
//! Every rank executes the same iteration structure:
//!
//! 1. *(look-ahead)* apply the **previous** iteration's panels to the row-
//!    and column-strips that iteration `k` is about to factor;
//! 2. **Diagonal Update** — the owner GETRFs `A(k,k)` in FP32 and
//!    broadcasts it along its process row and column;
//! 3. **Panel Update** — row-`k` owners TRSM the `U` strip and TRANS_CAST
//!    it to FP16; column-`k` owners TRSM the `L` strip and CAST it;
//! 4. panel broadcasts (the tunable `Bcast`/`IBcast`/`Ring*` choice);
//! 5. **Update Trailing Matrix** — the mixed-precision GEMM; with
//!    look-ahead this applies the *previous* panels to the remainder, so
//!    the freshly broadcast panels overlap the bulk compute.
//!
//! The same function runs functionally (real panels) and in timing mode
//! (virtual payloads); kernel times always come from the device model, so
//! functional runs produce the same simulated clocks the timing runs do.

use crate::cache::{MatrixCache, MatrixKey};
use crate::checkpoint::{self, ByteReader, Snapshot, SnapshotError};
use crate::grid::ProcessGrid;
use crate::local::LocalMatrix;
use crate::msg::{PanelData, TrailingPrecision};
use crate::runtime::{CommScope, PanelBcast, RankCtx};
use crate::solve::Stepper;
use crate::systems::SystemSpec;
use mxp_blas::{Diag, Side, Uplo};
use mxp_gpusim::{BlasShim, GcdModel, GcdSpeed, Workspace};
use mxp_lcg::{MatrixGen, MatrixKind};
use mxp_msgsim::BcastAlgo;

/// Execution fidelity of the driver.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fidelity {
    /// Real panels, real math, verifiable answer (small N).
    Functional,
    /// Virtual payloads, simulated clocks only (large N).
    Timing,
}

/// Configuration of one factorization.
#[derive(Clone, Debug)]
pub struct FactorConfig {
    /// Global matrix dimension.
    pub n: usize,
    /// Block size `B`.
    pub b: usize,
    /// Panel broadcast algorithm (§IV-B).
    pub algo: BcastAlgo,
    /// Whether the look-ahead pipeline is enabled.
    pub lookahead: bool,
    /// Execution fidelity.
    pub fidelity: Fidelity,
    /// Matrix generator seed.
    pub seed: u64,
    /// Storage format of the broadcast panels / trailing GEMM inputs.
    pub prec: TrailingPrecision,
}

/// Per-iteration timing record on one rank (the Fig. 10 series).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct IterRecord {
    /// Iteration index `k`.
    pub k: usize,
    /// Simulated seconds in GETRF.
    pub getrf: f64,
    /// Simulated seconds in the two panel TRSMs.
    pub trsm: f64,
    /// Simulated seconds in CAST / TRANS_CAST.
    pub cast: f64,
    /// Simulated seconds in trailing GEMM (strips + remainder).
    pub gemm: f64,
    /// Simulated seconds busy in panel broadcasts (injection and
    /// forwarding overheads; excludes idle time, which lands in `wait`).
    pub bcast: f64,
    /// Simulated seconds spent waiting on communication.
    pub wait: f64,
    /// Panel-transfer flight seconds covered by local work between the
    /// broadcast post and its join — the overlap the look-ahead pipeline
    /// actually earned (not additional busy time; never part of totals).
    pub hidden: f64,
    /// This rank's simulated clock at the end of the iteration, seconds —
    /// the same absolute clock checkpoint snapshots record, so it already
    /// includes every checkpoint drained and written at a boundary `<= k`.
    /// The supervisor charges an attempt aborted at `k` from it.
    pub clock: f64,
}

/// Result of the factorization on one rank.
pub struct FactorOutput {
    /// The local LU factors (functional mode only).
    pub local: Option<LocalMatrix>,
    /// Per-iteration breakdown on this rank.
    pub records: Vec<IterRecord>,
    /// Simulated seconds from the synchronized start to this rank's finish.
    pub elapsed: f64,
}

/// One buffer of the double-buffered panel storage: either the panel data
/// is resident, or its split-phase broadcast is still in flight.
enum PanelSlot {
    /// Panel resident on this rank.
    Ready(PanelData),
    /// Root that already holds its data but still owes the collective a
    /// join (deferred-injection vendor `MPI_Ibcast`).
    RootInFlight(PanelData, PanelBcast),
    /// Receiver whose posted broadcast has not been joined yet — the
    /// transfer is riding under whatever compute happens meanwhile.
    InFlight(PanelBcast),
}

impl PanelSlot {
    /// The resident panel; panics if the broadcast was never joined.
    fn data(&self) -> &PanelData {
        match self {
            PanelSlot::Ready(d) => d,
            _ => panic!("panel still in flight: join the broadcast first"),
        }
    }
}

/// Completes a slot's pending broadcast (no-op when already resident),
/// charging join time to `rec.bcast`/`rec.hidden` when a record is given.
fn resolve_slot(
    ctx: &mut RankCtx,
    slot: &mut PanelSlot,
    fidelity: Fidelity,
    extent: usize,
    prec: TrailingPrecision,
    rec: Option<&mut IterRecord>,
) {
    let cur = std::mem::replace(slot, PanelSlot::Ready(PanelData::empty(prec)));
    *slot = match cur {
        PanelSlot::Ready(d) => PanelSlot::Ready(d),
        PanelSlot::RootInFlight(d, pb) => {
            let (_, st) = ctx.join_panel(pb);
            if let Some(r) = rec {
                r.bcast += st.busy;
                r.hidden += st.hidden;
            }
            PanelSlot::Ready(d)
        }
        PanelSlot::InFlight(pb) => {
            let (got, st) = ctx.join_panel(pb);
            if let Some(r) = rec {
                r.bcast += st.busy;
                r.hidden += st.hidden;
            }
            PanelSlot::Ready(unpack_panel(got, fidelity, extent, prec))
        }
    };
}

/// Panels carried across iterations by the look-ahead pipeline.
///
/// On broadcast roots the data is held immediately; on receivers the slot
/// stays [`PanelSlot::InFlight`] until the next iteration joins the
/// (already posted) collective — that deferral is what lets the panel
/// transfer overlap the remainder GEMM in the LogP clocks, exactly the
/// §IV-B schedule.
struct Panels {
    /// Iteration that produced them.
    k: usize,
    /// `L` panel: trailing-rows × B, tight.
    l: PanelSlot,
    /// Transposed `U` panel: trailing-cols × B, tight.
    u: PanelSlot,
    /// Trailing extent the panels cover.
    m_loc: usize,
    n_loc: usize,
}

/// Materializes this rank's local share for a functional run: served from
/// the cache when one is attached and the key is resident (a memcpy),
/// generated from the LCG streams otherwise. Cache fills run the identical
/// generation code, so the two paths are bitwise-indistinguishable.
fn materialize(
    grid: &ProcessGrid,
    coord: (usize, usize),
    cfg: &FactorConfig,
    gen: &MatrixGen,
    cache: Option<&MatrixCache>,
) -> LocalMatrix {
    let fresh = || {
        let mut m = LocalMatrix::new(grid, coord, cfg.n, cfg.b);
        m.fill_from(gen);
        m
    };
    match cache {
        Some(cache) => {
            let key = MatrixKey {
                seed: cfg.seed,
                n: cfg.n,
                b: cfg.b,
                p_r: grid.p_r,
                p_c: grid.p_c,
                coord,
                kind: MatrixKind::DiagDominant,
            };
            let data = cache.get_or_fill(key, || fresh().data);
            LocalMatrix::from_data(grid, coord, cfg.n, cfg.b, data.as_ref().clone())
        }
        None => fresh(),
    }
}

/// Runs the distributed factorization on this rank. `speed` is the GCD's
/// speed state — a plain `f64` fleet multiplier (1.0 = nominal; times are
/// divided by it) or a full [`GcdSpeed`] whose injected faults make the
/// multiplier iteration-dependent. The process grid, sub-communicators,
/// and comm instrumentation all come from `ctx`.
pub fn factor(
    ctx: &mut RankCtx,
    sys: &SystemSpec,
    cfg: &FactorConfig,
    speed: impl Into<GcdSpeed>,
) -> FactorOutput {
    factor_cached(ctx, sys, cfg, speed, None)
}

/// [`factor`] with an optional generated-matrix cache: a functional run
/// whose [`MatrixKey`] is resident skips the LCG fill and memcpys the
/// cached buffer instead — byte-identical by the cache's purity contract,
/// so simulated clocks and results are unchanged. Timing-fidelity runs
/// never materialize and ignore the cache.
pub fn factor_cached(
    ctx: &mut RankCtx,
    sys: &SystemSpec,
    cfg: &FactorConfig,
    speed: impl Into<GcdSpeed>,
    cache: Option<&MatrixCache>,
) -> FactorOutput {
    let state = FactorState::new(ctx, sys, cfg, speed.into(), cache);
    crate::solve::step_until_done(ctx, state, None).0
}

/// The factorization as an explicit resumable stepper: the distributed
/// panel cursor, local tiles, in-flight look-ahead posture, and per-rank
/// timing records, advanced one panel iteration at a time by
/// [`crate::solve::step_until_done`].
///
/// The monolithic [`factor`] loop is this state machine driven to
/// completion; panel-boundary checkpointing drives it with a
/// [`crate::checkpoint::RunCheckpointer`] instead, draining the look-ahead
/// posture ([`Stepper::drain`]) and encoding a snapshot section
/// ([`Stepper::encode`]) at every boundary, and a restarted run rebuilds
/// the state with [`FactorState::resume`] and steps on bit-identically.
pub struct FactorState<'a> {
    sys: &'a SystemSpec,
    cfg: FactorConfig,
    speed: GcdSpeed,
    grid: ProcessGrid,
    my_r: usize,
    my_c: usize,
    shim: BlasShim,
    ws: Workspace,
    n_b: usize,
    n_loc_r: usize,
    n_loc_c: usize,
    local: Option<LocalMatrix>,
    records: Vec<IterRecord>,
    prev: Option<Panels>,
    t0: f64,
    k: usize,
}

impl<'a> FactorState<'a> {
    /// Builds the stepper at panel cursor 0: materializes the local share
    /// (functional runs), charges the host-to-device copy, and
    /// synchronizes — benchmark time starts after this barrier.
    pub fn new(
        ctx: &mut RankCtx,
        sys: &'a SystemSpec,
        cfg: &FactorConfig,
        speed: GcdSpeed,
        cache: Option<&MatrixCache>,
    ) -> Self {
        let grid = *ctx.grid();
        let (my_r, my_c) = ctx.coords();
        let dev = &sys.gcd;
        let gen = MatrixGen::new(cfg.seed, cfg.n, MatrixKind::DiagDominant);
        let local = match cfg.fidelity {
            Fidelity::Functional => Some(materialize(&grid, (my_r, my_c), cfg, &gen, cache)),
            Fidelity::Timing => None,
        };
        let n_loc_r = cfg.n / grid.p_r;
        let n_loc_c = cfg.n / grid.p_c;
        ctx.charge(dev.h2d_time(4 * n_loc_r as u64 * n_loc_c as u64) / speed.at(0));
        ctx.barrier(CommScope::World);
        let t0 = ctx.now();
        let n_b = cfg.n / cfg.b;
        FactorState {
            sys,
            cfg: cfg.clone(),
            speed,
            grid,
            my_r,
            my_c,
            shim: BlasShim::new(dev.vendor),
            ws: Workspace::default(),
            n_b,
            n_loc_r,
            n_loc_c,
            local,
            records: Vec::with_capacity(n_b),
            prev: None,
            t0,
            k: 0,
        }
    }

    /// Rebuilds the stepper from this rank's section of a panel-boundary
    /// snapshot and jumps the rank's clock to the drained boundary.
    ///
    /// A fresh context sits at simulated time 0, so the clock charge is an
    /// exact `f64` and the restarted run's clocks — and therefore its
    /// message schedule and event signatures — are bit-identical from the
    /// boundary on to the run that drained the snapshot. Timing records
    /// restart empty: a resumed run reports the tail it actually executed.
    pub fn resume(
        ctx: &mut RankCtx,
        sys: &'a SystemSpec,
        cfg: &FactorConfig,
        speed: GcdSpeed,
        snap: &Snapshot,
    ) -> Result<Self, SnapshotError> {
        let grid = *ctx.grid();
        let (my_r, my_c) = ctx.coords();
        let rank = ctx.rank();
        let n_loc_r = cfg.n / grid.p_r;
        let n_loc_c = cfg.n / grid.p_c;
        let section = snap
            .sections
            .get(rank)
            .ok_or(SnapshotError::ConfigMismatch("rank count"))?;
        let mut r = ByteReader::new(section);
        let t0 = r.f64()?;
        let has_local = r.u8()? != 0;
        let mut local = None;
        if has_local {
            let len = r.u64()? as usize;
            if len != n_loc_r * n_loc_c {
                return Err(SnapshotError::ConfigMismatch("local matrix extent"));
            }
            let mut data = Vec::with_capacity(len);
            for _ in 0..len {
                data.push(f32::from_bits(r.u32()?));
            }
            local = Some(LocalMatrix::from_data(
                &grid,
                (my_r, my_c),
                cfg.n,
                cfg.b,
                data,
            ));
        }
        if !r.is_done() {
            return Err(SnapshotError::Truncated);
        }
        match cfg.fidelity {
            Fidelity::Functional if local.is_none() => {
                return Err(SnapshotError::ConfigMismatch("fidelity"))
            }
            // A functional snapshot can seed a timing resume; the tiles
            // are simply not carried.
            Fidelity::Timing => local = None,
            Fidelity::Functional => {}
        }
        let clock = snap.clocks[rank];
        debug_assert_eq!(ctx.now(), 0.0, "resume requires a fresh rank context");
        ctx.charge(clock - ctx.now());
        ctx.restore_wait_total(
            *snap
                .waits
                .get(rank)
                .ok_or(SnapshotError::ConfigMismatch("rank count"))?,
        );
        Ok(FactorState {
            sys,
            cfg: cfg.clone(),
            speed,
            grid,
            my_r,
            my_c,
            shim: BlasShim::new(sys.gcd.vendor),
            ws: Workspace::default(),
            n_b: cfg.n / cfg.b,
            n_loc_r,
            n_loc_c,
            local,
            records: Vec::new(),
            prev: None,
            t0,
            k: snap.header.k as usize,
        })
    }
}

impl Stepper for FactorState<'_> {
    type Output = FactorOutput;

    fn cursor(&self) -> usize {
        self.k
    }

    fn done(&self) -> bool {
        self.k >= self.n_b
    }

    fn step(&mut self, ctx: &mut RankCtx) {
        debug_assert!(!self.done());
        let k = self.k;
        let (my_r, my_c) = (self.my_r, self.my_c);
        let (n_loc_r, n_loc_c) = (self.n_loc_r, self.n_loc_c);
        let FactorState {
            sys,
            cfg,
            speed,
            grid,
            shim,
            ws,
            local,
            records,
            prev,
            ..
        } = self;
        let grid = *grid;
        let dev = &sys.gcd;
        let b = cfg.b;
        let (kr, kc) = grid.owner_of_block(k, k);
        let in_row = my_r == kr;
        let in_col = my_c == kc;
        let i_am_owner = in_row && in_col;
        let mut rec = IterRecord {
            k,
            ..Default::default()
        };
        // Device speed this iteration — injected faults (degradation,
        // thermal runaway, failure) change it as the run progresses.
        let sp = speed.at(k);
        let wait_at_start = ctx.wait_total();

        // Trailing extents *after* block k (the region panels k cover).
        let lr_k = trailing_row(&grid, my_r, k, b);
        let lc_k = trailing_col(&grid, my_c, k, b);
        let m_loc = n_loc_r - lr_k;
        let n_loc = n_loc_c - lc_k;

        // ---- 1. Resolve the previous panels, then strip updates ---------
        // Receivers join the broadcasts the roots posted last iteration;
        // roots already hold their panels. The panels have therefore been
        // in flight during the previous remainder GEMM, and the join
        // reports how much of the transfer that compute actually hid.
        if let Some(p) = prev.as_mut() {
            debug_assert!(cfg.lookahead && p.k + 1 == k);
            resolve_slot(
                ctx,
                &mut p.u,
                cfg.fidelity,
                p.n_loc,
                cfg.prec,
                Some(&mut rec),
            );
            resolve_slot(
                ctx,
                &mut p.l,
                cfg.fidelity,
                p.m_loc,
                cfg.prec,
                Some(&mut rec),
            );
        }
        if let Some(p) = prev.as_ref() {
            let lr_prev = trailing_row(&grid, my_r, p.k, b);
            let lc_prev = trailing_col(&grid, my_c, p.k, b);
            let l_prev = p.l.data();
            let u_prev = p.u.data();
            if in_row && p.n_loc > 0 {
                // Row strip: the B rows of block k × all trailing columns.
                rec.gemm += gemm_update(
                    ctx,
                    dev,
                    cfg.prec,
                    local.as_mut(),
                    sp,
                    lr_prev,
                    lc_prev,
                    b.min(p.m_loc),
                    p.n_loc,
                    l_prev,
                    0,
                    p.m_loc,
                    u_prev,
                    0,
                    p.n_loc,
                    b,
                    n_loc_r,
                );
            }
            if in_col && m_loc > 0 {
                // Column strip: trailing rows below block k × its B cols.
                rec.gemm += gemm_update(
                    ctx,
                    dev,
                    cfg.prec,
                    local.as_mut(),
                    sp,
                    lr_k,
                    lc_prev,
                    m_loc,
                    b.min(p.n_loc),
                    l_prev,
                    lr_k - lr_prev,
                    p.m_loc,
                    u_prev,
                    0,
                    p.n_loc,
                    b,
                    n_loc_r,
                );
            }
        }

        // ---- 2. Diagonal update -----------------------------------------
        let mut diag: Option<Vec<f32>> = None;
        if i_am_owner {
            if let Some(loc) = local.as_mut() {
                let (lr, lc) = (loc.row_of_block(k), loc.col_of_block(k));
                let off = loc.idx(lr, lc);
                let lda = loc.lda();
                shim.sgetrf_buffer_size(b, ws);
                shim.sgetrf(b, &mut loc.data[off..], lda, ws)
                    .expect("diagonally dominant block must factor");
                diag = Some(loc.pack_block(lr, lc));
            }
            let dt = dev.getrf_time(b) / sp;
            ctx.charge(dt);
            rec.getrf += dt;
        }
        // Broadcast the diagonal block along the owner's row and column
        // (in place: the owner's block travels, functional receivers end
        // up holding it, timing-mode ranks stay empty-handed).
        let diag_bytes = 4 * (b * b) as u64;
        if in_row {
            ctx.bcast_diag(CommScope::Row, kc, &mut diag, diag_bytes);
        }
        if in_col {
            ctx.bcast_diag(CommScope::Col, kr, &mut diag, diag_bytes);
        }

        // ---- 3. Panel updates -------------------------------------------
        // U strip: row-k owners solve L11·U12 = A12 then transpose-cast.
        let mut u16t_mine: Option<PanelData> = None;
        if in_row && n_loc > 0 {
            if let Some(loc) = local.as_mut() {
                let d = diag.as_ref().expect("row owner has the diagonal");
                let lr = loc.row_of_block(k);
                let off = loc.idx(lr, lc_k);
                let lda = loc.lda();
                shim.strsm(
                    Side::Left,
                    Uplo::Lower,
                    Diag::Unit,
                    b,
                    n_loc,
                    1.0,
                    d,
                    b,
                    &mut loc.data[off..],
                    lda,
                );
                u16t_mine = Some(PanelData::trans_cast(
                    cfg.prec,
                    b,
                    n_loc,
                    &loc.data[off..],
                    lda,
                ));
            }
            let dt = dev.trsm_time(b, n_loc) / sp;
            ctx.charge(dt);
            rec.trsm += dt;
            let dt = dev.cast_time(b * n_loc) / sp;
            ctx.charge(dt);
            rec.cast += dt;
        }
        // L strip: column-k owners solve L21·U11 = A21 then cast.
        let mut l16_mine: Option<PanelData> = None;
        if in_col && m_loc > 0 {
            if let Some(loc) = local.as_mut() {
                let d = diag.as_ref().expect("column owner has the diagonal");
                let lc = loc.col_of_block(k);
                let off = loc.idx(lr_k, lc);
                let lda = loc.lda();
                shim.strsm(
                    Side::Right,
                    Uplo::Upper,
                    Diag::NonUnit,
                    m_loc,
                    b,
                    1.0,
                    d,
                    b,
                    &mut loc.data[off..],
                    lda,
                );
                l16_mine = Some(PanelData::cast(cfg.prec, m_loc, b, &loc.data[off..], lda));
            }
            let dt = dev.trsm_time(b, m_loc) / sp;
            ctx.charge(dt);
            rec.trsm += dt;
            let dt = dev.cast_time(m_loc * b) / sp;
            ctx.charge(dt);
            rec.cast += dt;
        }

        // ---- 4. Panel broadcasts ----------------------------------------
        // With look-ahead every rank posts a split-phase broadcast: roots
        // inject now (the panel leaves while they compute on), receivers
        // keep an in-flight request and join next iteration, after the
        // remainder GEMM below has covered the flight time. Without
        // look-ahead everyone completes the collective immediately.
        let elem = cfg.prec.bytes_per_elem();
        let u_bytes = elem * (n_loc * b) as u64;
        let l_bytes = elem * (m_loc * b) as u64;
        // U panel along the column (root: the in-row member). The root
        // keeps its own data — only receivers unpack the collective.
        let u_slot = if cfg.lookahead {
            let (pb, st) =
                ctx.ibcast_panel(CommScope::Col, kr, u16t_mine.as_ref(), u_bytes, cfg.algo);
            rec.bcast += st.busy + st.waited;
            if in_row {
                let mine = u16t_mine
                    .take()
                    .unwrap_or_else(|| PanelData::empty(cfg.prec));
                if pb.is_resolved() {
                    let _ = ctx.join_panel(pb);
                    PanelSlot::Ready(mine)
                } else {
                    PanelSlot::RootInFlight(mine, pb)
                }
            } else {
                PanelSlot::InFlight(pb)
            }
        } else {
            let (got, st) =
                ctx.bcast_panel(CommScope::Col, kr, u16t_mine.as_ref(), u_bytes, cfg.algo);
            rec.bcast += st.busy;
            if in_row {
                PanelSlot::Ready(
                    u16t_mine
                        .take()
                        .unwrap_or_else(|| PanelData::empty(cfg.prec)),
                )
            } else {
                PanelSlot::Ready(unpack_panel(got, cfg.fidelity, n_loc, cfg.prec))
            }
        };
        // L panel along the row (root: the in-column member).
        let l_slot = if cfg.lookahead {
            let (pb, st) =
                ctx.ibcast_panel(CommScope::Row, kc, l16_mine.as_ref(), l_bytes, cfg.algo);
            rec.bcast += st.busy + st.waited;
            if in_col {
                let mine = l16_mine
                    .take()
                    .unwrap_or_else(|| PanelData::empty(cfg.prec));
                if pb.is_resolved() {
                    let _ = ctx.join_panel(pb);
                    PanelSlot::Ready(mine)
                } else {
                    PanelSlot::RootInFlight(mine, pb)
                }
            } else {
                PanelSlot::InFlight(pb)
            }
        } else {
            let (got, st) =
                ctx.bcast_panel(CommScope::Row, kc, l16_mine.as_ref(), l_bytes, cfg.algo);
            rec.bcast += st.busy;
            if in_col {
                PanelSlot::Ready(
                    l16_mine
                        .take()
                        .unwrap_or_else(|| PanelData::empty(cfg.prec)),
                )
            } else {
                PanelSlot::Ready(unpack_panel(got, cfg.fidelity, m_loc, cfg.prec))
            }
        };

        // ---- 5. Trailing update -----------------------------------------
        if cfg.lookahead {
            // Apply the *previous* panels to the remainder (everything
            // after block k in both dimensions), then stash this
            // iteration's panels for the next strips.
            if let Some(p) = prev.take() {
                let lr_prev = trailing_row(&grid, my_r, p.k, b);
                let lc_prev = trailing_col(&grid, my_c, p.k, b);
                if m_loc > 0 && n_loc > 0 {
                    rec.gemm += gemm_update(
                        ctx,
                        dev,
                        cfg.prec,
                        local.as_mut(),
                        sp,
                        lr_k,
                        lc_k,
                        m_loc,
                        n_loc,
                        p.l.data(),
                        lr_k - lr_prev,
                        p.m_loc,
                        p.u.data(),
                        lc_k - lc_prev,
                        p.n_loc,
                        b,
                        n_loc_r,
                    );
                }
            }
            *prev = Some(Panels {
                k,
                l: l_slot,
                u: u_slot,
                m_loc,
                n_loc,
            });
        } else if m_loc > 0 && n_loc > 0 {
            // Immediate full trailing update with this iteration's panels.
            rec.gemm += gemm_update(
                ctx,
                dev,
                cfg.prec,
                local.as_mut(),
                sp,
                lr_k,
                lc_k,
                m_loc,
                n_loc,
                l_slot.data(),
                0,
                m_loc,
                u_slot.data(),
                0,
                n_loc,
                b,
                n_loc_r,
            );
        }

        rec.wait = ctx.wait_total() - wait_at_start;
        rec.clock = ctx.now();
        records.push(rec);
        self.k = k + 1;
    }

    /// Quiesces the look-ahead posture at a panel boundary: joins any
    /// in-flight panel broadcasts and applies the pending panels to this
    /// rank's whole trailing region — the union of the strip and remainder
    /// updates the next iterations would have applied — so the local tiles
    /// are a pure function of the cursor and can be snapshotted.
    fn drain(&mut self, ctx: &mut RankCtx) {
        if self.prev.is_none() {
            return;
        }
        let k = self.k;
        let (my_r, my_c) = (self.my_r, self.my_c);
        let n_loc_r = self.n_loc_r;
        let FactorState {
            sys,
            cfg,
            speed,
            grid,
            local,
            records,
            prev,
            ..
        } = self;
        let grid = *grid;
        let dev = &sys.gcd;
        let b = cfg.b;
        let mut p = prev.take().expect("checked above");
        debug_assert!(p.k + 1 == k);
        resolve_slot(
            ctx,
            &mut p.u,
            cfg.fidelity,
            p.n_loc,
            cfg.prec,
            records.last_mut(),
        );
        resolve_slot(
            ctx,
            &mut p.l,
            cfg.fidelity,
            p.m_loc,
            cfg.prec,
            records.last_mut(),
        );
        let lr_prev = trailing_row(&grid, my_r, p.k, b);
        let lc_prev = trailing_col(&grid, my_c, p.k, b);
        let dt = gemm_update(
            ctx,
            dev,
            cfg.prec,
            local.as_mut(),
            speed.at(k),
            lr_prev,
            lc_prev,
            p.m_loc,
            p.n_loc,
            p.l.data(),
            0,
            p.m_loc,
            p.u.data(),
            0,
            p.n_loc,
            b,
            n_loc_r,
        );
        if let Some(r) = records.last_mut() {
            r.gemm += dt;
        }
    }

    /// Encodes this rank's section of a panel-boundary snapshot: the
    /// synchronized start time and (functional runs) the raw bits of the
    /// local tiles. Look-ahead state is never encoded — [`Self::drain`]
    /// ran first, so there is none.
    fn encode(&self, out: &mut Vec<u8>) {
        debug_assert!(self.prev.is_none(), "encode requires a drained stepper");
        checkpoint::put_f64(out, self.t0);
        match &self.local {
            Some(loc) => {
                out.push(1);
                checkpoint::put_u64(out, loc.data.len() as u64);
                out.reserve(4 * loc.data.len());
                for &v in &loc.data {
                    out.extend_from_slice(&v.to_bits().to_le_bytes());
                }
            }
            None => out.push(0),
        }
    }

    fn checkpoint_bytes(&self) -> u64 {
        // The modeled drain: the FP32 local tiles leave the device,
        // whichever fidelity hosts them — functional and timing clocks
        // must agree under identical checkpoint configs.
        4 * self.n_loc_r as u64 * self.n_loc_c as u64
    }

    fn finish(mut self, ctx: &mut RankCtx) -> FactorOutput {
        // Look-ahead leaves the last panels pending; their trailing region
        // is empty (k = n_b - 1 has no blocks after it), so nothing to
        // flush. Ranks still owing a join on the final (zero-extent)
        // broadcasts must complete it so every posted message is consumed.
        let FactorState {
            cfg, records, prev, ..
        } = &mut self;
        if let Some(p) = prev.as_mut() {
            resolve_slot(
                ctx,
                &mut p.u,
                cfg.fidelity,
                p.n_loc,
                cfg.prec,
                records.last_mut(),
            );
            resolve_slot(
                ctx,
                &mut p.l,
                cfg.fidelity,
                p.m_loc,
                cfg.prec,
                records.last_mut(),
            );
        }

        // Copy factors back to the host for iterative refinement (§III-C).
        ctx.charge(
            self.sys
                .gcd
                .h2d_time(4 * self.n_loc_r as u64 * self.n_loc_c as u64)
                / self.speed.at(self.n_b),
        );

        let elapsed = ctx.now() - self.t0;
        FactorOutput {
            local: self.local,
            records: self.records,
            elapsed,
        }
    }
}

/// Re-grids a factorization snapshot onto a new (smaller) process grid —
/// the elastic recovery path. Every block column/row of the checkpointed
/// matrix is re-dealt block-cyclically to its owner under `new_grid`, and
/// every surviving rank resumes from the *latest* checkpointed clock (the
/// re-deal is a synchronizing redistribution). The result is a snapshot
/// whose header describes the new grid, loadable by a run configured for
/// it.
///
/// Elastic restarts change the communication schedule, so unlike same-grid
/// restarts they are *not* bit-identical to the uninterrupted run — they
/// are the "finish on the survivors" path, verified by convergence.
pub fn regrid_snapshot(
    snap: &Snapshot,
    old_grid: &ProcessGrid,
    new_grid: &ProcessGrid,
) -> Result<Snapshot, SnapshotError> {
    let n = snap.header.n as usize;
    let b = snap.header.b as usize;
    if snap.header.driver != checkpoint::DRIVER_FACTOR {
        return Err(SnapshotError::ConfigMismatch("driver"));
    }
    if old_grid.p_r != snap.header.p_r as usize || old_grid.p_c != snap.header.p_c as usize {
        return Err(SnapshotError::ConfigMismatch("old grid"));
    }
    if !n.is_multiple_of(new_grid.p_r * b) || !n.is_multiple_of(new_grid.p_c * b) {
        return Err(SnapshotError::ConfigMismatch("new grid divisibility"));
    }
    // Decode every old rank's section.
    let mut t0 = 0.0_f64;
    let mut olds: Vec<(Option<LocalMatrix>, (usize, usize))> = Vec::new();
    for (rank, section) in snap.sections.iter().enumerate() {
        let coord = old_grid.coord_of(rank);
        let mut r = ByteReader::new(section);
        t0 = t0.max(r.f64()?);
        let has_local = r.u8()? != 0;
        let local = if has_local {
            let len = r.u64()? as usize;
            let mut data = Vec::with_capacity(len);
            for _ in 0..len {
                data.push(f32::from_bits(r.u32()?));
            }
            Some(LocalMatrix::from_data(old_grid, coord, n, b, data))
        } else {
            None
        };
        olds.push((local, coord));
    }
    let functional = olds.iter().any(|(l, _)| l.is_some());
    if functional && olds.iter().any(|(l, _)| l.is_none()) {
        return Err(SnapshotError::ConfigMismatch("mixed section fidelity"));
    }
    // Re-deal the tiles to their new owners.
    let n_b = n / b;
    let clock = snap.max_clock();
    let mut sections = Vec::with_capacity(new_grid.size());
    for rank in 0..new_grid.size() {
        let (r, c) = new_grid.coord_of(rank);
        let mut out = Vec::new();
        checkpoint::put_f64(&mut out, t0);
        if functional {
            let mut mine = LocalMatrix::new(new_grid, (r, c), n, b);
            for jb in (c..n_b).step_by(new_grid.p_c) {
                for ib in (r..n_b).step_by(new_grid.p_r) {
                    let (or, oc) = old_grid.owner_of_block(ib, jb);
                    let src_rank = old_grid.rank_of(or, oc);
                    let src = olds[src_rank].0.as_ref().expect("checked functional");
                    let (slr, slc) = (src.row_of_block(ib), src.col_of_block(jb));
                    let (dlr, dlc) = (mine.row_of_block(ib), mine.col_of_block(jb));
                    for j in 0..b {
                        for i in 0..b {
                            let v = src.data[src.idx(slr + i, slc + j)];
                            let di = mine.idx(dlr + i, dlc + j);
                            mine.data[di] = v;
                        }
                    }
                }
            }
            out.push(1);
            checkpoint::put_u64(&mut out, mine.data.len() as u64);
            out.reserve(4 * mine.data.len());
            for &v in &mine.data {
                out.extend_from_slice(&v.to_bits().to_le_bytes());
            }
        } else {
            out.push(0);
        }
        sections.push(out);
    }
    let mut header = snap.header;
    header.p_r = new_grid.p_r as u64;
    header.p_c = new_grid.p_c as u64;
    header.ranks = new_grid.size() as u64;
    Ok(Snapshot {
        header,
        clocks: vec![clock; new_grid.size()],
        // Re-gridded restarts change the communication schedule and give
        // up bitwise equivalence anyway; survivors start a fresh wait
        // accumulator.
        waits: vec![0.0; new_grid.size()],
        sections,
    })
}

/// Extracts a reduced-precision panel from a broadcast result (empty in
/// timing mode or for zero-extent panels).
fn unpack_panel(
    got: Option<PanelData>,
    fidelity: Fidelity,
    extent: usize,
    prec: TrailingPrecision,
) -> PanelData {
    match (fidelity, extent) {
        (Fidelity::Functional, e) if e > 0 => got.expect("functional broadcast must carry a panel"),
        _ => PanelData::empty(prec),
    }
}

/// Trailing-GEMM slowdown of the chosen panel format relative to the
/// FP16 tensor path: 16-bit formats ride the matrix cores; FP32 inputs
/// fall back to the vector FP32 pipeline.
fn prec_time_factor(dev: &GcdModel, prec: TrailingPrecision) -> f64 {
    match prec {
        TrailingPrecision::Fp16 | TrailingPrecision::Bf16 => 1.0,
        TrailingPrecision::Fp32 => dev.fp16_peak / dev.fp32_peak,
    }
}

/// Local row offset of the region strictly after global block `k`.
fn trailing_row(grid: &ProcessGrid, my_r: usize, k: usize, b: usize) -> usize {
    crate::local::count_owned(k + 1, my_r, grid.p_r) * b
}

/// Local column offset of the region strictly after global block `k`.
fn trailing_col(grid: &ProcessGrid, my_c: usize, k: usize, b: usize) -> usize {
    crate::local::count_owned(k + 1, my_c, grid.p_c) * b
}

/// Applies `C -= L16 · U16ᵀ` to the local window at `(lr, lc)` of extent
/// `m × n`, reading the FP16 panels at the given row offsets, and charges
/// the device time. Returns the charged GEMM time.
#[allow(clippy::too_many_arguments)]
fn gemm_update(
    ctx: &mut RankCtx,
    dev: &GcdModel,
    prec: TrailingPrecision,
    local: Option<&mut LocalMatrix>,
    speed: f64,
    lr: usize,
    lc: usize,
    m: usize,
    n: usize,
    l16: &PanelData,
    l_row_off: usize,
    l_lda: usize,
    u16t: &PanelData,
    u_row_off: usize,
    u_lda: usize,
    b: usize,
    lda_model: usize,
) -> f64 {
    if m == 0 || n == 0 {
        return 0.0;
    }
    if let Some(loc) = local {
        let off = loc.idx(lr, lc);
        let lda = loc.lda();
        let (slice, ldc) = (&mut loc.data[off..], lda);
        PanelData::apply_gemm(
            l16, u16t, m, n, b, l_row_off, l_lda, u_row_off, u_lda, slice, ldc,
        );
    }
    // The device-model LDA is the stored leading dimension of the local
    // matrix (fixed at N_Lr for the whole run — the Fig. 7 effect).
    let dt = dev.gemm_mixed_time(m, n, b, lda_model) * prec_time_factor(dev, prec) / speed;
    ctx.charge(dt);
    dt
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::ProcessGrid;
    use crate::solve::{run_with_backend, RunConfig};
    use crate::systems::testbed;

    fn run_factor(
        grid: ProcessGrid,
        n: usize,
        b: usize,
        algo: BcastAlgo,
        lookahead: bool,
        fidelity: Fidelity,
    ) -> Vec<FactorOutput> {
        let q = grid.gcds_per_node();
        let sys = testbed(grid.size() / q, q);
        let rcfg = RunConfig::functional(sys.clone(), grid, n, b)
            .algo(algo)
            .lookahead(lookahead)
            .seed(42)
            .build_or_panic();
        let cfg = FactorConfig {
            n,
            b,
            algo,
            lookahead,
            fidelity,
            seed: 42,
            prec: TrailingPrecision::Fp16,
        };
        run_with_backend(&rcfg, |ctx| factor(ctx, &sys, &cfg, 1.0))
            .expect("testbed grids fit the functional backend")
    }

    /// Gathers the distributed factors into one dense LU and checks
    /// `L·U ≈ A` at mixed-precision accuracy.
    fn check_reconstruction(grid: ProcessGrid, n: usize, b: usize, algo: BcastAlgo, la: bool) {
        let outs = run_factor(grid, n, b, algo, la, Fidelity::Functional);
        let gen = MatrixGen::new(42, n, MatrixKind::DiagDominant);
        // Assemble the global LU from local pieces.
        let mut lu = vec![0.0f64; n * n];
        for (rank, out) in outs.iter().enumerate() {
            let loc = out.local.as_ref().unwrap();
            let (r, c) = grid.coord_of(rank);
            let n_b = n / b;
            for jb in (c..n_b).step_by(grid.p_c) {
                for ib in (r..n_b).step_by(grid.p_r) {
                    let lr = loc.row_of_block(ib);
                    let lc = loc.col_of_block(jb);
                    for j in 0..b {
                        for i in 0..b {
                            lu[(jb * b + j) * n + ib * b + i] =
                                loc.data[loc.idx(lr + i, lc + j)] as f64;
                        }
                    }
                }
            }
        }
        // Reconstruct and compare.
        let mut worst: f64 = 0.0;
        let mut recon = vec![0.0f64; n * n];
        for j in 0..n {
            for i in 0..n {
                let mut acc = 0.0;
                let kmax = i.min(j);
                for l in 0..=kmax {
                    let lval = if l == i { 1.0 } else { lu[l * n + i] };
                    let uval = lu[j * n + l];
                    if l < i {
                        acc += lval * uval;
                    } else {
                        acc += uval; // l == i <= j: L diagonal is 1
                    }
                }
                recon[j * n + i] = acc;
            }
        }
        for j in 0..n {
            for i in 0..n {
                let d = (recon[j * n + i] - gen.entry(i, j)).abs();
                worst = worst.max(d);
            }
        }
        // FP16 panels bound the reconstruction error; scale by the
        // diagonal magnitude.
        let tol = 2.0 * mxp_precision::F16_EPS * gen.diag_value() * (n / b) as f64;
        assert!(
            worst < tol,
            "reconstruction error {worst} > {tol} ({algo:?}, la={la})"
        );
    }

    #[test]
    fn single_rank_factorization_is_correct() {
        check_reconstruction(
            ProcessGrid::col_major(1, 1, 1),
            64,
            16,
            BcastAlgo::Lib,
            false,
        );
    }

    #[test]
    fn two_by_two_grid_matches() {
        check_reconstruction(
            ProcessGrid::col_major(2, 2, 2),
            64,
            8,
            BcastAlgo::Lib,
            false,
        );
    }

    #[test]
    fn lookahead_produces_same_factors() {
        check_reconstruction(ProcessGrid::col_major(2, 2, 2), 64, 8, BcastAlgo::Lib, true);
    }

    #[test]
    fn ring_broadcasts_preserve_correctness() {
        for algo in [
            BcastAlgo::Ring1,
            BcastAlgo::Ring1M,
            BcastAlgo::Ring2M,
            BcastAlgo::IBcast,
        ] {
            check_reconstruction(ProcessGrid::col_major(2, 2, 4), 48, 8, algo, true);
        }
    }

    #[test]
    fn rectangular_grid() {
        check_reconstruction(
            ProcessGrid::col_major(2, 4, 8),
            64,
            8,
            BcastAlgo::Lib,
            false,
        );
        check_reconstruction(ProcessGrid::col_major(4, 2, 8), 64, 8, BcastAlgo::Lib, true);
    }

    #[test]
    fn node_local_grid_placement_is_numerically_identical() {
        // Placement changes timing, never results.
        check_reconstruction(
            ProcessGrid::node_local(2, 2, 2, 2),
            32,
            8,
            BcastAlgo::Lib,
            false,
        );
    }

    #[test]
    fn timing_mode_produces_clocks_without_data() {
        let outs = run_factor(
            ProcessGrid::col_major(2, 2, 4),
            256,
            32,
            BcastAlgo::Ring2M,
            true,
            Fidelity::Timing,
        );
        for out in &outs {
            assert!(out.local.is_none());
            assert!(out.elapsed > 0.0);
            assert_eq!(out.records.len(), 8);
        }
    }

    #[test]
    fn functional_and_timing_clocks_agree() {
        // The same schedule must produce identical simulated time whether
        // or not the math actually runs.
        let f = run_factor(
            ProcessGrid::col_major(2, 2, 4),
            64,
            8,
            BcastAlgo::Lib,
            true,
            Fidelity::Functional,
        );
        let t = run_factor(
            ProcessGrid::col_major(2, 2, 4),
            64,
            8,
            BcastAlgo::Lib,
            true,
            Fidelity::Timing,
        );
        for (a, b) in f.iter().zip(&t) {
            assert!(
                (a.elapsed - b.elapsed).abs() < 1e-9,
                "functional {} vs timing {}",
                a.elapsed,
                b.elapsed
            );
        }
    }

    #[test]
    fn slow_gcd_stalls_everyone() {
        // §VI-B: "a single slow GPU can severely worsen total performance
        // by stalling the pipeline".
        let grid = ProcessGrid::col_major(2, 2, 4);
        let sys = testbed(1, 4);
        let rcfg = RunConfig::functional(sys.clone(), grid, 256, 32)
            .lookahead(false)
            .build_or_panic();
        let cfg = FactorConfig {
            n: 256,
            b: 32,
            algo: BcastAlgo::Lib,
            lookahead: false,
            fidelity: Fidelity::Timing,
            seed: 1,
            prec: TrailingPrecision::Fp16,
        };
        let nominal = run_with_backend(&rcfg, |ctx| factor(ctx, &sys, &cfg, 1.0).elapsed)
            .unwrap()
            .into_iter()
            .fold(0.0, f64::max);
        let degraded = run_with_backend(&rcfg, |ctx| {
            let speed = if ctx.rank() == 3 { 0.5 } else { 1.0 };
            factor(ctx, &sys, &cfg, speed).elapsed
        })
        .unwrap()
        .into_iter()
        .fold(0.0, f64::max);
        assert!(
            degraded > 1.2 * nominal,
            "slow GCD must stall the pipeline: {degraded} vs {nominal}"
        );
    }
}
