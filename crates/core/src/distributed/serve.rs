//! The resident serving mode: keep the rank world alive and serve
//! repeated solves in place.
//!
//! After [`factor_phase`](super::factorize::factor_phase) completes, each
//! rank's elimination records **stay where they were produced**: rank 0
//! holds only the dense top factorization plus routing metadata
//! (ownership maps, fold ids, per-level active sets), and ranks `1..p`
//! park in a request/response command loop
//! ([`serve_rank`]) driven by rank 0 through a live
//! [`WorldHandle`]. Every [`ResidentService::try_solve_mat`] then runs
//! Algorithm 2's solve phase — upward pass with neighbor delta exchange,
//! dense top solve on rank 0, downward pass with request/reply value
//! refresh — as one SPMD function executed by all ranks over the existing
//! `KIND_SOLVE_*` tags, with the rank-local sweeps GEMM-blocked via the
//! level-3 kernels of [`crate::solve`].
//!
//! **Bit-exactness.** The resident solve reproduces the gathered
//! [`Factorization::apply_inverse_mat`](crate::Factorization) sweep *bit
//! for bit* (asserted in `tests/resident_serve.rs`): per-rank records are
//! applied in global elimination-order (the sorted order key), and the
//! neighbor delta shipped for a remote row is the very `EN · B_R` GEMM
//! product row the serial merge would subtract — not an after-minus-before
//! difference, which would pick up the sender's stale copy of the remote
//! value. Within any `(level, phase)` round the four-color schedule
//! guarantees no row receives deltas from two different ranks and no rank
//! both holds phase records and receives non-empty deltas, so the
//! receive-order of the exchange cannot reorder the serial summation.
//!
//! **Counters.** Solve traffic moves under the algorithmic
//! `KIND_SOLVE_*` tags and lands in the §IV data counters, so
//! `comm_counts --solve-reps` measures the paper's per-solve bound
//! O(sqrt(N/p)) words. The service *envelope* — command dispatch, the
//! RHS scatter and solution gather slabs (O(N·nrhs/p) words, the
//! residency analogue of the old record gather), and stats probes — moves
//! as uncounted service frames ([`RankCtx::send_service`]).
//!
//! **Shutdown.** Tag-based and Drop-safe: [`ResidentService::shutdown`]
//! broadcasts a shutdown command and joins the workers through
//! [`WorldHandle::finish`]; dropping the service does the same, and a
//! handle dropped without the round still leaves no live workers (the
//! idle wait observes the teardown — see `run_resident`). A rank that
//! dies mid-solve surfaces as a typed
//! [`SrsfError::RankFailed`](crate::SrsfError) naming the dead rank and
//! the protocol step, on both transports, within the receive timeout —
//! never a hang: live workers abandon the solve and exit their loops,
//! rank 0 poisons the service so later calls fail fast with the same
//! error, and Drop still reaps the session.
//!
//! **Checkpoint/restore.** When the factorization ran with
//! [`FactorOpts::checkpoint_dir`](crate::FactorOpts) set, each rank
//! persisted its snapshot at factor completion;
//! [`restore_resident_service`] rebuilds a fresh rank world from those
//! snapshots — no kernel evaluations, no re-factorization — and restored
//! solves are bit-identical to the original service's.

use super::factorize::{factor_phase, resident_bytes, TopFactor};
use super::{get_ids, key_level_phase, owned_leaf_ids, owner_of_point, region_of, RankState};
use crate::elimination::{BoxElimination, FactorError};
use crate::error::SrsfError;
use crate::sequential::domain_for;
use crate::solve::{downward_parts, merge_upward, upward_parts};
use crate::stats::FactorStats;
use crate::wire::put_ids;
use crate::FactorOpts;
use srsf_geometry::point::Point;
use srsf_geometry::procgrid::ProcessGrid;
use srsf_geometry::tree::{BoxId, QuadTree};
use srsf_kernels::kernel::Kernel;
use srsf_linalg::{Mat, Scalar};
use srsf_runtime::codec::{ByteReader, ByteWriter, Wire};
use srsf_runtime::tags::{
    self, tag, KIND_SOLVE_REQ, KIND_SOLVE_UP, KIND_SOLVE_VAL, TAG_SERVE_CKPT, TAG_SERVE_CMD,
    TAG_SERVE_READY, TAG_SERVE_RHS, TAG_SERVE_SOL, TAG_SERVE_STATS, TAG_SERVE_TRACE,
};
use srsf_runtime::world::{RankCtx, World, WorldHandle};
use srsf_runtime::{CommStats, MetricsRegistry, RecvError, TraceReport, Transport, WorldStats};
use std::collections::HashMap;
use std::path::Path;
// Sync primitives come through the srsf-verify shims: identical to
// `std::sync` in a normal build, schedule-explored under
// `--cfg srsf_model` (see crates/verify).
use srsf_verify::sync::{Arc, Mutex};

/// Serve-loop opcodes (first u64 of a `TAG_SERVE_CMD` payload).
const CMD_SHUTDOWN: u64 = 0;
/// `[CMD_SOLVE, nrhs]`, followed by a `TAG_SERVE_RHS` slab.
const CMD_SOLVE: u64 = 1;
/// Reply with a `TAG_SERVE_STATS` counter snapshot.
const CMD_PROBE: u64 = 2;
/// Reply with a `TAG_SERVE_TRACE` span-report drain (`srsf-trace` ring
/// buffers; empty when tracing is off).
const CMD_TRACE: u64 = 3;

/// What every rank needs at serve time beyond its [`ServeState`]. Owned
/// (not borrowed) so the in-process backend's serve threads can outlive
/// the build call. Deliberately tiny: all ownership/routing derived from
/// the tree and points is precomputed into the per-rank state at build,
/// so neither the geometry nor the kernel is retained.
pub(crate) struct ResidentGeo {
    /// Problem size `N`.
    pub(crate) n: usize,
    pub(crate) grid: ProcessGrid,
}

/// One record's upward remote-delta routing: `(destination rank, remote
/// row ids, their positions within `rec.nbr`)`, destinations in
/// first-appearance order within the nbr list.
type DeltaRoute = Vec<(usize, Vec<u32>, Vec<u32>)>;

/// Per-round id lists keyed by destination/owner rank.
type IdsByRank = Vec<(usize, Vec<u32>)>;

/// One rank's resident solve state: its own elimination records in global
/// elimination order, the solve-routing metadata, and (rank 0 only) the
/// dense top factorization.
///
/// Records, geometry, and ownership are fixed at factorization time, so
/// everything a solve needs besides the actual row data is precomputed
/// here once — per-round record ranges, the per-record remote-delta
/// routing, the per-round downward refresh lists, rank 0's top reply
/// partition — and the per-solve hot path does no ownership math at all.
pub(crate) struct ServeState<T> {
    /// `(order key, record)`, sorted by key — the global elimination
    /// order restricted to this rank, which is what makes the resident
    /// sweeps bit-identical to the gathered serial sweep.
    records: Vec<(u64, BoxElimination<T>)>,
    /// Record index range of each `(level, phase)` round — contiguous
    /// because `records` is key-sorted.
    rounds: HashMap<(u8, u8), std::ops::Range<usize>>,
    /// Aligned with `records`: where each record's neighbor delta must be
    /// shipped (empty for records whose 1-ring stays on-rank).
    routing: Vec<DeltaRoute>,
    /// Per round: the sorted, deduplicated remote ids to refresh from
    /// each owner before the downward applications.
    need: HashMap<(u8, u8), IdsByRank>,
    /// Rank 0 only: the top-solve reply partition — which `top_idx`
    /// entries each active rank owns.
    top_reply: IdsByRank,
    /// Post-elimination active sets of owned boxes per level.
    act_end: HashMap<u8, Vec<(BoxId, Vec<u32>)>>,
    /// Ids received from each retiring fold member at each fold level.
    fold_ids: HashMap<(u8, usize), Vec<u32>>,
    /// The dense top factorization (rank 0 only).
    top: TopFactor<T>,
    leaf: u8,
    lmin: u8,
    top_level: u8,
    /// This rank's slab rows, in the canonical row-major leaf-box order.
    owned_leaf_ids: Vec<u32>,
    /// This rank's factorization stats (rank tables merged at build).
    stats: FactorStats,
    /// Resident footprint: records plus (rank 0) the top factorization.
    bytes: u64,
}

impl<T: Scalar> ServeState<T> {
    #[allow(clippy::too_many_arguments)]
    fn from_rank_state(
        state: RankState<T>,
        top: TopFactor<T>,
        tree: &QuadTree,
        pts: &[Point],
        grid: &ProcessGrid,
        leaf: u8,
        lmin: u8,
        me: usize,
    ) -> Self {
        let bytes = resident_bytes(&state, &top);
        let RankState {
            mut records,
            act_end,
            fold_ids,
            stats,
            ..
        } = state;
        records.sort_by_key(|(k, _)| *k);

        // Round ranges: key-sorted records make (level, phase) runs
        // contiguous.
        let mut rounds: HashMap<(u8, u8), std::ops::Range<usize>> = HashMap::new();
        let mut i = 0;
        while i < records.len() {
            let lp = key_level_phase(leaf, records[i].0);
            let start = i;
            while i < records.len() && key_level_phase(leaf, records[i].0) == lp {
                i += 1;
            }
            rounds.insert(lp, start..i);
        }

        // Upward delta routing: per record, the remote rows of its
        // neighbor delta grouped by owner, ids kept in nbr order (the
        // order the receiver applies — part of the bit-exactness
        // contract).
        let routing: Vec<DeltaRoute> = records
            .iter()
            .map(|(key, rec)| {
                let (level, _) = key_level_phase(leaf, *key);
                let mut route: DeltaRoute = Vec::new();
                for (j, &id) in rec.nbr.iter().enumerate() {
                    let owner = owner_of_point(grid, tree, pts, id, level);
                    if owner == me {
                        continue;
                    }
                    match route.iter_mut().find(|(d, _, _)| *d == owner) {
                        Some((_, ids, pos)) => {
                            ids.push(id);
                            pos.push(j as u32);
                        }
                        None => route.push((owner, vec![id], vec![j as u32])),
                    }
                }
                route
            })
            .collect();

        // Downward refresh lists: the union of each round's remote reads,
        // sorted and deduplicated per owner.
        let mut need: HashMap<(u8, u8), IdsByRank> = HashMap::new();
        for (&lp, range) in &rounds {
            let mut per_dst: IdsByRank = Vec::new();
            for route in &routing[range.clone()] {
                for (dst, ids, _) in route {
                    match per_dst.iter_mut().find(|(d, _)| d == dst) {
                        Some((_, acc)) => acc.extend_from_slice(ids),
                        None => per_dst.push((*dst, ids.clone())),
                    }
                }
            }
            for (_, ids) in &mut per_dst {
                ids.sort_unstable();
                ids.dedup();
            }
            need.insert(lp, per_dst);
        }

        // Rank 0's top reply partition.
        let top_level = lmin.min(leaf);
        let top_reply = match &top {
            Some((top_idx, _)) => grid
                .active_ranks(top_level)
                .into_iter()
                .filter(|&r| r != 0)
                .map(|dst| {
                    let ids: Vec<u32> = top_idx
                        .iter()
                        .copied()
                        .filter(|&id| owner_of_point(grid, tree, pts, id, top_level) == dst)
                        .collect();
                    (dst, ids)
                })
                .collect(),
            None => Vec::new(),
        };

        Self {
            records,
            rounds,
            routing,
            need,
            top_reply,
            act_end,
            fold_ids,
            top,
            leaf,
            lmin,
            top_level,
            owned_leaf_ids: owned_leaf_ids(tree, grid, me),
            stats,
            bytes,
        }
    }

    /// Record index range of one `(level, phase)` round.
    fn round_range(&self, level: u8, phase: u8) -> std::ops::Range<usize> {
        self.rounds.get(&(level, phase)).cloned().unwrap_or(0..0)
    }

    /// Ids of the entries this rank owned at `level` after elimination.
    fn owned_act_ids(&self, level: u8) -> Vec<u32> {
        self.act_end
            .get(&level)
            .map(|v| v.iter().flat_map(|(_, ids)| ids.iter().copied()).collect())
            .unwrap_or_default()
    }
}

/// Per-record neighbor-delta batches bound for one rank: `(row ids,
/// matching rows of the `EN B_R` product)`.
type DeltaBatch<'a, T> = Vec<(&'a [u32], Mat<T>)>;

/// The SPMD resident solve: every rank (rank 0 included) runs this over
/// its slab-initialized full-height working block `x` (`n x nrhs`; only
/// owned and protocol-refreshed rows are ever read — stale remote copies
/// are write-only). On return, rank 0's `x` holds the full solution;
/// worker copies are discarded by the caller.
///
/// Note on working memory: residency keeps the *factor* (record) memory
/// at O(N/p) per rank — the paper's bound, and what this mode exists
/// for — but the per-solve working block is allocated full-height for
/// global row addressing, O(N·nrhs) scratch per rank per solve (freed at
/// solve end; the same shape the gathered rank-0 sweep uses). Shrinking
/// it to owned+halo height needs a rank-local row remap of every record
/// index — a follow-up, not a correctness issue.
///
/// `rank0_owned` is rank 0's cached per-rank slab row map (None on
/// workers).
///
/// Fallible by design: every receive and barrier is the bounded-timeout
/// variant, so a rank that dies (or a link that goes down) mid-solve
/// surfaces here as a typed [`RecvError`] within the receive timeout —
/// the caller (rank 0's service, a worker's serve loop) abandons the
/// solve instead of hanging or panicking.
fn solve_resident_mat<T: Scalar>(
    ctx: &mut RankCtx,
    geo: &ResidentGeo,
    st: &ServeState<T>,
    x: &mut Mat<T>,
    rank0_owned: Option<&[Vec<u32>]>,
) -> Result<(), RecvError> {
    let me = ctx.rank();
    let grid = &geo.grid;
    let levels: Vec<u8> = (st.lmin..=st.leaf).rev().collect();

    // ---- Upward pass -----------------------------------------------------
    for &level in &levels {
        let _sp = srsf_trace::span!(srsf_trace::Cat::Solve, "solve upward level {level}");
        if grid.is_active(me, level) {
            let neighbors = grid.neighbor_ranks(me, level);
            for phase in 0..=4u8 {
                let mut outgoing: HashMap<usize, DeltaBatch<'_, T>> =
                    neighbors.iter().map(|&r| (r, Vec::new())).collect();
                for i in st.round_range(level, phase) {
                    let rec = &st.records[i].1;
                    let (br, bs, dn) = upward_parts(rec, x);
                    // Remote rows of the neighbor delta: the exact rows of
                    // the `EN B_R` product the serial merge subtracts,
                    // routed by the precomputed ownership tables.
                    for (dst, ids, pos) in &st.routing[i] {
                        let rows = dn.gather_rows(pos);
                        outgoing
                            .get_mut(dst)
                            // INVARIANT: outgoing was pre-seeded with every
                            // neighbouring rank before the delta pass
                            .expect("delta for a non-adjacent rank")
                            .push((ids, rows));
                    }
                    merge_upward(rec, x, br, bs, dn);
                }
                for &dst in &neighbors {
                    let entries = outgoing.remove(&dst).unwrap_or_default();
                    let mut w = ByteWriter::new();
                    w.put_u64(entries.len() as u64);
                    for (ids, rows) in &entries {
                        put_ids(&mut w, ids);
                        w.put_mat(rows);
                    }
                    ctx.send(dst, tag(level, phase, KIND_SOLVE_UP), w.finish());
                }
                for &src in &neighbors {
                    let payload = ctx.try_recv(src, tag(level, phase, KIND_SOLVE_UP))?;
                    let mut r = ByteReader::new(payload);
                    // INVARIANT: this frame was encoded by a peer rank under the matching tag
                    // and the transport delivers whole messages, so decode cannot truncate
                    let n = r.get_u64();
                    for _ in 0..n {
                        let ids = get_ids(&mut r);
                        // INVARIANT: this frame was encoded by a peer rank under the matching tag
                        // and the transport delivers whole messages, so decode cannot truncate
                        let rows: Mat<T> = r.get_mat();
                        x.scatter_rows_sub(&ids, &rows);
                    }
                }
            }
        }
        ctx.try_barrier()?;
        // Fold value shipment when the next level retires this rank.
        if level > st.lmin {
            fold_up_mat(ctx, grid, st, level, x)?;
        }
    }

    // ---- Top solve on rank 0 ---------------------------------------------
    let top_sp = srsf_trace::span!(srsf_trace::Cat::Solve, "solve top level {}", st.top_level);
    let active_top = grid.active_ranks(st.top_level);
    if me == 0 {
        for &src in active_top.iter().filter(|&&r| r != 0) {
            let payload = ctx.try_recv(src, tag(st.top_level, 6, KIND_SOLVE_VAL))?;
            let mut r = ByteReader::new(payload);
            let ids = get_ids(&mut r);
            // INVARIANT: this frame was encoded by a peer rank under the matching tag
            // and the transport delivers whole messages, so decode cannot truncate
            let rows: Mat<T> = r.get_mat();
            x.scatter_rows(&ids, &rows);
        }
        // INVARIANT: rank 0 runs the top-level merge, so its record always exists
        let (top_idx, top_lu) = st.top.as_ref().expect("rank 0 holds the top");
        let mut vals = x.gather_rows(top_idx);
        top_lu.solve_mat(&mut vals);
        x.scatter_rows(top_idx, &vals);
        for (dst, ids) in &st.top_reply {
            let mut w = ByteWriter::new();
            put_ids(&mut w, ids);
            w.put_mat(&x.gather_rows(ids));
            ctx.send(*dst, tag(st.top_level, 7, KIND_SOLVE_VAL), w.finish());
        }
    } else if active_top.contains(&me) {
        let ids = st.owned_act_ids(st.top_level);
        let mut w = ByteWriter::new();
        put_ids(&mut w, &ids);
        w.put_mat(&x.gather_rows(&ids));
        ctx.send(0, tag(st.top_level, 6, KIND_SOLVE_VAL), w.finish());
        let payload = ctx.try_recv(0, tag(st.top_level, 7, KIND_SOLVE_VAL))?;
        let mut r = ByteReader::new(payload);
        let ids = get_ids(&mut r);
        // INVARIANT: this frame was encoded by a peer rank under the matching tag
        // and the transport delivers whole messages, so decode cannot truncate
        let rows: Mat<T> = r.get_mat();
        x.scatter_rows(&ids, &rows);
    }
    ctx.try_barrier()?;
    drop(top_sp);

    // ---- Downward pass ----------------------------------------------------
    for &level in levels.iter().rev() {
        let _sp = srsf_trace::span!(srsf_trace::Cat::Solve, "solve downward level {level}");
        if level > st.lmin {
            fold_down_mat(ctx, grid, st, level, x)?;
        }
        if grid.is_active(me, level) {
            let neighbors = grid.neighbor_ranks(me, level);
            for phase in (0..=4u8).rev() {
                // Refresh the remote values my phase records read (from
                // the precomputed per-round lists); within a round their
                // owners are write-quiescent, so the values are the
                // serial-sweep values.
                let empty: IdsByRank = Vec::new();
                let need = st.need.get(&(level, phase)).unwrap_or(&empty);
                for &dst in &neighbors {
                    let ids = need
                        .iter()
                        .find(|(d, _)| *d == dst)
                        .map(|(_, ids)| ids.as_slice())
                        .unwrap_or(&[]);
                    let mut w = ByteWriter::new();
                    put_ids(&mut w, ids);
                    ctx.send(dst, tag(level, phase, KIND_SOLVE_REQ), w.finish());
                }
                for &src in &neighbors {
                    let payload = ctx.try_recv(src, tag(level, phase, KIND_SOLVE_REQ))?;
                    let ids = get_ids(&mut ByteReader::new(payload));
                    let mut w = ByteWriter::new();
                    put_ids(&mut w, &ids);
                    w.put_mat(&x.gather_rows(&ids));
                    ctx.send(src, tag(level, phase, KIND_SOLVE_VAL), w.finish());
                }
                for &src in &neighbors {
                    let payload = ctx.try_recv(src, tag(level, phase, KIND_SOLVE_VAL))?;
                    let mut r = ByteReader::new(payload);
                    let ids = get_ids(&mut r);
                    // INVARIANT: this frame was encoded by a peer rank under the matching tag
                    // and the transport delivers whole messages, so decode cannot truncate
                    let rows: Mat<T> = r.get_mat();
                    x.scatter_rows(&ids, &rows);
                }
                // Apply my records of this round in reverse global order.
                for i in st.round_range(level, phase).rev() {
                    let rec = &st.records[i].1;
                    let (br, bs) = downward_parts(rec, x);
                    x.scatter_rows(&rec.redundant, &br);
                    x.scatter_rows(&rec.skel, &bs);
                }
            }
        }
        ctx.try_barrier()?;
    }

    // ---- Solution slab gather on rank 0 (service envelope) ----------------
    let _sp = srsf_trace::span!(srsf_trace::Cat::Solve, "solve slab gather");
    if me == 0 {
        // INVARIANT: the driver passes rank 0 its slab row map on entry
        let owned = rank0_owned.expect("rank 0 passes its slab row map");
        for src in 1..grid.p() {
            let payload = ctx.try_recv(src, TAG_SERVE_SOL)?;
            // INVARIANT: this frame was encoded by a peer rank under the matching tag
            // and the transport delivers whole messages, so decode cannot truncate
            let rows: Mat<T> = ByteReader::new(payload).get_mat();
            x.scatter_rows(&owned[src], &rows);
        }
    } else {
        let mut w = ByteWriter::new();
        w.put_mat(&x.gather_rows(&st.owned_leaf_ids));
        ctx.send_service(0, TAG_SERVE_SOL, w.finish());
    }
    Ok(())
}

/// Upward fold: retiring ranks ship their surviving rows to the corner.
fn fold_up_mat<T: Scalar>(
    ctx: &mut RankCtx,
    grid: &ProcessGrid,
    st: &ServeState<T>,
    child_level: u8,
    x: &mut Mat<T>,
) -> Result<(), RecvError> {
    let me = ctx.rank();
    let parent_level = child_level - 1;
    if grid.effective_q(parent_level) >= grid.effective_q(child_level)
        || !grid.is_active(me, child_level)
    {
        return Ok(());
    }
    let (x0, y0, _, _) = region_of(grid, me, child_level);
    let corner = grid.owner(&BoxId {
        level: parent_level,
        ix: (x0 / 2) as u32,
        iy: (y0 / 2) as u32,
    });
    if corner != me {
        let ids = st.owned_act_ids(child_level);
        let mut w = ByteWriter::new();
        put_ids(&mut w, &ids);
        w.put_mat(&x.gather_rows(&ids));
        ctx.send(corner, tag(child_level, 5, KIND_SOLVE_VAL), w.finish());
    } else {
        let stride = grid.q() / grid.effective_q(child_level);
        let (cx, cy) = grid.coords_of(me);
        for (dx, dy) in [(1u32, 0u32), (0, 1), (1, 1)] {
            let member = grid.rank_of(cx + dx * stride, cy + dy * stride);
            let payload = ctx.try_recv(member, tag(child_level, 5, KIND_SOLVE_VAL))?;
            let mut r = ByteReader::new(payload);
            let ids = get_ids(&mut r);
            // INVARIANT: this frame was encoded by a peer rank under the matching tag
            // and the transport delivers whole messages, so decode cannot truncate
            let rows: Mat<T> = r.get_mat();
            x.scatter_rows(&ids, &rows);
        }
    }
    Ok(())
}

/// Downward un-fold: corners return the surviving rows to the members
/// they absorbed.
fn fold_down_mat<T: Scalar>(
    ctx: &mut RankCtx,
    grid: &ProcessGrid,
    st: &ServeState<T>,
    child_level: u8,
    x: &mut Mat<T>,
) -> Result<(), RecvError> {
    let me = ctx.rank();
    let parent_level = child_level - 1;
    if grid.effective_q(parent_level) >= grid.effective_q(child_level)
        || !grid.is_active(me, child_level)
    {
        return Ok(());
    }
    let (x0, y0, _, _) = region_of(grid, me, child_level);
    let corner = grid.owner(&BoxId {
        level: parent_level,
        ix: (x0 / 2) as u32,
        iy: (y0 / 2) as u32,
    });
    if corner != me {
        let payload = ctx.try_recv(corner, tag(child_level, 6, KIND_SOLVE_VAL))?;
        let mut r = ByteReader::new(payload);
        let ids = get_ids(&mut r);
        debug_assert_eq!(ids, st.owned_act_ids(child_level));
        // INVARIANT: this frame was encoded by a peer rank under the matching tag
        // and the transport delivers whole messages, so decode cannot truncate
        let rows: Mat<T> = r.get_mat();
        x.scatter_rows(&ids, &rows);
    } else {
        let stride = grid.q() / grid.effective_q(child_level);
        let (cx, cy) = grid.coords_of(me);
        for (dx, dy) in [(1u32, 0u32), (0, 1), (1, 1)] {
            let member = grid.rank_of(cx + dx * stride, cy + dy * stride);
            let ids = st
                .fold_ids
                .get(&(child_level, member))
                .cloned()
                .unwrap_or_default();
            let mut w = ByteWriter::new();
            put_ids(&mut w, &ids);
            w.put_mat(&x.gather_rows(&ids));
            ctx.send(member, tag(child_level, 6, KIND_SOLVE_VAL), w.finish());
        }
    }
    Ok(())
}

/// The worker-rank serve loop: report the factorization outcome, then
/// answer solve / probe commands until a shutdown command — or until the
/// session is torn down around us (rank 0's handle dropped), which the
/// idle wait reports as `None` and we treat as an implicit shutdown.
fn serve_rank<T: Scalar>(
    ctx: &mut RankCtx,
    geo: &ResidentGeo,
    outcome: Result<ServeState<T>, FactorError>,
    factor_comm: CommStats,
) {
    let me = ctx.rank();
    debug_assert_ne!(me, 0, "rank 0 is the service side, not a serve loop");
    let mut w = ByteWriter::new();
    match &outcome {
        Ok(st) => {
            w.put_u64(1);
            w.put_u64(st.records.len() as u64);
            w.put_u64(st.bytes);
            st.stats.encode(&mut w);
            factor_comm.encode(&mut w);
        }
        Err(e) => {
            w.put_u64(0);
            e.encode(&mut w);
        }
    }
    ctx.send_service(0, TAG_SERVE_READY, w.finish());
    let Ok(st) = outcome else {
        return;
    };
    serve_loop(ctx, geo, &st);
}

/// The shared worker command loop, entered once a rank's serve state
/// exists (freshly factorized or restored from a snapshot). A
/// [`RecvError`] during a solve — a peer died or a link went down — makes
/// the worker log the typed failure and leave the loop (graceful
/// degradation): the rank exits cleanly, rank 0 observes the same
/// failure on its side of the protocol, and nothing hangs.
fn serve_loop<T: Scalar>(ctx: &mut RankCtx, geo: &ResidentGeo, st: &ServeState<T>) {
    let me = ctx.rank();
    while let Some(cmd) = ctx.recv_service_idle(0, TAG_SERVE_CMD) {
        let mut r = ByteReader::new(cmd);
        // INVARIANT: this frame was encoded by a peer rank under the matching tag
        // and the transport delivers whole messages, so decode cannot truncate
        match r.get_u64() {
            CMD_SHUTDOWN => break,
            CMD_SOLVE => {
                // INVARIANT: this frame was encoded by a peer rank under the matching tag
                // and the transport delivers whole messages, so decode cannot truncate
                let nrhs = r.get_u64() as usize;
                let slab: Mat<T> = match ctx.try_recv(0, TAG_SERVE_RHS) {
                    // INVARIANT: this frame was encoded by a peer rank under the
                    // matching tag and arrives whole, so decode cannot truncate
                    Ok(payload) => ByteReader::new(payload).get_mat(),
                    Err(e) => {
                        eprintln!("srsf-core: rank {me} abandoning resident serve: {e}");
                        return;
                    }
                };
                assert_eq!(slab.ncols(), nrhs, "rank {me}: RHS slab shape mismatch");
                let mut x = Mat::zeros(geo.n, nrhs);
                x.scatter_rows(&st.owned_leaf_ids, &slab);
                if let Err(e) = solve_resident_mat(ctx, geo, st, &mut x, None) {
                    eprintln!("srsf-core: rank {me} abandoning resident serve: {e}");
                    return;
                }
            }
            CMD_PROBE => {
                let mut w = ByteWriter::new();
                ctx.stats().encode(&mut w);
                ctx.send_service(0, TAG_SERVE_STATS, w.finish());
            }
            CMD_TRACE => {
                let mut w = ByteWriter::new();
                srsf_trace::take_report(me).encode(&mut w);
                ctx.send_service(0, TAG_SERVE_TRACE, w.finish());
            }
            // INVARIANT: deliberate — an unknown opcode means a protocol-version
            // mismatch between driver and rank; dying loudly beats misinterpreting
            op => panic!("rank {me}: unknown serve opcode {op}"),
        }
    }
}

/// Map a transport-level receive failure to the public typed error: the
/// peer we were waiting on is the failed rank; the tag names the
/// protocol step it died in.
fn recv_to_srsf(e: &RecvError) -> SrsfError {
    match e {
        RecvError::Timeout { src, tag, .. } | RecvError::Disconnected { src, tag, .. } => {
            SrsfError::RankFailed {
                rank: *src,
                step: tags::describe(*tag),
            }
        }
        RecvError::PeerPanicked { src, message, .. } => SrsfError::RankFailed {
            rank: *src,
            step: format!("peer panic: {message}"),
        },
    }
}

struct ServiceInner<T> {
    /// `None` once the session has been shut down.
    handle: Option<WorldHandle>,
    st: ServeState<T>,
    geo: Arc<ResidentGeo>,
    /// Per-rank slab row maps, cached for the scatter/gather envelope.
    owned: Vec<Vec<u32>>,
    /// Set when a solve observed a rank failure: the world is
    /// desynchronized, so every later call fails fast with the same
    /// error instead of timing out again. Shutdown/Drop still work.
    poisoned: Option<SrsfError>,
}

/// A live resident solve service: the distributed factorization left in
/// place on its rank world, served through rank 0. Owned by
/// [`crate::Solver`] when the builder's residency mode is on.
pub struct ResidentService<T> {
    inner: Mutex<ServiceInner<T>>,
    n: usize,
    p: usize,
    top_size: usize,
    stats: FactorStats,
    comm: WorldStats,
    per_rank_records: Vec<usize>,
    per_rank_bytes: Vec<usize>,
    /// The session's serve-metrics registry, shared with its
    /// [`WorldHandle`] — kept here so snapshots outlive shutdown.
    metrics: Arc<MetricsRegistry>,
}

impl<T: Scalar> ResidentService<T> {
    /// Problem size `N`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Size of the dense top block (resident on rank 0).
    pub fn top_size(&self) -> usize {
        self.top_size
    }

    /// Merged factorization statistics (global rank table; rank-0
    /// timings).
    pub fn stats(&self) -> &FactorStats {
        &self.stats
    }

    /// Per-rank communication counters of the factorization phase.
    pub fn comm(&self) -> &WorldStats {
        &self.comm
    }

    /// Elimination records resident on each rank. Rank 0's entry stays at
    /// its own share — the global record set is never assembled.
    pub fn records_per_rank(&self) -> &[usize] {
        &self.per_rank_records
    }

    /// Resident factor bytes held by each rank (records; plus the top
    /// factorization on rank 0).
    pub fn bytes_per_rank(&self) -> &[usize] {
        &self.per_rank_bytes
    }

    /// Snapshot the serve metrics: per-solve latency histogram,
    /// served/failed counters, per-rank resident-memory gauges. Works
    /// after shutdown too (the registry outlives the session).
    pub fn metrics(&self) -> srsf_runtime::MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Drain every rank's span buffers (`srsf-trace` ring buffers) into
    /// per-rank reports, rank order. Broadcasts the trace command to the
    /// workers and collects their `TAG_SERVE_TRACE` replies — uncounted
    /// service frames, so the probe never perturbs the §IV counters.
    /// Returns only rank 0's report when the service is poisoned or
    /// already shut down (the workers may be gone).
    pub fn trace_reports(&self) -> Vec<TraceReport> {
        // INVARIANT: lock poisoning requires a panicked driver call, which
        // already surfaced to the caller
        let inner = &mut *self.inner.lock().expect("resident service poisoned");
        let mut reports = vec![srsf_trace::take_report(0)];
        if inner.poisoned.is_some() {
            return reports;
        }
        let Some(handle) = inner.handle.as_mut() else {
            return reports;
        };
        for dst in 1..self.p {
            let mut w = ByteWriter::new();
            w.put_u64(CMD_TRACE);
            handle.ctx().send_service(dst, TAG_SERVE_CMD, w.finish());
        }
        for src in 1..self.p {
            let payload = handle.ctx().recv(src, TAG_SERVE_TRACE);
            reports.push(
                TraceReport::decode(&mut ByteReader::new(payload))
                    // INVARIANT: trace frames come from our own encoder over a
                    // reliable transport; a malformed one is a peer bug worth
                    // dying loudly on
                    .unwrap_or_else(|e| panic!("rank {src} trace frame: {e}")),
            );
        }
        reports
    }

    /// Solve `A X = B` on the resident world: scatter B's rows by leaf
    /// ownership, run the distributed blocked solve in place, gather the
    /// solution rows. Bit-identical to the gathered factorization's
    /// [`crate::Factorization::solve_mat`].
    ///
    /// A rank that dies (or a link that goes down) mid-solve surfaces as
    /// [`SrsfError::RankFailed`] within the receive timeout — no hang,
    /// no abort — and the service is poisoned: the world is
    /// desynchronized, so every later solve returns the same error
    /// immediately. Shutdown and Drop still reap the surviving workers.
    pub fn try_solve_mat(&self, b: &Mat<T>) -> Result<Mat<T>, SrsfError> {
        assert_eq!(b.nrows(), self.n, "right-hand side row count mismatch");
        // INVARIANT: lock poisoning requires a panicked driver call, which
        // already surfaced to the caller
        let inner = &mut *self.inner.lock().expect("resident service poisoned");
        if let Some(e) = &inner.poisoned {
            return Err(e.clone());
        }
        let handle = inner
            .handle
            .as_mut()
            // INVARIANT: documented — solve after shutdown() is a caller bug
            .expect("resident service already shut down");
        // Per-solve latency covers the whole round trip rank 0 sees: the
        // RHS scatter envelope, the SPMD sweep, the solution gather.
        let t_solve = std::time::Instant::now();
        let nrhs = b.ncols() as u64;
        for dst in 1..self.p {
            let mut w = ByteWriter::new();
            w.put_u64(CMD_SOLVE);
            w.put_u64(nrhs);
            handle.ctx().send_service(dst, TAG_SERVE_CMD, w.finish());
            let mut w = ByteWriter::new();
            w.put_mat(&b.gather_rows(&inner.owned[dst]));
            handle.ctx().send_service(dst, TAG_SERVE_RHS, w.finish());
        }
        let mut x = b.clone();
        if let Err(e) = solve_resident_mat(
            handle.ctx(),
            &inner.geo,
            &inner.st,
            &mut x,
            Some(&inner.owned),
        ) {
            let err = recv_to_srsf(&e);
            inner.poisoned = Some(err.clone());
            self.metrics
                .observe_solve(t_solve.elapsed().as_nanos() as u64, false);
            return Err(err);
        }
        self.metrics
            .observe_solve(t_solve.elapsed().as_nanos() as u64, true);
        Ok(x)
    }

    /// Solve `A x = b` (single right-hand side) on the resident world:
    /// the one-column case of [`ResidentService::try_solve_mat`].
    pub fn try_solve(&self, b: &[T]) -> Result<Vec<T>, SrsfError> {
        let m = Mat::from_vec(b.len(), 1, b.to_vec());
        Ok(self.try_solve_mat(&m)?.as_slice().to_vec())
    }

    /// Snapshot every rank's cumulative communication counters (the
    /// probe itself moves as uncounted service frames). Two snapshots
    /// bracketing `k` solves yield exact per-solve counters:
    /// `comm_counts --solve-reps` uses this to measure the §IV solve
    /// bound.
    pub fn comm_probe(&self) -> WorldStats {
        // INVARIANT: poisoning requires a panicked driver call, which already
        // surfaced to the caller
        let inner = &mut *self.inner.lock().expect("resident service poisoned");
        let handle = inner
            .handle
            .as_mut()
            // INVARIANT: documented — probing after shutdown() is a caller bug
            .expect("resident service already shut down");
        for dst in 1..self.p {
            let mut w = ByteWriter::new();
            w.put_u64(CMD_PROBE);
            handle.ctx().send_service(dst, TAG_SERVE_CMD, w.finish());
        }
        let mut per_rank = vec![CommStats::default(); self.p];
        per_rank[0] = handle.ctx().stats();
        for src in 1..self.p {
            let payload = handle.ctx().recv(src, TAG_SERVE_STATS);
            per_rank[src] = CommStats::decode(&mut ByteReader::new(payload))
                // INVARIANT: stats frames come from our own encoder over a reliable
                // transport; a malformed one is a peer bug worth dying loudly on
                .unwrap_or_else(|e| panic!("rank {src} stats frame: {e}"));
        }
        WorldStats { per_rank }
    }

    /// Broadcast the shutdown command and join the workers; returns the
    /// session's final per-rank counters. Idempotent: `None` if the
    /// service was already shut down.
    pub fn shutdown(&self) -> Option<WorldStats> {
        // INVARIANT: poisoning requires a panicked driver call, which already
        // surfaced to the caller
        let mut inner = self.inner.lock().expect("resident service poisoned");
        Self::shutdown_locked(&mut inner)
    }

    fn shutdown_locked(inner: &mut ServiceInner<T>) -> Option<WorldStats> {
        shutdown_inner(inner)
    }
}

/// Shut a service's session down, taking its handle. When the service is
/// poisoned the cooperative round would panic — a crashed worker's join
/// re-raises its panic payload out of [`WorldHandle::finish`] — and the
/// failure already surfaced to the caller as the typed error, so the
/// degraded world goes through the quiet [`WorldHandle::reap`] path
/// instead: broadcast the shutdown to whoever still listens, swallow the
/// dead rank, report best-effort counters. Shutdown and Drop of a
/// degraded world stay clean — no second panic.
fn shutdown_inner<T>(inner: &mut ServiceInner<T>) -> Option<WorldStats> {
    let mut handle = inner.handle.take()?;
    if inner.poisoned.is_some() {
        for dst in 1..handle.size() {
            if handle.worker_live(dst) {
                let mut w = ByteWriter::new();
                w.put_u64(CMD_SHUTDOWN);
                handle.ctx().send_service(dst, TAG_SERVE_CMD, w.finish());
            }
        }
        return Some(handle.reap());
    }
    Some(shutdown_session(handle))
}

/// The tag-based shutdown round: broadcast the shutdown command to every
/// still-live worker, then join them through the handle. Scalar-
/// independent — shared by the service's explicit shutdown, its Drop,
/// and the build-failure path.
fn shutdown_session(mut handle: WorldHandle) -> WorldStats {
    for dst in 1..handle.size() {
        if handle.worker_live(dst) {
            let mut w = ByteWriter::new();
            w.put_u64(CMD_SHUTDOWN);
            handle.ctx().send_service(dst, TAG_SERVE_CMD, w.finish());
        }
    }
    handle.finish()
}

impl<T> Drop for ResidentService<T> {
    fn drop(&mut self) {
        // During an unwind the workers may be desynchronized mid-protocol;
        // skip the cooperative round — the handle's own drop tears the
        // session down (flag/EOF) without blocking.
        if std::thread::panicking() {
            return;
        }
        if let Ok(inner) = self.inner.get_mut() {
            let _ = shutdown_inner(inner);
        }
    }
}

/// Build the resident service: run the distributed factorization on a
/// persistent rank world, leave every rank's records in place, and hand
/// back the live service. On any rank's factorization error the live
/// ranks are shut down first and the first error is returned; a rank
/// that dies before reporting surfaces as
/// [`SrsfError::RankFailed`] — the survivors are still shut down.
pub(crate) fn dist_factorize_resident<K: Kernel>(
    kernel: &K,
    pts: &[Point],
    tree: &QuadTree,
    grid: &ProcessGrid,
    opts: &FactorOpts,
) -> Result<ResidentService<K::Elem>, SrsfError> {
    let leaf = tree.leaf_level();
    let lmin = (opts.min_compress_level as u8).min(leaf);
    let p = grid.p();
    let geo = Arc::new(ResidentGeo {
        n: pts.len(),
        grid: *grid,
    });
    let world = World::new(p)
        .transport(opts.transport)
        .with_recv_timeout(opts.recv_timeout);

    type FactorOut<T> = (Result<ServeState<T>, FactorError>, CommStats);
    let factor = |ctx: &mut RankCtx| -> FactorOut<K::Elem> {
        // Every rank stores the flag (on the TCP backend each rank is its
        // own process); storing `false` keeps untraced runs self-cleaning.
        srsf_trace::set_enabled(opts.trace);
        let me = ctx.rank();
        let out =
            factor_phase(ctx, kernel, pts, tree, grid, opts, leaf, lmin).map(|(state, top)| {
                ServeState::from_rank_state(state, top, tree, pts, grid, leaf, lmin, me)
            });
        (out, ctx.stats())
    };
    let serve_geo = geo.clone();
    let serve = move |ctx: &mut RankCtx, s: FactorOut<K::Elem>| {
        serve_rank(ctx, &serve_geo, s.0, s.1);
    };
    let ((my_out, my_comm), mut handle) = world.run_resident(factor, serve);

    // Collect every worker's READY frame: factorization outcome plus its
    // residency numbers (record count, bytes, rank table, counters).
    let mut per_rank_records = vec![0usize; p];
    let mut per_rank_bytes = vec![0usize; p];
    let mut comm = WorldStats {
        per_rank: vec![CommStats::default(); p],
    };
    comm.per_rank[0] = my_comm;
    let mut worker_stats: Vec<FactorStats> = Vec::with_capacity(p - 1);
    let mut first_err: Option<SrsfError> = None;
    for src in 1..p {
        // A worker that dies before reporting (crash, cut link) must not
        // hang the build: the bounded receive converts it to a typed
        // failure and the survivors still get their shutdown round.
        let payload = match handle.ctx().try_recv(src, TAG_SERVE_READY) {
            Ok(payload) => payload,
            Err(e) => {
                let _ = shutdown_session(handle);
                return Err(recv_to_srsf(&e));
            }
        };
        let mut r = ByteReader::new(payload);
        // INVARIANT: this frame was encoded by a peer rank under the matching tag
        // and the transport delivers whole messages, so decode cannot truncate
        if r.get_u64() == 1 {
            // INVARIANT: this frame was encoded by a peer rank under the matching tag
            // and the transport delivers whole messages, so decode cannot truncate
            per_rank_records[src] = r.get_u64() as usize;
            // INVARIANT: this frame was encoded by a peer rank under the matching tag
            // and the transport delivers whole messages, so decode cannot truncate
            per_rank_bytes[src] = r.get_u64() as usize;
            let fstats = FactorStats::decode(&mut r)
                // INVARIANT: ready frames come from our own encoder; a malformed one
                // is a peer bug worth dying loudly on
                .unwrap_or_else(|e| panic!("rank {src} ready frame: {e}"));
            comm.per_rank[src] =
            // INVARIANT: same trusted ready-frame argument as above
                CommStats::decode(&mut r).unwrap_or_else(|e| panic!("rank {src} ready frame: {e}"));
            worker_stats.push(fstats);
        } else {
            let e = FactorError::decode(&mut r)
                // INVARIANT: same trusted ready-frame argument as above
                .unwrap_or_else(|e| panic!("rank {src} ready frame: {e}"));
            first_err.get_or_insert(e.into());
        }
    }

    let st = match (my_out, first_err) {
        (Ok(st), None) => st,
        (my, err) => {
            // Shut down the ranks that did reach their serve loops, then
            // report the failure.
            let _ = shutdown_session(handle);
            // INVARIANT: this branch is only reached when some rank reported a
            // failure, so at least one error exists
            return Err(err.unwrap_or_else(|| my.err().expect("some rank failed").into()));
        }
    };

    per_rank_records[0] = st.records.len();
    per_rank_bytes[0] = st.bytes as usize;
    // Merge the global rank table (the gathered path rebuilds the same
    // table from the shipped records); timings stay rank 0's.
    let mut stats = st.stats.clone();
    for ws in &worker_stats {
        for (&level, &(count, sum)) in &ws.ranks {
            let e = stats.ranks.entry(level).or_insert((0, 0));
            e.0 += count;
            e.1 += sum;
        }
        stats.peak_store_bytes = stats.peak_store_bytes.max(ws.peak_store_bytes);
        stats.compression.absorb(&ws.compression);
    }
    stats.top_size = st.top.as_ref().map(|(idx, _)| idx.len()).unwrap_or(0);
    stats.record_bytes = per_rank_bytes.iter().sum();

    let owned: Vec<Vec<u32>> = (0..p).map(|r| owned_leaf_ids(tree, grid, r)).collect();
    let metrics = handle.metrics();
    metrics.set_resident_bytes(&per_rank_bytes);
    Ok(ResidentService {
        n: pts.len(),
        p,
        top_size: stats.top_size,
        stats,
        comm,
        per_rank_records,
        per_rank_bytes,
        metrics,
        inner: Mutex::new(ServiceInner {
            handle: Some(handle),
            st,
            geo,
            owned,
            poisoned: None,
        }),
    })
}

/// A restored worker: report the snapshot-load outcome over
/// `TAG_SERVE_CKPT` (ok flag, record count, resident bytes, stats — or
/// the error string), then enter the shared serve loop.
fn serve_rank_restored<T: Scalar>(
    ctx: &mut RankCtx,
    geo: &ResidentGeo,
    outcome: Result<ServeState<T>, String>,
) {
    let me = ctx.rank();
    debug_assert_ne!(me, 0, "rank 0 is the service side, not a serve loop");
    let mut w = ByteWriter::new();
    match &outcome {
        Ok(st) => {
            w.put_u64(1);
            w.put_u64(st.records.len() as u64);
            w.put_u64(st.bytes);
            st.stats.encode(&mut w);
        }
        Err(msg) => {
            w.put_u64(0);
            msg.encode(&mut w);
        }
    }
    ctx.send_service(0, TAG_SERVE_CKPT, w.finish());
    let Ok(st) = outcome else {
        return;
    };
    serve_loop(ctx, geo, &st);
}

/// Rebuild a resident service from the per-rank snapshots a prior
/// factorization wrote under [`FactorOpts::checkpoint_dir`](crate::FactorOpts):
/// validate the manifest against the caller's point set (scalar type,
/// size, geometry hash), spin up a fresh rank world on `transport`, have
/// every rank load + CRC-check + decode its own `rank_{r}.ckpt`, rebuild
/// the routing from the replicated geometry, and leave the world
/// serving. No kernel evaluations, no re-factorization; restored solves
/// are bit-identical to the original service's.
pub(crate) fn restore_resident_service<T: Scalar>(
    pts: &[Point],
    dir: &Path,
    transport: Transport,
) -> Result<(ResidentService<T>, ProcessGrid), SrsfError> {
    use crate::wire::{
        decode_rank_snapshot, geometry_hash, rank_ckpt_name, read_container, read_manifest,
        scalar_tag,
    };
    let manifest = read_manifest(dir)?;
    let reject = |reason: String| -> SrsfError {
        SrsfError::Checkpoint {
            path: dir.display().to_string(),
            reason,
        }
    };
    if manifest.scalar != scalar_tag::<T>() {
        return Err(reject(format!(
            "scalar type mismatch (snapshot tag {}, caller tag {})",
            manifest.scalar,
            scalar_tag::<T>()
        )));
    }
    if manifest.n != pts.len() {
        return Err(reject(format!(
            "point count mismatch (snapshot {}, caller {})",
            manifest.n,
            pts.len()
        )));
    }
    if manifest.geom_hash != geometry_hash(pts) {
        return Err(reject(
            "geometry hash mismatch: restore needs the exact point set that was factorized"
                .to_string(),
        ));
    }
    let grid = ProcessGrid::try_new(manifest.p)
        .ok_or_else(|| reject(format!("rank count {} is not a power of four", manifest.p)))?;
    let p = grid.p();
    let tree = QuadTree::build(pts, domain_for(pts), manifest.leaf_size);
    let leaf = tree.leaf_level();
    let lmin = (manifest.min_compress_level as u8).min(leaf);
    let geo = Arc::new(ResidentGeo { n: pts.len(), grid });
    let world = World::new(p).transport(transport);

    let factor = |ctx: &mut RankCtx| -> Result<ServeState<T>, String> {
        let me = ctx.rank();
        let path = dir.join(rank_ckpt_name(me));
        let payload = read_container(&path, scalar_tag::<T>()).map_err(|e| e.to_string())?;
        let (state, top) =
            decode_rank_snapshot::<T>(payload).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(ServeState::from_rank_state(
            state, top, &tree, pts, &grid, leaf, lmin, me,
        ))
    };
    let serve_geo = geo.clone();
    let serve = move |ctx: &mut RankCtx, s: Result<ServeState<T>, String>| {
        serve_rank_restored(ctx, &serve_geo, s);
    };
    let (my_out, mut handle) = world.run_resident(factor, serve);

    // Collect every worker's snapshot-load report, exactly as the build
    // path collects READY frames — bounded receives, typed failures.
    let mut per_rank_records = vec![0usize; p];
    let mut per_rank_bytes = vec![0usize; p];
    let mut worker_stats: Vec<FactorStats> = Vec::with_capacity(p - 1);
    let mut first_err: Option<SrsfError> = None;
    for src in 1..p {
        let payload = match handle.ctx().try_recv(src, TAG_SERVE_CKPT) {
            Ok(payload) => payload,
            Err(e) => {
                let _ = shutdown_session(handle);
                return Err(recv_to_srsf(&e));
            }
        };
        let mut r = ByteReader::new(payload);
        // INVARIANT: this frame was encoded by a peer rank under the matching tag
        // and the transport delivers whole messages, so decode cannot truncate
        if r.get_u64() == 1 {
            // INVARIANT: same trusted restore-frame argument as above
            per_rank_records[src] = r.get_u64() as usize;
            // INVARIANT: same trusted restore-frame argument as above
            per_rank_bytes[src] = r.get_u64() as usize;
            let fstats = FactorStats::decode(&mut r)
                // INVARIANT: same trusted restore-frame argument as above
                .unwrap_or_else(|e| panic!("rank {src} restore frame: {e}"));
            worker_stats.push(fstats);
        } else {
            let msg = String::decode(&mut r)
                // INVARIANT: same trusted restore-frame argument as above
                .unwrap_or_else(|e| panic!("rank {src} restore frame: {e}"));
            first_err.get_or_insert(reject(format!("rank {src}: {msg}")));
        }
    }

    let st = match (my_out, first_err) {
        (Ok(st), None) => st,
        (my, err) => {
            let _ = shutdown_session(handle);
            // INVARIANT: this branch is only reached when some rank reported a
            // failure, so at least one error exists
            return Err(
                err.unwrap_or_else(|| reject(my.err().expect("some rank failed to restore")))
            );
        }
    };

    per_rank_records[0] = st.records.len();
    per_rank_bytes[0] = st.bytes as usize;
    // Merge the global rank table, exactly as the build path does.
    let mut stats = st.stats.clone();
    for ws in &worker_stats {
        for (&level, &(count, sum)) in &ws.ranks {
            let e = stats.ranks.entry(level).or_insert((0, 0));
            e.0 += count;
            e.1 += sum;
        }
        stats.peak_store_bytes = stats.peak_store_bytes.max(ws.peak_store_bytes);
        stats.compression.absorb(&ws.compression);
    }
    stats.top_size = st.top.as_ref().map(|(idx, _)| idx.len()).unwrap_or(0);
    stats.record_bytes = per_rank_bytes.iter().sum();

    let owned: Vec<Vec<u32>> = (0..p).map(|r| owned_leaf_ids(&tree, &grid, r)).collect();
    let metrics = handle.metrics();
    metrics.set_resident_bytes(&per_rank_bytes);
    let svc = ResidentService {
        n: pts.len(),
        p,
        top_size: stats.top_size,
        stats,
        // The restored session's counters start at zero: factorization
        // traffic happened in the original session, not this one.
        comm: WorldStats {
            per_rank: vec![CommStats::default(); p],
        },
        per_rank_records,
        per_rank_bytes,
        metrics,
        inner: Mutex::new(ServiceInner {
            handle: Some(handle),
            st,
            geo,
            owned,
            poisoned: None,
        }),
    };
    Ok((svc, grid))
}
