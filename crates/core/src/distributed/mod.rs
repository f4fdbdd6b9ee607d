//! Algorithm 2: the distributed-memory parallel factorization and its two
//! serving modes.
//!
//! Leaf boxes are block-partitioned over a `q x q` process grid (Figure
//! 4) and factored level by level with interior/boundary phases and four
//! process-color rounds — see `factorize` for the phase structure and
//! the communication pattern. What happens *after* the factorization is
//! the mode split:
//!
//! * **Gathered** (the historical default) — every rank ships its
//!   elimination records to rank 0, which assembles a global
//!   [`Factorization`](crate::Factorization) and serves every later
//!   solve locally. Simple, but rank 0 holds O(N) records: the gather is
//!   an API artifact outside Algorithm 2's analysis, and it forfeits the
//!   paper's O(N/p) per-rank memory bound the moment the build returns.
//! * **Resident** (`serve`) — the rank world *stays alive*: records
//!   remain on the ranks that produced them, rank 0 holds only the dense
//!   top factorization plus routing metadata, and repeated
//!   `solve`/`solve_mat` calls run Algorithm 2's upward/downward passes
//!   in place over a request/response command loop
//!   (`srsf_runtime::world::WorldHandle`). This is the paper's serving
//!   deployment: the cheap solve phase — O(sqrt(N/p)) words moved per
//!   rank per solve — amortized over many right-hand sides, with the
//!   per-rank memory bound intact.
//!
//! Select with [`crate::SolverBuilder::resident`]. Both modes run on
//! either runtime backend — ranks as threads
//! ([`Transport::InProc`](srsf_runtime::Transport)) or as real OS
//! processes over TCP sockets
//! ([`Transport::Tcp`](srsf_runtime::Transport)) — and both are
//! backend-agnostic: the same code, solutions, and counters either way.
//!
//! This module holds the pieces the two halves share: the geometry of
//! rank regions, point ownership, the global elimination-order key, and
//! the per-rank factorization state.

mod factorize;
mod serve;

pub(crate) use factorize::{dist_factorize_with_tree, TopFactor};
pub use serve::ResidentService;
pub(crate) use serve::{dist_factorize_resident, restore_resident_service};

use crate::elimination::BoxElimination;
use crate::stats::FactorStats;
use crate::wire::{try_get_box, try_get_ids};
use srsf_geometry::point::Point;
use srsf_geometry::procgrid::ProcessGrid;
use srsf_geometry::tree::{BoxId, QuadTree};
use srsf_runtime::codec::ByteReader;
use std::collections::HashMap;

pub(crate) fn get_box(r: &mut ByteReader) -> BoxId {
    // INVARIANT: deliberate — these frames come from our own encoder over a
    // reliable transport; try_get_box is the path for untrusted bytes
    try_get_box(r).unwrap_or_else(|e| panic!("{e}"))
}

pub(crate) fn get_ids(r: &mut ByteReader) -> Vec<u32> {
    // INVARIANT: deliberate — same trusted-frame argument as get_box above
    try_get_ids(r).unwrap_or_else(|e| panic!("{e}"))
}

/// Inclusive box-coordinate bounds of a rank's block at a level.
pub(crate) fn region_of(grid: &ProcessGrid, rank: usize, level: u8) -> (i64, i64, i64, i64) {
    let qe = grid.effective_q(level);
    let s = 1u32 << level;
    let block = (s / qe) as i64;
    let (ex, ey) = grid.effective_coords(rank, level);
    let x0 = ex as i64 * block;
    let y0 = ey as i64 * block;
    (x0, y0, x0 + block - 1, y0 + block - 1)
}

/// `true` if `b` is within Chebyshev distance `d` of the rank's region.
pub(crate) fn box_near_region(b: &BoxId, region: (i64, i64, i64, i64), d: i64) -> bool {
    let (x0, y0, x1, y1) = region;
    let bx = b.ix as i64;
    let by = b.iy as i64;
    bx >= x0 - d && bx <= x1 + d && by >= y0 - d && by <= y1 + d
}

/// Owner rank of point `ptid` at `level` (via its ancestor box).
pub(crate) fn owner_of_point(
    grid: &ProcessGrid,
    tree: &QuadTree,
    pts: &[Point],
    ptid: u32,
    level: u8,
) -> usize {
    let p = pts[ptid as usize];
    let s = 1u64 << level;
    let dom = tree.domain();
    let inv = s as f64 / dom.side;
    let ix = (((p.x - dom.lo.x) * inv) as u64).min(s - 1) as u32;
    let iy = (((p.y - dom.lo.y) * inv) as u64).min(s - 1) as u32;
    grid.owner(&BoxId { level, ix, iy })
}

/// Global elimination-order key: level sweep, then phase, then the
/// phase's sub-color round, then row-major within the round.
///
/// The sub-color bits mirror the order `run_phase` actually eliminates a
/// rank's phase boxes in (four `BoxColoring::Four` rounds, merged in box
/// order within each round), so sorting records by key reproduces the
/// elimination order bit-exactly — the contract both the gathered
/// factorization and the resident serve state rely on. Cross-rank records
/// sharing a `(level, phase)` always sit at box distance >= 2 (interior
/// boxes of different ranks, or boundary boxes of same-colored ranks), so
/// their relative order only fixes the floating-point summation order of
/// shared Schur targets, which the key makes deterministic.
pub(crate) fn order_key(leaf: u8, level: u8, phase: u8, color: u8, b: &BoxId) -> u64 {
    (((leaf - level) as u64) << 46)
        | ((phase as u64) << 42)
        | ((color as u64) << 40)
        | b.flat() as u64
}

/// Recover the `(level, phase)` coordinates an [`order_key`] was built
/// from.
pub(crate) fn key_level_phase(leaf: u8, key: u64) -> (u8, u8) {
    (leaf - ((key >> 46) as u8), ((key >> 42) & 0xF) as u8)
}

/// All point ids inside the leaf boxes `rank` owns, concatenated in
/// row-major box order — the canonical row layout of the resident serve
/// protocol's RHS/solution slabs (both sides derive it from the
/// replicated geometry, so slabs carry no id lists).
pub(crate) fn owned_leaf_ids(tree: &QuadTree, grid: &ProcessGrid, rank: usize) -> Vec<u32> {
    let leaf = tree.leaf_level();
    let mut ids = Vec::new();
    for b in tree.boxes_at_level(leaf) {
        if grid.owner(&b) == rank {
            ids.extend_from_slice(tree.leaf_points(&b));
        }
    }
    ids
}

/// Per-rank state shared between the factorization and solve passes.
pub(crate) struct RankState<T> {
    pub(crate) records: Vec<(u64, BoxElimination<T>)>,
    /// `(level, phase)` per record, aligned with `records`.
    pub(crate) record_phase: Vec<(u8, u8)>,
    /// Post-elimination active sets of *owned* boxes per level.
    pub(crate) act_end: HashMap<u8, Vec<(BoxId, Vec<u32>)>>,
    /// Fold bookkeeping for the solve: ids received from each retiring
    /// member at each fold level.
    pub(crate) fold_ids: HashMap<(u8, usize), Vec<u32>>,
    pub(crate) stats: FactorStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_key_round_trips_level_and_phase() {
        let leaf = 5u8;
        for level in 3..=leaf {
            for phase in 0..=4u8 {
                for color in 0..4u8 {
                    let b = BoxId {
                        level,
                        ix: 3,
                        iy: 1,
                    };
                    let key = order_key(leaf, level, phase, color, &b);
                    assert_eq!(key_level_phase(leaf, key), (level, phase));
                }
            }
        }
    }

    #[test]
    fn order_key_sorts_level_then_phase_then_color_then_row_major() {
        let leaf = 5u8;
        let b = |level, ix, iy| BoxId { level, ix, iy };
        // Finer level first, then phase, then sub-color round, then
        // row-major within the round.
        let seq = [
            order_key(leaf, 5, 0, 0, &b(5, 0, 0)),
            order_key(leaf, 5, 0, 0, &b(5, 2, 0)),
            order_key(leaf, 5, 0, 1, &b(5, 1, 0)),
            order_key(leaf, 5, 1, 0, &b(5, 0, 0)),
            order_key(leaf, 4, 0, 0, &b(4, 0, 0)),
        ];
        let mut sorted = seq;
        sorted.sort_unstable();
        assert_eq!(seq, sorted);
    }
}
