//! The shared-memory box-colored parallel driver (Section V-C).
//!
//! This is the paper's C++/OpenMP *reference* solver, reimplemented: all
//! boxes of a level are graph-colored so that neighbors get different
//! colors, and boxes of one color are processed concurrently. Two schemes
//! are provided:
//!
//! * [`ColorScheme::Four`] — the paper's scheme. Same-color boxes can sit
//!   at box distance 2 and then share Schur-update *targets* (pairs between
//!   their common neighbors). The driver therefore runs each color as a
//!   snapshot-read compute phase followed by a deterministic sequential
//!   merge; because same-color boxes never read what another same-color
//!   box writes (distance-2 analysis of Section III) and the shared writes
//!   are additive, this reproduces a sequential elimination order exactly
//!   (up to floating-point commutation of the additions, which the merge
//!   keeps in fixed box order — so results are bit-deterministic for any
//!   thread count).
//! * [`ColorScheme::Nine`] — distance-3 coloring: all writes disjoint,
//!   lock-free by construction; used as an ablation.
//!
//! The level loop itself is the sequential driver's
//! ([`crate::sequential`]), run with a color-round schedule; this module
//! holds the round executor it shares with the sequential and
//! distributed drivers.

use crate::elimination::{eliminate_box, EliminationOutput, FactorError};
use crate::skeletonize::CompressionCtx;
use crate::store::{ActiveSets, BlockStore};
use crate::FactorOpts;
pub use srsf_geometry::procgrid::BoxColoring as ColorScheme;
use srsf_geometry::tree::{BoxId, QuadTree};
use srsf_kernels::kernel::Kernel;
// Sync primitives come through the srsf-verify shims: identical to
// `std::sync` in a normal build, schedule-explored under
// `--cfg srsf_model` (see crates/verify).
use srsf_verify::sync::atomic::{AtomicUsize, Ordering};
use srsf_verify::sync::OnceLock;

/// Snapshot-compute the eliminations of one color round across threads,
/// preserving the input box order in the output.
///
/// Boxes are handed out through a shared atomic index (pull
/// work-stealing) rather than fixed chunks: per-box cost tracks the
/// skeleton rank, which varies widely across a level, and static chunking
/// left threads idle at the tail of every round.
///
/// Shared by every driver: the sequential schedule runs singleton rounds
/// on one thread, and the distributed driver's per-rank sub-color rounds
/// (`FactorOpts::rank_threads`) run the same snapshot/merge schedule over
/// a rank's phase boxes.
pub(crate) fn eliminate_color_round<K: Kernel>(
    store: &BlockStore<'_, K>,
    act: &ActiveSets,
    tree: &QuadTree,
    boxes: &[BoxId],
    opts: &FactorOpts,
    ctx: &CompressionCtx,
    n_threads: usize,
) -> Result<Vec<EliminationOutput<K::Elem>>, FactorError> {
    if n_threads == 1 || boxes.len() <= 1 {
        return boxes
            .iter()
            .map(|b| eliminate_box(store, act, tree, b, opts, ctx))
            .collect();
    }
    let slots: Vec<OnceLock<Result<EliminationOutput<K::Elem>, FactorError>>> =
        (0..boxes.len()).map(|_| OnceLock::new()).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..n_threads.min(boxes.len()) {
            scope.spawn(|| loop {
                // Relaxed is enough: the claim index carries no data — each worker
                // publishes its elimination through the slot's OnceLock, whose set/get
                // provides the release/acquire edge (verified schedule-independent by
                // work_stealing_claims_each_chunk_once in crates/verify/tests/models.rs).
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= boxes.len() {
                    break;
                }
                let _ = slots[i].set(eliminate_box(store, act, tree, &boxes[i], opts, ctx));
            });
        }
    });
    slots
        .into_iter()
        // INVARIANT: the per-color barrier guarantees every slot in a finished
        // color was written exactly once
        .map(|s| s.into_inner().expect("missing elimination output"))
        .collect()
}
