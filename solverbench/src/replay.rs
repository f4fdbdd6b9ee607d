//! An outside replay of Algorithm 1 (the sequential factorization) from
//! the library's public per-layer functions, timing each call.
//!
//! The replay mirrors `srsf_core::sequential::factorize_with_tree` step
//! for step: the same tree, the same compression context, the same boxes
//! in the same order. Layer times come from the benchmark's own clocks
//! around each call; the library records nothing extra. Two layers need
//! care:
//!
//! * `skeletonize` runs inside `eliminate_box`. It is pure, so the replay
//!   calls it once more on the same inputs just before `eliminate_box`
//!   and books the elimination layer as `eliminate_box` time minus that
//!   `skeletonize` time.
//! * The dense top block is assembled by crate-private code. The replay
//!   assembles the same block through the public `BlockStore::get` only
//!   to time `Lu::factor` on it; top assembly is the build's own
//!   `FactorStats::top_s` minus that LU time.
//!
//! Coverage is the sum of every timed call (both `skeletonize` calls
//! included) over the replay's wall time; what it misses is loop and
//! bookkeeping overhead.

use srsf::core::elimination::{apply_output, eliminate_box};
use srsf::core::levels::merge_to_parent;
use srsf::core::sequential::domain_for;
use srsf::core::skeletonize::skeletonize;
use srsf::core::store::{ActiveSets, BlockStore};
use srsf::core::{CompressionCtx, FactorOpts};
use srsf::geometry::{BoxId, Point, QuadTree};
use srsf::kernels::kernel::Kernel;
use srsf::linalg::{Lu, Mat};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Layer times and counts from one replay.
#[derive(Debug, Default)]
pub struct Replay {
    pub wall_s: f64,
    pub tree_s: f64,
    pub ctx_s: f64,
    pub skeletonize_s: f64,
    /// `eliminate_box` wall time, its inner `skeletonize` included.
    pub eliminate_box_s: f64,
    pub apply_s: f64,
    pub merge_s: f64,
    pub top_assemble_s: f64,
    pub top_lu_s: f64,
    /// Per-level `(boxes skeletonized, sum of skeleton ranks)`, the same
    /// accounting as `FactorStats::ranks`.
    pub ranks: BTreeMap<u8, (usize, usize)>,
    pub top_size: usize,
    pub record_bytes: usize,
    pub peak_store_bytes: usize,
}

impl Replay {
    /// `eliminate_box` time net of its `skeletonize` call: the Schur
    /// GEMMs, the `X_RR` LU and the triangular solves.
    pub fn elimination_s(&self) -> f64 {
        self.eliminate_box_s - self.skeletonize_s
    }

    pub fn coverage(&self) -> f64 {
        let parts = self.tree_s
            + self.ctx_s
            + self.skeletonize_s
            + self.eliminate_box_s
            + self.apply_s
            + self.merge_s
            + self.top_assemble_s
            + self.top_lu_s;
        parts / self.wall_s
    }
}

fn timed<R>(acc: &mut f64, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let r = f();
    *acc += t.elapsed().as_secs_f64();
    r
}

/// Replay the sequential factorization of `kernel` over `pts` with
/// `opts`, timing every public layer call.
pub fn replay<K: Kernel>(kernel: &K, pts: &[Point], opts: &FactorOpts) -> Result<Replay, String> {
    let mut r = Replay::default();
    let t_all = Instant::now();
    let tree = timed(&mut r.tree_s, || {
        QuadTree::build(pts, domain_for(pts), opts.leaf_size)
    });
    let leaf = tree.leaf_level();
    let mut store = BlockStore::new(kernel, pts);
    let mut act = ActiveSets::new();
    for id in tree.boxes_at_level(leaf) {
        act.set(id, tree.leaf_points(&id).to_vec());
    }
    let lmin = (opts.min_compress_level as u8).min(leaf);
    let ctx = timed(&mut r.ctx_s, || {
        CompressionCtx::new(kernel, pts, &tree, opts)
    });

    // Kept to the end, as the build keeps them, so the replay runs with
    // the same memory footprint.
    let mut records = Vec::new();
    if leaf >= lmin && leaf >= 1 {
        let mut level = leaf;
        loop {
            for b in tree.boxes_at_level(level) {
                if !act.get(&b).is_empty() {
                    let id = timed(&mut r.skeletonize_s, || {
                        skeletonize(&store, &act, &tree, &b, opts, &ctx)
                    });
                    black_box(id);
                }
                let out = timed(&mut r.eliminate_box_s, || {
                    eliminate_box(&store, &act, &tree, &b, opts, &ctx)
                })
                .map_err(|e| format!("replay: {e}"))?;
                timed(&mut r.apply_s, || {
                    apply_output(&mut store, &mut act, &b, &out, &ctx)
                });
                if let Some(rec) = out.record {
                    let e = r.ranks.entry(level).or_insert((0, 0));
                    e.0 += 1;
                    e.1 += rec.skel.len();
                    r.record_bytes += rec.heap_bytes();
                    records.push(rec);
                }
            }
            r.peak_store_bytes = r.peak_store_bytes.max(store.heap_bytes());
            if level == lmin {
                break;
            }
            timed(&mut r.merge_s, || {
                merge_to_parent(&mut store, &mut act, &tree, level)
            });
            level -= 1;
        }
    }

    let top_level = if leaf >= lmin { lmin } else { leaf };
    let top = timed(&mut r.top_assemble_s, || {
        assemble_top(&store, &act, &tree, top_level)
    });
    r.top_size = top.nrows();
    let lu = timed(&mut r.top_lu_s, || Lu::factor(top))
        .map_err(|e| format!("replay: singular top block at step {}", e.step))?;
    r.record_bytes += lu.heap_bytes();
    r.wall_s = t_all.elapsed().as_secs_f64();
    drop(records);
    Ok(r)
}

/// The dense top block over every box at `top_level`, in row-major box
/// order, assembled through the public store interface.
fn assemble_top<K: Kernel>(
    store: &BlockStore<'_, K>,
    act: &ActiveSets,
    tree: &QuadTree,
    top_level: u8,
) -> Mat<K::Elem> {
    let boxes: Vec<BoxId> = tree
        .boxes_at_level(top_level)
        .filter(|b| !act.get(b).is_empty())
        .collect();
    let total: usize = boxes.iter().map(|b| act.get(b).len()).sum();
    let mut a = Mat::zeros(total, total);
    let mut r0 = 0;
    for bi in &boxes {
        let mut c0 = 0;
        for bj in &boxes {
            a.set_block(r0, c0, &store.get(bi, bj, act));
            c0 += act.get(bj).len();
        }
        r0 += act.get(bi).len();
    }
    a
}
