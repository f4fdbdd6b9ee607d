//! Algorithm 1: the multi-level factorization loop.
//!
//! A bottom-up sweep over the quad-tree: every box at every level is
//! skeletonized and its redundant DOFs eliminated, levels are merged, and
//! the few DOFs surviving above `min_compress_level` are finished with a
//! dense pivoted LU. The result approximates `A^{-1}` as the composition
//! Eq. (12) of per-box operators plus the top solve.
//!
//! The same loop serves the sequential and the box-colored drivers; they
//! differ only in their `Schedule`: the order in which a level's boxes
//! are eliminated and how many threads work on them.

use crate::colored::{eliminate_color_round, ColorScheme};
use crate::elimination::{apply_output, BoxElimination, FactorError};
use crate::levels::merge_to_parent;
use crate::skeletonize::CompressionCtx;
use crate::stats::FactorStats;
use crate::store::{ActiveSets, BlockStore};
use crate::{FactorOpts, Factorized};
use srsf_geometry::point::{BBox, Point};
use srsf_geometry::tree::{BoxId, QuadTree};
use srsf_kernels::kernel::Kernel;
use srsf_linalg::{LinOp, Lu, Mat, Scalar};
use std::time::Instant;

/// The strong recursive skeletonization factorization of a kernel matrix.
///
/// Stores the per-box elimination records in elimination order plus the
/// dense factorization of the top block; its [`Factorized`] methods apply
/// the approximate inverse in O(N).
pub struct Factorization<T> {
    pub(crate) n: usize,
    pub(crate) records: Vec<BoxElimination<T>>,
    /// Global ids of the DOFs in the dense top block, in assembly order.
    pub(crate) top_idx: Vec<u32>,
    pub(crate) top_lu: Lu<T>,
    pub(crate) stats: FactorStats,
}

impl<T: Scalar> Factorization<T> {
    /// Problem size `N`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Factorization statistics (ranks per level, timings, memory).
    pub fn stats(&self) -> &FactorStats {
        &self.stats
    }

    /// Number of per-box elimination records.
    pub fn n_records(&self) -> usize {
        self.records.len()
    }

    /// Size of the dense top block.
    pub fn top_size(&self) -> usize {
        self.top_idx.len()
    }

    /// Approximate memory footprint of the factorization in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.records
            .iter()
            .map(BoxElimination::heap_bytes)
            .sum::<usize>()
            + self.top_lu.heap_bytes()
            + self.top_idx.capacity() * 4
    }

    pub(crate) fn from_parts(
        n: usize,
        records: Vec<BoxElimination<T>>,
        top_idx: Vec<u32>,
        top_lu: Lu<T>,
        mut stats: FactorStats,
    ) -> Self {
        stats.top_size = top_idx.len();
        stats.record_bytes = records
            .iter()
            .map(BoxElimination::heap_bytes)
            .sum::<usize>()
            + top_lu.heap_bytes();
        Self {
            n,
            records,
            top_idx,
            top_lu,
            stats,
        }
    }
}

impl<T: Scalar> LinOp<T> for Factorization<T> {
    fn dim(&self) -> usize {
        self.n
    }
    /// Applying the factorization as an operator means applying the
    /// approximate **inverse** — this is what makes it a preconditioner.
    fn apply(&self, x: &[T]) -> Vec<T> {
        Factorized::solve(self, x)
    }
}

/// Pick the tree domain: the unit square when all points fit (the paper's
/// setting), otherwise the enclosing square.
pub fn domain_for(pts: &[Point]) -> BBox {
    if pts.iter().all(|p| BBox::UNIT.contains(p)) {
        BBox::UNIT
    } else {
        BBox::enclosing(pts)
    }
}

/// The order and parallelism of one factorization: per level, an
/// ordered list of box rounds, the worker threads that eliminate a
/// round's boxes, and the GEMM thread budget of the dense kernels.
///
/// Every round snapshot-computes its boxes (concurrently when
/// `box_threads > 1`) and then merges them in round order, so a schedule
/// fixes the elimination order — and with it the bits of the result —
/// independently of the thread counts.
pub(crate) struct Schedule {
    /// Box coloring that groups a level's boxes into rounds (colored
    /// driver).
    scheme: ColorScheme,
    /// One round per box in row-major order (Algorithm 1) instead of one
    /// round per color class.
    singleton_rounds: bool,
    box_threads: usize,
    gemm_threads: usize,
}

impl Schedule {
    /// Algorithm 1: singleton rounds in row-major order on one box
    /// thread. The sequential driver is the only one that hands the
    /// dense kernels a thread budget: it owns the whole machine, whereas
    /// the colored and distributed drivers parallelize across boxes and
    /// ranks.
    pub(crate) fn sequential(gemm_threads: usize) -> Self {
        Self {
            scheme: ColorScheme::Four,
            singleton_rounds: true,
            box_threads: 1,
            gemm_threads,
        }
    }

    /// Section V-C: one round per color class of `scheme` on
    /// `box_threads` workers, serial GEMM.
    pub(crate) fn colored(scheme: ColorScheme, box_threads: usize) -> Self {
        assert!(box_threads >= 1);
        Self {
            scheme,
            singleton_rounds: false,
            box_threads,
            gemm_threads: 1,
        }
    }

    fn rounds(&self, tree: &QuadTree, level: u8) -> Vec<Vec<BoxId>> {
        if self.singleton_rounds {
            return tree.boxes_at_level(level).map(|b| vec![b]).collect();
        }
        (0..self.scheme.count())
            .map(|color| {
                tree.boxes_at_level(level)
                    .filter(|b| self.scheme.color(b) == color)
                    .collect()
            })
            .collect()
    }
}

/// Factor against a caller-provided tree with the sequential schedule
/// (Algorithm 1), GEMM-threaded by `FactorOpts::gemm_threads`.
pub fn factorize_with_tree<K: Kernel>(
    kernel: &K,
    pts: &[Point],
    tree: &QuadTree,
    opts: &FactorOpts,
) -> Result<Factorization<K::Elem>, FactorError> {
    factorize_scheduled(
        kernel,
        pts,
        tree,
        opts,
        &Schedule::sequential(opts.gemm_threads),
    )
}

/// The level loop shared by the sequential and colored drivers. The GEMM
/// budget is thread-local and restored on exit, so it never leaks into
/// callers or sibling drivers.
pub(crate) fn factorize_scheduled<K: Kernel>(
    kernel: &K,
    pts: &[Point],
    tree: &QuadTree,
    opts: &FactorOpts,
    schedule: &Schedule,
) -> Result<Factorization<K::Elem>, FactorError> {
    let prev = srsf_linalg::set_gemm_threads(schedule.gemm_threads);
    let result = factorize_levels(kernel, pts, tree, opts, schedule);
    srsf_linalg::set_gemm_threads(prev);
    result
}

fn factorize_levels<K: Kernel>(
    kernel: &K,
    pts: &[Point],
    tree: &QuadTree,
    opts: &FactorOpts,
    schedule: &Schedule,
) -> Result<Factorization<K::Elem>, FactorError> {
    let t_total = Instant::now();
    let n = pts.len();
    let leaf = tree.leaf_level();
    let mut stats = FactorStats::new(n, leaf);
    let mut store = BlockStore::new(kernel, pts);
    let mut act = ActiveSets::new();
    for id in tree.boxes_at_level(leaf) {
        act.set(id, tree.leaf_points(&id).to_vec());
    }

    let lmin = (opts.min_compress_level as u8).min(leaf);
    let ctx = CompressionCtx::new(kernel, pts, tree, opts);
    let mut records = Vec::new();
    if leaf >= lmin && leaf >= 1 {
        let mut level = leaf;
        loop {
            let t0 = Instant::now();
            for boxes in schedule.rounds(tree, level) {
                let outputs = eliminate_color_round(
                    &store,
                    &act,
                    tree,
                    &boxes,
                    opts,
                    &ctx,
                    schedule.box_threads,
                )?;
                // Deterministic merge in round order.
                for (b, out) in boxes.iter().zip(outputs) {
                    if let Some(rec) = &out.record {
                        stats.add_rank(level, rec.skel.len());
                    }
                    stats.compression.absorb(&out.compression);
                    apply_output(&mut store, &mut act, b, &out, &ctx);
                    records.extend(out.record);
                }
            }
            stats.eliminate_s += t0.elapsed().as_secs_f64();
            stats.peak_store_bytes = stats.peak_store_bytes.max(store.heap_bytes());
            if level == lmin {
                break;
            }
            let t1 = Instant::now();
            merge_to_parent(&mut store, &mut act, tree, level);
            stats.merge_s += t1.elapsed().as_secs_f64();
            level -= 1;
        }
    }

    // Dense top factorization over the remaining active DOFs.
    let t2 = Instant::now();
    let top_level = if leaf >= lmin { lmin } else { leaf };
    let (top_idx, top_lu) = factor_top(&store, &act, tree, top_level, &ctx)?;
    stats.top_s = t2.elapsed().as_secs_f64();
    stats.total_s = t_total.elapsed().as_secs_f64();

    Ok(Factorization::from_parts(
        n, records, top_idx, top_lu, stats,
    ))
}

/// Assemble and LU-factor the dense top block over all boxes at
/// `top_level`, in row-major box order. A pivot breakdown is reported as
/// [`FactorError::SingularTop`] — the top system is a property of the
/// whole remaining active set, not of any one box.
pub(crate) fn factor_top<K: Kernel>(
    store: &BlockStore<'_, K>,
    act: &ActiveSets,
    tree: &QuadTree,
    top_level: u8,
    ctx: &CompressionCtx,
) -> Result<(Vec<u32>, Lu<K::Elem>), FactorError> {
    let boxes: Vec<BoxId> = tree.boxes_at_level(top_level).collect();
    let sizes: Vec<usize> = boxes.iter().map(|b| act.get(b).len()).collect();
    let total: usize = sizes.iter().sum();
    let mut top_idx = Vec::with_capacity(total);
    for b in &boxes {
        top_idx.extend_from_slice(act.get(b));
    }
    let mut a = Mat::zeros(total, total);
    let mut r0 = 0;
    for (i, bi) in boxes.iter().enumerate() {
        if sizes[i] == 0 {
            continue;
        }
        let mut c0 = 0;
        for (j, bj) in boxes.iter().enumerate() {
            if sizes[j] == 0 {
                continue;
            }
            let blk = ctx.get_block(store, act, bi, bj);
            a.set_block(r0, c0, &blk);
            c0 += sizes[j];
        }
        r0 += sizes[i];
    }
    let lu = Lu::factor(a).map_err(|e| FactorError::SingularTop {
        size: total,
        step: e.step,
    })?;
    Ok((top_idx, lu))
}
