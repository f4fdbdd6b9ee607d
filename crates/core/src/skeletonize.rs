//! Proxy-compressed interpolative decomposition of a box (Section II-C).
//!
//! For a box `B` with active columns `a_B`, the compression target is the
//! concatenation `[A_{F,B}; A_{B,F}^*]` of Eq. (5). Forming it would cost
//! O(N); instead (Eq. 7) the far field is represented by
//!
//! * the explicit (possibly modified) interactions against the distance-2
//!   ring `M(B)`, read from the block store, and
//! * kernel evaluations against a proxy circle of radius `2.5 L` that
//!   accounts for everything beyond `M(B)`,
//!
//! which has O(1) rows. A single column ID of the stack yields the skeleton
//! set and interpolation matrix `T` valid for both row and column
//! interactions (Eq. 6).
//!
//! # Randomized compression ([`crate::Compression::Sketched`], the default)
//!
//! Rather than assembling the full tall stack and running CPQR to
//! completion, the sketched path multiplies the stack by a seeded
//! Rademacher sketch `Ω` and pivots on the small product `Y = Ω·A`.
//! Because sketch entries are a pure function of `(seed, row, column)`
//! (`srsf_linalg::rid`), `Y` accumulates **block by block** — one
//! `Ω_blk · A_blk` GEMM per ring block and per proxy block — and the tall
//! matrix never exists in memory. The per-box seed mixes
//! `(kernel id, level, ix, iy)`, so skeletons are identical for every
//! driver, thread count, and transport.
//!
//! ## A-posteriori verification loop
//!
//! Each sketch attempt must certify the tolerance (see `srsf_linalg::rid`
//! module docs): the downdated-norm CPQR on the pivot rows of `Y` has to
//! stop early, and a held-out block of sketch rows has to be reproduced by
//! the candidate `(S, T)`. A failed attempt doubles the sketch and
//! reassembles; when the sketch stops being cheaper than the full stack
//! (`2 l ≥ m`) the box falls back to the deterministic
//! [`interp_decomp`] — accuracy is never worse than the CPQR baseline.
//!
//! ## Symbol table
//!
//! For a translation-invariant kernel ([`Kernel::is_translation_invariant`])
//! on the uniform unit grid, every unmodified off-diagonal block has the
//! structure `A[i,j] = s_i · t(x_i − x_j) · s_j`. The symbol `t` is
//! tabulated once per factorization — one kernel evaluation per grid
//! *offset* — and such blocks assemble by table lookup instead of one
//! transcendental evaluation per entry. The table is built under
//! sketched compression only; `CompressionCtx::get_block` then serves the
//! ring sketches, the Schur updates and the dense top block from it when
//! the pair is untouched. Schur updates destroy the structure, so
//! modified pairs (which `BlockStore::contains` detects) and diagonal
//! blocks always come from the store, as does the full CPQR stack.
//!
//! Independently, a (complex-)symmetric kernel ([`Kernel::is_symmetric`])
//! with real entries makes the forward and adjoint blocks of an
//! unmodified pair identical (`A_{B,M}ᴴ = A_{M,B}`), so the sketch
//! evaluates each such pair once and applies the combined forward+adjoint
//! sketch in a single GEMM — Rademacher sums are exactly representable,
//! so this changes rounding order only.

use crate::store::{ActiveSets, BlockStore};
use crate::{Compression, CompressionTelemetry, FactorOpts};
use srsf_geometry::grid::UnitGrid;
use srsf_geometry::neighbors::dist2_ring;
use srsf_geometry::point::Point;
use srsf_geometry::proxy::{proxy_circle_from_unit, proxy_count, unit_circle};
use srsf_geometry::tree::{BoxId, QuadTree};
use srsf_kernels::kernel::Kernel;
use srsf_linalg::gemm::matmul_acc;
use srsf_linalg::rid::{derive_seed, id_from_sketch, sketch_block, RID_VERIFY_ROWS};
use srsf_linalg::{c64, interp_decomp, IdResult, Mat, Scalar};

/// Per-level proxy geometry, computed once per factorization: all boxes
/// of a level share the circle radius and point count, so the
/// trigonometry happens once and each box only translates the result.
struct LevelGeom {
    radius: f64,
    n_proxy: usize,
    unit: Vec<Point>,
}

/// The symbol table of a translation-invariant kernel on the uniform
/// grid, plus its per-point scaling.
struct SymbolTable {
    side: usize,
    /// `s_i` per grid point; empty = identity (Laplace).
    scale: Vec<f64>,
    /// Raw symbol `t(dx, dy)`, row-major over `dy, dx ∈ [-(side-1),
    /// side-1]` — one kernel evaluation per *offset* instead of per
    /// entry, so unmodified blocks assemble by table lookup with no
    /// transcendentals.
    table: Vec<c64>,
}

impl SymbolTable {
    #[inline]
    fn scale_at(&self, i: usize) -> f64 {
        if self.scale.is_empty() {
            1.0
        } else {
            self.scale[i]
        }
    }

    /// Assemble an unmodified off-diagonal block from the table:
    /// `A[i,j] = s_i · t(x_i − x_j) · s_j`. Offsets between grid points
    /// are exact dyadics, so for an unscaled kernel the table entries are
    /// the very bits `Kernel::entry` would produce.
    fn block<T: Scalar>(&self, rows_act: &[u32], cols_act: &[u32]) -> Mat<T> {
        let w = 2 * self.side - 1;
        let off = (self.side - 1) as i64;
        let coords = |g: &u32| {
            let g = *g as usize;
            (
                (g % self.side) as i64,
                (g / self.side) as i64,
                self.scale_at(g),
            )
        };
        let rc: Vec<_> = rows_act.iter().map(coords).collect();
        let cc: Vec<_> = cols_act.iter().map(coords).collect();
        Mat::from_fn(rc.len(), cc.len(), |i, j| {
            let (ix, iy, si) = rc[i];
            let (jx, jy, sj) = cc[j];
            let t = self.table[((iy - jy + off) as usize) * w + (ix - jx + off) as usize];
            T::from_re_im(t.re, t.im).scale(si * sj)
        })
    }
}

/// Immutable per-factorization compression state, built once per driver
/// (per rank for the distributed driver — the construction is
/// deterministic, so every rank derives the identical context) and
/// shared by every `skeletonize` call.
pub struct CompressionCtx {
    compression: Compression,
    /// Kernel identity mixed into every per-box sketch seed.
    seed_id: u64,
    /// Indexed by tree level `0..=leaf`.
    geoms: Vec<LevelGeom>,
    leaf_level: u8,
    symbols: Option<SymbolTable>,
}

impl CompressionCtx {
    /// Build the context for one factorization of `kernel` over `pts`.
    pub fn new<K: Kernel>(kernel: &K, pts: &[Point], tree: &QuadTree, opts: &FactorOpts) -> Self {
        let leaf = tree.leaf_level();
        let geoms = (0..=leaf)
            .map(|level| {
                let side = tree
                    .bbox(&BoxId {
                        level,
                        ix: 0,
                        iy: 0,
                    })
                    .side;
                let radius = opts.proxy_radius_factor * side;
                let n_proxy = proxy_count(
                    opts.n_proxy_min,
                    opts.proxy_osc_factor,
                    kernel.kappa(),
                    radius,
                );
                LevelGeom {
                    radius,
                    n_proxy,
                    unit: unit_circle(n_proxy),
                }
            })
            .collect();
        let sketched = matches!(opts.compression, Compression::Sketched { .. });
        let symbols = if sketched && kernel.is_translation_invariant() {
            detect_unit_grid(pts).map(|side| build_symbol_table(kernel, pts, side))
        } else {
            None
        };
        Self {
            compression: opts.compression,
            seed_id: kernel.seed_id(),
            geoms,
            leaf_level: leaf,
            symbols,
        }
    }

    fn geom(&self, level: u8) -> &LevelGeom {
        &self.geoms[level as usize]
    }

    /// Assemble the current block `A[act(m), act(b)]` like
    /// [`BlockStore::get`], but serve unmodified off-diagonal pairs from
    /// the symbol table when one was built. Active ids are grid points at
    /// every level, so this applies beyond the leaves: the Schur phase
    /// reads many still-untouched neighbor blocks and the dense top block
    /// is mostly fresh far-pair evaluations — the table skips their
    /// per-entry transcendentals. Only `m == b` is excluded (diagonal
    /// entries are singular self-interactions, not symbol values).
    pub(crate) fn get_block<K: Kernel>(
        &self,
        store: &BlockStore<'_, K>,
        act: &ActiveSets,
        m: &BoxId,
        b: &BoxId,
    ) -> Mat<K::Elem> {
        if let Some(t) = &self.symbols {
            if m != b && !store.contains(m, b) {
                return t.block(act.get(m), act.get(b));
            }
        }
        store.get(m, b, act)
    }
}

/// Detect whether `pts` is exactly the row-major [`UnitGrid`] layout with
/// a power-of-two side (bitwise comparison). A power-of-two side makes
/// the grid spacing and every coordinate difference an exact dyadic, so
/// each offset's table entry is bit-equal to `Kernel::entry` for every
/// pair realizing it — off the true grid the table would only
/// approximate the kernel.
fn detect_unit_grid(pts: &[Point]) -> Option<usize> {
    let n = pts.len();
    let side = (n as f64).sqrt().round() as usize;
    if side < 2 || side * side != n || !side.is_power_of_two() {
        return None;
    }
    let grid = UnitGrid::new(side);
    for (i, p) in pts.iter().enumerate() {
        let q = grid.point(i);
        if p.x.to_bits() != q.x.to_bits() || p.y.to_bits() != q.y.to_bits() {
            return None;
        }
    }
    Some(side)
}

/// Tabulate the symbol `t(d) = entry / (s_i s_j)` at a representative
/// grid pair realizing each offset, `t(0,0) = 0` (off-diagonal blocks
/// never pair a point with itself). Requires the contract of
/// [`Kernel::is_translation_invariant`].
fn build_symbol_table<K: Kernel>(kernel: &K, pts: &[Point], side: usize) -> SymbolTable {
    let n = side * side;
    let scale_full: Vec<f64> = (0..n).map(|i| kernel.point_scale(i)).collect();
    let identity = scale_full.iter().all(|&s| s == 1.0);
    let w = 2 * side - 1;
    let off = side as i64 - 1;
    let mut table = vec![c64::ZERO; w * w];
    for dy in -off..=off {
        for dx in -off..=off {
            if dx == 0 && dy == 0 {
                continue; // off-diagonal blocks never pair a point with itself
            }
            let (i, j) = offset_pair(side, dx, dy);
            let e = kernel.entry(pts, i, j);
            let ss = scale_full[i] * scale_full[j];
            table[((dy + off) as usize) * w + (dx + off) as usize] =
                c64::new(e.re() / ss, e.im() / ss);
        }
    }
    SymbolTable {
        side,
        scale: if identity { Vec::new() } else { scale_full },
        table,
    }
}

/// Pick a representative grid-index pair realizing the offset `(dx, dy)`.
fn offset_pair(m: usize, dx: i64, dy: i64) -> (usize, usize) {
    let jx = if dx >= 0 { 0i64 } else { -dx };
    let jy = if dy >= 0 { 0i64 } else { -dy };
    let ix = jx + dx;
    let iy = jy + dy;
    (
        (iy as usize) * m + ix as usize,
        (jy as usize) * m + jx as usize,
    )
}

/// Assemble the proxy-compressed tall matrix whose column ID skeletonizes
/// box `b` (the deterministic path, and the sketched path's fallback).
pub fn proxy_matrix<K: Kernel>(
    store: &BlockStore<'_, K>,
    act: &ActiveSets,
    tree: &QuadTree,
    b: &BoxId,
    opts: &FactorOpts,
    ctx: &CompressionCtx,
) -> Mat<K::Elem> {
    let _ = opts;
    let a_b = act.get(b);
    let nb = a_b.len();
    let pts = store.points();
    let kernel = store.kernel();

    // The row count is known before any block is materialized: each
    // nonempty ring box contributes its active count twice (both
    // directions) and the proxy circle twice `n_proxy` — so the tall
    // matrix is allocated once and every block written straight into it,
    // instead of staging a `Vec<Mat>` and copying each block a second
    // time during stacking.
    let ring: Vec<_> = dist2_ring(b)
        .into_iter()
        .filter(|m| !act.get(m).is_empty())
        .collect();
    let ring_rows: usize = ring.iter().map(|m| act.get(m).len()).sum();

    let geom = ctx.geom(b.level);
    let n_proxy = geom.n_proxy;
    let circle = proxy_circle_from_unit(tree.bbox(b).center(), geom.radius, &geom.unit);

    let mut out = Mat::zeros(2 * ring_rows + 2 * n_proxy, nb);
    let mut r0 = 0;
    // Row blocks from the distance-2 ring, both directions.
    for m in &ring {
        let blk = store.get(m, b, act);
        out.set_block(r0, 0, &blk);
        r0 += blk.nrows();
        let blk_h = store.get(b, m, act).adjoint();
        out.set_block(r0, 0, &blk_h);
        r0 += blk_h.nrows();
    }
    // Proxy rows for the far field beyond M(B), filled in place.
    for j in 0..nb {
        let col = out.col_mut(j);
        for (p, c) in circle.iter().enumerate() {
            col[r0 + p] = kernel.proxy_row(pts, *c, a_b[j] as usize);
            col[r0 + n_proxy + p] = kernel.proxy_col(pts, a_b[j] as usize, *c).conj();
        }
    }
    out
}

/// Compute the skeleton/redundant split and interpolation matrix of a
/// box, plus telemetry describing the compression path taken.
pub fn skeletonize<K: Kernel>(
    store: &BlockStore<'_, K>,
    act: &ActiveSets,
    tree: &QuadTree,
    b: &BoxId,
    opts: &FactorOpts,
    ctx: &CompressionCtx,
) -> (IdResult<K::Elem>, CompressionTelemetry) {
    let mut tel = CompressionTelemetry::default();
    let (oversample, seed) = match ctx.compression {
        Compression::Cpqr => {
            let m = proxy_matrix(store, act, tree, b, opts, ctx);
            return (interp_decomp(m, opts.tol, usize::MAX), tel);
        }
        Compression::Sketched { oversample, seed } => (oversample, seed),
    };

    let nb = act.get(b).len();
    let ring: Vec<BoxId> = dist2_ring(b)
        .into_iter()
        .filter(|m| !act.get(m).is_empty())
        .collect();
    let ring_rows: usize = ring.iter().map(|m| act.get(m).len()).sum();
    let m_rows = 2 * ring_rows + 2 * ctx.geom(b.level).n_proxy;

    // Driver-invariant rank guess. Non-leaf boxes carry the previous
    // level's realized information in `nb` itself — a parent's active set
    // is the union of its children's realized skeletons — so the guess
    // warm-starts from the measured ranks without introducing any
    // schedule-dependent state (a running average would differ between
    // drivers and break the bit-identity contract).
    let guess = if b.level == ctx.leaf_level {
        nb / 2 + 8
    } else {
        (5 * nb) / 8 + 8
    }
    .min(nb);
    let box_seed = derive_seed(
        seed ^ ctx.seed_id,
        b.level as u64,
        ((b.ix as u64) << 32) | b.iy as u64,
    );

    let mut l = (guess + oversample).max(4);
    loop {
        if 2 * (l + RID_VERIFY_ROWS) >= m_rows {
            tel.sketch_fallbacks += 1;
            let m = proxy_matrix(store, act, tree, b, opts, ctx);
            return (interp_decomp(m, opts.tol, usize::MAX), tel);
        }
        let y = sketch_proxy(
            store,
            act,
            tree,
            b,
            ctx,
            &ring,
            l + RID_VERIFY_ROWS,
            box_seed,
            &mut tel,
        );
        if let Some(id) = id_from_sketch(&y, l, opts.tol, usize::MAX) {
            return (id, tel);
        }
        tel.sketch_retries += 1;
        l *= 2;
    }
}

/// Form `Y = Ω · [proxy stack]` block by block, without materializing the
/// stack: one `Ω_blk · A_blk` GEMM per ring block and direction (one per
/// pair when the pair fuses) and per proxy block.
#[allow(clippy::too_many_arguments)]
fn sketch_proxy<K: Kernel>(
    store: &BlockStore<'_, K>,
    act: &ActiveSets,
    tree: &QuadTree,
    b: &BoxId,
    ctx: &CompressionCtx,
    ring: &[BoxId],
    rows: usize,
    seed: u64,
    tel: &mut CompressionTelemetry,
) -> Mat<K::Elem> {
    let a_b = act.get(b);
    let nb = a_b.len();
    let pts = store.points();
    let kernel = store.kernel();
    let geom = ctx.geom(b.level);
    let n_proxy = geom.n_proxy;
    let circle = proxy_circle_from_unit(tree.bbox(b).center(), geom.radius, &geom.unit);
    // A real symmetric kernel makes the two directions of an unmodified
    // pair literally the same block (`A_{B,M}ᴴ = A_{M,B}`): evaluate it
    // once and sketch both with the combined (fwd + adj) sketch — exact,
    // because Rademacher sums live in {-2, 0, 2}.
    let fuse = kernel.is_symmetric() && !K::Elem::IS_COMPLEX;

    let mut y = Mat::<K::Elem>::zeros(rows, nb);

    // Ring blocks, walked with running offsets into the virtual tall
    // stack — the offset keys the sketch columns.
    let mut r0 = 0;
    for m in ring {
        let am = act.get(m).len();
        let (fwd_off, adj_off) = (r0, r0 + am);
        r0 += 2 * am;
        if fuse && !store.contains(m, b) && !store.contains(b, m) {
            let blk = ctx.get_block(store, act, m, b);
            let mut omega = sketch_block::<K::Elem>(seed, rows, fwd_off, am);
            omega.axpy(K::Elem::ONE, &sketch_block(seed, rows, adj_off, am));
            matmul_acc(&mut y, K::Elem::ONE, &omega, &blk);
            tel.dense_block_applies += 2;
            continue;
        }
        let fwd = ctx.get_block(store, act, m, b);
        let omega = sketch_block::<K::Elem>(seed, rows, fwd_off, am);
        matmul_acc(&mut y, K::Elem::ONE, &omega, &fwd);
        let adj = ctx.get_block(store, act, b, m).adjoint();
        let omega = sketch_block::<K::Elem>(seed, rows, adj_off, am);
        matmul_acc(&mut y, K::Elem::ONE, &omega, &adj);
        tel.dense_block_applies += 2;
    }
    let ring_rows = r0 / 2;

    // Proxy blocks (proxy points live off-grid, so always kernel
    // evaluations). The same pairwise fusion applies — for a real
    // symmetric kernel the conjugated column block *is* the row block.
    let p_row = Mat::from_fn(n_proxy, nb, |p, j| {
        kernel.proxy_row(pts, circle[p], a_b[j] as usize)
    });
    let mut omega = sketch_block::<K::Elem>(seed, rows, 2 * ring_rows, n_proxy);
    if fuse {
        omega.axpy(
            K::Elem::ONE,
            &sketch_block(seed, rows, 2 * ring_rows + n_proxy, n_proxy),
        );
        matmul_acc(&mut y, K::Elem::ONE, &omega, &p_row);
    } else {
        matmul_acc(&mut y, K::Elem::ONE, &omega, &p_row);
        let p_col = Mat::from_fn(n_proxy, nb, |p, j| {
            kernel.proxy_col(pts, a_b[j] as usize, circle[p]).conj()
        });
        let omega = sketch_block::<K::Elem>(seed, rows, 2 * ring_rows + n_proxy, n_proxy);
        matmul_acc(&mut y, K::Elem::ONE, &omega, &p_col);
    }
    tel.dense_block_applies += 2;

    y
}

/// Convenience: the defining ID error `||A[:,R] - A[:,S] T||_max` against a
/// freshly assembled proxy matrix (diagnostics and tests).
pub fn id_error<T: Scalar>(a: &Mat<T>, id: &IdResult<T>) -> f64 {
    let rows: Vec<usize> = (0..a.nrows()).collect();
    let ar = a.select(&rows, &id.redundant);
    let as_ = a.select(&rows, &id.skel);
    let approx = srsf_linalg::gemm::matmul(&as_, &id.t);
    srsf_linalg::norms::max_abs_diff(&ar, &approx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use srsf_geometry::point::BBox;
    use srsf_kernels::helmholtz::HelmholtzKernel;
    use srsf_kernels::laplace::LaplaceKernel;
    use srsf_linalg::norms::fro_norm;

    fn setup(m: usize, leaf: usize) -> (UnitGrid, LaplaceKernel, QuadTree) {
        let grid = UnitGrid::new(m);
        let k = LaplaceKernel::new(&grid);
        let tree = QuadTree::build(&grid.points(), BBox::UNIT, leaf);
        (grid, k, tree)
    }

    fn leaf_actives(grid: &UnitGrid, tree: &QuadTree) -> ActiveSets {
        let _ = grid;
        let mut act = ActiveSets::new();
        for id in tree.boxes_at_level(tree.leaf_level()) {
            act.set(id, tree.leaf_points(&id).to_vec());
        }
        act
    }

    fn cpqr_opts() -> FactorOpts {
        FactorOpts::default().with_compression(Compression::Cpqr)
    }

    #[test]
    fn proxy_matrix_shape_and_content() {
        let (grid, k, tree) = setup(16, 16);
        let pts = grid.points();
        let store = BlockStore::new(&k, &pts);
        let act = leaf_actives(&grid, &tree);
        let b = BoxId {
            level: tree.leaf_level(),
            ix: 2,
            iy: 2,
        };
        let opts = FactorOpts::default();
        let ctx = CompressionCtx::new(&k, &pts, &tree, &opts);
        let m = proxy_matrix(&store, &act, &tree, &b, &opts, &ctx);
        assert_eq!(m.ncols(), 16);
        // Rows: both directions of every nonempty M(B) block plus the two
        // proxy blocks.
        let m_pts: usize = srsf_geometry::neighbors::dist2_ring(&b)
            .iter()
            .map(|mb| act.get(mb).len())
            .sum();
        assert_eq!(m.nrows() % 2, 0);
        assert!(m.nrows() >= 2 * m_pts + 2 * opts.n_proxy_min);
        assert!(fro_norm(&m) > 0.0);
    }

    #[test]
    fn skeleton_rank_much_smaller_than_box() {
        let (grid, k, tree) = setup(32, 64); // leaves of 64 points
        let pts = grid.points();
        let store = BlockStore::new(&k, &pts);
        let act = leaf_actives(&grid, &tree);
        let opts = FactorOpts {
            tol: 1e-6,
            ..cpqr_opts()
        };
        let ctx = CompressionCtx::new(&k, &pts, &tree, &opts);
        let b = BoxId {
            level: tree.leaf_level(),
            ix: 1,
            iy: 1,
        };
        let (id, _) = skeletonize(&store, &act, &tree, &b, &opts, &ctx);
        assert_eq!(id.rank() + id.redundant.len(), 64);
        assert!(id.rank() < 50, "rank {} should compress", id.rank());
        assert!(id.rank() > 5, "rank {} suspiciously small", id.rank());
    }

    #[test]
    fn tighter_tolerance_larger_skeleton() {
        let (grid, k, tree) = setup(32, 64);
        let pts = grid.points();
        let store = BlockStore::new(&k, &pts);
        let act = leaf_actives(&grid, &tree);
        let b = BoxId {
            level: tree.leaf_level(),
            ix: 2,
            iy: 1,
        };
        let lo = FactorOpts {
            tol: 1e-3,
            ..cpqr_opts()
        };
        let hi = FactorOpts {
            tol: 1e-9,
            ..cpqr_opts()
        };
        let ctx_lo = CompressionCtx::new(&k, &pts, &tree, &lo);
        let ctx_hi = CompressionCtx::new(&k, &pts, &tree, &hi);
        let (loose, _) = skeletonize(&store, &act, &tree, &b, &lo, &ctx_lo);
        let (tight, _) = skeletonize(&store, &act, &tree, &b, &hi, &ctx_hi);
        assert!(tight.rank() > loose.rank());
    }

    /// Exact far-field block `A_{F,B}` for the accuracy assertions below.
    fn true_far_field(
        store: &BlockStore<'_, LaplaceKernel>,
        act: &ActiveSets,
        tree: &QuadTree,
        b: &BoxId,
    ) -> Mat<f64> {
        let a_b = act.get(b);
        let mut far_rows: Vec<u32> = Vec::new();
        for other in tree.boxes_at_level(b.level) {
            if other.chebyshev(b) > 2 {
                far_rows.extend_from_slice(act.get(&other));
            }
        }
        store.eval_kernel(&far_rows, a_b)
    }

    fn assert_far_field_bound(afb: &Mat<f64>, id: &IdResult<f64>, label: &str) {
        let rows: Vec<usize> = (0..afb.nrows()).collect();
        let ar = afb.select(&rows, &id.redundant);
        let as_ = afb.select(&rows, &id.skel);
        let approx = srsf_linalg::gemm::matmul(&as_, &id.t);
        let err = srsf_linalg::norms::max_abs_diff(&ar, &approx);
        let scale = fro_norm(afb);
        assert!(
            err < 1e-5 * scale.max(1e-12),
            "{label} ID failed on true far field: {err:.3e} vs scale {scale:.3e}"
        );
    }

    /// The heart of the proxy trick: the ID computed from the O(1)-row
    /// proxy matrix must compress the *true* far-field interaction too.
    #[test]
    fn proxy_id_compresses_true_far_field() {
        let (grid, k, tree) = setup(32, 64);
        let pts = grid.points();
        let store = BlockStore::new(&k, &pts);
        let act = leaf_actives(&grid, &tree);
        let opts = FactorOpts {
            tol: 1e-8,
            ..cpqr_opts()
        };
        let ctx = CompressionCtx::new(&k, &pts, &tree, &opts);
        let lvl = tree.leaf_level();
        let b = BoxId {
            level: lvl,
            ix: 1,
            iy: 2,
        };
        let (id, tel) = skeletonize(&store, &act, &tree, &b, &opts, &ctx);
        assert_eq!(tel, CompressionTelemetry::default());
        assert_far_field_bound(&true_far_field(&store, &act, &tree, &b), &id, "CPQR");
    }

    /// The sketched path must satisfy the *same* true-far-field bound as
    /// the deterministic path at the same tolerance.
    #[test]
    fn sketched_id_compresses_true_far_field() {
        let (grid, k, tree) = setup(32, 64);
        let pts = grid.points();
        let store = BlockStore::new(&k, &pts);
        let act = leaf_actives(&grid, &tree);
        let opts = FactorOpts {
            tol: 1e-8,
            ..FactorOpts::default().with_compression(Compression::sketched())
        };
        let ctx = CompressionCtx::new(&k, &pts, &tree, &opts);
        let b = BoxId {
            level: tree.leaf_level(),
            ix: 1,
            iy: 2,
        };
        let (id, tel) = skeletonize(&store, &act, &tree, &b, &opts, &ctx);
        assert!(tel.dense_block_applies > 0, "sketch should have run");
        assert_eq!(tel.sketch_fallbacks, 0);
        assert_far_field_bound(&true_far_field(&store, &act, &tree, &b), &id, "sketched");

        // And the skeleton count agrees with the deterministic path to
        // within the oversampling slack.
        let cp = FactorOpts {
            tol: 1e-8,
            ..cpqr_opts()
        };
        let ctx_cp = CompressionCtx::new(&k, &pts, &tree, &cp);
        let (full, _) = skeletonize(&store, &act, &tree, &b, &cp, &ctx_cp);
        assert!(
            id.rank() <= full.rank() + 6 && id.rank() + 6 >= full.rank(),
            "sketched rank {} vs deterministic {}",
            id.rank(),
            full.rank()
        );
    }

    /// Tabled blocks are the kernel blocks: on an unmodified off-diagonal
    /// leaf pair `get_block` (table) must match `store.get` (kernel
    /// evaluation) — bit for bit for Laplace, whose entries are a pure
    /// function of the exact dyadic offset, and to rounding for Helmholtz,
    /// whose sqrt(b) scaling is divided out of the table and multiplied
    /// back in.
    #[test]
    fn table_blocks_match_kernel_blocks() {
        let (grid, k, tree) = setup(16, 16);
        let pts = grid.points();
        let act = leaf_actives(&grid, &tree);
        let opts = FactorOpts::default();
        let lvl = tree.leaf_level();
        let b = BoxId {
            level: lvl,
            ix: 0,
            iy: 3,
        };
        let pairs: Vec<(BoxId, BoxId)> = dist2_ring(&b)
            .into_iter()
            .flat_map(|m| [(m, b), (b, m)])
            .collect();
        assert!(!pairs.is_empty());

        let store = BlockStore::new(&k, &pts);
        let ctx = CompressionCtx::new(&k, &pts, &tree, &opts);
        assert!(ctx.symbols.is_some(), "unit grid + Laplace must tabulate");
        for (m, n) in &pairs {
            assert!(!store.contains(m, n));
            assert_eq!(
                ctx.get_block(&store, &act, m, n),
                store.get(m, n, &act),
                "Laplace {m:?} x {n:?}"
            );
        }

        let hk = HelmholtzKernel::new(&grid, 10.0);
        let hstore = BlockStore::new(&hk, &pts);
        let hctx = CompressionCtx::new(&hk, &pts, &tree, &opts);
        assert!(
            hctx.symbols.is_some(),
            "unit grid + Helmholtz must tabulate"
        );
        for (m, n) in &pairs {
            let want = hstore.get(m, n, &act);
            let got = hctx.get_block(&hstore, &act, m, n);
            assert!(
                srsf_linalg::norms::max_abs_diff(&got, &want) <= 1e-14 * fro_norm(&want),
                "Helmholtz {m:?} x {n:?}"
            );
        }
    }

    /// Scattered (non-grid) points must not detect as a grid, so no
    /// symbol table is built.
    #[test]
    fn no_symbol_table_off_grid() {
        let pts = srsf_geometry::grid::scattered_points(256, 7);
        let k = LaplaceKernel::with_params(1.0 / 256.0, 1.0);
        let tree = QuadTree::build(&pts, BBox::UNIT, 16);
        let ctx = CompressionCtx::new(&k, &pts, &tree, &FactorOpts::default());
        assert!(ctx.symbols.is_none());
    }
}
