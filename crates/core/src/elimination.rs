//! The strong skeletonization operator `Z(A; B)` (Section II-D).
//!
//! After the ID splits a box's active indices into skeletons `S` and
//! redundants `R`, the sparsification `S^* A S` decouples `R` from the far
//! field, and block Gaussian elimination of `X_RR` produces Schur updates
//! confined to `B` and its near field `N(B)` (Remark 2). This module
//! computes the elimination *record* (everything the solve phase needs)
//! and the set of block updates, without mutating the store — the three
//! drivers (sequential, box-colored, distributed) share it and differ only
//! in how they schedule the updates.

use crate::skeletonize::{skeletonize, CompressionCtx};
use crate::store::{ActiveSets, BlockStore};
use crate::{CompressionTelemetry, FactorOpts};
use srsf_geometry::neighbors::near_field;
use srsf_geometry::tree::{BoxId, QuadTree};
use srsf_kernels::kernel::Kernel;
use srsf_linalg::gemm::{adjoint_matmul_acc, adjoint_matmul_sub, matmul, matmul_sub};
use srsf_linalg::{Lu, Mat, Scalar};

/// Per-box factorization record: the pieces of `V = L S^* P^T` and
/// `W = P S U` (Eq. 10) needed to apply the inverse.
#[derive(Clone, Debug)]
pub struct BoxElimination<T> {
    /// The eliminated box.
    pub box_id: BoxId,
    /// Global point ids of the redundant DOFs (eliminated here).
    pub redundant: Vec<u32>,
    /// Global point ids of the skeleton DOFs (stay active).
    pub skel: Vec<u32>,
    /// Global point ids of the neighbors' active DOFs at elimination time
    /// (concatenated over `N(B)` in row-major box order).
    pub nbr: Vec<u32>,
    /// Interpolation matrix `T` (`|S| x |R|`).
    pub t: Mat<T>,
    /// LU of the sparsified diagonal block `X_RR`.
    pub lu: Lu<T>,
    /// `X_SR U^{-1}` (`|S| x |R|`).
    pub es: Mat<T>,
    /// `X_NR U^{-1}` (`|N| x |R|`).
    pub en: Mat<T>,
    /// `L^{-1} P X_RS` (`|R| x |S|`).
    pub fs: Mat<T>,
    /// `L^{-1} P X_RN` (`|R| x |N|`).
    pub fnb: Mat<T>,
}

impl<T: Scalar> BoxElimination<T> {
    /// Approximate heap footprint in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.t.heap_bytes()
            + self.lu.heap_bytes()
            + self.es.heap_bytes()
            + self.en.heap_bytes()
            + self.fs.heap_bytes()
            + self.fnb.heap_bytes()
            + (self.redundant.capacity() + self.skel.capacity() + self.nbr.capacity()) * 4
    }
}

/// Everything produced by eliminating one box.
pub struct EliminationOutput<T> {
    /// The solve-phase record (`None` when the box had no redundant DOFs —
    /// nothing was eliminated).
    pub record: Option<BoxElimination<T>>,
    /// Skeleton *positions* within the box's former active set.
    pub skel_positions: Vec<usize>,
    /// Replacement blocks for pairs involving `B` (restricted to `S`):
    /// `(row_box, col_box, new_block)`.
    pub replaced: Vec<(BoxId, BoxId, Mat<T>)>,
    /// Additive Schur deltas for neighbor pairs `(n_j, n_k)`.
    pub deltas: Vec<(BoxId, BoxId, Mat<T>)>,
    /// Compression path taken by this box's skeletonization (zeroed for
    /// boxes that skipped it — empty active set).
    pub compression: CompressionTelemetry,
}

/// Errors the factorization can raise.
#[derive(Debug)]
#[non_exhaustive]
pub enum FactorError {
    /// A sparsified diagonal block was singular — the compression
    /// tolerance is too loose for this kernel/geometry.
    SingularDiagonal {
        /// The box whose `X_RR` failed to factor.
        box_id: BoxId,
    },
    /// The dense top block was singular — the DOFs surviving above the
    /// compression levels form a rank-deficient system, independent of
    /// any particular box.
    SingularTop {
        /// Dimension of the dense top block.
        size: usize,
        /// Elimination step at which the pivoted LU broke down.
        step: usize,
    },
}

impl core::fmt::Display for FactorError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FactorError::SingularDiagonal { box_id } => {
                write!(f, "singular sparsified diagonal block at {box_id:?}")
            }
            FactorError::SingularTop { size, step } => {
                write!(
                    f,
                    "singular dense top block ({size} x {size}, pivot breakdown at step {step})"
                )
            }
        }
    }
}

impl std::error::Error for FactorError {}

/// Eliminate box `b`: skeletonize, sparsify, factor `X_RR`, and compute the
/// Schur updates. Pure (does not mutate `store`/`act`); apply the output
/// with [`apply_output`].
pub fn eliminate_box<K: Kernel>(
    store: &BlockStore<'_, K>,
    act: &ActiveSets,
    tree: &QuadTree,
    b: &BoxId,
    opts: &FactorOpts,
    ctx: &CompressionCtx,
) -> Result<EliminationOutput<K::Elem>, FactorError> {
    type T<K> = <K as Kernel>::Elem;
    let a_b: Vec<u32> = act.get(b).to_vec();
    if a_b.is_empty() {
        return Ok(EliminationOutput {
            record: None,
            skel_positions: Vec::new(),
            replaced: Vec::new(),
            deltas: Vec::new(),
            compression: CompressionTelemetry::default(),
        });
    }

    let (id, compression) = skeletonize(store, act, tree, b, opts, ctx);
    let skel_positions = id.skel.clone();
    let red_positions = id.redundant.clone();
    if red_positions.is_empty() {
        // Nothing to eliminate; the box keeps its full active set.
        return Ok(EliminationOutput {
            record: None,
            skel_positions,
            replaced: Vec::new(),
            deltas: Vec::new(),
            compression,
        });
    }
    let t = id.t; // |S| x |R|

    // Gather current blocks.
    let a_bb = store.get(b, b, act);
    let a_rr = a_bb.select(&red_positions, &red_positions);
    let a_rs = a_bb.select(&red_positions, &skel_positions);
    let a_sr = a_bb.select(&skel_positions, &red_positions);
    let a_ss = a_bb.select(&skel_positions, &skel_positions);

    // Neighbor boxes with nonempty active sets, fixed row-major order.
    let nbrs: Vec<BoxId> = near_field(b)
        .into_iter()
        .filter(|n| !act.get(n).is_empty())
        .collect();
    let nbr_sizes: Vec<usize> = nbrs.iter().map(|n| act.get(n).len()).collect();
    let n_total: usize = nbr_sizes.iter().sum();

    // Stacked A_{N,B} and A_{B,N}.
    let nb_len = a_b.len();
    let mut a_nb = Mat::<T<K>>::zeros(n_total, nb_len);
    let mut a_bn = Mat::<T<K>>::zeros(nb_len, n_total);
    {
        let mut r0 = 0;
        for n in &nbrs {
            let blk = ctx.get_block(store, act, n, b);
            a_nb.set_block(r0, 0, &blk);
            r0 += blk.nrows();
        }
        let mut c0 = 0;
        for n in &nbrs {
            let blk = ctx.get_block(store, act, b, n);
            a_bn.set_block(0, c0, &blk);
            c0 += blk.ncols();
        }
    }
    let all_rows: Vec<usize> = (0..n_total).collect();
    let a_nr = a_nb.select(&all_rows, &red_positions);
    let a_ns = a_nb.select(&all_rows, &skel_positions);
    let a_rn = {
        let cols: Vec<usize> = (0..n_total).collect();
        a_bn.select(&red_positions, &cols)
    };
    let a_sn = {
        let cols: Vec<usize> = (0..n_total).collect();
        a_bn.select(&skel_positions, &cols)
    };

    // Sparsification: X_RR = A_RR - T^H A_SR - A_RS T + T^H A_SS T, etc.
    let mut x_rr = a_rr;
    adjoint_matmul_sub(&mut x_rr, &t, &a_sr); // -= T^H A_SR
    let a_ss_t = matmul(&a_ss, &t);
    // -= A_RS T  and  += T^H (A_SS T), accumulated in place.
    matmul_sub(&mut x_rr, &a_rs, &t);
    adjoint_matmul_acc(&mut x_rr, T::<K>::ONE, &t, &a_ss_t);

    let mut x_sr = a_sr;
    x_sr.axpy(-T::<K>::ONE, &a_ss_t); // X_SR = A_SR - A_SS T
    let mut x_rs = a_rs;
    adjoint_matmul_sub(&mut x_rs, &t, &a_ss); // X_RS = A_RS - T^H A_SS
    let mut x_nr = a_nr;
    matmul_sub(&mut x_nr, &a_ns, &t); // X_NR = A_NR - A_NS T
    let mut x_rn = a_rn;
    adjoint_matmul_sub(&mut x_rn, &t, &a_sn); // X_RN = A_RN - T^H A_SN

    // Factor the redundant diagonal block.
    let lu = Lu::factor(x_rr).map_err(|_| FactorError::SingularDiagonal { box_id: *b })?;

    // Coupling matrices: ES = X_SR U^{-1}, EN = X_NR U^{-1},
    //                    FS = L^{-1} P X_RS, FN = L^{-1} P X_RN.
    let mut es = x_sr;
    lu.solve_upper_right(&mut es);
    let mut en = x_nr;
    lu.solve_upper_right(&mut en);
    let mut fs = x_rs;
    lu.forward_mat(&mut fs);
    let mut fnb = x_rn;
    lu.forward_mat(&mut fnb);

    // Replacement blocks (post-Schur) for pairs involving B.
    let mut replaced = Vec::with_capacity(1 + 2 * nbrs.len());
    let mut new_ss = a_ss;
    matmul_sub(&mut new_ss, &es, &fs);
    replaced.push((*b, *b, new_ss));
    {
        // (B, n_j): A_SN_j - ES FN_j ; (n_j, B): A_NS_j - EN_j FS.
        let sn_minus = {
            let mut m = a_sn;
            matmul_sub(&mut m, &es, &fnb);
            m
        };
        let ns_minus = {
            let mut m = a_ns;
            matmul_sub(&mut m, &en, &fs);
            m
        };
        let mut off = 0;
        for (j, n) in nbrs.iter().enumerate() {
            let w = nbr_sizes[j];
            let cols: Vec<usize> = (off..off + w).collect();
            let all_s: Vec<usize> = (0..skel_positions.len()).collect();
            replaced.push((*b, *n, sn_minus.select(&all_s, &cols)));
            replaced.push((*n, *b, ns_minus.select(&cols, &all_s).clone()));
            off += w;
        }
    }

    // Schur deltas for neighbor pairs: delta(n_j, n_k) = -EN_j FN_k.
    let full = matmul(&en, &fnb); // |N| x |N|
    let mut deltas = Vec::new();
    let mut roff = 0;
    for (j, nj) in nbrs.iter().enumerate() {
        let rows: Vec<usize> = (roff..roff + nbr_sizes[j]).collect();
        let mut coff = 0;
        for (k, nk) in nbrs.iter().enumerate() {
            let cols: Vec<usize> = (coff..coff + nbr_sizes[k]).collect();
            let mut d = full.select(&rows, &cols);
            d.scale_assign(-T::<K>::ONE);
            deltas.push((*nj, *nk, d));
            coff += nbr_sizes[k];
        }
        roff += nbr_sizes[j];
    }

    let record = BoxElimination {
        box_id: *b,
        redundant: red_positions.iter().map(|&p| a_b[p]).collect(),
        skel: skel_positions.iter().map(|&p| a_b[p]).collect(),
        nbr: nbrs
            .iter()
            .flat_map(|n| act.get(n).iter().copied())
            .collect(),
        t,
        lu,
        es,
        en,
        fs,
        fnb,
    };

    Ok(EliminationOutput {
        record: Some(record),
        skel_positions,
        replaced,
        deltas,
        compression,
    })
}

/// Apply an elimination output to the store and active sets: shrink the
/// box's stored pairs, install the replacement blocks, accumulate the
/// Schur deltas, and shrink the active set.
pub fn apply_output<K: Kernel>(
    store: &mut BlockStore<'_, K>,
    act: &mut ActiveSets,
    b: &BoxId,
    out: &EliminationOutput<K::Elem>,
    ctx: &CompressionCtx,
) {
    if out.record.is_none() {
        // Either empty box or full-rank ID: nothing changes.
        return;
    }
    // 1. Restrict stored far-ring pairs involving B to the skeleton rows/cols.
    store.shrink_box(b, &out.skel_positions);
    // 2. Install replacement blocks (the (B,B), (B,n), (n,B) pairs).
    for (ra, rb, m) in &out.replaced {
        store.insert(*ra, *rb, m.clone());
    }
    // 3. Shrink the active set.
    let skel_ids = out
        .record
        .as_ref()
        .map(|r| r.skel.clone())
        .unwrap_or_default();
    act.set(*b, skel_ids);
    // 4. Accumulate Schur deltas on neighbor pairs. A delta's first touch
    // materializes the pair's base block; go through the compression
    // context so unmodified off-diagonal pairs fill from the symbol table
    // instead of per-entry kernel evaluations.
    for (na, nb, d) in &out.deltas {
        if na != nb && !store.contains(na, nb) {
            let base = ctx.get_block(store, act, na, nb);
            store.insert(*na, *nb, base);
        }
        store.add_delta(*na, *nb, d, act);
    }
}
