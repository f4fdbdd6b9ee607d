//! The solution phase (Section II-F): applying the approximate inverse.
//!
//! `A^{-1} ~= W_1 … W_k · TOP^{-1} · V_k … V_1`: an upward pass applies the
//! `V` factors in elimination order, the dense top block is solved, and a
//! downward pass applies the `W` factors in reverse order. Each record
//! touches only its box's redundant/skeleton entries and its neighbors'
//! active entries — the locality that makes the distributed solve possible.
//!
//! There is one sweep, over an `n x nrhs` [`Mat`]: row-block
//! gather/scatter plus `T^H B_S`, `L^{-1} P B_R` and the Schur
//! subtractions as GEMM and blocked-TRSM calls into `srsf-linalg`. A
//! single right-hand side is the one-column block. The resident
//! distributed service applies the same per-record halves
//! (`upward_parts`/`merge_upward`, `downward_parts`) on the rank that
//! owns each record, so its solutions match this sweep bit for bit.

use crate::elimination::BoxElimination;
use crate::sequential::Factorization;
use srsf_linalg::gemm::{adjoint_matmul_sub, matmul, matmul_sub};
use srsf_linalg::{Mat, Scalar};

/// The compute half of the upward record application: returns
/// `(B_R, B_S, EN B_R)` where `B_R` and `B_S` are the updated
/// redundant/skeleton row blocks and `EN B_R` is the *additive* neighbor
/// delta, left unapplied because the resident service ships the rows of
/// it that other ranks own.
pub(crate) fn upward_parts<T: Scalar>(
    rec: &BoxElimination<T>,
    b: &Mat<T>,
) -> (Mat<T>, Mat<T>, Mat<T>) {
    let mut br = b.gather_rows(&rec.redundant);
    let mut bs = b.gather_rows(&rec.skel);
    // B_R -= T^H B_S
    adjoint_matmul_sub(&mut br, &rec.t, &bs);
    // B_R := L^{-1} P B_R
    rec.lu.forward_mat(&mut br);
    // B_S -= ES B_R ; neighbor delta EN B_R is handed back for the merge.
    matmul_sub(&mut bs, &rec.es, &br);
    let dn = matmul(&rec.en, &br);
    (br, bs, dn)
}

/// Merge half of the upward application: overwrite the box's own row
/// blocks, subtract the neighbor delta.
pub(crate) fn merge_upward<T: Scalar>(
    rec: &BoxElimination<T>,
    b: &mut Mat<T>,
    br: Mat<T>,
    bs: Mat<T>,
    dn: Mat<T>,
) {
    b.scatter_rows(&rec.redundant, &br);
    b.scatter_rows(&rec.skel, &bs);
    b.scatter_rows_sub(&rec.nbr, &dn);
}

/// The compute half of the downward record application:
/// returns the updated `(B_R, B_S)` row blocks. Downward writes touch
/// only the box's own rows, so no delta is needed.
pub(crate) fn downward_parts<T: Scalar>(rec: &BoxElimination<T>, b: &Mat<T>) -> (Mat<T>, Mat<T>) {
    let mut br = b.gather_rows(&rec.redundant);
    let mut bs = b.gather_rows(&rec.skel);
    let bn = b.gather_rows(&rec.nbr);
    // B_R -= FS B_S + FN B_N
    matmul_sub(&mut br, &rec.fs, &bs);
    matmul_sub(&mut br, &rec.fnb, &bn);
    // B_R := U^{-1} B_R
    rec.lu.backward_mat(&mut br);
    // B_S -= T B_R
    matmul_sub(&mut bs, &rec.t, &br);
    (br, bs)
}

/// Full solve: upward pass, dense top solve (one blocked triangular
/// pair over all columns), downward pass.
pub(crate) fn apply_inverse_mat<T: Scalar>(f: &Factorization<T>, b: &mut Mat<T>) {
    assert_eq!(b.nrows(), f.n, "right-hand side row count mismatch");
    for rec in &f.records {
        let (br, bs, dn) = upward_parts(rec, b);
        merge_upward(rec, b, br, bs, dn);
    }
    let mut top = b.gather_rows(&f.top_idx);
    f.top_lu.solve_mat(&mut top);
    b.scatter_rows(&f.top_idx, &top);
    for rec in f.records.iter().rev() {
        let (br, bs) = downward_parts(rec, b);
        b.scatter_rows(&rec.redundant, &br);
        b.scatter_rows(&rec.skel, &bs);
    }
}
