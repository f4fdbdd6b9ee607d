//! Triangular solves (TRSM/TRSV equivalents).
//!
//! The elimination step of the factorization needs all four orientations:
//! `L^{-1} B` and `U^{-1} B` for building the coupling matrices, and
//! `B U^{-1}` / `B L^{-1}` for the Schur factors multiplied from the right.
//! The matrix variants are blocked: the triangle is cut into `NB x NB`
//! diagonal blocks that are solved with the level-2 kernels, and the bulk
//! of the work — propagating each solved block into the remaining rows or
//! columns — rides the cache-blocked GEMM ([`crate::gemm`]). The
//! per-column level-2 forms are kept as `*_unblocked` reference oracles.

use crate::gemm::gemm_acc_block;
use crate::mat::Mat;
use crate::scalar::Scalar;

/// Diagonal-block size of the blocked TRSM forms.
const NB: usize = 64;

/// In-place `b := L^{-1} b` with `L` lower triangular (vector RHS).
pub fn solve_lower_vec<T: Scalar>(l: &Mat<T>, unit_diag: bool, b: &mut [T]) {
    let n = l.nrows();
    assert_eq!(l.ncols(), n);
    assert_eq!(b.len(), n);
    solve_lower_diag_block(l, 0, unit_diag, b);
}

/// In-place `b := U^{-1} b` with `U` upper triangular (vector RHS).
pub fn solve_upper_vec<T: Scalar>(u: &Mat<T>, unit_diag: bool, b: &mut [T]) {
    let n = u.nrows();
    assert_eq!(u.ncols(), n);
    assert_eq!(b.len(), n);
    solve_upper_diag_block(u, 0, unit_diag, b);
}

/// `x := L11^{-1} x` for the diagonal block `L11 = L[j0.., j0..]` of
/// `x.len()` rows, read from `l` in place rather than copied out.
fn solve_lower_diag_block<T: Scalar>(l: &Mat<T>, j0: usize, unit_diag: bool, x: &mut [T]) {
    let nb = x.len();
    for j in 0..nb {
        if !unit_diag {
            x[j] /= l[(j0 + j, j0 + j)];
        }
        let xj = x[j];
        if xj == T::ZERO {
            continue;
        }
        let col = &l.col(j0 + j)[j0 + j + 1..j0 + nb];
        for (xi, &lij) in x[j + 1..].iter_mut().zip(col) {
            *xi -= lij * xj;
        }
    }
}

/// `x := U11^{-1} x` for the diagonal block `U11 = U[j0.., j0..]` of
/// `x.len()` rows, read from `u` in place rather than copied out.
fn solve_upper_diag_block<T: Scalar>(u: &Mat<T>, j0: usize, unit_diag: bool, x: &mut [T]) {
    for j in (0..x.len()).rev() {
        if !unit_diag {
            x[j] /= u[(j0 + j, j0 + j)];
        }
        let xj = x[j];
        if xj == T::ZERO {
            continue;
        }
        let col = &u.col(j0 + j)[j0..j0 + j];
        for (xi, &uij) in x[..j].iter_mut().zip(col) {
            *xi -= uij * xj;
        }
    }
}

/// In-place `B := L^{-1} B`, matrix RHS (blocked).
pub fn solve_lower_mat<T: Scalar>(l: &Mat<T>, unit_diag: bool, b: &mut Mat<T>) {
    let n = l.nrows();
    assert_eq!(l.nrows(), b.nrows());
    if n <= NB || b.ncols() == 0 {
        return solve_lower_mat_unblocked(l, unit_diag, b);
    }
    let ncols = b.ncols();
    let mut j0 = 0;
    while j0 < n {
        let nb = NB.min(n - j0);
        // Solve the diagonal block against rows j0..j0+nb of B.
        let mut b1 = b.block(j0, 0, nb, ncols);
        for c in 0..ncols {
            solve_lower_diag_block(l, j0, unit_diag, b1.col_mut(c));
        }
        b.set_block(j0, 0, &b1);
        // Propagate: B[j0+nb.., :] -= L[j0+nb.., j0..j0+nb] * B1.
        if j0 + nb < n {
            gemm_acc_block(
                b,
                (j0 + nb, 0, n - j0 - nb, ncols),
                -T::ONE,
                l,
                (j0 + nb, j0, n - j0 - nb, nb),
                &b1,
                (0, 0, nb, ncols),
            );
        }
        j0 += nb;
    }
}

/// In-place `B := U^{-1} B`, matrix RHS (blocked).
pub fn solve_upper_mat<T: Scalar>(u: &Mat<T>, unit_diag: bool, b: &mut Mat<T>) {
    let n = u.nrows();
    assert_eq!(u.nrows(), b.nrows());
    if n <= NB || b.ncols() == 0 {
        return solve_upper_mat_unblocked(u, unit_diag, b);
    }
    let ncols = b.ncols();
    let mut jend = n;
    while jend > 0 {
        let nb = NB.min(jend);
        let j0 = jend - nb;
        let mut b1 = b.block(j0, 0, nb, ncols);
        for c in 0..ncols {
            solve_upper_diag_block(u, j0, unit_diag, b1.col_mut(c));
        }
        b.set_block(j0, 0, &b1);
        // Propagate upward: B[..j0, :] -= U[..j0, j0..jend] * B1.
        if j0 > 0 {
            gemm_acc_block(
                b,
                (0, 0, j0, ncols),
                -T::ONE,
                u,
                (0, j0, j0, nb),
                &b1,
                (0, 0, nb, ncols),
            );
        }
        jend = j0;
    }
}

/// Per-column form of [`solve_lower_mat`]: its path for triangles of at
/// most `NB` rows, and the test oracle.
#[doc(hidden)]
pub fn solve_lower_mat_unblocked<T: Scalar>(l: &Mat<T>, unit_diag: bool, b: &mut Mat<T>) {
    assert_eq!(l.nrows(), b.nrows());
    for j in 0..b.ncols() {
        solve_lower_vec(l, unit_diag, b.col_mut(j));
    }
}

/// Per-column form of [`solve_upper_mat`]: its path for triangles of at
/// most `NB` rows, and the test oracle.
#[doc(hidden)]
pub fn solve_upper_mat_unblocked<T: Scalar>(u: &Mat<T>, unit_diag: bool, b: &mut Mat<T>) {
    assert_eq!(u.nrows(), b.nrows());
    for j in 0..b.ncols() {
        solve_upper_vec(u, unit_diag, b.col_mut(j));
    }
}

/// In-place `B := B U^{-1}` (upper triangular from the right, blocked).
///
/// Column block `J` of the result depends on result blocks `< J`:
/// `X[:, J] = (B[:, J] - X[:, <J] U[<J, J]) U[J,J]^{-1}`.
pub fn solve_upper_right_mat<T: Scalar>(b: &mut Mat<T>, u: &Mat<T>, unit_diag: bool) {
    let n = u.nrows();
    assert_eq!(u.ncols(), n);
    assert_eq!(b.ncols(), n);
    if n <= NB || b.nrows() == 0 {
        return solve_upper_right_mat_unblocked(b, u, unit_diag);
    }
    let m = b.nrows();
    let mut j0 = 0;
    while j0 < n {
        let nb = NB.min(n - j0);
        // B[:, j0..j0+nb] -= X[:, ..j0] * U[..j0, j0..j0+nb].
        if j0 > 0 {
            let solved = b.block(0, 0, m, j0);
            gemm_acc_block(
                b,
                (0, j0, m, nb),
                -T::ONE,
                &solved,
                (0, 0, m, j0),
                u,
                (0, j0, j0, nb),
            );
        }
        // Diagonal right-solve on the block.
        let u11 = u.block(j0, j0, nb, nb);
        let mut b1 = b.block(0, j0, m, nb);
        solve_upper_right_mat_unblocked(&mut b1, &u11, unit_diag);
        b.set_block(0, j0, &b1);
        j0 += nb;
    }
}

/// In-place `B := B L^{-1}` (lower triangular from the right, blocked).
pub fn solve_lower_right_mat<T: Scalar>(b: &mut Mat<T>, l: &Mat<T>, unit_diag: bool) {
    let n = l.nrows();
    assert_eq!(l.ncols(), n);
    assert_eq!(b.ncols(), n);
    if n <= NB || b.nrows() == 0 {
        return solve_lower_right_mat_unblocked(b, l, unit_diag);
    }
    let m = b.nrows();
    let mut jend = n;
    while jend > 0 {
        let nb = NB.min(jend);
        let j0 = jend - nb;
        // B[:, j0..jend] -= X[:, jend..] * L[jend.., j0..jend].
        if jend < n {
            let solved = b.block(0, jend, m, n - jend);
            gemm_acc_block(
                b,
                (0, j0, m, nb),
                -T::ONE,
                &solved,
                (0, 0, m, n - jend),
                l,
                (jend, j0, n - jend, nb),
            );
        }
        let l11 = l.block(j0, j0, nb, nb);
        let mut b1 = b.block(0, j0, m, nb);
        solve_lower_right_mat_unblocked(&mut b1, &l11, unit_diag);
        b.set_block(0, j0, &b1);
        jend = j0;
    }
}

/// Reference form of [`solve_upper_right_mat`] (test oracle and
/// diagonal-block kernel).
#[doc(hidden)]
pub fn solve_upper_right_mat_unblocked<T: Scalar>(b: &mut Mat<T>, u: &Mat<T>, unit_diag: bool) {
    let n = u.nrows();
    assert_eq!(u.ncols(), n);
    assert_eq!(b.ncols(), n);
    let m = b.nrows();
    for j in 0..n {
        let ucol: Vec<T> = u.col(j).to_vec();
        for l in 0..j {
            let s = ucol[l];
            if s == T::ZERO {
                continue;
            }
            let (xl, xj) = b.cols_mut_pair(l, j);
            for i in 0..m {
                xj[i] -= xl[i] * s;
            }
        }
        if !unit_diag {
            let d = ucol[j];
            for v in b.col_mut(j) {
                *v /= d;
            }
        }
    }
}

/// Reference form of [`solve_lower_right_mat`] (test oracle and
/// diagonal-block kernel).
#[doc(hidden)]
pub fn solve_lower_right_mat_unblocked<T: Scalar>(b: &mut Mat<T>, l: &Mat<T>, unit_diag: bool) {
    let n = l.nrows();
    assert_eq!(l.ncols(), n);
    assert_eq!(b.ncols(), n);
    let m = b.nrows();
    for j in (0..n).rev() {
        let lcol: Vec<T> = l.col(j).to_vec();
        for k in (j + 1)..n {
            let s = lcol[k];
            if s == T::ZERO {
                continue;
            }
            let (xk, xj) = b.cols_mut_pair(k, j);
            for i in 0..m {
                xj[i] -= xk[i] * s;
            }
        }
        if !unit_diag {
            let d = lcol[j];
            for v in b.col_mut(j) {
                *v /= d;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::c64;
    use crate::gemm::matmul;
    use crate::norms::max_abs_diff;

    fn lower(n: usize) -> Mat<f64> {
        Mat::from_fn(n, n, |i, j| {
            if i > j {
                0.3 * (i as f64 - j as f64)
            } else if i == j {
                2.0 + i as f64
            } else {
                0.0
            }
        })
    }

    fn upper(n: usize) -> Mat<f64> {
        lower(n).transpose()
    }

    #[test]
    fn lower_vec_roundtrip() {
        let l = lower(5);
        let x: Vec<f64> = (0..5).map(|i| i as f64 - 2.0).collect();
        let mut b = l.matvec(&x);
        solve_lower_vec(&l, false, &mut b);
        for (a, e) in b.iter().zip(x.iter()) {
            assert!((a - e).abs() < 1e-12);
        }
    }

    #[test]
    fn upper_vec_roundtrip() {
        let u = upper(5);
        let x: Vec<f64> = (0..5).map(|i| (i * i) as f64 * 0.1 - 1.0).collect();
        let mut b = u.matvec(&x);
        solve_upper_vec(&u, false, &mut b);
        for (a, e) in b.iter().zip(x.iter()) {
            assert!((a - e).abs() < 1e-12);
        }
    }

    #[test]
    fn unit_diagonal_variants() {
        let mut l = lower(4);
        for i in 0..4 {
            l[(i, i)] = 1.0;
        }
        let x = vec![1.0, -2.0, 0.5, 3.0];
        let mut b = l.matvec(&x);
        solve_lower_vec(&l, true, &mut b);
        for (a, e) in b.iter().zip(x.iter()) {
            assert!((a - e).abs() < 1e-12);
        }
    }

    #[test]
    fn matrix_left_solves() {
        let l = lower(4);
        let u = upper(4);
        let x = Mat::from_fn(4, 3, |i, j| (i + j) as f64 - 1.5);
        let mut bl = matmul(&l, &x);
        solve_lower_mat(&l, false, &mut bl);
        assert!(max_abs_diff(&bl, &x) < 1e-12);
        let mut bu = matmul(&u, &x);
        solve_upper_mat(&u, false, &mut bu);
        assert!(max_abs_diff(&bu, &x) < 1e-12);
    }

    /// The blocked matrix solves must agree with the per-column forms on
    /// systems big enough to engage the block path.
    #[test]
    fn blocked_left_solves_match_unblocked() {
        let n = 150; // > NB so at least three blocks
        let l = lower(n);
        let u = upper(n);
        let b0 = Mat::from_fn(n, 37, |i, j| ((i * 7 + j * 13) % 23) as f64 * 0.1 - 1.0);
        for unit in [false, true] {
            let mut b_blocked = b0.clone();
            let mut b_ref = b0.clone();
            solve_lower_mat(&l, unit, &mut b_blocked);
            solve_lower_mat_unblocked(&l, unit, &mut b_ref);
            let scale = crate::norms::fro_norm(&b_ref).max(1.0);
            assert!(max_abs_diff(&b_blocked, &b_ref) < 1e-12 * scale);

            let mut c_blocked = b0.clone();
            let mut c_ref = b0.clone();
            solve_upper_mat(&u, unit, &mut c_blocked);
            solve_upper_mat_unblocked(&u, unit, &mut c_ref);
            let scale = crate::norms::fro_norm(&c_ref).max(1.0);
            assert!(max_abs_diff(&c_blocked, &c_ref) < 1e-12 * scale);
        }
    }

    #[test]
    fn blocked_right_solves_match_unblocked() {
        let n = 150;
        let l = lower(n);
        let u = upper(n);
        let b0 = Mat::from_fn(29, n, |i, j| ((i * 11 + j * 3) % 17) as f64 * 0.2 - 1.5);
        for unit in [false, true] {
            let mut b_blocked = b0.clone();
            let mut b_ref = b0.clone();
            solve_upper_right_mat(&mut b_blocked, &u, unit);
            solve_upper_right_mat_unblocked(&mut b_ref, &u, unit);
            let scale = crate::norms::fro_norm(&b_ref).max(1.0);
            assert!(max_abs_diff(&b_blocked, &b_ref) < 1e-12 * scale);

            let mut c_blocked = b0.clone();
            let mut c_ref = b0.clone();
            solve_lower_right_mat(&mut c_blocked, &l, unit);
            solve_lower_right_mat_unblocked(&mut c_ref, &l, unit);
            let scale = crate::norms::fro_norm(&c_ref).max(1.0);
            assert!(max_abs_diff(&c_blocked, &c_ref) < 1e-12 * scale);
        }
    }

    #[test]
    fn matrix_right_solves() {
        let u = upper(4);
        let x = Mat::from_fn(3, 4, |i, j| (2 * i + j) as f64 * 0.25 - 1.0);
        let mut b = matmul(&x, &u);
        solve_upper_right_mat(&mut b, &u, false);
        assert!(max_abs_diff(&b, &x) < 1e-12);

        let l = lower(4);
        let mut b2 = matmul(&x, &l);
        solve_lower_right_mat(&mut b2, &l, false);
        assert!(max_abs_diff(&b2, &x) < 1e-12);
    }

    #[test]
    fn right_solves_unit_diag() {
        let mut u = upper(4);
        let mut l = lower(4);
        for i in 0..4 {
            u[(i, i)] = 1.0;
            l[(i, i)] = 1.0;
        }
        let x = Mat::from_fn(2, 4, |i, j| (i * 4 + j) as f64 * 0.1);
        let mut b = matmul(&x, &u);
        solve_upper_right_mat(&mut b, &u, true);
        assert!(max_abs_diff(&b, &x) < 1e-12);
        let mut b2 = matmul(&x, &l);
        solve_lower_right_mat(&mut b2, &l, true);
        assert!(max_abs_diff(&b2, &x) < 1e-12);
    }

    #[test]
    fn complex_triangular() {
        let l = Mat::from_fn(3, 3, |i, j| {
            if i >= j {
                c64::new(1.0 + i as f64, 0.5 * j as f64)
            } else {
                c64::ZERO
            }
        });
        let x = vec![c64::new(1.0, 1.0), c64::new(-1.0, 0.0), c64::new(0.0, 2.0)];
        let mut b = l.matvec(&x);
        solve_lower_vec(&l, false, &mut b);
        for (a, e) in b.iter().zip(x.iter()) {
            assert!((*a - *e).norm() < 1e-12);
        }
    }
}
