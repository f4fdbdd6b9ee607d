//! End-to-end correctness of the sequential factorization against dense
//! reference solves, for both paper kernels.

use srsf_core::{FactorOpts, Factorized};
use srsf_geometry::grid::UnitGrid;
use srsf_kernels::assemble::assemble_dense;
use srsf_kernels::helmholtz::HelmholtzKernel;
use srsf_kernels::laplace::LaplaceKernel;
use srsf_kernels::util::random_vector;
use srsf_linalg::{c64, DenseOp, LinOp, Lu, Scalar};

fn relres<T: Scalar>(a: &DenseOp<T>, x: &[T], b: &[T]) -> f64 {
    srsf_linalg::relative_residual(a, x, b)
}

mod common;
use common::factorize;

#[test]
fn laplace_factorization_solves_to_tolerance() {
    let grid = UnitGrid::new(32); // N = 1024
    let kernel = LaplaceKernel::new(&grid);
    let pts = grid.points();
    let opts = FactorOpts::default().with_tol(1e-8).with_leaf_size(16);
    let f = factorize(&kernel, &pts, &opts).expect("factorization");
    assert_eq!(f.n(), 1024);
    assert!(f.n_records() > 0, "compression must have happened");

    let a = DenseOp::new(assemble_dense(&kernel, &pts));
    let b = random_vector::<f64>(1024, 42);
    let x = f.solve(&b);
    let r = relres(&a, &x, &b);
    assert!(r < 1e-5, "relres {r:.3e} too large for tol 1e-8");
}

#[test]
fn laplace_matches_dense_lu_solution() {
    let grid = UnitGrid::new(16); // N = 256
    let kernel = LaplaceKernel::new(&grid);
    let pts = grid.points();
    let opts = FactorOpts::default()
        .with_tol(1e-10)
        .with_leaf_size(16)
        .with_min_compress_level(2);
    let f = factorize(&kernel, &pts, &opts).unwrap();
    let a = assemble_dense(&kernel, &pts);
    let b = random_vector::<f64>(256, 7);
    let x = f.solve(&b);
    let mut xd = b.clone();
    Lu::factor(a).unwrap().solve_vec(&mut xd);
    let diff = srsf_linalg::vecops::rel_diff(&x, &xd);
    assert!(diff < 1e-6, "solution mismatch {diff:.3e}");
}

#[test]
fn tighter_tolerance_improves_residual() {
    let grid = UnitGrid::new(32);
    let kernel = LaplaceKernel::new(&grid);
    let pts = grid.points();
    let a = DenseOp::new(assemble_dense(&kernel, &pts));
    let b = random_vector::<f64>(grid.n(), 3);
    let mut last = f64::INFINITY;
    for tol in [1e-3, 1e-6, 1e-9] {
        let opts = FactorOpts::default().with_tol(tol).with_leaf_size(16);
        let f = factorize(&kernel, &pts, &opts).unwrap();
        let r = relres(&a, &f.solve(&b), &b);
        assert!(
            r < last * 2.0,
            "residual should not degrade as tol tightens: {r:.3e} vs {last:.3e}"
        );
        assert!(r < tol * 1e3, "tol {tol:.0e} gave relres {r:.3e}");
        last = r;
    }
    assert!(last < 1e-6);
}

#[test]
fn helmholtz_factorization_solves_to_tolerance() {
    let grid = UnitGrid::new(32); // N = 1024
    let kappa = 15.0;
    let kernel = HelmholtzKernel::new(&grid, kappa);
    let pts = grid.points();
    let opts = FactorOpts::default().with_tol(1e-8).with_leaf_size(16);
    let f = factorize(&kernel, &pts, &opts).expect("factorization");
    let a = DenseOp::new(assemble_dense(&kernel, &pts));
    let b = random_vector::<c64>(1024, 11);
    let x = f.solve(&b);
    let r = relres(&a, &x, &b);
    assert!(r < 1e-5, "Helmholtz relres {r:.3e}");
}

#[test]
fn factorization_is_a_good_preconditioner_operator() {
    // Applying F then A should be close to identity.
    let grid = UnitGrid::new(16);
    let kernel = LaplaceKernel::new(&grid);
    let pts = grid.points();
    let opts = FactorOpts::default()
        .with_tol(1e-6)
        .with_leaf_size(16)
        .with_min_compress_level(2);
    let f = factorize(&kernel, &pts, &opts).unwrap();
    let a = DenseOp::new(assemble_dense(&kernel, &pts));
    let v = random_vector::<f64>(256, 5);
    let av = a.apply(&v);
    let round = f.apply(&av); // F(A v) ~= v
    let diff = srsf_linalg::vecops::rel_diff(&round, &v);
    assert!(diff < 1e-3, "F A v != v: {diff:.3e}");
}

#[test]
fn stats_record_ranks_and_memory() {
    let grid = UnitGrid::new(32);
    let kernel = LaplaceKernel::new(&grid);
    let pts = grid.points();
    let opts = FactorOpts::default().with_tol(1e-6).with_leaf_size(16);
    let f = factorize(&kernel, &pts, &opts).unwrap();
    let stats = f.stats();
    assert_eq!(stats.n, 1024);
    let table = stats.rank_table();
    assert!(!table.is_empty());
    for (_, avg) in &table {
        assert!(*avg > 0.0 && *avg < 64.0);
    }
    assert!(f.memory_bytes() > 0);
    assert!(f.top_size() > 0);
    assert!(stats.total_s > 0.0);
}

#[test]
fn small_problem_falls_back_to_dense() {
    // N small enough that the tree never reaches the compression level.
    let grid = UnitGrid::new(8); // N = 64, leaf_size 64 -> leaf level 0
    let kernel = LaplaceKernel::new(&grid);
    let pts = grid.points();
    let f = factorize(&kernel, &pts, &FactorOpts::default()).unwrap();
    assert_eq!(f.n_records(), 0);
    assert_eq!(f.top_size(), 64);
    let a = DenseOp::new(assemble_dense(&kernel, &pts));
    let b = random_vector::<f64>(64, 1);
    let x = f.solve(&b);
    assert!(relres(&a, &x, &b) < 1e-12, "dense fallback must be exact");
}
