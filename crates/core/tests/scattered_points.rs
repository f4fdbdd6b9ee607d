//! The sequential factorization on *non-uniform* point clouds: uneven leaf
//! populations, empty boxes, and clustered geometry. The paper's perfect-
//! tree assumption is presentational ("extensions are straightforward");
//! the implementation must not silently depend on grid structure.

use srsf_core::{FactorOpts, Factorized};
use srsf_geometry::grid::scattered_points;
use srsf_geometry::point::Point;
use srsf_kernels::assemble::assemble_dense;
use srsf_kernels::laplace::LaplaceKernel;
use srsf_kernels::util::random_vector;
use srsf_linalg::{DenseOp, Lu};

mod common;
use common::factorize;

/// Second-kind-style system: identity diagonal + smooth log kernel.
/// Well-conditioned regardless of the point distribution.
fn second_kind_kernel() -> LaplaceKernel {
    LaplaceKernel::with_params(0.05, 1.0)
}

fn check_cloud(pts: &[Point], tol_solution: f64) {
    let kernel = second_kind_kernel();
    let opts = FactorOpts::default()
        .with_tol(1e-9)
        .with_leaf_size(16)
        .with_min_compress_level(2);
    let f = factorize(&kernel, pts, &opts).expect("factorization");
    let a = assemble_dense(&kernel, pts);
    let b = random_vector::<f64>(pts.len(), 3);
    let x = f.solve(&b);
    let op = DenseOp::new(a.clone());
    let r = srsf_linalg::relative_residual(&op, &x, &b);
    assert!(r < tol_solution, "relres {r:.3e} on {} points", pts.len());
    // And against the dense LU solution.
    let mut xd = b.clone();
    Lu::factor(a).unwrap().solve_vec(&mut xd);
    let diff = srsf_linalg::vecops::rel_diff(&x, &xd);
    assert!(diff < tol_solution, "solution diff {diff:.3e}");
}

#[test]
fn uniform_random_cloud() {
    let pts = scattered_points(900, 42);
    check_cloud(&pts, 1e-6);
}

#[test]
fn clustered_cloud_with_empty_boxes() {
    // Two tight clusters in opposite corners: most tree boxes are empty.
    let mut pts = Vec::new();
    for p in scattered_points(400, 7) {
        pts.push(Point::new(0.02 + 0.2 * p.x, 0.02 + 0.2 * p.y));
    }
    for p in scattered_points(400, 8) {
        pts.push(Point::new(0.78 + 0.2 * p.x, 0.78 + 0.2 * p.y));
    }
    check_cloud(&pts, 1e-6);
}

#[test]
fn line_like_cloud() {
    // Points concentrated near a curve (boundary-IE-like geometry).
    let pts: Vec<Point> = (0..600)
        .map(|i| {
            let t = i as f64 / 600.0;
            let wiggle = 0.05 * (7.0 * std::f64::consts::PI * t).sin();
            Point::new(0.05 + 0.9 * t, 0.5 + wiggle)
        })
        .collect();
    check_cloud(&pts, 1e-6);
}

#[test]
fn tiny_clouds_fall_back_gracefully() {
    for n in [1usize, 2, 5, 17] {
        let pts = scattered_points(n, n as u64);
        let kernel = second_kind_kernel();
        let f = factorize(&kernel, &pts, &FactorOpts::default()).unwrap();
        let b = random_vector::<f64>(n, 1);
        let x = f.solve(&b);
        let a = assemble_dense(&kernel, &pts);
        let op = DenseOp::new(a);
        assert!(srsf_linalg::relative_residual(&op, &x, &b) < 1e-10, "n={n}");
    }
}

#[test]
fn points_outside_unit_square_use_enclosing_domain() {
    let pts: Vec<Point> = scattered_points(300, 5)
        .into_iter()
        .map(|p| Point::new(4.0 * p.x - 2.0, 4.0 * p.y - 2.0))
        .collect();
    check_cloud(&pts, 1e-6);
}
