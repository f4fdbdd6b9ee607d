//! The one solve sweep: `solve_mat` must agree column-for-column with
//! repeated single `solve` calls across scalar types and all three
//! drivers, and a single `solve` must be bit-identical to `solve_mat` on
//! the one-column block, because it is that block's sweep.

use srsf_core::colored::ColorScheme;
use srsf_core::{Driver, FactorOpts, Factorized, Solver, SrsfError};
use srsf_geometry::grid::UnitGrid;
use srsf_geometry::point::Point;
use srsf_kernels::helmholtz::HelmholtzKernel;
use srsf_kernels::kernel::Kernel;
use srsf_kernels::laplace::LaplaceKernel;
use srsf_kernels::util::random_vector;
use srsf_linalg::{c64, Mat, Scalar};

fn opts() -> FactorOpts {
    FactorOpts::default().with_tol(1e-8).with_leaf_size(16)
}

/// Deterministic random `n x nrhs` block, column seeds derived from `seed`.
fn rhs_mat<T: Scalar>(n: usize, nrhs: usize, seed: u64) -> Mat<T> {
    let mut m = Mat::zeros(n, nrhs);
    for j in 0..nrhs {
        m.col_mut(j)
            .copy_from_slice(&random_vector::<T>(n, seed + j as u64));
    }
    m
}

fn drivers() -> Vec<Driver> {
    vec![
        Driver::Sequential,
        Driver::Colored {
            scheme: ColorScheme::Four,
            threads: 2,
        },
        Driver::Colored {
            scheme: ColorScheme::Nine,
            threads: 3,
        },
        Driver::distributed(4),
    ]
}

/// `solve_mat` column `j` must match `solve(col j)` up to roundoff (the
/// blocked path reorders the floating-point work but applies the same
/// operators).
fn assert_solve_mat_matches<T: Scalar, K: Kernel<Elem = T>>(
    kernel: &K,
    pts: &[Point],
    driver: Driver,
    nrhs_cases: &[usize],
) {
    let f = Solver::builder(kernel, pts)
        .opts(opts())
        .driver(driver)
        .build()
        .unwrap();
    for &nrhs in nrhs_cases {
        let b = rhs_mat::<T>(pts.len(), nrhs, 17);
        let x = f.solve_mat(&b);
        assert_eq!(x.nrows(), pts.len());
        assert_eq!(x.ncols(), nrhs);
        for j in 0..nrhs {
            let xj = f.solve(b.col(j));
            let scale = xj.iter().map(|v| v.abs()).fold(1.0f64, f64::max);
            for (got, want) in x.col(j).iter().zip(xj.iter()) {
                let diff = (*got - *want).abs();
                assert!(
                    diff <= 1e-10 * scale,
                    "driver {driver:?} nrhs {nrhs} col {j}: diff {diff:.3e} (scale {scale:.3e})"
                );
            }
        }
    }
}

#[test]
fn solve_mat_matches_repeated_solve_f64() {
    let grid = UnitGrid::new(16);
    let kernel = LaplaceKernel::new(&grid);
    let pts = grid.points();
    for driver in drivers() {
        assert_solve_mat_matches::<f64, _>(&kernel, &pts, driver, &[0, 1, 7, 64]);
    }
}

#[test]
fn solve_mat_matches_repeated_solve_c64() {
    let grid = UnitGrid::new(16);
    let kernel = HelmholtzKernel::new(&grid, 12.0);
    let pts = grid.points();
    for driver in drivers() {
        assert_solve_mat_matches::<c64, _>(&kernel, &pts, driver, &[0, 1, 7]);
    }
}

#[test]
fn trait_object_solves_match_concrete_bitwise() {
    // The `Factorized` provided methods route through the one required
    // blocked sweep, on the solver and on its local factorization alike.
    let grid = UnitGrid::new(16);
    let kernel = LaplaceKernel::new(&grid);
    let pts = grid.points();
    let f = Solver::builder(&kernel, &pts).opts(opts()).build().unwrap();
    let b = rhs_mat::<f64>(pts.len(), 5, 3);
    let concrete = f.solve_mat(&b);
    for d in [&f as &dyn Factorized<f64>, f.factorization()] {
        assert_eq!(d.solve_mat(&b), concrete);
        let mut applied = b.clone();
        d.apply_inverse_mat(&mut applied);
        assert_eq!(applied, concrete);
        let one = Mat::from_vec(pts.len(), 1, b.col(0).to_vec());
        let want = f.solve_mat(&one);
        assert_eq!(d.solve(b.col(0)), want.as_slice());
        let mut v = b.col(0).to_vec();
        d.apply_inverse(&mut v);
        assert_eq!(v, want.as_slice());
    }
}

/// `solve(b)` must equal `solve_mat` of the one-column block `[b]` bit
/// for bit: a single solve is that block's sweep, not a separate path.
fn assert_single_solve_is_one_column_sweep<T: Scalar, K: Kernel<Elem = T>>(
    kernel: &K,
    pts: &[Point],
) {
    let builds = vec![
        Driver::Sequential,
        Driver::Colored {
            scheme: ColorScheme::Four,
            threads: 2,
        },
        Driver::Colored {
            scheme: ColorScheme::Nine,
            threads: 2,
        },
        Driver::distributed(4),
    ];
    for driver in builds {
        let f = Solver::builder(kernel, pts)
            .opts(opts())
            .driver(driver)
            .build()
            .unwrap();
        let b = random_vector::<T>(pts.len(), 99);
        let x = f.solve(&b);
        let xm = f.solve_mat(&Mat::from_vec(pts.len(), 1, b));
        for (i, (p, q)) in x.iter().zip(xm.as_slice()).enumerate() {
            assert_eq!(
                (p.re().to_bits(), p.im().to_bits()),
                (q.re().to_bits(), q.im().to_bits()),
                "driver {driver:?}: entry {i}"
            );
        }
    }
}

#[test]
fn single_solve_is_one_column_sweep_bitwise_f64() {
    let grid = UnitGrid::new(32);
    let kernel = LaplaceKernel::new(&grid);
    assert_single_solve_is_one_column_sweep(&kernel, &grid.points());
}

#[test]
fn single_solve_is_one_column_sweep_bitwise_c64() {
    let grid = UnitGrid::new(16);
    let kernel = HelmholtzKernel::new(&grid, 12.0);
    assert_single_solve_is_one_column_sweep(&kernel, &grid.points());
}

/// A rank-one "kernel": every interaction is 1, so any top block larger
/// than 1 x 1 is exactly singular.
struct OnesKernel;

impl Kernel for OnesKernel {
    type Elem = f64;
    fn entry(&self, _pts: &[Point], _i: usize, _j: usize) -> f64 {
        1.0
    }
    fn diag(&self, _pts: &[Point], _i: usize) -> f64 {
        1.0
    }
    fn proxy_row(&self, _pts: &[Point], _y: Point, _j: usize) -> f64 {
        1.0
    }
    fn proxy_col(&self, _pts: &[Point], _i: usize, _y: Point) -> f64 {
        1.0
    }
}

#[test]
fn singular_top_is_reported_as_such() {
    // Four points in one leaf box with no compression levels: the whole
    // matrix becomes the dense top block, which is rank one. The error
    // must name the top system, not blame an innocent box.
    let pts = vec![
        Point { x: 0.1, y: 0.1 },
        Point { x: 0.9, y: 0.1 },
        Point { x: 0.1, y: 0.9 },
        Point { x: 0.9, y: 0.9 },
    ];
    let err = Solver::builder(&OnesKernel, &pts)
        .leaf_size(64)
        .build()
        .unwrap_err();
    match err {
        SrsfError::SingularTop { size, step } => {
            assert_eq!(size, 4);
            assert!(step >= 1, "rank-one system must survive step 0");
        }
        other => panic!("expected SingularTop, got {other:?}"),
    }
}
