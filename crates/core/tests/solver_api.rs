//! The unified `Solver` builder API: defaults, error paths, and
//! driver equivalence.

use srsf_core::{Driver, FactorOpts, Factorized, Solver, SrsfError};
use srsf_geometry::grid::{scattered_points, UnitGrid};
use srsf_geometry::point::Point;
use srsf_geometry::procgrid::ProcessGrid;
use srsf_kernels::laplace::LaplaceKernel;
use srsf_kernels::util::random_vector;
use srsf_linalg::vecops::rel_diff;

#[test]
fn builder_defaults_match_factor_opts_default() {
    // Building with no setters must be identical to passing
    // `FactorOpts::default()` explicitly — bitwise, since the sequential
    // driver is deterministic.
    let grid = UnitGrid::new(32);
    let kernel = LaplaceKernel::new(&grid);
    let pts = grid.points();
    let b = random_vector::<f64>(grid.n(), 4);

    let f_bare = Solver::builder(&kernel, &pts).build().unwrap();
    let f_opts = Solver::builder(&kernel, &pts)
        .opts(FactorOpts::default())
        .build()
        .unwrap();
    assert_eq!(f_bare.solve(&b), f_opts.solve(&b));
    assert_eq!(f_bare.n_records(), f_opts.n_records());
    assert_eq!(f_bare.top_size(), f_opts.top_size());

    // And the individual setters must agree with the equivalent opts.
    let d = FactorOpts::default();
    let f_setters = Solver::builder(&kernel, &pts)
        .tol(d.tol)
        .leaf_size(d.leaf_size)
        .proxy_radius_factor(d.proxy_radius_factor)
        .n_proxy_min(d.n_proxy_min)
        .proxy_osc_factor(d.proxy_osc_factor)
        .min_compress_level(d.min_compress_level)
        .build()
        .unwrap();
    assert_eq!(f_bare.solve(&b), f_setters.solve(&b));
}

#[test]
fn empty_point_set_is_an_error_not_a_panic() {
    let grid = UnitGrid::new(8);
    let kernel = LaplaceKernel::new(&grid);
    let err = Solver::builder(&kernel, &[]).build().unwrap_err();
    assert_eq!(err, SrsfError::EmptyPointSet);
}

#[test]
fn non_positive_tolerance_is_an_error() {
    let grid = UnitGrid::new(8);
    let kernel = LaplaceKernel::new(&grid);
    let pts = grid.points();
    for tol in [0.0, -1e-6, f64::NAN, f64::INFINITY] {
        let err = Solver::builder(&kernel, &pts).tol(tol).build().unwrap_err();
        match err {
            SrsfError::InvalidTolerance { tol: t } => {
                assert!(t.is_nan() == tol.is_nan() && (t.is_nan() || t == tol))
            }
            other => panic!("expected InvalidTolerance, got {other:?}"),
        }
    }
}

#[test]
fn zero_leaf_size_is_an_error() {
    let grid = UnitGrid::new(8);
    let kernel = LaplaceKernel::new(&grid);
    let pts = grid.points();
    let err = Solver::builder(&kernel, &pts)
        .leaf_size(0)
        .build()
        .unwrap_err();
    assert_eq!(err, SrsfError::InvalidLeafSize);
}

#[test]
fn zero_threads_is_an_error() {
    let grid = UnitGrid::new(8);
    let kernel = LaplaceKernel::new(&grid);
    let pts = grid.points();
    let err = Solver::builder(&kernel, &pts)
        .driver(Driver::Colored {
            scheme: srsf_core::colored::ColorScheme::Four,
            threads: 0,
        })
        .build()
        .unwrap_err();
    assert_eq!(err, SrsfError::InvalidThreadCount);
}

#[test]
fn non_power_of_four_process_count_is_an_error() {
    assert_eq!(
        Driver::try_distributed(8).unwrap_err(),
        SrsfError::InvalidProcessCount { p: 8 }
    );
    assert!(Driver::try_distributed(16).is_ok());
    assert_eq!(Driver::try_distributed(4).unwrap(), Driver::distributed(4));
}

#[test]
fn oversized_process_grid_is_an_error_not_a_panic() {
    // 16x16 points with leaf_size 16 -> leaf level 2 (4x4 = 16 leaf
    // boxes). A 16-rank grid would leave ranks without a 2x2 leaf block.
    let grid = UnitGrid::new(16);
    let kernel = LaplaceKernel::new(&grid);
    let pts = grid.points();
    let err = Solver::builder(&kernel, &pts)
        .leaf_size(16)
        .driver(Driver::Distributed {
            grid: ProcessGrid::new(16),
        })
        .build()
        .unwrap_err();
    match err {
        SrsfError::GridTooLarge { p, leaf_boxes } => {
            assert_eq!(p, 16);
            assert_eq!(leaf_boxes, 16);
        }
        other => panic!("expected GridTooLarge, got {other:?}"),
    }
    // A 4-rank grid on the same tree is fine.
    assert!(Solver::builder(&kernel, &pts)
        .leaf_size(16)
        .driver(Driver::distributed(4))
        .build()
        .is_ok());
}

#[test]
fn mismatched_rhs_length_is_an_error() {
    let grid = UnitGrid::new(8);
    let kernel = LaplaceKernel::new(&grid);
    let pts = grid.points();
    let err = Solver::builder(&kernel, &pts)
        .build_with_solution(&[1.0; 3])
        .unwrap_err();
    assert_eq!(
        err,
        SrsfError::RhsLength {
            expected: 64,
            got: 3
        }
    );
    // The fallible solve entry points return the same typed error
    // instead of hitting the infallible path's length assert.
    let s = Solver::builder(&kernel, &pts).build().unwrap();
    assert_eq!(
        s.try_solve(&[1.0; 3]).unwrap_err(),
        SrsfError::RhsLength {
            expected: 64,
            got: 3
        }
    );
    assert_eq!(
        s.try_solve_mat(&srsf_linalg::Mat::zeros(3, 2)).unwrap_err(),
        SrsfError::RhsLength {
            expected: 64,
            got: 3
        }
    );
}

#[test]
fn non_finite_point_is_an_error() {
    let grid = UnitGrid::new(32);
    let kernel = LaplaceKernel::new(&grid);
    for driver in [Driver::Sequential, Driver::distributed(4)] {
        for bad in [f64::NAN, f64::INFINITY] {
            let mut pts = grid.points();
            pts[5].y = bad;
            let err = Solver::builder(&kernel, &pts)
                .leaf_size(16)
                .driver(driver)
                .resident(true)
                .build()
                .unwrap_err();
            assert_eq!(err, SrsfError::NonFinitePoint { index: 5 });
        }
    }
}

/// A duplicated point makes an off-diagonal entry a singular
/// self-interaction; the build must reject it instead of factoring a
/// matrix that solves to non-finite values.
#[test]
fn coincident_points_are_an_error() {
    let mut pts = scattered_points(1024, 7);
    pts[500] = pts[10];
    let kernel = LaplaceKernel::with_params(1.0 / 1024.0, 1.0);
    for driver in [Driver::Sequential, Driver::distributed(4)] {
        let err = Solver::builder(&kernel, &pts)
            .leaf_size(16)
            .driver(driver)
            .resident(true)
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            SrsfError::CoincidentPoints {
                first: 10,
                second: 500
            },
            "{driver:?}"
        );
    }

    // Signed zeros are the same coordinate.
    let mut pts = scattered_points(64, 3);
    pts[2] = Point::new(0.0, 0.5);
    pts[40] = Point::new(-0.0, 0.5);
    let kernel = LaplaceKernel::with_params(1.0 / 64.0, 1.0);
    assert_eq!(
        Solver::builder(&kernel, &pts).build().unwrap_err(),
        SrsfError::CoincidentPoints {
            first: 2,
            second: 40
        }
    );
}

#[test]
fn non_finite_rhs_is_an_error_on_every_solve_entry_point() {
    let grid = UnitGrid::new(32);
    let kernel = LaplaceKernel::new(&grid);
    let pts = grid.points();
    let n = pts.len();
    let mut b = random_vector::<f64>(n, 3);
    b[7] = f64::INFINITY;
    let mut bm = srsf_linalg::Mat::from_fn(n, 3, |i, j| (i + j) as f64);
    bm[(11, 1)] = f64::NAN;
    for driver in [Driver::Sequential, Driver::distributed(4)] {
        let builder = || {
            Solver::builder(&kernel, &pts)
                .leaf_size(16)
                .driver(driver)
                .resident(true)
        };
        assert_eq!(
            builder().build_with_solution(&b).unwrap_err(),
            SrsfError::NonFiniteRhs { index: 7 }
        );
        let s = builder().build().unwrap();
        assert_eq!(
            s.try_solve(&b).unwrap_err(),
            SrsfError::NonFiniteRhs { index: 7 }
        );
        // Column-major index of the NaN in column 1.
        assert_eq!(
            s.try_solve_mat(&bm).unwrap_err(),
            SrsfError::NonFiniteRhs { index: n + 11 }
        );
        // A rejected right-hand side leaves the solver serving.
        let x = s.try_solve(&random_vector::<f64>(n, 4)).unwrap();
        assert!(x.iter().all(|v| v.is_finite()), "{driver:?}");
    }
}

/// The panicking solves run the same right-hand-side check as their
/// fallible twins instead of returning NaN.
#[test]
#[should_panic(expected = "is not finite")]
fn panicking_solve_rejects_non_finite_rhs() {
    let grid = UnitGrid::new(16);
    let kernel = LaplaceKernel::new(&grid);
    let pts = grid.points();
    let s = Solver::builder(&kernel, &pts)
        .leaf_size(16)
        .build()
        .unwrap();
    let mut b = vec![1.0; pts.len()];
    b[3] = f64::NAN;
    let _ = s.solve(&b);
}

#[test]
#[should_panic(expected = "is not finite")]
fn panicking_solve_mat_rejects_non_finite_rhs() {
    let grid = UnitGrid::new(16);
    let kernel = LaplaceKernel::new(&grid);
    let pts = grid.points();
    let s = Solver::builder(&kernel, &pts)
        .leaf_size(16)
        .build()
        .unwrap();
    let mut b = srsf_linalg::Mat::from_fn(pts.len(), 2, |i, j| (i + j) as f64);
    b[(5, 1)] = f64::INFINITY;
    let _ = s.solve_mat(&b);
}

#[test]
fn errors_display_and_propagate() {
    let e = SrsfError::GridTooLarge {
        p: 64,
        leaf_boxes: 16,
    };
    let msg = e.to_string();
    assert!(msg.contains("64") && msg.contains("16"), "{msg}");
    let boxed: Box<dyn std::error::Error> = Box::new(e);
    assert!(!boxed.to_string().is_empty());
}

/// The three drivers must agree to within the ID tolerance on the same
/// Laplace problem, consumed through the shared `Factorized` interface.
#[test]
fn driver_equivalence_on_one_laplace_problem() {
    let grid = UnitGrid::new(32);
    let kernel = LaplaceKernel::new(&grid);
    let pts = grid.points();
    let b = random_vector::<f64>(grid.n(), 12);
    let tol = 1e-8;

    let build = |driver: Driver| {
        Solver::builder(&kernel, &pts)
            .tol(tol)
            .leaf_size(16)
            .driver(driver)
            .build()
            .unwrap_or_else(|e| panic!("{driver:?}: {e}"))
    };
    let seq = build(Driver::Sequential);
    let col = build(Driver::colored(2));
    let dist = build(Driver::distributed(4));

    let x_seq = Factorized::solve(&seq, &b);
    let x_col = Factorized::solve(&col, &b);
    let x_dist = Factorized::solve(&dist, &b);
    // Same factorization, different schedules: solutions agree to within
    // the compression tolerance (amplified by conditioning head-room).
    let dc = rel_diff(&x_col, &x_seq);
    let dd = rel_diff(&x_dist, &x_seq);
    assert!(dc < 1e3 * tol, "colored vs sequential: {dc:.3e}");
    assert!(dd < 1e3 * tol, "distributed vs sequential: {dd:.3e}");
}

/// Each driver owns exactly one threading lever; the others are rejected
/// with a typed error naming the supported knob instead of being
/// silently ignored (`gemm_threads` used to be a no-op under the colored
/// and distributed drivers).
#[test]
fn mismatched_threading_knobs_are_typed_errors() {
    let grid = UnitGrid::new(8);
    let kernel = LaplaceKernel::new(&grid);
    let pts = grid.points();

    // gemm_threads is sequential-only: both parallel drivers reject it.
    for (driver, name) in [
        (Driver::colored(2), "colored"),
        (Driver::distributed(1), "distributed"),
    ] {
        let err = Solver::builder(&kernel, &pts)
            .driver(driver)
            .gemm_threads(2)
            .build()
            .unwrap_err();
        match err {
            SrsfError::UnsupportedOption { option, driver, .. } => {
                assert_eq!((option, driver), ("gemm_threads", name));
            }
            other => panic!("expected UnsupportedOption for {name}, got {other:?}"),
        }
        // `0` (auto-detect) is just as unsupported as an explicit count.
        assert!(Solver::builder(&kernel, &pts)
            .driver(driver)
            .gemm_threads(0)
            .build()
            .is_err());
    }

    // rank_threads is distributed-only: the local drivers reject it...
    for (driver, name) in [
        (Driver::Sequential, "sequential"),
        (Driver::colored(2), "colored"),
    ] {
        let err = Solver::builder(&kernel, &pts)
            .driver(driver)
            .rank_threads(2)
            .build()
            .unwrap_err();
        match err {
            SrsfError::UnsupportedOption { option, driver, .. } => {
                assert_eq!((option, driver), ("rank_threads", name));
            }
            other => panic!("expected UnsupportedOption for {name}, got {other:?}"),
        }
    }
    // ... and the distributed driver needs at least one worker.
    let err = Solver::builder(&kernel, &pts)
        .driver(Driver::distributed(1))
        .rank_threads(0)
        .build()
        .unwrap_err();
    assert_eq!(err, SrsfError::InvalidThreadCount);

    // The supported combinations still build.
    assert!(Solver::builder(&kernel, &pts)
        .driver(Driver::distributed(1))
        .rank_threads(2)
        .build()
        .is_ok());
    assert!(Solver::builder(&kernel, &pts)
        .gemm_threads(2)
        .build()
        .is_ok());
}

#[test]
fn gemm_threads_knob_does_not_change_results() {
    let grid = UnitGrid::new(32);
    let kernel = LaplaceKernel::new(&grid);
    let pts = grid.points();
    let b = random_vector::<f64>(grid.n(), 5);

    let serial = Solver::builder(&kernel, &pts)
        .tol(1e-7)
        .leaf_size(16)
        .build()
        .unwrap();
    // The threaded GEMM splits only over output columns, so per-column
    // arithmetic is unchanged; a thread budget must not alter the result.
    let threaded = Solver::builder(&kernel, &pts)
        .tol(1e-7)
        .leaf_size(16)
        .gemm_threads(3)
        .build()
        .unwrap();
    // The budget is restored after the build: no leak into this thread.
    assert_eq!(srsf_linalg::gemm_threads(), 1);

    let xs = serial.solve(&b);
    let xt = threaded.solve(&b);
    assert!(
        rel_diff(&xt, &xs) < 1e-12,
        "thread budget changed the result"
    );

    // `0` (auto-detect) is also accepted.
    let auto = Solver::builder(&kernel, &pts)
        .tol(1e-7)
        .leaf_size(16)
        .gemm_threads(0)
        .build()
        .unwrap();
    assert!(rel_diff(&auto.solve(&b), &xs) < 1e-12);
}
