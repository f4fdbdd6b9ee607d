//! The direct-solver advantage the paper leads with: once the
//! factorization is built, each additional right-hand side costs almost
//! nothing — compare against running CG from scratch per RHS.
//!
//! ```sh
//! cargo run --release --example laplace_multirhs
//! ```

use srsf::iterative::cg::cg;
use srsf::prelude::*;
use std::time::Instant;

fn main() {
    let side = 64;
    let n_rhs = 16;
    let grid = UnitGrid::new(side);
    let kernel = LaplaceKernel::new(&grid);
    let pts = grid.points();
    let fast = FastKernelOp::laplace(&kernel, &grid);

    // Direct: one factorization, then n_rhs cheap solves.
    let t0 = Instant::now();
    let f = Solver::builder(&kernel, &pts)
        .tol(1e-9)
        .build()
        .expect("factorization");
    let tfact = t0.elapsed().as_secs_f64();

    // All right-hand sides as one n x n_rhs block: one level-3 sweep
    // (GEMM/blocked-TRSM per record) instead of n_rhs one-column sweeps.
    let mut bmat = Mat::zeros(grid.n(), n_rhs);
    for seed in 0..n_rhs {
        bmat.col_mut(seed)
            .copy_from_slice(&random_vector::<f64>(grid.n(), seed as u64));
    }
    let t1 = Instant::now();
    let xmat = f.solve_mat(&bmat);
    let tsolves = t1.elapsed().as_secs_f64();
    let mut direct_res = 0.0f64;
    for j in 0..n_rhs {
        direct_res = direct_res.max(relative_residual(&fast, xmat.col(j), bmat.col(j)));
    }

    // Iterative baseline: CG per RHS on the ill-conditioned first-kind
    // system (paper: ~5 sqrt(N) iterations without preconditioning).
    let t2 = Instant::now();
    let mut cg_iters = 0;
    let mut cg_res = 0.0f64;
    for seed in 0..n_rhs {
        let b = random_vector::<f64>(grid.n(), seed as u64);
        let r = cg(&fast, &b, 1e-8, 5000);
        cg_iters += r.iterations;
        cg_res = cg_res.max(r.relres);
    }
    let tcg = t2.elapsed().as_secs_f64();

    println!("N = {}, {} right-hand sides", grid.n(), n_rhs);
    println!("direct:   tfact = {tfact:.2}s, {n_rhs} solves = {tsolves:.3}s, worst relres {direct_res:.1e}");
    println!("cg:       {n_rhs} solves = {tcg:.2}s ({} iters total, ~{} per RHS), worst relres {cg_res:.1e}",
        cg_iters, cg_iters / n_rhs);
    println!(
        "amortized direct cost per extra RHS: {:.4}s vs CG {:.3}s",
        tsolves / n_rhs as f64,
        tcg / n_rhs as f64
    );
}
