//! The unified solver API: one builder, three execution drivers.
//!
//! The paper's point is that a single strong-recursive-skeletonization
//! factorization admits three execution strategies — sequential (Alg. 1),
//! shared-memory box-colored (§V-C), and distributed process-colored
//! (Alg. 2). This module exposes them behind one entry point:
//!
//! ```
//! use srsf_core::{Driver, Solver};
//! use srsf_geometry::grid::UnitGrid;
//! use srsf_kernels::laplace::LaplaceKernel;
//!
//! let grid = UnitGrid::new(32);
//! let kernel = LaplaceKernel::new(&grid);
//! let pts = grid.points();
//! let solver = Solver::builder(&kernel, &pts)
//!     .tol(1e-6)
//!     .driver(Driver::Sequential)
//!     .build()
//!     .unwrap();
//! let b = vec![1.0; pts.len()];
//! let x = solver.solve(&b);
//! assert_eq!(x.len(), pts.len());
//! ```
//!
//! Whatever driver built it, the result is a [`Solver`] implementing the
//! shared [`Factorized`] trait (`solve`, `apply_inverse`, `stats`,
//! `memory_bytes`) and `LinOp` — so it plugs into the Krylov methods of
//! `srsf-iterative` as a preconditioner unchanged.

use crate::distributed::{
    dist_factorize_resident, dist_factorize_with_tree, restore_resident_service, ResidentService,
};
use crate::error::SrsfError;
use crate::sequential::{
    domain_for, factorize_scheduled, factorize_with_tree, Factorization, Schedule,
};
use crate::stats::FactorStats;
use crate::FactorOpts;
use srsf_geometry::point::Point;
use srsf_geometry::procgrid::{BoxColoring, ProcessGrid};
use srsf_geometry::tree::QuadTree;
use srsf_kernels::kernel::Kernel;
use srsf_linalg::{LinOp, Mat, Scalar};
use srsf_runtime::{MetricsSnapshot, TraceReport, Transport, WorldStats};

/// Execution strategy for the factorization.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Driver {
    /// Algorithm 1: a level-by-level, box-by-box sequential sweep.
    Sequential,
    /// The shared-memory box-colored schedule of Section V-C.
    Colored {
        /// Box coloring scheme (the paper's reference uses four colors).
        scheme: BoxColoring,
        /// Worker threads per color round (must be at least 1).
        threads: usize,
    },
    /// Algorithm 2: leaf boxes block-partitioned over a process grid,
    /// factored with interior/boundary phases and four color rounds on a
    /// rank world — ranks as threads or as real OS processes, per
    /// [`SolverBuilder::transport`].
    Distributed {
        /// The `q x q` process grid (`p = q^2` ranks).
        grid: ProcessGrid,
    },
}

impl Driver {
    /// The box-colored driver with the paper's four-color scheme.
    pub fn colored(threads: usize) -> Self {
        Driver::Colored {
            scheme: BoxColoring::Four,
            threads,
        }
    }

    /// The distributed driver on a `p`-rank process grid.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not a power of four (1, 4, 16, …); use
    /// [`Driver::try_distributed`] for fallible construction.
    pub fn distributed(p: usize) -> Self {
        Driver::Distributed {
            grid: ProcessGrid::new(p),
        }
    }

    /// The distributed driver on a `p`-rank process grid, or an
    /// [`SrsfError::InvalidProcessCount`] if `p` is not a power of four.
    pub fn try_distributed(p: usize) -> Result<Self, SrsfError> {
        let grid = ProcessGrid::try_new(p).ok_or(SrsfError::InvalidProcessCount { p })?;
        Ok(Driver::Distributed { grid })
    }
}

/// The capabilities every built factorization exposes, regardless of the
/// driver that produced it.
///
/// Object-safe on purpose: downstream code (preconditioned Krylov methods,
/// benchmark harnesses) takes `&dyn Factorized<T>` and never needs to know
/// how the factorization was scheduled.
pub trait Factorized<T: Scalar>: Sync {
    /// Problem size `N`.
    fn n(&self) -> usize;

    /// Apply the approximate inverse in place: `b := A^{-1} b`.
    fn apply_inverse(&self, b: &mut [T]);

    /// Solve `A x = b`.
    fn solve(&self, b: &[T]) -> Vec<T> {
        let mut x = b.to_vec();
        self.apply_inverse(&mut x);
        x
    }

    /// Apply the approximate inverse to every column of an `n x nrhs`
    /// block in place: `B := A^{-1} B`.
    ///
    /// The default forwards column-by-column through
    /// [`Factorized::apply_inverse`]; implementations with a level-3
    /// solve path (notably [`crate::Factorization`]) override it with one
    /// GEMM-driven sweep that amortizes the record traffic over all
    /// columns.
    fn apply_inverse_mat(&self, b: &mut Mat<T>) {
        for j in 0..b.ncols() {
            self.apply_inverse(b.col_mut(j));
        }
    }

    /// Solve `A X = B` for every column of `b` at once.
    fn solve_mat(&self, b: &Mat<T>) -> Mat<T> {
        let mut x = b.clone();
        self.apply_inverse_mat(&mut x);
        x
    }

    /// Factorization statistics (ranks per level, timings, memory).
    fn stats(&self) -> &FactorStats;

    /// Approximate memory footprint of the factorization in bytes.
    fn memory_bytes(&self) -> usize;
}

impl<T: Scalar> Factorized<T> for Factorization<T> {
    fn n(&self) -> usize {
        Factorization::n(self)
    }
    fn apply_inverse(&self, b: &mut [T]) {
        Factorization::apply_inverse(self, b);
    }
    fn apply_inverse_mat(&self, b: &mut Mat<T>) {
        Factorization::apply_inverse_mat(self, b);
    }
    fn stats(&self) -> &FactorStats {
        Factorization::stats(self)
    }
    fn memory_bytes(&self) -> usize {
        Factorization::memory_bytes(self)
    }
}

/// How a built solver serves its solves.
enum SolverBackend<T> {
    /// A factorization object local to the calling thread — the
    /// sequential and colored drivers always, and the distributed driver
    /// in its (default) gather mode, where rank 0 assembled the global
    /// record set. Boxed so the enum stays pointer-sized either way.
    Local(Box<Factorization<T>>),
    /// A live resident rank world ([`SolverBuilder::resident`]): records
    /// stay on their owning ranks and every solve runs Algorithm 2's
    /// solve phase in place. Boxed: the service (mutex + session handle +
    /// rank-0 state) dwarfs the `Local` variant.
    Resident(Box<ResidentService<T>>),
}

/// A built factorization plus the metadata of the driver that produced it.
///
/// Construct with [`Solver::builder`]. Implements [`Factorized`] and
/// `LinOp` (as the approximate *inverse*, which is what makes it a
/// preconditioner).
pub struct Solver<T> {
    backend: SolverBackend<T>,
    driver: Driver,
    comm: Option<WorldStats>,
    /// Resident factor bytes per rank ([`Driver::Distributed`] only —
    /// what each rank holds when records stay in place).
    per_rank_bytes: Option<Vec<usize>>,
    /// Per-rank span reports from a traced gathered build
    /// ([`SolverBuilder::trace`]); empty when tracing was off or the
    /// backend is resident (resident reports are drained on demand).
    traces: Vec<TraceReport>,
}

impl<T: Scalar> Solver<T> {
    /// Start building a solver for the kernel matrix over `pts`.
    ///
    /// Defaults: [`FactorOpts::default`] options and the
    /// [`Driver::Sequential`] driver.
    pub fn builder<'a, K: Kernel<Elem = T>>(
        kernel: &'a K,
        pts: &'a [Point],
    ) -> SolverBuilder<'a, K> {
        SolverBuilder {
            kernel,
            pts,
            opts: FactorOpts::default(),
            driver: Driver::Sequential,
        }
    }

    /// Problem size `N`.
    pub fn n(&self) -> usize {
        match &self.backend {
            SolverBackend::Local(f) => f.n(),
            SolverBackend::Resident(s) => s.n(),
        }
    }

    /// Solve `A x = b`. In residency mode the solve runs on the live rank
    /// world (records applied where they live); otherwise on the local
    /// factorization object.
    ///
    /// Panics wherever [`Solver::try_solve`] returns an error: a
    /// right-hand side of the wrong length or with a non-finite entry, or
    /// a resident rank failing mid-solve.
    pub fn solve(&self, b: &[T]) -> Vec<T> {
        // INVARIANT: deliberate — the panicking convenience wrapper over
        // try_solve, for callers with no error path
        self.try_solve(b).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Solver::solve`]. A right-hand side of the wrong
    /// length is [`SrsfError::RhsLength`], and one with a NaN or infinite
    /// entry is [`SrsfError::NonFiniteRhs`]; beyond that, local backends
    /// cannot fail. In residency mode a rank that dies (or a link that goes
    /// down) mid-solve surfaces as [`SrsfError::RankFailed`] within the
    /// receive timeout — no hang, no abort — and later solves fail fast
    /// with the same error. The degraded solver still shuts down (or
    /// drops) cleanly, and [`Solver::restore_resident`] can rebuild a
    /// fresh world from checkpoints.
    pub fn try_solve(&self, b: &[T]) -> Result<Vec<T>, SrsfError> {
        check_rhs(self.n(), b.len(), b)?;
        match &self.backend {
            SolverBackend::Local(f) => Ok(f.solve(b)),
            SolverBackend::Resident(s) => s.try_solve(b),
        }
    }

    /// Fallible [`Solver::solve_mat`]; see [`Solver::try_solve`]. A
    /// non-finite entry is reported by its column-major index
    /// (`col * n + row`).
    pub fn try_solve_mat(&self, b: &Mat<T>) -> Result<Mat<T>, SrsfError> {
        check_rhs(self.n(), b.nrows(), b.as_slice())?;
        match &self.backend {
            SolverBackend::Local(f) => Ok(f.solve_mat(b)),
            SolverBackend::Resident(s) => s.try_solve_mat(b),
        }
    }

    /// Rebuild a resident solver from the per-rank snapshots a prior
    /// distributed build persisted under
    /// [`FactorOpts::checkpoint_dir`](crate::FactorOpts) (see
    /// [`SolverBuilder::checkpoint_dir`]): validate the manifest against
    /// `pts` (scalar type, size, bit-exact geometry hash), spin up a
    /// fresh rank world on `transport`, and have every rank load its
    /// CRC-checked snapshot — no kernel evaluations, no
    /// re-factorization. Restored solves are bit-identical to the
    /// original solver's.
    pub fn restore_resident(
        pts: &[Point],
        dir: impl AsRef<std::path::Path>,
        transport: Transport,
    ) -> Result<Solver<T>, SrsfError> {
        let (svc, grid) = restore_resident_service::<T>(pts, dir.as_ref(), transport)?;
        let comm = svc.comm().clone();
        let bytes = svc.bytes_per_rank().to_vec();
        Ok(Solver {
            backend: SolverBackend::Resident(Box::new(svc)),
            driver: Driver::Distributed { grid },
            comm: Some(comm),
            per_rank_bytes: Some(bytes),
            traces: Vec::new(),
        })
    }

    /// Apply the approximate inverse in place: `b := A^{-1} b`.
    pub fn apply_inverse(&self, b: &mut [T]) {
        match &self.backend {
            SolverBackend::Local(f) => f.apply_inverse(b),
            SolverBackend::Resident(_) => b.copy_from_slice(&self.solve(b)),
        }
    }

    /// Solve `A X = B` for every column of `b` at once (one blocked
    /// sweep over the records instead of `nrhs` vector sweeps). In
    /// residency mode the column block is scattered by row ownership and
    /// swept in place on the rank world. Panics wherever
    /// [`Solver::try_solve_mat`] returns an error.
    pub fn solve_mat(&self, b: &Mat<T>) -> Mat<T> {
        // INVARIANT: deliberate — the panicking convenience wrapper over
        // try_solve_mat, for callers with no error path
        self.try_solve_mat(b).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Apply the approximate inverse to an `n x nrhs` block in place.
    pub fn apply_inverse_mat(&self, b: &mut Mat<T>) {
        match &self.backend {
            SolverBackend::Local(f) => f.apply_inverse_mat(b),
            SolverBackend::Resident(_) => *b = self.solve_mat(b),
        }
    }

    /// Blocked apply scheduled over `n_threads` workers by the records'
    /// `(level, color)` stamps; bit-identical to
    /// [`Solver::apply_inverse_mat`] for any thread count. Whole color
    /// rounds run concurrently when the factorization came from the
    /// colored driver. In residency mode the solve is already
    /// rank-parallel — the thread count is ignored and the resident sweep
    /// runs instead.
    pub fn apply_inverse_mat_threaded(&self, b: &mut Mat<T>, n_threads: usize) {
        match &self.backend {
            SolverBackend::Local(f) => f.apply_inverse_mat_threaded(b, n_threads),
            SolverBackend::Resident(_) => *b = self.solve_mat(b),
        }
    }

    /// Threaded apply of one right-hand side vector; see
    /// [`Solver::apply_inverse_mat_threaded`].
    pub fn apply_inverse_threaded(&self, b: &mut [T], n_threads: usize) {
        match &self.backend {
            SolverBackend::Local(f) => f.apply_inverse_threaded(b, n_threads),
            SolverBackend::Resident(_) => b.copy_from_slice(&self.solve(b)),
        }
    }

    /// Factorization statistics (ranks per level, timings, memory). In
    /// residency mode the rank table is merged from every rank's records
    /// in place; timings are rank 0's.
    pub fn stats(&self) -> &FactorStats {
        match &self.backend {
            SolverBackend::Local(f) => f.stats(),
            SolverBackend::Resident(s) => s.stats(),
        }
    }

    /// Approximate memory footprint of the factorization in bytes.
    ///
    /// This is the *global* footprint: the rank-0 object in gather mode,
    /// the sum over ranks in residency mode. For the distributed driver
    /// the serving-relevant number is usually
    /// [`Solver::memory_bytes_max_rank`] — the paper's O(N/p) per-rank
    /// bound is about the largest single rank, which residency preserves
    /// and the gather path concentrates onto rank 0.
    pub fn memory_bytes(&self) -> usize {
        match &self.backend {
            SolverBackend::Local(f) => f.memory_bytes(),
            SolverBackend::Resident(s) => s.bytes_per_rank().iter().sum(),
        }
    }

    /// Peak resident factor bytes over ranks ([`Driver::Distributed`]
    /// only): what the most loaded rank holds when records stay in place.
    /// In gather mode this reports what the ranks held *before* shipping
    /// their records to rank 0 — the footprint residency would keep.
    pub fn memory_bytes_max_rank(&self) -> Option<usize> {
        self.per_rank_bytes
            .as_ref()
            .map(|v| v.iter().copied().max().unwrap_or(0))
    }

    /// Resident factor bytes per rank ([`Driver::Distributed`] only);
    /// see [`Solver::memory_bytes_max_rank`].
    pub fn memory_bytes_per_rank(&self) -> Option<&[usize]> {
        self.per_rank_bytes.as_deref()
    }

    /// Number of per-box elimination records (global count; in residency
    /// mode the records themselves are never assembled in one place).
    pub fn n_records(&self) -> usize {
        match &self.backend {
            SolverBackend::Local(f) => f.n_records(),
            SolverBackend::Resident(s) => s.records_per_rank().iter().sum(),
        }
    }

    /// Elimination records resident on each rank (residency mode only) —
    /// the probe asserting rank 0 never holds the global record set.
    pub fn records_per_rank(&self) -> Option<&[usize]> {
        match &self.backend {
            SolverBackend::Local(_) => None,
            SolverBackend::Resident(s) => Some(s.records_per_rank()),
        }
    }

    /// Size of the dense top block.
    pub fn top_size(&self) -> usize {
        match &self.backend {
            SolverBackend::Local(f) => f.top_size(),
            SolverBackend::Resident(s) => s.top_size(),
        }
    }

    /// The driver that built this solver.
    pub fn driver(&self) -> Driver {
        self.driver
    }

    /// `true` when this solver serves from a live resident rank world.
    pub fn is_resident(&self) -> bool {
        matches!(self.backend, SolverBackend::Resident(_))
    }

    /// Per-rank communication counters of the factorization phase
    /// ([`Driver::Distributed`] only).
    pub fn comm_stats(&self) -> Option<&WorldStats> {
        self.comm.as_ref()
    }

    /// Snapshot every rank's *cumulative* communication counters
    /// (residency mode only). Two snapshots bracketing `k` solves give
    /// exact per-solve message/word counts — how
    /// `comm_counts --solve-reps` measures the §IV solve-phase bound.
    pub fn resident_comm_probe(&self) -> Option<WorldStats> {
        match &self.backend {
            SolverBackend::Local(_) => None,
            SolverBackend::Resident(s) => Some(s.comm_probe()),
        }
    }

    /// Snapshot the serve metrics (residency mode only): per-solve
    /// latency histogram, served/failed counters, and per-rank
    /// resident-memory gauges — the registry behind
    /// `WorldHandle::metrics` in the runtime.
    pub fn metrics(&self) -> Option<MetricsSnapshot> {
        match &self.backend {
            SolverBackend::Local(_) => None,
            SolverBackend::Resident(s) => Some(s.metrics()),
        }
    }

    /// Per-rank span reports of a traced run ([`SolverBuilder::trace`];
    /// empty when tracing was off). Gathered builds return the reports
    /// collected with the rank results; resident solvers *drain* every
    /// rank's live ring buffers on each call (factorization spans the
    /// first time, spans of the solves since on later calls). Feed the
    /// reports to `srsf_trace::export::chrome_trace_json` /
    /// `profile_table` for Perfetto JSON or a plain-text profile.
    pub fn trace_reports(&self) -> Vec<TraceReport> {
        match &self.backend {
            SolverBackend::Local(_) => self.traces.clone(),
            SolverBackend::Resident(s) => s.trace_reports(),
        }
    }

    /// Shut the resident rank world down (broadcast the shutdown command,
    /// join the workers) and return the session's final per-rank
    /// counters. `None` for non-resident solvers or if already shut down;
    /// dropping the solver shuts the world down implicitly.
    pub fn shutdown(&self) -> Option<WorldStats> {
        match &self.backend {
            SolverBackend::Local(_) => None,
            SolverBackend::Resident(s) => s.shutdown(),
        }
    }

    /// Borrow the underlying factorization object, if one exists locally
    /// (`None` in residency mode — the records live on their ranks).
    pub fn try_factorization(&self) -> Option<&Factorization<T>> {
        match &self.backend {
            SolverBackend::Local(f) => Some(f),
            SolverBackend::Resident(_) => None,
        }
    }

    /// Borrow the underlying factorization.
    ///
    /// # Panics
    ///
    /// Panics in residency mode, where no global factorization object is
    /// ever assembled; use [`Solver::try_factorization`] to branch.
    pub fn factorization(&self) -> &Factorization<T> {
        self.try_factorization()
            // INVARIANT: deliberate — documented panicking accessor;
            // try_factorization is the fallible path
            .expect("a resident solver has no gathered factorization object")
    }

    /// Consume the solver, yielding the underlying factorization.
    ///
    /// # Panics
    ///
    /// Panics in residency mode; see [`Solver::factorization`].
    pub fn into_factorization(self) -> Factorization<T> {
        match self.backend {
            SolverBackend::Local(f) => *f,
            SolverBackend::Resident(_) => {
                // INVARIANT: deliberate — documented panicking accessor;
                // try_factorization is the fallible path
                panic!("a resident solver has no gathered factorization object")
            }
        }
    }
}

impl<T: Scalar> core::fmt::Debug for Solver<T> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Solver")
            .field("n", &self.n())
            .field("driver", &self.driver)
            .field("n_records", &self.n_records())
            .field("top_size", &self.top_size())
            .finish_non_exhaustive()
    }
}

impl<T: Scalar> Factorized<T> for Solver<T> {
    fn n(&self) -> usize {
        Solver::n(self)
    }
    fn apply_inverse(&self, b: &mut [T]) {
        Solver::apply_inverse(self, b);
    }
    fn apply_inverse_mat(&self, b: &mut Mat<T>) {
        Solver::apply_inverse_mat(self, b);
    }
    fn stats(&self) -> &FactorStats {
        Solver::stats(self)
    }
    fn memory_bytes(&self) -> usize {
        Solver::memory_bytes(self)
    }
}

impl<T: Scalar> LinOp<T> for Solver<T> {
    fn dim(&self) -> usize {
        self.n()
    }
    /// Applying the solver as an operator applies the approximate
    /// **inverse** — this is what makes it a preconditioner.
    fn apply(&self, x: &[T]) -> Vec<T> {
        self.solve(x)
    }
}

/// A built solver paired with the solution of the supplied right-hand
/// side (returned by [`SolverBuilder::build_with_solution`]).
pub type Solved<T> = (Solver<T>, Vec<T>);

type MaybeSolved<T> = (Solver<T>, Option<Vec<T>>);

/// The right-hand-side checks shared by every solve entry point: `rows`
/// must be the problem size `n`, and every entry of `data` finite.
fn check_rhs<T: Scalar>(n: usize, rows: usize, data: &[T]) -> Result<(), SrsfError> {
    if rows != n {
        return Err(SrsfError::RhsLength {
            expected: n,
            got: rows,
        });
    }
    match data.iter().position(|v| !v.is_finite()) {
        Some(index) => Err(SrsfError::NonFiniteRhs { index }),
        None => Ok(()),
    }
}

/// The first pair of points with exactly equal coordinates, as `(earlier,
/// later)` index — one hash-set pass, O(N). `-0.0` is normalized to `0.0`
/// so the bit patterns compare like the values.
fn coincident_pair(pts: &[Point]) -> Option<(usize, usize)> {
    let key = |v: f64| (v + 0.0).to_bits();
    let mut seen = std::collections::HashMap::with_capacity(pts.len());
    pts.iter()
        .enumerate()
        .find_map(|(i, p)| seen.insert((key(p.x), key(p.y)), i).map(|first| (first, i)))
}

/// Configures and builds a [`Solver`]; created by [`Solver::builder`].
#[derive(Clone, Debug)]
pub struct SolverBuilder<'a, K: Kernel> {
    kernel: &'a K,
    pts: &'a [Point],
    opts: FactorOpts,
    driver: Driver,
}

impl<'a, K: Kernel> SolverBuilder<'a, K> {
    /// Relative tolerance for the interpolative decomposition (paper: ε).
    pub fn tol(mut self, tol: f64) -> Self {
        self.opts = self.opts.with_tol(tol);
        self
    }

    /// Target number of points per leaf box.
    pub fn leaf_size(mut self, leaf_size: usize) -> Self {
        self.opts = self.opts.with_leaf_size(leaf_size);
        self
    }

    /// Proxy circle radius as a multiple of the box side (paper: 2.5).
    pub fn proxy_radius_factor(mut self, factor: f64) -> Self {
        self.opts = self.opts.with_proxy_radius_factor(factor);
        self
    }

    /// Minimum number of proxy points on the circle.
    pub fn n_proxy_min(mut self, n: usize) -> Self {
        self.opts = self.opts.with_n_proxy_min(n);
        self
    }

    /// Extra proxy points per wavelength for oscillatory kernels.
    pub fn proxy_osc_factor(mut self, factor: f64) -> Self {
        self.opts = self.opts.with_proxy_osc_factor(factor);
        self
    }

    /// Coarsest tree level at which compression is applied (paper: 3).
    pub fn min_compress_level(mut self, level: usize) -> Self {
        self.opts = self.opts.with_min_compress_level(level);
        self
    }

    /// GEMM thread budget for the sequential driver's dense products
    /// (`1` = serial, `0` = auto-detect). Sequential-only: the colored
    /// and distributed drivers have their own threading levers
    /// ([`Driver::Colored`]'s `threads` and [`rank_threads`]), so `build`
    /// rejects the combination with [`SrsfError::UnsupportedOption`]
    /// instead of silently ignoring the budget.
    ///
    /// [`rank_threads`]: SolverBuilder::rank_threads
    pub fn gemm_threads(mut self, threads: usize) -> Self {
        self.opts = self.opts.with_gemm_threads(threads);
        self
    }

    /// Worker threads each rank of [`Driver::Distributed`] uses for its
    /// per-phase box eliminations (`1` = serial, the default). The boxes
    /// of a phase run in four sub-color rounds on a work-stealing pool
    /// with a fixed merge order, so the factorization, the solution, and
    /// the communication counters are bit-identical for every thread
    /// count — this knob only changes wall-clock time. Distributed-only:
    /// `build` rejects it under the sequential and colored drivers with
    /// [`SrsfError::UnsupportedOption`], and `0` with
    /// [`SrsfError::InvalidThreadCount`].
    pub fn rank_threads(mut self, threads: usize) -> Self {
        self.opts = self.opts.with_rank_threads(threads);
        self
    }

    /// Message transport for [`Driver::Distributed`]:
    /// [`Transport::InProc`] (default) runs ranks as threads of this
    /// process; [`Transport::Tcp`] runs every rank as a real OS process
    /// over localhost sockets — `World::run` re-executes the current
    /// binary for ranks `1..p`, so the program must be deterministic up
    /// to this `build` call (see `srsf_runtime::transport`). Either way
    /// the factorization, the solution, and the per-rank communication
    /// counters are identical. Ignored by the other drivers.
    pub fn transport(mut self, transport: Transport) -> Self {
        self.opts = self.opts.with_transport(transport);
        self
    }

    /// Residency mode for [`Driver::Distributed`] (default: off). When
    /// on, `build` returns a solver backed by a **live resident rank
    /// world**: elimination records stay on the ranks that produced them
    /// (rank 0 holds only the dense top factorization and routing
    /// metadata — it never assembles the global record set), and every
    /// [`Solver::solve`]/[`Solver::solve_mat`] runs Algorithm 2's solve
    /// phase in place over a request/response command loop. This is the
    /// serving deployment of the paper: O(N/p) factor memory per rank and
    /// O(sqrt(N/p)) words moved per rank per solve, amortized over
    /// arbitrarily many right-hand sides. Results are bit-identical to
    /// the gather path's local solves on both transports.
    ///
    /// The world shuts down when the solver is dropped (or explicitly via
    /// [`Solver::shutdown`]). Off, the driver falls back to gathering all
    /// records onto rank 0 after factorization. Ignored by the other
    /// drivers.
    pub fn resident(mut self, resident: bool) -> Self {
        self.opts = self.opts.with_resident(resident);
        self
    }

    /// Directory where each rank of [`Driver::Distributed`] persists its
    /// factor snapshot when the build completes (created if absent;
    /// rank 0 also writes the manifest). A later
    /// [`Solver::restore_resident`] rebuilds a serving resident world
    /// from these files without re-factorizing. Ignored by the other
    /// drivers.
    pub fn checkpoint_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.opts = self.opts.with_checkpoint_dir(dir);
        self
    }

    /// Span tracing for [`Driver::Distributed`] (default: off). When on,
    /// every rank records phase, compute, and comm-wait spans into
    /// per-thread fixed-capacity ring buffers (`srsf-trace`), gathered as
    /// per-rank reports — [`Solver::trace_reports`] — and exportable as
    /// Chrome trace-event / Perfetto JSON or a plain-text profile table.
    /// Tracing is observation-only: a traced run is bit-identical to an
    /// untraced one in solutions and §IV message/word counters (the
    /// recorder never sends anything during the algorithm; reports move
    /// as uncounted result/service frames). Ignored by the other
    /// drivers.
    pub fn trace(mut self, trace: bool) -> Self {
        self.opts = self.opts.with_trace(trace);
        self
    }

    /// Select the skeletonization compression path (default:
    /// [`crate::Compression::sketched`]; [`crate::Compression::Cpqr`]
    /// restores the deterministic full-CPQR baseline). Both paths meet
    /// the same far-field accuracy bound — the sketched one verifies it
    /// a-posteriori per box and falls back to CPQR when it cannot.
    pub fn compression(mut self, compression: crate::Compression) -> Self {
        self.opts = self.opts.with_compression(compression);
        self
    }

    /// Replace the whole option set at once.
    pub fn opts(mut self, opts: FactorOpts) -> Self {
        self.opts = opts;
        self
    }

    /// Select the execution driver (default: [`Driver::Sequential`]).
    pub fn driver(mut self, driver: Driver) -> Self {
        self.driver = driver;
        self
    }

    /// The options as currently configured.
    pub fn current_opts(&self) -> &FactorOpts {
        &self.opts
    }

    /// Validate the configuration and run the selected driver.
    pub fn build(self) -> Result<Solver<K::Elem>, SrsfError> {
        let (solver, _) = self.build_inner(None)?;
        Ok(solver)
    }

    /// Build and additionally solve one right-hand side.
    ///
    /// The solve is [`Solver::try_solve`] on the built solver: a local
    /// sweep over the factorization for the sequential and colored
    /// drivers and for gathered [`Driver::Distributed`] builds, Algorithm
    /// 2's resident solve phase for [`SolverBuilder::resident`] ones.
    /// [`Solver::comm_stats`] counts the factorization phase only; the
    /// resident solve's traffic shows up in
    /// [`Solver::resident_comm_probe`]. The right-hand side is checked
    /// before anything is factored.
    pub fn build_with_solution(self, rhs: &[K::Elem]) -> Result<Solved<K::Elem>, SrsfError> {
        check_rhs(self.pts.len(), rhs.len(), rhs)?;
        let (solver, x) = self.build_inner(Some(rhs))?;
        // INVARIANT: build_inner(Some(rhs)) always produces a solution
        Ok((solver, x.expect("solution requested")))
    }

    fn build_inner(self, rhs: Option<&[K::Elem]>) -> Result<MaybeSolved<K::Elem>, SrsfError> {
        let Self {
            kernel,
            pts,
            opts,
            driver,
        } = self;
        if pts.is_empty() {
            return Err(SrsfError::EmptyPointSet);
        }
        if let Some(index) = pts
            .iter()
            .position(|p| !(p.x.is_finite() && p.y.is_finite()))
        {
            return Err(SrsfError::NonFinitePoint { index });
        }
        if let Some((first, second)) = coincident_pair(pts) {
            return Err(SrsfError::CoincidentPoints { first, second });
        }
        if !(opts.tol > 0.0 && opts.tol.is_finite()) {
            return Err(SrsfError::InvalidTolerance { tol: opts.tol });
        }
        if opts.leaf_size == 0 {
            return Err(SrsfError::InvalidLeafSize);
        }
        // Each driver owns exactly one threading lever; reject the others
        // instead of silently ignoring them (`gemm_threads` used to be a
        // no-op under the colored and distributed drivers).
        let driver_name = match driver {
            Driver::Sequential => "sequential",
            Driver::Colored { .. } => "colored",
            Driver::Distributed { .. } => "distributed",
        };
        if opts.gemm_threads != 1 && !matches!(driver, Driver::Sequential) {
            return Err(SrsfError::UnsupportedOption {
                option: "gemm_threads",
                driver: driver_name,
                instead: match driver {
                    Driver::Colored { .. } => "`Driver::Colored { threads, .. }`",
                    _ => "`SolverBuilder::rank_threads`",
                },
            });
        }
        if opts.rank_threads != 1 && !matches!(driver, Driver::Distributed { .. }) {
            return Err(SrsfError::UnsupportedOption {
                option: "rank_threads",
                driver: driver_name,
                instead: match driver {
                    Driver::Colored { .. } => "`Driver::Colored { threads, .. }`",
                    _ => "`SolverBuilder::gemm_threads`",
                },
            });
        }
        let tree = QuadTree::build(pts, domain_for(pts), opts.leaf_size);
        let (backend, comm, per_rank_bytes, traces) = match driver {
            Driver::Sequential => {
                let fact = factorize_with_tree(kernel, pts, &tree, &opts)?;
                (SolverBackend::Local(Box::new(fact)), None, None, Vec::new())
            }
            Driver::Colored { scheme, threads } => {
                if threads == 0 {
                    return Err(SrsfError::InvalidThreadCount);
                }
                let fact = factorize_scheduled(
                    kernel,
                    pts,
                    &tree,
                    &opts,
                    &Schedule::colored(scheme, threads),
                )?;
                (SolverBackend::Local(Box::new(fact)), None, None, Vec::new())
            }
            Driver::Distributed { grid } => {
                if opts.rank_threads == 0 {
                    return Err(SrsfError::InvalidThreadCount);
                }
                let leaf = tree.leaf_level();
                // Every rank must own at least a 2x2 block of leaf boxes
                // (Section III-B); reject oversized grids instead of
                // leaving ranks idle or panicking deeper down.
                let fits = grid.q() == 1 || (leaf >= 1 && grid.q() <= 1u32 << (leaf - 1));
                if !fits {
                    return Err(SrsfError::GridTooLarge {
                        p: grid.p(),
                        leaf_boxes: 1usize << (2 * leaf),
                    });
                }
                if opts.resident {
                    let svc = catch_rank_failure(|| {
                        dist_factorize_resident(kernel, pts, &tree, &grid, &opts)
                    })??;
                    let comm = svc.comm().clone();
                    let bytes = svc.bytes_per_rank().to_vec();
                    (
                        SolverBackend::Resident(Box::new(svc)),
                        Some(comm),
                        Some(bytes),
                        Vec::new(),
                    )
                } else {
                    let b = catch_rank_failure(|| {
                        dist_factorize_with_tree(kernel, pts, &tree, &grid, &opts)
                    })??;
                    (
                        SolverBackend::Local(Box::new(b.fact)),
                        Some(b.stats),
                        Some(b.per_rank_bytes),
                        b.traces,
                    )
                }
            }
        };
        let solver = Solver {
            backend,
            driver,
            comm,
            per_rank_bytes,
            traces,
        };
        let x = rhs.map(|b| solver.try_solve(b)).transpose()?;
        Ok((solver, x))
    }
}

/// Run a distributed-driver call, converting the rank world's
/// death-panics into the typed error. A rank dying mid-factorization
/// surfaces on rank 0 as a panic whose message names the dead peer
/// (peer-panic relay, bounded-receive timeout, lost-peer, injected
/// fault, or a TCP worker exiting without a result); those shapes become
/// [`SrsfError::RankFailed`] here at the driver boundary — the rank
/// world has already torn itself down by the time the panic reaches us —
/// and anything else keeps unwinding untouched.
fn catch_rank_failure<R>(f: impl FnOnce() -> R) -> Result<R, SrsfError> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(r) => Ok(r),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&'static str>().copied());
            match msg.and_then(parse_rank_failure) {
                Some((rank, step)) => Err(SrsfError::RankFailed { rank, step }),
                None => std::panic::resume_unwind(payload),
            }
        }
    }
}

/// Recognize the panic-message shapes the runtime emits when a peer rank
/// dies, returning `(failed rank, step description)`.
fn parse_rank_failure(msg: &str) -> Option<(usize, String)> {
    let msg = msg.strip_prefix("barrier failed: ").unwrap_or(msg);
    // The step a receive-flavored message died in is the trailing
    // parenthesized tag description, when present.
    let paren_step = |msg: &str| -> Option<String> {
        let (_, tail) = msg.rsplit_once('(')?;
        Some(tail.trim_end_matches(')').to_string())
    };
    // "injected fault: rank R crashed at barrier K" (rank 0 itself hit a
    // FaultPlan crash point).
    if let Some(rest) = msg.strip_prefix("injected fault: rank ") {
        let rank = rest.split_whitespace().next()?.parse().ok()?;
        return Some((rank, msg.to_string()));
    }
    // "rank A: rank B panicked: <original message>"
    if let Some((head, tail)) = msg.split_once(" panicked: ") {
        let rank = head.rsplit("rank ").next()?.parse().ok()?;
        return Some((rank, format!("peer panic: {tail}")));
    }
    // "worker rank B exited without reporting a result" (TCP parent).
    if let Some(rest) = msg.strip_prefix("worker rank ") {
        let rank = rest.split_whitespace().next()?.parse().ok()?;
        return Some((rank, "worker exit before reporting a result".to_string()));
    }
    // "rank A timed out after .. waiting for a message from rank B with
    // tag T (STEP)"
    if msg.contains(" timed out after ") {
        let rest = msg.split("from rank ").nth(1)?;
        let rank = rest.split_whitespace().next()?.parse().ok()?;
        let step = paren_step(msg).unwrap_or_else(|| "message wait".to_string());
        return Some((rank, format!("timeout during {step}")));
    }
    // "rank A lost rank B while waiting for tag T (STEP)"
    if let Some(rest) = msg.split(" lost rank ").nth(1) {
        let rank = rest.split_whitespace().next()?.parse().ok()?;
        let step = paren_step(msg).unwrap_or_else(|| "message wait".to_string());
        return Some((rank, step));
    }
    None
}
