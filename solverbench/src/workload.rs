//! The three workloads and the closed-loop run shared by all of them.
//!
//! Every run is closed-loop with one client thread:
//!
//! * **Set-up.** `BUILDS` `build()` calls; `setup_s` is their median.
//!   There is no separate warm-up: the first build of a process runs
//!   cold (thread start-up, first-touch page faults), and the median of
//!   three keeps it from setting the figure.
//! * **Solves.** After each build, for a third of `--seconds` and at
//!   least `MIN_SINGLES` single solves, rounds of `SINGLES_PER_ROUND`
//!   single-RHS `try_solve` calls followed by one 64-column
//!   `try_solve_mat`. Each round yields its own median and 90th
//!   percentile; the latency metrics are their medians over all rounds
//!   of the run, and the block metric is the median block time. A slow
//!   spell of a shared machine that hits a minority of rounds, or the
//!   memory layout of one of the three factorizations, does not set
//!   them.
//!
//! Every output is checked to be finite; a fixed set of them is checked
//! against the workload's residual bound. The traced run repeats all of
//! this and then measures the layers (see `layers`).

use crate::replay::{replay, Replay};
use crate::stats::{median, metric, percentile, Metric, Rng};
use srsf::prelude::*;
use srsf::runtime::WorldStats;
use srsf::trace::{Cat, TraceReport};
use std::time::Instant;

/// ID tolerance of every workload.
const TOL: f64 = 1e-6;
/// Target points per leaf box.
const LEAF: usize = 64;
/// Ranks of the distributed workload.
const RANKS: usize = 4;
/// Timed builds per run; `setup_s` is their median.
const BUILDS: usize = 3;
/// Single solves per round; each round ends with one block solve.
const SINGLES_PER_ROUND: usize = 32;
/// Single solves per build at least: 300 per run, so the run's 90th
/// percentile has ten samples beyond it many times over.
const MIN_SINGLES: usize = 100;
/// Columns of the block right-hand side.
const BLOCK_COLS: usize = 64;
/// Distinct single right-hand sides, cycled through by the solve loop.
const RHS_POOL: usize = 8;
/// Per build, the first this-many single solves are residual-checked
/// (every right-hand side of the pool once), plus every
/// `CHECKED_COL_STRIDE`-th column of the first block solve. The checked
/// set is fixed, so `relres`, pooled over it, repeats exactly for a seed.
const CHECKED_SINGLES: usize = RHS_POOL;
const CHECKED_COL_STRIDE: usize = 8;
/// Rows sampled for the residual of the scattered workload.
const SAMPLED_ROWS: usize = 1024;
/// Bound on the relative residual of every checked solve.
const RELRES_BOUND: f64 = 1e-4;
/// Replay coverage below this fails the traced run.
const MIN_COVERAGE: f64 = 0.95;

/// Seeded input streams, one per kind of input (build `k` of the
/// scattered workload draws its cloud and residual rows from `+ k`).
const STREAM_BLOCK: u64 = 1;
const STREAM_SINGLE: u64 = 16;
const STREAM_POINTS: u64 = 64;
const STREAM_ROWS: u64 = 128;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    LaplaceGrid,
    HelmholtzScatter,
    LaplaceDist4,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::LaplaceGrid,
        Workload::HelmholtzScatter,
        Workload::LaplaceDist4,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::LaplaceGrid => "laplace-grid-64k",
            Workload::HelmholtzScatter => "helmholtz-scatter-16k",
            Workload::LaplaceDist4 => "laplace-dist4-64k",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// What one invocation asks for.
pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny problem sizes, for the benchmark's own test.
    pub smoke: bool,
}

/// The outcome of one run.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed check.
    pub errors: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Human-readable lines printed ahead of the result line.
    pub notes: Vec<String>,
}

impl Report {
    /// A failed operation: counted in `failed` and failing the run.
    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.errors.push(what);
    }

    /// A check outside the attempted operations (replay fidelity,
    /// coverage): it fails the run without counting as an operation.
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }
}

pub fn run(plan: &Plan) -> Report {
    let (side, cloud) = if plan.smoke { (32, 1024) } else { (256, 16384) };
    match plan.workload {
        Workload::LaplaceGrid | Workload::LaplaceDist4 => {
            let distributed = plan.workload == Workload::LaplaceDist4;
            // Four ranks need at least a 2x2 block of leaf boxes each.
            let side = if distributed && plan.smoke { 64 } else { side };
            let grid = UnitGrid::new(side);
            let kernel = LaplaceKernel::new(&grid);
            let check = Residual::Fast(Box::new(FastKernelOp::laplace(&kernel, &grid)));
            let instances = vec![Instance {
                pts: grid.points(),
                check,
            }];
            Problem {
                kernel,
                instances,
                distributed,
            }
            .run(plan)
        }
        Workload::HelmholtzScatter => {
            // The potential is 1 everywhere; the grid fixes the quadrature
            // weight h^2. Each build factors its own seeded cloud.
            let cells = UnitGrid::new((cloud as f64).sqrt() as usize);
            let kernel = HelmholtzKernel::with_potential(&cells, 25.0, |_| 1.0);
            let instances = (0..BUILDS as u64)
                .map(|k| {
                    let pts = jittered(&cells, Rng::new(plan.seed, STREAM_POINTS + k));
                    let check =
                        Residual::sampled_rows(pts.len(), Rng::new(plan.seed, STREAM_ROWS + k));
                    Instance { pts, check }
                })
                .collect();
            Problem {
                kernel,
                instances,
                distributed: false,
            }
            .run(plan)
        }
    }
}

/// Every grid point moved off its cell centre by a seeded offset of up
/// to a sixteenth of a cell per axis: off the grid, so no symbol table
/// or FFT route applies, yet close to uniform spacing, so the
/// conditioning (and `relres`) does not hinge on the seed the way it
/// does on a uniform random cloud.
fn jittered(cells: &UnitGrid, mut rng: Rng) -> Vec<Point> {
    let h = cells.h();
    (0..cells.n())
        .map(|i| {
            let c = cells.point(i);
            let (dx, dy) = (rng.unit() - 0.5, rng.unit() - 0.5);
            Point::new(c.x + h * dx / 8.0, c.y + h * dy / 8.0)
        })
        .collect()
}

/// How a workload measures the relative residual `||Ax - b|| / ||b||`.
enum Residual<T> {
    /// Every row, through the FFT operator of a uniform grid.
    Fast(Box<dyn LinOp<T>>),
    /// A seeded, stratified sample of row ids, evaluated from
    /// `Kernel::entry` and `Kernel::diag`.
    Rows(Vec<usize>),
}

impl<T: Scalar> Residual<T> {
    /// One row drawn from each of `SAMPLED_ROWS` runs of consecutive ids;
    /// the points are in row-major cell order, so the sample is spread
    /// over the whole square.
    fn sampled_rows(n: usize, mut rng: Rng) -> Self {
        let take = SAMPLED_ROWS.min(n);
        Residual::Rows(
            (0..take)
                .map(|k| {
                    let (lo, hi) = (k * n / take, (k + 1) * n / take);
                    lo + (rng.next_u64() % (hi - lo) as u64) as usize
                })
                .collect(),
        )
    }

    /// `(||Ax - b||^2, ||b||^2)` of each solution over the rows this
    /// check covers. Sampled rows are evaluated once for all solutions.
    fn squares<K: Kernel<Elem = T>>(
        &self,
        kernel: &K,
        pts: &[Point],
        sols: &[Solution<T>],
    ) -> Vec<(f64, f64)> {
        match self {
            Residual::Fast(op) => sols
                .iter()
                .map(|s| sum_squares(op.apply(&s.x).into_iter().zip(s.b.iter().copied())))
                .collect(),
            Residual::Rows(ids) => {
                let mut ax = vec![vec![T::ZERO; ids.len()]; sols.len()];
                for (r, &i) in ids.iter().enumerate() {
                    for j in 0..pts.len() {
                        let a = kernel.entry_or_diag(pts, i, j);
                        for (acc, s) in ax.iter_mut().zip(sols) {
                            acc[r] += a * s.x[j];
                        }
                    }
                }
                ax.into_iter()
                    .zip(sols)
                    .map(|(row, s)| sum_squares(row.into_iter().zip(ids.iter().map(|&i| s.b[i]))))
                    .collect()
            }
        }
    }
}

/// `(sum |ax - b|^2, sum |b|^2)` over `(ax, b)` pairs.
fn sum_squares<T: Scalar>(pairs: impl Iterator<Item = (T, T)>) -> (f64, f64) {
    pairs.fold((0.0, 0.0), |(r, n), (ax, b)| {
        (r + (ax - b).abs_sq(), n + b.abs_sq())
    })
}

/// A finite solution kept for the residual check after its build.
struct Solution<T> {
    what: String,
    x: Vec<T>,
    b: Vec<T>,
}

/// Residuals of the checked solves: each one against the bound, and
/// pooled as `sqrt(sum ||Ax - b||^2 / sum ||b||^2)` for the metric.
#[derive(Default)]
struct Accuracy {
    r2: f64,
    b2: f64,
    worst: f64,
    checked: usize,
}

/// One point set of a workload and the residual check that goes with it.
struct Instance<T> {
    pts: Vec<Point>,
    check: Residual<T>,
}

struct Problem<K: Kernel> {
    kernel: K,
    /// Build `k` factors `instances[k % len]`: the grids have one point
    /// set, the scattered workload one seeded cloud per build.
    instances: Vec<Instance<K::Elem>>,
    distributed: bool,
}

/// What the end-to-end phase leaves for the layer measurements.
struct Measured<T> {
    /// The solver of the last build.
    solver: Solver<T>,
    setup_s: f64,
    p50_ms: f64,
    block_s: f64,
    /// Per-solve `(messages, words)` of the most loaded rank (resident
    /// solvers only).
    traffic: Option<(f64, f64)>,
}

impl<K: Kernel> Problem<K> {
    fn instance(&self, k: usize) -> &Instance<K::Elem> {
        &self.instances[k % self.instances.len()]
    }

    /// Factorization options shared by every build of the workload.
    fn opts(&self) -> FactorOpts {
        FactorOpts::default().with_tol(TOL).with_leaf_size(LEAF)
    }

    /// The workload's builder for build `k`.
    fn builder(&self, k: usize, trace: bool) -> SolverBuilder<'_, K> {
        let b = Solver::builder(&self.kernel, &self.instance(k).pts).opts(self.opts());
        if self.distributed {
            b.driver(Driver::distributed(RANKS))
                .rank_threads(1)
                .transport(Transport::InProc)
                .resident(true)
                .trace(trace)
        } else {
            b
        }
    }

    fn ranks(&self) -> usize {
        if self.distributed {
            RANKS
        } else {
            1
        }
    }

    fn run(&self, plan: &Plan) -> Report {
        let mut rep = Report::default();
        let Some(m) = self.measure(plan, &mut rep) else {
            return rep;
        };
        if plan.trace {
            self.layers(m, &mut rep);
        }
        rep
    }

    /// Whether every entry is finite; a non-finite solution fails.
    fn finite(x: &[K::Elem], what: &str, rep: &mut Report) -> bool {
        let ok = x.iter().all(|v| v.is_finite());
        if !ok {
            rep.fail(format!("{what}: non-finite solution"));
        }
        ok
    }

    /// One single solve of `b`; returns its latency in ms. A finite
    /// solution is kept for the residual check when `keep` is given.
    fn single(
        solver: &Solver<K::Elem>,
        b: &[K::Elem],
        what: String,
        keep: Option<&mut Vec<Solution<K::Elem>>>,
        rep: &mut Report,
    ) -> Option<f64> {
        rep.attempted += 1;
        let t = Instant::now();
        let out = solver.try_solve(b);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        match out {
            Ok(x) if Self::finite(&x, &what, rep) => {
                if let Some(keep) = keep {
                    keep.push(Solution {
                        what,
                        x,
                        b: b.to_vec(),
                    });
                }
                Some(ms)
            }
            Ok(_) => None,
            Err(e) => {
                rep.fail(format!("{what}: {e}"));
                None
            }
        }
    }

    /// One block solve of `rhs`; returns its wall time in s. When `keep`
    /// is given, every `CHECKED_COL_STRIDE`-th column is kept for the
    /// residual check.
    fn block(
        solver: &Solver<K::Elem>,
        rhs: &Mat<K::Elem>,
        what: String,
        keep: Option<&mut Vec<Solution<K::Elem>>>,
        rep: &mut Report,
    ) -> Option<f64> {
        rep.attempted += 1;
        let t = Instant::now();
        let out = solver.try_solve_mat(rhs);
        let s = t.elapsed().as_secs_f64();
        match out {
            Ok(x) if Self::finite(x.as_slice(), &what, rep) => {
                if let Some(keep) = keep {
                    for c in (0..BLOCK_COLS).step_by(CHECKED_COL_STRIDE) {
                        keep.push(Solution {
                            what: format!("{what} column {c}"),
                            x: x.col(c).to_vec(),
                            b: rhs.col(c).to_vec(),
                        });
                    }
                }
                Some(s)
            }
            Ok(_) => None,
            Err(e) => {
                rep.fail(format!("{what}: {e}"));
                None
            }
        }
    }

    /// Check the kept solutions of build `k` against the bound and pool
    /// their residuals into `acc`.
    fn settle(&self, k: usize, sols: &[Solution<K::Elem>], acc: &mut Accuracy, rep: &mut Report) {
        let inst = self.instance(k);
        for (s, (r2, b2)) in sols
            .iter()
            .zip(inst.check.squares(&self.kernel, &inst.pts, sols))
        {
            let r = (r2 / b2).sqrt();
            if r.is_nan() || r > RELRES_BOUND {
                rep.fail(format!(
                    "{}: relres {r:.3e} above {RELRES_BOUND:.0e}",
                    s.what
                ));
            }
            acc.r2 += r2;
            acc.b2 += b2;
            acc.worst = acc.worst.max(r);
            acc.checked += 1;
        }
    }

    fn measure(&self, plan: &Plan, rep: &mut Report) -> Option<Measured<K::Elem>> {
        let n = self.instance(0).pts.len();
        let pool: Vec<Vec<K::Elem>> = (0..RHS_POOL)
            .map(|i| Rng::new(plan.seed, STREAM_SINGLE + i as u64).vector(n))
            .collect();
        let rhs = Mat::from_vec(
            n,
            BLOCK_COLS,
            Rng::new(plan.seed, STREAM_BLOCK).vector(n * BLOCK_COLS),
        );

        let mut build_s = Vec::with_capacity(BUILDS);
        let mut bytes = Vec::with_capacity(BUILDS);
        // Per round: (median, 90th percentile) of its single-solve
        // latencies in ms.
        let mut rounds: Vec<(f64, f64)> = Vec::new();
        let mut block_s = Vec::new();
        let mut singles_done = 0;
        let mut acc = Accuracy::default();
        let mut traffic = None;
        let mut solver = None;
        for k in 0..BUILDS {
            // Free the previous factorization before building the next.
            drop(solver.take());
            rep.attempted += 1;
            let t = Instant::now();
            let s = match self.builder(k, false).build() {
                Ok(s) => {
                    build_s.push(t.elapsed().as_secs_f64());
                    solver.insert(s)
                }
                Err(e) => {
                    rep.fail(format!("build {k}: {e}"));
                    continue;
                }
            };
            bytes.push(
                s.memory_bytes_max_rank()
                    .unwrap_or_else(|| s.memory_bytes()) as f64,
            );
            let mut kept = Vec::new();
            let (mut singles, mut blocks) = (0, 0);
            let start = Instant::now();
            while start.elapsed().as_secs_f64() < plan.seconds / BUILDS as f64
                || singles < MIN_SINGLES
            {
                let before = if traffic.is_none() {
                    s.resident_comm_probe()
                } else {
                    None
                };
                let mut lat_ms = Vec::with_capacity(SINGLES_PER_ROUND);
                for _ in 0..SINGLES_PER_ROUND {
                    let what = format!("build {k} solve {singles}");
                    let keep = (singles < CHECKED_SINGLES).then_some(&mut kept);
                    let b = &pool[singles % RHS_POOL];
                    lat_ms.extend(Self::single(s, b, what, keep, rep));
                    singles += 1;
                }
                if !lat_ms.is_empty() {
                    singles_done += lat_ms.len();
                    rounds.push((percentile(&lat_ms, 0.5), percentile(&lat_ms, 0.9)));
                }
                if let Some((a, b)) = before.zip(s.resident_comm_probe()) {
                    traffic = Some(solve_traffic(&a, &b, SINGLES_PER_ROUND));
                }
                let what = format!("build {k} block {blocks}");
                let keep = (blocks == 0).then_some(&mut kept);
                block_s.extend(Self::block(s, &rhs, what, keep, rep));
                blocks += 1;
            }
            self.settle(k, &kept, &mut acc, rep);
        }
        let solver = solver?;
        if rounds.is_empty() || block_s.is_empty() {
            return None;
        }

        let setup_s = median(&build_s);
        let p50_ms = median(&rounds.iter().map(|r| r.0).collect::<Vec<_>>());
        let p90_ms = median(&rounds.iter().map(|r| r.1).collect::<Vec<_>>());
        let block = median(&block_s);
        let bytes_per_dof = median(&bytes) / (n as f64 / self.ranks() as f64);
        let relres = (acc.r2 / acc.b2).sqrt();
        let failed_frac = rep.failed as f64 / rep.attempted as f64;
        rep.end_to_end = vec![
            metric("setup_s", setup_s, "s"),
            metric("solve_p50_ms", p50_ms, "ms"),
            metric("solve_p90_ms", p90_ms, "ms"),
            metric("block_rhs_per_s", BLOCK_COLS as f64 / block, "1/s"),
            metric("bytes_per_dof", bytes_per_dof, "B"),
            metric("relres", relres, "1"),
        ];
        rep.notes.extend([
            format!("N = {n}, ranks = {}, tol = {TOL:e}, leaf = {LEAF}", self.ranks()),
            format!("setup_s         {setup_s:.4} s, median of builds {build_s:.4?}"),
            format!(
                "solve_p50_ms    {p50_ms:.4} ms, median over {} rounds of {SINGLES_PER_ROUND}; {singles_done} single solves",
                rounds.len()
            ),
            format!("solve_p90_ms    {p90_ms:.4} ms, median over the same rounds"),
            format!(
                "block_rhs_per_s {:.4} 1/s, {BLOCK_COLS} / median of {} block solve times",
                BLOCK_COLS as f64 / block,
                block_s.len()
            ),
            format!("bytes_per_dof   {bytes_per_dof:.4} B, median of per-build max-rank factor bytes {bytes:?}"),
            format!(
                "relres          {relres:.4e}, pooled over {} checked solves; worst {:.4e}, bound {RELRES_BOUND:.0e} on each",
                acc.checked, acc.worst
            ),
            format!("failed_frac     {failed_frac}, {} of {} builds and solves", rep.failed, rep.attempted),
        ]);
        Some(Measured {
            solver,
            setup_s,
            p50_ms,
            block_s: block,
            traffic,
        })
    }

    /// The traced run's layer measurements, after the end-to-end phase.
    fn layers(&self, m: Measured<K::Elem>, rep: &mut Report) {
        // The last build's point set: its solver is `m.solver`.
        let last = BUILDS - 1;
        let pts = &self.instance(last).pts;

        // Counters of the workload's own timed build.
        let stats = m.solver.stats().clone();
        let tel = stats.compression;
        let boxes: usize = stats.ranks.values().map(|(b, _)| b).sum();
        let rank_sum: usize = stats.ranks.values().map(|(_, s)| s).sum();
        let applies = tel.fft_block_applies + tel.dense_block_applies;
        let fft_share = if applies == 0 {
            0.0
        } else {
            tel.fft_block_applies as f64 / applies as f64
        };
        let mut out = vec![
            metric(
                "solve.block_vs_vec",
                BLOCK_COLS as f64 * m.p50_ms / 1e3 / m.block_s,
                "1",
            ),
            metric("skeletonize.boxes", boxes as f64, "count"),
            metric("skeletonize.rank_sum", rank_sum as f64, "count"),
            metric(
                "skeletonize.sketch_fallbacks",
                tel.sketch_fallbacks as f64,
                "count",
            ),
            metric(
                "skeletonize.sketch_accept_ratio",
                boxes as f64 / (boxes + tel.sketch_retries as usize) as f64,
                "1",
            ),
            metric("skeletonize.fft_block_share", fft_share, "1"),
            metric("core.top_size", m.solver.top_size() as f64, "count"),
            metric("core.record_bytes", stats.record_bytes as f64, "B"),
        ];
        rep.notes.push(format!(
            "sketch telemetry: {} retries, {} fallbacks, {} FFT and {} dense block applies",
            tel.sketch_retries,
            tel.sketch_fallbacks,
            tel.fft_block_applies,
            tel.dense_block_applies
        ));

        // The rank world. The sequential driver is one rank that sends
        // nothing and records no spans; its `trace.*` figures are the
        // build's own `FactorStats` timers.
        let (traced_setup_s, reference) = if self.distributed {
            let comm = m.solver.comm_stats().cloned().unwrap_or_default();
            let serve_bytes = m.solver.memory_bytes_max_rank().unwrap_or(0);
            let (msgs, words) = m.traffic.unwrap_or((f64::NAN, f64::NAN));
            drop(m.solver);
            let t = Instant::now();
            let traced = self.builder(last, true).build();
            let traced_setup_s = t.elapsed().as_secs_f64();
            let reports = match traced {
                Ok(s) => s.trace_reports(),
                Err(e) => return rep.errors.push(format!("traced build: {e}")),
            };
            let compute: Vec<f64> = comm.per_rank.iter().map(|r| r.compute_s).collect();
            let max_compute = compute.iter().copied().fold(0.0, f64::max);
            let mean_compute = compute.iter().sum::<f64>() / compute.len().max(1) as f64;
            let max_wait = comm.per_rank.iter().map(|r| r.wait_s).fold(0.0, f64::max);
            let span_s = |pick: fn(Cat, &str) -> bool| slowest_rank(&reports, pick);
            out.extend([
                metric(
                    "runtime.factor_words_max_rank",
                    comm.max_words() as f64,
                    "words",
                ),
                metric(
                    "runtime.factor_msgs_max_rank",
                    comm.max_msgs() as f64,
                    "count",
                ),
                metric("runtime.compute_s_max_rank", max_compute, "s"),
                metric("runtime.wait_s_max_rank", max_wait, "s"),
                metric("runtime.compute_imbalance", max_compute / mean_compute, "1"),
                metric("runtime.solve_words_max_rank", words, "words"),
                metric("runtime.solve_msgs_max_rank", msgs, "count"),
                metric("serve.bytes_max_rank", serve_bytes as f64, "B"),
                metric(
                    "trace.eliminate_s",
                    span_s(|c, l| c == Cat::Compute && l.starts_with("eliminate")),
                    "s",
                ),
                metric(
                    "trace.merge_s",
                    span_s(|c, l| c == Cat::Compute && l.starts_with("merge")),
                    "s",
                ),
                metric(
                    "trace.top_s",
                    span_s(|c, l| c == Cat::Phase && l.starts_with("top")),
                    "s",
                ),
                metric("trace.comm_wait_s", span_s(|c, _| c == Cat::Comm), "s"),
            ]);
            // The replay below is Algorithm 1, which the distributed
            // driver does not run box for box: check it against a
            // sequential build of the same problem.
            match Solver::builder(&self.kernel, pts).opts(self.opts()).build() {
                Ok(s) => (Some(traced_setup_s), (s.stats().clone(), s.top_size())),
                Err(e) => return rep.errors.push(format!("sequential reference build: {e}")),
            }
        } else {
            let bytes = m.solver.memory_bytes();
            let top_size = m.solver.top_size();
            drop(m.solver);
            out.extend([
                metric("runtime.factor_words_max_rank", 0.0, "words"),
                metric("runtime.factor_msgs_max_rank", 0.0, "count"),
                metric("runtime.compute_s_max_rank", stats.total_s, "s"),
                metric("runtime.wait_s_max_rank", 0.0, "s"),
                metric("runtime.compute_imbalance", 1.0, "1"),
                metric("runtime.solve_words_max_rank", 0.0, "words"),
                metric("runtime.solve_msgs_max_rank", 0.0, "count"),
                metric("serve.bytes_max_rank", bytes as f64, "B"),
                metric("trace.eliminate_s", stats.eliminate_s, "s"),
                metric("trace.merge_s", stats.merge_s, "s"),
                metric("trace.top_s", stats.top_s, "s"),
                metric("trace.comm_wait_s", 0.0, "s"),
            ]);
            // The replay below stands in for the traced set-up.
            (None, (stats, top_size))
        };

        let r = match replay(&self.kernel, pts, &self.opts()) {
            Ok(r) => r,
            Err(e) => return rep.errors.push(e),
        };
        let (ref_stats, ref_top_size) = reference;
        check_replay(&r, &ref_stats, ref_top_size, rep);
        let traced_setup_s = traced_setup_s.unwrap_or(r.wall_s);
        out.extend([
            metric("geometry.tree_s", r.tree_s, "s"),
            metric("skeletonize.ctx_s", r.ctx_s, "s"),
            metric("skeletonize.s", r.skeletonize_s, "s"),
            metric("elimination.s", r.elimination_s(), "s"),
            metric("store.apply_s", r.apply_s, "s"),
            metric("levels.merge_s", r.merge_s, "s"),
            metric("top.s", ref_stats.top_s, "s"),
            metric("top.lu_s", r.top_lu_s, "s"),
            metric("store.peak_bytes", r.peak_store_bytes as f64, "B"),
            metric("replay.coverage", r.coverage(), "1"),
            metric("trace.overhead_ratio", traced_setup_s / m.setup_s, "1"),
        ]);
        rep.notes.push(format!(
            "replay: wall {:.4} s, coverage {:.4}, top size {}, ranks per level {:?}",
            r.wall_s,
            r.coverage(),
            r.top_size,
            r.ranks
        ));
        rep.per_layer = out;
    }
}

/// The replay must have run the program it reports on: the same boxes,
/// ranks, top block, peak store and record bytes as the sequential build
/// it mirrors, with its timers covering its wall time.
fn check_replay(r: &Replay, build: &FactorStats, top_size: usize, rep: &mut Report) {
    rep.check(r.ranks == build.ranks, || {
        format!(
            "replay ranks {:?} differ from the build's {:?}",
            r.ranks, build.ranks
        )
    });
    rep.check(r.top_size == top_size, || {
        format!(
            "replay top size {} differs from the build's {top_size}",
            r.top_size
        )
    });
    rep.check(r.peak_store_bytes == build.peak_store_bytes, || {
        format!(
            "replay peak store {} B differs from the build's {} B",
            r.peak_store_bytes, build.peak_store_bytes
        )
    });
    rep.check(r.record_bytes == build.record_bytes, || {
        format!(
            "replay record bytes {} differ from the build's {}",
            r.record_bytes, build.record_bytes
        )
    });
    rep.check(r.coverage() >= MIN_COVERAGE, || {
        format!("replay coverage {:.4} below {MIN_COVERAGE}", r.coverage())
    });
}

/// Per-solve `(messages, words)` of the most loaded rank between two
/// cumulative probes bracketing `solves` solves.
fn solve_traffic(before: &WorldStats, after: &WorldStats, solves: usize) -> (f64, f64) {
    let mut msgs: u64 = 0;
    let mut words: u64 = 0;
    for (a, b) in before.per_rank.iter().zip(&after.per_rank) {
        msgs = msgs.max(b.msgs_sent - a.msgs_sent);
        words = words.max(b.words_sent - a.words_sent);
    }
    (msgs as f64 / solves as f64, words as f64 / solves as f64)
}

/// The slowest rank's total span time over spans selected by `pick`.
fn slowest_rank(reports: &[TraceReport], pick: impl Fn(Cat, &str) -> bool) -> f64 {
    reports
        .iter()
        .map(|rep| {
            rep.spans
                .iter()
                .filter(|s| Cat::from_u8(s.cat).is_some_and(|c| pick(c, &s.name)))
                .map(|s| s.dur_ns)
                .sum::<u64>() as f64
                / 1e9
        })
        .fold(0.0, f64::max)
}
