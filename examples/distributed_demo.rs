//! The distributed-memory factorization on a process grid: interior/
//! boundary phases, 4-color rounds, neighbor-only messages — with the
//! measured communication counters checked against the paper's §IV
//! bounds, over either transport backend.
//!
//! ```sh
//! # Default: 4 ranks as threads (in-process transport), 64x64 grid.
//! cargo run --release --example distributed_demo
//!
//! # 4 ranks as real OS processes over localhost TCP; also re-runs the
//! # factorization in-process and checks the two backends produced
//! # bit-identical solutions and identical counters.
//! cargo run --release --example distributed_demo -- --transport tcp
//!
//! # Resident serving: factor once, keep the rank world alive, amortize
//! # k solves against it — records never leave their ranks, and the
//! # per-solve communication is measured separately from factorization.
//! cargo run --release --example distributed_demo -- --resident --solve-reps 5
//!
//! # Vary the grid and the process count (p must be a power of four).
//! cargo run --release --example distributed_demo -- --p 16 --side 128
//!
//! # Tracing and metrics: write a Chrome/Perfetto trace of the traced
//! # run, print the per-phase profile table, and (with --resident) the
//! # serve-metrics snapshot: latency histogram + per-rank gauges.
//! cargo run --release --example distributed_demo -- --trace-out trace.json
//! cargo run --release --example distributed_demo -- --resident --metrics
//!
//! # Chaos: checkpoint the factorization, kill a worker mid-serve with a
//! # seeded fault plan, watch the typed failure, then restore the world
//! # from the snapshots and verify a bit-identical re-solve.
//! cargo run --release --example distributed_demo -- --transport tcp --chaos
//! ```

use srsf::prelude::*;
use srsf::runtime::NetworkModel;
use std::time::Instant;

struct Args {
    side: usize,
    p: usize,
    transport: Transport,
    resident: bool,
    solve_reps: usize,
    chaos: bool,
    trace_out: Option<String>,
    metrics: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        side: 64,
        p: 4,
        transport: Transport::InProc,
        resident: false,
        solve_reps: 5,
        chaos: false,
        trace_out: None,
        metrics: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{what} expects a value; see --help"))
        };
        match flag.as_str() {
            "--side" => args.side = value("--side").parse().expect("--side N"),
            "--p" => args.p = value("--p").parse().expect("--p N"),
            "--transport" => {
                args.transport = value("--transport")
                    .parse()
                    .unwrap_or_else(|e| panic!("{e}"))
            }
            "--resident" => args.resident = true,
            "--chaos" => args.chaos = true,
            "--trace-out" => args.trace_out = Some(value("--trace-out")),
            "--metrics" => args.metrics = true,
            "--solve-reps" => {
                // At least one solve: the per-solve counter math divides
                // by the rep count.
                args.solve_reps = value("--solve-reps")
                    .parse::<usize>()
                    .expect("--solve-reps K")
                    .max(1)
            }
            "--help" | "-h" => {
                println!(
                    "usage: distributed_demo [--side N] [--p N] [--transport inproc|tcp]\n\
                     \x20                       [--resident [--solve-reps K]] [--chaos]\n\
                     \x20                       [--trace-out trace.json] [--metrics]\n\
                     defaults: --side 64 --p 4 --transport inproc --solve-reps 5"
                );
                std::process::exit(0);
            }
            other => panic!("unknown flag {other:?}; see --help"),
        }
    }
    args
}

/// Chaos demo: factor with per-rank checkpoints under a seeded fault
/// plan that kills a worker rank at its first solve barrier, show the
/// typed `RankFailed` failure (bounded by the receive timeout, no hang),
/// drop the degraded world cleanly, then restore a fresh resident world
/// from the snapshots and verify the re-solve is bit-identical to a
/// fault-free reference.
fn run_chaos(side: usize, p: usize, transport: Transport) {
    assert!(
        p >= 4,
        "--chaos needs --p >= 4: a worker rank dies while the rest survive"
    );
    let victim = p - 1; // a worker rank; rank 0 must survive to report
                        // Fixed location: on the TCP transport the worker processes
                        // re-execute this binary and must resolve the same directory.
    let dir = std::env::temp_dir().join("srsf_demo_chaos_ckpt");
    let plan = FaultPlan::seeded(29).with_crash(victim as u32, 1);

    let grid = UnitGrid::new(side);
    let kernel = LaplaceKernel::new(&grid);
    let pts = grid.points();
    let b = random_vector::<f64>(grid.n(), 11);

    println!(
        "chaos: N = {}, p = {p} ranks, transport = {transport}",
        grid.n()
    );
    println!("chaos: checkpointing every rank into {}", dir.display());
    println!("chaos: seeded plan crashes rank {victim} at its first solve barrier");
    // The factor sweep is barrier-free, so the build completes (and the
    // snapshots are written) before the injected crash can fire.
    let doomed = Solver::builder(&kernel, &pts)
        .opts(
            FactorOpts::default()
                .with_tol(1e-6)
                .with_recv_timeout(std::time::Duration::from_secs(5)),
        )
        .driver(Driver::distributed(p))
        .transport(transport.with_faults(plan))
        .resident(true)
        .checkpoint_dir(&dir)
        .build()
        .expect("chaos factorization (the crash fires mid-serve, not mid-factor)");

    println!("chaos: solving — rank {victim}'s crash report follows on stderr");
    let t0 = Instant::now();
    match doomed.try_solve(&b) {
        Ok(_) => panic!("the injected crash should have failed this solve"),
        Err(e) => {
            assert!(
                matches!(e, SrsfError::RankFailed { .. }),
                "expected RankFailed, got {e}"
            );
            println!(
                "chaos: typed failure after {:.2?}: SrsfError::RankFailed ({e})",
                t0.elapsed()
            );
        }
    }
    drop(doomed);
    println!("chaos: degraded world dropped; surviving workers reaped");

    let restored =
        Solver::restore_resident(&pts, &dir, Transport::InProc).expect("restore from snapshots");
    println!("restore: resident world rebuilt from the snapshots (no re-factorization)");
    let x = restored.try_solve(&b).expect("restored solve");

    let gathered = Solver::builder(&kernel, &pts)
        .tol(1e-6)
        .driver(Driver::distributed(p))
        .build()
        .expect("fault-free reference factorization");
    let want = gathered.solve_mat(&Mat::from_vec(b.len(), 1, b.clone()));
    assert_eq!(
        x,
        want.as_slice().to_vec(),
        "restored solve must match the fault-free reference bit for bit"
    );
    println!("restore: re-solve bit-identical to the fault-free gathered reference");
}

/// Resident-service demo: factor once on a persistent rank world, serve
/// `reps` solves in place, report the amortization and the per-solve
/// communication, and check the served results against the gathered
/// factorization bit for bit.
fn run_resident(
    side: usize,
    p: usize,
    transport: Transport,
    reps: usize,
    trace_out: Option<&str>,
    metrics: bool,
) {
    let grid = UnitGrid::new(side);
    let kernel = LaplaceKernel::new(&grid);
    let pts = grid.points();
    let b = random_vector::<f64>(grid.n(), 11);

    let t0 = Instant::now();
    // On the TCP transport this call spawns `p - 1` worker processes that
    // stay alive — parked in their serve loops — until the solver is shut
    // down; everything below runs in the launching process only.
    let f = Solver::builder(&kernel, &pts)
        .tol(1e-6)
        .driver(Driver::distributed(p))
        .transport(transport)
        .resident(true)
        .trace(trace_out.is_some())
        .build()
        .expect("resident factorization");
    let t_factor = t0.elapsed().as_secs_f64();

    println!(
        "resident service: N = {}, p = {p} ranks, transport = {transport}",
        grid.n()
    );
    let records = f.records_per_rank().expect("resident record probe");
    println!("\nper-rank residency (records never leave their ranks):");
    println!("{:>5} {:>10} {:>14}", "rank", "records", "factor bytes");
    let bytes = f.memory_bytes_per_rank().expect("per-rank bytes");
    for (r, (n, bb)) in records.iter().zip(bytes.iter()).enumerate() {
        println!("{r:>5} {n:>10} {bb:>14}");
    }
    println!(
        "rank 0 holds {} of {} records (top block {} resident on rank 0)",
        records[0],
        f.n_records(),
        f.top_size()
    );

    // Amortized serving: k solves against the one resident factorization,
    // with exact per-solve counters from bracketing probes.
    let before = f.resident_comm_probe().expect("probe");
    let t1 = Instant::now();
    let mut x = Vec::new();
    for _ in 0..reps {
        x = f.solve(&b);
    }
    let t_solves = t1.elapsed().as_secs_f64();
    let after = f.resident_comm_probe().expect("probe");

    let fast = FastKernelOp::laplace(&kernel, &grid);
    println!(
        "\n{reps} resident solves in {:.3}s ({:.3}s each) after a {:.3}s factorization",
        t_solves,
        t_solves / reps as f64,
        t_factor
    );
    println!("relres = {:.3e}", relative_residual(&fast, &x, &b));
    let max_msgs = (0..p)
        .map(|r| (after.per_rank[r].msgs_sent - before.per_rank[r].msgs_sent) / reps as u64)
        .max()
        .unwrap();
    let max_words = (0..p)
        .map(|r| (after.per_rank[r].words_sent - before.per_rank[r].words_sent) / reps as u64)
        .max()
        .unwrap();
    let sqrt_np = (grid.n() as f64 / p as f64).sqrt();
    println!(
        "per-solve communication: max msgs = {max_msgs}, max words = {max_words} \
         ({:.1} x sqrt(N/p) = {:.0})",
        max_words as f64 / sqrt_np,
        sqrt_np
    );

    // The served results are the gathered factorization's blocked sweep,
    // bit for bit — residency changes where records live, not the answer.
    let gathered = Solver::builder(&kernel, &pts)
        .tol(1e-6)
        .driver(Driver::distributed(p))
        .build()
        .expect("gathered comparison factorization");
    let want = gathered.solve_mat(&Mat::from_vec(b.len(), 1, b.clone()));
    assert_eq!(
        x,
        want.as_slice().to_vec(),
        "resident solve must match the gathered blocked sweep bit for bit"
    );
    println!("\nresident vs gathered: solutions bit-identical across {reps} served solves");

    if metrics {
        let snap = f.metrics().expect("resident driver exposes metrics");
        println!("\nserve metrics:\n{}", snap.render());
        print_compression(f.stats());
    }
    if let Some(path) = trace_out {
        // Drains every rank's ring buffer over the serve protocol; the
        // report covers the factorization and all solves since startup.
        let reports = f.trace_reports();
        std::fs::write(path, srsf::trace::export::chrome_trace_json(&reports))
            .expect("write trace file");
        println!("\n{}", srsf::trace::export::profile_table(&reports));
        println!(
            "trace: wrote Chrome/Perfetto JSON for {} ranks to {path}",
            reports.len()
        );
    }

    let stats = f.shutdown().expect("resident shutdown");
    assert_eq!(stats.per_rank.len(), p);
    println!("resident shutdown: clean (no live workers)");
}

/// Compression observability: the per-level skeleton rank table (Fig. 9
/// of the paper) plus the sketched path's counters — how often the
/// a-posteriori check forced a retry or a CPQR fallback, and how many
/// blocks were applied to the sketches.
fn print_compression(stats: &srsf::prelude::FactorStats) {
    println!("\ncompression (all ranks):");
    println!("{:>7} {:>8} {:>10}", "level", "boxes", "avg rank");
    for (level, avg) in stats.rank_table() {
        let boxes = stats.ranks[&level].0;
        println!("{level:>7} {boxes:>8} {avg:>10.1}");
    }
    let c = &stats.compression;
    println!(
        "sketch retries = {}, CPQR fallbacks = {}, sketch blocks applied = {}",
        c.sketch_retries, c.sketch_fallbacks, c.dense_block_applies
    );
}

fn main() {
    let Args {
        side,
        p,
        transport,
        resident,
        solve_reps,
        chaos,
        trace_out,
        metrics,
    } = parse_args();
    if chaos {
        return run_chaos(side, p, transport);
    }
    if resident {
        return run_resident(
            side,
            p,
            transport,
            solve_reps,
            trace_out.as_deref(),
            metrics,
        );
    }
    let grid = UnitGrid::new(side);
    let kernel = LaplaceKernel::new(&grid);
    let pts = grid.points();

    let b = random_vector::<f64>(grid.n(), 11);
    // On the TCP transport this call spawns `p - 1` worker processes
    // that re-execute this binary up to this same call; everything
    // below runs in the launching process only.
    let (f, x) = Solver::builder(&kernel, &pts)
        .tol(1e-6)
        .driver(Driver::distributed(p))
        .transport(transport)
        .trace(trace_out.is_some())
        .build_with_solution(&b)
        .expect("dist factorization");
    let stats = f
        .comm_stats()
        .expect("distributed driver records comm stats")
        .clone();

    let fast = FastKernelOp::laplace(&kernel, &grid);
    println!(
        "N = {}, p = {p} ranks, transport = {transport} ({})",
        grid.n(),
        match transport.base() {
            BaseTransport::InProc => "ranks as threads of this process",
            BaseTransport::Tcp => "every rank a real OS process on localhost",
        }
    );
    println!(
        "gathered-factorization solve relres = {:.3e}",
        relative_residual(&fast, &x, &b)
    );

    println!("\nper-rank communication:");
    println!(
        "{:>5} {:>10} {:>12} {:>12}",
        "rank", "messages", "words", "compute[s]"
    );
    for (r, s) in stats.per_rank.iter().enumerate() {
        println!(
            "{:>5} {:>10} {:>12} {:>12.3}",
            r, s.msgs_sent, s.words_sent, s.compute_s
        );
    }
    let sqrt_np = (grid.n() as f64 / p as f64).sqrt();
    println!("\npaper bound (Eq. 13): words = O(sqrt(N/p) + log p) = O({sqrt_np:.0})");
    println!(
        "measured max words = {} ({:.1} x sqrt(N/p))",
        stats.max_words(),
        stats.max_words() as f64 / sqrt_np
    );
    println!(
        "modeled critical path: intra-node {:.3}s, inter-node {:.3}s",
        stats.critical_path_s(&NetworkModel::intra_node()),
        stats.critical_path_s(&NetworkModel::inter_node())
    );
    println!(
        "factorization records gathered on rank 0: {}",
        f.n_records()
    );
    if metrics {
        println!("\nserve metrics are recorded by the resident driver; re-run with --resident");
        print_compression(f.stats());
    }
    if let Some(path) = &trace_out {
        // Per-rank reports were gathered with the factorization itself.
        let reports = f.trace_reports();
        std::fs::write(path, srsf::trace::export::chrome_trace_json(&reports))
            .expect("write trace file");
        println!("\n{}", srsf::trace::export::profile_table(&reports));
        println!(
            "trace: wrote Chrome/Perfetto JSON for {} ranks to {path}",
            reports.len()
        );
    }

    // On the TCP backend, re-run in-process and check the §IV counters
    // are a property of the algorithm, not of the fabric carrying it.
    if transport.base() == BaseTransport::InProc {
        return;
    }
    let (f_in, x_in) = Solver::builder(&kernel, &pts)
        .tol(1e-6)
        .driver(Driver::distributed(p))
        .build_with_solution(&b)
        .expect("inproc comparison factorization");
    let in_stats = f_in.comm_stats().expect("inproc comm stats");
    assert_eq!(x, x_in, "solutions must be bit-identical across backends");
    for (r, (a, c)) in stats
        .per_rank
        .iter()
        .zip(in_stats.per_rank.iter())
        .enumerate()
    {
        assert_eq!(
            (a.msgs_sent, a.words_sent),
            (c.msgs_sent, c.words_sent),
            "rank {r} counters differ across backends"
        );
    }
    println!(
        "\nbackend equivalence: tcp vs inproc solutions bit-identical, \
         per-rank message/word counters identical across {p} ranks"
    );
}
