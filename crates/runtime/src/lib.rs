//! `srsf-runtime`: a distributed-memory runtime with pluggable transports.
//!
//! **Two backends, one program (supersedes the DESIGN.md §5 substitution
//! note).** The paper runs on up to 1024 processes of NERSC Perlmutter
//! via Julia's `Distributed.jl`. This crate runs the same message-passing
//! programs on a single host over either of two backends, selected per
//! [`World`]:
//!
//! * [`Transport::InProc`] — every rank is an OS thread; tagged byte
//!   messages move through in-memory channels. Fast, deterministic, the
//!   default for tests and benches.
//! * [`Transport::Tcp`] — every rank is a **real OS process**: rank 0
//!   spawns ranks `1..p` by re-executing the current binary with an
//!   `SRSF_RANK`/`SRSF_WORLD` environment, a rendezvous handshake wires a
//!   full socket mesh, and length-prefix-framed messages cross genuine
//!   process boundaries. Ranks share no memory, by construction of the
//!   operating system rather than by code discipline.
//!
//! Rank programs are written once against [`world::RankCtx`]
//! (send / recv / barrier) and run unchanged on both backends. The
//! per-rank counters — exactly the quantities the paper analyzes in §IV,
//! message counts and word volumes — are maintained above the transport,
//! so the counts are identical across backends and the §IV communication
//! bounds are a *measured property of real inter-process traffic*, not a
//! simulation artifact (the transport-equivalence tests in `srsf-core`
//! assert this bit-for-bit).
//!
//! * [`world`] — spawn a `p`-rank world, each rank running a closure
//!   against a [`world::RankCtx`] handle (send / recv / barrier).
//! * [`transport`] — the [`Transport`] backends: the in-process channel
//!   fabric and the TCP process launcher, wire format, and
//!   rendezvous/handshake protocol (documented on the module).
//! * [`tags`] — the shared message-tag scheme; lets receive-timeout
//!   panics name the algorithm step (level / phase / kind) they were
//!   waiting on.
//! * [`stats`] — per-rank communication and compute accounting, plus
//!   the wire encodings of the `srsf-trace` span reports and latency
//!   histograms (re-exported here), so traces and metrics cross process
//!   boundaries like any other typed rank result.
//! * [`netmodel`] — an α–β (latency–bandwidth) network cost model with
//!   intra-node and inter-node presets, used to reproduce the paper's
//!   "1 process per compute node" experiment (Table VII).
//! * [`codec`] — serialization of scalar matrices/vectors into byte
//!   payloads, with bounds-checked readers for frames that crossed a
//!   process boundary, and the [`codec::Wire`] trait that carries typed
//!   rank results back from worker processes.

#![forbid(unsafe_code)]

pub mod codec;
pub mod netmodel;
pub mod stats;
pub mod tags;
pub mod transport;
pub mod world;

pub use codec::{crc64, CodecError, Wire};
pub use netmodel::NetworkModel;
pub use srsf_trace::{Histogram, MetricsRegistry, MetricsSnapshot, Span, TraceReport};
pub use stats::{CommStats, WorldStats};
pub use transport::{
    is_spawned_worker, set_tcp_child_args, BaseTransport, FaultPlan, RecvError, Transport,
};
pub use world::{RankCtx, RankHealth, World, WorldHandle};
