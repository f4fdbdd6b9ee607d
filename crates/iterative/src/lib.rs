//! `srsf-iterative`: Krylov solvers for the accuracy experiments.
//!
//! The paper evaluates its factorization both as a direct solver and as a
//! preconditioner: Table III reports preconditioned CG iteration counts for
//! the (ill-conditioned, first-kind) Laplace system, Table V preconditioned
//! GMRES counts for Lippmann–Schwinger along with the unpreconditioned
//! GMRES(20) counts that motivate a direct method in the first place.
//!
//! * [`op`] — the [`op::LinOp`] operator abstraction plus residual helpers.
//! * [`cg`](mod@cg) — conjugate gradients and preconditioned CG.
//! * [`gmres`](mod@gmres) — restarted GMRES with optional (right) preconditioning.

#![forbid(unsafe_code)]

pub mod cg;
pub mod gmres;
pub mod op;
pub mod precond;

pub use cg::{cg, pcg, CgResult};
pub use gmres::{gmres, GmresOpts, GmresResult};
pub use op::{relative_residual, DenseOp, LinOp};
pub use precond::{gmres_factorized, pcg_factorized, FactorizedOp};
