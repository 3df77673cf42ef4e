//! `ndg-lp` — linear-programming substrate.
//!
//! A from-scratch two-phase simplex on a condensed tableau (Dantzig
//! pricing with Bland's-rule anti-cycling fallback), an LP builder with
//! box bounds, solution re-verification, and a generic cutting-plane
//! driver implementing the separation-oracle loop the paper uses for
//! LP (1) in Theorem 1.

pub mod cutting;
pub mod problem;
pub mod simplex;
pub mod solution;

pub use cutting::{
    solve_with_batched_cuts, solve_with_batched_cuts_budgeted, solve_with_cuts,
    BatchSeparationOracle, CutError, CutStats, SeparationOracle,
};
pub use problem::{LinearProgram, LpError, Row, RowOp};
pub use simplex::solve;
pub use solution::{LpSolution, LpStatus};

#[cfg(test)]
mod proptests;
