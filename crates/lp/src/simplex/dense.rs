//! Reference kernel: the original dense two-phase tableau.
//!
//! Compiled only for tests and debug builds. With `debug_assertions`,
//! [`super::solve`] re-runs every LP on it and asserts the condensed
//! kernel returned the same status, the same `x` and objective bit for
//! bit, and the same pivot count: a slow, obviously-correct twin checks
//! the fast path on every LP any debug test solves.
//!
//! The tableau stores every column `[structural | slack | artificial |
//! rhs]` and eliminates each of them from every row on each pivot.

use super::{COST_EPS, DANTZIG_LIMIT_FACTOR, FEAS_EPS, PIVOT_EPS};
use crate::problem::{LinearProgram, LpError, RowOp};
use crate::solution::{LpSolution, LpStatus};

/// Solve `lp` on the dense tableau.
pub(crate) fn solve(lp: &LinearProgram) -> Result<LpSolution, LpError> {
    let n_struct = lp.num_vars();
    if n_struct == 0 {
        return Ok(LpSolution {
            status: LpStatus::Optimal,
            x: Vec::new(),
            objective: 0.0,
            pivots: 0,
        });
    }

    // Normalized rows over shifted variables y = x − lo:
    //   (dense coeffs, op, rhs), rhs made ≥ 0 by row negation.
    let lo = lp.lower_bounds();
    let hi = lp.upper_bounds();
    let mut norm_rows: Vec<(Vec<f64>, RowOp, f64)> = Vec::new();
    for row in lp.rows() {
        let mut dense = vec![0.0; n_struct];
        let mut shift = 0.0;
        for &(j, a) in &row.coeffs {
            dense[j] += a;
            shift += a * lo[j];
        }
        norm_rows.push((dense, row.op, row.rhs - shift));
    }
    for j in 0..n_struct {
        if hi[j].is_finite() {
            let mut dense = vec![0.0; n_struct];
            dense[j] = 1.0;
            norm_rows.push((dense, RowOp::Le, hi[j] - lo[j]));
        }
    }
    for (dense, op, rhs) in norm_rows.iter_mut() {
        if *rhs < 0.0 {
            for a in dense.iter_mut() {
                *a = -*a;
            }
            *rhs = -*rhs;
            *op = match *op {
                RowOp::Le => RowOp::Ge,
                RowOp::Ge => RowOp::Le,
                RowOp::Eq => RowOp::Eq,
            };
        }
    }

    let m = norm_rows.len();
    let n_slack = norm_rows
        .iter()
        .filter(|(_, op, _)| *op != RowOp::Eq)
        .count();
    let n_art = norm_rows
        .iter()
        .filter(|(_, op, _)| *op != RowOp::Le)
        .count();
    let n_total = n_struct + n_slack + n_art;
    let width = n_total + 1;

    // Rows 0..m are constraints; row m is the phase-II cost row; row m+1
    // is the phase-I cost row.
    let mut t = vec![0.0f64; (m + 2) * width];
    let idx = |r: usize, c: usize| r * width + c;
    let mut basis = vec![usize::MAX; m];
    let mut is_artificial = vec![false; n_total];
    let mut pivots = 0u64;

    let mut next_slack = n_struct;
    let mut next_art = n_struct + n_slack;
    for (r, (dense, op, rhs)) in norm_rows.iter().enumerate() {
        for (j, &a) in dense.iter().enumerate() {
            t[idx(r, j)] = a;
        }
        t[idx(r, n_total)] = *rhs;
        match op {
            RowOp::Le => {
                t[idx(r, next_slack)] = 1.0;
                basis[r] = next_slack;
                next_slack += 1;
            }
            RowOp::Ge => {
                t[idx(r, next_slack)] = -1.0;
                next_slack += 1;
                t[idx(r, next_art)] = 1.0;
                is_artificial[next_art] = true;
                basis[r] = next_art;
                next_art += 1;
            }
            RowOp::Eq => {
                t[idx(r, next_art)] = 1.0;
                is_artificial[next_art] = true;
                basis[r] = next_art;
                next_art += 1;
            }
        }
    }

    for (j, &c) in lp.objective().iter().enumerate() {
        t[idx(m, j)] = c;
    }
    for j in 0..n_total {
        if is_artificial[j] {
            t[idx(m + 1, j)] = 1.0;
        }
    }
    for r in 0..m {
        if is_artificial[basis[r]] {
            for c in 0..width {
                t[idx(m + 1, c)] -= t[idx(r, c)];
            }
        }
    }

    let max_iters = 200 * (m + n_total) + 2000;
    let dantzig_limit = DANTZIG_LIMIT_FACTOR * (m + n_total) + 200;

    // ---- Phase I ----
    if n_art > 0 {
        run_phase(
            &mut t,
            &mut basis,
            &mut pivots,
            (m, n_total, width),
            m + 1,
            &|_j| true,
            max_iters,
            dantzig_limit,
        )?;
        let phase1_obj = -t[idx(m + 1, n_total)];
        if phase1_obj > FEAS_EPS {
            return Ok(LpSolution {
                status: LpStatus::Infeasible,
                x: Vec::new(),
                objective: f64::NAN,
                pivots,
            });
        }
        for r in 0..m {
            if is_artificial[basis[r]] {
                for j in 0..n_total {
                    if !is_artificial[j] && t[idx(r, j)].abs() > PIVOT_EPS {
                        pivot(&mut t, &mut basis, &mut pivots, m, width, r, j);
                        break;
                    }
                }
            }
        }
    }

    // ---- Phase II ----
    let allowed = |j: usize| !is_artificial[j];
    let unbounded = run_phase(
        &mut t,
        &mut basis,
        &mut pivots,
        (m, n_total, width),
        m,
        &allowed,
        max_iters,
        dantzig_limit,
    )?;
    if unbounded {
        return Ok(LpSolution {
            status: LpStatus::Unbounded,
            x: Vec::new(),
            objective: f64::NEG_INFINITY,
            pivots,
        });
    }

    let mut y = vec![0.0f64; n_total];
    for r in 0..m {
        y[basis[r]] = t[idx(r, n_total)];
    }
    let x: Vec<f64> = (0..n_struct).map(|j| lo[j] + y[j].max(0.0)).collect();
    let objective = lp.objective_at(&x);
    Ok(LpSolution {
        status: LpStatus::Optimal,
        x,
        objective,
        pivots,
    })
}

/// Minimize the cost row `cost_r`; `Ok(true)` if unbounded.
#[allow(clippy::too_many_arguments)]
fn run_phase(
    t: &mut [f64],
    basis: &mut [usize],
    pivots: &mut u64,
    (m, n_total, width): (usize, usize, usize),
    cost_r: usize,
    allowed: &dyn Fn(usize) -> bool,
    max_iters: usize,
    dantzig_limit: usize,
) -> Result<bool, LpError> {
    let idx = |r: usize, c: usize| r * width + c;
    for iter in 0..max_iters {
        let bland = iter >= dantzig_limit;
        let mut enter: Option<usize> = None;
        let mut best = -COST_EPS;
        for j in 0..n_total {
            if !allowed(j) {
                continue;
            }
            let rc = t[idx(cost_r, j)];
            if rc < best {
                enter = Some(j);
                if bland {
                    break;
                }
                best = rc;
            }
        }
        let Some(enter) = enter else {
            return Ok(false);
        };
        let mut leave: Option<usize> = None;
        let mut best_ratio = f64::INFINITY;
        for r in 0..m {
            let a = t[idx(r, enter)];
            if a > PIVOT_EPS {
                let ratio = t[idx(r, n_total)] / a;
                let better = ratio < best_ratio - 1e-12
                    || (ratio < best_ratio + 1e-12 && leave.is_some_and(|l| basis[r] < basis[l]));
                if better {
                    best_ratio = ratio;
                    leave = Some(r);
                }
            }
        }
        let Some(leave) = leave else {
            return Ok(true);
        };
        pivot(t, basis, pivots, m, width, leave, enter);
    }
    Err(LpError::IterationLimit)
}

/// Normalize the pivot row and eliminate `col` from every other row,
/// both cost rows included.
fn pivot(
    t: &mut [f64],
    basis: &mut [usize],
    pivots: &mut u64,
    m: usize,
    width: usize,
    row: usize,
    col: usize,
) {
    let idx = |r: usize, c: usize| r * width + c;
    let inv = 1.0 / t[idx(row, col)];
    for c in 0..width {
        t[idx(row, c)] *= inv;
    }
    t[idx(row, col)] = 1.0;
    for r in 0..m + 2 {
        if r == row {
            continue;
        }
        let factor = t[idx(r, col)];
        if factor.abs() <= 1e-14 {
            t[idx(r, col)] = 0.0;
            continue;
        }
        for c in 0..width {
            t[idx(r, c)] -= factor * t[idx(row, c)];
        }
        t[idx(r, col)] = 0.0;
    }
    basis[row] = col;
    *pivots += 1;
}
