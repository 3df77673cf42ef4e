//! Two-phase primal simplex on a dense tableau.
//!
//! Scope: the subsidy LPs have at most a few thousand rows/columns, so a
//! dense tableau with Dantzig pricing (Bland's rule fallback for
//! anti-cycling) is both simple and ample. The paper invokes the ellipsoid
//! method purely as a polynomiality certificate; any exact LP oracle yields
//! the identical optima, so simplex stands in for it here.
//!
//! Model handled: minimize `cᵀx`, rows `≤ / ≥ / =`, box bounds
//! `lo ≤ x ≤ hi`. Bounds are normalized by shifting to `y = x − lo ≥ 0`;
//! finite upper bounds become explicit rows.

use crate::problem::{LinearProgram, LpError, RowOp};
use crate::solution::{LpSolution, LpStatus};

/// Pivot tolerance.
const PIVOT_EPS: f64 = 1e-9;
/// Reduced-cost optimality tolerance.
const COST_EPS: f64 = 1e-9;
/// Phase-I feasibility tolerance.
const FEAS_EPS: f64 = 1e-7;
/// Iterations of Dantzig pricing before switching to Bland's rule.
const DANTZIG_LIMIT_FACTOR: usize = 20;

/// Solve `lp` with the two-phase simplex.
pub fn solve(lp: &LinearProgram) -> Result<LpSolution, LpError> {
    let n_struct = lp.num_vars();
    if n_struct == 0 {
        return Ok(LpSolution {
            status: LpStatus::Optimal,
            x: Vec::new(),
            objective: 0.0,
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
    // Column layout: [structural | slack/surplus | artificial].
    let n_slack = norm_rows
        .iter()
        .filter(|(_, op, _)| *op != RowOp::Eq)
        .count();
    // Artificials: for ≥ and = rows. For ≤ rows the slack is the initial basis.
    let n_art = norm_rows
        .iter()
        .filter(|(_, op, _)| *op != RowOp::Le)
        .count();
    let n_total = n_struct + n_slack + n_art;
    let width = n_total + 1; // + rhs column

    // Tableau rows 0..m are constraints; row m is the phase-II cost row;
    // row m+1 is the phase-I cost row.
    let mut t = vec![0.0f64; (m + 2) * width];
    let idx = |r: usize, c: usize| r * width + c;
    let mut basis = vec![usize::MAX; m];
    let mut is_artificial = vec![false; n_total];

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

    // Phase-II cost row: original objective on shifted variables
    // (the constant cᵀ·lo is added back at extraction).
    for (j, &c) in lp.objective().iter().enumerate() {
        t[idx(m, j)] = c;
    }
    // Phase-I cost row: sum of artificials, then eliminate basic artificials.
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
            m,
            n_total,
            width,
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
            });
        }
        // Drive remaining artificials out of the basis where possible.
        for r in 0..m {
            if is_artificial[basis[r]] {
                let mut pivoted = false;
                for j in 0..n_total {
                    if !is_artificial[j] && t[idx(r, j)].abs() > PIVOT_EPS {
                        pivot(&mut t, &mut basis, m, width, r, j);
                        pivoted = true;
                        break;
                    }
                }
                // If no pivot exists the row is redundant; the artificial
                // stays basic at value ~0, which is harmless.
                let _ = pivoted;
            }
        }
    }

    // ---- Phase II ----
    let allowed = |j: usize| !is_artificial[j];
    let unbounded = run_phase(
        &mut t,
        &mut basis,
        m,
        n_total,
        width,
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
        });
    }

    // Extract shifted solution, then unshift.
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
    })
}

/// Run simplex iterations minimizing the cost row `cost_r`. Returns
/// `Ok(true)` if unbounded, `Ok(false)` at optimality.
#[allow(clippy::too_many_arguments)]
fn run_phase(
    t: &mut [f64],
    basis: &mut [usize],
    m: usize,
    n_total: usize,
    width: usize,
    cost_r: usize,
    allowed: &dyn Fn(usize) -> bool,
    max_iters: usize,
    dantzig_limit: usize,
) -> Result<bool, LpError> {
    let idx = |r: usize, c: usize| r * width + c;
    for iter in 0..max_iters {
        // Entering column.
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
                    break; // Bland: first improving index
                }
                best = rc;
            }
        }
        let Some(enter) = enter else {
            return Ok(false); // optimal
        };
        // Ratio test.
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
            return Ok(true); // unbounded in this phase
        };
        pivot(t, basis, m, width, leave, enter);
    }
    Err(LpError::IterationLimit)
}

/// Pivot on `(row, col)`: normalize the pivot row and eliminate the column
/// from all other rows (including both cost rows).
fn pivot(t: &mut [f64], basis: &mut [usize], m: usize, width: usize, row: usize, col: usize) {
    let idx = |r: usize, c: usize| r * width + c;
    let piv = t[idx(row, col)];
    debug_assert!(piv.abs() > PIVOT_EPS, "pivot element too small: {piv}");
    let inv = 1.0 / piv;
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::LinearProgram;

    fn assert_optimal(lp: &LinearProgram, want_obj: f64, tol: f64) -> Vec<f64> {
        let sol = solve(lp).expect("solver ran");
        assert_eq!(sol.status, LpStatus::Optimal, "expected optimal");
        assert!(
            (sol.objective - want_obj).abs() <= tol,
            "objective {} != {want_obj}",
            sol.objective
        );
        assert!(
            lp.max_violation(&sol.x) <= 1e-6,
            "solution violates constraints by {}",
            lp.max_violation(&sol.x)
        );
        sol.x
    }

    #[test]
    fn trivially_bounded_by_box() {
        // minimize x, x ∈ [3, 10] → 3.
        let mut lp = LinearProgram::new();
        lp.add_var(1.0, 3.0, 10.0).unwrap();
        assert_optimal(&lp, 3.0, 1e-9);
    }

    #[test]
    fn maximize_via_negation() {
        // maximize x + y s.t. x + 2y ≤ 4, 3x + y ≤ 6 → min −x − y.
        // Optimum at intersection: x = 8/5, y = 6/5, obj = 14/5.
        let mut lp = LinearProgram::new();
        let x = lp.add_var(-1.0, 0.0, f64::INFINITY).unwrap();
        let y = lp.add_var(-1.0, 0.0, f64::INFINITY).unwrap();
        lp.add_le(vec![(x, 1.0), (y, 2.0)], 4.0).unwrap();
        lp.add_le(vec![(x, 3.0), (y, 1.0)], 6.0).unwrap();
        let sol = assert_optimal(&lp, -14.0 / 5.0, 1e-8);
        assert!((sol[0] - 1.6).abs() < 1e-7);
        assert!((sol[1] - 1.2).abs() < 1e-7);
    }

    #[test]
    fn equality_constraints() {
        // minimize x + y s.t. x + y = 2, x − y = 0 → x = y = 1.
        let mut lp = LinearProgram::new();
        let x = lp.add_var(1.0, 0.0, f64::INFINITY).unwrap();
        let y = lp.add_var(1.0, 0.0, f64::INFINITY).unwrap();
        lp.add_eq(vec![(x, 1.0), (y, 1.0)], 2.0).unwrap();
        lp.add_eq(vec![(x, 1.0), (y, -1.0)], 0.0).unwrap();
        let sol = assert_optimal(&lp, 2.0, 1e-8);
        assert!((sol[0] - 1.0).abs() < 1e-7);
    }

    #[test]
    fn infeasible_detected() {
        let mut lp = LinearProgram::new();
        let x = lp.add_var(1.0, 0.0, 1.0).unwrap();
        lp.add_ge(vec![(x, 1.0)], 2.0).unwrap();
        let sol = solve(&lp).unwrap();
        assert_eq!(sol.status, LpStatus::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        // minimize −x, x ≥ 0 unbounded below.
        let mut lp = LinearProgram::new();
        lp.add_var(-1.0, 0.0, f64::INFINITY).unwrap();
        let sol = solve(&lp).unwrap();
        assert_eq!(sol.status, LpStatus::Unbounded);
    }

    #[test]
    fn negative_lower_bounds() {
        // minimize x, x ∈ [−5, 5], x ≥ −2 → −2.
        let mut lp = LinearProgram::new();
        let x = lp.add_var(1.0, -5.0, 5.0).unwrap();
        lp.add_ge(vec![(x, 1.0)], -2.0).unwrap();
        assert_optimal(&lp, -2.0, 1e-8);
    }

    #[test]
    fn degenerate_does_not_cycle() {
        // Klee-Minty-ish degenerate LP; just must terminate correctly.
        let mut lp = LinearProgram::new();
        let v: Vec<usize> = (0..3)
            .map(|_| lp.add_var(-1.0, 0.0, f64::INFINITY).unwrap())
            .collect();
        lp.add_le(vec![(v[0], 1.0)], 1.0).unwrap();
        lp.add_le(vec![(v[0], 4.0), (v[1], 1.0)], 8.0).unwrap();
        lp.add_le(vec![(v[0], 8.0), (v[1], 4.0), (v[2], 1.0)], 16.0)
            .unwrap();
        // Degenerate extra rows.
        lp.add_le(vec![(v[0], 1.0)], 1.0).unwrap();
        lp.add_le(vec![(v[1], 1.0)], 4.0).unwrap();
        let sol = solve(&lp).unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        // Optimum is x = (0, 0, 16): objective −16.
        assert!((sol.objective - (-16.0)).abs() < 1e-6, "{}", sol.objective);
    }

    #[test]
    fn empty_lp() {
        let lp = LinearProgram::new();
        let sol = solve(&lp).unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_eq!(sol.objective, 0.0);
    }

    #[test]
    fn redundant_equalities() {
        // x + y = 2 twice; minimize x → x = 0, y = 2.
        let mut lp = LinearProgram::new();
        let x = lp.add_var(1.0, 0.0, f64::INFINITY).unwrap();
        let y = lp.add_var(0.0, 0.0, f64::INFINITY).unwrap();
        lp.add_eq(vec![(x, 1.0), (y, 1.0)], 2.0).unwrap();
        lp.add_eq(vec![(x, 1.0), (y, 1.0)], 2.0).unwrap();
        assert_optimal(&lp, 0.0, 1e-8);
    }

    /// Brute-force reference: for 2-variable LPs, the optimum lies at an
    /// intersection of two active constraints (or bounds). Compare.
    #[test]
    fn randomized_two_var_against_vertex_enumeration() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(77);
        for _case in 0..200 {
            let mut lp = LinearProgram::new();
            let c0 = rng.random_range(-3.0..3.0);
            let c1 = rng.random_range(-3.0..3.0);
            let hi0 = rng.random_range(1.0..5.0);
            let hi1 = rng.random_range(1.0..5.0);
            let x = lp.add_var(c0, 0.0, hi0).unwrap();
            let y = lp.add_var(c1, 0.0, hi1).unwrap();
            // Lines a·x + b·y ≤ r with r ≥ 0 so the origin stays feasible
            // and the LP is always bounded by the box.
            let mut lines = vec![
                (1.0, 0.0, hi0),
                (0.0, 1.0, hi1),
                (-1.0, 0.0, 0.0),
                (0.0, -1.0, 0.0),
            ];
            for _ in 0..3 {
                let a = rng.random_range(-2.0..2.0);
                let b = rng.random_range(-2.0..2.0);
                let r = rng.random_range(0.0..4.0);
                lp.add_le(vec![(x, a), (y, b)], r).unwrap();
                lines.push((a, b, r));
            }
            // Vertex enumeration.
            let feasible =
                |px: f64, py: f64| lines.iter().all(|&(a, b, r)| a * px + b * py <= r + 1e-7);
            let mut best = f64::INFINITY;
            for i in 0..lines.len() {
                for j in (i + 1)..lines.len() {
                    let (a1, b1, r1) = lines[i];
                    let (a2, b2, r2) = lines[j];
                    let det = a1 * b2 - a2 * b1;
                    if det.abs() < 1e-9 {
                        continue;
                    }
                    let px = (r1 * b2 - r2 * b1) / det;
                    let py = (a1 * r2 - a2 * r1) / det;
                    if feasible(px, py) {
                        best = best.min(c0 * px + c1 * py);
                    }
                }
            }
            let sol = solve(&lp).unwrap();
            assert_eq!(sol.status, LpStatus::Optimal);
            assert!(
                (sol.objective - best).abs() < 1e-5,
                "simplex {} vs vertices {best}",
                sol.objective
            );
        }
    }
}
