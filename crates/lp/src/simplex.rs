//! Two-phase primal simplex on a condensed tableau.
//!
//! The paper invokes the ellipsoid method purely as a polynomiality
//! certificate; any exact LP oracle yields the identical optima, so
//! simplex stands in for it here. Model handled: minimize `cᵀx`, rows
//! `≤ / ≥ / =`, box bounds `lo ≤ x ≤ hi`. Bounds are normalized by
//! shifting to `y = x − lo ≥ 0`; finite upper bounds become explicit rows.
//! Pricing is Dantzig's rule with a Bland's-rule fallback for
//! anti-cycling; the ratio test breaks ties toward the smaller basic
//! variable.
//!
//! **Condensed tableau.** In a dense tableau over the columns
//! `[structural | slack | artificial | rhs]`, every basic column is an
//! exact unit vector, cost rows included: the pivot writes `1.0` on the
//! pivot row and `0.0` everywhere else, and eliminating a row never
//! touches another basic column (it subtracts `factor · 0`). So only the
//! nonbasic columns and the rhs are stored, one *slot* each; `cols`
//! maps a slot to its original column, and `basis` maps a row to its
//! basic column. On a pivot the leaving variable takes the entering
//! variable's slot, with the values its unit column turns into.
//!
//! **Sparse pivot.** The pivot row is normalized, then only its nonzero
//! slots are eliminated, and only from the rows whose entering-column
//! entry is nonzero (the ratio test collects them as it reads the
//! column). Skipped terms are `x − f·0` or `x − 0·p`, which leave `x`
//! unchanged.
//!
//! **Bit-identity contract.** Every stored value is computed by the same
//! floating-point operations in the same order as on the dense tableau,
//! pricing picks the same column (basic columns price at exactly zero,
//! so skipping them changes nothing) and the ratio test the same row.
//! The pivot sequence, `x` and the objective are therefore bit-identical
//! to the dense kernel's. The only difference is the sign of some exact
//! zeros, which no comparison reads and the extraction `lo + max(y, 0)`
//! erases (for any lower bound but `-0.0`). Debug builds check this on
//! every solve against the dense kernel kept in `simplex/dense.rs`.

use crate::problem::{LinearProgram, LpError, RowOp};
use crate::solution::{LpSolution, LpStatus};

#[cfg(any(test, debug_assertions))]
pub(crate) mod dense;

/// Pivot tolerance.
const PIVOT_EPS: f64 = 1e-9;
/// Reduced-cost optimality tolerance.
const COST_EPS: f64 = 1e-9;
/// Phase-I feasibility tolerance.
const FEAS_EPS: f64 = 1e-7;
/// Iterations of Dantzig pricing before switching to Bland's rule.
const DANTZIG_LIMIT_FACTOR: usize = 20;
/// Entering-column entries at most this large are treated as zero by the
/// elimination.
const ELIM_EPS: f64 = 1e-14;

/// Profiling counter (a no-op until `ndg_obs::install`): simplex pivots,
/// flushed once per solve from the exact [`LpSolution::pivots`].
static LP_SIMPLEX_PIVOTS: ndg_obs::Counter = ndg_obs::Counter::new("lp_simplex_pivots_total");

/// Solve `lp` with the two-phase simplex.
pub fn solve(lp: &LinearProgram) -> Result<LpSolution, LpError> {
    let mut tab = Tableau::build(lp);
    let out = tab.solve(lp);
    LP_SIMPLEX_PIVOTS.add(tab.pivots);
    #[cfg(debug_assertions)]
    assert_same_as_dense(lp, &out);
    out
}

/// Debug-build cross-check: the dense kernel must agree on the status,
/// the bits of `x` and the objective, and the pivot count.
#[cfg(debug_assertions)]
fn assert_same_as_dense(lp: &LinearProgram, got: &Result<LpSolution, LpError>) {
    let bits = |s: &LpSolution| {
        let x: Vec<u64> = s.x.iter().map(|v| v.to_bits()).collect();
        (s.status, x, s.objective.to_bits(), s.pivots)
    };
    match (got, &dense::solve(lp)) {
        (Ok(got), Ok(want)) => assert_eq!(bits(got), bits(want), "condensed vs dense simplex"),
        (got, want) => assert_eq!(
            got.as_ref().err(),
            want.as_ref().err(),
            "condensed vs dense simplex"
        ),
    }
}

/// The condensed tableau: constraint rows `0..m`, the phase-II cost row
/// `m` and the phase-I cost row `m + 1`, each `w` wide (the nonbasic
/// slots, then the rhs).
struct Tableau {
    m: usize,
    w: usize,
    t: Vec<f64>,
    /// Slot → original column. Originals are laid out as `[structural |
    /// slack/surplus | artificial]`.
    cols: Vec<usize>,
    /// Row → original column of its basic variable.
    basis: Vec<usize>,
    n_struct: usize,
    /// First artificial original column (artificials are the tail).
    art_start: usize,
    /// Original column count, for the iteration limits.
    n_total: usize,
    pivots: u64,
    /// Scratch: rows with a nonzero entering-column entry.
    nz_rows: Vec<usize>,
    /// Scratch: the normalized pivot row's nonzero slots and values.
    prow: Vec<(usize, f64)>,
}

/// The entering slot: the one whose original column the dense kernel's
/// ascending scan over `0..limit` would pick. Slots are not in
/// original-column order, so ties go to the lower original column
/// explicitly: Dantzig takes the lowest column of minimal reduced cost,
/// Bland the lowest improving column. `None` at optimality.
fn entering(cost: &[f64], cols: &[usize], limit: usize, bland: bool) -> Option<usize> {
    let mut enter = None;
    let mut best = -COST_EPS;
    let mut best_col = usize::MAX;
    for (s, (&rc, &j)) in cost.iter().zip(cols).enumerate() {
        if j >= limit || rc > best {
            continue;
        }
        let takes = if bland {
            rc < -COST_EPS && j < best_col
        } else {
            rc < best || (enter.is_some() && j < best_col)
        };
        if takes {
            enter = Some(s);
            best_col = j;
            if !bland {
                best = rc;
            }
        }
    }
    enter
}

impl Tableau {
    /// Write the normalized rows straight into the tableau. Every
    /// slack of a `≤` row and every artificial starts basic, so the
    /// initial slots are the structurals, then the surpluses of the `≥`
    /// rows in row order.
    fn build(lp: &LinearProgram) -> Tableau {
        let n_struct = lp.num_vars();
        let lo = lp.lower_bounds();
        let hi = lp.upper_bounds();
        // Shifted rhs made ≥ 0, whether the row is negated for it, and
        // its sense after that.
        let flip = |op: RowOp| match op {
            RowOp::Le => RowOp::Ge,
            RowOp::Ge => RowOp::Le,
            RowOp::Eq => RowOp::Eq,
        };
        let mut plan: Vec<(f64, bool, RowOp)> = lp
            .rows()
            .iter()
            .map(|row| {
                let mut shift = 0.0;
                for &(j, a) in &row.coeffs {
                    shift += a * lo[j];
                }
                let rhs = row.rhs - shift;
                if rhs < 0.0 {
                    (-rhs, true, flip(row.op))
                } else {
                    (rhs, false, row.op)
                }
            })
            .collect();
        let bounded: Vec<usize> = (0..n_struct).filter(|&j| hi[j].is_finite()).collect();
        plan.extend(bounded.iter().map(|&j| (hi[j] - lo[j], false, RowOp::Le)));

        let m = plan.len();
        let count = |op: RowOp| plan.iter().filter(|p| p.2 == op).count();
        let (n_le, n_ge, n_eq) = (count(RowOp::Le), count(RowOp::Ge), count(RowOp::Eq));
        let art_start = n_struct + n_le + n_ge;
        let n_total = art_start + n_ge + n_eq;
        let w = n_struct + n_ge + 1;
        let rhs_c = w - 1;

        let mut t = vec![0.0f64; (m + 2) * w];
        let mut cols: Vec<usize> = (0..n_struct).collect();
        let mut basis = vec![usize::MAX; m];
        let mut next_slack = n_struct;
        let mut next_art = art_start;
        let n_rows = lp.num_rows();
        for (r, &(rhs, negate, op)) in plan.iter().enumerate() {
            let row = &mut t[r * w..(r + 1) * w];
            if r < n_rows {
                // Summing the negated coefficients equals negating the
                // sum: IEEE rounding is symmetric under negation.
                for &(j, a) in &lp.rows()[r].coeffs {
                    row[j] += if negate { -a } else { a };
                }
            } else {
                row[bounded[r - n_rows]] = 1.0;
            }
            row[rhs_c] = rhs;
            match op {
                RowOp::Le => {
                    basis[r] = next_slack;
                    next_slack += 1;
                }
                RowOp::Ge => {
                    row[cols.len()] = -1.0;
                    cols.push(next_slack);
                    next_slack += 1;
                    basis[r] = next_art;
                    next_art += 1;
                }
                RowOp::Eq => {
                    basis[r] = next_art;
                    next_art += 1;
                }
            }
        }
        debug_assert_eq!(cols.len(), w - 1);

        // Phase-II cost row: the objective on shifted variables (the
        // constant cᵀ·lo is added back at extraction).
        t[m * w..m * w + n_struct].copy_from_slice(lp.objective());
        // Phase-I cost row: the sum of artificials with the basic ones
        // eliminated, i.e. minus the sum of the artificial rows in row
        // order (the artificial columns themselves come out at 0).
        let (rows, cost) = t.split_at_mut((m + 1) * w);
        for r in 0..m {
            if basis[r] >= art_start {
                for (c, &v) in cost.iter_mut().zip(&rows[r * w..(r + 1) * w]) {
                    if v != 0.0 {
                        *c -= v;
                    }
                }
            }
        }

        Tableau {
            m,
            w,
            t,
            cols,
            basis,
            n_struct,
            art_start,
            n_total,
            pivots: 0,
            nz_rows: Vec::new(),
            prow: Vec::new(),
        }
    }

    fn at(&self, r: usize, s: usize) -> f64 {
        self.t[r * self.w + s]
    }

    fn solve(&mut self, lp: &LinearProgram) -> Result<LpSolution, LpError> {
        let (m, rhs_c) = (self.m, self.w - 1);
        if self.n_struct == 0 {
            return Ok(LpSolution {
                status: LpStatus::Optimal,
                x: Vec::new(),
                objective: 0.0,
                pivots: 0,
            });
        }
        let max_iters = 200 * (m + self.n_total) + 2000;
        let dantzig_limit = DANTZIG_LIMIT_FACTOR * (m + self.n_total) + 200;

        // ---- Phase I ----
        if self.art_start < self.n_total {
            self.run_phase(m + 1, self.n_total, max_iters, dantzig_limit)?;
            if -self.at(m + 1, rhs_c) > FEAS_EPS {
                return Ok(LpSolution {
                    status: LpStatus::Infeasible,
                    x: Vec::new(),
                    objective: f64::NAN,
                    pivots: self.pivots,
                });
            }
            // Drive remaining artificials out of the basis where
            // possible: enter the lowest-index non-artificial column
            // with a usable entry. If none exists the row is redundant;
            // the artificial stays basic at value ~0, which is harmless.
            for r in 0..m {
                if self.basis[r] < self.art_start {
                    continue;
                }
                let enter = (0..rhs_c)
                    .filter(|&s| self.cols[s] < self.art_start && self.at(r, s).abs() > PIVOT_EPS)
                    .min_by_key(|&s| self.cols[s]);
                if let Some(s) = enter {
                    self.nz_rows.clear();
                    self.nz_rows
                        .extend((0..m).filter(|&q| self.t[q * self.w + s] != 0.0));
                    self.pivot(r, s);
                }
            }
        }

        // ---- Phase II: artificials never re-enter ----
        if self.run_phase(m, self.art_start, max_iters, dantzig_limit)? {
            return Ok(LpSolution {
                status: LpStatus::Unbounded,
                x: Vec::new(),
                objective: f64::NEG_INFINITY,
                pivots: self.pivots,
            });
        }

        // Extract the shifted solution, then unshift.
        let mut y = vec![0.0f64; self.n_struct];
        for r in 0..m {
            if self.basis[r] < self.n_struct {
                y[self.basis[r]] = self.at(r, rhs_c);
            }
        }
        let lo = lp.lower_bounds();
        let x: Vec<f64> = y.iter().zip(lo).map(|(&v, &l)| l + v.max(0.0)).collect();
        let objective = lp.objective_at(&x);
        Ok(LpSolution {
            status: LpStatus::Optimal,
            x,
            objective,
            pivots: self.pivots,
        })
    }

    /// Run simplex iterations minimizing cost row `cost_r`, pricing only
    /// original columns below `limit`. Returns `Ok(true)` if unbounded,
    /// `Ok(false)` at optimality.
    fn run_phase(
        &mut self,
        cost_r: usize,
        limit: usize,
        max_iters: usize,
        dantzig_limit: usize,
    ) -> Result<bool, LpError> {
        let (m, w) = (self.m, self.w);
        let rhs_c = w - 1;
        for iter in 0..max_iters {
            let cost = &self.t[cost_r * w..cost_r * w + rhs_c];
            let Some(enter) = entering(cost, &self.cols, limit, iter >= dantzig_limit) else {
                return Ok(false); // optimal
            };
            // Ratio test, collecting the rows the pivot must eliminate.
            self.nz_rows.clear();
            let mut leave: Option<usize> = None;
            let mut best_ratio = f64::INFINITY;
            for r in 0..m {
                let a = self.t[r * w + enter];
                if a == 0.0 {
                    continue;
                }
                self.nz_rows.push(r);
                if a > PIVOT_EPS {
                    let ratio = self.t[r * w + rhs_c] / a;
                    let better = ratio < best_ratio - 1e-12
                        || (ratio < best_ratio + 1e-12
                            && leave.is_some_and(|l| self.basis[r] < self.basis[l]));
                    if better {
                        best_ratio = ratio;
                        leave = Some(r);
                    }
                }
            }
            let Some(leave) = leave else {
                return Ok(true); // unbounded in this phase
            };
            self.pivot(leave, enter);
        }
        Err(LpError::IterationLimit)
    }

    /// Pivot on `(row, slot s)`. `nz_rows` must hold every constraint row
    /// whose entry in slot `s` is nonzero; the cost rows are always
    /// eliminated. The entering column becomes basic and the leaving
    /// variable takes slot `s`.
    fn pivot(&mut self, row: usize, s: usize) {
        let w = self.w;
        let inv = 1.0 / self.t[row * w + s];
        self.prow.clear();
        for (c, v) in self.t[row * w..(row + 1) * w].iter_mut().enumerate() {
            if *v != 0.0 {
                *v *= inv;
                if c != s && *v != 0.0 {
                    self.prow.push((c, *v));
                }
            }
        }
        // The leaving variable's unit column, divided by the pivot.
        self.t[row * w + s] = inv;
        let cost_rows = [self.m, self.m + 1];
        for &r in self.nz_rows.iter().chain(&cost_rows) {
            if r == row {
                continue;
            }
            let line = &mut self.t[r * w..(r + 1) * w];
            let factor = line[s];
            if factor.abs() <= ELIM_EPS {
                line[s] = 0.0;
                continue;
            }
            for &(c, p) in &self.prow {
                line[c] -= factor * p;
            }
            line[s] = 0.0 - factor * inv;
        }
        std::mem::swap(&mut self.cols[s], &mut self.basis[row]);
        self.pivots += 1;
    }
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

    /// `entering` over permuted slots picks the column the dense
    /// kernel's ascending scan picks, under both rules: basic columns
    /// price at zero there, and costs repeat so ties are common.
    #[test]
    fn entering_matches_ascending_scan() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(13);
        let values = [-2.0, -1.0, -1.0, -COST_EPS, -0.5, 0.0, -0.0, 1.0];
        for _case in 0..2000 {
            let n_total = rng.random_range(1..12usize);
            let limit = rng.random_range(0..=n_total);
            let mut cols: Vec<usize> = (0..n_total).collect();
            cols.shuffle(&mut rng);
            cols.truncate(rng.random_range(0..=n_total)); // the rest are basic
            let cost: Vec<f64> = cols
                .iter()
                .map(|_| values[rng.random_range(0..values.len())])
                .collect();
            let mut dense_row = vec![0.0; n_total];
            for (&j, &rc) in cols.iter().zip(&cost) {
                dense_row[j] = rc;
            }
            for bland in [false, true] {
                let mut want = None;
                let mut best = -COST_EPS;
                for (j, &rc) in dense_row.iter().enumerate().take(limit) {
                    if rc < best {
                        want = Some(j);
                        if bland {
                            break;
                        }
                        best = rc;
                    }
                }
                let got = entering(&cost, &cols, limit, bland).map(|s| cols[s]);
                assert_eq!(got, want, "cols {cols:?} cost {cost:?} bland {bland}");
            }
        }
    }
}
