//! Property-based tests for the simplex solver (proptest).

#![cfg(test)]

use crate::problem::{LinearProgram, Row, RowOp};
use crate::simplex::{dense, solve};
use crate::solution::{LpSolution, LpStatus};
use proptest::prelude::*;
use rand::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Two-variable LPs against exact vertex enumeration.
    #[test]
    fn two_var_lps_match_vertex_enumeration(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut lp = LinearProgram::new();
        let c0 = rng.random_range(-3.0..3.0);
        let c1 = rng.random_range(-3.0..3.0);
        let hi0 = rng.random_range(0.5..5.0);
        let hi1 = rng.random_range(0.5..5.0);
        let x = lp.add_var(c0, 0.0, hi0).unwrap();
        let y = lp.add_var(c1, 0.0, hi1).unwrap();
        let mut lines = vec![
            (1.0, 0.0, hi0),
            (0.0, 1.0, hi1),
            (-1.0, 0.0, 0.0),
            (0.0, -1.0, 0.0),
        ];
        for _ in 0..rng.random_range(0..5usize) {
            let a = rng.random_range(-2.0..2.0);
            let b = rng.random_range(-2.0..2.0);
            let r = rng.random_range(0.0..4.0); // origin stays feasible
            lp.add_le(vec![(x, a), (y, b)], r).unwrap();
            lines.push((a, b, r));
        }
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
        prop_assert_eq!(sol.status, LpStatus::Optimal);
        prop_assert!((sol.objective - best).abs() < 1e-5,
            "simplex {} vs vertices {}", sol.objective, best);
        prop_assert!(sol.verify(&lp, 1e-6));
    }

    /// Random feasible-by-construction LPs: the solver must return a
    /// feasible point no worse than the construction witness.
    #[test]
    fn never_worse_than_a_known_feasible_point(
        nv in 1usize..6,
        nr in 0usize..8,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut lp = LinearProgram::new();
        // A hidden witness point inside the box.
        let witness: Vec<f64> = (0..nv).map(|_| rng.random_range(0.0..2.0)).collect();
        for &w in &witness {
            lp.add_var(rng.random_range(-2.0..2.0), 0.0, w + rng.random_range(0.5..2.0))
                .unwrap();
        }
        for _ in 0..nr {
            let coeffs: Vec<(usize, f64)> = (0..nv)
                .map(|j| (j, rng.random_range(-2.0..2.0)))
                .collect();
            let lhs_at_witness: f64 =
                coeffs.iter().map(|&(j, a)| a * witness[j]).sum();
            // Slack the row so the witness satisfies it.
            lp.add_le(coeffs, lhs_at_witness + rng.random_range(0.0..1.0))
                .unwrap();
        }
        let sol = solve(&lp).unwrap();
        prop_assert_eq!(sol.status, LpStatus::Optimal, "witness guarantees feasibility");
        let witness_obj = lp.objective_at(&witness);
        prop_assert!(sol.objective <= witness_obj + 1e-6,
            "optimal {} must not exceed witness {}", sol.objective, witness_obj);
        prop_assert!(sol.verify(&lp, 1e-6));
    }

    /// Scaling invariance: multiplying the objective by λ > 0 scales the
    /// optimum by λ and keeps the argmin feasible.
    #[test]
    fn objective_scaling(seed in 0u64..1_000_000, lambda in 0.1f64..10.0) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut lp = LinearProgram::new();
        let nv = rng.random_range(1..5usize);
        let coefs: Vec<f64> = (0..nv).map(|_| rng.random_range(-2.0..2.0)).collect();
        for &c in &coefs {
            lp.add_var(c, 0.0, rng.random_range(0.5..3.0)).unwrap();
        }
        let mut scaled = LinearProgram::new();
        for (j, &c) in coefs.iter().enumerate() {
            scaled
                .add_var(c * lambda, 0.0, lp.upper_bounds()[j])
                .unwrap();
        }
        let s1 = solve(&lp).unwrap();
        let s2 = solve(&scaled).unwrap();
        prop_assert_eq!(s1.status, LpStatus::Optimal);
        prop_assert_eq!(s2.status, LpStatus::Optimal);
        prop_assert!((s1.objective * lambda - s2.objective).abs() < 1e-6);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The condensed kernel against the dense reference on random LPs
    /// that mix `≤/≥/=` rows, duplicate coefficients, negative lower
    /// bounds, finite and infinite upper bounds, degenerate (zero-rhs)
    /// and redundant rows: same status, same pivot count, and `x` and
    /// the objective equal bit for bit. Planted contradictions must come
    /// out infeasible, and a free improving ray unbounded.
    #[test]
    fn condensed_kernel_matches_dense_reference(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (lp, expect) = random_lp(&mut rng);
        let got = solve(&lp).unwrap();
        let want = dense::solve(&lp).unwrap();
        prop_assert_eq!(bits(&got), bits(&want));
        match expect {
            Some(status) => prop_assert_eq!(got.status, status),
            // Feasible by the witness, bounded by the costs.
            None => prop_assert_eq!(got.status, LpStatus::Optimal),
        }
        if got.status == LpStatus::Optimal {
            prop_assert!(got.verify(&lp, 1e-6));
        }
    }
}

/// Status, `x` and objective bits, and the pivot count.
fn bits(s: &LpSolution) -> (LpStatus, Vec<u64>, u64, u64) {
    let x = s.x.iter().map(|v| v.to_bits()).collect();
    (s.status, x, s.objective.to_bits(), s.pivots)
}

/// A random LP satisfied by a hidden witness point, with a planted
/// contradiction or unbounded ray in some cases. Returns the LP and the
/// status it must have when one was planted (`None`: optimal).
fn random_lp(rng: &mut StdRng) -> (LinearProgram, Option<LpStatus>) {
    let mut lp = LinearProgram::new();
    let nv = rng.random_range(1..7usize);
    let mut witness = Vec::with_capacity(nv);
    for _ in 0..nv {
        let lo = if rng.random_bool(0.3) {
            rng.random_range(-3.0..0.0)
        } else {
            0.0
        };
        let hi = if rng.random_bool(0.5) {
            lo + rng.random_range(0.0..4.0)
        } else {
            f64::INFINITY
        };
        let span = if hi.is_finite() { hi - lo } else { 3.0 };
        witness.push(lo + span * rng.random_range(0.0..1.0));
        // Small integer costs make ties in pricing and ratio tests common.
        let c = if rng.random_bool(0.5) {
            rng.random_range(-2..3) as f64
        } else {
            rng.random_range(-2.0..2.0)
        };
        // Unbounded variables get a cost that cannot run to −∞ unless
        // a ray is planted below.
        lp.add_var(if hi.is_finite() { c } else { c.abs() }, lo, hi)
            .unwrap();
    }
    let mut rows: Vec<Row> = Vec::new();
    for _ in 0..rng.random_range(0..9usize) {
        let coeffs: Vec<(usize, f64)> = (0..rng.random_range(1..5usize))
            .map(|_| {
                let a = if rng.random_bool(0.5) {
                    rng.random_range(-2..3) as f64
                } else {
                    rng.random_range(-2.0..2.0)
                };
                (rng.random_range(0..nv), a) // indices may repeat
            })
            .collect();
        let at_witness: f64 = coeffs.iter().map(|&(j, a)| a * witness[j]).sum();
        let slack = if rng.random_bool(0.4) {
            0.0
        } else {
            rng.random_range(0.0..2.0)
        };
        let (op, rhs) = match rng.random_range(0..3) {
            0 => (RowOp::Le, at_witness + slack),
            1 => (RowOp::Ge, at_witness - slack),
            _ => (RowOp::Eq, at_witness),
        };
        rows.push(Row::new(coeffs, op, rhs));
        if rng.random_bool(0.2) {
            rows.push(rows[rows.len() - 1].clone()); // redundant copy
        }
    }
    let mut expect = None;
    match rng.random_range(0..6) {
        0 if !rows.is_empty() => {
            // Contradiction: the same left-hand side ≤ r and ≥ r + 1.
            let row = rows[rng.random_range(0..rows.len())].clone();
            let r = rng.random_range(-3.0..3.0);
            rows.push(Row::new(row.coeffs.clone(), RowOp::Le, r));
            rows.push(Row::new(row.coeffs, RowOp::Ge, r + 1.0));
            expect = Some(LpStatus::Infeasible);
        }
        1 => {
            // A fresh unbounded variable that no row mentions.
            lp.add_var(-1.0, 0.0, f64::INFINITY).unwrap();
            expect = Some(LpStatus::Unbounded);
        }
        _ => {}
    }
    for row in rows {
        lp.add_row(row).unwrap();
    }
    (lp, expect)
}
