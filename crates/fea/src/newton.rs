//! Matrix-free Newton–PCG equilibrium solver.
//!
//! The lattice's constitutive law is piecewise linear — each bond is either
//! on its elastic branch or its hardening branch — so the global residual
//! `F(u)` is piecewise linear in the displacements and an outer Newton
//! iteration converges in a handful of steps per strain increment: once the
//! active branch set stops changing, a single exact tangent solve lands on
//! the equilibrium. Each Newton step solves the tangent system
//!
//! ```text
//!     K(u) δ = F(u),      K = Σ_bonds B,
//!     B = kt·(u⊗u) + (f/L)·(I − u⊗u)
//! ```
//!
//! with a block-Jacobi-preconditioned conjugate gradient (one 2×2 nodal
//! block per node — the diagonal lattice bonds couple x/y strongly, and the
//! block inverse roughly halves the iteration count of a plain diagonal
//! Jacobi). `K` is never formed: the residual pass caches one packed
//! [`BondTang`] record per bond (endpoints + tangent coefficients), and the
//! Hessian-vector product streams that array alone, writing each bond's
//! block-times-difference and scattering `±h` **in ascending bond order** —
//! the same fixed reduction order the relaxation kernel's CSR gather pins
//! down (see [`crate::kernel`]). All CG scalars (dot products) are
//! accumulated serially in node order on the calling thread, fused into
//! the loops that produce their operands, so the solve
//! is bit-identical regardless of the session's thread budget; at these
//! lattice sizes (10³–10⁴ DOF) a Newton step costs a few
//! force-pass-equivalents and threading the inner loop would be pure
//! synchronization overhead.
//!
//! **Line search and the non-smooth states.** The accept test for the
//! equilibrium is the relaxation solver's projected *max*-residual
//! criterion (`< TOL` per node), but the line search judges steps by the
//! residual's squared *2-norm*: the max-norm is non-smooth exactly where
//! the interesting physics happens (a single bond crossing its yield kink,
//! a fresh break), and demanding monotone max-norm progress would reject
//! good steps. Where even the 2-norm cannot decrease — an indefinite
//! tangent from compressed regions mid-cascade — the solver runs a small
//! bounded relaxation *nudge* to slide past the kink and re-enters Newton,
//! and only falls back to a full relaxation solve if the outer iteration
//! budget runs out.
//!
//! **Equivalence contract.** Every state this solver returns satisfied the
//! same `< TOL` max-residual test the relaxation loop enforces (or came
//! out of the relaxation fallback itself), so Newton–PCG is purely an
//! accelerator: results agree with the relaxation and reference solvers to
//! solver tolerance, pinned by the `*_tracks_reference` tests and the
//! pipeline-level equivalence proptests.

use am_geom::Vec2;
use am_par::Pool;

use crate::kernel::{counters, BondTang, Solver, MAX_ITERS, TOL};
use crate::Grip;

/// Outer Newton iteration cap per equilibrium solve. The branch set of a
/// warm-started strain step usually settles within 2–4 iterations; hitting
/// the cap triggers the relaxation fallback.
const MAX_NEWTON: usize = 40;

/// Inner PCG iteration cap (truncated Newton: a partial solve is still a
/// descent direction).
const MAX_PCG: usize = 350;

/// Inexact-Newton forcing term: PCG stops once the linear residual 2-norm
/// drops below this fraction of its start. Tight enough that one Newton
/// step per unchanged branch set reaches equilibrium; loose enough not to
/// over-solve steps whose branch set is about to change anyway.
const CG_FORCING: f64 = 0.1;

/// Backtracking line-search halvings before declaring the step failed.
const LS_STEPS: usize = 5;

/// Relaxation-iteration budget for the escape nudge after a rejected step.
const NUDGE_ITERS: usize = 120;

impl Solver {
    /// Newton–PCG equilibrium solve, in place. Falls back to damped
    /// dynamic relaxation when Newton stalls, so acceptance is never
    /// weaker than [`Solver::relax`].
    pub(crate) fn solve_newton(&mut self, pool: &Pool, budget: usize) -> usize {
        self.ensure_newton_scratch();
        let (outcome, work) = self.newton_iterate(budget);
        match outcome {
            // Converged below TOL, or spent as much work as the relaxation
            // loop's own iteration cap would allow — in which case returning
            // the partially-converged state is exactly as strong as what
            // [`Solver::relax`] does when it exhausts `MAX_ITERS`.
            NewtonOutcome::Converged | NewtonOutcome::BudgetExhausted => {}
            NewtonOutcome::Stalled => self.relax(pool),
        }
        work
    }

    /// Runs the Newton loop until convergence below [`TOL`], a stall, or
    /// the relaxation-equivalent work budget runs out.
    fn newton_iterate(&mut self, budget: usize) -> (NewtonOutcome, usize) {
        let tol_sq = TOL * TOL;
        let budget = budget.min(MAX_ITERS);
        let mut work = 1usize;
        let (mut max_sq, mut sum_sq) = self.force_and_tangent();
        for _ in 0..MAX_NEWTON {
            if max_sq < tol_sq {
                return (NewtonOutcome::Converged, work);
            }
            if work >= budget {
                return (NewtonOutcome::BudgetExhausted, work);
            }
            counters::add_newton(1);
            self.build_diag();
            work += self.pcg();

            // Backtracking line search on the squared-2-norm merit: the
            // full Newton step first, then halvings. Any strict decrease
            // is accepted — near a branch-set change the first steps only
            // shrink the residual partwise, and demanding more would
            // forfeit Newton's endgame (one exact solve once the set
            // settles).
            self.disp_save.clone_from(&self.disp);
            let mut t = 1.0;
            let mut accepted = false;
            for _ in 0..LS_STEPS {
                for i in 0..self.disp.len() {
                    self.disp[i] = self.disp_save[i] + self.delta[i] * t;
                }
                let (trial_max, trial_sum) = self.force_and_tangent();
                work += 1;
                if trial_sum < sum_sq || trial_max < tol_sq {
                    max_sq = trial_max;
                    sum_sq = trial_sum;
                    accepted = true;
                    break;
                }
                t *= 0.5;
            }
            if !accepted {
                // Indefinite tangent or a kink the tangent model cannot
                // see: restore the best state, slide past it with a few
                // relaxation iterations, and let Newton try again.
                self.disp.clone_from(&self.disp_save);
                self.relax_serial_bounded(NUDGE_ITERS);
                work += NUDGE_ITERS + 1;
                let (m, s) = self.force_and_tangent();
                max_sq = m;
                sum_sq = s;
            }
        }
        let outcome = if max_sq < tol_sq {
            NewtonOutcome::Converged
        } else if work >= budget {
            NewtonOutcome::BudgetExhausted
        } else {
            NewtonOutcome::Stalled
        };
        (outcome, work)
    }

    /// One residual evaluation: recomputes nodal forces (serial scatter in
    /// ascending bond order — the reduction order the CSR gather fixes, see
    /// `relax_serial`) and caches each bond's tangent coefficients for the
    /// subsequent Hessian-vector products. Returns the projected residual
    /// measure as `(max²,  Σ|·|²)` over nodes — the max under the same
    /// criterion the relaxation convergence test uses (free nodes: `|F|²`;
    /// grip nodes: `F_y²`), the sum as the smooth line-search merit.
    fn force_and_tangent(&mut self) -> (f64, f64) {
        counters::add_force_evals(1);
        let Solver { params, pos, grip, disp, force, tang, .. } = self;
        for f in force.iter_mut() {
            *f = Vec2::ZERO;
        }
        for (i, p) in params.iter().enumerate() {
            let a = p.a as usize;
            let b = p.b as usize;
            let d = (pos[b] + disp[b]) - (pos[a] + disp[a]);
            let len = d.length();
            if len < 1e-12 {
                tang[i] = BondTang { a: p.a, b: p.b, ..BondTang::default() };
                continue;
            }
            let f_elastic = p.stiffness * (len - p.rest);
            // Same value the branch-free `bond_force` min computes: with
            // hardening < 1 the plastic line lies below the elastic one
            // exactly when f_elastic > yield_force. Broken bonds (zero
            // stiffness) fall on the elastic branch with f = kt = 0.
            let (f, kt) = if f_elastic > p.yield_force {
                (p.yield_force + p.hardening * (f_elastic - p.yield_force), p.hardening * p.stiffness)
            } else {
                (f_elastic, p.stiffness)
            };
            let inv_len = 1.0 / len;
            let u = d * inv_len;
            let fv = u * f;
            force[a] += fv;
            force[b] -= fv;
            let geo = f * inv_len;
            tang[i] = BondTang { a: p.a, b: p.b, ux: u.x, uy: u.y, geo, dk: kt - geo };
        }
        let mut max_sq = 0.0f64;
        let mut sum_sq = 0.0f64;
        for (i, f) in force.iter().enumerate() {
            let r = match grip[i] {
                Grip::Free => f.length_squared(),
                Grip::Fixed | Grip::Moving => f.y * f.y,
            };
            max_sq = max_sq.max(r);
            sum_sq += r;
        }
        (max_sq, sum_sq)
    }

    /// Block-Jacobi preconditioner entries: each node's full 2×2 tangent
    /// block `[xx, xy; xy, yy]`, assembled per bond in ascending order.
    fn build_diag(&mut self) {
        let Solver { tang, diag, diag_xy, .. } = self;
        for d in diag.iter_mut() {
            *d = Vec2::ZERO;
        }
        for d in diag_xy.iter_mut() {
            *d = 0.0;
        }
        for t in tang.iter() {
            let c = Vec2::new(t.geo + t.dk * t.ux * t.ux, t.geo + t.dk * t.uy * t.uy);
            let cxy = t.dk * t.ux * t.uy;
            diag[t.a as usize] += c;
            diag_xy[t.a as usize] += cxy;
            diag[t.b as usize] += c;
            diag_xy[t.b as usize] += cxy;
        }
    }

    /// Deterministic Hessian-vector product `cg_q = K · cg_p` over the
    /// active DOF (grip x-DOF projected out), returning `cg_p · cg_q`.
    /// One fused serial pass over the packed tangent records: each bond's
    /// block-times-difference is scattered `±h` in ascending bond order —
    /// exactly the reduction order the CSR gather defines — so the product
    /// is bit-stable under any thread budget. The dot product rides the
    /// projection loop in node order, the same sum `dot` would form.
    fn apply_tangent(&mut self) -> f64 {
        let Solver { tang, grip, cg_p, cg_q, .. } = self;
        for q in cg_q.iter_mut() {
            *q = Vec2::ZERO;
        }
        for t in tang.iter() {
            let a = t.a as usize;
            let b = t.b as usize;
            let w = cg_p[a] - cg_p[b];
            let axial = t.dk * (t.ux * w.x + t.uy * w.y);
            let h = Vec2::new(t.geo * w.x + axial * t.ux, t.geo * w.y + axial * t.uy);
            cg_q[a] += h;
            cg_q[b] -= h;
        }
        let mut pq = 0.0;
        for ((q, g), p) in cg_q.iter_mut().zip(grip.iter()).zip(cg_p.iter()) {
            if *g != Grip::Free {
                q.x = 0.0;
            }
            pq += p.x * q.x + p.y * q.y;
        }
        pq
    }

    /// `cg_z = M⁻¹ cg_r` with the block-Jacobi preconditioner, returning
    /// `cg_r · cg_z` (summed in node order, as `dot` would). Each node's
    /// 2×2 block is inverted exactly when it is safely positive definite
    /// (grip nodes use only their free y/y entry); otherwise the node
    /// falls back to the |diag| scaling, which keeps `M` positive definite
    /// when compression makes an entry negative. Zero rows (isolated DOF,
    /// whose residual is also zero) get `z = 0` and never move.
    fn precondition(&mut self) -> f64 {
        let Solver { grip, diag, diag_xy, cg_r, cg_z, .. } = self;
        let mut rz = 0.0;
        for (i, (r, z)) in cg_r.iter().zip(cg_z.iter_mut()).enumerate() {
            let d = diag[i];
            *z = if grip[i] != Grip::Free {
                // Only the y DOF is active; r.x is already projected to 0.
                Vec2::new(0.0, if d.y.abs() > 1e-300 { r.y / d.y.abs() } else { 0.0 })
            } else {
                let xy = diag_xy[i];
                let det = d.x * d.y - xy * xy;
                if d.x > 0.0 && det > 1e-12 * d.x * d.x {
                    Vec2::new((d.y * r.x - xy * r.y) / det, (d.x * r.y - xy * r.x) / det)
                } else {
                    Vec2::new(
                        if d.x.abs() > 1e-300 { r.x / d.x.abs() } else { 0.0 },
                        if d.y.abs() > 1e-300 { r.y / d.y.abs() } else { 0.0 },
                    )
                }
            };
            rz += r.x * z.x + r.y * z.y;
        }
        rz
    }

    /// Block-Jacobi PCG on the current tangent system, writing the
    /// (possibly truncated) Newton step into `delta`. Stops at the
    /// relative-residual forcing term, the iteration cap, or detected
    /// non-positive curvature — the piecewise-linear law's geometric term
    /// can make `K` indefinite in compressed regions — in which case the
    /// accumulated partial step (or, on the very first iteration, the
    /// preconditioned gradient) is still a descent direction for the line
    /// search to judge.
    ///
    /// Every CG scalar is accumulated inside the pass that produces its
    /// operands (`r·r` in the residual update, `p·q` in the product,
    /// `r·z` in the preconditioner), term for term in node order, so the
    /// fused loop computes exactly the floats separate `dot` passes would.
    fn pcg(&mut self) -> usize {
        let mut rr0 = 0.0;
        {
            let Solver { force, grip, cg_r, delta, .. } = &mut *self;
            for (((r, d), f), g) in cg_r.iter_mut().zip(delta.iter_mut()).zip(force.iter()).zip(grip.iter()) {
                *r = *f;
                if *g != Grip::Free {
                    r.x = 0.0;
                }
                *d = Vec2::ZERO;
                rr0 += r.x * r.x + r.y * r.y;
            }
        }
        if rr0 == 0.0 {
            return 0;
        }
        let stop = rr0 * CG_FORCING * CG_FORCING;
        let mut rho = self.precondition();
        self.cg_p.clone_from(&self.cg_z);
        let mut used = 0usize;
        for iter in 0..MAX_PCG {
            if rho <= 0.0 {
                break;
            }
            let pq = self.apply_tangent();
            if pq <= 0.0 {
                if iter == 0 {
                    self.delta.clone_from(&self.cg_z);
                }
                break;
            }
            let alpha = rho / pq;
            let mut rr = 0.0;
            {
                let Solver { delta, cg_r, cg_p, cg_q, .. } = &mut *self;
                for (((d, r), p), q) in delta.iter_mut().zip(cg_r.iter_mut()).zip(cg_p.iter()).zip(cg_q.iter()) {
                    *d += *p * alpha;
                    *r -= *q * alpha;
                    rr += r.x * r.x + r.y * r.y;
                }
            }
            counters::add_pcg(1);
            used += 1;
            if rr <= stop {
                break;
            }
            let rho_next = self.precondition();
            let beta = rho_next / rho;
            rho = rho_next;
            let Solver { cg_p, cg_z, .. } = &mut *self;
            for (p, z) in cg_p.iter_mut().zip(cg_z.iter()) {
                *p = *z + *p * beta;
            }
        }
        used
    }
}

/// How a [`Solver::newton_iterate`] run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NewtonOutcome {
    /// Projected max-residual dropped below [`TOL`].
    Converged,
    /// Spent [`MAX_ITERS`] force-pass-equivalents of work — the same
    /// budget the relaxation loop caps itself at — without converging.
    /// The state is returned as-is, matching the relaxation solver's
    /// behaviour when *it* runs out of iterations.
    BudgetExhausted,
    /// Newton stopped making progress with budget to spare; the caller
    /// runs the relaxation fallback.
    Stalled,
}

/// Serial dot product in fixed node order — the sum every fused CG scalar
/// must reproduce bit for bit (pinned by the tests below). The CG scalars
/// are part of the determinism contract, so they are never computed with
/// a parallel (or otherwise order-varying) reduction.
#[cfg(test)]
fn dot(a: &[Vec2], b: &[Vec2]) -> f64 {
    let mut acc = 0.0;
    for (x, y) in a.iter().zip(b) {
        acc += x.x * y.x + x.y * y.y;
    }
    acc
}

#[cfg(test)]
mod tests {
    use am_geom::Point2;

    use super::*;
    use crate::{Bond, BondState, Lattice, Node};

    /// A 7×4 grid lattice (axial + diagonal bonds, grips at both ends,
    /// one broken bond) with varied stiffness and low yield forces, so a
    /// deformed state mixes elastic, hardening, compressed and dead bonds.
    fn mixed_lattice() -> Lattice {
        let (nx, ny) = (7usize, 4usize);
        let mut nodes = Vec::new();
        for j in 0..ny {
            for i in 0..nx {
                let grip = match i {
                    0 => Grip::Fixed,
                    _ if i == nx - 1 => Grip::Moving,
                    _ => Grip::Free,
                };
                nodes.push(Node { pos: Point2::new(i as f64, j as f64), grip });
            }
        }
        let mut bonds = Vec::new();
        let mut link = |a: usize, b: usize| {
            let k = bonds.len() as f64;
            let rest = nodes[a].pos.distance(nodes[b].pos);
            bonds.push(Bond {
                nodes: [a as u32, b as u32],
                rest_length: rest,
                stiffness: 100.0 + 7.0 * (k % 5.0),
                yield_force: 0.5 + 0.1 * (k % 3.0),
                breaking_strain: 1.0,
                hardening: 0.02,
                is_joint: false,
                state: if bonds.len() == 9 { BondState::Broken } else { BondState::Intact },
            });
        };
        for j in 0..ny {
            for i in 0..nx {
                let a = j * nx + i;
                if i + 1 < nx {
                    link(a, a + 1);
                }
                if j + 1 < ny {
                    link(a, a + nx);
                    if i + 1 < nx {
                        link(a, a + nx + 1);
                    }
                }
            }
        }
        Lattice { nodes, bonds, section_area: 1.0, gauge_length: 6.0, spacing: 1.0 }
    }

    /// A deterministic, sign-mixed vector field over the nodes.
    fn field(n: usize, salt: f64) -> Vec<Vec2> {
        (0..n)
            .map(|i| {
                let t = i as f64 + salt;
                Vec2::new((t * 1.7).sin() * 0.03, (t * 0.9).cos() * 0.02)
            })
            .collect()
    }

    #[test]
    fn fused_cg_scalars_equal_separate_dot_passes() {
        let lattice = mixed_lattice();
        let mut s = Solver::empty();
        s.reset(&lattice);
        s.ensure_newton_scratch();
        let n = s.pos.len();
        s.disp = field(n, 0.0);
        s.force_and_tangent();
        s.build_diag();

        // r·z from the preconditioner pass.
        s.cg_r = field(n, 3.0);
        for (r, g) in s.cg_r.iter_mut().zip(&s.grip) {
            if *g != Grip::Free {
                r.x = 0.0;
            }
        }
        let rz = s.precondition();
        assert_eq!(rz.to_bits(), dot(&s.cg_r, &s.cg_z).to_bits());

        // p·q from the Hessian-vector product.
        s.cg_p = field(n, 5.0);
        let pq = s.apply_tangent();
        assert_eq!(pq.to_bits(), dot(&s.cg_p, &s.cg_q).to_bits());
    }
}
