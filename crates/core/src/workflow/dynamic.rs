//! §4.3 — the dynamic strategy: decide checkpoint-vs-continue at the end
//! of every task, given the work `W_n` actually done so far.
//!
//! At work level `w`:
//!
//! ```text
//! E[W_C]   = w · P(C ≤ R − w)                          (checkpoint now)
//! E[W_{+1}] = ∫_0^{R−w} (x + w) · P(C ≤ R−w−x) f_X(x) dx  (one more task)
//! ```
//!
//! Checkpoint iff `E[W_C] ≥ E[W_{+1}]`. For IID tasks the comparison only
//! depends on `w`, so the rule is a fixed work threshold `W_int` — the
//! crossing of the two curves the paper plots in Figures 8–10.

use crate::error::CoreError;
use crate::solve_cache::SolveCache;
use crate::workflow::task_law::TaskDuration;
use resq_dist::Continuous;

/// §4.3 model: IID task law, checkpoint law (support in `[0, ∞)`),
/// reservation `R`.
///
/// ```
/// use resq_dist::{Normal, Truncated};
/// use resq_core::DynamicStrategy;
///
/// // Figure 8: tasks ~ N[0,∞)(3, 0.5²), C ~ N[0,∞)(5, 0.4²), R = 29.
/// let task = Truncated::above(Normal::new(3.0, 0.5)?, 0.0)?;
/// let ckpt = Truncated::above(Normal::new(5.0, 0.4)?, 0.0)?;
/// let d = DynamicStrategy::new(task, ckpt, 29.0)?;
///
/// let w_int = d.threshold()?.unwrap();
/// assert!((w_int - 20.3).abs() < 0.3);          // paper: W_int ≈ 20.3
/// assert!(!d.should_checkpoint(15.0));          // keep computing
/// assert!(d.should_checkpoint(22.0));           // checkpoint now
/// # Ok::<(), resq_core::CoreError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DynamicStrategy<X: TaskDuration, C: Continuous> {
    task: X,
    ckpt: C,
    r: f64,
}

impl<X: TaskDuration, C: Continuous> DynamicStrategy<X, C> {
    /// Builds the model; `R` positive finite, checkpoint support in
    /// `[0, ∞)`, positive mean task duration.
    pub fn new(task: X, ckpt: C, r: f64) -> Result<Self, CoreError> {
        if !(r > 0.0) || !r.is_finite() {
            return Err(CoreError::InvalidReservation { r });
        }
        let (lo, _) = ckpt.support();
        if lo < -1e-9 {
            return Err(CoreError::NegativeCheckpointSupport { lo });
        }
        if !(task.mean_duration() > 0.0) {
            return Err(CoreError::InvalidTaskLaw("task mean must be positive"));
        }
        Ok(Self { task, ckpt, r })
    }

    /// Reservation length `R`.
    pub fn reservation(&self) -> f64 {
        self.r
    }

    /// The task law.
    pub fn task(&self) -> &X {
        &self.task
    }

    /// The checkpoint law.
    pub fn checkpoint_law(&self) -> &C {
        &self.ckpt
    }

    /// `P(C ≤ c)`.
    #[inline]
    fn fit_probability(&self, c: f64) -> f64 {
        if c <= 0.0 {
            0.0
        } else {
            self.ckpt.cdf(c)
        }
    }

    /// `E[W_C](w) = w · P(C ≤ R − w)`: expected saved work when
    /// checkpointing right now with `w` work done.
    pub fn expect_checkpoint_now(&self, w: f64) -> f64 {
        if w <= 0.0 {
            return 0.0;
        }
        w * self.fit_probability(self.r - w)
    }

    /// `E[W_{+1}](w)`: expected saved work when running exactly one more
    /// task before checkpointing.
    pub fn expect_one_more(&self, w: f64) -> f64 {
        self.task
            .expected_one_more(w.max(0.0), self.r, &|c| self.fit_probability(c))
    }

    /// The §4.3 decision rule: checkpoint iff `E[W_C] ≥ E[W_{+1}]`.
    pub fn should_checkpoint(&self, w: f64) -> bool {
        self.expect_checkpoint_now(w) >= self.expect_one_more(w)
    }

    /// The work threshold `W_int`: the first crossing of `E[W_C]` over
    /// `E[W_{+1}]` (Figures 8–10). Below it, continuing wins; above it,
    /// checkpointing wins. Uses a fresh per-call [`SolveCache`]; sweeps
    /// should share one via [`DynamicStrategy::threshold_with`].
    ///
    /// Returns `Ok(None)` if checkpointing never wins before `R` (can
    /// happen when `R` is too short for even one checkpoint to plausibly
    /// fit — then everything is lost regardless);
    /// [`CoreError::Numerics`] when the `E[W_{+1}]` quadrature fails to
    /// converge, or spends its evaluation budget, at a deciding point.
    pub fn threshold(&self) -> Result<Option<f64>, CoreError> {
        self.threshold_with(&mut SolveCache::new())
    }

    /// [`DynamicStrategy::threshold`] reusing `cache` across calls.
    ///
    /// The 96-point scan classifies most points with the fast
    /// `E[W_{+1}]` kernel (lattice-served checkpoint CDF + fixed-order
    /// Gauss–Legendre): a point whose fast diff sits clearly below zero
    /// — beyond a guard band 1000× the fast path's worst-case error —
    /// is accepted as "continue wins" without an exact evaluation.
    /// Every *deciding* value (the crossing's bracket endpoints, the
    /// `w = 0` seed, the final scan point, every Brent refinement step)
    /// is evaluated through the exact convergence-checked integrand,
    /// whose values are bit-identical to the plain exact diff's — so the
    /// returned `W_int` is bit-identical to an all-exact scan.
    pub fn threshold_with(&self, cache: &mut SolveCache) -> Result<Option<f64>, CoreError> {
        let _span = resq_obs::span::enter(resq_obs::span_name::SOLVE_DYNAMIC);
        let fit = cache.fit_lattice(&self.ckpt, self.r);
        let gl = cache.gl();
        // Narrowest structure the fast integrand carries: the checkpoint
        // law's CDF shoulder or the task density's bulk, whichever is
        // tighter — sizes the fast kernel's quadrature panels so its
        // check resolutions sample the feature instead of aliasing it
        // (and uselessly failing over to the exact path at every point).
        let feature = (self.ckpt.quantile(0.999) - self.ckpt.quantile(0.001))
            .min(self.task.fast_kernel_feature().unwrap_or(f64::INFINITY));
        let ckpt_cdf = |c: f64| self.fit_probability(c);
        let exact_diff = |w: f64| -> Result<f64, CoreError> {
            let one_more = self
                .task
                .expected_one_more_checked(w.max(0.0), self.r, &ckpt_cdf)?;
            Ok(self.expect_checkpoint_now(w) - one_more)
        };
        // Fast-path worst case: lattice interpolation (~1e-5-scale on
        // the CDF, amplified by the ~R-unit integrand) plus the 1e-6
        // GL agreement band. The guard is ~1000× that, so a fast diff
        // below −guard certifies the exact diff is negative.
        let guard = 1e-3 * (1.0 + self.r);
        // Scan for the first sign change from ≤0 to >0 (the curves are
        // smooth, so a coarse scan plus Brent refinement suffices).
        const POINTS: usize = 96;
        let step = self.r / POINTS as f64;
        let mut prev_w = 0.0;
        // Exact diff at the previous scan point; `None` when the fast
        // path certified it negative and no exact value was needed.
        let mut prev_d: Option<f64> = Some(exact_diff(0.0)?);
        for i in 1..=POINTS {
            let w = step * i as f64;
            let clearly_negative = self
                .task
                .expected_one_more_fast(w, self.r, &fit, gl, feature)
                .map(|fast_one| self.expect_checkpoint_now(w) - fast_one < -guard)
                .unwrap_or(false);
            if clearly_negative {
                prev_w = w;
                prev_d = None;
                continue;
            }
            let d = exact_diff(w)?;
            if d >= 0.0 {
                let pd = match prev_d {
                    Some(v) => v,
                    None => exact_diff(prev_w)?,
                };
                if pd < 0.0 {
                    return refine_crossing(exact_diff, prev_w, w).map(Some);
                }
            }
            prev_w = w;
            prev_d = Some(d);
        }
        let last_d = match prev_d {
            // Fast-certified negative at w = R: continuing still wins.
            None => return Ok(None),
            Some(v) => v,
        };
        Ok(if last_d >= 0.0 {
            // Checkpointing already preferable at w = 0⁺.
            Some(0.0)
        } else {
            None
        })
    }
}

/// Brent refinement of the crossing of a fallible `diff` inside
/// `[lo, hi]` (tolerance 1e-9; `hi` when Brent gives up). The first
/// error ends the refinement and is returned, so a quadrature that fails
/// mid-refinement is reported rather than fed to Brent as a number.
pub(crate) fn refine_crossing(
    diff: impl Fn(f64) -> Result<f64, CoreError>,
    lo: f64,
    hi: f64,
) -> Result<f64, CoreError> {
    let mut failed = None;
    let root = resq_numerics::brent_root(
        |w| {
            if failed.is_some() {
                return f64::NAN;
            }
            diff(w).unwrap_or_else(|e| {
                failed = Some(e);
                f64::NAN
            })
        },
        lo,
        hi,
        1e-9,
    );
    match failed {
        Some(e) => Err(e),
        None => Ok(root.unwrap_or(hi)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resq_dist::{Gamma, Normal, Poisson, Truncated};

    fn ckpt(mu_c: f64, sigma_c: f64) -> Truncated<Normal> {
        Truncated::above(Normal::new(mu_c, sigma_c).unwrap(), 0.0).unwrap()
    }

    fn trunc_normal_task(mu: f64, sigma: f64) -> Truncated<Normal> {
        Truncated::above(Normal::new(mu, sigma).unwrap(), 0.0).unwrap()
    }

    #[test]
    fn construction_validates() {
        let t = trunc_normal_task(3.0, 0.5);
        assert!(DynamicStrategy::new(t, ckpt(5.0, 0.4), 29.0).is_ok());
        assert!(DynamicStrategy::new(t, ckpt(5.0, 0.4), -1.0).is_err());
        assert!(DynamicStrategy::new(t, Normal::new(5.0, 0.4).unwrap(), 29.0).is_err());
    }

    #[test]
    fn figure8_truncated_normal_tasks() {
        // Fig 8: μ=3, σ=0.5, μC=5, σC=0.4, R=29 → W_int ≈ 20.3.
        let d = DynamicStrategy::new(trunc_normal_task(3.0, 0.5), ckpt(5.0, 0.4), 29.0).unwrap();
        let w_int = d.threshold().unwrap().expect("threshold exists");
        assert!((w_int - 20.3).abs() < 0.3, "W_int = {w_int}");
        // Below the threshold: continue; above: checkpoint.
        assert!(!d.should_checkpoint(w_int - 1.0));
        assert!(d.should_checkpoint(w_int + 1.0));
    }

    #[test]
    fn figure9_gamma_tasks() {
        // Fig 9: k=1, θ=0.5, μC=2, σC=0.4, R=10 → W_int ≈ 6.4.
        let d = DynamicStrategy::new(Gamma::new(1.0, 0.5).unwrap(), ckpt(2.0, 0.4), 10.0).unwrap();
        let w_int = d.threshold().unwrap().expect("threshold exists");
        assert!((w_int - 6.4).abs() < 0.2, "W_int = {w_int}");
    }

    #[test]
    fn figure10_poisson_tasks() {
        // Fig 10: λ=3, μC=5, σC=0.4, R=29 → W_int ≈ 18.9.
        let d = DynamicStrategy::new(Poisson::new(3.0).unwrap(), ckpt(5.0, 0.4), 29.0).unwrap();
        let w_int = d.threshold().unwrap().expect("threshold exists");
        assert!((w_int - 18.9).abs() < 0.4, "W_int = {w_int}");
    }

    #[test]
    fn expectation_curves_have_paper_shape() {
        let d = DynamicStrategy::new(trunc_normal_task(3.0, 0.5), ckpt(5.0, 0.4), 29.0).unwrap();
        // E[W_C] rises ~linearly while the checkpoint fits comfortably...
        assert!((d.expect_checkpoint_now(10.0) - 10.0).abs() < 1e-6);
        // ...then collapses near the deadline.
        assert!(d.expect_checkpoint_now(28.0) < 0.1);
        // E[W_{+1}] ≈ w + μ while both task and checkpoint fit.
        assert!((d.expect_one_more(10.0) - 13.0).abs() < 1e-4);
        // And is 0 at w = R.
        assert_eq!(d.expect_one_more(29.0), 0.0);
        assert_eq!(d.expect_checkpoint_now(0.0), 0.0);
    }

    #[test]
    fn no_threshold_when_reservation_hopeless() {
        // R = 1 with checkpoint mean 5: nothing can ever be saved, and
        // E[W_C] stays below E[W_{+1}] essentially everywhere or both are
        // ~0. Either a None or a tiny threshold is acceptable — what
        // matters is that the policy cannot promise saved work.
        let d = DynamicStrategy::new(trunc_normal_task(3.0, 0.5), ckpt(5.0, 0.4), 1.0).unwrap();
        if let Some(w) = d.threshold().unwrap() {
            assert!(d.expect_checkpoint_now(w) < 1e-6);
        }
    }

    #[test]
    fn threshold_grows_with_reservation() {
        let mk = |r: f64| {
            DynamicStrategy::new(trunc_normal_task(3.0, 0.5), ckpt(5.0, 0.4), r)
                .unwrap()
                .threshold()
                .unwrap()
                .unwrap()
        };
        let w20 = mk(20.0);
        let w29 = mk(29.0);
        let w40 = mk(40.0);
        assert!(w20 < w29 && w29 < w40, "{w20} {w29} {w40}");
        // The gap R − W_int stays near μC + μ-ish (the "reserve" the
        // strategy keeps for one more task + checkpoint).
        assert!((29.0 - w29) - (40.0 - w40) < 0.5);
    }

    /// The pre-fast-path reference: an all-exact 96-point scan plus
    /// Brent refinement, written against the public curve accessors.
    fn reference_threshold<X: TaskDuration, C: Continuous>(
        d: &DynamicStrategy<X, C>,
    ) -> Option<f64> {
        let diff = |w: f64| d.expect_checkpoint_now(w) - d.expect_one_more(w);
        const POINTS: usize = 96;
        let step = d.reservation() / POINTS as f64;
        let mut prev_w = 0.0;
        let mut prev_d = diff(0.0);
        for i in 1..=POINTS {
            let w = step * i as f64;
            let dv = diff(w);
            if prev_d < 0.0 && dv >= 0.0 {
                let root = resq_numerics::brent_root(diff, prev_w, w, 1e-9);
                return Some(root.unwrap_or(w));
            }
            prev_w = w;
            prev_d = dv;
        }
        if prev_d >= 0.0 {
            Some(0.0)
        } else {
            None
        }
    }

    #[test]
    fn fast_scan_threshold_is_bit_identical_to_exact_scan() {
        // W_int feeds results/ artifacts and MC threshold policies: the
        // fast-classification scan must reproduce the all-exact scan to
        // the bit, not merely to tolerance.
        let tn = DynamicStrategy::new(trunc_normal_task(3.0, 0.5), ckpt(5.0, 0.4), 29.0).unwrap();
        let ga = DynamicStrategy::new(Gamma::new(1.0, 0.5).unwrap(), ckpt(2.0, 0.4), 10.0).unwrap();
        let po = DynamicStrategy::new(Poisson::new(3.0).unwrap(), ckpt(5.0, 0.4), 29.0).unwrap();
        assert_eq!(
            tn.threshold().unwrap().map(f64::to_bits),
            reference_threshold(&tn).map(f64::to_bits)
        );
        assert_eq!(
            ga.threshold().unwrap().map(f64::to_bits),
            reference_threshold(&ga).map(f64::to_bits)
        );
        assert_eq!(
            po.threshold().unwrap().map(f64::to_bits),
            reference_threshold(&po).map(f64::to_bits)
        );
        // And a shared cache across repeat solves changes nothing.
        let mut cache = SolveCache::new();
        let a = tn.threshold_with(&mut cache).unwrap();
        let b = tn.threshold_with(&mut cache).unwrap();
        assert_eq!(a.map(f64::to_bits), b.map(f64::to_bits));
        assert_eq!(a.map(f64::to_bits), reference_threshold(&tn).map(f64::to_bits));
    }

    #[test]
    fn refinement_reports_the_first_failed_evaluation() {
        let budget = resq_numerics::NumericsError::EvalBudget {
            evals: 7,
            budget: 5,
        };
        // The endpoints bracket the root at 1; Brent's first interior
        // step fails.
        let diff = |w: f64| {
            if w == 0.0 || w == 3.0 {
                Ok(w - 1.0)
            } else {
                Err(CoreError::Numerics(budget))
            }
        };
        assert!(matches!(
            refine_crossing(diff, 0.0, 3.0),
            Err(CoreError::Numerics(e)) if e == budget
        ));
        let root = refine_crossing(|w| Ok(w - 1.0), 0.0, 3.0).unwrap();
        assert!((root - 1.0).abs() < 1e-9);
    }

    #[test]
    fn decision_is_monotone_in_work() {
        // Once checkpointing wins it keeps winning (single crossing in
        // the operational range).
        let d = DynamicStrategy::new(Gamma::new(1.0, 0.5).unwrap(), ckpt(2.0, 0.4), 10.0).unwrap();
        let w_int = d.threshold().unwrap().unwrap();
        let mut crossed = false;
        for i in 0..100 {
            let w = 10.0 * i as f64 / 100.0;
            if w > w_int + 0.05 && w < 10.0 - 2.0 {
                // comfortably past threshold but checkpoint still fits
                assert!(d.should_checkpoint(w), "w={w} should checkpoint");
                crossed = true;
            }
        }
        assert!(crossed);
    }
}
