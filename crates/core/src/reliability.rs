//! Unreliable checkpoints: failure-aware final-checkpoint policies.
//!
//! The paper assumes the final checkpoint always succeeds once started.
//! This module drops that assumption: each checkpoint *attempt* may fail
//! (I/O error, node crash mid-write) and be retried under a
//! [`RetryPolicy`]. The §3 objective generalizes to
//!
//! ```text
//! E[W(X)] = (R − X) · S(X),    S(X) = P(some attempt succeeds within X)
//! ```
//!
//! where `S` folds the retry/backoff schedule into the attempt-completion
//! law. Writing `Q(t) = P(C ≤ t ∧ attempt succeeds)` and
//! `H(t) = P(C ≤ t ∧ attempt fails)` for one attempt (failure is detected
//! at the *end* of the write, so a failed attempt still consumes its full
//! duration), the first-success decomposition over the attempt index `j`
//! gives
//!
//! ```text
//! S(X) = Σ_{j=1..k} A_j(X),
//! A_1 = Q,            A_{j+1}(t) = ∫ Q(t − u) dG_j(u),
//! G_1(t) = H(t − δ),  G_{j+1}(t) = ∫ H(t − δ − u) dG_j(u),
//! ```
//!
//! with `δ` the backoff delay and `G_j` the (defective) law of the start
//! time of attempt `j + 1` after `j` failures. For the per-attempt
//! Bernoulli model `Q = p·F`, so `A_j(X) = p(1−p)^{j−1} F^{(j)}(X −
//! (j−1)δ)` — an Irwin–Hall CDF for Uniform attempts
//! ([`uniform_retry_success`]) and an Erlang CDF for Exponential attempts
//! ([`exponential_retry_success`]). [`RetryPreemptible`] uses those exact
//! reductions where available and otherwise evaluates the recursion
//! numerically on a lattice (see `docs/KNOWN_ISSUES.md` for the regimes
//! where the closed form is abandoned).
//!
//! [`RetryStaticStrategy`] and [`RetryDynamicStrategy`] are the §4
//! strategies with `P(C ≤ c)` replaced by `S(c)` throughout, so the
//! static count `n_opt` and the dynamic threshold `W_int` both budget
//! slack for failed attempts.

use crate::error::CoreError;
use crate::workflow::dynamic::refine_crossing;
use crate::workflow::statics::StaticPlan;
use crate::workflow::sum_law::IidSum;
use crate::workflow::task_law::TaskDuration;
use resq_dist::Continuous;
use resq_numerics::{grid_max, round_to_better_integer, GridSpec, NeumaierSum};
use resq_specfun::{gamma_p, ln_factorial};

/// How a single checkpoint write attempt can fail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CheckpointReliability {
    /// The paper's baseline: every attempt succeeds.
    Reliable,
    /// Each attempt fails independently with probability `1 − p`,
    /// regardless of how long the write took.
    PerAttempt {
        /// Per-attempt success probability, `0 < p ≤ 1`.
        p: f64,
    },
    /// The attempt survives an exponential hazard for the duration of
    /// the write: an attempt of duration `c` succeeds with probability
    /// `exp(−rate·c)` — longer writes are more exposed.
    DurationHazard {
        /// Hazard rate per unit of write time, `rate ≥ 0`.
        rate: f64,
    },
}

impl CheckpointReliability {
    /// Validates the model parameters.
    pub fn validate(&self) -> Result<(), CoreError> {
        match *self {
            Self::Reliable => Ok(()),
            Self::PerAttempt { p } => {
                if p.is_finite() && p > 0.0 && p <= 1.0 {
                    Ok(())
                } else {
                    Err(CoreError::InvalidParameter {
                        name: "p",
                        value: p,
                    })
                }
            }
            Self::DurationHazard { rate } => {
                if rate.is_finite() && rate >= 0.0 {
                    Ok(())
                } else {
                    Err(CoreError::InvalidParameter {
                        name: "rate",
                        value: rate,
                    })
                }
            }
        }
    }

    /// Probability that an attempt of duration `c` succeeds. This is the
    /// conditional law the simulator's fault injector draws its success
    /// coin from.
    pub fn success_given_duration(&self, c: f64) -> f64 {
        match *self {
            Self::Reliable => 1.0,
            Self::PerAttempt { p } => p,
            Self::DurationHazard { rate } => (-rate * c.max(0.0)).exp(),
        }
    }

    /// True for [`CheckpointReliability::Reliable`].
    pub fn is_reliable(&self) -> bool {
        matches!(self, Self::Reliable)
    }
}

/// What to do after a checkpoint attempt fails.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RetryPolicy {
    /// Retry immediately, up to `max_attempts` attempts in total.
    Immediate {
        /// Total attempt budget (first attempt included), `≥ 1`.
        max_attempts: u32,
    },
    /// Wait a fixed `delay` between attempts, up to `max_attempts`
    /// attempts in total.
    Backoff {
        /// Total attempt budget (first attempt included), `≥ 1`.
        max_attempts: u32,
        /// Delay inserted before each retry, `≥ 0`.
        delay: f64,
    },
    /// Do not retry: after a failed attempt, go back to doing useful
    /// work and re-decide later. For the preemptible analytics this is a
    /// single attempt (there is no "later" once the final checkpoint
    /// has been started); the workflow simulator additionally forces at
    /// least one more task before the policy is consulted again, so a
    /// failed attempt always buys more work rather than a tight retry
    /// loop.
    GiveUpAndWorkOn,
}

impl RetryPolicy {
    /// Validates the policy parameters.
    pub fn validate(&self) -> Result<(), CoreError> {
        match *self {
            Self::Immediate { max_attempts } | Self::Backoff { max_attempts, .. }
                if max_attempts == 0 =>
            {
                Err(CoreError::InvalidParameter {
                    name: "max_attempts",
                    value: 0.0,
                })
            }
            Self::Backoff { delay, .. } if !(delay.is_finite() && delay >= 0.0) => {
                Err(CoreError::InvalidParameter {
                    name: "delay",
                    value: delay,
                })
            }
            _ => Ok(()),
        }
    }

    /// Total attempt budget. [`RetryPolicy::GiveUpAndWorkOn`] counts as
    /// one attempt (see its documentation).
    pub fn max_attempts(&self) -> u32 {
        match *self {
            Self::Immediate { max_attempts } | Self::Backoff { max_attempts, .. } => max_attempts,
            Self::GiveUpAndWorkOn => 1,
        }
    }

    /// Delay inserted before each retry (0 unless
    /// [`RetryPolicy::Backoff`]).
    pub fn delay(&self) -> f64 {
        match *self {
            Self::Backoff { delay, .. } => delay,
            _ => 0.0,
        }
    }
}

/// Retry-series truncation for the numeric lattice: attempts beyond this
/// carry a total probability mass below `(1−p)^64` (or its hazard-model
/// analogue) and are dropped. See `docs/KNOWN_ISSUES.md`.
const MAX_LATTICE_ATTEMPTS: u32 = 64;

/// Number of cells in the success-profile lattice over `[0, R]`.
const LATTICE_CELLS: usize = 1024;

/// Numeric evaluation of the first-success recursion on a uniform
/// lattice over `[0, t_max]` — the fallback when no closed form applies.
#[derive(Debug, Clone)]
struct SuccessLattice {
    h: f64,
    s: Vec<f64>,
}

impl SuccessLattice {
    fn build<C: Continuous>(
        ckpt: &C,
        reliability: &CheckpointReliability,
        attempts: u32,
        delay: f64,
        t_max: f64,
    ) -> Self {
        let n = LATTICE_CELLS;
        let h = t_max / n as f64;
        let fit = |c: f64| {
            if c <= 0.0 {
                0.0
            } else {
                ckpt.cdf(c).clamp(0.0, 1.0)
            }
        };
        // Single-attempt sub-CDFs at the lattice points:
        // q[i] = P(C ≤ t_i ∧ success), hf[i] = P(C ≤ t_i ∧ failure).
        let mut q = vec![0.0; n + 1];
        let mut hf = vec![0.0; n + 1];
        match *reliability {
            CheckpointReliability::Reliable => {
                for (i, qi) in q.iter_mut().enumerate() {
                    *qi = fit(i as f64 * h);
                }
            }
            CheckpointReliability::PerAttempt { p } => {
                for i in 0..=n {
                    let f = fit(i as f64 * h);
                    q[i] = p * f;
                    hf[i] = (1.0 - p) * f;
                }
            }
            CheckpointReliability::DurationHazard { rate } => {
                // Per-cell Simpson for Q(t) = ∫₀ᵗ f(c)·e^{−rate·c} dc,
                // guarded against integrable pdf singularities.
                let g = |c: f64| {
                    let v = ckpt.pdf(c) * (-rate * c).exp();
                    if v.is_finite() {
                        v
                    } else {
                        0.0
                    }
                };
                let mut acc = 0.0;
                for i in 1..=n {
                    let lo = (i - 1) as f64 * h;
                    let hi = i as f64 * h;
                    acc += (h / 6.0) * (g(lo) + 4.0 * g(0.5 * (lo + hi)) + g(hi));
                    let f = fit(hi);
                    q[i] = acc.min(f);
                    hf[i] = (f - q[i]).max(0.0);
                }
            }
        }
        let interp = |vals: &[f64], t: f64| -> f64 {
            if t <= 0.0 {
                return 0.0;
            }
            let u = t / h;
            if u >= n as f64 {
                return vals[n];
            }
            let i = u as usize;
            let frac = u - i as f64;
            vals[i] + frac * (vals[i + 1] - vals[i])
        };
        let mut s = q.clone();
        // ready[i]: defective CDF of the start time of the next attempt
        // (all previous attempts failed, backoff elapsed).
        let mut ready: Vec<f64> = (0..=n)
            .map(|i| interp(&hf, i as f64 * h - delay))
            .collect();
        for _attempt in 2..=attempts.min(MAX_LATTICE_ATTEMPTS) {
            if ready[n] < 1e-12 {
                break;
            }
            // Midpoint Stieltjes convolution: the mass that lands in
            // ready's cell m is concentrated at the cell midpoint.
            let mut next_ready = vec![0.0; n + 1];
            for i in 0..=n {
                let t = i as f64 * h;
                let mut a = 0.0;
                let mut r = 0.0;
                for m in 1..=i {
                    let w = ready[m] - ready[m - 1];
                    if w <= 0.0 {
                        continue;
                    }
                    let u = (m as f64 - 0.5) * h;
                    a += w * interp(&q, t - u);
                    r += w * interp(&hf, t - u - delay);
                }
                s[i] += a;
                next_ready[i] = r;
            }
            ready = next_ready;
        }
        // Enforce the CDF shape the recursion guarantees analytically.
        let mut prev = 0.0;
        for v in s.iter_mut() {
            *v = v.clamp(prev, 1.0);
            prev = *v;
        }
        Self { h, s }
    }

    fn eval(&self, t: f64) -> f64 {
        if t <= 0.0 {
            return 0.0;
        }
        let n = self.s.len() - 1;
        let u = t / self.h;
        if u >= n as f64 {
            return self.s[n];
        }
        let i = u as usize;
        let frac = u - i as f64;
        self.s[i] + frac * (self.s[i + 1] - self.s[i])
    }
}

/// How `S(X)` is evaluated: exactly where the retry series collapses,
/// numerically otherwise.
#[derive(Debug, Clone)]
enum Profile {
    /// Reliable checkpoints (or `p = 1`): `S = F`, exact.
    Exact,
    /// One Bernoulli attempt: `S = p·F`, exact.
    Scaled(f64),
    /// Everything else: the lattice recursion.
    Lattice(SuccessLattice),
}

/// The §3 preemptible model with unreliable checkpoints: maximize
/// `E[W(X)] = (R − X)·S(X)` where `S` is the retry-aware success
/// probability.
///
/// Unlike [`crate::Preemptible`], the checkpoint law's support may
/// extend beyond `R` and may be unbounded (Exponential): with retries in
/// play there is no lead time that makes success certain, and quantifying
/// that residual risk is the point.
///
/// ```
/// use resq_dist::Uniform;
/// use resq_core::{CheckpointReliability, RetryPolicy, RetryPreemptible};
///
/// // Figure 1(a) law, but each write fails with probability 0.2 and is
/// // retried immediately, up to 3 attempts.
/// let m = RetryPreemptible::new(
///     Uniform::new(1.0, 7.5)?,
///     10.0,
///     CheckpointReliability::PerAttempt { p: 0.8 },
///     RetryPolicy::Immediate { max_attempts: 3 },
/// )?;
/// let plan = m.optimize();
/// // The failure-aware optimum leaves room for retries...
/// assert!(plan.lead_time > 5.5 - 1e-6);
/// // ...and beats both naive baselines by construction.
/// assert!(plan.expected_work >= m.expected_work(5.5));
/// assert!(plan.expected_work >= m.expected_work(7.5));
/// # Ok::<(), resq_core::CoreError>(())
/// ```
#[derive(Debug, Clone)]
pub struct RetryPreemptible<C: Continuous> {
    ckpt: C,
    r: f64,
    a: f64,
    b: f64,
    reliability: CheckpointReliability,
    retry: RetryPolicy,
    profile: Profile,
}

impl<C: Continuous> RetryPreemptible<C> {
    /// Builds the model; validates `R` finite positive, non-negative
    /// checkpoint support, and the reliability/retry parameters.
    pub fn new(
        ckpt: C,
        r: f64,
        reliability: CheckpointReliability,
        retry: RetryPolicy,
    ) -> Result<Self, CoreError> {
        if !(r > 0.0) || !r.is_finite() {
            return Err(CoreError::InvalidReservation { r });
        }
        let (a, b) = ckpt.support();
        if !(a >= -1e-9) {
            return Err(CoreError::NegativeCheckpointSupport { lo: a });
        }
        if !(a < b) {
            return Err(CoreError::CheckpointSupportOutOfRange { a, b, r });
        }
        reliability.validate()?;
        retry.validate()?;
        let attempts = retry.max_attempts();
        let profile = match (&reliability, attempts) {
            (CheckpointReliability::Reliable, _) => Profile::Exact,
            (CheckpointReliability::PerAttempt { p }, _) if *p >= 1.0 => Profile::Exact,
            (CheckpointReliability::PerAttempt { p }, 1) => Profile::Scaled(*p),
            _ => Profile::Lattice(SuccessLattice::build(
                &ckpt,
                &reliability,
                attempts,
                retry.delay(),
                r,
            )),
        };
        Ok(Self {
            ckpt,
            r,
            a: a.max(0.0),
            b,
            reliability,
            retry,
            profile,
        })
    }

    /// Reservation length `R`.
    pub fn reservation(&self) -> f64 {
        self.r
    }

    /// The single-attempt checkpoint-duration law.
    pub fn checkpoint_law(&self) -> &C {
        &self.ckpt
    }

    /// The reliability model.
    pub fn reliability(&self) -> &CheckpointReliability {
        &self.reliability
    }

    /// The retry policy.
    pub fn retry(&self) -> &RetryPolicy {
        &self.retry
    }

    /// `S(x)`: probability that some attempt of the retry schedule
    /// completes successfully within `x` seconds of starting the first
    /// attempt.
    pub fn success_within(&self, x: f64) -> f64 {
        if !(x > 0.0) {
            return 0.0;
        }
        let fit = |c: f64| self.ckpt.cdf(c).clamp(0.0, 1.0);
        match &self.profile {
            Profile::Exact => fit(x),
            Profile::Scaled(p) => p * fit(x),
            Profile::Lattice(l) => l.eval(x.min(self.r)),
        }
    }

    /// Retry-aware expected saved work `E[W(x)] = (R − x)·S(x)`.
    ///
    /// Defined for `x ∈ [0, R]`; values above `R` are out of domain
    /// (NaN, with the same ulp tolerance as
    /// [`crate::Preemptible::expected_work`]).
    pub fn expected_work(&self, x: f64) -> f64 {
        let tol = 1e-9 * (1.0 + self.r.abs());
        if x.is_nan() || x > self.r + tol {
            return f64::NAN;
        }
        let x = x.min(self.r).max(0.0);
        (self.r - x) * self.success_within(x)
    }

    /// Builds the plan for an explicit lead time `x`.
    pub fn plan_at(&self, x: f64) -> crate::CheckpointPlan {
        crate::CheckpointPlan {
            lead_time: x,
            expected_work: self.expected_work(x),
            success_probability: self.success_within(x).min(1.0),
        }
    }

    /// Maximizes the retry-aware `E[W(X)]` over `X ∈ [a, R]`.
    ///
    /// The search runs to `R` (not `C_max`): with retries, lead times
    /// beyond the single-attempt support still raise the success
    /// probability.
    pub fn optimize(&self) -> crate::CheckpointPlan {
        let _span = resq_obs::span::enter(resq_obs::span_name::SOLVE_PREEMPTIBLE);
        let lo = self.a.min(self.r);
        let e = grid_max(
            |x| self.expected_work(x),
            lo,
            self.r,
            GridSpec {
                points: 512,
                xtol: 1e-10,
            },
        );
        self.plan_at(e.x)
    }

    /// The pessimistic plan `X = C_max` (clamped to `R`; for unbounded
    /// laws this degenerates to `X = R`, which saves nothing). Note that
    /// with unreliable checkpoints this plan is *not* risk-free — that
    /// is precisely the paper-baseline blind spot this model quantifies.
    pub fn pessimistic(&self) -> crate::CheckpointPlan {
        self.plan_at(self.b.min(self.r))
    }
}

/// Irwin–Hall CDF: `P(U₁ + … + U_j ≤ z)` for iid `U(0, 1)` terms.
///
/// Direct alternating-sum evaluation; accurate for the small `j` of any
/// sensible retry budget (`j ≤ 20` enforced by the caller).
fn irwin_hall_cdf(j: u32, z: f64) -> f64 {
    let jf = j as f64;
    if z <= 0.0 {
        return 0.0;
    }
    if z >= jf {
        return 1.0;
    }
    let ln_jfac = ln_factorial(j as u64);
    let mut acc = NeumaierSum::new();
    for i in 0..=(z.floor() as u32) {
        let ln_binom =
            ln_factorial(j as u64) - ln_factorial(i as u64) - ln_factorial((j - i) as u64);
        let term = (ln_binom + jf * (z - i as f64).ln() - ln_jfac).exp();
        acc.add(if i % 2 == 0 { term } else { -term });
    }
    acc.value().clamp(0.0, 1.0)
}

/// Largest attempt budget the closed-form series are evaluated for; the
/// alternating Irwin–Hall sum loses precision beyond this.
pub const MAX_CLOSED_FORM_ATTEMPTS: u32 = 20;

/// Closed-form retry-aware success probability for `C ~ Uniform(a, b)`
/// with per-attempt Bernoulli success `p`:
///
/// ```text
/// S(x) = Σ_{j=1..k} p(1−p)^{j−1} · IH_j((x − (j−1)δ − j·a) / (b − a))
/// ```
///
/// where `IH_j` is the Irwin–Hall CDF of `j` uniform summands. Attempt
/// budgets above [`MAX_CLOSED_FORM_ATTEMPTS`] are truncated there (the
/// dropped mass is `(1−p)^20`).
pub fn uniform_retry_success(a: f64, b: f64, p: f64, attempts: u32, delay: f64, x: f64) -> f64 {
    let width = b - a;
    let mut s = NeumaierSum::new();
    let mut fail_mass = 1.0;
    for j in 1..=attempts.min(MAX_CLOSED_FORM_ATTEMPTS) {
        let jf = j as f64;
        let y = x - (jf - 1.0) * delay;
        let z = (y - jf * a) / width;
        s.add(p * fail_mass * irwin_hall_cdf(j, z));
        fail_mass *= 1.0 - p;
        if fail_mass <= 0.0 {
            break;
        }
    }
    s.value().clamp(0.0, 1.0)
}

/// Closed-form retry-aware success probability for
/// `C ~ Exponential(rate)` with per-attempt Bernoulli success `p`: the
/// `j`-attempt completion law is Erlang, so
///
/// ```text
/// S(x) = Σ_{j=1..k} p(1−p)^{j−1} · P(j, rate·(x − (j−1)δ))
/// ```
///
/// with `P` the regularized lower incomplete gamma function.
pub fn exponential_retry_success(rate: f64, p: f64, attempts: u32, delay: f64, x: f64) -> f64 {
    let mut s = NeumaierSum::new();
    let mut fail_mass = 1.0;
    for j in 1..=attempts {
        let jf = j as f64;
        let y = x - (jf - 1.0) * delay;
        if y > 0.0 {
            s.add(p * fail_mass * gamma_p(jf, rate * y));
        }
        fail_mass *= 1.0 - p;
        if fail_mass <= 1e-16 {
            break;
        }
    }
    s.value().clamp(0.0, 1.0)
}

/// The §4.2 static strategy with unreliable checkpoints: choose the task
/// count `n` before execution, maximizing
/// `E(n) = E[S_n · 1{the retry schedule succeeds within R − S_n}]`, i.e.
/// the fit probability `P(C ≤ R − x)` of [`crate::StaticStrategy`]
/// replaced by the retry-aware `S(R − x)`.
#[derive(Debug, Clone)]
pub struct RetryStaticStrategy<T: IidSum, C: Continuous> {
    tasks: T,
    model: RetryPreemptible<C>,
}

impl<T: IidSum, C: Continuous> RetryStaticStrategy<T, C> {
    /// Builds the strategy; validation as [`crate::StaticStrategy::new`]
    /// plus the reliability/retry parameters.
    pub fn new(
        tasks: T,
        ckpt: C,
        r: f64,
        reliability: CheckpointReliability,
        retry: RetryPolicy,
    ) -> Result<Self, CoreError> {
        let m = tasks.task_mean();
        if !(m > 0.0) || !m.is_finite() {
            return Err(CoreError::InvalidTaskLaw(
                "task mean must be positive and finite",
            ));
        }
        let model = RetryPreemptible::new(ckpt, r, reliability, retry)?;
        Ok(Self { tasks, model })
    }

    /// The underlying retry-aware preemptible model (for its `S(x)`).
    pub fn model(&self) -> &RetryPreemptible<C> {
        &self.model
    }

    /// The continuous relaxation of `E(n)` with the retry-aware success
    /// probability. Returns 0 for `y ≤ 0`.
    pub fn expected_work_relaxed(&self, y: f64) -> f64 {
        if !(y > 0.0) {
            return 0.0;
        }
        let r = self.model.r;
        if self.tasks.is_discrete() {
            let mut acc = NeumaierSum::new();
            let jmax = r.floor() as u64;
            for j in 1..=jmax {
                let jf = j as f64;
                let p = self.model.success_within(r - jf);
                if p > 0.0 {
                    acc.add(jf * p * self.tasks.sum_density(y, jf));
                }
            }
            acc.value()
        } else {
            let (lo, hi) = self.tasks.sum_bounds(y);
            let hi = hi.min(r);
            if hi <= lo {
                return 0.0;
            }
            resq_numerics::adaptive_simpson(
                |x| x * self.model.success_within(r - x) * self.tasks.sum_density(y, x),
                lo,
                hi,
                1e-11,
            )
            .value
        }
    }

    /// `E(n)` for an integer task count.
    pub fn expected_work(&self, n: u64) -> f64 {
        self.expected_work_relaxed(n as f64)
    }

    /// [`RetryStaticStrategy::expected_work_relaxed`] through the
    /// convergence-checked integrator: identical value when quadrature
    /// converges, [`CoreError::Numerics`] when it does not. The discrete
    /// branch is a finite sum and cannot fail.
    pub fn expected_work_relaxed_checked(&self, y: f64) -> Result<f64, CoreError> {
        if !(y > 0.0) {
            return Ok(0.0);
        }
        if self.tasks.is_discrete() {
            return Ok(self.expected_work_relaxed(y));
        }
        let r = self.model.r;
        let (lo, hi) = self.tasks.sum_bounds(y);
        let hi = hi.min(r);
        if hi <= lo {
            return Ok(0.0);
        }
        let q = resq_numerics::adaptive_simpson_checked(
            |x| x * self.model.success_within(r - x) * self.tasks.sum_density(y, x),
            lo,
            hi,
            1e-11,
        )?;
        Ok(q.value)
    }

    /// Maximizes the relaxation over `y` and settles `n_opt` as the
    /// better of `⌊y_opt⌋` / `⌈y_opt⌉`, exactly as
    /// [`crate::StaticStrategy::optimize`]. No extra memoization is
    /// needed: `S` is already served from the precomputed profile. The
    /// reported values go through the convergence-checked integrator, so
    /// quadrature non-convergence surfaces as [`CoreError::Numerics`].
    pub fn optimize(&self) -> Result<StaticPlan, CoreError> {
        let _span = resq_obs::span::enter(resq_obs::span_name::SOLVE_STATIC);
        let y_max = (self.model.r / self.tasks.task_mean()) * 2.0 + 10.0;
        let spec = GridSpec {
            points: 256,
            xtol: 1e-8,
        };
        let e = grid_max(|y| self.expected_work_relaxed(y), 1e-3, y_max, spec);
        let n_hi = (y_max.ceil() as u64).max(2);
        let mut quad_err: Option<CoreError> = None;
        let (n_opt, expected_work) = round_to_better_integer(
            |n| match self.expected_work_relaxed_checked(n as f64) {
                Ok(v) => v,
                Err(err) => {
                    quad_err.get_or_insert(err);
                    f64::NAN
                }
            },
            e.x,
            1,
            n_hi,
        );
        if let Some(err) = quad_err {
            return Err(err);
        }
        Ok(StaticPlan {
            y_opt: e.x,
            relaxed_value: self.expected_work_relaxed_checked(e.x)?,
            n_opt,
            expected_work,
        })
    }
}

/// The §4.3 dynamic strategy with unreliable checkpoints: at every task
/// boundary compare checkpointing now (`w·S(R − w)`) against running one
/// more task, with the retry-aware `S` in both branches.
///
/// "Re-deciding after a failed attempt" is this same comparison applied
/// at the unchanged work level `w`: under
/// [`RetryPolicy::GiveUpAndWorkOn`] the simulator runs at least one more
/// task after a failure and then consults
/// [`RetryDynamicStrategy::should_checkpoint`] again.
#[derive(Debug, Clone)]
pub struct RetryDynamicStrategy<X: TaskDuration, C: Continuous> {
    task: X,
    model: RetryPreemptible<C>,
}

impl<X: TaskDuration, C: Continuous> RetryDynamicStrategy<X, C> {
    /// Builds the strategy; validates the task mean and delegates the
    /// rest to [`RetryPreemptible::new`].
    pub fn new(
        task: X,
        ckpt: C,
        r: f64,
        reliability: CheckpointReliability,
        retry: RetryPolicy,
    ) -> Result<Self, CoreError> {
        let m = task.mean_duration();
        if !(m > 0.0) || !m.is_finite() {
            return Err(CoreError::InvalidTaskLaw(
                "task mean must be positive and finite",
            ));
        }
        let model = RetryPreemptible::new(ckpt, r, reliability, retry)?;
        Ok(Self { task, model })
    }

    /// The underlying retry-aware preemptible model (for its `S(x)`).
    pub fn model(&self) -> &RetryPreemptible<C> {
        &self.model
    }

    /// `E[W_C](w) = w · S(R − w)`: expected saved work when starting the
    /// retry schedule right now with `w` work done.
    pub fn expect_checkpoint_now(&self, w: f64) -> f64 {
        if w <= 0.0 {
            return 0.0;
        }
        w * self.model.success_within(self.model.r - w)
    }

    /// `E[W_{+1}](w)`: expected saved work when running exactly one more
    /// task before checkpointing.
    pub fn expect_one_more(&self, w: f64) -> f64 {
        self.task
            .expected_one_more(w.max(0.0), self.model.r, &|c| self.model.success_within(c))
    }

    /// The decision rule: checkpoint iff `E[W_C] ≥ E[W_{+1}]`.
    pub fn should_checkpoint(&self, w: f64) -> bool {
        self.expect_checkpoint_now(w) >= self.expect_one_more(w)
    }

    /// The retry-aware work threshold `W_int`, computed exactly as
    /// [`crate::DynamicStrategy::threshold`] but with `S` in both
    /// branches. `Ok(None)` if checkpointing never wins before `R`;
    /// [`CoreError::Numerics`] when the `E[W_{+1}]` quadrature fails to
    /// converge, or spends its evaluation budget, at a scan point or
    /// during refinement.
    pub fn threshold(&self) -> Result<Option<f64>, CoreError> {
        let _span = resq_obs::span::enter(resq_obs::span_name::SOLVE_DYNAMIC);
        let r = self.model.r;
        let success = |c: f64| self.model.success_within(c);
        let exact_diff = |w: f64| -> Result<f64, CoreError> {
            let one_more = self.task.expected_one_more_checked(w.max(0.0), r, &success)?;
            Ok(self.expect_checkpoint_now(w) - one_more)
        };
        const POINTS: usize = 96;
        let step = r / POINTS as f64;
        let mut prev_w = 0.0;
        let mut prev_d = exact_diff(0.0)?;
        for i in 1..=POINTS {
            let w = step * i as f64;
            let d = exact_diff(w)?;
            if prev_d < 0.0 && d >= 0.0 {
                return refine_crossing(exact_diff, prev_w, w).map(Some);
            }
            prev_w = w;
            prev_d = d;
        }
        Ok(if prev_d >= 0.0 { Some(0.0) } else { None })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workflow::dynamic::DynamicStrategy;
    use crate::workflow::statics::StaticStrategy;
    use crate::Preemptible;
    use resq_dist::{Exponential, Gamma, Normal, Truncated, Uniform};

    fn fig1a() -> Uniform {
        Uniform::new(1.0, 7.5).unwrap()
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        assert!(CheckpointReliability::PerAttempt { p: 0.0 }.validate().is_err());
        assert!(CheckpointReliability::PerAttempt { p: 1.5 }.validate().is_err());
        assert!(CheckpointReliability::PerAttempt { p: f64::NAN }
            .validate()
            .is_err());
        assert!(CheckpointReliability::DurationHazard { rate: -1.0 }
            .validate()
            .is_err());
        assert!(RetryPolicy::Immediate { max_attempts: 0 }.validate().is_err());
        assert!(RetryPolicy::Backoff {
            max_attempts: 2,
            delay: -0.5
        }
        .validate()
        .is_err());
        assert!(RetryPolicy::GiveUpAndWorkOn.validate().is_ok());
        assert!(RetryPreemptible::new(
            fig1a(),
            10.0,
            CheckpointReliability::PerAttempt { p: 2.0 },
            RetryPolicy::Immediate { max_attempts: 3 },
        )
        .is_err());
    }

    #[test]
    fn reliable_matches_paper_preemptible_exactly() {
        let paper = Preemptible::new(fig1a(), 10.0).unwrap();
        let m = RetryPreemptible::new(
            fig1a(),
            10.0,
            CheckpointReliability::Reliable,
            RetryPolicy::Immediate { max_attempts: 3 },
        )
        .unwrap();
        for i in 0..=40 {
            let x = 1.0 + 6.5 * i as f64 / 40.0;
            assert!((m.expected_work(x) - paper.expected_work(x)).abs() < 1e-14);
        }
        let plan = m.optimize();
        assert!((plan.lead_time - 5.5).abs() < 1e-6);
        assert!((plan.expected_work - 3.1153846153846154).abs() < 1e-9);
    }

    #[test]
    fn single_attempt_scales_the_cdf() {
        let m = RetryPreemptible::new(
            fig1a(),
            10.0,
            CheckpointReliability::PerAttempt { p: 0.7 },
            RetryPolicy::GiveUpAndWorkOn,
        )
        .unwrap();
        use resq_dist::Continuous;
        for i in 0..=20 {
            let x = 0.5 * i as f64;
            assert!((m.success_within(x) - 0.7 * fig1a().cdf(x).clamp(0.0, 1.0)).abs() < 1e-15);
        }
    }

    #[test]
    fn lattice_matches_uniform_closed_form() {
        for &(p, attempts, delay) in &[(0.7, 3u32, 0.0), (0.5, 4, 0.25), (0.9, 2, 1.0)] {
            let retry = if delay > 0.0 {
                RetryPolicy::Backoff {
                    max_attempts: attempts,
                    delay,
                }
            } else {
                RetryPolicy::Immediate {
                    max_attempts: attempts,
                }
            };
            let m = RetryPreemptible::new(
                fig1a(),
                10.0,
                CheckpointReliability::PerAttempt { p },
                retry,
            )
            .unwrap();
            for i in 0..=50 {
                let x = 10.0 * i as f64 / 50.0;
                let exact = uniform_retry_success(1.0, 7.5, p, attempts, delay, x);
                assert!(
                    (m.success_within(x) - exact).abs() < 2e-3,
                    "p={p} k={attempts} d={delay} x={x}: lattice {} vs exact {exact}",
                    m.success_within(x)
                );
            }
        }
    }

    #[test]
    fn lattice_matches_exponential_closed_form() {
        let rate = 0.5;
        let (p, attempts, delay) = (0.6, 3u32, 0.5);
        let m = RetryPreemptible::new(
            Exponential::new(rate).unwrap(),
            12.0,
            CheckpointReliability::PerAttempt { p },
            RetryPolicy::Backoff {
                max_attempts: attempts,
                delay,
            },
        )
        .unwrap();
        for i in 0..=48 {
            let x = 12.0 * i as f64 / 48.0;
            let exact = exponential_retry_success(rate, p, attempts, delay, x);
            assert!(
                (m.success_within(x) - exact).abs() < 2e-3,
                "x={x}: lattice {} vs exact {exact}",
                m.success_within(x)
            );
        }
    }

    #[test]
    fn success_profile_is_monotone_in_x_and_in_attempts() {
        let mk = |k| {
            RetryPreemptible::new(
                fig1a(),
                10.0,
                CheckpointReliability::PerAttempt { p: 0.5 },
                RetryPolicy::Immediate { max_attempts: k },
            )
            .unwrap()
        };
        let one = mk(1);
        let three = mk(3);
        let mut prev = 0.0;
        for i in 0..=100 {
            let x = 10.0 * i as f64 / 100.0;
            let s = three.success_within(x);
            assert!(s >= prev - 1e-12);
            assert!(s + 1e-12 >= one.success_within(x));
            assert!((0.0..=1.0).contains(&s));
            prev = s;
        }
    }

    #[test]
    fn duration_hazard_lattice_is_sane() {
        // rate = 0: identical to PerAttempt p = 1 (i.e. the plain CDF).
        let m0 = RetryPreemptible::new(
            fig1a(),
            10.0,
            CheckpointReliability::DurationHazard { rate: 0.0 },
            RetryPolicy::Immediate { max_attempts: 3 },
        )
        .unwrap();
        use resq_dist::Continuous;
        for i in 0..=20 {
            let x = 0.5 * i as f64;
            assert!((m0.success_within(x) - fig1a().cdf(x).clamp(0.0, 1.0)).abs() < 5e-3);
        }
        // Positive rate: success is strictly harder than reliable.
        let m = RetryPreemptible::new(
            fig1a(),
            10.0,
            CheckpointReliability::DurationHazard { rate: 0.2 },
            RetryPolicy::Immediate { max_attempts: 3 },
        )
        .unwrap();
        assert!(m.success_within(7.5) < 1.0);
        assert!(m.success_within(7.5) > m.success_within(4.0));
    }

    #[test]
    fn optimum_dominates_naive_and_pessimistic_baselines() {
        for &p in &[0.5, 0.7, 0.9] {
            let m = RetryPreemptible::new(
                fig1a(),
                10.0,
                CheckpointReliability::PerAttempt { p },
                RetryPolicy::Immediate { max_attempts: 3 },
            )
            .unwrap();
            let plan = m.optimize();
            // Failure-aware optimum waits at least as long as the
            // failure-free X_opt = 5.5, and dominates both baselines.
            assert!(plan.lead_time >= 5.5 - 1e-6, "p={p}: {}", plan.lead_time);
            assert!(plan.expected_work >= m.expected_work(5.5) - 1e-12);
            assert!(plan.expected_work >= m.expected_work(7.5) - 1e-12);
            assert!(plan.expected_work >= m.pessimistic().expected_work - 1e-12);
        }
    }

    #[test]
    fn closed_forms_reduce_to_known_special_cases() {
        // One attempt, p = 1: Uniform CDF and Exponential CDF.
        for i in 0..=20 {
            let x = 0.5 * i as f64;
            let u = ((x - 1.0) / 6.5).clamp(0.0, 1.0);
            assert!((uniform_retry_success(1.0, 7.5, 1.0, 1, 0.0, x) - u).abs() < 1e-12);
            let e = 1.0 - (-0.5 * x).exp();
            assert!((exponential_retry_success(0.5, 1.0, 1, 0.0, x) - e).abs() < 1e-12);
        }
        // Irwin–Hall j = 2 at the midpoint is exactly 1/2.
        assert!((irwin_hall_cdf(2, 1.0) - 0.5).abs() < 1e-12);
        assert_eq!(irwin_hall_cdf(3, -0.5), 0.0);
        assert_eq!(irwin_hall_cdf(3, 3.5), 1.0);
    }

    fn ckpt() -> Truncated<Normal> {
        Truncated::above(Normal::new(1.0, 0.3).unwrap(), 0.0).unwrap()
    }

    #[test]
    fn retry_static_with_reliable_matches_paper_static() {
        let tasks = Gamma::new(2.0, 0.5).unwrap();
        let paper = StaticStrategy::new(tasks, ckpt(), 12.0).unwrap();
        let aware = RetryStaticStrategy::new(
            tasks,
            ckpt(),
            12.0,
            CheckpointReliability::Reliable,
            RetryPolicy::Immediate { max_attempts: 3 },
        )
        .unwrap();
        let a = paper.optimize().unwrap();
        let b = aware.optimize().unwrap();
        assert_eq!(a.n_opt, b.n_opt);
        assert!((a.expected_work - b.expected_work).abs() < 1e-6);
    }

    #[test]
    fn retry_static_unreliable_checkpoints_cost_work() {
        let tasks = Gamma::new(2.0, 0.5).unwrap();
        let mk = |rel| {
            RetryStaticStrategy::new(
                tasks,
                ckpt(),
                12.0,
                rel,
                RetryPolicy::Immediate { max_attempts: 3 },
            )
            .unwrap()
            .optimize()
            .unwrap()
        };
        let reliable = mk(CheckpointReliability::Reliable);
        let flaky = mk(CheckpointReliability::PerAttempt { p: 0.6 });
        assert!(flaky.expected_work < reliable.expected_work);
        assert!(flaky.expected_work > 0.0);
    }

    #[test]
    fn retry_dynamic_with_reliable_matches_paper_dynamic() {
        let task = Normal::new(1.0, 0.2).unwrap();
        let paper = DynamicStrategy::new(task, ckpt(), 10.0).unwrap();
        let aware = RetryDynamicStrategy::new(
            task,
            ckpt(),
            10.0,
            CheckpointReliability::Reliable,
            RetryPolicy::Immediate { max_attempts: 3 },
        )
        .unwrap();
        match (paper.threshold().unwrap(), aware.threshold().unwrap()) {
            (Some(a), Some(b)) => assert!((a - b).abs() < 1e-6, "{a} vs {b}"),
            (a, b) => panic!("threshold mismatch: {a:?} vs {b:?}"),
        }
    }

    #[test]
    fn retry_dynamic_flaky_checkpoints_raise_the_threshold_inputs() {
        let task = Normal::new(1.0, 0.2).unwrap();
        let aware = RetryDynamicStrategy::new(
            task,
            ckpt(),
            10.0,
            CheckpointReliability::PerAttempt { p: 0.5 },
            RetryPolicy::Immediate { max_attempts: 2 },
        )
        .unwrap();
        // The now-branch is scaled down by S ≤ 1 everywhere.
        for w in [2.0, 5.0, 8.0] {
            assert!(aware.expect_checkpoint_now(w) <= w);
        }
        // A threshold still exists for this comfortable configuration.
        assert!(aware.threshold().unwrap().is_some());
    }
}
