//! Per-task duration abstraction for the dynamic strategy.
//!
//! §4.3 needs, at each decision point with work `W_n = w` done, the
//! quantity `E[W_{+1}] = ∫_0^{R−w} (x + w)·P(C ≤ R−w−x)·f_X(x) dx`
//! (or the matching sum for integer-valued Poisson tasks). The
//! [`TaskDuration`] trait provides exactly that expectation plus
//! sampling, implemented:
//!
//! * for **every continuous law** via adaptive quadrature (a blanket
//!   impl — this covers the paper's truncated Normal and Gamma
//!   instantiations, and anything else a user plugs in), in `u = x^k`
//!   for the laws whose density is unbounded at 0 (Gamma and Weibull
//!   with shape `k < 1`, see [`PowerSubstitution`]), and
//! * for **Poisson** via the paper's finite sum.

use rand::RngCore;
use resq_dist::{Continuous, Discrete, Distribution, Gamma, Poisson, Sample, Weibull};
use resq_numerics::{adaptive_simpson, GaussLegendre, LatticeCache, NeumaierSum, QuadResult};
use resq_specfun::ln_gamma;

/// Relative agreement demanded of the two Gauss–Legendre resolutions
/// before [`TaskDuration::expected_one_more_fast`] trusts them (see
/// `StaticStrategy::GL_SEARCH_TOL` for the matching static-side budget).
const GL_FAST_TOL: f64 = 1e-6;

/// A task-duration law usable by the dynamic strategy and the simulator.
pub trait TaskDuration {
    /// `E[(X + w)·P(C ≤ budget − X)·1[X ≤ budget]]` where
    /// `budget = R − w` — the expected work saved when running exactly one
    /// more task and then checkpointing. `ckpt_cdf` is `c ↦ P(C ≤ c)`.
    fn expected_one_more(&self, w: f64, r: f64, ckpt_cdf: &dyn Fn(f64) -> f64) -> f64;

    /// [`TaskDuration::expected_one_more`] through the
    /// convergence-checked integrator: identical value when quadrature
    /// converges, a typed error when it does not. The default forwards
    /// to the infallible path (correct for finite-sum laws like
    /// Poisson); continuous laws override it.
    fn expected_one_more_checked(
        &self,
        w: f64,
        r: f64,
        ckpt_cdf: &dyn Fn(f64) -> f64,
    ) -> Result<f64, crate::error::CoreError> {
        Ok(self.expected_one_more(w, r, ckpt_cdf))
    }

    /// Fast approximation of [`TaskDuration::expected_one_more`]: the
    /// checkpoint CDF served from a precomputed lattice over `[0, R]`
    /// and fixed-order Gauss–Legendre quadrature with a two-resolution
    /// agreement check. `feature` is the narrowest integrand feature the
    /// caller knows about (the checkpoint law's CDF-shoulder width,
    /// already min-combined with [`TaskDuration::fast_kernel_feature`])
    /// and sizes the quadrature panels so the check resolutions sample
    /// that feature instead of aliasing it. Returns `None` when the law
    /// has no fast kernel or the resolutions disagree — callers fall
    /// back to the exact path. This is a *search/bracketing* accelerator
    /// only; decisions and reported values must come from the exact path
    /// (see `DynamicStrategy::threshold_with`).
    fn expected_one_more_fast(
        &self,
        _w: f64,
        _r: f64,
        _fit: &LatticeCache,
        _gl: &GaussLegendre,
        _feature: f64,
    ) -> Option<f64> {
        None
    }

    /// Width of this law's own density bulk (central 99.8% quantile
    /// range) — the feature the fast kernel's quadrature must resolve on
    /// top of whatever the caller knows about the checkpoint law.
    /// `None` for laws without a fast kernel; hoisted once per threshold
    /// scan rather than recomputed at every scan point.
    fn fast_kernel_feature(&self) -> Option<f64> {
        None
    }

    /// The `u = x^k` substitution when this law's density is unbounded
    /// at 0 like `x^(k−1)`, `k < 1`. The `E[W_{+1}]` integrators then
    /// integrate a smooth density over `[0, (R − w)^k]` instead of
    /// making adaptive quadrature chase the singularity. `None` (the
    /// default) keeps the integral in `x`.
    fn power_substitution(&self) -> Option<PowerSubstitution> {
        None
    }

    /// Mean task duration.
    fn mean_duration(&self) -> f64;

    /// Draws one task duration.
    fn draw(&self, rng: &mut dyn RngCore) -> f64;

    /// Fills `out` with task durations — the batched counterpart of
    /// [`TaskDuration::draw`], forwarded to `Sample::sample_batch` by the
    /// law impls so simulators can draw a trial's tasks in one block.
    /// The default loops [`TaskDuration::draw`], which is draw-order
    /// preserving; the same caveat as `Sample::sample_batch` applies to
    /// laws with specialized batch kernels.
    fn draw_batch(&self, rng: &mut dyn RngCore, out: &mut [f64]) {
        for slot in out.iter_mut() {
            *slot = self.draw(rng);
        }
    }

    /// Monomorphized counterpart of [`TaskDuration::draw_batch`]: same
    /// distribution, same RNG stream consumption, but generic over the
    /// generator so the Monte-Carlo hot path (which holds a concrete
    /// per-trial RNG) gets a fully inlined sampling kernel instead of a
    /// virtual call per block. Excluded from the vtable via
    /// `Self: Sized`, keeping the trait object-safe; the default
    /// delegates to [`TaskDuration::draw_batch`], and law impls forward
    /// to `Sample::sample_batch_mono`.
    #[inline]
    fn draw_batch_mono<R: RngCore + ?Sized>(&self, rng: &mut R, out: &mut [f64])
    where
        Self: Sized,
    {
        let mut rng = rng;
        self.draw_batch(&mut rng, out)
    }
}

/// Absolute tolerance of the adaptive `E[W_{+1}]` quadrature.
pub const ONE_MORE_TOL: f64 = 1e-11;

/// The substitution `u = x^k` for a task density that grows like
/// `x^(k−1)` at 0 (Gamma or Weibull with shape `k < 1`). With
/// `x = u^{1/k}` the Jacobian `dx/du = u^{1/k − 1}/k` cancels that factor
/// exactly, leaving a density in `u` that is smooth and finite at 0:
///
/// * Gamma(k, θ): `e^{−x/θ} / (k·Γ(k)·θ^k)`;
/// * Weibull(k, λ): `e^{−u/λ^k} / λ^k`.
///
/// Both are `exp(ln_norm − x_rate·x − u_rate·u)`, which is how this type
/// stores them (docs/THEORY.md has the derivation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerSubstitution {
    k: f64,
    inv_k: f64,
    ln_norm: f64,
    x_rate: f64,
    u_rate: f64,
}

impl PowerSubstitution {
    /// The substitution for Gamma(k, θ); `None` unless `k < 1`.
    pub fn gamma(law: &Gamma) -> Option<Self> {
        let (k, theta) = (law.shape(), law.scale());
        (k < 1.0).then(|| Self {
            k,
            inv_k: 1.0 / k,
            ln_norm: -(k.ln() + ln_gamma(k) + k * theta.ln()),
            x_rate: 1.0 / theta,
            u_rate: 0.0,
        })
    }

    /// The substitution for Weibull(k, λ); `None` unless `k < 1`.
    pub fn weibull(law: &Weibull) -> Option<Self> {
        let (k, lambda) = (law.shape(), law.scale());
        (k < 1.0).then(|| Self {
            k,
            inv_k: 1.0 / k,
            ln_norm: -k * lambda.ln(),
            x_rate: 0.0,
            u_rate: lambda.powf(-k),
        })
    }

    /// `u = x^k`.
    #[inline]
    fn u_of(&self, x: f64) -> f64 {
        x.powf(self.k)
    }

    /// `x = u^{1/k}`.
    #[inline]
    fn x_of(&self, u: f64) -> f64 {
        u.powf(self.inv_k)
    }

    /// The density of `u` at `u = x^k`: `f_X(x)·dx/du`, evaluated in its
    /// closed form (both coordinates are passed because each law needs
    /// one of them).
    #[inline]
    fn density(&self, x: f64, u: f64) -> f64 {
        (self.ln_norm - self.x_rate * x - self.u_rate * u).exp()
    }
}

/// The §4.3 integral `E[W_{+1}] = ∫_0^{R−w} (x + w)·P(C ≤ R−w−x)·f_X(x) dx`
/// on its integration range: in `x` itself, or in `u = x^k` when the
/// task law supplies a [`PowerSubstitution`]. The adaptive, checked and
/// fast integrators all integrate through this, so they agree on the
/// integrand and the range.
struct OneMore<'a, D> {
    task: &'a D,
    sub: Option<PowerSubstitution>,
    w: f64,
    /// `R − w`, the time left for the task and the checkpoint.
    remaining: f64,
    /// Integration range, in `x` or in `u`.
    lo: f64,
    hi: f64,
}

impl<'a, D: Continuous + TaskDuration> OneMore<'a, D> {
    /// `None` when the integral is empty: no time left after `w`, or a
    /// task support outside `[0, R − w]`.
    fn new(task: &'a D, w: f64, r: f64) -> Option<Self> {
        let remaining = r - w;
        if remaining <= 0.0 {
            return None;
        }
        let (lo, hi) = task.support();
        let lo = lo.max(0.0);
        let hi = hi.min(remaining);
        if hi <= lo {
            return None;
        }
        let sub = task.power_substitution();
        let (lo, hi) = match sub {
            Some(s) => (s.u_of(lo), s.u_of(hi)),
            None => (lo, hi),
        };
        Some(Self {
            task,
            sub,
            w,
            remaining,
            lo,
            hi,
        })
    }

    /// The integrand at `t`, a point of the integration range, with the
    /// checkpoint CDF `ckpt_cdf`.
    #[inline]
    fn at(&self, t: f64, ckpt_cdf: impl Fn(f64) -> f64) -> f64 {
        let x = match self.sub {
            Some(s) => s.x_of(t),
            None => t,
        };
        let p = ckpt_cdf(self.remaining - x);
        if p <= 0.0 {
            return 0.0;
        }
        let density = match self.sub {
            Some(s) => s.density(x, t),
            None => self.task.pdf(x),
        };
        let v = (x + self.w) * p * density;
        // Integrable endpoint singularities of laws without a
        // substitution (a density infinite at x = 0) must not poison
        // the quadrature.
        if v.is_finite() {
            v
        } else {
            0.0
        }
    }

    /// The width, in the integration variable, of the narrowest image of
    /// an `x`-interval of width `feature` inside the range. `u = x^k` is
    /// concave for `k < 1`, so that image is the one at the top.
    fn feature(&self, feature: f64) -> f64 {
        match self.sub {
            Some(s) => self.hi - s.u_of((s.x_of(self.hi) - feature).max(0.0)),
            None => feature,
        }
    }
}

/// `E[W_{+1}]` by adaptive quadrature against a continuous task law,
/// with the quadrature's error estimate and evaluation count (a zero
/// result with no evaluations when the integral is empty).
pub fn continuous_one_more_quad<D: Continuous + TaskDuration>(
    task: &D,
    w: f64,
    r: f64,
    ckpt_cdf: &dyn Fn(f64) -> f64,
) -> QuadResult {
    match OneMore::new(task, w, r) {
        Some(q) => adaptive_simpson(|t| q.at(t, ckpt_cdf), q.lo, q.hi, ONE_MORE_TOL),
        None => QuadResult {
            value: 0.0,
            error: 0.0,
            evals: 0,
        },
    }
}

/// `E[W_{+1}]` by quadrature against any continuous task density — the
/// §4.3 integral `∫_0^{R−w} (x + w)·P(C ≤ R−w−x)·f_X(x) dx`, taken in
/// `u = x^k` when the law has a [`PowerSubstitution`].
pub fn continuous_expected_one_more<D: Continuous + TaskDuration>(
    task: &D,
    w: f64,
    r: f64,
    ckpt_cdf: &dyn Fn(f64) -> f64,
) -> f64 {
    continuous_one_more_quad(task, w, r, ckpt_cdf).value
}

/// [`continuous_expected_one_more`] through the convergence check of
/// [`QuadResult::checked`]: the same quadrature — bit-identical value
/// when it converges — but non-convergence or a spent evaluation budget
/// surfaces as a typed error instead of a silently wrong number.
pub fn continuous_expected_one_more_checked<D: Continuous + TaskDuration>(
    task: &D,
    w: f64,
    r: f64,
    ckpt_cdf: &dyn Fn(f64) -> f64,
) -> Result<f64, resq_numerics::NumericsError> {
    Ok(continuous_one_more_quad(task, w, r, ckpt_cdf)
        .checked(ONE_MORE_TOL)?
        .value)
}

/// Fast `E[W_{+1}]` for a continuous law: lattice-served checkpoint CDF
/// plus fixed-order Gauss–Legendre at two resolutions, panels sized so a
/// `feature`-wide structure (in `x`, mapped onto the integration range)
/// spans at least one segment (`segments_for_window`). `None` when the
/// resolutions disagree beyond `GL_FAST_TOL` (callers use the exact path
/// for that point).
pub fn continuous_expected_one_more_fast<D: Continuous + TaskDuration>(
    task: &D,
    w: f64,
    r: f64,
    fit: &LatticeCache,
    gl: &GaussLegendre,
    feature: f64,
) -> Option<f64> {
    let Some(q) = OneMore::new(task, w, r) else {
        return Some(0.0);
    };
    let segments = crate::solve_cache::segments_for_window(q.hi - q.lo, q.feature(feature));
    let mut integrand = |t: f64| q.at(t, |c| fit.eval(c));
    let coarse = gl.integrate_composite(&mut integrand, q.lo, q.hi, segments);
    let fine = gl.integrate_composite(&mut integrand, q.lo, q.hi, 2 * segments);
    let err = (fine - coarse).abs();
    if fine.is_finite() && err <= GL_FAST_TOL * (1.0 + fine.abs()) {
        Some(fine)
    } else {
        None
    }
}

/// Implements [`TaskDuration`] for a continuous law through
/// [`continuous_expected_one_more`]. (A blanket impl over
/// `D: Continuous + Sample` would conflict with the dedicated Poisson
/// impl under coherence rules, so the continuous laws are enumerated.)
/// A law listed as `Law => constructor` also supplies its
/// [`PowerSubstitution`] through `constructor(&law)`.
macro_rules! impl_continuous_task {
    ($($ty:ty $(=> $sub:path)?),+ $(,)?) => {$(
        impl TaskDuration for $ty {
            fn expected_one_more(
                &self,
                w: f64,
                r: f64,
                ckpt_cdf: &dyn Fn(f64) -> f64,
            ) -> f64 {
                continuous_expected_one_more(self, w, r, ckpt_cdf)
            }
            fn expected_one_more_checked(
                &self,
                w: f64,
                r: f64,
                ckpt_cdf: &dyn Fn(f64) -> f64,
            ) -> Result<f64, crate::error::CoreError> {
                Ok(continuous_expected_one_more_checked(self, w, r, ckpt_cdf)?)
            }
            fn expected_one_more_fast(
                &self,
                w: f64,
                r: f64,
                fit: &LatticeCache,
                gl: &GaussLegendre,
                feature: f64,
            ) -> Option<f64> {
                continuous_expected_one_more_fast(self, w, r, fit, gl, feature)
            }
            fn fast_kernel_feature(&self) -> Option<f64> {
                Some(self.quantile(0.999) - self.quantile(0.001))
            }
            $(
                fn power_substitution(&self) -> Option<PowerSubstitution> {
                    $sub(self)
                }
            )?
            fn mean_duration(&self) -> f64 {
                self.mean()
            }
            fn draw(&self, rng: &mut dyn RngCore) -> f64 {
                self.sample(rng)
            }
            fn draw_batch(&self, rng: &mut dyn RngCore, out: &mut [f64]) {
                self.sample_batch(rng, out)
            }
            #[inline]
            fn draw_batch_mono<R: RngCore + ?Sized>(&self, rng: &mut R, out: &mut [f64]) {
                self.sample_batch_mono(rng, out)
            }
        }
    )+};
}

impl_continuous_task!(
    resq_dist::Uniform,
    resq_dist::Exponential,
    resq_dist::Normal,
    resq_dist::LogNormal,
    Gamma => PowerSubstitution::gamma,
    Weibull => PowerSubstitution::weibull,
    resq_dist::Constant,
);

impl<D: Continuous + Sample> TaskDuration for resq_dist::Truncated<D> {
    fn expected_one_more(&self, w: f64, r: f64, ckpt_cdf: &dyn Fn(f64) -> f64) -> f64 {
        continuous_expected_one_more(self, w, r, ckpt_cdf)
    }

    fn expected_one_more_checked(
        &self,
        w: f64,
        r: f64,
        ckpt_cdf: &dyn Fn(f64) -> f64,
    ) -> Result<f64, crate::error::CoreError> {
        Ok(continuous_expected_one_more_checked(self, w, r, ckpt_cdf)?)
    }

    fn expected_one_more_fast(
        &self,
        w: f64,
        r: f64,
        fit: &LatticeCache,
        gl: &GaussLegendre,
        feature: f64,
    ) -> Option<f64> {
        continuous_expected_one_more_fast(self, w, r, fit, gl, feature)
    }

    fn fast_kernel_feature(&self) -> Option<f64> {
        Some(self.quantile(0.999) - self.quantile(0.001))
    }

    fn mean_duration(&self) -> f64 {
        self.mean()
    }

    fn draw(&self, rng: &mut dyn RngCore) -> f64 {
        self.sample(rng)
    }

    fn draw_batch(&self, rng: &mut dyn RngCore, out: &mut [f64]) {
        self.sample_batch(rng, out)
    }

    #[inline]
    fn draw_batch_mono<R: RngCore + ?Sized>(&self, rng: &mut R, out: &mut [f64]) {
        self.sample_batch_mono(rng, out)
    }
}

impl TaskDuration for Poisson {
    fn expected_one_more(&self, w: f64, r: f64, ckpt_cdf: &dyn Fn(f64) -> f64) -> f64 {
        let budget = r - w;
        if budget <= 0.0 {
            return 0.0;
        }
        let jmax = budget.floor() as u64;
        let mut acc = NeumaierSum::new();
        for j in 0..=jmax {
            let jf = j as f64;
            let p = ckpt_cdf(budget - jf);
            if p > 0.0 {
                acc.add((jf + w) * p * self.pmf(j));
            }
        }
        acc.value()
    }

    fn expected_one_more_fast(
        &self,
        w: f64,
        r: f64,
        fit: &LatticeCache,
        _gl: &GaussLegendre,
        _feature: f64,
    ) -> Option<f64> {
        // The finite sum needs no quadrature — the win is serving the
        // checkpoint CDF from the lattice instead of the full tail
        // computation at every integer point.
        let budget = r - w;
        if budget <= 0.0 {
            return Some(0.0);
        }
        let jmax = budget.floor() as u64;
        let mut acc = NeumaierSum::new();
        for j in 0..=jmax {
            let jf = j as f64;
            let p = fit.eval(budget - jf);
            if p > 0.0 {
                acc.add((jf + w) * p * self.pmf(j));
            }
        }
        Some(acc.value())
    }

    fn mean_duration(&self) -> f64 {
        self.mean()
    }

    fn draw(&self, rng: &mut dyn RngCore) -> f64 {
        self.sample(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resq_dist::{Normal, Truncated, Xoshiro256pp};

    fn ckpt_cdf(mu_c: f64, sigma_c: f64) -> impl Fn(f64) -> f64 {
        let t = Truncated::above(Normal::new(mu_c, sigma_c).unwrap(), 0.0).unwrap();
        move |c: f64| if c <= 0.0 { 0.0 } else { t.cdf(c) }
    }

    #[test]
    fn zero_budget_returns_zero() {
        let task = Truncated::above(Normal::new(3.0, 0.5).unwrap(), 0.0).unwrap();
        let g = ckpt_cdf(5.0, 0.4);
        assert_eq!(task.expected_one_more(29.0, 29.0, &g), 0.0);
        assert_eq!(task.expected_one_more(30.0, 29.0, &g), 0.0);
    }

    #[test]
    fn far_from_deadline_equals_w_plus_mean() {
        // With a huge budget, the checkpoint always fits:
        // E[W_{+1}] → w + E[X].
        let task = Truncated::above(Normal::new(3.0, 0.5).unwrap(), 0.0).unwrap();
        let g = ckpt_cdf(5.0, 0.4);
        let v = task.expected_one_more(10.0, 1000.0, &g);
        assert!((v - 13.0).abs() < 1e-6, "got {v}");
    }

    #[test]
    fn poisson_far_from_deadline() {
        let task = Poisson::new(3.0).unwrap();
        let g = ckpt_cdf(5.0, 0.4);
        let v = task.expected_one_more(10.0, 1000.0, &g);
        assert!((v - 13.0).abs() < 1e-9, "got {v}");
    }

    #[test]
    fn tight_budget_shrinks_expectation() {
        let task = Truncated::above(Normal::new(3.0, 0.5).unwrap(), 0.0).unwrap();
        let g = ckpt_cdf(5.0, 0.4);
        // As w approaches R, the one-more-task expectation collapses.
        let loose = task.expected_one_more(15.0, 29.0, &g);
        let tight = task.expected_one_more(25.0, 29.0, &g);
        assert!(loose > 15.0, "loose {loose}");
        assert!(tight < 1.0, "tight {tight}");
    }

    #[test]
    fn checked_one_more_is_bit_identical_to_reference() {
        let task = Truncated::above(Normal::new(3.0, 0.5).unwrap(), 0.0).unwrap();
        let g = ckpt_cdf(5.0, 0.4);
        for k in 0..29 {
            let w = k as f64;
            assert_eq!(
                task.expected_one_more_checked(w, 29.0, &g).unwrap().to_bits(),
                task.expected_one_more(w, 29.0, &g).to_bits(),
                "w = {w}"
            );
        }
    }

    #[test]
    fn fast_one_more_tracks_exact() {
        let law = Truncated::above(Normal::new(5.0, 0.4).unwrap(), 0.0).unwrap();
        let fit = LatticeCache::build(
            |c| if c <= 0.0 { 0.0 } else { law.cdf(c) },
            0.0,
            29.0,
            4096,
        );
        let gl = GaussLegendre::new(20);
        let g = ckpt_cdf(5.0, 0.4);

        let task = Truncated::above(Normal::new(3.0, 0.5).unwrap(), 0.0).unwrap();
        let poisson = Poisson::new(3.0).unwrap();
        let feature = (law.quantile(0.999) - law.quantile(0.001))
            .min(task.fast_kernel_feature().expect("continuous law has a fast kernel"));
        for k in 0..58 {
            let w = 0.5 * k as f64;
            if let Some(fast) = task.expected_one_more_fast(w, 29.0, &fit, &gl, feature) {
                let exact = task.expected_one_more(w, 29.0, &g);
                assert!((fast - exact).abs() < 5e-4, "w = {w}: {fast} vs {exact}");
            }
            let pfast = poisson
                .expected_one_more_fast(w, 29.0, &fit, &gl, feature)
                .expect("finite sum always available");
            let pexact = poisson.expected_one_more(w, 29.0, &g);
            assert!((pfast - pexact).abs() < 5e-4, "w = {w}: {pfast} vs {pexact}");
        }
    }

    #[test]
    fn power_substitution_densities_match_the_laws() {
        // g(u) = f_X(x)·dx/du with x = u^{1/k}, dx/du = x^{1−k}/k.
        let gamma = Gamma::new(0.7, 0.5).unwrap();
        let weibull = Weibull::new(0.7, 0.5).unwrap();
        for (pdf, sub) in [
            (&gamma as &dyn Continuous, gamma.power_substitution().unwrap()),
            (&weibull, weibull.power_substitution().unwrap()),
        ] {
            for x in [1e-3, 0.1, 0.5, 2.0] {
                let u = sub.u_of(x);
                let want = pdf.pdf(x) * x.powf(1.0 - 0.7) / 0.7;
                let got = sub.density(x, u);
                assert!(((got - want) / want).abs() < 1e-12, "x = {x}: {got} vs {want}");
                assert!((sub.x_of(u) - x).abs() < 1e-14 * x.max(1.0));
            }
        }
    }

    #[test]
    fn draw_respects_law() {
        let task = Truncated::above(Normal::new(3.0, 0.5).unwrap(), 0.0).unwrap();
        let mut rng = Xoshiro256pp::new(55);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| task.draw(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.02, "mean {mean}");
        assert!((task.mean_duration() - 3.0).abs() < 1e-6);
    }
}
