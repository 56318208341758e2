//! `E[W_{+1}]` for task laws whose density is unbounded at 0 (Gamma and
//! Weibull with shape `k < 1`), integrated in `u = x^k`: agreement with
//! the `x`-space integral, a bounded cost for the dynamic threshold, and
//! bit-for-bit unchanged answers for every other law.

use resq::core::workflow::task_law::{
    continuous_expected_one_more_fast, continuous_one_more_quad, ONE_MORE_TOL,
};
use resq::dist::{
    Continuous, Distribution, Exponential, Gamma, LogNormal, Normal, Sample, Truncated,
    Uniform, Weibull,
};
use resq::numerics::{
    adaptive_simpson, GaussLegendre, LatticeCache, NumericsError, GL_CHECK_SEGMENTS,
    GL_MAX_SEGMENTS, QUAD_EVAL_BUDGET,
};
use resq::{CoreError, DynamicStrategy, TaskDuration};
use std::cell::Cell;

fn ckpt(mu: f64, sigma: f64) -> Truncated<Normal> {
    Truncated::above(Normal::new(mu, sigma).unwrap(), 0.0).unwrap()
}

fn fit_probability(law: &Truncated<Normal>) -> impl Fn(f64) -> f64 + '_ {
    move |c: f64| if c <= 0.0 { 0.0 } else { law.cdf(c) }
}

/// The `E[W_{+1}]` integrand in `x`, exactly as the integrators evaluate
/// it for a law without a substitution.
fn x_integrand<'a>(
    task: &'a dyn Continuous,
    w: f64,
    budget: f64,
    cdf: &'a dyn Fn(f64) -> f64,
) -> impl Fn(f64) -> f64 + 'a {
    move |x: f64| {
        let p = cdf(budget - x);
        if p <= 0.0 {
            return 0.0;
        }
        let v = (x + w) * p * task.pdf(x);
        if v.is_finite() {
            v
        } else {
            0.0
        }
    }
}

/// `D` without its substitution: the integrators take the `x`-space
/// path, as they did for every law before the substitution existed.
struct InX<D>(D);

impl<D: Distribution> Distribution for InX<D> {
    fn mean(&self) -> f64 {
        self.0.mean()
    }
    fn variance(&self) -> f64 {
        self.0.variance()
    }
}

impl<D: Continuous> Continuous for InX<D> {
    fn pdf(&self, x: f64) -> f64 {
        self.0.pdf(x)
    }
    fn cdf(&self, x: f64) -> f64 {
        self.0.cdf(x)
    }
    fn quantile(&self, p: f64) -> f64 {
        self.0.quantile(p)
    }
    fn support(&self) -> (f64, f64) {
        self.0.support()
    }
}

impl<D: Continuous + Sample> TaskDuration for InX<D> {
    fn expected_one_more(&self, w: f64, r: f64, ckpt_cdf: &dyn Fn(f64) -> f64) -> f64 {
        continuous_one_more_quad(self, w, r, ckpt_cdf).value
    }
    fn expected_one_more_checked(
        &self,
        w: f64,
        r: f64,
        ckpt_cdf: &dyn Fn(f64) -> f64,
    ) -> Result<f64, CoreError> {
        Ok(continuous_one_more_quad(self, w, r, ckpt_cdf)
            .checked(ONE_MORE_TOL)?
            .value)
    }
    fn mean_duration(&self) -> f64 {
        self.0.mean()
    }
    fn draw(&self, rng: &mut dyn rand::RngCore) -> f64 {
        self.0.sample(rng)
    }
}

/// The `x`-space integral over dyadic pieces `[b/2^{j+1}, b/2^j]`: on
/// each piece the `x^(k−1)` factor varies by at most `2^{1−k}`, so
/// adaptive Simpson converges quickly on every piece, whatever `k`. The
/// mass below `b/2^J` is `≈ w·P(C ≤ b)·F_X(b/2^J)`.
fn graded_x_reference(task: &Gamma, w: f64, r: f64, cdf: &dyn Fn(f64) -> f64) -> f64 {
    const J: i32 = 80;
    let budget = r - w;
    let f = x_integrand(task, w, budget, cdf);
    let mut total = 0.0;
    for j in (0..J).rev() {
        let lo = budget * 0.5f64.powi(j + 1);
        let hi = budget * 0.5f64.powi(j);
        total += adaptive_simpson(&f, lo, hi, 1e-13).value;
    }
    let eps = budget * 0.5f64.powi(J);
    total + w * cdf(budget) * task.cdf(eps)
}

/// SplitMix64 — the sweep's seeded shapes.
fn unit_draws(seed: u64, n: usize) -> Vec<f64> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D4_9BB1_3311_17EB);
            z ^= z >> 31;
            (z >> 11) as f64 / (1u64 << 53) as f64
        })
        .collect()
}

fn rel(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.abs().max(b.abs())
}

#[test]
fn gamma_shape_sweep_matches_x_space_integral() {
    let law = ckpt(2.0, 0.3);
    let cdf = fit_probability(&law);
    let r = 20.0;
    // One stratified shape per tenth of [0.5, 1).
    let shapes: Vec<f64> = unit_draws(0x5EED, 10)
        .iter()
        .enumerate()
        .map(|(i, u)| 0.5 + 0.05 * (i as f64 + u))
        .collect();
    for &k in &shapes {
        let task = Gamma::new(k, 0.5).unwrap();
        assert!(task.power_substitution().is_some(), "k = {k}");
        for w in [0.0, 10.0, 17.5] {
            let got = continuous_one_more_quad(&task, w, r, &cdf);
            assert!(!got.budget_exhausted(), "k = {k}, w = {w}");
            let graded = graded_x_reference(&task, w, r, &cdf);
            assert!(
                rel(got.value, graded) <= 1e-9,
                "k = {k}, w = {w}: {} vs graded {graded}",
                got.value
            );
            // The plain x-space integrator needs tens of thousands of
            // evaluations per call from k ≈ 0.85 down, and runs out of
            // its budget below k ≈ 0.6: compare with it where it is
            // affordable in a debug build.
            if k >= 0.85 {
                let generic = continuous_one_more_quad(&InX(task), w, r, &cdf);
                assert!(!generic.budget_exhausted(), "k = {k}, w = {w}");
                assert!(
                    rel(got.value, generic.value) <= 1e-9,
                    "k = {k}, w = {w}: {} vs generic {}",
                    got.value,
                    generic.value
                );
            }
        }
    }
}

#[test]
fn weibull_power_substitution_matches_x_space_integral() {
    let law = ckpt(2.0, 0.3);
    let cdf = fit_probability(&law);
    for k in [0.6, 0.9] {
        let task = Weibull::new(k, 0.5).unwrap();
        assert!(task.power_substitution().is_some(), "k = {k}");
        for w in [0.0, 10.0, 17.0] {
            let hook = continuous_one_more_quad(&task, w, 20.0, &cdf);
            let generic = continuous_one_more_quad(&InX(task), w, 20.0, &cdf);
            assert!(!generic.budget_exhausted(), "k = {k}, w = {w}: reference cut short");
            assert!(
                rel(hook.value, generic.value) <= 1e-9,
                "k = {k}, w = {w}: {} vs {}",
                hook.value,
                generic.value
            );
            // The smooth integrand is what makes the substitution pay.
            assert!(hook.evals < generic.evals, "k = {k}, w = {w}");
        }
    }
    assert!(Weibull::new(1.0, 0.5).unwrap().power_substitution().is_none());
}

#[test]
fn gamma_sub1_threshold_matches_x_space_threshold() {
    let task = Gamma::new(0.9, 0.5).unwrap();
    let fast = DynamicStrategy::new(task, ckpt(2.0, 0.3), 20.0).unwrap();
    let generic = DynamicStrategy::new(InX(task), ckpt(2.0, 0.3), 20.0).unwrap();
    let a = fast.threshold().unwrap().expect("threshold exists");
    let b = generic.threshold().unwrap().expect("threshold exists");
    assert!(rel(a, b) <= 1e-9, "W_int {a} vs x-space {b}");
}

/// A task law that adds up the quadrature evaluations of the solve's own
/// `E[W_{+1}]` calls: the adaptive calls' `QuadResult::evals`, and the
/// fast kernel's fixed Gauss–Legendre cost at its largest panel count.
struct Counted<D> {
    law: D,
    evals: Cell<usize>,
}

impl<D> Counted<D> {
    fn new(law: D) -> Self {
        Self {
            law,
            evals: Cell::new(0),
        }
    }

    fn add(&self, n: usize) {
        self.evals.set(self.evals.get() + n);
    }
}

impl<D: Continuous + Sample + TaskDuration> TaskDuration for Counted<D> {
    fn expected_one_more(&self, w: f64, r: f64, ckpt_cdf: &dyn Fn(f64) -> f64) -> f64 {
        let q = continuous_one_more_quad(&self.law, w, r, ckpt_cdf);
        self.add(q.evals);
        q.value
    }
    fn expected_one_more_checked(
        &self,
        w: f64,
        r: f64,
        ckpt_cdf: &dyn Fn(f64) -> f64,
    ) -> Result<f64, CoreError> {
        let q = continuous_one_more_quad(&self.law, w, r, ckpt_cdf);
        self.add(q.evals);
        Ok(q.checked(ONE_MORE_TOL)?.value)
    }
    fn expected_one_more_fast(
        &self,
        w: f64,
        r: f64,
        fit: &LatticeCache,
        gl: &GaussLegendre,
        feature: f64,
    ) -> Option<f64> {
        // Coarse plus fine pass: 3 × segments × order evaluations.
        self.add(3 * GL_MAX_SEGMENTS * gl.order());
        self.law.expected_one_more_fast(w, r, fit, gl, feature)
    }
    fn fast_kernel_feature(&self) -> Option<f64> {
        self.law.fast_kernel_feature()
    }
    fn mean_duration(&self) -> f64 {
        self.law.mean()
    }
    fn draw(&self, rng: &mut dyn rand::RngCore) -> f64 {
        self.law.sample(rng)
    }
}

/// Quadrature evaluations of one `threshold()` solve, and its answer.
fn threshold_evals(task: Gamma, ckpt_law: Truncated<Normal>, r: f64) -> (usize, f64) {
    let d = DynamicStrategy::new(Counted::new(task), ckpt_law, r).unwrap();
    let w_int = d.threshold().unwrap().expect("threshold exists");
    (d.task().evals.get(), w_int)
}

#[test]
fn gamma_055_threshold_has_bounded_quadrature_cost() {
    // Before the substitution this solve took about 125 s in a release
    // build; its `E[W_{+1}]` calls each ran millions of evaluations.
    let (sub1, w_int) = threshold_evals(Gamma::new(0.55, 0.5).unwrap(), ckpt(2.0, 0.3), 20.0);
    let (smooth, _) = threshold_evals(Gamma::new(2.5, 0.8).unwrap(), ckpt(3.0, 0.45), 25.0);
    // About 100k here, most of it the fast scan's fixed cost.
    assert!(sub1 <= 150_000, "Gamma(0.55) threshold spent {sub1} evaluations");
    assert!(
        sub1 <= 5 * smooth,
        "Gamma(0.55) threshold spent {sub1} evaluations, Gamma(2.5) {smooth}"
    );
    // And it solves the threshold equation E[W_C] = E[W_{+1}].
    let d = DynamicStrategy::new(Gamma::new(0.55, 0.5).unwrap(), ckpt(2.0, 0.3), 20.0).unwrap();
    let (now, more) = (d.expect_checkpoint_now(w_int), d.expect_one_more(w_int));
    assert!(rel(now, more) <= 1e-6, "W_int = {w_int}: {now} vs {more}");
}

#[test]
fn unresolvable_density_spends_the_eval_budget_and_reports_it() {
    // Gamma(0.3) in x: its x^(−0.7) singularity is past what adaptive
    // Simpson resolves within QUAD_EVAL_BUDGET evaluations.
    let task = InX(Gamma::new(0.3, 0.5).unwrap());
    let law = ckpt(2.0, 0.3);
    let cdf = fit_probability(&law);
    let q = continuous_one_more_quad(&task, 10.0, 20.0, &cdf);
    assert!(q.budget_exhausted());
    assert!(q.evals < QUAD_EVAL_BUDGET + 1000, "{} evals", q.evals);
    assert!(q.value.is_finite());
    let d = DynamicStrategy::new(task, law, 20.0).unwrap();
    match d.threshold() {
        Err(CoreError::Numerics(NumericsError::EvalBudget { budget, .. })) => {
            assert_eq!(budget, QUAD_EVAL_BUDGET)
        }
        other => panic!("expected an EvalBudget error, got {other:?}"),
    }
    // The substitution resolves the same law in a few thousand.
    let q = continuous_one_more_quad(&Gamma::new(0.3, 0.5).unwrap(), 10.0, 20.0, &cdf);
    assert!(q.evals < 10_000, "{} evals", q.evals);
}

/// Work levels at which [`x_space_mismatches`] compares, with `R = 20`.
const R: f64 = 20.0;
const WS: [f64; 5] = [0.0, 5.0, 12.5, 17.0, 19.5];

/// Work levels at which `task`'s exact, checked and fast `E[W_{+1}]`
/// differ, in bits, from the `x`-space integrals as written before the
/// substitution existed.
fn x_space_mismatches<D: Continuous + TaskDuration>(task: D) -> Vec<f64> {
    assert!(task.power_substitution().is_none());
    let law = ckpt(2.0, 0.3);
    let cdf = fit_probability(&law);
    let fit = LatticeCache::build(&cdf, 0.0, R, 4096);
    let gl = GaussLegendre::new(20);
    let feature =
        (law.quantile(0.999) - law.quantile(0.001)).min(task.fast_kernel_feature().unwrap());
    let mut mismatches = Vec::new();
    for w in WS {
        let budget = R - w;
        let (lo, hi) = task.support();
        let (lo, hi) = (lo.max(0.0), hi.min(budget));
        let (exact, fast) = if hi <= lo {
            (0.0, Some(0.0))
        } else {
            let exact = adaptive_simpson(x_integrand(&task, w, budget, &cdf), lo, hi, 1e-11).value;
            let segs = ((hi - lo) / feature).ceil() as usize;
            let segs = segs.clamp(GL_CHECK_SEGMENTS, GL_MAX_SEGMENTS);
            let lattice_cdf = |c: f64| fit.eval(c);
            let g = x_integrand(&task, w, budget, &lattice_cdf);
            let coarse = gl.integrate_composite(&g, lo, hi, segs);
            let fine = gl.integrate_composite(&g, lo, hi, 2 * segs);
            let agree = fine.is_finite() && (fine - coarse).abs() <= 1e-6 * (1.0 + fine.abs());
            (exact, agree.then_some(fine))
        };
        if task.expected_one_more(w, R, &cdf).to_bits() != exact.to_bits()
            || task.expected_one_more_checked(w, R, &cdf).unwrap().to_bits() != exact.to_bits()
            || continuous_expected_one_more_fast(&task, w, R, &fit, &gl, feature)
                .map(f64::to_bits)
                != fast.map(f64::to_bits)
        {
            mismatches.push(w);
        }
    }
    mismatches
}

#[test]
fn laws_without_substitution_keep_the_x_space_path_bit_for_bit() {
    let checks = [
        ("gamma k=1", x_space_mismatches(Gamma::new(1.0, 0.5).unwrap())),
        ("gamma k=1.5", x_space_mismatches(Gamma::new(1.5, 0.5).unwrap())),
        ("gamma k=2.5", x_space_mismatches(Gamma::new(2.5, 0.8).unwrap())),
        ("weibull k=1", x_space_mismatches(Weibull::new(1.0, 0.5).unwrap())),
        ("weibull k=1.5", x_space_mismatches(Weibull::new(1.5, 2.0).unwrap())),
        ("truncated normal", x_space_mismatches(ckpt(3.0, 0.5))),
        ("uniform", x_space_mismatches(Uniform::new(1.0, 4.0).unwrap())),
        ("exponential", x_space_mismatches(Exponential::new(0.5).unwrap())),
        ("lognormal", x_space_mismatches(LogNormal::new(0.5, 0.4).unwrap())),
    ];
    for (name, mismatches) in checks {
        assert!(mismatches.is_empty(), "{name}: bits differ at w = {mismatches:?}");
    }
}
