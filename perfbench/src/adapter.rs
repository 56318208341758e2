//! Every call the benchmark makes into the program under test goes
//! through this module. The rest of the benchmark speaks the types of
//! [`crate::gen`] and the plain structs below, so an API change in
//! `resq` (e.g. one trial kernel replacing the simulator variants)
//! changes this file only.

use crate::gen::{Axis, BoundedCkpt, PlanInstance, Query, TaskLaw};
use resq::core::lattice::{self as core_lattice, REL_FLOOR};
use resq::core::policy::ThresholdWorkflowPolicy;
use resq::core::{
    CheckpointReliability, ConvolutionStatic, DynamicStrategy, IidSum, LatticeSpec, LawFamily,
    PolicyAnswer, PolicyLattice, PolicyQuery, Preemptible, RetryPolicy, RetryStaticStrategy,
    SolveCache, StaticStrategy, StaticWorkflowPolicy, TaskDuration, WorkflowPolicy,
};
use resq::dist::{
    Continuous, Exponential, Gamma, LogNormal, Normal, Poisson, Sample, Truncated, Uniform,
    Xoshiro256pp,
};
use resq::obs::http::{self, Request, Server, ServerConfig};
use resq::obs::metrics::Snapshot;
use resq::obs::span::{self, ScopedRegistry, SpanRegistry};
use resq::obs::{json, NullSink};
use resq::sim::{
    run_trials, run_trials_batched, young_daly_period, BatchScratch, FailureWorkflowSim,
    FaultyWorkflowSim, MonteCarloConfig, PeriodicCheckpointPolicy, ReliabilityInjector, Summary,
    WorkflowSim,
};
use resq::AnswerSource;
use resq_cli::serve::{self, DecisionService};
use std::hint::black_box;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn family(name: &str) -> Result<LawFamily, String> {
    LawFamily::from_name(name).ok_or_else(|| format!("unknown lattice family `{name}`"))
}

// ---------------------------------------------------------------------
// Lattice artifacts
// ---------------------------------------------------------------------

/// A policy lattice artifact.
pub struct Lattice(PolicyLattice);

impl Lattice {
    /// Builds the family's default-spec lattice (the offline step), or
    /// a coarser one with `points` nodes per axis.
    pub fn build(family_name: &str, points: Option<usize>) -> Result<Self, String> {
        let mut spec = LatticeSpec::defaults(family(family_name)?);
        if let Some(p) = points {
            spec = spec.with_points(p);
        }
        core_lattice::build(&spec)
            .map(Lattice)
            .map_err(|e| format!("building the {family_name} lattice: {e}"))
    }

    /// Loads and fingerprint-verifies an artifact.
    pub fn load(path: &Path) -> Result<Self, String> {
        PolicyLattice::load(path)
            .map(Lattice)
            .map_err(|e| e.to_string())
    }

    /// Writes the artifact (and its manifest sidecar).
    pub fn save(&self, path: &Path) -> Result<(), String> {
        self.0
            .save(path)
            .map(|_| ())
            .map_err(|e| format!("{}: {e}", path.display()))
    }

    pub fn axes(&self) -> Vec<Axis> {
        self.0
            .axes()
            .iter()
            .map(|a| Axis { lo: a.lo, hi: a.hi })
            .collect()
    }

    /// `(serveable, total)` cells.
    pub fn coverage(&self) -> (usize, usize) {
        self.0.cell_coverage()
    }
}

/// The artifact file name the decision service looks for.
pub fn artifact_file_name(family_name: &str) -> Result<String, String> {
    Ok(family(family_name)?.artifact_file_name())
}

// ---------------------------------------------------------------------
// Decision service
// ---------------------------------------------------------------------

/// `resq serve` defaults: exact-solve cache shards, admission cap and
/// per-request deadline.
pub const SERVE_SHARDS: usize = 8;
pub const SERVE_MAX_INFLIGHT: usize = 64;
pub const SERVE_DEADLINE: Duration = Duration::from_millis(1000);

/// A decision service over the lattice artifacts of one directory.
pub struct Service {
    inner: Arc<DecisionService>,
    http: http::Handler,
}

impl Service {
    /// Builds the service as `resq serve --lattice-dir dir` does: loads
    /// and fingerprint-verifies every family's artifact. Any missing or
    /// quarantined family is an error here (the benchmark needs all four).
    pub fn load(dir: &Path) -> Result<Self, String> {
        let inner = Arc::new(
            DecisionService::new(Vec::new(), SERVE_SHARDS, SERVE_MAX_INFLIGHT)
                .with_deadline(Some(SERVE_DEADLINE)),
        );
        let notes = inner.reload_from_dir(dir);
        for (note, f) in notes.iter().zip(LawFamily::ALL) {
            if inner.lattice(*f).is_none() {
                return Err(format!("lattice not loaded: {}", note.trim()));
            }
        }
        let http = serve::http_handler(Arc::clone(&inner));
        Ok(Self { inner, http })
    }

    /// The framed fast path's handler.
    pub fn answer_frame(&self, payload: &[u8]) -> String {
        self.inner.answer_frame(payload)
    }

    /// The HTTP handler for one `POST /decide`: `(status, body)`.
    pub fn answer_http(&self, body: &str) -> (u16, String) {
        let req = Request {
            method: "POST".to_string(),
            path: "/decide".to_string(),
            body: body.as_bytes().to_vec(),
        };
        let resp = (self.http)(&req);
        (resp.status, resp.body)
    }

    /// Whether the family's lattice serves `q` (an in-process lookup).
    pub fn lattice_serves(&self, q: &Query, cache: &mut ExactCache) -> Result<bool, String> {
        let pq = policy_query(q)?;
        let lattice = self
            .inner
            .lattice(pq.task.family())
            .ok_or("family has no lattice")?;
        let a = lattice
            .query(&pq, &mut cache.0)
            .map_err(|e| e.to_string())?;
        Ok(a.source == AnswerSource::Lattice)
    }

    /// The artifact tolerance of `q`'s family lattice.
    pub fn tolerance(&self, q: &Query) -> Result<f64, String> {
        let pq = policy_query(q)?;
        Ok(self
            .inner
            .lattice(pq.task.family())
            .ok_or("family has no lattice")?
            .tolerance())
    }
}

/// How a decide workload reaches the decision service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Proto {
    /// The framed fast path's handler, called in-process (no socket).
    InProcess,
    /// HTTP/1.1 keep-alive to a loopback daemon (`resq serve --addr`).
    Http,
}

/// An HTTP daemon listening on an ephemeral loopback port.
pub struct Daemon {
    server: Server,
}

impl Daemon {
    /// Binds the service on `127.0.0.1:0` with `workers` connection workers.
    pub fn bind(service: &Service, workers: usize) -> Result<Self, String> {
        let mut cfg = ServerConfig::new("127.0.0.1:0");
        cfg.workers = workers;
        cfg.queue_depth = 64;
        let server = http::serve_with(cfg, Arc::clone(&service.http))
            .map_err(|e| format!("binding the daemon: {e}"))?;
        Ok(Self { server })
    }

    pub fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// Stops accepting, drains and joins every server thread.
    pub fn stop(self) {
        self.server.stop();
    }
}

/// The exact solver's kernel cache.
pub struct ExactCache(SolveCache);

impl ExactCache {
    pub fn new() -> Self {
        Self(SolveCache::new())
    }
}

impl Default for ExactCache {
    fn default() -> Self {
        Self::new()
    }
}

/// A decision answer, as the benchmark compares it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Answer {
    pub lattice: bool,
    pub x_opt: f64,
    pub n_opt: u64,
    pub expected_work: f64,
    pub w_int: Option<f64>,
}

/// The query the daemon parses from `q`'s wire body (same law-spec
/// parser, so LogNormal's log-space conversion rounds identically).
fn policy_query(q: &Query) -> Result<PolicyQuery, String> {
    let task = serve::task_params(&q.task.spec()).map_err(|e| e.0)?;
    let pq = PolicyQuery {
        task,
        ckpt_mean: q.ckpt_mean,
        ckpt_sigma: q.ckpt_sigma,
        r: q.reservation,
    };
    pq.validate().map_err(|e| e.to_string())?;
    Ok(pq)
}

/// `solve_exact` for `q`.
pub fn solve_exact(q: &Query, cache: &mut ExactCache) -> Result<Answer, String> {
    let a =
        core_lattice::solve_exact(&policy_query(q)?, &mut cache.0).map_err(|e| e.to_string())?;
    Ok(Answer {
        lattice: false,
        x_opt: a.x_opt,
        n_opt: a.n_opt,
        expected_work: a.expected_work,
        w_int: a.w_int,
    })
}

/// The relative-error floor (per unit `R`) lattice tolerances use.
pub fn rel_floor() -> f64 {
    REL_FLOOR
}

/// `render_answer` for an answer carrying the request's work level.
pub fn render_answer(a: &Answer, work: f64) -> String {
    let ans = PolicyAnswer {
        x_opt: a.x_opt,
        n_opt: a.n_opt,
        expected_work: a.expected_work,
        w_int: a.w_int,
        source: if a.lattice {
            AnswerSource::Lattice
        } else {
            AnswerSource::Exact
        },
    };
    serve::render_answer(&ans, Some(work))
}

/// The wire JSON parser (the first stage of every request).
pub fn json_parse(text: &str) -> bool {
    json::parse(text).is_ok()
}

// ---------------------------------------------------------------------
// Telemetry: counters and the program's own spans
// ---------------------------------------------------------------------

/// A capture of the program's `resq_obs::metrics` counters.
pub struct Counters(Snapshot);

impl Counters {
    pub fn capture() -> Self {
        Self(Snapshot::capture())
    }

    /// Counter deltas since `earlier`.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters(self.0.delta(&earlier.0))
    }

    pub fn get(&self, name: &str) -> u64 {
        self.0.counter(name)
    }
}

/// Reads the program's existing spans recorded on this thread while the
/// probe lives (a scoped `SpanRegistry`).
pub struct SpanProbe {
    registry: Arc<SpanRegistry>,
    _scope: ScopedRegistry,
}

impl SpanProbe {
    pub fn install() -> Self {
        let registry = SpanRegistry::new();
        let scope = span::scoped(Arc::clone(&registry));
        Self {
            registry,
            _scope: scope,
        }
    }

    /// `(path, count, total nanos)` of every recorded path, then clears.
    pub fn drain(&self) -> Vec<(String, u64, u64)> {
        let out = self
            .registry
            .snapshot()
            .into_iter()
            .map(|s| (s.path, s.count, s.total_nanos))
            .collect();
        self.registry.reset();
        out
    }
}

// ---------------------------------------------------------------------
// Exact planners (plan_exact)
// ---------------------------------------------------------------------

/// A planner's answer, as the golden file records it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanAnswer {
    /// Static plans: checkpoint after `n_opt` tasks.
    pub n_opt: Option<u64>,
    /// Preemptible lead time `X_opt`, or dynamic threshold `W_int`.
    pub x: Option<f64>,
    /// Expected saved work of the plan (preemptible and static).
    pub value: Option<f64>,
}

fn ckpt4(mu: f64, sigma: f64) -> Result<Truncated<Normal>, String> {
    Truncated::above(Normal::new(mu, sigma).map_err(|e| e.to_string())?, 0.0)
        .map_err(|e| e.to_string())
}

fn bounded<D: Continuous>(
    parent: Result<D, resq::dist::DistError>,
    lo: f64,
    hi: f64,
) -> Result<Truncated<D>, String> {
    Truncated::new(parent.map_err(|e| e.to_string())?, lo, hi).map_err(|e| e.to_string())
}

fn preemptible<C: Continuous>(ckpt: C, r: f64) -> Result<Preemptible<C>, String> {
    Preemptible::new(ckpt, r).map_err(|e| e.to_string())
}

/// Runs `f` on the instance's preemptible model.
fn with_preemptible<T>(
    ckpt: &BoundedCkpt,
    r: f64,
    f: &mut dyn FnMut(&dyn PreemptibleCalls) -> T,
) -> Result<T, String> {
    Ok(match *ckpt {
        BoundedCkpt::Uniform { a, b } => f(&preemptible(
            Uniform::new(a, b).map_err(|e| e.to_string())?,
            r,
        )?),
        BoundedCkpt::Exponential { lambda, lo, hi } => {
            f(&preemptible(bounded(Exponential::new(lambda), lo, hi)?, r)?)
        }
        BoundedCkpt::Normal { mu, sigma, lo, hi } => {
            f(&preemptible(bounded(Normal::new(mu, sigma), lo, hi)?, r)?)
        }
        BoundedCkpt::LogNormal { mu, sigma, lo, hi } => f(&preemptible(
            bounded(LogNormal::new(mu, sigma), lo, hi)?,
            r,
        )?),
    })
}

/// The preemptible model's calls, object-safe over the law type.
trait PreemptibleCalls {
    fn optimize(&self) -> (f64, f64);
    fn expected_work(&self, x: f64) -> f64;
    fn pessimistic_work(&self) -> f64;
}

impl<C: Continuous> PreemptibleCalls for Preemptible<C> {
    fn optimize(&self) -> (f64, f64) {
        let p = Preemptible::optimize(self);
        (p.lead_time, p.expected_work)
    }
    fn expected_work(&self, x: f64) -> f64 {
        Preemptible::expected_work(self, x)
    }
    fn pessimistic_work(&self) -> f64 {
        self.pessimistic().expected_work
    }
}

fn static_strategy<T: IidSum>(
    task: T,
    mu: f64,
    sigma: f64,
    r: f64,
) -> Result<StaticStrategy<T, Truncated<Normal>>, String> {
    StaticStrategy::new(task, ckpt4(mu, sigma)?, r).map_err(|e| e.to_string())
}

fn dynamic_strategy<X: TaskDuration>(
    task: X,
    mu: f64,
    sigma: f64,
    r: f64,
) -> Result<DynamicStrategy<X, Truncated<Normal>>, String> {
    DynamicStrategy::new(task, ckpt4(mu, sigma)?, r).map_err(|e| e.to_string())
}

fn convolution(
    task: &TaskLaw,
    mu: f64,
    sigma: f64,
    r: f64,
) -> Result<ConvolutionStatic<Truncated<Normal>>, String> {
    const CELLS: usize = 512;
    let ckpt = ckpt4(mu, sigma)?;
    match *task {
        TaskLaw::Uniform { a, b } => ConvolutionStatic::new(
            &Uniform::new(a, b).map_err(|e| e.to_string())?,
            ckpt,
            r,
            CELLS,
        ),
        TaskLaw::LogNormal { mu, sigma } => ConvolutionStatic::new(
            &LogNormal::new(mu, sigma).map_err(|e| e.to_string())?,
            ckpt,
            r,
            CELLS,
        ),
        _ => return Err("convolution instances take Uniform or LogNormal tasks".into()),
    }
    .map_err(|e| e.to_string())
}

/// Static-plan calls, object-safe over the sum law.
trait StaticCalls {
    fn optimize(&self) -> Result<(u64, f64), String>;
    fn expected_work(&self, n: u64) -> f64;
}

impl<T: IidSum> StaticCalls for StaticStrategy<T, Truncated<Normal>> {
    fn optimize(&self) -> Result<(u64, f64), String> {
        let p = StaticStrategy::optimize(self).map_err(|e| e.to_string())?;
        Ok((p.n_opt, p.expected_work))
    }
    fn expected_work(&self, n: u64) -> f64 {
        StaticStrategy::expected_work(self, n)
    }
}

fn with_static<T>(
    task: &TaskLaw,
    mu: f64,
    sigma: f64,
    r: f64,
    f: &mut dyn FnMut(&dyn StaticCalls) -> T,
) -> Result<T, String> {
    let e = |e: resq::dist::DistError| e.to_string();
    Ok(match *task {
        TaskLaw::Normal { mu: m, sigma: s } => f(&static_strategy(
            Normal::new(m, s).map_err(e)?,
            mu,
            sigma,
            r,
        )?),
        TaskLaw::Gamma { shape, scale } => f(&static_strategy(
            Gamma::new(shape, scale).map_err(e)?,
            mu,
            sigma,
            r,
        )?),
        TaskLaw::Poisson { lambda } => f(&static_strategy(
            Poisson::new(lambda).map_err(e)?,
            mu,
            sigma,
            r,
        )?),
        _ => return Err("closed-form static instances take Normal, Gamma or Poisson tasks".into()),
    })
}

/// Dynamic-strategy calls, object-safe over the task law.
trait DynamicCalls {
    fn threshold(&self) -> Result<Option<f64>, String>;
    fn now_and_one_more(&self, w: f64) -> (f64, f64);
}

impl<X: TaskDuration> DynamicCalls for DynamicStrategy<X, Truncated<Normal>> {
    fn threshold(&self) -> Result<Option<f64>, String> {
        DynamicStrategy::threshold(self).map_err(|e| e.to_string())
    }
    fn now_and_one_more(&self, w: f64) -> (f64, f64) {
        (self.expect_checkpoint_now(w), self.expect_one_more(w))
    }
}

fn with_dynamic<T>(
    task: &TaskLaw,
    mu: f64,
    sigma: f64,
    r: f64,
    f: &mut dyn FnMut(&dyn DynamicCalls) -> T,
) -> Result<T, String> {
    let e = |e: resq::dist::DistError| e.to_string();
    Ok(match *task {
        TaskLaw::Normal { mu: m, sigma: s } => {
            let task = Truncated::above(Normal::new(m, s).map_err(e)?, 0.0).map_err(e)?;
            f(&dynamic_strategy(task, mu, sigma, r)?)
        }
        TaskLaw::Gamma { shape, scale } => f(&dynamic_strategy(
            Gamma::new(shape, scale).map_err(e)?,
            mu,
            sigma,
            r,
        )?),
        TaskLaw::Poisson { lambda } => f(&dynamic_strategy(
            Poisson::new(lambda).map_err(e)?,
            mu,
            sigma,
            r,
        )?),
        TaskLaw::Uniform { a, b } => f(&dynamic_strategy(
            Uniform::new(a, b).map_err(e)?,
            mu,
            sigma,
            r,
        )?),
        TaskLaw::LogNormal { mu: m, sigma: s } => f(&dynamic_strategy(
            LogNormal::new(m, s).map_err(e)?,
            mu,
            sigma,
            r,
        )?),
    })
}

/// One planner call, with a fresh strategy and cache (as `resq plan-*`).
pub fn plan(inst: &PlanInstance) -> Result<PlanAnswer, String> {
    match inst {
        PlanInstance::Preemptible { ckpt, r } => {
            let (x, v) = with_preemptible(ckpt, *r, &mut |m| m.optimize())?;
            Ok(PlanAnswer {
                n_opt: None,
                x: Some(x),
                value: Some(v),
            })
        }
        PlanInstance::Static {
            task,
            ckpt_mu,
            ckpt_sigma,
            r,
        } => {
            let (n, v) = with_static(task, *ckpt_mu, *ckpt_sigma, *r, &mut |s| s.optimize())??;
            Ok(PlanAnswer {
                n_opt: Some(n),
                x: None,
                value: Some(v),
            })
        }
        PlanInstance::StaticConvolution {
            task,
            ckpt_mu,
            ckpt_sigma,
            r,
        } => {
            let p = convolution(task, *ckpt_mu, *ckpt_sigma, *r)?.optimize();
            Ok(PlanAnswer {
                n_opt: Some(p.n_opt),
                x: None,
                value: Some(p.expected_work),
            })
        }
        PlanInstance::Dynamic {
            task,
            ckpt_mu,
            ckpt_sigma,
            r,
        } => {
            let w = with_dynamic(task, *ckpt_mu, *ckpt_sigma, *r, &mut |d| d.threshold())??;
            Ok(PlanAnswer {
                n_opt: None,
                x: w,
                value: None,
            })
        }
    }
}

/// Builds an instance's laws and strategy without solving: what a
/// `resq plan-*` call pays before its solve.
pub fn plan_prepare(inst: &PlanInstance) -> Result<(), String> {
    match inst {
        PlanInstance::Preemptible { ckpt, r } => with_preemptible(ckpt, *r, &mut |_| ()),
        PlanInstance::Static {
            task,
            ckpt_mu,
            ckpt_sigma,
            r,
        } => with_static(task, *ckpt_mu, *ckpt_sigma, *r, &mut |_| ()),
        PlanInstance::StaticConvolution {
            task,
            ckpt_mu,
            ckpt_sigma,
            r,
        } => convolution(task, *ckpt_mu, *ckpt_sigma, *r).map(|c| drop(black_box(c))),
        PlanInstance::Dynamic {
            task,
            ckpt_mu,
            ckpt_sigma,
            r,
        } => with_dynamic(task, *ckpt_mu, *ckpt_sigma, *r, &mut |_| ()),
    }
}

/// Relative tolerance of the dynamic threshold's defining equation.
pub const THRESHOLD_REL_TOL: f64 = 1e-6;

fn is_local_max(at: f64, below: Option<f64>, above: f64) -> bool {
    let slack = 1e-12 * at.abs().max(1.0);
    below.is_none_or(|b| at + slack >= b) && at + slack >= above
}

/// The paper's optimality conditions for one answer:
/// * preemptible: `E[W(X_opt)]` ≥ the pessimistic plan's;
/// * static: `n_opt` is a local maximum of `E(n)`;
/// * dynamic: `E[W_C](W_int) = E[W_{+1}](W_int)` to [`THRESHOLD_REL_TOL`].
pub fn plan_check(inst: &PlanInstance, ans: &PlanAnswer) -> Result<(), String> {
    match inst {
        PlanInstance::Preemptible { ckpt, r } => {
            let x = ans.x.ok_or("missing lead time")?;
            let (at, pess) = with_preemptible(ckpt, *r, &mut |m| {
                (m.expected_work(x), m.pessimistic_work())
            })?;
            if at + 1e-12 < pess {
                return Err(format!("E[W(X_opt={x})] = {at} < pessimistic {pess}"));
            }
        }
        PlanInstance::Static {
            task,
            ckpt_mu,
            ckpt_sigma,
            r,
        } => {
            let n = ans.n_opt.ok_or("missing n_opt")?;
            let (below, at, above) = with_static(task, *ckpt_mu, *ckpt_sigma, *r, &mut |s| {
                (
                    (n > 1).then(|| s.expected_work(n - 1)),
                    s.expected_work(n),
                    s.expected_work(n + 1),
                )
            })?;
            if !is_local_max(at, below, above) {
                return Err(format!(
                    "n_opt={n} is not a local maximum: E(n-1)={below:?} E(n)={at} E(n+1)={above}"
                ));
            }
        }
        PlanInstance::StaticConvolution {
            task,
            ckpt_mu,
            ckpt_sigma,
            r,
        } => {
            let n = ans.n_opt.ok_or("missing n_opt")?;
            let values = convolution(task, *ckpt_mu, *ckpt_sigma, *r)?.expected_work_upto(n + 1);
            let at = values[n as usize - 1];
            let below = (n > 1).then(|| values[n as usize - 2]);
            if !is_local_max(at, below, values[n as usize]) {
                return Err(format!(
                    "convolution n_opt={n} is not a local maximum of E(n)"
                ));
            }
        }
        PlanInstance::Dynamic {
            task,
            ckpt_mu,
            ckpt_sigma,
            r,
        } => {
            let Some(w) = ans.x else {
                return Err(
                    "no threshold: the instance set only holds instances that have one".into(),
                );
            };
            let (now, more) = with_dynamic(task, *ckpt_mu, *ckpt_sigma, *r, &mut |d| {
                d.now_and_one_more(w)
            })?;
            let rel = (now - more).abs() / now.abs().max(more.abs()).max(1e-300);
            if rel.is_nan() || rel > THRESHOLD_REL_TOL {
                return Err(format!("E[W_C]({w}) = {now} vs E[W_+1] = {more}: rel {rel:.3e} > {THRESHOLD_REL_TOL:e}"));
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Monte-Carlo validation (mc_validate)
// ---------------------------------------------------------------------

type Tn = Truncated<Normal>;

/// The simulator of one pre-recorded `mc_validate` instance.
enum McSim {
    Normal(WorkflowSim<Tn, Tn>),
    Gamma(WorkflowSim<Gamma, Tn>),
    Poisson(WorkflowSim<Poisson, Tn>),
    Faulty(FaultyWorkflowSim<Tn, Tn, ReliabilityInjector>),
    Failstop(FailureWorkflowSim<Tn, Tn, Uniform>),
}

/// A fixed policy, recorded ahead of time so no planner runs in the
/// workload (values from `resq plan-dynamic` / `plan-static`).
#[derive(Debug, Clone, Copy)]
enum McPolicy {
    Threshold(f64),
    Static(u64),
    Periodic(f64),
}

/// Which simulator family an instance exercises (names the per-layer
/// `sim.*_trial_ns` metrics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum McKind {
    Plain,
    Faulty,
    Failstop,
}

/// One `mc_validate` instance: a simulator under a fixed policy.
pub struct McInstance {
    pub name: &'static str,
    pub kind: McKind,
    sim: McSim,
    policy: McPolicy,
}

/// Mean work saved over a batch of trials.
#[derive(Debug, Clone, Copy)]
pub struct Batch {
    pub n: u64,
    pub mean: f64,
    pub std_dev: f64,
}

impl From<Summary> for Batch {
    fn from(s: Summary) -> Self {
        Self {
            n: s.n,
            mean: s.mean,
            std_dev: s.std_dev,
        }
    }
}

/// The reference an instance's Monte-Carlo mean is checked against.
#[derive(Debug, Clone, Copy)]
pub enum McReference {
    /// The analytic `E(n)` of the static (or retry-aware static) plan:
    /// the mean must lie within the check's standard-error band.
    Equals(f64),
    /// The static optimum a dynamic threshold must not lose to.
    AtLeast(f64),
    /// Fail-stop runs have no closed form: the mean lies in `[0, R]`.
    Within(f64, f64),
}

fn tn(mu: f64, sigma: f64) -> Tn {
    Truncated::above(Normal::new(mu, sigma).expect("valid Normal"), 0.0).expect("valid truncation")
}

// Figure 8 (Normal tasks), 9 (Gamma) and 10 (Poisson) of the paper.
const FIG8_R: f64 = 29.0;
const FIG8_THRESHOLD: f64 = 20.2649;
const FIG9_R: f64 = 10.0;
const FIG9_THRESHOLD: f64 = 6.443;
const FIG9_STATIC_N: u64 = 12;
const FIG10_R: f64 = 29.0;
const FIG10_THRESHOLD: f64 = 18.8603;
const FIG10_STATIC_N: u64 = 6;
const FIG8_STATIC_N: u64 = 7;
/// Fault injection: each write attempt fails with probability 0.1,
/// `immediate:3` retries; `n` is the retry-aware static optimum.
const FAULT_SUCCESS_P: f64 = 0.9;
const FAULT_RETRIES: u32 = 3;
const FAULT_STATIC_N: u64 = 7;
/// Fail-stop instance: Poisson failures, Uniform recovery, Young/Daly
/// periodic checkpoints.
const FAILSTOP_RATE: f64 = 0.05;

fn fig8_sim() -> WorkflowSim<Tn, Tn> {
    WorkflowSim {
        reservation: FIG8_R,
        task: tn(3.0, 0.5),
        ckpt: tn(5.0, 0.4),
    }
}

/// Builds every `mc_validate` simulator (the workload's set-up).
pub fn mc_instances() -> Vec<McInstance> {
    let gamma = || WorkflowSim {
        reservation: FIG9_R,
        task: Gamma::new(1.0, 0.5).expect("valid Gamma"),
        ckpt: tn(2.0, 0.4),
    };
    let poisson = || WorkflowSim {
        reservation: FIG10_R,
        task: Poisson::new(3.0).expect("valid Poisson"),
        ckpt: tn(5.0, 0.4),
    };
    let injector = ReliabilityInjector::new(
        CheckpointReliability::PerAttempt { p: FAULT_SUCCESS_P },
        0.0,
    )
    .expect("valid reliability");
    let period = young_daly_period(5.0, FAILSTOP_RATE).expect("valid Young/Daly inputs");
    let plain = |name, sim, policy| McInstance {
        name,
        kind: McKind::Plain,
        sim,
        policy,
    };
    vec![
        plain(
            "fig8_threshold",
            McSim::Normal(fig8_sim()),
            McPolicy::Threshold(FIG8_THRESHOLD),
        ),
        plain(
            "fig8_static",
            McSim::Normal(fig8_sim()),
            McPolicy::Static(FIG8_STATIC_N),
        ),
        plain(
            "fig9_threshold",
            McSim::Gamma(gamma()),
            McPolicy::Threshold(FIG9_THRESHOLD),
        ),
        plain(
            "fig9_static",
            McSim::Gamma(gamma()),
            McPolicy::Static(FIG9_STATIC_N),
        ),
        plain(
            "fig10_threshold",
            McSim::Poisson(poisson()),
            McPolicy::Threshold(FIG10_THRESHOLD),
        ),
        plain(
            "fig10_static",
            McSim::Poisson(poisson()),
            McPolicy::Static(FIG10_STATIC_N),
        ),
        McInstance {
            name: "fig8_faulty_static",
            kind: McKind::Faulty,
            sim: McSim::Faulty(FaultyWorkflowSim {
                reservation: FIG8_R,
                task: tn(3.0, 0.5),
                ckpt: tn(5.0, 0.4),
                injector,
                retry: RetryPolicy::Immediate {
                    max_attempts: FAULT_RETRIES,
                },
            }),
            policy: McPolicy::Static(FAULT_STATIC_N),
        },
        McInstance {
            name: "fig8_failstop_periodic",
            kind: McKind::Failstop,
            sim: McSim::Failstop(FailureWorkflowSim {
                reservation: FIG8_R,
                task: tn(3.0, 0.5),
                ckpt: tn(5.0, 0.4),
                recovery: Uniform::new(0.5, 1.5).expect("valid Uniform"),
                failure_rate: FAILSTOP_RATE,
            }),
            policy: McPolicy::Periodic(period),
        },
    ]
}

fn policy_box(p: McPolicy) -> Box<dyn WorkflowPolicy + Sync> {
    match p {
        McPolicy::Threshold(t) => Box::new(ThresholdWorkflowPolicy { threshold: t }),
        McPolicy::Static(n) => Box::new(StaticWorkflowPolicy { n_opt: n }),
        McPolicy::Periodic(period) => Box::new(PeriodicCheckpointPolicy { period }),
    }
}

fn plain_batch<X: TaskDuration + Sync, C: Sample + Sync>(
    sim: &WorkflowSim<X, C>,
    policy: &(dyn WorkflowPolicy + Sync),
    cfg: MonteCarloConfig,
) -> Summary {
    run_trials_batched(cfg, &NullSink, 0, BatchScratch::new, |_, rng, scratch| {
        sim.run_once_batched(policy, rng, scratch).work_saved
    })
}

impl McInstance {
    /// Runs one batch of `trials` on one thread with trial streams
    /// derived from `seed` (the program's chunked batched runner).
    pub fn run_batch(&self, trials: u64, seed: u64) -> Batch {
        let cfg = MonteCarloConfig {
            trials,
            seed,
            threads: 1,
        };
        let policy = policy_box(self.policy);
        let policy = policy.as_ref();
        match &self.sim {
            McSim::Normal(s) => plain_batch(s, policy, cfg),
            McSim::Gamma(s) => plain_batch(s, policy, cfg),
            McSim::Poisson(s) => plain_batch(s, policy, cfg),
            McSim::Faulty(s) => {
                run_trials_batched(cfg, &NullSink, 0, BatchScratch::new, |_, rng, scratch| {
                    s.run_once_batched(policy, rng, scratch).outcome.work_saved
                })
            }
            McSim::Failstop(s) => run_trials(cfg, |_, rng| s.run_once(policy, rng).work_saved),
        }
        .into()
    }

    /// The analytic reference this instance's mean is checked against.
    pub fn reference(&self) -> Result<McReference, String> {
        let e = |e: resq::core::CoreError| e.to_string();
        let fig8 = || {
            static_strategy(
                Normal::new(3.0, 0.5).expect("valid Normal"),
                5.0,
                0.4,
                FIG8_R,
            )
        };
        let fig9 = || static_strategy(Gamma::new(1.0, 0.5).expect("valid Gamma"), 2.0, 0.4, FIG9_R);
        let fig10 =
            || static_strategy(Poisson::new(3.0).expect("valid Poisson"), 5.0, 0.4, FIG10_R);
        let optimum = |v: Result<(u64, f64), String>| v.map(|(_, w)| w);
        Ok(match (self.name, self.policy) {
            ("fig8_static", McPolicy::Static(n)) => McReference::Equals(fig8()?.expected_work(n)),
            ("fig9_static", McPolicy::Static(n)) => McReference::Equals(fig9()?.expected_work(n)),
            ("fig10_static", McPolicy::Static(n)) => McReference::Equals(fig10()?.expected_work(n)),
            ("fig8_threshold", _) => {
                McReference::AtLeast(optimum(StaticCalls::optimize(&fig8()?))?)
            }
            ("fig9_threshold", _) => {
                McReference::AtLeast(optimum(StaticCalls::optimize(&fig9()?))?)
            }
            ("fig10_threshold", _) => {
                McReference::AtLeast(optimum(StaticCalls::optimize(&fig10()?))?)
            }
            ("fig8_faulty_static", McPolicy::Static(n)) => McReference::Equals(
                RetryStaticStrategy::new(
                    Normal::new(3.0, 0.5).expect("valid Normal"),
                    tn(5.0, 0.4),
                    FIG8_R,
                    CheckpointReliability::PerAttempt { p: FAULT_SUCCESS_P },
                    RetryPolicy::Immediate {
                        max_attempts: FAULT_RETRIES,
                    },
                )
                .map_err(e)?
                .expected_work(n),
            ),
            ("fig8_failstop_periodic", _) => McReference::Within(0.0, FIG8_R),
            (name, _) => return Err(format!("no reference for instance `{name}`")),
        })
    }
}

/// Nanoseconds per trial of the program's runner and of a bare loop
/// calling the same trial kernel on the same RNG streams (fig-8
/// threshold instance), for `sim.runner_overhead_share`.
pub fn runner_and_bare_ns(trials: u64, seed: u64) -> (f64, f64) {
    let sim = fig8_sim();
    let policy = ThresholdWorkflowPolicy {
        threshold: FIG8_THRESHOLD,
    };
    let cfg = MonteCarloConfig {
        trials,
        seed,
        threads: 1,
    };
    let t = Instant::now();
    black_box(plain_batch(&sim, &policy, cfg).mean);
    let runner = t.elapsed().as_nanos() as f64 / trials as f64;
    let mut scratch = BatchScratch::new();
    let t = Instant::now();
    let mut acc = 0.0;
    for i in 0..trials {
        let mut rng = Xoshiro256pp::for_stream_untallied(seed, i);
        acc += sim
            .run_once_batched(&policy, &mut rng, &mut scratch)
            .work_saved;
    }
    black_box(acc);
    let bare = t.elapsed().as_nanos() as f64 / trials as f64;
    (runner, bare)
}

/// Laws the `mc_validate` simulators sample, for `dist.<law>_ns`.
pub const MC_LAWS: [&str; 4] = ["truncnormal", "gamma", "poisson", "exponential"];

/// Nanoseconds per variate of one law's block sampler.
pub fn dist_ns_per_variate(law: &str, variates: usize, seed: u64) -> f64 {
    let mut rng = Xoshiro256pp::new(seed);
    let mut buf = vec![0.0; 4096];
    let rounds = variates.div_ceil(buf.len()).max(1);
    let t = Instant::now();
    for _ in 0..rounds {
        match law {
            "truncnormal" => tn(3.0, 0.5).draw_batch(&mut rng, &mut buf),
            "gamma" => Gamma::new(1.0, 0.5)
                .expect("valid Gamma")
                .sample_batch(&mut rng, &mut buf),
            "poisson" => Poisson::new(3.0)
                .expect("valid Poisson")
                .draw_batch(&mut rng, &mut buf),
            _ => Exponential::new(FAILSTOP_RATE)
                .expect("valid rate")
                .sample_batch(&mut rng, &mut buf),
        }
        black_box(&buf);
    }
    t.elapsed().as_nanos() as f64 / (rounds * buf.len()) as f64
}
