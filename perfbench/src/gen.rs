//! Seeded input generators. Every workload's inputs are a pure function
//! of `--seed`: the same seed yields byte-identical request streams,
//! instance sets and Monte-Carlo configurations (`tests/generators.rs`).
//! Nothing here calls into the program under test.

use std::fmt::Write as _;

/// SplitMix64: the benchmark's own generator, independent of the
/// program's RNG so that a change to `resq_dist` cannot change the inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn normal(&mut self) -> f64 {
        let u1 = 1.0 - self.unit();
        let u2 = self.unit();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Derives an independent sub-seed (one per stream, instance or batch).
pub fn mix(a: u64, b: u64) -> u64 {
    Rng::new(a ^ b.wrapping_mul(0xD1B5_4A32_D192_ED03)).next_u64()
}

// ---------------------------------------------------------------------
// Decision queries (decide_hot, decide_mix)
// ---------------------------------------------------------------------

/// Task-law families of the decision service, in the wire syntax's
/// parameters (log-space `mu, sigma` for LogNormal, rate for Exponential).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Task {
    Uniform { a: f64, b: f64 },
    Exponential { lambda: f64 },
    Normal { mu: f64, sigma: f64 },
    LogNormal { mu: f64, sigma: f64 },
}

/// The four gridded families, in the order the lattice artifacts use.
pub const FAMILIES: [&str; 4] = ["uniform", "exponential", "normal", "lognormal"];

impl Task {
    /// The wire spec (`"normal:3,0.5"`); `{}` formatting round-trips.
    pub fn spec(&self) -> String {
        match *self {
            Task::Uniform { a, b } => format!("uniform:{a},{b}"),
            Task::Exponential { lambda } => format!("exponential:{lambda}"),
            Task::Normal { mu, sigma } => format!("normal:{mu},{sigma}"),
            Task::LogNormal { mu, sigma } => format!("lognormal:{mu},{sigma}"),
        }
    }

    /// Builds the task law whose normalized lattice coordinates (task
    /// axes only, per unit `r`) are `coords`.
    fn from_coords(family: &str, coords: &[f64], r: f64) -> Task {
        match family {
            "uniform" => Task::Uniform {
                a: coords[0] * r,
                b: (coords[0] + coords[1]) * r,
            },
            "exponential" => Task::Exponential {
                lambda: 1.0 / (coords[0] * r),
            },
            "normal" => Task::Normal {
                mu: coords[0] * r,
                sigma: coords[0] * coords[1] * r,
            },
            _ => {
                let (mean, cv) = (coords[0] * r, coords[1]);
                let sigma2 = (1.0 + cv * cv).ln();
                Task::LogNormal {
                    mu: mean.ln() - sigma2 / 2.0,
                    sigma: sigma2.sqrt(),
                }
            }
        }
    }

    /// One task duration, drawn with the benchmark's generator.
    fn draw(&self, rng: &mut Rng) -> f64 {
        match *self {
            Task::Uniform { a, b } => rng.range(a, b),
            Task::Exponential { lambda } => -(1.0 - rng.unit()).ln() / lambda,
            Task::Normal { mu, sigma } => (mu + sigma * rng.normal()).max(0.0),
            Task::LogNormal { mu, sigma } => (mu + sigma * rng.normal()).exp(),
        }
    }
}

/// One `/decide` request as the wire carries it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Query {
    pub task: Task,
    pub ckpt_mean: f64,
    pub ckpt_sigma: f64,
    pub reservation: f64,
    pub work: f64,
}

impl Query {
    /// The JSON request body.
    pub fn body(&self) -> String {
        format!(
            "{{\"task\":\"{}\",\"ckpt_mean\":{},\"ckpt_sigma\":{},\"reservation\":{},\"work\":{}}}",
            self.task.spec(),
            self.ckpt_mean,
            self.ckpt_sigma,
            self.reservation,
            self.work
        )
    }
}

/// One normalized lattice axis (`lo..hi`, per unit `R`), as read from an
/// artifact. The checkpoint-mean axis is always last.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Axis {
    pub lo: f64,
    pub hi: f64,
}

/// How a `decide_mix` query relates to its family's lattice grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Inside the grid at the gridded `σ_C/µ_C` ratio: served by the
    /// lattice unless its cell is uncalibrated.
    InGrid,
    /// Some coordinate lies outside the grid box.
    OutOfGrid,
    /// A non-default `σ_C/µ_C`: never served by the lattice.
    OffRatio,
}

/// The gridded checkpoint shape ratio `σ_C/µ_C` of the default lattices.
pub const GRID_SIGMA_RATIO: f64 = 0.08;

/// Seed of the `decide_hot` candidate pool. The pool is fixed; `--seed`
/// picks which pooled queries a run asks and at which work levels.
pub const HOT_POOL_SEED: u64 = 0x5EED_0401;

/// The `decide_hot` candidate pool: `n` in-box exponential queries (at
/// work 0). Which of them the lattice serves is a property of the
/// artifacts, so it is probed once per artifact set, not per run.
pub fn hot_pool_candidates(axes: &[Axis], n: usize) -> Vec<Query> {
    let mut rng = Rng::new(HOT_POOL_SEED);
    (0..n)
        .map(|_| {
            let coords: Vec<f64> = axes.iter().map(|a| rng.range(a.lo, a.hi)).collect();
            let r = rng.range(10.0, 50.0);
            let ckpt_mean = coords[coords.len() - 1] * r;
            Query {
                task: Task::from_coords("exponential", &coords, r),
                ckpt_mean,
                ckpt_sigma: GRID_SIGMA_RATIO * ckpt_mean,
                reservation: r,
                work: 0.0,
            }
        })
        .collect()
}

/// `decide_hot`'s queries for `seed`: `n` distinct queries of the served
/// pool, each with a seeded work level in `[0, R)`.
pub fn hot_queries(seed: u64, pool: &[Query], n: usize) -> Vec<Query> {
    let mut rng = Rng::new(mix(seed, 0x401));
    let mut picks: Vec<usize> = (0..pool.len()).collect();
    rng.shuffle(&mut picks);
    picks
        .into_iter()
        .take(n)
        .map(|i| {
            let mut q = pool[i];
            q.work = rng.range(0.0, q.reservation);
            q
        })
        .collect()
}

/// One request of the `decide_mix` stream.
#[derive(Debug, Clone, PartialEq)]
pub struct MixRequest {
    pub session: u64,
    pub query: Query,
    pub placement: Placement,
}

#[derive(Debug, Clone)]
struct Session {
    id: u64,
    query: Query,
    placement: Placement,
    works: Vec<f64>,
    next: usize,
}

/// Concurrent job sessions in the `decide_mix` fleet.
pub const ACTIVE_SESSIONS: usize = 8;
/// Every this-many-th session's checkpoint law has a non-default
/// `σ_C/µ_C` (coprime with the four families, so every family gets
/// off-ratio sessions).
pub const OFF_RATIO_EVERY: u64 = 5;
/// How far beyond each lattice axis the population reaches, as a share
/// of the axis width on either side.
pub const AXIS_OVERREACH: f64 = 0.25;
const MAX_BOUNDARIES: usize = 12;

/// The endless `decide_mix` request stream: job sessions over all four
/// families, each one query re-asked at every task boundary with growing
/// `work` (at most 12), interleaved at random across [`ACTIVE_SESSIONS`]
/// live jobs. Families take turns, every [`OFF_RATIO_EVERY`]-th session
/// is off-ratio, and each family's parameters are Latin-hypercube
/// stratified, so the mix's composition barely depends on the seed; the
/// laws' exact parameters do. The population is fixed here, never tuned
/// to a hit rate.
pub struct MixStream {
    rng: Rng,
    axes: Vec<Vec<Axis>>,
    active: Vec<Session>,
    next_id: u64,
    /// Sessions the stream holds in all; it ends when they are done.
    sessions: u64,
    /// Per family: the current block's stratum permutation of each
    /// drawn dimension (the family's axes, then `R`).
    strata: Vec<Vec<Vec<usize>>>,
}

/// Sessions of one family per Latin-hypercube block: within a block each
/// dimension's range is cut into this many slices and every slice is
/// drawn once, so a run's population covers the ranges evenly whatever
/// the seed.
const STRATA: usize = 8;

impl MixStream {
    /// The endless stream. `axes[i]` are the grid axes of family
    /// `FAMILIES[i]`.
    pub fn new(seed: u64, axes: Vec<Vec<Axis>>) -> Self {
        Self::sessions(seed, axes, u64::MAX)
    }

    /// The stream's first `sessions` sessions, each asked to its end: the
    /// same requests as the endless stream, less those of later sessions.
    pub fn sessions(seed: u64, axes: Vec<Vec<Axis>>, sessions: u64) -> Self {
        let mut s = Self {
            rng: Rng::new(mix(seed, 0x417)),
            axes,
            active: Vec::with_capacity(ACTIVE_SESSIONS),
            next_id: 0,
            sessions,
            strata: vec![Vec::new(); FAMILIES.len()],
        };
        while s.active.len() < ACTIVE_SESSIONS {
            let session = s.new_session();
            s.active.push(session);
        }
        s
    }

    /// Stratified unit draws for the `k`-th session of family `f`.
    fn unit_draws(&mut self, f: usize, k: usize) -> Vec<f64> {
        let dims = self.axes[f].len() + 1;
        if k.is_multiple_of(STRATA) {
            let rng = &mut self.rng;
            self.strata[f] = (0..dims)
                .map(|_| {
                    let mut p: Vec<usize> = (0..STRATA).collect();
                    rng.shuffle(&mut p);
                    p
                })
                .collect();
        }
        (0..dims)
            .map(|d| (self.strata[f][d][k % STRATA] as f64 + self.rng.unit()) / STRATA as f64)
            .collect()
    }

    fn new_session(&mut self) -> Session {
        let id = self.next_id;
        self.next_id += 1;
        let f = (id % FAMILIES.len() as u64) as usize;
        let u = self.unit_draws(f, (id / FAMILIES.len() as u64) as usize);
        let rng = &mut self.rng;
        let axes = &self.axes[f];
        let coords: Vec<f64> = axes
            .iter()
            .zip(&u)
            .map(|(a, u)| {
                let reach = AXIS_OVERREACH * (a.hi - a.lo);
                let lo = (a.lo - reach).max(0.5 * a.lo);
                lo + (a.hi + reach - lo) * u
            })
            .collect();
        let in_box = coords
            .iter()
            .zip(axes)
            .all(|(c, a)| (a.lo..=a.hi).contains(c));
        let off_ratio = id % OFF_RATIO_EVERY == OFF_RATIO_EVERY - 1;
        let ratio = if off_ratio {
            rng.range(0.04, 0.16)
        } else {
            GRID_SIGMA_RATIO
        };
        let r = 10.0 + 40.0 * u[axes.len()];
        let task = Task::from_coords(FAMILIES[f], &coords[..coords.len() - 1], r);
        let ckpt_mean = coords[coords.len() - 1] * r;
        let mut works = Vec::new();
        let mut w = 0.0;
        while works.len() < MAX_BOUNDARIES {
            w += task.draw(rng);
            if w > 0.9 * r {
                break;
            }
            works.push(w);
        }
        if works.is_empty() {
            works.push(0.0);
        }
        Session {
            id,
            query: Query {
                task,
                ckpt_mean,
                ckpt_sigma: ratio * ckpt_mean,
                reservation: r,
                work: 0.0,
            },
            placement: if off_ratio {
                Placement::OffRatio
            } else if in_box {
                Placement::InGrid
            } else {
                Placement::OutOfGrid
            },
            works,
            next: 0,
        }
    }

    /// The next request of the stream (`None` once it has ended).
    pub fn next_request(&mut self) -> Option<MixRequest> {
        loop {
            if self.active.iter().all(|s| s.id >= self.sessions) {
                return None;
            }
            let slot = self.rng.below(self.active.len());
            let s = &mut self.active[slot];
            let mut query = s.query;
            query.work = s.works[s.next];
            s.next += 1;
            let req = MixRequest {
                session: s.id,
                query,
                placement: s.placement,
            };
            if s.next == s.works.len() {
                self.active[slot] = self.new_session();
            }
            // Later sessions are still drawn, so the random stream, and
            // with it every kept request, is the endless stream's.
            if req.session < self.sessions {
                return Some(req);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Planner instances (plan_exact)
// ---------------------------------------------------------------------

/// A §3 checkpoint law with bounded support `[lo, hi]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BoundedCkpt {
    Uniform {
        a: f64,
        b: f64,
    },
    Exponential {
        lambda: f64,
        lo: f64,
        hi: f64,
    },
    Normal {
        mu: f64,
        sigma: f64,
        lo: f64,
        hi: f64,
    },
    LogNormal {
        mu: f64,
        sigma: f64,
        lo: f64,
        hi: f64,
    },
}

/// A §4 task law.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TaskLaw {
    /// Normal tasks (the dynamic planner truncates them at 0).
    Normal {
        mu: f64,
        sigma: f64,
    },
    Gamma {
        shape: f64,
        scale: f64,
    },
    Poisson {
        lambda: f64,
    },
    Uniform {
        a: f64,
        b: f64,
    },
    LogNormal {
        mu: f64,
        sigma: f64,
    },
}

/// One planner call of the `plan_exact` set. §4 checkpoint laws are
/// `Normal(ckpt_mu, ckpt_sigma)` truncated to `[0, ∞)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PlanInstance {
    /// `Preemptible::optimize` (§3).
    Preemptible { ckpt: BoundedCkpt, r: f64 },
    /// `StaticStrategy::optimize` (§4.2, closed-form sum laws).
    Static {
        task: TaskLaw,
        ckpt_mu: f64,
        ckpt_sigma: f64,
        r: f64,
    },
    /// `ConvolutionStatic::optimize` (§4.2, other continuous laws).
    StaticConvolution {
        task: TaskLaw,
        ckpt_mu: f64,
        ckpt_sigma: f64,
        r: f64,
    },
    /// `DynamicStrategy::threshold` (§4.3).
    Dynamic {
        task: TaskLaw,
        ckpt_mu: f64,
        ckpt_sigma: f64,
        r: f64,
    },
}

/// Planner-call kinds, which name the per-layer `planner.*_ms` metrics.
pub const PLAN_KINDS: [&str; 5] = [
    "preemptible",
    "static",
    "static_convolution",
    "dynamic",
    "dynamic_gamma_sub1",
];

impl PlanInstance {
    /// Index into [`PLAN_KINDS`].
    pub fn kind(&self) -> usize {
        match self {
            PlanInstance::Preemptible { .. } => 0,
            PlanInstance::Static { .. } => 1,
            PlanInstance::StaticConvolution { .. } => 2,
            PlanInstance::Dynamic {
                task: TaskLaw::Gamma { shape, .. },
                ..
            } if *shape < 1.0 => 4,
            PlanInstance::Dynamic { .. } => 3,
        }
    }
}

/// Gamma shapes of the dynamic `k < 1` instances, across `[0.7, 1)`
/// (a `k = 0.7` threshold costs ~4x one at `k = 0.95`). `k ≈ 0.55` is
/// left out: one such solve takes minutes.
pub const GAMMA_SUB1_STRATA: [f64; 3] = [0.72, 0.82, 0.92];

/// Instances per law in each planner class of the `plan_exact` set.
pub const PLAN_PER_LAW: usize = 8;

/// A stratified draw: the `j`-th of `m` equal slices of `[lo, hi)`, at a
/// seeded point inside it. Stratifying the cost-driving parameters keeps
/// the set's total cost nearly independent of the seed.
fn strat(rng: &mut Rng, j: usize, m: usize, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * (j as f64 + rng.unit()) / m as f64
}

/// One §4 instance's scale: `R` in the paper's 10–30 range, a mean task
/// of `share` of `R`, a checkpoint of 8–20% of `R` with `σ_C/µ_C` of 5–12%.
struct Scale {
    r: f64,
    mean: f64,
    ckpt_mu: f64,
    ckpt_sigma: f64,
}

fn scale(rng: &mut Rng, j: usize, share: (f64, f64)) -> Scale {
    let m = PLAN_PER_LAW;
    let r = strat(rng, j, m, 10.0, 30.0);
    let ckpt_mu = rng.range(0.08, 0.2) * r;
    Scale {
        r,
        mean: strat(rng, (j * 3 + 1) % m, m, share.0, share.1) * r,
        ckpt_mu,
        ckpt_sigma: rng.range(0.05, 0.12) * ckpt_mu,
    }
}

/// The `plan_exact` instance set for `seed`, in its seeded call order:
/// [`PLAN_PER_LAW`] instances of every (planner, law) pair, with
/// parameters in ranges around the paper's instances (§3: Figs. 1–4;
/// §4: Figs. 5–10), plus one dynamic Gamma instance per
/// [`GAMMA_SUB1_STRATA`] shape.
pub fn plan_instances(seed: u64) -> Vec<PlanInstance> {
    let mut rng = Rng::new(mix(seed, 0x91A));
    let m = PLAN_PER_LAW;
    let mut out = Vec::new();
    for j in 0..m {
        let r = strat(&mut rng, j, m, 8.0, 12.0);
        let lo = rng.range(0.5, 1.5);
        let hi = rng.range(0.45, 0.75) * r;
        let ckpts = [
            BoundedCkpt::Uniform { a: lo, b: hi },
            BoundedCkpt::Exponential {
                lambda: rng.range(0.3, 0.7),
                lo,
                hi,
            },
            BoundedCkpt::Normal {
                mu: rng.range(2.5, 4.0),
                sigma: rng.range(0.6, 1.2),
                lo,
                hi,
            },
            BoundedCkpt::LogNormal {
                mu: rng.range(0.8, 1.2),
                sigma: rng.range(0.25, 0.45),
                lo,
                hi,
            },
        ];
        out.extend(
            ckpts
                .into_iter()
                .map(|ckpt| PlanInstance::Preemptible { ckpt, r }),
        );
    }
    let normal = |rng: &mut Rng, mean: f64| TaskLaw::Normal {
        mu: mean,
        sigma: rng.range(0.1, 0.25) * mean,
    };
    let gamma = |rng: &mut Rng, mean: f64, shapes: (f64, f64)| {
        let shape = rng.range(shapes.0, shapes.1);
        TaskLaw::Gamma {
            shape,
            scale: mean / shape,
        }
    };
    let uniform = |rng: &mut Rng, mean: f64| {
        let half = rng.range(0.3, 0.7) * mean;
        TaskLaw::Uniform {
            a: mean - half,
            b: mean + half,
        }
    };
    for j in 0..m {
        for law in 0..3 {
            let s = scale(
                &mut rng,
                j,
                if law == 1 { (0.03, 0.1) } else { (0.05, 0.12) },
            );
            let task = match law {
                0 => normal(&mut rng, s.mean),
                1 => gamma(&mut rng, s.mean, (1.2, 3.0)),
                _ => TaskLaw::Poisson { lambda: s.mean },
            };
            out.push(PlanInstance::Static {
                task,
                ckpt_mu: s.ckpt_mu,
                ckpt_sigma: s.ckpt_sigma,
                r: s.r,
            });
        }
        let s = scale(&mut rng, j, (0.05, 0.12));
        out.push(PlanInstance::StaticConvolution {
            task: uniform(&mut rng, s.mean),
            ckpt_mu: s.ckpt_mu,
            ckpt_sigma: s.ckpt_sigma,
            r: s.r,
        });
        let s = scale(&mut rng, j, (0.05, 0.12));
        out.push(PlanInstance::StaticConvolution {
            task: lognormal_with_mean(s.mean, rng.range(0.2, 0.4)),
            ckpt_mu: s.ckpt_mu,
            ckpt_sigma: s.ckpt_sigma,
            r: s.r,
        });
        for law in 0..5 {
            let s = scale(
                &mut rng,
                j,
                if law == 1 { (0.03, 0.1) } else { (0.05, 0.12) },
            );
            let task = match law {
                0 => normal(&mut rng, s.mean),
                1 => gamma(&mut rng, s.mean, (1.0, 3.0)),
                2 => TaskLaw::Poisson { lambda: s.mean },
                3 => uniform(&mut rng, s.mean),
                _ => lognormal_with_mean(s.mean, rng.range(0.2, 0.4)),
            };
            out.push(PlanInstance::Dynamic {
                task,
                ckpt_mu: s.ckpt_mu,
                ckpt_sigma: s.ckpt_sigma,
                r: s.r,
            });
        }
    }
    // Each costs 0.3-1 s, so the seed only jitters them slightly.
    for k in GAMMA_SUB1_STRATA {
        let shape = k + rng.range(-0.005, 0.005);
        let r = rng.range(9.8, 10.2);
        let mean = rng.range(0.039, 0.041) * r;
        let ckpt_mu = rng.range(0.195, 0.205) * r;
        out.push(PlanInstance::Dynamic {
            task: TaskLaw::Gamma {
                shape,
                scale: mean / shape,
            },
            ckpt_mu,
            ckpt_sigma: rng.range(0.145, 0.155) * ckpt_mu,
            r,
        });
    }
    rng.shuffle(&mut out);
    out
}

fn lognormal_with_mean(mean: f64, cv: f64) -> TaskLaw {
    let sigma2 = (1.0 + cv * cv).ln();
    TaskLaw::LogNormal {
        mu: mean.ln() - sigma2 / 2.0,
        sigma: sigma2.sqrt(),
    }
}

/// Canonical text of an instance set (the determinism tests compare it).
pub fn render_instances(set: &[PlanInstance]) -> String {
    let mut out = String::new();
    for i in set {
        let _ = writeln!(out, "{i:?}");
    }
    out
}

// ---------------------------------------------------------------------
// Monte-Carlo configuration (mc_validate)
// ---------------------------------------------------------------------

/// Trials per Monte-Carlo batch (one operation of `mc_validate`).
pub const MC_BATCH_TRIALS: u64 = 8192;

/// The `mc_validate` configuration for `seed`: the order the fixed
/// instances take their turns in, and the RNG seed of every batch.
#[derive(Debug, Clone, PartialEq)]
pub struct McConfig {
    pub order: Vec<usize>,
    pub base_seed: u64,
    pub batch_trials: u64,
}

impl McConfig {
    pub fn new(seed: u64, instances: usize) -> Self {
        let mut rng = Rng::new(mix(seed, 0x3C));
        let mut order: Vec<usize> = (0..instances).collect();
        rng.shuffle(&mut order);
        Self {
            order,
            base_seed: rng.next_u64(),
            batch_trials: MC_BATCH_TRIALS,
        }
    }

    /// The RNG seed of batch `batch` of instance `instance`.
    pub fn batch_seed(&self, instance: usize, batch: u64) -> u64 {
        mix(mix(self.base_seed, instance as u64), batch)
    }

    pub fn render(&self) -> String {
        format!(
            "order={:?} base_seed={} batch_trials={}",
            self.order, self.base_seed, self.batch_trials
        )
    }
}
