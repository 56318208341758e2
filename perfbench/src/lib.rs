//! `perfbench`: the repository's benchmark. Four seeded workloads drive
//! the decision daemon, the exact planners and the Monte-Carlo engine;
//! an untraced run reports the end-to-end metrics, a traced run the
//! per-layer ones (see `perfbench/README.md`).

pub mod adapter;
pub mod decide;
pub mod gen;
pub mod lattices;
pub mod mc;
pub mod plan;
pub mod setup;
pub mod stats;
pub mod trace;
pub mod wire;

use std::fmt::Write as _;
use std::path::PathBuf;

/// The seed whose `plan_exact` answers are pinned by the golden file.
pub const DEFAULT_SEED: u64 = 42;

pub const WORKLOADS: [&str; 4] = ["decide_hot", "decide_mix", "plan_exact", "mc_validate"];

/// End-to-end metrics, reported by every untraced run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_p50_us", "us"),
    ("op_tail_us", "us"),
    ("ops_per_s", "1/s"),
];

/// Per-layer metrics, reported by every traced run (zero where the
/// workload bypasses the layer).
pub const PER_LAYER: [(&str, &str); 43] = [
    ("http.wire_p50_us", "us"),
    ("http.wire_p99_us", "us"),
    ("serve.handler_us", "us"),
    ("serve.parse_us", "us"),
    ("serve.render_us", "us"),
    ("serve.self_us", "us"),
    ("serve.attributed_share", "share"),
    ("serve.rejected", "count"),
    ("serve.timeouts", "count"),
    ("lattice.lookup_us", "us"),
    ("lattice.hit_ratio", "share"),
    ("lattice.out_of_grid_share", "share"),
    ("lattice.uncalibrated_share", "share"),
    ("lattice.served_cells_share.uniform", "share"),
    ("lattice.served_cells_share.exponential", "share"),
    ("lattice.served_cells_share.normal", "share"),
    ("lattice.served_cells_share.lognormal", "share"),
    ("lattice.build_s.uniform", "s"),
    ("lattice.build_s.exponential", "s"),
    ("lattice.build_s.normal", "s"),
    ("lattice.build_s.lognormal", "s"),
    ("planner.solve_exact_ms", "ms"),
    ("planner.preemptible_ms", "ms"),
    ("planner.static_ms", "ms"),
    ("planner.static_convolution_ms", "ms"),
    ("planner.dynamic_ms", "ms"),
    ("planner.dynamic_gamma_sub1_ms", "ms"),
    ("planner.kernel_cache_hit_ratio", "share"),
    ("numerics.quad_evals_per_op", "count"),
    ("numerics.root_iters_per_op", "count"),
    ("numerics.optimizer_iters_per_op", "count"),
    ("numerics.quad_self_share", "share"),
    ("dist.truncnormal_ns", "ns"),
    ("dist.gamma_ns", "ns"),
    ("dist.poisson_ns", "ns"),
    ("dist.exponential_ns", "ns"),
    ("sim.plain_trial_ns", "ns"),
    ("sim.faulty_trial_ns", "ns"),
    ("sim.failstop_trial_ns", "ns"),
    ("sim.runner_overhead_share", "share"),
    ("sim.rng_derivations_per_trial", "count"),
    ("sim.ckpt_attempts_per_trial", "count"),
    ("trace.overhead_share", "share"),
];

/// Deliberate corruptions that prove a correctness check is live: each
/// must make the run fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Perturb {
    /// Flip one byte of a wire answer (decide workloads).
    AnswerByte,
    /// Scale every dynamic `W_int` by `1 + 1e-4` (plan_exact).
    WInt,
    /// Shift a static instance's Monte-Carlo mean by 6 standard errors.
    McMean,
}

#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub perturb: Option<Perturb>,
    /// Lattice cache root (default: next to the executable).
    pub lattice_root: Option<PathBuf>,
    /// Nodes per lattice axis instead of the family defaults (tests).
    pub lattice_points: Option<usize>,
    /// Where `plan_exact` writes its answers in the golden format.
    pub write_golden: Option<PathBuf>,
}

impl Opts {
    pub fn new(workload: &str, seed: u64, seconds: f64) -> Self {
        Self {
            workload: workload.to_string(),
            seed,
            seconds,
            trace: false,
            perturb: None,
            lattice_root: None,
            lattice_points: None,
            write_golden: None,
        }
    }
}

/// The result of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness checks (empty when correct).
    pub check_failures: Vec<String>,
    pub metrics: Vec<(String, f64)>,
    /// Host facts and sample counts, printed before the result line.
    pub facts: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.check_failures.is_empty() && self.failed == 0
    }

    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    pub fn fail(&mut self, msg: impl Into<String>) {
        self.check_failures.push(msg.into());
    }

    pub fn fact(&mut self, line: impl Into<String>) {
        self.facts.push(line.into());
    }

    /// The result line: every metric of the run's set (end-to-end or
    /// per-layer) in the declared order. A missing or non-finite value is
    /// an error in the benchmark itself.
    pub fn result_line(&self, trace: bool) -> Result<String, String> {
        let set: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let mut out = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, unit)) in set.iter().enumerate() {
            let v = self
                .metrics
                .iter()
                .rev()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .ok_or_else(|| format!("metric `{name}` was not measured"))?;
            if !v.is_finite() {
                return Err(format!("metric `{name}` is not finite ({v})"));
            }
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}");
        }
        out.push_str("}}");
        Ok(out)
    }
}

/// CPUs this process may run on (`nproc`; 1 under `run.py`'s pinning).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The host's online CPUs, e.g. `0-1` (`?` when unknown).
pub fn cpus_online() -> String {
    std::fs::read_to_string("/sys/devices/system/cpu/online")
        .map_or("?".to_string(), |s| s.trim().to_string())
}

/// Peak resident set (`VmHWM`) in MB. Workloads read it as soon as the
/// measured window ends, so the checks that follow do not count.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Fills every per-layer metric the workload did not measure with 0:
/// the workload bypasses that layer.
pub fn zero_bypassed_layers(out: &mut Outcome) {
    for (name, _) in PER_LAYER {
        if !out.metrics.iter().any(|(n, _)| n == name) {
            out.metric(name, 0.0);
        }
    }
}

/// Runs one workload.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let mut out = match opts.workload.as_str() {
        "decide_hot" => decide::run(opts, adapter::Proto::InProcess)?,
        "decide_mix" => decide::run(opts, adapter::Proto::Http)?,
        "plan_exact" => plan::run(opts)?,
        "mc_validate" => mc::run(opts)?,
        w => {
            return Err(format!(
                "unknown workload `{w}` (one of {})",
                WORKLOADS.join(", ")
            ))
        }
    };
    if opts.trace {
        zero_bypassed_layers(&mut out);
    }
    Ok(out)
}

/// Builds the offline inputs a run of `opts.workload` reads, unless they
/// are cached: the lattice artifacts and `decide_hot`'s served query
/// pool. The memory this takes stays with the calling process, so the
/// measured run should start in a fresh one.
pub fn prepare(opts: &Opts) -> Result<(), String> {
    match opts.workload.as_str() {
        "decide_hot" => decide::prepare(opts, adapter::Proto::InProcess),
        "decide_mix" => decide::prepare(opts, adapter::Proto::Http),
        _ => Ok(()),
    }
}

/// `1 − traced / untraced` throughput: the share of throughput the
/// benchmark's own tracing costs.
pub fn overhead_share(untraced_per_s: f64, traced_per_s: f64) -> f64 {
    1.0 - traced_per_s / untraced_per_s
}
