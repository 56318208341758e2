//! `plan_exact`: in-process planner calls over a seeded instance set of
//! the paper's laws — quadrature, root finding and special functions,
//! with no serving and no sampling. Each call builds a fresh strategy
//! and cache, as a `resq plan-*` call does.

use crate::adapter::{self, Counters, PlanAnswer, SpanProbe};
use crate::gen::{self, PlanInstance, PLAN_KINDS};
use crate::setup::{self, Sampler};
use crate::trace::Recorder;
use crate::{overhead_share, stats, Opts, Outcome, Perturb, DEFAULT_SEED};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Preparations of the whole instance set per `setup_s` sample.
const SETUP_BLOCK: usize = 8;
/// The tail percentile over the instances' fastest calls.
const TAIL_Q: f64 = 0.9;

/// Answers of the default seed, recorded with `--write-golden`.
const GOLDEN: &str = include_str!("../golden/plan_exact_seed42.txt");
/// Agreement required with the golden answers (`n_opt` exactly).
pub const GOLDEN_REL_TOL: f64 = 1e-6;

const SPAN_NAMES: [&str; 5] = [
    "plan.preemptible",
    "plan.static",
    "plan.static_convolution",
    "plan.dynamic",
    "plan.dynamic_gamma_sub1",
];

/// Whole passes over the instance set, until `seconds` have passed.
#[derive(Default)]
struct Cycles {
    lat_ns: Vec<f64>,
    calls: u64,
    failed: u64,
    mismatches: u64,
    first_error: Option<String>,
    elapsed_s: f64,
}

fn cycles(
    set: &[PlanInstance],
    seconds: f64,
    answers: &mut [Option<PlanAnswer>],
    mut rec: Option<&mut Recorder>,
    mut sampler: Option<Sampler>,
) -> Result<(Cycles, Vec<f64>), String> {
    let mut c = Cycles::default();
    let start = Instant::now();
    let mut paused = Duration::ZERO;
    loop {
        for (i, inst) in set.iter().enumerate() {
            paused += setup::tick(&mut sampler)?;
            let span_start = rec.as_ref().map(|r| r.now());
            let t0 = Instant::now();
            let result = adapter::plan(inst);
            c.lat_ns.push(t0.elapsed().as_nanos() as f64);
            if let (Some(r), Some(s)) = (rec.as_deref_mut(), span_start) {
                let e = r.now();
                r.record(SPAN_NAMES[inst.kind()], s, e, None, c.calls);
            }
            c.calls += 1;
            match result {
                Ok(a) => match &answers[i] {
                    None => answers[i] = Some(a),
                    Some(first) if *first != a => c.mismatches += 1,
                    Some(_) => {}
                },
                Err(e) => {
                    c.failed += 1;
                    c.first_error
                        .get_or_insert(format!("instance {i} {inst:?}: {e}"));
                }
            }
        }
        if (start.elapsed() - paused).as_secs_f64() >= seconds {
            break;
        }
    }
    c.elapsed_s = (start.elapsed() - paused).as_secs_f64();
    Ok((c, sampler.map_or_else(Vec::new, Sampler::samples)))
}

fn fmt_opt<T: std::fmt::Display>(v: Option<T>) -> String {
    v.map_or("-".to_string(), |v| v.to_string())
}

/// The golden-file text for a set of answers.
pub fn render_golden(set: &[PlanInstance], answers: &[Option<PlanAnswer>]) -> String {
    let mut out = String::new();
    for (i, (inst, a)) in set.iter().zip(answers).enumerate() {
        let a = a.as_ref();
        let _ = writeln!(
            out,
            "{i}\t{}\t{}\t{}\t{}",
            PLAN_KINDS[inst.kind()],
            fmt_opt(a.and_then(|a| a.n_opt)),
            fmt_opt(a.and_then(|a| a.x)),
            fmt_opt(a.and_then(|a| a.value))
        );
    }
    out
}

/// Compares answers with the golden text: `n_opt` exactly, the rest to
/// [`GOLDEN_REL_TOL`].
pub fn golden_diff(
    golden: &str,
    set: &[PlanInstance],
    answers: &[Option<PlanAnswer>],
) -> Vec<String> {
    let want: Vec<&str> = golden.lines().collect();
    if want.len() != set.len() {
        return vec![format!(
            "golden has {} instances, the set {}",
            want.len(),
            set.len()
        )];
    }
    let got = render_golden(set, answers);
    let mut diffs = Vec::new();
    for (w, g) in want.iter().zip(got.lines()) {
        let (wf, gf): (Vec<&str>, Vec<&str>) = (w.split('\t').collect(), g.split('\t').collect());
        let same = wf.len() == gf.len()
            && wf[..3] == gf[..3]
            && wf[3..].iter().zip(&gf[3..]).all(|(a, b)| {
                match (a.parse::<f64>(), b.parse::<f64>()) {
                    (Ok(a), Ok(b)) => (a - b).abs() <= GOLDEN_REL_TOL * a.abs().max(b.abs()),
                    _ => a == b,
                }
            });
        if !same {
            diffs.push(format!("golden `{w}` vs answer `{g}`"));
        }
    }
    diffs
}

/// Checks outside the timed window.
fn check(opts: &Opts, set: &[PlanInstance], answers: &mut [Option<PlanAnswer>], out: &mut Outcome) {
    if opts.perturb == Some(Perturb::WInt) {
        for (inst, a) in set.iter().zip(answers.iter_mut()) {
            if let (PlanInstance::Dynamic { .. }, Some(PlanAnswer { x: Some(w), .. })) = (inst, a) {
                *w *= 1.0 + 1e-4;
            }
        }
    }
    for (i, (inst, a)) in set.iter().zip(answers.iter()).enumerate() {
        match a {
            None => out.fail(format!("instance {i} was never answered")),
            Some(a) => {
                if let Err(e) = adapter::plan_check(inst, a) {
                    out.fail(format!("instance {i} {inst:?}: {e}"));
                }
            }
        }
    }
    if opts.seed == DEFAULT_SEED {
        for d in golden_diff(GOLDEN, set, answers) {
            out.fail(d);
        }
    }
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let set = gen::plan_instances(opts.seed);

    let mut answers = vec![None; set.len()];
    let mut rec = Recorder::new();
    let (main, mut setup, traced) = if opts.trace {
        let half = opts.seconds / 2.0;
        let (untraced, _) = cycles(&set, half, &mut answers, None, None)?;
        let probe = SpanProbe::install();
        let before = Counters::capture();
        let (traced, _) = cycles(&set, half, &mut answers, Some(&mut rec), None)?;
        let delta = Counters::capture().since(&before);
        let spans = probe.drain();
        (untraced, Vec::new(), Some((traced, delta, spans)))
    } else {
        // Set-up a user pays: every instance's laws and strategy.
        let sampler = Sampler::new(opts.seconds, SETUP_BLOCK, || {
            let t = Instant::now();
            for inst in &set {
                adapter::plan_prepare(inst)?;
            }
            Ok(t.elapsed())
        });
        let (main, setup) = cycles(&set, opts.seconds, &mut answers, None, Some(sampler))?;
        out.metric("peak_rss_mb", crate::peak_rss_mb()?);
        (main, setup, None)
    };

    let all: Vec<&Cycles> = std::iter::once(&main)
        .chain(traced.as_ref().map(|t| &t.0))
        .collect();
    out.attempted = all.iter().map(|c| c.calls).sum();
    out.failed = all.iter().map(|c| c.failed).sum();
    if let Some(e) = all.iter().find_map(|c| c.first_error.clone()) {
        out.fail(format!("first failed call: {e}"));
    }
    if all.iter().any(|c| c.mismatches > 0) {
        out.fail("a planner answered the same instance differently on a later pass");
    }
    check(opts, &set, &mut answers, &mut out);
    if let Some(path) = &opts.write_golden {
        std::fs::write(path, render_golden(&set, &answers))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }

    let mut counts = [0usize; 5];
    for inst in &set {
        counts[inst.kind()] += 1;
    }
    out.fact(format!(
        "host: nproc={} cpus_online={} planner_threads=1; instance set of {}: {}",
        crate::nproc(),
        crate::cpus_online(),
        set.len(),
        PLAN_KINDS
            .iter()
            .zip(counts)
            .map(|(k, n)| format!("{k}={n}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));

    match traced {
        None => {
            // How fast the host runs changes from second to second; a call
            // takes milliseconds, so over several passes each instance
            // meets a quiet moment, while a change to the program moves
            // every call.
            let best = stats::fastest_each(&main.lat_ns, set.len(), TAIL_Q);
            out.metric("setup_s", stats::median(&mut setup));
            out.metric("op_p50_us", best.p50_ns / 1e3);
            out.metric("op_tail_us", best.tail_ns / 1e3);
            out.metric("ops_per_s", best.ops_per_s);
            out.fact(format!(
                "samples: planner_calls={} in {} passes, op = an instance's fastest call; op_tail={}; setup samples={}x{SETUP_BLOCK} {}",
                main.calls,
                main.calls as usize / set.len(),
                stats::tail_note(set.len(), TAIL_Q),
                setup.len(),
                stats::spread_note(&mut setup)
            ));
        }
        Some((t, delta, spans)) => {
            for (kind, span) in PLAN_KINDS.iter().zip(SPAN_NAMES) {
                let mut v = rec.nanos_of(span);
                let ms = if v.is_empty() {
                    0.0
                } else {
                    stats::median(&mut v) / 1e6
                };
                out.metric(&format!("planner.{kind}_ms"), ms);
            }
            let per_op = |name: &str| delta.get(name) as f64 / t.calls as f64;
            out.metric("numerics.quad_evals_per_op", per_op("quadrature_evals"));
            out.metric("numerics.root_iters_per_op", per_op("root_iterations"));
            out.metric(
                "numerics.optimizer_iters_per_op",
                per_op("optimizer_iterations"),
            );
            let (hits, misses) = (
                delta.get("solver_cache_hits_total"),
                delta.get("solver_cache_misses_total"),
            );
            out.metric(
                "planner.kernel_cache_hit_ratio",
                if hits + misses == 0 {
                    0.0
                } else {
                    hits as f64 / (hits + misses) as f64
                },
            );
            let quad: f64 = spans
                .iter()
                .filter(|(p, _, _)| p.ends_with("quad") && p.matches("quad").count() == 1)
                .map(|(_, _, n)| *n as f64)
                .sum();
            out.metric(
                "numerics.quad_self_share",
                quad / t.lat_ns.iter().sum::<f64>(),
            );
            out.metric(
                "trace.overhead_share",
                overhead_share(
                    main.calls as f64 / main.elapsed_s,
                    t.calls as f64 / t.elapsed_s,
                ),
            );
            crate::trace::write_for(&rec, opts, &mut out)?;
        }
    }
    Ok(out)
}
