//! `mc_validate`: one worker thread runs seeded trial batches of fixed,
//! pre-recorded policies (figures 8–10 under threshold and static plans,
//! a fault-injected fig-8, a fail-stop run under a Young/Daly policy),
//! so only sampling and trial kernels run — never a planner. An
//! operation is one trial; latencies are timed per round (one batch of
//! every instance) and reported per trial.

use crate::adapter::{self, Counters, McInstance, McKind, McReference};
use crate::gen::{self, McConfig};
use crate::setup::{self, Sampler};
use crate::stats::{self, Pooled, Slice, Slicer};
use crate::trace::Recorder;
use crate::{overhead_share, Opts, Outcome, Perturb};
use std::time::{Duration, Instant};

/// The tail percentile: a slice times about a hundred rounds.
const TAIL_Q: f64 = 0.9;
/// Slice length: the run reports its fastest slices (see [`Slicer`]). A
/// round takes about 25 ms, so p90 needs slices of 2.5 s or more.
const SLICE_S: f64 = 3.0;
/// Simulator builds per `setup_s` sample: one takes microseconds.
const SETUP_BLOCK: usize = 64;
/// Standard errors a static mean may sit from its analytic value (and a
/// dynamic mean below its static optimum).
pub const SE_BAND: f64 = 4.0;
/// Variates per law for the `dist.<law>_ns` probes.
const DIST_VARIATES: usize = 1 << 20;
/// Trials for the runner-versus-bare-loop probe.
const OVERHEAD_TRIALS: u64 = 1 << 17;

const KINDS: [(McKind, &str, &str); 3] = [
    (McKind::Plain, "mc.batch.plain", "sim.plain_trial_ns"),
    (McKind::Faulty, "mc.batch.faulty", "sim.faulty_trial_ns"),
    (
        McKind::Failstop,
        "mc.batch.failstop",
        "sim.failstop_trial_ns",
    ),
];

fn span_name(kind: McKind) -> &'static str {
    KINDS
        .iter()
        .find(|k| k.0 == kind)
        .expect("every kind is listed")
        .1
}

#[derive(Default)]
struct Window {
    /// Nanoseconds per trial of each round (one batch of every
    /// instance), by slice.
    slices: Vec<Slice>,
    batches: u64,
    trials: u64,
    elapsed_s: f64,
}

/// Whole rounds — one batch of every instance, in the configured order —
/// until `seconds` have passed.
fn window(
    instances: &[McInstance],
    cfg: &McConfig,
    next_batch: &mut [u64],
    pooled: &mut [Pooled],
    seconds: f64,
    mut rec: Option<&mut Recorder>,
    mut sampler: Option<Sampler>,
) -> Result<(Window, Vec<f64>), String> {
    let mut w = Window::default();
    let mut slicer = Slicer::new(SLICE_S, TAIL_Q);
    let start = Instant::now();
    let mut paused = Duration::ZERO;
    loop {
        let active_s = (start.elapsed() - paused).as_secs_f64();
        if active_s >= seconds {
            break;
        }
        slicer.tick(active_s);
        paused += setup::tick(&mut sampler)?;
        let round = Instant::now();
        let mut round_trials = 0;
        for &i in &cfg.order {
            let inst = &instances[i];
            let span_start = rec.as_ref().map(|r| r.now());
            let b = inst.run_batch(cfg.batch_trials, cfg.batch_seed(i, next_batch[i]));
            if let (Some(r), Some(s)) = (rec.as_deref_mut(), span_start) {
                let e = r.now();
                r.record(span_name(inst.kind), s, e, None, w.batches);
            }
            next_batch[i] += 1;
            pooled[i].add_batch(b.n, b.mean, b.std_dev);
            round_trials += b.n;
            w.batches += 1;
        }
        slicer.add(
            round.elapsed().as_nanos() as f64 / round_trials as f64,
            round_trials,
        );
        w.trials += round_trials;
    }
    w.elapsed_s = (start.elapsed() - paused).as_secs_f64();
    w.slices = slicer.finish(w.elapsed_s);
    Ok((w, sampler.map_or_else(Vec::new, Sampler::samples)))
}

/// Each instance's pooled mean against its analytic reference.
pub fn check_means(
    instances: &[McInstance],
    pooled: &[Pooled],
    out: &mut Outcome,
) -> Result<(), String> {
    for (inst, p) in instances.iter().zip(pooled) {
        let (mean, se) = (p.mean, p.std_error());
        if p.n < 2 {
            out.fail(format!("{}: only {} trials ran", inst.name, p.n));
            continue;
        }
        match inst.reference()? {
            McReference::Equals(v) if (mean - v).abs() > SE_BAND * se => out.fail(format!(
                "{}: mean {mean} is {:.1} standard errors ({se:.2e}) from the analytic {v}",
                inst.name,
                (mean - v).abs() / se
            )),
            McReference::AtLeast(v) if mean < v - SE_BAND * se => out.fail(format!(
                "{}: dynamic mean {mean} is below the static optimum {v} by more than {SE_BAND} standard errors ({se:.2e})",
                inst.name
            )),
            McReference::Within(lo, hi) if !(lo..=hi).contains(&mean) => {
                out.fail(format!("{}: mean {mean} outside [{lo}, {hi}]", inst.name))
            }
            _ => {}
        }
    }
    Ok(())
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let instances = adapter::mc_instances();
    let cfg = McConfig::new(opts.seed, instances.len());
    let mut next_batch = vec![0u64; instances.len()];
    let mut pooled = vec![Pooled::default(); instances.len()];

    let mut rec = Recorder::new();
    let (main, mut setup, traced) = if opts.trace {
        let half = opts.seconds / 2.0;
        let (untraced, _) = window(
            &instances,
            &cfg,
            &mut next_batch,
            &mut pooled,
            half,
            None,
            None,
        )?;
        let before = Counters::capture();
        let (traced, _) = window(
            &instances,
            &cfg,
            &mut next_batch,
            &mut pooled,
            half,
            Some(&mut rec),
            None,
        )?;
        let delta = Counters::capture().since(&before);
        (untraced, Vec::new(), Some((traced, delta)))
    } else {
        // Set-up a user pays: building the simulators.
        let sampler = Sampler::new(opts.seconds, SETUP_BLOCK, || {
            let t = Instant::now();
            std::hint::black_box(adapter::mc_instances());
            Ok(t.elapsed())
        });
        let (main, setup) = window(
            &instances,
            &cfg,
            &mut next_batch,
            &mut pooled,
            opts.seconds,
            None,
            Some(sampler),
        )?;
        out.metric("peak_rss_mb", crate::peak_rss_mb()?);
        (main, setup, None)
    };
    out.attempted = main.batches + traced.as_ref().map_or(0, |t| t.0.batches);

    if opts.perturb == Some(Perturb::McMean) {
        // Shift away from the analytic value, so the shifted mean sits at
        // least 6 standard errors from it.
        let (i, v) = instances
            .iter()
            .enumerate()
            .find_map(|(i, inst)| match inst.reference() {
                Ok(McReference::Equals(v)) => Some((i, v)),
                _ => None,
            })
            .expect("a static instance exists");
        let away = if pooled[i].mean >= v { 1.0 } else { -1.0 };
        pooled[i].mean += away * 6.0 * pooled[i].std_error();
    }
    check_means(&instances, &pooled, &mut out)?;
    out.fact(format!(
        "host: nproc={} cpus_online={} mc_threads=1; {} instances, {} trials per batch, {}",
        crate::nproc(),
        crate::cpus_online(),
        instances.len(),
        cfg.batch_trials,
        cfg.render()
    ));
    for (inst, p) in instances.iter().zip(&pooled) {
        out.fact(format!(
            "instance {}: trials={} mean={:.5} se={:.2e}",
            inst.name,
            p.n,
            p.mean,
            p.std_error()
        ));
    }

    match traced {
        None => {
            let best = stats::best(&main.slices);
            out.metric("setup_s", stats::median(&mut setup));
            out.metric("op_p50_us", best.p50_ns / 1e3);
            out.metric("op_tail_us", best.tail_ns / 1e3);
            out.metric("ops_per_s", best.ops_per_s);
            out.fact(format!(
                "samples: {} slice(s) of {SLICE_S} s, each with at least {} rounds (op = one trial, timed per round of one batch per instance) op_tail={}; setup samples={}x{SETUP_BLOCK} {}",
                main.slices.len(),
                best.samples,
                stats::tail_note(best.samples as usize, TAIL_Q),
                setup.len(),
                stats::spread_note(&mut setup)
            ));
        }
        Some((t, delta)) => {
            for (_, span, metric) in KINDS {
                let (mut ns, mut trials) = (0.0, 0u64);
                for s in rec.spans().iter().filter(|s| s.name == span) {
                    ns += s.nanos() as f64;
                    trials += cfg.batch_trials;
                }
                out.metric(metric, if trials == 0 { 0.0 } else { ns / trials as f64 });
            }
            let faulty_trials = rec
                .spans()
                .iter()
                .filter(|s| s.name == span_name(McKind::Faulty))
                .count() as u64
                * cfg.batch_trials;
            out.metric(
                "sim.ckpt_attempts_per_trial",
                delta.get("ckpt_attempts_total") as f64 / faulty_trials.max(1) as f64,
            );
            out.metric(
                "sim.rng_derivations_per_trial",
                delta.get("rng_stream_derivations") as f64 / t.trials as f64,
            );
            for law in adapter::MC_LAWS {
                out.metric(
                    &format!("dist.{law}_ns"),
                    adapter::dist_ns_per_variate(law, DIST_VARIATES, gen::mix(opts.seed, 7)),
                );
            }
            let (runner, bare) =
                adapter::runner_and_bare_ns(OVERHEAD_TRIALS, gen::mix(opts.seed, 9));
            out.metric("sim.runner_overhead_share", (runner - bare) / runner);
            out.metric(
                "trace.overhead_share",
                overhead_share(
                    main.trials as f64 / main.elapsed_s,
                    t.trials as f64 / t.elapsed_s,
                ),
            );
            crate::trace::write_for(&rec, opts, &mut out)?;
        }
    }
    Ok(out)
}
