//! Generator determinism: the same seed gives byte-identical inputs, a
//! different seed different ones.

use perfbench::gen::{
    hot_pool_candidates, hot_queries, plan_instances, render_instances, Axis, McConfig, MixStream,
    Placement, PlanInstance, GAMMA_SUB1_STRATA, PLAN_KINDS,
};

fn axis(lo: f64, hi: f64) -> Axis {
    Axis { lo, hi }
}

/// The default lattice axes of uniform, exponential, normal, lognormal.
fn default_axes() -> Vec<Vec<Axis>> {
    let ckpt = axis(0.05, 0.30);
    vec![
        vec![axis(0.02, 0.20), axis(0.02, 0.20), ckpt],
        vec![axis(0.05, 0.30), ckpt],
        vec![axis(0.05, 0.30), axis(0.05, 0.30), ckpt],
        vec![axis(0.05, 0.30), axis(0.05, 0.30), ckpt],
    ]
}

fn mix_text(seed: u64, n: usize) -> String {
    let mut s = MixStream::new(seed, default_axes());
    (0..n)
        .map(|_| {
            let r = s.next_request().expect("the stream is endless");
            format!("{} {:?} {}\n", r.session, r.placement, r.query.body())
        })
        .collect()
}

fn hot_text(seed: u64) -> String {
    let pool = hot_pool_candidates(&default_axes()[1], 2560);
    hot_queries(seed, &pool, 512)
        .iter()
        .map(|q| q.body() + "\n")
        .collect()
}

#[test]
fn decide_mix_sessions_repeat_per_seed() {
    assert_eq!(mix_text(7, 2000), mix_text(7, 2000));
    assert_ne!(mix_text(7, 2000), mix_text(8, 2000));
}

#[test]
fn a_finite_mix_stream_is_the_endless_ones_first_sessions() {
    let text = |r: perfbench::gen::MixRequest| format!("{} {}\n", r.session, r.query.body());
    let mut finite = MixStream::sessions(7, default_axes(), 64);
    let kept: String = std::iter::from_fn(|| finite.next_request())
        .map(text)
        .collect();
    let mut endless = MixStream::new(7, default_axes());
    let mut want = String::new();
    let mut counts = [0usize; 64];
    // The 64 sessions end long before 2000 requests of the endless stream.
    for _ in 0..2000 {
        let r = endless.next_request().expect("the stream is endless");
        if r.session < 64 {
            counts[r.session as usize] += 1;
            want += &text(r);
        }
    }
    assert_eq!(kept, want);
    assert!(counts.iter().all(|&n| n > 0), "every session is asked");
    assert!(finite.next_request().is_none(), "the stream stays ended");
}

#[test]
fn decide_hot_queries_repeat_per_seed() {
    assert_eq!(hot_text(7), hot_text(7));
    assert_ne!(hot_text(7), hot_text(8));
    let pool = hot_pool_candidates(&default_axes()[1], 2560);
    let qs = hot_queries(7, &pool, 512);
    for (i, a) in qs.iter().enumerate() {
        assert!(
            qs[i + 1..].iter().all(|b| b.body() != a.body()),
            "queries are distinct"
        );
    }
}

#[test]
fn plan_instance_sets_repeat_per_seed() {
    assert_eq!(
        render_instances(&plan_instances(7)),
        render_instances(&plan_instances(7))
    );
    assert_ne!(
        render_instances(&plan_instances(7)),
        render_instances(&plan_instances(8))
    );
}

#[test]
fn plan_set_covers_every_planner_and_the_gamma_shapes() {
    let set = plan_instances(42);
    let mut counts = [0usize; PLAN_KINDS.len()];
    for i in &set {
        counts[i.kind()] += 1;
    }
    assert!(counts.iter().all(|&c| c > 0), "{counts:?}");
    assert_eq!(counts[4], GAMMA_SUB1_STRATA.len());
    for i in &set {
        if let PlanInstance::Dynamic {
            task: perfbench::gen::TaskLaw::Gamma { shape, .. },
            ..
        } = i
        {
            assert!(*shape >= 0.7, "k≈0.55 solves take minutes: shape {shape}");
        }
    }
}

#[test]
fn mc_configs_repeat_per_seed() {
    assert_eq!(McConfig::new(7, 8).render(), McConfig::new(7, 8).render());
    assert_ne!(McConfig::new(7, 8).render(), McConfig::new(8, 8).render());
    let c = McConfig::new(7, 8);
    assert_ne!(c.batch_seed(0, 0), c.batch_seed(0, 1));
    assert_ne!(c.batch_seed(0, 0), c.batch_seed(1, 0));
}

/// Prints the population's placement shares (a run adds the lattice's
/// hit/uncalibrated split of the in-grid share). Every class is present.
#[test]
fn decide_mix_population_shares() {
    for seed in [42, 7] {
        let mut s = MixStream::new(seed, default_axes());
        let mut counts = [0usize; 3];
        let n = 5000;
        for _ in 0..n {
            counts[match s.next_request().expect("the stream is endless").placement {
                Placement::InGrid => 0,
                Placement::OutOfGrid => 1,
                Placement::OffRatio => 2,
            }] += 1;
        }
        let share = |c: usize| c as f64 / n as f64;
        println!(
            "seed {seed}: in_grid={:.3} out_of_grid={:.3} off_ratio={:.3}",
            share(counts[0]),
            share(counts[1]),
            share(counts[2])
        );
        assert!(counts.iter().all(|&c| share(c) > 0.1), "{counts:?}");
    }
}
