//! The correctness checks are live: each deliberate corruption fails the
//! run, and the same run without it passes. Run with `--release` (the
//! runs solve and simulate for real).

use perfbench::plan::{golden_diff, render_golden, GOLDEN_REL_TOL};
use perfbench::{adapter, gen, run, Opts, Perturb};
use std::path::PathBuf;

fn opts(workload: &str, seed: u64, seconds: f64, perturb: Option<Perturb>) -> Opts {
    let mut o = Opts::new(workload, seed, seconds);
    o.perturb = perturb;
    // Coarse lattices keep the decide runs' offline build to seconds.
    o.lattice_root = Some(PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("checks-lattices"));
    o.lattice_points = Some(3);
    o
}

fn failures(o: &Opts) -> Vec<String> {
    let out = run(o).expect("the run completes");
    for f in &out.check_failures {
        println!("check failed: {f}");
    }
    assert_eq!(out.failed, 0, "no operation fails");
    out.check_failures
}

fn correct(o: &Opts) -> bool {
    failures(o).is_empty()
}

#[test]
fn flipped_answer_byte_fails_decide() {
    assert!(correct(&opts("decide_mix", 3, 0.5, None)));
    assert!(!correct(&opts(
        "decide_mix",
        3,
        0.5,
        Some(Perturb::AnswerByte)
    )));
}

#[test]
fn perturbed_threshold_fails_plan_exact() {
    // A seed without a golden file: only the threshold equation
    // E[W_C](W_int) = E[W_+1](W_int) can catch the scaled W_int.
    let seed = 7;
    assert!(correct(&opts("plan_exact", seed, 0.01, None)));
    let failed = failures(&opts("plan_exact", seed, 0.01, Some(Perturb::WInt)));
    assert!(!failed.is_empty());
    assert!(
        failed
            .iter()
            .all(|f| f.contains("E[W_C](") && f.contains("E[W_+1]")),
        "every failure comes from the threshold equation: {failed:?}"
    );
}

#[test]
fn shifted_mc_mean_fails_mc_validate() {
    assert!(correct(&opts("mc_validate", 3, 0.5, None)));
    assert!(!correct(&opts(
        "mc_validate",
        3,
        0.5,
        Some(Perturb::McMean)
    )));
}

#[test]
fn golden_tolerates_1e7_but_not_1e5() {
    let set = gen::plan_instances(5);
    let answers: Vec<_> = set
        .iter()
        .take(6)
        .map(|i| Some(adapter::plan(i).expect("solves")))
        .collect();
    let set = &set[..6];
    let golden = render_golden(set, &answers);
    assert!(golden_diff(&golden, set, &answers).is_empty());
    let scaled = |f: f64| -> Vec<_> {
        answers
            .iter()
            .map(|a| {
                a.map(|mut a| {
                    a.x = a.x.map(|x| x * f);
                    a.value = a.value.map(|v| v * f);
                    a
                })
            })
            .collect()
    };
    assert!(golden_diff(&golden, set, &scaled(1.0 + GOLDEN_REL_TOL / 10.0)).is_empty());
    assert!(!golden_diff(&golden, set, &scaled(1.0 + GOLDEN_REL_TOL * 10.0)).is_empty());
}
