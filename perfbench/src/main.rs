//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints host facts and sample counts, then one JSON result line:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}` with the
//! end-to-end metrics (`--trace 0`) or the per-layer ones (`--trace 1`).
//! Exits 1 when a correctness check fails, 2 on a usage or harness error.

use perfbench::{prepare, run, Opts, DEFAULT_SEED, WORKLOADS};
use std::os::unix::process::CommandExt;
use std::process::{Command, ExitCode};

/// Set in the measured run, which prepares nothing itself.
const PREPARED: &str = "PERFBENCH_PREPARED";

const USAGE: &str = "usage: perfbench --workload <decide_hot|decide_mix|plan_exact|mc_validate> \
[--seed <n>=42] [--seconds <s>=10] [--trace <0|1>=0] [--write-golden <path>]";

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts::new("", DEFAULT_SEED, 10.0);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag `{flag}` needs a value"))?;
        let bad = |what: &str| format!("flag `{flag}`: `{value}` is not {what}");
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(opts.seconds > 0.0 && opts.seconds.is_finite()) {
                    return Err(bad("a positive number"));
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--write-golden" => opts.write_golden = Some(value.into()),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Offline inputs (lattice artifacts, the served pool) are built or
    // verified here; the measured run then starts in a fresh image of the
    // same executable, so its peak RSS holds none of that memory.
    if std::env::var_os(PREPARED).is_none() {
        if let Err(e) = prepare(&opts) {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
        let err = match std::env::current_exe() {
            Ok(exe) => Command::new(exe).args(&args).env(PREPARED, "1").exec(),
            Err(e) => e,
        };
        eprintln!("perfbench: restarting for the measured run: {err}");
        return ExitCode::from(2);
    }
    let result = run(&opts).and_then(|out| out.result_line(opts.trace).map(|line| (out, line)));
    match result {
        Ok((out, line)) => {
            for fact in &out.facts {
                println!("{fact}");
            }
            for failure in &out.check_failures {
                eprintln!("CHECK FAILED: {failure}");
            }
            println!("{line}");
            if out.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
