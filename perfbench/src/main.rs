//! `dredbox-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! --out-dir <dir>`
//!
//! With `--trace 0` it times untraced replays of the workload and prints
//! the end-to-end metrics; with `--trace 1` it runs the traced pass and
//! prints the per-layer metrics. Either way the last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! The line before it, `details {...}`, carries the results that are not
//! bounded metrics (simulated outcomes and sample counts). The exit code
//! is non-zero when any correctness check failed. `perfbench/run.py`
//! builds this binary and is the command to run.

mod e2e;
mod host;
mod layers;
mod metrics;
mod redrive;
mod relay;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use workloads::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    out_dir: PathBuf,
}

fn parse() -> Result<Args, String> {
    let mut raw = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut out_dir = None;
    while let Some(flag) = raw.next() {
        let value = raw.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::by_name(&value, 1).ok_or(format!(
                    "unknown workload {value}; expected one of {:?}",
                    workloads::NAMES
                ))?)
            }
            "--seed" => seed = Some(value.parse().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(bad)? != 0),
            "--out-dir" => out_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.ok_or("--trace is required")?,
        out_dir: out_dir.ok_or("--out-dir is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let w = &args.workload;
    let outcome = if args.trace {
        if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
            eprintln!("perfbench: {}: {e}", args.out_dir.display());
            return ExitCode::from(2);
        }
        let spans = args.out_dir.join(format!("{}.spans.tsv", w.name));
        layers::run(w, args.seed, &spans)
    } else {
        e2e::run(w, args.seed, args.seconds)
    };

    println!(
        "workload {} seed {} ({}; {} VMs, {} rack(s))",
        w.name,
        args.seed,
        if args.trace {
            "traced pass"
        } else {
            "end-to-end pass"
        },
        w.spec.vm_count,
        w.spec.system.racks
    );
    for note in &outcome.notes {
        println!("{note}");
    }
    for m in outcome.metrics.0.iter().chain(&outcome.details.0) {
        println!("{:<36} {:>18.6} {}", m.name, m.value, m.unit);
    }
    println!("details {}", outcome.details.to_json());
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed,
        outcome.metrics.to_json()
    );
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

    /// The `"name"` values inside the `key` array of BENCHMARK.json.
    fn declared(key: &str) -> Vec<String> {
        let start = BENCHMARK
            .find(&format!("\"{key}\""))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
        let body = &BENCHMARK[start..];
        let body = &body[..body.find(']').expect("the array closes")];
        body.split("\"name\"")
            .skip(1)
            .map(|rest| rest.split('"').nth(1).expect("a quoted name").to_owned())
            .collect()
    }

    fn emitted(outcome: &e2e::Outcome) -> Vec<String> {
        outcome.metrics.0.iter().map(|m| m.name.clone()).collect()
    }

    #[test]
    fn declared_workloads_exist() {
        for name in declared("workloads") {
            assert!(workloads::NAMES.contains(&name.as_str()), "{name}");
        }
    }

    #[test]
    fn every_declared_metric_is_emitted_on_every_workload() {
        let (end_to_end, per_layer) = (declared("end_to_end"), declared("per_layer"));
        for name in end_to_end.iter().chain(&per_layer) {
            assert!(metrics::valid_name(name), "{name}");
        }
        let dir =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.bench_build/perfbench-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        for name in workloads::NAMES {
            // A small fraction of each workload keeps the test quick.
            let w = Workload::by_name(name, 200).expect("known workload");
            let e2e = e2e::run(&w, 5, 1);
            assert_eq!(e2e.failed, 0, "{name}: {:?}", e2e.notes);
            assert_eq!(emitted(&e2e), end_to_end, "{name} end-to-end");
            let layers = layers::run(&w, 5, &dir.join(format!("{name}.tsv")));
            assert_eq!(layers.failed, 0, "{name}: {:?}", layers.notes);
            assert_eq!(emitted(&layers), per_layer, "{name} per-layer");
        }
        std::fs::remove_dir_all(&dir).expect("temp dir removed");
    }
}
