//! The repository's benchmark: one workload per process, single-threaded
//! (`exec::ExecMode::Sequential`), a closed loop over a fixed, seeded list
//! of ops.
//!
//! ```text
//! perfbench --workload <flow-small|flow-paper|atpg-distance|service-tenants>
//!           --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics; with `--trace 1`
//! the per-layer metrics of a separate traced run. The last line of
//! standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}` whose metrics map each
//! name to its value; `run.py` attaches the units. The line before it
//! carries diagnostics (host-speed probe, exact-count guard and, untraced,
//! the median and p90 of all latencies). `--smoke` runs a handful of ops
//! for the self-test.

mod atpg;
mod flow;
mod layers;
mod measure;
mod service;

use measure::{host_probe_ms, Outcome, RunConfig};

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <flow-small|flow-paper|atpg-distance|service-tenants> \
         --seed <n> --seconds <s> --trace <0|1> [--smoke]"
    );
    std::process::exit(2);
}

fn parse() -> (String, RunConfig) {
    let mut workload = None;
    let mut cfg = RunConfig {
        seed: 0,
        seconds: 0,
        trace: false,
        smoke: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            cfg.smoke = true;
            continue;
        }
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        let number = || -> u64 {
            value
                .parse()
                .unwrap_or_else(|_| usage(&format!("{flag} takes a whole number")))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => cfg.seed = number(),
            "--seconds" => cfg.seconds = number(),
            "--trace" => cfg.trace = number() != 0,
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    (workload, cfg)
}

fn main() {
    let (workload, cfg) = parse();
    let probe_start = host_probe_ms();
    let outcome: Outcome = match workload.as_str() {
        "flow-small" => flow::run(flow::Design::Small, &cfg),
        "flow-paper" => flow::run(flow::Design::Paper, &cfg),
        "atpg-distance" => atpg::run(&cfg),
        "service-tenants" => service::run(&cfg),
        other => usage(&format!("unknown workload {other}")),
    };
    let probe_end = host_probe_ms();

    let correct = outcome.failed == 0 && outcome.guard_ok;
    let guard: Vec<String> = outcome
        .guard
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    let notes: Vec<String> = outcome
        .notes
        .iter()
        .map(|m| format!(", \"{}\": {:?}", m.name, m.value))
        .collect();
    println!(
        "{{\"diagnostics\": {{\"host_probe_ms\": {{\"start\": {probe_start}, \"end\": {probe_end}}}, \
         \"guard_ok\": {}, \"guard\": {{{}}}{}}}}}",
        outcome.guard_ok,
        guard.join(", "),
        notes.concat()
    );
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "metric {} is not finite", m.name);
            format!("\"{}\": {:?}", m.name, m.value)
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
