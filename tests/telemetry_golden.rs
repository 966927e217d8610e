//! Golden-file tests: telemetry exports are byte-stable.
//!
//! The collector records only simulation-time-keyed data by default
//! (wall-clock capture is opt-in and off here), every export sorts by
//! deterministic keys, and the JSON writer formats numbers reproducibly —
//! so a fixed-seed run must reproduce its exports byte-for-byte. These
//! tests pin that contract: any accidental nondeterminism (map iteration
//! order, wall-time leakage, float formatting drift) shows up as a diff.
//!
//! To regenerate after an intentional model or exporter change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test telemetry_golden
//! ```

use symbad_core::flow::run_full_flow_instrumented;
use symbad_core::level3;
use symbad_core::workload::Workload;
use symbad_suite::testkit::assert_golden;
use telemetry::{chrome_trace, Collector, SharedInstrument};

#[test]
fn level3_chrome_trace_is_byte_identical() {
    let collector = Collector::shared();
    let instr: SharedInstrument = collector.clone();
    let report = level3::run_instrumented(&Workload::small(), &instr).expect("level-3 run");
    assert!(report.matches_reference);

    let trace = chrome_trace(&collector);
    // Wall-clock capture is off: every span's wall_us arg must be zero.
    assert!(!trace.is_empty());
    assert_golden("level3_trace.json", &trace);

    // Re-running the same seed reproduces the export exactly.
    let collector2 = Collector::shared();
    let instr2: SharedInstrument = collector2.clone();
    level3::run_instrumented(&Workload::small(), &instr2).expect("level-3 rerun");
    assert_eq!(trace, chrome_trace(&collector2));
}

#[test]
fn flow_report_json_is_byte_identical() {
    let collector = Collector::shared();
    let instr: SharedInstrument = collector.clone();
    let report = run_full_flow_instrumented(&Workload::small(), &instr).expect("flow runs");
    assert!(report.all_ok());
    assert_golden("flow_report.json", &report.to_json());
}

/// Pins the flow's work: every counter the small flow emits (SAT solves
/// and propagations, BMC calls, BDD nodes, simulation polls, bus and FPGA
/// activity, …), sorted by name. A refactor that keeps the report but
/// changes how much work the engines do shows up here as a diff.
#[test]
fn flow_counters_are_byte_identical() {
    let collector = Collector::shared();
    let instr: SharedInstrument = collector.clone();
    run_full_flow_instrumented(&Workload::small(), &instr).expect("flow runs");
    assert_golden("flow_counters.json", &counters_json(&collector));
}

/// Pins the SAT work of the DISTANCE fault campaign: the miter solves for
/// the 47 bit faults that 64 rounds of seed-3 random TPG leave undetected
/// (29 testable, 18 untestable). A change to the solver's search —
/// branching, learning, restarts — shows up here as a diff, and a change
/// that must leave the search alone must leave this file alone.
#[test]
fn atpg_counters_are_byte_identical() {
    use atpg::formal::sat_fault_tpg_cached;
    use atpg::metrics::bit_coverage;
    use atpg::tpg::{random_tpg, RandomConfig};

    let func = media::kernels::distance_step_function();
    let tb = random_tpg(
        &func,
        &RandomConfig {
            rounds: 64,
            seed: 3,
        },
    );
    let faults = bit_coverage(&func, &tb).undetected;
    assert_eq!(faults.len(), 47);
    let collector = Collector::shared();
    let instr: SharedInstrument = collector.clone();
    let untestable = faults
        .iter()
        .map(|&f| sat_fault_tpg_cached(&func, f, &instr, cache::noop()).expect("synthesizes"))
        .filter(Option::is_none)
        .count();
    assert_eq!(untestable, 18);
    assert_golden("atpg_counters.json", &counters_json(&collector));
}

/// Every counter of `collector`, sorted by name, as a JSON object.
fn counters_json(collector: &Collector) -> String {
    let lines: Vec<String> = collector
        .counters()
        .into_iter()
        .map(|(name, value)| format!("  \"{name}\": {value}"))
        .collect();
    format!("{{\n{}\n}}\n", lines.join(",\n"))
}

#[test]
fn faulted_run_exports_recovery_counters() {
    use sim::faults::FaultPlan;
    use symbad_core::timed::RecoveryPolicy;

    let w = Workload::small();
    let plan = || {
        FaultPlan::new(7)
            .with_bitstream_corruption(400_000)
            .with_bus_errors(
                symbad_core::timed::addr::FLASH_BASE,
                symbad_core::timed::addr::FLASH_SIZE,
                150_000,
            )
    };
    let collector = Collector::shared();
    let instr: SharedInstrument = collector.clone();
    let run = level3::run_with_faults_instrumented(&w, plan(), RecoveryPolicy::default(), &instr)
        .expect("recovered run");
    let faults = run.faults.expect("fault report present");
    assert!(faults.retries > 0, "this seed must inject something");

    // The fault/recovery summary surfaces as counters.
    assert_eq!(collector.counter("recovery.retries"), faults.retries);
    assert_eq!(collector.counter("recovery.recovered"), faults.recovered);
    let injected = collector.counter("faults.bitstream_corruptions")
        + collector.counter("faults.bus_errors")
        + collector.counter("faults.load_timeouts")
        + collector.counter("faults.slave_stalls");
    assert!(injected > 0);

    // Telemetry leaves the faulted run itself untouched: same report as
    // the uninstrumented path, bit for bit.
    let plain = symbad_core::level3::run_with_faults(&w, plan(), RecoveryPolicy::default())
        .expect("plain recovered run");
    assert_eq!(plain.total_ticks, run.total_ticks);
    assert_eq!(plain.recognized, run.recognized);
    assert_eq!(plain.faults, Some(faults));
}

#[test]
fn instrumentation_does_not_perturb_the_run() {
    let w = Workload::small();
    let plain = level3::run(&w).expect("plain run");
    let collector = Collector::shared();
    let instr: SharedInstrument = collector.clone();
    let instrumented = level3::run_instrumented(&w, &instr).expect("instrumented run");
    // Bit-identical functional and timing results either way.
    assert_eq!(plain.recognized, instrumented.recognized);
    assert_eq!(plain.total_ticks, instrumented.total_ticks);
    assert!(plain.trace.matches_untimed(&instrumented.trace).is_ok());
    assert_eq!(
        plain.fpga.as_ref().map(|f| f.reconfigurations),
        instrumented.fpga.as_ref().map(|f| f.reconfigurations)
    );
}
