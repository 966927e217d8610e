//! The parallel backbone's contract: verdicts, counterexamples, coverage,
//! and rendered reports are bit-identical across worker counts.
//!
//! Every verification obligation builds its own engine state, so fan-out
//! must not change a single bit of any result. These tests pin that
//! invariant for workers ∈ {1, 2, 8} against the sequential run.

use mc::prop::{BoolExpr, Property};
use symbad_core::flow::{self, FlowReport};
use symbad_core::partition::ArchConfig;
use symbad_core::workload::Workload;
use symbad_core::{cascade, RunCtx};

/// Runs the flow on the default platform with the given instrument,
/// execution mode and obligation cache.
fn cached_flow(
    w: &Workload,
    instrument: &telemetry::SharedInstrument,
    mode: exec::ExecMode,
    cache: &cache::ObligationCache,
) -> Result<FlowReport, sim::SimError> {
    let ctx = RunCtx {
        instrument: instrument.clone(),
        mode,
        cache,
        ..RunCtx::default()
    };
    flow::run(w, &ArchConfig::default(), None, &ctx)
}

const MODES: [exec::ExecMode; 3] = [
    exec::ExecMode::Parallel { workers: 1 },
    exec::ExecMode::Parallel { workers: 2 },
    exec::ExecMode::Parallel { workers: 8 },
];

#[test]
fn flow_report_json_is_bit_identical_across_worker_counts() {
    let w = Workload::small();
    let reference = cached_flow(
        &w,
        &telemetry::noop(),
        exec::ExecMode::Sequential,
        cache::noop(),
    )
    .expect("sequential flow runs")
    .to_json();
    for mode in MODES {
        let report =
            cached_flow(&w, &telemetry::noop(), mode, cache::noop()).expect("parallel flow runs");
        assert_eq!(
            report.to_json(),
            reference,
            "flow report diverged at {mode:?}"
        );
    }
}

#[test]
fn clause_sharing_and_lemma_pools_never_move_the_flow_report() {
    // The cooperative-SAT contract (DESIGN.md §16): learnt-clause
    // sharing and lemma-pool warm starts change *effort*, never
    // *answers*. The rendered report must be bit-identical whether
    // sharing is off (uncached flow), on with a cold pool, or on with a
    // pool warmed by a previous run — at every worker count.
    let w = Workload::small();
    let reference = cached_flow(
        &w,
        &telemetry::noop(),
        exec::ExecMode::Sequential,
        cache::noop(),
    )
    .expect("sequential flow runs")
    .to_json();
    for mode in [exec::ExecMode::Sequential].into_iter().chain(MODES) {
        let obligations = cache::ObligationCache::new();
        let cold =
            cached_flow(&w, &telemetry::noop(), mode, &obligations).expect("cold cached flow runs");
        assert_eq!(
            cold.to_json(),
            reference,
            "sharing-on cold-pool report diverged at {mode:?}"
        );
        // Warm pool, cold verdicts: every miter re-solves, now seeded
        // from the pool the cold run populated.
        let warmed = obligations.retain_lemmas();
        let warm = cached_flow(&w, &telemetry::noop(), mode, &warmed).expect("warm-pool flow runs");
        assert_eq!(
            warm.to_json(),
            reference,
            "warm-pool report diverged at {mode:?}"
        );
    }
}

#[test]
fn bmc_counterexamples_are_bit_identical_across_worker_counts() {
    // The buggy wrapper refutes `done_returns_to_idle`; the refutation
    // trace (not just the verdict) must be the same from every worker.
    let buggy = cascade::wrapper(false);
    let properties = vec![
        Property::response(
            "done_returns_to_idle",
            BoolExpr::eq("state", 3),
            BoolExpr::eq("state", 0),
            1,
        ),
        Property::invariant("state_in_range", BoolExpr::le("state", 3)),
        Property::invariant("never_done", BoolExpr::ne("done", 1)),
    ];
    let reference: Vec<mc::Verdict> = properties
        .iter()
        .map(|p| mc::bmc::check(&buggy, p, 10))
        .collect();
    assert!(
        reference.iter().any(|v| v.is_violated()),
        "the seeded bug must produce at least one counterexample"
    );
    for mode in MODES {
        let verdicts = mc::bmc::check_many(&buggy, &properties, 10, mode, &telemetry::noop());
        assert_eq!(verdicts, reference, "BMC verdicts diverged at {mode:?}");
    }
}

#[test]
fn atpg_completion_is_bit_identical_across_worker_counts() {
    // SAT-driven testbench completion: generated vectors and the
    // resulting coverage must match the sequential run exactly.
    let func = cascade::buggy_lut_kernel(true);
    let seed_tb = atpg::Testbench {
        vectors: vec![vec![0]],
    };
    let (ref_tb, ref_unreachable) =
        atpg::formal::complete_with_sat(&func, &seed_tb).expect("completion runs");
    let ref_cov = atpg::metrics::bit_coverage(&func, &ref_tb);
    for mode in MODES {
        let (tb, unreachable) =
            atpg::formal::complete_with_sat_mode(&func, &seed_tb, mode).expect("completion runs");
        assert_eq!(tb.vectors, ref_tb.vectors, "vectors diverged at {mode:?}");
        assert_eq!(unreachable, ref_unreachable);
        let cov = atpg::metrics::bit_coverage(&func, &tb);
        assert_eq!(cov.detected, ref_cov.detected);
        assert_eq!(cov.total, ref_cov.total);
        assert_eq!(cov.undetected, ref_cov.undetected);
    }
}

#[test]
fn cascade_report_is_bit_identical_across_worker_counts() {
    let reference = cascade::run(&RunCtx::default());
    for mode in MODES {
        let ctx = RunCtx {
            mode,
            ..RunCtx::default()
        };
        assert_eq!(
            cascade::run(&ctx),
            reference,
            "cascade diverged at {mode:?}"
        );
    }
}

#[test]
fn instrumented_flow_telemetry_matches_sequential_key_state() {
    // Parallel obligations record into private collectors that are
    // replayed in obligation order; the merged keyed state (counters,
    // gauges) must equal the sequential instrument's.
    let w = Workload::small();
    let seq = telemetry::Collector::shared();
    let seq_instr: telemetry::SharedInstrument = seq.clone();
    cached_flow(&w, &seq_instr, exec::ExecMode::Sequential, cache::noop())
        .expect("sequential flow runs");
    for workers in [2, 8] {
        let par = telemetry::Collector::shared();
        let par_instr: telemetry::SharedInstrument = par.clone();
        cached_flow(
            &w,
            &par_instr,
            exec::ExecMode::Parallel { workers },
            cache::noop(),
        )
        .expect("parallel flow runs");
        // Every counter total agrees exactly, the SAT counters of the
        // kernel miters included: each miter solves on one canonical
        // solver whose private collector is replayed in obligation order.
        assert!(seq.counter("sat.solve_calls") > 0);
        assert_eq!(
            par.counters(),
            seq.counters(),
            "counters diverged at {workers} workers"
        );
        // The flow track (one span per phase) is identical.
        let seq_spans: Vec<_> = seq
            .spans()
            .into_iter()
            .filter(|s| s.track == "flow")
            .collect();
        let par_spans: Vec<_> = par
            .spans()
            .into_iter()
            .filter(|s| s.track == "flow")
            .collect();
        assert_eq!(par_spans, seq_spans);
    }
}
