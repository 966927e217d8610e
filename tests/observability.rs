//! Flight-recorder contract tests: the journal's deterministic lane and
//! the profile's deterministic report are bit-identical for workers 1,
//! 2, and 8, every journal line satisfies the checked-in schema, and the
//! Prometheus exposition round-trips through its own parser.
//!
//! Like `tests/supervision.rs`, the same tests run under three regimes —
//! the default build, `--features panic-mutant`, and `--features
//! diverge-mutant` — because the deterministic-lane guarantee is most
//! valuable exactly when obligations panic, retry, and degrade: the
//! flight recording of a faulty run must still not depend on the worker
//! count.

use symbad_core::flow;
use symbad_core::partition::ArchConfig;
use symbad_core::supervise::SupervisionPolicy;
use symbad_core::workload::Workload;
use symbad_core::RunCtx;
use telemetry::{journal, EventKind, FlowProfile, Journal};

/// The per-regime policy, mirroring `examples/supervised_flow.rs`:
/// bounded under `diverge-mutant` (divergence only affects budgeted
/// solves), unbounded otherwise.
fn policy() -> SupervisionPolicy {
    #[cfg(feature = "diverge-mutant")]
    {
        SupervisionPolicy::with_effort(exec::Effort::bounded(100_000))
    }
    #[cfg(not(feature = "diverge-mutant"))]
    {
        SupervisionPolicy::default()
    }
}

/// Runs the journaled supervised flow on a fresh cache and returns its
/// journal. Wall clock stays off: these tests compare lanes byte for
/// byte, and `ObligationWall` events would differ run to run.
fn journaled(workers: usize) -> Journal {
    exec::silence_injected_panics();
    let cache = cache::ObligationCache::new();
    let journal = Journal::new();
    let ctx = RunCtx {
        mode: exec::ExecMode::from_workers(workers),
        cache: &cache,
        journal: Some(&journal),
        policy: policy(),
        ..RunCtx::default()
    };
    flow::run(&Workload::small(), &ArchConfig::default(), None, &ctx)
        .expect("supervised flow runs");
    journal
}

#[test]
fn deterministic_lane_is_bit_identical_across_worker_counts() {
    let reference = journaled(1);
    let det = reference.deterministic_jsonl();
    let profile = FlowProfile::from_journal(&reference)
        .deterministic_report()
        .to_text();
    assert!(!det.is_empty(), "journal must record the flow");
    for workers in [2usize, 8] {
        let j = journaled(workers);
        assert_eq!(
            j.deterministic_jsonl(),
            det,
            "deterministic journal lane diverged with {workers} workers"
        );
        assert_eq!(
            FlowProfile::from_journal(&j)
                .deterministic_report()
                .to_text(),
            profile,
            "deterministic profile report diverged with {workers} workers"
        );
    }
}

#[test]
fn every_journal_line_satisfies_the_schema() {
    let j = journaled(2);
    let jsonl = j.to_jsonl();
    assert!(jsonl.lines().count() > 0);
    for line in jsonl.lines() {
        journal::validate_line(line)
            .unwrap_or_else(|e| panic!("journal line failed schema validation: {e}\n  {line}"));
    }
    assert_eq!(j.dropped(), (0, 0), "the default capacity must not drop");
}

#[test]
fn journal_obligations_cover_the_whole_flow() {
    let j = journaled(1);
    let profile = FlowProfile::from_journal(&j);
    // Started and Finished pair up one-to-one.
    let started = j
        .events()
        .iter()
        .filter(|e| matches!(e.kind, EventKind::ObligationStarted { .. }))
        .count();
    assert_eq!(started, profile.obligations.len());
    // The flow discharges the two LPV analyses, the SymbC consistency
    // check, two equivalence miters, five properties, and two PCC
    // passes: twelve obligations.
    assert_eq!(profile.obligations.len(), 12);
    // Each known engine appears.
    for engine in ["lpv", "symbc", "level4.miter", "pcc"] {
        assert!(
            profile.engines.contains_key(engine),
            "engine {engine} missing from the profile"
        );
    }
    // Provenance fingerprints are nonzero and unique per obligation.
    let mut fps: Vec<u128> = profile.obligations.iter().map(|p| p.fingerprint).collect();
    fps.sort_unstable();
    fps.dedup();
    assert_eq!(fps.len(), profile.obligations.len());
    assert!(fps.iter().all(|&fp| fp != 0));
}

#[test]
fn prometheus_exposition_round_trips() {
    let collector = telemetry::Collector::shared();
    let instr: telemetry::SharedInstrument = collector.clone();
    exec::silence_injected_panics();
    let cache = cache::ObligationCache::new();
    let journal = Journal::new();
    let ctx = RunCtx {
        instrument: instr,
        cache: &cache,
        journal: Some(&journal),
        policy: policy(),
        ..RunCtx::default()
    };
    flow::run(&Workload::small(), &ArchConfig::default(), None, &ctx)
        .expect("supervised flow runs");
    let text = telemetry::prometheus_text(&collector);
    let samples = telemetry::parse_exposition(&text).expect("exposition parses");
    assert!(samples.len() > 16, "sparse exposition: {}", samples.len());
    let nonzero = samples.iter().filter(|s| s.value > 0.0).count();
    assert!(nonzero > 8, "exposition has only {nonzero} nonzero series");
}

#[cfg(not(any(feature = "panic-mutant", feature = "diverge-mutant")))]
#[test]
fn honest_runs_record_no_degradations() {
    let j = journaled(1);
    let profile = FlowProfile::from_journal(&j);
    assert!(profile.degradations.is_empty());
    assert!(j
        .events()
        .iter()
        .all(|e| !matches!(e.kind, EventKind::Panic { .. } | EventKind::Retry { .. })));
    assert_eq!(profile.outcomes.get("proved"), Some(&12));
}

#[cfg(feature = "panic-mutant")]
#[test]
fn injected_panics_land_on_the_deterministic_lane() {
    let j = journaled(1);
    let profile = FlowProfile::from_journal(&j);
    let panics = j
        .events()
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Panic { .. }))
        .count();
    let retries = j
        .events()
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Retry { .. }))
        .count();
    assert!(panics > 0, "panic-mutant must surface panic events");
    assert!(retries > 0, "panicked obligations are retried once");
    assert!(!profile.degradations.is_empty());
    assert!(profile.degradations.iter().all(|d| d.status == "panicked"));
}

#[cfg(feature = "diverge-mutant")]
#[test]
fn budget_exhaustion_lands_on_the_deterministic_lane() {
    let j = journaled(1);
    let profile = FlowProfile::from_journal(&j);
    assert!(!profile.degradations.is_empty());
    assert!(profile.degradations.iter().all(|d| d.status == "unknown"));
    // The budget-spend records show at least one axis pinned at its cap.
    let at_cap: u64 = profile.budget.values().map(|a| a.at_cap).sum();
    assert!(at_cap > 0, "diverge-mutant must exhaust a budget axis");
}
