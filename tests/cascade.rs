//! Experiment E12: the Figure-1 verification cascade catches one seeded
//! error per class, at the stage the paper assigns to it.

use symbad_core::{cascade, RunCtx};

#[test]
fn cascade_catches_every_seeded_error_class() {
    let (report, _) = cascade::run(&RunCtx::default());
    assert!(report.all_effective(), "{:#?}", report.stages);
    // The five stages: ATPG, LPV deadlock, LPV deadline, SymbC, MC.
    let names: Vec<&str> = report.stages.iter().map(|s| s.stage).collect();
    assert_eq!(names.len(), 5);
    assert!(names[0].contains("ATPG"));
    assert!(names[1].contains("LPV"));
    assert!(names[2].contains("LPV"));
    assert!(names[3].contains("SymbC"));
    assert!(names[4].contains("Model checking"));
}

#[test]
fn stages_are_specialized_not_interchangeable() {
    // The seeded level-3 bug (missing reconfigure) is invisible to the
    // level-1 tools: ATPG coverage of the buggy SW is achievable and the
    // Petri abstraction stays live — only SymbC sees the inconsistency.
    let (buggy_sw, map) = cascade::instrumented_sw(false);
    // ATPG: the buggy SW runs fine functionally (resource calls answer 0).
    let tb = atpg::tpg::random_tpg(
        &buggy_sw,
        &atpg::tpg::RandomConfig {
            rounds: 32,
            seed: 9,
        },
    );
    let findings = atpg::metrics::memory_inspection(&buggy_sw, &tb);
    assert!(
        findings.is_empty(),
        "memory inspection must not flag a reconfiguration bug"
    );
    // SymbC: catches it.
    assert!(!symbc::check(&buggy_sw, &map).is_consistent());
}

#[test]
fn lpv_counterexample_is_confirmed_by_token_game() {
    use lp::lpv::LivenessVerdict;
    let net = cascade::fig2_petri_net(0);
    match lp::check_liveness(&net) {
        LivenessVerdict::TokenFreeCycle { places } => {
            assert!(!places.is_empty());
            // Confirm by simulation: the net deadlocks immediately (no
            // credits → camera can never fire).
            let (fired, marking) = net.simulate(100);
            assert!(fired.is_empty());
            assert!(net.is_dead(&marking));
        }
        other => panic!("expected token-free cycle, got {other:?}"),
    }
}
