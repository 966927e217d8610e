//! `flow-small` and `flow-paper`: one op is `flow::run_full_flow` on a
//! design whose probes carry seeded sensor noise.
//!
//! The traced run alternates a plain op with the same flow re-driven
//! phase by phase through each layer's public entry points, timing each
//! call from outside.

use crate::measure::{
    count, end_to_end, median, pinned, tail, timed, ByOp, Counts, Outcome, RunConfig, SeedRng,
    Setups,
};
use behav::unroll::unroll;
use hdl::fsm::bus_wrapper_fsm;
use hdl::synth::synthesize;
use mc::prop::Property;
use mc::{bmc, reach, Verdict};
use media::kernels::{distance_step_function, root_function, ROOT_ITERATIONS};
use media::DatasetConfig;
use pcc::{check_coverage, PccConfig};
use std::collections::BTreeMap;
use symbad_core::flow::{self, FlowReport};
use symbad_core::partition::ArchConfig;
use symbad_core::{cascade, level1, level2, level3, level4, Partition, Workload};

/// Which design the flow runs on.
#[derive(Clone, Copy)]
pub enum Design {
    /// 4 identities × 2 poses, 64×64 frames, 2 probes.
    Small,
    /// The paper's 20 × 4 gallery, 64×64 frames, 8 probes.
    Paper,
}

/// Counters read from a `telemetry::Collector` on one instrumented op.
/// They are the flow's work, so they must not move under a change that
/// only makes a layer faster.
pub const COUNTERS: [&str; 13] = [
    "sat.solve_calls",
    "sat.conflicts",
    "sat.propagations",
    "bmc.sat_calls",
    "bdd.nodes_allocated",
    "sim.polls",
    "sim.time_steps",
    "sim.timed_wakeups",
    "bus.transactions",
    "bus.words",
    "fpga.calls",
    "fpga.reconfigurations",
    "fpga.download_words",
];

impl Design {
    /// The design with every probe's noise seed drawn from `seed`.
    fn workload(self, seed: u64) -> Workload {
        let (config, probes) = match self {
            Design::Small => (symbad_core::job::DesignSpec::small().dataset, 2),
            Design::Paper => (DatasetConfig::default(), 8),
        };
        let mut workload = Workload::new(config, probes);
        let mut rng = SeedRng::new(seed);
        for probe in &mut workload.probes {
            // Noise seed 0 would disable noise; keep every probe noisy.
            probe.2 = rng.next_u64() | 1;
        }
        workload
    }

    /// The exact counts of one op, the same for every `--seed`: the
    /// noise seeds change pixel values, not the work.
    fn pinned_counts(self) -> &'static [(&'static str, u64)] {
        match self {
            Design::Small => &SMALL_COUNTS,
            Design::Paper => &PAPER_COUNTS,
        }
    }

    /// Nominal ops per second on a 2-vCPU host; sets the op count only.
    fn nominal_ops_per_s(self) -> f64 {
        match self {
            Design::Small => 80.0,
            Design::Paper => 22.0,
        }
    }
}

/// Everything set-up produces: the inputs and the references every op
/// is checked against.
struct Prepared {
    workload: Workload,
    winners: Vec<usize>,
    reference_json: String,
    /// The collector counters and simulated ticks of one instrumented op.
    counts: Counts,
}

const WARMUP_OPS: usize = 10;

fn prepare(design: Design, seed: u64) -> Prepared {
    let workload = design.workload(seed);
    let winners = workload
        .reference_results()
        .iter()
        .map(|r| r.identity)
        .collect();
    let mut reference_json = None;
    for _ in 0..WARMUP_OPS {
        let json = flow::run_full_flow(&workload)
            .expect("warm-up flow runs")
            .to_json();
        assert!(
            reference_json.as_ref().is_none_or(|r| *r == json),
            "warm-up ops disagree"
        );
        reference_json = Some(json);
    }
    let collector = std::rc::Rc::new(telemetry::Collector::new());
    let shared: telemetry::SharedInstrument = collector.clone();
    let report = flow::run_full_flow_instrumented(&workload, &shared).expect("flow runs");
    let reference_json = reference_json.expect("at least one warm-up op");
    assert_eq!(report.to_json(), reference_json, "instrumented op differs");
    let mut counts: Counts = COUNTERS
        .iter()
        .map(|&name| (name, collector.counter(name)))
        .collect();
    counts.push((L2_TICKS, report.metrics.l2_total_ticks));
    counts.push((L3_TICKS, report.metrics.l3_total_ticks));
    Prepared {
        workload,
        winners,
        reference_json,
        counts,
    }
}

fn check(report: &FlowReport, prepared: &Prepared) -> bool {
    let fpga = &report.metrics;
    report.all_ok()
        && report.recognized == prepared.winners
        && report.to_json() == prepared.reference_json
        && fpga.fpga_reconfigurations == count(&prepared.counts, "fpga.reconfigurations")
        && fpga.fpga_download_words == count(&prepared.counts, "fpga.download_words")
}

pub fn run(design: Design, cfg: &RunConfig) -> Outcome {
    let ops = cfg.ops(design.nominal_ops_per_s(), 4);
    let mut setups = Setups::new(cfg, ops);
    let prepared = setups.time(|| prepare(design, cfg.seed));
    // Exact-count guard: every set-up's instrumented op must measure the
    // pinned counts. Every op's report JSON, which carries the simulated
    // ticks and FPGA counts, equals the warm-up op's.
    let mut guard_ok = pinned(&prepared.counts, design.pinned_counts());
    // Every op is the same flow on the same design: one op of the mix.
    let mut latencies = ByOp::default();
    let mut op_walls = ByOp::default();
    let mut failed = 0u64;
    let mut phases: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut traced_ops = Vec::new();
    for i in 0..ops {
        if let Some(again) = setups.repeat_before(i, || prepare(design, cfg.seed)) {
            guard_ok &= pinned(&again.counts, design.pinned_counts());
        }
        let traced = cfg.trace && i % 2 == 1;
        let (ok, wall) = if traced {
            let (ok, wall) = timed(|| decomposed_op(&prepared, &mut phases));
            traced_ops.push(wall);
            (ok, wall)
        } else {
            let (report, wall) = timed(|| flow::run_full_flow(&prepared.workload));
            latencies.push(0, wall);
            (report.is_ok_and(|r| check(&r, &prepared)), wall)
        };
        op_walls.push(0, wall);
        failed += u64::from(!ok);
    }

    let (metrics, notes) = if cfg.trace {
        (
            per_layer(&prepared, &latencies.all(), &traced_ops, &phases),
            Vec::new(),
        )
    } else {
        (
            end_to_end(&latencies, &op_walls, failed, &setups),
            tail(&latencies),
        )
    };
    Outcome {
        attempted: ops as u64,
        failed,
        guard_ok,
        guard: prepared.counts.clone(),
        metrics,
        notes,
    }
}

/// Layer names under which the decomposed op files its phase walls.
const L1: &str = "level1.wall_ms";
const LIVENESS: &str = "lp.liveness_wall_ms";
const L2: &str = "level2.wall_ms";
const FIFO: &str = "lp.fifo_wall_ms";
const L3: &str = "level3.wall_ms";
const SYMBC: &str = "symbc.wall_ms";
const SYNTH: &str = "hdl.synth_wall_ms";
const MITER: &str = "level4.miter_wall_ms";
const PROPS: &str = "mc.props_wall_ms";
const PCC: &str = "pcc.wall_ms";
const LEVEL4_PARTS: [&str; 4] = [SYNTH, MITER, PROPS, PCC];
const L2_TICKS: &str = "level2.sim_ticks";
const L3_TICKS: &str = "level3.sim_ticks";

/// The flow of `flow::run_full_flow`, phase by phase, with each layer
/// call timed. Returns whether every phase passed its own check and the
/// simulations made the pinned number of ticks.
fn decomposed_op(prepared: &Prepared, phases: &mut BTreeMap<&'static str, Vec<f64>>) -> bool {
    let workload = &prepared.workload;
    let mut note = |name: &'static str, wall: f64| phases.entry(name).or_default().push(wall);

    let (l1, wall) = timed(|| level1::run(workload).expect("level 1 runs"));
    note(L1, wall);
    let (live, wall) = timed(|| lp::check_liveness(&cascade::fig2_petri_net(1)).is_live());
    note(LIVENESS, wall);
    let (l2, wall) = timed(|| level2::run(workload).expect("level 2 runs"));
    note(L2, wall);
    let (bounds, wall) = timed(|| {
        level2::dimension_channels(workload, &Partition::paper_level2(), &ArchConfig::default())
    });
    note(FIFO, wall);
    let (l3, wall) = timed(|| level3::run(workload).expect("level 3 runs"));
    note(L3, wall);
    let (consistent, wall) = timed(|| {
        let (sw, map) = cascade::instrumented_sw(true);
        symbc::check(&sw, &map).is_consistent()
    });
    note(SYMBC, wall);

    // Level 4, split at its engine boundaries.
    let ((dist, dist_rtl, root, root_rtl, wrapper), wall) = timed(|| {
        let dist = distance_step_function();
        let dist_rtl = synthesize(&dist).expect("distance step synthesizes");
        let root = unroll(&root_function(), ROOT_ITERATIONS);
        let root_rtl = synthesize(&root).expect("unrolled root synthesizes");
        (
            dist,
            dist_rtl,
            root,
            root_rtl,
            bus_wrapper_fsm("bus_wrapper"),
        )
    });
    note(SYNTH, wall);
    let (equivalent, wall) = timed(|| {
        level4::prove_equivalence(&dist, &dist_rtl) && level4::prove_equivalence(&root, &root_rtl)
    });
    note(MITER, wall);
    // Liveness towards DONE needs the environment's `ack`, so the flow
    // checks only the safety subset against the open wrapper.
    let open = |p: &Property| p.name() != "req_eventually_done";
    let (props_ok, wall) = timed(|| {
        level4::extended_properties()
            .iter()
            .filter(|p| open(p))
            .all(|p| match p {
                Property::Invariant { .. } => reach::check(&wrapper, p) == Verdict::Proven,
                Property::Response { .. } => {
                    matches!(bmc::check(&wrapper, p, 12), Verdict::NoViolationUpTo(_))
                }
            })
    });
    note(PROPS, wall);
    let (pcc_gain, wall) = timed(|| {
        let pcc = PccConfig { bmc_bound: 10 };
        let initial: Vec<Property> = level4::initial_properties()
            .into_iter()
            .filter(open)
            .collect();
        let extended: Vec<Property> = level4::extended_properties()
            .into_iter()
            .filter(open)
            .collect();
        let before = check_coverage(&wrapper, &initial, &pcc).expect("initial set holds");
        let after = check_coverage(&wrapper, &extended, &pcc).expect("extended set holds");
        after.pct() > before.pct()
    });
    note(PCC, wall);

    l1.matches_reference
        && live
        && l2.matches_reference
        && l1.trace.matches_untimed(&l2.trace).is_ok()
        && bounds.iter().all(|(_, b)| b.capacity >= 1)
        && l3.matches_reference
        && l2.trace.matches_untimed(&l3.trace).is_ok()
        && consistent
        && equivalent
        && props_ok
        && pcc_gain
        && l2.total_ticks == count(&prepared.counts, L2_TICKS)
        && l3.total_ticks == count(&prepared.counts, L3_TICKS)
}

fn per_layer(
    prepared: &Prepared,
    plain: &[f64],
    traced: &[f64],
    phases: &BTreeMap<&'static str, Vec<f64>>,
) -> Vec<crate::measure::Metric> {
    let wall = |name: &str| median(&phases[name]);
    let ticks = |name: &str| count(&prepared.counts, name) as f64;
    let level4: f64 = LEVEL4_PARTS.iter().map(|p| wall(p)).sum();
    let attributed = [L1, LIVENESS, L2, FIFO, L3, SYMBC]
        .iter()
        .map(|p| wall(p))
        .sum::<f64>()
        + level4;
    let plain_p50 = median(plain);
    let mut layer: BTreeMap<&'static str, f64> = BTreeMap::new();
    for name in [L1, LIVENESS, L2, FIFO, L3, SYMBC, SYNTH, MITER, PROPS, PCC] {
        layer.insert(name, wall(name));
    }
    layer.insert("level4.wall_ms", level4);
    layer.insert("flow.unattributed_ms", plain_p50 - attributed);
    layer.insert("level2.sim_khz", ticks(L2_TICKS) / wall(L2));
    layer.insert("level3.sim_khz", ticks(L3_TICKS) / wall(L3));
    layer.insert(
        "trace.overhead_pct",
        100.0 * (median(traced) / plain_p50 - 1.0),
    );
    crate::layers::collect(layer, &prepared.counts)
}

const SMALL_COUNTS: [(&str, u64); 15] = [
    ("sat.solve_calls", 26),
    ("sat.conflicts", 2),
    ("sat.propagations", 730),
    ("bmc.sat_calls", 24),
    ("bdd.nodes_allocated", 210),
    ("sim.polls", 439),
    ("sim.time_steps", 120),
    ("sim.timed_wakeups", 120),
    ("bus.transactions", 140),
    ("bus.words", 22944),
    ("fpga.calls", 32),
    ("fpga.reconfigurations", 4),
    ("fpga.download_words", 16384),
    (L2_TICKS, 67363),
    (L3_TICKS, 85127),
];

const PAPER_COUNTS: [(&str, u64); 15] = [
    ("sat.solve_calls", 26),
    ("sat.conflicts", 2),
    ("sat.propagations", 730),
    ("bmc.sat_calls", 24),
    ("bdd.nodes_allocated", 210),
    ("sim.polls", 14099),
    ("sim.time_steps", 3936),
    ("sim.timed_wakeups", 3936),
    ("bus.transactions", 5168),
    ("bus.words", 171264),
    ("fpga.calls", 1280),
    ("fpga.reconfigurations", 16),
    ("fpga.download_words", 65536),
    (L2_TICKS, 331146),
    (L3_TICKS, 444499),
];
