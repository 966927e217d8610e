//! `atpg-distance`: the SAT half of the Laerte++ campaign on the DISTANCE
//! kernel. One op is a bundle of consecutive `atpg::formal::sat_fault_tpg`
//! obligations.
//!
//! The campaign (random TPG, then fault simulation, then one SAT
//! obligation per undetected bit fault) is fixed at TPG seed 3: 47
//! obligations, 29 testable and 18 untestable. Its size swings 3× across
//! TPG seeds (1.1–3.8 s of SAT), which would drown any change under test,
//! so `--seed` only orders the bundles within each pass. Bundle
//! composition is fixed, so every seed runs the same multiset of ops.

use crate::measure::{
    end_to_end, median, tail, timed, ByOp, Counts, Outcome, RunConfig, SeedRng, Setups,
};
use atpg::formal::sat_fault_tpg;
use atpg::metrics::bit_coverage;
use atpg::tpg::{random_tpg, RandomConfig};
use atpg::Testbench;
use behav::interp::BitFault;
use behav::Function;

const CAMPAIGN_SEED: u64 = 3;
const TPG_ROUNDS: u32 = 64;
/// Bit faults the campaign leaves to SAT.
const FAULTS: usize = 47;
/// Which of them, by position in the campaign, are untestable. Every
/// other obligation must return a vector that detects its fault.
const UNTESTABLE: [usize; 18] = [
    10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 26, 27, 29,
];
/// Bundles per pass over the campaign. A single obligation is bimodal
/// (testable ≈ 2–160 ms, untestable ≈ 1–3 ms); a bundle of five or six
/// mixes both, so op latency has one mode.
const BUNDLES: usize = 9;
/// Nominal passes per second on a 2-vCPU host; sets the op count only.
const NOMINAL_PASSES_PER_S: f64 = 0.52;

struct Prepared {
    func: Function,
    testbench: Testbench,
    faults: Vec<BitFault>,
    /// The warm-up campaign's verdict per obligation: a test vector, or
    /// `None` for a proof of untestability.
    verdicts: Vec<Option<Vec<u64>>>,
    bundles: Vec<Vec<usize>>,
}

impl Prepared {
    /// The testable/untestable split of the warm-up campaign.
    fn counts(&self) -> Counts {
        let testable = self.verdicts.iter().filter(|v| v.is_some()).count() as u64;
        vec![
            ("atpg.testable_obligations", testable),
            (
                "atpg.untestable_obligations",
                self.verdicts.len() as u64 - testable,
            ),
        ]
    }

    /// Whether the campaign has the pinned size and split, fault by fault.
    fn pinned(&self) -> bool {
        let untestable: Vec<usize> = (0..self.verdicts.len())
            .filter(|&i| self.verdicts[i].is_none())
            .collect();
        let ok = self.verdicts.len() == FAULTS && untestable == UNTESTABLE;
        if !ok {
            eprintln!(
                "perfbench: {} obligations, untestable at {untestable:?}; pinned {FAULTS}, {UNTESTABLE:?}",
                self.verdicts.len()
            );
        }
        ok
    }
}

fn detects(func: &Function, fault: BitFault, vector: &[u64]) -> bool {
    let tb = Testbench {
        vectors: vec![vector.to_vec()],
    };
    !bit_coverage(func, &tb).undetected.contains(&fault)
}

fn prepare() -> Prepared {
    let func = media::kernels::distance_step_function();
    let testbench = random_tpg(
        &func,
        &RandomConfig {
            rounds: TPG_ROUNDS,
            seed: CAMPAIGN_SEED,
        },
    );
    let faults = bit_coverage(&func, &testbench).undetected;
    let verdicts: Vec<_> = faults
        .iter()
        .map(|&f| sat_fault_tpg(&func, f).expect("distance step synthesizes"))
        .collect();
    for (&fault, verdict) in faults.iter().zip(&verdicts) {
        if let Some(v) = verdict {
            assert!(detects(&func, fault, v), "warm-up vector misses its fault");
        }
    }
    // Deal obligations to bundles in snake order, so the heavy testable
    // faults at the head of the campaign spread over all bundles.
    let mut bundles = vec![Vec::new(); BUNDLES];
    for i in 0..faults.len() {
        let (round, pos) = (i / BUNDLES, i % BUNDLES);
        let b = if round % 2 == 0 {
            pos
        } else {
            BUNDLES - 1 - pos
        };
        bundles[b].push(i);
    }
    Prepared {
        func,
        testbench,
        faults,
        verdicts,
        bundles,
    }
}

pub fn run(cfg: &RunConfig) -> Outcome {
    // The traced run alternates plain and traced passes, so even a
    // smoke run needs two.
    let passes = if cfg.smoke {
        2
    } else {
        ((cfg.seconds as f64 * NOMINAL_PASSES_PER_S).round() as usize)
            .max(100usize.div_ceil(BUNDLES))
    };
    let mut setups = Setups::new(cfg, passes);
    let (p, schedule) = setups.time(|| {
        let mut rng = SeedRng::new(cfg.seed);
        let schedule: Vec<Vec<usize>> = (0..passes)
            .map(|_| {
                let mut order: Vec<usize> = (0..BUNDLES).collect();
                rng.shuffle(&mut order);
                order
            })
            .collect();
        (prepare(), schedule)
    });
    // Exact-count guard: every set-up's warm-up campaign must have the
    // pinned size and testable/untestable split, and every op's verdicts
    // must repeat the warm-up campaign's.
    let mut guard_ok = p.pinned();

    // The ops of the mix are the bundles.
    let mut latencies = ByOp::default();
    let mut traced_latencies = Vec::new();
    let mut op_walls = ByOp::default();
    let mut failed = 0u64;
    // Per traced pass: (testable ms, untestable ms) per obligation.
    let mut traced_passes: Vec<(Vec<f64>, Vec<f64>)> = Vec::new();
    for (pass, order) in schedule.iter().enumerate() {
        if let Some(again) = setups.repeat_before(pass, prepare) {
            guard_ok &= again.pinned() && again.verdicts == p.verdicts;
        }
        let traced = cfg.trace && pass % 2 == 1;
        let mut split = (Vec::new(), Vec::new());
        for &b in order {
            let bundle = &p.bundles[b];
            let mut walls = Vec::with_capacity(bundle.len());
            let (results, wall) = timed(|| {
                bundle
                    .iter()
                    .map(|&i| {
                        if traced {
                            let (r, w) = timed(|| sat_fault_tpg(&p.func, p.faults[i]));
                            walls.push(w);
                            r
                        } else {
                            sat_fault_tpg(&p.func, p.faults[i])
                        }
                    })
                    .collect::<Vec<_>>()
            });
            op_walls.push(b, wall);
            if traced {
                traced_latencies.push(wall);
                for (&i, w) in bundle.iter().zip(walls) {
                    match p.verdicts[i] {
                        Some(_) => split.0.push(w),
                        None => split.1.push(w),
                    }
                }
            } else {
                latencies.push(b, wall);
            }
            let ok = bundle.iter().zip(results).all(|(&i, r)| match r {
                Ok(verdict) => {
                    verdict == p.verdicts[i]
                        && match &verdict {
                            Some(v) => detects(&p.func, p.faults[i], v),
                            None => UNTESTABLE.contains(&i),
                        }
                }
                Err(_) => false,
            });
            failed += u64::from(!ok);
        }
        if traced {
            traced_passes.push(split);
        }
    }

    let guard = p.counts();
    let (metrics, notes) = if cfg.trace {
        (
            per_layer(
                &p,
                &latencies.all(),
                &traced_latencies,
                &traced_passes,
                &guard,
            ),
            Vec::new(),
        )
    } else {
        (
            end_to_end(&latencies, &op_walls, failed, &setups),
            tail(&latencies),
        )
    };
    Outcome {
        attempted: op_walls.all().len() as u64,
        failed,
        guard_ok,
        guard,
        metrics,
        notes,
    }
}

fn per_layer(
    p: &Prepared,
    plain: &[f64],
    traced: &[f64],
    passes: &[(Vec<f64>, Vec<f64>)],
    guard: &[(&'static str, u64)],
) -> Vec<crate::measure::Metric> {
    let all_testable: Vec<f64> = passes.iter().flat_map(|(t, _)| t.clone()).collect();
    let all_untestable: Vec<f64> = passes.iter().flat_map(|(_, u)| u.clone()).collect();
    let testable_totals: Vec<f64> = passes.iter().map(|(t, _)| t.iter().sum()).collect();
    let untestable_totals: Vec<f64> = passes.iter().map(|(_, u)| u.iter().sum()).collect();
    let (t_sum, u_sum): (f64, f64) = (testable_totals.iter().sum(), untestable_totals.iter().sum());
    let fault_sim: Vec<f64> = (0..21)
        .map(|_| timed(|| bit_coverage(&p.func, &p.testbench)).1)
        .collect();
    let mut layer = std::collections::BTreeMap::new();
    layer.insert("atpg.sat_tpg_testable_ms", median(&all_testable));
    layer.insert("atpg.sat_tpg_untestable_ms", median(&all_untestable));
    layer.insert("atpg.sat_tpg_testable_total_ms", median(&testable_totals));
    layer.insert(
        "atpg.sat_tpg_untestable_total_ms",
        median(&untestable_totals),
    );
    layer.insert("atpg.testable_share", t_sum / (t_sum + u_sum));
    layer.insert("behav.fault_sim_ms", median(&fault_sim));
    layer.insert(
        "trace.overhead_pct",
        100.0 * (median(traced) / median(plain) - 1.0),
    );
    crate::layers::collect(layer, guard)
}
