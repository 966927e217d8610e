//! `service-tenants`: one op is one `serve::Service::run_next` job, timed
//! from its submission to its record. Three tenants each keep one job
//! queued (a closed loop of three clients); the operator flushes the
//! journal after every job.
//!
//! The job mix is a balanced matrix of 18 specs — 2, 3 or 4 probes ×
//! with or without a seeded fault campaign × three platform variants —
//! so every seed runs the same mix; `--seed` draws the fault-campaign
//! seeds and the order in which the specs are submitted.

use crate::measure::{
    end_to_end, median, pinned, tail, timed, ByOp, Counts, Outcome, PausableClock, RunConfig,
    SeedRng, Setups,
};
use serve::{JobId, JobOutcome, Service, ServiceConfig};
use std::collections::BTreeMap;
use symbad_core::flow::run_full_flow_job;
use symbad_core::job::{FaultPlanSpec, JobSpec, PlatformSpec};

const TENANTS: [&str; 3] = ["alpha", "beta", "gamma"];
/// Nominal jobs per second on a 2-vCPU host; sets the op count only.
const NOMINAL_JOBS_PER_S: f64 = 50.0;
/// Cache lookups of every job once the shared cache is warm: each
/// level-4 verdict is a hit, whatever the spec.
const JOB_CACHE_COUNTS: [(&str, u64); 2] =
    [("cache.hits_per_job", 98), ("cache.misses_per_job", 0)];

/// The submission sequence: six rounds of three jobs, each round one job
/// of each probe count in the same order. A job's latency covers its own
/// run and the two dispatched before it, so every job waits behind the
/// same amount of simulation whatever the seed.
fn specs(seed: u64) -> Vec<JobSpec> {
    let mut rng = SeedRng::new(seed);
    let base = PlatformSpec::default();
    let platforms = [
        base,
        PlatformSpec {
            hw_speedup: 8,
            ..base
        },
        PlatformSpec {
            fpga_switch_cycles: base.fpga_switch_cycles * 4,
            bitstream_words_per_function: base.bitstream_words_per_function / 2,
            ..base
        },
    ];
    let mut probes = [2, 3, 4];
    rng.shuffle(&mut probes);
    // Per probe count, the six (fault campaign, platform) variants in a
    // seeded order.
    let variants: Vec<Vec<(bool, PlatformSpec)>> = probes
        .iter()
        .map(|_| {
            let mut v: Vec<_> = [false, true]
                .into_iter()
                .flat_map(|faulted| platforms.map(|p| (faulted, p)))
                .collect();
            rng.shuffle(&mut v);
            v
        })
        .collect();
    let mut specs = Vec::new();
    for round in 0..6 {
        for (&n, variant) in probes.iter().zip(&variants) {
            let (faulted, platform) = variant[round];
            let mut spec = JobSpec::default();
            spec.design.probes = n;
            spec.faults = faulted.then(|| FaultPlanSpec::seeded(rng.next_u64()));
            spec.platform = platform;
            specs.push(spec);
        }
    }
    specs
}

/// The service with its closed loop primed, plus what every job is
/// checked against.
struct Prepared {
    specs: Vec<JobSpec>,
    /// Report JSON of a direct `run_full_flow_job` per spec.
    expected: Vec<String>,
    /// Cache warmed by the direct runs, for the traced overhead split.
    direct_cache: cache::ObligationCache,
    service: Service,
    /// Queued job → (spec index, submission time on the timed clock).
    pending: BTreeMap<JobId, (usize, Option<f64>)>,
    next_spec: usize,
    /// The collector counters and simulated ticks of the default spec,
    /// run directly on the warm cache.
    counts: Counts,
}

/// Jobs run before timing starts: one per tenant, which fills the
/// shared cache with every level-4 verdict.
const WARMUP_JOBS: usize = 3;

fn prepare(seed: u64) -> Prepared {
    let specs = specs(seed);
    let direct_cache = cache::ObligationCache::new();
    let noop = telemetry::noop();
    let expected: Vec<String> = specs
        .iter()
        .map(|spec| {
            let report = run_full_flow_job(spec, &noop, exec::ExecMode::Sequential, &direct_cache)
                .expect("direct job runs");
            assert!(report.all_ok(), "direct job passes every phase");
            report.to_json()
        })
        .collect();
    // The instrumented job is the same for every seed, so its counts
    // can be pinned.
    let collector = std::rc::Rc::new(telemetry::Collector::new());
    let shared: telemetry::SharedInstrument = collector.clone();
    let report = run_full_flow_job(
        &JobSpec::default(),
        &shared,
        exec::ExecMode::Sequential,
        &direct_cache,
    )
    .expect("instrumented job runs");
    let mut counts: Counts = crate::flow::COUNTERS
        .iter()
        .map(|&name| (name, collector.counter(name)))
        .collect();
    counts.push(("level2.sim_ticks", report.metrics.l2_total_ticks));
    counts.push(("level3.sim_ticks", report.metrics.l3_total_ticks));

    let mut p = Prepared {
        specs,
        expected,
        direct_cache,
        service: Service::new(ServiceConfig::default()),
        pending: BTreeMap::new(),
        next_spec: 0,
        counts,
    };
    for tenant in TENANTS {
        p.submit(tenant, None);
    }
    for _ in 0..WARMUP_JOBS {
        let record = p.service.run_next().expect("a job is queued");
        let (index, _) = p.pending.remove(&record.id).expect("job was submitted");
        assert!(p.matches(&record.outcome, index), "warm-up job output");
        p.submit(&record.tenant, None);
    }
    p.service.flush_events();
    p
}

impl Prepared {
    fn submit(&mut self, tenant: &str, at: Option<f64>) {
        let index = self.next_spec % self.specs.len();
        self.next_spec += 1;
        let id = self
            .service
            .submit(tenant, self.specs[index])
            .expect("one queued job per tenant is always admitted");
        self.pending.insert(id, (index, at));
    }

    fn matches(&self, outcome: &JobOutcome, index: usize) -> bool {
        matches!(outcome, JobOutcome::Completed(r) if r.all_ok() && r.to_json() == self.expected[index])
    }
}

pub fn run(cfg: &RunConfig) -> Outcome {
    // The first jobs were queued during set-up; they run and count, but
    // have no submission time on the timed clock.
    let ops = cfg.ops(NOMINAL_JOBS_PER_S, 8) + TENANTS.len();
    let mut setups = Setups::new(cfg, ops);
    let mut p = setups.time(|| prepare(cfg.seed));
    // Exact-count guard, part one: every set-up's instrumented job must
    // measure the pinned counts.
    let mut guard_ok = pinned(&p.counts, &PINNED_COUNTS);
    let mut clock = PausableClock::default();
    // The ops of the mix are the specs.
    let mut latencies = ByOp::default();
    let mut op_walls = ByOp::default();
    let mut traced_latencies = Vec::new();
    let mut failed = 0u64;
    let mut cache_before = p.service.cache().stats();
    let (mut hits, mut lookups, mut journal_bytes) = (0u64, 0u64, 0usize);
    let mut job_counts = JOB_CACHE_COUNTS;
    let mut split: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for op in 0..ops {
        if let Some(again) = setups.repeat_before(op, || prepare(cfg.seed)) {
            guard_ok &= pinned(&again.counts, &PINNED_COUNTS);
        }
        let traced = cfg.trace && op % 2 == 1;
        clock.resume();
        let started = clock.now_ms();
        let record = p.service.run_next().expect("a job is queued");
        let recorded = clock.now_ms();
        let events = p.service.flush_events();
        let flushed = clock.now_ms();
        p.submit(&record.tenant, Some(flushed));
        let submitted = clock.now_ms();
        clock.pause();
        let (index, queued_at) = p.pending.remove(&record.id).expect("job was submitted");
        op_walls.push(index, submitted - started);
        failed += u64::from(!p.matches(&record.outcome, index));
        let stats = p.service.cache().stats();
        let job = [
            ("cache.hits_per_job", stats.hits - cache_before.hits),
            ("cache.misses_per_job", stats.misses - cache_before.misses),
        ];
        cache_before = stats;
        // Exact-count guard, part two: with the cache warm, every job
        // makes the pinned lookups and hits. The first mismatch is the
        // one reported.
        if guard_ok {
            guard_ok = pinned(&job, &JOB_CACHE_COUNTS);
            job_counts = job;
        }
        hits += job[0].1;
        lookups += job[0].1 + job[1].1;
        journal_bytes += events.len();
        let Some(queued_at) = queued_at else {
            continue;
        };
        let latency = recorded - queued_at;
        if traced {
            traced_latencies.push(latency);
            let direct = timed(|| {
                run_full_flow_job(
                    &p.specs[index],
                    &telemetry::noop(),
                    exec::ExecMode::Sequential,
                    &p.direct_cache,
                )
            })
            .1;
            let note =
                |split: &mut BTreeMap<_, Vec<f64>>, k, v| split.entry(k).or_default().push(v);
            note(&mut split, "serve.queue_wait_ms", started - queued_at);
            note(&mut split, "serve.run_next_ms", recorded - started);
            note(&mut split, "serve.flush_us", (flushed - recorded) * 1e3);
            note(&mut split, "serve.submit_us", (submitted - flushed) * 1e3);
            note(&mut split, "serve.overhead_ms", recorded - started - direct);
        } else {
            latencies.push(index, latency);
        }
    }

    let mut guard = p.counts.clone();
    guard.extend(job_counts);
    let (metrics, notes) = if cfg.trace {
        let mut layer: BTreeMap<&'static str, f64> =
            split.iter().map(|(&k, v)| (k, median(v))).collect();
        layer.insert("cache.hit_ratio", hits as f64 / lookups as f64);
        layer.insert("cache.lookups_per_job", lookups as f64 / ops as f64);
        layer.insert(
            "telemetry.journal_bytes_per_job",
            journal_bytes as f64 / ops as f64,
        );
        layer.insert(
            "trace.overhead_pct",
            100.0 * (median(&traced_latencies) / median(&latencies.all()) - 1.0),
        );
        (crate::layers::collect(layer, &p.counts), Vec::new())
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
        guard,
        metrics,
        notes,
    }
}

/// The counts of the default spec's job on the warm cache: every
/// level-4 verdict is a hit, so no solver or model checker runs.
const PINNED_COUNTS: [(&str, u64); 15] = [
    ("sat.solve_calls", 0),
    ("sat.conflicts", 0),
    ("sat.propagations", 0),
    ("bmc.sat_calls", 0),
    ("bdd.nodes_allocated", 0),
    ("sim.polls", 439),
    ("sim.time_steps", 120),
    ("sim.timed_wakeups", 120),
    ("bus.transactions", 140),
    ("bus.words", 22944),
    ("fpga.calls", 32),
    ("fpga.reconfigurations", 4),
    ("fpga.download_words", 16384),
    ("level2.sim_ticks", 67363),
    ("level3.sim_ticks", 85127),
];
