//! Measurement helpers shared by every workload: percentiles, a pausable
//! clock, process memory, the host-speed probe and the seeded generator.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One reported metric. Units are not kept here: `run.py` attaches them
/// from `BENCHMARK.json`, the one list of metric names and units.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
}

pub fn metric(name: &'static str, value: f64) -> Metric {
    Metric { name, value }
}

/// Exact counts, by name.
pub type Counts = Vec<(&'static str, u64)>;

/// What one workload run hands back to `main` for printing.
pub struct Outcome {
    /// Operations attempted in the timed loop.
    pub attempted: u64,
    /// Operations whose output failed its check.
    pub failed: u64,
    /// Whether the exact-count guard held: every set-up measured the
    /// counts pinned in the benchmark, and every op repeated them.
    pub guard_ok: bool,
    /// The counts the guard checked, printed beside the run.
    pub guard: Counts,
    pub metrics: Vec<Metric>,
    /// Figures printed beside the run that are not metrics.
    pub notes: Vec<Metric>,
}

/// Nearest-rank percentile (`q` in 0..=1) of an unsorted sample.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs `f` and returns its result with its wall time in milliseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let value = f();
    (value, ms(started.elapsed()))
}

/// A clock that only advances while running, so output checks made
/// between timed segments cost the measured system nothing.
#[derive(Default)]
pub struct PausableClock {
    banked: Duration,
    running_since: Option<Instant>,
}

impl PausableClock {
    pub fn resume(&mut self) {
        if self.running_since.is_none() {
            self.running_since = Some(Instant::now());
        }
    }

    pub fn pause(&mut self) {
        if let Some(since) = self.running_since.take() {
            self.banked += since.elapsed();
        }
    }

    /// Timed milliseconds so far.
    pub fn now_ms(&self) -> f64 {
        ms(self.banked + self.running_since.map_or(Duration::ZERO, |s| s.elapsed()))
    }
}

/// Wall times (ms) of a run's ops, filed by which op of the workload's
/// mix each one was. Every op of the mix repeats many times over a run.
#[derive(Default)]
pub struct ByOp(BTreeMap<usize, Vec<f64>>);

impl ByOp {
    pub fn push(&mut self, op: usize, ms: f64) {
        self.0.entry(op).or_default().push(ms);
    }

    /// Every sample, in no particular order.
    pub fn all(&self) -> Vec<f64> {
        self.0.values().flatten().copied().collect()
    }

    /// Each op's time on an undisturbed host: the 10th percentile of its
    /// repeats.
    fn undisturbed(&self) -> Vec<f64> {
        self.0.values().map(|v| percentile(v, 0.1)).collect()
    }
}

/// The end-to-end metrics every workload reports, from its per-op
/// latencies and the timed wall of every op attempted, filed by op of
/// the mix, the ops that failed their check and its set-ups.
///
/// Timings are taken per op of the mix, at the 10th percentile of its
/// repeats. The shared hosts this benchmark runs on have episodes of
/// seconds in which the same code runs up to 1.4× slower; the program's
/// work is deterministic, so such an episode only adds time. A repeat in
/// the fastest tenth is one the host did not slow down, and every op of
/// the mix has one unless an episode covers nine tenths of the run. A
/// median moves once an episode covers half a run, a p90 once one covers
/// a tenth.
pub fn end_to_end(latencies: &ByOp, op_walls: &ByOp, failed: u64, setups: &Setups) -> Vec<Metric> {
    let attempted = op_walls.all().len() as f64;
    let cycle = op_walls.undisturbed();
    vec![
        metric("latency_ms_p10", median(&latencies.undisturbed())),
        metric(
            "throughput_ops_per_s",
            cycle.len() as f64 / (cycle.iter().sum::<f64>() / 1e3),
        ),
        metric("success_rate", (attempted - failed as f64) / attempted),
        metric("peak_rss_mb", setups.peak_rss_mb()),
        metric("setup_s", median(&setups.times_s)),
    ]
}

/// Diagnostics of an untraced run that are not metrics: the median and
/// p90 of all its latencies, as the host delivered them, and their count
/// (at least 100, so ten lie beyond the p90). They are printed beside the
/// result, not gated, because a host episode moves them.
pub fn tail(latencies: &ByOp) -> Vec<Metric> {
    let all = latencies.all();
    vec![
        metric("latency_ms_p50", median(&all)),
        metric("latency_ms_p90", percentile(&all, 0.9)),
        metric("latency_samples", all.len() as f64),
    ]
}

/// The count named `name`.
pub fn count(counts: &[(&'static str, u64)], name: &str) -> u64 {
    counts
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, value)| value)
        .unwrap_or_else(|| panic!("no count named {name}"))
}

/// Whether `measured` are exactly the counts pinned in `expected`.
/// Mismatches are reported on standard error.
pub fn pinned(measured: &[(&'static str, u64)], expected: &[(&str, u64)]) -> bool {
    let ok = measured == expected;
    if !ok {
        eprintln!("perfbench: exact counts {measured:?}, pinned {expected:?}");
    }
    ok
}

/// Peak resident set size of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// Times a fixed integer computation that uses no code of the measured
/// program; run at the start and end of every run, it shows whether the
/// host itself got slower between two sets of runs.
pub fn host_probe_ms() -> f64 {
    let (sink, wall) = timed(|| {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut acc = 0u64;
        for i in 0..20_000_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            acc = acc.wrapping_add(x ^ i);
        }
        acc
    });
    std::hint::black_box(sink);
    wall
}

/// SplitMix64: the benchmark's own input generator, so inputs depend on
/// `--seed` alone.
pub struct SeedRng(u64);

impl SeedRng {
    pub fn new(seed: u64) -> Self {
        SeedRng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// Set-ups per run, the first before the timed loop.
const SETUP_REPS: usize = 5;

/// A run's set-ups. Set-up runs once before the timed loop and its state
/// is the one measured. It is repeated before evenly spaced items of the
/// loop; the repeats are timed, checked and discarded. Spread over the
/// run, they see the same host speed as the ops, so `setup_s` (the median
/// of all set-ups) is as steady as the latencies. A smoke run sets up once.
pub struct Setups {
    repeat_before: Vec<usize>,
    times_s: Vec<f64>,
    /// VmHWM read just before the first repeat.
    rss_before_repeats: Option<f64>,
}

impl Setups {
    /// Set-ups for a timed loop of `len` items.
    pub fn new(cfg: &RunConfig, len: usize) -> Self {
        let repeat_before = if cfg.smoke {
            Vec::new()
        } else {
            (1..SETUP_REPS).map(|k| len * k / SETUP_REPS).collect()
        };
        Setups {
            repeat_before,
            times_s: Vec::new(),
            rss_before_repeats: None,
        }
    }

    /// Runs one set-up and files its wall time.
    pub fn time<P>(&mut self, setup: impl FnOnce() -> P) -> P {
        let (state, wall) = timed(setup);
        self.times_s.push(wall / 1e3);
        state
    }

    /// Repeats set-up when item `i` of the loop is one of the points,
    /// and returns the repeat's state for checking.
    pub fn repeat_before<P>(&mut self, i: usize, setup: impl FnOnce() -> P) -> Option<P> {
        if !self.repeat_before.contains(&i) {
            return None;
        }
        self.rss_before_repeats.get_or_insert_with(peak_rss_mb);
        Some(self.time(setup))
    }

    /// Peak RSS of the measured state: VmHWM before the first repeat,
    /// which a repeat would raise by its own duplicate state. By then the
    /// loop has run a fifth of its ops, every distinct op at least once.
    /// A smoke run has no repeats and reads VmHWM at its end.
    pub fn peak_rss_mb(&self) -> f64 {
        self.rss_before_repeats.unwrap_or_else(peak_rss_mb)
    }
}

/// Run-wide settings parsed from the command line.
#[derive(Clone, Copy)]
pub struct RunConfig {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Tiny op counts and a single set-up, for the self-test.
    pub smoke: bool,
}

impl RunConfig {
    /// Op count for a workload whose ops nominally complete at
    /// `nominal_per_s`: fixed by `--seconds`, never by the wall clock, so
    /// every run does the same work. At least 100, so the p90 has ten
    /// samples beyond it.
    pub fn ops(&self, nominal_per_s: f64, smoke_ops: usize) -> usize {
        if self.smoke {
            smoke_ops
        } else {
            ((self.seconds as f64 * nominal_per_s).round() as usize).max(100)
        }
    }
}
