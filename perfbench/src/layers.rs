//! The per-layer metrics of the traced run: the layer readings a workload
//! measured, then its exact counts. `run.py` reports every per-layer
//! metric of `BENCHMARK.json` that a workload does not measure as 0.

use std::collections::BTreeMap;

use crate::measure::{metric, Metric};

pub fn collect(
    readings: BTreeMap<&'static str, f64>,
    counts: &[(&'static str, u64)],
) -> Vec<Metric> {
    readings
        .into_iter()
        .chain(counts.iter().map(|&(name, value)| (name, value as f64)))
        .map(|(name, value)| metric(name, value))
        .collect()
}
