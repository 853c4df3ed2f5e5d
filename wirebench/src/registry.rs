//! Reading the program's own metrics from outside: snapshots of the
//! `so_obs::global()` registry's Prometheus text, and deltas between them.
//!
//! The benchmark parses the rendered text instead of asking the registry
//! for handles: `Registry::histogram` would *register* a histogram (and fix
//! its buckets) if the benchmark asked before the program did.

use std::collections::BTreeMap;

/// One parsed registry render: series key (`name` or `name{labels}`) →
/// value. Histograms contribute their `_sum`, `_count` and `_bucket`
/// series under those suffixed names.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    series: BTreeMap<String, f64>,
}

impl Snapshot {
    /// Takes a snapshot of the live global registry.
    pub fn take() -> Snapshot {
        Snapshot::parse(&so_obs::global().render())
    }

    /// Parses Prometheus text exposition lines; comments and lines that do
    /// not end in a number are skipped.
    pub fn parse(text: &str) -> Snapshot {
        let series = text
            .lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| {
                let (key, value) = l.rsplit_once(' ')?;
                Some((key.to_owned(), value.parse::<f64>().ok()?))
            })
            .collect();
        Snapshot { series }
    }

    /// The sum over every label set of metric `name` (0 when absent — a
    /// metric the program never registered has done no work).
    pub fn total(&self, name: &str) -> f64 {
        self.series
            .iter()
            .filter(|(key, _)| key.split('{').next() == Some(name))
            .map(|(_, v)| v)
            .sum()
    }

    /// `after.total(name) - self.total(name)`.
    pub fn delta(&self, after: &Snapshot, name: &str) -> f64 {
        after.total(name) - self.total(name)
    }
}
