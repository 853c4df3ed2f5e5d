#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # so-bench — experiment harness
//!
//! One module per experiment in DESIGN.md §3 (E1–E21, LT1/LT2), each
//! exposing `run(scale) -> Vec<Table>`; [`experiments::ALL`] lists them by
//! id so the `exp <id|all>` binary and the integration tests share one code
//! path. `exp` accepts `--quick` for a reduced-scale run and `--metrics` for
//! a Prometheus-style dump of the `so-obs` registry after the tables;
//! `SO_TRACE` / `SO_METRICS` route spans and metrics to files without
//! touching stdout.

pub mod check_output;
pub mod experiments;
pub mod models;
pub mod table;

pub use table::Table;

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced parameters for smoke tests and `--quick`.
    Quick,
    /// The parameters recorded in EXPERIMENTS.md.
    Full,
}

impl Scale {
    /// Selects between the two scale presets.
    pub fn pick<T>(&self, quick: T, full: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}

/// Prints the tables of one experiment, text form then CSV.
pub fn print_tables(tables: &[Table]) {
    for t in tables {
        println!("{}", t.render());
    }
    println!("--- CSV ---");
    for t in tables {
        println!("{}", t.to_csv());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_pick() {
        assert_eq!(Scale::Quick.pick(1, 2), 1);
        assert_eq!(Scale::Full.pick(1, 2), 2);
    }
}
