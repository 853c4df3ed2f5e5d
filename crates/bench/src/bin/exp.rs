//! `exp <id|all> [--quick] [--metrics]` — runs one experiment of DESIGN.md
//! §3 by its id in [`so_bench::experiments::ALL`], or every one in order.
//!
//! `--quick` selects the reduced scale; `--metrics` dumps the `so-obs`
//! global registry to stdout in the Prometheus text format once, after the
//! last table. `SO_TRACE=path` installs the JSON-lines span subscriber and
//! `SO_METRICS=path` writes the same dump to a file; neither adds a byte to
//! stdout, so traced and untraced transcripts stay byte-identical. Progress
//! and wall-clock timings go to stderr only. Any other argument is rejected
//! before an experiment starts.

use std::process::ExitCode;
use std::time::Instant;

use so_bench::experiments::{Run, ALL};
use so_bench::{print_tables, Scale};

/// A parsed command line.
struct Invocation {
    /// The chosen entries of [`ALL`]: one, or all of them.
    runs: &'static [(&'static str, Run)],
    scale: Scale,
    metrics: bool,
}

/// Parses the arguments after the program name.
fn parse(args: &[String]) -> Result<Invocation, String> {
    let mut runs = None;
    let mut scale = Scale::Full;
    let mut metrics = false;
    for arg in args {
        match arg.as_str() {
            "--quick" => scale = Scale::Quick,
            "--metrics" => metrics = true,
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag:?}")),
            id if runs.is_some() => return Err(format!("unexpected second id {id:?}")),
            "all" => runs = Some(ALL),
            id => match ALL.iter().position(|(name, _)| *name == id) {
                Some(i) => runs = Some(&ALL[i..=i]),
                None => return Err(format!("unknown experiment id {id:?}")),
            },
        }
    }
    let runs = runs.ok_or("no experiment id given")?;
    Ok(Invocation {
        runs,
        scale,
        metrics,
    })
}

fn usage() -> String {
    let ids: Vec<&str> = ALL.iter().map(|(id, _)| *id).collect();
    format!(
        "usage: exp <id|all> [--quick] [--metrics]\n  ids: {}",
        ids.join(" ")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let inv = match parse(&args) {
        Ok(inv) => inv,
        Err(e) => {
            eprintln!("exp: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    so_obs::init_from_env();
    for (id, run) in inv.runs {
        eprintln!(">>> running {id} ...");
        let start = Instant::now();
        print_tables(&run(inv.scale));
        eprintln!(">>> {id} done in {:.1?}\n", start.elapsed());
    }
    if inv.metrics {
        print!("{}", so_obs::global().render());
    }
    so_obs::write_metrics_if_env();
    so_obs::flush();
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| (*a).to_owned()).collect()
    }

    fn ids(inv: &Invocation) -> Vec<&'static str> {
        inv.runs.iter().map(|(id, _)| *id).collect()
    }

    #[test]
    fn the_registry_has_22_unique_ids() {
        assert_eq!(ALL.len(), 22);
        let mut ids: Vec<&str> = ALL.iter().map(|(id, _)| *id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), ALL.len(), "experiment ids must be unique");
        assert!(!ids.contains(&"all"), "`all` is reserved");
    }

    #[test]
    fn parses_an_id_or_all_with_flags_in_any_order() {
        let inv = parse(&args(&["e21", "--quick", "--metrics"])).expect("valid");
        assert_eq!(ids(&inv), ["e21"]);
        assert_eq!(inv.scale, Scale::Quick);
        assert!(inv.metrics);
        let inv = parse(&args(&["--quick", "lt"])).expect("valid");
        assert_eq!((ids(&inv), inv.metrics), (vec!["lt"], false));
        let inv = parse(&args(&["all"])).expect("valid");
        assert_eq!(inv.runs.len(), ALL.len());
        assert_eq!(inv.scale, Scale::Full);
    }

    #[test]
    fn rejects_typos_unknown_ids_and_a_missing_id() {
        for bad in [
            &["e02", "--quik"][..],
            &["e99", "--quick"],
            &["--quick"],
            &[],
            &["e01", "e02"],
            &["all", "lt"],
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad:?} must be rejected");
        }
        assert!(usage().contains("e01") && usage().contains(" lt"));
    }
}
