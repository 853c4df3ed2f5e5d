//! The declarative determinism-verification matrix behind `cargo run -p
//! xtask --bin verify_matrix`.
//!
//! CI's determinism job used to be a ~90-line shell pyramid: run each
//! experiment under every configuration axis, `diff` the transcripts, `diff`
//! the `_micros`-filtered metric dumps, `diff` the checked-in artifacts.
//! Every new experiment meant hand-expanding the pyramid. This module
//! replaces it with one table — [`cases`] says *what* is verified per
//! experiment, [`variants`] says *which* configuration axes exist — and the
//! `verify_matrix` binary executes the cross product. Adding an experiment
//! to the sweep is one [`CaseSpec`] line.
//!
//! Everything here is pure data and string transforms so it can be unit
//! tested without running a single experiment; process execution lives in
//! the binary.

/// What the matrix verifies for one experiment binary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CaseSpec {
    /// Short label used in output and scratch-file names (`e01`).
    pub name: &'static str,
    /// The `so-bench` binary to run with `--quick`.
    pub bin: &'static str,
    /// Checked-in transcript the baseline run must match byte-for-byte.
    pub artifact: Option<&'static str>,
    /// The experiment exercises instrumented code: require nonempty trace
    /// and metrics files from the traced variants and compare the
    /// `_micros`-filtered metric dumps across thread counts. (E1 drives the
    /// raw mechanisms, not the instrumented engine, and emits neither.)
    pub expect_obs: bool,
    /// Also run under `SO_COMPACT_THRESHOLD=1` and require that lines
    /// containing this needle survive unchanged (compaction may relayout
    /// segments — and the log narrates them — but must never change a
    /// workload answer).
    pub compaction_grep: Option<&'static str>,
    /// Only verify that the experiment produces a nonempty `SO_METRICS`
    /// dump (the E17 smoke); skip the transcript sweep.
    pub metrics_smoke_only: bool,
}

/// The matrix: every experiment CI verifies, and how.
pub const fn cases() -> &'static [CaseSpec] {
    const NONE: CaseSpec = CaseSpec {
        name: "",
        bin: "",
        artifact: None,
        expect_obs: false,
        compaction_grep: None,
        metrics_smoke_only: false,
    };
    &[
        CaseSpec {
            name: "e01",
            bin: "exp_e01_exhaustive_reconstruction",
            ..NONE
        },
        CaseSpec {
            name: "e16",
            bin: "exp_e16_workload_lint",
            expect_obs: true,
            ..NONE
        },
        CaseSpec {
            name: "e18",
            bin: "exp_e18_query_matrix",
            artifact: Some("experiments/e18_transcript.txt"),
            expect_obs: true,
            ..NONE
        },
        CaseSpec {
            name: "e19",
            bin: "exp_e19_incremental",
            artifact: Some("experiments/e19_transcript.txt"),
            expect_obs: true,
            compaction_grep: Some("workload"),
            ..NONE
        },
        CaseSpec {
            name: "e20",
            bin: "exp_e20_service_attack",
            artifact: Some("experiments/e20_transcript.txt"),
            expect_obs: true,
            ..NONE
        },
        CaseSpec {
            name: "e21",
            bin: "exp_e21_flight_recorder",
            artifact: Some("experiments/e21_transcript.txt"),
            expect_obs: true,
            ..NONE
        },
        CaseSpec {
            name: "e17",
            bin: "exp_e17_observability",
            metrics_smoke_only: true,
            ..NONE
        },
    ]
}

/// One configuration-axis variant of a case run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Variant {
    /// Scratch-file label (`flight4_t8`).
    pub label: &'static str,
    /// Environment to set on top of a scrubbed `SO_*` environment.
    pub env: &'static [(&'static str, &'static str)],
    /// Attach `SO_TRACE` / `SO_METRICS` files to the run.
    pub traced: bool,
}

/// The first variant is the baseline every other transcript is diffed
/// against. `t8_again` repeats an identical configuration so flaky
/// nondeterminism (map iteration, racy accumulation) can't hide behind
/// "different config, different output".
pub const fn variants() -> &'static [Variant] {
    &[
        Variant {
            label: "t1",
            env: &[("SO_THREADS", "1")],
            traced: false,
        },
        Variant {
            label: "t8",
            env: &[("SO_THREADS", "8")],
            traced: false,
        },
        Variant {
            label: "t8_again",
            env: &[("SO_THREADS", "8")],
            traced: false,
        },
        Variant {
            label: "flight4_t8",
            env: &[("SO_THREADS", "8"), ("SO_FLIGHT_CAP", "4")],
            traced: false,
        },
        Variant {
            label: "traced_t1",
            env: &[("SO_THREADS", "1")],
            traced: true,
        },
        Variant {
            label: "traced_t8",
            env: &[("SO_THREADS", "8")],
            traced: true,
        },
    ]
}

/// The extra variant for cases with a [`CaseSpec::compaction_grep`].
pub const COMPACTION_VARIANT: Variant = Variant {
    label: "compact1_t8",
    env: &[("SO_THREADS", "8"), ("SO_COMPACT_THRESHOLD", "1")],
    traced: false,
};

/// Drops every line containing `_micros` — the wall-clock histograms are
/// export-only and exempt from cross-configuration equality.
pub fn filter_micros(text: &str) -> String {
    filter_lines(text, |line| !line.contains("_micros"))
}

/// Keeps only lines containing `needle` (the compaction-variant compare).
pub fn filter_containing(text: &str, needle: &str) -> String {
    filter_lines(text, |line| line.contains(needle))
}

fn filter_lines(text: &str, keep: impl Fn(&str) -> bool) -> String {
    let mut out = String::new();
    for line in text.lines().filter(|l| keep(l)) {
        out.push_str(line);
        out.push('\n');
    }
    out
}

/// Where two texts first disagree, for a useful failure message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Difference {
    /// 1-based line number of the first disagreement.
    pub line: usize,
    /// That line in the left text (empty when the left ran out).
    pub left: String,
    /// That line in the right text (empty when the right ran out).
    pub right: String,
}

impl std::fmt::Display for Difference {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "line {}:\n  - {}\n  + {}",
            self.line, self.left, self.right
        )
    }
}

/// `None` when the texts are byte-identical, else the first differing line.
pub fn first_difference(left: &str, right: &str) -> Option<Difference> {
    if left == right {
        return None;
    }
    let mut l = left.lines();
    let mut r = right.lines();
    let mut lineno = 0usize;
    loop {
        lineno += 1;
        match (l.next(), r.next()) {
            (Some(a), Some(b)) if a == b => continue,
            (a, b) => {
                return Some(Difference {
                    line: lineno,
                    left: a.unwrap_or("").to_owned(),
                    right: b.unwrap_or("").to_owned(),
                });
            }
        }
    }
}

/// Environment variables that steer the engines; every run starts from a
/// scrubbed slate so the invoking shell can't leak configuration into a
/// variant.
pub const SO_ENV_VARS: [&str; 6] = [
    "SO_THREADS",
    "SO_COMPACT_THRESHOLD",
    "SO_TRACE",
    "SO_METRICS",
    "SO_FLIGHT_CAP",
    "SO_SLOWLOG_MICROS",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_case_table_is_well_formed() {
        let cases = cases();
        assert!(cases.len() >= 6);
        let mut names: Vec<&str> = cases.iter().map(|c| c.name).collect();
        names.sort_unstable();
        let mut dedup = names.clone();
        dedup.dedup();
        assert_eq!(names, dedup, "case names must be unique");
        for c in cases {
            assert!(c.bin.starts_with("exp_"), "{}: odd binary name", c.name);
            if let Some(a) = c.artifact {
                assert!(
                    a.starts_with("experiments/") && a.ends_with(".txt"),
                    "{}: artifact path {a} out of convention",
                    c.name
                );
            }
            if c.metrics_smoke_only {
                assert!(c.artifact.is_none() && c.compaction_grep.is_none());
            }
        }
        // Every experiment with a checked-in transcript must be swept.
        for name in ["e18", "e19", "e20", "e21"] {
            let c = cases.iter().find(|c| c.name == name).expect(name);
            assert!(c.artifact.is_some(), "{name} lost its artifact check");
        }
    }

    #[test]
    fn the_variant_axes_cover_ci() {
        let vs = variants();
        assert_eq!(vs[0].label, "t1", "first variant is the baseline");
        // A repeated identical config guards against run-to-run flakiness.
        let t8: Vec<&Variant> = vs
            .iter()
            .filter(|v| v.env == [("SO_THREADS", "8")] && !v.traced)
            .collect();
        assert_eq!(t8.len(), 2, "need t8 and t8_again");
        // The flight-recorder cap must be swept: transcripts may print the
        // cumulative total and newest few records, never anything
        // cap-shaped.
        assert!(vs.iter().any(|v| v.env.contains(&("SO_FLIGHT_CAP", "4"))));
        assert_eq!(vs.iter().filter(|v| v.traced).count(), 2);
        for v in vs {
            for (k, _) in v.env {
                assert!(SO_ENV_VARS.contains(k), "{k} missing from the scrub list");
            }
        }
        assert!(SO_ENV_VARS.contains(&COMPACTION_VARIANT.env[1].0));
    }

    #[test]
    fn micros_filter_drops_only_timing_lines() {
        let dump = "so_queries_total 5\nso_scan_micros_bucket{le=\"10\"} 3\nso_rows 9\n";
        assert_eq!(filter_micros(dump), "so_queries_total 5\nso_rows 9\n");
        assert_eq!(filter_containing(dump, "rows"), "so_rows 9\n");
    }

    #[test]
    fn first_difference_reports_the_right_line() {
        assert_eq!(first_difference("a\nb\n", "a\nb\n"), None);
        let d = first_difference("a\nb\nc\n", "a\nX\nc\n").expect("differs");
        assert_eq!((d.line, d.left.as_str(), d.right.as_str()), (2, "b", "X"));
        // Length mismatch: the missing side reads as empty.
        let d = first_difference("a\n", "a\nb\n").expect("differs");
        assert_eq!((d.line, d.left.as_str(), d.right.as_str()), (2, "", "b"));
        // Same lines, different trailing whitespace is still a difference.
        assert!(first_difference("a", "a\n").is_some() || "a" == "a\n");
    }
}
