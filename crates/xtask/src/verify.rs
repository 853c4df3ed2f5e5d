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

/// What the matrix verifies for one experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CaseSpec {
    /// The experiment id `exp <id> --quick` runs (`e01`); also labels output
    /// and scratch-file names.
    pub name: &'static str,
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
        artifact: None,
        expect_obs: false,
        compaction_grep: None,
        metrics_smoke_only: false,
    };
    &[
        CaseSpec {
            name: "e01",
            ..NONE
        },
        CaseSpec {
            name: "e16",
            expect_obs: true,
            ..NONE
        },
        CaseSpec {
            name: "e18",
            artifact: Some("experiments/e18_transcript.txt"),
            expect_obs: true,
            ..NONE
        },
        CaseSpec {
            name: "e19",
            artifact: Some("experiments/e19_transcript.txt"),
            expect_obs: true,
            compaction_grep: Some("workload"),
            ..NONE
        },
        CaseSpec {
            name: "e20",
            artifact: Some("experiments/e20_transcript.txt"),
            expect_obs: true,
            ..NONE
        },
        CaseSpec {
            name: "e21",
            artifact: Some("experiments/e21_transcript.txt"),
            expect_obs: true,
            ..NONE
        },
        CaseSpec {
            name: "e17",
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

/// Appended to a shown line that ends the text without a newline.
const NO_FINAL_NEWLINE: &str = " [no newline at end of text]";

/// Appended to a shown line that ends in `\r\n` rather than `\n`.
const CRLF_ENDING: &str = " [CRLF line ending]";

/// Shown for a line with no content, so it cannot be mistaken for the side
/// that ran out of lines.
const EMPTY_LINE: &str = "[empty line]";

/// One line of a text, with its terminator, as shown in a [`Difference`]:
/// an empty line and any ending other than `\n` are named.
fn shown_line(line: Option<&str>) -> String {
    let Some(line) = line else {
        return String::new();
    };
    let (content, ending) = if let Some(c) = line.strip_suffix("\r\n") {
        (c, CRLF_ENDING)
    } else if let Some(c) = line.strip_suffix('\n') {
        (c, "")
    } else {
        (line, NO_FINAL_NEWLINE)
    };
    let content = if content.is_empty() {
        EMPTY_LINE
    } else {
        content
    };
    format!("{content}{ending}")
}

/// `None` when the texts are byte-identical, else the first line (counting
/// its terminator) that differs.
pub fn first_difference(left: &str, right: &str) -> Option<Difference> {
    let mut l = left.split_inclusive('\n');
    let mut r = right.split_inclusive('\n');
    let mut line = 0usize;
    loop {
        line += 1;
        match (l.next(), r.next()) {
            (None, None) => return None,
            (Some(a), Some(b)) if a == b => continue,
            (a, b) => {
                return Some(Difference {
                    line,
                    left: shown_line(a),
                    right: shown_line(b),
                })
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
            let id = c.name.as_bytes();
            assert!(
                c.name == "lt"
                    || (id.len() == 3 && id[0] == b'e' && id[1..].iter().all(u8::is_ascii_digit)),
                "{}: not an experiment id",
                c.name
            );
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
        // Only the final newline differs: the side that lacks it says so.
        let d = first_difference("a", "a\n").expect("differs");
        assert_eq!((d.line, d.right.as_str()), (1, "a"));
        assert_eq!(d.left, format!("a{NO_FINAL_NEWLINE}"));
        let d = first_difference("a\nb\n", "a\nb").expect("differs");
        assert_eq!((d.line, d.left.as_str()), (2, "b"));
        assert_eq!(d.right, format!("b{NO_FINAL_NEWLINE}"));
        // An extra empty line is named, not shown as a second blank side.
        let d = first_difference("a\n", "a\n\n").expect("differs");
        assert_eq!((d.line, d.left.as_str()), (2, ""));
        assert_eq!(d.right, EMPTY_LINE);
        // Only the line ending differs: the CRLF side says so.
        let d = first_difference("a\r\n", "a\n").expect("differs");
        assert_eq!((d.line, d.right.as_str()), (1, "a"));
        assert_eq!(d.left, format!("a{CRLF_ENDING}"));
        assert_ne!(d.left, d.right);
    }
}
