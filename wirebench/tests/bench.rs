//! Tests of the benchmark's own machinery: seeded inputs, percentiles,
//! registry deltas, verdict classification, and self-time reduction.

use so_serve::{Request, Response, WireRefusal};
use so_wirebench::registry::Snapshot;
use so_wirebench::report::{metric, parse_args, result_line};
use so_wirebench::stats::{median, percentile};
use so_wirebench::trace::{self_times, SpanRecord};
use so_wirebench::wire::encode;
use so_wirebench::workload::{check_subset_sums, classify, Verdict, Workload, LP_QUERIES};

#[test]
fn same_seed_gives_byte_identical_request_frames() {
    for w in Workload::ALL {
        for session in 0..w.sessions() {
            for i in [0, 1, 57] {
                let id = format!("{}-{session}-{i}", w.name());
                let a = encode(&w.input(42, session, i).request, &id);
                let b = encode(&w.input(42, session, i).request, &id);
                assert_eq!(a, b, "{} session {session} request {i}", w.name());
                let other = encode(&w.input(43, session, i).request, &id);
                assert_ne!(a, other, "{}: the seed must matter", w.name());
            }
        }
    }
}

#[test]
fn inputs_have_the_declared_shape() {
    for w in Workload::ALL {
        let input = w.input(7, 0, 3);
        let Request::Workload { queries, .. } = &input.request else {
            panic!("{} sends workloads", w.name());
        };
        assert_eq!(queries.len(), w.queries_per_request(), "{}", w.name());
        for (i, q) in queries.iter().enumerate() {
            assert!(
                !queries[..i].contains(q),
                "{}: duplicate query in one request",
                w.name()
            );
        }
        let lp = matches!(w, Workload::LpAnswered | Workload::LpRefused);
        assert_eq!(input.masks.len(), if lp { LP_QUERIES } else { 0 });
    }
}

#[test]
fn percentile_needs_ten_samples_beyond_it() {
    let samples: Vec<f64> = (1..=200).map(f64::from).collect();
    // Nearest rank 190 of 200 leaves exactly 10 samples above.
    assert_eq!(percentile(&samples, 0.95, 10), Some(190.0));
    assert_eq!(percentile(&samples, 0.5, 10), Some(100.0));
    // 199 samples: rank 190 leaves 9 above — unsupported.
    assert_eq!(percentile(&samples[..199], 0.95, 10), None);
    assert_eq!(percentile(&samples[..199], 0.95, 9), Some(190.0));
    assert_eq!(percentile(&[], 0.5, 0), None);
    // Order of the input does not matter.
    let mut reversed = samples.clone();
    reversed.reverse();
    assert_eq!(percentile(&reversed, 0.95, 10), Some(190.0));
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
}

#[test]
fn registry_delta_sums_label_sets_and_histogram_series() {
    let before = Snapshot::parse(
        "# TYPE so_x_total counter\n\
         so_x_total{dist=\"laplace\"} 3\n\
         so_x_total{dist=\"geometric\"} 1\n\
         # TYPE so_h histogram\n\
         so_h_bucket{le=\"10\"} 2\n\
         so_h_sum 17.5\n\
         so_h_count 2\n",
    );
    let after = Snapshot::parse(
        "so_x_total{dist=\"laplace\"} 10\n\
         so_x_total{dist=\"geometric\"} 1\n\
         so_x_total_other 99\n\
         so_h_sum 40\n\
         so_h_count 5\n",
    );
    assert_eq!(before.delta(&after, "so_x_total"), 7.0);
    assert_eq!(before.delta(&after, "so_h_sum"), 22.5);
    assert_eq!(before.delta(&after, "so_h_count"), 3.0);
    assert_eq!(before.delta(&after, "so_never_registered"), 0.0);
}

#[test]
fn registry_delta_reads_the_live_global_registry() {
    let counter = so_obs::global().counter_with("so_wirebench_selftest_total", &[("k", "v")]);
    let before = Snapshot::take();
    counter.add(5);
    let after = Snapshot::take();
    assert_eq!(before.delta(&after, "so_wirebench_selftest_total"), 5.0);
}

fn refusal(query: Option<usize>, code: &str) -> WireRefusal {
    WireRefusal {
        query,
        code: code.to_owned(),
        evidence: String::new(),
    }
}

#[test]
fn classification_counts_only_the_expected_verdict() {
    let answered = Response::Answers {
        answers: vec![1.0, 2.0],
    };
    assert_eq!(classify(&answered, Verdict::Answered, 2), Ok(()));
    assert!(classify(&answered, Verdict::Answered, 3).is_err());
    assert!(classify(&answered, Verdict::Refused, 2).is_err());

    let recon = Response::Refused {
        refusals: vec![
            refusal(Some(0), "SO-LINREC"),
            refusal(Some(5), "SO-LINREC"),
            refusal(None, "SO-RECON"),
        ],
        queries: 8,
    };
    assert_eq!(classify(&recon, Verdict::Refused, 8), Ok(()));
    assert!(classify(&recon, Verdict::Answered, 8).is_err());

    let descending = Response::Refused {
        refusals: vec![
            refusal(Some(5), "SO-LINREC"),
            refusal(Some(0), "SO-LINREC"),
            refusal(None, "SO-RECON"),
        ],
        queries: 8,
    };
    assert!(classify(&descending, Verdict::Refused, 8).is_err());

    let no_recon = Response::Refused {
        refusals: vec![refusal(Some(0), "SO-LINREC")],
        queries: 8,
    };
    assert!(classify(&no_recon, Verdict::Refused, 8).is_err());

    // A budget refusal is a failure even where a refusal is expected.
    let cbudget = Response::Refused {
        refusals: vec![refusal(Some(0), "SO-CBUDGET"), refusal(None, "SO-RECON")],
        queries: 8,
    };
    assert!(classify(&cbudget, Verdict::Refused, 8).is_err());
    let cbudget_only = Response::Refused {
        refusals: vec![refusal(Some(0), "SO-CBUDGET")],
        queries: 2,
    };
    assert!(classify(&cbudget_only, Verdict::Answered, 2).is_err());

    for code in ["SO-RATE", "SO-PROTO", "SO-TENANT", "SO-SHUTDOWN"] {
        let error = Response::Error {
            code: code.to_owned(),
            detail: String::new(),
            retry_after_ticks: Some(1),
        };
        assert!(classify(&error, Verdict::Answered, 2).is_err(), "{code}");
        assert!(classify(&error, Verdict::Refused, 2).is_err(), "{code}");
    }
}

#[test]
fn subset_sums_are_scored_against_the_secret() {
    let secret = 0b1011;
    let masks = [0b0011, 0b1100, 0b1111];
    assert_eq!(check_subset_sums(&[2.0, 1.0, 3.0], &masks, secret), Ok(()));
    assert!(check_subset_sums(&[2.0, 2.0, 3.0], &masks, secret).is_err());
}

fn span(name: &str, start: f64, end: f64, parent: Option<&str>, id: &str) -> SpanRecord {
    SpanRecord {
        name: name.to_owned(),
        start_us: start,
        end_us: end,
        parent: parent.map(str::to_owned),
        request_id: id.to_owned(),
    }
}

#[test]
fn self_time_subtracts_children_of_the_same_request() {
    let spans = [
        span("client.wait", 0.0, 100.0, None, "a"),
        span("serve.request", 10.0, 90.0, Some("client.wait"), "a"),
        span("gate.lint", 20.0, 30.0, Some("serve.request"), "a"),
        span("engine.workload", 30.0, 80.0, Some("serve.request"), "a"),
        span("plan.execute", 40.0, 70.0, Some("engine.workload"), "a"),
        // Another request's span never covers this one's.
        span("client.wait", 0.0, 50.0, None, "b"),
        span("serve.request", 200.0, 210.0, Some("client.wait"), "a"),
    ];
    let t = self_times(&spans);
    assert_eq!(t["client.wait"], (20.0 + 50.0, 2));
    assert_eq!(t["serve.request"], (20.0 + 10.0, 2));
    assert_eq!(t["gate.lint"], (10.0, 1));
    assert_eq!(t["engine.workload"], (20.0, 1));
    assert_eq!(t["plan.execute"], (30.0, 1));
}

#[test]
fn arguments_and_result_line() {
    let args = |s: &str| parse_args(s.split_whitespace().map(str::to_owned));
    let ok = args("--workload scan_1m --seed 9 --seconds 2 --trace 1").expect("valid");
    assert_eq!(ok.workload, Workload::Scan1m);
    assert_eq!((ok.seed, ok.window.as_secs(), ok.trace), (9, 2, true));
    assert!(args("--workload nope --seed 9 --seconds 2 --trace 0").is_err());
    assert!(args("--workload scan_1m --seed 9 --seconds 2").is_err());
    assert!(args("--workload scan_1m --seed 9 --seconds 2 --trace 0 --extra 1").is_err());
    assert!(args("--workload scan_1m --seed 9 --seconds 0 --trace 0").is_err());

    let line = result_line(true, 10, 0, &[metric("setup_s", 0.25, "s")]);
    assert_eq!(
        line,
        "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \
         \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
    );
}
