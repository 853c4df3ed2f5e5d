//! `so-wirebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Untraced (`--trace 0`): end-to-end metrics over one window. Traced
//! (`--trace 1`): the window is split; the first half runs untraced and
//! gives the registry deltas, the second half runs with client and program
//! spans on and gives per-layer self time; their difference is the tracing
//! overhead. The last stdout line is the JSON result.

use std::process::ExitCode;
use std::time::Duration;

use so_wirebench::report::{metric, parse_args, result_line, Metric, USAGE};
use so_wirebench::run::{
    check_lp_decode, replay_codec, set_up, verdict_name, Phase, MAX_SETUPS, MIN_SETUPS,
    SETUP_BUDGET, WARMUP, WORKERS,
};
use so_wirebench::stats::median;
use so_wirebench::sys;
use so_wirebench::trace::{self_times, Trace};
use so_wirebench::workload::Workload;

/// Span names of the self-time table, callers before callees, and the
/// per-layer metric each reports. The root's self time is 0 by
/// construction (encode, wait and decode tile it), so it has no metric.
const TRACED_SPANS: [(&str, &str); 8] = [
    ("client.request", ""),
    ("client.encode", "trace.client.encode.self_us"),
    ("client.wait", "trace.client.wait.self_us"),
    ("client.decode", "trace.client.decode.self_us"),
    ("serve.request", "trace.serve.request.self_us"),
    ("gate.lint", "trace.gate.lint.self_us"),
    ("engine.workload", "trace.engine.workload.self_us"),
    ("plan.execute", "trace.plan.execute.self_us"),
];

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("so-wirebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let so_vars = sys::so_env_vars();
    if !so_vars.is_empty() {
        eprintln!(
            "so-wirebench: refusing to run with {} set: results must come from the \
             program's default configuration; unset them and rerun",
            so_vars.join(", ")
        );
        return ExitCode::from(2);
    }
    match run(args.workload, args.seed, args.window, args.trace) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("so-wirebench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(workload: Workload, seed: u64, window: Duration, traced: bool) -> Result<String, String> {
    println!(
        "env: workload={} seed={seed} available_parallelism={} nproc={} workers={WORKERS} \
         rustc=\"{}\" commit={}",
        workload.name(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        sys::nproc(),
        sys::rustc_version(),
        sys::git_commit(),
    );

    // Set-up, several times: the median is the metric.
    let mut setups = Vec::with_capacity(MIN_SETUPS);
    let mut bench = None;
    while setups.len() < MIN_SETUPS
        || (setups.len() < MAX_SETUPS && setups.iter().sum::<f64>() < SETUP_BUDGET.as_secs_f64())
    {
        if let Some(previous) = bench.take() {
            so_wirebench::run::Bench::shut_down(previous);
        }
        let (b, took) = set_up(workload, seed)?;
        setups.push(took.as_secs_f64());
        bench = Some(b);
    }
    let mut bench = bench.expect("MIN_SETUPS > 0");
    let setup_s = median(&setups);

    let warm = bench.run_phase(WARMUP, None);
    // The footprint of the loaded, warmed server. Read before the window:
    // memory that grows per request (the gated tenant's refusal log) would
    // otherwise make a faster program look larger in a fixed-length window;
    // that growth is reported per request by the traced run instead.
    let peak_rss_mb = sys::peak_rss_mb();
    let window_start = bench.next_indices();

    let (main, traced_phase) = if traced {
        let half = window / 2;
        let untraced = bench.run_phase(half, None);
        let trace = Trace::install().ok_or("a trace subscriber was already installed")?;
        let traced_phase = bench.run_phase(half, Some(&trace));
        (untraced, Some(traced_phase))
    } else {
        (bench.run_phase(window, None), None)
    };
    let rss_growth_kb = (sys::peak_rss_mb() - peak_rss_mb) * 1024.0;

    // Correctness: every response was checked in the loop; these run once.
    let mut problems: Vec<String> = Vec::new();
    let phases = || [&warm, &main].into_iter().chain(traced_phase.as_ref());
    for p in phases() {
        problems.extend(p.failures.iter().cloned());
    }
    let attempted: u64 = phases().map(|p| p.attempted).sum();
    let mut failed: u64 = phases().map(|p| p.failed).sum();
    let mut checks = bench.final_checks();
    if workload == Workload::LpAnswered {
        match main.last_battery.as_ref() {
            Some(battery) => match check_lp_decode(battery, bench.secret(0)) {
                Ok(acc) => println!("check: lp_decode reconstructed {:.1}% of rows", acc * 100.0),
                Err(e) => checks.push(e),
            },
            None => checks.push("no answered battery to decode".to_owned()),
        }
    }
    // Each failed after-window check counts as one failed request.
    failed += checks.len() as u64;
    problems.extend(checks);
    let p95 = main.p95_ms();
    if p95.is_none() && !traced {
        problems.push(format!(
            "{} samples cannot support p95 with 10 beyond it: lengthen the window",
            main.latencies_ms.len()
        ));
    }
    let correct = problems.is_empty() && failed == 0;
    for p in &problems {
        println!("FAIL: {p}");
    }

    // Input properties, printed beside the metrics.
    let n = main.completed.max(1) as f64;
    let request_bytes = main.request_bytes as f64 / n;
    let response_bytes = main.response_bytes as f64 / n;
    let seen_share = bench.seen_predicate_share(&window_start);
    println!(
        "input: sessions={} queries/request={} request_bytes={request_bytes:.0} \
         response_bytes={response_bytes:.0} seen_predicates={:.1}% expected={}",
        workload.sessions(),
        workload.queries_per_request(),
        seen_share * 100.0,
        verdict_name(workload.expected()),
    );
    println!(
        "window: requests={} seconds={:.3} failed_frac={:.6} latency_samples={} setups={} host_steal={:.1}%",
        main.completed,
        main.elapsed.as_secs_f64(),
        failed as f64 / attempted.max(1) as f64,
        main.latencies_ms.len(),
        setups.len(),
        main.steal_frac * 100.0,
    );

    let metrics = if let Some(tp) = &traced_phase {
        let window_requests = (main.completed + tp.completed).max(1) as f64;
        let mut layers = per_layer(&bench, &main, tp, request_bytes, response_bytes);
        layers.push(metric(
            "memory.rss_growth_kb_per_req",
            rss_growth_kb / window_requests,
            "KB",
        ));
        layers
    } else {
        vec![
            metric("throughput_rps", main.throughput_rps(), "1/s"),
            metric("latency_p50_ms", main.p50_ms(), "ms"),
            // An unsupported p95 already failed the run; report the maximum.
            metric(
                "latency_p95_ms",
                p95.unwrap_or_else(|| main.latencies_ms.iter().copied().fold(0.0, f64::max)),
                "ms",
            ),
            metric("cpu_ms_per_req", main.cpu_ms_per_req(), "ms"),
            metric("peak_rss_mb", peak_rss_mb, "MB"),
            metric("setup_s", setup_s, "s"),
            metric(
                "verdict_ok_frac",
                1.0 - failed as f64 / attempted.max(1) as f64,
                "ratio",
            ),
        ]
    };
    for m in &metrics {
        println!("metric: {:<34} {:>14.4} {}", m.name, m.value, m.unit);
    }
    bench.shut_down();
    Ok(result_line(correct, attempted, failed, &metrics))
}

/// The traced run's metrics: registry deltas and client timers from the
/// untraced half, self times from the traced half, overhead between them.
fn per_layer(
    bench: &so_wirebench::run::Bench,
    untraced: &Phase,
    traced: &Phase,
    request_bytes: f64,
    response_bytes: f64,
) -> Vec<Metric> {
    let n = untraced.completed.max(1) as f64;
    let per_req = |name: &str| untraced.delta(name) / n;
    let client_wait = untraced.wait_us / n;
    let dispatch = untraced.delta("so_serve_request_micros_sum")
        / untraced.delta("so_serve_request_micros_count").max(1.0);
    let lint_us = per_req("so_analyze_lint_micros_sum");
    let plan_us = per_req("so_plan_execute_micros_sum");
    let atom_scans = per_req("so_plan_atom_scans_total");
    let rows_per_scan = bench.workload.tenants(bench.seed)[0].n_rows as f64;
    let (proto_decode, proto_encode) = replay_codec(&untraced.frames);

    let selfs = self_times(&traced.spans);
    let lost = traced.unattributed_spans;
    let traced_n = traced.completed.max(1) as f64;
    println!(
        "self time per request, traced half ({} requests, {lost} spans without a request id):",
        traced.completed
    );
    println!(
        "  {:<16} {:<16} {:>8} {:>12} {:>7}",
        "span", "parent", "spans", "self_us/req", "share"
    );
    let total: f64 = selfs.values().map(|(s, _)| s).sum();
    for (name, _) in TRACED_SPANS {
        let (self_us, count) = selfs.get(name).copied().unwrap_or((0.0, 0));
        let parent =
            so_wirebench::trace::program_parent(name).unwrap_or(if name == "client.request" {
                "-"
            } else {
                "client.request"
            });
        println!(
            "  {name:<16} {parent:<16} {count:>8} {:>12.1} {:>6.1}%",
            self_us / traced_n,
            100.0 * self_us / total.max(f64::MIN_POSITIVE)
        );
    }
    println!(
        "tracing overhead (traced − untraced half): latency_p50_ms {:+.4} throughput_rps {:+.2} cpu_ms_per_req {:+.4}",
        traced.p50_ms() - untraced.p50_ms(),
        traced.throughput_rps() - untraced.throughput_rps(),
        traced.cpu_ms_per_req() - untraced.cpu_ms_per_req(),
    );

    let rows_scanned = bench.rows_scanned_per_req();
    let mut out = vec![
        metric("client.encode_us", untraced.encode_us / n, "us"),
        metric("client.wait_us", client_wait, "us"),
        metric("client.decode_us", untraced.decode_us / n, "us"),
        metric("server.dispatch_us", dispatch, "us"),
        metric("server.other_us", client_wait - dispatch, "us"),
        metric(
            "server.proto_errors",
            untraced.delta("so_serve_proto_errors_total"),
            "count",
        ),
        metric(
            "server.rate_limited",
            untraced.delta("so_serve_rate_limited_total"),
            "count",
        ),
        metric("proto.decode_us", proto_decode, "us"),
        metric("proto.encode_us", proto_encode, "us"),
        metric("proto.request_bytes", request_bytes, "bytes"),
        metric("proto.response_bytes", response_bytes, "bytes"),
        metric("lint.us", lint_us, "us"),
        metric(
            "lint.runs_per_req",
            per_req("so_analyze_lint_runs_total"),
            "count",
        ),
        metric("plan.execute_us", plan_us, "us"),
        metric("plan.shard_us", per_req("so_plan_shard_micros_sum"), "us"),
        metric("plan.atom_scans_per_req", atom_scans, "count"),
        metric(
            "plan.cache_hits_per_req",
            per_req("so_plan_cache_hits_total"),
            "count",
        ),
        metric(
            "storage.scans_per_req",
            per_req("so_storage_packed_scans_total"),
            "count",
        ),
        metric(
            "storage.bytes_per_req",
            per_req("so_storage_packed_scanned_bytes"),
            "bytes",
        ),
        metric(
            "storage.rows_per_us",
            if plan_us > 0.0 {
                atom_scans * rows_per_scan / plan_us
            } else {
                0.0
            },
            "rows/us",
        ),
        metric("tenant.self_us", dispatch - lint_us - plan_us, "us"),
        metric("tenant.rows_scanned_per_req", rows_scanned, "rows"),
        metric(
            "dp.draws_per_req",
            per_req("so_dp_noise_draws_total"),
            "count",
        ),
        metric(
            "flight.records_per_req",
            per_req("so_serve_flight_records_total"),
            "count",
        ),
    ];
    for (span, name) in TRACED_SPANS
        .into_iter()
        .filter(|(_, name)| !name.is_empty())
    {
        let self_us = selfs.get(span).map_or(0.0, |(s, _)| *s);
        out.push(metric(name, self_us / traced_n, "us"));
    }
    out.extend([
        metric(
            "trace.overhead_p50_ms",
            traced.p50_ms() - untraced.p50_ms(),
            "ms",
        ),
        metric(
            "trace.overhead_throughput_rps",
            traced.throughput_rps() - untraced.throughput_rps(),
            "1/s",
        ),
        metric(
            "trace.overhead_cpu_ms_per_req",
            traced.cpu_ms_per_req() - untraced.cpu_ms_per_req(),
            "ms",
        ),
        metric("trace.unattributed_spans", lost as f64, "count"),
    ]);
    out
}
