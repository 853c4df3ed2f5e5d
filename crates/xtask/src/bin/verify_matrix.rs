//! `cargo run -p xtask --bin verify_matrix` — the determinism matrix.
//!
//! Executes every [`xtask::verify::cases`] experiment under every
//! [`xtask::verify::variants`] configuration (threads × tracing × flight
//! cap, plus compaction where declared) and requires:
//!
//! * every variant's transcript byte-identical to the `t1` baseline;
//! * the baseline byte-identical to the checked-in `experiments/` artifact,
//!   where one exists;
//! * `_micros`-filtered `SO_METRICS` dumps identical across thread counts;
//! * nonempty trace and metrics files from the traced variants.
//!
//! It first builds the release `exp` binary (a no-op when it is up to
//! date) and runs each case as `exp <name> --quick`. Scratch output lands in
//! `target/verify_matrix/`.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use xtask::verify::{
    cases, filter_containing, filter_micros, first_difference, variants, CaseSpec, Variant,
    COMPACTION_VARIANT, SO_ENV_VARS,
};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/xtask sits two levels below the workspace root")
        .to_path_buf()
}

/// Runs one experiment under a scrubbed `SO_*` environment plus the
/// variant's own settings; returns captured stdout.
fn run_variant(
    root: &Path,
    scratch: &Path,
    case: &CaseSpec,
    variant: &Variant,
) -> Result<String, String> {
    let bin = root
        .join("target/release/exp")
        .with_extension(std::env::consts::EXE_EXTENSION);
    let mut cmd = Command::new(&bin);
    cmd.args([case.name, "--quick"]).current_dir(root);
    for var in SO_ENV_VARS {
        cmd.env_remove(var);
    }
    for (k, v) in variant.env {
        cmd.env(k, v);
    }
    if variant.traced {
        cmd.env(
            "SO_TRACE",
            scratch.join(format!("{}_{}.jsonl", case.name, variant.label)),
        );
        cmd.env(
            "SO_METRICS",
            scratch.join(format!("{}_{}.prom", case.name, variant.label)),
        );
    }
    let out = cmd
        .output()
        .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
    if !out.status.success() {
        return Err(format!(
            "exp {} [{}] exited with {}:\n{}",
            case.name,
            variant.label,
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    fs::write(
        scratch.join(format!("{}_{}.txt", case.name, variant.label)),
        &text,
    )
    .map_err(|e| format!("writing scratch transcript: {e}"))?;
    Ok(text)
}

/// Reads a scratch side-file produced by a traced variant.
fn read_scratch(scratch: &Path, name: &str) -> Result<String, String> {
    fs::read_to_string(scratch.join(name)).map_err(|e| format!("reading {name}: {e}"))
}

/// The E17-style smoke: one run, `SO_METRICS` must land nonempty.
fn metrics_smoke(root: &Path, scratch: &Path, case: &CaseSpec) -> Result<(), String> {
    let variant = Variant {
        label: "metrics_smoke",
        env: &[],
        traced: true,
    };
    run_variant(root, scratch, case, &variant)?;
    let dump = read_scratch(scratch, &format!("{}_metrics_smoke.prom", case.name))?;
    if dump.trim().is_empty() {
        return Err(format!("{}: SO_METRICS dump is empty", case.name));
    }
    println!(
        "  {}: metrics smoke ok ({} lines)",
        case.name,
        dump.lines().count()
    );
    Ok(())
}

/// Sweeps one case across the full variant matrix.
fn verify_case(root: &Path, scratch: &Path, case: &CaseSpec) -> Result<(), String> {
    if case.metrics_smoke_only {
        return metrics_smoke(root, scratch, case);
    }
    let mut baseline = String::new();
    for variant in variants() {
        let text = run_variant(root, scratch, case, variant)?;
        if variant.label == "t1" {
            baseline = text;
            continue;
        }
        if let Some(d) = first_difference(&baseline, &text) {
            return Err(format!(
                "{}: transcript diverges under [{}] at {d}",
                case.name, variant.label
            ));
        }
    }
    if let Some(artifact) = case.artifact {
        let recorded = fs::read_to_string(root.join(artifact))
            .map_err(|e| format!("{}: reading {artifact}: {e}", case.name))?;
        if let Some(d) = first_difference(&recorded, &baseline) {
            return Err(format!(
                "{0}: baseline differs from checked-in {artifact} at {d}\n\
                 (re-record with: ./target/release/exp {0} --quick > {artifact})",
                case.name
            ));
        }
    }
    if case.expect_obs {
        for label in ["traced_t1", "traced_t8"] {
            let trace = read_scratch(scratch, &format!("{}_{label}.jsonl", case.name))?;
            if trace.trim().is_empty() {
                return Err(format!("{}: [{label}] trace file is empty", case.name));
            }
        }
        let m1 = filter_micros(&read_scratch(
            scratch,
            &format!("{}_traced_t1.prom", case.name),
        )?);
        let m8 = filter_micros(&read_scratch(
            scratch,
            &format!("{}_traced_t8.prom", case.name),
        )?);
        if m1.trim().is_empty() {
            return Err(format!("{}: metrics dump is empty", case.name));
        }
        if let Some(d) = first_difference(&m1, &m8) {
            return Err(format!(
                "{}: _micros-filtered metrics diverge across thread counts at {d}",
                case.name
            ));
        }
    }
    if let Some(needle) = case.compaction_grep {
        let text = run_variant(root, scratch, case, &COMPACTION_VARIANT)?;
        let want = filter_containing(&baseline, needle);
        let got = filter_containing(&text, needle);
        if let Some(d) = first_difference(&want, &got) {
            return Err(format!(
                "{}: {needle:?} lines change under [{}] at {d}",
                case.name, COMPACTION_VARIANT.label
            ));
        }
    }
    let mut checks = vec![format!("{} variants", variants().len())];
    if case.artifact.is_some() {
        checks.push("artifact".to_owned());
    }
    if case.expect_obs {
        checks.push("trace+metrics".to_owned());
    }
    if case.compaction_grep.is_some() {
        checks.push("compaction".to_owned());
    }
    println!("  {}: ok ({})", case.name, checks.join(", "));
    Ok(())
}

fn build_exp(root: &Path) -> Result<(), String> {
    let status = Command::new("cargo")
        .current_dir(root)
        .args(["build", "--release", "-p", "so-bench", "--bin", "exp"])
        .status()
        .map_err(|e| format!("spawning cargo: {e}"))?;
    if !status.success() {
        return Err(format!("cargo build failed with {status}"));
    }
    Ok(())
}

fn main() -> ExitCode {
    let root = workspace_root();
    let scratch = root.join("target/verify_matrix");
    if let Err(e) = fs::create_dir_all(&scratch) {
        eprintln!("creating {}: {e}", scratch.display());
        return ExitCode::FAILURE;
    }
    if let Err(e) = build_exp(&root) {
        eprintln!("{e}");
        return ExitCode::FAILURE;
    }
    println!(
        "verify_matrix: {} cases x {} variants",
        cases().len(),
        variants().len()
    );
    let mut failed = false;
    for case in cases() {
        if let Err(e) = verify_case(&root, &scratch, case) {
            eprintln!("FAIL {e}");
            failed = true;
        }
    }
    if failed {
        eprintln!("verify_matrix: FAILED (scratch in target/verify_matrix/)");
        ExitCode::FAILURE
    } else {
        println!("verify_matrix: all cases deterministic");
        ExitCode::SUCCESS
    }
}
