//! The determinism lint: scans every workspace crate for wall-clock reads,
//! ambient randomness, hash-order iteration, and host core-count probes that
//! could leak nondeterminism into transcript-feeding paths (see the `xtask` crate docs
//! for the rules). Audited sites live in `lint_determinism.allow` at the
//! repository root; unallowlisted hits and stale entries both exit nonzero.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    // Under `cargo run` the manifest dir is crates/xtask; the workspace
    // root is two levels up. Fall back to the current directory.
    let root = std::env::var_os("CARGO_MANIFEST_DIR")
        .map(|m| {
            let mut p = PathBuf::from(m);
            p.pop();
            p.pop();
            p
        })
        .unwrap_or_else(|| PathBuf::from("."));

    let hits = match xtask::scan_workspace(&root) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("lint_determinism: scan failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let allow_path = root.join("lint_determinism.allow");
    let allow_text = std::fs::read_to_string(&allow_path).unwrap_or_default();
    let allow = match xtask::Allowlist::parse(&allow_text) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lint_determinism: {}: {e}", allow_path.display());
            return ExitCode::FAILURE;
        }
    };

    let res = xtask::check(hits, &allow);
    for v in &res.violations {
        println!("VIOLATION {v}");
    }
    for s in &res.stale {
        println!(
            "STALE allowlist entry matches nothing: {} {} ({})",
            s.rule, s.path, s.justification
        );
    }
    println!(
        "lint_determinism: {} violation(s), {} allowlisted site(s), {} stale entr(ies)",
        res.violations.len(),
        res.allowed.len(),
        res.stale.len()
    );
    if res.violations.is_empty() && res.stale.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
