//! Records the compiler version so every result names the toolchain that
//! built it.

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_owned());
    let version = std::process::Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|v| v.trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned());
    println!("cargo:rustc-env=WIREBENCH_RUSTC_VERSION={version}");
    println!("cargo:rerun-if-changed=build.rs");
}
