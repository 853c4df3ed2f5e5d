//! Process and host facts from `/proc`, recorded with every result.

/// Clock ticks per second of `/proc/<pid>/stat` CPU times (`USER_HZ`,
/// fixed at 100 on Linux for this interface).
const USER_HZ: f64 = 100.0;

/// Process user+system CPU time in ms, summed over every thread the
/// process has run, live or exited.
pub fn cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat readable");
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, so 12 and 13 after it.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields[i].parse::<f64>().expect("numeric CPU time");
    (ticks(11) + ticks(12)) * 1000.0 / USER_HZ
}

/// The process's resident-set high-water mark (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM")
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM in /proc/self/status")
        / 1024.0
}

/// CPUs this process may run on (what `nproc` prints).
pub fn nproc() -> usize {
    let list = status_field("Cpus_allowed_list").unwrap_or_default();
    list.split(',')
        .filter_map(|part| match part.trim().split_once('-') {
            Some((a, b)) => Some(b.parse::<usize>().ok()? + 1 - a.parse::<usize>().ok()?),
            None => part.trim().parse::<usize>().ok().map(|_| 1),
        })
        .sum()
}

fn status_field(key: &str) -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|l| {
        let (k, v) = l.split_once(':')?;
        (k == key).then(|| v.trim().to_owned())
    })
}

/// The commit of the checkout the benchmark runs from, read from `.git`
/// in the working directory; `unknown` outside a git checkout.
pub fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_owned();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?.lines().find_map(|l| {
                let (hash, name) = l.split_once(' ')?;
                (name == reference).then(|| hash.to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The `rustc` that compiled the benchmark (recorded by `build.rs`).
pub fn rustc_version() -> &'static str {
    env!("WIREBENCH_RUSTC_VERSION")
}

/// Names of set `SO_*` variables: the program reads its configuration
/// from them, and results must come from the default configuration.
pub fn so_env_vars() -> Vec<String> {
    let mut set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("SO_"))
        .collect();
    set.sort();
    set
}

/// Host-wide CPU ticks from `/proc/stat`: `(steal, total)`. Steal is time
/// the hypervisor ran something else while a virtual CPU wanted to run —
/// on a shared host, the main source of run-to-run spread.
pub fn cpu_steal_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}
