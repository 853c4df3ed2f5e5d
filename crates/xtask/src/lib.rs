#![forbid(unsafe_code)]
#![deny(missing_docs)]

//! # xtask — zero-dependency repository checks
//!
//! The flagship check is the **determinism lint** (`cargo run -p xtask --bin
//! lint_determinism`): a token-level scan of every workspace crate's `src/`
//! tree for constructs that can leak nondeterminism into transcript-feeding
//! code paths. The CI determinism job diffs experiment transcripts across
//! thread counts and tracing — this lint catches the
//! *sources* of divergence before they reach a transcript:
//!
//! * **wall-clock** — `Instant::now`, `SystemTime::now`, `UNIX_EPOCH`:
//!   timing is fine for export-only metrics (`*_micros` histograms) but must
//!   never feed a finding, table, or transcript;
//! * **ambient-rng** — `thread_rng`, `from_entropy`, `OsRng`,
//!   `rand::random`: all randomness must flow from seeded generators;
//! * **hash-iter** — iteration over a `HashMap`/`HashSet` local
//!   (`.iter()`, `.keys()`, `.values()`, `.drain()`, `for x in map`):
//!   iteration order is randomized per process, so anything it feeds must
//!   either be re-sorted or the site audited.
//!
//! Sites that are audited and deliberate live in `lint_determinism.allow` at
//! the repository root, one `rule path justification…` line each. A hit
//! without an entry fails the check; an entry without a hit is *stale* and
//! fails too, so the allowlist can only shrink to match reality.
//!
//! The scan is purely textual (per line, comments stripped, `#[cfg(test)]`
//! blocks skipped) — no syn, no regex crate, no dependencies. The scanner's
//! own crate is excluded: its rule tables necessarily spell the tokens it
//! hunts.

pub mod verify;

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// A determinism-hazard category.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Wall-clock reads (`Instant::now`, `SystemTime::now`, `UNIX_EPOCH`).
    WallClock,
    /// Ambient (unseeded) randomness (`thread_rng`, `OsRng`, …).
    AmbientRng,
    /// Iteration over a randomized-order `HashMap`/`HashSet` local.
    HashIter,
}

impl Rule {
    /// Every rule, in report order.
    pub const ALL: [Rule; 3] = [Rule::WallClock, Rule::AmbientRng, Rule::HashIter];

    /// The rule's name as used in `lint_determinism.allow`.
    pub fn name(self) -> &'static str {
        match self {
            Rule::WallClock => "wall-clock",
            Rule::AmbientRng => "ambient-rng",
            Rule::HashIter => "hash-iter",
        }
    }

    /// Inverse of [`Rule::name`].
    pub fn from_name(name: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.name() == name)
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One hazardous token occurrence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hit {
    /// Which rule matched.
    pub rule: Rule,
    /// Repo-relative path of the file.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// The offending line, trimmed.
    pub snippet: String,
}

impl fmt::Display for Hit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.snippet
        )
    }
}

/// Tokens whose bare occurrence (outside comments and test blocks) is a
/// wall-clock hit.
const WALL_CLOCK_TOKENS: [&str; 3] = ["Instant::now", "SystemTime::now", "UNIX_EPOCH"];

/// Tokens whose bare occurrence is an ambient-randomness hit.
const AMBIENT_RNG_TOKENS: [&str; 4] = ["thread_rng", "from_entropy", "OsRng", "rand::random"];

/// True iff `hay[idx..]` starts a word-boundary occurrence of `needle`
/// (identifier characters on neither side).
fn bounded_at(hay: &str, idx: usize, needle: &str) -> bool {
    let ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    if !hay[idx..].starts_with(needle) {
        return false;
    }
    if hay[..idx].chars().next_back().is_some_and(ident) {
        return false;
    }
    !hay[idx + needle.len()..].chars().next().is_some_and(ident)
}

/// Word-boundary occurrences of `needle` in `hay`, as byte offsets.
fn bounded_occurrences(hay: &str, needle: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(rel) = hay[from..].find(needle) {
        let idx = from + rel;
        if bounded_at(hay, idx, needle) {
            out.push(idx);
        }
        from = idx + needle.len().max(1);
    }
    out
}

/// The line with any `//` comment tail removed (naive: a `//` inside a
/// string literal also truncates, which only ever *hides* tokens that are
/// data rather than code).
fn strip_line_comment(line: &str) -> &str {
    match line.find("//") {
        Some(idx) => &line[..idx],
        None => line,
    }
}

/// Extracts the bound identifier of a `let [mut] NAME …` line, if any.
fn let_binding(code: &str) -> Option<&str> {
    let rest = code.trim_start();
    let rest = rest.strip_prefix("let ")?;
    let rest = rest.trim_start();
    let rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .unwrap_or(rest.len());
    if end == 0 {
        None
    } else {
        Some(&rest[..end])
    }
}

/// Scans one file's source text. `path` is only used to label hits.
///
/// Lines inside `#[cfg(test)]`-attributed brace blocks are skipped: test
/// code may time itself and iterate maps freely — it feeds assertions, not
/// transcripts.
pub fn scan_source(path: &str, source: &str) -> Vec<Hit> {
    let mut hits = Vec::new();
    // Pass 1: locals initialized to a randomized-order collection.
    let mut hash_locals: Vec<String> = Vec::new();
    for line in source.lines() {
        let code = strip_line_comment(line);
        let is_hash_init = ["HashMap::", "HashSet::"].iter().any(|t| {
            ["new()", "with_capacity", "default()", "from("]
                .iter()
                .any(|ctor| code.contains(&format!("{t}{ctor}")))
        });
        if is_hash_init {
            if let Some(name) = let_binding(code) {
                if !hash_locals.iter().any(|n| n == name) {
                    hash_locals.push(name.to_owned());
                }
            }
        }
    }

    // Pass 2: token scan with #[cfg(test)] block skipping.
    let mut pending_test_attr = false; // saw the attribute, waiting for `{`
    let mut test_depth = 0usize; // brace depth inside a skipped block
    for (lineno, line) in source.lines().enumerate() {
        let code = strip_line_comment(line);
        let opens = code.matches('{').count();
        let closes = code.matches('}').count();
        if test_depth > 0 {
            test_depth = (test_depth + opens).saturating_sub(closes);
            continue;
        }
        if pending_test_attr {
            if opens > 0 {
                pending_test_attr = false;
                test_depth = opens.saturating_sub(closes);
            }
            continue;
        }
        if code.trim_start().starts_with("#[cfg(test)]") {
            pending_test_attr = true;
            if opens > 0 {
                pending_test_attr = false;
                test_depth = opens.saturating_sub(closes);
            }
            continue;
        }

        let mut push = |rule: Rule| {
            hits.push(Hit {
                rule,
                path: path.to_owned(),
                line: lineno + 1,
                snippet: line.trim().to_owned(),
            })
        };
        if WALL_CLOCK_TOKENS.iter().any(|t| code.contains(t)) {
            push(Rule::WallClock);
        }
        if AMBIENT_RNG_TOKENS
            .iter()
            .any(|t| !bounded_occurrences(code, t).is_empty())
        {
            push(Rule::AmbientRng);
        }
        'locals: for name in &hash_locals {
            for idx in bounded_occurrences(code, name) {
                let after = &code[idx + name.len()..];
                let iterating = [
                    ".iter()",
                    ".into_iter()",
                    ".keys()",
                    ".values()",
                    ".into_keys()",
                    ".into_values()",
                    ".drain(",
                ]
                .iter()
                .any(|m| after.starts_with(m));
                let before = code[..idx].trim_end();
                let for_loop = before.ends_with(" in")
                    || before.ends_with(" in &")
                    || before.ends_with(" in &mut");
                if iterating || for_loop {
                    push(Rule::HashIter);
                    break 'locals; // one hash-iter hit per line is enough
                }
            }
        }
    }
    hits
}

/// One audited site: a (rule, file) pair with its justification.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    /// The rule this entry silences in that file.
    pub rule: Rule,
    /// Repo-relative file path.
    pub path: String,
    /// Why the site is deliberate (required).
    pub justification: String,
}

/// The parsed `lint_determinism.allow` file.
#[derive(Debug, Clone, Default)]
pub struct Allowlist {
    /// Entries in file order.
    pub entries: Vec<AllowEntry>,
}

impl Allowlist {
    /// Parses the allowlist format: one `rule path justification…` line per
    /// audited file, `#` comments and blank lines ignored. Errors on an
    /// unknown rule name or a missing justification — an unexplained
    /// exemption is worse than a failing check.
    pub fn parse(text: &str) -> Result<Allowlist, String> {
        let mut entries = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.splitn(3, char::is_whitespace);
            let rule_name = parts.next().unwrap_or_default();
            let rule = Rule::from_name(rule_name).ok_or_else(|| {
                format!("allowlist line {}: unknown rule {rule_name:?}", lineno + 1)
            })?;
            let path = parts
                .next()
                .ok_or_else(|| format!("allowlist line {}: missing path", lineno + 1))?
                .to_owned();
            let justification = parts.next().unwrap_or("").trim().to_owned();
            if justification.is_empty() {
                return Err(format!(
                    "allowlist line {}: entry for {path} has no justification",
                    lineno + 1
                ));
            }
            entries.push(AllowEntry {
                rule,
                path,
                justification,
            });
        }
        Ok(Allowlist { entries })
    }
}

/// The outcome of checking a scan against the allowlist.
#[derive(Debug, Default)]
pub struct CheckResult {
    /// Hits with no covering allowlist entry — these fail the build.
    pub violations: Vec<Hit>,
    /// Hits silenced by an entry.
    pub allowed: Vec<Hit>,
    /// Allowlist entries that matched nothing — stale, and also fatal.
    pub stale: Vec<AllowEntry>,
}

/// Splits `hits` into violations and allowed sites, and finds stale
/// allowlist entries.
pub fn check(hits: Vec<Hit>, allow: &Allowlist) -> CheckResult {
    let mut used: BTreeMap<usize, usize> = BTreeMap::new();
    let mut out = CheckResult::default();
    for hit in hits {
        let entry = allow
            .entries
            .iter()
            .position(|e| e.rule == hit.rule && e.path == hit.path);
        match entry {
            Some(i) => {
                *used.entry(i).or_insert(0) += 1;
                out.allowed.push(hit);
            }
            None => out.violations.push(hit),
        }
    }
    for (i, e) in allow.entries.iter().enumerate() {
        if !used.contains_key(&i) {
            out.stale.push(e.clone());
        }
    }
    out
}

/// Recursively collects `.rs` files under `dir`, sorted for deterministic
/// report order.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut names: Vec<PathBuf> = fs::read_dir(dir)?
        .collect::<io::Result<Vec<_>>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    names.sort();
    for path in names {
        if path.is_dir() {
            rust_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Scans every workspace crate's `src/` tree under `root/crates`, skipping
/// the scanner's own crate (its rule tables spell the hunted tokens).
/// Returned hit paths are `root`-relative with `/` separators.
pub fn scan_workspace(root: &Path) -> io::Result<Vec<Hit>> {
    let mut crates: Vec<PathBuf> = fs::read_dir(root.join("crates"))?
        .collect::<io::Result<Vec<_>>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    crates.sort();
    let mut hits = Vec::new();
    for krate in crates {
        if krate.file_name().is_some_and(|n| n == "xtask") {
            continue;
        }
        let src = krate.join("src");
        if !src.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        rust_files(&src, &mut files)?;
        for file in files {
            let rel = file
                .strip_prefix(root)
                .unwrap_or(&file)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            let text = fs::read_to_string(&file)?;
            hits.extend(scan_source(&rel, &text));
        }
    }
    Ok(hits)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The planted tokens are spliced at runtime so this file never
    // contains them verbatim (the scanner skips its own crate anyway).
    fn tok(parts: &[&str]) -> String {
        parts.concat()
    }

    #[test]
    fn planted_wall_clock_is_caught() {
        let src = format!(
            "fn f() {{\n    let t = std::time::{}();\n}}\n",
            tok(&["Instant", "::now"])
        );
        let hits = scan_source("crates/demo/src/lib.rs", &src);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].rule, Rule::WallClock);
        assert_eq!(hits[0].line, 2);
        assert_eq!(hits[0].path, "crates/demo/src/lib.rs");
    }

    #[test]
    fn test_blocks_and_comments_are_skipped() {
        let now = tok(&["Instant", "::now"]);
        let src = format!(
            "fn f() {{}}\n\
             // a comment naming {now} is fine\n\
             #[cfg(test)]\n\
             mod tests {{\n    fn t() {{ let _ = std::time::{now}(); }}\n}}\n\
             fn g() {{}}\n"
        );
        assert!(scan_source("x.rs", &src).is_empty());
        // …but code after the test block is still scanned.
        let src = format!("#[cfg(test)]\nmod tests {{\n}}\nfn g() {{ let _ = {now}(); }}\n");
        let hits = scan_source("x.rs", &src);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].line, 4);
    }

    #[test]
    fn ambient_rng_needs_word_boundaries() {
        let t = tok(&["thread", "_rng"]);
        let hits = scan_source("x.rs", &format!("let r = {t}();\n"));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, Rule::AmbientRng);
        // A longer identifier containing the token is not a hit.
        assert!(scan_source("x.rs", &format!("let my_{t} = seeded();\n")).is_empty());
    }

    #[test]
    fn hash_iteration_over_locals_is_caught() {
        let src = "\
            use std::collections::HashMap;\n\
            fn f() {\n\
                let mut m: HashMap<u32, u32> = HashMap::new();\n\
                m.insert(1, 2);\n\
                for (k, v) in &m {\n\
                    println!(\"{k} {v}\");\n\
                }\n\
                let total: u32 = m.values().sum();\n\
                let _ = total;\n\
            }\n";
        let hits = scan_source("x.rs", src);
        assert_eq!(hits.len(), 2, "{hits:?}");
        assert!(hits.iter().all(|h| h.rule == Rule::HashIter));
        assert_eq!(hits[0].line, 5);
        assert_eq!(hits[1].line, 8);
        // Probing is fine; BTreeMap iteration is fine.
        let clean = "\
            use std::collections::{BTreeMap, HashMap};\n\
            fn f() {\n\
                let mut m: HashMap<u32, u32> = HashMap::new();\n\
                let _ = m.get(&1);\n\
                m.remove(&1);\n\
                let mut b: BTreeMap<u32, u32> = BTreeMap::new();\n\
                b.insert(1, 2);\n\
                for (k, v) in &b {\n\
                    println!(\"{k} {v}\");\n\
                }\n\
            }\n";
        assert!(scan_source("x.rs", clean).is_empty());
    }

    #[test]
    fn allowlist_parses_requires_justification_and_flags_stale() {
        let allow = Allowlist::parse(
            "# audited sites\n\
             wall-clock crates/demo/src/lib.rs export-only timing histogram\n",
        )
        .expect("parses");
        assert_eq!(allow.entries.len(), 1);
        assert!(Allowlist::parse("wall-clock crates/demo/src/lib.rs").is_err());
        assert!(Allowlist::parse("sundial crates/demo/src/lib.rs because\n").is_err());

        let hit = Hit {
            rule: Rule::WallClock,
            path: "crates/demo/src/lib.rs".to_owned(),
            line: 2,
            snippet: String::new(),
        };
        let res = check(vec![hit.clone()], &allow);
        assert!(res.violations.is_empty());
        assert_eq!(res.allowed.len(), 1);
        assert!(res.stale.is_empty());
        // Same allowlist with no hits: the entry is stale.
        let res = check(Vec::new(), &allow);
        assert_eq!(res.stale.len(), 1);
        // A hit in another file is a violation even with entries present.
        let other = Hit {
            path: "crates/demo/src/other.rs".to_owned(),
            ..hit
        };
        let res = check(vec![other], &allow);
        assert_eq!(res.violations.len(), 1);
    }

    /// The real workspace must scan clean under the checked-in allowlist —
    /// `cargo test` itself enforces the determinism lint.
    #[test]
    fn workspace_is_clean_under_the_checked_in_allowlist() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("workspace root");
        let hits = scan_workspace(root).expect("scan");
        let allow_text =
            std::fs::read_to_string(root.join("lint_determinism.allow")).expect("allowlist");
        let allow = Allowlist::parse(&allow_text).expect("parses");
        let res = check(hits, &allow);
        assert!(
            res.violations.is_empty(),
            "unallowlisted determinism hazards:\n{}",
            res.violations
                .iter()
                .map(|h| h.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
        assert!(
            res.stale.is_empty(),
            "stale allowlist entries: {:?}",
            res.stale
        );
        assert!(!res.allowed.is_empty(), "the audited sites should match");
    }
}
