//! Repo automation tasks. Dependency-free on purpose: CI gates on
//! `cargo run -p xtask -- lint` before anything heavier builds.
//!
//! # The lint gate
//!
//! Token-level source invariants that `clippy` is not configured to
//! enforce here:
//!
//! * **No panicking escapes** — `.unwrap()`, `.expect(`, `panic!`,
//!   `assert!(`, `assert_eq!(`, `assert_ne!(` and `unreachable!(` are
//!   forbidden in `crates/core/src`, `crates/graph/src` and
//!   `crates/paper/src` outside `#[cfg(test)]` items. The first two crates
//!   sit under every evaluation, and the third answers the paper's
//!   questions from arbitrary constraint sets and queries; a malformed
//!   input must degrade or return an error, not abort the process
//!   (`debug_assert!` is the sanctioned tripwire: a macro token matches
//!   only where its name starts a word, so `debug_assert!(` is not
//!   `assert!(`). A release invariant that must stay a release check
//!   carries an `// panic-ok: <why>` comment, which allowlists it.
//! * **Documented planner surface** — every `pub fn` in
//!   `crates/optimizer/src` must carry a `///` doc comment, including
//!   ones in private modules that `#![warn(missing_docs)]` cannot see.
//! * **Allocation-free hot path** — `vec![` and `Vec::new()` are
//!   forbidden in the rpq-core hot-path modules (`product`, `pair`,
//!   `pairset`) outside tests: all working memory
//!   must come from the `EvalScratch` arena so warm serving queries never
//!   touch the allocator. Deliberate exceptions (result vectors,
//!   non-pooled baseline arenas) carry an `// alloc-ok: <why>` comment,
//!   which allowlists it.
//! * **No blocking sleeps in the serving layer** — `thread::sleep` is
//!   forbidden in `crates/server/src` outside `#[cfg(test)]` items. The
//!   server coordinates with locks, atomics, and joins; a sleep in the
//!   serving path is a latency bug (or a hidden race being papered over).
//! * **One place starts serving threads** — `thread::spawn` and
//!   `thread::Builder` are forbidden in `crates/server/src` outside
//!   `executor.rs` and `#[cfg(test)]` items: a submitted query runs on an
//!   executor thread or on its joiner, never on a thread of its own.
//! * **One decider in the planner** — `Prover`, `axioms::` and `refute`
//!   are forbidden in `crates/optimizer/src` outside `#[cfg(test)]` items:
//!   the served planner decides every claim `E ⊨ q = c` by the two closure
//!   inclusions certification runs (`PlanPass::decide`), never by
//!   `rpq-paper`'s axiomatic prover or its refuter.
//! * **The served line** — no crate of the served stack (`rpq-server` and
//!   the `rpq-*` crates it depends on, transitively) names a non-served
//!   crate — `rpq-paper` or `rpq-testkit` — in its manifest's
//!   `[dependencies]`; dev-dependencies may. This is what keeps Theorem
//!   4.2's `check` (`rpq_paper::general_implication`) and every other
//!   paper-only decider out of the planner, and the test inputs out of the
//!   server: non-test code of a served crate cannot name them.
//!
//! The scanner blanks comments and string/char literals before matching,
//! so prose like "never unwrap() here" or a format string containing
//! braces cannot trip (or hide) a finding. The `alloc-ok:` and `panic-ok:`
//! allowlists are the one check made on *original* lines — the marker
//! lives in a comment, which the cleaner blanks. A marker allowlists the
//! line it ends, or, as a comment line of its own, the line below it.
//!
//! # The surface report
//!
//! `cargo run -p xtask -- surface` prints ROADMAP's tracked numbers per
//! crate: non-test code lines (non-blank, non-comment lines before a
//! file's `#[cfg(test)]` module) and `pub fn` count, then the workspace
//! total and the `served` row — the sum over `rpq-server` and every `rpq-*`
//! crate it depends on, read from the crates' `Cargo.toml` files (normal
//! dependencies, transitively), so the line between the served stack and
//! the reproduction is a number in the same table. `surface --check`
//! compares them with the committed `xtask/surface.baseline` and fails if
//! any crate's code lines or `pub fn` count differs from it, in either
//! direction: growth has to be admitted, and a reduction recorded, by
//! re-blessing the file (`surface --bless`) in the same commit, where a
//! reviewer sees it — so the committed numbers are always the tree's.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("lint") => lint(),
        Some("surface") => surface(args.next().as_deref()),
        cmd => {
            eprintln!("unknown task {cmd:?}; usage: cargo run -p xtask -- <lint|surface>");
            ExitCode::from(2)
        }
    }
}

/// Crates whose non-test sources must not contain panicking escapes.
const NO_PANIC_DIRS: &[&str] = &["crates/core/src", "crates/graph/src", "crates/paper/src"];
/// Crate whose `pub fn`s must all be documented.
const DOC_DIRS: &[&str] = &["crates/optimizer/src"];
/// Forbidden tokens for the no-panic rule: the panicking escapes and the
/// release assertions.
const PANIC_TOKENS: &[&str] = &[
    ".unwrap()",
    ".expect(",
    "panic!",
    "assert!(",
    "assert_eq!(",
    "assert_ne!(",
    "unreachable!(",
];
/// Marker that allowlists one line for the no-panic rule: a release
/// invariant that must stay a release check.
const PANIC_OK: &str = "panic-ok:";
/// Hot-path modules that must stay allocation-free: working memory comes
/// from the `scratch` arena, not per-call `Vec`s. (`scratch.rs` itself is
/// exempt — it is where construction is supposed to live.)
const NO_ALLOC_FILES: &[&str] = &[
    "crates/core/src/product.rs",
    "crates/core/src/pair.rs",
    "crates/core/src/pairset.rs",
];
/// Forbidden tokens for the no-alloc rule.
const ALLOC_TOKENS: &[&str] = &["vec![", "Vec::new()"];
/// Crates whose non-test sources must never block on a timer.
const NO_SLEEP_DIRS: &[&str] = &["crates/server/src"];
/// Forbidden tokens for the no-sleep rule. `thread::sleep` catches both
/// the `std::thread::sleep(..)` path form and a `use`d `thread::sleep`;
/// `sleep(` alone would false-positive on unrelated identifiers.
const SLEEP_TOKENS: &[&str] = &["thread::sleep", "sleep_ms"];
/// Forbidden tokens for the no-spawn rule: the free function, and the
/// builder by path or by import (`.spawn(` alone would flag scoped
/// spawns, which are joined where they start and stay legal).
const SPAWN_TOKENS: &[&str] = &["thread::spawn", "thread::Builder", "Builder::spawn"];
/// The one file of [`NO_SLEEP_DIRS`] that may start threads.
const SPAWN_FILE: &str = "executor.rs";
/// Crate whose non-test sources may decide claims only by the closure test.
const ONE_DECIDER_DIRS: &[&str] = &["crates/optimizer/src"];
/// Forbidden tokens for the one-decider rule: the axiomatic prover and the
/// refuter of `rpq-paper`, by type, module path or function name.
const DECIDER_TOKENS: &[&str] = &["Prover", "axioms::", "refute"];
/// The crates no served crate may depend on: the paper's reproduction and
/// the test inputs.
const NON_SERVED: &[&str] = &["rpq-paper", "rpq-testkit"];
/// Marker that allowlists one line for the no-alloc rule. Checked on the
/// *original* line text, because the marker lives in a comment.
const ALLOC_OK: &str = "alloc-ok:";

struct Violation {
    file: PathBuf,
    line: usize,
    rule: &'static str,
    text: String,
}

fn lint() -> ExitCode {
    let root = workspace_root();
    let mut violations = Vec::new();
    for dir in NO_PANIC_DIRS {
        for file in rust_files(&root.join(dir)) {
            scan_file(&file, &mut violations, check_no_panics);
        }
    }
    for dir in DOC_DIRS {
        for file in rust_files(&root.join(dir)) {
            scan_file(&file, &mut violations, check_pub_fn_docs);
        }
    }
    for file in NO_ALLOC_FILES {
        scan_file(&root.join(file), &mut violations, check_no_hot_path_allocs);
    }
    for dir in NO_SLEEP_DIRS {
        for file in rust_files(&root.join(dir)) {
            scan_file(&file, &mut violations, check_no_sleeps);
            scan_file(&file, &mut violations, check_no_spawns);
        }
    }
    for dir in ONE_DECIDER_DIRS {
        for file in rust_files(&root.join(dir)) {
            scan_file(&file, &mut violations, check_one_decider);
        }
    }
    check_served_line(&crate_manifests(&root), &mut violations);
    if violations.is_empty() {
        println!("xtask lint: clean");
        return ExitCode::SUCCESS;
    }
    for v in &violations {
        eprintln!(
            "{}:{}: [{}] {}",
            v.file.display(),
            v.line,
            v.rule,
            v.text.trim()
        );
    }
    eprintln!("xtask lint: {} violation(s)", violations.len());
    ExitCode::FAILURE
}

/// Where `surface --check` finds the admitted numbers.
const SURFACE_BASELINE: &str = "xtask/surface.baseline";

/// One row of the surface table: (crate, non-test code lines, `pub fn`s).
type SurfaceRow = (String, usize, usize);

/// The package whose dependency closure is the `served` row.
const SERVED_ROOT: &str = "rpq-server";

/// The surface report: per crate under `crates/`, the non-test code lines
/// and the `pub fn` count of its `src/` tree, then the totals and the
/// served stack. Without a flag the table is printed; `--bless` writes it
/// to [`SURFACE_BASELINE`]; `--check` fails on any row that differs from
/// the committed one.
fn surface(flag: Option<&str>) -> ExitCode {
    let root = workspace_root();
    let Ok(entries) = fs::read_dir(root.join("crates")) else {
        eprintln!("xtask surface: no crates/ directory");
        return ExitCode::FAILURE;
    };
    let mut crates: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    crates.sort();
    let mut rows: Vec<SurfaceRow> = Vec::new();
    let mut manifests: Vec<(String, Vec<String>)> = Vec::new();
    let (mut total_lines, mut total_fns) = (0usize, 0usize);
    for dir in crates.iter().filter(|d| d.join("src").is_dir()) {
        let (mut lines, mut fns) = (0usize, 0usize);
        for file in rust_files(&dir.join("src")) {
            let text = fs::read_to_string(&file).unwrap_or_default();
            let (l, f) = surface_of(&text);
            lines += l;
            fns += f;
        }
        let name = dir.file_name().unwrap_or_default().to_string_lossy();
        rows.push((name.into_owned(), lines, fns));
        let manifest = fs::read_to_string(dir.join("Cargo.toml")).unwrap_or_default();
        manifests.push(manifest_deps(&manifest));
        total_lines += lines;
        total_fns += fns;
    }
    let served = dependency_closure(&manifests, SERVED_ROOT);
    let served_row = rows
        .iter()
        .zip(&manifests)
        .filter(|(_, (package, _))| served.contains(package))
        .fold((0, 0), |(l, f), ((_, lines, fns), _)| (l + lines, f + fns));
    rows.push(("total".into(), total_lines, total_fns));
    rows.push(("served".into(), served_row.0, served_row.1));
    let mut table = format!("{:<16} {:>10} {:>8}\n", "crate", "code lines", "pub fn");
    for (name, lines, fns) in &rows {
        table += &format!("{name:<16} {lines:>10} {fns:>8}\n");
    }

    let baseline = root.join(SURFACE_BASELINE);
    match flag {
        None => print!("{table}"),
        Some("--bless") => {
            if let Err(e) = fs::write(&baseline, &table) {
                eprintln!("xtask surface: cannot write {}: {e}", baseline.display());
                return ExitCode::FAILURE;
            }
            println!("xtask surface: blessed {SURFACE_BASELINE}");
        }
        Some("--check") => {
            let Ok(admitted) = fs::read_to_string(&baseline) else {
                eprintln!("xtask surface: no {SURFACE_BASELINE}; run `surface --bless`");
                return ExitCode::FAILURE;
            };
            let drifted = surface_drift(&rows, &admitted);
            if !drifted.is_empty() {
                for d in &drifted {
                    eprintln!("xtask surface: {d}");
                }
                eprintln!(
                    "xtask surface: differs from {SURFACE_BASELINE}; undo the change, or \
                     record it with `surface --bless` in this commit"
                );
                return ExitCode::FAILURE;
            }
            println!("xtask surface: equals {SURFACE_BASELINE}");
        }
        Some(other) => {
            eprintln!("unknown flag {other:?}; usage: surface [--check|--bless]");
            return ExitCode::from(2);
        }
    }
    ExitCode::SUCCESS
}

/// Where `current` and the `admitted` table text disagree, one message
/// per row: a row that grew, a row that shrank, a crate the baseline does
/// not list, a baseline row whose crate is gone.
fn surface_drift(current: &[SurfaceRow], admitted: &str) -> Vec<String> {
    let admitted: Vec<SurfaceRow> = admitted
        .lines()
        .filter_map(|l| {
            let mut cols = l.split_whitespace();
            let name = cols.next()?.to_string();
            let lines = cols.next()?.parse().ok()?;
            let fns = cols.next()?.parse().ok()?;
            Some((name, lines, fns))
        })
        .collect();
    let mut drifted = Vec::new();
    for (name, lines, fns) in current {
        match admitted.iter().find(|(n, ..)| n == name) {
            Some((_, l, f)) if (lines, fns) == (l, f) => {}
            Some((_, l, f)) => drifted.push(format!(
                "{name}: {lines} code lines / {fns} pub fn, baseline {l} / {f}"
            )),
            None => drifted.push(format!("{name}: not in the baseline")),
        }
    }
    for (name, ..) in &admitted {
        if !current.iter().any(|(n, ..)| n == name) {
            drifted.push(format!("{name}: in the baseline, not in the tree"));
        }
    }
    drifted
}

/// A crate manifest's package name and the `rpq-*` crates of its
/// `[dependencies]` table (dev-dependencies are not part of what it
/// serves).
fn manifest_deps(toml: &str) -> (String, Vec<String>) {
    let (mut name, mut deps, mut section) = (String::new(), Vec::new(), "");
    for line in toml.lines().map(str::trim) {
        if line.starts_with('[') {
            section = line;
        } else if section == "[package]" && line.starts_with("name") {
            name = line.split('"').nth(1).unwrap_or_default().to_string();
        } else if section == "[dependencies]" && line.starts_with("rpq-") {
            deps.push(dependency_name(line).to_string());
        }
    }
    (name, deps)
}

/// Each `crates/*/Cargo.toml` with its text, sorted by path.
fn crate_manifests(root: &Path) -> Vec<(PathBuf, String)> {
    let mut out: Vec<(PathBuf, String)> = fs::read_dir(root.join("crates"))
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| e.path().join("Cargo.toml"))
        .filter_map(|m| Some((m.clone(), fs::read_to_string(&m).ok()?)))
        .collect();
    out.sort();
    out
}

/// The served-line rule: every `[dependencies]` line of a served crate's
/// manifest (one of [`SERVED_ROOT`]'s dependency closure) that names a
/// crate of [`NON_SERVED`].
fn check_served_line(manifests: &[(PathBuf, String)], violations: &mut Vec<Violation>) {
    let parsed: Vec<(String, Vec<String>)> = manifests
        .iter()
        .map(|(_, toml)| manifest_deps(toml))
        .collect();
    let served = dependency_closure(&parsed, SERVED_ROOT);
    for ((file, toml), (package, _)) in manifests.iter().zip(&parsed) {
        if !served.contains(package) {
            continue;
        }
        let mut section = "";
        for (i, line) in toml.lines().map(str::trim).enumerate() {
            if line.starts_with('[') {
                section = line;
            } else if section == "[dependencies]" && NON_SERVED.contains(&dependency_name(line)) {
                violations.push(Violation {
                    file: file.clone(),
                    line: i + 1,
                    rule: "served-line",
                    text: format!("{package} is served and depends on {line}"),
                });
            }
        }
    }
}

/// The package a dependency line names: `name.workspace = true`,
/// `name = "1"`, `name = { path = ".." }`.
fn dependency_name(line: &str) -> &str {
    &line[..line.find(['.', '=', ' ']).unwrap_or(line.len())]
}

/// `root` and every package it depends on, transitively, over the
/// `(package, dependencies)` pairs of [`manifest_deps`].
fn dependency_closure(manifests: &[(String, Vec<String>)], root: &str) -> Vec<String> {
    let mut closure = vec![root.to_string()];
    let mut i = 0;
    while i < closure.len() {
        let deps = manifests.iter().find(|(p, _)| *p == closure[i]);
        for dep in deps.map_or(&[][..], |(_, d)| d) {
            if !closure.contains(dep) {
                closure.push(dep.clone());
            }
        }
        i += 1;
    }
    closure
}

/// (non-test code lines, `pub fn` count) of one source file: lines before
/// the file's `#[cfg(test)]` item that are neither blank nor `//` comments.
fn surface_of(text: &str) -> (usize, usize) {
    let code = text
        .lines()
        .take_while(|l| !l.starts_with("#[cfg(test)]"))
        .map(str::trim_start)
        .filter(|l| !l.is_empty() && !l.starts_with("//"));
    code.fold((0, 0), |(lines, fns), l| {
        (lines + 1, fns + usize::from(l.starts_with("pub fn ")))
    })
}

fn workspace_root() -> PathBuf {
    // xtask lives at <root>/xtask, so the workspace root is one level up.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."))
}

fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let Ok(entries) = fs::read_dir(dir) else {
        return out;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            out.extend(rust_files(&path));
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    out.sort();
    out
}

/// A lint rule over one parsed file: (path, original lines, cleaned
/// lines, test mask, violations sink).
type Rule = fn(&Path, &[String], &[String], &[bool], &mut Vec<Violation>);

/// Parse one file into (original lines, cleaned lines, test mask) and run
/// a rule over it.
fn scan_file(file: &Path, violations: &mut Vec<Violation>, rule: Rule) {
    let Ok(text) = fs::read_to_string(file) else {
        violations.push(Violation {
            file: file.to_path_buf(),
            line: 0,
            rule: "io",
            text: "unreadable source file".into(),
        });
        return;
    };
    let original: Vec<String> = text.lines().map(str::to_string).collect();
    let cleaned = clean_source(&text);
    let mask = test_mask(&cleaned);
    rule(file, &original, &cleaned, &mask, violations);
}

/// A rule that forbids tokens: flags every non-test line of the cleaned
/// source that contains one of `tokens`, unless the `allow` marker is on
/// it or on the line above it (a comment line of its own, where `rustfmt`
/// leaves a marker that explains a multi-line call).
struct TokenRule {
    name: &'static str,
    tokens: &'static [&'static str],
    allow: Option<&'static str>,
}

impl TokenRule {
    fn check(
        &self,
        file: &Path,
        original: &[String],
        cleaned: &[String],
        mask: &[bool],
        violations: &mut Vec<Violation>,
    ) {
        for (i, line) in cleaned.iter().enumerate() {
            let marked = |ok: &str| {
                original[i].contains(ok)
                    || i.checked_sub(1).is_some_and(|above| {
                        let above = original[above].trim_start();
                        above.starts_with("//") && above.contains(ok)
                    })
            };
            if mask[i] || self.allow.is_some_and(marked) {
                continue;
            }
            if self.tokens.iter().any(|tok| contains_token(line, tok)) {
                violations.push(Violation {
                    file: file.to_path_buf(),
                    line: i + 1,
                    rule: self.name,
                    text: original[i].clone(),
                });
            }
        }
    }
}

/// Does `line` contain `token`? A macro token (`name!`) matches only where
/// its name starts a word, so `debug_assert!(` holds no `assert!(`; any
/// other token matches anywhere.
fn contains_token(line: &str, token: &str) -> bool {
    let is_word = |c: char| c.is_alphanumeric() || c == '_';
    if !token.contains('!') || !token.starts_with(is_word) {
        return line.contains(token);
    }
    line.match_indices(token)
        .any(|(at, _)| !line[..at].ends_with(is_word))
}

/// Declare a [`Rule`] function that applies a [`TokenRule`].
macro_rules! token_rule {
    ($check:ident, $name:literal, $tokens:expr, $allow:expr) => {
        fn $check(
            file: &Path,
            original: &[String],
            cleaned: &[String],
            mask: &[bool],
            violations: &mut Vec<Violation>,
        ) {
            let rule = TokenRule {
                name: $name,
                tokens: $tokens,
                allow: $allow,
            };
            rule.check(file, original, cleaned, mask, violations);
        }
    };
}

token_rule!(check_no_panics, "no-panic", PANIC_TOKENS, Some(PANIC_OK));
token_rule!(
    check_no_hot_path_allocs,
    "hot-path-alloc",
    ALLOC_TOKENS,
    Some(ALLOC_OK)
);
token_rule!(check_no_sleeps, "no-sleep", SLEEP_TOKENS, None);
token_rule!(check_spawns, "no-spawn", SPAWN_TOKENS, None);
token_rule!(check_one_decider, "one-decider", DECIDER_TOKENS, None);

/// The no-spawn rule: [`SPAWN_FILE`] is exempt.
fn check_no_spawns(
    file: &Path,
    original: &[String],
    cleaned: &[String],
    mask: &[bool],
    violations: &mut Vec<Violation>,
) {
    if file.file_name().is_none_or(|name| name != SPAWN_FILE) {
        check_spawns(file, original, cleaned, mask, violations);
    }
}

fn check_pub_fn_docs(
    file: &Path,
    original: &[String],
    cleaned: &[String],
    mask: &[bool],
    violations: &mut Vec<Violation>,
) {
    for (i, line) in cleaned.iter().enumerate() {
        if mask[i] || !line.trim_start().starts_with("pub fn ") {
            continue;
        }
        // Walk upward over attributes; the first non-attribute line must
        // be a `///` doc comment (checked on the *original* text — the
        // cleaner blanks comments).
        let mut j = i;
        let documented = loop {
            if j == 0 {
                break false;
            }
            j -= 1;
            let t = original[j].trim_start();
            if t.starts_with("#[") || t.starts_with(')') || t.starts_with(']') {
                continue; // attribute (possibly multi-line)
            }
            break t.starts_with("///") || t.starts_with("#![doc") || t.starts_with("//!");
        };
        if !documented {
            violations.push(Violation {
                file: file.to_path_buf(),
                line: i + 1,
                rule: "undocumented-pub-fn",
                text: original[i].clone(),
            });
        }
    }
}

/// Blank out comments and string/char literals, preserving line structure
/// and everything else byte-for-byte, so token matching and brace counting
/// only ever see code.
fn clean_source(text: &str) -> Vec<String> {
    #[derive(PartialEq)]
    enum S {
        Code,
        LineComment,
        BlockComment(usize),
        Str,
        RawStr(usize),
        Char,
    }
    let mut state = S::Code;
    let mut out = Vec::new();
    let mut cur = String::new();
    let chars: Vec<char> = text.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            if state == S::LineComment {
                state = S::Code;
            }
            out.push(std::mem::take(&mut cur));
            i += 1;
            continue;
        }
        match state {
            S::Code => {
                let next = chars.get(i + 1).copied();
                if c == '/' && next == Some('/') {
                    state = S::LineComment;
                    cur.push(' ');
                } else if c == '/' && next == Some('*') {
                    state = S::BlockComment(1);
                    cur.push(' ');
                } else if c == '"' {
                    state = S::Str;
                    cur.push('"');
                } else if c == 'r' && (next == Some('"') || next == Some('#')) {
                    // raw string r"..." / r#"..."# (count the hashes)
                    let mut hashes = 0;
                    let mut k = i + 1;
                    while chars.get(k) == Some(&'#') {
                        hashes += 1;
                        k += 1;
                    }
                    if chars.get(k) == Some(&'"') {
                        state = S::RawStr(hashes);
                        cur.push(' ');
                        i = k + 1;
                        continue;
                    }
                    cur.push(c);
                } else if c == '\'' {
                    // char literal vs lifetime: a literal closes with a
                    // quote after one (possibly escaped) char
                    let close = if chars.get(i + 1) == Some(&'\\') {
                        // escape: find the next quote
                        chars[i + 2..].iter().position(|&x| x == '\'').map(|_| true)
                    } else if chars.get(i + 2) == Some(&'\'') {
                        Some(true)
                    } else {
                        None
                    };
                    if close.is_some() {
                        state = S::Char;
                    }
                    cur.push(' ');
                } else {
                    cur.push(c);
                }
            }
            S::LineComment => cur.push(' '),
            S::BlockComment(depth) => {
                let next = chars.get(i + 1).copied();
                if c == '*' && next == Some('/') {
                    let d = depth - 1;
                    state = if d == 0 { S::Code } else { S::BlockComment(d) };
                    cur.push(' ');
                    cur.push(' ');
                    i += 2;
                    continue;
                } else if c == '/' && next == Some('*') {
                    state = S::BlockComment(depth + 1);
                    cur.push(' ');
                    cur.push(' ');
                    i += 2;
                    continue;
                }
                cur.push(' ');
            }
            S::Str => {
                if c == '\\' {
                    cur.push(' ');
                    cur.push(' ');
                    i += 2;
                    continue;
                } else if c == '"' {
                    state = S::Code;
                    cur.push('"');
                } else {
                    cur.push(' ');
                }
            }
            S::RawStr(hashes) => {
                if c == '"' && chars[i + 1..].iter().take_while(|&&x| x == '#').count() >= hashes {
                    state = S::Code;
                    cur.push(' ');
                    i += 1 + hashes;
                    continue;
                }
                cur.push(' ');
            }
            S::Char => {
                if c == '\'' {
                    state = S::Code;
                }
                cur.push(' ');
            }
        }
        i += 1;
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

/// Mark every line belonging to a `#[cfg(test)]` item (the attribute line
/// through the end of the braced item, or through the terminating `;`).
fn test_mask(cleaned: &[String]) -> Vec<bool> {
    let mut mask = vec![false; cleaned.len()];
    let mut i = 0;
    while i < cleaned.len() {
        if !cleaned[i].contains("#[cfg(test)]") {
            i += 1;
            continue;
        }
        let mut depth: i64 = 0;
        let mut entered = false;
        let mut end = cleaned.len() - 1;
        'outer: for (j, line) in cleaned.iter().enumerate().skip(i) {
            mask[j] = true;
            for c in line.chars() {
                match c {
                    '{' => {
                        depth += 1;
                        entered = true;
                    }
                    '}' => {
                        depth -= 1;
                        if entered && depth == 0 {
                            end = j;
                            break 'outer;
                        }
                    }
                    ';' if !entered && depth == 0 => {
                        end = j;
                        break 'outer;
                    }
                    _ => {}
                }
            }
            end = j;
        }
        for m in mask.iter_mut().take(end + 1).skip(i) {
            *m = true;
        }
        i = end + 1;
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn surface_counts_code_before_the_test_module() {
        let src = "//! docs\n\npub fn a() {}\n    // note\n    pub fn b() {}\nfn c() {}\n#[cfg(test)]\nmod tests {\n    pub fn d() {}\n}\n";
        assert_eq!(surface_of(src), (3, 2));
    }

    #[test]
    fn surface_check_flags_any_drift_from_the_baseline() {
        let admitted = "crate  code lines  pub fn\ncore  100  10\ngraph  50  5\ntotal  150  15\n";
        let row = |n: &str, l, f| (n.to_string(), l, f);
        let same = [
            row("core", 100, 10),
            row("graph", 50, 5),
            row("total", 150, 15),
        ];
        assert!(surface_drift(&same, admitted).is_empty());
        let grown = [row("core", 101, 10), row("graph", 50, 6), row("new", 1, 0)];
        assert_eq!(
            surface_drift(&grown, admitted).len(),
            4,
            "and `total` is gone"
        );
        let shrunk = [
            row("core", 100, 10),
            row("graph", 40, 5),
            row("total", 140, 15),
        ];
        assert_eq!(
            surface_drift(&shrunk, admitted).len(),
            2,
            "a smaller row needs its bless too"
        );
        let removed = [row("core", 100, 10), row("total", 150, 15)];
        assert_eq!(surface_drift(&removed, admitted).len(), 1);
    }

    /// The served row sums the server's normal `rpq-*` dependencies,
    /// transitively, and nothing reached only through dev-dependencies.
    #[test]
    fn served_is_the_servers_dependency_closure() {
        let manifest = |name: &str, deps: &[&str], dev: &[&str]| {
            let mut toml = format!("[package]\nname = \"{name}\"\n\n[lib]\nname = \"x\"\n");
            toml += "\n[dependencies]\n";
            for d in deps {
                toml += &format!("{d}.workspace = true\nrand.workspace = true\n");
            }
            toml += "\n[dev-dependencies]\n";
            for d in dev {
                toml += &format!("{d} = {{ path = \"../x\" }}\n");
            }
            manifest_deps(&toml)
        };
        let parsed = manifest("rpq-server", &["rpq-core", "rpq-optimizer"], &["rpq-bench"]);
        assert_eq!(parsed.0, "rpq-server");
        assert_eq!(parsed.1, ["rpq-core", "rpq-optimizer"]);
        let manifests = [
            parsed,
            manifest("rpq-core", &["rpq-graph"], &[]),
            manifest(
                "rpq-optimizer",
                &["rpq-core", "rpq-constraints"],
                &["rpq-bench"],
            ),
            manifest("rpq-constraints", &["rpq-graph"], &[]),
            manifest("rpq-graph", &[], &[]),
            manifest("rpq-bench", &["rpq-server", "rpq-datalog"], &[]),
            manifest("rpq-datalog", &["rpq-core"], &[]),
        ];
        let mut served = dependency_closure(&manifests, "rpq-server");
        served.sort();
        assert_eq!(
            served,
            [
                "rpq-constraints",
                "rpq-core",
                "rpq-graph",
                "rpq-optimizer",
                "rpq-server"
            ]
        );
    }

    fn lines(s: &str) -> Vec<String> {
        clean_source(s)
    }

    #[test]
    fn comments_and_strings_are_blanked() {
        let src = "let x = \"panic!\"; // .unwrap() in prose\nlet y = 1;\n";
        let c = lines(src);
        assert!(!c[0].contains("panic!"));
        assert!(!c[0].contains(".unwrap()"));
        assert_eq!(c[1], "let y = 1;");
    }

    #[test]
    fn cfg_test_items_are_masked() {
        let src = "fn live() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n  fn t() { y.unwrap(); }\n}\nfn live2() {}\n";
        let c = lines(src);
        let m = test_mask(&c);
        assert_eq!(m, vec![false, true, true, true, true, false]);
    }

    #[test]
    fn raw_strings_with_braces_do_not_break_the_mask() {
        let src = "#[cfg(test)]\nmod tests {\n  let p = r#\"} {\"#;\n}\nfn after() {}\n";
        let c = lines(src);
        let m = test_mask(&c);
        assert!(!m[4], "the brace inside the raw string must not leak");
    }

    #[test]
    fn release_assertions_are_flagged_unless_allowlisted() {
        let src = "fn live() {\n  debug_assert!(a);\n  debug_assert_eq!(a, b);\n  assert!(a);\n  assert_eq!(a, b);\n  std::assert_ne!(a, b);\n  unreachable!(\"no\");\n  assert!(a, \"fold\"); // panic-ok: a release invariant\n  // panic-ok: a release invariant, over a multi-line call\n  assert!(\n    a,\n  );\n  assert!(b);\n}\n#[cfg(test)]\nmod tests {\n  fn t() { assert!(x); }\n}\n";
        let original: Vec<String> = src.lines().map(str::to_string).collect();
        let cleaned = clean_source(src);
        let mask = test_mask(&cleaned);
        let mut v = Vec::new();
        check_no_panics(Path::new("x.rs"), &original, &cleaned, &mask, &mut v);
        let flagged: Vec<usize> = v.iter().map(|v| v.line).collect();
        assert_eq!(
            flagged,
            vec![4, 5, 6, 7, 13],
            "debug assertions pass, release ones are flagged, the marker allowlists"
        );
        assert!(v.iter().all(|v| v.rule == "no-panic"));
    }

    #[test]
    fn macro_tokens_match_on_a_word_boundary() {
        assert!(contains_token("assert!(x)", "assert!("));
        assert!(contains_token("  {assert!(x)", "assert!("));
        assert!(!contains_token("debug_assert!(x)", "assert!("));
        assert!(!contains_token("my_panic!()", "panic!"));
        assert!(contains_token("debug_assert!(a); assert!(b)", "assert!("));
        assert!(contains_token("x.unwrap()", ".unwrap()"));
        assert!(contains_token("AxiomProver", "Prover"));
    }

    #[test]
    fn hot_path_alloc_is_flagged_unless_allowlisted() {
        let src = "fn hot() {\n  let a = Vec::new(); // alloc-ok: result vector\n  let b = vec![0u32; n];\n}\n#[cfg(test)]\nmod tests {\n  fn t() { let c = Vec::new(); }\n}\n";
        let c = lines(src);
        let m = test_mask(&c);
        let mut v = Vec::new();
        check_no_hot_path_allocs(
            Path::new("x.rs"),
            &src.lines().map(str::to_string).collect::<Vec<_>>(),
            &c,
            &m,
            &mut v,
        );
        assert_eq!(v.len(), 1, "only the untagged non-test alloc is flagged");
        assert_eq!(v[0].line, 3);
        assert_eq!(v[0].rule, "hot-path-alloc");
    }

    #[test]
    fn sleeps_are_flagged_outside_tests_only() {
        let src = "fn serve() {\n  std::thread::sleep(d);\n}\n#[cfg(test)]\nmod tests {\n  fn t() { std::thread::sleep(d); }\n}\n";
        let c = lines(src);
        let m = test_mask(&c);
        let mut v = Vec::new();
        check_no_sleeps(
            Path::new("x.rs"),
            &src.lines().map(str::to_string).collect::<Vec<_>>(),
            &c,
            &m,
            &mut v,
        );
        assert_eq!(v.len(), 1, "only the non-test sleep is flagged");
        assert_eq!(v[0].line, 2);
        assert_eq!(v[0].rule, "no-sleep");
    }

    #[test]
    fn spawns_are_flagged_outside_the_executor_and_tests() {
        let src = "use std::thread::Builder;\nfn submit() {\n  let h = std::thread::spawn(job);\n  std::thread::scope(|s| { s.spawn(job); });\n}\n#[cfg(test)]\nmod tests {\n  fn t() { std::thread::spawn(job); }\n}\n";
        let original: Vec<String> = src.lines().map(str::to_string).collect();
        let c = lines(src);
        let m = test_mask(&c);
        let mut v = Vec::new();
        check_no_spawns(Path::new("src/session.rs"), &original, &c, &m, &mut v);
        let flagged: Vec<usize> = v.iter().map(|v| v.line).collect();
        assert_eq!(flagged, [1, 3], "not the scoped spawn, not the test's");
        assert!(v.iter().all(|v| v.rule == "no-spawn"));
        // the executor is where serving threads start
        check_no_spawns(Path::new("src/executor.rs"), &original, &c, &m, &mut v);
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn other_deciders_are_flagged_in_the_planner_outside_tests() {
        let src = "use rpq_paper::axioms::Prover;\nfn decide() {\n  let d = axioms::prove(&set, &c);\n  let w = refute(&set, &c);\n  closures.implies(&c)\n}\n#[cfg(test)]\nmod tests {\n  use rpq_paper::axioms::Prover;\n  fn t() { Prover::new(&set, cfg); }\n}\n";
        let c = lines(src);
        let m = test_mask(&c);
        let mut v = Vec::new();
        check_one_decider(
            Path::new("x.rs"),
            &src.lines().map(str::to_string).collect::<Vec<_>>(),
            &c,
            &m,
            &mut v,
        );
        let flagged: Vec<usize> = v.iter().map(|v| v.line).collect();
        assert_eq!(flagged, [1, 3, 4], "not the closure test, not the tests'");
        assert!(v.iter().all(|v| v.rule == "one-decider"));
    }

    /// A served crate's `[dependencies]` line naming `rpq-paper` or
    /// `rpq-testkit` is flagged; a dev-dependency, or a crate outside the
    /// served stack, is not.
    #[test]
    fn a_served_crate_depending_on_the_paper_crate_is_flagged() {
        let manifest = |name: &str, deps: &[&str], dev: &[&str]| {
            let mut toml = format!("[package]\nname = \"{name}\"\n\n[dependencies]\n");
            for d in deps {
                toml += &format!("{d}.workspace = true\n");
            }
            toml += "\n[dev-dependencies]\n";
            for d in dev {
                toml += &format!("{d} = {{ path = \"../x\" }}\n");
            }
            (PathBuf::from(format!("{name}/Cargo.toml")), toml)
        };
        let mut manifests = vec![
            manifest("rpq-server", &["rpq-optimizer"], &["rpq-paper"]),
            manifest("rpq-optimizer", &["rpq-constraints"], &["rpq-paper"]),
            manifest("rpq-constraints", &[], &["rpq-paper"]),
            manifest("rpq-paper", &["rpq-constraints"], &[]),
            manifest("rpq-testkit", &["rpq-server", "rpq-paper"], &[]),
            manifest(
                "rpq-bench",
                &["rpq-server", "rpq-paper", "rpq-testkit"],
                &[],
            ),
        ];
        let mut v = Vec::new();
        check_served_line(&manifests, &mut v);
        assert!(v.is_empty(), "dev-dependencies and unserved crates may");
        manifests[2] = manifest("rpq-constraints", &["rpq-graph", "rpq-paper"], &[]);
        check_served_line(&manifests, &mut v);
        let flagged: Vec<(String, usize)> = v
            .iter()
            .map(|v| (v.file.display().to_string(), v.line))
            .collect();
        assert_eq!(flagged, [("rpq-constraints/Cargo.toml".to_string(), 6)]);
        assert_eq!(v[0].rule, "served-line");

        // The test inputs may be a served crate's dev-dependency …
        manifests[2] = manifest("rpq-constraints", &[], &["rpq-paper", "rpq-testkit"]);
        v.clear();
        check_served_line(&manifests, &mut v);
        assert!(v.is_empty(), "a dev-dependency on rpq-testkit may");
        // … and never one of its dependencies, which would also serve
        // `rpq-testkit` and so its own dependency on `rpq-paper`.
        manifests[1] = manifest("rpq-optimizer", &["rpq-constraints", "rpq-testkit"], &[]);
        check_served_line(&manifests, &mut v);
        let flagged: Vec<(String, usize)> = v
            .iter()
            .map(|v| (v.file.display().to_string(), v.line))
            .collect();
        let lines = [("rpq-optimizer", 6), ("rpq-testkit", 6)];
        assert_eq!(flagged, lines.map(|(c, l)| (format!("{c}/Cargo.toml"), l)));
        assert!(v[0].text.contains("rpq-testkit"));
    }

    #[test]
    fn undocumented_pub_fn_is_flagged_documented_is_not() {
        let src = "/// Docs.\npub fn good() {}\n\npub fn bad() {}\n";
        let c = lines(src);
        let m = test_mask(&c);
        let mut v = Vec::new();
        check_pub_fn_docs(
            Path::new("x.rs"),
            &src.lines().map(str::to_string).collect::<Vec<_>>(),
            &c,
            &m,
            &mut v,
        );
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 4);
    }
}
