//! `cargo xtask` — the repo's verification driver.
//!
//! One binary runs every static-analysis and model-checking gate so the
//! same entry point works locally and in CI:
//!
//! ```text
//! cargo xtask verify     # lint wall + workspace tests + dependency checks + loom (+ miri/tsan when available)
//! cargo xtask lint       # clippy --workspace --all-targets with -D warnings
//! cargo xtask deny       # cargo-deny if installed, else the built-in fallback
//! cargo xtask loom       # vendored-loom self-tests + RUSTFLAGS=--cfg loom comm suite
//! cargo xtask miri       # cargo miri test on the unsafe-bearing crates (tiny sizes)
//! cargo xtask tsan       # ThreadSanitizer run of the rayon-parallel kernels
//! ```
//!
//! Tools that need components the current toolchain lacks (miri, tsan,
//! cargo-deny) are probed first and reported as SKIPPED with the install
//! hint instead of failing, so `verify` is useful on hermetic builders;
//! CI installs the components and the same subcommands run for real.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// Licenses acceptable for anything this workspace links. Everything in
/// the repo (workspace crates and the vendored stand-ins) is dual
/// MIT/Apache-2.0; single-license forms are listed so a future real
/// crates.io dependency with one of them passes too.
const LICENSE_ALLOWLIST: &[&str] = &[
    "MIT OR Apache-2.0",
    "Apache-2.0 OR MIT",
    "MIT",
    "Apache-2.0",
];

/// Known-bad (name, version) pairs, checked against Cargo.lock by the
/// built-in `deny` fallback. Empty today — the mechanism exists so an
/// advisory against a vendored stand-in's API surface can be pinned
/// here without network access to an advisory database.
const ADVISORIES: &[(&str, &str, &str)] = &[
    // ("crate-name", "exact-version", "why it is denied"),
];

#[derive(Debug)]
enum Outcome {
    Pass,
    Fail(String),
    Skip(String),
}

struct Report {
    steps: Vec<(String, Outcome, f64)>,
    /// Wall clock at construction / last `record` — each step's
    /// duration is the time since the previous step finished, which is
    /// exact because all work happens inside the step functions.
    last: Instant,
    /// When set (the `verify` command), `exit` writes the machine-
    /// readable per-pass report here.
    json_out: Option<PathBuf>,
    /// `git diff --shortstat` of the source trees against the merge base
    /// with `main` (the `verify` command), so a change's line balance
    /// travels with its pass results.
    diffstat: String,
}

impl Report {
    fn new() -> Self {
        Self {
            steps: Vec::new(),
            last: Instant::now(),
            json_out: None,
            diffstat: String::new(),
        }
    }

    fn record(&mut self, name: &str, outcome: Outcome) {
        let secs = self.last.elapsed().as_secs_f64();
        self.last = Instant::now();
        let tag = match &outcome {
            Outcome::Pass => "PASS".to_string(),
            Outcome::Fail(why) => format!("FAIL ({why})"),
            Outcome::Skip(why) => format!("SKIPPED ({why})"),
        };
        println!("xtask: {name}: {tag} [{secs:.1}s]");
        self.steps.push((name.to_string(), outcome, secs));
    }

    /// Serialize the run to `out/verify/VERIFY.json`: per-pass status,
    /// detail, and timing, plus the per-model state counts the protocol
    /// step collected under `out/verify/models/`.
    fn write_json(&self, path: &Path) {
        let mut steps_json: Vec<String> = Vec::new();
        for (name, outcome, secs) in &self.steps {
            let (status, detail) = match outcome {
                Outcome::Pass => ("pass", String::new()),
                Outcome::Fail(why) => ("fail", why.clone()),
                Outcome::Skip(why) => ("skipped", why.clone()),
            };
            steps_json.push(format!(
                "    {{\"name\": {}, \"status\": \"{status}\", \"detail\": {}, \"seconds\": {secs:.3}}}",
                json_string(name),
                json_string(&detail),
            ));
        }
        // The protocol step leaves one JSON object per model; embed
        // them verbatim so state counts travel with the pass results.
        let mut models: Vec<String> = Vec::new();
        if let Some(dir) = path.parent() {
            let mut entries: Vec<PathBuf> = std::fs::read_dir(dir.join("models"))
                .map(|it| {
                    it.flatten()
                        .map(|e| e.path())
                        .filter(|p| p.extension().is_some_and(|x| x == "json"))
                        .collect()
                })
                .unwrap_or_default();
            entries.sort();
            for p in entries {
                if let Ok(text) = std::fs::read_to_string(&p) {
                    models.push(format!("    {}", text.trim()));
                }
            }
        }
        let ok = !self
            .steps
            .iter()
            .any(|(_, o, _)| matches!(o, Outcome::Fail(_)));
        let body = format!(
            "{{\n  \"ok\": {ok},\n  \"diffstat\": {},\n  \"lines\": {},\n  \"steps\": [\n{}\n  ],\n  \"models\": [\n{}\n  ]\n}}\n",
            json_string(&self.diffstat),
            line_counts(),
            steps_json.join(",\n"),
            models.join(",\n"),
        );
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        match std::fs::write(path, body) {
            Ok(()) => println!("xtask: wrote {}", path.display()),
            Err(e) => println!("xtask: could not write {}: {e}", path.display()),
        }
    }

    fn exit(self) -> ExitCode {
        if let Some(path) = &self.json_out {
            self.write_json(path);
        }
        println!("\nxtask summary:");
        let mut failed = false;
        for (name, outcome, secs) in &self.steps {
            let tag = match outcome {
                Outcome::Pass => "PASS",
                Outcome::Fail(_) => {
                    failed = true;
                    "FAIL"
                }
                Outcome::Skip(_) => "SKIPPED",
            };
            println!("  {tag:<8} {name} [{secs:.1}s]");
        }
        if failed {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        }
    }
}

/// Whole-file line count (`wc -l`: newlines) of every `.rs` file under
/// `path`, recursively; 0 for a missing path.
fn rs_lines(path: &Path) -> usize {
    if path.is_dir() {
        let entries = std::fs::read_dir(path).map(|it| it.flatten().map(|e| e.path()).collect());
        entries.unwrap_or_else(|_| Vec::new()).iter().map(|p| rs_lines(p)).sum()
    } else if path.extension().is_some_and(|x| x == "rs") {
        std::fs::read_to_string(path).map_or(0, |s| s.matches('\n').count())
    } else {
        0
    }
}

/// The north star's size ratio as a JSON object: comm + recovery (the
/// comm crate, the recovery driver, its policy and checkpoint layer, and
/// the multi-process launcher) against the force solver (fft + pm +
/// short + domain), whole files, tests included.
fn line_counts() -> String {
    let root = repo_root();
    let count = |paths: &[&str]| -> usize { paths.iter().map(|p| rs_lines(&root.join(p))).sum() };
    let comm_recovery = count(&[
        "crates/comm/src",
        "crates/core/src/elastic.rs",
        "crates/core/src/resilient.rs",
        "crates/core/src/checkpoint.rs",
        "src/bin/mprun.rs",
    ]);
    let force_solver = count(&["crates/fft/src", "crates/pm/src", "crates/short/src", "crates/domain/src"]);
    format!("{{\"comm_recovery\":{comm_recovery},\"force_solver\":{force_solver}}}")
}

/// Minimal JSON string encoder (quotes, backslashes, control bytes).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn repo_root() -> PathBuf {
    // xtask is always invoked through cargo, which sets this to
    // crates/xtask; the workspace root is two levels up.
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .expect("crates/xtask has a workspace root two levels up")
        .to_path_buf()
}

/// Run a command from the repo root, streaming its output and keeping a
/// copy; returns the outcome with the exit status folded in. A failing
/// command's full stdout and stderr are written to
/// `out/verify/<label>.log`, so a red run that does not reproduce still
/// says which test failed and how.
fn run(label: &str, cmd: &mut Command) -> Outcome {
    println!("xtask: running {label}: {cmd:?}");
    let spawned = cmd
        .current_dir(repo_root())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn();
    let mut child = match spawned {
        Ok(child) => child,
        Err(e) => return Outcome::Fail(format!("failed to launch: {e}")),
    };
    let out = tee(
        child.stdout.take().expect("piped stdout"),
        std::io::stdout(),
    );
    let err = tee(
        child.stderr.take().expect("piped stderr"),
        std::io::stderr(),
    );
    let status = child.wait();
    let (out, err) = (
        out.join().unwrap_or_default(),
        err.join().unwrap_or_default(),
    );
    match status {
        Ok(status) if status.success() => Outcome::Pass,
        Ok(status) => {
            let path = repo_root()
                .join("out/verify")
                .join(format!("{}.log", label.replace(' ', "-")));
            let log = format!(
                "{cmd:?}\n{status}\n\n=== stdout ===\n{}\n=== stderr ===\n{}",
                String::from_utf8_lossy(&out),
                String::from_utf8_lossy(&err)
            );
            let kept = path
                .parent()
                .map_or(Ok(()), std::fs::create_dir_all)
                .and_then(|()| std::fs::write(&path, log));
            match kept {
                Ok(()) => Outcome::Fail(format!("exit status {status}; log {}", path.display())),
                Err(e) => Outcome::Fail(format!("exit status {status}; log not written: {e}")),
            }
        }
        Err(e) => Outcome::Fail(format!("failed to wait: {e}")),
    }
}

/// Copy `from` to `to` as it arrives; the thread returns everything it
/// copied.
fn tee(
    mut from: impl Read + Send + 'static,
    mut to: impl Write + Send + 'static,
) -> std::thread::JoinHandle<Vec<u8>> {
    std::thread::spawn(move || {
        let mut kept = Vec::new();
        let mut buf = [0u8; 8192];
        while let Ok(n @ 1..) = from.read(&mut buf) {
            let _ = to.write_all(&buf[..n]);
            let _ = to.flush();
            kept.extend_from_slice(&buf[..n]);
        }
        kept
    })
}

/// True if `cargo <subcommand> --version` runs successfully — the probe
/// used to gate optional external tools.
fn cargo_tool_available(subcommand: &str) -> bool {
    Command::new("cargo")
        .args([subcommand, "--version"])
        .current_dir(repo_root())
        .output()
        .map(|o| o.status.success())
        .unwrap_or(false)
}

/// Appends `--cfg loom` to whatever RUSTFLAGS the caller already set,
/// rather than clobbering them.
fn loom_rustflags() -> String {
    let mut flags = std::env::var("RUSTFLAGS").unwrap_or_default();
    if !flags.is_empty() {
        flags.push(' ');
    }
    flags.push_str("--cfg loom");
    flags
}

fn step_lint(report: &mut Report) {
    // The lint wall itself lives in [workspace.lints]; -D warnings
    // promotes the `warn`-level pedantic subset into hard failures.
    let outcome = run(
        "clippy lint wall",
        Command::new("cargo").args([
            "clippy",
            "--workspace",
            "--all-targets",
            "--",
            "-D",
            "warnings",
        ]),
    );
    report.record("lint (clippy -D warnings)", outcome);
}

fn step_loom(report: &mut Report) {
    // First prove the model checker itself: the vendored loom ships its
    // own suite (DFS completeness, preemption bounding, modeled time).
    let outcome = run(
        "loom self-tests",
        Command::new("cargo").args([
            "test",
            "-q",
            "--release",
            "--manifest-path",
            "vendor/loom/Cargo.toml",
        ]),
    );
    report.record("loom self-tests", outcome);

    // Then the comm-runtime models: exhaustive (preemption-bounded)
    // exploration of mailbox, timeout, poisoning, fault-injection and
    // barrier schedules.
    let outcome = run(
        "loom comm suite",
        Command::new("cargo")
            .args(["test", "-q", "-p", "hacc-comm", "--release", "--test", "loom"])
            .env("RUSTFLAGS", loom_rustflags()),
    );
    report.record("loom model suite (hacc-comm)", outcome);
}

/// Source pass enforcing the lock-order discipline *syntactically*:
/// every `.lock(` call site in `crates/comm/src` must name its
/// `LockRank::` inline, so the runtime rank checker (and a human
/// reader) can see the intended order at the acquisition site. The
/// rank-free primitives live only in `sync.rs`, which is exempt.
fn builtin_lockorder() -> Outcome {
    let root = repo_root();
    let src = root.join("crates/comm/src");
    let mut files: Vec<PathBuf> = Vec::new();
    let mut stack = vec![src.clone()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            return Outcome::Fail(format!("cannot read {}", dir.display()));
        };
        for entry in entries.flatten() {
            let p = entry.path();
            if p.is_dir() {
                stack.push(p);
            } else if p.extension().is_some_and(|x| x == "rs")
                && p.file_name().is_some_and(|n| n != "sync.rs")
            {
                files.push(p);
            }
        }
    }
    files.sort();
    let mut sites = 0usize;
    let mut problems: Vec<String> = Vec::new();
    for file in &files {
        let Ok(text) = std::fs::read_to_string(file) else {
            problems.push(format!("cannot read {}", file.display()));
            continue;
        };
        for (i, line) in text.lines().enumerate() {
            let code = line.trim_start();
            if code.starts_with("//") {
                continue;
            }
            if code.contains(".lock(") {
                sites += 1;
                if !code.contains("LockRank::") {
                    let rel = file.strip_prefix(&root).unwrap_or(file);
                    problems.push(format!(
                        "{}:{}: `.lock(` without a `LockRank::` annotation",
                        rel.display(),
                        i + 1
                    ));
                }
            }
        }
    }
    if problems.is_empty() {
        println!(
            "xtask: lockorder: {} `.lock(` sites across {} files, all rank-annotated",
            sites,
            files.len()
        );
        Outcome::Pass
    } else {
        for p in &problems {
            println!("xtask: lockorder: {p}");
        }
        Outcome::Fail(format!("{} unranked lock site(s)", problems.len()))
    }
}

fn step_lockorder(report: &mut Report) {
    report.record("lockorder (source pass, crates/comm)", builtin_lockorder());
}

/// Pull `"key":<integer>` out of the single-line JSON objects the model
/// suite emits. Enough for our own stats files; not a JSON parser.
fn json_int_field(text: &str, key: &str) -> Option<u64> {
    let idx = text.find(&format!("\"{key}\":"))?;
    let rest = &text[idx + key.len() + 3..];
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// The protocol model-checking gate: the vendored checker's own suite,
/// then the transport protocol models + runtime lock-order tests, with
/// per-model state counts captured under `out/verify/models/` for
/// `VERIFY.json`. A model that did not *complete* its exploration
/// (budget exhausted) fails the step even if no property tripped —
/// the theorems are only theorems if the state space was exhausted.
fn step_protocol(report: &mut Report) {
    let outcome = run(
        "modelcheck self-tests",
        Command::new("cargo").args([
            "test",
            "-q",
            "--manifest-path",
            "vendor/modelcheck/Cargo.toml",
        ]),
    );
    report.record("modelcheck self-tests", outcome);

    let stats_dir = repo_root().join("out/verify/models");
    let _ = std::fs::remove_dir_all(&stats_dir);
    let _ = std::fs::create_dir_all(&stats_dir);
    // Debug profile on purpose: the runtime lock-rank checker (and the
    // lock_order suite) compile in under debug_assertions only.
    let outcome = run(
        "protocol model suite",
        Command::new("cargo")
            .args([
                "test",
                "-q",
                "-p",
                "hacc-comm",
                "--test",
                "protocol_models",
                "--test",
                "lock_order",
            ])
            .env("HACC_MODEL_STATS_DIR", &stats_dir),
    );
    let outcome = match outcome {
        Outcome::Pass => summarize_models(&stats_dir),
        other => other,
    };
    report.record("protocol models + lock order (hacc-comm)", outcome);
}

fn summarize_models(stats_dir: &Path) -> Outcome {
    let mut entries: Vec<PathBuf> = match std::fs::read_dir(stats_dir) {
        Ok(it) => it
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect(),
        Err(e) => return Outcome::Fail(format!("no model stats emitted: {e}")),
    };
    entries.sort();
    if entries.is_empty() {
        return Outcome::Fail("model suite wrote no state-count stats".into());
    }
    let mut total_states = 0u64;
    let mut incomplete: Vec<String> = Vec::new();
    for p in &entries {
        let Ok(text) = std::fs::read_to_string(p) else {
            continue;
        };
        let model = p
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default();
        let states = json_int_field(&text, "states").unwrap_or(0);
        let transitions = json_int_field(&text, "transitions").unwrap_or(0);
        total_states += states;
        println!("xtask: model {model}: {states} states, {transitions} transitions");
        if !text.contains("\"complete\":true") {
            incomplete.push(model);
        }
    }
    if incomplete.is_empty() {
        println!(
            "xtask: protocol: {} models, {} states, all explored exhaustively",
            entries.len(),
            total_states
        );
        Outcome::Pass
    } else {
        Outcome::Fail(format!(
            "state budget exhausted before full exploration: {incomplete:?}"
        ))
    }
}

fn step_miri(report: &mut Report) {
    if !cargo_tool_available("miri") {
        report.record(
            "miri (unsafe-bearing crates)",
            Outcome::Skip("cargo-miri not installed; `rustup component add miri` (CI does)".into()),
        );
        return;
    }
    // -Zmiri-disable-isolation: the comm/machine layers read Instant for
    // timeout diagnostics. The crates under test shrink their problem
    // sizes via cfg(miri) while still crossing every parallel-path
    // threshold (see e.g. crates/fft/src/pencil.rs). hacc-pm itself is
    // `forbid(unsafe_code)`; it stays in the run because its solver
    // tests drive hacc-fft's unsafe transform passes.
    let outcome = run(
        "miri",
        Command::new("cargo")
            .args([
                "miri", "test", "-p", "hacc-pm", "-p", "hacc-short", "-p", "hacc-fft",
            ])
            .env("MIRIFLAGS", "-Zmiri-disable-isolation"),
    );
    report.record("miri (hacc-pm, hacc-short, hacc-fft)", outcome);
    // hacc-comm's only unsafe is the carry-less CRC; its wire tests run
    // with PCLMULQDQ enabled at compile time, because Miri reports no
    // CPU feature at run time that the build did not enable.
    let comm = |target: &[&str]| {
        run(
            "miri-comm",
            Command::new("cargo")
                .args(["miri", "test", "-p", "hacc-comm"])
                .args(target)
                .env("MIRIFLAGS", "-Zmiri-disable-isolation")
                .env("RUSTFLAGS", "-C target-feature=+pclmulqdq"),
        )
    };
    let outcome = match comm(&["--lib", "--", "wire::"]) {
        Outcome::Pass => comm(&["--test", "wire_crc"]),
        failed => failed,
    };
    report.record("miri (hacc-comm wire)", outcome);
}

/// Host triple, for `-Zbuild-std --target` (sanitizers require a
/// rebuilt std, and build-std requires an explicit target).
fn host_triple() -> Option<String> {
    let out = Command::new("rustc").args(["-vV"]).output().ok()?;
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    text.lines()
        .find_map(|l| l.strip_prefix("host: "))
        .map(str::to_string)
}

fn step_tsan(report: &mut Report) {
    // TSan needs: a nightly toolchain, the rust-src component (to
    // rebuild std with the sanitizer), and the host triple.
    let nightly_ok = Command::new("cargo")
        .args(["+nightly", "--version"])
        .output()
        .map(|o| o.status.success())
        .unwrap_or(false);
    if !nightly_ok {
        report.record(
            "tsan (parallel kernels)",
            Outcome::Skip("nightly toolchain not installed".into()),
        );
        return;
    }
    let src_present = Command::new("rustc")
        .args(["+nightly", "--print", "sysroot"])
        .output()
        .ok()
        .and_then(|o| {
            let root = String::from_utf8_lossy(&o.stdout).trim().to_string();
            o.status.success().then_some(root)
        })
        .is_some_and(|root| Path::new(&root).join("lib/rustlib/src/rust/library").is_dir());
    let Some(triple) = host_triple() else {
        report.record(
            "tsan (parallel kernels)",
            Outcome::Skip("could not determine host triple".into()),
        );
        return;
    };
    if !src_present {
        report.record(
            "tsan (parallel kernels)",
            Outcome::Skip(
                "rust-src not installed; `rustup component add rust-src --toolchain nightly`"
                    .into(),
            ),
        );
        return;
    }
    // The rayon-parallel kernels (CIC interpolation, P³M cells, tree
    // walk) are the data races TSan would see; their crates' test
    // suites drive them.
    let outcome = run(
        "tsan",
        Command::new("cargo")
            .args([
                "+nightly",
                "test",
                "-Zbuild-std",
                "--target",
                &triple,
                "-p",
                "hacc-pm",
                "-p",
                "hacc-short",
                "--release",
            ])
            .env("RUSTFLAGS", "-Zsanitizer=thread")
            .env("TSAN_OPTIONS", "halt_on_error=1"),
    );
    report.record("tsan (hacc-pm, hacc-short)", outcome);

    // The socket transport's wall-clock suites: real threads over
    // loopback TCP — the schedules loom cannot model (actual kernel
    // buffering, reader/control/tick thread interleavings).
    let outcome = run(
        "tsan socket wall-clock",
        Command::new("cargo")
            .args([
                "+nightly",
                "test",
                "-Zbuild-std",
                "--target",
                &triple,
                "-p",
                "hacc-comm",
                "--release",
                "--test",
                "fault_recovery",
                "--test",
                "protocol_differential",
            ])
            .env("RUSTFLAGS", "-Zsanitizer=thread")
            .env("TSAN_OPTIONS", "halt_on_error=1"),
    );
    report.record("tsan (hacc-comm socket wall-clock)", outcome);
}

/// Extract the value of a simple `key = "value"` TOML line. Enough for
/// the manifests in this repo; not a general TOML parser.
fn toml_string_value(line: &str, key: &str) -> Option<String> {
    let rest = line.trim().strip_prefix(key)?.trim_start();
    let rest = rest.strip_prefix('=')?.trim_start();
    let rest = rest.strip_prefix('"')?;
    rest.split('"').next().map(str::to_string)
}

fn builtin_deny() -> Outcome {
    let root = repo_root();
    let mut problems: Vec<String> = Vec::new();

    // -- duplicate versions -------------------------------------------
    // Every [[package]] stanza in Cargo.lock; a name appearing with
    // more than one version means two copies get compiled and linked.
    let lock = match std::fs::read_to_string(root.join("Cargo.lock")) {
        Ok(s) => s,
        Err(e) => return Outcome::Fail(format!("cannot read Cargo.lock: {e}")),
    };
    let mut versions: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let mut packages: Vec<(String, String)> = Vec::new();
    let mut name: Option<String> = None;
    for line in lock.lines() {
        if line.trim() == "[[package]]" {
            name = None;
        } else if let Some(v) = toml_string_value(line, "name") {
            name = Some(v);
        } else if let Some(v) = toml_string_value(line, "version") {
            if let Some(n) = name.clone() {
                versions.entry(n.clone()).or_default().push(v.clone());
                packages.push((n, v));
            }
        }
    }
    for (pkg, vers) in &versions {
        if vers.len() > 1 {
            problems.push(format!("duplicate versions of `{pkg}`: {vers:?}"));
        }
    }

    // -- advisories ----------------------------------------------------
    for (bad_name, bad_version, why) in ADVISORIES {
        if packages
            .iter()
            .any(|(n, v)| n == bad_name && v == bad_version)
        {
            problems.push(format!("advisory: {bad_name} {bad_version}: {why}"));
        }
    }

    // -- licenses ------------------------------------------------------
    // The workspace declares one license for all member crates
    // ([workspace.package]); each vendored stand-in declares its own.
    let mut manifests = vec![root.join("Cargo.toml")];
    if let Ok(entries) = std::fs::read_dir(root.join("vendor")) {
        for entry in entries.flatten() {
            let m = entry.path().join("Cargo.toml");
            if m.is_file() {
                manifests.push(m);
            }
        }
    }
    for manifest in manifests {
        let text = match std::fs::read_to_string(&manifest) {
            Ok(s) => s,
            Err(e) => {
                problems.push(format!("cannot read {}: {e}", manifest.display()));
                continue;
            }
        };
        let license = text
            .lines()
            .find_map(|l| toml_string_value(l, "license"));
        match license {
            Some(l) if LICENSE_ALLOWLIST.contains(&l.as_str()) => {}
            Some(l) => problems.push(format!(
                "{}: license `{l}` not in allowlist",
                manifest.display()
            )),
            None => problems.push(format!(
                "{}: no `license` field declared",
                manifest.display()
            )),
        }
    }

    if problems.is_empty() {
        println!(
            "xtask: deny fallback: {} lock packages, no duplicates, no advisories, licenses ok",
            packages.len()
        );
        Outcome::Pass
    } else {
        for p in &problems {
            println!("xtask: deny: {p}");
        }
        Outcome::Fail(format!("{} problem(s)", problems.len()))
    }
}

fn step_deny(report: &mut Report) {
    if cargo_tool_available("deny") {
        let outcome = run("cargo deny", Command::new("cargo").args(["deny", "check"]));
        report.record("deny (cargo-deny)", outcome);
    } else {
        // Offline builders don't have the cargo-deny binary; the
        // built-in fallback covers the same three axes (duplicates,
        // advisories, licenses) from Cargo.lock and the manifests.
        let outcome = builtin_deny();
        report.record("deny (built-in fallback)", outcome);
    }
}

fn step_test(report: &mut Report) {
    let outcome = run(
        "workspace tests",
        Command::new("cargo").args(["test", "-q", "--workspace"]),
    );
    report.record("test (cargo test --workspace)", outcome);
}

/// `git diff --shortstat` of the source trees between the merge base
/// with `main` and the working tree (on `main` itself: the uncommitted
/// change). `None` when git cannot answer.
fn source_diffstat() -> Option<String> {
    let git = |args: &[&str]| -> Option<String> {
        let out = Command::new("git")
            .args(args)
            .current_dir(repo_root())
            .output()
            .ok()?;
        out.status
            .success()
            .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
    };
    let base = git(&["merge-base", "HEAD", "main"])?;
    git(&["diff", "--shortstat", &base, "--", "crates", "src", "tests", "scripts"])
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: cargo xtask <verify|lint|deny|lockorder|protocol|loom|miri|tsan|test>\n\
         \n\
         verify    run lint + test + deny + lockorder + protocol + loom (+ miri/tsan\n\
         \u{20}         when installed) and write out/verify/VERIFY.json\n\
         lint      clippy --workspace --all-targets with -D warnings\n\
         deny      cargo-deny check, or the built-in duplicate/advisory/license check\n\
         lockorder source pass: every `.lock(` in crates/comm/src names its LockRank\n\
         protocol  exhaustive protocol model suite + runtime lock-order tests\n\
         loom      vendored-loom self-tests + the hacc-comm model suite (--cfg loom)\n\
         miri      cargo miri test -p hacc-pm -p hacc-short -p hacc-fft (tiny sizes),\n\
                   then hacc-comm's wire tests with PCLMULQDQ enabled\n\
         tsan      ThreadSanitizer: rayon kernels + socket wall-clock suites\n\
         test      cargo test -q --workspace"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let Some(cmd) = std::env::args().nth(1) else {
        return usage();
    };
    let mut report = Report::new();
    match cmd.as_str() {
        "verify" => {
            report.json_out = Some(repo_root().join("out/verify/VERIFY.json"));
            report.diffstat = source_diffstat().unwrap_or_else(|| "unavailable".into());
            println!(
                "xtask: crates/ src/ tests/ scripts/ vs merge base: {}",
                report.diffstat
            );
            println!("xtask: whole-file lines: {}", line_counts());
            step_lint(&mut report);
            step_test(&mut report);
            step_deny(&mut report);
            step_lockorder(&mut report);
            step_protocol(&mut report);
            step_loom(&mut report);
            step_miri(&mut report);
            step_tsan(&mut report);
        }
        "lint" => step_lint(&mut report),
        "deny" => step_deny(&mut report),
        "lockorder" => step_lockorder(&mut report),
        "protocol" => step_protocol(&mut report),
        "loom" => step_loom(&mut report),
        "miri" => step_miri(&mut report),
        "tsan" => step_tsan(&mut report),
        "test" => step_test(&mut report),
        _ => return usage(),
    }
    report.exit()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The recorded line counts cover real trees: both sides are
    /// non-empty, and a file counts as its newlines.
    #[test]
    fn line_counts_cover_both_sides() {
        let counts = line_counts();
        for key in ["comm_recovery", "force_solver"] {
            let n = json_int_field(&counts, key).unwrap_or(0);
            assert!(n > 1000, "{key}: {counts}");
        }
        let this = repo_root().join("crates/xtask/src/main.rs");
        let text = std::fs::read_to_string(&this).unwrap();
        assert_eq!(rs_lines(&this), text.lines().count());
    }

    /// A failing step keeps both of its streams, whole, under
    /// `out/verify/`; a passing one leaves no log.
    #[test]
    fn failing_step_keeps_its_log() {
        let label = "xtask selftest failing step";
        let path = repo_root().join("out/verify/xtask-selftest-failing-step.log");
        let _ = std::fs::remove_file(&path);
        let script = "echo to-stdout; echo to-stderr >&2; exit 3";
        let outcome = run(label, Command::new("sh").args(["-c", script]));
        assert!(
            matches!(&outcome, Outcome::Fail(why) if why.contains("log")),
            "{outcome:?}"
        );
        let log = std::fs::read_to_string(&path).expect("log written");
        assert!(
            log.contains("to-stdout") && log.contains("to-stderr"),
            "{log}"
        );
        std::fs::remove_file(&path).expect("remove log");

        assert!(matches!(
            run(label, Command::new("true").arg("")),
            Outcome::Pass
        ));
        assert!(!path.exists());
    }
}
