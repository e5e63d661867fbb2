//! `perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <missions|serve_cold|serve_hot> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Run from the repository root. `--trace 0` times the workload with
//! tracing off and prints the end-to-end metrics of `BENCHMARK.json`;
//! `--trace 1` replays the same seed's inputs through each layer's public
//! functions and prints the per-layer metrics. Every output is checked;
//! the last stdout line is the JSON result, and a failed check makes the
//! exit code 1. See `perfbench/README.md`.

mod layers;
mod missions;
mod reference;
mod report;
mod serve;
mod stats;
mod stream;

use std::process::ExitCode;

/// Environment hatches that pin a non-production engine.
const ENV_HATCHES: [&str; 4] = [
    "LCOSC_SOLVER",
    "LCOSC_FIDELITY",
    "LCOSC_BATCH",
    "LCOSC_FORCE_SCALAR",
];

#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: report::run_seconds(),
        trace: false,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !report::workloads().contains(&args.workload) {
        return Err(format!(
            "--workload must be one of {:?}",
            report::workloads()
        ));
    }
    Ok(args)
}

/// Peak resident set size of this process (`VmHWM`), megabytes.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// The checkout's git revision when it is a git work tree, else `none`.
fn git_revision() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "none".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "none".to_string())
}

/// Digest of the program sources (`crates/`, `src/`, the root manifest
/// and lock file): identifies the code measured even in a checkout that
/// is not a git repository.
fn source_digest() -> String {
    fn walk(dir: &std::path::Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() && path.file_name().is_some_and(|n| n != "target") {
                walk(&path, files);
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                files.push(path);
            }
        }
    }
    let mut files = vec!["Cargo.toml".into(), "Cargo.lock".into()];
    walk("crates".as_ref(), &mut files);
    walk("src".as_ref(), &mut files);
    files.sort();
    let mut all = Vec::new();
    for f in &files {
        all.extend_from_slice(f.to_string_lossy().as_bytes());
        all.extend(std::fs::read(f).unwrap_or_default());
    }
    format!("{:016x}", lcosc_campaign::digest_bytes(&all))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    if let Some(var) = ENV_HATCHES.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!("perfbench: refusing to run with {var} set: it pins a non-production engine");
        return ExitCode::from(2);
    }
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} git={} source={} nproc={nproc}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        git_revision(),
        source_digest(),
    );
    let (seed, seconds) = (args.seed, args.seconds);
    let outcome = match (args.workload.as_str(), args.trace) {
        ("missions", false) => missions::run(seed, seconds),
        ("missions", true) => missions::run_traced(seed),
        ("serve_cold", false) => serve::run(serve::Traffic::Cold, seed, seconds),
        ("serve_cold", true) => layers::run_traced(serve::Traffic::Cold, seed),
        ("serve_hot", false) => serve::run(serve::Traffic::Hot, seed, seconds),
        ("serve_hot", true) => layers::run_traced(serve::Traffic::Hot, seed),
        (other, _) => unreachable!("workload {other} passed validation"),
    };
    if outcome.finish(args.trace) {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn arguments_parse_and_bad_ones_are_refused() {
        let a = args(&[
            "--workload",
            "serve_hot",
            "--seed",
            "4",
            "--seconds",
            "9",
            "--trace",
            "1",
        ]);
        assert_eq!(
            a,
            Ok(Args {
                workload: "serve_hot".to_string(),
                seed: 4,
                seconds: 9,
                trace: true,
            })
        );
        assert!(args(&["--workload", "warp"]).is_err());
        assert!(args(&["--workload", "missions", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "missions", "--seed"]).is_err());
        assert!(args(&["--workload", "missions", "--fast", "1"]).is_err());
    }
}
