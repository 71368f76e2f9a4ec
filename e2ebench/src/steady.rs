//! Steadiness mode: run each workload N times with seeds 1..=N and print
//! every end-to-end metric's median, quartiles and spread
//! (`(q3 - q1) / median`) against its bound from `BENCHMARK.json`.
//!
//! With `--other DIR` (another checkout of the repository) every round
//! also runs that checkout's build, alternating which side goes first,
//! and reports how far the other side's median moved.

use std::path::{Path, PathBuf};
use std::process::Command;

use crate::util::{median, quartiles, Json};

struct Opts {
    runs: u64,
    other: Option<PathBuf>,
}

fn parse(argv: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        runs: 10,
        other: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--steady" => o.runs = value()?.parse().map_err(|e| format!("--steady: {e}"))?,
            "--other" => o.other = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if o.runs < 2 {
        return Err("--steady needs at least 2 runs".to_string());
    }
    Ok(o)
}

/// One run's result line, parsed.
struct RunResult {
    correct: bool,
    attempted: f64,
    failed: f64,
    metrics: Vec<(String, f64)>,
}

fn run_once(
    other: Option<&Path>,
    workload: &str,
    seed: u64,
    seconds: u64,
) -> Result<RunResult, String> {
    let bench_args = [
        "--workload".to_string(),
        workload.to_string(),
        "--seed".to_string(),
        seed.to_string(),
        "--seconds".to_string(),
        seconds.to_string(),
        "--trace".to_string(),
        "0".to_string(),
    ];
    let output = match other {
        None => Command::new(std::env::current_exe().map_err(|e| e.to_string())?)
            .args(&bench_args)
            .output(),
        Some(dir) => Command::new("cargo")
            .args([
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                "e2ebench/Cargo.toml",
                "--",
            ])
            .args(&bench_args)
            .current_dir(dir)
            .output(),
    }
    .map_err(|e| format!("could not start the benchmark: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let doc = Json::parse(last).map_err(|e| {
        format!(
            "exit {:?}, last line is not JSON ({e}); stderr: {}",
            output.status.code(),
            String::from_utf8_lossy(&output.stderr)
        )
    })?;
    let metrics = match doc.get("metrics") {
        Some(Json::Obj(fields)) => fields
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.num()?)))
            .collect(),
        _ => Vec::new(),
    };
    Ok(RunResult {
        correct: doc.get("correct") == Some(&Json::Bool(true)),
        attempted: doc.get("attempted").and_then(Json::num).unwrap_or(0.0),
        failed: doc.get("failed").and_then(Json::num).unwrap_or(0.0),
        metrics,
    })
}

pub fn main(argv: &[String]) -> i32 {
    let opts = match parse(argv) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: --steady N [--other DIR]");
            return 2;
        }
    };
    let spec = match std::fs::read_to_string("BENCHMARK.json").map(|t| Json::parse(&t)) {
        Ok(Ok(doc)) => doc,
        _ => {
            eprintln!("error: BENCHMARK.json missing or not JSON (run from the repository root)");
            return 2;
        }
    };
    // Spreads are compared with the bounds, which hold for runs of
    // `run_seconds`; no other run length is offered.
    let Some(seconds) = spec
        .get("run_seconds")
        .and_then(Json::num)
        .map(|s| s as u64)
    else {
        eprintln!("error: BENCHMARK.json has no run_seconds");
        return 2;
    };
    let bounds: Vec<(String, f64)> = spec
        .get("end_to_end")
        .map(|e| {
            e.arr()
                .iter()
                .filter_map(|m| Some((m.get("name")?.str()?.to_string(), m.get("bound")?.num()?)))
                .collect()
        })
        .unwrap_or_default();
    let workloads: Vec<String> = spec
        .get("workloads")
        .map(|w| {
            w.arr()
                .iter()
                .filter_map(|x| x.get("name")?.str().map(str::to_string))
                .collect()
        })
        .unwrap_or_default();
    let mut status = 0;
    for workload in &workloads {
        let mut sides: [Vec<RunResult>; 2] = [Vec::new(), Vec::new()];
        for i in 0..opts.runs {
            let seed = i + 1;
            let order: &[usize] = match (&opts.other, i % 2) {
                (None, _) => &[0],
                (Some(_), 0) => &[0, 1],
                (Some(_), _) => &[1, 0],
            };
            for &side in order {
                let dir = (side == 1).then_some(opts.other.as_deref()).flatten();
                match run_once(dir, workload, seed, seconds) {
                    Ok(r) => {
                        let values: Vec<String> = r
                            .metrics
                            .iter()
                            .map(|(k, v)| format!("{k}={v:.4}"))
                            .collect();
                        eprintln!(
                            "{workload} seed {seed} side {side}: correct={} attempted={} failed={} {}",
                            r.correct,
                            r.attempted,
                            r.failed,
                            values.join(" ")
                        );
                        if !r.correct {
                            status = 1;
                        }
                        sides[side].push(r);
                    }
                    Err(e) => {
                        eprintln!("{workload} seed {seed} side {side}: {e}");
                        status = 1;
                    }
                }
            }
        }
        println!("== {workload} ({} runs of {seconds} s)", sides[0].len());
        println!(
            "{:<24} {:>12} {:>12} {:>12} {:>8} {:>7} {:>7}{}",
            "metric",
            "q1",
            "median",
            "q3",
            "spread",
            "bound",
            "steady",
            if opts.other.is_some() {
                "   other median  moved"
            } else {
                ""
            }
        );
        for (name, bound) in &bounds {
            let values = |side: usize| -> Vec<f64> {
                sides[side]
                    .iter()
                    .filter_map(|r| r.metrics.iter().find(|(k, _)| k == name).map(|(_, v)| *v))
                    .collect()
            };
            let mine = values(0);
            if mine.len() < 2 {
                println!("{name:<24} (fewer than two values)");
                continue;
            }
            let [q1, q2, q3] = quartiles(&mine);
            let spread = (q3 - q1) / q2;
            let mut line = format!(
                "{name:<24} {q1:>12.4} {:>12.4} {q3:>12.4} {spread:>8.4} {bound:>7.3} {:>7}",
                median(&mine),
                if spread <= bound / 3.0 { "yes" } else { "NO" }
            );
            let theirs = values(1);
            if !theirs.is_empty() {
                let m = median(&theirs);
                line.push_str(&format!("   {m:>12.4}  {:>+6.3}", m / median(&mine) - 1.0));
            }
            println!("{line}");
        }
        for (side, runs) in sides.iter().enumerate() {
            let shares: Vec<f64> = runs
                .iter()
                .map(|r| r.failed / r.attempted.max(1.0))
                .collect();
            if !shares.is_empty() {
                println!(
                    "side {side}: failed share min {:.6} max {:.6}",
                    shares.iter().copied().fold(f64::INFINITY, f64::min),
                    shares.iter().copied().fold(0.0, f64::max)
                );
            }
        }
    }
    status
}
