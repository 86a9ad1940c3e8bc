//! `jmpax-benchmark`: one benchmark over the path users run —
//! instrumented threads, the wire, an in-process `jmpax serve`, and the
//! verdict — on four workloads, with a separate traced run per workload
//! for per-layer attribution.
//!
//! ```text
//! jmpax-benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!                     [--trace-out DIR] [--out FILE] [--smoke]
//! jmpax-benchmark compare --parent FILE... --change FILE...
//! jmpax-benchmark calibrate [--seed N] [--runs K] [--seconds S] [--workload NAME]
//!                           [--out FILE] [--smoke]
//! ```
//!
//! `run` prints `workload metric value unit` lines and, last, one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. It exits 1
//! when any verdict differs from its reference.

mod client;
mod compare;
mod inputs;
mod instr;
mod metrics;
mod replay;
mod rng;
mod spans;
mod stats;
mod sys;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use metrics::Report;
use workloads::{Options, Workload};

const USAGE: &str = "usage:
  jmpax-benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--trace-out DIR] [--out FILE] [--smoke]
  jmpax-benchmark compare --parent FILE... --change FILE...
  jmpax-benchmark calibrate [--seed N] [--runs K] [--seconds S] [--workload NAME] [--out FILE] [--smoke]
workloads: wide-lattice live-stream tenant-churn access-mix";

/// Default length of a measured window, as in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => Args::parse(&args[1..]).and_then(|a| run(&a)),
        Some("compare") => {
            Args::parse(&args[1..]).and_then(|a| compare::main(&a.parent, &a.change))
        }
        Some("calibrate") => Args::parse(&args[1..]).and_then(|a| calibrate(&a)),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("jmpax-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[derive(Debug, Default)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    trace_out: Option<PathBuf>,
    out: Option<PathBuf>,
    smoke: bool,
    runs: usize,
    parent: Vec<PathBuf>,
    change: Vec<PathBuf>,
}

impl Args {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut a = Args {
            seed: 1,
            runs: 3,
            ..Args::default()
        };
        let mut list: Option<bool> = None;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let v = value(flag)?;
                    a.workload = Some(
                        Workload::parse(&v).ok_or(format!("unknown workload {v:?}\n{USAGE}"))?,
                    );
                }
                "--seed" => a.seed = value(flag)?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    let s: f64 = value(flag)?
                        .parse()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err("--seconds must be in (0, 600]".into());
                    }
                    a.seconds = Some(s);
                }
                "--trace" => {
                    a.trace = match value(flag)?.as_str() {
                        "0" => false,
                        "1" => true,
                        v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                    }
                }
                "--trace-out" => a.trace_out = Some(PathBuf::from(value(flag)?)),
                "--out" => a.out = Some(PathBuf::from(value(flag)?)),
                "--runs" => a.runs = value(flag)?.parse().map_err(|e| format!("--runs: {e}"))?,
                "--smoke" => a.smoke = true,
                "--parent" => list = Some(true),
                "--change" => list = Some(false),
                other if !other.starts_with("--") && list.is_some() => {
                    let target = if list == Some(true) {
                        &mut a.parent
                    } else {
                        &mut a.change
                    };
                    target.push(PathBuf::from(other));
                }
                other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
            }
        }
        // A traced run with a span directory is what `--trace-out` asks for.
        a.trace |= a.trace_out.is_some();
        Ok(a)
    }

    fn options(&self) -> Options {
        Options {
            seed: self.seed,
            seconds: self.seconds.unwrap_or(DEFAULT_SECONDS),
            trace: self.trace,
            trace_out: self.trace_out.clone(),
            smoke: self.smoke,
        }
    }

    /// The arguments of a child `run` for one workload.
    fn child_args(&self, workload: Workload, seed: u64) -> Vec<String> {
        let mut v = vec![
            "run".to_string(),
            "--workload".to_string(),
            workload.name().to_string(),
            "--seed".to_string(),
            seed.to_string(),
            "--seconds".to_string(),
            self.options().seconds.to_string(),
            "--trace".to_string(),
            if self.trace { "1" } else { "0" }.to_string(),
        ];
        if let Some(dir) = &self.trace_out {
            v.push("--trace-out".to_string());
            v.push(dir.display().to_string());
        }
        if self.smoke {
            v.push("--smoke".to_string());
        }
        v
    }
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let reports = match args.workload {
        Some(w) => {
            let report = workloads::run(w, &args.options());
            for line in report.lines() {
                println!("{line}");
            }
            println!("report {}", report.to_json());
            vec![report]
        }
        // Each workload in its own child process, so set-up time and peak
        // memory are per workload.
        None => Workload::ALL
            .iter()
            .map(|&w| run_child(&args.child_args(w, args.seed)))
            .collect::<Result<_, _>>()?,
    };
    if let Some(path) = &args.out {
        std::fs::write(path, runs_json(args, &reports))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    let correct = reports.iter().all(Report::correct);
    if let [report] = reports.as_slice() {
        println!("{}", report.result_line());
    } else {
        println!("{}", combined_result_line(&reports));
    }
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Runs one workload in a child process, forwarding its metric lines.
fn run_child(child_args: &[String]) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let output = Command::new(exe)
        .args(child_args)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting a workload process: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut report = None;
    for line in stdout.lines() {
        if let Some(json) = line.strip_prefix("report ") {
            let value =
                jmpax_telemetry::json::parse(json).map_err(|e| format!("child report: {e}"))?;
            report = Some(Report::from_json(&value)?);
        } else if !line.starts_with('{') {
            println!("{line}");
        }
    }
    report.ok_or_else(|| {
        format!(
            "workload process {:?} printed no report ({})",
            child_args, output.status
        )
    })
}

/// The `--out` document: every report of this invocation.
fn runs_json(args: &Args, reports: &[Report]) -> String {
    let opts = args.options();
    let body: Vec<String> = reports.iter().map(Report::to_json).collect();
    format!(
        "{{\"schema\":\"jmpax-benchmark/v1\",\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{},\"reports\":[{}]}}\n",
        opts.seed,
        opts.seconds,
        opts.trace,
        sys::nproc(),
        body.join(",")
    )
}

/// All workloads' result in one object, metrics keyed `workload/metric`.
fn combined_result_line(reports: &[Report]) -> String {
    let mut metrics = Vec::new();
    for r in reports {
        for def in r.required() {
            if let Some(v) = r.values.get(def.name) {
                metrics.push(format!(
                    "\"{}/{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    r.workload,
                    def.name,
                    metrics::fmt(*v),
                    def.unit
                ));
            }
        }
    }
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        reports.iter().all(Report::correct),
        reports.iter().map(|r| r.attempted).sum::<u64>().max(1),
        reports.iter().map(|r| r.failed).sum::<u64>(),
        metrics.join(",")
    )
}

/// Runs each workload `--runs` times with consecutive seeds and prints
/// every end-to-end and workload-specific metric's spread against the
/// bound it must repeat within.
fn calibrate(args: &Args) -> Result<ExitCode, String> {
    let workloads: Vec<Workload> = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let runs = args.runs.max(2);
    let mut doc = Vec::new();
    let mut all_ok = true;
    for &w in &workloads {
        let reports: Vec<Report> = (0..runs as u64)
            .map(|i| run_child(&args.child_args(w, args.seed + i)))
            .collect::<Result<_, _>>()?;
        let mut rows = Vec::new();
        for def in metrics::END_TO_END.iter().chain(metrics::EXTRAS) {
            let values: Vec<f64> = reports
                .iter()
                .filter_map(|r| r.values.get(def.name).copied())
                .collect();
            if values.len() != reports.len() {
                continue;
            }
            let median = stats::median(&values);
            let spread = stats::spread(&values);
            let status = match def.bound {
                // setup_s is held to its bound across runs, not within one.
                Some(_) if def.name == "setup_s" => "n/a",
                Some(b) if spread <= b / 3.0 => "ok",
                Some(b) if spread <= b => "tight",
                Some(_) => {
                    all_ok = false;
                    "wide"
                }
                None => "-",
            };
            let bound = def.bound.map_or("-".to_string(), |b| format!("{b}"));
            println!(
                "{:<13} {:<20} median {:>14} {:<10} spread {:>7.4} bound {:>5} {status}",
                w.name(),
                def.name,
                metrics::fmt(median),
                def.unit,
                spread,
                bound
            );
            let values: Vec<String> = values.iter().map(|v| metrics::fmt(*v)).collect();
            rows.push(format!(
                "\"{}\":{{\"unit\":\"{}\",\"median\":{},\"spread\":{},\"values\":[{}]}}",
                def.name,
                def.unit,
                metrics::fmt(median),
                metrics::fmt(spread),
                values.join(",")
            ));
        }
        let correct = reports.iter().all(Report::correct);
        all_ok &= correct;
        doc.push(format!(
            "\"{}\":{{\"correct\":{correct},\"metrics\":{{{}}}}}",
            w.name(),
            rows.join(",")
        ));
    }
    if let Some(path) = &args.out {
        let text = format!(
            "{{\"schema\":\"jmpax-benchmark-calibration/v1\",\"nproc\":{},\"seconds\":{},\"runs\":{runs},\"first_seed\":{},\"workloads\":{{{}}}}}\n",
            sys::nproc(),
            args.options().seconds,
            args.seed,
            doc.join(",")
        );
        std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
