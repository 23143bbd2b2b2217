//! The repository benchmark: DMT training plus hot, cold and overload
//! serving, measured end to end and split by layer.
//!
//! ```text
//! cargo run --offline --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <train_dmt|serve_hot|serve_cold|serve_overload|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` a run reports the end-to-end metrics; with `--trace 1` it
//! also makes a traced run with the benchmark's own spans around each layer
//! call and reports the per-layer metrics, writing the spans to
//! `.bench_traces/`. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. A failed output or
//! reconciliation check makes `correct` false and the exit code non-zero.
//! See `benchmark/README.md` for why each workload exists.

mod colocated;
mod overload;
mod probes;
mod report;
mod stats;
mod tracer;
mod train;

use dmt_comm::FabricProfile;
use dmt_topology::{ClusterTopology, HardwareGeneration};
use report::Report;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use tracer::Tracer;

/// The latency limit every workload is judged against: a request counts as
/// served well only if it completes within this long of its scheduled send.
pub const LIMIT_US: u64 = 25_000;

/// Distinct queries generated per serving run; longer schedules cycle
/// through them.
pub const QUERY_POOL: usize = 20_000;

/// Most consecutive slices a serving window's tail latency is taken over.
pub const TAIL_SLICES: usize = 25;

/// Fabric slowdown applied to the modelled hardware's link bandwidths.
const FABRIC_SLOWDOWN: f64 = 2_000.0;

const WORKLOADS: &[&str] = &["train_dmt", "serve_hot", "serve_cold", "serve_overload"];

/// The 2 hosts x 2 ranks cluster every workload runs on.
pub fn cluster() -> ClusterTopology {
    ClusterTopology::new(HardwareGeneration::A100, 2, 2).expect("2x2 cluster")
}

/// The paced fabric every workload runs over.
pub fn fabric(cluster: &ClusterTopology) -> FabricProfile {
    FabricProfile::from_cluster(cluster, FABRIC_SLOWDOWN)
}

/// Set-up repeats: at least [`SETUP_MIN`], then more while the first second
/// lasts, up to [`SETUP_MAX`]; `setup_s` is their median.
const SETUP_MIN: usize = 5;
const SETUP_MAX: usize = 200;
const SETUP_BUDGET: Duration = Duration::from_secs(1);

/// Sets up with `start` repeatedly, tearing each instance down with `stop`
/// but the last, and returns that one with the median set-up seconds.
pub fn timed_setup<T>(
    mut start: impl FnMut() -> Result<T, String>,
    mut stop: impl FnMut(T) -> Result<(), String>,
) -> Result<(T, f64), String> {
    let begun = Instant::now();
    let mut samples = Vec::with_capacity(SETUP_MAX);
    loop {
        let t = Instant::now();
        let instance = start()?;
        samples.push(t.elapsed().as_secs_f64());
        let enough = samples.len() >= SETUP_MIN && begun.elapsed() >= SETUP_BUDGET;
        if enough || samples.len() >= SETUP_MAX {
            return Ok((instance, stats::median(&samples).expect("set-up samples")));
        }
        stop(instance)?;
    }
}

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

/// Peak resident set size of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Clock ticks the machine's CPUs have had stolen by the hypervisor so far,
/// and the total ticks (`/proc/stat`); `None` where the kernel reports none.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|v| v.parse().ok())
        .collect::<Option<_>>()?;
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

/// Where the measured code came from: the git commit when the checkout is a
/// repository, else `none`.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "none".to_string(), |s| s.trim().to_string())
}

/// The machine and build a result was taken on, plus the workload seed, as a
/// JSON object.
fn fingerprint(workload: &str, seed: u64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"nproc\": {nproc}, \
         \"f32_tier\": \"{}\", \"profile\": \"{profile}\", \"commit\": \"{}\"}}",
        dmt_tensor::f32_tier_name(),
        commit()
    )
}

/// Runs one workload and returns its report.
fn run_workload(name: &str, args: &Args) -> Report {
    let mut report = Report::default();
    let mut tracer = Tracer::new(args.trace);
    let ticks_before = cpu_ticks();
    let outcome = match name {
        "train_dmt" => train::run(args, &mut tracer, &mut report),
        "serve_hot" => colocated::run(&colocated::HOT, args, &mut tracer, &mut report),
        "serve_cold" => colocated::run(&colocated::COLD, args, &mut tracer, &mut report),
        "serve_overload" => overload::run(args, &mut tracer, &mut report),
        _ => unreachable!("workload names are checked when parsing"),
    };
    if let Err(e) = outcome {
        report.check(format!("workload ran to completion: {e}"), false);
    }
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    // A run on a machine whose CPUs were stolen by other tenants is slower
    // for reasons outside the program; this says how much that happened.
    if let (Some((steal0, total0)), Some((steal1, total1))) = (ticks_before, cpu_ticks()) {
        let stolen = (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64;
        report.metric("host.cpu_steal_frac", stolen, "frac");
    }
    let fingerprint = fingerprint(name, args.seed);
    println!("fingerprint: {fingerprint}");
    if tracer.enabled() {
        println!("per-layer span time ({} spans):", tracer.len());
        for (layer, t) in tracer.layer_totals() {
            println!(
                "  {layer:<10} {:>6} spans {:>12.3} ms total {:>12.3} ms self",
                t.spans,
                t.total_ns as f64 * 1e-6,
                t.self_ns as f64 * 1e-6
            );
        }
        let dir = std::path::Path::new(".bench_traces");
        let path = dir.join(format!("{name}-seed{}.json", args.seed));
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, tracer.chrome_trace(&fingerprint)));
        match written {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => report.check(format!("trace written to {}: {e}", path.display()), false),
        }
    }
    report
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let wanted: Vec<(&str, &str)> = if args.trace {
        report::PER_LAYER.to_vec()
    } else {
        report::END_TO_END.to_vec()
    };
    let mut all_correct = true;
    for name in names {
        let report = run_workload(name, &args);
        println!("{name}:\n{}", report.table());
        let (correct, line) = report.json_line(&wanted);
        all_correct &= correct;
        println!("{line}");
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
