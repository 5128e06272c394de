//! Host-cost benchmark of the NVMe-oPF simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <closed_grid|open_lossy|cluster_migrate|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The process measures by running one execution of the workload per
//! child process (itself, with `--child`) until `--seconds` have passed,
//! and aggregates what the children report. A fresh process per
//! execution keeps what one run leaves allocated from piling up.
//!
//! `--trace 0` children time untraced `workload::run` calls and report
//! the end-to-end metrics; each is followed by a set-up child
//! (`--setup-child`) that times `setup_s` in a process of its own.
//! `--trace 1` children run one untraced and one traced execution (the
//! span-wrapped assembly), check that both are the same run, and report
//! the per-layer metrics. The last line of standard
//! output is one JSON object: `{"correct", "attempted", "failed",
//! "metrics"}`.

use perfbench::calibrate;
use perfbench::check::WorkloadFacts;
use perfbench::exec::{median, setup_seconds, Execution, TracedExecution};
use perfbench::layers::{self, TracedTimes, PER_LAYER};
use perfbench::spans::{self, CountingAlloc};
use perfbench::workloads::Workload;
use perfbench::END_TO_END;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Fewest executions per run, whatever `--seconds` says.
const MIN_EXECUTIONS: usize = 3;

/// Zero-length executions each set-up child times for `setup_s`: at
/// least the first number, then more, up to the second, while
/// [`SETUP_BUDGET_S`] lasts. The budget keeps `cluster_migrate`'s 70 ms
/// samples from taking time its executions need.
const SETUP_SAMPLES: std::ops::RangeInclusive<usize> = 7..=20;

/// Host seconds a set-up child spends on samples beyond the fewest.
const SETUP_BUDGET_S: f64 = 0.45;

const USAGE: &str = "usage: perfbench --workload <closed_grid|open_lossy|cluster_migrate|all> \
--seed <n> --seconds <s> --trace <0|1|both>";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    /// Trace settings to measure in turn (`--trace both` gives both).
    traces: Vec<bool>,
    /// Run one execution and report it line by line (the child side).
    child: bool,
    /// As a child, time set-up only.
    setup_child: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut parsed = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: 10.0,
        traces: vec![false],
        child: false,
        setup_child: false,
    };
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" | "--child" | "--setup-child" => {
                parsed.child = flag != "--workload";
                parsed.setup_child = flag == "--setup-child";
                parsed.workloads = if value == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?]
                };
            }
            "--seed" => {
                parsed.seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?;
            }
            "--seconds" => {
                parsed.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds `{value}`"))?;
            }
            "--trace" => {
                parsed.traces = match value.as_str() {
                    "0" => vec![false],
                    "1" => vec![true],
                    "both" => vec![false, true],
                    _ => return Err(format!("bad trace `{value}`")),
                };
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if parsed.workloads.is_empty() {
        return Err("`--workload` is required".into());
    }
    Ok(parsed)
}

// ---------------------------------------------------------------------
// Child side: one execution, reported as `key value` lines.

fn child_untraced(w: Workload, seed: u64) -> Result<(), String> {
    let e = Execution::run(w, seed);
    let peak_rss_mb = spans::peak_rss_mb();
    let facts = e.facts(w)?;
    report_facts(&facts);
    println!("m kernel_s {:?}", median(&e.kernel_s));
    println!("m wall_s {:?}", e.scaled_wall_s);
    println!("m sim_s {:?}", e.scaled_sim_s);
    println!("m raw_wall_s {:?}", e.wall_ns as f64 / 1e9);
    println!("m raw_sim_s {:?}", e.sim_ns as f64 / 1e9);
    println!("m peak_rss_mb {peak_rss_mb:?}");
    Ok(())
}

/// Set-up is timed in a process of its own: after a large execution the
/// allocator's state makes the same set-up up to 1.6 times slower from one
/// process to the next, and the samples' leaked stacks must not count in
/// the execution's peak memory.
fn child_setup(w: Workload, seed: u64) {
    let setup = setup_seconds(w, seed, SETUP_SAMPLES, SETUP_BUDGET_S);
    println!("m setup_s {:?}", setup.seconds);
    println!("m setup_events {}", setup.events);
}

fn child_traced(w: Workload, seed: u64) -> Result<(), String> {
    let untraced = Execution::run(w, seed);
    let facts = untraced.facts(w)?;
    let traced = TracedExecution::run(w, seed)?;
    traced.check_matches(&untraced)?;
    report_facts(&facts);
    let runs: Vec<_> = untraced.results.iter().map(|r| &r.metrics).collect();
    let counts = layers::count_metrics(&untraced.scenarios, &runs, &facts, &traced.spans);
    let host = layers::host_metrics(
        &TracedTimes {
            spans: &traced.spans,
            wall_ns: traced.wall_ns,
            untraced_wall_ns: untraced.wall_ns,
            allocs: traced.allocs,
        },
        &facts,
        untraced.scenarios.len(),
    );
    for (name, value) in counts.into_iter().chain(host) {
        println!("m {name} {value:?}");
    }
    match write_raw_spans(w, seed, &traced.spans) {
        Ok(path) => println!("note raw spans: {path}"),
        Err(e) => println!("note raw spans not written: {e}"),
    }
    Ok(())
}

fn report_facts(facts: &WorkloadFacts) {
    println!("digest {:016x}", facts.digest);
    println!("m offered {}", facts.offered());
    println!("m ok {}", facts.ok());
    println!("m failed {}", facts.failed());
    println!(
        "m ls_samples {}",
        facts.scenarios.iter().map(|s| s.ls_samples).sum::<u64>()
    );
    println!("m sim_ls_p50_us {:?}", facts.sim.ls_p50_us);
    println!("m sim_ls_p99_us {:?}", facts.sim.ls_p99_us);
    println!("m sim_tc_kiops {:?}", facts.sim.tc_kiops);
    println!("m sim_tc_p99_us {:?}", facts.sim.tc_p99_us);
}

/// Write a traced execution's raw spans under the build directory
/// (`$CARGO_TARGET_DIR`, else `perfbench/target`).
fn write_raw_spans(w: Workload, seed: u64, spans: &spans::Spans) -> std::io::Result<String> {
    let dir = std::path::PathBuf::from(
        std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "perfbench/target".into()),
    )
    .join("perfbench-spans");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}-seed{seed}.tsv", w.name()));
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    spans.write_raw(&mut out)?;
    std::io::Write::flush(&mut out)?;
    Ok(path.display().to_string())
}

// ---------------------------------------------------------------------
// Parent side: children until the time is up, then aggregate.

/// What one child reported.
#[derive(Default)]
struct ChildReport {
    metrics: BTreeMap<String, f64>,
    digest: String,
    error: Option<String>,
    notes: Vec<String>,
}

impl ChildReport {
    fn get(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(f64::NAN)
    }
}

/// Run one child: `--child` (an execution) or `--setup-child`.
fn run_child(w: Workload, seed: u64, kind: &str, trace: bool) -> ChildReport {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            return ChildReport {
                error: Some(format!("cannot find own executable: {e}")),
                ..ChildReport::default()
            }
        }
    };
    let out = Command::new(exe)
        .args([kind, w.name(), "--seed", &seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output();
    let mut report = ChildReport::default();
    let out = match out {
        Ok(o) => o,
        Err(e) => {
            report.error = Some(format!("cannot start child: {e}"));
            return report;
        }
    };
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
        match key {
            "digest" => report.digest = rest.to_string(),
            "error" => report.error = Some(rest.to_string()),
            "note" => report.notes.push(rest.to_string()),
            "m" => {
                if let Some((name, value)) = rest.split_once(' ') {
                    let v = value.parse().unwrap_or(f64::NAN);
                    report.metrics.insert(name.to_string(), v);
                }
            }
            _ => {}
        }
    }
    if !out.status.success() && report.error.is_none() {
        report.error = Some(format!("child exited with {}", out.status));
    }
    report
}

/// What a run prints: metric values plus the operation counts.
struct Report {
    metrics: Vec<(&'static str, f64, &'static str)>,
    correct: bool,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Report {
    fn print(&self, w: Workload, seed: u64) {
        println!("workload {} seed {seed}", w.name());
        for note in &self.notes {
            println!("  {note}");
        }
        for (name, value, unit) in &self.metrics {
            println!("  {name:<32} {value:>16.6} {unit}");
        }
        let correct = self.correct && self.metrics.iter().all(|m| m.1.is_finite());
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let v = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

fn measure(w: Workload, args: &Args, trace: bool) -> Report {
    let start = Instant::now();
    let mut children: Vec<ChildReport> = Vec::new();
    while children.len() < MIN_EXECUTIONS || start.elapsed().as_secs_f64() < args.seconds {
        let mut c = run_child(w, args.seed, "--child", trace);
        if !trace && c.error.is_none() {
            let s = run_child(w, args.seed, "--setup-child", false);
            match s.error {
                Some(e) => c.error = Some(format!("set-up child: {e}")),
                None => c.metrics.extend(s.metrics),
            }
        }
        let stop = c.error.is_some();
        children.push(c);
        if stop {
            break;
        }
    }
    let first = &children[0];
    let offered = first.get("offered");
    let mut notes = Vec::new();
    let mut bad = 0u64;
    for (i, c) in children.iter().enumerate() {
        if let Some(e) = &c.error {
            notes.push(format!("CHECK FAILED in execution {i}: {e}"));
            bad += 1;
        } else if c.digest != first.digest {
            notes.push(format!(
                "execution {i} diverged: digest {} vs {}",
                c.digest, first.digest
            ));
            bad += 1;
        }
    }
    notes.push(format!(
        "{} executions, digest {}; each offers {offered} simulated I/Os and fails {} \
         (io_failed_frac {:.6}); {} LS samples",
        children.len(),
        first.digest,
        first.get("failed"),
        first.get("failed") / offered,
        first.get("ls_samples")
    ));
    notes.extend(first.notes.iter().cloned());
    let each = |name: &str| children.iter().map(|c| c.get(name)).collect::<Vec<_>>();
    let values: Vec<(&'static str, f64, &'static str)> = if trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, median(&each(name)), unit))
            .collect()
    } else {
        let rate = |sim_s: &str| {
            let rates: Vec<f64> = children
                .iter()
                .map(|c| c.get("ok") / c.get(sim_s))
                .collect();
            median(&rates)
        };
        // The children scale each run call by the kernel pass timed just
        // before it; set-up, timed in processes of their own, is scaled by
        // the run's median kernel pass.
        let kernel_s = median(&each("kernel_s"));
        notes.push(format!(
            "reference kernel {kernel_s:.4} s (nominal {} s); unscaled: sim_io_per_host_s {:.0}, wall_s {:.4}, setup_s {:.6}",
            calibrate::REFERENCE_S,
            rate("raw_sim_s"),
            median(&each("raw_wall_s")),
            median(&each("setup_s"))
        ));
        END_TO_END
            .iter()
            .map(|&(name, unit)| {
                let v = match name {
                    "sim_io_per_host_s" => rate("sim_s"),
                    "wall_s" => median(&each(name)),
                    "setup_s" => calibrate::scale(median(&each(name)), kernel_s),
                    "peak_rss_mb" => median(&each(name)),
                    "io_done_frac" => first.get("ok") / offered,
                    _ => first.get(name),
                };
                (name, v, unit)
            })
            .collect()
    };
    let executions_per_child = if trace { 2.0 } else { 1.0 };
    let attempted = (offered * executions_per_child) as u64 * children.len() as u64;
    let failed = if bad > 0 { attempted.max(1) } else { 0 };
    Report {
        metrics: values,
        correct: bad == 0,
        attempted,
        failed,
        notes,
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.child {
        let w = args.workloads[0];
        let r = if args.setup_child {
            child_setup(w, args.seed);
            Ok(())
        } else if args.traces[0] {
            child_traced(w, args.seed)
        } else {
            child_untraced(w, args.seed)
        };
        if let Err(e) = r {
            println!("error {e}");
        }
        return ExitCode::SUCCESS;
    }
    for &w in &args.workloads {
        for &trace in &args.traces {
            measure(w, &args, trace).print(w, args.seed);
        }
    }
    // A failed check is reported in the result line (`correct: false`),
    // not through the exit code.
    ExitCode::SUCCESS
}
