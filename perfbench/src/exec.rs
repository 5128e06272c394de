//! One execution of a workload: every scenario run once, untraced
//! through `workload::run` or traced through the span-wrapped assembly.

use crate::assembly;
use crate::calibrate;
use crate::check::{self, WorkloadFacts};
use crate::spans::{self, AllocCounts, Layer, Spans};
use crate::workloads::Workload;
use std::rc::Rc;
use std::time::Instant;
use workload::{RunResult, Scenario};

/// Median of `values` (NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// One untraced execution of a workload through `workload::run`.
pub struct Execution {
    /// The scenarios, as generated from the seed.
    pub scenarios: Vec<Scenario>,
    /// What `workload::run` returned for each.
    pub results: Vec<RunResult>,
    /// Host time of the whole execution: scenario generation plus every
    /// `workload::run` call, without the reference-kernel passes (ns).
    pub wall_ns: u64,
    /// Host time inside `workload::run` (ns).
    pub sim_ns: u64,
    /// `wall_ns` scaled to the reference speed: each `workload::run` call
    /// by the kernel pass timed right before it, scenario generation by
    /// the first pass (s).
    pub scaled_wall_s: f64,
    /// `sim_ns` scaled the same way (s).
    pub scaled_sim_s: f64,
    /// The reference-kernel passes, one per scenario (s).
    pub kernel_s: Vec<f64>,
}

impl Execution {
    /// Generate `w`'s scenarios for `seed` and run each.
    pub fn run(w: Workload, seed: u64) -> Execution {
        let t0 = Instant::now();
        let scenarios = w.scenarios(seed);
        let generate_ns = t0.elapsed().as_nanos() as u64;
        let mut results = Vec::with_capacity(scenarios.len());
        let mut kernel_s = Vec::with_capacity(scenarios.len());
        let mut sim_ns = 0u64;
        let mut scaled_sim_s = 0.0;
        for sc in &scenarios {
            // The host's speed right now: on a shared host it swings
            // within seconds, so one pass per run call tracks it.
            let k = calibrate::kernel_seconds();
            kernel_s.push(k);
            let t = Instant::now();
            results.push(std::hint::black_box(workload::run(std::hint::black_box(
                sc,
            ))));
            let ns = t.elapsed().as_nanos() as u64;
            sim_ns += ns;
            scaled_sim_s += calibrate::scale(ns as f64 / 1e9, k);
        }
        let first_k = kernel_s.first().copied().unwrap_or(calibrate::REFERENCE_S);
        Execution {
            scenarios,
            results,
            wall_ns: generate_ns + sim_ns,
            sim_ns,
            scaled_wall_s: scaled_sim_s + calibrate::scale(generate_ns as f64 / 1e9, first_k),
            scaled_sim_s,
            kernel_s,
        }
    }

    /// Check the execution and extract its facts.
    pub fn facts(&self, w: Workload) -> Result<WorkloadFacts, String> {
        let runs: Vec<_> = self
            .results
            .iter()
            .map(|r| (r.events, &r.metrics))
            .collect();
        check::workload_facts(w, &self.scenarios, &runs)
    }
}

/// One traced execution through the span-wrapped assembly.
pub struct TracedExecution {
    /// The execution's spans.
    pub spans: Rc<Spans>,
    /// `(events, snapshot digest)` per scenario.
    pub digests: Vec<(u64, u64)>,
    /// Host time of the whole execution (ns).
    pub wall_ns: u64,
    /// Allocations made by the runs; `retained()` is what they left
    /// allocated after their stacks and snapshots were dropped.
    pub allocs: AllocCounts,
}

impl TracedExecution {
    /// Generate `w`'s scenarios for `seed` and run each traced.
    pub fn run(w: Workload, seed: u64) -> Result<TracedExecution, String> {
        let spans = Rc::new(Spans::new());
        let mut digests = Vec::new();
        let mut allocs = AllocCounts::default();
        let t0 = Instant::now();
        let scenarios = w.scenarios(seed);
        for sc in &scenarios {
            let before = AllocCounts::now();
            spans::count_allocations(true);
            let stack = spans
                .time(Layer::Setup, 0, || assembly::build(sc, spans.clone()))
                .map_err(|e| format!("traced assembly refuses the scenario: {}", e.0))?;
            let outcome = stack.run();
            // Digest and drop the snapshot inside the counted stretch, so
            // `retained` is only what the run itself left allocated.
            let digest = (
                outcome.events,
                check::digest(outcome.events, &outcome.metrics),
            );
            drop(outcome);
            spans::count_allocations(false);
            let c = AllocCounts::now().since(before);
            allocs.allocs += c.allocs;
            allocs.bytes += c.bytes;
            allocs.freed += c.freed;
            digests.push(digest);
        }
        Ok(TracedExecution {
            spans,
            digests,
            wall_ns: t0.elapsed().as_nanos() as u64,
            allocs,
        })
    }

    /// The traced run must be the same program run: same event count and
    /// snapshot digest per scenario as `workload::run`.
    pub fn check_matches(&self, untraced: &Execution) -> Result<(), String> {
        for (i, (&(events, a), r)) in self.digests.iter().zip(&untraced.results).enumerate() {
            let b = check::digest(r.events, &r.metrics);
            if events != r.events || a != b {
                return Err(format!(
                    "scenario {i}: traced run diverges from workload::run ({events} vs {} events, digest {a:016x} vs {b:016x})",
                    r.events
                ));
            }
        }
        Ok(())
    }
}

/// `sc` cut to zero simulated length. `workload::run` on it builds the
/// scenario's stack, runs only what is due at time zero and the in-flight
/// tail its settle window lets land, and takes the snapshot: the run's
/// fixed cost, without the simulated traffic.
pub fn zero_length(sc: &Scenario) -> Scenario {
    Scenario {
        warmup_s: 0.0,
        measure_s: 0.0,
        ..sc.clone()
    }
}

/// Set-up cost of `w` for `seed`, timed through `workload::run` itself.
pub struct SetupTiming {
    /// Median host time over the samples to generate the scenarios and
    /// run each at zero length (s).
    pub seconds: f64,
    /// Events the zero-length runs of one sample executed.
    pub events: u64,
}

/// Time zero-length executions of `w` (see [`zero_length`]): at least
/// `samples.start()`, then more until `budget_s` have passed, at most
/// `samples.end()`. `workload::run` leaks each stack it builds (its
/// components hold each other through `Rc` cycles), so every sample adds
/// its stacks to the process's memory: call this in a process that
/// measures nothing else.
pub fn setup_seconds(
    w: Workload,
    seed: u64,
    samples: std::ops::RangeInclusive<usize>,
    budget_s: f64,
) -> SetupTiming {
    let start = Instant::now();
    let mut times = Vec::with_capacity(*samples.end());
    let mut events = 0;
    while times.len() < *samples.start()
        || (times.len() < *samples.end() && start.elapsed().as_secs_f64() < budget_s)
    {
        let t = Instant::now();
        let scenarios: Vec<Scenario> = w.scenarios(seed).iter().map(zero_length).collect();
        events = scenarios
            .iter()
            .map(|sc| std::hint::black_box(workload::run(std::hint::black_box(sc))).events)
            .sum();
        times.push(t.elapsed().as_secs_f64());
    }
    SetupTiming {
        seconds: median(&times),
        events,
    }
}
