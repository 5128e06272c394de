//! Fidelity checks and simulated statistics, read from the snapshot
//! `workload::run` returns.
//!
//! Every scenario is checked for per-tenant conservation (offered =
//! completed exactly once + failed) and digested, so two commits can be
//! compared exactly; `closed_grid` also checks the paper's direction
//! (NVMe-oPF's LS tail below SPDK's at every grid point).

use crate::workloads::{grid_point, Workload};
use simkit::Metrics;
use workload::{RuntimeKind, Scenario};

/// LS samples a scenario must carry for its LS percentiles to count:
/// enough that at least ten lie beyond p99.
const MIN_LS_SAMPLES: u64 = 1000;

/// What one scenario's snapshot says about its I/Os.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioFacts {
    /// I/Os offered by the tenants: closed-loop submits (drain flushes
    /// included) plus open-loop arrivals.
    pub offered: u64,
    /// I/Os completed exactly once without error.
    pub ok: u64,
    /// I/Os that exhausted their retries or were still outstanding at
    /// the end of the run.
    pub failed: u64,
    /// LS latency samples in the measure window.
    pub ls_samples: u64,
    /// Kernel events executed.
    pub events: u64,
    /// FNV-1a digest of the snapshot.
    pub digest: u64,
}

/// FNV-1a, 64 bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Digest of a snapshot plus its event count.
pub fn digest(events: u64, m: &Metrics) -> u64 {
    fnv1a(format!("{events}:{}", m.to_json()).as_bytes())
}

fn get(m: &Metrics, name: &str) -> Result<f64, String> {
    m.get(name)
        .ok_or_else(|| format!("snapshot lacks `{name}`"))
}

fn count(m: &Metrics, name: &str) -> Result<u64, String> {
    let v = get(m, name)?;
    if v < 0.0 || v.fract() != 0.0 {
        return Err(format!("`{name}` = {v} is not a count"));
    }
    Ok(v as u64)
}

/// Check one scenario's snapshot and extract its facts.
pub fn scenario_facts(sc: &Scenario, events: u64, m: &Metrics) -> Result<ScenarioFacts, String> {
    let per_node = sc.ls_per_node + sc.tc_per_node;
    let (mut offered, mut ok, mut submitted_all) = (0u64, 0u64, 0u64);
    let (mut open_completed, mut open_errors) = (0u64, 0u64);
    for idx in 0..per_node {
        let p = format!("ini{idx}.");
        let submitted = count(m, &format!("{p}submitted"))?;
        let completed = count(m, &format!("{p}completed"))?;
        let errors = count(m, &format!("{p}errors"))?;
        let inflight = count(m, &format!("{p}inflight"))?;
        // Exactly once: every submit is retired at most once, and is
        // either retired or still in flight.
        if submitted != completed + inflight || errors > completed {
            return Err(format!(
                "tenant {idx}: submitted {submitted} != completed {completed} + in flight {inflight} (errors {errors})"
            ));
        }
        if let Some(exhausted) = m.get(&format!("{p}retry_exhausted")) {
            if exhausted > errors as f64 {
                return Err(format!(
                    "tenant {idx}: {exhausted} retry-exhausted I/Os but only {errors} errors"
                ));
            }
        }
        submitted_all += submitted;
        if sc.traffic.is_some() && idx >= sc.ls_per_node {
            open_completed += completed;
            open_errors += errors;
        } else {
            // A closed-loop tenant offers exactly what it submits (its
            // initiator's drain flushes included: they are device
            // commands too).
            offered += submitted;
            ok += completed - errors;
        }
    }
    if sc.traffic.is_some() {
        // An open-loop arrival is done once its callback ran; until then
        // it waits in the application queue or is in flight. Callbacks
        // never outnumber retirements (drain flushes retire silently).
        let arrivals = count(m, "traffic.offered")?;
        let done = count(m, "traffic.done")?;
        if done > open_completed || done > arrivals || open_errors > done {
            return Err(format!(
                "open loop: {arrivals} arrivals, {open_completed} retired, {done} callbacks, {open_errors} errors"
            ));
        }
        offered += arrivals;
        ok += done - open_errors;
    }
    for key in ["faults.offered", "recovery.offered"] {
        if let Some(v) = m.get(key) {
            if v != submitted_all as f64 {
                return Err(format!(
                    "`{key}` = {v} but tenants submitted {submitted_all}"
                ));
            }
        }
    }
    if ok == 0 || events == 0 {
        return Err("scenario completed no I/O".into());
    }
    let ls_samples = (get(m, "ls.iops")? * sc.measure_s).round() as u64;
    Ok(ScenarioFacts {
        offered,
        ok,
        failed: offered - ok,
        ls_samples,
        events,
        digest: digest(events, m),
    })
}

/// Simulated guard statistics of one workload execution.
#[derive(Clone, Debug, PartialEq)]
pub struct SimStats {
    /// LS median latency (µs, simulated).
    pub ls_p50_us: f64,
    /// LS 99th-percentile latency (µs, simulated).
    pub ls_p99_us: f64,
    /// TC throughput in the window (kIOPS, simulated).
    pub tc_kiops: f64,
    /// TC 99th-percentile latency (µs, simulated).
    pub tc_p99_us: f64,
}

fn geomean(values: impl Iterator<Item = f64>) -> f64 {
    let (mut log_sum, mut n) = (0.0, 0usize);
    for v in values {
        log_sum += v.max(1e-9).ln();
        n += 1;
    }
    if n == 0 {
        f64::NAN
    } else {
        (log_sum / n as f64).exp()
    }
}

/// Everything checked about one execution of a workload.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadFacts {
    /// Per-scenario facts, in scenario order.
    pub scenarios: Vec<ScenarioFacts>,
    /// Simulated guard statistics.
    pub sim: SimStats,
    /// Digest over every scenario's digest, in order.
    pub digest: u64,
}

impl WorkloadFacts {
    /// I/Os offered over the workload.
    pub fn offered(&self) -> u64 {
        self.scenarios.iter().map(|s| s.offered).sum()
    }

    /// I/Os completed exactly once over the workload.
    pub fn ok(&self) -> u64 {
        self.scenarios.iter().map(|s| s.ok).sum()
    }

    /// I/Os failed over the workload.
    pub fn failed(&self) -> u64 {
        self.scenarios.iter().map(|s| s.failed).sum()
    }

    /// Kernel events over the workload.
    pub fn events(&self) -> u64 {
        self.scenarios.iter().map(|s| s.events).sum()
    }
}

/// Check a whole workload execution: every scenario, the LS sample
/// floor, and (on `closed_grid`) the paper's direction.
pub fn workload_facts(
    w: Workload,
    scenarios: &[Scenario],
    runs: &[(u64, &Metrics)],
) -> Result<WorkloadFacts, String> {
    let mut facts = Vec::with_capacity(scenarios.len());
    for (i, (sc, (events, m))) in scenarios.iter().zip(runs).enumerate() {
        facts.push(scenario_facts(sc, *events, m).map_err(|e| format!("scenario {i}: {e}"))?);
    }
    // LS percentiles are reported over NVMe-oPF rows: the SPDK LS probe
    // waits behind TC queues for milliseconds and only enters the
    // direction check.
    let ls_rows: Vec<usize> = (0..scenarios.len())
        .filter(|&i| w != Workload::ClosedGrid || scenarios[i].runtime == RuntimeKind::Opf)
        .collect();
    for &i in &ls_rows {
        if facts[i].ls_samples < MIN_LS_SAMPLES {
            return Err(format!(
                "scenario {i}: {} LS samples, need {MIN_LS_SAMPLES}",
                facts[i].ls_samples
            ));
        }
    }
    if w == Workload::ClosedGrid {
        check_direction(scenarios, runs)?;
    }
    let metric = |i: usize, name: &str| runs[i].1.get(name).unwrap_or(f64::NAN);
    let sim = SimStats {
        ls_p50_us: geomean(ls_rows.iter().map(|&i| metric(i, "ls.p50_us"))),
        ls_p99_us: geomean(ls_rows.iter().map(|&i| metric(i, "ls.p99_us"))),
        tc_kiops: geomean((0..runs.len()).map(|i| metric(i, "tc.iops") / 1e3)),
        tc_p99_us: geomean((0..runs.len()).map(|i| metric(i, "tc.p99_us"))),
    };
    let mut all = Vec::with_capacity(facts.len() * 8);
    for f in &facts {
        all.extend_from_slice(&f.digest.to_le_bytes());
    }
    Ok(WorkloadFacts {
        digest: fnv1a(&all),
        scenarios: facts,
        sim,
    })
}

/// NVMe-oPF's LS p99.99 must be below SPDK's at every grid point.
fn check_direction(scenarios: &[Scenario], runs: &[(u64, &Metrics)]) -> Result<(), String> {
    let mut checked = 0;
    for (i, sc) in scenarios.iter().enumerate() {
        if sc.runtime != RuntimeKind::Opf {
            continue;
        }
        let spdk = scenarios
            .iter()
            .position(|s| s.runtime == RuntimeKind::Spdk && grid_point(s) == grid_point(sc))
            .ok_or_else(|| format!("grid point of scenario {i} has no SPDK row"))?;
        let opf_tail = get(runs[i].1, "ls.p9999_us")?;
        let spdk_tail = get(runs[spdk].1, "ls.p9999_us")?;
        if opf_tail >= spdk_tail {
            return Err(format!(
                "grid point {:?}: NVMe-oPF LS p99.99 {opf_tail} us is not below SPDK's {spdk_tail} us",
                grid_point(sc)
            ));
        }
        checked += 1;
    }
    if checked == 0 {
        return Err("no grid point checked".into());
    }
    Ok(())
}
