//! Per-layer metrics of the traced run.
//!
//! Counts come from the snapshot `workload::run` returns (and repeat
//! exactly per seed); host times come from the benchmark's spans around
//! its calls into each layer; allocation figures from the counting
//! allocator, which only counts during traced executions.

use crate::check::WorkloadFacts;
use crate::spans::{AllocCounts, Layer, Spans};
use simkit::Metrics;
use workload::{RuntimeKind, Scenario};

/// Every per-layer metric, with its unit, in report order.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("simkit.events_per_io", "count"),
    ("simkit.host_ns_per_event", "ns"),
    ("simkit.self_ns_per_event", "ns"),
    ("simkit.pending_max", "count"),
    ("fabric.frames_per_io", "count"),
    ("fabric.bytes_per_io", "B"),
    ("fabric.uplink_backlog_us_max", "sim_us"),
    ("nvme.cmds_per_io", "count"),
    ("nvme.busy_fraction", "ratio"),
    ("nvme.max_inflight", "count"),
    ("nvmf.target_ns_per_pdu", "ns"),
    ("nvmf.initiator_ns_per_pdu", "ns"),
    ("nvmf.submit_ns", "ns"),
    ("nvmf.resps_per_io", "count"),
    ("opf.target_ns_per_pdu", "ns"),
    ("opf.initiator_ns_per_pdu", "ns"),
    ("opf.submit_ns", "ns"),
    ("opf.resps_per_io", "count"),
    ("opf.drains_per_io", "count"),
    ("opf.drain_latency_avg_us", "sim_us"),
    ("opf.max_tc_queue", "count"),
    ("opf.ls_bypassed_frac", "ratio"),
    ("workload.driver_ns_per_io", "ns"),
    ("workload.setup_ns", "ns"),
    ("workload.snapshot_ns", "ns"),
    ("workload.pending_max", "count"),
    ("workload.completion_ratio", "ratio"),
    ("workload.fairness_spread", "ratio"),
    ("faults.ns_per_pdu", "ns"),
    ("faults.retries_per_io", "count"),
    ("faults.redrains_per_io", "count"),
    ("faults.retry_exhausted", "count"),
    ("faults.dup_resps_suppressed", "count"),
    ("cluster.tick_ns", "ns"),
    ("cluster.ticks", "count"),
    ("cluster.weight_updates", "count"),
    ("cluster.max_imbalance", "count"),
    ("cluster.cmds_moved", "count"),
    ("cluster.migrations_done_frac", "ratio"),
    ("alloc.per_io", "count"),
    ("alloc.bytes_per_io", "B"),
    ("alloc.retained_mib", "MiB"),
    ("trace.overhead_frac", "ratio"),
    ("trace.self_sum_frac", "ratio"),
];

/// Component prefix of a snapshot key whose last segment is `field`.
fn prefix_of<'a>(name: &'a str, field: &str) -> Option<&'a str> {
    name.strip_suffix(field)?.strip_suffix('.')
}

fn numbered(prefix: &str, stem: &str) -> bool {
    prefix
        .strip_prefix(stem)
        .is_some_and(|n| !n.is_empty() && n.bytes().all(|b| b.is_ascii_digit()))
}

/// Which component a key prefix names.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Component {
    Target,
    Device,
    Endpoint,
    Initiator,
}

fn is(component: Component, prefix: &str) -> bool {
    match component {
        // `pair0.tgt` (single target) or `tgt3` (cluster).
        Component::Target => prefix.ends_with(".tgt") || numbered(prefix, "tgt"),
        Component::Device => prefix.ends_with(".dev") || numbered(prefix, "dev"),
        // `pair0.tgt_ep`, `pair0.ini_node_ep`, `ini3.ep`, `tgt1_ep`, ...
        Component::Endpoint => prefix.ends_with("ep"),
        Component::Initiator => numbered(prefix, "ini"),
    }
}

/// Values of `field` over every component of one kind.
fn values<'a>(m: &'a Metrics, c: Component, field: &'a str) -> impl Iterator<Item = f64> + 'a {
    m.iter()
        .filter(move |(n, _)| prefix_of(n, field).is_some_and(|p| is(c, p)))
        .map(|(_, v)| v)
}

fn sum(runs: &[&Metrics], c: Component, field: &str) -> f64 {
    runs.iter().flat_map(|m| values(m, c, field)).sum()
}

fn max(runs: &[&Metrics], c: Component, field: &str) -> f64 {
    runs.iter()
        .flat_map(|m| values(m, c, field))
        .fold(0.0, f64::max)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Host time of one traced execution of a workload.
pub struct TracedTimes<'a> {
    /// The execution's span recorder.
    pub spans: &'a Spans,
    /// Wall time of the traced execution (ns).
    pub wall_ns: u64,
    /// Wall time of the untraced execution it is compared with (ns).
    pub untraced_wall_ns: u64,
    /// Allocations during the traced execution.
    pub allocs: AllocCounts,
}

/// Host-time metrics of one traced execution (the part that varies
/// between executions), by name.
pub fn host_metrics(
    t: &TracedTimes,
    facts: &WorkloadFacts,
    scenarios: usize,
) -> Vec<(&'static str, f64)> {
    let s = t.spans;
    let ok = facts.ok() as f64;
    let per_call = |l: Layer| {
        let x = s.totals(l);
        ratio(x.total_ns as f64, x.calls as f64)
    };
    let self_per_call = |l: Layer| {
        let x = s.totals(l);
        ratio(x.self_ns as f64, x.calls as f64)
    };
    let kernel = s.totals(Layer::Kernel);
    let events = facts.events() as f64;
    vec![
        (
            "simkit.host_ns_per_event",
            ratio(kernel.total_ns as f64, events),
        ),
        (
            "simkit.self_ns_per_event",
            ratio(kernel.self_ns as f64, events),
        ),
        ("nvmf.target_ns_per_pdu", self_per_call(Layer::NvmfTarget)),
        (
            "nvmf.initiator_ns_per_pdu",
            self_per_call(Layer::NvmfInitiator),
        ),
        ("nvmf.submit_ns", self_per_call(Layer::NvmfSubmit)),
        ("opf.target_ns_per_pdu", self_per_call(Layer::OpfTarget)),
        (
            "opf.initiator_ns_per_pdu",
            self_per_call(Layer::OpfInitiator),
        ),
        ("opf.submit_ns", self_per_call(Layer::OpfSubmit)),
        (
            "workload.driver_ns_per_io",
            ratio(s.totals(Layer::Driver).self_ns as f64, ok),
        ),
        (
            "workload.setup_ns",
            ratio(s.totals(Layer::Setup).total_ns as f64, scenarios as f64),
        ),
        ("workload.snapshot_ns", per_call(Layer::Snapshot)),
        ("faults.ns_per_pdu", self_per_call(Layer::Faults)),
        ("cluster.tick_ns", self_per_call(Layer::Cluster)),
        ("alloc.per_io", ratio(t.allocs.allocs as f64, ok)),
        ("alloc.bytes_per_io", ratio(t.allocs.bytes as f64, ok)),
        (
            "alloc.retained_mib",
            t.allocs.retained() as f64 / (1 << 20) as f64,
        ),
        (
            "trace.overhead_frac",
            ratio(t.wall_ns as f64, t.untraced_wall_ns as f64) - 1.0,
        ),
        (
            "trace.self_sum_frac",
            ratio(s.self_sum_ns() as f64, t.wall_ns as f64),
        ),
    ]
}

/// Count metrics of a workload, read from its snapshots plus the
/// simulated-time maxima the spans sampled.
pub fn count_metrics(
    scenarios: &[Scenario],
    runs: &[&Metrics],
    facts: &WorkloadFacts,
    spans: &Spans,
) -> Vec<(&'static str, f64)> {
    let ok = facts.ok() as f64;
    let of = |rt: RuntimeKind| -> (Vec<&Metrics>, f64) {
        let rows: Vec<usize> = (0..runs.len())
            .filter(|&i| scenarios[i].runtime == rt)
            .collect();
        (
            rows.iter().map(|&i| runs[i]).collect(),
            rows.iter().map(|&i| facts.scenarios[i].ok as f64).sum(),
        )
    };
    let (spdk, spdk_ok) = of(RuntimeKind::Spdk);
    let (opf, opf_ok) = of(RuntimeKind::Opf);
    // Folded from +0.0: an empty `sum` of floats is -0.0.
    let key = |name: &str| -> f64 {
        runs.iter()
            .filter_map(|m| m.get(name))
            .fold(0.0, |a, b| a + b)
    };
    let either = |a: &str, b: &str| key(a) + key(b);
    let dev_cmds = ["reads", "writes", "flushes"]
        .iter()
        .map(|f| sum(runs, Component::Device, f))
        .sum::<f64>();
    let busy: Vec<f64> = runs
        .iter()
        .flat_map(|m| values(m, Component::Device, "flash.busy_fraction"))
        .collect();
    let drain_count = sum(&opf, Component::Initiator, "drain_latency_count");
    let drain_weighted: f64 = opf
        .iter()
        .flat_map(|m| {
            m.iter().filter_map(move |(n, v)| {
                let p = prefix_of(n, "drain_latency_avg_us")?;
                let c = m.get(&format!("{p}.drain_latency_count"))?;
                is(Component::Initiator, p).then_some(v * c)
            })
        })
        .sum();
    let migrations: usize = scenarios.iter().map(|s| s.migrations.len()).sum();
    let completion = runs
        .iter()
        .filter_map(|m| m.get("traffic.completion_ratio"))
        .collect::<Vec<_>>();
    let spread = runs
        .iter()
        .filter_map(|m| m.get("traffic.fairness_spread"))
        .fold(0.0, f64::max);
    vec![
        ("simkit.events_per_io", ratio(facts.events() as f64, ok)),
        ("simkit.pending_max", spans.pending_max.get() as f64),
        (
            "fabric.frames_per_io",
            ratio(sum(runs, Component::Endpoint, "frames_tx"), ok),
        ),
        (
            "fabric.bytes_per_io",
            ratio(sum(runs, Component::Endpoint, "bytes_tx"), ok),
        ),
        (
            "fabric.uplink_backlog_us_max",
            spans.uplink_backlog_max_ns.get() as f64 / 1e3,
        ),
        ("nvme.cmds_per_io", ratio(dev_cmds, ok)),
        (
            "nvme.busy_fraction",
            ratio(busy.iter().sum(), busy.len() as f64),
        ),
        (
            "nvme.max_inflight",
            max(runs, Component::Device, "max_inflight"),
        ),
        (
            "nvmf.resps_per_io",
            ratio(sum(&spdk, Component::Target, "pdu.resps_tx"), spdk_ok),
        ),
        (
            "opf.resps_per_io",
            ratio(sum(&opf, Component::Target, "pdu.resps_tx"), opf_ok),
        ),
        (
            "opf.drains_per_io",
            ratio(sum(&opf, Component::Target, "pdu.drains_rx"), opf_ok),
        ),
        (
            "opf.drain_latency_avg_us",
            ratio(drain_weighted, drain_count),
        ),
        (
            "opf.max_tc_queue",
            max(&opf, Component::Target, "max_tc_queue"),
        ),
        (
            "opf.ls_bypassed_frac",
            ratio(
                sum(&opf, Component::Target, "ls_bypassed"),
                sum(&opf, Component::Target, "pdu.ls_rx"),
            ),
        ),
        ("workload.pending_max", spans.app_queue_max.get() as f64),
        (
            "workload.completion_ratio",
            if completion.is_empty() {
                ratio(ok, facts.offered() as f64)
            } else {
                completion.iter().sum::<f64>() / completion.len() as f64
            },
        ),
        ("workload.fairness_spread", spread),
        (
            "faults.retries_per_io",
            ratio(either("faults.retries", "recovery.retries"), ok),
        ),
        (
            "faults.redrains_per_io",
            ratio(either("faults.redrains", "recovery.redrains"), ok),
        ),
        (
            "faults.retry_exhausted",
            either("faults.retry_exhausted", "recovery.retry_exhausted"),
        ),
        (
            "faults.dup_resps_suppressed",
            either(
                "faults.dup_resps_suppressed",
                "recovery.dup_resps_suppressed",
            ),
        ),
        ("cluster.ticks", key("cluster.mgr_ticks")),
        ("cluster.weight_updates", key("cluster.weight_updates")),
        ("cluster.max_imbalance", key("cluster.max_imbalance")),
        ("cluster.cmds_moved", key("cluster.cmds_moved")),
        (
            "cluster.migrations_done_frac",
            ratio(key("cluster.migrations_done"), migrations as f64),
        ),
    ]
}
