//! Host-cost benchmark of the NVMe-oPF simulator.
//!
//! End-to-end metrics come from untraced `workload::run` calls; per-layer
//! host time comes from [`assembly`], the benchmark's own span-wrapped
//! build of the same stack, checked to reproduce `workload::run` exactly.

pub mod assembly;
pub mod calibrate;
pub mod check;
pub mod exec;
pub mod layers;
pub mod spans;
pub mod workloads;

/// End-to-end metrics, with units, in report order (`--trace 0`).
pub const END_TO_END: [(&str, &str); 9] = [
    ("sim_io_per_host_s", "io/s"),
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("io_done_frac", "ratio"),
    ("sim_ls_p50_us", "sim_us"),
    ("sim_ls_p99_us", "sim_us"),
    ("sim_tc_kiops", "sim_kIOPS"),
    ("sim_tc_p99_us", "sim_us"),
];
