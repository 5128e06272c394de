//! The benchmark's three workloads, generated from the benchmark seed.
//!
//! Every workload is a list of [`Scenario`]s built from the public
//! `Scenario::ratio` / `Scenario::two_tenant` constructors plus struct
//! update, so the benchmark never names a knob that a planned
//! simplification may delete. The program only ever receives these
//! scenarios; the seed never reaches it any other way.

use cluster::{MigrationSpec, PlacementSpec};
use fabric::Gbps;
use simkit::Pcg32;
use workload::{ArrivalModel, ChurnStorm, Mix, Phase, RuntimeKind, Scenario, TrafficSpec};

/// 70% reads, 30% writes.
const MIX_70_30: Mix = Mix { read_fraction: 0.7 };

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's closed loop, Figure 7 layout: {SPDK, NVMe-oPF} ×
    /// {25, 100 Gbps} × {read, 70/30} × {1:1, 1:4}, run serially.
    ClosedGrid,
    /// Open loop in virtual time on a lossy fabric with phased
    /// read / write-burst / mixed arrivals and a churn storm.
    OpenLossy,
    /// Closed loop on four targets with two live migrations.
    ClusterMigrate,
}

impl Workload {
    /// Every workload, in the order the benchmark documents them.
    pub const ALL: [Workload; 3] = [
        Workload::ClosedGrid,
        Workload::OpenLossy,
        Workload::ClusterMigrate,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ClosedGrid => "closed_grid",
            Workload::OpenLossy => "open_lossy",
            Workload::ClusterMigrate => "cluster_migrate",
        }
    }

    /// Parse a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The scenarios this workload runs for benchmark seed `seed`.
    pub fn scenarios(self, seed: u64) -> Vec<Scenario> {
        match self {
            Workload::ClosedGrid => closed_grid(seed),
            Workload::OpenLossy => (0..OPEN_LOSSY_RUNS)
                .map(|i| open_lossy(sub_seed(seed, 100 + i)))
                .collect(),
            Workload::ClusterMigrate => (0..CLUSTER_RUNS)
                .map(|i| cluster_migrate(sub_seed(seed, 200 + i)))
                .collect(),
        }
    }
}

/// Independent `open_lossy` scenarios per execution: one lossy open-loop
/// run is too short for its failure share and LS tail to settle, so the
/// workload pools enough that they barely move from seed to seed.
const OPEN_LOSSY_RUNS: u64 = 20;

/// Independent `cluster_migrate` scenarios per execution.
const CLUSTER_RUNS: u64 = 4;

/// Scenario seed `index` of benchmark seed `seed` (SplitMix64 finaliser,
/// so neighbouring benchmark seeds give unrelated scenario seeds).
fn sub_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The grid point of a closed-grid scenario, without its runtime: the
/// key the paper-direction check pairs SPDK and NVMe-oPF rows on.
pub fn grid_point(sc: &Scenario) -> (Gbps, u64, usize) {
    (
        sc.speed.into(),
        (sc.mix.read_fraction * 100.0).round() as u64,
        sc.tc_per_node,
    )
}

fn closed_grid(seed: u64) -> Vec<Scenario> {
    let mut out = Vec::with_capacity(16);
    let mut point = 0u64;
    for speed in [Gbps::G25, Gbps::G100] {
        for mix in [Mix::READ, MIX_70_30] {
            for tc in [1, 4] {
                // Both runtimes of one grid point share a scenario seed,
                // so the direction check compares like with like.
                let point_seed = sub_seed(seed, point);
                point += 1;
                for runtime in [RuntimeKind::Spdk, RuntimeKind::Opf] {
                    out.push(Scenario {
                        // Long enough for every NVMe-oPF row to carry
                        // 1,000 LS samples.
                        warmup_s: 0.04,
                        measure_s: 0.34,
                        seed: point_seed,
                        ..Scenario::ratio(runtime, speed, mix, 1, tc)
                    });
                }
            }
        }
    }
    out
}

fn open_lossy(scenario_seed: u64) -> Scenario {
    let base = Scenario::two_tenant(RuntimeKind::Opf, Gbps::G100, MIX_70_30);
    let traffic = TrafficSpec {
        model: ArrivalModel::Phased {
            phases: vec![
                Phase {
                    dur_ms: 60.0,
                    rate_kiops: 160.0,
                    read_fraction: 1.0,
                    blocks: None,
                },
                Phase {
                    dur_ms: 20.0,
                    rate_kiops: 60.0,
                    read_fraction: 0.0,
                    blocks: Some(4),
                },
                Phase {
                    dur_ms: 60.0,
                    rate_kiops: 120.0,
                    read_fraction: 0.7,
                    blocks: None,
                },
            ],
        },
        rate_kiops: 0.0,
        read_fraction: None,
        size_mix: vec![(1, 0.6), (4, 0.3), (16, 0.1)],
        zipf: Some(1.0),
        churn: vec![ChurnStorm {
            at_s: 0.15,
            for_s: 0.004,
            tenants: 8,
        }],
    };
    Scenario {
        ls_per_node: 2,
        tc_per_node: 24,
        warmup_s: 0.02,
        measure_s: 0.28,
        seed: scenario_seed,
        faults: Some(faults::FaultProfile {
            drop_p: 0.01,
            dup_p: 0.001,
            delay_p: 0.01,
            ..faults::FaultProfile::default()
        }),
        traffic: Some(traffic),
        ..base
    }
}

/// Targets in `cluster_migrate`.
const CLUSTER_TARGETS: usize = 4;

fn cluster_migrate(scenario_seed: u64) -> Scenario {
    const LS: usize = 4;
    const TC: usize = 44;
    // Two distinct TC tenants move, each to a target other than its
    // home. Least-loaded placement over equal tenant counts homes tenant
    // `i` on target `i % CLUSTER_TARGETS`.
    let mut rng = Pcg32::new(scenario_seed ^ 0x6D16_0A7E);
    let first = LS + rng.gen_range(0, TC as u64) as usize;
    let second = LS + (first - LS + 1 + rng.gen_range(0, TC as u64 - 1) as usize) % TC;
    let migrations = [(first, 0.04), (second, 0.11)]
        .into_iter()
        .map(|(tenant, at_s)| MigrationSpec {
            tenant,
            at_s,
            to_target: (tenant % CLUSTER_TARGETS
                + 1
                + rng.gen_range(0, CLUSTER_TARGETS as u64 - 1) as usize)
                % CLUSTER_TARGETS,
        })
        .collect();
    Scenario {
        targets: CLUSTER_TARGETS,
        placement: PlacementSpec::LeastLoaded,
        migrations,
        warmup_s: 0.05,
        measure_s: 0.2,
        seed: scenario_seed,
        ..Scenario::ratio(RuntimeKind::Opf, Gbps::G100, Mix::READ, LS, TC)
    }
}
