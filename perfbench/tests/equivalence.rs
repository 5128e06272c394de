//! The per-layer numbers belong to the same program as the end-to-end
//! ones: for every workload and two seeds, the benchmark's traced
//! assembly of the stack reproduces `workload::run` exactly.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`
//! (a debug build simulates the workloads many times slower).

use perfbench::assembly;
use perfbench::check;
use perfbench::layers::PER_LAYER;
use perfbench::spans::{Layer, Spans};
use perfbench::workloads::Workload;
use perfbench::END_TO_END;
use std::rc::Rc;

fn assert_assembly_matches_run(w: Workload, seed: u64) {
    for (i, sc) in w.scenarios(seed).iter().enumerate() {
        let want = workload::run(sc);
        let want_digest = check::digest(want.events, &want.metrics);

        let spans = Rc::new(Spans::new());
        let traced = assembly::build(sc, spans.clone())
            .expect("the assembly covers every benchmark scenario")
            .run();
        assert_eq!(
            (traced.events, check::digest(traced.events, &traced.metrics)),
            (want.events, want_digest),
            "{} seed {seed} scenario {i}: traced run diverges",
            w.name()
        );
        // Every event ran inside a kernel span.
        assert_eq!(spans.totals(Layer::Kernel).calls, want.events + 1);
    }
}

#[test]
fn closed_grid_assembly_reproduces_run() {
    for seed in [1, 2] {
        assert_assembly_matches_run(Workload::ClosedGrid, seed);
    }
}

#[test]
fn open_lossy_assembly_reproduces_run() {
    for seed in [1, 2] {
        assert_assembly_matches_run(Workload::OpenLossy, seed);
    }
}

#[test]
fn cluster_migrate_assembly_reproduces_run() {
    for seed in [1, 2] {
        assert_assembly_matches_run(Workload::ClusterMigrate, seed);
    }
}

#[test]
fn checks_reject_a_tampered_snapshot() {
    let sc = &Workload::ClusterMigrate.scenarios(3)[0];
    let r = workload::run(sc);
    check::scenario_facts(sc, r.events, &r.metrics).expect("an honest run passes");

    // One completion more than the tenant submitted breaks exactly-once.
    let mut m = r.metrics.clone();
    let completed = m.get("ini5.completed").expect("tenant 5 exists");
    m.set("ini5.completed", completed + 1.0);
    assert!(check::scenario_facts(sc, r.events, &m).is_err());

    // Any change to the snapshot changes the digest.
    let mut m = r.metrics.clone();
    m.set(
        "cluster.mgr_ticks",
        m.get("cluster.mgr_ticks").unwrap_or(0.0) + 1.0,
    );
    assert_ne!(
        check::digest(r.events, &m),
        check::digest(r.events, &r.metrics)
    );
}

#[test]
fn benchmark_json_lists_every_printed_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for w in Workload::ALL {
        let entry = format!("\"name\": \"{}\"", w.name());
        assert!(
            text.contains(&entry),
            "BENCHMARK.json lacks workload {entry}"
        );
    }
}
