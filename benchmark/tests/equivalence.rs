//! Every workload at reduced size: the traced run does exactly the
//! simulated work of the untraced run, both match the simulator's own
//! entry points, and the binaries print every metric `BENCHMARK.json`
//! names.

use ignem_bench::REPORT_SEED;
use ignem_benchmark::report::{end_to_end, per_layer, traced_failures, Metric};
use ignem_benchmark::trace::Tracer;
use ignem_benchmark::workloads::{
    arrivals, chaos_config, replay_config, run, Outcome, Plan, Workload,
};
use ignem_cluster::chaos::{fingerprint, run_chaos};
use ignem_cluster::experiment::{run_swim, run_swim_observed};
use ignem_cluster::{ClusterConfig, FsMode, World};
use ignem_simcore::rng::SimRng;
use ignem_simcore::time::SimDuration;
use ignem_workloads::stream::replay_files;
use ignem_workloads::swim::{SwimConfig, SwimTrace};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

fn reduced(workload: Workload) -> Plan {
    match workload {
        Workload::Paper8 => Plan::Paper8 { rounds: 1 },
        Workload::Observed8 => Plan::Observed8 { runs: 1 },
        Workload::ChaosSweep => Plan::ChaosSweep { seeds: 64 },
        Workload::Datacenter => Plan::Datacenter {
            nodes: 256,
            hours: 2,
        },
    }
}

/// Fingerprints of the same worlds run through the simulator's own entry
/// points, which the benchmark rebuilds to attach a profiler.
fn reference_fingerprints(plan: &Plan, seed: u64) -> Vec<u64> {
    let cfg = |s: u64| ClusterConfig {
        seed: s,
        ..ClusterConfig::default()
    };
    let trace = SwimTrace::generate(&SwimConfig::default(), &mut SimRng::new(REPORT_SEED));
    match *plan {
        Plan::Paper8 { rounds } => (0..rounds)
            .flat_map(|r| {
                [FsMode::Hdfs, FsMode::Ignem, FsMode::HdfsInputsInRam]
                    .map(|mode| fingerprint(&run_swim(&cfg(seed + r), mode, &trace, None)))
            })
            .collect(),
        Plan::Observed8 { runs } => (0..runs)
            .map(|u| {
                let window = SimDuration::from_secs(10);
                let (metrics, _, _) =
                    run_swim_observed(&cfg(seed + u), FsMode::Ignem, &trace, 1 << 22, window);
                fingerprint(&metrics)
            })
            .collect(),
        Plan::ChaosSweep { seeds } => (seed..seed + seeds)
            .map(|s| run_chaos(&chaos_config(s)).fingerprint)
            .collect(),
        Plan::Datacenter { nodes, hours } => {
            let rcfg = replay_config(hours);
            let files = replay_files(&rcfg, rcfg.jobs.expect("bounded"));
            let cfg = ClusterConfig {
                nodes,
                heartbeat_sweep: true,
                ..ClusterConfig::default()
            };
            let world = World::new(cfg, FsMode::Ignem, &files, vec![], vec![])
                .with_arrivals(Box::new(arrivals(rcfg, seed)));
            vec![fingerprint(&world.run())]
        }
    }
}

/// The metric names one section of `BENCHMARK.json` lists, in order.
fn listed(section: &str) -> Vec<&'static str> {
    let start = BENCHMARK_JSON
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &BENCHMARK_JSON[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| &s[..s.find('"').expect("closing quote")])
        .collect()
}

fn names(metrics: &[Metric]) -> Vec<&str> {
    metrics.iter().map(|m| m.name.as_str()).collect()
}

fn check(workload: Workload) {
    let plan = reduced(workload);
    let seed = workload.default_seed();
    // Two passes, so the pass combination's determinism check runs too.
    let plain = run(&plan, seed, 2, &mut Tracer::new(false, None));
    let mut tracer = Tracer::new(true, None);
    let traced = run(&plan, seed, 1, &mut tracer);
    let name = workload.name();

    let digest = |o: &Outcome| {
        o.units
            .iter()
            .map(|u| (u.events, u.fingerprint))
            .collect::<Vec<_>>()
    };
    assert_eq!(digest(&plain), digest(&traced), "{name}");
    assert!(plain.events() > 0, "{name}");
    assert_eq!(plain.failed(), 0, "{name}");
    assert_eq!(traced_failures(&plain, &traced, &tracer), 0, "{name}");
    let finished: Vec<u64> = match plan {
        // Only a datacenter run's last window finishes its world.
        Plan::Datacenter { .. } => vec![plain.units.last().expect("a window").fingerprint],
        _ => plain.units.iter().map(|u| u.fingerprint).collect(),
    };
    assert_eq!(finished, reference_fingerprints(&plan, seed), "{name}");

    assert_eq!(
        names(&end_to_end(&plain, 1.0)),
        listed("end_to_end"),
        "{name}"
    );
    let layer = per_layer(&plain, &traced, &tracer);
    assert_eq!(names(&layer), listed("per_layer"), "{name}");
    assert!(
        layer.iter().all(|m| m.value.is_finite() && m.value >= 0.0),
        "{name}"
    );
}

#[test]
fn paper8_traced_matches_untraced() {
    check(Workload::Paper8);
}

#[test]
fn observed8_traced_matches_untraced() {
    check(Workload::Observed8);
}

#[test]
fn chaos_sweep_traced_matches_untraced() {
    check(Workload::ChaosSweep);
}

#[test]
fn datacenter_traced_matches_untraced() {
    check(Workload::Datacenter);
}

#[test]
fn benchmark_json_lists_every_workload() {
    let listed: Vec<&str> = listed("workloads");
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(listed, ours);
}

#[test]
fn default_seed_reproduces_table1() {
    let plain = run(
        &Plan::Paper8 { rounds: 1 },
        REPORT_SEED,
        1,
        &mut Tracer::new(false, None),
    );
    // EXPERIMENTS.md: Ignem 11.3% faster than HDFS against the paper's 12%.
    assert!(
        (plain.sim.table1_err_pts - 0.73).abs() < 0.01,
        "{}",
        plain.sim.table1_err_pts
    );
}
