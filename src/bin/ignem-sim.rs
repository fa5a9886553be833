//! `ignem-sim` — run simulated Ignem experiments from the command line.
//!
//! ```text
//! ignem-sim swim      [--jobs N] [--mode M] [--seed S] [--policy sjf|fifo]
//! ignem-sim sort      [--gb N]   [--mode M]
//! ignem-sim wordcount [--gb N]   [--mode M] [--extra-lead SECS] [--contended]
//! ignem-sim hive      [--mode M]
//! ignem-sim replay    [--nodes N] [--days D] [--mode M] [--seed S]
//!
//! M: hdfs | ignem | ram            (default: ignem)
//! ```
//!
//! `replay` streams `D` simulated days of Google-trace arrivals (paper
//! §II) through an `N`-node cluster running the heartbeat sweep, prints
//! the jobs completed and events processed, and exits 1 if an admitted job
//! never completed. A malformed number or a flag the command does not take
//! exits 2 with a message.

use ignem_repro::cluster::config::{ClusterConfig, FsMode};
use ignem_repro::cluster::experiment::{
    replay_jobs, run_hive, run_replay, run_sort, run_swim, run_wordcount,
};
use ignem_repro::cluster::metrics::RunMetrics;
use ignem_repro::core::policy::Policy;
use ignem_repro::simcore::rng::SimRng;
use ignem_repro::simcore::time::SimDuration;
use ignem_repro::simcore::units::GB;
use ignem_repro::storage::device::DeviceProfile;
use ignem_repro::workloads::swim::{SwimConfig, SwimTrace};
use ignem_repro::workloads::tpcds::fig9_queries;

/// Flags every command accepts; `true` marks a flag that takes a value.
const COMMON_FLAGS: &[(&str, bool)] = &[
    ("mode", true),
    ("seed", true),
    ("contended", false),
    ("help", false),
];

/// The command-specific flags, or `None` for an unknown command.
fn command_flags(cmd: &str) -> Option<&'static [(&'static str, bool)]> {
    Some(match cmd {
        "swim" => &[("jobs", true), ("policy", true)],
        "sort" => &[("gb", true)],
        "wordcount" => &[("gb", true), ("extra-lead", true)],
        "hive" => &[],
        "replay" => &[("nodes", true), ("days", true)],
        _ => return None,
    })
}

struct Args {
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    /// Parses `raw` against the flags `cmd` accepts, exiting with a
    /// message on an unknown flag, a missing value or a stray argument.
    fn parse(cmd: &str, known: &[(&str, bool)], raw: &[String]) -> Args {
        let mut flags = Vec::new();
        let mut raw = raw.iter();
        while let Some(a) = raw.next() {
            let Some(name) = a.strip_prefix("--") else {
                usage(&format!("{cmd}: unexpected argument `{a}`"));
            };
            let Some(&(_, takes_value)) = COMMON_FLAGS
                .iter()
                .chain(known)
                .find(|(flag, _)| *flag == name)
            else {
                usage(&format!("{cmd}: unknown flag --{name}"));
            };
            let value = if takes_value {
                let v = raw
                    .next()
                    .unwrap_or_else(|| usage(&format!("--{name} needs a value")));
                Some(v.clone())
            } else {
                None
            };
            flags.push((name.to_string(), value));
        }
        Args { flags }
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        match self.get(name) {
            None => default,
            Some(v) => v
                .parse()
                .unwrap_or_else(|_| usage(&format!("--{name} needs a number, got `{v}`"))),
        }
    }

    fn mode(&self) -> FsMode {
        match self.get("mode").unwrap_or("ignem") {
            "hdfs" => FsMode::Hdfs,
            "ram" | "inputs-in-ram" => FsMode::HdfsInputsInRam,
            "ignem" => FsMode::Ignem,
            other => usage(&format!("unknown mode: {other} (hdfs|ignem|ram)")),
        }
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

fn print_summary(label: &str, m: &RunMetrics) {
    println!("== {label} ==");
    println!("  jobs finished        {}", m.plans.len());
    println!("  mean job duration    {:.2}s", m.mean_plan_duration());
    println!("  mean map task        {:.2}s", m.mean_map_task_secs());
    println!("  mean block read      {:.3}s", m.mean_block_read_secs());
    println!(
        "  memory-read fraction {:.0}%",
        m.memory_read_fraction() * 100.0
    );
    println!("  makespan             {:.0}s", m.makespan.as_secs_f64());
    if m.slave_stats.migrated > 0 {
        println!(
            "  migration            {} blocks ({:.1} GB), {} deduped, {} discarded, {} evicted",
            m.slave_stats.migrated,
            m.slave_stats.migrated_bytes as f64 / 1e9,
            m.slave_stats.deduped,
            m.slave_stats.discarded,
            m.slave_stats.evicted
        );
    }
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = raw.first().cloned() else {
        usage("usage: ignem-sim <swim|sort|wordcount|hive|replay> [flags]   (see --help)");
    };
    let Some(known) = command_flags(&cmd) else {
        usage(&format!(
            "unknown command: {cmd} (swim|sort|wordcount|hive|replay)"
        ));
    };
    let args = Args::parse(&cmd, known, &raw[1..]);
    if args.has("help") {
        println!("see the module docs at the top of src/bin/ignem-sim.rs");
        return;
    }
    let mut cfg = ClusterConfig {
        seed: args.num("seed", 20180615u64),
        ..ClusterConfig::default()
    };
    if args.has("contended") {
        cfg.disk = DeviceProfile::hdd_contended();
    }
    let mode = args.mode();

    match cmd.as_str() {
        "swim" => {
            let jobs: usize = args.num("jobs", 200);
            let swim_cfg = SwimConfig {
                jobs,
                total_input: (170 * GB) * jobs as u64 / 200,
                ..SwimConfig::default()
            };
            let trace = SwimTrace::generate(&swim_cfg, &mut SimRng::new(cfg.seed));
            let policy = match args.get("policy") {
                Some("fifo") => Some(Policy::Fifo),
                Some("sjf") | None => None,
                Some(other) => usage(&format!("unknown policy: {other} (sjf|fifo)")),
            };
            let m = run_swim(&cfg, mode, &trace, policy);
            print_summary(&format!("SWIM {jobs} jobs under {mode}"), &m);
        }
        "sort" => {
            let gb: u64 = args.num("gb", 40);
            let m = run_sort(&cfg, mode, gb * GB);
            print_summary(&format!("sort {gb}GB under {mode}"), &m);
        }
        "wordcount" => {
            let gb: u64 = args.num("gb", 4);
            let lead: u64 = args.num("extra-lead", 0);
            let m = run_wordcount(&cfg, mode, gb, SimDuration::from_secs(lead));
            print_summary(
                &format!("wordcount {gb}GB (+{lead}s lead) under {mode}"),
                &m,
            );
        }
        "hive" => {
            let queries = fig9_queries();
            let m = run_hive(&cfg, mode, &queries);
            print_summary(
                &format!("{} TPC-DS queries under {mode}", queries.len()),
                &m,
            );
            for p in &m.plans {
                println!(
                    "    {:<5} input {:>5.1}GB  {:>6.1}s",
                    p.name,
                    p.input_bytes as f64 / 1e9,
                    p.duration
                );
            }
        }
        "replay" => {
            cfg.nodes = args.num("nodes", 1024);
            let days: u64 = args.num("days", 1);
            if cfg.nodes == 0 || days == 0 {
                usage("--nodes and --days must be at least 1");
            }
            let m = run_replay(&cfg, mode, days);
            let admitted = replay_jobs(days);
            println!(
                "== replay {days} day(s) on {} nodes under {mode} ==",
                cfg.nodes
            );
            println!("  jobs completed       {} of {admitted}", m.jobs.len());
            println!("  events processed     {}", m.events_processed);
            if (m.jobs.len() as u64) < admitted {
                eprintln!(
                    "replay: {} admitted job(s) never completed",
                    admitted - m.jobs.len() as u64
                );
                std::process::exit(1);
            }
        }
        _ => unreachable!("command_flags accepted {cmd}"),
    }
}
