//! `ignem-sim` — stream a simulated datacenter from the command line.
//!
//! ```text
//! ignem-sim replay [--nodes N] [--days D] [--mode M] [--seed S]
//!
//! M: hdfs | ignem | ram            (default: ignem)
//! ```
//!
//! `replay` streams `D` simulated days of Google-trace arrivals (paper
//! §II) through an `N`-node cluster running the heartbeat sweep, prints
//! the jobs completed and events processed, and exits 1 if an admitted job
//! never completed. A malformed number or an unknown flag exits 2 with a
//! message. The paper's tables and figures are sections of the `report`
//! binary (`ignem-bench`).

use ignem_repro::cluster::config::{ClusterConfig, FsMode};
use ignem_repro::cluster::experiment::{replay_jobs, run_replay};

const USAGE: &str =
    "usage: ignem-sim replay [--nodes N] [--days D] [--mode hdfs|ignem|ram] [--seed S]";

/// The flags `replay` takes; `true` marks a flag that takes a value.
const FLAGS: &[(&str, bool)] = &[
    ("nodes", true),
    ("days", true),
    ("mode", true),
    ("seed", true),
    ("help", false),
];

struct Args {
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    /// Parses `raw` against [`FLAGS`], exiting with a message on an
    /// unknown flag, a missing value or a stray argument.
    fn parse(raw: &[String]) -> Args {
        let mut flags = Vec::new();
        let mut raw = raw.iter();
        while let Some(a) = raw.next() {
            let Some(name) = a.strip_prefix("--") else {
                usage(&format!("replay: unexpected argument `{a}`"));
            };
            let Some(&(_, takes_value)) = FLAGS.iter().find(|(flag, _)| *flag == name) else {
                usage(&format!("replay: unknown flag --{name}"));
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

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match raw.first().map(String::as_str) {
        Some("replay") => {}
        Some("--help") => {
            println!("{USAGE}");
            return;
        }
        Some(cmd) => usage(&format!(
            "unknown command: {cmd} (the only command is replay; the paper's \
             experiments are `report` sections)"
        )),
        None => usage(USAGE),
    }
    let args = Args::parse(&raw[1..]);
    if args.has("help") {
        println!("{USAGE}");
        return;
    }
    let mut cfg = ClusterConfig {
        seed: args.num("seed", 20180615u64),
        ..ClusterConfig::default()
    };
    let mode = args.mode();
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
