//! Regenerates the paper's tables and figures.
//!
//! ```text
//! report [OUT_DIR] [--trace-out PATH] [--perfetto-out PATH]
//!        [--perfetto-chaos SEED] [--at SEQ] [--at-seed SEED] [SECTION...]
//!
//! SECTION: a section id from `ignem_bench::SECTIONS`, or all (default)
//! OUT_DIR: where CSVs go (default: ./results). A first argument in the
//!          family of a section id (`fig10`, `table4`, `ablation-x`) is
//!          taken for a mistyped section, not for OUT_DIR; write
//!          `./fig10` for a directory of that name.
//! --trace-out PATH: where the telemetry section writes the run's raw
//!          event stream as JSONL
//! --perfetto-out PATH: where the telemetry section writes span trees and
//!          metric tracks as Chrome trace-event JSON (open in
//!          https://ui.perfetto.dev)
//! --perfetto-chaos SEED: export the Perfetto trace from this chaos seed
//!          instead of the SWIM run
//! --at SEQ: time-travel debugger — run the chaos experiment until the
//!          telemetry record with this sequence number is emitted, then
//!          print the record and a full dump of the frozen world state
//!          (skips all sections)
//! --at-seed SEED: which chaos seed `--at` replays (default 304, the
//!          repo's pinned reference-leak seed)
//! ```
//!
//! An unknown flag, a flag without its value, a malformed number or an
//! unknown section exits 2 before anything is written.

use ignem_bench::{Render, Report, SECTIONS};
use ignem_cluster::chaos::{state_at, ChaosConfig};

/// Every flag `report` takes, with the value it needs.
const FLAGS: [(&str, &str); 5] = [
    ("--trace-out", "a path"),
    ("--perfetto-out", "a path"),
    ("--perfetto-chaos", "an integer seed"),
    ("--at", "an integer telemetry sequence number"),
    ("--at-seed", "an integer seed"),
];

fn fail(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// Splits the command line into the value of each flag of [`FLAGS`], in
/// its order, and the positional arguments. Exits 2 on any other `--`
/// argument and on a flag without its value.
fn parse(mut args: impl Iterator<Item = String>) -> ([Option<String>; 5], Vec<String>) {
    let mut values: [Option<String>; 5] = Default::default();
    let mut positional = Vec::new();
    while let Some(arg) = args.next() {
        if !arg.starts_with("--") {
            positional.push(arg);
            continue;
        }
        let Some(i) = FLAGS.iter().position(|(flag, _)| *flag == arg) else {
            let flags: Vec<&str> = FLAGS.iter().map(|(flag, _)| *flag).collect();
            fail(&format!("unknown flag {arg} (flags: {})", flags.join(" ")));
        };
        let value = args
            .next()
            .unwrap_or_else(|| fail(&format!("{arg} requires {}", FLAGS[i].1)));
        values[i] = Some(value);
    }
    (values, positional)
}

/// Parses the value of an integer flag, exiting 2 if it is not one.
fn integer(flag: &str, value: Option<String>) -> Option<u64> {
    value.map(|v| {
        v.parse()
            .unwrap_or_else(|_| fail(&format!("{flag} requires an integer, got {v}")))
    })
}

/// The family of a section id: the part before the first `-`, without
/// trailing digits (`fig` for `fig10`, `ablation` for `ablation-replicas`).
fn stem(name: &str) -> &str {
    let head = name.split_once('-').map_or(name, |(head, _)| head);
    head.trim_end_matches(|c: char| c.is_ascii_digit())
}

/// Whether an argument is meant as a section rather than as OUT_DIR:
/// `all`, or a name in the family of some section id, so that a
/// mistyped section is rejected instead of becoming the output directory.
fn names_section(arg: &str) -> bool {
    arg == "all" || SECTIONS.iter().any(|&(id, _)| stem(id) == stem(arg))
}

/// The `SECTIONS` entry whose id is `id`.
fn section(id: &str) -> Option<(&'static str, Render)> {
    SECTIONS.iter().find(|&&(s, _)| s == id).copied()
}

fn main() {
    let ([trace_out, perfetto_out, perfetto_chaos, at, at_seed], args) =
        parse(std::env::args().skip(1));
    let perfetto_chaos = integer("--perfetto-chaos", perfetto_chaos);
    let at = integer("--at", at);
    let at_seed = integer("--at-seed", at_seed).unwrap_or(304);

    // The first positional argument is OUT_DIR unless it is meant as a
    // section.
    let (out, wanted) = match args.split_first() {
        Some((first, rest)) if !names_section(first) => (first.clone(), rest),
        _ => ("results".to_string(), &args[..]),
    };
    let renders: Vec<(&str, Render)> = if wanted.is_empty() || wanted.iter().any(|w| w == "all") {
        SECTIONS.to_vec()
    } else {
        wanted
            .iter()
            .map(|w| {
                section(w).unwrap_or_else(|| {
                    let ids: Vec<&str> = SECTIONS.iter().map(|&(id, _)| id).collect();
                    fail(&format!(
                        "unknown section: {w} (sections: {})",
                        ids.join(" ")
                    ))
                })
            })
            .collect()
    };

    if let Some(seq) = at {
        let cfg = ChaosConfig {
            seed: at_seed,
            lease: None,
            ..ChaosConfig::default()
        };
        match state_at(&cfg, seq) {
            Some((record, state)) => {
                println!(
                    "seed {at_seed}, stopped after event seq {seq}: {}",
                    record.to_json()
                );
                println!("{state}");
                return;
            }
            None => {
                eprintln!("seed {at_seed}'s run ended before emitting event seq {seq}");
                std::process::exit(1);
            }
        }
    }

    let mut report = Report::new(&out);
    if let Some(path) = &trace_out {
        report.set_trace_out(path);
    }
    if let Some(path) = &perfetto_out {
        report.set_perfetto_out(path);
    }
    if let Some(seed) = perfetto_chaos {
        report.set_perfetto_chaos(seed);
    }
    for (id, render) in renders {
        let text = render(&mut report);
        println!("==================== {id} ====================");
        println!("{text}\n");
    }
    println!("CSV series written to {out}/");
}
