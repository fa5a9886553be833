//! Regenerates the paper's tables and figures.
//!
//! ```text
//! report [OUT_DIR] [--trace-out PATH] [--perfetto-out PATH]
//!        [--perfetto-chaos SEED] [--at SEQ] [--at-seed SEED] [SECTION...]
//!
//! SECTION: fig1 fig2 fig3 fig4 table1 fig5 table2 fig6 fig7 table3 fig8
//!          fig9 ablation-priority ablation-concurrency ablation-replicas
//!          ablation-eviction ablation-heartbeat ablation-jitter
//!          extension-benefit extension-iterative extension-caching
//!          telemetry   (default: all)
//! OUT_DIR: where CSVs go (default: ./results)
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

use ignem_bench::{Report, Section};
use ignem_cluster::chaos::{state_at, ChaosConfig};

/// Whether an argument names a report section (as opposed to OUT_DIR).
fn is_section(name: &str) -> bool {
    name.starts_with("fig")
        || name.starts_with("table")
        || name.starts_with("ablation")
        || name.starts_with("extension")
        || name == "telemetry"
        || name == "all"
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // Strip `--trace-out PATH` before the OUT_DIR heuristic looks at the
    // first positional argument.
    let mut trace_out: Option<String> = None;
    if let Some(i) = args.iter().position(|a| a == "--trace-out") {
        if i + 1 >= args.len() {
            eprintln!("--trace-out requires a path");
            std::process::exit(2);
        }
        trace_out = Some(args.remove(i + 1));
        args.remove(i);
    }
    let mut perfetto_out: Option<String> = None;
    if let Some(i) = args.iter().position(|a| a == "--perfetto-out") {
        if i + 1 >= args.len() {
            eprintln!("--perfetto-out requires a path");
            std::process::exit(2);
        }
        perfetto_out = Some(args.remove(i + 1));
        args.remove(i);
    }
    let mut perfetto_chaos: Option<u64> = None;
    if let Some(i) = args.iter().position(|a| a == "--perfetto-chaos") {
        if i + 1 >= args.len() {
            eprintln!("--perfetto-chaos requires a seed");
            std::process::exit(2);
        }
        let seed = args.remove(i + 1);
        args.remove(i);
        match seed.parse() {
            Ok(s) => perfetto_chaos = Some(s),
            Err(_) => {
                eprintln!("--perfetto-chaos requires an integer seed, got {seed}");
                std::process::exit(2);
            }
        }
    }
    let mut at_seed: u64 = 304;
    if let Some(i) = args.iter().position(|a| a == "--at-seed") {
        if i + 1 >= args.len() {
            eprintln!("--at-seed requires a seed");
            std::process::exit(2);
        }
        let seed = args.remove(i + 1);
        args.remove(i);
        match seed.parse() {
            Ok(s) => at_seed = s,
            Err(_) => {
                eprintln!("--at-seed requires an integer seed, got {seed}");
                std::process::exit(2);
            }
        }
    }
    if let Some(i) = args.iter().position(|a| a == "--at") {
        if i + 1 >= args.len() {
            eprintln!("--at requires a telemetry sequence number");
            std::process::exit(2);
        }
        let seq = args.remove(i + 1);
        args.remove(i);
        let seq: u64 = match seq.parse() {
            Ok(s) => s,
            Err(_) => {
                eprintln!("--at requires an integer sequence number, got {seq}");
                std::process::exit(2);
            }
        };
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
    let (out, wanted): (String, Vec<String>) = match args.split_first() {
        Some((first, rest)) if !is_section(first) => (first.clone(), rest.to_vec()),
        _ => ("results".to_string(), args),
    };
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
    let sections: Vec<Section> = if wanted.is_empty() || wanted.iter().any(|w| w == "all") {
        report.all()
    } else {
        wanted
            .iter()
            .map(|w| match w.as_str() {
                "fig1" => report.fig1(),
                "fig2" => report.fig2(),
                "fig3" => report.fig3(),
                "fig4" => report.fig4(),
                "table1" => report.table1(),
                "fig5" => report.fig5(),
                "table2" => report.table2(),
                "fig6" => report.fig6(),
                "fig7" => report.fig7(),
                "table3" => report.table3(),
                "fig8" => report.fig8(),
                "fig9" => report.fig9(),
                "ablation-priority" => report.ablation_priority(),
                "ablation-concurrency" => report.ablation_concurrency(),
                "ablation-replicas" => report.ablation_replicas(),
                "ablation-eviction" => report.ablation_eviction(),
                "ablation-heartbeat" => report.ablation_heartbeat(),
                "ablation-jitter" => report.ablation_jitter(),
                "extension-benefit" => report.extension_benefit_aware(),
                "extension-iterative" => report.extension_iterative(),
                "extension-caching" => report.extension_caching(),
                "telemetry" => report.telemetry(),
                other => {
                    eprintln!("unknown section: {other}");
                    std::process::exit(2);
                }
            })
            .collect()
    };
    for s in sections {
        println!("==================== {} ====================", s.id);
        println!("{}\n", s.text);
    }
    println!("CSV series written to {out}/");
}
