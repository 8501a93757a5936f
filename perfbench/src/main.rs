//! `perfbench-core <phase> --seed N --seconds S --trace 0|1 --work DIR`:
//! run one phase of the benchmark (`corpus`, `serve` or
//! `wa_sweep`) in this process and print its result as one JSON line.
//! `run.py` starts one process per phase and assembles the ledger row.

mod corpus;
mod gen;
mod out;
mod rng;
mod serve;
mod stats;
mod sweep;
mod trace;

use std::path::PathBuf;

use out::Cfg;

fn usage() -> ! {
    eprintln!(
        "usage: perfbench-core <corpus|serve|wa_sweep> --seed N --seconds S --trace 0|1 --work DIR"
    );
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(phase) = args.first().cloned() else {
        usage()
    };
    let mut cfg = Cfg {
        seed: 1,
        seconds: 1.0,
        trace: false,
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        work: PathBuf::from(".bench_work"),
    };
    let mut it = args[1..].iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { usage() };
        fn parse<T: std::str::FromStr>(v: &str) -> T {
            v.parse().unwrap_or_else(|_| usage())
        }
        match flag.as_str() {
            "--seed" => cfg.seed = parse(value),
            "--seconds" => cfg.seconds = parse(value),
            "--trace" => cfg.trace = value == "1",
            "--work" => cfg.work = PathBuf::from(value),
            _ => usage(),
        }
    }
    if let Err(e) = std::fs::create_dir_all(&cfg.work) {
        eprintln!("perfbench-core: {}: {e}", cfg.work.display());
        std::process::exit(1);
    }
    let result = match phase.as_str() {
        "corpus" => corpus::run(&cfg),
        "serve" => serve::run(&cfg),
        "wa_sweep" => sweep::run(&cfg),
        _ => usage(),
    };
    match result {
        Ok(out) => println!("{}", out.to_json(&phase, cfg.threads)),
        Err(e) => {
            eprintln!("perfbench-core {phase}: {e}");
            std::process::exit(1);
        }
    }
}
