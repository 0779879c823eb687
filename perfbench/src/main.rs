//! The repository benchmark. See `README.md` beside this crate.
//!
//! ```text
//! perfbench --workload <hot|cold> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload runs all three phases — the paper grid, the data-lake
//! index lifecycle, and the open-loop serve ladder — so every run reports
//! every end-to-end metric; the workload decides the serve traffic: mostly
//! repeated queries the cache answers (`hot`) or mostly new queries that
//! each run the index search (`cold`). The last stdout line is the JSON
//! result.

mod grid;
mod lake;
mod layers;
mod out;
mod serve;
mod stats;

use std::path::{Path, PathBuf};
use std::time::Instant;

use out::Report;

/// Worker threads: the machine's available parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(2, |n| n.get())
}

/// The lake of every workload.
pub const LAKE: lake::LakePlan = lake::LakePlan {
    families_per_source: 3,
    members: 4,
    decoys_per_source: 2,
    unrelated: 400,
    batches: 3,
    builds: 3,
    opens: 9,
};

/// The serve traffic of a workload. The workloads differ only here: the
/// grid and the lake are the same in both.
fn mix(workload: &str) -> Option<serve::Mix> {
    match workload {
        "hot" => Some(serve::HOT),
        "cold" => Some(serve::COLD),
        _ => None,
    }
}

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => workload = Some(value.to_string()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(|| format!("bad --seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value} (0 or 1)")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Scratch space inside the working directory, removed when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new(workload: &str) -> std::io::Result<WorkDir> {
        let dir = Path::new(".perfbench-work").join(format!("{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // the parent is shared by concurrent runs; remove it only if empty
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// The generated inputs, kept for the traced pass.
struct Inputs {
    pairs: Vec<valentine_core::fabricator::DatasetPair>,
    lake: lake::LakeFiles,
}

/// Set-up: grid corpus fabrication, lake fabrication and CSV writing, and
/// the in-memory index build over the surviving tables, repeated three
/// times; `setup_s` is the median.
fn setup(
    args: &Args,
    work: &Path,
    report: &mut Report,
) -> Result<(Inputs, lake::Reference), String> {
    let dir = work.join("lake");
    let mut walls = Vec::new();
    let mut last = None;
    for _ in 0..3 {
        let _ = std::fs::remove_dir_all(&dir);
        let start = Instant::now();
        let pairs = grid::corpus(args.seed).pairs;
        let lake = lake::write_lake(args.seed, &LAKE, &dir).map_err(|e| e.to_string())?;
        let reference = lake::reference(&lake)?;
        walls.push(start.elapsed().as_secs_f64());
        last = Some((Inputs { pairs, lake }, reference));
    }
    report.put("setup_s", stats::median(&walls), "s");
    Ok(last.expect("set-up ran"))
}

fn run(args: &Args) -> Result<Report, String> {
    let mix = mix(&args.workload)
        .ok_or_else(|| format!("unknown workload {:?} (hot or cold)", args.workload))?;
    let work = WorkDir::new(&args.workload).map_err(|e| format!("work dir: {e}"))?;
    let mut report = Report::default();
    let (inputs, reference) = setup(args, &work.0, &mut report)?;

    let start = Instant::now();
    let grid_wall = grid::run(args.seed, &inputs.pairs, &mut report);
    eprintln!("grid phase {:.2}s", start.elapsed().as_secs_f64());
    let start = Instant::now();
    let lake_out = lake::run(
        args.seed,
        &LAKE,
        &inputs.lake,
        reference,
        &work.0,
        &mut report,
    )?;
    eprintln!("lake phase {:.2}s", start.elapsed().as_secs_f64());
    let start = Instant::now();
    serve::run(args.seed, &mix, &LAKE, &lake_out, args.seconds, &mut report)?;
    eprintln!("serve phase {:.2}s", start.elapsed().as_secs_f64());

    if args.trace {
        let untraced_s = grid_wall + lake_out.cycle_s;
        layers::traced(
            args,
            &mix,
            &inputs,
            &lake_out,
            untraced_s,
            &work.0,
            &mut report,
        )?;
    }
    Ok(report)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--pin") => {
            for v in 0..grid::VARIANTS {
                grid::print_pins(v);
            }
            return;
        }
        Some("--lake-child") => {
            let (Some(Ok(seed)), Some(dir)) = (args.get(1).map(|s| s.parse()), args.get(2)) else {
                eprintln!("usage: --lake-child <seed> <index dir>");
                std::process::exit(2);
            };
            if let Err(e) = lake::child(seed, &LAKE, Path::new(dir)) {
                eprintln!("{e}");
                std::process::exit(1);
            }
            return;
        }
        _ => {}
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <hot|cold> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let mut report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let names = if args.trace {
        layers::PER_LAYER.iter().map(|l| l.name).collect::<Vec<_>>()
    } else {
        layers::END_TO_END.iter().map(|m| m.name).collect()
    };
    if !args.trace {
        for m in &layers::END_TO_END {
            if let Some(v) = report.get(m.name) {
                eprintln!(
                    "{:<24} {:>14.6} {:<6} {} is better, bound {}",
                    m.name, v, m.unit, m.better, m.bound
                );
            }
        }
    }
    let missing = report.select(&names);
    for name in &missing {
        report.check(false, &format!("metric {name} was not measured"));
    }
    let bad: Vec<String> = report
        .metrics()
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| m.name.clone())
        .collect();
    for name in bad {
        report.check(false, &format!("metric {name} is not a finite number"));
    }
    println!("{}", report.json_line());
}
