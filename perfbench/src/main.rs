//! `yv-perfbench --workload W --seed N --seconds S --trace 0|1`
//!
//! Runs one workload from the current directory (a checkout of the
//! repository), prints provenance, notes, and as its last line the
//! result object. Exits 1 when an output check fails (the result then
//! carries no numbers) and 2 when the benchmark cannot run.

use std::process::ExitCode;
use std::time::Duration;
use yv_perfbench::phases::Fail;
use yv_perfbench::report::result_line;
use yv_perfbench::{cleanup, parse_args, run, run_dir, USAGE};

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let root = match std::env::current_dir() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: no working directory: {e}");
            return ExitCode::from(2);
        }
    };
    let dir = match run_dir(&root) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // A run that stalls (a server that never finishes shutting down, a
    // reply that never comes) fails within a bound instead of hanging.
    let limit = Duration::from_secs_f64(30.0 + 3.0 * args.seconds);
    let watched = dir.clone();
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("perfbench: the run exceeded its {}s limit", limit.as_secs());
        cleanup(&watched);
        std::process::exit(2);
    });
    let outcome = run(&args, &root, &dir);
    cleanup(&dir);
    match outcome {
        Ok(report) => {
            println!("{}", report.provenance.render());
            for note in &report.notes {
                println!("# {note}");
            }
            for m in &report.metrics {
                println!("# {:<40} {:>14.4} {}", m.name, m.value, m.unit);
            }
            println!(
                "{}",
                result_line(
                    report.correct,
                    report.attempted,
                    report.failed,
                    &report.metrics
                )
            );
            ExitCode::SUCCESS
        }
        Err(Fail::Check(what)) => {
            eprintln!("perfbench: output check failed: {what}");
            println!("{}", result_line(false, 1, 1, &[]));
            ExitCode::from(1)
        }
        Err(Fail::Run(what)) => {
            eprintln!("perfbench: {what}");
            ExitCode::from(2)
        }
    }
}
