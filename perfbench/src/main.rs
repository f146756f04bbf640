//! Command-line entry of the repository benchmark; see the library docs.

use gsino_perfbench::{run, Args};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("usage: --workload <gsino5k|route20k|eco_wire> --seed <n> --seconds <s> --trace <0|1>\n{e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            println!("{}", report.detail_line());
            println!("{}", report.result_line(args.trace));
            if report.correct(args.trace) {
                ExitCode::SUCCESS
            } else {
                eprintln!("a correctness check failed; see the detail line");
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("{} failed: {e}", args.workload);
            ExitCode::from(1)
        }
    }
}
