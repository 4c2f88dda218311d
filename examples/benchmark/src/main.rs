//! `benchmark`: one untraced end-to-end run of a workload, or
//! `benchmark compare <parent…> -- <change…>`.

use eureka_benchmark::{compare, e2e, report, Args, Scratch};
use std::process::ExitCode;

const USAGE: &str =
    "usage: benchmark --workload <fig11-cold|fig11-warm|serve-fresh|serve-hot> --seed <n>
                 [--seconds <s>] [--bin <eureka>]
       benchmark compare <parent.json>... -- <change.json>...";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if args.first().map(String::as_str) == Some("compare") {
        run_compare(&args[1..])
    } else {
        run(args)
    };
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn run(args: Vec<String>) -> Result<ExitCode, String> {
    let args = Args::parse(args)?;
    let scratch = Scratch::create(&args.out).map_err(|e| format!("scratch directory: {e}"))?;
    let pass = e2e::run(args.workload, &args.ctx(&scratch), None);
    drop(scratch);
    let metrics = report::end_to_end(&pass);
    report::print_summary(args.workload, args.seed, &pass, &metrics);
    let line = report::result_json(pass.correct(), pass.tally, &metrics);
    if let Err(e) = report::write_record(&args.out, args.workload, args.seed, false, &line) {
        eprintln!("benchmark: cannot write the run record: {e}");
    }
    println!("{line}");
    Ok(ExitCode::SUCCESS)
}

fn run_compare(args: &[String]) -> Result<ExitCode, String> {
    let (parent, change) = match args.iter().position(|a| a == "--") {
        Some(sep) => (&args[..sep], &args[sep + 1..]),
        None => (args, &args[..0]),
    };
    if parent.is_empty() || change.is_empty() {
        return Err("compare needs parent and change records, separated by --".into());
    }
    let (e2e, per_layer) = report::declared(std::path::Path::new("BENCHMARK.json"))?;
    let declared: Vec<_> = e2e.into_iter().chain(per_layer).collect();
    let rows = compare::compare(&compare::load(parent)?, &compare::load(change)?, &declared);
    print!("{}", compare::render(&rows));
    let regressed = rows.iter().any(|r| r.verdict == "regression");
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
