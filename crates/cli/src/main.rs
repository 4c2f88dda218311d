//! The `eureka` command-line tool. See `eureka_cli` for the command set.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Usage text accompanies parse errors only: a *run* failure (a
    // refused arch/workload combination, a `bench diff` regression
    // gate) is an outcome of a well-formed command, not a syntax slip.
    let cmd = match eureka_cli::parse(args) {
        Ok(cmd) => cmd,
        Err(msg) => {
            eureka_obs::error!("{msg}\n{}", eureka_cli::USAGE);
            return ExitCode::FAILURE;
        }
    };
    match eureka_cli::run(&cmd) {
        Ok(out) => {
            // Empty output means the command already streamed its
            // payload to stdout (e.g. `--events-out -`).
            if !out.is_empty() {
                println!("{out}");
            }
            ExitCode::SUCCESS
        }
        // Exit 1 for failures and regressions; exit 2 when the command
        // could not do its job at all (e.g. `bench diff` on a missing
        // snapshot) so CI can tell broken wiring from a fired gate.
        Err(e) => {
            eureka_obs::error!("{}", e.message);
            ExitCode::from(e.code)
        }
    }
}
