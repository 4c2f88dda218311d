//! The repository benchmark: four workloads that drive the release
//! `eureka` binary end to end (`benchmark`), and a traced run that times
//! calls into each layer's public functions on the same inputs (`probe`).
//! See `README.md` for the workloads, metrics and bounds; `run.sh` builds
//! and runs everything.

pub mod compare;
pub mod e2e;
pub mod proc;
pub mod report;
pub mod sched;
pub mod stats;
pub mod trace;

use e2e::Workload;
use std::path::{Path, PathBuf};

/// Names and units of the per-layer metrics the traced run reports, in
/// `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("models.workload_build_ms", "ms"),
    ("sim.arch.layer_ms", "ms"),
    ("sim.arch.layer_ms.dense", "ms"),
    ("sim.arch.layer_ms.ampere", "ms"),
    ("sim.arch.layer_ms.cnvlutin", "ms"),
    ("sim.arch.layer_ms.eureka-p2", "ms"),
    ("sim.arch.layer_ms.eureka-p4", "ms"),
    ("sim.arch.layer_ms.ideal", "ms"),
    ("sim.arch.layer_ms.dstc", "ms"),
    ("sim.arch.layer_ms.sparten", "ms"),
    ("sim.arch.layer_ms.s2ta", "ms"),
    ("sim.arch.sample_us_per_tile", "us"),
    ("sim.arch.time_ns_per_tile.optimal", "ns"),
    ("sim.arch.time_ns_per_tile.greedy", "ns"),
    ("sim.arch.time_ns_per_tile.maxrow", "ns"),
    ("sparse.canon_key_ns_per_tile", "ns"),
    ("sim.store.lookups", "count"),
    ("sim.store.hit_ratio", "ratio"),
    ("sim.store.disk_load_ms", "ms"),
    ("sim.store.disk_lookup_ns", "ns"),
    ("sim.store.disk_mb", "MiB"),
    ("sim.runner.serial_ms", "ms"),
    ("sim.runner.parallel_ms", "ms"),
    ("sim.runner.overhead_ms", "ms"),
    ("sim.runner.parallel_efficiency", "ratio"),
    ("sim.runner.units_planned", "count"),
    ("sim.runner.units_unsupported", "count"),
    ("sim.runner.cache_hit_ratio", "ratio"),
    ("sim.service.submit_us.p50", "us"),
    ("sim.service.queue_wait_ms.p50", "ms"),
    ("sim.service.queue_wait_ms.p95", "ms"),
    ("sim.service.exec_ms.p50", "ms"),
    ("sim.service.exec_ms.p95", "ms"),
    ("sim.service.e2e_ms.p50", "ms"),
    ("sim.service.e2e_ms.p95", "ms"),
    ("sim.journal.record_us.p50", "us"),
    ("sim.service.handle_request_us.status", "us"),
    ("sim.service.handle_request_us.stats", "us"),
    ("obs.flightrec.dump_us", "us"),
    ("obs.metrics.prometheus_text_us", "us"),
    ("cli.serve.submit_ms.p50", "ms"),
    ("cli.serve.scrape_ms.p50", "ms"),
    ("cli.serve.health_rtt_ms.p50", "ms"),
    ("cli.serve.health_rtt_ms.p95", "ms"),
    ("cli.serve.transport_ms.p50", "ms"),
    ("cli.serve.server_e2e_ms.mean", "ms"),
    ("cli.serve.polls_per_job", "polls/job"),
    ("cli.serve.connections_per_s", "1/s"),
    ("cli.serve.lateness_ms.p95", "ms"),
    ("trace_overhead_frac", "ratio"),
];

/// Command-line arguments of a benchmark or probe run.
#[derive(Clone, Debug, PartialEq)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed of the serve job streams.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// The release `eureka` binary to drive.
    pub eureka: PathBuf,
    /// Where records, traces and scratch directories go:
    /// `target/benchmark` under the directory the run starts in.
    pub out: PathBuf,
}

impl Args {
    /// Parses `--workload W --seed N [--seconds S] [--bin PATH]`.
    ///
    /// # Errors
    ///
    /// Unknown flags, missing values, or unparsable numbers.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed) = (None, None);
        let mut parsed = Args {
            workload: Workload::Fig11Cold,
            seed: 0,
            seconds: 15.0,
            eureka: PathBuf::from("target/release/eureka"),
            out: PathBuf::from("target/benchmark"),
        };
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let name = value()?;
                    workload =
                        Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
                }
                "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                        return Err("--seconds must be in (0, 600]".into());
                    }
                }
                "--bin" => parsed.eureka = PathBuf::from(value()?),
                other => return Err(format!("unknown argument {other}")),
            }
        }
        parsed.workload = workload.ok_or("--workload is required")?;
        parsed.seed = seed.ok_or("--seed is required")?;
        Ok(parsed)
    }

    /// The pass context, with its scratch directory under `out`.
    #[must_use]
    pub fn ctx(&self, dir: &Scratch) -> e2e::Ctx {
        e2e::Ctx {
            eureka: self.eureka.clone(),
            dir: dir.path().to_path_buf(),
            reference: Path::new(env!("CARGO_MANIFEST_DIR")).join("reference/fig11.csv"),
            seed: self.seed,
            seconds: self.seconds,
        }
    }
}

/// A run's scratch directory, removed with everything in it on drop.
#[derive(Debug)]
pub struct Scratch(PathBuf);

impl Scratch {
    /// Creates `out/run-<pid>`, clearing any leftover of that name.
    ///
    /// # Errors
    ///
    /// File-system failures.
    pub fn create(out: &Path) -> std::io::Result<Scratch> {
        let dir = out.join(format!("run-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }

    /// The directory.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse(args.iter().map(|s| (*s).to_string()))
    }

    #[test]
    fn args_parse_the_run_flags() {
        let a = parse(&["--workload", "serve-hot", "--seed", "3", "--seconds", "10"]).unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds),
            (Workload::ServeHot, 3, 10.0)
        );
        assert!(parse(&["--seed", "1"]).is_err());
        assert!(parse(&["--workload", "nope", "--seed", "1"]).is_err());
        assert!(parse(&["--workload", "fig11-cold", "--seed", "1", "--trace", "1"]).is_err());
        assert!(parse(&["--workload", "fig11-cold", "--seed", "1", "--seconds", "0"]).is_err());
        assert!(parse(&["--workload", "fig11-cold", "--seed"]).is_err());
    }
}
