//! `probe`: the traced run. It repeats the workload's pass with spans
//! around the operations of alternate blocks, then times calls into each
//! layer's public functions on the workload's inputs, reports the
//! per-layer metrics, and writes every span as Chrome-trace JSON.
//!
//! Only this binary depends on the library's internals; the untraced
//! `benchmark` binary stays black-box.

use eureka_benchmark::e2e::{self, Ctx, Pass, Workload};
use eureka_benchmark::report::{self, Metric};
use eureka_benchmark::sched::{self, Spec};
use eureka_benchmark::stats::{ms, Samples};
use eureka_benchmark::trace::Trace;
use eureka_benchmark::{Args, Scratch, PER_LAYER};
use eureka_models::{activation, Benchmark, PruningLevel, Workload as Network};
use eureka_obs::flightrec;
use eureka_sim::arch::{self, Architecture, LayerCtx, SimError, TileTimer};
use eureka_sim::scratch::ScratchPool;
use eureka_sim::service::handle_request;
use eureka_sim::store::DiskTier;
use eureka_sim::{
    JobService, JobSpec, JobStatus, Journal, JournalState, Runner, ServiceConfig, SimConfig,
    SimJob, TileBroker,
};
use eureka_sparse::rng::DetRng;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::ops::Range;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// fig11 workloads have no job stream of their own, so their socket and
/// service probes replay this much of the seed's serve-fresh stream: a
/// fixed reference load that no fig11 change should move.
const REFERENCE_SECONDS: f64 = 3.0;
/// The nine Figure 11 architectures, Dense first, in figure order.
const FIGURE_ARCHS: [&str; 9] = [
    "dense",
    "ampere",
    "cnvlutin",
    "eureka-p2",
    "eureka-p4",
    "ideal",
    "dstc",
    "sparten",
    "s2ta",
];
/// Repetitions of each micro-probe; their median is reported.
const REPS: usize = 200;

/// Per-layer values under their `PER_LAYER` names, plus failed checks.
#[derive(Default)]
struct Found {
    values: BTreeMap<&'static str, f64>,
    problems: Vec<String>,
}

impl Found {
    fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("probe: {e}");
            return ExitCode::from(2);
        }
    };
    let scratch = match Scratch::create(&args.out) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("probe: scratch directory: {e}");
            return ExitCode::from(2);
        }
    };
    let ctx = args.ctx(&scratch);
    let mut trace = Trace::new(Instant::now(), 0);
    let mut found = Found::default();

    let pass = e2e::run(args.workload, &ctx, Some(&mut trace));
    let reference;
    let (socket_pass, stream_hot, stream_seconds) = if args.workload.is_serve() {
        (&pass, args.workload == Workload::ServeHot, args.seconds)
    } else {
        let seconds = REFERENCE_SECONDS.min(args.seconds);
        reference = e2e::serve(&ctx, false, seconds, Some(&mut trace));
        (&reference, false, seconds)
    };
    let mut tally = pass.tally;
    found.problems.extend(pass.problems.iter().cloned());
    if !args.workload.is_serve() {
        tally.attempted += socket_pass.tally.attempted;
        tally.failed += socket_pass.tally.failed;
        found.problems.extend(socket_pass.problems.iter().cloned());
    }

    program_counters(&pass, &mut found);
    let (shapes, cfg) = probe_inputs(args.workload, args.seed, args.seconds);
    simulator_probes(
        &shapes,
        cfg,
        pass.store_dir.as_deref(),
        scratch.path(),
        &mut trace,
        &mut found,
    );
    let in_process_e2e = service_probes(
        &ctx,
        stream_hot,
        stream_seconds,
        scratch.path(),
        &mut trace,
        &mut found,
    );
    socket_metrics(socket_pass, in_process_e2e, &mut found);
    // Only serve passes put spans around the measured operations; a
    // figure process is black-box, so fig11 has no overhead and reads 0.
    let overhead = pass
        .op_ms_traced
        .p50()
        .zip(pass.op_ms_untraced.p50())
        .map_or(0.0, |(traced, untraced)| traced / untraced - 1.0);
    found.set("trace_overhead_frac", overhead);
    drop(scratch);

    let metrics: Vec<Metric> = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = found.values.get(name).copied();
            if value.is_none() {
                found.problems.push(format!("{name} was not measured"));
            }
            Metric::new(name, unit, value, 1)
        })
        .collect();
    let trace_path = args.out.join(format!(
        "trace-{}-seed{}.json",
        args.workload.name(),
        args.seed
    ));
    if let Err(e) = std::fs::write(&trace_path, trace.to_chrome_json()) {
        found
            .problems
            .push(format!("cannot write {}: {e}", trace_path.display()));
    }
    let mut shown = pass;
    shown.tally = tally;
    shown.problems.clone_from(&found.problems);
    report::print_summary(args.workload, args.seed, &shown, &metrics);
    eprintln!(
        "  trace: {} ({} spans)",
        trace_path.display(),
        trace.spans().len()
    );
    let line = report::result_json(
        found.problems.is_empty() && tally.failed == 0,
        tally,
        &metrics,
    );
    if let Err(e) = report::write_record(&args.out, args.workload, args.seed, true, &line) {
        eprintln!("probe: cannot write the run record: {e}");
    }
    println!("{line}");
    ExitCode::SUCCESS
}

/// Ratios of the program's own counters, read by the workload's pass.
fn program_counters(pass: &Pass, found: &mut Found) {
    let share = |part: f64, whole: f64| if whole > 0.0 { part / whole } else { 0.0 };
    let lookups = pass.counter("store.lookups");
    found.set("sim.store.lookups", lookups);
    found.set(
        "sim.store.hit_ratio",
        share(pass.counter("store.hits"), lookups),
    );
    let hits = pass.counter("cache.hits");
    found.set(
        "sim.runner.cache_hit_ratio",
        share(hits, hits + pass.counter("cache.misses")),
    );
}

fn benchmark(token: &str) -> Benchmark {
    match token {
        "mobilenetv1" => Benchmark::MobileNetV1,
        "inceptionv3" => Benchmark::InceptionV3,
        "resnet50" => Benchmark::ResNet50,
        _ => Benchmark::BertSquad,
    }
}

fn pruning(token: &str) -> PruningLevel {
    if token == "cons" {
        PruningLevel::Conservative
    } else {
        PruningLevel::Moderate
    }
}

fn job_spec(s: &Spec) -> JobSpec {
    JobSpec::new(benchmark(s.bench), pruning(s.pruning), s.batch, s.arch)
}

/// The simulator probes' inputs: eight (benchmark, pruning, batch) shapes
/// crossed with the nine figure architectures — the Figure 11 grid at
/// paper sampling for fig11-*, the first eight distinct shapes of the job
/// stream at the daemon's fast sampling for serve-*.
fn probe_inputs(
    workload: Workload,
    seed: u64,
    seconds: f64,
) -> (Vec<(Benchmark, PruningLevel, usize)>, SimConfig) {
    if !workload.is_serve() {
        let grid = Benchmark::all()
            .into_iter()
            .flat_map(|b| [PruningLevel::Conservative, PruningLevel::Moderate].map(|p| (b, p, 32)))
            .collect();
        return (grid, SimConfig::paper_default());
    }
    let specs = if workload == Workload::ServeHot {
        sched::hot_set(seed)
    } else {
        e2e::serve_stream(seed, false, seconds).1
    };
    let mut shapes = Vec::new();
    for s in &specs {
        let shape = (benchmark(s.bench), pruning(s.pruning), s.batch);
        if !shapes.contains(&shape) && shapes.len() < sched::HOT_SET {
            shapes.push(shape);
        }
    }
    (shapes, SimConfig::fast())
}

/// Models, architecture kernels, tile sampling/timing/keying, the tile
/// store and the runner, each timed on the probe jobs.
fn simulator_probes(
    shapes: &[(Benchmark, PruningLevel, usize)],
    cfg: SimConfig,
    filled_store: Option<&Path>,
    dir: &Path,
    t: &mut Trace,
    found: &mut Found,
) {
    let mut builds = Samples::default();
    for _ in 0..5 {
        let start = Instant::now();
        for &(b, p, n) in shapes {
            black_box(Network::new(b, p, n).gemms());
        }
        builds.push(ms(start.elapsed()));
        t.close("models.workload_build", start, None, None);
    }
    found.set("models.workload_build_ms", builds.p50().unwrap_or(0.0));

    let nets: Vec<Network> = shapes
        .iter()
        .map(|&(b, p, n)| Network::new(b, p, n))
        .collect();
    let archs: Vec<Box<dyn Architecture>> = FIGURE_ARCHS
        .iter()
        .map(|name| arch::by_name(name).expect("figure architectures are registered"))
        .collect();
    let jobs: Vec<(usize, usize)> = (0..nets.len())
        .flat_map(|n| (0..archs.len()).map(move |a| (n, a)))
        .collect();
    let sim_jobs = |cfg: SimConfig| -> Vec<SimJob<'_>> {
        jobs.iter()
            .map(|&(n, a)| SimJob::new(archs[a].as_ref(), &nets[n], cfg))
            .collect()
    };
    // Untimed warm-up at fast sampling: whichever probe ran first would
    // otherwise also pay the process's first page faults and allocations.
    let _ = Runner::with_jobs(1)
        .without_cache()
        .without_store()
        .run_all(&sim_jobs(SimConfig::fast()));

    // Kernels: every layer serially, with the store disabled and each
    // layer's context built exactly as the runner's plan builds it.
    let (mut per_arch, mut planned, mut unsupported) = ([0.0f64; 9], 0usize, 0usize);
    let mut probe_cycles: Vec<Option<u64>> = vec![None; jobs.len()];
    let mut kernels = |t: &mut Trace, found: &mut Found, range: Range<usize>| {
        for j in range {
            let (n, a) = jobs[j];
            let (net, arch) = (&nets[n], &archs[a]);
            let bench = net.benchmark();
            let gemms = net.gemms();
            let base = DetRng::new(net.seed());
            let scratch = ScratchPool::default();
            let (job_start, job_span) = (Instant::now(), t.reserve());
            let mut cycles = Some(0u64);
            planned += gemms.len();
            for (i, gemm) in gemms.iter().enumerate() {
                let ctx = LayerCtx {
                    act_density: net.activation_density(),
                    s2ta_act_density: activation::s2ta_activation_density(bench),
                    s2ta_fil_density: activation::s2ta_filter_density(bench),
                    rng: base.fork(i as u64),
                    tiles: TileBroker::disabled(),
                    scratch: scratch.clone(),
                };
                let start = Instant::now();
                let result = arch.simulate_layer(gemm, &ctx, &cfg);
                per_arch[a] += ms(start.elapsed());
                t.close(
                    "sim.arch.simulate_layer",
                    start,
                    Some(job_span),
                    Some(j as u64),
                );
                match result {
                    Ok(r) => cycles = cycles.map(|c| c + r.total_cycles()),
                    Err(SimError::Unsupported { .. }) => {
                        unsupported += 1;
                        cycles = None;
                    }
                    Err(e) => {
                        found
                            .problems
                            .push(format!("{} {}: {e}", arch.name(), gemm.name));
                        cycles = None;
                    }
                }
            }
            t.close_as(job_span, "sim.arch.job", job_start, None, Some(j as u64));
            probe_cycles[j] = cycles;
        }
    };
    // The runner on the same jobs, without its unit cache or tile store.
    let sim_jobs = sim_jobs(cfg);
    let run_all = |t: &mut Trace, workers: usize, range: Range<usize>| {
        let start = Instant::now();
        let results = Runner::with_jobs(workers)
            .without_cache()
            .without_store()
            .run_all(&sim_jobs[range]);
        t.close(
            &format!("sim.runner.run_all.jobs{workers}"),
            start,
            None,
            None,
        );
        let cycles: Vec<Option<u64>> = results
            .iter()
            .map(|r| r.as_ref().ok().map(|r| r.total_cycles()))
            .collect();
        (ms(start.elapsed()), cycles)
    };
    // Kernels and the serial runner take the two halves of the jobs in
    // the order kernels, runner, runner, kernels, so a drift in the host's
    // speed cancels out of `overhead_ms` = runner − kernels.
    let (all, half) = (0..jobs.len(), jobs.len() / 2);
    kernels(t, found, 0..half);
    let (first_ms, mut serial_cycles) = run_all(t, 1, 0..half);
    let (second_ms, rest) = run_all(t, 1, half..jobs.len());
    serial_cycles.extend(rest);
    kernels(t, found, half..jobs.len());
    let serial_ms = first_ms + second_ms;
    let (parallel_ms, parallel_cycles) = run_all(t, 2, all);
    if serial_cycles != probe_cycles || parallel_cycles != probe_cycles {
        found
            .problems
            .push("the kernel probes' cycles differ from Runner::run_all's".into());
    }
    const ARCH_METRICS: [&str; 9] = [
        "sim.arch.layer_ms.dense",
        "sim.arch.layer_ms.ampere",
        "sim.arch.layer_ms.cnvlutin",
        "sim.arch.layer_ms.eureka-p2",
        "sim.arch.layer_ms.eureka-p4",
        "sim.arch.layer_ms.ideal",
        "sim.arch.layer_ms.dstc",
        "sim.arch.layer_ms.sparten",
        "sim.arch.layer_ms.s2ta",
    ];
    for (name, v) in ARCH_METRICS.into_iter().zip(per_arch) {
        found.set(name, v);
    }
    let layer_ms: f64 = per_arch.iter().sum();
    found.set("sim.arch.layer_ms", layer_ms);
    found.set("sim.runner.units_planned", planned as f64);
    found.set("sim.runner.units_unsupported", unsupported as f64);

    found.set("sim.runner.serial_ms", serial_ms);
    found.set("sim.runner.parallel_ms", parallel_ms);
    found.set("sim.runner.overhead_ms", serial_ms - layer_ms);
    found.set(
        "sim.runner.parallel_efficiency",
        serial_ms / (2.0 * parallel_ms),
    );
    tile_probes(&nets, &cfg, t, found);

    // The disk tier: the workload's own filled store, or one filled here.
    let store = match filled_store {
        Some(dir) => dir.to_path_buf(),
        None => {
            let dir = dir.join("probe-store");
            let start = Instant::now();
            let _ = Runner::with_jobs(2)
                .without_cache()
                .with_store_dir(&dir)
                .run_all(&sim_jobs);
            t.close("sim.store.fill", start, None, None);
            dir
        }
    };
    store_probes(&store, t, found);
}

/// Sampling, timing and keying cost per tile, over every layer's samples.
fn tile_probes(nets: &[Network], cfg: &SimConfig, t: &mut Trace, found: &mut Found) {
    let gemms: Vec<_> = nets.iter().flat_map(Network::gemms).collect();
    let start = Instant::now();
    let tiles: Vec<_> = gemms
        .iter()
        .flat_map(|g| arch::tile_samples_for_layer(g, cfg, 0))
        .collect();
    found.set(
        "sim.arch.sample_us_per_tile",
        start.elapsed().as_secs_f64() * 1e6 / tiles.len() as f64,
    );
    t.close("sim.arch.tile_samples_for_layer", start, None, None);
    for (timer, name) in [
        (TileTimer::OptimalSuds, "sim.arch.time_ns_per_tile.optimal"),
        (TileTimer::GreedySuds, "sim.arch.time_ns_per_tile.greedy"),
        (TileTimer::MaxRow, "sim.arch.time_ns_per_tile.maxrow"),
    ] {
        let start = Instant::now();
        for tile in &tiles {
            black_box(timer.outcome(black_box(tile)));
        }
        found.set(
            name,
            start.elapsed().as_secs_f64() * 1e9 / tiles.len() as f64,
        );
        t.close("sim.arch.tile_timer.outcome", start, None, None);
    }
    let start = Instant::now();
    for tile in &tiles {
        black_box(TileTimer::OptimalSuds.key(black_box(tile)));
    }
    found.set(
        "sparse.canon_key_ns_per_tile",
        start.elapsed().as_secs_f64() * 1e9 / tiles.len() as f64,
    );
    t.close("sim.arch.tile_timer.key", start, None, None);
}

/// Loading and querying a filled store directory through `DiskTier`.
fn store_probes(dir: &Path, t: &mut Trace, found: &mut Found) {
    let mut bytes = 0u64;
    let mut shards: Vec<Vec<String>> = Vec::new();
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let path = entry.path();
        if path.extension().is_some_and(|e| e == "tiles") {
            bytes += entry.metadata().map_or(0, |m| m.len());
            let text = std::fs::read_to_string(&path).unwrap_or_default();
            // Header line, then one `key cycles displaced base nnz` record per line.
            let keys: Vec<String> = text
                .lines()
                .skip(1)
                .filter_map(|l| l.split_whitespace().next().map(str::to_string))
                .collect();
            if !keys.is_empty() {
                shards.push(keys);
            }
        }
    }
    found.set("sim.store.disk_mb", bytes as f64 / (1024.0 * 1024.0));
    if shards.is_empty() {
        found
            .problems
            .push(format!("the store at {} is empty", dir.display()));
        return;
    }
    // Load: a fresh tier plus one lookup per shard reads the whole store.
    let start = Instant::now();
    let tier = DiskTier::new(dir);
    let loaded = shards
        .iter()
        .all(|keys| tier.lookup_str(&keys[0]).is_some());
    found.set("sim.store.disk_load_ms", ms(start.elapsed()));
    t.close("sim.store.disk_load", start, None, None);
    let keys: Vec<&String> = shards.iter().flatten().collect();
    let start = Instant::now();
    let hits = keys.iter().filter(|k| tier.lookup_str(k).is_some()).count();
    found.set(
        "sim.store.disk_lookup_ns",
        start.elapsed().as_secs_f64() * 1e9 / keys.len() as f64,
    );
    t.close("sim.store.disk_lookup", start, None, None);
    if !loaded || hits != keys.len() {
        found.problems.push(format!(
            "store lookups missed: {hits} of {} keys found",
            keys.len()
        ));
    }
}

/// The service in process, with the daemon's configuration, replaying the
/// same open-loop schedule; then the transport-free request handler, the
/// journal, the flight recorder and the Prometheus exporter. Returns the
/// in-process end-to-end latencies.
fn service_probes(
    ctx: &Ctx,
    hot: bool,
    seconds: f64,
    dir: &Path,
    t: &mut Trace,
    found: &mut Found,
) -> Samples {
    let mut cfg = ServiceConfig::new(dir.join("probe-journal"));
    cfg.queue_capacity = 64;
    cfg.jobs = 1;
    cfg.sim = SimConfig::fast();
    cfg.flightrec_dir = dir.join("probe-flightrec");
    let svc = JobService::start(cfg);
    if hot {
        for s in sched::hot_set(ctx.seed) {
            if let Err(e) = svc.submit(job_spec(&s)) {
                found
                    .problems
                    .push(format!("in-process warm-up submit: {e}"));
            }
        }
        svc.wait_idle();
    }

    let (due, specs) = e2e::serve_stream(ctx.seed, hot, seconds);
    let (mut submit_us, mut ids) = (Samples::default(), Vec::new());
    let origin = Instant::now();
    for (&offset, spec) in due.iter().zip(&specs) {
        let due_at = origin + Duration::from_secs_f64(offset);
        if let Some(wait) = due_at.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let start = Instant::now();
        let submitted = svc.submit(job_spec(spec));
        submit_us.push(start.elapsed().as_secs_f64() * 1e6);
        t.close("sim.service.submit", start, None, None);
        match submitted {
            Ok(id) => ids.push(id),
            Err(e) => found.problems.push(format!("in-process submit: {e}")),
        }
    }
    if !svc.wait_idle() {
        found
            .problems
            .push("the in-process service did not go idle".into());
    }
    let (mut wait, mut exec, mut e2e) =
        (Samples::default(), Samples::default(), Samples::default());
    for &id in &ids {
        if svc.status(id) != Some(JobStatus::Completed) {
            found
                .problems
                .push(format!("in-process job {id} ended {:?}", svc.status(id)));
        }
        if let Some(tl) = svc.timeline(id) {
            for (samples, us) in [
                (&mut wait, tl.queue_wait_us),
                (&mut exec, tl.exec_us),
                (&mut e2e, tl.e2e_us),
            ] {
                if let Some(us) = us {
                    samples.push(us as f64 / 1e3);
                }
            }
        }
    }
    found.set("sim.service.submit_us.p50", submit_us.p50().unwrap_or(0.0));
    for (samples, p50, p95) in [
        (
            &wait,
            "sim.service.queue_wait_ms.p50",
            "sim.service.queue_wait_ms.p95",
        ),
        (&exec, "sim.service.exec_ms.p50", "sim.service.exec_ms.p95"),
        (&e2e, "sim.service.e2e_ms.p50", "sim.service.e2e_ms.p95"),
    ] {
        found.set(p50, samples.p50().unwrap_or(0.0));
        found.set(p95, samples.quantile(0.95).unwrap_or(0.0));
    }

    let status = format!(
        "{{\"cmd\":\"status\",\"job\":{}}}",
        ids.first().copied().unwrap_or(1)
    );
    for (line, name) in [
        (status.as_str(), "sim.service.handle_request_us.status"),
        (r#"{"cmd":"stats"}"#, "sim.service.handle_request_us.stats"),
    ] {
        let samples = repeat(t, name, || drop(black_box(handle_request(&svc, line))));
        found.set(name, samples);
    }
    svc.shutdown();

    let journal = Journal::new(dir.join("probe-journal-records"));
    let canonical: Vec<String> = specs
        .iter()
        .take(REPS)
        .map(|s| job_spec(s).canonical())
        .collect();
    let mut record_us = Samples::default();
    for spec in &canonical {
        let start = Instant::now();
        if let Err(e) = journal.record(spec, JournalState::Accepted) {
            found.problems.push(format!("journal record: {e}"));
        }
        record_us.push(start.elapsed().as_secs_f64() * 1e6);
    }
    found.set("sim.journal.record_us.p50", record_us.p50().unwrap_or(0.0));

    // The daemon dumps a full ring after every connection.
    while flightrec::recorded_count() < flightrec::CAPACITY as u64 {
        flightrec::record("probe-filler", 0, 0);
    }
    let dump_dir = dir.join("probe-flightrec-dump");
    let dump = repeat(t, "obs.flightrec.dump_to", || {
        let _ = black_box(flightrec::dump_to(&dump_dir));
    });
    found.set("obs.flightrec.dump_us", dump);
    let text = repeat(t, "obs.metrics.prometheus_text", || {
        drop(black_box(eureka_obs::metrics::prometheus_text()))
    });
    found.set("obs.metrics.prometheus_text_us", text);
    e2e
}

/// Median µs of `REPS` calls of `f`, recorded as one span.
fn repeat(t: &mut Trace, name: &str, mut f: impl FnMut()) -> f64 {
    let mut samples = Samples::default();
    let outer = Instant::now();
    for _ in 0..REPS {
        let start = Instant::now();
        f();
        samples.push(start.elapsed().as_secs_f64() * 1e6);
    }
    t.close(name, outer, None, None);
    samples.p50().unwrap_or(0.0)
}

/// The client's view of the daemon: round trips, the transport share of a
/// job's latency, and connection counts.
fn socket_metrics(pass: &Pass, in_process_e2e: Samples, found: &mut Found) {
    let p50 = |s: &Samples| s.p50().unwrap_or(0.0);
    found.set("cli.serve.submit_ms.p50", p50(&pass.submit_ms));
    found.set("cli.serve.scrape_ms.p50", p50(&pass.scrape_ms));
    found.set("cli.serve.health_rtt_ms.p50", p50(&pass.health_ms));
    found.set(
        "cli.serve.health_rtt_ms.p95",
        pass.health_ms.quantile(0.95).unwrap_or(0.0),
    );
    found.set(
        "cli.serve.transport_ms.p50",
        p50(&pass.op_ms) - p50(&in_process_e2e),
    );
    let count = pass.counter("service.e2e_us.completed_count");
    let server_ms = if count > 0.0 {
        pass.counter("service.e2e_us.completed_sum") / count / 1e3
    } else {
        0.0
    };
    found.set("cli.serve.server_e2e_ms.mean", server_ms);
    let completed = pass.tally.attempted - pass.tally.failed;
    found.set(
        "cli.serve.polls_per_job",
        pass.polls as f64 / completed.max(1) as f64,
    );
    found.set(
        "cli.serve.connections_per_s",
        pass.connections as f64 / pass.window_s.max(1e-9),
    );
    found.set(
        "cli.serve.lateness_ms.p95",
        pass.lateness_ms.quantile(0.95).unwrap_or(0.0),
    );
}
