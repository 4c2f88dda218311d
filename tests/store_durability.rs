//! Durability guarantees of the persistent result store: a store
//! directory is an optimization, never a source of truth. Whatever is on
//! disk — misplaced records, foreign versions, truncated shards or unit
//! records, binary garbage, files deleted out from under a warm run — the
//! simulator must produce the same bytes it would have produced with no
//! store at all, recovering by re-simulation and ticking `store.errors`
//! or `checkpoint.errors`, never by panicking and never by serving a
//! damaged record.

use eureka_models::{Benchmark, PruningLevel, Workload};
use eureka_obs::metrics::Registry;
use eureka_sim::checkpoint;
use eureka_sim::store::{TileKey, TileOutcome, TileStore};
use eureka_sim::{arch, Runner, SimConfig, SimJob};
use std::path::{Path, PathBuf};

/// `runner`'s counter `name` (0 before it is registered).
fn count(runner: &Runner, name: &str) -> u64 {
    runner.metrics().counter_value(name).unwrap_or(0)
}

/// `(hits, writes, errors)` of `runner`'s `checkpoint.*` counters.
fn checkpoint_counts(runner: &Runner) -> (u64, u64, u64) {
    (
        count(runner, "checkpoint.hits"),
        count(runner, "checkpoint.writes"),
        count(runner, "checkpoint.errors"),
    )
}

/// `(lookups, hits, misses)` of `runner`'s `store.*` counters.
fn store_counts(runner: &Runner) -> (u64, u64, u64) {
    (
        count(runner, "store.lookups"),
        count(runner, "store.hits"),
        count(runner, "store.misses"),
    )
}

/// Paper sampling with fewer row-group samples, so the suite stays fast.
fn test_cfg() -> SimConfig {
    SimConfig {
        rowgroup_samples: 20,
        ..SimConfig::paper_default()
    }
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("eureka-durability-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The `*.<ext>` files in `dir`, sorted.
fn files_with(dir: &Path, ext: &str) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|e| e == ext))
                .collect()
        })
        .unwrap_or_default();
    files.sort();
    files
}

fn shard_files(dir: &Path) -> Vec<PathBuf> {
    files_with(dir, "tiles")
}

/// Deletes the whole-unit records, so the next run re-executes every
/// unit and can only be served by the tile shards.
fn drop_unit_records(dir: &Path) {
    for file in files_with(dir, "units") {
        std::fs::remove_file(file).unwrap();
    }
}

/// Misplaced records (a key whose hash does not belong in the shard file
/// it sits in — collision damage or manual tampering) and foreign-version
/// keys are rejected on load with an `store.errors` tick; well-placed v1
/// records in the same file still load.
#[test]
fn misplaced_and_foreign_version_records_are_rejected_on_load() {
    let dir = fresh_dir("misplaced");
    std::fs::create_dir_all(&dir).unwrap();

    let good = TileKey::new("maxrow", "4,3,2,1");
    // A key that provably hashes to a different shard than `good`.
    let evicted = (0..)
        .map(|i| TileKey::new("maxrow", &format!("9,9,9,{i}")))
        .find(|k| k.shard() != good.shard())
        .unwrap();

    // Hand-write `good`'s shard: one valid record, one record smuggled
    // in from another shard, one from a future format version.
    let shard_file = dir.join(format!("{:02x}.tiles", good.shard()));
    std::fs::write(
        &shard_file,
        format!(
            "eureka-tilestore v1\n{} 4 1 2 10\n{} 9 0 - 36\nv2|maxrow|1,1,1,1 5 0 - 4\n",
            good.as_str(),
            evicted.as_str()
        ),
    )
    .unwrap();

    let metrics = Registry::new();
    let store = TileStore::new(&dir, metrics.clone());
    let stored = TileOutcome {
        cycles: 4,
        displaced: 1,
        base_row: Some(2),
        nnz: 10,
    };
    assert_eq!(
        store.lookup_or_compute_str(good.as_str(), || unreachable!("the record is on disk")),
        (stored, false),
        "the well-placed record still loads"
    );
    assert_eq!(
        metrics.counter_value("store.errors"),
        Some(2),
        "one tick for the misplaced key, one for the v2 record"
    );
    // The misplaced record is invisible from its own shard too: that
    // shard file does not exist, so the key is computed.
    let computed = TileOutcome {
        cycles: 9,
        ..stored
    };
    assert_eq!(
        store.lookup_or_compute_str(evicted.as_str(), || computed),
        (computed, true),
        "misplaced records are never served"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A store directory mangled every way we can think of — binary garbage,
/// a truncated record, junk appended past valid records, a stray temp
/// file from a crashed flush — yields a warm run byte-identical to the
/// cold one, recovered by re-simulation without a panic.
#[test]
fn corrupt_shards_recover_by_resimulation() {
    let dir = fresh_dir("corrupt");
    let w = Workload::new(Benchmark::MobileNetV1, PruningLevel::Moderate, 32);
    let cfg = test_cfg();
    let a = arch::by_name("eureka-p4").expect("registered");
    let job = SimJob::new(a.as_ref(), &w, cfg);

    let cold = Runner::serial()
        .with_store_dir(&dir)
        .run(&job)
        .expect("supported");
    let files = shard_files(&dir);
    assert!(
        files.len() >= 3,
        "expected several shard files to tamper with, got {}",
        files.len()
    );

    // Shard 1: replaced wholesale with binary garbage (no header).
    std::fs::write(&files[0], [0u8, 159, 146, 150, b'\n', 7]).unwrap();
    // Shard 2: valid header, then a record truncated mid-write.
    std::fs::write(&files[1], "eureka-tilestore v1\nv1|maxrow|7,3").unwrap();
    // Shard 3: valid content with junk appended past the last record.
    let mut text = std::fs::read_to_string(&files[2]).unwrap();
    text.push_str("not a record at all\n");
    std::fs::write(&files[2], text).unwrap();
    // And a stray temp file from a "crashed" flush, which loading must
    // ignore (only `*.tiles` paths are ever read).
    std::fs::write(dir.join("00.tmp-99999-0"), "partial write").unwrap();

    // A fresh runner without the unit records can only see the tile
    // shards on disk.
    drop_unit_records(&dir);
    let runner = Runner::serial().with_store_dir(&dir);
    let warm = runner.run(&job).expect("supported");

    assert_eq!(cold, warm, "corruption must cost time, never correctness");
    assert!(
        count(&runner, "store.errors") > 0,
        "damaged records are counted, not silently dropped"
    );
    let (_, hits, misses) = store_counts(&runner);
    assert!(misses > 0, "damaged shards force re-simulation");
    assert!(hits > 0, "intact shards still serve their records");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A partially populated store — as left behind by a run killed before
/// finishing — warm-resumes: surviving shards serve hits, missing ones
/// re-simulate, the output is byte-identical, and the follow-up flush
/// heals the store back to full coverage.
#[test]
fn killed_run_store_warm_resumes_and_heals() {
    let dir = fresh_dir("killed");
    let w = Workload::new(Benchmark::MobileNetV1, PruningLevel::Conservative, 32);
    let cfg = test_cfg();
    let a = arch::by_name("eureka-p2").expect("registered");
    let job = SimJob::new(a.as_ref(), &w, cfg);

    let cold = Runner::serial()
        .with_store_dir(&dir)
        .run(&job)
        .expect("supported");
    let files = shard_files(&dir);
    assert!(files.len() >= 2, "need at least two shards for this test");
    let full_count = files.len();

    // Simulate the kill: one shard never made it to disk.
    std::fs::remove_file(&files[0]).unwrap();

    drop_unit_records(&dir);
    let runner = Runner::serial().with_store_dir(&dir);
    let warm = runner.run(&job).expect("supported");
    assert_eq!(cold, warm, "partial stores resume bit-identically");
    let (_, hits, misses) = store_counts(&runner);
    assert!(hits > 0, "surviving shards serve their records");
    assert!(misses > 0, "the deleted shard's tiles re-simulate");
    assert_eq!(
        shard_files(&dir).len(),
        full_count,
        "the post-run flush rewrites the missing shard"
    );

    // Third run: the healed store now serves every tile.
    drop_unit_records(&dir);
    let runner = Runner::serial().with_store_dir(&dir);
    let healed = runner.run(&job).expect("supported");
    assert_eq!(cold, healed);
    let (lookups, hits, misses) = store_counts(&runner);
    assert_eq!(misses, 0, "a healed store has no holes");
    assert_eq!(hits, lookups, "every lookup is served from the store");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A store directory also holds a record of every computed unit,
/// appended to one log: a warm run replays every unit from it without
/// sampling or looking up a single tile, and a damaged record costs
/// exactly that unit's recomputation, which appends it again.
#[test]
fn store_dir_replays_whole_units_and_heals_a_damaged_record() {
    let dir = fresh_dir("units");
    let w = Workload::new(Benchmark::MobileNetV1, PruningLevel::Moderate, 32);
    let cfg = test_cfg();
    let a = arch::by_name("eureka-p4").expect("registered");
    let job = SimJob::new(a.as_ref(), &w, cfg);
    let layers = w.layer_count() as u64;
    // A fresh runner per run, so each run reads the directory anew.
    let run = || {
        let runner = Runner::serial().with_store_dir(&dir);
        let report = runner.run(&job).expect("supported");
        (report, runner)
    };

    let (cold, runner) = run();
    let logs = files_with(&dir, "units");
    assert_eq!(logs.len(), 1, "one log of records");
    assert_eq!(checkpoint_counts(&runner), (0, layers, 0));

    let intact = std::fs::read(&logs[0]).unwrap();
    let (warm, runner) = run();
    assert_eq!(cold, warm, "unit replay must be bit-identical");
    assert_eq!(checkpoint_counts(&runner), (layers, 0, 0));
    assert_eq!(store_counts(&runner).0, 0, "no tile is looked up");
    assert_eq!(
        std::fs::read(&logs[0]).unwrap(),
        intact,
        "nothing new to write"
    );

    // Truncate the last record: only its unit recomputes, and the run
    // appends its record again.
    std::fs::write(&logs[0], &intact[..intact.len() - 10]).unwrap();
    let (healed, runner) = run();
    assert_eq!(cold, healed, "damage costs time, never correctness");
    assert_eq!(checkpoint_counts(&runner), (layers - 1, 1, 1));
    assert_eq!(files_with(&dir, "units"), logs, "still one log");

    // The append cut the torn record off, so the appended record serves
    // the next run and nothing counts as an error.
    let (again, runner) = run();
    assert_eq!(cold, again);
    assert_eq!(checkpoint_counts(&runner), (layers, 0, 0));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A runner keeps every unit it computes, for its lifetime: a rerun on
/// the same runner (or a clone) replays every unit from memory even
/// after the directory's records are gone, while a fresh runner on the
/// directory recomputes.
#[test]
fn a_runner_keeps_its_unit_records_for_its_lifetime() {
    let dir = fresh_dir("lifetime");
    let w = Workload::new(Benchmark::MobileNetV1, PruningLevel::Moderate, 32);
    let cfg = test_cfg();
    let a = arch::by_name("eureka-p4").expect("registered");
    let jobs = [SimJob::new(a.as_ref(), &w, cfg)];
    let layers = w.layer_count() as u64;
    let runner = Runner::serial().with_store_dir(&dir);

    let cold = runner.run_all(&jobs);
    assert_eq!(checkpoint_counts(&runner), (0, layers, 0));
    assert_eq!(count(&runner, "cache.hits"), 0);
    drop_unit_records(&dir);

    // The clone counts into the runner's registry.
    let executed = count(&runner, "runner.units_executed");
    let warm = runner.clone().run_all(&jobs);
    assert_eq!(cold, warm, "unit replay must be bit-identical");
    assert_eq!(
        count(&runner, "cache.hits"),
        layers,
        "every unit replays from the records the runner keeps"
    );
    assert_eq!(count(&runner, "runner.units_executed"), executed);
    assert_eq!(checkpoint_counts(&runner), (0, layers, 0));
    assert!(files_with(&dir, "units").is_empty(), "nothing new to write");

    let fresh_runner = Runner::serial().with_store_dir(&dir);
    let fresh = fresh_runner.run_all(&jobs);
    assert_eq!(cold, fresh);
    assert_eq!(
        checkpoint_counts(&fresh_runner),
        (0, layers, 0),
        "a fresh runner reads the directory and recomputes"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The number of records in the directory's log. Every line must load
/// undamaged as a record of its own key, so a record appended twice
/// shows as more lines than records.
fn logged_records(dir: &Path) -> usize {
    let (records, damaged) = checkpoint::load(dir);
    let lines = std::fs::read_to_string(files_with(dir, "units").remove(0))
        .unwrap()
        .lines()
        .count();
    assert_eq!((damaged, lines), (0, records.len()), "one line per record");
    records.len()
}

/// Two identical jobs in one run compute each unit once and append each
/// record once: the second job's units are memory hits, which write
/// nothing.
#[test]
fn identical_jobs_in_one_run_append_each_record_once() {
    let dir = fresh_dir("twice");
    let w = Workload::new(Benchmark::MobileNetV1, PruningLevel::Dense, 32);
    let a = arch::dense();
    let job = SimJob::new(&a, &w, SimConfig::fast());
    let layers = w.layer_count() as u64;

    let runner = Runner::serial().with_store_dir(&dir);
    let reports = runner.run_all(&[job, job]);
    assert_eq!(reports[0], reports[1]);
    assert_eq!(checkpoint_counts(&runner), (0, layers, 0));
    assert_eq!(
        count(&runner, "cache.hits"),
        layers,
        "the second job hits memory"
    );
    assert_eq!(logged_records(&dir), w.layer_count());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runners with their own records, running different jobs against one
/// directory at the same time, append every record intact: a third
/// runner loads them all with no damage and replays both jobs.
#[test]
fn concurrent_runners_share_one_directory_without_damage() {
    let dir = fresh_dir("concurrent");
    let w = Workload::new(Benchmark::MobileNetV1, PruningLevel::Moderate, 32);
    let cfg = SimConfig::fast();
    let archs = ["eureka-p4", "cnvlutin"].map(|name| arch::by_name(name).expect("registered"));
    let jobs: Vec<SimJob<'_>> = archs
        .iter()
        .map(|a| SimJob::new(a.as_ref(), &w, cfg))
        .collect();

    let layers = w.layer_count() as u64;
    let solo: Vec<_> = std::thread::scope(|scope| {
        let dir = &dir;
        let workers: Vec<_> = jobs
            .iter()
            .map(|job| {
                scope.spawn(move || {
                    let runner = Runner::with_jobs(2).with_store_dir(dir);
                    let report = runner.run(job);
                    assert_eq!(checkpoint_counts(&runner), (0, layers, 0));
                    report
                })
            })
            .collect();
        workers.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let units = jobs.len() * w.layer_count();
    let (records, damaged) = checkpoint::load(&dir);
    assert_eq!((records.len(), damaged), (units, 0));
    assert_eq!(logged_records(&dir), units, "no record is written twice");

    let runner = Runner::serial().with_store_dir(&dir);
    let replayed = runner.run_all(&jobs);
    assert_eq!(solo, replayed);
    assert_eq!(checkpoint_counts(&runner), (units as u64, 0, 0));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every record line of `dir`'s tile shards, sorted.
fn shard_records(dir: &Path) -> Vec<String> {
    let mut records: Vec<String> = shard_files(dir)
        .iter()
        .flat_map(|file| {
            let text = std::fs::read_to_string(file).unwrap();
            text.lines().skip(1).map(str::to_string).collect::<Vec<_>>()
        })
        .collect();
    records.sort();
    records
}

/// `(lookups, hits, misses, inserts)` of `runner`'s `store.*` counters.
fn store_tally(runner: &Runner) -> (u64, u64, u64, u64) {
    let (lookups, hits, misses) = store_counts(runner);
    (lookups, hits, misses, count(runner, "store.inserts"))
}

/// One architecture per sampled timer at the paper geometry (optimal,
/// greedy, reach-2 and max-row, at compaction factors 1, 2 and 4), so
/// each of their signature tables serves part of a run.
fn tabled_archs() -> Vec<Box<dyn arch::Architecture>> {
    [
        "eureka-p4",
        "eureka-p2",
        "greedy-suds",
        "eureka-reach2",
        "cnvlutin",
        "eureka-unopt",
    ]
    .into_iter()
    .map(|name| arch::by_name(name).expect("registered"))
    .collect()
}

fn jobs_of<'a>(archs: &'a [Box<dyn arch::Architecture>], w: &'a Workload) -> Vec<SimJob<'a>> {
    archs
        .iter()
        .map(|a| SimJob::new(a.as_ref(), w, test_cfg()))
        .collect()
}

/// A store-filling run counts the same store lookups, hits, misses and
/// inserts, and writes the same shard records, at one worker and at
/// four: each worker's signature table answers only for keys the store
/// already holds.
#[test]
fn store_tally_and_shards_do_not_depend_on_the_worker_count() {
    let w = Workload::new(Benchmark::MobileNetV1, PruningLevel::Moderate, 32);
    let archs = tabled_archs();
    let jobs = jobs_of(&archs, &w);
    let mut runs = Vec::new();
    for workers in [1, 4] {
        let dir = fresh_dir(&format!("workers{workers}"));
        let runner = Runner::with_jobs(workers).with_store_dir(&dir);
        let reports = runner.run_all(&jobs);
        runs.push((reports, store_tally(&runner), shard_records(&dir)));
        let _ = std::fs::remove_dir_all(&dir);
    }
    let (serial, parallel) = (&runs[0], &runs[1]);
    assert_eq!(serial.0, parallel.0, "reports");
    let (lookups, hits, misses, inserts) = serial.1;
    assert!(misses > 0 && hits > misses, "{:?}", serial.1);
    assert_eq!((lookups, inserts), (hits + misses, misses));
    assert_eq!(
        serial.1, parallel.1,
        "store.{{lookups,hits,misses,inserts}}"
    );
    assert_eq!(serial.2.len() as u64, inserts, "one record per insert");
    assert_eq!(serial.2, parallel.2, "shard records");
}

/// A runner that ran without a store and then gained one persists every
/// key its run resolves: the signature tables it filled before are not
/// carried over to answer for the new store.
#[test]
fn a_runner_that_gains_a_store_persists_every_key() {
    let w = Workload::new(Benchmark::MobileNetV1, PruningLevel::Moderate, 32);
    let archs = tabled_archs();
    let jobs = jobs_of(&archs, &w);
    let (fresh_dir_, gained_dir) = (fresh_dir("fresh-store"), fresh_dir("gained-store"));

    let fresh = Runner::serial().with_store_dir(&fresh_dir_);
    let want = fresh.run_all(&jobs);

    let plain = Runner::serial();
    assert_eq!(plain.run_all(&jobs), want);
    let gained = plain.with_store_dir(&gained_dir);
    assert_eq!(gained.run_all(&jobs), want);

    assert_eq!(store_tally(&gained), store_tally(&fresh));
    let records = shard_records(&fresh_dir_);
    assert!(!records.is_empty());
    assert_eq!(shard_records(&gained_dir), records);
    let _ = std::fs::remove_dir_all(&fresh_dir_);
    let _ = std::fs::remove_dir_all(&gained_dir);
}
