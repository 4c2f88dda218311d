//! Golden outputs pin the modeled science. Every figure's fast-sampling
//! output and every registry architecture's per-layer MobileNetV1 cycles
//! are committed under `tests/golden/`; each test recomputes one and
//! compares it byte for byte. A deliberate model change regenerates the
//! files (the loop is in EXPERIMENTS.md), so it shows in review as a diff
//! to a CSV.

use eureka::prelude::*;
use eureka::sim::{Runner, SimJob};
use eureka_bench::{figure, FIGURES};
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Fails with the first line where `actual` departs from the golden file
/// `path`.
fn assert_golden(actual: &str, path: &str) {
    let file = golden_dir().join(path);
    let expected = std::fs::read_to_string(&file)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", file.display()));
    if actual == expected {
        return;
    }
    let (line, (want, got)) = expected
        .lines()
        .chain(["<end of file>"])
        .zip(actual.lines().chain(["<end of output>"]))
        .enumerate()
        .find(|(_, (want, got))| want != got)
        .unwrap_or((0, ("<trailing bytes>", "<trailing bytes>")));
    panic!(
        "{} drifted at line {}:\n  golden: {want}\n  actual: {got}",
        file.display(),
        line + 1
    );
}

/// What `eureka figure <name> --fast --csv` prints (`println!` adds the
/// last newline).
fn check_figure(name: &str) {
    let fig = figure(name, &Runner::parallel(), &SimConfig::fast()).expect("a FIGURES name");
    assert_golden(&format!("{}\n", fig.to_csv()), &format!("{name}.csv"));
}

macro_rules! golden_figures {
    ($($name:ident),*) => {
        $(
            #[test]
            fn $name() {
                check_figure(stringify!($name));
            }
        )*

        #[test]
        fn every_figure_has_a_golden_test() {
            assert_eq!([$(stringify!($name)),*], FIGURES);
        }
    };
}

golden_figures!(table1, table2, fig09, fig11, fig12, fig13, fig14, ablations);

/// What `eureka simulate --benchmark mobilenetv1 --arch <name> --fast
/// --csv` prints: exact integer cycles per layer, which the figures'
/// four-decimal ratios could hide a one-cycle drift in.
#[test]
fn mobilenetv1_cycles_per_architecture() {
    let mut names = arch::registry_names();
    let mut files: Vec<String> = std::fs::read_dir(golden_dir().join("mobilenetv1"))
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort_unstable();
    files.sort_unstable();
    let expected: Vec<String> = names.iter().map(|n| format!("{n}.csv")).collect();
    assert_eq!(files, expected, "one golden per registry architecture");

    let w = Workload::new(Benchmark::MobileNetV1, PruningLevel::Moderate, 32);
    let runner = Runner::parallel();
    for name in names {
        let a = arch::by_name(name).unwrap();
        let report = runner
            .run(&SimJob::new(a.as_ref(), &w, SimConfig::fast()))
            .unwrap();
        assert_golden(
            &format!("{}\n", report.to_csv()),
            &format!("mobilenetv1/{name}.csv"),
        );
    }
}
