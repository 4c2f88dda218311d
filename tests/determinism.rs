//! Everything in this reproduction is seeded: the same invocation must
//! produce byte-identical results across runs — the property EXPERIMENTS.md
//! and the `reproduce` driver rely on. The figures themselves are pinned
//! against committed files by `tests/golden.rs`.

use eureka::prelude::*;

#[test]
fn simulation_reports_are_identical_across_runs() {
    let cfg = SimConfig::fast();
    for b in [Benchmark::MobileNetV1, Benchmark::BertSquad] {
        let w = Workload::new(b, PruningLevel::Moderate, 32);
        let a = engine::simulate(&arch::eureka_p4(), &w, &cfg);
        let b2 = engine::simulate(&arch::eureka_p4(), &w, &cfg);
        assert_eq!(a.to_csv(), b2.to_csv());
    }
}

#[test]
fn compiled_format_is_identical_across_runs() {
    let build = || {
        let mut rng = DetRng::new(7);
        let p = gen::uniform_pattern(16, 64, 0.2, &mut rng);
        let w = gen::values_for_pattern(&p, &mut rng);
        CompiledLayer::compile(&w, 4, 4).unwrap()
    };
    let (a, b) = (build(), build());
    assert_eq!(a.tiles().len(), b.tiles().len());
    for (ta, tb) in a.tiles().iter().zip(b.tiles()) {
        assert_eq!(ta.as_bytes(), tb.as_bytes());
    }
}

#[test]
fn workload_seeds_are_stable_constants() {
    // Seeds must never drift — cached EXPERIMENTS.md numbers depend on
    // them. (If a seed scheme change is intentional, update this test and
    // regenerate EXPERIMENTS.md.)
    let w = Workload::new(Benchmark::ResNet50, PruningLevel::Moderate, 32);
    assert_eq!(w.seed(), (0xE_u64 << 56) | (3 << 8) | 2);
}
