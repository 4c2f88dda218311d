//! End-to-end guarantees of the cycle-attribution profiler: profiling
//! never perturbs simulated results, the attributed cycles reconcile
//! exactly with the report counters for every registry architecture,
//! and the JSON export is byte-identical regardless of worker count.

use eureka_models::{Benchmark, PruningLevel, Workload};
use eureka_sim::{arch, engine, ProfileConfig, Runner, SimConfig, SimJob};

/// Small sampling counts distinct from every named preset so these tests
/// never share unit-cache entries with other suites.
fn test_cfg() -> SimConfig {
    SimConfig {
        rowgroup_samples: 11,
        slice_samples: 11,
        act_samples: 11,
        ..SimConfig::paper_default()
    }
}

#[test]
fn profiling_reconciles_with_the_report_for_every_registry_arch() {
    let w = Workload::new(Benchmark::MobileNetV1, PruningLevel::Moderate, 8);
    let cfg = test_cfg();
    let pcfg = ProfileConfig::default();
    for name in arch::registry_names() {
        let a = arch::by_name(name).expect("registry names resolve");
        let job = SimJob::new(a.as_ref(), &w, cfg);
        let runner = Runner::serial().without_cache();
        let plain = runner.run(&job).expect("supported on MobileNetV1");
        let (profiled, profile) = runner.run_profiled(&job, &pcfg).expect("supported");
        assert_eq!(
            plain, profiled,
            "{name}: profiling must not change the report"
        );
        assert_eq!(
            profile.total_attributed_cycles(),
            profiled.total_cycles(),
            "{name}: every cycle lands in exactly one stall bucket"
        );
        assert_eq!(
            profile.idle_mac_cycles(),
            profiled.idle_mac_cycles(),
            "{name}: idle-MAC attribution reconciles with the report"
        );
        for (layer, lp) in profiled.layers.iter().zip(&profile.layers) {
            assert_eq!(lp.name, layer.name, "{name}: layer order matches");
            assert_eq!(
                lp.total_cycles(),
                layer.compute_cycles + layer.mem_cycles,
                "{name}/{}: per-layer stalls sum to the layer total",
                layer.name
            );
            assert_eq!(
                lp.macs.idle(),
                layer.idle_mac_cycles,
                "{name}/{}: per-layer idle MACs reconcile",
                layer.name
            );
            assert_eq!(
                lp.stalls.pipeline_bubble + lp.stalls.tail_drain,
                layer.bubble_cycles,
                "{name}/{}: bubble + drain equals the report's bubble_cycles",
                layer.name
            );
        }
    }
}

#[test]
fn profile_json_is_byte_identical_across_worker_counts() {
    let w = Workload::new(Benchmark::ResNet50, PruningLevel::Moderate, 8);
    let cfg = test_cfg();
    let pcfg = ProfileConfig::default();
    let a = arch::by_name("eureka-p4").expect("registered");
    let job = SimJob::new(a.as_ref(), &w, cfg);
    let (r1, p1) = Runner::serial()
        .without_cache()
        .run_profiled(&job, &pcfg)
        .expect("supported");
    let (r8, p8) = Runner::with_jobs(8)
        .without_cache()
        .run_profiled(&job, &pcfg)
        .expect("supported");
    assert_eq!(r1, r8, "reports agree across worker counts");
    assert_eq!(p1, p8, "profiles agree across worker counts");
    assert_eq!(p1.to_json(), p8.to_json(), "JSON export is byte-stable");
    assert_eq!(p1.heatmap_csv(), p8.heatmap_csv());
    assert_eq!(p1.to_chrome_json(), p8.to_chrome_json());
}

#[test]
fn parallel_profile_matches_engine_simulate() {
    let w = Workload::new(Benchmark::BertSquad, PruningLevel::Moderate, 8);
    let cfg = SimConfig {
        include_attention_aux: true,
        ..test_cfg()
    };
    let a = arch::by_name("eureka-p2").expect("registered");
    let plain = engine::try_simulate(a.as_ref(), &w, &cfg).expect("supported");
    let (profiled, profile) = Runner::parallel()
        .run_profiled(&SimJob::new(a.as_ref(), &w, cfg), &ProfileConfig::default())
        .expect("supported");
    assert_eq!(plain, profiled);
    assert_eq!(profile.layers.len(), profiled.layers.len());
    assert!(
        profile.layers.iter().any(|l| l.name == "attention-aux"),
        "the synthetic attention layer is profiled too"
    );
    assert_eq!(profile.total_attributed_cycles(), profiled.total_cycles());
}

#[test]
fn eureka_profiles_carry_pipeline_and_suds_detail() {
    let w = Workload::new(Benchmark::MobileNetV1, PruningLevel::Moderate, 8);
    let cfg = test_cfg();
    let pcfg = ProfileConfig { top_tiles: 3 };
    let a = arch::by_name("eureka-p4").expect("registered");
    let (_, profile) = Runner::serial()
        .without_cache()
        .run_profiled(&SimJob::new(a.as_ref(), &w, cfg), &pcfg)
        .expect("supported");
    let sampled: Vec<_> = profile
        .layers
        .iter()
        .filter(|l| !l.rows.is_empty())
        .collect();
    assert!(!sampled.is_empty(), "sampled layers expose row occupancy");
    for l in &sampled {
        assert!(
            l.worst_tiles.len() <= pcfg.top_tiles,
            "{}: top-tiles bound respected",
            l.name
        );
        let windows: Vec<_> = l.worst_tiles.windows(2).collect();
        assert!(
            windows.iter().all(|w| w[0].cycles >= w[1].cycles),
            "{}: worst tiles sorted by cycles",
            l.name
        );
        assert!(
            !l.critical_path.is_empty(),
            "{}: critical-path histogram present",
            l.name
        );
        let hist_tiles: u64 = l.critical_path.iter().map(|(_, n)| n).sum();
        let suds = l.suds.as_ref().expect("SUDS stats on a displacing arch");
        assert_eq!(
            suds.tiles, hist_tiles,
            "{}: every sampled tile counted",
            l.name
        );
        assert_eq!(
            suds.rotation.iter().sum::<u64>(),
            suds.tiles,
            "{}: rotation histogram covers every tile",
            l.name
        );
    }
    // The dense baseline has no SUDS and a trivial taxonomy.
    let d = arch::by_name("dense").expect("registered");
    let (_, dense) = Runner::serial()
        .without_cache()
        .run_profiled(&SimJob::new(d.as_ref(), &w, cfg), &pcfg)
        .expect("supported");
    assert!(dense.layers.iter().all(|l| l.suds.is_none()));
    assert!(dense
        .layers
        .iter()
        .all(|l| l.stalls.pipeline_bubble == 0 && l.stalls.tail_drain == 0));
}
