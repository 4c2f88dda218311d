//! Bit-identity of the word-parallel / batched hot-path kernels against
//! their scalar references.
//!
//! The hot-path overhaul rewrote the sparse substrate (whole-word
//! popcount/ctz iteration, funnel-shift windowing) and the fp16 datapath
//! (operands classified once, folded through the adder in batches)
//! strictly as *performance* changes: every kernel must produce exactly
//! the bytes its scalar predecessor produced. These properties pin that
//! contract — each test drives an optimized kernel and the obvious
//! per-element reference over the same inputs and requires equality, at
//! densities from empty to full, at widths that leave partial final
//! words and chunks, and over the full binary16 bit space (subnormals,
//! NaN, ±Inf, ±0, rounding boundaries).
//!
//! The final test closes the loop end to end: every architecture in the
//! registry renders a byte-identical `eureka simulate` report across
//! repeated runs, and the five architectures pinned by the committed
//! `results/BENCH_2.json` still report the exact cycle counts recorded
//! before the overhaul.

use eureka::fp16::arith::{self, Prepared};
use eureka::fp16::{csa, mac, MacUnit, F16};
use eureka::models::{Benchmark, PruningLevel, Workload};
use eureka::sim::{arch, engine, SimConfig, TileKey};
use eureka::sparse::bitmask::MaskedRow;
use eureka::sparse::canon::{self, RowOrder};
use eureka::sparse::rng::DetRng;
use eureka::sparse::{SparsityPattern, TilePattern};
use proptest::prelude::*;

/// A random pattern: `density` runs 0..=20 in 5% steps so the endpoints
/// hit exactly-empty and exactly-full masks.
fn pattern(rows: usize, cols: usize, density: u8, seed: u64) -> SparsityPattern {
    let mut rng = DetRng::new(seed);
    let d = f64::from(density) * 0.05;
    SparsityPattern::from_fn(rows, cols, |_, _| rng.bernoulli(d))
}

/// Scalar reference: the set columns of one row, by per-cell probing.
fn scalar_row_indices(p: &SparsityPattern, row: usize) -> Vec<usize> {
    (0..p.cols()).filter(|&c| p.get(row, c)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ------------------------------------------------------------------
    // Word-parallel sparsity kernels vs scalar references.
    // ------------------------------------------------------------------

    #[test]
    fn row_iteration_matches_scalar_scan(
        rows in 1usize..=8,
        cols in 1usize..=200, // crosses 64/128: partial final words
        density in 0u8..=20,
        seed in 0u64..1000,
    ) {
        let p = pattern(rows, cols, density, seed);
        for r in 0..rows {
            let reference = scalar_row_indices(&p, r);
            // The zero-allocation iterator...
            let iter = p.row_iter(r);
            prop_assert_eq!(iter.len(), reference.len(), "ExactSizeIterator len");
            prop_assert_eq!(iter.collect::<Vec<_>>(), reference.clone());
            // ...the internal-iteration form...
            let mut via_callback = Vec::new();
            p.for_each_set(r, |c| via_callback.push(c));
            prop_assert_eq!(via_callback, reference.clone());
            // ...the deprecated-in-spirit collect wrapper...
            prop_assert_eq!(p.row_indices(r), reference.clone());
            // ...and the raw words, bit by bit.
            let words = p.row_words(r);
            for c in 0..cols {
                prop_assert_eq!(
                    words[c / 64] >> (c % 64) & 1 == 1,
                    p.get(r, c),
                    "word bit {} of row {}", c, r
                );
            }
        }
    }

    #[test]
    fn window_matches_scalar_extraction(
        rows in 1usize..=8,
        cols in 1usize..=200,
        density in 0u8..=20,
        seed in 0u64..1000,
        origin_r in 0usize..8,
        origin_c in 0usize..200,
        out_rows in 1usize..=8,
        out_cols in 1usize..=70, // crosses 64: partial final word
    ) {
        let p = pattern(rows, cols, density, seed);
        let (r0, c0) = (origin_r % rows, origin_c % cols);
        let w = p.window(r0, c0, out_rows, out_cols).expect("origin in bounds");
        for r in 0..out_rows {
            for c in 0..out_cols {
                let expect =
                    r0 + r < rows && c0 + c < cols && p.get(r0 + r, c0 + c);
                prop_assert_eq!(w.get(r, c), expect, "window cell ({}, {})", r, c);
            }
        }
    }

    #[test]
    fn tile_extraction_matches_scalar(
        rows in 1usize..=12,
        cols in 1usize..=200,
        density in 0u8..=20,
        seed in 0u64..1000,
        origin_r in 0usize..12,
        origin_c in 0usize..200,
        p_dim in 1usize..=8,
        factor in 1usize..=8, // q = p·factor stays ≤ 64
    ) {
        let src = pattern(rows, cols, density, seed);
        let (r0, c0) = (origin_r % rows, origin_c % cols);
        let q = p_dim * factor;
        let tile = TilePattern::from_pattern(&src, r0, c0, p_dim, q)
            .expect("origin in bounds, q ≤ 64");
        for r in 0..p_dim {
            // Whole-row mask vs per-cell probing of the source.
            let mask = tile.row_mask(r);
            for c in 0..q {
                let expect =
                    r0 + r < rows && c0 + c < cols && src.get(r0 + r, c0 + c);
                prop_assert_eq!(mask >> c & 1 == 1, expect, "tile cell ({}, {})", r, c);
            }
            prop_assert_eq!(
                tile.row_iter(r).collect::<Vec<_>>(),
                tile.row_indices(r)
            );
        }
    }

    #[test]
    fn reset_from_rows_equals_from_rows(
        masks in prop::collection::vec(0u64..=u64::MAX, 1..=8),
        cols in 1usize..=64,
        density in 0u8..=20,
        seed in 0u64..1000,
    ) {
        let tail = if cols == 64 { u64::MAX } else { (1u64 << cols) - 1 };
        let masks: Vec<u64> = masks.iter().map(|m| m & tail).collect();
        let fresh = TilePattern::from_rows(&masks, cols).expect("masked to width");
        // Start the reused tile from unrelated content: stale state must
        // not leak through the in-place rebuild.
        let stale = pattern(4, 33, density, seed);
        let mut reused = TilePattern::from_pattern(&stale, 0, 0, 4, 33).expect("in bounds");
        reused.reset_from_rows(&masks, cols).expect("masked to width");
        prop_assert_eq!(&reused, &fresh);
    }

    #[test]
    fn masked_row_chunks_match_scalar_intersection(
        cols in 1usize..=200, // crosses 32/64: partial final chunks
        da in 0u8..=20,
        db in 0u8..=20,
        seed in 0u64..1000,
    ) {
        let a = pattern(1, cols, da, seed);
        let b = pattern(1, cols, db, seed.wrapping_add(0x9E37));
        let (ra, rb) = (MaskedRow::from_pattern(&a, 0), MaskedRow::from_pattern(&b, 0));
        let scalar: usize = (0..cols).filter(|&c| a.get(0, c) && b.get(0, c)).count();
        prop_assert_eq!(ra.total_matches(&rb), scalar, "whole-word popcount");
        prop_assert_eq!(
            ra.matches_per_chunk(&rb).iter().sum::<usize>(),
            scalar,
            "per-chunk counts sum to the total"
        );
        prop_assert_eq!(ra.nnz(), scalar_row_indices(&a, 0).len());
    }

    #[test]
    fn canon_into_matches_allocating_form(
        rows in 1usize..=8,
        cols in 1usize..=64,
        density in 0u8..=20,
        seed in 0u64..1000,
    ) {
        let src = pattern(rows, cols, density, seed);
        let tile = TilePattern::from_pattern(&src, 0, 0, rows, cols).expect("in bounds");
        let mut lens = vec![99; 3]; // stale content must be cleared
        let mut token = String::from("stale");
        for order in [RowOrder::Exact, RowOrder::Sorted] {
            canon::canonical_lens_into(&tile, order, &mut lens);
            prop_assert_eq!(&lens, &canon::canonical_lens(&tile, order));
            canon::lens_token_into(&lens, &mut token);
            prop_assert_eq!(&token, &canon::lens_token(&lens));
        }
    }

    #[test]
    fn tile_key_encode_into_matches_new(
        reach in 0u32..100,
        lens in prop::collection::vec(0usize..=64, 1..=8),
    ) {
        let tag = format!("ms{reach}");
        let token = canon::lens_token(&lens);
        let mut buf = String::from("stale");
        TileKey::encode_into(&tag, &token, &mut buf);
        prop_assert_eq!(buf.as_str(), TileKey::new(&tag, &token).as_str());
    }

    // ------------------------------------------------------------------
    // Batched fp16 datapath vs element-wise references. Raw-bit operand
    // generation covers ±0, subnormals, normals, ±Inf and NaNs.
    // ------------------------------------------------------------------

    #[test]
    fn mul_prepared_matches_mul_hw(a in 0u16..=u16::MAX, b in 0u16..=u16::MAX) {
        let (x, y) = (F16::from_bits(a), F16::from_bits(b));
        let prepared = arith::mul_prepared(Prepared::new(x), Prepared::new(y));
        prop_assert_eq!(prepared.to_bits(), x.mul_hw(y).to_bits());
    }

    #[test]
    fn dot_hw_matches_mac_unit_chain(
        pairs in prop::collection::vec((0u16..=u16::MAX, 0u16..=u16::MAX), 0..=48),
    ) {
        let a: Vec<F16> = pairs.iter().map(|&(x, _)| F16::from_bits(x)).collect();
        let b: Vec<F16> = pairs.iter().map(|&(_, y)| F16::from_bits(y)).collect();
        let ap: Vec<Prepared> = a.iter().map(|&x| Prepared::new(x)).collect();
        let bp: Vec<Prepared> = b.iter().map(|&y| Prepared::new(y)).collect();
        let mut unit = MacUnit::new();
        for (&x, &y) in a.iter().zip(&b) {
            unit.fma(x, y);
        }
        prop_assert_eq!(mac::dot_hw(&ap, &bp).to_bits(), unit.value().to_bits());
    }

    #[test]
    fn fma_slice_matches_elementwise_add3(
        lanes in prop::collection::vec(
            (0u16..=u16::MAX, 0u16..=u16::MAX, 0u16..=u16::MAX),
            1..=16,
        ),
    ) {
        let mut acc: Vec<F16> = lanes.iter().map(|&(a, ..)| F16::from_bits(a)).collect();
        let local: Vec<F16> = lanes.iter().map(|&(_, l, _)| F16::from_bits(l)).collect();
        let below: Vec<F16> = lanes.iter().map(|&(.., b)| F16::from_bits(b)).collect();
        let reference: Vec<u16> = lanes
            .iter()
            .map(|&(a, l, b)| {
                csa::add3(F16::from_bits(a), F16::from_bits(l), F16::from_bits(b)).to_bits()
            })
            .collect();
        mac::fma_slice(&mut acc, &local, &below);
        let batched: Vec<u16> = acc.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(batched, reference);
    }

    // ------------------------------------------------------------------
    // The integer-threshold Bernoulli behind every sampled draw:
    // `(next_u64() >> 11) < ⌈clamp(p)·2⁵³⌉` must equal the float compare
    // `next_f64() < clamp(p)` draw for draw, or sampled reports change
    // bytes.
    // ------------------------------------------------------------------

    #[test]
    fn integer_threshold_bernoulli_matches_f64_compare(
        kind in 0u8..4,
        bits in any::<u64>(),
        exp in 0u32..63,
        step in -1i8..=1,
        seed in 0u64..10_000,
    ) {
        let p = bernoulli_p(kind, bits, exp, step);
        let thr = DetRng::bernoulli_threshold(p);
        // The float oracle, written out.
        let below = |x: u64| x as f64 * (1.0 / (1u64 << 53) as f64) < p.clamp(0.0, 1.0);
        // Random draws rarely land next to the threshold, so probe the
        // 53-bit draws around it directly.
        for x in [thr.saturating_sub(1), thr, thr + 1] {
            let x = x.min((1u64 << 53) - 1);
            prop_assert_eq!(x < thr, below(x), "p = {:e}, x = {}", p, x);
        }
        let mut by_float = DetRng::new(seed);
        // The same through the real draws: aim a `q` at the next draw
        // itself and one ulp either side.
        let at = (by_float.clone().next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        for q in [at.next_down(), at, at.next_up()] {
            let oracle = by_float.clone().next_f64() < q.clamp(0.0, 1.0);
            prop_assert_eq!(by_float.clone().bernoulli(q), oracle, "q = {:e}", q);
            let q_thr = DetRng::bernoulli_threshold(q);
            prop_assert_eq!(by_float.clone().bernoulli_below(q_thr), oracle, "q = {:e}", q);
        }
        let (mut by_bernoulli, mut by_threshold) = (by_float.clone(), by_float.clone());
        for _ in 0..64 {
            let oracle = by_float.next_f64() < p.clamp(0.0, 1.0);
            prop_assert_eq!(by_bernoulli.bernoulli(p), oracle, "p = {:e}", p);
            prop_assert_eq!(by_threshold.bernoulli_below(thr), oracle, "p = {:e}", p);
        }
    }
}

/// A Bernoulli probability from one of four regimes, chosen by `kind`:
/// an arbitrary value in [−0.5, 1.5] (so clamping matters), exactly 0 or
/// 1, NaN, or a dyadic `j/2^exp` (`j < 2¹⁶`, so every binade down to
/// 2⁻⁶³ occurs) nudged `step` ulps (−1, 0, +1). Below ¼ such a neighbour
/// is no multiple of 2⁻⁵³, which is where a threshold rounded the wrong
/// way would show.
fn bernoulli_p(kind: u8, bits: u64, exp: u32, step: i8) -> f64 {
    match kind {
        0 => -0.5 + 2.0 * ((bits >> 11) as f64 / (1u64 << 53) as f64),
        1 => (bits & 1) as f64,
        2 => f64::NAN,
        _ => {
            let dyadic = (bits & 0xFFFF) as f64 / (1u64 << exp) as f64;
            match step {
                -1 => dyadic.next_down(),
                1 => dyadic.next_up(),
                _ => dyadic,
            }
        }
    }
}

/// Every binary16 special crossed with every special through the batched
/// multiplier: the proptest above reaches these regions statistically;
/// this pins them deterministically.
#[test]
fn mul_prepared_specials_cross_product() {
    const SPECIALS: [u16; 16] = [
        0x0000, // +0
        0x8000, // −0
        0x0001, // min subnormal
        0x8001, // −min subnormal
        0x03FF, // max subnormal
        0x0400, // min normal
        0x3BFF, // just under 1
        0x3C00, // 1
        0x3C01, // just over 1 (rounding boundary neighbor)
        0x7BFF, // max finite
        0xFBFF, // −max finite
        0x7C00, // +Inf
        0xFC00, // −Inf
        0x7C01, // signalling-pattern NaN
        0x7E00, // quiet NaN
        0xFE00, // −quiet NaN
    ];
    for &a in &SPECIALS {
        for &b in &SPECIALS {
            let (x, y) = (F16::from_bits(a), F16::from_bits(b));
            assert_eq!(
                arith::mul_prepared(Prepared::new(x), Prepared::new(y)).to_bits(),
                x.mul_hw(y).to_bits(),
                "mul_prepared({a:#06x}, {b:#06x})"
            );
        }
    }
}

/// End to end: every registry architecture renders a byte-identical
/// simulate report across independent runs, and the five architectures
/// recorded in `results/BENCH_2.json` (MobileNetV1, moderate pruning,
/// batch 32, fast sampling) still produce the exact pre-overhaul cycle
/// counts.
#[test]
fn simulate_reports_are_byte_identical_across_all_archs() {
    const PINNED: [(&str, u64); 5] = [
        ("dense", 774_467),
        ("ampere", 420_306),
        ("cnvlutin", 449_410),
        ("eureka-p2", 272_145),
        ("eureka-p4", 252_211),
    ];
    let w = Workload::new(Benchmark::MobileNetV1, PruningLevel::Moderate, 32);
    let cfg = SimConfig::fast();
    let names = arch::registry_names();
    assert_eq!(names.len(), 16, "registry arch count");
    for name in names {
        let first = engine::simulate(&*arch::by_name(name).unwrap(), &w, &cfg);
        let second = engine::simulate(&*arch::by_name(name).unwrap(), &w, &cfg);
        assert_eq!(
            first.to_csv(),
            second.to_csv(),
            "simulate report for {name} drifted between runs"
        );
        if let Some(&(_, cycles)) = PINNED.iter().find(|(n, _)| *n == name) {
            assert_eq!(
                first.total_cycles(),
                cycles,
                "{name} no longer matches the committed BENCH_2 cycle count"
            );
        }
    }
}
