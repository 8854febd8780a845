//! The T checker's cost is linear in the program it checks: a large
//! `salloc` frame checks quickly, and a block chain four times longer
//! costs about four times as much, not the sixteen times a quadratic
//! checker would. Lowering is linear too, past the size where the
//! per-thread block memos fill.

use std::time::{Duration, Instant};

use funtal_syntax::build::{boundary, fint, int};
use funtal_syntax::TComp;
use funtal_tal::check::check_program;

#[path = "../benches/shared/programs.rs"]
mod programs;

/// The fastest of `runs` checks of `prog` (the minimum filters out
/// scheduler noise, which only ever adds time).
fn best_check_time(prog: &TComp, runs: usize) -> Duration {
    (0..runs)
        .map(|_| {
            let t = Instant::now();
            check_program(prog, &int()).expect("program checks");
            t.elapsed()
        })
        .min()
        .expect("at least one run")
}

#[test]
fn hundred_thousand_cell_frame_checks_quickly() {
    // mv r1, 7; salloc 100000; sst 0, r1; sst 99999, r1; …; sfree 100000; halt
    let prog = programs::frame(100_000);
    let took = best_check_time(&prog, 1);
    assert!(
        took < Duration::from_secs(5),
        "checking a 100000-cell frame took {took:?}"
    );
}

#[test]
fn block_chain_check_time_is_linear() {
    let small = programs::block_chain(128);
    let large = programs::block_chain(512);
    // Warm up allocator and caches before timing either size.
    best_check_time(&small, 3);
    let t_small = best_check_time(&small, 15);
    let t_large = best_check_time(&large, 15);
    let ratio = t_large.as_secs_f64() / t_small.as_secs_f64();
    // Linear cost gives 4x; the per-block cost still creeps up a few
    // percent with size (larger maps, colder caches), so a linear
    // checker measures 4.1-4.5x. 6x leaves room for that and for noise
    // while staying far below the 16x of a quadratic checker.
    assert!(
        ratio < 6.0,
        "512 blocks took {t_large:?}, {ratio:.2}x the {t_small:?} of 128 blocks"
    );
}

/// One `prelower` of an `n`-block chain behind a boundary. Every call
/// builds a fresh chain, so no memo entry keyed by an earlier run's
/// blocks can serve it.
fn prelower_time(n: usize) -> Duration {
    let e = boundary(fint(), programs::block_chain(n));
    let t = Instant::now();
    let lowered = funtal::prelower(&e);
    let took = t.elapsed();
    drop(lowered);
    took
}

#[test]
fn prelower_time_is_linear_past_the_memo_capacity() {
    // 8192 blocks is twice the 4096 entries at which the per-thread
    // free-variable memo sweeps itself; a sweep per insert once the
    // memo is full of live blocks made this size quadratic (~100x).
    prelower_time(2048);
    prelower_time(8192);
    // Each ratio compares two back-to-back runs, which share the
    // host's momentary speed; the median drops outlier pairs.
    let mut ratios: Vec<f64> = (0..7)
        .map(|_| {
            let small = prelower_time(2048);
            prelower_time(8192).as_secs_f64() / small.as_secs_f64()
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    let median = ratios[ratios.len() / 2];
    // Linear cost gives 4x; larger maps and colder caches add up to
    // ~1.3x more per block at the larger size.
    assert!(
        median < 6.0,
        "8192 blocks took a median {median:.2}x the time of 2048 blocks: {ratios:.2?}"
    );
}
