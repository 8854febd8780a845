//! Serve-path benchmark for the FunTAL engine.
//!
//! ```text
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload cold_distinct --seed 1 --seconds 20 --trace 0
//! ```
//!
//! One client, closed loop: each job line is handed to the engine only
//! after the previous reply exists. Every reply is checked against a
//! reference worked out before timing starts. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` alternates untraced passes with
//! traced passes through the mirror in `engine.rs` and reports the
//! per-layer split. The last line of standard output is one JSON
//! object; a human summary goes to standard error. See README.md.

#![forbid(unsafe_code)]

mod engine;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use engine::{Engine, Layer, Spans};
use funtal_driver::DiskStore;
use workloads::{Kind, Workload};

/// The store size cap `funtal batch`/`serve` use by default
/// (`--store-cap`); every save enforces it.
const STORE_CAP: u64 = 256 * 1024 * 1024;

/// Reported latency percentile.
const TAIL_PERCENTILE: f64 = 99.0;

/// Peak memory is reset before the first timed pass and read after this
/// many passes, so it covers the same work on a fast machine and a slow
/// one (the engine's per-thread caches keep growing across passes until
/// they prune themselves).
const RSS_PASSES: usize = 8;

/// Fewest windows a run has. It reports the median over the half of
/// them the hypervisor stole least from.
const MIN_WINDOWS: usize = 3;

/// A run stops at a window boundary once its time is up, but never
/// before this much waiting: a pass that outlasts it is a stuck engine.
const MAX_RUN_SECONDS: f64 = 120.0;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Kind::from_name(&value).ok_or_else(|| {
                    format!("unknown workload `{value}` (one of {:?})", workloads::NAMES)
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_string());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Replies already checked against their reference, by position in the
/// pass: later passes compare bytes instead of re-parsing.
struct Checker {
    verified: Vec<Option<String>>,
    failures: Vec<String>,
}

impl Checker {
    fn check(&mut self, index: usize, req: &workloads::Request, reply: &str) -> bool {
        let verdict = match &self.verified[index] {
            Some(known) if known == reply => Ok(()),
            Some(known) => Err(format!("{}: reply changed from {known} to {reply}", req.id)),
            None => req.expect.check(&req.id, reply),
        };
        match verdict {
            Ok(()) => {
                self.verified[index].get_or_insert_with(|| reply.to_string());
                true
            }
            Err(e) => {
                self.failures.push(e);
                false
            }
        }
    }
}

/// What one pass measured.
struct Pass {
    setup_ns: u64,
    /// Per-request latency, in pass order.
    job_ns: Vec<u64>,
    /// From the end of set-up to the last reply, minus reply checking.
    serve_ns: u64,
    /// The machine's CPU ticks from the end of set-up to the last reply.
    ticks: stats::Ticks,
    correct: usize,
    /// Each reply and whether it checked out, if asked for.
    replies: Vec<(String, bool)>,
    /// Deterministic counts (traced passes).
    counts: BTreeMap<&'static str, u64>,
}

/// Runs one pass over `epochs`: set up an engine (timed), then serve
/// every request, restarting the engine memory-cold at each epoch
/// boundary. Replies are kept only if `keep_replies` is set.
fn run_pass(
    w: &Workload,
    epochs: Range<usize>,
    store_dir: Option<&Path>,
    spans: Option<&Spans>,
    keep_replies: bool,
    checker: &mut Checker,
) -> Result<Pass, String> {
    let setup = Instant::now();
    let store = match store_dir {
        Some(dir) => Some(Arc::new(
            DiskStore::open(dir, STORE_CAP).map_err(|e| format!("opening the store: {e}"))?,
        )),
        None => None,
    };
    let mut engine = Engine::start(store.clone());
    let warm: Vec<String> = w.warm.iter().map(|line| engine.serve(line)).collect();
    let setup_ns = setup.elapsed().as_nanos() as u64;
    if let Some(bad) = warm.iter().find(|r| !r.contains("\"ok\":true")) {
        return Err(format!("priming failed: {bad}"));
    }

    let store_base = store.as_ref().map(|s| s.stats());
    let mut cache_base = engine.cache().stats();
    let (mut hits, mut lookups) = (0u64, 0u64);
    let first = w.len(0..epochs.start);
    let mut pass = Pass {
        setup_ns,
        job_ns: Vec::with_capacity(w.len(epochs.clone())),
        serve_ns: 0,
        ticks: stats::Ticks::default(),
        correct: 0,
        replies: Vec::new(),
        counts: BTreeMap::new(),
    };
    let mut check_ns = 0u64;
    let ticks = stats::cpu_ticks()?;
    let start = Instant::now();
    for (epoch, requests) in w.epochs[epochs].iter().enumerate() {
        if epoch > 0 {
            engine = Engine::start(store.clone());
            cache_base = engine.cache().stats();
        }
        for req in requests {
            let t = Instant::now();
            let reply = match spans {
                None => {
                    let reply = engine.serve(&req.line);
                    pass.job_ns.push(t.elapsed().as_nanos() as u64);
                    reply
                }
                Some(sp) => {
                    sp.begin_job();
                    let (reply, decoded) = engine.mirror(&req.line, sp);
                    let ns = t.elapsed().as_nanos() as u64;
                    pass.job_ns.push(ns);
                    sp.settle(ns, decoded.as_ref());
                    reply
                }
            };
            let c = Instant::now();
            let ok = checker.check(first + pass.job_ns.len() - 1, req, &reply);
            pass.correct += usize::from(ok);
            if keep_replies {
                pass.replies.push((reply, ok));
            }
            check_ns += c.elapsed().as_nanos() as u64;
        }
        let s = engine.cache().stats();
        for (now, base) in [
            (s.parse, cache_base.parse),
            (s.check, cache_base.check),
            (s.lower, cache_base.lower),
            (s.compile, cache_base.compile),
        ] {
            hits += now.hits - base.hits;
            lookups += now.lookups() - base.lookups();
        }
    }
    pass.serve_ns = (start.elapsed().as_nanos() as u64).saturating_sub(check_ns);
    pass.ticks = stats::cpu_ticks()?.since(ticks);

    if let Some(sp) = spans {
        let c = &mut pass.counts;
        c.insert("parser.bytes", sp.parse_bytes.get());
        c.insert("parser.tokens", sp.parse_tokens.get());
        c.insert("core.check_calls", sp.calls(Layer::Check));
        c.insert("core.lower_calls", sp.calls(Layer::Lower));
        c.insert("core.verify_calls", sp.calls(Layer::Verify));
        c.insert("core.run_steps", sp.steps.get());
        c.insert("compile.blocks", sp.blocks.get());
        c.insert("compile.calls", sp.calls(Layer::Compile));
        c.insert("equiv.experiments", sp.experiments.get());
        c.insert("cache.hits", hits);
        c.insert("cache.lookups", lookups);
        if let (Some(store), Some(base)) = (&store, store_base) {
            let now = store.stats();
            let mut total = [0u64; 3];
            for stage in funtal_store::Stage::ALL {
                let (n, b) = (now.stage(stage), base.stage(stage));
                total[0] += n.hits - b.hits;
                total[1] += n.misses - b.misses;
                total[2] += n.rejects - b.rejects;
            }
            let bytes = store
                .all_entries()
                .map_err(|e| format!("listing the store: {e}"))?
                .iter()
                .map(|e| e.bytes)
                .sum();
            c.insert("store.hits", total[0]);
            c.insert("store.misses", total[1]);
            c.insert("store.rejects", total[2]);
            c.insert("store.bytes", bytes);
        }
    }
    Ok(pass)
}

/// The temporary directory the workload's store lives in, removed when
/// dropped.
struct StoreDir {
    path: PathBuf,
}

impl StoreDir {
    fn new() -> StoreDir {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(".store-tmp")
            .join(std::process::id().to_string());
        StoreDir { path }
    }

    /// The directory, emptied.
    fn fresh(&self) -> &Path {
        let _ = std::fs::remove_dir_all(&self.path);
        &self.path
    }
}

impl Drop for StoreDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        if let Some(parent) = self.path.parent() {
            // Only succeeds once no other run is using it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Everything a run measured.
struct Totals {
    attempted: usize,
    correct: usize,
    samples: usize,
    windows: stats::Windows,
    setups_s: Vec<f64>,
    peak_rss_mib: Option<f64>,
    untraced_job_ns: u64,
    traced_job_ns: u64,
    first_counts: Option<BTreeMap<&'static str, u64>>,
    nondeterministic: Vec<String>,
}

fn measure(args: &Args, w: &Workload) -> Result<(Totals, Checker, Spans), String> {
    let all = 0..w.epochs.len();
    let mut checker = Checker {
        verified: vec![None; w.len(all.clone())],
        failures: Vec::new(),
    };
    let spans = Spans::default();
    let store_dir = StoreDir::new();
    let uses_store = w.uses_store();
    // Untraced runs fill the store once, untimed, and time the restarts
    // over it; traced runs replay every epoch on a fresh store.
    let timed = if args.trace {
        all.clone()
    } else {
        w.filling_epochs..all.end
    };
    if timed.start > 0 {
        run_pass(
            w,
            0..timed.start,
            Some(store_dir.fresh()),
            None,
            false,
            &mut checker,
        )?;
    }
    stats::reset_peak_rss()?;
    let mut t = Totals {
        attempted: 0,
        correct: 0,
        samples: 0,
        windows: stats::Windows::new(TAIL_PERCENTILE),
        setups_s: Vec::new(),
        peak_rss_mib: None,
        untraced_job_ns: 0,
        traced_job_ns: 0,
        first_counts: None,
        nondeterministic: Vec::new(),
    };
    let start = Instant::now();
    loop {
        let dir = match (uses_store, args.trace) {
            (false, _) => None,
            (true, false) => Some(store_dir.path.as_path()),
            (true, true) => Some(store_dir.fresh()),
        };
        let pass = run_pass(w, timed.clone(), dir, None, args.trace, &mut checker)?;
        t.attempted += pass.job_ns.len();
        t.correct += pass.correct;
        t.setups_s.push(pass.setup_ns as f64 / 1e9);
        t.untraced_job_ns += pass.job_ns.iter().sum::<u64>();
        t.samples += pass.job_ns.len();
        t.windows.add(
            pass.job_ns.iter().map(|&ns| ns as f64 / 1e3),
            pass.correct,
            pass.serve_ns,
            pass.ticks,
        );
        if t.setups_s.len() == RSS_PASSES {
            t.peak_rss_mib = Some(stats::peak_rss_mib()?);
        }
        if args.trace {
            let pass_spans = Spans::default();
            let dir = uses_store.then(|| store_dir.fresh());
            let traced = run_pass(w, all.clone(), dir, Some(&pass_spans), true, &mut checker)?;
            spans.absorb(&pass_spans);
            t.attempted += traced.job_ns.len();
            t.correct += traced.correct;
            t.traced_job_ns += traced.job_ns.iter().sum::<u64>();
            for (i, ((a, _), (b, ok))) in pass.replies.iter().zip(&traced.replies).enumerate() {
                if a != b {
                    // A traced reply the checker already failed is not
                    // taken off twice.
                    t.correct -= usize::from(*ok);
                    checker.failures.push(format!(
                        "traced reply differs from run_job's for request {i}:\n  {a}\n  {b}"
                    ));
                }
            }
            match &t.first_counts {
                None => t.first_counts = Some(traced.counts),
                Some(first) if *first != traced.counts => t.nondeterministic.push(format!(
                    "counts differ between passes with the same seed:\n  {first:?}\n  {:?}",
                    traced.counts
                )),
                Some(_) => {}
            }
        }
        let elapsed = start.elapsed().as_secs_f64();
        let enough =
            args.trace || (t.windows.closed().len() >= MIN_WINDOWS && t.windows.at_boundary());
        if elapsed >= args.seconds && enough && t.setups_s.len() >= RSS_PASSES {
            break;
        }
        if elapsed > MAX_RUN_SECONDS {
            return Err(format!(
                "only {} windows after {elapsed:.0}s",
                t.windows.closed().len()
            ));
        }
    }
    Ok((t, checker, spans))
}

fn metric(name: &str, value: f64, unit: &str) -> String {
    assert!(value.is_finite(), "{name} is {value}");
    format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn end_to_end(t: &Totals) -> Result<Vec<String>, String> {
    let kept = t.windows.least_stolen();
    let over_windows =
        |f: fn(&stats::Window) -> f64| stats::median(&kept.iter().map(f).collect::<Vec<_>>());
    Ok(vec![
        metric("jobs_per_s", over_windows(|w| w.rate), "1/s"),
        metric("latency_p50_us", over_windows(|w| w.p50), "us"),
        metric("latency_p99_us", over_windows(|w| w.tail), "us"),
        metric("setup_s", stats::median(&t.setups_s), "s"),
        metric(
            "peak_rss_mib",
            t.peak_rss_mib
                .ok_or("too few passes for a memory reading")?,
            "MiB",
        ),
    ])
}

fn per_layer(t: &Totals, sp: &Spans) -> Vec<String> {
    let counts = t.first_counts.clone().unwrap_or_default();
    let count = |k: &str| counts.get(k).copied().unwrap_or(0);
    let jobs = sp.jobs.get().max(1) as f64;
    let us = |layer: Layer| sp.ns(layer) as f64 / 1e3 / jobs;
    let run_ns = sp.ns(Layer::RunEnv) + sp.ns(Layer::RunBc);
    let mut out = Vec::new();
    let mut put = |name: &str, value: f64, unit: &str| out.push(metric(name, value, unit));
    put("parser.parse_us", us(Layer::Parse), "us");
    put("parser.bytes", count("parser.bytes") as f64, "count");
    put("parser.tokens", count("parser.tokens") as f64, "count");
    put(
        "parser.ns_per_byte",
        ratio(sp.ns(Layer::Parse), sp.parse_bytes.get()),
        "ns/B",
    );
    put("core.check_us", us(Layer::Check), "us");
    put(
        "core.check_calls",
        count("core.check_calls") as f64,
        "count",
    );
    put(
        "core.check_ns_per_byte",
        ratio(sp.ns(Layer::Check), sp.check_bytes.get()),
        "ns/B",
    );
    put("core.lower_us", us(Layer::Lower), "us");
    put("core.verify_us", us(Layer::Verify), "us");
    put(
        "core.lower_calls",
        count("core.lower_calls") as f64,
        "count",
    );
    put(
        "core.verify_calls",
        count("core.verify_calls") as f64,
        "count",
    );
    put("core.run_env_us", us(Layer::RunEnv), "us");
    put("core.run_bc_us", us(Layer::RunBc), "us");
    put("core.run_steps", count("core.run_steps") as f64, "count");
    put(
        "core.run_ns_per_step",
        ratio(run_ns, sp.steps.get()),
        "ns/step",
    );
    put("compile.minif_us", us(Layer::Compile), "us");
    put("compile.blocks", count("compile.blocks") as f64, "count");
    put("compile.calls", count("compile.calls") as f64, "count");
    put("driver.decode_us", us(Layer::Decode), "us");
    put("driver.render_us", us(Layer::Render), "us");
    put("driver.cache_self_us", us(Layer::CacheSelf), "us");
    put(
        "driver.cache_hit_ratio",
        ratio(count("cache.hits"), count("cache.lookups")),
        "ratio",
    );
    put("store.load_us", us(Layer::StoreLoad), "us");
    put("store.save_us", us(Layer::StoreSave), "us");
    put("store.hits", count("store.hits") as f64, "count");
    put("store.misses", count("store.misses") as f64, "count");
    put("store.rejects", count("store.rejects") as f64, "count");
    put("store.bytes", count("store.bytes") as f64, "B");
    put("equiv.verdict_us", us(Layer::Equiv), "us");
    put(
        "equiv.experiments",
        count("equiv.experiments") as f64,
        "count",
    );
    put(
        "driver.unattributed_us",
        sp.unattributed_ns.get() as f64 / 1e3 / jobs,
        "us",
    );
    put(
        "trace.overhead_frac",
        ratio(t.traced_job_ns, t.untraced_job_ns),
        "ratio",
    );
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            eprintln!(
                "usage: servebench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                workloads::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let result =
        workloads::generate(args.kind, args.seed).and_then(|w| measure(&args, &w).map(|m| (w, m)));
    let (w, (t, checker, spans)) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::from(1);
        }
    };
    let metrics = if args.trace {
        Ok(per_layer(&t, &spans))
    } else {
        end_to_end(&t)
    };
    let metrics = match metrics {
        Ok(m) => m,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::from(1);
        }
    };
    let failed = t.attempted - t.correct;
    for f in checker.failures.iter().chain(&t.nondeterministic).take(10) {
        eprintln!("servebench: FAIL {f}");
    }
    let correct = checker.failures.is_empty() && t.nondeterministic.is_empty();
    eprintln!(
        "servebench: {} seed {} trace {}: {} attempted over {} passes, failed_frac {}, \
         {} latency samples in {} windows of at least {} (so {} beyond each p99)",
        w.kind.name(),
        args.seed,
        args.trace as u8,
        t.attempted,
        t.setups_s.len(),
        ratio(failed as u64, t.attempted as u64),
        t.samples,
        t.windows.closed().len(),
        stats::min_samples(TAIL_PERCENTILE),
        stats::MIN_BEYOND,
    );
    let steal = |ws: &[stats::Window]| {
        let pct: Vec<f64> = ws.iter().map(|w| w.steal * 100.0).collect();
        let (lo, hi) = pct.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &p| {
            (lo.min(p), hi.max(p))
        });
        format!("{lo:.1}–{hi:.1} %")
    };
    if !args.trace {
        eprintln!(
            "servebench: figures are medians over the {} least-stolen windows (steal {} of \
             the machine's CPU time; all windows {})",
            t.windows.least_stolen().len(),
            steal(&t.windows.least_stolen()),
            steal(t.windows.closed()),
        );
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        t.attempted,
        metrics.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
