//! Content-addressed caches for pipeline artifacts.
//!
//! Batch workloads re-submit the same programs over and over, so the
//! batch engine memoizes every pure pipeline stage: parse (keyed on the
//! source text), FT typecheck and bytecode lowering (both keyed on the
//! parsed term's canonical rendering, so differently formatted sources
//! of one program share them), and MiniF compile (keyed on the codegen
//! option byte + the source text). Evaluation is never cached — it is
//! the work a job asks for.
//!
//! Every stage goes through one path, keyed on full content (the same
//! bytes the disk tier stores as its key, so the cache can never serve
//! another program's artifact):
//!
//! ```text
//! memory probe (re-verified) → disk probe (decoded, verified) → compute (written through)
//! ```
//!
//! - A lock is held only for a map probe or insert, never while
//!   computing. Two workers racing on one cold key may both compute it
//!   (both count as misses; the artifacts are pure, so last insert wins
//!   harmlessly), which keeps `hits + misses == lookups`.
//! - Every load passes [`Artifact::verify`]: the lower stage re-runs
//!   the bytecode verifier on every memory hit. A failure is a *reject*,
//!   counted as a miss, and the stage recomputes.
//! - A cache opened [`with_store`](ArtifactCache::with_store) probes a
//!   [`DiskStore`] on memory misses. The store keeps its own counters
//!   ([`store_stats`](ArtifactCache::store_stats)) of the same
//!   [`StoreStats`] shape. A disk payload must decode (totally) and
//!   verify; otherwise the entry is deleted as a reject, so a corrupt
//!   store costs time, never correctness.
//! - Errors are returned, never cached or written through. A failed
//!   write-through is swallowed: the store is only a cache.

use std::collections::HashMap;
use std::convert::Infallible;
use std::sync::{Arc, Mutex};

use funtal::LoweredProgram;
use funtal_store::{DiskStore, StageCounters, StoreStats};
use funtal_syntax::span::SpanTable;
use funtal_syntax::{FExpr, FTy};

use crate::artifact::{self, Artifact};
use crate::report::CompiledMiniF;

/// The in-memory tier's counters, per stage: the same shape as the
/// disk tier's.
pub type CacheStats = StoreStats;

/// A cached parse artifact: the term plus its canonical rendering.
///
/// The rendering doubles as the typecheck stage's cache key, computed
/// once per distinct source at parse-miss time — so a warm `run` is
/// genuinely two map probes, with no per-request re-rendering of the
/// program.
#[derive(Debug)]
pub struct Parsed {
    /// The parsed term.
    pub expr: FExpr,
    /// Its canonical rendering (the typecheck cache key).
    pub check_key: String,
    /// Source spans of the term's heap labels, for profiled runs.
    pub spans: Arc<SpanTable>,
}

/// One stage's in-memory map, keyed on the store key bytes.
type Shard<V> = Mutex<HashMap<Vec<u8>, Arc<V>>>;

/// The shared content-addressed cache for parse, typecheck, lowering
/// and MiniF compile artifacts. Share one across every worker of a
/// batch via `Arc` (and across batches in `funtal serve`).
#[derive(Default)]
pub struct ArtifactCache {
    parse: Shard<Parsed>,
    check: Shard<FTy>,
    lower: Shard<LoweredProgram>,
    compile: Shard<CompiledMiniF>,
    counters: StageCounters,
    /// The persistent tier, probed on memory misses and written
    /// through on computes. `None` (the default) keeps the cache
    /// purely in-process.
    store: Option<Arc<DiskStore>>,
}

// Workers on every thread probe the cache concurrently.
const _: () = {
    const fn require_send_sync<T: Send + Sync>() {}
    require_send_sync::<ArtifactCache>();
};

impl ArtifactCache {
    /// A fresh, empty cache.
    pub fn new() -> ArtifactCache {
        ArtifactCache::default()
    }

    /// A fresh cache backed by a persistent [`DiskStore`]: memory
    /// misses probe the disk tier (verify-on-load) before computing,
    /// and computed artifacts are written through.
    pub fn with_store(store: Arc<DiskStore>) -> ArtifactCache {
        ArtifactCache {
            store: Some(store),
            ..ArtifactCache::default()
        }
    }

    /// The persistent tier, when one is configured.
    pub fn store(&self) -> Option<&Arc<DiskStore>> {
        self.store.as_ref()
    }

    /// A point-in-time copy of the disk-tier counters, when a store is
    /// configured.
    pub fn store_stats(&self) -> Option<StoreStats> {
        self.store.as_ref().map(|s| s.stats())
    }

    /// The one stage path: memory probe (re-verified) → disk probe →
    /// compute (written through). A failed compute is returned as is:
    /// nothing is cached or stored.
    fn cached<V: Artifact, E>(
        &self,
        map: &Shard<V>,
        key: &[u8],
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<Arc<V>, E> {
        let found = map.lock().expect("cache poisoned").get(key).cloned();
        if let Some(found) = found {
            if found.verify().is_ok() {
                self.counters.hit(V::STAGE);
                return Ok(found);
            }
            self.counters.reject(V::STAGE);
        }
        self.counters.miss(V::STAGE);
        let value = match self.disk_probe(key) {
            Some(value) => Arc::new(value),
            None => {
                let value = Arc::new(compute()?);
                self.disk_save(key, &*value);
                value
            }
        };
        map.lock()
            .expect("cache poisoned")
            .insert(key.to_vec(), value.clone());
        Ok(value)
    }

    /// Probes the disk tier (if any) for `key`, decoding and verifying
    /// the payload. One that fails either is a reject: the entry is
    /// deleted and the probe reports a (disk) miss.
    fn disk_probe<V: Artifact>(&self, key: &[u8]) -> Option<V> {
        let store = self.store.as_deref()?;
        let payload = store.load(V::STAGE, key)?;
        match V::decode(&payload).ok().filter(|v| v.verify().is_ok()) {
            Some(value) => {
                store.hit(V::STAGE);
                Some(value)
            }
            None => {
                store.reject(V::STAGE, key);
                None
            }
        }
    }

    /// Writes a computed artifact through to the disk tier (if any).
    /// Write failures are deliberately swallowed: the store is a
    /// cache, and a full or read-only disk must not fail the job.
    fn disk_save<V: Artifact>(&self, key: &[u8], value: &V) {
        if let Some(store) = &self.store {
            let _ = store.save(V::STAGE, key, &value.encode());
        }
    }

    /// The parse artifact for a source, from cache or `compute`. The
    /// artifact carries the term's canonical rendering, so downstream
    /// typecheck lookups ([`check_keyed`](ArtifactCache::check_keyed))
    /// never re-render on the warm path.
    pub fn parse<E>(
        &self,
        src: &str,
        compute: impl FnOnce() -> Result<(FExpr, SpanTable), E>,
    ) -> Result<Arc<Parsed>, E> {
        self.cached(&self.parse, src.as_bytes(), || {
            let (expr, spans) = compute()?;
            Ok(Parsed {
                check_key: expr.to_string(),
                expr,
                spans: Arc::new(spans),
            })
        })
    }

    /// The type of a term whose canonical rendering the caller already
    /// holds (a [`Parsed`] artifact's `check_key`): a warm lookup is a
    /// single map probe, no rendering, no allocation.
    pub fn check_keyed<E>(
        &self,
        check_key: &str,
        compute: impl FnOnce() -> Result<FTy, E>,
    ) -> Result<Arc<FTy>, E> {
        self.cached(&self.check, check_key.as_bytes(), compute)
    }

    /// The lowered bytecode artifact for a term whose canonical
    /// rendering the caller already holds (a [`Parsed`] artifact's
    /// `check_key`). Keyed like the typecheck stage, so differently
    /// formatted sources of one program share a single lowering, and a
    /// warm bytecode run skips register allocation and fusion
    /// entirely. Every load is re-checked by the bytecode verifier
    /// (see the module docs); verification is linear in the module and
    /// never runs inside the dispatch loop (see PERFORMANCE.md).
    pub fn lower_keyed(
        &self,
        check_key: &str,
        compute: impl FnOnce() -> LoweredProgram,
    ) -> Arc<LoweredProgram> {
        let Ok(lowered) =
            self.cached::<_, Infallible>(&self.lower, check_key.as_bytes(), || Ok(compute()));
        lowered
    }

    /// The compiled MiniF bundle for a source, from cache or `compute`.
    pub fn compile<E>(
        &self,
        src: &str,
        tail_call_opt: bool,
        compute: impl FnOnce() -> Result<CompiledMiniF, E>,
    ) -> Result<Arc<CompiledMiniF>, E> {
        let key = artifact::compile_key(src, tail_call_opt);
        self.cached(&self.compile, &key, compute)
    }

    /// A point-in-time copy of all counters.
    pub fn stats(&self) -> CacheStats {
        self.counters.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Pipeline;
    use funtal_store::{Stage, StageStats};

    #[test]
    fn hit_miss_accounting() {
        let cache = ArtifactCache::new();
        let parse = |src: &str| {
            cache.parse(src, || {
                Ok::<_, Infallible>((funtal_syntax::build::fint_e(1), SpanTable::default()))
            })
        };
        parse("1").unwrap();
        parse("1").unwrap();
        parse("2").unwrap();
        let s = cache.stats().parse;
        assert_eq!((s.hits, s.misses), (1, 2));
        assert_eq!(s.lookups(), 3);
    }

    #[test]
    fn errors_are_not_cached() {
        let cache = ArtifactCache::new();
        let r1: Result<_, String> = cache.parse("bad", || Err("nope".to_string()));
        assert!(r1.is_err());
        // The failed computation did not populate the cache.
        let r2 = cache.parse("bad", || {
            Ok::<_, String>((funtal_syntax::build::funit_e(), SpanTable::default()))
        });
        assert!(r2.is_ok());
        let s = cache.stats().parse;
        assert_eq!((s.hits, s.misses), (0, 2));
    }

    /// One lookup of `key` through a stage's public wrapper. With
    /// `fail` the compute closure fails, so `Ok` proves a cache hit —
    /// except on the lower stage, whose compute cannot fail and which
    /// ignores `fail`.
    type Lookup = fn(&ArtifactCache, &str, bool) -> Result<(), String>;

    fn computed<T>(fail: bool, ok: impl FnOnce() -> T) -> Result<T, String> {
        if fail {
            Err("compute failed".to_string())
        } else {
            Ok(ok())
        }
    }

    const FT_SRC: &str = "FT[int](mv r1, 6; mul r1, r1, 7; halt int, * {r1})";

    fn stages() -> [(Stage, &'static str, Lookup); 4] {
        [
            (Stage::Parse, FT_SRC, |c, key, fail| {
                c.parse(key, || {
                    computed(fail, || Pipeline::new().parse_spanned(key).unwrap())
                })
                .map(drop)
            }),
            (Stage::Check, FT_SRC, |c, key, fail| {
                c.check_keyed(key, || computed(fail, || FTy::Int)).map(drop)
            }),
            (Stage::Lower, FT_SRC, |c, key, _| {
                c.lower_keyed(key, || {
                    funtal::prelower(&Pipeline::new().parse(key).unwrap())
                });
                Ok(())
            }),
            (Stage::Compile, "fn f(n) = n + 1", |c, key, fail| {
                c.compile(key, false, || {
                    computed(fail, || Pipeline::new().compile_minif_source(key).unwrap())
                })
                .map(drop)
            }),
        ]
    }

    fn temp_store(stage: Stage) -> Arc<DiskStore> {
        let dir = std::env::temp_dir().join(format!(
            "funtal_cache_unit_{}_{}",
            std::process::id(),
            stage.dir()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        Arc::new(DiskStore::open(dir, 0).expect("open store"))
    }

    /// Asserts `stats` counts `hits`/`misses` on `stage` and nothing on
    /// any other stage.
    fn assert_only(stats: StoreStats, stage: Stage, hits: u64, misses: u64) {
        let on = |s| StageStats {
            hits: if s == stage { hits } else { 0 },
            misses: if s == stage { misses } else { 0 },
            rejects: 0,
        };
        assert_eq!(
            Stage::ALL.map(|s| stats.stage(s)),
            Stage::ALL.map(on),
            "{stage:?}"
        );
    }

    #[test]
    fn every_stage_caches_counts_and_writes_through() {
        for (stage, key, lookup) in stages() {
            let fallible = stage != Stage::Lower;
            for store in [None, Some(temp_store(stage))] {
                let cache = match &store {
                    Some(s) => ArtifactCache::with_store(s.clone()),
                    None => ArtifactCache::new(),
                };
                // A failed compute is returned, not cached, not stored.
                let failed = u64::from(fallible);
                if fallible {
                    assert!(lookup(&cache, key, true).is_err());
                    if let Some(s) = &store {
                        assert!(s.entries(stage).unwrap().is_empty(), "{stage:?}");
                    }
                }
                lookup(&cache, key, false).unwrap();
                lookup(&cache, key, true).expect("a warm lookup is a memory hit");
                assert_only(cache.stats(), stage, 1, failed + 1);
                let Some(store) = store else { continue };
                assert_eq!(store.entries(stage).unwrap().len(), 1, "{stage:?}");
                assert_only(store.stats(), stage, 0, failed + 1);
                // A new process over the same store: memory-cold,
                // disk-warm.
                let fresh = ArtifactCache::with_store(store.clone());
                lookup(&fresh, key, true).expect("a cold-memory lookup is a disk hit");
                assert_only(fresh.stats(), stage, 0, 1);
                assert_only(store.stats(), stage, 1, failed + 1);
                let _ = std::fs::remove_dir_all(store.root());
            }
        }
    }

    #[test]
    fn colliding_digests_cannot_alias_entries() {
        // Full-key maps: two sources are two entries, whatever a
        // digest of them would be. Both artifacts survive
        // independently.
        let cache = ArtifactCache::new();
        let a = funtal_syntax::build::fint_e(1);
        let b = funtal_syntax::build::fint_e(2);
        cache
            .parse("src-a", || {
                Ok::<_, Infallible>((a.clone(), SpanTable::default()))
            })
            .unwrap();
        cache
            .parse("src-b", || {
                Ok::<_, Infallible>((b.clone(), SpanTable::default()))
            })
            .unwrap();
        // A compute closure that fails proves the lookup was a hit.
        let got_a = cache.parse("src-a", || Err("expected a hit".to_string()));
        let got_b = cache.parse("src-b", || Err("expected a hit".to_string()));
        assert_eq!(got_a.unwrap().expr, a);
        assert_eq!(got_b.unwrap().expr, b);
    }

    #[test]
    fn corrupted_lower_artifacts_are_rejected_and_recomputed() {
        let cache = ArtifactCache::new();
        let e = funtal_parser::parse_fexpr(FT_SRC).unwrap();
        let key = e.to_string();
        cache.lower_keyed(&key, || funtal::prelower(&e)); // cold: miss
        cache.lower_keyed(&key, || funtal::prelower(&e)); // warm: verified hit

        // Poison the cached artifact with a module the verifier
        // rejects (an out-of-bounds block offset).
        let mut corrupted = funtal::prelower(&e);
        assert!(funtal::bc_verify::corrupt_for_tests(&mut corrupted));
        assert!(funtal::verify_lowered(&corrupted).is_err());
        cache
            .lower
            .lock()
            .unwrap()
            .insert(key.clone().into_bytes(), Arc::new(corrupted));
        // The next load rejects the poisoned entry and degrades to
        // re-lowering: the caller still gets a verified artifact.
        let reloaded = cache.lower_keyed(&key, || funtal::prelower(&e));
        assert!(funtal::verify_lowered(&reloaded).is_ok());
        let s = cache.stats().lower;
        assert_eq!((s.hits, s.misses, s.rejects), (1, 2, 1));
        // A reject counts as a miss: lookups stays hits + misses.
        assert_eq!(s.lookups(), 3);
        // The recomputed artifact replaced the poisoned one.
        let again = cache.lower_keyed(&key, || panic!("expected a verified hit"));
        assert!(funtal::verify_lowered(&again).is_ok());
        assert_eq!(cache.stats().lower.rejects, 1);
    }

    #[test]
    fn check_key_ignores_formatting() {
        // Differently formatted sources parse to one term: two parse
        // misses, one shared typecheck.
        let cache = ArtifactCache::new();
        let p = Pipeline::new();
        for src in ["1 + 2", "  1   +   2 "] {
            let parsed = cache.parse(src, || p.parse_spanned(src)).unwrap();
            cache
                .check_keyed(&parsed.check_key, || p.check(&parsed.expr))
                .unwrap();
        }
        let s = cache.stats();
        assert_eq!((s.parse.misses, s.check.misses, s.check.hits), (2, 1, 1));
    }
}
