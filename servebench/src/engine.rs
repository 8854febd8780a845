//! The engine under test, driven the way `funtal serve` drives it, and
//! a traced mirror of the same request path.
//!
//! [`Engine::serve`] is the untraced path: `Json::parse` →
//! `Job::from_json` → `Batch::run_job` → `JobOutcome::to_json()` →
//! string. (`equiv` lines, which `serve` has no command for, go through
//! `Pipeline::equiv_source` instead.)
//!
//! [`Engine::mirror`] repeats `Batch::execute` stage by stage through
//! public calls, timing each call from outside as a span named after
//! the crate it enters. It hands timed compute closures to
//! `ArtifactCache`, so a cache call's self time (its span minus the
//! compute span inside it) is the probe, key rendering and disk work.
//! Its replies must equal [`Engine::serve`]'s byte for byte; the
//! caller checks that on every request, so a drift between this mirror
//! and the engine fails the run.

use std::cell::{Cell, RefCell};
use std::sync::Arc;
use std::time::Instant;

use funtal::machine::{EvalStrategy, FtOutcome};
use funtal::LoweredProgram;
use funtal_compile::codegen::CodegenOpts;
use funtal_driver::cache::Parsed;
use funtal_driver::json::{obj, Json};
use funtal_driver::{
    ArtifactCache, Batch, CacheStats, DiskStore, FunTalError, Job, JobKind, JobOutcome, JobSuccess,
    Pipeline,
};
use funtal_equiv::Verdict;
use funtal_store::Stage;
use funtal_syntax::build::{app, fint_e};
use funtal_syntax::{FExpr, FTy};

/// A decoded request line.
pub enum Decoded {
    /// A batch/serve job.
    Job(Job),
    /// An equivalence query.
    Equiv {
        /// Echoed in the reply.
        id: String,
        /// FT source of the left operand.
        lhs: String,
        /// FT source of the right operand.
        rhs: String,
    },
}

fn decode(line: &str) -> Result<Decoded, FunTalError> {
    let v = Json::parse(line).map_err(|e| FunTalError::driver(format!("bad job line: {e}")))?;
    if v.get("cmd").and_then(Json::as_str) == Some("equiv") {
        let field = |k: &str| {
            v.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| FunTalError::driver(format!("equiv job: needs a string `{k}`")))
        };
        return Ok(Decoded::Equiv {
            id: field("id")?,
            lhs: field("lhs")?,
            rhs: field("rhs")?,
        });
    }
    Ok(Decoded::Job(Job::from_json(&v, "job")?))
}

/// The reply to a line that did not decode, as `funtal serve` words it.
fn rejected(e: FunTalError) -> String {
    JobOutcome {
        id: "job".to_string(),
        cmd: "serve",
        result: Err(e),
    }
    .to_json()
    .to_string()
}

fn equiv_reply(id: &str, result: Result<(FTy, Verdict), FunTalError>) -> String {
    let mut fields = vec![
        ("id", Json::Str(id.to_string())),
        ("cmd", Json::Str("equiv".to_string())),
        ("ok", Json::Bool(result.is_ok())),
    ];
    match result {
        Ok((ty, verdict)) => {
            fields.push(("type", Json::Str(ty.to_string())));
            fields.push(("equivalent", Json::Bool(verdict.is_equiv())));
            fields.push(("verdict", Json::Str(verdict.to_string())));
        }
        Err(e) => {
            fields.push(("stage", Json::Str(e.stage().to_string())));
            fields.push(("error", Json::Str(e.to_string())));
        }
    }
    obj(fields).to_string()
}

/// A serving engine: the batch engine over one cache, and the pipeline
/// configuration it was built with.
pub struct Engine {
    batch: Batch,
    pipeline: Pipeline,
}

impl Engine {
    /// A fresh engine with the CLI's defaults, over a store if given.
    pub fn start(store: Option<Arc<DiskStore>>) -> Engine {
        let pipeline = Pipeline::new();
        let cache = match store {
            Some(s) => ArtifactCache::with_store(s),
            None => ArtifactCache::new(),
        };
        Engine {
            batch: Batch::new(pipeline.clone()).with_cache(Arc::new(cache)),
            pipeline,
        }
    }

    /// The engine's artifact cache.
    pub fn cache(&self) -> &ArtifactCache {
        self.batch.cache()
    }

    /// Serves one line untraced.
    pub fn serve(&self, line: &str) -> String {
        match decode(line) {
            Ok(Decoded::Job(job)) => self.batch.run_job(&job).to_json().to_string(),
            Ok(Decoded::Equiv { id, lhs, rhs }) => {
                equiv_reply(&id, self.pipeline.equiv_source(&lhs, &rhs))
            }
            Err(e) => rejected(e),
        }
    }

    /// Serves one line through the traced mirror. Returns the reply and
    /// the decoded request, for [`Spans::settle`].
    pub fn mirror(&self, line: &str, sp: &Spans) -> (String, Option<Decoded>) {
        let decoded = match sp.time(Layer::Decode, || decode(line)) {
            Ok(d) => d,
            Err(e) => return (sp.time(Layer::Render, || rejected(e)), None),
        };
        let reply = match &decoded {
            Decoded::Job(job) => {
                let result = self.execute(&job.kind, sp);
                sp.time(Layer::Render, || {
                    JobOutcome {
                        id: job.id.clone(),
                        cmd: cmd_name(&job.kind),
                        result,
                    }
                    .to_json()
                    .to_string()
                })
            }
            Decoded::Equiv { id, lhs, rhs } => {
                let result = (|| {
                    let l = sp.time(Layer::Parse, || self.pipeline.parse(lhs))?;
                    let r = sp.time(Layer::Parse, || self.pipeline.parse(rhs))?;
                    let verdict = sp.time(Layer::Equiv, || self.pipeline.equiv(&l, &r))?;
                    if let Verdict::NoDifferenceFound { experiments } = &verdict.1 {
                        sp.experiments
                            .set(sp.experiments.get() + *experiments as u64);
                    }
                    Ok(verdict)
                })();
                sp.time(Layer::Render, || equiv_reply(id, result))
            }
        };
        (reply, Some(decoded))
    }

    /// `Batch::execute`, call for call.
    fn execute(&self, kind: &JobKind, sp: &Spans) -> Result<JobSuccess, FunTalError> {
        let cache = self.cache();
        match kind {
            JobKind::Check { src } => {
                let (_, ty) = self.parse_and_check(src, sp)?;
                Ok(JobSuccess::Checked { ty: ty.to_string() })
            }
            JobKind::Run {
                src,
                fuel,
                tier,
                profile,
            } => {
                assert!(!profile, "no workload sends profiled jobs");
                let (parsed, ty) = self.parse_and_check(src, sp)?;
                let mut pipeline = self.pipeline.clone();
                if let Some(f) = fuel {
                    pipeline = pipeline.with_fuel(*f);
                }
                if let Some(t) = tier {
                    pipeline = pipeline.with_tier(*t);
                }
                let bytecode = pipeline.tier() == EvalStrategy::Bytecode;
                let lowered = bytecode.then(|| {
                    let (lowered, served) = sp.cache_call(cache, Stage::Lower, || {
                        cache.lower_keyed(&parsed.check_key, || {
                            sp.time(Layer::Lower, || funtal::prelower(&parsed.expr))
                        })
                    });
                    if served != Served::Computed {
                        sp.pending_verify
                            .borrow_mut()
                            .push((lowered.clone(), served == Served::Disk));
                    }
                    lowered
                });
                let ty = (*ty).clone();
                let report = match &lowered {
                    Some(lowered) => {
                        sp.time(Layer::RunBc, || pipeline.run_prelowered(lowered, ty))?
                    }
                    None => sp.time(Layer::RunEnv, || pipeline.run_prechecked(&parsed.expr, ty))?,
                };
                sp.steps.set(sp.steps.get() + report.counts.total_steps());
                if matches!(report.outcome, FtOutcome::OutOfFuel) {
                    return Err(FunTalError::OutOfFuel {
                        fuel: pipeline.fuel(),
                    });
                }
                Ok(JobSuccess::Ran {
                    ty: report.ty.to_string(),
                    outcome: report.outcome,
                    counts: report.counts,
                    profile: None,
                })
            }
            JobKind::Compile { src, tco, call } => {
                let (bundle, _) = sp.cache_call(cache, Stage::Compile, || {
                    cache.compile(src, *tco, || {
                        let bundle = sp.time(Layer::Compile, || {
                            self.pipeline
                                .clone()
                                .with_codegen(CodegenOpts {
                                    tail_call_opt: *tco,
                                })
                                .compile_minif_source(src)
                        });
                        if let Ok(b) = &bundle {
                            sp.blocks.set(sp.blocks.get() + b.block_count() as u64);
                        }
                        bundle
                    })
                });
                let bundle = bundle?;
                let call = match call {
                    None => None,
                    Some((name, args)) => {
                        // `Pipeline::run_compiled` is `check` + run on
                        // the applied wrapper; split so each is timed.
                        let f = bundle.wrapped_fexpr(name).ok_or_else(|| {
                            FunTalError::driver(format!("no definition named `{name}`"))
                        })?;
                        let applied = app(f.clone(), args.iter().map(|n| fint_e(*n)).collect());
                        let ty = sp.time(Layer::Check, || self.pipeline.check(&applied))?;
                        let run_layer = match self.pipeline.tier() {
                            EvalStrategy::Bytecode => Layer::RunBc,
                            _ => Layer::RunEnv,
                        };
                        let report =
                            sp.time(run_layer, || self.pipeline.run_prechecked(&applied, ty))?;
                        sp.steps.set(sp.steps.get() + report.counts.total_steps());
                        let value = report.value()?.to_string();
                        sp.pending_sizes.borrow_mut().push(applied);
                        Some((name.clone(), args.clone(), value))
                    }
                };
                Ok(JobSuccess::Compiled {
                    defs: bundle
                        .wrapped
                        .iter()
                        .map(|(name, _, ty)| (name.clone(), ty.to_string()))
                        .collect(),
                    blocks: bundle.block_count(),
                    call,
                })
            }
            JobKind::Invalid { stage, message } => Err(FunTalError::BadJob {
                stage,
                message: message.clone(),
            }),
        }
    }

    fn parse_and_check(
        &self,
        src: &str,
        sp: &Spans,
    ) -> Result<(Arc<Parsed>, Arc<FTy>), FunTalError> {
        let cache = self.cache();
        let (parsed, _) = sp.cache_call(cache, Stage::Parse, || {
            cache.parse(src, || {
                sp.lex_source.set(true);
                sp.time(Layer::Parse, || self.pipeline.parse_spanned(src))
            })
        });
        let parsed = parsed?;
        let (ty, _) = sp.cache_call(cache, Stage::Check, || {
            cache.check_keyed(&parsed.check_key, || {
                sp.check_bytes
                    .set(sp.check_bytes.get() + parsed.check_key.len() as u64);
                sp.time(Layer::Check, || self.pipeline.check(&parsed.expr))
            })
        });
        Ok((parsed, ty?))
    }
}

/// `JobKind`'s command name, as replies echo it.
fn cmd_name(kind: &JobKind) -> &'static str {
    match kind {
        JobKind::Check { .. } => "check",
        JobKind::Run { .. } => "run",
        JobKind::Compile { .. } => "compile",
        JobKind::Invalid { .. } => "invalid",
    }
}

/// A span's layer. Names follow the crate whose function is called.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `Json::parse` + `Job::from_json` (driver).
    Decode,
    /// `JobOutcome::to_json().to_string()` (driver).
    Render,
    /// `Pipeline::parse_spanned` / `Pipeline::parse` (parser).
    Parse,
    /// `Pipeline::check` (core, with T checking inside).
    Check,
    /// `funtal::prelower` (core).
    Lower,
    /// `funtal::verify_lowered` (core).
    Verify,
    /// `Pipeline::run_prechecked` (core, environment machine).
    RunEnv,
    /// `Pipeline::run_prelowered` (core, bytecode VM).
    RunBc,
    /// `Pipeline::compile_minif_source` (compile).
    Compile,
    /// `Pipeline::equiv` (equiv).
    Equiv,
    /// `ArtifactCache` self time: probe, key rendering, disk (driver).
    CacheSelf,
    /// Cache self time of lookups served from disk (store).
    StoreLoad,
    /// Cache self time of lookups that computed and wrote through (store).
    StoreSave,
}

const LAYERS: usize = 13;

/// Where a cache lookup was answered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Served {
    /// The in-process map.
    Memory,
    /// The persistent store (loaded and verified).
    Disk,
    /// Neither: the compute closure ran.
    Computed,
}

fn memory_hits(s: &CacheStats, stage: Stage) -> u64 {
    match stage {
        Stage::Parse => s.parse.hits,
        Stage::Check => s.check.hits,
        Stage::Lower => s.lower.hits,
        Stage::Compile => s.compile.hits,
    }
}

/// Span and count accumulators for traced passes.
#[derive(Default)]
pub struct Spans {
    ns: [Cell<u64>; LAYERS],
    calls: [Cell<u64>; LAYERS],
    depth: Cell<u32>,
    /// Top-level span time inside the current job.
    covered: Cell<u64>,
    /// Running total of depth-1 span time (children of a cache call).
    child: Cell<u64>,
    /// Job time no span covered.
    pub unattributed_ns: Cell<u64>,
    /// Traced jobs settled.
    pub jobs: Cell<u64>,
    /// Bytes the FT parser read.
    pub parse_bytes: Cell<u64>,
    /// Tokens in those bytes.
    pub parse_tokens: Cell<u64>,
    /// Rendered bytes of the terms `Pipeline::check` was given.
    pub check_bytes: Cell<u64>,
    /// Machine steps run.
    pub steps: Cell<u64>,
    /// T blocks produced by MiniF compiles.
    pub blocks: Cell<u64>,
    /// Experiments of equivalent verdicts.
    pub experiments: Cell<u64>,
    lex_source: Cell<bool>,
    pending_verify: RefCell<Vec<(Arc<LoweredProgram>, bool)>>,
    pending_sizes: RefCell<Vec<FExpr>>,
}

impl Spans {
    fn timed<R>(&self, f: impl FnOnce() -> R) -> (R, u64) {
        let depth = self.depth.get();
        self.depth.set(depth + 1);
        let start = Instant::now();
        let r = f();
        let ns = start.elapsed().as_nanos() as u64;
        self.depth.set(depth);
        match depth {
            0 => self.covered.set(self.covered.get() + ns),
            1 => self.child.set(self.child.get() + ns),
            _ => {}
        }
        (r, ns)
    }

    fn add(&self, layer: Layer, ns: u64) {
        let i = layer as usize;
        self.ns[i].set(self.ns[i].get() + ns);
        self.calls[i].set(self.calls[i].get() + 1);
    }

    fn time<R>(&self, layer: Layer, f: impl FnOnce() -> R) -> R {
        let (r, ns) = self.timed(f);
        self.add(layer, ns);
        r
    }

    /// Times one `ArtifactCache` call and books its self time.
    fn cache_call<R>(
        &self,
        cache: &ArtifactCache,
        stage: Stage,
        f: impl FnOnce() -> R,
    ) -> (R, Served) {
        let mem0 = memory_hits(&cache.stats(), stage);
        let disk0 = cache.store_stats().map(|s| s.stage(stage).hits);
        let child0 = self.child.get();
        let (r, ns) = self.timed(f);
        let own = ns.saturating_sub(self.child.get() - child0);
        let served = if memory_hits(&cache.stats(), stage) > mem0 {
            Served::Memory
        } else if cache.store_stats().map(|s| s.stage(stage).hits) > disk0 {
            Served::Disk
        } else {
            Served::Computed
        };
        self.add(Layer::CacheSelf, own);
        match served {
            Served::Disk => self.add(Layer::StoreLoad, own),
            Served::Computed if cache.store().is_some() => self.add(Layer::StoreSave, own),
            _ => {}
        }
        (r, served)
    }

    /// Marks the start of a job.
    pub fn begin_job(&self) {
        self.covered.set(0);
        self.lex_source.set(false);
    }

    /// Books a finished job of `job_ns`, then does the job's deferred
    /// measurements, outside its time: token counts, term sizes, and
    /// the `verify_lowered` calls that cache hits made. Those run
    /// inside `ArtifactCache`, out of the tracer's reach, so each is
    /// timed by re-running it on the served artifact and moved from
    /// the cache's self time to the verify layer.
    pub fn settle(&self, job_ns: u64, decoded: Option<&Decoded>) {
        self.jobs.set(self.jobs.get() + 1);
        let covered = self.covered.get();
        self.unattributed_ns
            .set(self.unattributed_ns.get() + job_ns.saturating_sub(covered));
        let mut lexed: Vec<&str> = Vec::new();
        match decoded {
            Some(Decoded::Job(Job {
                kind: JobKind::Run { src, .. } | JobKind::Check { src },
                ..
            })) if self.lex_source.get() => lexed.push(src),
            Some(Decoded::Equiv { lhs, rhs, .. }) => lexed.extend([lhs.as_str(), rhs.as_str()]),
            _ => {}
        }
        for src in lexed {
            self.parse_bytes
                .set(self.parse_bytes.get() + src.len() as u64);
            let tokens = funtal_parser::lex(src).map_or(0, |t| t.len() as u64);
            self.parse_tokens.set(self.parse_tokens.get() + tokens);
        }
        for e in self.pending_sizes.borrow_mut().drain(..) {
            self.check_bytes
                .set(self.check_bytes.get() + e.to_string().len() as u64);
        }
        for (lowered, disk) in self.pending_verify.borrow_mut().drain(..) {
            let start = Instant::now();
            let ok = funtal::verify_lowered(&lowered).is_ok();
            let ns = start.elapsed().as_nanos() as u64;
            assert!(ok, "a served lowering failed verification");
            self.add(Layer::Verify, ns);
            let self_ns = &self.ns[Layer::CacheSelf as usize];
            self_ns.set(self_ns.get().saturating_sub(ns));
            if disk {
                let load = &self.ns[Layer::StoreLoad as usize];
                load.set(load.get().saturating_sub(ns));
            }
        }
    }

    /// Adds another pass's spans and counts into this one.
    pub fn absorb(&self, other: &Spans) {
        let add = |a: &Cell<u64>, b: &Cell<u64>| a.set(a.get() + b.get());
        for i in 0..LAYERS {
            add(&self.ns[i], &other.ns[i]);
            add(&self.calls[i], &other.calls[i]);
        }
        for (a, b) in [
            (&self.unattributed_ns, &other.unattributed_ns),
            (&self.jobs, &other.jobs),
            (&self.parse_bytes, &other.parse_bytes),
            (&self.parse_tokens, &other.parse_tokens),
            (&self.check_bytes, &other.check_bytes),
            (&self.steps, &other.steps),
            (&self.blocks, &other.blocks),
            (&self.experiments, &other.experiments),
        ] {
            add(a, b);
        }
    }

    /// Total nanoseconds booked to a layer.
    pub fn ns(&self, layer: Layer) -> u64 {
        self.ns[layer as usize].get()
    }

    /// Calls booked to a layer.
    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer as usize].get()
    }
}
