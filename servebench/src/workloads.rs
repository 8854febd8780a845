//! The two workloads: job lines generated from a seed, each with the
//! reply it must produce, worked out before any timing by means that
//! share no execution code with the engine under test.
//!
//! - FT `run` jobs: the Fig 8 Substitution machine computes the value
//!   and step count; the type is the generator's own claim
//!   (`GenProgram.ty`) or, for the hand-written templates, `int`.
//! - MiniF `compile` + `call` jobs: native Rust arithmetic.
//! - `equiv` pairs: the verdict is known by construction.
//!
//! Composition is fixed per workload (how many jobs of each class, and
//! the Zipf rank of each hot program); the seed picks the programs'
//! constants and the request order. That keeps the cost of a pass
//! comparable across seeds while no two seeds send the same inputs.

use std::collections::{BTreeMap, HashSet};

use funtal::machine::{run_fexpr, EvalStrategy, FtOutcome, RunCfg};
use funtal_compile::codegen::{compile_program, CodegenOpts};
use funtal_compile::femit::def_to_fexpr;
use funtal_driver::json::{obj, Json};
use funtal_equiv::gen::{gen_program, SplitMix};
use funtal_syntax::build::{app, fadd, fint, fint_e, lam, var};
use funtal_syntax::FExpr;
use funtal_tal::trace::CountTracer;

/// Fuel of the engine's default pipeline (`Pipeline::new()`), which the
/// oracle runs under too, so a program that fits one fits the other.
const FUEL: u64 = 1_000_000;

/// The workload names, as `--workload` takes them, in `Kind` order.
pub const NAMES: [&str; 2] = ["cold_distinct", "hot_repeat"];

/// Which workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Every request a new program on a fresh engine: front-end bound.
    ColdDistinct,
    /// Sixteen programs under Zipf skew on an engine restarted over a
    /// persistent store: run bound.
    HotRepeat,
}

impl Kind {
    /// Parses a `--workload` name.
    pub fn from_name(name: &str) -> Option<Kind> {
        [Kind::ColdDistinct, Kind::HotRepeat]
            .into_iter()
            .find(|k| k.name() == name)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        NAMES[self as usize]
    }
}

/// What a reply must say.
#[derive(Clone, Debug, PartialEq)]
pub enum Expect {
    /// An FT `run`: rendered type, rendered value, total steps.
    Run {
        /// The program's type.
        ty: String,
        /// Its value.
        value: String,
        /// Machine steps (T instructions plus F steps).
        steps: i64,
    },
    /// A MiniF `compile` whose `call` returns this integer.
    Call {
        /// The call's value.
        value: i64,
    },
    /// An `equiv` pair with this verdict.
    Verdict {
        /// Whether the pair is equivalent.
        equivalent: bool,
    },
}

impl Expect {
    /// Checks a reply line against the expectation. `Err` says what
    /// differs.
    pub fn check(&self, id: &str, reply: &str) -> Result<(), String> {
        let v = Json::parse(reply).map_err(|e| format!("reply is not JSON: {e}"))?;
        let field = |k: &str| v.get(k).cloned().unwrap_or(Json::Null);
        if field("id") != Json::Str(id.to_string()) || field("ok") != Json::Bool(true) {
            return Err(format!("not an ok reply for {id}: {reply}"));
        }
        let ok = match self {
            Expect::Run { ty, value, steps } => {
                field("type").as_str() == Some(ty)
                    && field("value").as_str() == Some(value)
                    && field("steps").get("total").and_then(Json::as_i64) == Some(*steps)
            }
            Expect::Call { value } => {
                // Rendered as the F integer literal the call returns.
                field("call").get("value").and_then(Json::as_str)
                    == Some(&fint_e(*value).to_string())
            }
            Expect::Verdict { equivalent } => field("equivalent").as_bool() == Some(*equivalent),
        };
        if ok {
            Ok(())
        } else {
            Err(format!("{id}: expected {self:?}, got {reply}"))
        }
    }
}

/// One request: the job line handed to the engine and its reference.
#[derive(Clone, Debug)]
pub struct Request {
    /// The job's id (echoed in its reply).
    pub id: String,
    /// The JSON job line.
    pub line: String,
    /// The reference reply.
    pub expect: Expect,
}

/// A generated workload.
pub struct Workload {
    /// Which workload.
    pub kind: Kind,
    /// Job lines an engine runs while it starts (part of set-up).
    pub warm: Vec<String>,
    /// One pass. Each epoch after the first restarts the engine
    /// memory-cold over the same store (only `hot_repeat` has more
    /// than one).
    pub epochs: Vec<Vec<Request>>,
    /// How many leading epochs only fill the store. Untraced runs play
    /// them once, before timing, and time the rest: creating files on
    /// a shared disk swings too much for a steady end-to-end figure.
    /// Traced runs play every epoch in every pass, so write-through
    /// shows in `store.save_us`.
    pub filling_epochs: usize,
}

impl Workload {
    /// Whether the workload's engines run over a persistent store: the
    /// workloads that fill one.
    pub fn uses_store(&self) -> bool {
        self.filling_epochs > 0
    }

    /// Requests in the given epochs.
    pub fn len(&self, epochs: std::ops::Range<usize>) -> usize {
        self.epochs[epochs].iter().map(Vec::len).sum()
    }
}

/// Generates a workload from a seed.
pub fn generate(kind: Kind, seed: u64) -> Result<Workload, String> {
    // Decorrelate workloads that share a seed.
    let mut rng = SplitMix::new(seed ^ (0x5EED_0000 + kind as u64));
    let corpus = funtal_driver::corpus::paper_corpus();
    let mut warm = Vec::new();
    for (i, (_, src)) in corpus.iter().enumerate() {
        warm.push(run_line(&format!("w{i}"), src, None));
        warm.push(run_line(&format!("wb{i}"), src, Some("bytecode")));
    }
    let mut seen: HashSet<String> = corpus.into_iter().map(|(_, src)| src).collect();
    let filling_epochs = usize::from(kind == Kind::HotRepeat);
    let epochs = match kind {
        Kind::ColdDistinct => vec![cold_distinct(&mut rng, &mut seen)?],
        Kind::HotRepeat => hot_repeat(&mut rng, &mut seen)?,
    };
    Ok(Workload {
        kind,
        warm,
        epochs,
        filling_epochs,
    })
}

// --- programs ---------------------------------------------------------

/// A program a request runs, with its reference answer.
#[derive(Clone)]
enum Prog {
    /// FT source for a `run` job.
    Ft { src: String, expect: Expect },
    /// A MiniF source for a `compile` job that calls `name(args)`.
    MiniF {
        src: String,
        tco: bool,
        name: String,
        args: Vec<i64>,
        value: i64,
    },
}

impl Prog {
    /// The request line, with an explicit tier on FT runs when given.
    fn request(&self, id: String, tier: Option<&str>) -> Request {
        match self {
            Prog::Ft { src, expect } => Request {
                line: run_line(&id, src, tier),
                expect: expect.clone(),
                id,
            },
            Prog::MiniF {
                src,
                tco,
                name,
                args,
                value,
            } => Request {
                line: obj([
                    ("id", Json::Str(id.clone())),
                    ("cmd", Json::Str("compile".into())),
                    ("src", Json::Str(src.clone())),
                    ("tco", Json::Bool(*tco)),
                    ("call", Json::Str(name.clone())),
                    (
                        "args",
                        Json::Arr(args.iter().map(|a| Json::Int(*a)).collect()),
                    ),
                ])
                .to_string(),
                expect: Expect::Call { value: *value },
                id,
            },
        }
    }
}

fn run_line(id: &str, src: &str, tier: Option<&str>) -> String {
    let mut fields = vec![
        ("id", Json::Str(id.to_string())),
        ("cmd", Json::Str("run".into())),
        ("src", Json::Str(src.to_string())),
    ];
    if let Some(t) = tier {
        fields.push(("tier", Json::Str(t.to_string())));
    }
    obj(fields).to_string()
}

/// The Substitution-machine reference for an FT program of type `ty`.
fn oracle(src: &str, ty: &str) -> Result<Expect, String> {
    let e = funtal_parser::parse_fexpr(src).map_err(|e| format!("oracle parse: {e}\n{src}"))?;
    let mut counts = CountTracer::new();
    let cfg = RunCfg::with_fuel(FUEL).with_strategy(EvalStrategy::Substitution);
    match run_fexpr(&e, cfg, &mut counts).map_err(|e| format!("oracle run: {e}\n{src}"))? {
        FtOutcome::Value(v) => Ok(Expect::Run {
            ty: ty.to_string(),
            value: v.to_string(),
            steps: counts.total_steps() as i64,
        }),
        other => Err(format!("oracle: no value ({other:?}) for\n{src}")),
    }
}

/// The program classes `gen_program` draws from, by the prefix of its
/// `describe` line. Streams take them in a fixed rotation, so a seed
/// changes which programs are sent but not the mix of classes.
const GEN_CLASSES: [&str; 6] = [
    "pure F at",
    "pure T boundary",
    "import/export lambda",
    "F arithmetic over two boundaries",
    "generated function applied",
    "Fig ",
];

/// A `gen_program` output of class `GEN_CLASSES[class]` not seen
/// before, with its Substitution reference.
fn gen_distinct(
    rng: &mut SplitMix,
    seen: &mut HashSet<String>,
    class: usize,
) -> Result<Prog, String> {
    for _ in 0..100_000 {
        let p = gen_program(rng, 2);
        if !p.describe.starts_with(GEN_CLASSES[class]) {
            continue;
        }
        let src = p.expr.to_string();
        if seen.insert(src.clone()) {
            let expect = oracle(&src, &p.ty.to_string())?;
            return Ok(Prog::Ft { src, expect });
        }
    }
    Err(format!("no new `{}` program", GEN_CLASSES[class]))
}

/// The class of the `i`-th generated program in a stream. The figure
/// class has about a dozen distinct programs, so it gets every 30th
/// slot and the other five share the rest.
fn gen_class(i: usize) -> usize {
    if i % 30 == 29 {
        5
    } else {
        i % 5
    }
}

/// The `examples/fact_t.ft` loop shape: `n` iterations of
/// `acc := acc op n; n := n - 1` in T, behind an F function boundary.
fn loop_t(n: i64, acc: i64, op: &str) -> Result<Prog, String> {
    let src = format!(
        "(lam[zl](x: int). (FT[(int) -> int](
    protect ., zp;
    mv r1, lfact;
    halt box forall[z: stk, e: ret]{{ra: box forall[]{{r1: int; z}} e; int :: z}} ra, zp {{r1}},
    {{lfact ->
        code[z: stk, e: ret]{{ra: box forall[]{{r1: int; z}} e; int :: z}} ra.
            sld r3, 0;
            mv r7, {acc};
            bnz r3, lloop[stk(z), ret(e)];
            sfree 1;
            mv r1, r7;
            ret ra {{r1}};
     lloop ->
        code[z: stk, e: ret]{{r3: int, r7: int, ra: box forall[]{{r1: int; z}} e; int :: z}} ra.
            {op} r7, r7, r3;
            sub r3, r3, 1;
            bnz r3, lloop[stk(z), ret(e)];
            sfree 1;
            mv r1, r7;
            ret ra {{r1}}}}))(x))({n})"
    );
    let expect = oracle(&src, "int")?;
    Ok(Prog::Ft { src, expect })
}

/// A straight-line T program with a stack frame of `cells` cells:
/// checking it walks the whole frame type at every stack instruction.
fn frame_t(cells: usize, a: i64, b: i64, c: i64, slot: usize) -> Result<Prog, String> {
    let last = cells - 1;
    let src = format!(
        "FT[int](salloc {cells}; mv r1, {a}; sst 0, r1; mv r2, {b}; sst {slot}, r2; \
         sst {last}, r1; sld r3, 0; sld r4, {slot}; sld r5, {last}; mul r6, r3, r4; \
         add r6, r6, r5; add r1, r6, {c}; sfree {cells}; halt int, * {{r1}})"
    );
    let expect = oracle(&src, "int")?;
    Ok(Prog::Ft { src, expect })
}

// --- MiniF ------------------------------------------------------------

/// A MiniF arithmetic expression over `x` and `y`.
enum MExp {
    X,
    Y,
    Int(i64),
    Bin(char, Box<MExp>, Box<MExp>),
    If0(Box<MExp>, Box<MExp>, Box<MExp>),
}

impl MExp {
    fn gen(rng: &mut SplitMix, depth: u32) -> MExp {
        match if depth == 0 {
            rng.below(3)
        } else {
            rng.below(8)
        } {
            0 => MExp::X,
            1 => MExp::Y,
            2 => MExp::Int(rng.below(10) as i64),
            7 => MExp::If0(
                Box::new(MExp::gen(rng, depth - 1)),
                Box::new(MExp::gen(rng, depth - 1)),
                Box::new(MExp::gen(rng, depth - 1)),
            ),
            k => MExp::Bin(
                ['+', '-', '*', '+'][k - 3],
                Box::new(MExp::gen(rng, depth - 1)),
                Box::new(MExp::gen(rng, depth - 1)),
            ),
        }
    }

    fn render(&self) -> String {
        match self {
            MExp::X => "x".to_string(),
            MExp::Y => "y".to_string(),
            MExp::Int(n) => n.to_string(),
            MExp::Bin(op, l, r) => format!("({} {op} {})", l.render(), r.render()),
            MExp::If0(c, t, e) => {
                format!(
                    "(if0 {} {{ {} }} {{ {} }})",
                    c.render(),
                    t.render(),
                    e.render()
                )
            }
        }
    }

    fn eval(&self, x: i64, y: i64) -> i64 {
        match self {
            MExp::X => x,
            MExp::Y => y,
            MExp::Int(n) => *n,
            MExp::Bin(op, l, r) => {
                let (a, b) = (l.eval(x, y), r.eval(x, y));
                match op {
                    '+' => a.wrapping_add(b),
                    '-' => a.wrapping_sub(b),
                    _ => a.wrapping_mul(b),
                }
            }
            MExp::If0(c, t, e) => {
                if c.eval(x, y) == 0 {
                    t.eval(x, y)
                } else {
                    e.eval(x, y)
                }
            }
        }
    }
}

/// A distinct MiniF program with one definition `name` and a call to it,
/// its value computed natively. Three shapes: a loop-free polynomial, a
/// self tail-recursive accumulator, and a non-tail recursion.
fn minif(rng: &mut SplitMix, index: usize) -> Prog {
    let tco = rng.below(2) == 0;
    match index % 3 {
        0 => {
            let name = format!("poly{index}");
            let body = MExp::gen(rng, 3);
            let (x, y) = (rng.below(20) as i64, rng.below(20) as i64);
            Prog::MiniF {
                src: format!("fn {name}(x, y) = {}", body.render()),
                tco,
                args: vec![x, y],
                value: body.eval(x, y),
                name,
            }
        }
        1 => {
            let name = format!("acc{index}");
            let k = 1 + rng.below(9) as i64;
            let (n, acc) = (5 + rng.below(40) as i64, rng.below(100) as i64);
            Prog::MiniF {
                src: format!("fn {name}(n, acc) = if0 n {{ acc }} {{ {name}(n - 1, acc + {k}) }}"),
                tco,
                args: vec![n, acc],
                value: acc + n * k,
                name,
            }
        }
        _ => {
            let name = format!("rec{index}");
            let (c, d) = (1 + rng.below(5) as i64, rng.below(5) as i64);
            let n = 3 + rng.below(10) as i64;
            let value = (1..=n).fold(c, |v, i| v.wrapping_mul(i).wrapping_add(d));
            Prog::MiniF {
                src: format!("fn {name}(n) = if0 n {{ {c} }} {{ {name}(n - 1) * n + {d} }}"),
                tco,
                args: vec![n],
                value,
                name,
            }
        }
    }
}

fn shuffle<T>(rng: &mut SplitMix, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

// --- the workloads ----------------------------------------------------

/// `gen_program` outputs, then MiniF programs, then frame programs in
/// one pass of distinct requests.
const COLD_GEN: usize = 300;
const COLD_MINIF: usize = 84;
/// Frame programs: 4 % of the pass, so the p99 falls among them. Their
/// frames step by 25 cells from 100, and the seed moves each by at most
/// 4 cells: checking cost grows with the square of the frame, so a
/// wider jitter would move the p99 with the seed.
const COLD_FRAMES: usize = 16;

fn cold_distinct(rng: &mut SplitMix, seen: &mut HashSet<String>) -> Result<Vec<Request>, String> {
    let mut progs: Vec<(Prog, bool)> = Vec::new();
    for i in 0..COLD_GEN {
        progs.push((gen_distinct(rng, seen, gen_class(i))?, i % 2 == 0));
    }
    for i in 0..COLD_MINIF {
        progs.push((minif(rng, i), false));
    }
    for i in 0..COLD_FRAMES {
        let cells = 100 + 25 * i + rng.below(5);
        let prog = frame_t(
            cells,
            rng.below(50) as i64,
            rng.below(50) as i64,
            rng.below(50) as i64,
            1 + rng.below(cells - 2),
        )?;
        progs.push((prog, i % 2 == 0));
    }
    let mut requests: Vec<Request> = progs
        .into_iter()
        .enumerate()
        .map(|(i, (p, bc))| p.request(format!("c{i}"), bc.then_some("bytecode")))
        .collect();
    // One polynomial (index ≡ 0 mod 3) against its compiled wrapper,
    // and its perturbed twin.
    if let Prog::MiniF { src, tco, .. } = minif(rng, 3 * COLD_MINIF) {
        for (i, (lhs, rhs, equivalent)) in minif_pairs(&src, tco)?.into_iter().enumerate() {
            requests.push(equiv_request(format!("ce{i}"), lhs, rhs, equivalent));
        }
    }
    shuffle(rng, &mut requests);
    Ok(requests)
}

/// Requests in one `hot_repeat` pass.
const HOT_PASS: usize = 1600;

/// The sixteen hot programs in Zipf rank order (rank 1 first), each
/// with the tier all its requests use (`None` for MiniF calls and
/// environment-machine runs). The order and the tiers are fixed, so
/// every seed puts the same kind of program at each rank; the seed
/// varies their constants.
///
/// Every program runs on one tier only, so each is one latency mode,
/// and the ranks place both reported percentiles inside a mode rather
/// than on the edge between two: the programs faster than rank 1 (the
/// paper corpus and the generated ones) hold about 32 % of a pass, so
/// the median falls about 60 % into rank 1's 30 %, a 2k loop on
/// bytecode; rank 16, the 50k loop, is the slowest by far and holds
/// 1.85 %, so the p99 falls about halfway into it. A percentile on the
/// edge between two modes jumps between them when the host's load
/// shifts their tails. Bytecode requests are 49 % of a pass.
fn hot_set(
    rng: &mut SplitMix,
    seen: &mut HashSet<String>,
) -> Result<Vec<(Prog, Option<&'static str>)>, String> {
    let corpus: BTreeMap<String, String> =
        funtal_driver::corpus::paper_corpus().into_iter().collect();
    let paper = |name: &str| -> Result<Prog, String> {
        let src = corpus[name].clone();
        let expect = oracle(&src, "int")?;
        Ok(Prog::Ft { src, expect })
    };
    // Constants vary by at most 2 %, so every seed's pass costs about
    // the same.
    let jitter = |rng: &mut SplitMix, n: i64| n + rng.below((n / 50) as usize) as i64;
    let (fib_n, fact_n): (i64, i64) = (13, 10);
    let fib = |n: i64| (0..n).fold((0i64, 1i64), |(a, b), _| (b, a + b)).0;
    let sum_n = jitter(rng, 300);
    let fib_prog = Prog::MiniF {
        src: "fn fib(n) = if0 n { 0 } { if0 n - 1 { 1 } { fib(n - 1) + fib(n - 2) } }".to_string(),
        tco: false,
        name: "fib".into(),
        args: vec![fib_n],
        value: fib(fib_n),
    };
    let bc = Some("bytecode");
    Ok(vec![
        (
            loop_t(jitter(rng, 2_000), 1 + rng.below(9) as i64, "add")?,
            bc,
        ),
        (fib_prog, None),
        (
            loop_t(jitter(rng, 8_000), 1 + rng.below(9) as i64, "mul")?,
            None,
        ),
        (paper("fact_t_ft")?, bc),
        (
            Prog::MiniF {
                src: "fn sum_to(n, acc) = if0 n { acc } { sum_to(n - 1, acc + n) }".to_string(),
                tco: true,
                name: "sum_to".into(),
                args: vec![sum_n, 0],
                value: sum_n * (sum_n + 1) / 2,
            },
            None,
        ),
        (paper("fig17_factT_6")?, bc),
        (paper("double_twice_ft")?, bc),
        (gen_distinct(rng, seen, 2)?, None),
        (
            Prog::MiniF {
                src: "fn fact(n) = if0 n { 1 } { fact(n - 1) * n }".to_string(),
                tco: false,
                name: "fact".into(),
                args: vec![fact_n],
                value: (1..=fact_n).product(),
            },
            None,
        ),
        (
            loop_t(jitter(rng, 20_000), 1 + rng.below(9) as i64, "add")?,
            bc,
        ),
        (paper("fig17_factF_5")?, None),
        (gen_distinct(rng, seen, 1)?, None),
        (paper("fig3_boundary")?, None),
        (paper("fig11_jit")?, None),
        (gen_distinct(rng, seen, 3)?, None),
        (
            loop_t(jitter(rng, 50_000), 1 + rng.below(9) as i64, "mul")?,
            None,
        ),
    ])
}

/// Two epochs: one request for each program, which fills the store
/// (compute + write-through), and the pass: exactly Zipf(1) request
/// counts over the ranks, in seeded order, on an engine restarted
/// memory-cold over the filled store. A program's first request in the
/// pass loads its artifacts from disk (load + verify); the rest hit
/// memory.
fn hot_repeat(rng: &mut SplitMix, seen: &mut HashSet<String>) -> Result<Vec<Vec<Request>>, String> {
    let progs = hot_set(rng, seen)?;
    let harmonic: f64 = (1..=progs.len()).map(|k| 1.0 / k as f64).sum();
    let mut order: Vec<usize> = Vec::new();
    for rank in 0..progs.len() {
        let count = ((HOT_PASS as f64 / (rank + 1) as f64 / harmonic).round() as usize).max(2);
        order.extend(std::iter::repeat_n(rank, count));
    }
    shuffle(rng, &mut order);
    let fill = progs
        .iter()
        .enumerate()
        .map(|(rank, (p, tier))| p.request(format!("hf{rank}"), *tier))
        .collect();
    let requests = order
        .into_iter()
        .enumerate()
        .map(|(i, rank)| {
            let (p, tier) = &progs[rank];
            p.request(format!("h{i}"), *tier)
        })
        .collect();
    Ok(vec![fill, requests])
}

/// `(lhs, rhs)` sources of one equivalent pair and its perturbed
/// inequivalent twin, where `rhs` has type `(int, …, int) -> int` of
/// `arity` parameters: the twin adds 1 to every result.
fn pair_and_twin(lhs: &FExpr, rhs: &FExpr, arity: usize) -> [(String, String, bool); 2] {
    let params: Vec<String> = (0..arity).map(|i| format!("p{i}")).collect();
    let perturbed = lam(
        params.iter().map(|p| (p.as_str(), fint())).collect(),
        fadd(
            app(rhs.clone(), params.iter().map(|p| var(p)).collect()),
            fint_e(1),
        ),
    );
    [
        (lhs.to_string(), rhs.to_string(), true),
        (lhs.to_string(), perturbed.to_string(), false),
    ]
}

/// Every definition of a MiniF program as `def_to_fexpr` against its
/// compiled `wrap`, each with its perturbed twin:
/// `(lhs, rhs, equivalent)`.
fn minif_pairs(src: &str, tco: bool) -> Result<Vec<(String, String, bool)>, String> {
    let program = funtal_driver::minif::parse_minif(src).map_err(|e| e.to_string())?;
    let compiled = compile_program(&program, CodegenOpts { tail_call_opt: tco });
    let mut pairs = Vec::new();
    for (name, def) in &program.defs {
        let interpreted = def_to_fexpr(def, &BTreeMap::new());
        pairs.extend(pair_and_twin(
            &interpreted,
            &compiled.wrap(name),
            def.params.len(),
        ));
    }
    Ok(pairs)
}

fn equiv_request(id: String, lhs: String, rhs: String, equivalent: bool) -> Request {
    Request {
        line: obj([
            ("id", Json::Str(id.clone())),
            ("cmd", Json::Str("equiv".into())),
            ("lhs", Json::Str(lhs)),
            ("rhs", Json::Str(rhs)),
        ])
        .to_string(),
        expect: Expect::Verdict { equivalent },
        id,
    }
}
