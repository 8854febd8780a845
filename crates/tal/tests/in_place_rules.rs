//! Differential test for the in-place stack rules: `check_instr`
//! updates σ and q in place, and over generated stacks, markers and
//! counts it must give exactly the context (or exactly the error) that
//! the rules give when written as copies — n-fold `StackTy::cons` for
//! `salloc`, `split` for `sfree`/`ralloc`/`balloc`, `set` for `sst`.

use funtal_syntax::build::*;
use funtal_syntax::{HeapTyping, Instr, Reg, RetMarker, StackTail, StackTy, TTy, TyVar};
use funtal_tal::check::{check_instr, TCtx};
use funtal_tal::error::{TResult, TypeError};
use funtal_tal::wf::Delta;
use proptest::prelude::*;

/// The continuation type `box ∀[].{r1: int; •} end{int; •}`.
fn cont() -> TTy {
    code_ty(vec![], chi([(r1(), int())]), nil(), q_end(int(), nil()))
}

fn arb_slot() -> BoxedStrategy<TTy> {
    prop_oneof![
        Just(int()),
        Just(unit()),
        Just(box_tuple(vec![int(), unit()])),
        Just(cont()),
    ]
    .boxed()
}

fn arb_stack() -> BoxedStrategy<StackTy> {
    (
        prop::collection::vec(arb_slot(), 0..7),
        prop_oneof![
            Just(StackTail::Empty),
            Just(StackTail::Var(TyVar::new("z")))
        ],
    )
        .prop_map(|(prefix, tail)| StackTy { prefix, tail })
        .boxed()
}

fn arb_marker() -> BoxedStrategy<RetMarker> {
    prop_oneof![
        (0usize..8).prop_map(RetMarker::Stack),
        Just(q_reg(ra())),
        Just(q_reg(r1())),
        Just(q_end(int(), nil())),
    ]
    .boxed()
}

fn arb_reg() -> BoxedStrategy<Reg> {
    prop_oneof![Just(r1()), Just(r2()), Just(ra())].boxed()
}

fn arb_instr() -> BoxedStrategy<Instr> {
    prop_oneof![
        (0usize..9).prop_map(salloc),
        (0usize..9).prop_map(sfree),
        (0usize..9, arb_reg()).prop_map(|(idx, rs)| sst(idx, rs)),
        (arb_reg(), 0usize..9).prop_map(|(rd, n)| ralloc(rd, n)),
        (arb_reg(), 0usize..9).prop_map(|(rd, n)| balloc(rd, n)),
    ]
    .boxed()
}

/// The stack rules of Fig 2 written as copies of the context.
fn reference(c: &TCtx, instr: &Instr) -> TResult<TCtx> {
    let mut out = c.clone();
    match instr {
        Instr::Salloc(n) => {
            let mut s = c.sigma.clone();
            for _ in 0..*n {
                s = s.cons(TTy::Unit);
            }
            out.sigma = s;
            out.q = c.q.shifted_by(*n as isize);
        }
        Instr::Sfree(n) => {
            let (_, rest) = c.sigma.split(*n).ok_or_else(|| TypeError::StackShape {
                need: format!("{n} visible slots to free"),
                found: c.sigma.clone(),
            })?;
            if let RetMarker::Stack(i) = c.q {
                if i < *n {
                    return Err(TypeError::ClobbersMarker("sfree of the marker slot"));
                }
                out.q = RetMarker::Stack(i - n);
            }
            out.sigma = rest;
        }
        Instr::Sst { idx, rs } => {
            let ty = c.chi.get(*rs).ok_or(TypeError::UnboundReg(*rs))?.clone();
            let set = c.sigma.set(*idx, ty).ok_or(TypeError::BadStackIndex {
                idx: *idx,
                visible: c.sigma.visible_len(),
            })?;
            if c.q == RetMarker::Reg(*rs) {
                out.q = RetMarker::Stack(*idx);
            } else if c.q == RetMarker::Stack(*idx) {
                return Err(TypeError::ClobbersMarker("sst over the marker slot"));
            }
            out.sigma = set;
        }
        Instr::Ralloc { rd, n } | Instr::Balloc { rd, n } => {
            if c.q == RetMarker::Reg(*rd) {
                return Err(TypeError::ClobbersMarker("alloc destination"));
            }
            let (front, rest) = c.sigma.split(*n).ok_or_else(|| TypeError::StackShape {
                need: format!("{n} visible slots to allocate from"),
                found: c.sigma.clone(),
            })?;
            if let RetMarker::Stack(i) = c.q {
                if i < *n {
                    return Err(TypeError::ClobbersMarker("alloc of the marker slot"));
                }
                out.q = RetMarker::Stack(i - n);
            }
            let ty = if matches!(instr, Instr::Ralloc { .. }) {
                TTy::Ref(front)
            } else {
                TTy::boxed_tuple(front)
            };
            out.chi = c.chi.update(*rd, ty);
            out.sigma = rest;
        }
        other => unreachable!("not a stack rule: {other}"),
    }
    Ok(out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// The in-place rules agree with the copying rules on σ, q and χ,
    /// and on every error.
    #[test]
    fn in_place_stack_rules_match_the_copying_rules(
        sigma in arb_stack(),
        q in arb_marker(),
        instrs in prop::collection::vec(arb_instr(), 1..5),
    ) {
        let mut c = TCtx::new(
            HeapTyping::new(),
            Delta::new(),
            chi([(r1(), int()), (r2(), unit()), (ra(), cont())]),
            sigma,
            q,
        );
        for instr in &instrs {
            let want = reference(&c, instr);
            let mut got = c.clone();
            let res = check_instr(&mut got, instr);
            match want {
                Ok(want) => {
                    prop_assert_eq!(res, Ok(()), "{instr} on {}", c.sigma);
                    prop_assert_eq!(&got.sigma, &want.sigma, "σ after {instr}");
                    prop_assert_eq!(&got.q, &want.q, "q after {instr}");
                    prop_assert_eq!(&got.chi, &want.chi, "χ after {instr}");
                    c = got;
                }
                Err(e) => {
                    prop_assert_eq!(res, Err(e), "{instr} on {}", c.sigma);
                    break;
                }
            }
        }
    }
}
