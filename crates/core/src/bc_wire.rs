//! Binary codecs for the bytecode tier's lowered artifacts.
//!
//! A [`LoweredProgram`] is two things: an interned term and the
//! per-component `BcModule`s keyed by *pointer identity* of the
//! term's `Arc<TComp>`s (the dispatch loop's module table is a
//! pointer-keyed map). Pointer identity obviously doesn't serialize,
//! so the encoding fixes a deterministic traversal instead:
//!
//! - the term is encoded as its plain [`FExpr`] tree;
//! - modules follow in **outer-first boundary order** — a depth-first
//!   walk of the term that, at each `Boundary`, emits that component's
//!   module and then recurses into the module's `Import` bodies
//!   (where nested boundaries live after lowering).
//!
//! Decoding re-interns the term (`IExpr::from_fexpr`, which never
//! shares components, so the walk is purely structural), replays the
//! same walk, and attaches the `i`-th decoded module to the `i`-th
//! boundary it visits. A count mismatch is a decode error. This
//! deliberately does *not* reuse `collect_modules`' inner-first order,
//! which cannot be replayed before the modules exist.
//!
//! Byte-level corruption is caught by the store container's checksum
//! before these codecs ever run; semantic staleness is caught by
//! running `verify_lowered` on the decoded program (the caller's
//! verify-on-load obligation).

use std::collections::HashMap;
use std::sync::Arc;

use funtal_store::{Reader, Wire, WireError, Writer};
use funtal_syntax::intern::{IExpr, IKind};
use funtal_syntax::{FExpr, Label, TComp};

use crate::machine_bc::{lower_comp, BcModule, BcOp, BcTarget, LoweredProgram};
use crate::machine_fast::{FastOp, TWord};

impl Wire for TWord {
    fn encode(&self, w: &mut Writer) {
        match self {
            TWord::Unit => w.u8(0),
            TWord::Int(n) => {
                w.u8(1);
                w.i64(*n);
            }
            TWord::Loc(idx) => {
                w.u8(2);
                w.u32(*idx);
            }
            TWord::Big(v) => {
                w.u8(3);
                v.encode(w);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(TWord::Unit),
            1 => Ok(TWord::Int(r.i64()?)),
            2 => Ok(TWord::Loc(r.u32()?)),
            3 => Ok(TWord::Big(Wire::decode(r)?)),
            tag => Err(WireError::BadTag { what: "TWord", tag }),
        }
    }
}

impl Wire for FastOp {
    fn encode(&self, w: &mut Writer) {
        match self {
            FastOp::Reg(r) => {
                w.u8(0);
                r.encode(w);
            }
            FastOp::Word(v) => {
                w.u8(1);
                v.encode(w);
            }
            FastOp::Dyn(v) => {
                w.u8(2);
                v.encode(w);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(FastOp::Reg(Wire::decode(r)?)),
            1 => Ok(FastOp::Word(TWord::decode(r)?)),
            2 => Ok(FastOp::Dyn(Wire::decode(r)?)),
            tag => Err(WireError::BadTag {
                what: "FastOp",
                tag,
            }),
        }
    }
}

impl Wire for BcTarget {
    fn encode(&self, w: &mut Writer) {
        match self {
            BcTarget::Static { off, ord, w: word } => {
                w.u8(0);
                w.u32(*off);
                w.u32(*ord);
                word.encode(w);
            }
            BcTarget::Dyn(op) => {
                w.u8(1);
                op.encode(w);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(BcTarget::Static {
                off: r.u32()?,
                ord: r.u32()?,
                w: TWord::decode(r)?,
            }),
            1 => Ok(BcTarget::Dyn(FastOp::decode(r)?)),
            tag => Err(WireError::BadTag {
                what: "BcTarget",
                tag,
            }),
        }
    }
}

impl Wire for BcOp {
    fn encode(&self, w: &mut Writer) {
        match self {
            BcOp::ArithRR { op, rd, rs, rt } => {
                w.u8(0);
                op.encode(w);
                rd.encode(w);
                rs.encode(w);
                rt.encode(w);
            }
            BcOp::ArithRI { op, rd, rs, imm } => {
                w.u8(1);
                op.encode(w);
                rd.encode(w);
                rs.encode(w);
                w.i64(*imm);
            }
            BcOp::ArithDyn { op, rd, rs, src } => {
                w.u8(2);
                op.encode(w);
                rd.encode(w);
                rs.encode(w);
                src.encode(w);
            }
            BcOp::MvInt { rd, imm } => {
                w.u8(3);
                rd.encode(w);
                w.i64(*imm);
            }
            BcOp::MvUnit { rd } => {
                w.u8(4);
                rd.encode(w);
            }
            BcOp::MvReg { rd, rs } => {
                w.u8(5);
                rd.encode(w);
                rs.encode(w);
            }
            BcOp::MvLbl { rd, ord } => {
                w.u8(6);
                rd.encode(w);
                w.u32(*ord);
            }
            BcOp::MvWord { rd, w: word } => {
                w.u8(7);
                rd.encode(w);
                word.encode(w);
            }
            BcOp::MvDyn { rd, src } => {
                w.u8(8);
                rd.encode(w);
                src.encode(w);
            }
            BcOp::Ld { rd, rs, idx } => {
                w.u8(9);
                rd.encode(w);
                rs.encode(w);
                idx.encode(w);
            }
            BcOp::St { rd, idx, rs } => {
                w.u8(10);
                rd.encode(w);
                idx.encode(w);
                rs.encode(w);
            }
            BcOp::Ralloc { rd, n } => {
                w.u8(11);
                rd.encode(w);
                n.encode(w);
            }
            BcOp::Balloc { rd, n } => {
                w.u8(12);
                rd.encode(w);
                n.encode(w);
            }
            BcOp::Salloc(n) => {
                w.u8(13);
                n.encode(w);
            }
            BcOp::Sfree(n) => {
                w.u8(14);
                n.encode(w);
            }
            BcOp::Sld { rd, idx } => {
                w.u8(15);
                rd.encode(w);
                idx.encode(w);
            }
            BcOp::Sst { idx, rs } => {
                w.u8(16);
                idx.encode(w);
                rs.encode(w);
            }
            BcOp::Unpack { rd, src } => {
                w.u8(17);
                rd.encode(w);
                src.encode(w);
            }
            BcOp::Unfold { rd, src } => {
                w.u8(18);
                rd.encode(w);
                src.encode(w);
            }
            BcOp::Protect => w.u8(19),
            BcOp::Import { rd, ty, body } => {
                w.u8(20);
                rd.encode(w);
                ty.encode(w);
                body.to_fexpr().encode(w);
            }
            BcOp::Bnz { r, t } => {
                w.u8(21);
                r.encode(w);
                t.encode(w);
            }
            BcOp::Jmp(t) => {
                w.u8(22);
                t.encode(w);
            }
            BcOp::Call { t, sigma, q } => {
                w.u8(23);
                t.encode(w);
                sigma.encode(w);
                q.encode(w);
            }
            BcOp::Ret { target, val } => {
                w.u8(24);
                target.encode(w);
                val.encode(w);
            }
            BcOp::Halt { val } => {
                w.u8(25);
                val.encode(w);
            }
            BcOp::Push { rs } => {
                w.u8(26);
                rs.encode(w);
            }
            BcOp::PushJmp { rs, t } => {
                w.u8(27);
                rs.encode(w);
                t.encode(w);
            }
            BcOp::SldPush { rd, idx } => {
                w.u8(28);
                rd.encode(w);
                idx.encode(w);
            }
            BcOp::PopArith { op, pr, rd, rs, rt } => {
                w.u8(29);
                op.encode(w);
                pr.encode(w);
                rd.encode(w);
                rs.encode(w);
                rt.encode(w);
            }
            BcOp::PopArithPush { op, pr, rd, rs, rt } => {
                w.u8(30);
                op.encode(w);
                pr.encode(w);
                rd.encode(w);
                rs.encode(w);
                rt.encode(w);
            }
            BcOp::SldSfree { rd, idx, n } => {
                w.u8(31);
                rd.encode(w);
                idx.encode(w);
                n.encode(w);
            }
            BcOp::PopRet { ra, n, val } => {
                w.u8(32);
                ra.encode(w);
                n.encode(w);
                val.encode(w);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(BcOp::ArithRR {
                op: Wire::decode(r)?,
                rd: Wire::decode(r)?,
                rs: Wire::decode(r)?,
                rt: Wire::decode(r)?,
            }),
            1 => Ok(BcOp::ArithRI {
                op: Wire::decode(r)?,
                rd: Wire::decode(r)?,
                rs: Wire::decode(r)?,
                imm: r.i64()?,
            }),
            2 => Ok(BcOp::ArithDyn {
                op: Wire::decode(r)?,
                rd: Wire::decode(r)?,
                rs: Wire::decode(r)?,
                src: FastOp::decode(r)?,
            }),
            3 => Ok(BcOp::MvInt {
                rd: Wire::decode(r)?,
                imm: r.i64()?,
            }),
            4 => Ok(BcOp::MvUnit {
                rd: Wire::decode(r)?,
            }),
            5 => Ok(BcOp::MvReg {
                rd: Wire::decode(r)?,
                rs: Wire::decode(r)?,
            }),
            6 => Ok(BcOp::MvLbl {
                rd: Wire::decode(r)?,
                ord: r.u32()?,
            }),
            7 => Ok(BcOp::MvWord {
                rd: Wire::decode(r)?,
                w: TWord::decode(r)?,
            }),
            8 => Ok(BcOp::MvDyn {
                rd: Wire::decode(r)?,
                src: FastOp::decode(r)?,
            }),
            9 => Ok(BcOp::Ld {
                rd: Wire::decode(r)?,
                rs: Wire::decode(r)?,
                idx: Wire::decode(r)?,
            }),
            10 => Ok(BcOp::St {
                rd: Wire::decode(r)?,
                idx: Wire::decode(r)?,
                rs: Wire::decode(r)?,
            }),
            11 => Ok(BcOp::Ralloc {
                rd: Wire::decode(r)?,
                n: Wire::decode(r)?,
            }),
            12 => Ok(BcOp::Balloc {
                rd: Wire::decode(r)?,
                n: Wire::decode(r)?,
            }),
            13 => Ok(BcOp::Salloc(Wire::decode(r)?)),
            14 => Ok(BcOp::Sfree(Wire::decode(r)?)),
            15 => Ok(BcOp::Sld {
                rd: Wire::decode(r)?,
                idx: Wire::decode(r)?,
            }),
            16 => Ok(BcOp::Sst {
                idx: Wire::decode(r)?,
                rs: Wire::decode(r)?,
            }),
            17 => Ok(BcOp::Unpack {
                rd: Wire::decode(r)?,
                src: FastOp::decode(r)?,
            }),
            18 => Ok(BcOp::Unfold {
                rd: Wire::decode(r)?,
                src: FastOp::decode(r)?,
            }),
            19 => Ok(BcOp::Protect),
            20 => {
                let rd = Wire::decode(r)?;
                let ty = Wire::decode(r)?;
                let body = FExpr::decode(r)?;
                Ok(BcOp::Import {
                    rd,
                    ty,
                    body: IExpr::from_fexpr(&body),
                })
            }
            21 => Ok(BcOp::Bnz {
                r: Wire::decode(r)?,
                t: BcTarget::decode(r)?,
            }),
            22 => Ok(BcOp::Jmp(BcTarget::decode(r)?)),
            23 => Ok(BcOp::Call {
                t: BcTarget::decode(r)?,
                sigma: Wire::decode(r)?,
                q: Wire::decode(r)?,
            }),
            24 => Ok(BcOp::Ret {
                target: Wire::decode(r)?,
                val: Wire::decode(r)?,
            }),
            25 => Ok(BcOp::Halt {
                val: Wire::decode(r)?,
            }),
            26 => Ok(BcOp::Push {
                rs: Wire::decode(r)?,
            }),
            27 => Ok(BcOp::PushJmp {
                rs: Wire::decode(r)?,
                t: BcTarget::decode(r)?,
            }),
            28 => Ok(BcOp::SldPush {
                rd: Wire::decode(r)?,
                idx: Wire::decode(r)?,
            }),
            29 => Ok(BcOp::PopArith {
                op: Wire::decode(r)?,
                pr: Wire::decode(r)?,
                rd: Wire::decode(r)?,
                rs: Wire::decode(r)?,
                rt: Wire::decode(r)?,
            }),
            30 => Ok(BcOp::PopArithPush {
                op: Wire::decode(r)?,
                pr: Wire::decode(r)?,
                rd: Wire::decode(r)?,
                rs: Wire::decode(r)?,
                rt: Wire::decode(r)?,
            }),
            31 => Ok(BcOp::SldSfree {
                rd: Wire::decode(r)?,
                idx: Wire::decode(r)?,
                n: Wire::decode(r)?,
            }),
            32 => Ok(BcOp::PopRet {
                ra: Wire::decode(r)?,
                n: Wire::decode(r)?,
                val: Wire::decode(r)?,
            }),
            tag => Err(WireError::BadTag { what: "BcOp", tag }),
        }
    }
}

impl Wire for BcModule {
    fn encode(&self, w: &mut Writer) {
        self.ops.encode(w);
        self.blocks.encode(w);
        self.labels.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(BcModule {
            ops: Wire::decode(r)?,
            blocks: Vec::<(u32, usize)>::decode(r)?,
            labels: Vec::<Label>::decode(r)?,
        })
    }
}

/// Walks `e` depth-first, calling `visit` at each `Boundary` with its
/// component; `visit` returns the boundary's module, and the walk then
/// descends into that module's `Import` bodies (where nested
/// boundaries live once lowered).
fn walk_boundaries<F>(e: &IExpr, visit: &mut F) -> Result<(), WireError>
where
    F: FnMut(&Arc<TComp>) -> Result<Arc<BcModule>, WireError>,
{
    match e.kind() {
        IKind::Var(_) | IKind::Unit | IKind::Int(_) => Ok(()),
        IKind::Binop { lhs, rhs, .. } => {
            walk_boundaries(lhs, visit)?;
            walk_boundaries(rhs, visit)
        }
        IKind::If0 {
            cond,
            then_branch,
            else_branch,
        } => {
            walk_boundaries(cond, visit)?;
            walk_boundaries(then_branch, visit)?;
            walk_boundaries(else_branch, visit)
        }
        IKind::Lam { body, .. } => walk_boundaries(body, visit),
        IKind::App { func, args } => {
            walk_boundaries(func, visit)?;
            for a in args.iter() {
                walk_boundaries(a, visit)?;
            }
            Ok(())
        }
        IKind::Fold { body, .. } => walk_boundaries(body, visit),
        IKind::Unfold(body) => walk_boundaries(body, visit),
        IKind::Tuple(es) => {
            for e in es.iter() {
                walk_boundaries(e, visit)?;
            }
            Ok(())
        }
        IKind::Proj { tuple, .. } => walk_boundaries(tuple, visit),
        IKind::Boundary { comp, .. } => {
            let module = visit(comp)?;
            for op in &module.ops {
                if let BcOp::Import { body, .. } = op {
                    walk_boundaries(body, visit)?;
                }
            }
            Ok(())
        }
    }
}

/// Encodes a lowered program (term + modules in outer-first boundary
/// order) for the persistent store.
pub fn encode_lowered(lp: &LoweredProgram) -> Vec<u8> {
    let mut w = Writer::new();
    lp.iexpr.to_fexpr().encode(&mut w);
    let by_ptr: HashMap<*const TComp, Arc<BcModule>> = lp
        .modules
        .iter()
        .map(|(c, m)| (Arc::as_ptr(c), m.clone()))
        .collect();
    let mut mods: Vec<Arc<BcModule>> = Vec::new();
    walk_boundaries(&lp.iexpr, &mut |comp| {
        // Every boundary has a module by `collect_modules`' invariant;
        // re-lower defensively rather than fail if one is missing.
        let m = by_ptr
            .get(&Arc::as_ptr(comp))
            .cloned()
            .unwrap_or_else(|| Arc::new(lower_comp(comp)));
        mods.push(m.clone());
        Ok(m)
    })
    .expect("encode walk is total");
    mods.encode(&mut w);
    w.into_vec()
}

/// Decodes a lowered program, re-interning the term and re-attaching
/// each module to its boundary by replaying the encode-time walk.
///
/// This restores the structure only; callers serving decoded programs
/// to the dispatch loop must still run
/// [`verify_lowered`](crate::verify_lowered) on the result
/// (verify-on-load).
pub fn decode_lowered(bytes: &[u8]) -> Result<LoweredProgram, WireError> {
    let mut r = Reader::new(bytes);
    let fe = FExpr::decode(&mut r)?;
    let decoded: Vec<Arc<BcModule>> = Wire::decode(&mut r)?;
    r.finish()?;
    let iexpr = IExpr::from_fexpr(&fe);
    let mut queue = decoded.into_iter();
    let mut modules: Vec<(Arc<TComp>, Arc<BcModule>)> = Vec::new();
    walk_boundaries(&iexpr, &mut |comp| {
        let m = queue.next().ok_or(WireError::Invalid {
            what: "fewer modules than boundaries",
        })?;
        modules.push((comp.clone(), m.clone()));
        Ok(m)
    })?;
    if queue.next().is_some() {
        return Err(WireError::Invalid {
            what: "more modules than boundaries",
        });
    }
    Ok(LoweredProgram { iexpr, modules })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine_bc::prelower;
    use crate::verify_lowered;
    use funtal_syntax::build::*;

    fn round_trip(e: &FExpr) -> LoweredProgram {
        let lp = prelower(e);
        let bytes = encode_lowered(&lp);
        let back = decode_lowered(&bytes).expect("decode");
        assert_eq!(back.iexpr.to_fexpr(), lp.iexpr.to_fexpr());
        assert_eq!(back.module_count(), lp.module_count());
        verify_lowered(&back).expect("decoded program verifies");
        back
    }

    #[test]
    fn plain_f_program_round_trips() {
        round_trip(&app(
            lam(vec![("x", fint())], fadd(var("x"), fint_e(1))),
            vec![fint_e(41)],
        ));
    }

    #[test]
    fn boundary_programs_round_trip() {
        use crate::figures;
        // (name, program, whether it contains T boundaries)
        let figs: Vec<(&str, FExpr, bool)> = vec![
            ("fig16_f1", figures::fig16_f1(), true),
            ("fig16_f2", figures::fig16_f2(), true),
            (
                "fig17_fact_f",
                FExpr::app(figures::fig17_fact_f(), vec![fint_e(5)]),
                false, // the pure-F factorial: no boundary, no modules
            ),
            (
                "fig17_fact_t",
                FExpr::app(figures::fig17_fact_t(), vec![fint_e(6)]),
                true,
            ),
            ("fig11_jit", figures::fig11_jit(), true),
            ("push7", figures::push7(), true),
        ];
        for (name, fig, has_boundaries) in figs {
            let lp = round_trip(&fig);
            assert_eq!(
                lp.module_count() > 0,
                has_boundaries,
                "{name} module coverage"
            );
        }
    }

    #[test]
    fn truncated_lowered_bytes_reject() {
        let lp = prelower(&fadd(fint_e(1), fint_e(2)));
        let bytes = encode_lowered(&lp);
        for cut in 0..bytes.len() {
            assert!(decode_lowered(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn surplus_modules_reject() {
        let lp = prelower(&fint_e(1));
        let mut bytes = encode_lowered(&lp);
        // The trailing module vector is empty (no boundaries); claim one.
        let n = bytes.len();
        bytes[n - 8..].copy_from_slice(&1u64.to_le_bytes());
        assert!(decode_lowered(&bytes).is_err());
    }
}
