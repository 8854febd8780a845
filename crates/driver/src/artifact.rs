//! The artifact kinds the cache memoizes and the persistent store
//! keeps, and their payload codecs.
//!
//! The disk tier ([`funtal_store::DiskStore`]) moves opaque byte
//! payloads; the [`Artifact`] trait is where the driver's artifact
//! types meet those bytes. The cache's one stage path (`cache.rs`) is
//! generic over it, and its in-memory maps key on the same bytes as
//! the store. Per stage:
//!
//! | stage   | key bytes                      | payload                        |
//! |---------|--------------------------------|--------------------------------|
//! | parse   | the source text                | term + span table              |
//! | check   | the term's canonical rendering | the F type                     |
//! | lower   | the term's canonical rendering | [`funtal::encode_lowered`] (ops, block table, labels) |
//! | compile | `[tco] ++ source text`         | program + heap + wrapped defs  |
//!
//! Decode is **total** (it returns `WireError`, never panics) and
//! conservative: a decoded parse artifact recomputes its `check_key`
//! from the decoded term (so a stale rendering cannot be resurrected),
//! and a decoded MiniF program re-validates. Every load, from memory or
//! disk, must also pass [`Artifact::verify`] (the bytecode verifier,
//! for lowerings). Any failure on this path is a store *reject*: the
//! entry is deleted and the stage recomputes.

use std::sync::Arc;

use funtal::LoweredProgram;
use funtal_store::{decode_from_slice, encode_to_vec, Reader, Stage, Wire, WireError, Writer};
use funtal_syntax::span::SpanTable;
use funtal_syntax::FTy;

use crate::cache::Parsed;
use crate::report::CompiledMiniF;

/// The cache and store key for a MiniF compilation: the codegen
/// option byte followed by the source text.
pub fn compile_key(src: &str, tail_call_opt: bool) -> Vec<u8> {
    let mut key = Vec::with_capacity(1 + src.len());
    key.push(tail_call_opt as u8);
    key.extend_from_slice(src.as_bytes());
    key
}

/// A cached, persistable pipeline artifact: its stage, its payload
/// codec, and the check every load must pass.
pub trait Artifact: Sized {
    /// The pipeline stage that produces it.
    const STAGE: Stage;

    /// Encodes the store payload.
    fn encode(&self) -> Vec<u8>;

    /// Decodes a payload; inverse of [`encode`](Artifact::encode).
    fn decode(bytes: &[u8]) -> Result<Self, WireError>;

    /// The check every load, from memory or disk, must pass. An error
    /// is a reject.
    fn verify(&self) -> Result<(), String> {
        Ok(())
    }
}

/// Term + span table. The canonical rendering is *not* stored: decode
/// recomputes it, so the typecheck key always agrees with the term
/// actually served.
impl Artifact for Parsed {
    const STAGE: Stage = Stage::Parse;

    fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.expr.encode(&mut w);
        self.spans.encode(&mut w);
        w.into_vec()
    }

    fn decode(bytes: &[u8]) -> Result<Parsed, WireError> {
        let mut r = Reader::new(bytes);
        let expr = Wire::decode(&mut r)?;
        let spans: SpanTable = Wire::decode(&mut r)?;
        r.finish()?;
        Ok(Parsed {
            check_key: funtal_syntax::FExpr::to_string(&expr),
            expr,
            spans: Arc::new(spans),
        })
    }
}

/// The program's F type.
impl Artifact for FTy {
    const STAGE: Stage = Stage::Check;

    fn encode(&self) -> Vec<u8> {
        encode_to_vec(self)
    }

    fn decode(bytes: &[u8]) -> Result<FTy, WireError> {
        decode_from_slice(bytes)
    }
}

/// The lowered bytecode, re-verified on every load.
impl Artifact for LoweredProgram {
    const STAGE: Stage = Stage::Lower;

    fn encode(&self) -> Vec<u8> {
        funtal::encode_lowered(self)
    }

    fn decode(bytes: &[u8]) -> Result<LoweredProgram, WireError> {
        funtal::decode_lowered(bytes)
    }

    fn verify(&self) -> Result<(), String> {
        funtal::verify_lowered(self).map_err(|e| e.to_string())
    }
}

/// The validated source program, the generated T heap, and the
/// boundary-wrapped definitions. The program re-validates during
/// decode (see `funtal_compile::wire`).
impl Artifact for CompiledMiniF {
    const STAGE: Stage = Stage::Compile;

    fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.program.encode(&mut w);
        self.compiled.encode(&mut w);
        self.wrapped.encode(&mut w);
        w.into_vec()
    }

    fn decode(bytes: &[u8]) -> Result<CompiledMiniF, WireError> {
        let mut r = Reader::new(bytes);
        let program = Wire::decode(&mut r)?;
        let compiled = Wire::decode(&mut r)?;
        let wrapped = Wire::decode(&mut r)?;
        r.finish()?;
        Ok(CompiledMiniF {
            program,
            compiled,
            wrapped,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Pipeline;

    #[test]
    fn parse_artifact_round_trips_and_recomputes_its_key() {
        let p = Pipeline::new();
        let src = "FT[int](mv r1, 6; mul r1, r1, 7; halt int, * {r1})";
        let (expr, spans) = p.parse_spanned(src).expect("parse");
        let parsed = Parsed {
            check_key: expr.to_string(),
            expr,
            spans: Arc::new(spans),
        };
        let bytes = parsed.encode();
        let back = Parsed::decode(&bytes).expect("decode");
        assert_eq!(back.expr, parsed.expr);
        assert_eq!(back.check_key, parsed.check_key);
        assert_eq!(*back.spans, *parsed.spans);
    }

    #[test]
    fn checked_artifact_round_trips() {
        let p = Pipeline::new();
        let expr = p.parse("(lam[z](x: int). x + 1)(41)").expect("parse");
        let ty = p.check(&expr).expect("check");
        let bytes = Artifact::encode(&ty);
        assert_eq!(<FTy as Artifact>::decode(&bytes).expect("decode"), ty);
    }

    #[test]
    fn compiled_artifact_round_trips_for_both_tco_modes() {
        for tco in [false, true] {
            let p = Pipeline::new()
                .with_codegen(funtal_compile::codegen::CodegenOpts { tail_call_opt: tco });
            let bundle = p
                .compile_minif_source("fn fact(n) = if0 n { 1 } { fact(n - 1) * n }")
                .expect("compile");
            let bytes = bundle.encode();
            let back = CompiledMiniF::decode(&bytes).expect("decode");
            assert_eq!(back.program, bundle.program);
            assert_eq!(back.compiled.entries, bundle.compiled.entries);
            assert_eq!(back.block_count(), bundle.block_count());
            assert_eq!(back.wrapped.len(), bundle.wrapped.len());
            for ((n1, e1, t1), (n2, e2, t2)) in bundle.wrapped.iter().zip(back.wrapped.iter()) {
                assert_eq!(n1, n2);
                assert_eq!(e1, e2);
                assert_eq!(t1, t2);
            }
        }
    }

    #[test]
    fn truncated_payloads_reject() {
        let p = Pipeline::new();
        let (expr, spans) = p.parse_spanned("1 + 2").expect("parse");
        let parsed = Parsed {
            check_key: expr.to_string(),
            expr,
            spans: Arc::new(spans),
        };
        let bytes = parsed.encode();
        for cut in 0..bytes.len() {
            assert!(
                Parsed::decode(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
    }

    #[test]
    fn compile_keys_distinguish_options_and_sources() {
        assert_ne!(
            compile_key("fn f(n) = n", false),
            compile_key("fn f(n) = n", true)
        );
        assert_ne!(
            compile_key("fn f(n) = n", false),
            compile_key("fn g(n) = n", false)
        );
    }
}
