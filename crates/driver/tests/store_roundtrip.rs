//! Serialize → deserialize identity over generated programs: every
//! artifact kind's codec must reproduce the artifact exactly (and the
//! decoded lowering must still pass the bytecode verifier), for
//! programs drawn from the same generator that feeds the differential
//! evaluation suite.

use std::sync::Arc;

use funtal_driver::artifact::Artifact;
use funtal_driver::cache::Parsed;
use funtal_equiv::gen::{gen_program, SplitMix};
use funtal_syntax::span::SpanTable;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn generated_artifacts_round_trip(seed in 0i64..1_000_000_000) {
        let mut rng = SplitMix::new(seed as u64);
        let gp = gen_program(&mut rng, 2);

        // Parse artifact: term + spans; the typecheck key is
        // recomputed on decode and must agree.
        let parsed = Parsed {
            check_key: gp.expr.to_string(),
            expr: gp.expr.clone(),
            spans: Arc::new(SpanTable::default()),
        };
        let bytes = parsed.encode();
        let back = Parsed::decode(&bytes).expect("parse artifact decodes");
        prop_assert_eq!(&back.expr, &gp.expr, "{}", gp.describe);
        prop_assert_eq!(&back.check_key, &parsed.check_key);

        // Typecheck artifact: the generated program's type.
        let ty_bytes = gp.ty.encode();
        let ty_back = funtal_syntax::FTy::decode(&ty_bytes).expect("type decodes");
        prop_assert_eq!(&ty_back, &gp.ty, "{}", gp.describe);

        // Lowering artifact: module count preserved, verifier still
        // green on the decoded program.
        let lowered = funtal::prelower(&gp.expr);
        let l_back = funtal::LoweredProgram::decode(&lowered.encode()).expect("lowering decodes");
        prop_assert_eq!(l_back.module_count(), lowered.module_count());
        prop_assert!(
            l_back.verify().is_ok(),
            "decoded lowering fails verification: {}",
            gp.describe
        );
    }
}
