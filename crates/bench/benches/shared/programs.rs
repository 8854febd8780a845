//! Program generators shared by the scaling benches and the checker
//! scaling tests (`tests/check_scaling.rs`), so both measure the same
//! shapes.

use funtal_syntax::build::*;
use funtal_syntax::{HeapVal, TComp};

/// A pure-T program that chains `n` blocks, each adding 1 and jumping
/// on.
pub fn block_chain(n: usize) -> TComp {
    let mut heap: Vec<(String, HeapVal)> = Vec::new();
    for i in 0..n {
        let next: funtal_syntax::Terminator = if i + 1 == n {
            halt(int(), nil(), r1())
        } else {
            jmp(loc(&format!("b{}", i + 1)))
        };
        heap.push((
            format!("b{i}"),
            code_block(
                vec![],
                chi([(r1(), int())]),
                nil(),
                q_end(int(), nil()),
                seq(vec![add(r1(), r1(), int_v(1))], next),
            ),
        ));
    }
    tcomp(
        seq(vec![mv(r1(), int_v(0))], jmp(loc("b0"))),
        heap.iter().map(|(l, h)| (l.as_str(), h.clone())).collect(),
    )
}

/// A straight-line pure-T program over a stack frame of `cells` cells
/// (`cells ≥ 2`): `salloc`, stores and loads at both ends of the frame,
/// `sfree`, `halt`. It halts with 14.
pub fn frame(cells: usize) -> TComp {
    let last = cells - 1;
    tcomp(
        seq(
            vec![
                mv(r1(), int_v(7)),
                salloc(cells),
                sst(0, r1()),
                sst(last, r1()),
                sld(r2(), 0),
                sld(r3(), last),
                add(r1(), r2(), reg(r3())),
                sfree(cells),
            ],
            halt(int(), nil(), r1()),
        ),
        vec![],
    )
}
