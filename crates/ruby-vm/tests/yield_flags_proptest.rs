//! Property test for the per-global-pc yield-flag lane that
//! `Program::finalize` builds for the executor's one-load yield test: on
//! arbitrary generated programs it must cover every instruction and
//! reproduce the exact yield-point sequence of both policies,
//! index-by-index, as the `InsnKind` classification gives it.
//!
//! Programs are assembled from known-good source templates with random
//! parameters and random ordering, so every generated program compiles
//! and covers the hot shapes: loops (backward branches), sends, blocks,
//! class/ivar traffic and forward compare+branch pairs.

use proptest::prelude::*;
use ruby_vm::bytecode::{yield_flags_of_kind, InsnKind, YP_EXT, YP_ORIG};
use ruby_vm::compile::compile_source;
use ruby_vm::Program;

/// One known-good source fragment, parameterised on a unique fragment
/// index (for collision-free names) and two small integers.
fn fragment(choice: u8, i: usize, n: u32, m: u32) -> String {
    match choice % 8 {
        0 => format!("a{i} = {n}\na{i} += a{i} * {m}\n"),
        1 => format!("w{i} = 0\nwhile w{i} < {n}\n  w{i} += 1\nend\n"),
        2 => format!("def m{i}(x)\n  x + {n}\nend\nr{i} = m{i}({m})\n"),
        3 => format!("t{i} = 0\n{n}.times do |j|\n  t{i} += j\nend\n"),
        4 => format!(
            "class K{i}\n  def initialize()\n    @v = {n}\n  end\n  def v()\n    @v\n  end\nend\n\
             o{i} = K{i}.new()\np{i} = o{i}.v\n"
        ),
        5 => format!("q{i} = []\nq{i} << {n}\nq{i} << q{i}[0]\n"),
        6 => format!("$g{i} = {n}\n$g{i} += {m}\n"),
        _ => format!("b{i} = {n}\nif b{i} > {m}\n  b{i} = 0\nend\n"),
    }
}

fn compile_fragments(parts: &[(u8, u32, u32)]) -> Program {
    let src: String =
        parts.iter().enumerate().map(|(i, &(c, n, m))| fragment(c, i, n, m)).collect();
    let mut prog = Program::default();
    compile_source(&src, &mut prog).unwrap_or_else(|e| panic!("template must compile: {e}\n{src}"));
    prog.finalize();
    prog
}

/// The pc sequence of yield points under a policy, read from the
/// bytecode itself through the `InsnKind` policy predicates.
fn reference_yield_pcs(prog: &Program, bit: u8) -> Vec<u32> {
    let is_yield_point = |k: InsnKind| {
        if bit == YP_ORIG {
            k.is_original_yield_point()
        } else {
            k.is_extended_yield_point()
        }
    };
    let mut pcs = Vec::new();
    for iseq in &prog.iseqs {
        let base = prog.base(iseq.id);
        for (pc, insn) in iseq.code.iter().enumerate() {
            if is_yield_point(insn.kind()) {
                pcs.push(base + pc as u32);
            }
        }
    }
    pcs
}

/// The same sequence read from the program's yield-flag lane.
fn lane_yield_pcs(prog: &Program, bit: u8) -> Vec<u32> {
    (0..prog.total_insns()).filter(|&gpc| prog.yield_flags(gpc as usize) & bit != 0).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The flag lane agrees with the `InsnKind` classification at every
    /// global pc, for both policies.
    #[test]
    fn yield_flags_match_the_kind_classification(
        parts in proptest::collection::vec((any::<u8>(), 1u32..20, 1u32..20), 1..12),
    ) {
        let prog = compile_fragments(&parts);
        let total: usize = prog.iseqs.iter().map(|i| i.code.len()).sum();
        prop_assert_eq!(prog.total_insns() as usize, total);

        // Index-by-index: the flag byte is exactly the kind classification.
        for iseq in &prog.iseqs {
            for (pc, insn) in iseq.code.iter().enumerate() {
                let gpc = prog.global_pc(iseq.id, pc) as usize;
                let got = prog.yield_flags(gpc);
                let want = yield_flags_of_kind(insn.kind());
                prop_assert_eq!(
                    got, want,
                    "iseq {:?} pc {}: {:?} lane flags {:#x}, kind says {:#x}",
                    iseq.id, pc, insn, got, want
                );
            }
        }

        // And as whole sequences: same yield pcs, same order, no extras.
        for bit in [YP_ORIG, YP_EXT] {
            prop_assert_eq!(
                lane_yield_pcs(&prog, bit),
                reference_yield_pcs(&prog, bit),
                "yield-point sequence diverged for policy bit {:#x}", bit
            );
        }
    }
}
