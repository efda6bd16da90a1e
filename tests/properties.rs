//! Property-based tests over the whole toolchain.
//!
//! The heavyweight property: *any* well-formed DSP-C program computes
//! exactly the same memory state on the simulator — under every
//! compilation strategy — as the reference interpreter. Programs are
//! generated so that every array access is in bounds by construction.

use proptest::prelude::*;

use dualbank::bankalloc::{
    exhaustive_partition, fm_partition, greedy_partition, naive_greedy_partition, partition_cost,
    InterferenceGraph, Var,
};
use dualbank::ir::GlobalId;
use dualbank::Strategy as CompileStrategy;
use dualbank::Word;

// ---------------------------------------------------------------------
// Random-program generation
// ---------------------------------------------------------------------

// Arrays are all length 16; loops run 0..=7; constant indices stay in
// 0..8; `i + c` offsets keep c in 0..8, so every subscript is in bounds.

#[derive(Debug, Clone)]
enum Expr {
    IntConst(i32),
    FloatConst(i8),
    ScalarI(u8),
    ScalarF(u8),
    LoopVar,
    ArrayI(u8, Index),
    ArrayF(u8, Index),
    Bin(&'static str, Box<Expr>, Box<Expr>),
    FBin(&'static str, Box<Expr>, Box<Expr>),
}

#[derive(Debug, Clone, Copy)]
enum Index {
    Const(u8),
    LoopPlus(u8),
}

impl Index {
    fn render(self, in_loop: bool) -> String {
        match self {
            Index::Const(c) => format!("{}", c % 8),
            Index::LoopPlus(c) if in_loop => format!("i + {}", c % 8),
            Index::LoopPlus(c) => format!("{}", c % 8),
        }
    }
}

fn int_expr(depth: u32) -> BoxedStrategy<Expr> {
    let leaf = prop_oneof![
        (-20i32..20).prop_map(Expr::IntConst),
        (0u8..2).prop_map(Expr::ScalarI),
        Just(Expr::LoopVar),
        (0u8..2, index()).prop_map(|(a, ix)| Expr::ArrayI(a, ix)),
    ];
    leaf.prop_recursive(depth, 16, 2, |inner| {
        (
            prop_oneof![Just("+"), Just("-"), Just("*"), Just("/"), Just("%")],
            inner.clone(),
            inner,
        )
            .prop_map(|(op, a, b)| Expr::Bin(op, Box::new(a), Box::new(b)))
            .boxed()
    })
    .boxed()
}

fn float_expr(depth: u32) -> BoxedStrategy<Expr> {
    let leaf = prop_oneof![
        (-16i8..16).prop_map(Expr::FloatConst),
        (0u8..2).prop_map(Expr::ScalarF),
        (0u8..2, index()).prop_map(|(a, ix)| Expr::ArrayF(a, ix)),
    ];
    leaf.prop_recursive(depth, 16, 2, |inner| {
        (
            prop_oneof![Just("+"), Just("-"), Just("*")],
            inner.clone(),
            inner,
        )
            .prop_map(|(op, a, b)| Expr::FBin(op, Box::new(a), Box::new(b)))
            .boxed()
    })
    .boxed()
}

fn index() -> BoxedStrategy<Index> {
    prop_oneof![
        (0u8..8).prop_map(Index::Const),
        (0u8..8).prop_map(Index::LoopPlus),
    ]
    .boxed()
}

fn render_expr(e: &Expr, in_loop: bool) -> String {
    match e {
        Expr::IntConst(c) => format!("({c})"),
        Expr::FloatConst(c) => format!("({}.5)", c),
        Expr::ScalarI(s) => format!("s{s}"),
        Expr::ScalarF(s) => format!("g{s}"),
        Expr::LoopVar => {
            if in_loop {
                "i".into()
            } else {
                "1".into()
            }
        }
        Expr::ArrayI(a, ix) => format!("ia{}[{}]", a, ix.render(in_loop)),
        Expr::ArrayF(a, ix) => format!("fa{}[{}]", a, ix.render(in_loop)),
        Expr::Bin(op, l, r) => {
            format!(
                "({} {op} {})",
                render_expr(l, in_loop),
                render_expr(r, in_loop)
            )
        }
        Expr::FBin(op, l, r) => {
            format!(
                "({} {op} {})",
                render_expr(l, in_loop),
                render_expr(r, in_loop)
            )
        }
    }
}

#[derive(Debug, Clone)]
enum Stmt {
    AssignScalarI(u8, Expr),
    AssignScalarF(u8, Expr),
    StoreI(u8, Index, Expr),
    StoreF(u8, Index, Expr),
    If(Expr, Vec<Stmt>),
    Loop(Vec<Stmt>),
}

fn stmt(depth: u32) -> BoxedStrategy<Stmt> {
    let leaf = prop_oneof![
        (0u8..2, int_expr(2)).prop_map(|(s, e)| Stmt::AssignScalarI(s, e)),
        (0u8..2, float_expr(2)).prop_map(|(s, e)| Stmt::AssignScalarF(s, e)),
        (0u8..2, index(), int_expr(2)).prop_map(|(a, ix, e)| Stmt::StoreI(a, ix, e)),
        (0u8..2, index(), float_expr(2)).prop_map(|(a, ix, e)| Stmt::StoreF(a, ix, e)),
    ];
    leaf.prop_recursive(depth, 12, 3, |inner| {
        prop_oneof![
            (int_expr(1), prop::collection::vec(inner.clone(), 1..3))
                .prop_map(|(c, body)| Stmt::If(c, body)),
            prop::collection::vec(inner, 1..3).prop_map(Stmt::Loop),
        ]
        .boxed()
    })
    .boxed()
}

fn render_stmt(s: &Stmt, in_loop: bool, out: &mut String, indent: usize) {
    let pad = "    ".repeat(indent);
    match s {
        Stmt::AssignScalarI(v, e) => {
            out.push_str(&format!("{pad}s{v} = {};\n", render_expr(e, in_loop)));
        }
        Stmt::AssignScalarF(v, e) => {
            out.push_str(&format!("{pad}g{v} = {};\n", render_expr(e, in_loop)));
        }
        Stmt::StoreI(a, ix, e) => {
            out.push_str(&format!(
                "{pad}ia{a}[{}] = {};\n",
                ix.render(in_loop),
                render_expr(e, in_loop)
            ));
        }
        Stmt::StoreF(a, ix, e) => {
            out.push_str(&format!(
                "{pad}fa{a}[{}] = {};\n",
                ix.render(in_loop),
                render_expr(e, in_loop)
            ));
        }
        Stmt::If(c, body) => {
            out.push_str(&format!("{pad}if ({}) {{\n", render_expr(c, in_loop)));
            for s in body {
                render_stmt(s, in_loop, out, indent + 1);
            }
            out.push_str(&format!("{pad}}}\n"));
        }
        Stmt::Loop(body) => {
            // Nested loops reuse `i` — forbidden; inner loops render
            // their body with the outer `i` frozen out by using the
            // loop var only at the innermost level.
            out.push_str(&format!("{pad}for (i = 0; i < 8; i++) {{\n"));
            for s in body {
                render_stmt(s, true, out, indent + 1);
            }
            out.push_str(&format!("{pad}}}\n"));
        }
    }
}

fn render_program(stmts: &[Stmt]) -> String {
    let mut out = String::from(
        "int ia0[16] = {3, -1, 4, 1, -5, 9, 2, -6};
int ia1[16] = {2, 7, -1, 8, 2, -8, 1, 8};
float fa0[16] = {1.5, -2.5, 0.25, 3.0};
float fa1[16] = {-0.5, 2.0, 1.0, -1.25};
int s0 = 5; int s1 = -3;
float g0 = 1.5; float g1 = -0.25;
void main() {
    int i;
    i = 0;
",
    );
    for s in stmts {
        render_stmt(s, false, &mut out, 1);
    }
    out.push_str("}\n");
    out
}

fn run_all_strategies(src: &str) -> Result<(), TestCaseError> {
    // Reference.
    let program = dualbank::frontend::compile_str(src)
        .map_err(|e| TestCaseError::fail(format!("frontend: {e}\n{src}")))?;
    let mut interp = dualbank::ir::Interpreter::new(&program);
    interp
        .run()
        .map_err(|e| TestCaseError::fail(format!("interp: {e}\n{src}")))?;
    for strategy in CompileStrategy::ALL {
        let r = dualbank::run_source(src, strategy)
            .map_err(|e| TestCaseError::fail(format!("[{strategy}] {e}\n{src}")))?;
        for (gi, g) in program.globals.iter().enumerate() {
            let want = interp.global_mem(GlobalId(gi as u32));
            let got = r.global(&g.name).expect("symbol exists");
            prop_assert_eq!(
                want,
                got,
                "[{}] global `{}` diverged\n{}",
                strategy,
                g.name,
                src
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        max_shrink_iters: 200,
    })]

    /// Compiled execution equals interpretation, for every strategy, on
    /// arbitrary generated programs.
    #[test]
    fn compiled_matches_interpreter(stmts in prop::collection::vec(stmt(2), 1..6)) {
        let src = render_program(&stmts);
        run_all_strategies(&src)?;
    }

    /// Partitioner invariants on arbitrary graphs: reported costs are
    /// consistent, the greedy never worsens the trivial partition, FM
    /// never loses to plain greedy, and the exhaustive optimum
    /// lower-bounds FM.
    #[test]
    fn partitioner_invariants(edges in prop::collection::vec(
        (0u32..10, 0u32..10, 1u64..20), 0..30))
    {
        let mut g = InterferenceGraph::new();
        for (a, b, w) in &edges {
            g.add_edge_weight(Var::Global(GlobalId(*a)), Var::Global(GlobalId(*b)), *w);
        }
        let greedy = greedy_partition(&g);
        prop_assert_eq!(greedy.cost, partition_cost(&g, &greedy.bank));
        prop_assert!(greedy.cost <= g.total_weight());
        let fm = fm_partition(&g);
        prop_assert_eq!(fm.cost, partition_cost(&g, &fm.bank));
        prop_assert!(fm.cost <= greedy.cost);
        let exact = exhaustive_partition(&g);
        prop_assert!(exact.cost <= fm.cost);
    }

    /// The gain-bucket greedy is an exact reimplementation of the
    /// paper's rescanning greedy: same moves, same banks, same cost.
    #[test]
    fn bucket_greedy_equals_naive_rescan(edges in prop::collection::vec(
        (0u32..12, 0u32..12, 1u64..20), 0..40))
    {
        let mut g = InterferenceGraph::new();
        for (a, b, w) in &edges {
            g.add_edge_weight(Var::Global(GlobalId(*a)), Var::Global(GlobalId(*b)), *w);
        }
        let fast = greedy_partition(&g);
        let naive = naive_greedy_partition(&g);
        prop_assert_eq!(fast.cost, naive.cost);
        prop_assert_eq!(&fast.bank, &naive.bank);
        prop_assert_eq!(fast.trace.len(), naive.trace.len());
        for (a, b) in fast.trace.iter().zip(&naive.trace) {
            prop_assert_eq!(a.node, b.node);
            prop_assert_eq!(a.gain, b.gain);
            prop_assert_eq!(a.cost_after, b.cost_after);
        }
    }

    /// On graphs past the oracle limit, every partitioner's
    /// incrementally-maintained cost still agrees with a from-scratch
    /// recomputation over its final bank assignment.
    #[test]
    fn incremental_cost_agrees_on_large_graphs(edges in prop::collection::vec(
        (0u32..60, 0u32..60, 1u64..30), 40..120))
    {
        let mut g = InterferenceGraph::new();
        for (a, b, w) in &edges {
            g.add_edge_weight(Var::Global(GlobalId(*a)), Var::Global(GlobalId(*b)), *w);
        }
        for part in [greedy_partition(&g), fm_partition(&g)] {
            prop_assert_eq!(part.cost, partition_cost(&g, &part.bank));
        }
    }

    /// The greedy trace is strictly cost-decreasing.
    #[test]
    fn greedy_trace_is_monotone(edges in prop::collection::vec(
        (0u32..8, 0u32..8, 1u64..10), 1..20))
    {
        let mut g = InterferenceGraph::new();
        for (a, b, w) in &edges {
            g.add_edge_weight(Var::Global(GlobalId(*a)), Var::Global(GlobalId(*b)), *w);
        }
        let p = greedy_partition(&g);
        let mut prev = g.total_weight();
        for mv in &p.trace {
            prop_assert!(mv.cost_after < prev, "non-decreasing move");
            prop_assert_eq!(prev - mv.cost_after, mv.gain);
            prev = mv.cost_after;
        }
    }

    /// Words survive round trips (the machine's only data type).
    #[test]
    fn word_round_trips(v in any::<i32>(), x in any::<f32>()) {
        prop_assert_eq!(Word::from_i32(v).as_i32(), v);
        let w = Word::from_f32(x);
        if x.is_nan() {
            prop_assert!(w.as_f32().is_nan());
        } else {
            prop_assert_eq!(w.as_f32(), x);
        }
    }
}

// ---------------------------------------------------------------------
// Instruction-encoding round trips
// ---------------------------------------------------------------------

mod encoding {
    use super::*;
    use dualbank::machine::{
        decode_stream, encode_stream, AReg, AddrOp, Bank, CmpKind, FReg, FpBinKind, FpOp, IReg,
        InstAddr, IntBinKind, IntOp, IntOperand, MemAddr, MemOp, PcuOp, Reg, VliwInst,
    };

    fn ireg() -> BoxedStrategy<IReg> {
        (0u8..32).prop_map(IReg).boxed()
    }

    fn areg() -> BoxedStrategy<AReg> {
        (0u8..32).prop_map(AReg).boxed()
    }

    fn freg() -> BoxedStrategy<FReg> {
        (0u8..32).prop_map(FReg).boxed()
    }

    fn any_reg() -> BoxedStrategy<Reg> {
        prop_oneof![
            ireg().prop_map(Reg::Int),
            areg().prop_map(Reg::Addr),
            freg().prop_map(Reg::Float),
        ]
        .boxed()
    }

    fn int_operand() -> BoxedStrategy<IntOperand> {
        prop_oneof![
            ireg().prop_map(IntOperand::Reg),
            any::<i32>().prop_map(IntOperand::Imm),
        ]
        .boxed()
    }

    fn int_bin_kind() -> BoxedStrategy<IntBinKind> {
        prop_oneof![
            Just(IntBinKind::Add),
            Just(IntBinKind::Sub),
            Just(IntBinKind::Mul),
            Just(IntBinKind::Div),
            Just(IntBinKind::Rem),
            Just(IntBinKind::And),
            Just(IntBinKind::Or),
            Just(IntBinKind::Xor),
            Just(IntBinKind::Shl),
            Just(IntBinKind::Shr),
        ]
        .boxed()
    }

    fn cmp_kind() -> BoxedStrategy<CmpKind> {
        prop_oneof![
            Just(CmpKind::Eq),
            Just(CmpKind::Ne),
            Just(CmpKind::Lt),
            Just(CmpKind::Le),
            Just(CmpKind::Gt),
            Just(CmpKind::Ge),
        ]
        .boxed()
    }

    fn int_op() -> BoxedStrategy<IntOp> {
        prop_oneof![
            (int_bin_kind(), ireg(), ireg(), int_operand()).prop_map(|(kind, dst, lhs, rhs)| {
                IntOp::Bin {
                    kind,
                    dst,
                    lhs,
                    rhs,
                }
            }),
            (cmp_kind(), ireg(), ireg(), int_operand()).prop_map(|(kind, dst, lhs, rhs)| {
                IntOp::Cmp {
                    kind,
                    dst,
                    lhs,
                    rhs,
                }
            }),
            (ireg(), any::<i32>()).prop_map(|(dst, imm)| IntOp::MovImm { dst, imm }),
            (ireg(), ireg()).prop_map(|(dst, src)| IntOp::Mov { dst, src }),
            (ireg(), ireg()).prop_map(|(dst, src)| IntOp::Neg { dst, src }),
            (ireg(), ireg()).prop_map(|(dst, src)| IntOp::Not { dst, src }),
        ]
        .boxed()
    }

    fn fp_op() -> BoxedStrategy<FpOp> {
        let kind = prop_oneof![
            Just(FpBinKind::Add),
            Just(FpBinKind::Sub),
            Just(FpBinKind::Mul),
            Just(FpBinKind::Div),
        ];
        prop_oneof![
            (kind, freg(), freg(), freg()).prop_map(|(kind, dst, lhs, rhs)| FpOp::Bin {
                kind,
                dst,
                lhs,
                rhs
            }),
            (freg(), freg(), freg()).prop_map(|(dst, a, b)| FpOp::Mac { dst, a, b }),
            (cmp_kind(), ireg(), freg(), freg()).prop_map(|(kind, dst, lhs, rhs)| FpOp::Cmp {
                kind,
                dst,
                lhs,
                rhs
            }),
            (freg(), any::<f32>()).prop_map(|(dst, imm)| FpOp::MovImm { dst, imm }),
            (freg(), freg()).prop_map(|(dst, src)| FpOp::Mov { dst, src }),
            (freg(), freg()).prop_map(|(dst, src)| FpOp::Neg { dst, src }),
            (freg(), ireg()).prop_map(|(dst, src)| FpOp::CvtItoF { dst, src }),
            (ireg(), freg()).prop_map(|(dst, src)| FpOp::CvtFtoI { dst, src }),
        ]
        .boxed()
    }

    fn addr_op() -> BoxedStrategy<AddrOp> {
        prop_oneof![
            (areg(), any::<u32>()).prop_map(|(dst, addr)| AddrOp::Lea { dst, addr }),
            (areg(), areg(), ireg()).prop_map(|(dst, base, index)| AddrOp::AddIndex {
                dst,
                base,
                index
            }),
            (areg(), areg(), any::<i32>()).prop_map(|(dst, base, imm)| AddrOp::AddImm {
                dst,
                base,
                imm
            }),
            (areg(), areg()).prop_map(|(dst, src)| AddrOp::Mov { dst, src }),
            (ireg(), areg()).prop_map(|(dst, src)| AddrOp::ToInt { dst, src }),
            (areg(), ireg()).prop_map(|(dst, src)| AddrOp::FromInt { dst, src }),
        ]
        .boxed()
    }

    fn mem_addr() -> BoxedStrategy<MemAddr> {
        prop_oneof![
            any::<u32>().prop_map(MemAddr::Absolute),
            (areg(), any::<i32>()).prop_map(|(base, offset)| MemAddr::Base { base, offset }),
            (any::<i32>(), ireg()).prop_map(|(addr, index)| MemAddr::AbsIndex { addr, index }),
            (areg(), ireg(), any::<i32>()).prop_map(|(base, index, offset)| MemAddr::BaseIndex {
                base,
                index,
                offset
            }),
        ]
        .boxed()
    }

    fn mem_op(bank: Bank) -> BoxedStrategy<MemOp> {
        prop_oneof![
            (any_reg(), mem_addr()).prop_map(move |(dst, addr)| MemOp::Load { dst, addr, bank }),
            (any_reg(), mem_addr()).prop_map(move |(src, addr)| MemOp::Store { src, addr, bank }),
        ]
        .boxed()
    }

    fn pcu_op() -> BoxedStrategy<PcuOp> {
        prop_oneof![
            any::<u32>().prop_map(|t| PcuOp::Jump(InstAddr(t))),
            (ireg(), any::<u32>()).prop_map(|(cond, t)| PcuOp::BranchNz {
                cond,
                target: InstAddr(t)
            }),
            (ireg(), any::<u32>()).prop_map(|(cond, t)| PcuOp::BranchZ {
                cond,
                target: InstAddr(t)
            }),
            any::<u32>().prop_map(|t| PcuOp::Call(InstAddr(t))),
            Just(PcuOp::Ret),
            Just(PcuOp::Halt),
        ]
        .boxed()
    }

    pub(super) fn inst() -> BoxedStrategy<VliwInst> {
        (
            prop::option::of(pcu_op()),
            prop::option::of(mem_op(Bank::X)),
            prop::option::of(mem_op(Bank::Y)),
            prop::option::of(addr_op()),
            prop::option::of(addr_op()),
            prop::option::of(int_op()),
            prop::option::of(int_op()),
            prop::option::of(fp_op()),
            prop::option::of(fp_op()),
        )
            .prop_map(|(pcu, mu0, mu1, au0, au1, du0, du1, fpu0, fpu1)| VliwInst {
                pcu,
                mu0,
                mu1,
                au0,
                au1,
                du0,
                du1,
                fpu0,
                fpu1,
            })
            .boxed()
    }

    proptest! {
        /// Any instruction stream survives encode/decode bit-exactly
        /// (floats compared by bit pattern via the NaN-tolerant check).
        #[test]
        fn encoding_round_trips(insts in prop::collection::vec(inst(), 0..12)) {
            let words = encode_stream(&insts);
            let decoded = decode_stream(&words)
                .map_err(|e| TestCaseError::fail(e.to_string()))?;
            prop_assert_eq!(decoded.len(), insts.len());
            for (d, i) in decoded.iter().zip(&insts) {
                // FpOp::MovImm holds an f32; NaN != NaN under PartialEq,
                // so compare through a re-encode instead.
                let mut w1 = Vec::new();
                let mut w2 = Vec::new();
                dualbank::machine::encode_inst(d, &mut w1);
                dualbank::machine::encode_inst(i, &mut w2);
                prop_assert_eq!(&w1, &w2);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Front-end robustness
// ---------------------------------------------------------------------

/// Replay of the shrunk failure cases recorded in
/// `properties.proptest-regressions`. The offline proptest stand-in
/// cannot parse upstream proptest's seed format, so the inputs those
/// seeds shrink to are inlined here and must stay in sync with that
/// file.
#[test]
fn regression_seeds_replay() {
    // cc d31702…b3af: shrinks to src = "ল" (multi-byte identifier start
    // once made the lexer slice mid-codepoint).
    let _ = dualbank::frontend::compile_str("ল");
}

proptest! {
    /// The front-end must never panic: arbitrary byte soup yields
    /// either a program or a structured error.
    #[test]
    fn frontend_never_panics_on_garbage(src in "\\PC{0,200}") {
        let _ = dualbank::frontend::compile_str(&src);
    }

    /// Token-shaped garbage (identifiers, numbers, punctuation in random
    /// order) exercises the parser deeper than raw bytes.
    #[test]
    fn parser_never_panics_on_token_soup(
        toks in prop::collection::vec(
            prop_oneof![
                Just("int"), Just("float"), Just("void"), Just("if"),
                Just("else"), Just("while"), Just("for"), Just("return"),
                Just("break"), Just("continue"), Just("x"), Just("main"),
                Just("42"), Just("3.5"), Just("("), Just(")"), Just("{"),
                Just("}"), Just("["), Just("]"), Just(";"), Just(","),
                Just("="), Just("+"), Just("-"), Just("*"), Just("/"),
                Just("%"), Just("<"), Just(">"), Just("=="), Just("&&"),
                Just("||"), Just("++"), Just("+="),
            ],
            0..60,
        )
    ) {
        let src = toks.join(" ");
        let _ = dualbank::frontend::compile_str(&src);
    }

    /// Byte-mutated *valid* programs are the hardest front-end inputs:
    /// they keep enough structure to reach deep into the parser and
    /// lowering before going wrong. Generate a well-formed program with
    /// `dsp-gen`, hit it with the fuzz campaign's own mutator, and
    /// require a structured error (or success) — never a panic. The
    /// mutations accumulate, mirroring `dualbank fuzz --mutate`.
    #[test]
    fn parser_never_panics_on_mutated_programs(seed in any::<u64>(), steps in 1usize..24) {
        let source = dualbank::gen::generate_source(seed, &dualbank::gen::GenConfig::default());
        let mut rng = dualbank::gen::rng::Rng::new(seed ^ 0x6d75_7461_7465_2121);
        let mut bytes = source.into_bytes();
        for _ in 0..steps {
            dualbank::gen::mutate_bytes(&mut rng, &mut bytes);
            let mutant = String::from_utf8_lossy(&bytes).into_owned();
            let _ = dualbank::frontend::compile_str(&mutant);
        }
    }
}

// ---------------------------------------------------------------------
// Per-pass semantic preservation
// ---------------------------------------------------------------------

mod passes {
    use super::*;
    use dualbank::backend::opt;
    use dualbank::ir::{Interpreter, Program};

    fn interp_globals(p: &Program) -> Result<Vec<Vec<Word>>, TestCaseError> {
        let mut interp = Interpreter::new(p);
        interp
            .run()
            .map_err(|e| TestCaseError::fail(format!("interp: {e}")))?;
        Ok((0..p.globals.len())
            .map(|i| interp.global_mem(GlobalId(i as u32)).to_vec())
            .collect())
    }

    /// Apply one pass to every function and check semantics + validity.
    fn check_pass(
        src: &str,
        name: &str,
        pass: impl Fn(&mut dualbank::ir::Function),
    ) -> Result<(), TestCaseError> {
        let reference = dualbank::frontend::compile_str(src)
            .map_err(|e| TestCaseError::fail(format!("frontend: {e}\n{src}")))?;
        let want = interp_globals(&reference)?;
        let mut transformed = reference.clone();
        for f in &mut transformed.funcs {
            pass(f);
        }
        transformed
            .validate()
            .map_err(|e| TestCaseError::fail(format!("[{name}] invalid: {e}\n{src}")))?;
        let got = interp_globals(&transformed)?;
        prop_assert_eq!(want, got, "[{}] changed semantics\n{}", name, src);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: 24,
            .. ProptestConfig::default()
        })]

        /// Every optimization pass, applied alone, preserves the meaning
        /// of arbitrary generated programs.
        #[test]
        fn each_pass_preserves_semantics(
            stmts in prop::collection::vec(crate::stmt(2), 1..6)
        ) {
            let src = crate::render_program(&stmts);
            check_pass(&src, "local", opt::local::run)?;
            check_pass(&src, "dce", opt::dce::run)?;
            check_pass(&src, "faint-dce", opt::dce::run_liveness)?;
            check_pass(&src, "unreachable", opt::dce::remove_unreachable)?;
            check_pass(&src, "merge", opt::loops::merge_blocks)?;
            check_pass(&src, "thread", opt::loops::thread_jumps)?;
            check_pass(&src, "preheaders", |f| {
                opt::loops::insert_preheaders(f);
            })?;
            check_pass(&src, "licm", |f| {
                opt::loops::insert_preheaders(f);
                opt::licm::run(f);
            })?;
            check_pass(&src, "ivopt", |f| {
                opt::loops::insert_preheaders(f);
                opt::ivopt::run(f);
            })?;
            check_pass(&src, "macfuse", opt::macfuse::run)?;
            check_pass(&src, "rotate", opt::rotate::run)?;
        }
    }
}
