//! Compiles that share a source's strategy-independent work produce the
//! same programs as fresh compiles.
//!
//! `dsp_backend::compile_optimized` takes the trial compaction, the
//! register assignments and, for strategies that end in the same bank
//! assignment, the whole back end from one [`SourceMemo`] per source.
//! Here every strategy of every program is compiled twice: through one
//! memo shared by the program's seven strategies (holding each program
//! so later strategies can reuse it), and through a fresh memo per
//! strategy. The two must encode to the same disk-store entry, byte for
//! byte (stage times zeroed), under the default configuration, with
//! interrupt-safe duplicated stores, and with the FM partitioner.

use dsp_backend::{
    compile_optimized, profile_ir, CompileConfig, CompileTimings, Compiled, Lookup,
    PartitionerKind, SourceMemo, Strategy,
};
use dsp_driver::store::encode_entry;
use dsp_driver::{ArtifactKey, CompiledArtifact};
use dsp_gen::rng::Rng;
use dsp_gen::{generate_source, GenConfig};
use dsp_ir::Program;

/// Generated programs checked beside the suite.
const GENERATED: usize = 200;

fn configs() -> [CompileConfig; 3] {
    [
        CompileConfig::default(),
        CompileConfig {
            interrupt_safe_dup: true,
            ..CompileConfig::default()
        },
        CompileConfig {
            partitioner: PartitionerKind::Fm,
            ..CompileConfig::default()
        },
    ]
}

fn optimized(source: &str) -> Program {
    let mut ir = dsp_frontend::compile_str(source).expect("program compiles");
    dsp_backend::opt::optimize(&mut ir);
    ir
}

/// The disk-store encoding of one compile: the program with its data
/// images and symbols, and the allocation's report scalars.
fn entry_bytes(ir: &Program, config: CompileConfig, compiled: &Compiled) -> Vec<u8> {
    let key = ArtifactKey::new("", config, compiled.strategy);
    let artifact = CompiledArtifact::new(compiled.clone(), ir, CompileTimings::default());
    encode_entry(&key, &artifact)
}

/// Compile `ir` both ways under every strategy and configuration;
/// returns how many strategies took their program from the memo.
fn check(name: &str, ir: &Program) -> usize {
    let profile = profile_ir(ir).unwrap_or_else(|e| panic!("{name}: {e}"));
    let mut shared = 0;
    for config in configs() {
        let memo = SourceMemo::new(ir);
        let mut held = Vec::new();
        for strategy in Strategy::ALL {
            let (memoized, _) = compile_optimized(ir, &memo, strategy, config, Some(&profile))
                .unwrap_or_else(|e| panic!("{name} {strategy}: {e}"));
            let (fresh, _) =
                compile_optimized(ir, &SourceMemo::new(ir), strategy, config, Some(&profile))
                    .unwrap_or_else(|e| panic!("{name} {strategy}: {e}"));
            assert!(
                entry_bytes(ir, config, &memoized) == entry_bytes(ir, config, &fresh),
                "{name} {strategy} {config:?}: memoized program differs from a fresh compile"
            );
            assert_eq!(fresh.reuse.backend, Some(Lookup::Miss));
            shared += usize::from(memoized.reuse.backend == Some(Lookup::Hit));
            held.push(memoized.program);
        }
    }
    shared
}

#[test]
fn memoized_compiles_equal_fresh_compiles_on_the_suite() {
    let shared: usize = dsp_workloads::all()
        .iter()
        .map(|bench| check(&bench.name, &optimized(&bench.source)))
        .sum();
    assert!(shared > 0, "some suite strategies share a bank assignment");
}

#[test]
fn memoized_compiles_equal_fresh_compiles_on_generated_programs() {
    let mut rng = Rng::new(22);
    let config = GenConfig::default();
    let mut shared = 0;
    for i in 0..GENERATED {
        let seed = rng.next_u64();
        let source = generate_source(seed, &config);
        shared += check(&format!("gen-{i} (seed {seed:#x})"), &optimized(&source));
    }
    assert!(
        shared > 0,
        "some generated strategies share a bank assignment"
    );
}

/// A program holding a NaN float immediate equals itself: two compiles
/// of the generated program that first showed it give equal programs.
#[test]
fn a_program_with_a_nan_immediate_equals_its_recompile() {
    let ir = optimized(&generate_source(
        0xd0ed_9dd7_be5c_faa0,
        &GenConfig::default(),
    ));
    let compile = || {
        let memo = SourceMemo::new(&ir);
        compile_optimized(
            &ir,
            &memo,
            Strategy::Baseline,
            CompileConfig::default(),
            None,
        )
        .expect("program compiles")
        .0
        .program
    };
    let first = compile();
    let has_nan = first.insts.iter().any(|inst| {
        [inst.fpu0, inst.fpu1]
            .into_iter()
            .any(|op| matches!(op, Some(dsp_machine::FpOp::MovImm { imm, .. }) if imm.is_nan()))
    });
    assert!(has_nan, "the program holds a NaN immediate");
    assert_eq!(first, compile());
}
