//! Edge cases of the simulator's observable behaviour, through its public
//! API only: the same-cycle read/write order across memory, the
//! addressing arithmetic, every run-time trap with its exact payload, the
//! fuel boundary, and the moves that cross register files.

use dsp_machine::{
    AReg, AddrOp, Bank, CmpKind, DataImage, DataSymbol, FReg, FpOp, IReg, InstAddr, IntBinKind,
    IntOp, IntOperand, Label, MemAddr, MemOp, PcuOp, Reg, VliwFunction, VliwInst, VliwProgram,
    Word,
};
use dsp_sim::{SimError, SimOptions, Simulator};

/// A program over `insts` with 16 static words and a 64-word stack per
/// bank, and one 4-word symbol at address 0 of each bank.
fn program(insts: Vec<VliwInst>) -> VliwProgram {
    VliwProgram {
        insts,
        entry: InstAddr(0),
        x_image: DataImage::default(),
        y_image: DataImage::default(),
        x_static_words: 16,
        y_static_words: 16,
        x_stack_base: 16,
        y_stack_base: 16,
        stack_words: 64,
        symbols: vec![
            DataSymbol {
                name: "vx".into(),
                addr: 0,
                size: 4,
                home: Bank::X,
                duplicated: false,
            },
            DataSymbol {
                name: "vy".into(),
                addr: 0,
                size: 4,
                home: Bank::Y,
                duplicated: false,
            },
        ],
        functions: vec![VliwFunction {
            name: "main".into(),
            start: InstAddr(0),
            len: 0,
        }],
        labels: vec![Label {
            name: "main".into(),
            addr: InstAddr(0),
        }],
    }
}

fn halt() -> VliwInst {
    let mut i = VliwInst::new();
    i.pcu = Some(PcuOp::Halt);
    i
}

fn movi(dst: u8, imm: i32) -> VliwInst {
    let mut i = VliwInst::new();
    i.du0 = Some(IntOp::MovImm {
        dst: IReg(dst),
        imm,
    });
    i
}

fn run(p: &VliwProgram, fuel: u64, dual_ported: bool) -> (Result<u64, SimError>, Simulator<'_>) {
    let mut sim = Simulator::new(p, SimOptions { dual_ported, fuel });
    let cycles = sim.run().map(|s| s.cycles);
    (cycles, sim)
}

#[test]
fn a_load_beside_a_store_to_its_address_sees_the_old_word() {
    // X[2] starts as 5. In one cycle: st.X [2], r1 (= 7) || ld.X r2, [2].
    let mut p = program(Vec::new());
    p.x_image.init = vec![Word::ZERO, Word::ZERO, Word::from_i32(5)];
    let mut both = VliwInst::new();
    both.mu0 = Some(MemOp::Store {
        src: Reg::Int(IReg(1)),
        addr: MemAddr::Absolute(2),
        bank: Bank::X,
    });
    both.mu1 = Some(MemOp::Load {
        dst: Reg::Int(IReg(2)),
        addr: MemAddr::Absolute(2),
        bank: Bank::X,
    });
    p.insts = vec![movi(1, 7), both, halt()];
    let (cycles, sim) = run(&p, 100, true);
    assert_eq!(cycles, Ok(3));
    assert_eq!(
        sim.ireg(2).as_i32(),
        5,
        "the load must see the pre-cycle word"
    );
    assert_eq!(sim.read_symbol("vx").unwrap()[2].as_i32(), 7);
}

#[test]
fn abs_index_with_a_negative_folded_base_reaches_word_zero() {
    // a[i - 1] with a at 0 folds to AbsIndex { addr: -1 }; i = 1 reads a[0].
    let mut p = program(Vec::new());
    p.x_image.init = vec![Word::from_i32(42)];
    let mut load = VliwInst::new();
    load.mu0 = Some(MemOp::Load {
        dst: Reg::Int(IReg(2)),
        addr: MemAddr::AbsIndex {
            addr: -1,
            index: IReg(1),
        },
        bank: Bank::X,
    });
    p.insts = vec![movi(1, 1), load, halt()];
    let (cycles, sim) = run(&p, 100, false);
    assert_eq!(cycles, Ok(3));
    assert_eq!(sim.ireg(2).as_i32(), 42);
}

#[test]
fn a_negative_base_offset_reports_its_exact_address() {
    let mut lea = VliwInst::new();
    lea.au0 = Some(AddrOp::Lea {
        dst: AReg(0),
        addr: 3,
    });
    let mut load = VliwInst::new();
    load.mu1 = Some(MemOp::Load {
        dst: Reg::Int(IReg(1)),
        addr: MemAddr::Base {
            base: AReg(0),
            offset: -5,
        },
        bank: Bank::Y,
    });
    let p = program(vec![lea, load, halt()]);
    let (cycles, _) = run(&p, 100, false);
    assert_eq!(
        cycles,
        Err(SimError::AddrOutOfRange {
            pc: 1,
            bank: Bank::Y,
            addr: -2,
        })
    );
}

#[test]
fn falling_off_the_end_is_a_pc_fault() {
    let p = program(vec![VliwInst::new(), movi(1, 1)]);
    let (cycles, _) = run(&p, 100, false);
    assert_eq!(cycles, Err(SimError::PcOutOfRange { pc: 2 }));
}

/// `n` nested calls, then halt: r1 counts down from `n + 1`, and every
/// pass that leaves it non-zero calls back into the decrement.
fn nested_calls(n: i32) -> VliwProgram {
    let mut dec = VliwInst::new();
    dec.du0 = Some(IntOp::Bin {
        kind: IntBinKind::Sub,
        dst: IReg(1),
        lhs: IReg(1),
        rhs: IntOperand::Imm(1),
    });
    let mut done = VliwInst::new();
    done.pcu = Some(PcuOp::BranchZ {
        cond: IReg(1),
        target: InstAddr(4),
    });
    let mut call = VliwInst::new();
    call.pcu = Some(PcuOp::Call(InstAddr(1)));
    program(vec![movi(1, n + 1), dec, done, call, halt()])
}

#[test]
fn the_call_stack_holds_4096_return_addresses_and_not_one_more() {
    let (cycles, _) = run(&nested_calls(4096), 1_000_000, false);
    // movi, then 4096 × (dec, bz, call), then dec, bz, halt.
    assert_eq!(cycles, Ok(1 + 4096 * 3 + 3));
    let (cycles, _) = run(&nested_calls(4097), 1_000_000, false);
    assert_eq!(cycles, Err(SimError::CallStackOverflow { pc: 3 }));
}

#[test]
fn fuel_is_an_exact_cycle_budget() {
    let p = program(vec![VliwInst::new(), VliwInst::new(), halt()]);
    assert_eq!(run(&p, 3, false).0, Ok(3));
    assert_eq!(run(&p, 2, false).0, Err(SimError::FuelExhausted));
}

#[test]
fn moves_and_conversions_cross_register_files() {
    // a0 = 12; r1 = a0 (ToInt); r2 = 9; a1 = r2 (FromInt);
    // f1 = -2.75; r3 = int(f1) (CvtFtoI); r4 = (f1 < f2) with f2 = 0.5;
    // f3 = float(r2) (CvtItoF); st.X [a1 + 0], f3 so X[9] holds 9.0.
    let mut a = VliwInst::new();
    a.au0 = Some(AddrOp::Lea {
        dst: AReg(0),
        addr: 12,
    });
    a.du0 = Some(IntOp::MovImm {
        dst: IReg(2),
        imm: 9,
    });
    a.fpu0 = Some(FpOp::MovImm {
        dst: FReg(1),
        imm: -2.75,
    });
    a.fpu1 = Some(FpOp::MovImm {
        dst: FReg(2),
        imm: 0.5,
    });
    let mut b = VliwInst::new();
    b.au0 = Some(AddrOp::ToInt {
        dst: IReg(1),
        src: AReg(0),
    });
    b.au1 = Some(AddrOp::FromInt {
        dst: AReg(1),
        src: IReg(2),
    });
    b.fpu0 = Some(FpOp::CvtFtoI {
        dst: IReg(3),
        src: FReg(1),
    });
    b.fpu1 = Some(FpOp::Cmp {
        kind: CmpKind::Lt,
        dst: IReg(4),
        lhs: FReg(1),
        rhs: FReg(2),
    });
    let mut c = VliwInst::new();
    c.fpu0 = Some(FpOp::CvtItoF {
        dst: FReg(3),
        src: IReg(2),
    });
    let mut d = VliwInst::new();
    d.mu0 = Some(MemOp::Store {
        src: Reg::Float(FReg(3)),
        addr: MemAddr::Base {
            base: AReg(1),
            offset: 0,
        },
        bank: Bank::X,
    });
    let mut e = VliwInst::new();
    e.mu0 = Some(MemOp::Load {
        dst: Reg::Int(IReg(5)),
        addr: MemAddr::Absolute(9),
        bank: Bank::X,
    });
    let p = program(vec![a, b, c, d, e, halt()]);
    let (cycles, sim) = run(&p, 100, false);
    assert_eq!(cycles, Ok(6));
    assert_eq!(sim.ireg(1).as_i32(), 12, "ToInt");
    assert_eq!(sim.ireg(3).as_i32(), -2, "CvtFtoI truncates toward zero");
    assert_eq!(sim.ireg(4).as_i32(), 1, "FpOp::Cmp writes the integer file");
    assert_eq!(
        sim.ireg(5),
        Word::from_f32(9.0),
        "FromInt base and CvtItoF value"
    );
}

#[test]
fn a_same_cycle_swap_exchanges_the_registers() {
    // r1 = 3, r2 = 8; then r1 = r2 || r2 = r1 in one cycle.
    let mut init = movi(1, 3);
    init.du1 = Some(IntOp::MovImm {
        dst: IReg(2),
        imm: 8,
    });
    let mut swap = VliwInst::new();
    swap.du0 = Some(IntOp::Mov {
        dst: IReg(1),
        src: IReg(2),
    });
    swap.du1 = Some(IntOp::Mov {
        dst: IReg(2),
        src: IReg(1),
    });
    let p = program(vec![init, swap, halt()]);
    let (cycles, sim) = run(&p, 100, false);
    assert_eq!(cycles, Ok(3));
    assert_eq!((sim.ireg(1).as_i32(), sim.ireg(2).as_i32()), (8, 3));
}

#[test]
fn a_store_reads_the_old_value_of_a_register_a_load_beside_it_writes() {
    // Y[1] holds 40 and r1 = 6. In one cycle: st.X [0], r1 || ld.Y r1, [1].
    let mut p = program(Vec::new());
    p.y_image.init = vec![Word::ZERO, Word::from_i32(40)];
    let mut both = VliwInst::new();
    both.mu0 = Some(MemOp::Store {
        src: Reg::Int(IReg(1)),
        addr: MemAddr::Absolute(0),
        bank: Bank::X,
    });
    both.mu1 = Some(MemOp::Load {
        dst: Reg::Int(IReg(1)),
        addr: MemAddr::Absolute(1),
        bank: Bank::Y,
    });
    p.insts = vec![movi(1, 6), both, halt()];
    let (cycles, sim) = run(&p, 100, false);
    assert_eq!(cycles, Ok(3));
    assert_eq!(sim.read_symbol("vx").unwrap()[0].as_i32(), 6);
    assert_eq!(sim.ireg(1).as_i32(), 40);
}

#[test]
fn a_branch_beside_a_write_of_its_condition_tests_the_old_value() {
    // r1 = 1; then bnz r1 -> 3 || r1 = 0; pc 2 would set r2.
    let mut branch = movi(1, 0);
    branch.pcu = Some(PcuOp::BranchNz {
        cond: IReg(1),
        target: InstAddr(3),
    });
    let p = program(vec![movi(1, 1), branch, movi(2, 5), halt()]);
    let (cycles, sim) = run(&p, 100, false);
    assert_eq!(cycles, Ok(3), "the branch is taken");
    assert_eq!((sim.ireg(1).as_i32(), sim.ireg(2).as_i32()), (0, 0));
}

#[test]
fn a_fault_inside_a_straight_line_run_reports_its_own_pc() {
    // Four instructions without control; the third loads X[500].
    let mut load = VliwInst::new();
    load.mu0 = Some(MemOp::Load {
        dst: Reg::Int(IReg(2)),
        addr: MemAddr::Absolute(500),
        bank: Bank::X,
    });
    let p = program(vec![movi(1, 1), movi(2, 2), load, movi(3, 3), halt()]);
    let (cycles, _) = run(&p, 100, false);
    assert_eq!(
        cycles,
        Err(SimError::AddrOutOfRange {
            pc: 2,
            bank: Bank::X,
            addr: 500,
        })
    );
}

#[test]
fn fuel_that_ends_inside_a_straight_line_run_is_exhausted() {
    // Five instructions without control, then halt: six cycles.
    let mut insts: Vec<_> = (1..=5).map(|r| movi(r, r.into())).collect();
    insts.push(halt());
    let p = program(insts);
    for fuel in 0..6 {
        assert_eq!(
            run(&p, fuel, false).0,
            Err(SimError::FuelExhausted),
            "{fuel}"
        );
    }
    let (cycles, sim) = run(&p, 6, false);
    assert_eq!(cycles, Ok(6));
    assert_eq!(sim.pc_visits(), [1; 6]);
    // A fault the budget does not reach stays unreported.
    let mut fault = VliwInst::new();
    fault.mu1 = Some(MemOp::Store {
        src: Reg::Int(IReg(1)),
        addr: MemAddr::Absolute(999),
        bank: Bank::Y,
    });
    let p = program(vec![movi(1, 1), movi(2, 2), fault, halt()]);
    assert_eq!(run(&p, 2, false).0, Err(SimError::FuelExhausted));
    assert!(matches!(
        run(&p, 3, false).0,
        Err(SimError::AddrOutOfRange { pc: 2, .. })
    ));
}
