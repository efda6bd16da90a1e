//! Cross-crate integration tests through the `dualbank` facade: the
//! documented user journeys of the README, end to end.

use dualbank::{compile_source, run_source, Strategy};

#[test]
fn fir_quickstart_journey() {
    let src = "
        float A[32] = {1.0, 2.0};
        float B[32] = {0.5, 0.25};
        float out;
        void main() {
            int i; float acc; acc = 0.0;
            for (i = 0; i < 32; i++) acc += A[i] * B[i];
            out = acc;
        }";
    let base = run_source(src, Strategy::Baseline).expect("baseline runs");
    let cb = run_source(src, Strategy::CbPartition).expect("cb runs");
    assert!(cb.cycles < base.cycles, "{} !< {}", cb.cycles, base.cycles);
    assert_eq!(base.global("out"), cb.global("out"));
    assert_eq!(
        cb.global("out").unwrap()[0].as_f32(),
        1.0 * 0.5 + 2.0 * 0.25
    );
}

#[test]
fn disassembly_shows_parallel_memory_traffic() {
    let src = "
        float A[16]; float B[16]; float out;
        void main() {
            int i; float acc; acc = 0.0;
            for (i = 0; i < 16; i++) acc += A[i] * B[i];
            out = acc;
        }";
    let out = compile_source(src, Strategy::CbPartition).expect("compiles");
    let dis = out.program.disassemble();
    assert!(
        dis.contains("ld.X") && dis.contains("ld.Y"),
        "both banks should appear:\n{dis}"
    );
    // Some instruction must carry loads from both banks at once.
    let paired = dis
        .lines()
        .any(|l| l.contains("ld.X") && l.contains("ld.Y"));
    assert!(paired, "no paired loads:\n{dis}");
}

#[test]
fn whole_benchmark_suite_is_reachable_from_the_facade() {
    let suite = dualbank::workloads::all();
    assert_eq!(suite.len(), 23);
    let bench = dualbank::workloads::by_name("fir_32_1").expect("exists");
    let report = dualbank::driver::Engine::default()
        .run_matrix(&[bench], &[Strategy::CbPartition])
        .expect("measures");
    assert!(report.jobs[0].measurement.cycles > 0);
}

#[test]
fn duplicated_copies_stay_coherent_under_interleaved_updates() {
    // Stores to a duplicated array interleave with loads at two lags;
    // both bank copies must match at the end.
    let src = "
        float s[64] = {1.0, 2.0, 3.0, 4.0};
        float acc[8];
        void main() {
            int n; int m;
            for (m = 1; m < 8; m++) {
                for (n = 0; n < 8; n++) {
                    acc[n] += s[n] * s[n + m];
                    s[n + 1] = s[n] + 0.125;
                }
            }
        }";
    let out = compile_source(src, Strategy::PartialDup).expect("compiles");
    let mut sim = dualbank::Simulator::new(&out.program, dualbank::SimOptions::default());
    sim.run().expect("runs");
    if let Some(copy) = sim.read_symbol_copy("s") {
        assert_eq!(sim.read_symbol("s").unwrap(), copy, "copies diverged");
    }
    // Reference semantics hold regardless.
    let reference = dualbank::frontend::compile_str(src).unwrap();
    let mut interp = dualbank::ir::Interpreter::new(&reference);
    interp.run().unwrap();
    assert_eq!(
        interp.global_mem_by_name("s").unwrap(),
        &sim.read_symbol("s").unwrap()[..]
    );
}

#[test]
fn compile_errors_surface_cleanly() {
    let err = compile_source("void main() { undeclared = 1; }", Strategy::CbPartition)
        .expect_err("must fail");
    let msg = err.to_string();
    assert!(msg.contains("unknown variable"), "{msg}");
}

#[test]
fn all_strategies_agree_on_recursive_control_flow() {
    let src = "
        int out;
        int ack(int m, int n) {
            if (m == 0) return n + 1;
            if (n == 0) return ack(m - 1, 1);
            return ack(m - 1, ack(m, n - 1));
        }
        void main() { out = ack(2, 3); }";
    let want = 9; // Ackermann(2, 3)
    for strategy in Strategy::ALL {
        let r = run_source(src, strategy).expect("runs");
        assert_eq!(
            r.global("out").unwrap()[0].as_i32(),
            want,
            "[{strategy}] wrong Ackermann value"
        );
    }
}
