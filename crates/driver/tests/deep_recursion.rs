//! Deep recursion ends in an error, never in a host stack overflow. The
//! reference interpreter and the simulator share one call-depth limit,
//! `dsp_machine::CALL_STACK_DEPTH`, so a program is either verified under
//! every strategy or fails in both.

use std::path::Path;

use dsp_backend::{CompileError, Strategy};
use dsp_driver::{CancelToken, Engine, JobReport, Priority, SpanCtx};
use dsp_ir::{InterpError, Interpreter};
use dsp_sim::{SimError, SimOptions, Simulator};
use dsp_workloads::corpus;
use dsp_workloads::runner::RunError;

/// `main` plus `n + 1` frames of `down`.
fn source(n: u32) -> String {
    format!(
        "int out;
         int down(int n) {{ if (n == 0) return 0; return down(n - 1) + 1; }}
         void main() {{ out = down({n}); }}"
    )
}

/// One engine job per strategy, in `Strategy::ALL` order.
fn sweep(n: u32) -> Vec<Result<JobReport, RunError>> {
    let bench = corpus::benchmark_from_source("down", &source(n), Path::new("down.dsp"))
        .expect("the program compiles");
    let run = Engine::default().submit_matrix(
        &[bench],
        &Strategy::ALL,
        Priority::Batch,
        CancelToken::new(),
        SpanCtx::NONE,
    );
    (0..run.len())
        .map(|i| run.wait_job(i).expect("the job ran"))
        .collect()
}

#[test]
fn recursion_at_the_depth_limit_is_verified_under_every_strategy() {
    for (outcome, strategy) in sweep(4094).into_iter().zip(Strategy::ALL) {
        let job = outcome.unwrap_or_else(|e| panic!("[{strategy}] {e}"));
        assert!(job.cached.reference.is_some(), "[{strategy}] verified");
    }
}

#[test]
fn one_frame_past_the_limit_fails_in_the_interpreter_and_the_simulator() {
    let ir = dsp_frontend::compile_str(&source(4095)).expect("parses");
    assert_eq!(
        Interpreter::new(&ir).run().unwrap_err(),
        InterpError::CallStackOverflow
    );
    let out = dsp_backend::compile_ir(&ir, Strategy::Baseline).expect("compiles");
    let mut sim = Simulator::new(&out.program, SimOptions::default());
    assert!(matches!(sim.run(), Err(SimError::CallStackOverflow { .. })));
}

#[test]
fn a_sweep_far_past_the_limit_ends_every_cell_in_an_error() {
    for (outcome, strategy) in sweep(20_000).into_iter().zip(Strategy::ALL) {
        match outcome {
            Err(RunError::Sim(SimError::CallStackOverflow { .. })) => {}
            Err(RunError::Compile(CompileError::Profile(InterpError::CallStackOverflow)))
                if matches!(strategy, Strategy::ProfileWeighted | Strategy::SelectiveDup) => {}
            other => panic!("[{strategy}] expected a call-stack overflow, got {other:?}"),
        }
    }
}
