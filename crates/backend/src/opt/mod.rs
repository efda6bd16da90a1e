//! Machine-independent optimizations.
//!
//! The paper's baseline compiler runs "with all other optimizations
//! enabled" (§4.1) — the data-allocation experiments are differences
//! *on top of* an optimizing compiler. This module provides that
//! substrate:
//!
//! * [`local`] — per-block constant folding, constant/copy propagation
//!   and algebraic simplification;
//! * [`dce`] — dead-code elimination and unreachable-block removal;
//! * [`loops`] — preheader insertion and jump threading;
//! * [`licm`] — loop-invariant code motion (pure ops and safe loads);
//! * [`ivopt`] — induction-variable strength reduction, which rewrites
//!   in-loop address arithmetic like `signal[n + m]` into derived
//!   induction variables updated at the latch. This is what makes both
//!   loads of the paper's Figure-6 autocorrelation ready in the same
//!   cycle, exactly as the DSP56001's post-increment address registers
//!   would.

pub mod dce;
pub mod ivopt;
pub mod licm;
pub mod local;
pub mod loops;
pub mod macfuse;
pub mod rotate;

use dsp_ir::{Function, Program};

/// Wall time spent in one optimization pass, summed over every
/// invocation and every function in the pipeline run.
#[derive(Debug, Clone)]
pub struct PassTime {
    /// Pass name as listed in the module docs (e.g. `licm`, `ivopt`).
    pub pass: &'static str,
    /// Accumulated wall time.
    pub time: std::time::Duration,
}

/// Accumulate `elapsed` under `pass`, keeping first-run order.
fn record(acc: &mut Vec<PassTime>, pass: &'static str, elapsed: std::time::Duration) {
    if let Some(entry) = acc.iter_mut().find(|p| p.pass == pass) {
        entry.time += elapsed;
    } else {
        acc.push(PassTime {
            pass,
            time: elapsed,
        });
    }
}

fn timed(acc: &mut Vec<PassTime>, pass: &'static str, f: impl FnOnce()) {
    let start = std::time::Instant::now();
    f();
    record(acc, pass, start.elapsed());
}

/// Run the full optimization pipeline to a fixed point (bounded).
pub fn optimize(program: &mut Program) {
    let _ = optimize_timed(program);
}

/// [`optimize`], reporting per-pass wall times (summed across
/// functions and pipeline rounds, in first-run order).
pub fn optimize_timed(program: &mut Program) -> Vec<PassTime> {
    let mut acc = Vec::new();
    for f in &mut program.funcs {
        pipeline(f, |pass, run, f| timed(&mut acc, pass, || run(f)));
    }
    debug_assert_eq!(program.validate(), Ok(()), "optimizer broke the program");
    acc
}

/// The pipeline over one function: `step(name, pass, f)` is called for
/// each pass in order and must run `pass(f)`.
fn pipeline(
    f: &mut Function,
    mut step: impl FnMut(&'static str, fn(&mut Function), &mut Function),
) {
    step("local", local::run, f);
    step("dce", dce::run, f);
    step("unreachable", dce::remove_unreachable, f);
    step("merge", loops::merge_blocks, f);
    // Two rounds let derived induction variables chain (e.g.
    // `B[k*10 + j]` needs the `k*10` IV before the `+ j` IV).
    for _ in 0..2 {
        step(
            "preheaders",
            |f| {
                loops::insert_preheaders(f);
            },
            f,
        );
        step("licm", licm::run, f);
        step("ivopt", ivopt::run, f);
        step("local", local::run, f);
        step("dce", dce::run, f);
    }
    step("macfuse", macfuse::run, f);
    step("rotate", rotate::run, f);
    step("thread", loops::thread_jumps, f);
    step("unreachable", dce::remove_unreachable, f);
    step("merge", loops::merge_blocks, f);
    step("local", local::run, f);
    step("dce", dce::run, f);
    step("faint-dce", dce::run_liveness, f);
}

/// Test support: optimize `count` seeded `dsp-gen` programs, calling
/// `check(before, after)` around every run of the pass named `name`, so
/// an executable specification sees the pass's real inputs. Returns how
/// many runs changed the function.
#[cfg(test)]
pub(crate) fn check_pass_on_generated(
    name: &str,
    count: usize,
    mut check: impl FnMut(&Function, &Function),
) -> usize {
    let mut rng = dsp_gen::rng::Rng::new(21);
    let config = dsp_gen::GenConfig::default();
    let mut changed = 0;
    for _ in 0..count {
        let source = dsp_gen::generate_source(rng.next_u64(), &config);
        let mut program = dsp_frontend::compile_str(&source).expect("generated programs compile");
        for f in &mut program.funcs {
            pipeline(f, |pass, run, f| {
                if pass != name {
                    return run(f);
                }
                let before = f.clone();
                run(f);
                check(&before, f);
                changed += usize::from(before != *f);
            });
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsp_frontend::compile_str;
    use dsp_ir::Interpreter;
    use dsp_machine::Word;

    /// Compile with and without optimization; both must compute the same
    /// `out` global, and the optimized version must not be larger.
    fn check_out(src: &str) -> (Vec<Word>, usize, usize) {
        let reference = compile_str(src).unwrap();
        let mut interp = Interpreter::new(&reference);
        interp.run().unwrap();
        let want = interp.global_mem_by_name("out").unwrap().to_vec();

        let mut optimized = compile_str(src).unwrap();
        optimize(&mut optimized);
        optimized.validate().expect("optimized program valid");
        let mut interp2 = Interpreter::new(&optimized);
        interp2.run().unwrap();
        let got = interp2.global_mem_by_name("out").unwrap().to_vec();
        assert_eq!(want, got, "optimization changed semantics");

        let size = |p: &dsp_ir::Program| p.funcs.iter().map(dsp_ir::Function::op_count).sum();
        (want, size(&reference), size(&optimized))
    }

    #[test]
    fn pipeline_preserves_fir() {
        let src = "float A[16] = {1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16};
                   float B[16] = {1,1,2,2,3,3,4,4,5,5,6,6,7,7,8,8};
                   float out;
                   void main() {
                     int i; float acc; acc = 0.0;
                     for (i = 0; i < 16; i++) acc += A[i] * B[i];
                     out = acc;
                   }";
        let (_, before, after) = check_out(src);
        assert!(
            after <= before,
            "optimizer grew the program: {before} -> {after}"
        );
    }

    #[test]
    fn pipeline_preserves_autocorrelation_with_dynamic_lag() {
        let src = "float s[32] = {1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,
                                  16,15,14,13,12,11,10,9,8,7,6,5,4,3,2,1};
                   float out; float R[8];
                   void main() {
                     int n; int m; float acc; acc = 0.0;
                     for (m = 1; m < 5; m++) {
                       for (n = 0; n < 8; n++)
                         R[n] += s[n] * s[n + m];
                     }
                     for (n = 0; n < 8; n++) acc += R[n];
                     out = acc;
                   }";
        check_out(src);
    }

    #[test]
    fn pipeline_preserves_control_flow_heavy_code() {
        let src = "int out;
                   int classify(int x) {
                     if (x > 100) return 3;
                     if (x > 10) { if (x % 2 == 0) return 2; else return 1; }
                     return 0;
                   }
                   void main() {
                     int i; out = 0;
                     for (i = 0; i < 200; i += 7) out += classify(i);
                   }";
        check_out(src);
    }

    #[test]
    fn pipeline_preserves_matrix_multiply() {
        let src = "float A[16] = {1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16};
                   float B[16] = {2,0,1,3,1,1,4,2,0,5,2,2,3,1,0,1};
                   float C[16]; float out;
                   void main() {
                     int i; int j; int k;
                     for (i = 0; i < 4; i++)
                       for (j = 0; j < 4; j++) {
                         float acc; acc = 0.0;
                         for (k = 0; k < 4; k++)
                           acc += A[i * 4 + k] * B[k * 4 + j];
                         C[i * 4 + j] = acc;
                       }
                     out = C[5] + C[10];
                   }";
        check_out(src);
    }

    #[test]
    fn pipeline_preserves_recursion_and_calls() {
        let src = "int out;
                   int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
                   void main() { out = fib(12); }";
        check_out(src);
    }
}
