//! Timings of the compiler's core algorithms, checking the paper's
//! complexity claims: interference-graph construction is `O(B·n²)` in
//! block size, partitioning scales with graph size (the rescanning
//! greedy of §3.1 is `O(v²)`; the gain-bucket implementations are
//! near-linear on bounded-degree graphs), loop-invariant code motion
//! hoists a chain of `n` invariant ops in `O(n log n)`, and
//! whole-program compilation stays interactive.
//!
//! Run: `cargo bench -p dsp-bench --bench algo_scaling`
//!
//! Timing uses the same min-of-batches harness as `dsp-driver`'s
//! telemetry layer: wall-clock medians over fixed-iteration batches,
//! no external benchmarking dependency.

use std::time::Instant;

use dsp_backend::Strategy;
use dsp_bankalloc::{
    fm_partition, greedy_partition, naive_greedy_partition, InterferenceGraph, Var,
};
use dsp_ir::GlobalId;
use dsp_sched::{ir_claims, MemClaim, Scratch};

/// A synthetic straight-line block: `n` interleaved loads and adds over
/// `vars` distinct arrays.
fn synthetic_block(n: usize, vars: usize) -> (Vec<dsp_ir::ops::Op>, Vec<MemClaim>) {
    use dsp_ir::ops::{IOperand, MemBase, MemRef, Op};
    use dsp_ir::VReg;
    let mut ops = Vec::with_capacity(n);
    let mut claims = Vec::new();
    for i in 0..n {
        if i % 2 == 0 {
            ops.push(Op::Load {
                dst: VReg(i as u32),
                addr: MemRef::direct(MemBase::Global(GlobalId((i % vars) as u32)), i as i32),
            });
            claims.push(MemClaim::Fixed(dsp_machine::Bank::X));
        } else {
            ops.push(Op::IBin {
                kind: dsp_machine::IntBinKind::Add,
                dst: VReg(i as u32),
                lhs: VReg((i - 1) as u32),
                rhs: IOperand::Imm(1),
            });
        }
    }
    (ops, claims)
}

/// A loop whose body computes a chain of `n` invariant multiplies
/// (`a * b * b * …`, each op reading the one before) and stores it.
fn invariant_chain(n: usize) -> String {
    let chain = " * b".repeat(n - 1);
    format!(
        "int a = 3; int b = 5; int A[16];
         void main() {{ int i; for (i = 0; i < 16; i++) A[i] = a{chain} + i; }}"
    )
}

/// A random bounded-degree interference graph over `v` variables
/// (average degree ~12). Real programs have sparse interference — a
/// variable co-occurs with the handful of others in its statements —
/// so this, not a dense `O(v²)`-edge graph, is the shape on which the
/// rescanning greedy's quadratic scan cost shows against the
/// gain-bucket implementations' near-linear one.
fn bounded_degree_graph(v: usize) -> InterferenceGraph {
    let mut g = InterferenceGraph::new();
    let mut state = 0x1234_5678u32;
    let mut next = || {
        state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
        state
    };
    for i in 0..v {
        // Six edges sourced per node ≈ average degree 12.
        for _ in 0..6 {
            let j = next() as usize % v;
            if j != i {
                g.add_edge_weight(
                    Var::Global(GlobalId(i as u32)),
                    Var::Global(GlobalId(j as u32)),
                    u64::from(next() % 5 + 1),
                );
            }
        }
    }
    g
}

/// Median wall-time per call of `f`, over `samples` batches of `iters`
/// calls each.
fn time_median(samples: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    let mut per_call: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_secs_f64() / iters as f64
        })
        .collect();
    per_call.sort_by(f64::total_cmp);
    per_call[per_call.len() / 2]
}

fn human(seconds: f64) -> String {
    if seconds >= 1e-3 {
        format!("{:8.3} ms", seconds * 1e3)
    } else {
        format!("{:8.3} µs", seconds * 1e6)
    }
}

fn main() {
    println!("algo_scaling — medians of 20 batches\n");

    println!("compaction (block size n, 8 arrays)");
    println!("  {:>8} {:>12} {:>12}", "n", "new scratch", "reused");
    let mut reused = Scratch::new();
    for &n in &[16usize, 64, 256, 1024] {
        let (ops, claims) = synthetic_block(n, 8);
        let (samples, iters) = if n >= 1024 { (5, 5) } else { (20, 50) };
        let schedule = |scratch: &mut Scratch| {
            let claims = ir_claims(&ops, claims.iter().copied());
            scratch.schedule(&ops, claims, None).len()
        };
        let fresh = time_median(samples, iters, || {
            schedule(&mut Scratch::new());
        });
        let warm = time_median(samples, iters, || {
            schedule(&mut reused);
        });
        println!("  {:>8} {:>12} {:>12}", n, human(fresh), human(warm));
    }

    println!("partitioners (bounded-degree graphs, avg degree ~12)");
    println!(
        "  {:>8} {:>12} {:>12} {:>12}",
        "v", "naive O(v²)", "greedy", "fm"
    );
    for &v in &[16usize, 64, 256, 1024, 4096] {
        let g = bounded_degree_graph(v);
        let (samples, iters) = if v >= 1024 { (5, 2) } else { (20, 20) };
        let naive = time_median(samples, iters, || {
            let _ = naive_greedy_partition(&g);
        });
        let fast = time_median(samples, iters, || {
            let _ = greedy_partition(&g);
        });
        let fm = time_median(samples, iters, || {
            let _ = fm_partition(&g);
        });
        println!(
            "  {:>8} {:>12} {:>12} {:>12}",
            v,
            human(naive),
            human(fast),
            human(fm)
        );
    }

    println!("optimizer (one loop, a chain of n invariant ops)");
    for &n in &[64usize, 256, 1024] {
        let ir = dsp_frontend::compile_str(&invariant_chain(n)).expect("parses");
        let (samples, iters) = if n >= 1024 { (5, 5) } else { (20, 20) };
        let t = time_median(samples, iters, || {
            dsp_backend::opt::optimize(&mut ir.clone());
        });
        println!("  n = {n:>4}  {}", human(t));
    }

    println!("whole-program compile (fir 32×1, CB)");
    let bench = dsp_workloads::kernels::fir(32, 1);
    let ir = dsp_workloads::runner::frontend(&bench).expect("frontend");
    let t = time_median(20, 10, || {
        dsp_backend::compile_ir(&ir, Strategy::CbPartition).expect("compiles");
    });
    println!("  cb       {}", human(t));
}
