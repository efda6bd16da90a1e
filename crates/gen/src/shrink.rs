//! Automatic test-case reduction for failing programs.
//!
//! Greedy delta debugging over the AST: enumerate single-edit
//! candidates (delete an item, delete a statement, unwrap a loop or
//! branch, halve a trip count, halve an array, replace an expression by
//! a subexpression), re-run the differential oracle on each, and accept
//! the first candidate that reproduces the **same** [`FailureKind`] —
//! never merely "some failure", so a miscompile cannot degenerate into
//! an uninteresting parse error during reduction. Accepted edits
//! restart the scan; the process stops at a fixed point or when the
//! oracle-call budget runs out.
//!
//! Edits operate on the AST, not source text, so every candidate is
//! syntactically valid; candidates that break *semantic* rules (say,
//! deleting a declaration whose uses remain) fail the oracle with
//! `FailureKind::Frontend` and are rejected by the kind check like any
//! other non-reproducing candidate.

use dsp_frontend::ast::{Ast, Expr, Item, Stmt};

use crate::differ::{diff_source, DiffOptions, FailureKind};
use crate::generate::MIN_ARRAY_LEN;

/// Shrink budget and oracle configuration.
#[derive(Debug, Clone)]
pub struct ShrinkOptions {
    /// Maximum number of oracle invocations.
    pub max_oracle_calls: usize,
    /// Oracle configuration (must match the run that found the bug, or
    /// the failure may not reproduce at all).
    pub diff: DiffOptions,
}

impl Default for ShrinkOptions {
    fn default() -> ShrinkOptions {
        ShrinkOptions {
            max_oracle_calls: 1500,
            diff: DiffOptions::default(),
        }
    }
}

/// The result of a reduction.
#[derive(Debug, Clone)]
pub struct ShrinkResult {
    /// Minimal reproducer (pretty-printed DSP-C).
    pub source: String,
    /// The failure the reproducer exhibits (same kind as the original).
    pub kind: FailureKind,
    /// Bytes before reduction.
    pub original_bytes: usize,
    /// Bytes after reduction.
    pub shrunk_bytes: usize,
    /// Oracle invocations spent.
    pub oracle_calls: usize,
    /// Accepted edits.
    pub edits_applied: usize,
}

/// Reduce `ast` while preserving failure `kind`.
///
/// The caller guarantees that `ast` currently fails with `kind` under
/// `opts.diff`; if it does not, the input comes back unshrunk.
#[must_use]
pub fn shrink(ast: &Ast, kind: &FailureKind, opts: &ShrinkOptions) -> ShrinkResult {
    let original = dsp_frontend::print_ast(ast);
    let mut current = ast.clone();
    let mut calls = 0usize;
    let mut applied = 0usize;

    'outer: loop {
        for candidate in edits(&current) {
            if calls >= opts.max_oracle_calls {
                break 'outer;
            }
            let src = dsp_frontend::print_ast(&candidate);
            // Only strictly smaller candidates, so acceptance always
            // makes progress and the loop terminates.
            if src.len() >= dsp_frontend::print_ast(&current).len() {
                continue;
            }
            calls += 1;
            let reproduces = diff_source(&src, &opts.diff)
                .failure()
                .is_some_and(|f| f.kind == *kind);
            if reproduces {
                current = candidate;
                applied += 1;
                continue 'outer;
            }
        }
        break;
    }

    let source = dsp_frontend::print_ast(&current);
    ShrinkResult {
        original_bytes: original.len(),
        shrunk_bytes: source.len(),
        source,
        kind: kind.clone(),
        oracle_calls: calls,
        edits_applied: applied,
    }
}

/// All single-edit candidates of `ast`, roughly largest-deletion first
/// so big cuts are tried before fine-grained expression surgery.
fn edits(ast: &Ast) -> Vec<Ast> {
    let mut out = Vec::new();

    // Delete a whole top-level item (main is kept — a program without
    // an entry point fails every oracle run the same way and would
    // stall reduction).
    for i in 0..ast.items.len() {
        if let Item::Func(f) = &ast.items[i] {
            if f.name == "main" {
                continue;
            }
        }
        let mut c = ast.clone();
        c.items.remove(i);
        out.push(c);
    }

    // Statement-level edits inside each function body.
    for i in 0..ast.items.len() {
        if let Item::Func(f) = &ast.items[i] {
            for new_body in body_edits(&f.body) {
                let mut c = ast.clone();
                if let Item::Func(nf) = &mut c.items[i] {
                    nf.body = new_body;
                }
                out.push(c);
            }
        }
    }

    // Halve an array (and truncate its initializer to fit).
    for i in 0..ast.items.len() {
        if let Item::Global(g) = &ast.items[i] {
            if let Some(len) = g.size {
                if len > MIN_ARRAY_LEN {
                    let mut c = ast.clone();
                    if let Item::Global(ng) = &mut c.items[i] {
                        let new_len = (len / 2).max(MIN_ARRAY_LEN);
                        ng.size = Some(new_len);
                        ng.init.truncate(new_len as usize);
                    }
                    out.push(c);
                }
            }
            if !g.init.is_empty() {
                let mut c = ast.clone();
                if let Item::Global(ng) = &mut c.items[i] {
                    ng.init.clear();
                }
                out.push(c);
            }
        }
    }

    out
}

/// Single-edit variants of one statement list (recursing into nested
/// bodies).
fn body_edits(body: &[Stmt]) -> Vec<Vec<Stmt>> {
    let mut out = Vec::new();
    for i in 0..body.len() {
        // Delete statement i.
        let mut b = body.to_vec();
        b.remove(i);
        out.push(b);

        // Unwrap: replace a structured statement with its contents.
        match &body[i] {
            Stmt::If { then_s, else_s, .. } => {
                out.push(splice(body, i, then_s));
                if !else_s.is_empty() {
                    out.push(splice(body, i, else_s));
                }
            }
            Stmt::For { body: inner, .. } | Stmt::While { body: inner, .. } => {
                out.push(splice(body, i, inner));
            }
            Stmt::Block(inner) => {
                out.push(splice(body, i, inner));
            }
            _ => {}
        }

        // Reduce a for-loop's constant trip count.
        if let Stmt::For {
            cond: Some(Expr::Binary { op, lhs, rhs, pos }),
            ..
        } = &body[i]
        {
            if let Expr::IntLit(t, lp) = **rhs {
                if t > 1 {
                    for smaller in [t / 2, 1] {
                        if smaller < t {
                            let mut b = body.to_vec();
                            if let Stmt::For { cond, .. } = &mut b[i] {
                                *cond = Some(Expr::Binary {
                                    op: *op,
                                    lhs: lhs.clone(),
                                    rhs: Box::new(Expr::IntLit(smaller, lp)),
                                    pos: *pos,
                                });
                            }
                            out.push(b);
                        }
                    }
                }
            }
        }

        // Simplify the statement's own expressions.
        for variant in stmt_expr_edits(&body[i]) {
            let mut b = body.to_vec();
            b[i] = variant;
            out.push(b);
        }

        // Recurse into nested bodies.
        for variant in nested_edits(&body[i]) {
            let mut b = body.to_vec();
            b[i] = variant;
            out.push(b);
        }
    }
    out
}

fn splice(body: &[Stmt], i: usize, replacement: &[Stmt]) -> Vec<Stmt> {
    let mut b = Vec::with_capacity(body.len() - 1 + replacement.len());
    b.extend_from_slice(&body[..i]);
    b.extend_from_slice(replacement);
    b.extend_from_slice(&body[i + 1..]);
    b
}

/// Variants of a statement with one nested body replaced by one of its
/// own single-edit variants.
fn nested_edits(stmt: &Stmt) -> Vec<Stmt> {
    let mut out = Vec::new();
    match stmt {
        Stmt::If {
            cond,
            then_s,
            else_s,
            pos,
        } => {
            for nb in body_edits(then_s) {
                out.push(Stmt::If {
                    cond: cond.clone(),
                    then_s: nb,
                    else_s: else_s.clone(),
                    pos: *pos,
                });
            }
            for nb in body_edits(else_s) {
                out.push(Stmt::If {
                    cond: cond.clone(),
                    then_s: then_s.clone(),
                    else_s: nb,
                    pos: *pos,
                });
            }
        }
        Stmt::While { cond, body, pos } => {
            for nb in body_edits(body) {
                out.push(Stmt::While {
                    cond: cond.clone(),
                    body: nb,
                    pos: *pos,
                });
            }
        }
        Stmt::For {
            init,
            cond,
            step,
            body,
            pos,
        } => {
            for nb in body_edits(body) {
                out.push(Stmt::For {
                    init: init.clone(),
                    cond: cond.clone(),
                    step: step.clone(),
                    body: nb,
                    pos: *pos,
                });
            }
        }
        Stmt::Block(body) => {
            for nb in body_edits(body) {
                out.push(Stmt::Block(nb));
            }
        }
        _ => {}
    }
    out
}

/// Statement variants with one expression replaced by a subexpression.
fn stmt_expr_edits(stmt: &Stmt) -> Vec<Stmt> {
    match stmt {
        Stmt::Assign {
            target,
            op,
            value,
            pos,
        } => expr_edits(value)
            .into_iter()
            .map(|v| Stmt::Assign {
                target: target.clone(),
                op: *op,
                value: v,
                pos: *pos,
            })
            .collect(),
        Stmt::If {
            cond,
            then_s,
            else_s,
            pos,
        } => expr_edits(cond)
            .into_iter()
            .map(|c| Stmt::If {
                cond: c,
                then_s: then_s.clone(),
                else_s: else_s.clone(),
                pos: *pos,
            })
            .collect(),
        Stmt::Return {
            value: Some(v),
            pos,
        } => expr_edits(v)
            .into_iter()
            .map(|nv| Stmt::Return {
                value: Some(nv),
                pos: *pos,
            })
            .collect(),
        _ => Vec::new(),
    }
}

/// Smaller expressions that might preserve the failure: each direct
/// subexpression, and literal `0` as a last resort.
fn expr_edits(e: &Expr) -> Vec<Expr> {
    let mut out = Vec::new();
    match e {
        Expr::Binary { lhs, rhs, .. } => {
            out.push((**lhs).clone());
            out.push((**rhs).clone());
        }
        Expr::Unary { expr, .. } | Expr::Cast { expr, .. } => {
            out.push((**expr).clone());
        }
        Expr::Call { args, pos, .. } => {
            out.extend(args.iter().cloned());
            out.push(Expr::IntLit(0, *pos));
        }
        Expr::Index { index, pos, .. } => {
            out.push((**index).clone());
            out.push(Expr::IntLit(0, *pos));
        }
        Expr::IntLit(..) | Expr::FloatLit(..) | Expr::Var(..) => {}
    }
    if !matches!(e, Expr::IntLit(..) | Expr::FloatLit(..)) {
        out.push(Expr::IntLit(0, e.pos()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{generate, GenConfig};

    #[test]
    fn injected_failure_shrinks_to_a_small_repro() {
        // Inject a "miscompile" that fires whenever the source mentions
        // A2; the shrinker must keep one A2 reference and delete nearly
        // everything else.
        let cfg = GenConfig {
            max_arrays: 4,
            ..GenConfig::default()
        };
        let mut picked = None;
        for seed in 0..50 {
            let ast = generate(seed, &cfg);
            let src = dsp_frontend::print_ast(&ast);
            if src.contains("A2") {
                picked = Some(ast);
                break;
            }
        }
        let ast = picked.expect("some seed references a third array");
        let opts = ShrinkOptions {
            diff: DiffOptions {
                inject_when_contains: Some("A2".into()),
                ..DiffOptions::default()
            },
            ..ShrinkOptions::default()
        };
        let kind = FailureKind::Mismatch(dsp_backend::Strategy::CbPartition);
        let r = shrink(&ast, &kind, &opts);
        assert!(r.shrunk_bytes < r.original_bytes, "{r:?}");
        assert!(
            r.source.contains("A2"),
            "repro keeps the trigger:\n{}",
            r.source
        );
        // The minimal repro is the trigger declaration plus an empty
        // main — a handful of lines, not the original program.
        assert!(
            r.source.len() < 120,
            "expected near-minimal repro, got {} bytes:\n{}",
            r.source.len(),
            r.source
        );
        // And it still fails the oracle the same way.
        let v = diff_source(&r.source, &opts.diff);
        assert_eq!(v.failure().unwrap().kind, kind);
    }

    #[test]
    fn passing_program_is_not_shrunk() {
        let ast = dsp_frontend::parse::parse("int out; void main() { out = 1; }").unwrap();
        let r = shrink(&ast, &FailureKind::InterpTrap, &ShrinkOptions::default());
        assert_eq!(r.edits_applied, 0, "{r:?}");
        assert_eq!(r.source, dsp_frontend::print_ast(&ast));
    }
}
