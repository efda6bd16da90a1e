#![warn(missing_docs)]
//! Seeded DSP-C program generation and differential fuzzing.
//!
//! The compiler pipeline in this workspace has seven code-generation
//! strategies that must all agree with one reference interpreter. The
//! hand-written benchmark suite exercises 23 programs; this crate
//! generates unbounded families of new ones and checks the agreement
//! automatically:
//!
//! * [`generate`] — a deterministic, seed-driven generator of valid
//!   DSP-C programs (typed expressions, counted loops, in-bounds affine
//!   subscripts, helper functions) with size knobs ([`GenConfig`]);
//! * [`differ`] — the oracle: run one program through every
//!   [`dsp_backend::Strategy`] as engine jobs
//!   ([`dsp_driver::engine::run_job`]), compare final memories
//!   word-for-word against the interpreter, and enforce the
//!   `Ideal ≤ strategy` cycle invariant; [`differ::judge`] turns a row
//!   of job outcomes into the verdict, for one program and for a
//!   campaign alike;
//! * [`shrink`] — greedy AST-level reduction of failing programs to
//!   minimal reproducers, preserving the exact failure kind;
//! * [`fuzz`] — campaigns: the program × strategy matrix through the
//!   batch [`dsp_driver::Engine`], judged row by row by the same
//!   oracle, byte-deterministic JSON reports,
//!   persistent corpus output, and a byte-level mutation mode that
//!   hardens the front-end against hostile input.
//!
//! # Example
//!
//! ```
//! use dsp_gen::{differ, generate::{self, GenConfig}};
//!
//! let src = generate::generate_source(42, &GenConfig::default());
//! let verdict = differ::diff_source(&src, &differ::DiffOptions::default());
//! assert!(verdict.failure().is_none());
//! ```

pub mod differ;
pub mod fuzz;
pub mod generate;
pub mod rng;
pub mod shrink;

pub use differ::{diff_source, ideal_slack, judge, DiffOptions, FailureKind, Verdict};
pub use fuzz::{
    mutate_bytes, run_campaign, run_mutation_campaign, FuzzOptions, FuzzReport, MutateOptions,
};
pub use generate::{generate, generate_source, Bias, GenConfig};
pub use shrink::{shrink, ShrinkOptions, ShrinkResult};
