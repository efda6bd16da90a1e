//! Corpus loading: benchmarks from `.dsp` files on disk.
//!
//! A corpus file is plain DSP-C source, optionally preceded by `//`
//! comment lines recording provenance (the fuzzer writes seed, failure
//! kind, and shrink statistics there). Loading derives the benchmark
//! name from the file name and checks **every** global — corpus
//! programs exist to catch miscompiles, so the whole final memory
//! state is the contract, not a hand-picked output variable.
//!
//! The regression suite (`tests/fuzz_corpus.rs`) replays this layout
//! through the oracle, and the serve loopback test
//! (`crates/serve/tests/loopback.rs`) posts it as `/compile` traffic.
//! [`benchmark_from_source`] is also the differential oracle's
//! benchmark builder: `dsp-gen` wraps every program it judges, corpus
//! entry or freshly generated, with it, so a fuzz verdict and a corpus
//! replay check the same globals.

use std::path::{Path, PathBuf};

use crate::{Benchmark, Kind};

/// Extension of corpus entries (`fir-mismatch.dsp`).
pub const CORPUS_EXT: &str = "dsp";

/// An error loading a corpus.
#[derive(Debug)]
pub enum CorpusError {
    /// Directory or file IO failed.
    Io {
        /// Offending path.
        path: PathBuf,
        /// Underlying error.
        error: std::io::Error,
    },
    /// A corpus entry failed to parse as DSP-C.
    Parse {
        /// Offending path.
        path: PathBuf,
        /// Front-end error text.
        detail: String,
    },
}

impl std::fmt::Display for CorpusError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CorpusError::Io { path, error } => {
                write!(f, "corpus: cannot read `{}`: {error}", path.display())
            }
            CorpusError::Parse { path, detail } => {
                write!(f, "corpus: `{}` is not DSP-C: {detail}", path.display())
            }
        }
    }
}

impl std::error::Error for CorpusError {}

/// Wrap DSP-C source text as a benchmark that checks every global.
///
/// # Errors
///
/// Returns [`CorpusError::Parse`] when the source fails the front-end
/// (corpus entries must stay compilable — a stale entry is a bug).
pub fn benchmark_from_source(
    name: &str,
    source: &str,
    origin: &Path,
) -> Result<Benchmark, CorpusError> {
    let ast = dsp_frontend::parse::parse(source).map_err(|e| CorpusError::Parse {
        path: origin.to_path_buf(),
        detail: e.to_string(),
    })?;
    let check_globals = ast
        .items
        .iter()
        .filter_map(|item| match item {
            dsp_frontend::ast::Item::Global(g) => Some(g.name.clone()),
            dsp_frontend::ast::Item::Func(_) => None,
        })
        .collect();
    Ok(Benchmark {
        name: name.to_string(),
        kind: Kind::Application,
        description: format!("corpus entry {}", origin.display()),
        source: source.to_string(),
        check_globals,
    })
}

/// Load one `.dsp` corpus file.
///
/// # Errors
///
/// Returns [`CorpusError`] on IO or parse failure.
pub fn load_file(path: &Path) -> Result<Benchmark, CorpusError> {
    let source = std::fs::read_to_string(path).map_err(|error| CorpusError::Io {
        path: path.to_path_buf(),
        error,
    })?;
    let name = path
        .file_stem()
        .map_or_else(|| "corpus".to_string(), |s| s.to_string_lossy().to_string());
    benchmark_from_source(&name, &source, path)
}

/// Load every `*.dsp` file in `dir`, sorted by file name so corpus
/// order (and everything derived from it: engine matrices, fuzz
/// replay, served traffic) is deterministic.
///
/// # Errors
///
/// Returns [`CorpusError`] on IO failure or the first unparsable entry.
pub fn load_dir(dir: &Path) -> Result<Vec<Benchmark>, CorpusError> {
    let entries = std::fs::read_dir(dir).map_err(|error| CorpusError::Io {
        path: dir.to_path_buf(),
        error,
    })?;
    let mut paths: Vec<PathBuf> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == CORPUS_EXT))
        .collect();
    paths.sort();
    paths.iter().map(|p| load_file(p)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loads_a_directory_in_name_order() {
        let dir = std::env::temp_dir().join(format!("dsp-corpus-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("b-second.dsp"),
            "// seed: 7\nint out; void main() { out = 2; }",
        )
        .unwrap();
        std::fs::write(dir.join("a-first.dsp"), "int out; void main() { out = 1; }").unwrap();
        std::fs::write(dir.join("ignored.txt"), "not dsp").unwrap();
        let benches = load_dir(&dir).unwrap();
        assert_eq!(benches.len(), 2);
        assert_eq!(benches[0].name, "a-first");
        assert_eq!(benches[1].name, "b-second");
        assert_eq!(benches[0].check_globals, vec!["out".to_string()]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_global_is_checked() {
        let b = benchmark_from_source(
            "t",
            "int a; float B[4]; int helper() { return 1; } void main() { a = helper(); }",
            Path::new("t.dsp"),
        )
        .unwrap();
        assert_eq!(b.check_globals, vec!["a".to_string(), "B".to_string()]);
    }

    #[test]
    fn unparsable_entry_is_an_error() {
        let err = benchmark_from_source("bad", "int ;;;", Path::new("bad.dsp")).unwrap_err();
        assert!(err.to_string().contains("not DSP-C"), "{err}");
    }
}
