//! Metric-name drift guard: the `dsp_*` families a live fleet actually
//! exports must match the families the docs claim exist, in **both**
//! directions. A renamed counter that leaves a stale name in
//! docs/observability.md — or a new family that never gets documented —
//! fails this test with the exact missing names. Each scrape must also
//! be well-formed as `dsp_obs::prom` reads it: no family declared
//! twice, no sample outside a `# TYPE`-declared family, and every
//! histogram's `+Inf` bucket equal to its `_count`.
//!
//! Live families come from real processes: one `dualbank serve` (with
//! a `--cache-dir` so the disk-cache families are live, and default
//! tracing so the histogram families are live), one `dualbank router`
//! fronting it, and one `dualbank chaos` proxy. Written families come
//! from the source: every `dsp_*` name the serve, router, chaos and
//! trace crates hand to the `dsp_trace::expo` writers, so a family no
//! scrape here makes live still cannot drift. Documented families are
//! every `dsp_[a-z0-9_]*` token in docs/observability.md,
//! docs/serving.md, and docs/chaos.md.

mod common;

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::time::Duration;

use common::{scrape, spawn_chaos, spawn_router, Node};
use dsp_serve::client::ClientConn;

/// Family names declared by `# TYPE` lines in one exposition.
fn live_families(exposition: &str) -> BTreeSet<String> {
    exposition
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .filter_map(|rest| rest.split_whitespace().next())
        .filter(|name| name.starts_with("dsp_"))
        .map(str::to_string)
        .collect()
}

/// Family names the exposition writers are handed in the non-test code
/// of `crates/{serve,router,chaos,trace}/src`: every string literal that
/// is exactly `"dsp_[a-z0-9_]+"` (the writers take names as literals,
/// directly or through a local or a table row; sample lines and
/// prefixes in tests carry spaces, braces or live after `#[cfg(test)]`).
fn written_families(root: &Path) -> BTreeSet<String> {
    fn sources(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
            let path = entry.expect("directory entry").path();
            if path.is_dir() {
                sources(&path, out);
            } else if path.extension().is_some_and(|x| x == "rs") {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    for krate in ["serve", "router", "chaos", "trace"] {
        sources(&root.join("crates").join(krate).join("src"), &mut files);
    }
    let mut names = BTreeSet::new();
    for file in files {
        let text = std::fs::read_to_string(&file).expect("read source");
        let code = text.split("#[cfg(test)]").next().unwrap_or_default();
        for literal in code.split('"').skip(1).step_by(2) {
            let is_name = literal.strip_prefix("dsp_").is_some_and(|rest| {
                !rest.is_empty()
                    && rest
                        .bytes()
                        .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
            });
            if is_name {
                names.insert(literal.to_string());
            }
        }
    }
    names
}

/// Structural checks on one scrape, named `node` in failures.
fn assert_well_formed(node: &str, exposition: &str) {
    let mut declared = BTreeSet::new();
    for name in exposition
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .filter_map(|rest| rest.split_whitespace().next())
    {
        assert!(
            declared.insert(name),
            "{node}: family {name} declared twice"
        );
    }
    for family in dsp_obs::prom::parse(exposition) {
        assert!(
            declared.contains(family.name.as_str()),
            "{node}: samples {:?} belong to no # TYPE-declared family",
            family.samples.iter().map(|s| &s.name).collect::<Vec<_>>()
        );
        if family.kind != "histogram" {
            for s in &family.samples {
                assert_eq!(s.name, family.name, "{node}: stray series in {family:?}");
            }
            continue;
        }
        let mut inf = BTreeMap::new();
        let mut count = BTreeMap::new();
        for s in &family.samples {
            let rest: Vec<(String, String)> = s
                .labels
                .iter()
                .filter(|(k, _)| k != "le")
                .cloned()
                .collect();
            let key = dsp_obs::prom::label_key(&rest);
            if s.name == format!("{}_count", family.name) {
                count.insert(key, s.value);
            } else if s.label("le") == Some("+Inf") {
                inf.insert(key, s.value);
            }
        }
        assert!(
            !count.is_empty(),
            "{node}: histogram {} has no _count",
            family.name
        );
        assert_eq!(inf, count, "{node}: {} +Inf buckets vs _count", family.name);
    }
}

/// Every maximal `dsp_[a-z0-9_]*` token in a document.
fn doc_tokens(text: &str) -> BTreeSet<String> {
    let mut tokens = BTreeSet::new();
    let bytes = text.as_bytes();
    let mut i = 0;
    while let Some(at) = text[i..].find("dsp_") {
        let start = i + at;
        let mut end = start;
        while end < bytes.len()
            && (bytes[end].is_ascii_lowercase()
                || bytes[end].is_ascii_digit()
                || bytes[end] == b'_')
        {
            end += 1;
        }
        tokens.insert(text[start..end].trim_end_matches('_').to_string());
        i = end.max(start + 4);
    }
    tokens
}

/// Reduce a documented token to the family it names: histogram series
/// suffixes collapse onto the declared family.
fn doc_family(token: &str) -> &str {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(stem) = token.strip_suffix(suffix) {
            return stem;
        }
    }
    token
}

#[test]
fn docs_and_live_metrics_agree_on_every_family_name() {
    let cache_dir = std::env::temp_dir().join(format!("dualbank-drift-{}", std::process::id()));
    std::fs::create_dir_all(&cache_dir).expect("create cache dir");
    let cache = cache_dir.to_str().expect("utf-8 cache dir");
    // --cache-dir makes the disk-cache families live; tracing (default
    // on) makes the histogram families live.
    let replica = Node::spawn(
        &[
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--jobs",
            "1",
            "--workers",
            "6",
            "--replica-id",
            "drift",
            "--cache-dir",
            cache,
        ],
        "dsp-serve listening on http://",
    );
    let router = spawn_router(&[&replica.addr], &[]);
    // The chaos admin surface carries the dsp_chaos_* families; the
    // scenario, seed and fault rate are the proxy's defaults.
    let chaos = spawn_chaos(&replica.addr, "mixed", 1, 50);

    // Histogram families render only once non-empty: one compile
    // through the router feeds the router's request/upstream families
    // and the replica's stage/queue-wait families before the scrape.
    let body = "{\"source\": \"int x; void main() { x = 1 + 2; }\", \"strategy\": \"cb\"}";
    let resp = ClientConn::connect(&router.addr, Duration::from_secs(120))
        .expect("connect router")
        .request("POST", "/compile", Some(body))
        .expect("routed compile");
    assert_eq!(
        resp.status,
        200,
        "routed compile must succeed: {}",
        resp.text()
    );

    let mut live = BTreeSet::new();
    for (node, addr) in [
        ("serve", &replica.addr),
        ("router", &router.addr),
        ("chaos", &chaos.admin),
    ] {
        let exposition = scrape(addr);
        assert_well_formed(node, &exposition);
        live.extend(live_families(&exposition));
    }
    drop(chaos);
    let _ = std::fs::remove_dir_all(&cache_dir);
    assert!(
        live.iter().any(|f| f.starts_with("dsp_serve_")),
        "no dsp_serve_ families scraped — did the replica come up?"
    );

    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let written = written_families(root);
    for family in ["dsp_serve_up", "dsp_router_up", "dsp_chaos_up"] {
        assert!(written.contains(family), "source scan missed {family}");
    }
    // Families the writers render only in states no scrape here reaches
    // count as exported too.
    let live: BTreeSet<String> = live.union(&written).cloned().collect();

    let docs_root = root.join("docs");
    let mut documented = BTreeSet::new();
    for doc in ["observability.md", "serving.md", "chaos.md"] {
        let text = std::fs::read_to_string(docs_root.join(doc))
            .unwrap_or_else(|e| panic!("read docs/{doc}: {e}"));
        documented.extend(doc_tokens(&text));
    }

    // Direction 1: every live family must be named somewhere in docs.
    let doc_families: BTreeSet<&str> = documented.iter().map(|t| doc_family(t)).collect();
    let undocumented: Vec<&String> = live
        .iter()
        .filter(|f| !doc_families.contains(f.as_str()))
        .collect();
    assert!(
        undocumented.is_empty(),
        "live or written metric families missing from docs/{{observability,serving,chaos}}.md: {undocumented:?}"
    );

    // Direction 2: every documented dsp_serve_/dsp_router_/dsp_chaos_
    // token must still exist. A token that is a strict prefix of a
    // live family (e.g. a family group like `dsp_serve_cache`) passes;
    // a fully stale name fails.
    let stale: Vec<&String> = documented
        .iter()
        .filter(|t| {
            ["dsp_serve_", "dsp_router_", "dsp_chaos_"]
                .iter()
                .any(|p| t.starts_with(p))
        })
        .filter(|t| {
            let fam = doc_family(t);
            !live
                .iter()
                .any(|f| f == fam || f.starts_with(&format!("{fam}_")))
        })
        .collect();
    assert!(
        stale.is_empty(),
        "docs name dsp_* families no live process exports and no writer names (renamed or removed?): {stale:?}"
    );
}
