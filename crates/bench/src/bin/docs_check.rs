//! Docs link checker: every relative Markdown link in the repository's
//! documentation must point at a file that exists, every `#anchor` must
//! match a real heading, every backtick path reference (`crates/…`,
//! `docs/…`, …) must name a real file or directory, and every
//! `--bin NAME` / `--example NAME` must name a target that still builds.
//! Run by CI so the operator docs cannot silently rot as the tree moves.
//!
//! ```text
//! cargo run --release -p chatiyp-bench --bin docs_check
//! ```
//!
//! Exits non-zero listing every broken reference.

use std::fs;
use std::path::{Path, PathBuf};

/// Markdown files checked: everything at the repository root plus
/// docs/. The change log, the issue scratchpad and the roadmap are
/// excluded — they describe past and future states of the tree (the
/// roadmap names paths to delete, which then are), so their references
/// legitimately dangle.
fn doc_files(root: &Path) -> Vec<PathBuf> {
    const EXCLUDED: [&str; 3] = ["CHANGES.md", "ISSUE.md", "ROADMAP.md"];
    let mut out = Vec::new();
    for dir in [root.to_path_buf(), root.join("docs")] {
        let Ok(entries) = fs::read_dir(&dir) else {
            continue;
        };
        for e in entries.flatten() {
            let p = e.path();
            let name = e.file_name();
            if p.extension().is_some_and(|x| x == "md")
                && !EXCLUDED.iter().any(|x| name.to_string_lossy() == *x)
            {
                out.push(p);
            }
        }
    }
    out.sort();
    out
}

/// GitHub-style anchor slug for a heading: lowercase, spaces to
/// hyphens, punctuation except `-`/`_` dropped.
fn slug(heading: &str) -> String {
    heading
        .trim()
        .chars()
        .filter_map(|c| {
            if c.is_alphanumeric() {
                Some(c.to_ascii_lowercase())
            } else if c == ' ' {
                Some('-')
            } else if c == '-' || c == '_' {
                Some(c)
            } else {
                None
            }
        })
        .collect()
}

/// All heading anchors in a Markdown file (fenced code excluded).
fn anchors(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut in_fence = false;
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence {
            continue;
        }
        if let Some(h) = line.strip_prefix('#') {
            let title = h.trim_start_matches('#');
            out.push(slug(title));
        }
    }
    out
}

/// Extracts `[text](target)` link targets, skipping fenced code blocks
/// and inline code spans.
fn links(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut in_fence = false;
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence {
            continue;
        }
        let bytes = line.as_bytes();
        let mut i = 0;
        let mut in_code = false;
        while i < bytes.len() {
            match bytes[i] {
                b'`' => in_code = !in_code,
                b']' if !in_code && i + 1 < bytes.len() && bytes[i + 1] == b'(' => {
                    if let Some(end) = line[i + 2..].find(')') {
                        out.push(line[i + 2..i + 2 + end].to_string());
                        i += 1 + end;
                    }
                }
                _ => {}
            }
            i += 1;
        }
    }
    out
}

/// Extracts backtick code spans that look like repository paths.
fn path_refs(text: &str) -> Vec<String> {
    const PREFIXES: [&str; 5] = ["crates/", "docs/", "examples/", "shims/", "tests/"];
    let mut out = Vec::new();
    let mut in_fence = false;
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence {
            continue;
        }
        for (i, span) in line.split('`').enumerate() {
            // Odd split indices are inside backticks.
            if i % 2 == 1
                && PREFIXES.iter().any(|p| span.starts_with(p))
                && span
                    .chars()
                    .all(|c| c.is_alphanumeric() || "./_-".contains(c))
            {
                out.push(span.to_string());
            }
        }
    }
    out
}

/// Extracts the `(flag, NAME)` of every `--bin NAME` / `--example NAME`
/// — fenced code included, since that is where commands are quoted.
fn target_refs(text: &str) -> Vec<(&'static str, String)> {
    let mut out = Vec::new();
    for flag in ["--bin", "--example"] {
        for (at, _) in text.match_indices(flag) {
            // `--bins` and the like are other flags, not a named target.
            let Some(rest) = text[at + flag.len()..].strip_prefix(' ') else {
                continue;
            };
            let name: String = rest
                .trim_start_matches(' ')
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_' || *c == '-')
                .collect();
            if !name.is_empty() {
                out.push((flag, name));
            }
        }
    }
    out
}

/// The source file behind a `--bin` / `--example` name: the umbrella
/// crate's one binary, a bench-crate bin, or a root example.
fn target_source(root: &Path, flag: &str, name: &str) -> PathBuf {
    match (flag, name) {
        ("--bin", "chatiyp") => root.join("src/main.rs"),
        ("--bin", _) => root.join(format!("crates/bench/src/bin/{name}.rs")),
        _ => root.join(format!("examples/{name}.rs")),
    }
}

fn main() {
    let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
        .canonicalize()
        .expect("repository root resolves");
    let files = doc_files(&root);
    assert!(!files.is_empty(), "no Markdown files found under {root:?}");

    let mut broken: Vec<String> = Vec::new();
    let mut checked = 0usize;

    for file in &files {
        let text = fs::read_to_string(file).expect("doc file reads");
        let dir = file.parent().expect("doc file has a parent");
        let rel = file.strip_prefix(&root).unwrap_or(file).display();

        for target in links(&text) {
            // External links and mail addresses are out of scope.
            if target.starts_with("http://")
                || target.starts_with("https://")
                || target.starts_with("mailto:")
            {
                continue;
            }
            checked += 1;
            let (path_part, anchor) = match target.split_once('#') {
                Some((p, a)) => (p, Some(a)),
                None => (target.as_str(), None),
            };
            // `#anchor` alone refers to the current file.
            let resolved = if path_part.is_empty() {
                file.clone()
            } else {
                dir.join(path_part)
            };
            if !resolved.exists() {
                broken.push(format!("{rel}: link target missing: {target}"));
                continue;
            }
            if let Some(a) = anchor {
                if resolved.extension().is_some_and(|x| x == "md") {
                    let dest = fs::read_to_string(&resolved).expect("link target reads");
                    if !anchors(&dest).iter().any(|s| s == a) {
                        broken.push(format!("{rel}: anchor #{a} not found in {target}"));
                    }
                }
            }
        }

        for p in path_refs(&text) {
            checked += 1;
            // Trailing slash means a directory reference; both are
            // checked the same way.
            if !root.join(p.trim_end_matches('/')).exists() {
                broken.push(format!("{rel}: backtick path does not exist: {p}"));
            }
        }

        for (flag, name) in target_refs(&text) {
            checked += 1;
            if !target_source(&root, flag, &name).exists() {
                broken.push(format!("{rel}: no such target: {flag} {name}"));
            }
        }
    }

    println!(
        "docs_check: {} files, {checked} references checked",
        files.len()
    );
    if !broken.is_empty() {
        eprintln!("docs_check: {} broken references:", broken.len());
        for b in &broken {
            eprintln!("  {b}");
        }
        std::process::exit(1);
    }
    println!("docs_check: all references resolve");
}
