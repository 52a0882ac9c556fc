//! Workspace walker: finds the `.rs` files detlint owns and runs the rule
//! pass over each, in a deterministic order.

use crate::lexer;
use crate::report::Report;
use crate::rules::{self, Scope};
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directory prefixes (workspace-relative) that are never scanned.
///
/// - `target`: build output.
/// - `vendor`: offline stand-ins for external crates — not our code, and
///   deliberately mirroring foreign APIs.
/// - `crates/detlint/fixtures`: the lint's own test corpus of deliberate
///   violations.
const SKIP_PREFIXES: [&str; 4] = ["target", "vendor", ".git", "crates/detlint/fixtures"];

/// Recursively collects workspace-relative paths of `.rs` files under
/// `root`, sorted for deterministic reports.
pub fn collect_rust_files(root: &Path) -> io::Result<Vec<String>> {
    let mut out = Vec::new();
    walk(root, root, &mut out)?;
    out.sort();
    Ok(out)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<String>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        let rel = rel_path(root, &path);
        if SKIP_PREFIXES
            .iter()
            .any(|p| rel == *p || rel.starts_with(&format!("{p}/")))
        {
            continue;
        }
        if path.is_dir() {
            walk(root, &path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(rel);
        }
    }
    Ok(())
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// The directory holding `rel`: the files of one module tree.
fn module_dir(rel: &str) -> &str {
    rel.rsplit_once('/').map_or("", |(dir, _)| dir)
}

/// Scans the workspace rooted at `root` and returns the full report.
pub fn scan(root: &Path) -> io::Result<Report> {
    let files = collect_rust_files(root)?;
    let mut lexed = Vec::with_capacity(files.len());
    for rel in &files {
        lexed.push(lexer::lex(&fs::read_to_string(root.join(rel))?));
    }
    // A struct's hash-typed fields may be iterated from any file of its
    // module directory, so `unordered-iter` pools declarations per
    // directory before checking any file.
    let mut module_hash: BTreeMap<&str, BTreeSet<String>> = BTreeMap::new();
    for (rel, file) in files.iter().zip(&lexed) {
        if Scope::for_path(rel).d1 {
            let own = rules::collect_hash_idents(file, &rules::test_mask(file), &BTreeSet::new());
            module_hash
                .entry(module_dir(rel))
                .or_default()
                .extend(own.names);
        }
    }
    let mut report = Report::new(root.display().to_string());
    let none = BTreeSet::new();
    for (rel, file) in files.iter().zip(&lexed) {
        let shared = module_hash.get(module_dir(rel)).unwrap_or(&none);
        report.absorb(rules::check_file(rel, file, Scope::for_path(rel), shared));
    }
    report.finish(files.len());
    Ok(report)
}
