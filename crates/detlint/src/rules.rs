//! The determinism & robustness rules and the per-file checking pass.
//!
//! Each rule protects one invariant behind the simulator's bit-identical
//! replay guarantee (see DESIGN.md §"Determinism lint"):
//!
//! | id              | invariant                                                      |
//! |-----------------|----------------------------------------------------------------|
//! | `unordered-iter`| no hash-order iteration feeds a report or trace                |
//! | `wall-clock`    | sim code reads `SimTime`, never the host clock                 |
//! | `thread`        | the simulator is single-threaded: no thread spawns             |
//! | `rng`           | randomness flows only through `simcore::SimRng`                |
//! | `panic`         | library code degrades gracefully instead of panicking          |
//! | `unsafe`        | every `unsafe` block justifies itself with a `// SAFETY:` note |
//! | `raw-sync`      | no `std::sync` blocking or ordering primitives                 |
//!
//! A site can be waived with an inline comment carrying a written
//! justification:
//!
//! ```text
//! // detlint: allow(unordered-iter) — result is sorted two lines below
//! ```
//!
//! The waiver goes on the offending line or on a comment line directly
//! above it. A waiver without a justification does not suppress anything —
//! it is itself reported (`bad-waiver`).

use crate::lexer::LexedFile;
use std::collections::{BTreeMap, BTreeSet};

/// The seven enforced rules, in report order.
pub const RULES: [&str; 7] = [
    "unordered-iter",
    "wall-clock",
    "thread",
    "rng",
    "panic",
    "unsafe",
    "raw-sync",
];

/// Crates whose non-test code feeds reports/traces: hash-order iteration
/// and panics are banned there (rules `unordered-iter`, `panic`). The
/// gateway qualifies because its live run must replay bit-identically
/// from the session log — a panic or hash-order dependency in the serving
/// path would break that contract exactly like one in the simulator.
pub const REPORT_CRATES: [&str; 7] = [
    "simcore",
    "flowserve",
    "npu",
    "core",
    "model",
    "workload",
    "gateway",
];

/// `std::sync` members that carry synchronization semantics. `Arc` and
/// `PoisonError` are deliberately absent: sharing and poison handling are
/// inert; it is blocking and ordering primitives that would let thread
/// scheduling leak into a run.
const RAW_SYNC_TYPES: [&str; 8] = [
    "Mutex", "RwLock", "Condvar", "Barrier", "OnceLock", "Once", "mpsc", "atomic",
];

/// One rule violation at a source location.
#[derive(Debug, Clone, serde::Serialize)]
pub struct Violation {
    /// Rule id (one of [`RULES`], or `bad-waiver`).
    pub rule: String,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description of the violation.
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
}

/// A parsed waiver comment (valid or not, used or not).
#[derive(Debug, Clone, serde::Serialize)]
pub struct Waiver {
    /// Rule id the waiver names.
    pub rule: String,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line of the waiver comment.
    pub line: usize,
    /// The written justification (empty means invalid).
    pub justification: String,
    /// Whether the waiver suppressed at least one violation this run.
    pub used: bool,
}

/// Which rules apply to a file, derived from its workspace-relative path.
#[derive(Debug, Clone, Copy)]
pub struct Scope {
    /// `unordered-iter` (report/trace-feeding crate src trees only).
    pub d1: bool,
    /// `wall-clock` (everywhere but `crates/bench`).
    pub d2: bool,
    /// `thread` (everywhere outside test code).
    pub d3: bool,
    /// `rng` (everywhere).
    pub d4: bool,
    /// `panic` (report/trace-feeding crate src trees only).
    pub d5: bool,
    /// `unsafe` (everywhere, including tests).
    pub d6: bool,
    /// `raw-sync` (everywhere outside test code).
    pub d7: bool,
    /// Whole file is test code (`tests/`, `benches/` directories).
    pub test_file: bool,
}

impl Scope {
    /// Computes the rule scope for a workspace-relative path (forward
    /// slashes).
    pub fn for_path(rel: &str) -> Scope {
        let test_file = rel.split('/').any(|seg| seg == "tests" || seg == "benches");
        let in_report_crate = REPORT_CRATES
            .iter()
            .any(|c| rel.starts_with(&format!("crates/{c}/src/")));
        let in_bench = rel.starts_with("crates/bench/");
        Scope {
            d1: in_report_crate && !test_file,
            d2: !in_bench && !test_file,
            d3: !test_file,
            d4: !test_file,
            d5: in_report_crate && !test_file,
            d6: true,
            d7: !test_file,
            test_file,
        }
    }
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Whether `hay[pos..pos+needle.len()] == needle` with word boundaries on
/// both sides (for needles that start/end with ident chars).
fn word_at(hay: &[char], pos: usize, needle: &str) -> bool {
    let n: Vec<char> = needle.chars().collect();
    if pos + n.len() > hay.len() || hay[pos..pos + n.len()] != n[..] {
        return false;
    }
    let starts_word = n.first().is_some_and(|&c| is_ident_char(c));
    let ends_word = n.last().is_some_and(|&c| is_ident_char(c));
    if starts_word && pos > 0 && is_ident_char(hay[pos - 1]) {
        return false;
    }
    if ends_word && pos + n.len() < hay.len() && is_ident_char(hay[pos + n.len()]) {
        return false;
    }
    true
}

/// All word-boundary occurrences of `needle` in `line`.
fn find_word(line: &str, needle: &str) -> Vec<usize> {
    let hay: Vec<char> = line.chars().collect();
    (0..hay.len())
        .filter(|&i| word_at(&hay, i, needle))
        .collect()
}

/// Per-line mask of `#[cfg(test)]` / `#[test]` regions inside a file.
///
/// Tracks brace depth; an attribute arms a pending marker that fires on the
/// next `{` (the test item's body) and clears on a `;` at the same depth
/// (attribute on a braceless item such as `#[cfg(test)] use ...;`).
pub fn test_mask(file: &LexedFile) -> Vec<bool> {
    let mut mask = vec![false; file.len()];
    let mut depth: i32 = 0;
    let mut pending = false;
    let mut region_end: Option<i32> = None;
    for (idx, line) in file.code.iter().enumerate() {
        if region_end.is_some() {
            mask[idx] = true;
        }
        let has_attr = region_end.is_none()
            && (line.contains("#[cfg(test)")
                || line.contains("#[cfg(all(test")
                || line.contains("#[cfg(any(test")
                || line.contains("#[test]"));
        if has_attr {
            pending = true;
            mask[idx] = true;
        }
        for c in line.chars() {
            match c {
                '{' => {
                    depth += 1;
                    if pending && region_end.is_none() {
                        region_end = Some(depth - 1);
                        pending = false;
                        mask[idx] = true;
                    }
                }
                '}' => {
                    depth -= 1;
                    if region_end.is_some_and(|d| depth <= d) {
                        region_end = None;
                    }
                }
                ';' if pending && region_end.is_none() => {
                    pending = false;
                }
                _ => {}
            }
        }
    }
    mask
}

/// A waiver parsed from a comment, before it is matched to a target line.
#[derive(Debug, Clone)]
struct ParsedWaiver {
    rules: Vec<String>,
    justification: String,
    decl_line: usize,
}

/// Extracts waivers and maps each to the code line it covers: the comment's
/// own line when it trails code, otherwise the next line carrying code
/// (skipping further comment-only lines).
fn collect_waivers(file: &LexedFile) -> (BTreeMap<usize, Vec<ParsedWaiver>>, Vec<ParsedWaiver>) {
    let mut by_target: BTreeMap<usize, Vec<ParsedWaiver>> = BTreeMap::new();
    let mut all = Vec::new();
    for (idx, comment) in file.comment.iter().enumerate() {
        // Doc comments are prose, not waivers: a rule description quoting
        // the waiver syntax must not accidentally declare one.
        let trimmed = comment.trim_start();
        if trimmed.starts_with("///") || trimmed.starts_with("//!") {
            continue;
        }
        let Some(pos) = comment.find("detlint:") else {
            continue;
        };
        let rest = &comment[pos + "detlint:".len()..];
        let parsed = parse_allow(rest).map(|(rules, justification)| ParsedWaiver {
            rules,
            justification,
            decl_line: idx + 1,
        });
        let Some(w) = parsed else {
            // Marker comment without a parseable allow(...) clause.
            all.push(ParsedWaiver {
                rules: Vec::new(),
                justification: String::new(),
                decl_line: idx + 1,
            });
            continue;
        };
        let own_code = !file.code[idx].trim().is_empty();
        let target = if own_code {
            idx
        } else {
            // Standalone comment: find the next line with code.
            let mut t = idx + 1;
            while t < file.len() && file.code[t].trim().is_empty() {
                t += 1;
            }
            t
        };
        by_target.entry(target).or_default().push(w.clone());
        all.push(w);
    }
    (by_target, all)
}

/// Parses `allow(rule[, rule...]) <sep> justification` from waiver comment
/// text. Returns `None` when the `allow(...)` clause is malformed.
fn parse_allow(rest: &str) -> Option<(Vec<String>, String)> {
    let rest = rest.trim_start();
    let rest = rest.strip_prefix("allow")?.trim_start();
    let rest = rest.strip_prefix('(')?;
    let close = rest.find(')')?;
    let rules: Vec<String> = rest[..close]
        .split(',')
        .map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty())
        .collect();
    if rules.is_empty() {
        return None;
    }
    let mut just = rest[close + 1..].trim();
    // Accept an em-dash / hyphen / colon separator before the justification.
    for sep in ["\u{2014}", "—", "--", "-", ":"] {
        if let Some(stripped) = just.strip_prefix(sep) {
            just = stripped.trim();
            break;
        }
    }
    Some((rules, just.to_string()))
}

/// Identifiers declared with a hash-map/set type in this file, plus the
/// subset that is *ambiguous* (also rebound with some other type, e.g. a
/// local `let loads: Vec<usize>` shadowing a `loads: HashMap` field).
/// Ambiguous names are only flagged behind an explicit `self.` receiver.
#[derive(Debug, Default)]
pub struct HashIdents {
    names: BTreeSet<String>,
    ambiguous: BTreeSet<String>,
}

/// Walks one code line backwards from `colon` collecting the identifier in
/// front of a `name: Type` annotation. Skips `&`, `&'a`, `mut` between the
/// colon and the type.
fn ident_before_colon(chars: &[char], colon: usize) -> Option<String> {
    let mut k = colon;
    while k > 0 && chars[k - 1].is_whitespace() {
        k -= 1;
    }
    let end = k;
    while k > 0 && is_ident_char(chars[k - 1]) {
        k -= 1;
    }
    if k == end {
        return None;
    }
    let name: String = chars[k..end].iter().collect();
    if name.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        return None;
    }
    Some(name)
}

/// Collects hash-typed identifier declarations from non-test code lines.
pub fn collect_hash_idents(file: &LexedFile, mask: &[bool]) -> HashIdents {
    let mut out = HashIdents::default();
    let mut let_bindings: BTreeMap<String, (bool, bool)> = BTreeMap::new(); // name -> (hash, other)
    for (idx, line) in file.code.iter().enumerate() {
        if mask[idx] {
            continue;
        }
        let chars: Vec<char> = line.chars().collect();
        let hash_positions: Vec<usize> = ["HashMap", "HashSet"]
            .iter()
            .flat_map(|t| find_word(line, t))
            .collect();
        // `let [mut] name` bindings: classify by whether the line mentions a
        // hash type at all (initializer `HashMap::new()`, annotation, or
        // turbofished collect).
        for lp in find_word(line, "let") {
            let mut k = lp + 3;
            while chars.get(k).is_some_and(|c| c.is_whitespace()) {
                k += 1;
            }
            if word_at(&chars, k, "mut") {
                k += 3;
                while chars.get(k).is_some_and(|c| c.is_whitespace()) {
                    k += 1;
                }
            }
            let start = k;
            while chars.get(k).is_some_and(|&c| is_ident_char(c)) {
                k += 1;
            }
            if k > start {
                let name: String = chars[start..k].iter().collect();
                let entry = let_bindings.entry(name).or_insert((false, false));
                if hash_positions.is_empty() {
                    entry.1 = true;
                } else {
                    entry.0 = true;
                }
            }
        }
        // `name: HashMap<...>` / `name: &'a HashSet<...>` annotations
        // (struct fields, fn params, let annotations).
        for &hp in &hash_positions {
            let mut k = hp;
            // Skip type-prefix tokens backwards: whitespace, `&`, `mut`,
            // lifetimes.
            loop {
                while k > 0 && chars[k - 1].is_whitespace() {
                    k -= 1;
                }
                if k > 0 && chars[k - 1] == '&' {
                    k -= 1;
                    continue;
                }
                if k >= 3 && chars[k - 3..k] == ['m', 'u', 't'] {
                    k -= 3;
                    continue;
                }
                // Lifetime: 'ident
                let mut j = k;
                while j > 0 && is_ident_char(chars[j - 1]) {
                    j -= 1;
                }
                if j > 0 && chars[j - 1] == '\'' {
                    k = j - 1;
                    continue;
                }
                break;
            }
            if k > 0 && chars[k - 1] == ':' && !(k > 1 && chars[k - 2] == ':') {
                if let Some(name) = ident_before_colon(&chars, k - 1) {
                    out.names.insert(name);
                }
            }
        }
    }
    for (name, (hash, other)) in let_bindings {
        if hash {
            out.names.insert(name.clone());
            if other {
                out.ambiguous.insert(name);
            }
        } else if out.names.contains(&name) {
            // A field name rebound as a differently-typed local.
            out.ambiguous.insert(name);
        }
    }
    out
}

/// Iteration methods whose order is the hasher's, not the program's.
const ITER_METHODS: [&str; 9] = [
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".into_keys()",
    ".values()",
    ".values_mut()",
    ".into_values()",
    ".into_iter()",
    ".drain(",
];

/// The receiver identifier ending right before byte position `dot` (the
/// `.`), plus whether it is `self.`-qualified (`self.name.iter()`).
fn receiver_at(chars: &[char], dot: usize) -> Option<(String, bool)> {
    let end = dot;
    let mut k = dot;
    while k > 0 && is_ident_char(chars[k - 1]) {
        k -= 1;
    }
    if k == end {
        return None;
    }
    let name: String = chars[k..end].iter().collect();
    let self_qualified = k >= 5 && chars[k - 5..k] == ['s', 'e', 'l', 'f', '.'];
    Some((name, self_qualified))
}

/// The trailing identifier of the nearest preceding non-blank code line —
/// the receiver of a method call that rustfmt wrapped onto its own line.
fn prev_line_receiver(file: &LexedFile, idx: usize) -> Option<(String, bool)> {
    let mut j = idx;
    while j > 0 {
        j -= 1;
        let prev = file.code[j].trim_end();
        if prev.trim().is_empty() {
            continue;
        }
        let pchars: Vec<char> = prev.chars().collect();
        return receiver_at(&pchars, pchars.len());
    }
    None
}

/// The result of checking one file.
pub struct FileReport {
    /// Violations found (waived ones excluded).
    pub violations: Vec<Violation>,
    /// Every waiver declared in the file, marked used/unused.
    pub waivers: Vec<Waiver>,
}

/// Runs every in-scope rule over one lexed file.
pub fn check_file(rel: &str, file: &LexedFile, scope: Scope) -> FileReport {
    let mask = test_mask(file);
    let (waiver_map, all_waivers) = collect_waivers(file);
    let mut used: BTreeSet<(usize, String)> = BTreeSet::new(); // (decl_line, rule)
    let mut violations = Vec::new();

    // Raw candidate sites per rule, gathered below; waiver filtering last.
    let mut candidates: Vec<(usize, &'static str, String)> = Vec::new(); // (line idx, rule, message)

    let hash_idents = if scope.d1 {
        collect_hash_idents(file, &mask)
    } else {
        HashIdents::default()
    };

    for (idx, line) in file.code.iter().enumerate() {
        let in_test = mask[idx] || scope.test_file;

        // D1 — unordered-iter.
        if scope.d1 && !in_test {
            let chars: Vec<char> = line.chars().collect();
            for m in ITER_METHODS {
                let method = m.trim_start_matches('.');
                let mut from = 0;
                while let Some(off) = line[from..].find(m) {
                    let dot = line[..from + off].chars().count();
                    let receiver = receiver_at(&chars, dot).or_else(|| {
                        // rustfmt splits long chains: `self.transfers\n.iter()`.
                        // When nothing but whitespace precedes the dot, the
                        // receiver is the previous line's trailing identifier.
                        if chars[..dot].iter().all(|c| c.is_whitespace()) {
                            prev_line_receiver(file, idx)
                        } else {
                            None
                        }
                    });
                    if let Some((name, self_q)) = receiver {
                        let flag = hash_idents.names.contains(&name)
                            && (!hash_idents.ambiguous.contains(&name) || self_q);
                        if flag {
                            candidates.push((
                                idx,
                                "unordered-iter",
                                format!(
                                    "`{name}.{method}`: `{name}` is a HashMap/HashSet — \
                                     iteration order is the hasher's, not the program's"
                                ),
                            ));
                        }
                    }
                    from += off + m.len();
                }
            }
            // `for x in [&[mut ]]expr` where expr resolves to a hash ident.
            if let Some(fp) = find_word(line, "for").first().copied() {
                let after: String = chars[fp..].iter().collect();
                if let Some(inp) = find_word(&after, "in").first().copied() {
                    let expr: String = after.chars().skip(inp + 2).collect();
                    let expr = expr.split('{').next().unwrap_or("").trim();
                    let expr = expr
                        .trim_start_matches('&')
                        .trim_start_matches("mut ")
                        .trim();
                    let last = expr.rsplit('.').next().unwrap_or(expr);
                    if !expr.contains('(')
                        && !last.is_empty()
                        && last.chars().all(is_ident_char)
                        && hash_idents.names.contains(last)
                        && (!hash_idents.ambiguous.contains(last)
                            || expr.starts_with("self.")
                            || expr == last)
                    {
                        // Plain `for x in map` moves the map: unambiguous
                        // even for shadowed locals only when not ambiguous.
                        if !hash_idents.ambiguous.contains(last) || expr.starts_with("self.") {
                            candidates.push((
                                idx,
                                "unordered-iter",
                                format!(
                                    "`for … in {expr}`: `{last}` is a HashMap/HashSet — \
                                     iteration order is the hasher's, not the program's"
                                ),
                            ));
                        }
                    }
                }
            }
        }

        // D2 — wall-clock.
        if scope.d2 && !in_test {
            for pat in ["std::time", "Instant::now", "SystemTime"] {
                let hit = if pat.contains("::") {
                    line.contains(pat)
                } else {
                    !find_word(line, pat).is_empty()
                };
                if hit {
                    candidates.push((
                        idx,
                        "wall-clock",
                        format!("`{pat}`: sim code must read SimTime, never the host clock"),
                    ));
                    break;
                }
            }
        }

        // D3 — thread.
        if scope.d3 && !in_test {
            if let Some(p) = line.find("thread::") {
                let after = &line[p + "thread::".len()..];
                for f in ["spawn", "scope", "Builder"] {
                    if after.starts_with(f) {
                        candidates.push((
                            idx,
                            "thread",
                            format!(
                                "`thread::{f}`: the simulator is single-threaded; \
                                 threads belong only in tests/ and benches/"
                            ),
                        ));
                        break;
                    }
                }
            }
        }

        // D4 — rng.
        if scope.d4 && !in_test {
            for pat in [
                "RandomState",
                "thread_rng",
                "from_entropy",
                "getrandom",
                "fastrand",
                "rand::",
                "rand_core",
                "rand_chacha",
            ] {
                let hit = if pat.ends_with("::") {
                    // Match `rand::` as a path segment, not `SimRng::` etc.
                    let mut found = false;
                    let mut from = 0;
                    while let Some(off) = line[from..].find(pat) {
                        let at = from + off;
                        let prev = line[..at].chars().next_back();
                        if !prev.is_some_and(|c| is_ident_char(c) || c == ':') {
                            found = true;
                            break;
                        }
                        from = at + pat.len();
                    }
                    found
                } else {
                    !find_word(line, pat).is_empty()
                };
                if hit {
                    candidates.push((
                        idx,
                        "rng",
                        format!("`{pat}`: randomness must flow through simcore::SimRng"),
                    ));
                    break;
                }
            }
        }

        // D5 — panic.
        if scope.d5 && !in_test {
            for pat in [".unwrap()", ".expect(", "panic!", "todo!", "unimplemented!"] {
                let hit = if pat.starts_with('.') {
                    line.contains(pat)
                } else {
                    !find_word(line, pat.trim_end_matches('!')).is_empty() && line.contains(pat)
                };
                if hit {
                    candidates.push((
                        idx,
                        "panic",
                        format!(
                            "`{pat}`: library code must degrade gracefully \
                             (debug_assert + fallback) instead of panicking",
                            pat = pat.trim_start_matches('.')
                        ),
                    ));
                }
            }
        }

        // D7 — raw-sync.
        if scope.d7 && !in_test {
            if let Some(p) = line.find("std::sync::") {
                let tail = &line[p..];
                for t in RAW_SYNC_TYPES {
                    if tail.contains(t) {
                        candidates.push((
                            idx,
                            "raw-sync",
                            format!(
                                "`std::sync::{t}`: the simulator is single-threaded; \
                                 sync primitives belong only in tests/ and benches/"
                            ),
                        ));
                        break;
                    }
                }
            }
        }

        // D6 — unsafe (applies even in tests).
        if scope.d6 && !find_word(line, "unsafe").is_empty() {
            let mut has_safety = file.comment[idx].contains("SAFETY:");
            for back in 1..=3 {
                if idx >= back && file.comment[idx - back].contains("SAFETY:") {
                    has_safety = true;
                }
            }
            if !has_safety {
                candidates.push((
                    idx,
                    "unsafe",
                    "`unsafe` without a `// SAFETY:` comment on or directly above the line"
                        .to_string(),
                ));
            }
        }
    }

    // Waiver filtering.
    for (idx, rule, message) in candidates {
        let mut waived = false;
        if let Some(ws) = waiver_map.get(&idx) {
            for w in ws {
                if w.rules.iter().any(|r| r == rule) {
                    if w.justification.is_empty() {
                        violations.push(Violation {
                            rule: rule.to_string(),
                            file: rel.to_string(),
                            line: idx + 1,
                            message: format!(
                                "{message} (waiver present but missing justification)"
                            ),
                            snippet: snippet(file, idx),
                        });
                        used.insert((w.decl_line, rule.to_string()));
                        waived = true;
                    } else {
                        used.insert((w.decl_line, rule.to_string()));
                        waived = true;
                    }
                    break;
                }
            }
        }
        if !waived {
            violations.push(Violation {
                rule: rule.to_string(),
                file: rel.to_string(),
                line: idx + 1,
                message,
                snippet: snippet(file, idx),
            });
        }
    }

    // Malformed waivers and unknown rule names are themselves violations.
    let mut waivers = Vec::new();
    for w in &all_waivers {
        if w.rules.is_empty() {
            violations.push(Violation {
                rule: "bad-waiver".to_string(),
                file: rel.to_string(),
                line: w.decl_line,
                message: "malformed waiver: expected `detlint: allow(<rule>) — <justification>`"
                    .to_string(),
                snippet: snippet(file, w.decl_line - 1),
            });
            continue;
        }
        for r in &w.rules {
            if !RULES.contains(&r.as_str()) {
                violations.push(Violation {
                    rule: "bad-waiver".to_string(),
                    file: rel.to_string(),
                    line: w.decl_line,
                    message: format!("waiver names unknown rule `{r}`"),
                    snippet: snippet(file, w.decl_line - 1),
                });
            }
            waivers.push(Waiver {
                rule: r.clone(),
                file: rel.to_string(),
                line: w.decl_line,
                justification: w.justification.clone(),
                used: used.contains(&(w.decl_line, r.clone())),
            });
        }
    }

    FileReport {
        violations,
        waivers,
    }
}

fn snippet(file: &LexedFile, idx: usize) -> String {
    file.code
        .get(idx)
        .map(|l| l.trim().chars().take(120).collect())
        .unwrap_or_default()
}
