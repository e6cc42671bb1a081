//! The rule engine: each rule walks the shared token streams and emits
//! [`Finding`]s. Rules are deliberately heuristic token-level checks —
//! strong enough to catch the real contract violations this workspace has
//! actually shipped, honest enough to carry justification annotations
//! (`panic-ok:`, `relaxed-ok:`, `SAFETY:`, `lock-ok:`, `io-ok:`) where a
//! human has checked the exception.

pub mod drift;
pub mod locks;

use crate::config::{starts_with_path, Config};
use crate::file::{ident_in, SourceFile};
use crate::Finding;

/// Crates whose code produces served/replayed results: the determinism
/// contract (`(policy_version, seed, clip)` fully determines the outcome)
/// bans ambient time and entropy here. `baselines` holds the engines
/// `serve` runs and CAMO's imitation teacher; `workloads` generates the
/// layouts `serve` evaluates and the request streams clients verify.
const DETERMINISM_SCOPE: &[&str] = &[
    "crates/litho/src",
    "crates/rl/src",
    "crates/core/src",
    "crates/nn/src",
    "crates/geometry/src",
    "crates/runtime/src",
    "crates/baselines/src",
    "crates/workloads/src",
];

/// APIs that read the wall clock or ambient entropy, or iterate in a
/// process-random order.
const DETERMINISM_BANNED: &[&str] = &[
    "Instant",
    "SystemTime",
    "UNIX_EPOCH",
    "thread_rng",
    "from_entropy",
    "OsRng",
    "getrandom",
    "RandomState",
    "HashMap",
    "HashSet",
];

/// Crates whose long-lived processes must degrade with typed errors, not
/// panics (a panicking worker takes the whole tier down with it).
const PANIC_SCOPE: &[&str] = &["crates/serve/src", "crates/runtime/src"];

fn in_scope(rule: &str, rel: &str, builtin: &[&str], config: &Config) -> bool {
    builtin.iter().any(|p| starts_with_path(rel, p))
        || config.extra_scope(rule).any(|p| starts_with_path(rel, p))
}

fn finding(file: &SourceFile, rule: &'static str, line: usize, message: String) -> Finding {
    Finding {
        rule,
        path: file.rel.clone(),
        line,
        line_text: file.line_text(line).to_string(),
        message,
    }
}

/// Rule `determinism`: no wall-clock or ambient-entropy API in
/// result-producing crates. `// determinism-ok:` justifies an exception
/// inline; timing/supervision modules belong in the config allowlist.
pub fn determinism(file: &SourceFile, config: &Config, out: &mut Vec<Finding>) {
    if !in_scope("determinism", &file.rel, DETERMINISM_SCOPE, config) {
        return;
    }
    for (i, tok) in file.tokens.iter().enumerate() {
        if !ident_in(tok, DETERMINISM_BANNED) || file.is_test(i) {
            continue;
        }
        // `use std::time::Instant;` inside cfg(test) is covered by
        // is_test; a bare import outside any item is still a finding —
        // importing the type is how the violation starts.
        if file.justified(i, "determinism-ok:") {
            continue;
        }
        out.push(finding(
            file,
            "determinism",
            tok.line,
            format!(
                "`{}` breaks the (seed, clip) determinism contract in a result-producing \
                 crate; derive values from the request instead, or justify with \
                 `// determinism-ok:`",
                tok.text
            ),
        ));
    }
}

/// Rule `panics`: no `.unwrap()` / `.expect(…)` / `panic!` / `todo!` /
/// `unimplemented!` in non-test code of the serving and runtime crates.
pub fn panics(file: &SourceFile, config: &Config, out: &mut Vec<Finding>) {
    if !in_scope("panics", &file.rel, PANIC_SCOPE, config) {
        return;
    }
    for (i, tok) in file.tokens.iter().enumerate() {
        if file.is_test(i) {
            continue;
        }
        let method_call = ident_in(tok, &["unwrap", "expect"])
            && file.prev_code(i).is_some_and(|p| p.is_punct('.'))
            && file
                .tokens
                .get(file.skip_comments(i + 1))
                .is_some_and(|t| t.is_punct('('));
        let macro_call = ident_in(tok, &["panic", "todo", "unimplemented"])
            && file
                .tokens
                .get(file.skip_comments(i + 1))
                .is_some_and(|t| t.is_punct('!'));
        if !(method_call || macro_call) {
            continue;
        }
        if file.justified(i, "panic-ok:") {
            continue;
        }
        out.push(finding(
            file,
            "panics",
            tok.line,
            format!(
                "`{}` can panic a long-lived serving process; return a typed error \
                 (ServeError / pool error), or justify an invariant with `// panic-ok:`",
                tok.text
            ),
        ));
    }
}

/// Rule `atomics`: `Ordering::Relaxed` outside `stats.rs` needs a
/// `// relaxed-ok:` justification naming why the weak ordering is sound.
pub fn atomics(file: &SourceFile, _config: &Config, out: &mut Vec<Finding>) {
    if file.rel.ends_with("/stats.rs") {
        return;
    }
    for (i, tok) in file.tokens.iter().enumerate() {
        if !tok.is_ident("Relaxed") || file.is_test(i) {
            continue;
        }
        let after_ordering = matches!(
            (file.prev_code(i), prev_code_n(file, i, 2)),
            (Some(c), Some(o)) if c.is_punct(':') && (o.is_punct(':') || o.is_ident("Ordering"))
        );
        if !after_ordering || file.justified(i, "relaxed-ok:") {
            continue;
        }
        out.push(finding(
            file,
            "atomics",
            tok.line,
            "`Ordering::Relaxed` outside stats.rs requires a `// relaxed-ok:` comment \
             stating why no other memory access depends on this value"
                .to_string(),
        ));
    }
}

/// Rule `unsafety`: every `unsafe` token (block, fn, impl) is preceded by
/// a `// SAFETY:` comment. The rule is workspace-wide with no allowlist:
/// it covers the AVX2 convolution kernels in `crates/litho/src/simd.rs`
/// as well as test code — a test allocator's contract deserves the same
/// sentence as production code.
pub fn unsafety(file: &SourceFile, _config: &Config, out: &mut Vec<Finding>) {
    for (i, tok) in file.tokens.iter().enumerate() {
        if !tok.is_ident("unsafe") {
            continue;
        }
        // `unsafe fn` items inside an `unsafe impl` inherit the impl's
        // SAFETY comment only if they carry their own or sit within two
        // lines of one; keep the requirement uniform and simple.
        if file.justified(i, "SAFETY:") {
            continue;
        }
        out.push(finding(
            file,
            "unsafety",
            tok.line,
            "`unsafe` without a preceding `// SAFETY:` comment stating the invariant \
             that makes it sound"
                .to_string(),
        ));
    }
}

fn prev_code_n(file: &SourceFile, idx: usize, n: usize) -> Option<&crate::lexer::Token> {
    file.tokens[..idx]
        .iter()
        .rev()
        .filter(|t| !t.is_comment())
        .nth(n - 1)
}
