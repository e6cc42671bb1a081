//! Rule `drift`: documentation that third parties implement against must
//! track the code, mechanically.
//!
//! * Every request/response kind name in `crates/serve/src/wire.rs` — the
//!   string literals of `fn opcode_name`, the one table the `fn kind`
//!   methods delegate to (literals in a `fn kind` body are scanned too) —
//!   must appear (as a whole word) in `docs/WIRE_PROTOCOL.md`, so an
//!   undocumented opcode fails CI.
//! * Every `--flag` string literal parsed by the `serve` and
//!   `camo-client` binaries must appear in `README.md` or any file under
//!   `docs/`.

use crate::file::SourceFile;
use crate::lexer::TokKind;
use crate::Finding;

/// Path of the wire codec whose kind strings define the protocol.
pub const WIRE_SOURCE: &str = "crates/serve/src/wire.rs";
/// Document that must cover every wire kind.
pub const WIRE_DOC: &str = "docs/WIRE_PROTOCOL.md";
/// Directory of binaries whose flags must be documented.
pub const BIN_DIR: &str = "crates/serve/src/bin";

/// Runs both drift checks. `docs` holds `(rel-path, content)` pairs for
/// `README.md` and everything under `docs/`.
pub fn check(files: &[SourceFile], docs: &[(String, String)], out: &mut Vec<Finding>) {
    wire_kinds(files, docs, out);
    cli_flags(files, docs, out);
}

fn wire_kinds(files: &[SourceFile], docs: &[(String, String)], out: &mut Vec<Finding>) {
    let Some(wire) = files.iter().find(|f| f.rel == WIRE_SOURCE) else {
        return; // Fixture trees without a wire module skip the check.
    };
    let Some(doc) = docs.iter().find(|(rel, _)| rel == WIRE_DOC) else {
        out.push(Finding {
            rule: "drift",
            path: WIRE_SOURCE.to_string(),
            line: 1,
            line_text: String::new(),
            message: format!("{WIRE_DOC} is missing but {WIRE_SOURCE} exists"),
        });
        return;
    };
    for (line, kind) in kind_strings(wire) {
        if !contains_word(&doc.1, &kind) {
            out.push(Finding {
                rule: "drift",
                path: WIRE_SOURCE.to_string(),
                line,
                line_text: wire.line_text(line).to_string(),
                message: format!(
                    "wire kind \"{kind}\" is not documented in {WIRE_DOC}; the protocol \
                     spec is third-party-implementable and must never fall behind wire.rs"
                ),
            });
        }
    }
}

/// String literals inside the bodies of `fn kind` and `fn opcode_name`
/// functions — exactly the request/response kind vocabulary of the
/// protocol, which wire.rs writes once, in `Opcode::opcode_name`.
fn kind_strings(wire: &SourceFile) -> Vec<(usize, String)> {
    let toks = &wire.tokens;
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_ident("fn")
            && toks
                .get(i + 1)
                .is_some_and(|t| t.is_ident("kind") || t.is_ident("opcode_name"))
        {
            // Find the body and collect string literals within it.
            let mut depth = 0i32;
            let mut entered = false;
            let mut j = i + 2;
            while let Some(t) = toks.get(j) {
                if t.is_punct('{') {
                    depth += 1;
                    entered = true;
                } else if t.is_punct('}') {
                    depth -= 1;
                    if entered && depth == 0 {
                        break;
                    }
                } else if entered && t.kind == TokKind::Str {
                    out.push((t.line, t.text.clone()));
                }
                j += 1;
            }
            i = j;
        }
        i += 1;
    }
    out
}

fn cli_flags(files: &[SourceFile], docs: &[(String, String)], out: &mut Vec<Finding>) {
    for file in files
        .iter()
        .filter(|f| f.rel.starts_with(BIN_DIR) && f.rel.ends_with(".rs"))
    {
        for tok in &file.tokens {
            if tok.kind != TokKind::Str || !is_flag(&tok.text) {
                continue;
            }
            let documented = docs.iter().any(|(_, content)| content.contains(&tok.text));
            if !documented {
                out.push(Finding {
                    rule: "drift",
                    path: file.rel.clone(),
                    line: tok.line,
                    line_text: file.line_text(tok.line).to_string(),
                    message: format!(
                        "flag `{}` is parsed here but documented nowhere in README.md or \
                         docs/; add it to the flag reference",
                        tok.text
                    ),
                });
            }
        }
    }
}

/// `--flag` shape: two dashes then a lowercase kebab-case name (filters
/// out `"--"` prefix probes and separator literals).
fn is_flag(text: &str) -> bool {
    let Some(name) = text.strip_prefix("--") else {
        return false;
    };
    !name.is_empty()
        && name.starts_with(|c: char| c.is_ascii_lowercase())
        && name
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-')
}

/// Whole-word containment: `kind` present and not embedded in a larger
/// `[a-z0-9_]` word (so `case` does not match `showcase`).
fn contains_word(haystack: &str, word: &str) -> bool {
    let mut from = 0;
    while let Some(at) = haystack[from..].find(word) {
        let start = from + at;
        let end = start + word.len();
        let before = haystack[..start].chars().next_back();
        let after = haystack[end..].chars().next();
        let boundary = |c: Option<char>| c.is_none_or(|c| !(c.is_ascii_alphanumeric() || c == '_'));
        if boundary(before) && boundary(after) {
            return true;
        }
        from = end;
    }
    false
}
