//! End-to-end rule-engine test over a deliberately-bad fixture workspace:
//! every rule must fire on its seeded violation — and *only* there.

use camo_lint::{load, run, Finding};
use std::fs;
use std::path::{Path, PathBuf};

/// A fresh fixture root under the system temp dir, unique per test.
fn fixture_root(name: &str) -> PathBuf {
    let root =
        std::env::temp_dir().join(format!("camo-lint-fixture-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    fs::create_dir_all(&root).unwrap();
    root
}

fn put(root: &Path, rel: &str, content: &str) {
    let path = root.join(rel);
    fs::create_dir_all(path.parent().unwrap()).unwrap();
    fs::write(path, content).unwrap();
}

fn findings_at(root: &Path) -> Vec<Finding> {
    run(&load(root).unwrap())
}

#[test]
fn every_rule_fires_on_its_seeded_violation() {
    let root = fixture_root("all-rules");

    // determinism: a banned wall-clock import, plus a justified use that
    // must stay silent.
    put(
        &root,
        "crates/core/src/lib.rs",
        "use std::time::Instant;\n\
         // determinism-ok: absolute timestamps never reach result bits.\n\
         pub fn stamp() -> std::time::SystemTime { std::time::SystemTime::now() }\n",
    );

    // panics + atomics + unsafety + locks (missing annotation and one
    // descending acquisition pair), all inside the serve scope; the
    // cfg(test) module at the bottom is exempt from the panic rule.
    put(
        &root,
        "crates/serve/src/lib.rs",
        "use std::sync::atomic::{AtomicUsize, Ordering};\n\
         use std::sync::Mutex;\n\
         \n\
         pub struct S {\n\
             lo: Mutex<u32>, // lock-order: 10\n\
             hi: Mutex<u32>, // lock-order: 20\n\
             unranked: Mutex<u32>,\n\
         }\n\
         \n\
         pub static COUNT: AtomicUsize = AtomicUsize::new(0);\n\
         \n\
         impl S {\n\
             pub fn descending(&self) {\n\
                 let _second = self.hi.lock().unwrap();\n\
                 let _first = self.lo.lock().unwrap();\n\
             }\n\
         }\n\
         \n\
         pub fn bump() -> usize {\n\
             COUNT.fetch_add(1, Ordering::Relaxed)\n\
         }\n\
         \n\
         pub fn first(v: &[u8]) -> u8 {\n\
             unsafe { *v.get_unchecked(0) }\n\
         }\n\
         \n\
         #[cfg(test)]\n\
         mod tests {\n\
             #[test]\n\
             fn exempt_from_panic_rule() {\n\
                 let v: Vec<u32> = vec![1];\n\
                 assert_eq!(v.first().copied().unwrap(), 1);\n\
             }\n\
         }\n",
    );

    // drift (wire): `zorble` is served by `fn kind` but absent from the
    // protocol doc; `ping` is documented and stays silent. The v2 opcode
    // table is scanned the same way: the undocumented `blit` opcode name
    // must fire while the documented `ping` stays silent.
    put(
        &root,
        "crates/serve/src/wire.rs",
        "pub enum Request {\n\
             Ping,\n\
             Zorble,\n\
         }\n\
         \n\
         impl Request {\n\
             pub fn kind(&self) -> &'static str {\n\
                 match self {\n\
                     Request::Ping => \"ping\",\n\
                     Request::Zorble => \"zorble\",\n\
                 }\n\
             }\n\
         }\n\
         \n\
         pub enum Opcode {\n\
             Ping,\n\
             Blit,\n\
         }\n\
         \n\
         impl Opcode {\n\
             pub fn opcode_name(self) -> &'static str {\n\
                 match self {\n\
                     Opcode::Ping => \"ping\",\n\
                     Opcode::Blit => \"blit\",\n\
                 }\n\
             }\n\
         }\n",
    );

    // drift (flags): `--mystery-knob` is parsed but undocumented.
    put(
        &root,
        "crates/serve/src/bin/tool.rs",
        "fn main() {\n\
             let args: Vec<String> = std::env::args().collect();\n\
             let known = args.iter().any(|a| a == \"--known-flag\");\n\
             let mystery = args.iter().any(|a| a == \"--mystery-knob\");\n\
             println!(\"{known} {mystery}\");\n\
         }\n",
    );

    // locks (IO under a live guard), outside the panic scope so the
    // `.expect` here stays silent; unsafety on a SAFETY-less SIMD
    // intrinsic call — the annotated twin below it must stay silent.
    put(
        &root,
        "crates/litho/src/lib.rs",
        "use std::io::Write;\n\
         use std::sync::Mutex;\n\
         \n\
         pub struct Channel {\n\
             sink: Mutex<Vec<u8>>, // lock-order: 30\n\
         }\n\
         \n\
         pub fn blast(ch: &Channel, bytes: &[u8]) -> std::io::Result<()> {\n\
             let mut guard = ch.sink.lock().expect(\"poisoned\");\n\
             guard.write_all(bytes)\n\
         }\n\
         \n\
         pub fn lane0(v: &[f64]) -> f64 {\n\
             unsafe { std::arch::x86_64::_mm_cvtsd_f64(std::arch::x86_64::_mm_loadu_pd(v.as_ptr())) }\n\
         }\n\
         \n\
         pub fn lane0_justified(v: &[f64]) -> f64 {\n\
             // SAFETY: every caller passes at least two lanes.\n\
             unsafe { std::arch::x86_64::_mm_cvtsd_f64(std::arch::x86_64::_mm_loadu_pd(v.as_ptr())) }\n\
         }\n",
    );

    put(
        &root,
        "README.md",
        "Flags: `--known-flag` toggles a thing.\n",
    );
    put(&root, "docs/WIRE_PROTOCOL.md", "Requests: `ping`.\n");

    let found: Vec<(String, usize, &str)> = findings_at(&root)
        .into_iter()
        .map(|f| (f.path, f.line, f.rule))
        .collect();
    let expected: Vec<(String, usize, &str)> = [
        ("crates/core/src/lib.rs", 1, "determinism"),
        ("crates/litho/src/lib.rs", 10, "locks"),
        ("crates/litho/src/lib.rs", 14, "unsafety"),
        ("crates/serve/src/bin/tool.rs", 4, "drift"),
        ("crates/serve/src/lib.rs", 7, "locks"),
        ("crates/serve/src/lib.rs", 14, "panics"),
        ("crates/serve/src/lib.rs", 15, "locks"),
        ("crates/serve/src/lib.rs", 15, "panics"),
        ("crates/serve/src/lib.rs", 20, "atomics"),
        ("crates/serve/src/lib.rs", 24, "unsafety"),
        ("crates/serve/src/wire.rs", 10, "drift"),
        ("crates/serve/src/wire.rs", 24, "drift"),
    ]
    .into_iter()
    .map(|(p, l, r)| (p.to_string(), l, r))
    .collect();
    assert_eq!(found, expected);

    let _ = fs::remove_dir_all(&root);
}

#[test]
fn baseline_engines_and_workloads_are_in_the_determinism_scope() {
    // The OPC baselines and the workload generators produce served and
    // verified results, so a clock read there is a finding; test modules
    // may still time things.
    let root = fixture_root("determinism-scope");
    put(
        &root,
        "crates/baselines/src/calibre_like.rs",
        "use std::time::Instant;\n\
         \n\
         #[cfg(test)]\n\
         mod tests {\n\
             use std::time::Instant;\n\
         }\n",
    );
    put(
        &root,
        "crates/workloads/src/via.rs",
        "pub fn seed() -> u64 { rand::thread_rng().gen() }\n",
    );
    put(&root, "README.md", "\n");

    let found: Vec<(String, usize, &str)> = findings_at(&root)
        .into_iter()
        .map(|f| (f.path, f.line, f.rule))
        .collect();
    assert_eq!(
        found,
        vec![
            (
                "crates/baselines/src/calibre_like.rs".to_string(),
                1,
                "determinism"
            ),
            ("crates/workloads/src/via.rs".to_string(), 1, "determinism"),
        ]
    );

    let _ = fs::remove_dir_all(&root);
}

#[test]
fn config_allows_and_skips_silence_findings() {
    let root = fixture_root("config");
    put(
        &root,
        "crates/serve/src/lib.rs",
        "pub fn boom(v: Option<u32>) -> u32 {\n    v.unwrap()\n}\n",
    );
    put(&root, "crates/core/src/lib.rs", "use std::time::Instant;\n");
    put(&root, "README.md", "nothing\n");

    // Without config: one panics finding and one determinism finding.
    let rules: Vec<&str> = findings_at(&root).iter().map(|f| f.rule).collect();
    assert_eq!(rules, vec!["determinism", "panics"]);

    // An allow silences one rule under one tree; a skip removes the file.
    put(
        &root,
        "camo-lint.toml",
        "allow panics crates/serve/src\nskip crates/core\n",
    );
    assert!(findings_at(&root).is_empty());

    let _ = fs::remove_dir_all(&root);
}

#[test]
fn missing_wire_doc_is_itself_drift() {
    let root = fixture_root("missing-doc");
    put(
        &root,
        "crates/serve/src/wire.rs",
        "pub fn kind() -> &'static str {\n    \"ping\"\n}\n",
    );
    put(&root, "README.md", "no protocol doc here\n");

    let findings = findings_at(&root);
    assert_eq!(findings.len(), 1);
    assert_eq!(findings[0].rule, "drift");
    assert!(findings[0].message.contains("WIRE_PROTOCOL.md"));

    let _ = fs::remove_dir_all(&root);
}

#[test]
fn conflicting_lock_levels_for_one_name_are_flagged() {
    let root = fixture_root("lock-conflict");
    put(
        &root,
        "crates/serve/src/a.rs",
        "pub struct A {\n    state: std::sync::Mutex<u32>, // lock-order: 10\n}\n",
    );
    put(
        &root,
        "crates/serve/src/b.rs",
        "pub struct B {\n    state: std::sync::Mutex<u32>, // lock-order: 20\n}\n",
    );
    put(&root, "README.md", "\n");

    let findings = findings_at(&root);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, "locks");
    assert!(findings[0].message.contains("rename the field or align"));

    let _ = fs::remove_dir_all(&root);
}

#[test]
fn whole_file_test_trees_are_exempt_from_panic_rule() {
    let root = fixture_root("test-tree");
    put(
        &root,
        "crates/serve/tests/e2e.rs",
        "#[test]\nfn t() {\n    let v: Option<u32> = Some(1);\n    assert_eq!(v.unwrap(), 1);\n}\n",
    );
    put(&root, "README.md", "\n");
    assert!(findings_at(&root).is_empty());
    let _ = fs::remove_dir_all(&root);
}
