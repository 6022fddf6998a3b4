//! The documents and CI name exactly the examples that exist: every
//! `--example X` a document tells a reader to run is a file in
//! `examples/`, README's *Examples* table lists every such file, and CI's
//! `test` job runs every one of them.

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

/// The documents that tell a reader which example to run.
const DOCUMENTS: [&str; 4] = [
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    ".claude/skills/verify/SKILL.md",
];

fn read(path: &str) -> String {
    let full = Path::new(env!("CARGO_MANIFEST_DIR")).join(path);
    fs::read_to_string(&full).unwrap_or_else(|e| panic!("{}: {e}", full.display()))
}

/// The stems of `examples/*.rs`.
fn examples() -> BTreeSet<String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples");
    fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "rs"))
        .map(|path| path.file_stem().unwrap().to_string_lossy().into_owned())
        .collect()
}

/// Every `X` in `--example X` where `X` is a name; a placeholder such as
/// `<name>` is not one.
fn example_args(text: &str) -> Vec<String> {
    text.match_indices("--example ")
        .map(|(at, flag)| {
            text[at + flag.len()..]
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect::<String>()
        })
        .filter(|name| !name.is_empty())
        .collect()
}

#[test]
fn documents_run_only_examples_that_exist() {
    let examples = examples();
    for document in DOCUMENTS {
        for name in example_args(&read(document)) {
            // The verify skill's throwaway probe is written, run and deleted.
            if name.starts_with('_') {
                continue;
            }
            assert!(
                examples.contains(&name),
                "{document} runs `--example {name}`, but there is no examples/{name}.rs"
            );
        }
    }
}

#[test]
fn readme_examples_table_lists_exactly_the_examples() {
    let readme = read("README.md");
    let section = readme
        .split("\n## ")
        .find(|s| s.starts_with("Examples\n"))
        .expect("README has an Examples section");
    let listed: BTreeSet<String> = section
        .lines()
        .filter_map(|line| line.strip_prefix("| `"))
        .map(|rest| rest.split('`').next().unwrap().to_owned())
        .collect();
    assert_eq!(listed, examples(), "README's Examples table vs examples/");
}

#[test]
fn ci_test_job_runs_exactly_the_examples() {
    let ci = read(".github/workflows/ci.yml");
    let mut job = "";
    let mut run = Vec::new();
    for line in ci.lines() {
        // A job starts at a two-space-indented key under `jobs:`.
        if let Some(key) = line.strip_prefix("  ").and_then(|l| l.strip_suffix(':')) {
            if !key.starts_with(' ') {
                job = key;
            }
        }
        for name in example_args(line) {
            assert_eq!(
                job, "test",
                "ci.yml runs `--example {name}` outside the test job"
            );
            run.push(name);
        }
    }
    let once: BTreeSet<String> = run.iter().cloned().collect();
    assert_eq!(
        once.len(),
        run.len(),
        "ci.yml runs an example twice: {run:?}"
    );
    assert_eq!(once, examples(), "CI's example step vs examples/");
}
