//! Documentation consistency: the claims made in README.md, DESIGN.md, and
//! EXPERIMENTS.md must stay true as the code evolves.

use queryvis::corpus::{pattern_grid, qualification_questions, study_questions, tutorial_examples};
use queryvis::valid_path_patterns;

fn read(rel: &str) -> String {
    let path = format!("{}/{rel}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// The `members` paths of the root `Cargo.toml`'s `[workspace]` table.
fn workspace_members() -> Vec<String> {
    let manifest = read("Cargo.toml");
    let list = manifest
        .split("\nmembers = [")
        .nth(1)
        .and_then(|rest| rest.split(']').next())
        .expect("root Cargo.toml has a `members = [...]` list");
    let members: Vec<String> = list
        .split(',')
        .map(|entry| entry.trim().trim_matches('"').to_string())
        .filter(|entry| !entry.is_empty())
        .collect();
    assert!(members.len() > 10, "parsed only {members:?}");
    members
}

/// The `[package]` name declared in `<member>/Cargo.toml`.
fn package_name(member: &str) -> String {
    let manifest = read(&format!("{member}/Cargo.toml"));
    manifest
        .lines()
        .find_map(|line| line.strip_prefix("name = \""))
        .and_then(|rest| rest.strip_suffix('"'))
        .unwrap_or_else(|| panic!("{member}/Cargo.toml declares no package name"))
        .to_string()
}

#[test]
fn design_md_lists_every_crate_directory() {
    let design = read("DESIGN.md");
    for member in workspace_members() {
        assert!(design.contains(&member), "DESIGN.md misses {member}");
    }
}

#[test]
fn readme_crate_table_is_complete() {
    let readme = read("README.md");
    for member in workspace_members() {
        let name = format!("`{}`", package_name(&member));
        assert!(
            readme
                .lines()
                .any(|line| line.starts_with('|') && line.contains(&name)),
            "README's crate table misses {name} ({member})"
        );
    }
}

#[test]
fn ir_crate_has_no_dependencies() {
    // DESIGN.md §1: the IR sits under every other crate and depends on
    // none of them.
    let manifest = read("crates/ir/Cargo.toml");
    assert!(
        !manifest.contains("[dependencies"),
        "crates/ir/Cargo.toml declares dependencies"
    );
}

#[test]
fn docs_and_ci_name_only_the_one_benchmark_harness() {
    // qvbench (BENCHMARK.json) is the one speed harness; the in-process
    // bench, its gate and baseline, and the criterion shim are deleted.
    // EXPERIMENTS.md and ROADMAP.md keep them as history only.
    for file in ["README.md", "DESIGN.md", ".github/workflows/ci.yml"] {
        let text = read(file);
        for retired in [
            "service_throughput",
            "bench_guard",
            "bench-baseline",
            "BENCH_service.json",
            "crates/criterion",
            "cargo bench",
        ] {
            assert!(!text.contains(retired), "{file} names `{retired}`");
        }
    }
}

#[test]
fn design_md_indexes_every_repro_target() {
    let design = read("DESIGN.md");
    for target in [
        "repro fig1",
        "repro fig2",
        "repro fig7",
        "repro fig18",
        "repro fig19",
        "repro fig20",
        "repro fig21",
        "repro complexity",
        "repro power",
        "repro latin",
        "repro unambiguity",
        "repro patterns",
        "repro corpus",
        "repro funnel",
        "repro tutorial",
    ] {
        assert!(design.contains(target), "DESIGN.md misses `{target}`");
    }
}

#[test]
fn corpus_counts_match_docs() {
    assert_eq!(study_questions().len(), 12);
    assert_eq!(qualification_questions().len(), 6);
    assert_eq!(tutorial_examples().len(), 6);
    assert_eq!(pattern_grid().len(), 9);
    assert_eq!(valid_path_patterns().len(), 16);
}

#[test]
fn experiments_md_reports_all_figures() {
    let experiments = read("EXPERIMENTS.md");
    for figure in [
        "Fig. 7",
        "Fig. 18",
        "Fig. 19",
        "Figs. 20/21",
        "§4.8",
        "Prop. 5.1",
        "§6.2",
    ] {
        assert!(
            experiments.contains(figure),
            "EXPERIMENTS.md misses {figure}"
        );
    }
}

#[test]
fn readme_lists_every_example() {
    let readme = read("README.md");
    for name in [
        "quickstart",
        "unique_set",
        "pattern_catalog",
        "study_replication",
        "chinook_gallery",
    ] {
        assert!(readme.contains(name), "README misses example `{name}`");
    }
}
