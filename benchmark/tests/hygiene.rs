//! The benchmark stays a faithful, self-contained package: its manifest
//! is what the binary prints, it compiles `spq` the way `spq` ships, and
//! it depends on nothing but the repository's own crates.

use std::path::Path;
use std::process::Command;

use spq_benchmark::json::Json;
use spq_benchmark::manifest::{manifest_json, END_TO_END, PER_LAYER, WORKLOADS};

fn read(relative: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(relative);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn the_committed_manifest_is_what_the_binary_prints() {
    let committed = read("../BENCHMARK.json");
    assert_eq!(
        committed,
        manifest_json(),
        "regenerate with `spq-benchmark manifest`"
    );
    let out = Command::new(env!("CARGO_BIN_EXE_spq-benchmark"))
        .arg("manifest")
        .output()
        .unwrap();
    assert!(out.status.success());
    assert_eq!(String::from_utf8(out.stdout).unwrap(), committed);

    let json = Json::parse(&committed).expect("BENCHMARK.json is JSON");
    let keys: Vec<&str> = json.members().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(
        json.get("workloads").unwrap().items().len(),
        WORKLOADS.len()
    );
    assert_eq!(
        json.get("end_to_end").unwrap().items().len(),
        END_TO_END.len()
    );
    assert_eq!(
        json.get("per_layer").unwrap().items().len(),
        PER_LAYER.len()
    );
}

/// The body of `[section]` in a manifest: its `key = value` lines,
/// comments and blanks dropped, sorted.
fn section(manifest: &str, header: &str) -> Vec<String> {
    let mut lines: Vec<String> = manifest
        .lines()
        .skip_while(|l| l.trim() != header)
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .map(|l| {
            l.split('#')
                .next()
                .unwrap_or("")
                .split_whitespace()
                .collect::<String>()
        })
        .filter(|l| !l.is_empty())
        .collect();
    lines.sort();
    lines
}

#[test]
fn the_release_profile_is_the_one_spq_ships_with() {
    let ours = section(&read("Cargo.toml"), "[profile.release]");
    let theirs = section(&read("../Cargo.toml"), "[profile.release]");
    assert!(
        !theirs.is_empty(),
        "the root manifest has a release profile"
    );
    assert_eq!(
        ours, theirs,
        "benchmark/Cargo.toml [profile.release] must be copied from the root manifest, \
         or the benchmark measures differently compiled code"
    );
}

#[test]
fn the_package_stands_alone_on_path_dependencies() {
    let manifest = read("Cargo.toml");
    assert!(
        section(&manifest, "[workspace]").is_empty() && manifest.contains("\n[workspace]\n"),
        "an empty [workspace] table keeps the package out of the root workspace"
    );
    let deps = section(&manifest, "[dependencies]");
    assert!(!deps.is_empty());
    for dep in deps {
        assert!(
            dep.contains("path=\"../crates/"),
            "{dep}: only path dependencies on the repository's crates"
        );
    }
    assert!(Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("Cargo.lock")
        .exists());
}
