//! The self-test: `nadmm-lint` must run clean on this workspace with the
//! committed `lint.json` — the same invariant the CI `lint` job enforces,
//! wired into `cargo test` so it cannot be skipped locally.

use std::path::Path;

#[test]
fn workspace_lints_clean_with_committed_waivers() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = nadmm_lint::lint_workspace(&root).expect("workspace lint must run");
    assert!(
        report.files_scanned > 100,
        "expected to scan the whole workspace, saw only {} files",
        report.files_scanned
    );
    assert!(
        report.waived > 0,
        "the committed lint.json waives real sites; zero waived means it was not loaded"
    );
    let rendered: Vec<String> = report.findings.iter().map(|f| f.to_string()).collect();
    assert!(report.clean(), "nadmm-lint found unwaived findings:\n{}", rendered.join("\n"));
}

#[test]
fn every_warm_path_and_parse_point_of_the_contract_exists() {
    // W04 and W03 test file membership only, so an entry naming a deleted or
    // renamed file would silently check nothing.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let cfg = nadmm_lint::Config::workspace();
    for path in cfg.warm_path_files.iter().chain(&cfg.env_parse_points) {
        assert!(
            root.join(path).is_file(),
            "the lint contract names {path}, which does not exist"
        );
    }
}

#[test]
fn a_contract_path_missing_from_the_root_is_a_hard_error_naming_it() {
    // A root with a manifest but none of the contract's files: the run must
    // refuse to start (exit 2) and name the files, not lint clean.
    let root = std::env::temp_dir().join(format!("nadmm_lint_missing_contract_{}", std::process::id()));
    std::fs::create_dir_all(&root).unwrap();
    std::fs::write(root.join("Cargo.toml"), "[workspace]\n").unwrap();

    let err = match nadmm_lint::lint_workspace(&root) {
        Ok(report) => panic!(
            "a root without the contract's files linted with {} finding(s)",
            report.findings.len()
        ),
        Err(e) => e,
    };
    let first_warm = &nadmm_lint::Config::workspace().warm_path_files[0];
    assert!(
        err.contains(first_warm.as_str()),
        "the error must name the missing file: {err}"
    );

    let out = std::process::Command::new(env!("CARGO_BIN_EXE_nadmm-lint"))
        .arg("--root")
        .arg(&root)
        .output()
        .expect("run nadmm-lint");
    std::fs::remove_dir_all(&root).ok();
    assert_eq!(out.status.code(), Some(2), "a missing contract path must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(first_warm.as_str()),
        "stderr must name the missing file: {stderr}"
    );
}
