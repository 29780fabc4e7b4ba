//! `nadmm-lint`: workspace static analysis for the Newton-ADMM reproduction.
//!
//! The repo's headline property — runs reproduce byte-identically across
//! thread widths, transports, and precision modes — is enforced at runtime
//! by counting allocators, golden reports, and proptest suites. This crate
//! is the *static* complement: a registry-free pass (hand-rolled lexer, no
//! syn/proc-macro machinery) that walks every `.rs` file in the workspace
//! and enforces the source-level contracts those suites assume. See
//! [`rules`] for the rule table and README.md § "Static analysis" for the
//! user-facing docs.

pub mod config;
pub mod findings;
pub mod lexer;
pub mod rules;
pub mod waivers;
pub mod walk;

pub use config::Config;
pub use findings::Finding;
pub use rules::lint_file;

use std::path::Path;

/// A full workspace lint run.
pub struct Report {
    /// Unwaived findings (including `W00` waiver-hygiene findings), sorted
    /// by file, line, rule.
    pub findings: Vec<Finding>,
    /// How many findings the committed waivers suppressed.
    pub waived: usize,
    /// How many `.rs` files were scanned.
    pub files_scanned: usize,
}

impl Report {
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Lints the workspace rooted at `root` (the directory holding the top-level
/// `Cargo.toml`, `README.md`, and `lint.json`). Hard errors (unreadable
/// root, a warm path or parse point of the contract that is not a file under
/// `root`, unparseable `lint.json`) come back as `Err`; rule violations come
/// back as findings in the [`Report`].
pub fn lint_workspace(root: &Path) -> Result<Report, String> {
    if !root.join("Cargo.toml").is_file() {
        return Err(format!(
            "{} does not look like the workspace root (no Cargo.toml); pass --root",
            root.display()
        ));
    }
    let mut cfg = Config::workspace();
    let missing: Vec<&str> = cfg
        .warm_path_files
        .iter()
        .chain(&cfg.env_parse_points)
        .filter(|path| !root.join(path).is_file())
        .map(String::as_str)
        .collect();
    if !missing.is_empty() {
        return Err(format!(
            "the lint contract in crates/lint/src/config.rs names files that do not exist: {}",
            missing.join(", ")
        ));
    }
    cfg.readme = std::fs::read_to_string(root.join("README.md")).ok();

    let files = walk::rust_files(root);
    let mut findings = Vec::new();
    for path in &files {
        let rel = walk::relative(root, path);
        match std::fs::read_to_string(path) {
            Ok(src) => findings.extend(rules::lint_file(&rel, &src, &cfg)),
            Err(e) => findings.push(Finding::new("W00", &rel, 0, format!("unreadable source file: {e}"))),
        }
    }

    let waiver_path = root.join(waivers::WAIVER_FILE);
    let mut waived = 0usize;
    if waiver_path.is_file() {
        let text = std::fs::read_to_string(&waiver_path).map_err(|e| format!("{}: {e}", waiver_path.display()))?;
        let (list, mut hygiene) = waivers::parse(&text)?;
        let applied = waivers::apply(findings, &list);
        findings = applied.findings;
        waived = applied.waived;
        findings.append(&mut hygiene);
    }

    findings.sort_by_key(|f| f.sort_key());
    Ok(Report {
        findings,
        waived,
        files_scanned: files.len(),
    })
}
