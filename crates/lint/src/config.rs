//! The workspace contract the rules enforce: which files are warm paths,
//! which modules are designated env parse points, and the README text the
//! env inventory is cross-checked against.
//!
//! The lists live here, in code, rather than in `lint.json`: they *are* the
//! contract (changing them is an architectural decision that belongs in a
//! reviewed diff), while `lint.json` only holds per-site waivers.

/// Rule configuration handed to [`crate::rules::lint_file`].
pub struct Config {
    /// Files where W04 denies allocation on any non-test line. These are the
    /// modules `crates/bench/tests/zero_alloc.rs` proves allocation-free at
    /// runtime; W04 is the static complement. A workspace run refuses to
    /// start when one of these (or of the parse points) does not exist, so a
    /// renamed file cannot leave its entry checking nothing.
    pub warm_path_files: Vec<String>,
    /// Files allowed to call `std::env::var` (W03). Each is a designated
    /// parse point that panics loudly naming the variable and its accepted
    /// spellings; everything else must take configuration as arguments.
    pub env_parse_points: Vec<String>,
    /// README text for the W03 env inventory: every `NADMM_*` string literal
    /// in non-test library code must appear here, so the README env table
    /// and the code can never drift.
    pub readme: Option<String>,
}

impl Config {
    /// The committed workspace contract.
    pub fn workspace() -> Self {
        let warm_path_files = [
            "crates/solver/src/cg.rs",
            "crates/linalg/src/vector.rs",
            "crates/device/src/workspace.rs",
            "shims/rayon/src/det.rs",
            "shims/rayon/src/pool.rs",
        ];
        let env_parse_points = [
            "crates/linalg/src/lib.rs",
            "crates/cluster/src/network.rs",
            "crates/cluster/src/transport/mod.rs",
            "crates/trace/src/env.rs",
            "shims/rayon/src/pool.rs",
        ];
        Self {
            warm_path_files: warm_path_files.iter().map(|s| s.to_string()).collect(),
            env_parse_points: env_parse_points.iter().map(|s| s.to_string()).collect(),
            readme: None,
        }
    }

    /// An empty contract for fixture tests: no warm paths, no parse points,
    /// no README.
    pub fn bare() -> Self {
        Self {
            warm_path_files: Vec::new(),
            env_parse_points: Vec::new(),
            readme: None,
        }
    }
}
