//! Mapping a file path to the set of rules that apply to it.
//!
//! The rule scoping mirrors ISSUE-2: panic-freedom (P1) is demanded of the
//! library crates that back `yv serve`, wall-clock hygiene (S1) of
//! everything except the one crate sanctioned to own the wall clock
//! (`yv-obs`), float hygiene (F1) of persistence and protocol code, and
//! hash-order determinism (D1) everywhere. Test, bench and example code —
//! including the standalone `perfbench/` benchmark — is exempt. Files whose
//! path does not identify a workspace crate (e.g. audit fixtures) get every
//! rule — the conservative default.

/// Crates whose non-test code must be panic-free (P1).
const P1_CRATES: [&str; 7] = ["core", "blocking", "mfi", "store", "similarity", "adt", "obs"];

/// The only crate allowed to read the wall clock: `yv-obs` wraps
/// `Instant::now` behind its `Clock` trait, and every other crate takes
/// time through an injected clock — so S1 holds by construction
/// everywhere else, and this exemption is the single escape hatch.
const S1_EXEMPT_CRATES: [&str; 1] = ["obs"];

/// The only crate allowed to install a global allocator (A1): `yv-obs`
/// hosts the counting allocator behind its `global-alloc` feature, and the
/// allocator gauges are only attributable if that installation stays
/// unique in the process.
const A1_EXEMPT_CRATES: [&str; 1] = ["obs"];

/// File-name fragments marking persistence/protocol code (F1 and C1
/// scope: the files whose bytes outlive the process or cross the wire).
const F1_FILES: [&str; 6] = ["persist", "codec", "snapshot", "wal", "protocol", "csv"];

/// Crates in the privacy-taint (N1) scope: the serving and observability
/// layers, where a stray `println!`/log line is operator-visible output
/// that must never carry raw victim names. The batch CLI prints names to
/// the operator's own terminal by design and stays out of scope.
const N1_CRATES: [&str; 3] = ["store", "obs", "fuzzy"];

/// Which rules apply to a given file.
#[derive(Debug, Clone, Copy)]
pub struct FileProfile {
    pub d1: bool,
    pub p1: bool,
    pub f1: bool,
    pub s1: bool,
    pub a1: bool,
    /// Lock-discipline: guards across blocking I/O, shard lock order.
    pub l1: bool,
    /// Privacy-taint: name-derived values into log/metrics sinks.
    pub n1: bool,
    /// Cast-safety: integer narrowing in persisted formats.
    pub c1: bool,
    /// Path components identified this as test/bench/example code; all
    /// rules are off.
    pub test_file: bool,
}

impl FileProfile {
    /// Every rule on — used for unknown paths and in-memory checks.
    #[must_use]
    pub fn all() -> Self {
        FileProfile {
            d1: true,
            p1: true,
            f1: true,
            s1: true,
            a1: true,
            l1: true,
            n1: true,
            c1: true,
            test_file: false,
        }
    }

    fn none_test() -> Self {
        FileProfile {
            d1: false,
            p1: false,
            f1: false,
            s1: false,
            a1: false,
            l1: false,
            n1: false,
            c1: false,
            test_file: true,
        }
    }

    /// Classify a workspace-relative path (`/`-separated).
    #[must_use]
    pub fn for_path(path: &str) -> Self {
        let norm = path.replace('\\', "/");
        let components: Vec<&str> = norm.split('/').collect();
        if components
            .iter()
            .any(|c| matches!(*c, "tests" | "benches" | "examples" | "perfbench"))
        {
            return FileProfile::none_test();
        }
        // Fixture snippets exercise every rule regardless of which crate
        // hosts them.
        if components.contains(&"fixtures") {
            return FileProfile::all();
        }
        let crate_name = components
            .iter()
            .position(|c| *c == "crates")
            .and_then(|i| components.get(i + 1))
            .copied();
        let file_name = components.last().copied().unwrap_or_default();
        let persisted = F1_FILES.iter().any(|f| file_name.contains(f));
        match crate_name {
            Some(name) => FileProfile {
                d1: true,
                p1: P1_CRATES.contains(&name),
                f1: persisted,
                s1: !S1_EXEMPT_CRATES.contains(&name),
                a1: !A1_EXEMPT_CRATES.contains(&name),
                // Lock discipline holds everywhere non-test code takes a
                // lock; the rule is inert in lock-free crates.
                l1: true,
                n1: N1_CRATES.contains(&name),
                c1: persisted,
                test_file: false,
            },
            // Root src/, fixtures, anything unrecognized: all rules.
            None => FileProfile::all(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_crate_gets_p1_and_s1() {
        let p = FileProfile::for_path("crates/blocking/src/mfiblocks.rs");
        assert!(p.d1 && p.p1 && p.s1 && !p.f1);
    }

    #[test]
    fn store_persistence_file_gets_f1() {
        let p = FileProfile::for_path("crates/store/src/wal.rs");
        assert!(p.f1 && p.p1 && p.s1);
    }

    #[test]
    fn cli_crate_gets_d1_and_s1_but_not_p1_or_f1() {
        let p = FileProfile::for_path("crates/cli/src/commands.rs");
        assert!(p.d1 && !p.p1 && p.s1 && !p.f1);
    }

    #[test]
    fn obs_is_the_sole_s1_exemption() {
        let p = FileProfile::for_path("crates/obs/src/clock.rs");
        assert!(p.d1 && p.p1 && !p.s1, "yv-obs owns the wall clock");
        for other in ["core", "blocking", "store", "eval", "bench", "cli", "datagen"] {
            let p = FileProfile::for_path(&format!("crates/{other}/src/lib.rs"));
            assert!(p.s1, "{other} must stay under S1");
        }
    }

    #[test]
    fn obs_is_the_sole_a1_exemption() {
        let p = FileProfile::for_path("crates/obs/src/alloc.rs");
        assert!(!p.a1, "yv-obs owns the global allocator");
        for other in ["core", "blocking", "store", "eval", "bench", "cli", "datagen"] {
            let p = FileProfile::for_path(&format!("crates/{other}/src/lib.rs"));
            assert!(p.a1, "{other} must stay under A1");
        }
    }

    #[test]
    fn test_dirs_are_exempt() {
        let p = FileProfile::for_path("crates/store/tests/server_e2e.rs");
        assert!(p.test_file && !p.d1 && !p.p1);
        let b = FileProfile::for_path("crates/similarity/benches/jw.rs");
        assert!(b.test_file);
        // The standalone end-to-end benchmark is bench code too: it times
        // with the wall clock and casts counts into rates.
        let pb = FileProfile::for_path("perfbench/src/phases.rs");
        assert!(pb.test_file && !pb.s1 && !pb.c1);
    }

    #[test]
    fn unknown_paths_get_everything() {
        let p = FileProfile::for_path("crates/audit/fixtures/bad_f1.rs");
        // `fixtures` is not a test dir; unknown crate layout → all rules.
        assert!(p.d1 && p.p1 && p.f1 && p.s1);
        let r = FileProfile::for_path("src/lib.rs");
        assert!(r.d1 && r.p1);
    }
}
