//! Table 3 analogue: source-line inventory of this reproduction.
//!
//! The paper reports its implementation as 6.6 KSLoC (library 0.8,
//! driver 3.3, DMA 0.8, test 1.7). Our reproduction additionally builds
//! the hardware and the kernel substrates the paper got "for free", so
//! the totals are larger; this binary maps our crates onto the paper's
//! rows where a correspondence exists.
//!
//! ```text
//! tab3_sloc [WORKSPACE]
//! ```
//!
//! It counts the workspace named by `WORKSPACE` or, without one, the
//! workspace it is run in: the nearest directory at or above the current
//! one whose `Cargo.toml` declares `[workspace]`.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use memif_bench::Table;

/// `(code lines, test lines)` under `dir`; see [`split`].
fn sloc(dir: &Path) -> (usize, usize) {
    let mut code = 0;
    let mut test = 0;
    let mut stack = vec![dir.to_path_buf()];
    while let Some(p) = stack.pop() {
        let Ok(meta) = fs::metadata(&p) else { continue };
        if meta.is_dir() {
            if let Ok(rd) = fs::read_dir(&p) {
                for e in rd.flatten() {
                    stack.push(e.path());
                }
            }
            continue;
        }
        if p.extension().and_then(|e| e.to_str()) != Some("rs") {
            continue;
        }
        let Ok(content) = fs::read_to_string(&p) else {
            continue;
        };
        let in_test_dir = p.components().any(|c| c.as_os_str() == "tests");
        let (c, t) = split(&content, in_test_dir);
        code += c;
        test += t;
    }
    (code, test)
}

/// Splits one file into `(code lines, test lines)`. A line counts when
/// it is non-empty and not a `//` comment. Every line of a file under
/// `tests/` is a test line; elsewhere a `mod` gated by `#[cfg(test)]`
/// is test code through its closing brace (found by indentation, as
/// rustfmt lays it out). A `#[cfg(test)]` on any other item does not
/// start a test region.
fn split(content: &str, in_test_dir: bool) -> (usize, usize) {
    let (mut code, mut test) = (0, 0);
    // The previous line was `#[cfg(test)]`, or an attribute after it.
    let mut cfg_test = false;
    // Indentation of the open test module.
    let mut test_mod: Option<usize> = None;
    for line in content.lines() {
        let t = line.trim();
        if t.is_empty() || t.starts_with("//") {
            continue;
        }
        let indent = line.len() - line.trim_start().len();
        if cfg_test
            && test_mod.is_none()
            && t.ends_with('{')
            && t.split_whitespace().any(|w| w == "mod")
        {
            test_mod = Some(indent);
        }
        cfg_test = t == "#[cfg(test)]" || (cfg_test && t.starts_with("#["));
        if in_test_dir || test_mod.is_some() {
            test += 1;
        } else {
            code += 1;
        }
        if test_mod == Some(indent) && t == "}" {
            test_mod = None;
        }
    }
    (code, test)
}

/// The paper-row mapping: `(directory, role, paper KSLoC row)`. Crates
/// not listed here still get a row, with "—" for both.
const ROLES: &[(&str, &str, &str)] = &[
    (
        "crates/lockfree",
        "library (lock-free interface)",
        "0.8 (Library)",
    ),
    ("crates/core", "memif driver", "3.3 (Driver)"),
    ("crates/hwsim", "DMA engine + simulated SoC", "0.8 (DMA)"),
    ("crates/mm", "kernel mm substrate", "— (Linux provided)"),
    (
        "crates/baseline",
        "Linux migration comparator",
        "— (Linux provided)",
    ),
    ("crates/runtime", "mini streaming runtime", "0.4 (§6.6)"),
    ("crates/workloads", "workloads", "— (ported benchmarks)"),
    ("crates/bench", "evaluation harness", "1.7 (Test)"),
    (
        "crates/cli",
        "memifctl command-line tool",
        "— (numactl-analogue)",
    ),
    ("tests", "cross-crate integration tests", "1.7 (Test)"),
    ("examples", "examples", "—"),
];

/// The nearest directory at or above `dir` whose `Cargo.toml` declares
/// `[workspace]`.
fn workspace_of(dir: &Path) -> Option<PathBuf> {
    dir.ancestors()
        .find(|d| {
            fs::read_to_string(d.join("Cargo.toml"))
                .is_ok_and(|t| t.lines().any(|l| l.trim() == "[workspace]"))
        })
        .map(Path::to_path_buf)
}

/// `(directory, code lines, test lines)` for every crate under
/// `root/crates`, in name order, then the top-level `tests` and
/// `examples` trees.
fn inventory(root: &Path) -> Vec<(String, usize, usize)> {
    let mut dirs: Vec<String> = fs::read_dir(root.join("crates"))
        .into_iter()
        .flatten()
        .flatten()
        .filter(|e| e.path().is_dir())
        .map(|e| format!("crates/{}", e.file_name().to_string_lossy()))
        .collect();
    dirs.sort();
    dirs.extend(["tests".to_owned(), "examples".to_owned()]);
    dirs.into_iter()
        .map(|dir| {
            let (code, test) = sloc(&root.join(&dir));
            (dir, code, test)
        })
        .collect()
}

fn main() -> ExitCode {
    let root = match std::env::args_os().nth(1) {
        Some(path) => Some(PathBuf::from(path)),
        None => std::env::current_dir()
            .ok()
            .and_then(|cwd| workspace_of(&cwd)),
    };
    let Some(root) = root.filter(|r| r.join("crates").is_dir()) else {
        eprintln!(
            "tab3_sloc: no workspace with a crates/ directory here; name one as the argument"
        );
        return ExitCode::from(2);
    };

    let mut table = Table::new(
        "Table 3 analogue: source lines of this reproduction",
        &["component", "role", "code", "test", "paper KSLoC row"],
    );
    let (mut tot_code, mut tot_test) = (0, 0);
    for (dir, code, test) in inventory(&root) {
        let (role, paper) = ROLES
            .iter()
            .find(|(d, _, _)| *d == dir)
            .map_or(("—", "—"), |(_, role, paper)| (*role, *paper));
        tot_code += code;
        tot_test += test;
        table.row(&[
            dir,
            role.to_owned(),
            code.to_string(),
            test.to_string(),
            paper.to_owned(),
        ]);
    }
    table.row(&[
        "TOTAL".to_owned(),
        String::new(),
        tot_code.to_string(),
        tot_test.to_string(),
        "6.6 total".to_owned(),
    ]);
    table.print();
    table.write_csv("tab3_sloc");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::{inventory, split, workspace_of};
    use std::fs;

    #[test]
    fn counts_the_workspace_it_is_run_in() {
        let root = std::env::temp_dir().join(format!("tab3-sloc-{}", std::process::id()));
        let write = |path: &str, text: &str| {
            let path = root.join(path);
            fs::create_dir_all(path.parent().unwrap()).unwrap();
            fs::write(path, text).unwrap();
        };
        write("Cargo.toml", "[workspace]\nmembers = [\"crates/a\"]\n");
        write("crates/a/Cargo.toml", "[package]\nname = \"a\"\n");
        write(
            "crates/a/src/lib.rs",
            "// comment\nfn a() {}\n\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\n",
        );
        write("crates/a/tests/t.rs", "fn t() {}\nfn u() {}\n");
        write("tests/top.rs", "fn top() {}\n");
        write("notes.txt", "not rust\n");

        let nested = root.join("crates/a/src");
        assert_eq!(workspace_of(&nested), Some(root.clone()));
        assert_eq!(workspace_of(&root.join("crates/a")), Some(root.clone()));
        let rows = inventory(&root);
        fs::remove_dir_all(&root).unwrap();
        assert_eq!(
            rows,
            [
                ("crates/a".to_owned(), 2, 5),
                ("tests".to_owned(), 0, 1),
                ("examples".to_owned(), 0, 0),
            ]
        );
    }

    #[test]
    fn only_a_cfg_test_module_starts_test_attribution() {
        let file = "\
fn a() {}
// a comment naming mod tests must not flip the rest of the file
fn b() {}

#[cfg(test)]
mod reference {
    fn oracle() {}
}

fn c() {}

impl X {
    #[cfg(test)]
    pub fn as_array(&self) {}

    fn production() {}
}

#[cfg(test)]
mod negative_result {
    #[test]
    fn t() {}
}
";
        // Code: `fn a`, `fn b`, `fn c`, the five lines of `impl X` with
        // its `#[cfg(test)]` method, and the two attributes that gate a
        // module. Test: each gated module through its closing brace.
        assert_eq!(split(file, false), (10, 7));
        assert_eq!(split(file, true), (0, 17));
    }
}
