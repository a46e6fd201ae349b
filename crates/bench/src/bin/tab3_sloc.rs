//! Table 3 analogue: source-line inventory of this reproduction.
//!
//! The paper reports its implementation as 6.6 KSLoC (library 0.8,
//! driver 3.3, DMA 0.8, test 1.7). Our reproduction additionally builds
//! the hardware and the kernel substrates the paper got "for free", so
//! the totals are larger; this binary maps our crates onto the paper's
//! rows where a correspondence exists.

use std::fs;
use std::path::Path;

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

fn main() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap()
        .parent()
        .unwrap();
    // Every crate in the workspace, then the top-level test and example
    // trees.
    let mut dirs: Vec<String> = fs::read_dir(root.join("crates"))
        .expect("crates directory")
        .flatten()
        .filter(|e| e.path().is_dir())
        .map(|e| format!("crates/{}", e.file_name().to_string_lossy()))
        .collect();
    dirs.sort();
    dirs.extend(["tests".to_owned(), "examples".to_owned()]);

    let mut table = Table::new(
        "Table 3 analogue: source lines of this reproduction",
        &["component", "role", "code", "test", "paper KSLoC row"],
    );
    let (mut tot_code, mut tot_test) = (0, 0);
    for dir in &dirs {
        let (role, paper) = ROLES
            .iter()
            .find(|(d, _, _)| d == dir)
            .map_or(("—", "—"), |(_, role, paper)| (*role, *paper));
        let (code, test) = sloc(&root.join(dir));
        tot_code += code;
        tot_test += test;
        table.row(&[
            dir.clone(),
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
}

#[cfg(test)]
mod tests {
    use super::split;

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
