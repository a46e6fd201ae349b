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

fn sloc(dir: &Path) -> (usize, usize) {
    // (code lines, test lines): a line counts as code when non-empty and
    // not a pure comment; files under tests/ and #[cfg(test)] modules
    // are attributed to tests by a coarse heuristic (the `mod tests`
    // marker splits a file).
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
        let mut in_tests_mod = false;
        for line in content.lines() {
            let t = line.trim();
            if t.contains("mod tests") {
                in_tests_mod = true;
            }
            if t.is_empty() || t.starts_with("//") {
                continue;
            }
            if in_test_dir || in_tests_mod {
                test += 1;
            } else {
                code += 1;
            }
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
