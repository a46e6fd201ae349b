//! Runs the claims table: `claims [ID…] [--huge]`.
//!
//! With no ID every entry runs (§2.2, Figures 5–8, Table 4, A1–A5,
//! E8–E10, E12–E19); otherwise the named ones, in the order given. Each
//! entry's tables are printed and written as CSVs, then its note is
//! printed. A failed gate panics naming the entry. `--huge` adds the
//! million-request rows of the selected entries (Figure 8's and E17's).
//! An unknown argument exits 2 and lists the valid IDs.

use std::process::ExitCode;

use memif_bench::claims::{Claim, Report, CLAIMS};

fn print(report: &Report) {
    for (csv, table) in &report.tables {
        table.print();
        table.write_csv(csv);
    }
    if !report.note.is_empty() {
        println!("{}", report.note);
    }
}

fn main() -> ExitCode {
    let mut huge = false;
    let mut selected: Vec<&Claim> = Vec::new();
    for arg in std::env::args().skip(1) {
        if arg == "--huge" {
            huge = true;
        } else if let Some(claim) = CLAIMS.iter().find(|c| c.id == arg) {
            selected.push(claim);
        } else {
            let ids: Vec<&str> = CLAIMS.iter().map(|c| c.id).collect();
            eprintln!(
                "claims: unknown claim '{arg}'; valid IDs: {} (and --huge)",
                ids.join(" ")
            );
            return ExitCode::from(2);
        }
    }
    if selected.is_empty() {
        selected = CLAIMS.iter().collect();
    }
    for claim in selected {
        print(&claim.check());
        if huge {
            if let Some(row) = claim.check_huge() {
                print(&row);
            }
        }
    }
    ExitCode::SUCCESS
}
