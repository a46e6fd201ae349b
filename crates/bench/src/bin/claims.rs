//! Runs the claims table (E10, E12–E19): `claims [ID…] [--huge]`.
//!
//! With no ID every entry runs; otherwise the named ones, in the order
//! given. Each entry's tables are printed and written as CSVs, then its
//! "Shape checks" note is printed. A failed gate panics naming the
//! entry. `--huge` adds E17's million-request macro row. An unknown
//! argument exits 2 and lists the valid IDs.

use std::process::ExitCode;

use memif_bench::claims::{self, Claim, CLAIMS};

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
        let report = claim.check();
        for (csv, table) in &report.tables {
            table.print();
            table.write_csv(csv);
        }
        println!("{}", report.note);
    }
    if huge {
        let (csv, table) = claims::e17_huge();
        table.print();
        table.write_csv(csv);
    }
    ExitCode::SUCCESS
}
