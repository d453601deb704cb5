//! Shared workload generators and report formatting for the experiment
//! harness. The `tables` binary regenerates every table/figure of the
//! paper; the Criterion benches under `benches/` cover the wall-clock axes.

use blockprov_core::{LedgerConfig, ProvenanceLedger};
use blockprov_crypto::hmac::HmacDrbg;
use blockprov_provenance::model::Action;

/// Render a fixed-width text table.
pub fn render_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    out.push_str(&format!("\n== {title} ==\n"));
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:<w$}"))
            .collect::<Vec<_>>()
            .join(" | ")
    };
    let header_cells: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(
        &widths
            .iter()
            .map(|w| "-".repeat(*w))
            .collect::<Vec<_>>()
            .join("-+-"),
    );
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Build a ledger preloaded with `n` provenance records over `subjects`
/// subjects, sealed every `per_block` records — the standard E2/E7 workload.
pub fn loaded_ledger(n: usize, subjects: usize, per_block: usize) -> ProvenanceLedger {
    let mut ledger = ProvenanceLedger::open(LedgerConfig::private_default());
    let user = ledger.register_agent("workload-user").expect("register");
    let mut drbg = HmacDrbg::new(b"bench-workload");
    for i in 0..n {
        let subject = format!("object-{}", drbg.gen_range(subjects as u64));
        let action = match i % 4 {
            0 => Action::Create,
            1 => Action::Update,
            2 => Action::Read,
            _ => Action::Share,
        };
        ledger
            .apply_operation(&user, &subject, action, &[(i % 251) as u8; 24])
            .expect("apply");
        if (i + 1) % per_block == 0 {
            ledger.seal_block().expect("seal");
        }
    }
    ledger.seal_block().expect("final seal");
    ledger
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockprov_provenance::query::ProvQuery;

    #[test]
    fn render_table_aligns_columns() {
        let t = render_table(
            "demo",
            &["col-a", "b"],
            &[
                vec!["1".into(), "22".into()],
                vec!["333".into(), "4".into()],
            ],
        );
        assert!(t.contains("== demo =="));
        assert!(t.contains("col-a | b"));
        assert!(t.contains("333   | 4"));
    }

    #[test]
    fn loaded_ledger_shape() {
        let mut l = loaded_ledger(50, 5, 10);
        assert_eq!(l.chain().height(), 5);
        assert_eq!(l.graph().len(), 50);
        let res = l.query(&ProvQuery::BySubject("object-0".into()));
        assert!(!res.ids.is_empty());
    }
}
