//! # mif-bench — the harness that regenerates every table and figure
//!
//! One binary per experiment (see `src/bin/`); each prints the series the
//! paper reports next to the measured values, plus the paper's qualitative
//! expectation so a reader can eyeball the reproduction:
//!
//! | binary | paper result |
//! |---|---|
//! | `fig6a` | micro-benchmark throughput vs stream count |
//! | `fig6b` | micro-benchmark throughput vs preallocation size |
//! | `fig7`  | IOR / BTIO, collective / non-collective |
//! | `table1`| extents ("Seg Counts") + MDS CPU utilization |
//! | `fig8`  | Metarates disk accesses + throughput per directory mode |
//! | `fig9`  | file-system aging impact |
//! | `fig10` | PostMark + tar/make/make-clean execution time |
//! | `prealloc_waste` | §III-C static-preallocation space waste |
//! | `shared_vs_fpp` | §II-A.1 shared file vs file-per-process |
//! | `largedir` | §IV-C/D: MDS cluster, large dirs, distribution policies |
//! | `ablate_window` | window scale / cap sweep (design ablation) |
//! | `ablate_missthresh` | miss-threshold sweep (design ablation) |
//! | `ablate_embed` | embedded directory vs inode-only embedding |
//! | `ablate_delayed` | §II-B delayed allocation vs on-demand under fsync |
//! | `ablate_cow` | §II-B copy-on-write writes fast / reads compromised |
//! | `ablate_replication` | §II-B reorganization cost + false-prediction risk |
//! | `ablate_aggregation` | §II-A.2 readdirplus / open-getlayout pairs |
//!
//! Micro-benches live under `benches/` and use the tiny wall-clock
//! harness in [`micro`] (`cargo bench` — no external harness needed).

pub mod micro;

/// Print a section header.
pub fn section(title: &str) {
    println!();
    println!("=== {title} ===");
}

/// Print the paper's expectation line (so output is self-describing).
pub fn expectation(text: &str) {
    println!("paper: {text}");
    println!("{}", "-".repeat(72));
}

/// Format a relative change as a signed percentage against a baseline.
pub fn pct(value: f64, baseline: f64) -> String {
    if baseline == 0.0 {
        return "n/a".into();
    }
    format!("{:+.0}%", (value / baseline - 1.0) * 100.0)
}

/// A very small fixed-width table printer.
pub struct Table {
    widths: Vec<usize>,
}

impl Table {
    pub fn new(headers: &[&str], widths: &[usize]) -> Self {
        assert_eq!(headers.len(), widths.len());
        let mut line = String::new();
        for (h, w) in headers.iter().zip(widths) {
            line += &format!("{h:>w$}  ", w = w);
        }
        println!("{line}");
        Self {
            widths: widths.to_vec(),
        }
    }

    pub fn row(&self, cells: &[String]) {
        assert_eq!(cells.len(), self.widths.len());
        let mut line = String::new();
        for (c, w) in cells.iter().zip(&self.widths) {
            line += &format!("{c:>w$}  ", w = w);
        }
        println!("{line}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_formats_signed() {
        assert_eq!(pct(120.0, 100.0), "+20%");
        assert_eq!(pct(80.0, 100.0), "-20%");
        assert_eq!(pct(1.0, 0.0), "n/a");
    }

    #[test]
    fn table_rows_match_headers() {
        let t = Table::new(&["a", "b"], &[4, 6]);
        t.row(&["1".into(), "2".into()]);
    }

    #[test]
    #[should_panic]
    fn table_rejects_wrong_arity() {
        let t = Table::new(&["a", "b"], &[4, 6]);
        t.row(&["only-one".into()]);
    }
}
