//! Fig. 8 — end-to-end inference speedup over DLRM-CPU.

use bench::{experiments, fmt_ns, BarChart, EvalConfig, Table};

fn main() {
    let eval = EvalConfig::from_env();
    eprintln!(
        "running fig8 ({} batches x 64, item scale 1/{})...",
        eval.num_batches, eval.item_scale
    );
    let rows = experiments::fig8(eval).expect("fig8 experiment");
    let mut t = Table::new(
        "Fig. 8: inference speedup over DLRM-CPU",
        &[
            "dataset",
            "category",
            "CPU",
            "Hybrid",
            "FAE",
            "UpDLRM",
            "UpDLRM total",
            "+WRAM-resident",
            "+WRAM total",
        ],
    );
    for r in &rows {
        let s = r.speedups();
        t.row(vec![
            r.dataset.clone(),
            r.hotness.clone(),
            "1.00x".into(),
            format!("{:.2}x", s[1]),
            format!("{:.2}x", s[2]),
            format!("{:.2}x", s[3]),
            fmt_ns(r.updlrm_ns),
            format!("{:.2}x", r.cpu_ns / r.updlrm_resident_ns),
            fmt_ns(r.updlrm_resident_ns),
        ]);
    }
    t.print();
    t.write_csv("fig8");
    let mut chart = BarChart::new("UpDLRM speedup over DLRM-CPU");
    for r in &rows {
        chart.bar(&r.dataset, r.speedups()[3]);
    }
    chart.print();
    println!("paper: UpDLRM 1.9-3.2x vs CPU, 2.2-4.6x vs Hybrid, 1.1-2.3x vs FAE;");
    println!("       Hybrid worst overall; highest UpDLRM speedups on High Hot datasets");
    println!("+WRAM-resident: this repository's extension (hottest rows kept in each DPU's");
    println!("       WRAM across launches); the UpDLRM column is the paper's design, unchanged");
}
