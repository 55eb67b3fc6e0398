//! Fig. 10 — latency breakdown of the embedding layer (GoodReads).

use bench::{experiments, fmt_ns, EvalConfig, Table};

fn main() {
    let eval = EvalConfig::from_env();
    eprintln!("running fig10 (GoodReads, 3 strategies x 3 N_c)...");
    let rows = experiments::fig10(eval).expect("fig10 experiment");
    let mut t = Table::new(
        "Fig. 10: embedding-layer latency breakdown (GoodReads)",
        &[
            "strategy",
            "N_c",
            "stage1 CPU->DPU",
            "stage2 lookup",
            "stage3 DPU->CPU",
            "total",
            "+WRAM stage2",
            "+WRAM total",
        ],
    );
    for r in &rows {
        t.row(vec![
            r.strategy.clone(),
            r.n_c.to_string(),
            format!("{:.0}%", r.stage1_frac * 100.0),
            format!("{:.0}%", r.stage2_frac * 100.0),
            format!("{:.0}%", r.stage3_frac * 100.0),
            fmt_ns(r.total_ns),
            format!("{:.0}%", r.resident_stage2_frac * 100.0),
            fmt_ns(r.resident_total_ns),
        ]);
    }
    t.print();
    t.write_csv("fig10");
    println!("paper: CA cuts the lookup share from 71-77% (U/NU) to 43-52%;");
    println!("       larger N_c raises stage-3 share and lowers stage-1 share");
    println!("+WRAM: the same run with each DPU's hottest rows WRAM-resident (extension);");
    println!("       the first four columns are the paper's design, unchanged");
}
