//! The mined-and-measured cache lists of two fixed fits, byte for byte.
//!
//! `tests/golden/lists_*.json` were recorded from the hash-map miner
//! (edge map, sorted adjacency, map-per-sample benefit) before it was
//! replaced; the lists decide every cache-aware placement, so any drift
//! here moves modeled numbers everywhere downstream. The two fits are
//! the benchmark's `pool_heavy` shape at seed 7 (table 0) and its
//! `open_loop` shape at seed 11 (table 5).
//!
//! After an *intended* change to what the miner emits:
//! `cargo test -p cooccur-cache --test list_goldens -- --ignored`.

use cooccur_cache::{CacheListSet, MinerConfig};
use std::path::PathBuf;
use workloads::{DatasetSpec, FreqProfile, TraceConfig, Workload};

struct Fit {
    golden: &'static str,
    spec: DatasetSpec,
    trace: TraceConfig,
    table: usize,
}

fn fits() -> [Fit; 2] {
    [
        Fit {
            golden: "lists_read_s7_t0.json",
            spec: DatasetSpec::goodreads().scaled_down(200),
            trace: TraceConfig {
                num_tables: 8,
                batch_size: 256,
                num_batches: 8,
                num_dense: 13,
                seed: 7,
            },
            table: 0,
        },
        Fit {
            golden: "lists_fbgemm1_s11_t5.json",
            spec: DatasetSpec::meta_fbgemm1().scaled_down(200),
            trace: TraceConfig {
                num_tables: 8,
                batch_size: 64,
                num_batches: 160,
                num_dense: 13,
                seed: 11,
            },
            table: 5,
        },
    ]
}

impl Fit {
    fn path(&self) -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("tests/golden")
            .join(self.golden)
    }

    fn mined_json(&self) -> String {
        let w = Workload::generate(&self.spec, self.trace);
        let profile = FreqProfile::from_inputs(self.spec.num_items, w.table_inputs(self.table));
        let set = CacheListSet::from_trace(
            &profile,
            w.table_inputs(self.table),
            &MinerConfig::default(),
        );
        serde::json::to_string(&set) + "\n"
    }
}

#[test]
fn mined_lists_match_the_recorded_goldens() {
    for fit in fits() {
        let want = std::fs::read_to_string(fit.path()).expect("committed golden");
        assert!(want.len() > 10_000, "{}: golden holds lists", fit.golden);
        assert!(
            fit.mined_json() == want,
            "{}: mined lists differ from the golden",
            fit.golden
        );
    }
}

#[test]
#[ignore = "rewrites the goldens"]
fn regenerate_list_goldens() {
    for fit in fits() {
        std::fs::write(fit.path(), fit.mined_json()).expect("golden is writable");
    }
}
