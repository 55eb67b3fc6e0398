//! CTR outputs of the paper-shape model on two fixed batches, bit for
//! bit, on every dispatch tier.
//!
//! `tests/golden/ctr_outputs.txt` was recorded from the axpy-per-`k`
//! matmul (the parent of the blocked GEMM, `simd_tier` avx2 and scalar
//! agreeing) before `tensor.rs` was touched, so "bit-identical to the
//! parent" is checked against the parent and not against the new code's
//! own oracle. One `batch N` line, then N lines of `f32::to_bits` in hex.
//!
//! After an *intended* change to the dense side's arithmetic:
//! `cargo test -p dlrm-model --test ctr_golden -- --ignored`.

use dlrm_model::simd::{self, SimdTier};
use dlrm_model::{Dlrm, DlrmConfig, QueryBatch, SparseInput};
use std::fmt::Write as _;
use std::path::PathBuf;

const ROWS: usize = 1000;

fn path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/ctr_outputs.txt")
}

/// A batch that depends on nothing but this file: dense features in
/// `[-4, 4)` with exact zeros sprinkled in, 1–5 lookups per sample and
/// table.
fn fixed_batch(config: &DlrmConfig, batch: usize) -> QueryBatch {
    let mut s = 0x9E37_79B9u32 ^ batch as u32;
    let mut next = move || {
        s = s.wrapping_mul(1664525).wrapping_add(1013904223);
        s >> 8
    };
    let dense = (0..batch * config.num_dense)
        .map(|i| {
            let v = next();
            if i % 5 == 2 {
                0.0
            } else {
                v as f32 / (1 << 21) as f32 - 4.0
            }
        })
        .collect();
    let sparse = config
        .table_rows
        .iter()
        .map(|&rows| {
            SparseInput::from_samples((0..batch).map(|_| {
                (0..1 + next() % 5)
                    .map(|_| (next() as usize % rows) as u64)
                    .collect::<Vec<_>>()
            }))
        })
        .collect();
    QueryBatch::new(dense, config.num_dense, sparse).expect("well-formed batch")
}

fn outputs() -> String {
    let model = Dlrm::new_integer_tables(DlrmConfig::paper_shape(ROWS)).expect("paper shape");
    let mut text = String::new();
    for batch in [16usize, 256] {
        let ctr = model
            .forward(&fixed_batch(model.config(), batch))
            .expect("forward");
        assert_eq!(ctr.len(), batch);
        writeln!(text, "batch {batch}").unwrap();
        for p in ctr {
            writeln!(text, "{:08x}", p.to_bits()).unwrap();
        }
    }
    text
}

/// Each tier is an override on this test's thread only; a tier the
/// machine lacks falls back to scalar.
#[test]
fn ctr_outputs_match_the_parent_on_every_tier() {
    let want = std::fs::read_to_string(path()).expect("committed golden");
    assert_eq!(
        want.lines().count(),
        2 + 16 + 256,
        "golden holds both batches"
    );
    for tier in [SimdTier::Scalar, SimdTier::Avx2, SimdTier::Avx512] {
        let (got, ran) = simd::with_tier(tier, || (outputs(), simd::tier_name()));
        assert!(
            got == want,
            "CTR outputs differ from the recorded parent on tier {ran}"
        );
    }
}

#[test]
#[ignore = "re-records the golden; run only after an intended arithmetic change"]
fn record_ctr_outputs() {
    std::fs::write(path(), outputs()).expect("write golden");
}
