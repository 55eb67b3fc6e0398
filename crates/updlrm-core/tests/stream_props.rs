//! Differential property test for the stage-1 stream writer: filled the
//! way routing fills it — all partitions of a table at once, sample by
//! sample — every partition's bytes must equal both `build_stream` over
//! that partition's per-sample lists and the format written out
//! longhand from the layout in `kernel.rs`'s module docs.

use proptest::prelude::*;
use std::collections::HashMap;
use updlrm_core::kernel::StreamWriter;
use updlrm_core::{build_stream, CACHE_REF_BIT};

fn pad8(out: &mut Vec<u8>) {
    out.resize((out.len() + 7) & !7, 0);
}

fn words(out: &mut Vec<u8>, ws: impl IntoIterator<Item = u32>) {
    for w in ws {
        out.extend_from_slice(&w.to_le_bytes());
    }
}

/// The documented stream layout, one word at a time.
fn naive_stream(refs_per_sample: &[Vec<u32>], n_tasklets: usize, dedup: bool) -> Vec<u8> {
    let mut out = Vec::new();
    if !dedup {
        let mut end = 0u32;
        words(&mut out, [0]);
        for refs in refs_per_sample {
            end += refs.len() as u32;
            words(&mut out, [end]);
        }
        pad8(&mut out);
        words(&mut out, refs_per_sample.iter().flatten().copied());
        pad8(&mut out);
        return out;
    }
    // Unique refs in first-seen order, each with its sample ids.
    let mut slot_of: HashMap<u32, usize> = HashMap::new();
    let mut entries: Vec<(u32, Vec<u32>)> = Vec::new();
    for (s, refs) in refs_per_sample.iter().enumerate() {
        for &r in refs {
            let slot = *slot_of.entry(r).or_insert_with(|| {
                entries.push((r, Vec::new()));
                entries.len() - 1
            });
            entries[slot].1.push(s as u32);
        }
    }
    // Dealt round-robin; each tasklet stream leads with its entry count.
    let mut streams: Vec<Vec<u32>> = (0..n_tasklets)
        .map(|t| vec![entries.iter().skip(t).step_by(n_tasklets).count() as u32])
        .collect();
    for (i, (r, ids)) in entries.iter().enumerate() {
        let st = &mut streams[i % n_tasklets];
        st.push(*r);
        st.push(ids.len() as u32);
        st.extend_from_slice(ids);
    }
    let mut end = 0u32;
    words(&mut out, [0]);
    for st in &streams {
        end += 4 * st.len() as u32;
        words(&mut out, [end]);
    }
    out.resize(((n_tasklets + 2) * 4 + 7) & !7, 0);
    words(&mut out, streams.into_iter().flatten());
    pad8(&mut out);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `table[s]` is sample `s`'s `(partition, ref)` list in routing
    /// order. Few distinct refs, so the dedup format sees sharing;
    /// empty samples and (with up to 5 partitions over short samples)
    /// empty partitions occur. The writer is reused across the two
    /// tables to check that `begin` leaves nothing behind.
    #[test]
    fn writer_matches_build_stream_and_the_documented_layout(
        tables in prop::collection::vec(
            (1usize..6, prop::collection::vec(
                prop::collection::vec((0usize..5, 0u32..12, any::<bool>()), 0..10),
                0..9,
            )),
            2..3,
        ),
        n_tasklets in 1usize..17,
    ) {
        let mut writer = StreamWriter::default();
        let mut out = Vec::new();
        for (parts, samples) in &tables {
            let mut per_part = vec![vec![Vec::new(); samples.len()]; *parts];
            writer.begin(*parts, samples.len());
            for (s, sample) in samples.iter().enumerate() {
                for &(p, slot, cached) in sample {
                    let r = if cached { CACHE_REF_BIT | slot } else { slot };
                    writer.push(p % parts, r);
                    per_part[p % parts][s].push(r);
                }
                writer.end_sample();
            }
            for (p, refs_per_sample) in per_part.iter().enumerate() {
                for dedup in [false, true] {
                    writer.write_stream(p, n_tasklets, dedup, &mut out);
                    prop_assert_eq!(&out, &build_stream(refs_per_sample, n_tasklets, dedup));
                    prop_assert_eq!(&out, &naive_stream(refs_per_sample, n_tasklets, dedup));
                }
            }
        }
    }
}
