//! Isolation replays: one layer's public functions driven alone with
//! the pass's own inputs, so host time can be attributed per layer.
//!
//! Each replay is timed inside a `replay/<metric>` span; the metric is
//! the median repetition divided by the work replayed. A replay is an
//! *estimate* of the layer's share of a pass — it runs with warm caches
//! and without its neighbours — which is exactly why the difference to
//! the pass (`core.unattributed_share`) is reported rather than
//! asserted.

use std::hint::black_box;
use std::time::Instant;

use updlrm::cooccur_cache::LookupScratch;
use updlrm::dlrm_model::quant::{row_params, QuantTable, QROW_HEADER_BYTES};
use updlrm::prelude::*;
use updlrm::runtime::ring;
use updlrm::scheduler::{assemble_into, AdmitOutcome, BatchPolicy};
use updlrm::upmem_sim::{Kernel, SimError, TaskletCtx};

use crate::reference::Reference;
use crate::shapes::{Shape, NR_DPUS, TASKLETS};
use crate::spans::Tracer;
use crate::stats::median_of;

/// Repeats `f` inside `name` spans — at least `MIN_REPS` times, then
/// until `budget_s` of host time is spent — and returns the median
/// repetition in nanoseconds.
pub fn replay(tracer: &mut Tracer, name: &'static str, budget_s: f64, mut f: impl FnMut()) -> f64 {
    const MIN_REPS: usize = 2;
    let started = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < MIN_REPS || started.elapsed().as_secs_f64() < budget_s {
        let ((), ns) = tracer.time(name, &mut f);
        reps.push(ns as f64);
    }
    median_of(&reps)
}

/// `workloads.profile_s`: what `from_workload` does first.
pub fn profile(model: &Dlrm, fit: &Workload) -> Vec<FreqProfile> {
    model
        .tables()
        .iter()
        .enumerate()
        .map(|(t, table)| FreqProfile::from_inputs(table.rows(), fit.table_inputs(t)))
        .collect()
}

/// `cooccur.mine_s`: co-occurrence graph, greedy list mining, measured
/// benefit and partial-sum materialization, table by table, with the
/// engine's own miner configuration. Empty outside cache-aware
/// partitioning.
pub fn mine(
    shape: &Shape,
    model: &Dlrm,
    fit: &Workload,
    profiles: &[FreqProfile],
) -> Vec<PartialSumCache> {
    if shape.strategy != PartitionStrategy::CacheAware {
        return Vec::new();
    }
    let miner = shape.engine_config(false).miner;
    model
        .tables()
        .iter()
        .enumerate()
        .map(|(t, table)| {
            let mut graph = CooccurGraph::new(&profiles[t], miner.hot_set_size);
            let mut budget = miner.max_samples;
            'record: for input in fit.table_inputs(t) {
                for sample in input.iter() {
                    if budget == 0 {
                        break 'record;
                    }
                    graph.record_sample(sample);
                    budget -= 1;
                }
            }
            let mut set = CacheListSet::mine(&graph, &miner);
            set.measure_benefit(fit.table_inputs(t));
            PartialSumCache::materialize(&set, table).expect("mined items are table rows")
        })
        .collect()
}

/// `cooccur.lookup_ns_per_sample`: the cache probe of every sample.
pub fn cache_lookups(caches: &[PartialSumCache], workload: &Workload) {
    let mut scratch = LookupScratch::default();
    let mut hit = updlrm::cooccur_cache::CacheHit::default();
    for batch in &workload.batches {
        for (cache, sp) in caches.iter().zip(&batch.sparse) {
            for sample in sp.iter() {
                cache.lookup_into(sample, &mut scratch, &mut hit);
                black_box(&hit);
            }
        }
    }
}

/// Little-endian row bytes per table, as the EMT tiles hold them.
pub fn le_tables(model: &Dlrm) -> Vec<Vec<u8>> {
    model.tables().iter().map(|t| t.to_le_bytes()).collect()
}

/// `dlrm.sum_rows_ns_per_lookup`: the fused gather-accumulate over the
/// pass's gathers, at the engine's tile width (`n_c` columns per DPU,
/// so each lookup is `dim / n_c` narrow row reads, as in the kernel).
pub fn sum_rows(le: &[Vec<u8>], n_c: usize, dim: usize, workload: &Workload) {
    let mut offs: Vec<usize> = Vec::new();
    let mut acc = vec![0f32; n_c];
    for batch in &workload.batches {
        for (data, sp) in le.iter().zip(&batch.sparse) {
            for sample in sp.iter() {
                for slice in 0..dim / n_c {
                    offs.clear();
                    offs.extend(sample.iter().map(|&i| (i as usize * dim + slice * n_c) * 4));
                    acc.fill(0.0);
                    simd::sum_rows_le(&mut acc, data, &offs);
                    black_box(&acc);
                }
            }
        }
    }
}

/// Quantized tables for the int8 replay.
pub fn quant_tables(model: &Dlrm) -> Vec<QuantTable> {
    model
        .tables()
        .iter()
        .map(|t| QuantTable::from_table(t).expect("integer-valued rows are finite"))
        .collect()
}

/// `dlrm.dequant_ns_per_lookup`: dequantization fused into the
/// accumulation, row by row, over the pass's gathers.
pub fn dequant_rows(quant: &[QuantTable], dim: usize, workload: &Workload) {
    let mut acc = vec![0f32; dim];
    for batch in &workload.batches {
        for (table, sp) in quant.iter().zip(&batch.sparse) {
            for sample in sp.iter() {
                acc.fill(0.0);
                for &i in sample {
                    let row = table.row_bytes_of(i).expect("trace indices are table rows");
                    let (scale, min) = row_params(row).expect("stored rows carry a header");
                    simd::add_assign_dequant_u8(
                        &mut acc,
                        &row[QROW_HEADER_BYTES..QROW_HEADER_BYTES + dim],
                        scale,
                        min,
                    );
                }
                black_box(&acc);
            }
        }
    }
}

/// Oracle pooled matrices per generator batch, for the dense replay.
pub fn oracle_pooled(reference: &Reference, workload: &Workload) -> Vec<Vec<Matrix>> {
    (0..workload.batches.len())
        .map(|b| reference.pooled_for_batch(workload, b))
        .collect()
}

/// `dlrm.dense_ns_per_sample`: bottom MLP, interaction and top MLP.
pub fn dense(model: &Dlrm, workload: &Workload, pooled: &[Vec<Matrix>]) {
    for (batch, p) in workload.batches.iter().zip(pooled) {
        black_box(
            model
                .forward_with_pooled(batch, p)
                .expect("oracle pooled matrices fit the model"),
        );
    }
}

/// A kernel that does nothing: what is left of a launch is the
/// simulator's per-DPU, per-tasklet fixed cost.
struct NoOp;

impl Kernel for NoOp {
    fn run(&self, _ctx: &mut TaskletCtx<'_>) -> Result<(), SimError> {
        Ok(())
    }
}

/// A benchmark-owned PIM system for the transfer and launch replays,
/// with the pass's per-batch buffer count and sizes.
pub struct TransferRig {
    sys: PimSystem,
    ids: Vec<DpuId>,
    /// One stage-1 buffer per DPU.
    scatter_buf: Vec<u8>,
    /// Stage-3 bytes read back per DPU.
    gather_len: usize,
    gather_out: Vec<u8>,
    /// Batches in the pass.
    batches: usize,
}

impl TransferRig {
    /// `stage1_bytes` / `stage3_bytes`: the pass's modeled transfer
    /// volume; each batch moves an equal share, split over the DPUs in
    /// 8-byte granules.
    pub fn new(stage1_bytes: u64, stage3_bytes: u64, batches: usize) -> Self {
        let per_dpu = |total: u64| {
            let share = total as usize / batches.max(1) / NR_DPUS;
            share.div_ceil(8).max(1) * 8
        };
        let mut sys = PimSystem::new(PimConfig::new(NR_DPUS, TASKLETS).with_host_threads(1))
            .expect("the benchmark's PIM configuration is valid");
        let ids: Vec<DpuId> = sys.dpu_ids().collect();
        let scatter_buf = vec![0x5Au8; per_dpu(stage1_bytes)];
        let gather_len = per_dpu(stage3_bytes);
        // Commit the staged regions once so the replays time steady
        // transfers, not first-touch bank growth.
        for &id in &ids {
            sys.load_mram(id, 0, &vec![0u8; scatter_buf.len().max(gather_len)])
                .expect("staging region fits MRAM");
        }
        TransferRig {
            sys,
            ids,
            scatter_buf,
            gather_len,
            gather_out: Vec::new(),
            batches,
        }
    }

    pub fn scatter_kb_per_pass(&self) -> f64 {
        (self.scatter_buf.len() * NR_DPUS * self.batches) as f64 / 1024.0
    }

    pub fn gather_kb_per_pass(&self) -> f64 {
        (self.gather_len * NR_DPUS * self.batches) as f64 / 1024.0
    }

    pub fn launches_per_pass(&self) -> f64 {
        (NR_DPUS * self.batches) as f64
    }

    /// `upmem.scatter_ns_per_kb`: one pass's stage-1 scatters.
    pub fn scatter_pass(&mut self) {
        let transfers: Vec<(DpuId, u32, &[u8])> = self
            .ids
            .iter()
            .map(|&id| (id, 0u32, self.scatter_buf.as_slice()))
            .collect();
        for _ in 0..self.batches {
            black_box(self.sys.scatter(&transfers).expect("scatter fits MRAM"));
        }
    }

    /// `upmem.gather_ns_per_kb`: one pass's stage-3 gathers.
    pub fn gather_pass(&mut self) {
        let requests: Vec<(DpuId, u32, usize)> = self
            .ids
            .iter()
            .map(|&id| (id, 0u32, self.gather_len))
            .collect();
        for _ in 0..self.batches {
            black_box(
                self.sys
                    .gather_into(&requests, &mut self.gather_out)
                    .expect("gather stays inside MRAM"),
            );
        }
    }

    /// `upmem.launch_ns_per_dpu`: one pass's launches of a no-op kernel.
    pub fn launch_pass(&mut self) {
        for _ in 0..self.batches {
            black_box(
                self.sys
                    .launch(&self.ids, &NoOp)
                    .expect("no-op kernel runs"),
            );
        }
    }
}

/// `core.run_batch_ns_per_sample`: the sequential path over the trace's
/// generator batches, beside the pipelined pass.
pub fn run_batches(engine: &mut UpdlrmEngine, workload: &Workload) {
    for batch in &workload.batches {
        black_box(engine.run_batch(batch).expect("generator batches serve"));
    }
}

/// `sched.policy_ns_per_request`: admission and launch decisions alone
/// — the scheduler's event loop over the same stamps with a constant
/// service time and no engine behind it. Returns batches formed.
pub fn policy_loop(policy: &mut BatchPolicy, times: &[u64], service_ns: u64) -> usize {
    policy.clear();
    let n = times.len();
    let mut ids = Vec::with_capacity(policy.config().max_batch_size);
    let (mut next, mut now, mut engine_free, mut batches) = (0usize, 0u64, 0u64, 0usize);
    let mut door_blocked = false;
    loop {
        if policy.is_empty() {
            if next >= n {
                break;
            }
            now = now.max(times[next]);
            door_blocked = false;
        } else {
            let plan = policy
                .launch_at(now, engine_free, next >= n)
                .expect("queue is nonempty");
            if door_blocked || next >= n || times[next] > plan.at_ns {
                now = plan.at_ns;
                black_box(policy.take_batch(&mut ids));
                engine_free = now + service_ns;
                batches += 1;
                door_blocked = false;
                continue;
            }
            now = now.max(times[next]);
        }
        match policy.admit(next as u32, times[next]) {
            AdmitOutcome::Blocked => door_blocked = true,
            _ => next += 1,
        }
    }
    batches
}

/// `sched.assemble_ns_per_request`: CSR batch assembly over the id
/// lists the modeled pass formed.
pub fn assemble(workload: &Workload, formed: &[Vec<u32>], out: &mut QueryBatch) {
    if out.sparse.len() != workload.config.num_tables {
        out.sparse = vec![Default::default(); workload.config.num_tables];
    }
    for ids in formed {
        assemble_into(workload, ids, out);
        black_box(&*out);
    }
}

/// Hops per ring replay repetition.
pub const RING_HOPS: usize = 100_000;

/// `runtime.ring_hop_ns`: push then pop on one thread.
pub fn ring_same_thread() {
    let (mut tx, mut rx) = ring::<u64>(64);
    for i in 0..RING_HOPS as u64 {
        tx.try_push(i).expect("ring has room");
        black_box(rx.try_pop());
    }
}

/// `runtime.ring_xthread_ns`: two-thread ping-pong over a pair of
/// rings; one round trip is two cross-thread hops.
pub fn ring_ping_pong() {
    let (mut ping_tx, mut ping_rx) = ring::<u64>(64);
    let (mut pong_tx, mut pong_rx) = ring::<u64>(64);
    std::thread::scope(|s| {
        s.spawn(move || {
            while let Some(v) = ping_rx.pop_blocking() {
                if pong_tx.push_blocking(v).is_err() {
                    break;
                }
            }
        });
        for i in 0..(RING_HOPS / 2) as u64 {
            ping_tx.push_blocking(i).expect("echo thread is alive");
            black_box(pong_rx.pop_blocking());
        }
        // Dropping the producer ends the echo thread; the scope joins it.
        drop(ping_tx);
    });
}

/// Isolated replays that together approximate one system pass (ns), for
/// `core.unattributed_share`.
#[derive(Debug, Default, Clone, Copy)]
pub struct Attributed {
    pub cache_lookup_ns: f64,
    pub accumulate_ns: f64,
    pub dense_ns: f64,
    pub scatter_ns: f64,
    pub gather_ns: f64,
    pub launch_ns: f64,
    pub policy_ns: f64,
    pub assemble_ns: f64,
}

impl Attributed {
    pub fn total_ns(&self) -> f64 {
        self.cache_lookup_ns
            + self.accumulate_ns
            + self.dense_ns
            + self.scatter_ns
            + self.gather_ns
            + self.launch_ns
            + self.policy_ns
            + self.assemble_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use updlrm::scheduler::SchedConfig;

    #[test]
    fn policy_loop_forms_every_request_into_a_batch_under_block() {
        let cfg = SchedConfig {
            max_batch_size: 4,
            max_wait_ns: 50,
            queue_cap: 8,
            policy: OverloadPolicy::Block,
        };
        let mut policy = BatchPolicy::new(cfg).unwrap();
        // A burst (size triggers, door blocks), then stragglers
        // (deadline triggers), then the drain flush.
        let mut times: Vec<u64> = (0..40).collect();
        times.extend([1_000, 2_000, 2_001]);
        let batches = policy_loop(&mut policy, &times, 100);
        assert!(policy.is_empty());
        assert!(batches >= 10 + 2, "formed {batches} batches");
    }

    #[test]
    fn ring_replays_terminate() {
        ring_same_thread();
        ring_ping_pong();
    }

    #[test]
    fn transfer_rig_moves_the_requested_volume() {
        let mut rig = TransferRig::new(64 * 1024 * 4, 64 * 512 * 4, 4);
        assert_eq!(rig.scatter_kb_per_pass(), 256.0);
        assert_eq!(rig.gather_kb_per_pass(), 128.0);
        rig.scatter_pass();
        rig.gather_pass();
        rig.launch_pass();
        assert_eq!(rig.gather_out.len(), 512 * 64);
    }
}
