//! Online re-partitioning under non-stationary traffic (DESIGN.md §4.11).
//!
//! The engine's placement is chosen once, from the profile of the
//! training trace. Under drifting traffic (UPWL v3 hot-set rotation,
//! flash crowds) that placement goes stale: the rows that are hot *now*
//! pile onto whichever partitions the old profile assigned them to, and
//! the stage-2 wall — the slowest DPU — blows up. This module holds
//! live reconfiguration, decision and mechanism:
//!
//! * [`ReplanPolicy`] — whether to refresh the placement: `off`, or
//!   `periodic:N`, every `N` served batches;
//! * a sliding-window access profile per table, accumulated by stage 1
//!   and consumed by [`UpdlrmEngine::on_tick`], the one call every
//!   front-end ticks the replanner through;
//! * `rows_in_parts` / `PartLists`, the slot-order inverses the
//!   engine's tile writer reads;
//! * the migration itself: plan, scatter into the inactive one of each
//!   table's double-buffered MRAM regions at a modeled cost, and the
//!   atomic flip.
//!
//! A refit is planned with the function that built the table (`place`,
//! on the window profile and the staged regions' capacities), and the
//! property tests below pin down that its placements put every row
//! exactly once.

use crate::engine::build::{split_dpus, write_tiles};
use crate::engine::UpdlrmEngine;
use crate::error::Result;
use crate::partition::{self, PartitionStrategy, RowAssignment};
use crate::place::{place, Placement};
use crate::telemetry::{SchedSnapshot, Snapshot};
use dlrm_model::EmbeddingTable;
use upmem_sim::{Cycles, Ps};
use workloads::FreqProfile;

/// When (and whether) the engine refreshes its placement from the
/// sliding-window access profile.
///
/// Parsed from / displayed as the CLI spellings `off` and `periodic:N`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplanPolicy {
    /// Never replan (the static-placement baseline).
    #[default]
    Off,
    /// Replan every `every_batches` served batches.
    Periodic {
        /// Window length in batches between replans.
        every_batches: u64,
    },
}

impl ReplanPolicy {
    /// True when this policy can ever trigger a migration (the engine
    /// only reserves the double-buffered MRAM regions in that case).
    pub fn enabled(&self) -> bool {
        !matches!(self, ReplanPolicy::Off)
    }

    /// CLI spelling, the inverse of [`FromStr`](std::str::FromStr).
    pub fn as_string(&self) -> String {
        match self {
            ReplanPolicy::Off => "off".into(),
            ReplanPolicy::Periodic { every_batches } => format!("periodic:{every_batches}"),
        }
    }
}

impl std::fmt::Display for ReplanPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.as_string())
    }
}

impl std::str::FromStr for ReplanPolicy {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        if s == "off" {
            return Ok(ReplanPolicy::Off);
        }
        if let Some(n) = s.strip_prefix("periodic:") {
            let every_batches: u64 = n
                .parse()
                .map_err(|_| format!("bad periodic window '{n}' (expected a batch count)"))?;
            if every_batches == 0 {
                return Err("periodic window must be >= 1 batch".into());
            }
            return Ok(ReplanPolicy::Periodic { every_batches });
        }
        Err(format!(
            "unknown replan policy '{s}' (expected 'off' or 'periodic:N')"
        ))
    }
}

/// Per-partition lists in one flat buffer (partition `p`'s items are
/// [`PartLists::part`]`(p)`): the slot-order inverses of a placement
/// that the engine's tile writer reads. A replan refills them in place
/// instead of allocating a `Vec` per partition per table.
#[derive(Debug, Default)]
pub(crate) struct PartLists {
    items: Vec<u32>,
    /// `parts + 1` offsets into `items`.
    starts: Vec<usize>,
}

impl PartLists {
    /// Reshapes to one zero-filled list of `lens[p]` items per partition.
    pub(crate) fn reset(&mut self, lens: &[u32]) {
        self.starts.clear();
        self.starts.push(0);
        let mut total = 0usize;
        for &n in lens {
            total += n as usize;
            self.starts.push(total);
        }
        self.items.clear();
        self.items.resize(total, 0);
    }

    /// Stores `item` at position `slot` of partition `p`'s list.
    pub(crate) fn set(&mut self, p: usize, slot: usize, item: u32) {
        self.items[self.starts[p]..self.starts[p + 1]][slot] = item;
    }

    /// Partition `p`'s list.
    pub(crate) fn part(&self, p: usize) -> &[u32] {
        &self.items[self.starts[p]..self.starts[p + 1]]
    }
}

/// Inverts an assignment into per-partition local-slot order: element
/// `s` of `out.part(p)` is the row stored at slot `rc + s` of partition
/// `p`'s EMT tile (`rc` = replica-block length). Cached, replicated and
/// host-tier rows are excluded — they live in the cache region / the
/// shared block / the host store.
pub(crate) fn rows_in_parts(assignment: &RowAssignment, rc: usize, out: &mut PartLists) {
    out.reset(&assignment.rows_per_part);
    for (r, (&p, &s)) in assignment
        .part_of_row
        .iter()
        .zip(assignment.slot_of_row.iter())
        .enumerate()
    {
        if p < placement::HOST_ROW_PART && s != partition::CACHED_ROW_SLOT {
            out.set(p as usize, s as usize - rc, r as u32);
        }
    }
}

/// An in-flight migration: the staged per-table placements, whose
/// tiles already sit in the inactive MRAM regions, and the modeled
/// instant the scatter completes, at which point
/// [`UpdlrmEngine::on_tick`] performs the atomic flip.
struct PendingMigration {
    done_at: Ps,
    tables: Vec<Placement>,
}

/// A tick that acts, between its two halves:
/// [`UpdlrmEngine::tick_host`] decided it, touching no DPU, and
/// [`UpdlrmEngine::tick_fleet`] completes it with the DPU side home.
pub(crate) enum Tick {
    /// Begin a migration to these placements; their tiles are not
    /// written yet.
    Begin(Vec<Placement>),
    /// Decline the replan: a refit does not fit or changes nothing.
    Decline,
    /// Flip: the staged placements are installed, and the kernels still
    /// point at the old region.
    Flip,
}

/// Replanner state, present only when
/// [`UpdlrmConfig::replan`](crate::config::UpdlrmConfig) is enabled.
pub(crate) struct DriftState {
    /// Sliding-window access profile per table, accumulated by stage 1
    /// and reset at every replan decision.
    pub(crate) window: Vec<FreqProfile>,
    /// Batches folded into the current window.
    pub(crate) batches_in_window: u64,
    /// The migration currently in flight, if any (at most one).
    pending: Option<PendingMigration>,
    /// `PendingMigration::tables`' storage between migrations: empty,
    /// capacity kept, so a replan plans into it instead of a new list.
    staged_buf: Vec<Placement>,
    /// The slot-order inverses the tile writer reads, for the table
    /// being scattered; refilled in place per table per replan.
    tile_scratch: [PartLists; 2],
    /// Telemetry snapshot taken mid-first-migration (between the
    /// scatter and the flip) — the drift-snapshot golden the CI
    /// byte-compares.
    first_snapshot: Option<Snapshot>,
}

impl DriftState {
    /// An empty window over `tables`.
    pub(crate) fn new(tables: &[EmbeddingTable]) -> DriftState {
        DriftState {
            window: tables.iter().map(|t| FreqProfile::new(t.rows())).collect(),
            batches_in_window: 0,
            pending: None,
            staged_buf: Vec::with_capacity(tables.len()),
            tile_scratch: Default::default(),
            first_snapshot: None,
        }
    }
}

impl UpdlrmEngine {
    /// Advances the replanner to modeled instant `now`: completes a
    /// migration whose staged scatter has drained (the atomic flip), or
    /// checks the replan policy against the sliding window and begins a
    /// new migration. A no-op unless
    /// [`UpdlrmConfig::replan`](crate::config::UpdlrmConfig) is
    /// enabled. Front-ends call this between batches — the scheduler's
    /// event loop and the wall runtime's shard workers tick it at every
    /// launch instant, through [`serve_step`](UpdlrmEngine::serve_step)
    /// — with `counts`, their scheduler tally so far
    /// ([`SchedSnapshot`]): the engine counts no scheduler events, so a
    /// tick that takes the mid-migration snapshot stamps them into its
    /// `sched` block.
    ///
    /// A tick that does nothing — no flip is due and no replan — may
    /// come while a [`serve_step`](UpdlrmEngine::serve_step) batch is
    /// in flight; any other needs the engine idle. `serve_step` ticks
    /// with its batch in flight itself: it splits the tick at the fleet
    /// and keeps the launch away across the half that does not touch
    /// it.
    ///
    /// # Errors
    ///
    /// Simulator faults while scattering the staged tiles. Planning
    /// failures (a placement that no longer fits the staged regions)
    /// are *not* errors: the replan is declined, counted in
    /// [`DriftSnapshot::replans_skipped`](crate::telemetry::DriftSnapshot),
    /// and the window resets. [`CoreError::Invariant`](crate::CoreError)
    /// for a tick that acts while a batch is in flight.
    pub fn on_tick(&mut self, now: Ps, counts: SchedSnapshot) -> Result<()> {
        if self.tick_acts(now) {
            self.ensure_idle("a replan tick")?;
        }
        match self.tick_host(now) {
            Some(tick) => self.tick_fleet(tick, now, &counts),
            None => Ok(()),
        }
    }

    /// The half of a tick at `now` that touches no DPU, so it runs while
    /// a launch is away: installs the staged placements of a flip that
    /// is due, or plans a due replan and consumes the window. Returns
    /// what is left for [`tick_fleet`](Self::tick_fleet), or `None` for
    /// a tick that does not act.
    pub(crate) fn tick_host(&mut self, now: Ps) -> Option<Tick> {
        let mut drift = self.drift.take()?;
        let tick = match &drift.pending {
            Some(p) if now >= p.done_at => {
                let mut staged = drift.pending.take().expect("a flip is due").tables;
                for (state, placement) in self.tables.iter_mut().zip(staged.drain(..)) {
                    state.placement = placement;
                }
                drift.staged_buf = staged;
                Some(Tick::Flip)
            }
            None if self.replan_due(&drift) => {
                let mut staged = std::mem::take(&mut drift.staged_buf);
                let go = self.plan_flips(&drift.window, &mut staged);
                // The window is consumed by the decision either way.
                for w in &mut drift.window {
                    w.clear();
                }
                drift.batches_in_window = 0;
                if go {
                    Some(Tick::Begin(staged))
                } else {
                    staged.clear();
                    drift.staged_buf = staged;
                    Some(Tick::Decline)
                }
            }
            _ => None,
        };
        self.drift = Some(drift);
        tick
    }

    /// The half of an acting tick that needs the DPU side home: writes
    /// a begun migration's tiles, or repoints the kernels at a flip's
    /// region, and records the tick.
    pub(crate) fn tick_fleet(&mut self, tick: Tick, now: Ps, counts: &SchedSnapshot) -> Result<()> {
        match tick {
            Tick::Begin(staged) => self.begin_migration(staged, now, counts)?,
            Tick::Decline => self.metrics.record_replan_skip(),
            Tick::Flip => self.complete_migration(now),
        }
        Ok(())
    }

    /// Whether [`on_tick`](Self::on_tick) at `now` would act: flip the
    /// migration in flight, or decide a replan (begin or decline one).
    /// Both touch the fleet or the placement a batch in flight was
    /// routed on.
    pub(crate) fn tick_acts(&self, now: Ps) -> bool {
        self.drift.as_ref().is_some_and(|d| match &d.pending {
            Some(p) => now >= p.done_at,
            None => self.replan_due(d),
        })
    }

    /// True while a migration's staged scatter has not yet flipped.
    pub fn migration_in_flight(&self) -> bool {
        self.drift.as_ref().is_some_and(|d| d.pending.is_some())
    }

    /// The telemetry snapshot captured mid-first-migration (after the
    /// staging scatter was charged, before the flip) — the fixed-seed
    /// golden CI byte-compares. `None` until the first migration
    /// begins, or when telemetry is off.
    pub fn drift_snapshot(&self) -> Option<&Snapshot> {
        self.drift.as_ref().and_then(|d| d.first_snapshot.as_ref())
    }

    /// Whether the policy calls for a replan on the window so far.
    fn replan_due(&self, drift: &DriftState) -> bool {
        match self.config.replan {
            ReplanPolicy::Off => false,
            ReplanPolicy::Periodic { every_batches } => drift.batches_in_window >= every_batches,
        }
    }

    /// Plan phase of a replan: every table refit by [`place`] — the
    /// build's own function — to the sliding window and the staged
    /// regions' capacities, pushed onto the (empty) `staged`. Takes
    /// `&self`: planning reads the engine and cannot mutate what
    /// serves. Returns `false` to decline the replan — a placement that
    /// cannot fit the staged regions, or one that would write the same
    /// tiles and tasks as the serving one ([`Placement::same_layout`]).
    fn plan_flips(&self, window: &[FreqProfile], staged: &mut Vec<Placement>) -> bool {
        // A refit exists because load must follow the window; a uniform
        // re-cut would reproduce the contiguous hot block behind it.
        use PartitionStrategy::{NonUniform, Uniform};
        let s = self.config.strategy;
        let strategy = if s == Uniform { NonUniform } else { s };
        let mut changed = false;
        for ((state, table), window) in self.tables.iter().zip(&self.host_tables).zip(window) {
            let capacity = (
                state.regions.emt_region_rows,
                state.regions.cache_region_rows,
            );
            let (config, tiling, lists) = (&self.config, &state.tiling, &state.lists);
            let Ok(placement) = place(config, tiling, strategy, table, window, lists, capacity)
            else {
                return false;
            };
            changed |= !placement.same_layout(&state.placement);
            staged.push(placement);
        }
        changed
    }

    /// Scatters the re-partitioned tiles of `staged`, the placements
    /// [`tick_host`](Self::tick_host) planned from the sliding window,
    /// into the inactive MRAM regions, and charges the modeled
    /// migration cost. The flip is deferred to the modeled instant the
    /// scatter completes ([`UpdlrmEngine::on_tick`]); until then serving
    /// continues on the old placement, whose regions the scatter never
    /// touches.
    fn begin_migration(
        &mut self,
        staged: Vec<Placement>,
        now: Ps,
        counts: &SchedSnapshot,
    ) -> Result<()> {
        let drift = self.drift.as_mut().expect("a replan has drift state");
        // Scatter phase: write the staged tiles into the inactive
        // regions (functionally safe — nothing serves from them) and
        // accumulate the modeled cost: one host->MRAM bulk pass over
        // every staged byte, plus the slowest DPU's DMA-engine time
        // absorbing its rows (the `charge_dma_repeat` bulk mirror).
        let inactive = self.active_emt ^ 1;
        let mut total_bytes = 0usize;
        let mut rows_moved = 0u64;
        let mut max_dpu = Cycles(0);
        let (cost, dtype) = (&self.config.cost, self.config.embed_dtype);
        let tables = self.tables.iter().zip(&staged).zip(&self.host_tables);
        for ((state, placement), table) in tables {
            let scratch = &mut drift.tile_scratch;
            let fleet = &mut self.dpu.get_mut().fleet;
            let mut dpus = split_dpus(fleet, [state])?.remove(0);
            write_tiles(&mut dpus, state, placement, table, dtype, inactive, scratch)?;
            let tiling = &state.tiling;
            // Every column slice of a partition absorbs the same
            // `n` rows of `bytes` each.
            let mut charge = |n: usize, bytes: usize| {
                rows_moved += (n * tiling.col_slices) as u64;
                total_bytes += n * bytes * tiling.col_slices;
                max_dpu = max_dpu.max(cost.bulk_rows_dma_cycles(bytes, n as u64));
            };
            for p in 0..tiling.row_parts {
                charge(
                    placement.replicas.len() + placement.assignment.rows_per_part[p] as usize,
                    dtype.stored_row_bytes(tiling.n_c),
                );
                if let Some(cache) = &placement.cache {
                    charge(cache.cache_rows_per_part[p] as usize, tiling.row_bytes());
                }
            }
        }
        // The bulk transfer phase and the slowest DPU's absorption, each
        // rounded to ps once, as a launch and a transfer are.
        let migration = Ps::from_ns(cost.host_to_mram_ns(total_bytes) + cost.host_transfer_base_ns)
            + max_dpu.to_ps(cost.clock_hz);
        self.metrics
            .record_replan_begin(rows_moved, total_bytes as u64, migration);
        // The mid-migration golden: counters show the replan charged
        // but not yet flipped, and the front-end's run so far.
        if self.config.telemetry && drift.first_snapshot.is_none() {
            let mut snap = self.metrics.snapshot();
            snap.sched.merge(counts);
            drift.first_snapshot = Some(snap);
        }
        drift.pending = Some(PendingMigration {
            done_at: now + migration,
            tables: staged,
        });
        Ok(())
    }

    /// The atomic flip's fleet half, after [`tick_host`](Self::tick_host)
    /// installed every table's staged placement: swaps the serving
    /// region and repoints every kernel task's EMT/cache bases at the
    /// freshly scattered one. Between two batches this is instantaneous
    /// in modeled time; the migration's cost was charged when the
    /// scatter was staged.
    fn complete_migration(&mut self, now: Ps) {
        self.active_emt ^= 1;
        // A new generation: what a DPU's WRAM holds is a copy of the
        // region that stopped serving, so every resident block refills
        // (and is charged for it) on its DPU's next launch.
        self.resident_epoch += 1;
        let (active, epoch) = (self.active_emt, self.resident_epoch);
        for g in &mut self.dpu.get_mut().launch_groups {
            let state = &self.tables[g.table];
            for p in (0..state.tiling.row_parts).filter(|&p| state.locs[p].0 == g.rank) {
                for c in 0..state.tiling.col_slices {
                    for kernel in &mut g.kernels {
                        let task = kernel.task_mut(state.dpu(p, c).1).expect(
                            "every partition's DPUs are registered with its rank's kernels",
                        );
                        task.emt_base = state.regions.emt_bases[active];
                        task.cache_base = state.regions.cache_bases[active];
                        task.resident = state.placement.resident[p].rows(epoch);
                    }
                }
            }
        }
        self.metrics.record_migration_flip(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::UpdlrmConfig;
    use crate::engine::build::{compute_regions, RegionSpec};
    use crate::partition::PartitionStrategy;
    use crate::place::{place, Placement};
    use crate::tiling::Tiling;
    use cooccur_cache::{CacheList, CacheListSet};
    use dlrm_model::EmbeddingTable;
    use proptest::prelude::*;

    #[test]
    fn policy_strings_round_trip() {
        for p in [
            ReplanPolicy::Off,
            ReplanPolicy::Periodic { every_batches: 12 },
        ] {
            let parsed: ReplanPolicy = p.as_string().parse().expect("round trip");
            assert_eq!(parsed, p);
            assert_eq!(format!("{p}"), p.as_string());
        }
        for bad in ["on", "periodic:0", "periodic:x"] {
            assert!(bad.parse::<ReplanPolicy>().is_err(), "{bad} must not parse");
        }
        assert!(!ReplanPolicy::Off.enabled());
        assert!(ReplanPolicy::Periodic { every_batches: 1 }.enabled());
    }

    fn profile_from_counts(counts: &[u32]) -> FreqProfile {
        let mut p = FreqProfile::new(counts.len());
        for (i, &c) in counts.iter().enumerate() {
            for _ in 0..c {
                p.record(i as u64);
            }
        }
        p
    }

    /// Places a table of `profile.num_items()` rows over `parts`
    /// partitions with [`place`], the function that builds and refits
    /// every table of an engine.
    fn place_rows(
        strategy: PartitionStrategy,
        parts: usize,
        replicate_top: usize,
        profile: &FreqProfile,
        lists: &CacheListSet,
        capacity: (usize, usize),
    ) -> Placement {
        let rows = profile.num_items();
        let mut config = UpdlrmConfig::with_dpus(parts, strategy);
        config.replicate_top = replicate_top;
        let tiling = Tiling {
            n_c: 8,
            col_slices: 1,
            row_parts: parts,
            n_r: rows.div_ceil(parts),
            est_cost_ns: 0.0,
        };
        let table = EmbeddingTable::random(rows, 8, 0.1, rows as u64).unwrap();
        place(&config, &tiling, strategy, &table, profile, lists, capacity).unwrap()
    }

    /// Checks the migration row-placement invariant on one assignment:
    /// every row is placed exactly once — in the shared replica block,
    /// in exactly one partition's local slots (dense, non-overlapping),
    /// or in the cache — and `rows_in_parts` inverts it consistently.
    fn assert_rows_placed_exactly_once(a: &RowAssignment, replicas: &[u32]) {
        let rows = a.part_of_row.len();
        let rc = replicas.len();
        let parts = a.num_parts();
        let mut placed = vec![0u32; rows];
        for (slot, &r) in replicas.iter().enumerate() {
            assert_eq!(a.part_of_row[r as usize], partition::REPLICATED_ROW_PART);
            assert_eq!(a.slot_of_row[r as usize], slot as u32);
            placed[r as usize] += 1;
        }
        let mut local = PartLists::default();
        rows_in_parts(a, rc, &mut local);
        for p in 0..parts {
            let rows_p = local.part(p);
            assert_eq!(rows_p.len(), a.rows_per_part[p] as usize);
            for (s, &r) in rows_p.iter().enumerate() {
                assert_eq!(a.part_of_row[r as usize] as usize, p);
                assert_eq!(a.slot_of_row[r as usize] as usize, rc + s);
                placed[r as usize] += 1;
            }
        }
        for (r, &n) in placed.iter().enumerate() {
            let cached = a.slot_of_row[r] == partition::CACHED_ROW_SLOT;
            assert_eq!(
                n,
                u32::from(!cached),
                "row {r} placed {n} times (cached: {cached})"
            );
        }
    }

    proptest! {
        /// Every placement puts every row exactly once, for all four
        /// strategies (every one a refit can run), arbitrary shapes and
        /// windows; a cache-aware one also gives every combination of
        /// its lists exactly one cache slot.
        #[test]
        fn planned_assignments_place_every_row_exactly_once(
            rows in 1usize..200,
            parts in 1usize..9,
            replicate_top in 0usize..32,
            seed in 0u64..1000,
        ) {
            let mut counts = vec![0u32; rows];
            let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
            for c in counts.iter_mut() {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                *c = (x >> 33) as u32 % 17;
            }
            let profile = profile_from_counts(&counts);
            // Disjoint lists of 2..=4 consecutive rows, as many as fit
            // (up to six); every one fits the cache capacity below.
            let mut lists = CacheListSet::default();
            let (mut start, mut lens) = (0usize, seed);
            while lists.lists.len() < 6 {
                let len = 2 + (lens % 3) as usize;
                lens /= 3;
                if start + len > rows {
                    break;
                }
                let items = (start..start + len).map(|r| r as u64).collect();
                lists.lists.push(CacheList { items, benefit: len as f64 });
                start += len + 1;
            }
            let capacity = (rows + replicate_top, 6 * 15); // always feasible
            for strategy in [
                PartitionStrategy::Uniform,
                PartitionStrategy::NonUniform,
                PartitionStrategy::Replicated,
                PartitionStrategy::CacheAware,
            ] {
                let placed = place_rows(strategy, parts, replicate_top, &profile, &lists, capacity);
                let (a, replicas) = (&placed.assignment, &placed.replicas);
                if strategy == PartitionStrategy::Replicated {
                    prop_assert_eq!(replicas.len(), replicate_top.min(rows));
                } else {
                    prop_assert!(replicas.is_empty());
                }
                assert_rows_placed_exactly_once(a, replicas);
                prop_assert_eq!(placed.resident.len(), parts);
                let Some(cache) = &placed.cache else {
                    prop_assert!(strategy != PartitionStrategy::CacheAware);
                    continue;
                };
                // The cached rows are exactly the lists' items ...
                let cached: Vec<u64> = (0..rows as u64)
                    .filter(|&r| a.slot_of_row[r as usize] == partition::CACHED_ROW_SLOT)
                    .collect();
                let items: Vec<u64> =
                    lists.lists.iter().flat_map(|l| l.items.iter().copied()).collect();
                prop_assert_eq!(cached, items);
                // ... and each store entry sits in exactly one slot.
                prop_assert_eq!(cache.entry_route.len(), cache.store.num_entries());
                let mut entries = PartLists::default();
                cache.entries_in_parts(&mut entries);
                let mut seen = vec![0u32; cache.entry_route.len()];
                for p in 0..parts {
                    prop_assert_eq!(entries.part(p).len(), cache.cache_rows_per_part[p] as usize);
                    for &e in entries.part(p) {
                        seen[e as usize] += 1;
                    }
                }
                prop_assert!(seen.iter().all(|&n| n == 1), "slots per entry: {:?}", seen);
            }
        }

        /// The double-buffered MRAM regions never overlap: the staging
        /// EMT/cache regions (slot B) are disjoint from the serving
        /// regions (slot A) and from every per-batch staging slot, so a
        /// migration scatter can never corrupt what slot A is serving.
        #[test]
        fn migration_regions_are_pairwise_disjoint(
            emt_rows_max in 1usize..5000,
            emt_row_bytes in (0usize..5).prop_map(|i| [8usize, 16, 64, 132, 256][i]),
            cache_rows_max in 0usize..300,
            extra_cache_cap in 0usize..300,
            row_bytes in (0usize..3).prop_map(|i| [8usize, 64, 256][i]),
            input_reserve in (0usize..2).prop_map(|i| [1024usize, 65536][i]),
            output_bytes in (0usize..2).prop_map(|i| [1024usize, 32768][i]),
        ) {
            let cache_cap_rows = cache_rows_max + extra_cache_cap;
            let emt_cap_rows = emt_rows_max * 4;
            let r = compute_regions(&RegionSpec {
                replan: true,
                emt_rows_max,
                emt_cap_rows,
                emt_row_bytes,
                cache_rows_max,
                cache_cap_rows,
                row_bytes,
                input_reserve_bytes: input_reserve,
                output_bytes,
            }).unwrap();
            // The plan capacity never shrinks below the live footprint.
            prop_assert!(r.emt_region_rows >= emt_rows_max);
            prop_assert!(r.cache_region_rows >= cache_rows_max);
            // Both EMT regions are real, distinct regions.
            prop_assert!(r.emt_bases[1] > r.emt_bases[0]);
            let emt_bytes = r.emt_region_rows * emt_row_bytes;
            let cache_bytes = r.cache_region_rows * row_bytes;
            let mut regions = vec![
                (r.emt_bases[0] as usize, emt_bytes, "emt A"),
                (r.emt_bases[1] as usize, emt_bytes, "emt B"),
            ];
            if cache_bytes > 0 {
                prop_assert!(r.cache_bases[1] > r.cache_bases[0]);
                regions.push((r.cache_bases[0] as usize, cache_bytes, "cache A"));
                regions.push((r.cache_bases[1] as usize, cache_bytes, "cache B"));
            }
            for (i, &(input, output)) in r.slots.iter().enumerate() {
                regions.push((input as usize, input_reserve, if i == 0 { "in 0" } else { "in 1" }));
                regions.push((output as usize, output_bytes, if i == 0 { "out 0" } else { "out 1" }));
            }
            for (base, _, name) in &regions {
                prop_assert_eq!(base % 8, 0, "{} base {} unaligned", name, base);
            }
            for i in 0..regions.len() {
                for j in i + 1..regions.len() {
                    let (a, al, an) = regions[i];
                    let (b, bl, bn) = regions[j];
                    let disjoint = a + al <= b || b + bl <= a;
                    prop_assert!(disjoint, "{} [{},{}) overlaps {} [{},{})",
                        an, a, a + al, bn, b, b + bl);
                }
            }
        }
    }
}
