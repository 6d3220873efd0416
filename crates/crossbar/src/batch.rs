//! Multi-problem batching: several instances' coupling blocks packed onto
//! one physical tile grid.
//!
//! An in-situ incremental read activates only the `t` stripes holding the
//! flipped column groups (× the driven row bands) — on a grid sized for
//! one instance, everything else idles. [`BatchedTiledCrossbar`] exploits
//! that slack the way scaled in-memory annealers do: instance `i`'s tiles
//! occupy their own stripe span of a shared grid, so while instance A
//! converts on its stripes' ADC banks, instances B and C convert on
//! theirs *in the same grid cycle*. The placement is block-diagonal along
//! the stripe axis: no two instances share a stripe, hence no two share
//! an ADC bank, row segment, or back-gate plane — reads of distinct
//! instances are physically concurrent and numerically independent.
//!
//! Consequences the tests pin down:
//!
//! * **Exact equivalence** — each instance's block behaves exactly like a
//!   standalone [`TiledCrossbar`] over the same coupling; in
//!   [`Fidelity::Ideal`](crate::Fidelity::Ideal) mode a batched read is
//!   bit-identical to the per-instance one-tile array read.
//! * **Determinism** — instances are independent sub-arrays with their
//!   own seeds and noise streams, so results do not depend on which
//!   thread drives which instance, or in what order. In device-accurate
//!   mode each instance draws its variation maps from a seed derived
//!   from the config seed and its batch index (distinct replicas see
//!   distinct silicon).
//! * **Attribution** — activity is recorded per instance (each block
//!   keeps its own [`ActivityStats`]), so hardware energy is attributable
//!   to the instance that caused it, while [`BatchStats`] tracks
//!   grid-level sharing (reads per batch, activated tiles vs. tiles
//!   available).
//!
//! Concurrency comes from the solvers, not the grid: the grid goes behind
//! a mutex ([`BatchedTiledCrossbar::into_shared`]), one replica per
//! thread drives its own instance through a [`BatchInstance`] handle (as
//! `fecim_anneal::Ensemble::run_batched` hands out), and each handle
//! implements [`InSituArray`]. Simulator access is serialized per read
//! while the modeled hardware timing stays concurrent (disjoint banks).
//!
//! ## Live grids: per-instance lifecycle
//!
//! Fixed cohorts ([`BatchedTiledCrossbar::replicate`] + run them all)
//! are only half the story: a production queue wants to admit *new*
//! problems onto the grid as earlier replicas finish. Two methods turn
//! the batched grid into a live one:
//!
//! * [`BatchedTiledCrossbar::try_admit_instance`] places a coupling into
//!   the first freed stripe span that fits (first-fit, splitting wider
//!   spans), extending the grid's tail only while a stripe capacity
//!   allows it;
//! * [`BatchedTiledCrossbar::retire_instance`] frees an instance's
//!   stripe span back to the pool (coalescing adjacent free spans, and
//!   returning trailing stripes to the tail), so queued work can take
//!   its place.
//!
//! Retired slot *indices* are recycled too; because per-instance
//! variation seeds derive from the slot index, a new tenant admitted
//! into a recycled slot sees the same simulated silicon its predecessor
//! did — which is exactly what re-programming the same physical tiles
//! would do. In [`Fidelity::Ideal`](crate::Fidelity::Ideal) mode reads
//! are placement-independent, so live-grid scheduling cannot change
//! results. For device-accurate live grids,
//! [`BatchedTiledCrossbar::reseed_instance_for_trial`] re-programs an
//! admitted instance's stochastic state from the *trial's* seed (the
//! write-verify pass a new tenant would get), making results
//! placement- and admission-order-independent in every fidelity.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use fecim_ising::Coupling;

use crate::array::{CrossbarConfig, InSituArray};
use crate::stats::ActivityStats;
use crate::tiled::TiledCrossbar;

/// Deterministic per-instance seed: splitmix64 finalizer over the config
/// seed and the batch slot, so replicas of the same coupling still draw
/// independent variation maps (distinct physical tiles host them).
fn instance_seed(base: u64, index: usize) -> u64 {
    crate::tiled::splitmix64_finalize(base ^ ((index as u64) << 17) ^ 0xD1B5_4A32_D192_ED03)
}

/// Deterministic per-trial silicon seed: splitmix64 finalizer over the
/// grid's base config seed and the trial's own seed, so a reseeded
/// instance's variation maps and noise stream depend on *which trial*
/// runs, never on which slot or stripe span hosts it (see
/// [`BatchedTiledCrossbar::reseed_instance_for_trial`]).
fn trial_silicon_seed(base: u64, trial_seed: u64) -> u64 {
    crate::tiled::splitmix64_finalize(base ^ trial_seed.rotate_left(21) ^ 0x7C15_9E37_D192_4A32)
}

/// One instance's block on the shared grid.
#[derive(Debug, Clone)]
struct InstanceSlot {
    array: TiledCrossbar,
    /// First grid stripe owned by this instance (placement record; the
    /// block-diagonal layout guarantees spans never overlap).
    stripe_offset: usize,
    /// Stripes the instance occupies (freed back to the pool on retire).
    stripes: usize,
}

/// Grid-level sharing counters of a [`BatchedTiledCrossbar`].
///
/// Per-instance activity lives in each instance's own [`ActivityStats`]
/// ([`BatchedTiledCrossbar::instance_stats`]); this struct only measures
/// how well concurrent instances fill the shared grid.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Grid cycles issued: one per instance read.
    pub grid_cycles: u64,
    /// Individual reads executed across all cycles.
    pub reads: u64,
    /// Tiles activated across all cycles (sum over instances).
    pub tiles_activated: u64,
    /// Tile slots offered: physical tiles × grid cycles.
    pub tile_slots_offered: u64,
    /// Largest number of distinct instances served by one grid cycle
    /// (each cycle serves one instance's read, so 1 once a read ran).
    pub peak_concurrent_instances: usize,
}

impl BatchStats {
    /// Fraction of offered tile slots that actually activated — the
    /// throughput headroom argument: a lone instance leaves this low,
    /// batching raises it toward 1.
    pub fn grid_utilization(&self) -> f64 {
        if self.tile_slots_offered == 0 {
            return 0.0;
        }
        self.tiles_activated as f64 / self.tile_slots_offered as f64
    }

    fn reset(&mut self) {
        *self = BatchStats::default();
    }
}

/// Several problem instances sharing one physical tile grid.
///
/// See the module docs for the placement and concurrency model. Build
/// with [`BatchedTiledCrossbar::new`] + [`try_admit_instance`]
/// (heterogeneous problems) or [`replicate`] (an ensemble of one
/// problem), then read per instance.
///
/// [`try_admit_instance`]: BatchedTiledCrossbar::try_admit_instance
/// [`replicate`]: BatchedTiledCrossbar::replicate
#[derive(Debug, Clone)]
pub struct BatchedTiledCrossbar {
    config: CrossbarConfig,
    tile_rows: usize,
    /// Instance slots; `None` marks a retired slot whose index (and
    /// stripe span) is free for the next admission.
    slots: Vec<Option<InstanceSlot>>,
    /// Stripes of the shared grid (sum of instance stripe spans and
    /// interior free spans).
    total_stripes: usize,
    /// Row bands of the shared grid (worst instance, high-water).
    max_bands: usize,
    /// Freed interior stripe spans `(offset, width)`, sorted by offset
    /// and coalesced.
    free_spans: Vec<(usize, usize)>,
    /// Retired slot indices available for reuse.
    free_slots: Vec<usize>,
    /// Lifetime admissions.
    admitted: u64,
    /// Lifetime retirements.
    retired: u64,
    batch: BatchStats,
}

impl BatchedTiledCrossbar {
    /// An empty grid that will place every admitted instance on
    /// `tile_rows`-row tiles.
    ///
    /// # Panics
    ///
    /// Panics if `tile_rows == 0`.
    pub fn new(config: CrossbarConfig, tile_rows: usize) -> BatchedTiledCrossbar {
        assert!(tile_rows > 0, "tile_rows must be positive");
        BatchedTiledCrossbar {
            config,
            tile_rows,
            slots: Vec::new(),
            total_stripes: 0,
            max_bands: 0,
            free_spans: Vec::new(),
            free_slots: Vec::new(),
            admitted: 0,
            retired: 0,
            batch: BatchStats::default(),
        }
    }

    /// Admit `coupling` onto the grid if it fits within `stripe_limit`
    /// total stripes: freed spans are reused first-fit (wider spans are
    /// split), and the grid's tail extends only while the capacity
    /// allows. Returns the new instance's index, or `None` when the
    /// instance does not fit *right now* (retiring instances frees
    /// capacity; an instance needing more than `stripe_limit` stripes
    /// will never fit — see [`BatchedTiledCrossbar::stripes_needed`]).
    ///
    /// Retired slot indices are recycled; the admitted instance draws
    /// its variation maps from the recycled slot's seed (same simulated
    /// silicon as its predecessor — the physical-tile view of slot
    /// reuse).
    ///
    /// # Panics
    ///
    /// Panics if the coupling is empty (forwarded from
    /// [`TiledCrossbar::program`]).
    pub fn try_admit_instance<C: Coupling>(
        &mut self,
        coupling: &C,
        stripe_limit: usize,
    ) -> Option<usize> {
        let needed = self.stripes_needed(coupling.dimension());
        let offset = if let Some(pos) = self.free_spans.iter().position(|&(_, w)| w >= needed) {
            let (off, width) = self.free_spans[pos];
            if width == needed {
                self.free_spans.remove(pos);
            } else {
                self.free_spans[pos] = (off + needed, width - needed);
            }
            off
        } else if needed <= stripe_limit.saturating_sub(self.total_stripes) {
            let off = self.total_stripes;
            self.total_stripes += needed;
            off
        } else {
            return None;
        };
        let index = self.free_slots.pop().unwrap_or(self.slots.len());
        let mut config = self.config.clone();
        config.seed = instance_seed(self.config.seed, index);
        let array = TiledCrossbar::program(coupling, config, self.tile_rows);
        let (bands, stripes) = array.tile_grid();
        debug_assert_eq!(stripes, needed, "admission sizing must match programming");
        self.max_bands = self.max_bands.max(bands);
        let slot = InstanceSlot {
            array,
            stripe_offset: offset,
            stripes,
        };
        if index == self.slots.len() {
            self.slots.push(Some(slot));
        } else {
            self.slots[index] = Some(slot);
        }
        self.admitted += 1;
        Some(index)
    }

    /// Retire an instance: its stripe span returns to the free pool
    /// (coalescing with adjacent free spans; trailing spans shrink the
    /// grid's tail) and its slot index becomes reusable by the next
    /// admission.
    ///
    /// Outstanding [`BatchInstance`] handles onto the retired instance
    /// must not read anymore — reads panic, like any other access to a
    /// retired instance.
    ///
    /// # Panics
    ///
    /// Panics if `instance` is out of range or already retired.
    pub fn retire_instance(&mut self, instance: usize) {
        let slot = match self.slots.get_mut(instance) {
            // audit:allow(panic-path): the guard pattern just matched Some, so take() cannot observe None
            Some(slot @ Some(_)) => slot.take().expect("matched Some"),
            // audit:allow(panic-path): documented `# Panics` contract — retiring an out-of-range or already-retired instance is caller misuse that must abort
            _ => panic!(
                "instance {instance} is retired or out of range for {} slots",
                self.slots.len()
            ),
        };
        self.free_slots.push(instance);
        self.retired += 1;
        let span = (slot.stripe_offset, slot.stripes);
        let pos = self.free_spans.partition_point(|&(off, _)| off < span.0);
        self.free_spans.insert(pos, span);
        // Coalesce with the right neighbor, then the left.
        if pos + 1 < self.free_spans.len()
            && self.free_spans[pos].0 + self.free_spans[pos].1 == self.free_spans[pos + 1].0
        {
            self.free_spans[pos].1 += self.free_spans[pos + 1].1;
            self.free_spans.remove(pos + 1);
        }
        if pos > 0
            && self.free_spans[pos - 1].0 + self.free_spans[pos - 1].1 == self.free_spans[pos].0
        {
            self.free_spans[pos - 1].1 += self.free_spans[pos].1;
            self.free_spans.remove(pos);
        }
        // A free span ending at the tail hands its stripes back.
        if let Some(&(off, width)) = self.free_spans.last() {
            if off + width == self.total_stripes {
                self.total_stripes = off;
                self.free_spans.pop();
            }
        }
    }

    /// Stripes an instance of `dimension` spins would occupy on this
    /// grid (its tiled mapping is square: `ceil(n / tile_rows)` stripes).
    pub fn stripes_needed(&self, dimension: usize) -> usize {
        dimension.div_ceil(self.tile_rows)
    }

    /// Whether `instance` currently occupies the grid (admitted and not
    /// retired). Out-of-range indices are simply not live.
    pub fn is_live(&self, instance: usize) -> bool {
        matches!(self.slots.get(instance), Some(Some(_)))
    }

    /// Instances currently occupying the grid.
    pub fn live_instances(&self) -> usize {
        self.slots.iter().flatten().count()
    }

    /// Stripes currently occupied by live instances.
    pub fn stripes_in_use(&self) -> usize {
        self.total_stripes - self.free_spans.iter().map(|&(_, w)| w).sum::<usize>()
    }

    /// Lifetime admissions ([`try_admit_instance`](Self::try_admit_instance),
    /// including [`replicate`](Self::replicate)'s).
    pub fn admissions(&self) -> u64 {
        self.admitted
    }

    /// Lifetime retirements.
    pub fn retirements(&self) -> u64 {
        self.retired
    }

    /// A grid holding `count` replicas of one coupling — the ensemble
    /// sharing layout.
    ///
    /// # Panics
    ///
    /// Panics if `count == 0`, `tile_rows == 0`, or the coupling is empty.
    pub fn replicate<C: Coupling>(
        coupling: &C,
        count: usize,
        config: CrossbarConfig,
        tile_rows: usize,
    ) -> BatchedTiledCrossbar {
        assert!(count > 0, "need at least one instance");
        let mut grid = BatchedTiledCrossbar::new(config, tile_rows);
        for _ in 0..count {
            grid.try_admit_instance(coupling, usize::MAX)
                // audit:allow(panic-path): with a usize::MAX stripe limit admission cannot run out of stripes; an empty coupling panics inside programming — the documented `# Panics` contract above
                .expect("an unbounded grid always admits");
        }
        grid
    }

    /// Number of instance slots ever allocated (live **and** retired —
    /// retired slot indices stay addressable until an admission recycles
    /// them). Equals the live count on grids that never retire;
    /// see [`BatchedTiledCrossbar::live_instances`] for the occupancy
    /// count.
    pub fn instance_count(&self) -> usize {
        self.slots.len()
    }

    /// The physical tile height shared by every instance.
    pub fn tile_rows(&self) -> usize {
        self.tile_rows
    }

    /// Shared-grid dimensions as `(row_bands, column_stripes)`.
    pub fn grid(&self) -> (usize, usize) {
        (self.max_bands, self.total_stripes)
    }

    /// Physical tiles the shared grid instantiates (its bounding
    /// rectangle; short instances leave their tall columns partly empty).
    pub fn physical_tiles(&self) -> usize {
        self.max_bands * self.total_stripes
    }

    /// First grid stripe owned by `instance`.
    ///
    /// # Panics
    ///
    /// Panics if `instance` is out of range.
    pub fn stripe_offset(&self, instance: usize) -> usize {
        self.slot(instance).stripe_offset
    }

    /// The instance's underlying tiled array (configuration, tile grid).
    ///
    /// # Panics
    ///
    /// Panics if `instance` is out of range.
    pub fn instance(&self, instance: usize) -> &TiledCrossbar {
        &self.slot(instance).array
    }

    /// Activity attributed to one instance.
    ///
    /// # Panics
    ///
    /// Panics if `instance` is out of range.
    pub fn instance_stats(&self, instance: usize) -> &ActivityStats {
        self.slot(instance).array.stats()
    }

    /// Grid-level sharing counters.
    pub fn batch_stats(&self) -> &BatchStats {
        &self.batch
    }

    /// Clear per-instance and grid-level counters (admission/retirement
    /// lifetime counters keep running).
    pub fn reset_stats(&mut self) {
        for slot in self.slots.iter_mut().flatten() {
            slot.array.reset_stats();
        }
        self.batch.reset();
    }

    /// Clear one instance's counters (grid-level counters keep running).
    ///
    /// # Panics
    ///
    /// Panics if `instance` is out of range.
    pub fn reset_instance_stats(&mut self, instance: usize) {
        self.slot_mut(instance).array.reset_stats();
    }

    /// Re-program `instance`'s stochastic state (variation maps, noise
    /// key, read ordinal) from `trial_seed` — the write-verify pass a
    /// new tenant's trial gets. The derived silicon seed mixes the
    /// grid's *base* config seed with the trial seed and nothing else,
    /// so device-accurate results depend on which trial runs, never on
    /// which slot, stripe span, or admission order hosted it.
    ///
    /// With all-zero variation this is a no-op: ideal silicon is
    /// seed-independent, and skipping the redraw keeps Ideal-fidelity
    /// trials free of per-trial programming cost.
    ///
    /// # Panics
    ///
    /// Panics if `instance` is out of range or retired.
    pub fn reseed_instance_for_trial(&mut self, instance: usize, trial_seed: u64) {
        if self.config.variation.is_ideal() {
            return;
        }
        let seed = trial_silicon_seed(self.config.seed, trial_seed);
        self.slot_mut(instance).array.reseed(seed);
    }

    /// In-situ incremental read of one instance's block (see
    /// [`TiledCrossbar::incremental_form`]); the rest of the grid idles
    /// for the cycle.
    ///
    /// # Panics
    ///
    /// Panics if `instance` is out of range or the vector lengths differ
    /// from that instance's dimension.
    pub fn incremental_form(
        &mut self,
        instance: usize,
        sigma_r: &[i8],
        sigma_c: &[i8],
        factor: f64,
    ) -> f64 {
        self.read(instance, |array| {
            array.incremental_form(sigma_r, sigma_c, factor)
        })
    }

    /// Direct VMV read of one instance's block (see
    /// [`TiledCrossbar::vmv`]); the rest of the grid idles for the cycle.
    ///
    /// # Panics
    ///
    /// Panics if `instance` is out of range or `sigma` has the wrong
    /// length.
    pub fn vmv(&mut self, instance: usize, sigma: &[i8]) -> f64 {
        self.read(instance, |array| array.vmv(sigma))
    }

    /// Full matrix-vector read of one instance's block (see
    /// [`TiledCrossbar::mvm`]); the rest of the grid idles for the
    /// cycle.
    ///
    /// # Panics
    ///
    /// Panics if `instance` is out of range or `sigma` has the wrong
    /// length.
    pub fn mvm(&mut self, instance: usize, sigma: &[i8]) -> Vec<f64> {
        self.read(instance, |array| array.mvm(sigma))
    }

    /// Move the grid behind a shared handle for concurrently running
    /// drivers, each holding its own [`BatchInstance`].
    pub fn into_shared(self) -> Arc<Mutex<BatchedTiledCrossbar>> {
        Arc::new(Mutex::new(self))
    }

    /// One grid cycle: `sense` reads `instance`'s block while the rest of
    /// the grid idles.
    fn read<T>(&mut self, instance: usize, sense: impl FnOnce(&mut TiledCrossbar) -> T) -> T {
        let array = &mut self.slot_mut(instance).array;
        let before = array.stats().tiles_activated;
        let value = sense(array);
        let activated = array.stats().tiles_activated - before;
        self.batch.grid_cycles += 1;
        self.batch.reads += 1;
        self.batch.tiles_activated += activated;
        self.batch.tile_slots_offered += self.physical_tiles() as u64;
        self.batch.peak_concurrent_instances = 1;
        value
    }

    fn slot(&self, instance: usize) -> &InstanceSlot {
        match self.slots.get(instance) {
            Some(Some(slot)) => slot,
            // audit:allow(panic-path): reads on a retired instance are a documented-panic API misuse (see `retire_instance`); aborting beats returning stale state
            Some(None) => panic!("instance {instance} is retired"),
            // audit:allow(panic-path): same documented out-of-range misuse contract as the arm above
            None => panic!(
                "instance {instance} out of range for {} instances",
                self.slots.len()
            ),
        }
    }

    fn slot_mut(&mut self, instance: usize) -> &mut InstanceSlot {
        let count = self.slots.len();
        match self.slots.get_mut(instance) {
            Some(Some(slot)) => slot,
            // audit:allow(panic-path): reads on a retired instance are a documented-panic API misuse (see `retire_instance`); aborting beats returning stale state
            Some(None) => panic!("instance {instance} is retired"),
            // audit:allow(panic-path): same documented out-of-range misuse contract as the arm above
            None => panic!("instance {instance} out of range for {count} instances"),
        }
    }
}

/// Recover the guard even from a poisoned mutex: the grid is plain data,
/// so a panicking peer cannot leave it logically torn mid-read (every
/// read completes or unwinds before the guard drops), and propagating the
/// poison would turn one failed replica into a panic in every other.
fn lock_shared(shared: &Arc<Mutex<BatchedTiledCrossbar>>) -> MutexGuard<'_, BatchedTiledCrossbar> {
    shared.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A per-instance handle onto a shared [`BatchedTiledCrossbar`]: looks
/// like an exclusive [`InSituArray`], so a device-in-the-loop solver can
/// drive its replica while sibling replicas share the same grid from
/// other threads.
///
/// Simulator access is serialized through the grid's mutex per read; the
/// modeled hardware cost is not (instances convert on disjoint ADC
/// banks). Each handle caches its instance's [`ActivityStats`] after
/// every read so `stats()` can hand out a reference without holding the
/// lock.
#[derive(Debug, Clone)]
pub struct BatchInstance {
    shared: Arc<Mutex<BatchedTiledCrossbar>>,
    index: usize,
    dimension: usize,
    stats: ActivityStats,
}

impl BatchInstance {
    /// Handle onto instance `index` of `shared`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range for the grid.
    pub fn new(shared: Arc<Mutex<BatchedTiledCrossbar>>, index: usize) -> BatchInstance {
        let (dimension, stats) = {
            let grid = lock_shared(&shared);
            let array = grid.instance(index);
            (array.dimension(), *array.stats())
        };
        BatchInstance {
            shared,
            index,
            dimension,
            stats,
        }
    }

    /// Which instance of the shared grid this handle drives.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Re-program this handle's instance for a trial (see
    /// [`BatchedTiledCrossbar::reseed_instance_for_trial`]): call before
    /// the trial's first read so device-accurate results are invariant
    /// to slot placement, admission order, and worker count.
    pub fn reseed_for_trial(&mut self, trial_seed: u64) {
        lock_shared(&self.shared).reseed_instance_for_trial(self.index, trial_seed);
    }

    /// One read under the grid lock, refreshing the cached stats.
    fn read<T>(&mut self, sense: impl FnOnce(&mut BatchedTiledCrossbar, usize) -> T) -> T {
        let mut grid = lock_shared(&self.shared);
        let value = sense(&mut grid, self.index);
        self.stats = *grid.instance_stats(self.index);
        value
    }
}

impl InSituArray for BatchInstance {
    fn dimension(&self) -> usize {
        self.dimension
    }

    fn incremental_form(&mut self, sigma_r: &[i8], sigma_c: &[i8], factor: f64) -> f64 {
        self.read(|grid, index| grid.incremental_form(index, sigma_r, sigma_c, factor))
    }

    fn vmv(&mut self, sigma: &[i8]) -> f64 {
        self.read(|grid, index| grid.vmv(index, sigma))
    }

    fn mvm(&mut self, sigma: &[i8]) -> Vec<f64> {
        self.read(|grid, index| grid.mvm(index, sigma))
    }

    fn stats(&self) -> &ActivityStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        lock_shared(&self.shared).reset_instance_stats(self.index);
        self.stats.reset();
    }

    fn cell_factor(&self, vbg: f64) -> f64 {
        lock_shared(&self.shared)
            .instance(self.index)
            .cell_factor(vbg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::Fidelity;
    use fecim_device::VariationConfig;
    use fecim_ising::{DenseCoupling, FlipMask, SpinVector};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn dense(n: usize, seed: u64) -> DenseCoupling {
        let mut rng = StdRng::seed_from_u64(seed);
        DenseCoupling::random(n, 0.4, 1.0, &mut rng)
    }

    fn config() -> CrossbarConfig {
        CrossbarConfig::paper_defaults()
    }

    #[test]
    fn batched_reads_match_per_instance_monolithic_reads() {
        let n = 20;
        let problems = [dense(n, 1), dense(n, 2), dense(n, 3)];
        let mut grid = BatchedTiledCrossbar::new(config(), 7);
        for p in &problems {
            grid.try_admit_instance(p, usize::MAX).unwrap();
        }
        let mut rng = StdRng::seed_from_u64(4);
        for (i, p) in problems.iter().enumerate() {
            let spins = SpinVector::random(n, &mut rng);
            let mask = FlipMask::random(2, n, &mut rng);
            let flipped = spins.flipped_by(&mask);
            let rest = flipped.rest_vector(&mask);
            let changed = flipped.changed_vector(&mask);
            let mut mono = TiledCrossbar::program(p, config(), n);
            let expected = mono.incremental_form(&rest, &changed, 0.7);
            assert_eq!(
                grid.incremental_form(i, &rest, &changed, 0.7),
                expected,
                "instance {i}"
            );
        }
        assert_eq!(grid.batch_stats().grid_cycles, 3);
        assert_eq!(grid.batch_stats().reads, 3);
        assert_eq!(grid.batch_stats().peak_concurrent_instances, 1);
    }

    #[test]
    fn placement_is_block_diagonal_along_stripes() {
        let p20 = dense(20, 6);
        let p9 = dense(9, 7);
        let mut grid = BatchedTiledCrossbar::new(config(), 5);
        grid.try_admit_instance(&p20, usize::MAX).unwrap(); // 4 stripes × 4 bands
        grid.try_admit_instance(&p9, usize::MAX).unwrap(); // 2 stripes × 2 bands
        assert_eq!(grid.instance_count(), 2);
        assert_eq!(grid.stripe_offset(0), 0);
        assert_eq!(grid.stripe_offset(1), 4);
        assert_eq!(grid.grid(), (4, 6));
        assert_eq!(grid.physical_tiles(), 24);
    }

    #[test]
    fn replicas_draw_distinct_variation_maps() {
        let n = 12;
        let p = dense(n, 8);
        let mut cfg = config();
        cfg.fidelity = Fidelity::DeviceAccurate;
        cfg.variation = VariationConfig::typical();
        cfg.variation.read_noise_rel = 0.0; // isolate the programmed maps
        let mut grid = BatchedTiledCrossbar::replicate(&p, 2, cfg, 6);
        let s = SpinVector::all_up(n);
        let a = grid.vmv(0, s.as_slice());
        let b = grid.vmv(1, s.as_slice());
        assert_ne!(a, b, "replicas must not share silicon");
        // …but every replica is individually reproducible: rebuilding
        // from the same base config derives the same per-instance seeds.
        let cfg2 = grid.instance(0).config().clone();
        let mut again = BatchedTiledCrossbar::new(
            CrossbarConfig {
                seed: config().seed,
                ..cfg2
            },
            6,
        );
        again.try_admit_instance(&p, usize::MAX).unwrap();
        again.try_admit_instance(&p, usize::MAX).unwrap();
        assert_eq!(a, again.vmv(0, s.as_slice()));
        assert_eq!(b, again.vmv(1, s.as_slice()));
    }

    #[test]
    fn handles_drive_their_instances_independently() {
        let n = 14;
        let p = dense(n, 9);
        let shared = BatchedTiledCrossbar::replicate(&p, 3, config(), 7).into_shared();
        let mut handles: Vec<BatchInstance> = (0..3)
            .map(|i| BatchInstance::new(Arc::clone(&shared), i))
            .collect();
        let s = SpinVector::all_up(n);
        let mut mono = TiledCrossbar::program(&p, config(), n);
        let expected = mono.vmv(s.as_slice());
        for h in &mut handles {
            assert_eq!(h.dimension(), n);
            assert_eq!(h.vmv(s.as_slice()), expected);
            assert_eq!(h.stats().array_ops, 1);
        }
        // Per-instance attribution: each block saw exactly one read.
        let grid = lock_shared(&shared);
        for i in 0..3 {
            assert_eq!(grid.instance_stats(i).array_ops, 1);
        }
        assert_eq!(grid.batch_stats().grid_cycles, 3);
    }

    #[test]
    fn batched_mvm_matches_per_instance_monolithic_mvm() {
        // The SB placement contract: an instance's full-vector read on
        // the shared grid is bit-identical to the standalone one-tile
        // array's, both through the grid API and a BatchInstance handle.
        let n = 18;
        let problems = [dense(n, 41), dense(n, 42)];
        let mut grid = BatchedTiledCrossbar::new(config(), 7);
        for p in &problems {
            grid.try_admit_instance(p, usize::MAX).unwrap();
        }
        let mut rng = StdRng::seed_from_u64(43);
        let s = SpinVector::random(n, &mut rng);
        for (i, p) in problems.iter().enumerate() {
            let mut mono = TiledCrossbar::program(p, config(), n);
            assert_eq!(grid.mvm(i, s.as_slice()), mono.mvm(s.as_slice()));
        }
        let shared = grid.into_shared();
        for (i, p) in problems.iter().enumerate() {
            let mut handle = BatchInstance::new(Arc::clone(&shared), i);
            let mut mono = TiledCrossbar::program(p, config(), n);
            assert_eq!(handle.mvm(s.as_slice()), mono.mvm(s.as_slice()));
            assert_eq!(handle.stats().array_ops, 2);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_instance_is_rejected() {
        let p = dense(8, 10);
        let mut grid = BatchedTiledCrossbar::replicate(&p, 1, config(), 4);
        let s = SpinVector::all_up(8);
        let _ = grid.vmv(1, s.as_slice());
    }

    #[test]
    fn admission_respects_stripe_capacity_and_reuses_freed_spans() {
        // tile_rows 4: an n-spin instance needs ceil(n/4) stripes.
        let p8 = dense(8, 20); // 2 stripes
        let p16 = dense(16, 21); // 4 stripes
        let p12 = dense(12, 22); // 3 stripes
        let mut grid = BatchedTiledCrossbar::new(config(), 4);
        assert_eq!(grid.stripes_needed(16), 4);

        let a = grid.try_admit_instance(&p16, 6).expect("4 of 6 fits");
        let b = grid.try_admit_instance(&p8, 6).expect("4+2 of 6 fits");
        assert_eq!((grid.stripe_offset(a), grid.stripe_offset(b)), (0, 4));
        assert_eq!(grid.stripes_in_use(), 6);
        assert_eq!(grid.live_instances(), 2);
        // Full: a 2-stripe instance does not fit right now.
        assert_eq!(grid.try_admit_instance(&p8, 6), None);

        // Retiring the 4-stripe head frees a span the next admissions
        // fill first-fit, splitting it.
        grid.retire_instance(a);
        assert!(!grid.is_live(a));
        assert_eq!(grid.live_instances(), 1);
        assert_eq!(grid.stripes_in_use(), 2);
        let c = grid.try_admit_instance(&p12, 6).expect("3 of 4 freed");
        assert_eq!(grid.stripe_offset(c), 0);
        let d = grid.try_admit_instance(&p8, 6);
        assert_eq!(d, None, "only 1 free stripe remains");
        assert_eq!(grid.admissions(), 3);
        assert_eq!(grid.retirements(), 1);
    }

    #[test]
    fn retirement_coalesces_spans_and_shrinks_the_tail() {
        let p8 = dense(8, 23); // 2 stripes each at tile_rows 4
        let mut grid = BatchedTiledCrossbar::new(config(), 4);
        let a = grid.try_admit_instance(&p8, 6).unwrap();
        let b = grid.try_admit_instance(&p8, 6).unwrap();
        let c = grid.try_admit_instance(&p8, 6).unwrap();
        // Freeing a and b coalesces [0,2)+[2,4) into one 4-stripe span…
        grid.retire_instance(a);
        grid.retire_instance(b);
        let p16 = dense(16, 24); // needs 4 contiguous stripes
        let d = grid.try_admit_instance(&p16, 6).expect("coalesced span");
        assert_eq!(grid.stripe_offset(d), 0);
        // …and freeing the tail returns stripes to the pool outright.
        grid.retire_instance(c);
        grid.retire_instance(d);
        assert_eq!(grid.stripes_in_use(), 0);
        let e = grid
            .try_admit_instance(&dense(24, 25), 6)
            .expect("empty grid admits a full-width instance");
        assert_eq!(grid.stripe_offset(e), 0);
        assert_eq!(grid.stripes_in_use(), 6);
    }

    #[test]
    fn recycled_slots_see_the_same_silicon() {
        let n = 12;
        let p = dense(n, 26);
        let mut cfg = config();
        cfg.fidelity = Fidelity::DeviceAccurate;
        cfg.variation = VariationConfig::typical();
        cfg.variation.read_noise_rel = 0.0; // isolate the programmed maps
        let mut grid = BatchedTiledCrossbar::new(cfg, 6);
        let s = SpinVector::all_up(n);
        let first = grid.try_admit_instance(&p, 4).unwrap();
        let before = grid.vmv(first, s.as_slice());
        grid.retire_instance(first);
        // The successor lands in the recycled slot — same per-slot seed,
        // hence the same simulated silicon.
        let second = grid.try_admit_instance(&p, 4).unwrap();
        assert_eq!(second, first);
        assert_eq!(grid.vmv(second, s.as_slice()), before);
    }

    #[test]
    fn trial_reseed_makes_results_slot_and_order_independent() {
        // Two grids admit the same two problems in opposite order, so
        // each problem lands in a different slot (different slot seed).
        // After reseeding each instance for its trial, device-accurate
        // noisy reads must be bit-identical across the grids: the trial,
        // not the placement, owns the silicon.
        let n = 12;
        let pa = dense(n, 33);
        let pb = dense(n, 34);
        let mut cfg = config();
        cfg.fidelity = Fidelity::DeviceAccurate;
        cfg.variation = VariationConfig::typical();
        assert!(cfg.variation.read_noise_rel > 0.0, "noisy case on purpose");
        let s = SpinVector::all_up(n);
        let mut g1 = BatchedTiledCrossbar::new(cfg.clone(), 6);
        let a1 = g1.try_admit_instance(&pa, 8).unwrap();
        let b1 = g1.try_admit_instance(&pb, 8).unwrap();
        let mut g2 = BatchedTiledCrossbar::new(cfg, 6);
        let b2 = g2.try_admit_instance(&pb, 8).unwrap();
        let a2 = g2.try_admit_instance(&pa, 8).unwrap();
        assert_ne!((a1, b1), (a2, b2), "placements really differ");
        g1.reseed_instance_for_trial(a1, 1001);
        g1.reseed_instance_for_trial(b1, 2002);
        g2.reseed_instance_for_trial(a2, 1001);
        g2.reseed_instance_for_trial(b2, 2002);
        assert_eq!(g1.vmv(a1, s.as_slice()), g2.vmv(a2, s.as_slice()));
        assert_eq!(g1.vmv(b1, s.as_slice()), g2.vmv(b2, s.as_slice()));
        // Distinct trials on identical couplings still see distinct
        // silicon: trial seeds, not slots, differentiate replicas.
        g1.reseed_instance_for_trial(a1, 1001);
        g2.reseed_instance_for_trial(a2, 7777);
        assert_ne!(g1.vmv(a1, s.as_slice()), g2.vmv(a2, s.as_slice()));
    }

    #[test]
    fn ideal_trial_reseed_is_free_and_harmless() {
        // All-zero variation means seed-independent silicon: the reseed
        // fast-path must skip the redraw entirely (slot seed retained)
        // and reads must be unaffected.
        let n = 10;
        let p = dense(n, 35);
        let mut grid = BatchedTiledCrossbar::replicate(&p, 2, config(), 5);
        let s = SpinVector::all_up(n);
        let before_seed = grid.instance(0).config().seed;
        let before = grid.vmv(0, s.as_slice());
        grid.reseed_instance_for_trial(0, 4242);
        assert_eq!(grid.instance(0).config().seed, before_seed);
        assert_eq!(grid.vmv(0, s.as_slice()), before);
    }

    #[test]
    #[should_panic(expected = "retired")]
    fn reads_on_retired_instances_panic() {
        let p = dense(8, 27);
        let mut grid = BatchedTiledCrossbar::new(config(), 4);
        let a = grid.try_admit_instance(&p, 4).unwrap();
        grid.retire_instance(a);
        let s = SpinVector::all_up(8);
        let _ = grid.vmv(a, s.as_slice());
    }

    #[test]
    #[should_panic(expected = "retired")]
    fn double_retire_panics() {
        let p = dense(8, 28);
        let mut grid = BatchedTiledCrossbar::new(config(), 4);
        let a = grid.try_admit_instance(&p, 4).unwrap();
        grid.retire_instance(a);
        grid.retire_instance(a);
    }
}
