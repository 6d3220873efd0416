//! Timing wrappers around the public layer traits, used only by traced
//! runs. Each wrapper delegates every call unchanged, so a traced run
//! computes exactly what an untraced one does; the fingerprints check it.

use std::time::Instant;

use fecim::anneal::EnergyBackend;
use fecim::crossbar::ActivityStats;
use fecim::ising::{FlipMask, SpinVector};
use fecim::sb::MvmSource;
use perfbench::trace::Tracer;

/// An [`EnergyBackend`] whose incremental-E reads are recorded one
/// `crossbar.incr_read` span each, with every other call folded into a
/// rollup. For backends whose reads take microseconds (the simulated
/// crossbar).
#[derive(Debug)]
pub struct SpannedBackend<'t, B> {
    inner: B,
    tracer: &'t Tracer,
    /// Span the reads run inside.
    pub parent: u64,
    req: u64,
    other_calls: u64,
    other_ns: u64,
}

impl<'t, B: EnergyBackend> SpannedBackend<'t, B> {
    /// Wrap `inner`.
    pub fn new(inner: B, tracer: &'t Tracer, req: u64) -> Self {
        SpannedBackend {
            inner,
            tracer,
            parent: 0,
            req,
            other_calls: 0,
            other_ns: 0,
        }
    }

    /// Emit the rollup of the non-read calls.
    pub fn finish(self) {
        self.tracer.rollup(
            self.parent,
            "anneal.backend_other",
            self.other_calls,
            self.other_ns,
        );
    }

    fn other<R>(&mut self, f: impl FnOnce(&mut B) -> R) -> R {
        let t = Instant::now();
        let out = f(&mut self.inner);
        self.other_ns += t.elapsed().as_nanos() as u64;
        self.other_calls += 1;
        out
    }
}

impl<B: EnergyBackend> EnergyBackend for SpannedBackend<'_, B> {
    fn dimension(&self) -> usize {
        self.inner.dimension()
    }

    fn spins(&self) -> &SpinVector {
        self.inner.spins()
    }

    fn exact_energy(&self) -> f64 {
        self.inner.exact_energy()
    }

    fn weighted_increment(&mut self, mask: &FlipMask, factor: f64) -> f64 {
        let start_ns = self.tracer.now_ns();
        let out = self.inner.weighted_increment(mask, factor);
        let end_ns = self.tracer.now_ns();
        self.tracer.record_call(
            "crossbar.incr_read",
            self.parent,
            self.req,
            start_ns,
            end_ns,
        );
        out
    }

    fn direct_delta(&mut self, mask: &FlipMask) -> f64 {
        self.other(|b| b.direct_delta(mask))
    }

    fn apply(&mut self, mask: &FlipMask) {
        self.other(|b| b.apply(mask))
    }

    fn activity(&self) -> Option<ActivityStats> {
        self.inner.activity()
    }
}

/// One logged backend call of [`RecordingBackend`].
#[derive(Debug, Clone)]
pub enum Call {
    /// `weighted_increment(mask, factor)`.
    Increment(FlipMask, f64),
    /// `apply(mask)`.
    Apply(FlipMask),
    /// `exact_energy()` after an accepted move. (The engine's other
    /// `exact_energy` calls take `&self` and cannot be logged; on the
    /// exact backend they are a field load.)
    Energy,
}

/// An [`EnergyBackend`] that logs its calls without timing them, so the
/// calls can be replayed on a fresh backend in one timed loop: software
/// backend calls take tens of nanoseconds, too short to time one by one.
#[derive(Debug)]
pub struct RecordingBackend<B> {
    inner: B,
    /// The logged calls.
    pub log: Vec<Call>,
}

impl<B: EnergyBackend> RecordingBackend<B> {
    /// Wrap `inner`.
    pub fn new(inner: B) -> Self {
        RecordingBackend {
            inner,
            log: Vec::new(),
        }
    }
}

impl<B: EnergyBackend> EnergyBackend for RecordingBackend<B> {
    fn dimension(&self) -> usize {
        self.inner.dimension()
    }

    fn spins(&self) -> &SpinVector {
        self.inner.spins()
    }

    fn exact_energy(&self) -> f64 {
        self.inner.exact_energy()
    }

    fn weighted_increment(&mut self, mask: &FlipMask, factor: f64) -> f64 {
        self.log.push(Call::Increment(mask.clone(), factor));
        self.inner.weighted_increment(mask, factor)
    }

    fn direct_delta(&mut self, mask: &FlipMask) -> f64 {
        self.inner.direct_delta(mask)
    }

    fn apply(&mut self, mask: &FlipMask) {
        self.log.push(Call::Apply(mask.clone()));
        self.log.push(Call::Energy);
        self.inner.apply(mask)
    }

    fn activity(&self) -> Option<ActivityStats> {
        self.inner.activity()
    }
}

/// Replay logged calls on `backend` in one timed loop; returns the call
/// count, the elapsed nanoseconds and a checksum that keeps the calls
/// from being optimized away.
pub fn replay<B: EnergyBackend>(backend: &mut B, log: &[Call]) -> (u64, u64, f64) {
    let mut checksum = 0.0;
    let t = Instant::now();
    for call in log {
        match call {
            Call::Increment(mask, factor) => checksum += backend.weighted_increment(mask, *factor),
            Call::Apply(mask) => backend.apply(mask),
            Call::Energy => checksum += backend.exact_energy(),
        }
    }
    let ns = t.elapsed().as_nanos() as u64;
    (log.len() as u64, ns, std::hint::black_box(checksum))
}

/// An [`MvmSource`] whose full-vector reads are recorded one span each.
#[derive(Debug)]
pub struct SpannedMvm<'t, M> {
    inner: M,
    tracer: &'t Tracer,
    /// Span the reads run inside.
    pub parent: u64,
    req: u64,
}

impl<'t, M: MvmSource> SpannedMvm<'t, M> {
    /// Wrap `inner`.
    pub fn new(inner: M, tracer: &'t Tracer, req: u64) -> Self {
        SpannedMvm {
            inner,
            tracer,
            parent: 0,
            req,
        }
    }

    fn read<R>(&mut self, f: impl FnOnce(&mut M) -> R) -> R {
        let start_ns = self.tracer.now_ns();
        let out = f(&mut self.inner);
        let end_ns = self.tracer.now_ns();
        self.tracer
            .record_call("crossbar.mvm_read", self.parent, self.req, start_ns, end_ns);
        out
    }
}

impl<M: MvmSource> MvmSource for SpannedMvm<'_, M> {
    fn dimension(&self) -> usize {
        self.inner.dimension()
    }

    fn mvm_signs(&mut self, sigma: &[i8]) -> Vec<f64> {
        self.read(|m| m.mvm_signs(sigma))
    }

    fn mvm_continuous(&mut self, x: &[f64]) -> Vec<f64> {
        self.read(|m| m.mvm_continuous(x))
    }

    fn activity(&self) -> Option<ActivityStats> {
        self.inner.activity()
    }
}
