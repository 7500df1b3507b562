//! Timing wrappers around a protocol and an observer: they forward every
//! call unchanged and add its count and host time to running totals, so
//! a traced run can split the kernel's time from the time spent in the
//! protocol crate and in each observer.

use std::time::Instant;

use mnp_net::{Context, EepromOps, ObsEvent, Observer, Protocol};
use mnp_radio::{MediumStats, NodeId};
use mnp_sim::SimTime;

/// Calls made into a layer and the host time they took.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CallTotals {
    /// Calls made.
    pub calls: u64,
    /// Host nanoseconds inside those calls.
    pub nanos: u64,
}

impl CallTotals {
    fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let r = f();
        self.calls += 1;
        self.nanos += u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        r
    }

    /// Adds another set of totals.
    pub fn add(&mut self, other: CallTotals) {
        self.calls += other.calls;
        self.nanos += other.nanos;
    }

    /// Host seconds inside the calls.
    pub fn seconds(&self) -> f64 {
        self.nanos as f64 * 1e-9
    }

    /// Mean host nanoseconds per call (0 without calls).
    pub fn ns_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.nanos as f64 / self.calls as f64
        }
    }
}

/// A protocol whose event handlers are timed. Timing covers everything
/// the handler does, including the sends and timers it hands the kernel
/// through its context.
pub struct TimedProtocol<P> {
    inner: P,
    totals: CallTotals,
}

impl<P> TimedProtocol<P> {
    /// Wraps `inner`.
    pub fn new(inner: P) -> Self {
        TimedProtocol {
            inner,
            totals: CallTotals::default(),
        }
    }

    /// The totals so far.
    pub fn totals(&self) -> CallTotals {
        self.totals
    }
}

impl<P: Protocol> Protocol for TimedProtocol<P> {
    type Msg = P::Msg;

    fn on_start(&mut self, ctx: &mut Context<'_, P::Msg>) {
        let inner = &mut self.inner;
        self.totals.time(|| inner.on_start(ctx));
    }

    fn on_message(&mut self, ctx: &mut Context<'_, P::Msg>, from: NodeId, msg: &P::Msg) {
        let inner = &mut self.inner;
        self.totals.time(|| inner.on_message(ctx, from, msg));
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, P::Msg>, token: u64) {
        let inner = &mut self.inner;
        self.totals.time(|| inner.on_timer(ctx, token));
    }

    fn on_wake(&mut self, ctx: &mut Context<'_, P::Msg>) {
        let inner = &mut self.inner;
        self.totals.time(|| inner.on_wake(ctx));
    }

    fn on_restart(&mut self, ctx: &mut Context<'_, P::Msg>) {
        let inner = &mut self.inner;
        self.totals.time(|| inner.on_restart(ctx));
    }

    fn inject_storage_fault(&mut self, failures: u32) {
        self.inner.inject_storage_fault(failures);
    }

    fn eeprom_ops(&self) -> EepromOps {
        self.inner.eeprom_ops()
    }

    fn state_label(&self) -> &'static str {
        self.inner.state_label()
    }
}

/// An observer whose callbacks are timed: per-event calls apart from
/// the end-of-run calls the network makes once it has stopped.
#[derive(Debug)]
pub struct TimedObserver<O> {
    inner: O,
    events: CallTotals,
    end: CallTotals,
}

impl<O> TimedObserver<O> {
    /// Wraps `inner`.
    pub fn new(inner: O) -> Self {
        TimedObserver {
            inner,
            events: CallTotals::default(),
            end: CallTotals::default(),
        }
    }

    /// The wrapped observer.
    pub fn inner(&self) -> &O {
        &self.inner
    }

    /// Per-event calls, all made while the network runs.
    pub fn events(&self) -> CallTotals {
        self.events
    }

    /// Every call: per-event ones and the end-of-run ones.
    pub fn totals(&self) -> CallTotals {
        let mut t = self.events;
        t.add(self.end);
        t
    }
}

impl<O: Observer> Observer for TimedObserver<O> {
    fn on_event(&mut self, ev: &ObsEvent) {
        let inner = &mut self.inner;
        self.events.time(|| inner.on_event(ev));
    }

    fn on_run_end(&mut self, at: SimTime) {
        let inner = &mut self.inner;
        self.end.time(|| inner.on_run_end(at));
    }

    fn on_medium_stats(&mut self, node: NodeId, stats: &MediumStats) {
        let inner = &mut self.inner;
        self.end.time(|| inner.on_medium_stats(node, stats));
    }
}
