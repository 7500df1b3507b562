//! The traced pass: per-layer metrics of one scenario of a workload.
//!
//! Timing happens outside the crates, around the calls into them: the
//! set-up and run boundaries are spans, the protocol and each observer
//! run inside [`TimedProtocol`] / [`TimedObserver`] wrappers, and counts
//! come from the crates' public counters. The same scenario also runs
//! untraced, so the pass reports its own overhead and checks that
//! tracing leaves the outcome digest unchanged.

use std::hint::black_box;
use std::time::{Duration, Instant};

use mnp_experiments::scale::{MediumHotLoop, STEADY_STATE_WARMUP};
use mnp_net::{Observer, Protocol};
use mnp_obs::{
    InvariantMonitor, JsonlLogger, MetricsRegistry, Shared, TimeSeriesSampler, TimelineExporter,
};
use mnp_radio::NodeId;
use mnp_sim::{EventQueue, SimDuration, SimRng, SimTime};

use crate::measure::rep;
use crate::report::{mean, Metric, Outcome};
use crate::scenario::{
    recorded_digests, Node, ProtocolTask, Run, Scenario, Workload, DEADLINE, DEFAULT_SEED,
};
use crate::timed::{CallTotals, TimedObserver, TimedProtocol};

/// Host time each of the two probes (queue, medium) may take.
const PROBE_BUDGET: Duration = Duration::from_millis(500);

/// One coarse span: a layer boundary crossed by one run.
struct Span {
    /// The run the span belongs to.
    run: u32,
    /// The boundary: `setup`, `topology`, `network_build`, `run` or
    /// `run_end`.
    name: &'static str,
    /// The enclosing span of the same run, if any.
    parent: Option<&'static str>,
    /// Start, host seconds since the pass began.
    start_s: f64,
    /// End, host seconds since the pass began.
    end_s: f64,
}

/// Spans kept in memory until the pass ends.
struct Spans {
    epoch: Instant,
    runs: u32,
    spans: Vec<Span>,
}

impl Spans {
    fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            runs: 0,
            spans: Vec::new(),
        }
    }

    fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64()
    }

    /// Records the five boundaries of one set-up plus run.
    fn record(&mut self, done: &Run) {
        self.runs += 1;
        let run = self.runs;
        let setup = &done.setup;
        let s0 = self.at(setup.started);
        let r0 = self.at(done.started);
        let r1 = r0 + done.run_s;
        for (name, parent, start_s, end_s) in [
            ("setup", None, s0, s0 + setup.setup_s),
            ("topology", Some("setup"), s0, s0 + setup.topology_s),
            (
                "network_build",
                Some("setup"),
                s0 + setup.topology_s,
                s0 + setup.setup_s,
            ),
            ("run", None, r0, r1),
            ("run_end", Some("run"), r1, r1 + done.run_end_s),
        ] {
            self.spans.push(Span {
                run,
                name,
                parent,
                start_s,
                end_s,
            });
        }
    }

    /// The spans as JSON lines.
    fn to_jsonl(&self) -> String {
        self.spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"run\": {}, \"span\": \"{}\", \"parent\": {}, \"start_s\": {:.9}, \"end_s\": {:.9}}}\n",
                    s.run,
                    s.name,
                    s.parent.map_or("null".to_string(), |p| format!("\"{p}\"")),
                    s.start_s,
                    s.end_s
                )
            })
            .collect()
    }
}

/// An untraced set-up and run.
fn plain(scenario: &Scenario) -> Run {
    rep(scenario, 1).run
}

/// The four observers of the observed workload, timed.
struct TimedObservers {
    jsonl: Shared<TimedObserver<JsonlLogger>>,
    metrics: Shared<TimedObserver<MetricsRegistry>>,
    invariants: Shared<TimedObserver<InvariantMonitor>>,
    timeline: Shared<TimedObserver<TimelineExporter>>,
}

impl TimedObservers {
    fn new() -> Self {
        TimedObservers {
            jsonl: Shared::new(TimedObserver::new(JsonlLogger::new())),
            metrics: Shared::new(TimedObserver::new(MetricsRegistry::new())),
            invariants: Shared::new(TimedObserver::new(InvariantMonitor::new())),
            timeline: Shared::new(TimedObserver::new(TimelineExporter::new())),
        }
    }

    fn boxed(&self) -> Vec<Box<dyn Observer + Send>> {
        vec![
            Box::new(self.jsonl.clone()),
            Box::new(self.metrics.clone()),
            Box::new(self.invariants.clone()),
            Box::new(self.timeline.clone()),
        ]
    }

    /// Per-observer totals over the whole run (named as the metrics are).
    fn totals(&self) -> [(&'static str, CallTotals); 4] {
        [
            ("obs.jsonl.self_s", self.jsonl.borrow().totals()),
            ("obs.metrics.self_s", self.metrics.borrow().totals()),
            ("obs.invariants.self_s", self.invariants.borrow().totals()),
            ("obs.timeline.self_s", self.timeline.borrow().totals()),
        ]
    }

    /// Host seconds the observers spent while the network ran.
    fn in_run_s(&self) -> f64 {
        self.jsonl.borrow().events().seconds()
            + self.metrics.borrow().events().seconds()
            + self.invariants.borrow().events().seconds()
            + self.timeline.borrow().events().seconds()
    }
}

/// The traced run: timed protocol, timed observers (on the observed
/// workload) and a queue-depth sampler.
struct Traced {
    run: Run,
    protocol: CallTotals,
    observers: Option<TimedObservers>,
    sampler: Shared<TimeSeriesSampler>,
}

/// Sets up and runs a scenario traced.
struct TracedTask;

impl ProtocolTask for TracedTask {
    type Output = Traced;

    fn call<P: Protocol>(self, scenario: &Scenario, make: fn(Node<'_>) -> P) -> Traced {
        let observers = scenario.is_observed().then(TimedObservers::new);
        let boxed = observers
            .as_ref()
            .map_or_else(Vec::new, TimedObservers::boxed);
        let capacity = usize::try_from(DEADLINE.as_secs()).expect("deadline fits usize") + 1;
        let sampler = Shared::new(TimeSeriesSampler::new(SimDuration::from_secs(1), capacity));
        let setup = scenario.setup(boxed, Some(sampler.clone()), |n| {
            TimedProtocol::new(make(n))
        });
        let (net, run) = setup.run();
        let mut protocol = CallTotals::default();
        for i in 0..net.len() {
            protocol.add(net.protocol(NodeId::from_index(i)).totals());
        }
        Traced {
            run,
            protocol,
            observers,
            sampler,
        }
    }
}

/// Mean host nanoseconds per `EventQueue::pop` with `events` events
/// preloaded at uniform instants over `[0, span)`: the far-buffer cost a
/// kernel with that many pending events pays.
fn queue_pop_ns(events: usize, span: SimTime, seed: u64) -> f64 {
    let mut rng = SimRng::new(seed).derive(0x7175_6575);
    let mut q = EventQueue::new();
    for i in 0..events.max(1) {
        q.push(SimTime::from_micros(rng.range_u64(0, span.as_micros())), i);
    }
    let start = Instant::now();
    let mut pops = 0u64;
    while let Some(e) = q.pop() {
        black_box(e);
        pops += 1;
        if pops.is_multiple_of(64) && start.elapsed() > PROBE_BUDGET {
            break;
        }
    }
    start.elapsed().as_nanos() as f64 / pops as f64
}

/// Mean host nanoseconds per broadcast through the radio medium alone on
/// the workload grid (0 for scenarios without one).
fn medium_tx_ns(scenario: &Scenario, seed: u64) -> f64 {
    let Some(grid) = scenario.grid_spec() else {
        return 0.0;
    };
    let mut hot = MediumHotLoop::new(grid.rows(), grid.cols(), seed);
    for _ in 0..STEADY_STATE_WARMUP {
        hot.round();
    }
    let start = Instant::now();
    let mut rounds = 0u64;
    while !rounds.is_multiple_of(64) || start.elapsed() < PROBE_BUDGET {
        hot.round();
        rounds += 1;
    }
    black_box(hot.delivered());
    start.elapsed().as_nanos() as f64 / rounds as f64
}

/// Counts runs and their failures against the expected digests.
struct Checks {
    workload: Workload,
    /// The recorded digests, per scenario (none off the default seed).
    recorded: &'static [u64],
    attempted: u64,
    failed: u64,
}

impl Checks {
    /// Checks one run of scenario `index`: it completed, matches the
    /// recorded digest, if any, and matches `reference` (another run of
    /// the same scenario) if given.
    fn check(&mut self, what: &str, index: usize, run: &Run, reference: Option<u64>) {
        self.attempted += 1;
        let recorded = self.recorded.get(index).copied();
        let ok = run.completed
            && recorded.is_none_or(|d| d == run.digest)
            && reference.is_none_or(|d| d == run.digest);
        if !ok {
            self.failed += 1;
            eprintln!(
                "{}: FAILED {what} run of scenario {index} (completed {}, digest {:016x}, recorded {:?}, reference {:?})",
                self.workload.name(),
                run.completed,
                run.digest,
                recorded.map(|d| format!("{d:016x}")),
                reference.map(|d| format!("{d:016x}"))
            );
        }
    }
}

/// Runs the traced pass of `workload` on its first scenario at `seed`
/// (on grids, also every scenario on 2 shards) and reports every
/// per-layer metric (0 where a layer is idle on this workload or a metric
/// does not apply to it). The spans go to standard error as JSON lines
/// when the pass ends.
pub fn run(workload: Workload, seed: u64) -> Outcome {
    let scenarios = workload.scenarios(seed);
    let scenario = &scenarios[0];
    let mut checks = Checks {
        workload,
        recorded: if seed == DEFAULT_SEED {
            recorded_digests(workload)
        } else {
            &[]
        },
        attempted: 0,
        failed: 0,
    };
    let mut spans = Spans::new();

    // A first run: the reference, and the warm-up the first run of a
    // process needs.
    let first = plain(scenario);
    spans.record(&first);
    checks.check("first", 0, &first, None);
    let untraced = plain(scenario);
    spans.record(&untraced);
    checks.check("untraced", 0, &untraced, Some(first.digest));
    let t = scenario.with_protocol(TracedTask);
    spans.record(&t.run);
    checks.check("traced", 0, &t.run, Some(untraced.digest));
    // The kernel's shard layer, on grids (mobile fields run
    // sequentially): every scenario's 2-shard run must reproduce its
    // sequential digest.
    let mut shard_speedup = 0.0;
    if scenario.grid_spec().is_some() {
        for (i, s) in scenarios.iter().enumerate() {
            let seq = if i == 0 {
                untraced
            } else {
                let seq = plain(s);
                spans.record(&seq);
                checks.check("sequential", i, &seq, None);
                seq
            };
            let sharded = plain(&s.with_shards(2));
            spans.record(&sharded);
            checks.check("2-shard", i, &sharded, Some(seq.digest));
            if i == 0 {
                shard_speedup = seq.run_s / sharded.run_s;
            }
        }
    }

    let obs_in_run_s = t.observers.as_ref().map_or(0.0, TimedObservers::in_run_s);
    let (depth_max, depth_mean) = {
        let sampler = t.sampler.borrow();
        let depths: Vec<f64> = sampler.samples().map(|s| s.queue_depth as f64).collect();
        let max = depths.iter().copied().fold(0.0, f64::max);
        (
            max,
            if depths.is_empty() {
                0.0
            } else {
                mean(&depths)
            },
        )
    };
    let (core, baselines) = if matches!(scenario, Scenario::Grid { .. }) {
        (t.protocol, CallTotals::default())
    } else {
        (CallTotals::default(), t.protocol)
    };
    let run = &t.run;
    let mut metrics = vec![
        Metric::new("topology.build_s", t.run.setup.topology_s, "s"),
        Metric::new(
            "topology.link_updates",
            t.run.setup.link_updates as f64,
            "count",
        ),
        Metric::new("net.build_s", t.run.setup.build_s, "s"),
        Metric::new(
            "net.pending_at_start",
            t.run.setup.pending_at_start as f64,
            "count",
        ),
        Metric::new(
            "sim.queue_pop_ns",
            queue_pop_ns(t.run.setup.pending_at_start, DEADLINE, seed),
            "ns",
        ),
        Metric::new("sim.queue_depth_max", depth_max, "count"),
        Metric::new("sim.queue_depth_mean", depth_mean, "count"),
        Metric::new("net.run_s", run.run_s, "s"),
        Metric::new("net.events", run.events as f64, "count"),
        Metric::new("net.events_per_s", run.events as f64 / run.run_s, "1/s"),
        Metric::new(
            "net.kernel_self_s",
            run.run_s - t.protocol.seconds() - obs_in_run_s,
            "s",
        ),
        Metric::new("radio.tx", untraced.tx as f64, "count"),
        Metric::new("radio.collisions", untraced.collisions as f64, "count"),
        Metric::new("radio.rx_locks", untraced.rx_locks as f64, "count"),
        Metric::new(
            "radio.rx_delivered_ratio",
            untraced.rx_delivered as f64 / untraced.rx_locks.max(1) as f64,
            "ratio",
        ),
        Metric::new("radio.medium_tx_ns", medium_tx_ns(scenario, seed), "ns"),
        Metric::new("net.shard_speedup", shard_speedup, "ratio"),
        Metric::new("core.calls", core.calls as f64, "count"),
        Metric::new("core.self_s", core.seconds(), "s"),
        Metric::new("core.ns_per_call", core.ns_per_call(), "ns"),
        Metric::new("baselines.calls", baselines.calls as f64, "count"),
        Metric::new("baselines.self_s", baselines.seconds(), "s"),
        Metric::new("baselines.ns_per_call", baselines.ns_per_call(), "ns"),
    ];
    match &t.observers {
        Some(obs) => {
            for (name, totals) in obs.totals() {
                metrics.push(Metric::new(name, totals.seconds(), "s"));
            }
            metrics.push(Metric::new(
                "obs.events",
                obs.jsonl.borrow().events().calls as f64,
                "count",
            ));
            metrics.push(Metric::new(
                "obs.jsonl_bytes",
                obs.jsonl.borrow().inner().as_str().len() as f64,
                "bytes",
            ));
        }
        None => {
            for name in [
                "obs.jsonl.self_s",
                "obs.metrics.self_s",
                "obs.invariants.self_s",
                "obs.timeline.self_s",
            ] {
                metrics.push(Metric::new(name, 0.0, "s"));
            }
            metrics.push(Metric::new("obs.events", 0.0, "count"));
            metrics.push(Metric::new("obs.jsonl_bytes", 0.0, "bytes"));
        }
    }
    metrics.extend([
        Metric::new(
            "storage.eeprom_writes",
            untraced.eeprom_writes as f64,
            "count",
        ),
        Metric::new("alloc.setup_count", untraced.setup.allocs as f64, "count"),
        Metric::new("alloc.run_count", untraced.allocs as f64, "count"),
        Metric::new("trace.overhead", run.run_s / untraced.run_s, "ratio"),
    ]);
    eprintln!(
        "{}: traced {} digest {:016x}, simulated completion {:.0} s",
        workload.name(),
        scenario.label(),
        run.digest,
        run.completion.as_secs_f64()
    );
    eprint!("{}", spans.to_jsonl());
    Outcome {
        attempted: checks.attempted,
        failed: checks.failed,
        metrics,
    }
}
