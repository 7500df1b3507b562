//! The untraced measurement: `setup_s`, `run_s` and `peak_heap_mb` of
//! one workload, with every run checked against its expected digest.

use std::time::Instant;

use mnp_net::{Observer, Protocol};
use mnp_obs::{InvariantMonitor, JsonlLogger, MetricsRegistry, TimelineExporter};

use crate::alloc;
use crate::report::{mean, median, min, Metric, Outcome};
use crate::scenario::{
    recorded_digests, Node, ProtocolTask, Run, Scenario, Workload, DEFAULT_SEED,
};

/// One repetition of one scenario: several set-ups, then a run of the
/// last network.
pub struct Rep {
    /// Host seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// Peak live heap over the set-ups and the run.
    pub peak_bytes: u64,
    /// The run.
    pub run: Run,
}

fn mb(bytes: u64) -> f64 {
    bytes as f64 / f64::from(1u32 << 20)
}

/// The four observers of the observed workload, untimed.
pub fn observers(scenario: &Scenario) -> Vec<Box<dyn Observer + Send>> {
    if !scenario.is_observed() {
        return Vec::new();
    }
    vec![
        Box::new(JsonlLogger::new()),
        Box::new(MetricsRegistry::new()),
        Box::new(InvariantMonitor::new()),
        Box::new(TimelineExporter::new()),
    ]
}

/// [`rep`] as a task on the scenario's protocol.
struct RepTask {
    setups: usize,
}

impl ProtocolTask for RepTask {
    type Output = Rep;

    fn call<P: Protocol>(self, scenario: &Scenario, make: fn(Node<'_>) -> P) -> Rep {
        alloc::reset_peak();
        let mut setup_s = Vec::with_capacity(self.setups);
        let mut built = None;
        for _ in 0..self.setups {
            // Drop the previous network first: one lives at a time.
            drop(built.take());
            let s = scenario.setup(observers(scenario), None, make);
            setup_s.push(s.times.setup_s);
            built = Some(s);
        }
        let (_, run) = built.expect("at least one set-up").run();
        Rep {
            setup_s,
            peak_bytes: alloc::peak_bytes(),
            run,
        }
    }
}

/// Sets up `setups` times and runs the last network, untimed inside,
/// with the scenario's own protocol.
pub fn rep(scenario: &Scenario, setups: usize) -> Rep {
    scenario.with_protocol(RepTask { setups })
}

/// The digest each scenario's runs must reproduce: the recorded one at
/// the default seed, none otherwise.
fn references(workload: Workload, seed: u64, count: usize) -> Vec<Option<u64>> {
    let recorded = if seed == DEFAULT_SEED {
        recorded_digests(workload)
    } else {
        &[]
    };
    (0..count).map(|i| recorded.get(i).copied()).collect()
}

/// Measures `workload` at `seed` for at most `seconds` seconds (at least
/// one cycle): whole cycles over its scenarios, each scenario set up
/// several times and run once per cycle, stopping before a cycle that
/// would end past `seconds`.
pub fn measure(workload: Workload, seed: u64, seconds: f64) -> Outcome {
    let scenarios = workload.scenarios(seed);
    let refs = references(workload, seed, scenarios.len());
    // The first run of a process is slower than the rest: discard it.
    rep(&scenarios[0], 1);
    let mut reps: Vec<Vec<Rep>> = scenarios.iter().map(|_| Vec::new()).collect();
    let (mut attempted, mut failed) = (0, 0);
    let start = Instant::now();
    let mut cycles = 0;
    while cycles == 0 || {
        let elapsed = start.elapsed().as_secs_f64();
        elapsed + elapsed / f64::from(cycles) <= seconds
    } {
        for ((s, expected), out) in scenarios.iter().zip(&refs).zip(&mut reps) {
            let r = rep(s, workload.setups_per_run());
            attempted += 1;
            let ok = r.run.completed && expected.is_none_or(|d| d == r.run.digest);
            if !ok {
                failed += 1;
                eprintln!(
                    "{}: FAILED run of {} (completed {}, digest {:016x}, expected {:?})",
                    workload.name(),
                    s.label(),
                    r.run.completed,
                    r.run.digest,
                    expected.map(|d| format!("{d:016x}"))
                );
            }
            out.push(r);
        }
        cycles += 1;
    }
    for (s, r) in scenarios.iter().zip(&reps) {
        eprintln!(
            "{}: {} digest {:016x} events {} sim {:.0} s peak {:.1} MB setup_s {:.3} run_s {:?}",
            workload.name(),
            s.label(),
            r[0].run.digest,
            r[0].run.events,
            r[0].run.completion.as_secs_f64(),
            mb(r[0].peak_bytes),
            r[0].setup_s[0],
            r.iter().map(|r| r.run.run_s).collect::<Vec<_>>()
        );
    }
    // Per scenario, one summary of its samples; across scenarios, the
    // mean. Times take the fastest sample: host slowdowns only ever add
    // time, so the minimum is the sample they disturbed least.
    let per_scenario = |summary: fn(&[f64]) -> f64, f: &dyn Fn(&Rep) -> Vec<f64>| -> f64 {
        mean(
            &reps
                .iter()
                .map(|rs| summary(&rs.iter().flat_map(f).collect::<Vec<_>>()))
                .collect::<Vec<_>>(),
        )
    };
    Outcome {
        attempted,
        failed,
        metrics: vec![
            Metric::new("setup_s", per_scenario(min, &|r| r.setup_s.clone()), "s"),
            Metric::new("run_s", per_scenario(min, &|r| vec![r.run.run_s]), "s"),
            Metric::new(
                "peak_heap_mb",
                per_scenario(median, &|r| vec![mb(r.peak_bytes)]),
                "MB",
            ),
        ],
    }
}
