//! Checks of the benchmark's own machinery on scenarios of a few nodes.

use mnp_experiments::{GridExperiment, MobileExperiment, RunOutcome};
use mnp_net::Protocol;
use mnp_radio::NodeId;

use crate::measure::{observers, rep};
use crate::scenario::{digest, Node, Scenario, DEADLINE};
use crate::timed::{TimedObserver, TimedProtocol};

fn small_grid(seed: u64) -> Scenario {
    Scenario::grid(4, 4, 1, seed)
}

fn small_mobile(seed: u64) -> Scenario {
    Scenario::mobile(9, 2.0, 2, seed)
}

fn digest_of<P: Protocol>(scenario: &Scenario, make: impl Fn(Node) -> P) -> u64 {
    let (_, run) = scenario.setup(observers(scenario), None, make).run();
    assert!(run.completed, "{} must complete", scenario.label());
    run.digest
}

fn outcome_digest(out: &RunOutcome) -> u64 {
    digest(&out.trace, out.completed, out.collisions)
}

#[test]
fn timed_protocol_leaves_the_mnp_digest_unchanged() {
    for seed in 1..=3 {
        let s = small_grid(seed);
        let plain = digest_of(&s, Scenario::mnp);
        let timed = digest_of(&s, |n| TimedProtocol::new(Scenario::mnp(n)));
        assert_eq!(plain, timed, "{}", s.label());
    }
}

#[test]
fn timed_protocol_leaves_the_rlnc_digest_unchanged() {
    for seed in 1..=2 {
        let s = small_mobile(seed);
        let plain = digest_of(&s, Scenario::rlnc);
        let timed = digest_of(&s, |n| TimedProtocol::new(Scenario::rlnc(n)));
        assert_eq!(plain, timed, "{}", s.label());
    }
}

#[test]
fn timed_observers_leave_the_digest_unchanged_and_count_calls() {
    let s = small_grid(2).observed();
    let plain = digest_of(&s, Scenario::mnp);
    let jsonl = mnp_obs::Shared::new(TimedObserver::new(mnp_obs::JsonlLogger::new()));
    let (net, run) = s
        .setup(vec![Box::new(jsonl.clone())], None, |n| {
            TimedProtocol::new(Scenario::mnp(n))
        })
        .run();
    assert_eq!(run.digest, plain);
    let calls: u64 = (0..net.len())
        .map(|i| net.protocol(NodeId::from_index(i)).totals().calls)
        .sum();
    assert!(calls > 0, "the protocol wrapper saw no calls");
    let logged = jsonl.borrow();
    assert_eq!(logged.events().calls, logged.inner().events());
    assert!(
        logged.totals().calls > logged.events().calls,
        "end-of-run calls counted"
    );
}

#[test]
fn one_and_two_shards_give_equal_digests() {
    for seed in 1..=3 {
        let s = Scenario::grid(5, 5, 1, seed);
        let seq = digest_of(&s, Scenario::mnp);
        let sharded = digest_of(&s.with_shards(2), Scenario::mnp);
        assert_eq!(seq, sharded, "{}", s.label());
    }
}

#[test]
fn the_protocol_follows_the_scenario() {
    assert_eq!(
        rep(&small_grid(1), 1).run.digest,
        digest_of(&small_grid(1), Scenario::mnp)
    );
    assert_eq!(
        rep(&small_mobile(1), 1).run.digest,
        digest_of(&small_mobile(1), Scenario::rlnc)
    );
}

#[test]
fn direct_grid_path_matches_grid_experiment() {
    for seed in 1..=3 {
        let s = small_grid(seed);
        let Scenario::Grid { seed: viable, .. } = s else {
            unreachable!("a grid scenario")
        };
        let out = GridExperiment::new(4, 4, 10.0)
            .segments(1)
            .seed(viable)
            .deadline(DEADLINE)
            .run_mnp(|_| {});
        assert_eq!(
            digest_of(&s, Scenario::mnp),
            outcome_digest(&out),
            "{}",
            s.label()
        );
    }
}

#[test]
fn direct_mobile_path_matches_mobile_experiment() {
    for seed in 1..=2 {
        let s = small_mobile(seed);
        let Scenario::Mobile { exp, .. } = &s else {
            unreachable!("a mobile scenario")
        };
        let out: RunOutcome = MobileExperiment::run_rlnc(exp, |_| {});
        assert_eq!(
            digest_of(&s, Scenario::rlnc),
            outcome_digest(&out),
            "{}",
            s.label()
        );
    }
}

#[test]
fn the_digest_sees_every_component() {
    let s = small_grid(1);
    let (net, _) = s.setup(Vec::new(), None, Scenario::mnp).run();
    let trace = net.trace();
    let base = digest(trace, true, 7);
    assert_ne!(base, digest(trace, false, 7), "completion flag");
    assert_ne!(base, digest(trace, true, 8), "collisions");
    let mut t = trace.clone();
    t.set_active_radio(
        NodeId(3),
        t.node(NodeId(3)).active_radio + mnp_sim::SimDuration::from_micros(1),
    );
    assert_ne!(base, digest(&t, true, 7), "active radio time");
}

#[test]
fn scenarios_derive_from_the_seed_alone() {
    use crate::scenario::Workload;
    for w in Workload::ALL {
        let a: Vec<String> = w.scenarios(5).iter().map(Scenario::label).collect();
        let b: Vec<String> = w.scenarios(5).iter().map(Scenario::label).collect();
        let c: Vec<String> = w.scenarios(6).iter().map(Scenario::label).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), w.scenario_count());
    }
}
