//! The four workloads, the scenarios each derives from the workload
//! seed, the timed set-up and run of one scenario, and the outcome
//! digest every run is checked against.

use std::time::Instant;

use mnp::{Mnp, MnpConfig};
use mnp_baselines::{Rlnc, RlncConfig};
use mnp_experiments::{GridExperiment, MobileExperiment};
use mnp_net::{FaultPlan, LinkChange, Network, NetworkBuilder, Observer, Protocol};
use mnp_obs::{Shared, TimeSeriesSampler};
use mnp_radio::NodeId;
use mnp_sim::{SimDuration, SimRng, SimTime};
use mnp_storage::{ImageLayout, ProgramId, ProgramImage};
use mnp_topology::{GridSpec, TopologyBuilder};
use mnp_trace::{MsgClass, RunTrace};

use crate::alloc;

/// The seed whose digests are recorded in [`recorded_digests`].
pub const DEFAULT_SEED: u64 = 42;

/// Grid spacing of every grid workload, in feet (the paper's 20×20 grid).
const SPACING_FT: f64 = 10.0;
/// Simulation deadline of every scenario (also the motion horizon).
pub const DEADLINE: SimTime = SimTime::from_secs(4 * 3_600);
/// Reseeds tried before a seed is declared unusable, as in
/// `mnp_experiments::mobility_cmp::run_with`.
const RESEEDS: u64 = 32;

/// A named benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 25 mobile nodes with churn, RLNC.
    MobileRlnc,
    /// 24×24 grids, MNP, 1 segment, four observers attached.
    Observed,
}

impl Workload {
    /// Every workload, in the order `all` runs them.
    pub const ALL: [Workload; 2] = [Workload::MobileRlnc, Workload::Observed];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MobileRlnc => "mobile-rlnc",
            Workload::Observed => "observed",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The scenarios one run of this workload measures, all derived from
    /// `seed`: scenario `i` starts from `SimRng::new(seed).derive(i)` and
    /// is reseeded forward, deterministically, until its `t = 0` topology
    /// reaches every node.
    pub fn scenarios(self, seed: u64) -> Vec<Scenario> {
        let root = SimRng::new(seed);
        (0..self.scenario_count() as u64)
            .map(|i| self.scenario(root.derive(i).next_u64()))
            .collect()
    }

    /// How many scenarios one run measures: enough that their mean moves
    /// little from one workload seed to the next.
    pub fn scenario_count(self) -> usize {
        match self {
            Workload::MobileRlnc => 24,
            Workload::Observed => 6,
        }
    }

    /// Set-ups timed per measured run, so that `setup_s` is a median over
    /// many short samples spread across the measurement.
    pub fn setups_per_run(self) -> usize {
        match self {
            Workload::MobileRlnc => 2,
            _ => 3,
        }
    }

    fn scenario(self, seed: u64) -> Scenario {
        match self {
            Workload::MobileRlnc => Scenario::mobile(25, 2.0, 6, seed),
            Workload::Observed => Scenario::grid(24, 24, 1, seed).observed(),
        }
    }
}

/// Something done with a scenario's own protocol, whatever its type:
/// see [`Scenario::with_protocol`].
pub trait ProtocolTask {
    /// What the task returns.
    type Output;
    /// Does the task with `make` building each node's protocol.
    fn call<P: Protocol>(self, scenario: &Scenario, make: fn(Node<'_>) -> P) -> Self::Output;
}

/// One fully specified dissemination scenario.
#[derive(Clone, Debug)]
pub enum Scenario {
    /// A grid with the base station at the corner, running MNP.
    Grid {
        /// The grid.
        grid: GridSpec,
        /// Image size in segments.
        segments: u16,
        /// The (viable) scenario seed.
        seed: u64,
        /// Kernel shard count.
        shards: usize,
        /// Whether the four observers are attached.
        observed: bool,
    },
    /// Random-waypoint motion with crash–restart churn, running RLNC.
    Mobile {
        /// The scenario (its seed already viable).
        exp: MobileExperiment,
        /// Node count.
        nodes: usize,
        /// Crash–restart churn events.
        churn: usize,
    },
}

impl Scenario {
    /// A sequential grid scenario at the first viable seed from `seed` on.
    pub fn grid(rows: usize, cols: usize, segments: u16, seed: u64) -> Self {
        let seed = (0..RESEEDS)
            .map(|bump| seed.wrapping_add(bump))
            .find(|&s| {
                GridExperiment::new(rows, cols, SPACING_FT)
                    .seed(s)
                    .is_viable()
            })
            .unwrap_or_else(|| panic!("no viable grid seed within {RESEEDS} draws of {seed}"));
        Scenario::Grid {
            grid: GridSpec::new(rows, cols, SPACING_FT),
            segments,
            seed,
            shards: 1,
            observed: false,
        }
    }

    /// A mobile scenario at the first viable seed from `seed` on.
    pub fn mobile(nodes: usize, speed_ft_s: f64, churn: usize, seed: u64) -> Self {
        let base = MobileExperiment::new(nodes)
            .speed(speed_ft_s)
            .churn(churn)
            .deadline(DEADLINE);
        let exp = (0..RESEEDS)
            .map(|bump| base.clone().seed(seed.wrapping_add(bump)))
            .find(MobileExperiment::is_viable)
            .unwrap_or_else(|| panic!("no viable mobile seed within {RESEEDS} draws of {seed}"));
        Scenario::Mobile { exp, nodes, churn }
    }

    /// The same scenario with the observed workload's observers attached.
    pub fn observed(self) -> Self {
        match self {
            Scenario::Grid {
                grid,
                segments,
                seed,
                shards,
                ..
            } => Scenario::Grid {
                grid,
                segments,
                seed,
                shards,
                observed: true,
            },
            mobile => mobile,
        }
    }

    /// The same scenario on `shards` kernel shards (mobile scenarios
    /// always run sequentially).
    pub fn with_shards(&self, shards: usize) -> Self {
        let mut s = self.clone();
        if let Scenario::Grid { shards: k, .. } = &mut s {
            *k = shards;
        }
        s
    }

    /// Does `task` with the scenario's own protocol: MNP on grids, RLNC
    /// on mobile fields.
    pub fn with_protocol<T: ProtocolTask>(&self, task: T) -> T::Output {
        match self {
            Scenario::Grid { .. } => task.call(self, Scenario::mnp),
            Scenario::Mobile { .. } => task.call(self, Scenario::rlnc),
        }
    }

    /// Whether the observed workload's observers are attached.
    pub fn is_observed(&self) -> bool {
        matches!(self, Scenario::Grid { observed: true, .. })
    }

    /// The workload grid, if the scenario is a grid.
    pub fn grid_spec(&self) -> Option<GridSpec> {
        match self {
            Scenario::Grid { grid, .. } => Some(*grid),
            Scenario::Mobile { .. } => None,
        }
    }

    /// The image under dissemination.
    pub fn image(&self) -> ProgramImage {
        match self {
            Scenario::Grid { segments, .. } => {
                ProgramImage::synthetic(ProgramId(1), ImageLayout::paper_default(*segments))
            }
            Scenario::Mobile { exp, .. } => exp.image().clone(),
        }
    }

    /// A one-line description for the human-readable report.
    pub fn label(&self) -> String {
        match self {
            Scenario::Grid {
                grid,
                segments,
                seed,
                shards,
                observed,
            } => format!(
                "{grid} seg {segments} seed {seed} shards {shards}{}",
                if *observed { " +observers" } else { "" }
            ),
            Scenario::Mobile { exp, nodes, churn } => format!(
                "{nodes} mobile nodes churn {churn} seed {}",
                exp.seed_value()
            ),
        }
    }

    /// Samples the topology and builds a runnable network, timing each
    /// step. `make` builds each node's protocol from the scenario's
    /// protocol (MNP on grids, RLNC on mobile fields).
    pub fn setup<P: Protocol>(
        &self,
        observers: Vec<Box<dyn Observer + Send>>,
        sampler: Option<Shared<TimeSeriesSampler>>,
        make: impl Fn(Node) -> P,
    ) -> Setup<P> {
        let image = self.image();
        let allocs = alloc::allocations();
        let start = Instant::now();
        let (mut builder, link_updates, topology_s) = match self {
            Scenario::Grid {
                grid, seed, shards, ..
            } => {
                let mut rng = SimRng::new(*seed).derive(0xdeadbeef);
                let topo = TopologyBuilder::new(grid.placement()).build(&mut rng);
                let topology_s = start.elapsed().as_secs_f64();
                let builder = NetworkBuilder::new(topo.links, *seed).shards(*shards);
                (builder, 0, topology_s)
            }
            Scenario::Mobile { exp, nodes, churn } => {
                let mobile = exp.mobile_topology();
                let topology_s = start.elapsed().as_secs_f64();
                let updates = mobile.updates.len();
                let schedule: Vec<LinkChange> = mobile
                    .updates
                    .iter()
                    .map(|u| LinkChange {
                        at: u.at,
                        from: u.from,
                        to: u.to,
                        ber: u.ber,
                    })
                    .collect();
                let candidates: Vec<NodeId> = (1..*nodes).map(NodeId::from_index).collect();
                let plan = FaultPlan::seeded(exp.seed_value()).random_crash_restarts(
                    *churn,
                    &candidates,
                    (SimTime::from_secs(30), DEADLINE),
                    (SimDuration::from_secs(60), SimDuration::from_secs(600)),
                );
                let builder = NetworkBuilder::new(mobile.topology.links, exp.seed_value())
                    .link_schedule(schedule)
                    .faults(plan);
                (builder, updates, topology_s)
            }
        };
        for obs in observers {
            builder = builder.observer(obs);
        }
        if let Some(sampler) = sampler {
            builder = builder.timeseries(sampler);
        }
        let net = builder.build(|id, _| make(Node { id, image: &image }));
        let setup_s = start.elapsed().as_secs_f64();
        Setup {
            times: SetupTimes {
                started: start,
                topology_s,
                build_s: setup_s - topology_s,
                setup_s,
                link_updates,
                pending_at_start: net.pending_events(),
                allocs: alloc::allocations() - allocs,
            },
            net,
        }
    }

    /// Builds MNP at every node.
    pub fn mnp(node: Node<'_>) -> Mnp {
        let cfg = MnpConfig::for_image(node.image);
        if node.id == NodeId(0) {
            Mnp::base_station(cfg, node.image)
        } else {
            Mnp::node(cfg)
        }
    }

    /// Builds RLNC at every node.
    pub fn rlnc(node: Node<'_>) -> Rlnc {
        let cfg = RlncConfig::for_image(node.image);
        if node.id == NodeId(0) {
            Rlnc::base_station(cfg, node.image)
        } else {
            Rlnc::node(cfg)
        }
    }
}

/// What a protocol constructor sees of the node it builds.
#[derive(Clone, Copy, Debug)]
pub struct Node<'a> {
    /// The node (the base station is node 0 in every scenario).
    pub id: NodeId,
    /// The image under dissemination.
    pub image: &'a ProgramImage,
}

/// What building a network cost.
#[derive(Clone, Copy, Debug)]
pub struct SetupTimes {
    /// When set-up began.
    pub started: Instant,
    /// Host seconds to sample the topology (and, on mobile fields, plan
    /// and materialize the motion).
    pub topology_s: f64,
    /// Host seconds in `NetworkBuilder::build` and the schedule and
    /// fault plan it expands.
    pub build_s: f64,
    /// `topology_s + build_s`.
    pub setup_s: f64,
    /// Scheduled link-quality changes (0 on grids).
    pub link_updates: usize,
    /// Events queued after the build.
    pub pending_at_start: usize,
    /// Heap allocations during set-up.
    pub allocs: u64,
}

/// A runnable network and what building it cost.
pub struct Setup<P: Protocol> {
    /// The network, every node's start event queued.
    pub net: Network<P>,
    /// What building it cost.
    pub times: SetupTimes,
}

/// What one set-up and run measured, with the counters read off the
/// finished network.
#[derive(Clone, Copy, Debug)]
pub struct Run {
    /// The set-up the run started from.
    pub setup: SetupTimes,
    /// When the run began.
    pub started: Instant,
    /// Host seconds in `Network::run_until_all_complete`.
    pub run_s: f64,
    /// Host seconds to finalize meters and close the observers.
    pub run_end_s: f64,
    /// Heap allocations during the run.
    pub allocs: u64,
    /// Whether every node completed before the deadline.
    pub completed: bool,
    /// The outcome digest (see [`digest`]).
    pub digest: u64,
    /// The completion instant (the stop instant if the run did not
    /// complete).
    pub completion: SimTime,
    /// Events the kernel processed.
    pub events: u64,
    /// Frames sent, over all nodes.
    pub tx: u64,
    /// Collisions, over all nodes.
    pub collisions: u64,
    /// Reception locks, over all nodes.
    pub rx_locks: u64,
    /// Frames received intact, over all nodes.
    pub rx_delivered: u64,
    /// EEPROM line writes, over all nodes.
    pub eeprom_writes: u64,
}

impl<P: Protocol> Setup<P> {
    /// Runs to full coverage or the deadline, then finalizes meters at
    /// the completion instant and digests the outcome.
    pub fn run(self) -> (Network<P>, Run) {
        let mut net = self.net;
        let allocs = alloc::allocations();
        let start = Instant::now();
        let completed = net.run_until_all_complete(DEADLINE);
        let run_s = start.elapsed().as_secs_f64();
        let allocs = alloc::allocations() - allocs;
        let end = Instant::now();
        let completion = net.trace().completion_time().unwrap_or_else(|| net.now());
        net.finalize_meters(completion);
        let run_end_s = end.elapsed().as_secs_f64();
        let stats: Vec<_> = (0..net.len())
            .map(|i| net.medium_stats(NodeId::from_index(i)))
            .collect();
        let collisions = stats.iter().map(|s| s.collisions).sum();
        let run = Run {
            setup: self.times,
            started: start,
            run_s,
            run_end_s,
            allocs,
            completed,
            digest: digest(net.trace(), completed, collisions),
            completion,
            events: net.events_processed(),
            tx: stats.iter().map(|s| s.frames_sent).sum(),
            collisions,
            rx_locks: stats.iter().map(|s| s.rx_locks).sum(),
            rx_delivered: stats.iter().map(|s| s.frames_received).sum(),
            eeprom_writes: (0..net.len())
                .map(|i| net.protocol(NodeId::from_index(i)).eeprom_ops().line_writes)
                .sum(),
        };
        (net, run)
    }
}

/// The outcome digest: FNV-1a over the completion flag and instant,
/// every node's completion time, messages per class, collisions and the
/// total active radio time. Two runs of one scenario agree on it exactly
/// whatever the shard count, wrappers or observers.
pub fn digest(trace: &RunTrace, completed: bool, collisions: u64) -> u64 {
    const NONE: u64 = u64::MAX;
    let mut words = vec![
        u64::from(completed),
        trace.completion_time().map_or(NONE, SimTime::as_micros),
    ];
    words.extend(
        trace
            .iter()
            .map(|(_, s)| s.completion.map_or(NONE, SimTime::as_micros)),
    );
    words.extend(MsgClass::ALL.map(|c| trace.windows().total(c)));
    words.push(collisions);
    words.push(trace.iter().map(|(_, s)| s.active_radio.as_micros()).sum());
    words
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// The digests recorded for [`DEFAULT_SEED`], one per scenario.
pub fn recorded_digests(workload: Workload) -> &'static [u64] {
    const MOBILE: [u64; 24] = [
        0x4284_477c_7671_6eed,
        0x4a21_b5ec_3946_524c,
        0x68d9_f936_bf25_b834,
        0xd3de_5a74_b98d_0270,
        0x341a_5585_f41e_67a5,
        0x518d_0b84_313e_3020,
        0x75f1_b428_f763_6e72,
        0xb4ef_0a00_3e9c_5f1e,
        0x2121_8d9f_8cb3_1830,
        0x485d_06e8_fbef_7dc2,
        0x66f8_06fd_01df_431a,
        0xf0ad_262f_c3cc_7fc0,
        0xd2dd_b08f_d4c7_c5fc,
        0xf30d_7152_ccb3_cf3e,
        0x4169_50d6_9c4e_a757,
        0xe308_7a0d_db72_c3ea,
        0xacf0_1471_22f1_c472,
        0x8fc9_b6b1_59d1_2d4e,
        0x9ac0_9f35_3555_73ab,
        0xb920_67ce_910b_cef5,
        0xa584_ed52_986c_d044,
        0xccae_bd2e_898b_da2a,
        0xbf87_592a_12f1_33cb,
        0x3caa_bb29_ee06_0f5c,
    ];
    const OBSERVED: [u64; 6] = [
        0xe082_3dfa_72f9_789e,
        0xc9a2_3f0c_8bf6_4dbf,
        0x1f94_6112_9eae_a4e4,
        0x7c37_533c_1fbb_63a9,
        0x1e78_b6a6_01ee_ffca,
        0xc4b3_437b_7609_f0a9,
    ];
    match workload {
        Workload::MobileRlnc => &MOBILE,
        Workload::Observed => &OBSERVED,
    }
}
