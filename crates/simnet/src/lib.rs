//! Discrete-event network simulator.
//!
//! The paper's §6.1 evaluation axes (throughput, latency, load, network
//! size) were measured by the surveyed systems on physical testbeds we do
//! not have. This simulator is the substitute: it reproduces
//! the *message complexity and timing structure* of a protocol — which is
//! what produces the throughput/latency shapes — without real sockets.
//!
//! Model:
//!
//! * virtual time in microseconds, advanced only by the event queue;
//! * every node runs a [`Protocol`] state machine reacting to messages and
//!   timers;
//! * links have uniform-random latency in a configurable band plus an
//!   optional drop rate; partitions block delivery between groups;
//! * all randomness derives from the run seed (two runs with equal seeds
//!   are byte-identical).

use blockprov_crypto::hmac::HmacDrbg;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Index of a node in the simulation.
pub type NodeId = usize;

/// One microsecond-resolution virtual timestamp.
pub type SimTime = u64;

/// A protocol state machine hosted on every simulated node.
pub trait Protocol {
    /// Message type exchanged between nodes.
    type Msg: Clone;

    /// Called once at time zero.
    fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg>);

    /// Called when a message is delivered.
    fn on_message(&mut self, ctx: &mut Ctx<'_, Self::Msg>, from: NodeId, msg: Self::Msg);

    /// Called when a timer set via [`Ctx::set_timer`] fires.
    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self::Msg>, timer: u64);
}

/// Network parameters for a run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Minimum one-way link latency (µs).
    pub latency_min_us: u64,
    /// Maximum one-way link latency (µs).
    pub latency_max_us: u64,
    /// Probability a message is silently dropped.
    pub drop_rate: f64,
    /// Seed for all randomness in the run.
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        // LAN-ish defaults: 0.2–2 ms one-way, lossless.
        Self {
            latency_min_us: 200,
            latency_max_us: 2_000,
            drop_rate: 0.0,
            seed: 0,
        }
    }
}

impl SimConfig {
    /// WAN-ish profile: 20–120 ms latency, 0.1% loss.
    pub fn wan(seed: u64) -> Self {
        Self {
            latency_min_us: 20_000,
            latency_max_us: 120_000,
            drop_rate: 0.001,
            seed,
        }
    }

    /// LAN profile with a custom seed.
    pub fn lan(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }
}

/// Actions a protocol can request during a callback.
enum Action<M> {
    Send { to: NodeId, msg: M },
    Broadcast { msg: M },
    SetTimer { delay_us: u64, timer: u64 },
    Halt,
}

/// Callback context: the only way a protocol interacts with the world.
pub struct Ctx<'a, M> {
    node: NodeId,
    now: SimTime,
    n_nodes: usize,
    actions: Vec<Action<M>>,
    /// Per-node deterministic randomness.
    pub rng: &'a mut HmacDrbg,
}

impl<M> Ctx<'_, M> {
    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.node
    }

    /// Current virtual time (µs).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Send a message to one peer (delivered after link latency, unless
    /// dropped or partitioned away).
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.actions.push(Action::Send { to, msg });
    }

    /// Send to every other node.
    pub fn broadcast(&mut self, msg: M) {
        self.actions.push(Action::Broadcast { msg });
    }

    /// Schedule `on_timer(timer)` after `delay_us`.
    pub fn set_timer(&mut self, delay_us: u64, timer: u64) {
        self.actions.push(Action::SetTimer { delay_us, timer });
    }

    /// Stop the whole simulation after this callback returns.
    pub fn halt(&mut self) {
        self.actions.push(Action::Halt);
    }
}

enum Event<M> {
    Deliver { from: NodeId, to: NodeId, msg: M },
    Timer { node: NodeId, timer: u64 },
}

struct Scheduled<M> {
    at: SimTime,
    seq: u64,
    event: Event<M>,
}

impl<M> PartialEq for Scheduled<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<M> Eq for Scheduled<M> {}
impl<M> PartialOrd for Scheduled<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Scheduled<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Counters collected during a run.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct SimMetrics {
    /// Messages handed to the network layer.
    pub sent: u64,
    /// Messages delivered to a protocol.
    pub delivered: u64,
    /// Messages dropped by loss.
    pub dropped: u64,
    /// Messages blocked by a partition.
    pub partitioned: u64,
    /// Timers fired.
    pub timers: u64,
    /// Events processed in total.
    pub events: u64,
}

/// The simulator: owns the nodes, the clock and the event queue.
pub struct Simulation<P: Protocol> {
    nodes: Vec<P>,
    rngs: Vec<HmacDrbg>,
    groups: Vec<u32>,
    queue: BinaryHeap<Reverse<Scheduled<P::Msg>>>,
    now: SimTime,
    seq: u64,
    net_rng: HmacDrbg,
    config: SimConfig,
    halted: bool,
    started: bool,
    /// Run metrics, readable at any point.
    pub metrics: SimMetrics,
}

impl<P: Protocol> Simulation<P> {
    /// Create a simulation over the given nodes.
    pub fn new(nodes: Vec<P>, config: SimConfig) -> Self {
        let n = nodes.len();
        let mk = |label: &str, i: usize| {
            let mut seed = Vec::with_capacity(24);
            seed.extend_from_slice(label.as_bytes());
            seed.extend_from_slice(&config.seed.to_le_bytes());
            seed.extend_from_slice(&(i as u64).to_le_bytes());
            HmacDrbg::new(&seed)
        };
        Self {
            rngs: (0..n).map(|i| mk("node", i)).collect(),
            groups: vec![0; n],
            queue: BinaryHeap::new(),
            now: 0,
            seq: 0,
            net_rng: mk("net", usize::MAX - 1),
            config,
            halted: false,
            started: false,
            metrics: SimMetrics::default(),
            nodes,
        }
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Current virtual time (µs).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Borrow a node's protocol state (for assertions after a run).
    pub fn node(&self, id: NodeId) -> &P {
        &self.nodes[id]
    }

    /// Iterate over all node states.
    pub fn nodes(&self) -> impl Iterator<Item = &P> {
        self.nodes.iter()
    }

    /// Split the network: nodes in the same group can talk, others cannot.
    ///
    /// `groups[node] = group id`. Panics if the slice length mismatches.
    pub fn set_partition(&mut self, groups: &[u32]) {
        assert_eq!(groups.len(), self.nodes.len(), "one group per node");
        self.groups.copy_from_slice(groups);
    }

    /// Remove any partition.
    pub fn heal_partition(&mut self) {
        self.groups.iter_mut().for_each(|g| *g = 0);
    }

    fn push(&mut self, at: SimTime, event: Event<P::Msg>) {
        self.seq += 1;
        self.queue.push(Reverse(Scheduled {
            at,
            seq: self.seq,
            event,
        }));
    }

    fn route(&mut self, from: NodeId, to: NodeId, msg: P::Msg) {
        self.metrics.sent += 1;
        if self.groups[from] != self.groups[to] {
            self.metrics.partitioned += 1;
            return;
        }
        if self.config.drop_rate > 0.0 && self.net_rng.chance(self.config.drop_rate) {
            self.metrics.dropped += 1;
            return;
        }
        let span = self
            .config
            .latency_max_us
            .saturating_sub(self.config.latency_min_us);
        let latency = self.config.latency_min_us
            + if span == 0 {
                0
            } else {
                self.net_rng.gen_range(span + 1)
            };
        self.push(self.now + latency, Event::Deliver { from, to, msg });
    }

    fn apply_actions(&mut self, node: NodeId, actions: Vec<Action<P::Msg>>) {
        for action in actions {
            match action {
                Action::Send { to, msg } => self.route(node, to, msg),
                Action::Broadcast { msg } => {
                    for to in 0..self.nodes.len() {
                        if to != node {
                            self.route(node, to, msg.clone());
                        }
                    }
                }
                Action::SetTimer { delay_us, timer } => {
                    self.push(self.now + delay_us, Event::Timer { node, timer });
                }
                Action::Halt => self.halted = true,
            }
        }
    }

    fn start_if_needed(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.nodes.len() {
            let mut ctx = Ctx {
                node: i,
                now: self.now,
                n_nodes: self.nodes.len(),
                actions: Vec::new(),
                rng: &mut self.rngs[i],
            };
            self.nodes[i].on_start(&mut ctx);
            let actions = ctx.actions;
            self.apply_actions(i, actions);
        }
    }

    /// Process a single event. Returns false when the queue is empty or the
    /// simulation halted.
    pub fn step(&mut self) -> bool {
        self.start_if_needed();
        if self.halted {
            return false;
        }
        let Some(Reverse(Scheduled { at, event, .. })) = self.queue.pop() else {
            return false;
        };
        debug_assert!(at >= self.now, "time must not run backwards");
        self.now = at;
        self.metrics.events += 1;
        match event {
            Event::Deliver { from, to, msg } => {
                self.metrics.delivered += 1;
                let mut ctx = Ctx {
                    node: to,
                    now: self.now,
                    n_nodes: self.nodes.len(),
                    actions: Vec::new(),
                    rng: &mut self.rngs[to],
                };
                self.nodes[to].on_message(&mut ctx, from, msg);
                let actions = ctx.actions;
                self.apply_actions(to, actions);
            }
            Event::Timer { node, timer } => {
                self.metrics.timers += 1;
                let mut ctx = Ctx {
                    node,
                    now: self.now,
                    n_nodes: self.nodes.len(),
                    actions: Vec::new(),
                    rng: &mut self.rngs[node],
                };
                self.nodes[node].on_timer(&mut ctx, timer);
                let actions = ctx.actions;
                self.apply_actions(node, actions);
            }
        }
        !self.halted
    }

    /// Run until the next event would pass `deadline_us`, the queue drains,
    /// or the protocol halts. Returns the stop time.
    pub fn run_until(&mut self, deadline_us: SimTime) -> SimTime {
        self.start_if_needed();
        while let Some(Reverse(head)) = self.queue.peek() {
            if head.at > deadline_us || self.halted {
                break;
            }
            self.step();
        }
        self.now
    }

    /// Run until no events remain or the protocol halts. `max_events` guards
    /// against livelock (heartbeat protocols never drain on their own).
    pub fn run_to_quiescence(&mut self, max_events: u64) -> SimTime {
        self.start_if_needed();
        let mut processed = 0;
        while processed < max_events && self.step() {
            processed += 1;
        }
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Flood protocol: node 0 gossips a token; everyone re-broadcasts once.
    struct Flood {
        seen: bool,
        origin: bool,
        heard_at: Option<SimTime>,
    }

    impl Protocol for Flood {
        type Msg = u64;
        fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
            if self.origin {
                self.seen = true;
                self.heard_at = Some(ctx.now());
                ctx.broadcast(42);
            }
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, _from: NodeId, msg: u64) {
            if !self.seen {
                self.seen = true;
                self.heard_at = Some(ctx.now());
                ctx.broadcast(msg);
            }
        }
        fn on_timer(&mut self, _ctx: &mut Ctx<'_, u64>, _timer: u64) {}
    }

    fn flood_nodes(n: usize) -> Vec<Flood> {
        (0..n)
            .map(|i| Flood {
                seen: false,
                origin: i == 0,
                heard_at: None,
            })
            .collect()
    }

    #[test]
    fn flood_reaches_everyone() {
        let mut sim = Simulation::new(flood_nodes(10), SimConfig::lan(7));
        sim.run_to_quiescence(1_000_000);
        assert!(sim.nodes().all(|n| n.seen));
        assert!(sim.metrics.delivered > 0);
    }

    #[test]
    fn identical_seeds_reproduce_identical_runs() {
        let run = |seed| {
            let mut sim = Simulation::new(flood_nodes(8), SimConfig::lan(seed));
            sim.run_to_quiescence(1_000_000);
            (sim.now(), sim.metrics.clone())
        };
        assert_eq!(run(3), run(3));
        assert_ne!(
            run(3).0,
            run(4).0,
            "different seeds should differ in timing"
        );
    }

    #[test]
    fn partition_blocks_delivery_and_heals() {
        let mut sim = Simulation::new(flood_nodes(6), SimConfig::lan(1));
        // {0,1,2} vs {3,4,5}
        sim.set_partition(&[0, 0, 0, 1, 1, 1]);
        sim.run_to_quiescence(1_000_000);
        assert!(sim.node(1).seen && sim.node(2).seen);
        assert!(!sim.node(3).seen && !sim.node(4).seen && !sim.node(5).seen);
        assert!(sim.metrics.partitioned > 0);
    }

    #[test]
    fn full_drop_rate_stops_everything() {
        let cfg = SimConfig {
            drop_rate: 1.0,
            ..SimConfig::lan(5)
        };
        let mut sim = Simulation::new(flood_nodes(4), cfg);
        sim.run_to_quiescence(1_000_000);
        assert!(!sim.node(1).seen);
        assert_eq!(sim.metrics.delivered, 0);
        assert_eq!(sim.metrics.dropped, sim.metrics.sent);
    }

    #[test]
    fn latency_band_is_respected() {
        // With exactly one hop, every delivery time must be in the band.
        struct OneShot {
            got: Option<SimTime>,
        }
        impl Protocol for OneShot {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                if ctx.id() == 0 {
                    ctx.send(1, ());
                }
            }
            fn on_message(&mut self, ctx: &mut Ctx<'_, ()>, _f: NodeId, _m: ()) {
                self.got = Some(ctx.now());
            }
            fn on_timer(&mut self, _ctx: &mut Ctx<'_, ()>, _t: u64) {}
        }
        let cfg = SimConfig {
            latency_min_us: 500,
            latency_max_us: 700,
            drop_rate: 0.0,
            seed: 2,
        };
        let mut sim = Simulation::new(vec![OneShot { got: None }, OneShot { got: None }], cfg);
        sim.run_to_quiescence(100);
        let t = sim.node(1).got.expect("delivered");
        assert!((500..=700).contains(&t), "latency {t} outside band");
    }

    #[test]
    fn timers_fire_in_order() {
        struct Timers {
            fired: Vec<u64>,
        }
        impl Protocol for Timers {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                ctx.set_timer(300, 3);
                ctx.set_timer(100, 1);
                ctx.set_timer(200, 2);
            }
            fn on_message(&mut self, _ctx: &mut Ctx<'_, ()>, _f: NodeId, _m: ()) {}
            fn on_timer(&mut self, _ctx: &mut Ctx<'_, ()>, timer: u64) {
                self.fired.push(timer);
            }
        }
        let mut sim = Simulation::new(vec![Timers { fired: vec![] }], SimConfig::lan(0));
        sim.run_to_quiescence(100);
        assert_eq!(sim.node(0).fired, vec![1, 2, 3]);
        assert_eq!(sim.metrics.timers, 3);
    }

    #[test]
    fn halt_stops_the_run() {
        struct Halter;
        impl Protocol for Halter {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                ctx.set_timer(10, 0);
                ctx.set_timer(20, 1);
            }
            fn on_message(&mut self, _ctx: &mut Ctx<'_, ()>, _f: NodeId, _m: ()) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_, ()>, timer: u64) {
                if timer == 0 {
                    ctx.halt();
                }
            }
        }
        let mut sim = Simulation::new(vec![Halter], SimConfig::lan(0));
        sim.run_to_quiescence(1_000);
        assert_eq!(
            sim.metrics.timers, 1,
            "second timer must not fire after halt"
        );
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut sim = Simulation::new(flood_nodes(4), SimConfig::lan(9));
        let stop = sim.run_until(50); // shorter than min latency
        assert!(stop <= 200, "no delivery can happen before min latency");
        assert_eq!(sim.metrics.delivered, 0);
    }

    #[test]
    fn broadcast_fans_out_to_n_minus_one() {
        let mut sim = Simulation::new(flood_nodes(5), SimConfig::lan(11));
        sim.run_to_quiescence(1_000_000);
        // Every node broadcasts exactly once: 5 * 4 sends.
        assert_eq!(sim.metrics.sent, 20);
    }
}
