//! The cluster interconnect model: switched gigabit Ethernet, as in the
//! paper's testbed.
//!
//! Each node has a full-duplex NIC modeled as two
//! [`anthill_simkit::Pipe`]s (uplink for sends, downlink for receives);
//! messages serialize on the sender's uplink, cross the switch with a fixed
//! latency, and then serialize on the receiver's downlink. Loopback
//! messages (same node) skip the NIC entirely and only pay a small
//! in-memory handoff cost — streams between co-located filter instances are
//! cheap, which the paper exploits by fusing the NBIA GPU filters.

use anthill_simkit::{Pipe, SimDuration, SimTime};

use crate::spec::NodeId;

/// Network timing parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct NetParams {
    /// NIC bandwidth, bytes/s (each direction).
    pub bandwidth_bps: f64,
    /// Fixed per-message protocol/stack overhead on each NIC.
    pub per_message: SimDuration,
    /// One-way switch + wire latency.
    pub switch_latency: SimDuration,
    /// Cost of handing a message to a co-located filter instance.
    pub loopback: SimDuration,
    /// Messages at or below this size travel on the control path: they
    /// interleave with bulk transfers at packet granularity (as separate
    /// TCP connections do) instead of queueing behind them.
    pub control_cutoff: u64,
}

impl NetParams {
    /// Switched gigabit Ethernet, calibrated to commodity 2010 clusters:
    /// ~118 MB/s payload bandwidth, ~55 µs one-way small-message latency.
    pub fn gigabit_ethernet() -> NetParams {
        NetParams {
            bandwidth_bps: 118.0e6,
            per_message: SimDuration::from_micros(20),
            switch_latency: SimDuration::from_micros(35),
            loopback: SimDuration::from_micros(3),
            control_cutoff: 1_500,
        }
    }
}

/// The state of the cluster interconnect: one full-duplex NIC per node.
#[derive(Debug, Clone)]
pub struct Network {
    params: NetParams,
    uplinks: Vec<Pipe>,
    downlinks: Vec<Pipe>,
}

impl Network {
    /// A network connecting `nodes` nodes.
    pub fn new(nodes: usize, params: NetParams) -> Network {
        let mk = || Pipe::new(params.bandwidth_bps, params.per_message, SimDuration::ZERO);
        Network {
            uplinks: (0..nodes).map(|_| mk()).collect(),
            downlinks: (0..nodes).map(|_| mk()).collect(),
            params,
        }
    }

    /// Number of nodes attached.
    pub fn nodes(&self) -> usize {
        self.uplinks.len()
    }

    /// Send `bytes` from node `from` to node `to` at `now`; returns the
    /// delivery time at `to`.
    pub fn send(&mut self, now: SimTime, from: NodeId, to: NodeId, bytes: u64) -> SimTime {
        if from == to {
            return now + self.params.loopback;
        }
        if bytes <= self.params.control_cutoff {
            // Control-plane message: one MTU, packet-interleaved with bulk
            // traffic — pays latency and serialization but never queues
            // behind large transfers.
            let serialize = SimDuration::from_secs_f64(bytes as f64 / self.params.bandwidth_bps);
            return now + self.params.per_message * 2 + serialize + self.params.switch_latency;
        }
        let sent = self.uplinks[from].send(now, bytes);
        let at_switch = sent + self.params.switch_latency;
        // The message then serializes on the receiver's downlink, which is
        // itself a FIFO pipe (queueing handled internally).
        self.downlinks[to].send(at_switch, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Network {
        /// Total bytes-serialization busy time on a node's uplink.
        fn uplink_busy(&self, node: NodeId) -> SimDuration {
            self.uplinks[node].busy_time()
        }

        /// Messages sent from a node.
        fn messages_from(&self, node: NodeId) -> u64 {
            self.uplinks[node].messages()
        }
    }

    #[test]
    fn loopback_is_cheap_and_bandwidth_free() {
        let mut n = Network::new(2, NetParams::gigabit_ethernet());
        let t = n.send(SimTime::ZERO, 0, 0, 100 << 20);
        assert_eq!(t, SimTime::ZERO + NetParams::gigabit_ethernet().loopback);
        assert_eq!(n.messages_from(0), 0);
    }

    #[test]
    fn large_transfer_is_bandwidth_bound() {
        let p = NetParams::gigabit_ethernet();
        let mut n = Network::new(2, p.clone());
        // 118 MB at 118 MB/s: ~1s on uplink + ~1s on downlink.
        let t = n.send(SimTime::ZERO, 0, 1, 118_000_000);
        let secs = t.as_secs_f64();
        assert!((1.9..2.2).contains(&secs), "took {secs}s");
    }

    #[test]
    fn small_messages_are_latency_bound() {
        let p = NetParams::gigabit_ethernet();
        let mut n = Network::new(2, p);
        let t = n.send(SimTime::ZERO, 0, 1, 64);
        let us = t.as_secs_f64() * 1e6;
        assert!((50.0..150.0).contains(&us), "took {us}us");
    }

    #[test]
    fn sender_uplink_serializes_messages() {
        let mut n = Network::new(3, NetParams::gigabit_ethernet());
        let t1 = n.send(SimTime::ZERO, 0, 1, 1_000_000);
        let t2 = n.send(SimTime::ZERO, 0, 2, 1_000_000);
        assert!(t2 > t1, "second message must queue behind the first");
        // Different senders do not interfere.
        let mut m = Network::new(3, NetParams::gigabit_ethernet());
        let u1 = m.send(SimTime::ZERO, 0, 2, 1_000_000);
        let u2 = m.send(SimTime::ZERO, 1, 2, 1_000_000);
        // Both serialize on node 2's downlink, so the second is delayed,
        // but no more than when sharing the uplink as well.
        assert!(u2 > u1);
        assert!(u2 <= t2);
    }

    #[test]
    fn bulk_messages_are_counted_on_the_uplink() {
        let mut n = Network::new(2, NetParams::gigabit_ethernet());
        n.send(SimTime::ZERO, 0, 1, 10_000);
        n.send(SimTime::ZERO, 0, 1, 10_000);
        assert_eq!(n.messages_from(0), 2);
        assert_eq!(n.messages_from(1), 0);
        assert!(n.uplink_busy(0) > SimDuration::ZERO);
    }

    #[test]
    fn control_messages_bypass_bulk_queueing() {
        let mut n = Network::new(2, NetParams::gigabit_ethernet());
        // Saturate the uplink with a 10 MB transfer (~85 ms).
        let bulk = n.send(SimTime::ZERO, 0, 1, 10 << 20);
        // A 64-byte request sent just after still arrives in ~100 µs.
        let req = n.send(SimTime(1), 0, 1, 64);
        assert!(req.as_secs_f64() < 0.001, "request took {req}");
        assert!(bulk.as_secs_f64() > 0.08, "bulk took {bulk}");
        // Control messages are not counted as uplink bulk traffic.
        assert_eq!(n.messages_from(0), 1);
    }
}
