//! Timed resources: small building blocks the hardware models compose.
//!
//! These are *timing* abstractions, not queues of work items: a caller asks
//! "if a job of this service time is submitted now, when does it start and
//! finish?" and the resource advances its internal availability. The caller
//! (the simulation world) is responsible for scheduling a completion event
//! at the returned finish time. This keeps the resources trivially
//! composable: a PCIe copy engine, a NIC serializing packets, and a GPU
//! compute engine are all [`FifoServer`]s with different service-time
//! formulas.

use crate::time::{SimDuration, SimTime};

/// A single server processing jobs in submission order (M/G/1-style
/// occupancy without an explicit job queue).
#[derive(Debug, Clone)]
pub struct FifoServer {
    next_free: SimTime,
    busy: SimDuration,
    jobs: u64,
}

impl FifoServer {
    /// A server idle since time zero.
    pub fn new() -> FifoServer {
        FifoServer {
            next_free: SimTime::ZERO,
            busy: SimDuration::ZERO,
            jobs: 0,
        }
    }

    /// Submit a job at `now` with the given service time; returns
    /// `(start, finish)`. The job starts when the server frees up.
    pub fn submit(&mut self, now: SimTime, service: SimDuration) -> (SimTime, SimTime) {
        let start = self.next_free.max(now);
        let finish = start + service;
        self.next_free = finish;
        self.busy += service;
        self.jobs += 1;
        (start, finish)
    }

    /// When the server next becomes idle (given jobs submitted so far).
    #[inline]
    pub(crate) fn next_free(&self) -> SimTime {
        self.next_free
    }

    /// Total busy time accumulated.
    #[inline]
    pub fn busy_time(&self) -> SimDuration {
        self.busy
    }

    /// Number of jobs submitted.
    #[inline]
    pub fn jobs(&self) -> u64 {
        self.jobs
    }

    /// Utilization in `[0, 1]` over the interval `[0, horizon]`.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        if horizon == SimTime::ZERO {
            return 0.0;
        }
        (self.busy.as_nanos() as f64 / horizon.as_nanos() as f64).min(1.0)
    }
}

impl Default for FifoServer {
    fn default() -> Self {
        Self::new()
    }
}

/// A pool of `k` identical servers; each job takes the earliest-free one.
#[derive(Debug, Clone)]
pub struct MultiServer {
    servers: Vec<FifoServer>,
}

impl MultiServer {
    /// Create a pool of `k >= 1` servers.
    pub fn new(k: usize) -> MultiServer {
        assert!(k >= 1, "MultiServer needs at least one server");
        MultiServer {
            servers: vec![FifoServer::new(); k],
        }
    }

    /// Number of servers in the pool.
    #[inline]
    pub fn len(&self) -> usize {
        self.servers.len()
    }

    /// Always false; pools have at least one server.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Submit a job at `now`; returns `(server_index, start, finish)`.
    pub fn submit(&mut self, now: SimTime, service: SimDuration) -> (usize, SimTime, SimTime) {
        let (idx, _) = self
            .servers
            .iter()
            .enumerate()
            .min_by_key(|(i, s)| (s.next_free(), *i))
            .expect("pool is non-empty");
        let (start, finish) = self.servers[idx].submit(now, service);
        (idx, start, finish)
    }

    /// Aggregate utilization over `[0, horizon]`.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        if horizon == SimTime::ZERO {
            return 0.0;
        }
        let busy: u64 = self.servers.iter().map(|s| s.busy_time().as_nanos()).sum();
        (busy as f64 / (horizon.as_nanos() as f64 * self.servers.len() as f64)).min(1.0)
    }
}

/// A bandwidth-and-latency pipe: messages serialize on the pipe at
/// `bytes / bandwidth`, then take a fixed propagation latency to arrive.
/// Models a NIC uplink or a PCIe direction.
#[derive(Debug, Clone)]
pub struct Pipe {
    server: FifoServer,
    /// Payload bandwidth in bytes per second.
    pub bandwidth_bps: f64,
    /// Per-message fixed cost paid on the pipe (driver/protocol overhead).
    pub per_message: SimDuration,
    /// Propagation latency added after serialization completes.
    pub latency: SimDuration,
}

impl Pipe {
    /// Create a pipe with the given bandwidth (bytes/second), per-message
    /// overhead and propagation latency.
    pub fn new(bandwidth_bps: f64, per_message: SimDuration, latency: SimDuration) -> Pipe {
        assert!(bandwidth_bps > 0.0, "bandwidth must be positive");
        Pipe {
            server: FifoServer::new(),
            bandwidth_bps,
            per_message,
            latency,
        }
    }

    /// Time to serialize `bytes` on this pipe, excluding queueing/latency.
    pub(crate) fn service_time(&self, bytes: u64) -> SimDuration {
        self.per_message + SimDuration::from_secs_f64(bytes as f64 / self.bandwidth_bps)
    }

    /// Send a message of `bytes` at `now`; returns its arrival time at the
    /// far end.
    pub fn send(&mut self, now: SimTime, bytes: u64) -> SimTime {
        let service = self.service_time(bytes);
        let (_, finished) = self.server.submit(now, service);
        finished + self.latency
    }

    /// Total busy (serialization) time on the pipe.
    pub fn busy_time(&self) -> SimDuration {
        self.server.busy_time()
    }

    /// Messages sent.
    pub fn messages(&self) -> u64 {
        self.server.jobs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl MultiServer {
        /// Earliest time any server becomes free.
        fn earliest_free(&self) -> SimTime {
            self.servers
                .iter()
                .map(|s| s.next_free())
                .min()
                .expect("pool is non-empty")
        }
    }

    #[test]
    fn fifo_server_serializes_jobs() {
        let mut s = FifoServer::new();
        let (a0, a1) = s.submit(SimTime(0), SimDuration(100));
        let (b0, b1) = s.submit(SimTime(10), SimDuration(50));
        assert_eq!((a0, a1), (SimTime(0), SimTime(100)));
        assert_eq!((b0, b1), (SimTime(100), SimTime(150)));
        assert_eq!(s.busy_time(), SimDuration(150));
        assert_eq!(s.jobs(), 2);
    }

    #[test]
    fn fifo_server_idles_between_jobs() {
        let mut s = FifoServer::new();
        s.submit(SimTime(0), SimDuration(10));
        let (start, finish) = s.submit(SimTime(100), SimDuration(10));
        assert_eq!((start, finish), (SimTime(100), SimTime(110)));
        assert!((s.utilization(SimTime(110)) - 20.0 / 110.0).abs() < 1e-9);
    }

    #[test]
    fn multi_server_spreads_load() {
        let mut m = MultiServer::new(2);
        let (i0, s0, f0) = m.submit(SimTime(0), SimDuration(100));
        let (i1, s1, f1) = m.submit(SimTime(0), SimDuration(100));
        let (_i2, s2, _) = m.submit(SimTime(0), SimDuration(100));
        assert_ne!(i0, i1);
        assert_eq!((s0, s1), (SimTime(0), SimTime(0)));
        assert_eq!(s2, SimTime(100));
        assert_eq!(f0.max(f1), SimTime(100));
        assert_eq!(m.earliest_free(), SimTime(100));
    }

    #[test]
    fn pipe_accounts_for_bandwidth_and_latency() {
        // 1000 bytes/s, 5ns per message, 10ns latency.
        let mut p = Pipe::new(1000.0, SimDuration(5), SimDuration(10));
        // 1000 bytes => 1s serialization.
        let arrival = p.send(SimTime(0), 1000);
        assert_eq!(arrival, SimTime(1_000_000_000 + 5 + 10));
        // Second message queues behind the first's serialization.
        let arrival2 = p.send(SimTime(0), 1000);
        assert_eq!(arrival2, SimTime(2 * (1_000_000_000 + 5) + 10));
        assert_eq!(p.messages(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn empty_pool_rejected() {
        let _ = MultiServer::new(0);
    }
}
