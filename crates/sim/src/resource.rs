//! Queueing resources charged with virtual time.
//!
//! Experiments drive functional code (namespace updates, journal bytes) and
//! charge the *time* each action would have taken on the paper's CloudLab
//! testbed to a [`FifoServer`] — a single server with an unbounded FIFO queue,
//! which models the metadata server CPU and a client's local CPU. It tracks
//! busy time so experiments can report utilization (Figure 2).

use crate::time::Nanos;

/// A single-server FIFO queue.
///
/// `serve(arrival, service)` returns the completion instant of a request that
/// arrives at `arrival` and needs `service` time on the server: the request
/// waits until the server frees up, then occupies it for `service`.
///
/// Requests must be offered in non-decreasing arrival order per logical
/// stream; the discrete-event engine guarantees global time ordering.
#[derive(Debug, Clone)]
pub struct FifoServer {
    name: &'static str,
    free_at: Nanos,
    busy: Nanos,
    served: u64,
    queue_accum: u64,
}

impl FifoServer {
    /// Creates an idle server. `name` labels utilization reports.
    pub fn new(name: &'static str) -> Self {
        FifoServer {
            name,
            free_at: Nanos::ZERO,
            busy: Nanos::ZERO,
            served: 0,
            queue_accum: 0,
        }
    }

    /// Admits a request arriving at `arrival` needing `service` time and
    /// returns its completion instant.
    pub fn serve(&mut self, arrival: Nanos, service: Nanos) -> Nanos {
        let start = arrival.max(self.free_at);
        let done = start + service;
        self.free_at = done;
        self.busy += service;
        self.served += 1;
        // Track whether the request had to wait (coarse queue-depth signal).
        if start > arrival {
            self.queue_accum += 1;
        }
        done
    }

    /// The instant at which the server next becomes idle.
    pub fn free_at(&self) -> Nanos {
        self.free_at
    }

    /// Total time the server has spent servicing requests.
    pub fn busy_time(&self) -> Nanos {
        self.busy
    }

    /// Number of requests served so far.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Fraction of `horizon` the server was busy, in `[0, 1]` (can exceed 1
    /// only if `horizon` is shorter than the simulated span, which callers
    /// should avoid).
    pub fn utilization(&self, horizon: Nanos) -> f64 {
        if horizon == Nanos::ZERO {
            0.0
        } else {
            self.busy.as_secs_f64() / horizon.as_secs_f64()
        }
    }

    /// Fraction of requests that found the server busy on arrival. A cheap
    /// proxy for queueing pressure used in saturation reports.
    pub fn wait_fraction(&self) -> f64 {
        if self.served == 0 {
            0.0
        } else {
            self.queue_accum as f64 / self.served as f64
        }
    }

    /// Resource label.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_server_serves_immediately() {
        let mut s = FifoServer::new("mds");
        let done = s.serve(Nanos(100), Nanos(50));
        assert_eq!(done, Nanos(150));
        assert_eq!(s.busy_time(), Nanos(50));
        assert_eq!(s.served(), 1);
        assert_eq!(s.wait_fraction(), 0.0);
    }

    #[test]
    fn busy_server_queues() {
        let mut s = FifoServer::new("mds");
        let d1 = s.serve(Nanos(0), Nanos(100));
        // Arrives while the first request is in service: waits until 100.
        let d2 = s.serve(Nanos(10), Nanos(100));
        assert_eq!(d1, Nanos(100));
        assert_eq!(d2, Nanos(200));
        assert_eq!(s.wait_fraction(), 0.5);
    }

    #[test]
    fn server_idles_between_requests() {
        let mut s = FifoServer::new("mds");
        s.serve(Nanos(0), Nanos(10));
        let d = s.serve(Nanos(1000), Nanos(10));
        assert_eq!(d, Nanos(1010));
        // Busy 20ns over a 1010ns horizon.
        let util = s.utilization(Nanos(1010));
        assert!((util - 20.0 / 1010.0).abs() < 1e-12);
    }
}
