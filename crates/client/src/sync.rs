//! Namespace sync: periodic partial updates from a decoupled client back
//! to the global namespace (the Figure 6c mechanism).
//!
//! "Cudele clients have a 'namespace sync' that sends batches of updates
//! back to the global namespace at regular intervals. [...] The client
//! only pauses to fork off a background process, which is expensive as the
//! address space needs to be copied." The fork cost model (base + copy at
//! memory bandwidth + a page-cache-pressure knee) lives in
//! [`CostModel::fork_cost`]; this module tracks *when* syncs fire and how
//! much resident journal each one ships.

use cudele_sim::{CostModel, Nanos};

/// One sync event: what the client paused for and what the background
/// child ships.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyncAction {
    /// Foreground pause: the fork (address-space copy) cost.
    pub pause: Nanos,
    /// Updates shipped by the background child.
    pub events: u64,
    /// Their calibrated journal size in bytes.
    pub bytes: u64,
}

/// Periodic namespace-sync scheduler for one decoupled client.
#[derive(Debug, Clone)]
pub struct NamespaceSync {
    interval: Nanos,
    next_sync: Nanos,
    /// Events already shipped to the global namespace.
    synced_events: u64,
    /// Total syncs fired.
    pub syncs: u64,
}

impl NamespaceSync {
    /// A scheduler firing every `interval`, first at `interval`.
    pub fn new(interval: Nanos) -> NamespaceSync {
        assert!(interval > Nanos::ZERO);
        NamespaceSync {
            interval,
            next_sync: interval,
            synced_events: 0,
            syncs: 0,
        }
    }

    /// The configured interval.
    pub fn interval(&self) -> Nanos {
        self.interval
    }

    /// Events visible to the global namespace so far (what an end-user's
    /// `ls` would show — partial progress).
    pub fn synced_events(&self) -> u64 {
        self.synced_events
    }

    /// Checks whether a sync is due at `now`, given that the client has
    /// appended `total_events` so far. Fires at most once per call; the
    /// caller invokes it once per operation (operations are far more
    /// frequent than syncs).
    pub fn poll(&mut self, now: Nanos, total_events: u64, cm: &CostModel) -> Option<SyncAction> {
        if now < self.next_sync {
            return None;
        }
        self.next_sync = now + self.interval;
        self.ship(total_events, cm)
    }

    /// Ships whatever is pending regardless of the schedule (end-of-job
    /// flush).
    pub fn flush(&mut self, total_events: u64, cm: &CostModel) -> Option<SyncAction> {
        self.ship(total_events, cm)
    }

    /// One sync: forks a child that ships everything appended since the
    /// last one, if anything was.
    fn ship(&mut self, total_events: u64, cm: &CostModel) -> Option<SyncAction> {
        let pending = total_events.saturating_sub(self.synced_events);
        if pending == 0 {
            return None;
        }
        let bytes = cm.journal_bytes(pending);
        let pause = cm.fork_cost(bytes);
        self.synced_events = total_events;
        self.syncs += 1;
        Some(SyncAction {
            pause,
            events: pending,
            bytes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_on_schedule() {
        let cm = CostModel::calibrated();
        let mut s = NamespaceSync::new(Nanos::from_secs(10));
        assert!(s.poll(Nanos::from_secs(5), 1000, &cm).is_none());
        let a = s.poll(Nanos::from_secs(10), 1000, &cm).unwrap();
        assert_eq!(a.events, 1000);
        assert_eq!(a.bytes, cm.journal_bytes(1000));
        assert!(a.pause >= cm.fork_base);
        // Not again until the next interval.
        assert!(s.poll(Nanos::from_secs(12), 1500, &cm).is_none());
        let b = s.poll(Nanos::from_secs(20), 1500, &cm).unwrap();
        assert_eq!(b.events, 500);
        assert_eq!(s.syncs, 2);
        assert_eq!(s.synced_events(), 1500);
    }

    #[test]
    fn no_pending_means_no_sync() {
        let cm = CostModel::calibrated();
        let mut s = NamespaceSync::new(Nanos::SECOND);
        assert!(s.poll(Nanos::from_secs(5), 0, &cm).is_none());
        // Interval was still consumed; next fire is at now + interval.
        s.poll(Nanos::from_secs(6), 10, &cm).unwrap();
    }

    #[test]
    fn bigger_batches_pause_longer() {
        let cm = CostModel::calibrated();
        let mut s1 = NamespaceSync::new(Nanos::SECOND);
        let mut s25 = NamespaceSync::new(Nanos::from_secs(25));
        // ~11K events/sec of appends.
        let small = s1.poll(Nanos::SECOND, 11_000, &cm).unwrap();
        let big = s25.poll(Nanos::from_secs(25), 275_000, &cm).unwrap();
        assert!(big.pause > small.pause);
        // The 25s batch crosses the memory-pressure knee (~687 MB).
        assert!(big.bytes > cm.memory_pressure_threshold);
    }

    #[test]
    fn flush_ships_remainder() {
        let cm = CostModel::calibrated();
        let mut s = NamespaceSync::new(Nanos::from_secs(10));
        s.poll(Nanos::from_secs(10), 100, &cm).unwrap();
        let f = s.flush(150, &cm).unwrap();
        assert_eq!(f.events, 50);
        assert!(s.flush(150, &cm).is_none());
    }
}
