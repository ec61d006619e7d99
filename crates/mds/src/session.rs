//! Client sessions and inode preallocation.
//!
//! "The inode cache has code for manipulating inode numbers, such as
//! pre-allocating inodes to clients." Cudele leans on this for the
//! allocated-inode contract: a decoupled client declares how many files it
//! intends to create, the MDS reserves that range, and the merge skips
//! inodes the client used.

use cudele_journal::{InodeId, InodeRange};
use cudele_sim::IntMap;

use crate::caps::ClientId;
use crate::error::{MdsError, Result};

/// Monotonic allocator over the dynamic inode space.
#[derive(Debug, Clone)]
pub struct InodeAllocator {
    next: u64,
}

impl InodeAllocator {
    /// An allocator starting at the first dynamic inode.
    pub fn new() -> InodeAllocator {
        InodeAllocator {
            next: InodeId::FIRST_DYNAMIC.0,
        }
    }

    /// Reserves `len` consecutive inode numbers, or refuses with
    /// [`MdsError::NoInodes`], changing nothing, when the range would run
    /// past the last inode number.
    pub fn allocate(&mut self, len: u64) -> Result<InodeRange> {
        let start = InodeId(self.next);
        self.next = self.end_after(len)?;
        Ok(InodeRange::new(start, len))
    }

    /// [`InodeAllocator::allocate`]'s refusal without the reservation:
    /// `Ok` when `len` more inode numbers fit.
    pub fn check(&self, len: u64) -> Result<()> {
        self.end_after(len).map(drop)
    }

    /// The watermark after `len` more inode numbers: the one checked add.
    fn end_after(&self, len: u64) -> Result<u64> {
        self.next.checked_add(len).ok_or(MdsError::NoInodes)
    }

    /// First unallocated inode number (diagnostics).
    pub fn watermark(&self) -> InodeId {
        InodeId(self.next)
    }

    /// Raises the watermark to at least `watermark`: every inode below it
    /// is treated as already handed out. Recovery rebuilds the allocator by
    /// folding journaled grants and observed inodes through this; reconnect
    /// uses it to step past ranges surviving clients reassert. Never lowers
    /// the watermark.
    pub fn advance_to(&mut self, watermark: InodeId) {
        self.next = self.next.max(watermark.0);
    }
}

impl Default for InodeAllocator {
    fn default() -> Self {
        InodeAllocator::new()
    }
}

/// One client's server-side session state.
#[derive(Debug, Clone)]
pub struct Session {
    /// The session's client.
    pub client: ClientId,
    /// The newest preallocated range, the one inodes are taken from; `None`
    /// before the first grant.
    working: Option<InodeRange>,
    /// Ranges granted before `working`, oldest first. Only a second grant
    /// or a restore pushes here, so a one-grant session allocates nothing.
    older: Vec<InodeRange>,
    /// Next unused offset into the newest range.
    cursor: u64,
    /// Operations served for this session (diagnostics).
    pub ops: u64,
}

impl Session {
    fn new(client: ClientId) -> Session {
        Session {
            client,
            working: None,
            older: Vec::new(),
            cursor: 0,
            ops: 0,
        }
    }

    /// Inode ranges preallocated to this client, oldest first.
    pub fn ranges(&self) -> impl Iterator<Item = InodeRange> + '_ {
        self.older.iter().copied().chain(self.working)
    }

    /// Takes the next preallocated inode, if any remain.
    pub fn take_inode(&mut self) -> Option<InodeId> {
        let range = self.working?;
        if self.cursor >= range.len {
            return None;
        }
        let ino = InodeId(range.start.0 + self.cursor);
        self.cursor += 1;
        Some(ino)
    }

    /// Inodes still unused in the newest range.
    pub fn remaining(&self) -> u64 {
        self.working
            .map_or(0, |r| r.len.saturating_sub(self.cursor))
    }

    /// Makes `range` the working range, keeping the one it replaces.
    fn push(&mut self, range: InodeRange) {
        if let Some(old) = self.working.replace(range) {
            self.older.push(old);
        }
    }

    fn grant(&mut self, range: InodeRange) {
        self.push(range);
        self.cursor = 0;
    }

    /// Re-registers a surviving preallocated range after a reconnect, with
    /// the first `used` inodes already consumed by pre-failover operations.
    fn restore(&mut self, range: InodeRange, used: u64) {
        self.push(range);
        self.cursor = used.min(range.len);
    }

    /// Rebinds a recycled slot to a new client, keeping the older-range
    /// vector's allocation.
    fn reset(&mut self, client: ClientId) {
        self.client = client;
        self.working = None;
        self.older.clear();
        self.cursor = 0;
        self.ops = 0;
    }
}

/// All sessions on one MDS, stored in a slot arena.
///
/// Open-loop traffic opens a session per arrival — a million short-lived
/// clients under `mdbench --arrival` each add one here. Those clients never
/// close their sessions (no harness process calls
/// [`MetadataServer::close_session`](crate::MetadataServer::close_session)),
/// so a run ends with one live session, and its inode grant, per arrival.
/// Sessions live in a flat `Vec` whose slots are recycled through a free
/// list: a closed session's slot (and its older-range vector's allocation)
/// goes to the next open instead of being freed, and the per-client index
/// maps `ClientId -> slot`, hashed by [`IntHasher`](cudele_sim::IntHasher):
/// it is probed on every RPC, and client ids are program-issued.
#[derive(Debug, Clone, Default)]
pub struct SessionMap {
    /// Slot storage; a slot is live iff some `index` entry points at it.
    slots: Vec<Session>,
    /// Recycled slot indices, most recently closed last (LIFO reuse keeps
    /// the hot slot cache-warm).
    free: Vec<u32>,
    /// Live sessions: client -> slot.
    index: IntMap<ClientId, u32>,
}

impl SessionMap {
    /// An empty session map.
    pub fn new() -> SessionMap {
        SessionMap::default()
    }

    /// Opens a session (idempotent). Recycles a closed session's slot when
    /// one is free.
    pub fn open(&mut self, client: ClientId) -> &mut Session {
        let slot = match self.index.get(&client) {
            Some(&s) => s,
            None => {
                let s = match self.free.pop() {
                    Some(s) => {
                        self.slots[s as usize].reset(client);
                        s
                    }
                    None => {
                        self.slots.push(Session::new(client));
                        (self.slots.len() - 1) as u32
                    }
                };
                self.index.insert(client, s);
                s
            }
        };
        &mut self.slots[slot as usize]
    }

    /// The session for `client`, or a no-session error.
    pub fn get_mut(&mut self, client: ClientId) -> Result<&mut Session> {
        match self.index.get(&client) {
            Some(&s) => Ok(&mut self.slots[s as usize]),
            None => Err(MdsError::NoSession { client: client.0 }),
        }
    }

    /// Read-only session access.
    pub fn get(&self, client: ClientId) -> Result<&Session> {
        match self.index.get(&client) {
            Some(&s) => Ok(&self.slots[s as usize]),
            None => Err(MdsError::NoSession { client: client.0 }),
        }
    }

    /// Grants a freshly allocated range to the client's session.
    pub fn grant_range(&mut self, client: ClientId, range: InodeRange) -> Result<()> {
        self.get_mut(client)?.grant(range);
        Ok(())
    }

    /// Re-registers a surviving range on a reconnected session, with the
    /// first `used` inodes already consumed.
    pub fn restore_range(&mut self, client: ClientId, range: InodeRange, used: u64) -> Result<()> {
        self.get_mut(client)?.restore(range, used);
        Ok(())
    }

    /// Closes a session, returning whether it existed. The slot (and its
    /// range vector's capacity) is recycled for the next open.
    pub fn close(&mut self, client: ClientId) -> bool {
        match self.index.remove(&client) {
            Some(s) => {
                self.free.push(s);
                true
            }
            None => false,
        }
    }

    /// Number of open sessions.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether no sessions are open.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Slots ever allocated (diagnostics: how much arena the peak session
    /// population needed; recycled slots keep this flat under churn).
    pub fn slots_allocated(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocator_hands_out_disjoint_ranges() {
        let mut a = InodeAllocator::new();
        let r1 = a.allocate(100).unwrap();
        let r2 = a.allocate(50).unwrap();
        assert_eq!(r1.start, InodeId::FIRST_DYNAMIC);
        assert_eq!(r2.start, r1.end());
        assert!(!r1.contains(r2.start));
        assert_eq!(a.watermark(), r2.end());
    }

    #[test]
    fn session_consumes_range_in_order() {
        let mut m = SessionMap::new();
        let c = ClientId(1);
        m.open(c);
        m.grant_range(c, InodeRange::new(InodeId(0x1000), 3))
            .unwrap();
        let s = m.get_mut(c).unwrap();
        assert_eq!(s.take_inode(), Some(InodeId(0x1000)));
        assert_eq!(s.take_inode(), Some(InodeId(0x1001)));
        assert_eq!(s.remaining(), 1);
        assert_eq!(s.take_inode(), Some(InodeId(0x1002)));
        assert_eq!(s.take_inode(), None);
        assert_eq!(s.remaining(), 0);
    }

    #[test]
    fn regrant_replaces_working_range() {
        let mut m = SessionMap::new();
        let c = ClientId(1);
        m.open(c);
        m.grant_range(c, InodeRange::new(InodeId(0x1000), 1))
            .unwrap();
        m.get_mut(c).unwrap().take_inode();
        m.grant_range(c, InodeRange::new(InodeId(0x2000), 2))
            .unwrap();
        let s = m.get_mut(c).unwrap();
        assert_eq!(s.take_inode(), Some(InodeId(0x2000)));
        assert_eq!(s.ranges().count(), 2);
    }

    #[test]
    fn ranges_stay_oldest_first_across_grants_restores_and_recycling() {
        let r = |start: u64, len: u64| InodeRange::new(InodeId(start), len);
        let ranges = |m: &SessionMap, c| m.get(c).unwrap().ranges().collect::<Vec<_>>();
        let mut m = SessionMap::new();
        let (a, b) = (ClientId(1), ClientId(2));
        m.open(a);
        assert_eq!(ranges(&m, a), []);
        m.grant_range(a, r(0x1000, 4)).unwrap();
        assert_eq!(ranges(&m, a), [r(0x1000, 4)]);
        m.restore_range(a, r(0x2000, 8), 3).unwrap();
        m.grant_range(a, r(0x3000, 2)).unwrap();
        m.restore_range(a, r(0x4000, 8), 5).unwrap();
        let held = [r(0x1000, 4), r(0x2000, 8), r(0x3000, 2), r(0x4000, 8)];
        assert_eq!(ranges(&m, a), held);
        // The newest range is the one inodes come from.
        assert_eq!(m.get_mut(a).unwrap().take_inode(), Some(InodeId(0x4005)));
        // A recycled slot forgets every range, then keeps order afresh.
        m.close(a);
        m.open(b);
        assert_eq!(ranges(&m, b), []);
        m.restore_range(b, r(0x5000, 8), 8).unwrap();
        m.grant_range(b, r(0x6000, 1)).unwrap();
        assert_eq!(ranges(&m, b), [r(0x5000, 8), r(0x6000, 1)]);
        assert_eq!(m.slots_allocated(), 1);
    }

    #[test]
    fn missing_session_is_error() {
        let mut m = SessionMap::new();
        assert!(matches!(
            m.get_mut(ClientId(9)),
            Err(MdsError::NoSession { client: 9 })
        ));
        assert!(m
            .grant_range(ClientId(9), InodeRange::new(InodeId(1), 1))
            .is_err());
    }

    #[test]
    fn open_is_idempotent_close_removes() {
        let mut m = SessionMap::new();
        m.open(ClientId(1));
        m.open(ClientId(1));
        assert_eq!(m.len(), 1);
        assert!(m.close(ClientId(1)));
        assert!(!m.close(ClientId(1)));
        assert!(m.is_empty());
    }

    #[test]
    fn closed_slots_are_recycled_under_churn() {
        let mut m = SessionMap::new();
        // Open/close a stream of short-lived clients with one concurrent
        // session at a time: the arena must stay at one slot.
        for c in 0..1000u64 {
            let s = m.open(ClientId(c as u32));
            s.grant(InodeRange::new(InodeId(0x1000 + c), 4));
            assert_eq!(s.take_inode(), Some(InodeId(0x1000 + c)));
            assert!(m.close(ClientId(c as u32)));
        }
        assert!(m.is_empty());
        assert_eq!(m.slots_allocated(), 1);
    }

    #[test]
    fn recycled_slot_starts_clean() {
        let mut m = SessionMap::new();
        let s = m.open(ClientId(1));
        s.grant(InodeRange::new(InodeId(0x1000), 8));
        s.take_inode();
        s.ops = 17;
        m.close(ClientId(1));
        let s = m.open(ClientId(2));
        assert_eq!(s.client, ClientId(2));
        assert_eq!(s.ops, 0);
        assert_eq!(s.remaining(), 0);
        assert_eq!(s.take_inode(), None);
        assert_eq!(s.ranges().next(), None);
    }
}
