//! The RPC-mode (strongly consistent) client.
//!
//! "RPCs send remote procedure calls for every metadata operation from the
//! client to the metadata server, assuming the request cannot be satisfied
//! by the inode cache." The client mirrors the capability state the server
//! reports: while it believes it holds a directory's read-caching cap it
//! resolves existence locally and sends a single create RPC; once the cap
//! is revoked (another client wrote into the directory) every create is
//! preceded by a `lookup()` RPC — the Figure 3c effect.
//!
//! RPCs to a dead MDS fail with [`MdsError::Timeout`] after the server's
//! virtual-time RPC timeout; the client retries with bounded exponential
//! backoff (charged to the virtual clock through the returned costs, never
//! a real sleep) and then surfaces the timeout. After a failover the
//! harness calls [`RpcClient::reconnect`] against the new primary: the
//! session is reopened, surviving preallocated inode ranges are
//! reasserted, and all client-side capability state is dropped (caps do
//! not survive an MDS restart).

use std::collections::HashMap;

use cudele_faults::RetryPolicy;
use cudele_journal::{FileType, InodeId, InodeRange};
use cudele_mds::{ClientId, Dentry, MdsError, MetadataServer, OpCost, Rpc};
use cudele_obs::{Counter, Registry};
use cudele_sim::Nanos;

/// The costs one client operation accrued, in issue order; reads as a
/// slice. An operation is one RPC, or two after a cap revocation (lookup
/// then create), so two entries are held inline and only a retry storm's
/// third spills to the heap — a create's outcome allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct Costs {
    inline: [OpCost; 2],
    /// Entries of `inline` in use; unused once `spilled` holds anything.
    len: usize,
    /// Every entry, once there are more than two.
    spilled: Vec<OpCost>,
}

impl Costs {
    fn push(&mut self, cost: OpCost) {
        if !self.spilled.is_empty() {
            self.spilled.push(cost);
        } else if let Some(slot) = self.inline.get_mut(self.len) {
            *slot = cost;
            self.len += 1;
        } else {
            self.spilled.extend_from_slice(&self.inline);
            self.spilled.push(cost);
        }
    }
}

impl std::ops::Deref for Costs {
    type Target = [OpCost];

    fn deref(&self) -> &[OpCost] {
        if self.spilled.is_empty() {
            &self.inline[..self.len]
        } else {
            &self.spilled
        }
    }
}

/// Outcome of one client-level operation: the functional result plus the
/// per-RPC costs to charge, in order.
#[derive(Debug)]
pub struct OpOutcome<T> {
    /// The operation's functional result.
    pub result: Result<T, MdsError>,
    /// One entry per RPC issued (a create after cap revocation issues two:
    /// lookup then create), plus one per retry backoff.
    pub costs: Costs,
}

impl<T> OpOutcome<T> {
    /// Number of RPCs this operation issued.
    pub fn rpcs(&self) -> u64 {
        self.costs.iter().map(|c| c.rpcs).sum()
    }
}

/// A strongly-consistent client session.
#[derive(Debug)]
pub struct RpcClient {
    /// The client this session belongs to.
    pub id: ClientId,
    /// Directories this client believes it holds the read-caching cap on,
    /// with a local view of names it knows exist there (valid only while
    /// the cap is held).
    cached: HashMap<InodeId, bool>,
    /// Lookups this client has issued (Figure 3c's y2 series).
    pub lookups_sent: u64,
    /// Creates this client has issued.
    pub creates_sent: u64,
    /// RPC timeouts observed (each one is a full virtual-time RPC timeout
    /// charged to this client).
    pub timeouts_seen: u64,
    /// Retry attempts issued after a timeout (a bounded-retry storm that
    /// eventually succeeds shows up here but not in `timeouts_seen`'s
    /// terminal failures — surfacing both makes the storm visible).
    pub retries_seen: u64,
    /// Reconnects performed after failovers.
    pub reconnects: u64,
    /// Bounded retry/backoff applied when an RPC times out.
    retry: RetryPolicy,
    /// `client.rpc.timeouts` when a registry is attached.
    obs_timeouts: Option<Counter>,
    /// `client.rpc.retries` when a registry is attached.
    obs_retries: Option<Counter>,
}

impl RpcClient {
    /// Opens a session on the server and returns the client handle plus
    /// the session-open cost.
    pub fn mount(server: &mut MetadataServer, id: ClientId) -> (RpcClient, OpCost) {
        let rpc = server.open_session(id);
        (
            RpcClient {
                id,
                cached: HashMap::new(),
                lookups_sent: 0,
                creates_sent: 0,
                timeouts_seen: 0,
                retries_seen: 0,
                reconnects: 0,
                retry: RetryPolicy::default(),
                obs_timeouts: None,
                obs_retries: None,
            },
            rpc.cost,
        )
    }

    /// Points the client's timeout and retry counters at `reg`
    /// (`client.rpc.timeouts`, `client.rpc.retries`).
    pub fn attach_obs(&mut self, reg: &Registry) {
        self.obs_timeouts = Some(reg.counter("client.rpc.timeouts"));
        self.obs_retries = Some(reg.counter("client.rpc.retries"));
    }

    /// Reconfigures the timeout retry budget.
    pub fn set_retry(&mut self, retry: RetryPolicy) {
        self.retry = retry;
    }

    /// Issues one RPC with the timeout retry loop: every attempt's cost is
    /// recorded (a timed-out attempt charges the server's full RPC
    /// timeout), each retry adds its backoff as pure client-side latency,
    /// and a still-dead MDS finally surfaces [`MdsError::Timeout`].
    fn retry_rpc<T>(
        &mut self,
        server: &mut MetadataServer,
        costs: &mut Costs,
        mut f: impl FnMut(&mut MetadataServer, ClientId) -> Rpc<T>,
    ) -> Result<T, MdsError> {
        let mut attempt = 0;
        loop {
            let rpc = f(server, self.id);
            costs.push(rpc.cost);
            match rpc.result {
                Err(MdsError::Timeout) => {
                    self.timeouts_seen += 1;
                    if let Some(c) = &self.obs_timeouts {
                        c.inc();
                    }
                    if attempt >= self.retry.max_retries {
                        return Err(MdsError::Timeout);
                    }
                    self.retries_seen += 1;
                    if let Some(c) = &self.obs_retries {
                        c.inc();
                    }
                    costs.push(OpCost {
                        mds_cpu: Nanos::ZERO,
                        client_extra: self.retry.backoff(attempt),
                        rpcs: 0,
                    });
                    attempt += 1;
                }
                r => return r,
            }
        }
    }

    /// Reconnects to `server` (the post-failover primary): reopens the
    /// session, reasserts `surviving` preallocated ranges (each with the
    /// inodes already consumed), and drops every cached capability — the
    /// new primary rebuilt its cap table from scratch, so the client must
    /// not trust pre-crash grants.
    pub fn reconnect(
        &mut self,
        server: &mut MetadataServer,
        surviving: &[(InodeRange, u64)],
    ) -> OpOutcome<()> {
        self.cached.clear();
        self.reconnects += 1;
        let mut costs = Costs::default();
        let result = self.retry_rpc(server, &mut costs, |s, id| {
            s.reconnect_session(id, surviving)
        });
        OpOutcome { result, costs }
    }

    /// Whether the client currently believes it can skip lookups in `dir`.
    pub fn believes_cached(&self, dir: InodeId) -> bool {
        self.cached.get(&dir).copied().unwrap_or(false)
    }

    /// Creates `name` in `dir`. Issues a lookup RPC first when the
    /// directory inode is not cached ("if the client is not caching the
    /// directory inode then it must do an extra RPC to determine if the
    /// file exists").
    pub fn create(
        &mut self,
        server: &mut MetadataServer,
        dir: InodeId,
        name: &str,
    ) -> OpOutcome<InodeId> {
        self.make(server, dir, name, FileType::File)
    }

    /// Creates a directory (same cap discipline as file creates; an
    /// existing directory is returned, mkdir -p style, and any other
    /// existing name is [`MdsError::Exists`], whatever the cap state).
    pub fn mkdir(
        &mut self,
        server: &mut MetadataServer,
        dir: InodeId,
        name: &str,
    ) -> OpOutcome<InodeId> {
        self.make(server, dir, name, FileType::Dir)
    }

    /// The body `create` and `mkdir` share: lookup unless the directory cap
    /// is believed held, then the op itself, then the cap belief updated
    /// from the reply.
    fn make(
        &mut self,
        server: &mut MetadataServer,
        dir: InodeId,
        name: &str,
        kind: FileType,
    ) -> OpOutcome<InodeId> {
        let mut costs = Costs::default();
        let result = self.try_make(server, dir, name, kind, &mut costs);
        OpOutcome { result, costs }
    }

    fn try_make(
        &mut self,
        server: &mut MetadataServer,
        dir: InodeId,
        name: &str,
        kind: FileType,
        costs: &mut Costs,
    ) -> Result<InodeId, MdsError> {
        let mkdir = kind == FileType::Dir;
        // What an existing dentry means is the one difference: mkdir -p
        // semantics for a directory, EEXIST for anything else.
        let existing = |d: Option<Dentry>| match d {
            Some(d) if mkdir && d.ftype == FileType::Dir => Ok(d.ino),
            _ => Err(MdsError::Exists {
                parent: dir,
                name: name.to_string(),
            }),
        };
        if !self.believes_cached(dir) {
            self.lookups_sent += 1;
            if let Some(d) = self.retry_rpc(server, costs, |s, id| s.lookup(id, dir, name))? {
                return existing(Some(d));
            }
        }
        let reply = if mkdir {
            self.retry_rpc(server, costs, |s, id| s.mkdir(id, dir, name))
        } else {
            self.creates_sent += 1;
            self.retry_rpc(server, costs, |s, id| s.create(id, dir, name))
        };
        // A surprise EEXIST while we thought we were cached means a stale
        // cache: any error drops it.
        let has_cache = reply.as_ref().is_ok_and(|r| r.has_cache);
        self.cached.insert(dir, has_cache);
        match reply {
            Ok(r) => Ok(r.ino),
            // The server's EEXIST does not say what the name is; a mkdir
            // asks, so both cap states answer alike.
            Err(MdsError::Exists { .. }) if mkdir => {
                self.lookups_sent += 1;
                existing(self.retry_rpc(server, costs, |s, id| s.lookup(id, dir, name))?)
            }
            Err(e) => Err(e),
        }
    }

    /// Polls a directory's entry count with `readdir` (the "check progress
    /// with ls" pattern of the read-while-writing use case).
    pub fn poll_progress(&mut self, server: &mut MetadataServer, dir: InodeId) -> OpOutcome<usize> {
        let mut costs = Costs::default();
        let result = self
            .retry_rpc(server, &mut costs, |s, id| s.readdir(id, dir))
            .map(|v| v.len());
        OpOutcome { result, costs }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cudele_rados::InMemoryStore;
    use std::sync::Arc;

    fn server() -> MetadataServer {
        MetadataServer::new(Arc::new(InMemoryStore::paper_default()))
    }

    #[test]
    fn first_create_needs_lookup_then_caches() {
        let mut srv = server();
        let (mut c, _) = RpcClient::mount(&mut srv, ClientId(1));
        let dir = srv.setup_dir("/d").unwrap();
        // Cold: lookup + create.
        let o = c.create(&mut srv, dir, "f0");
        o.result.as_ref().unwrap();
        assert_eq!(o.costs.len(), 2);
        assert_eq!(c.lookups_sent, 1);
        // Warm: cap granted on first write; single RPC now.
        let o = c.create(&mut srv, dir, "f1");
        o.result.as_ref().unwrap();
        assert_eq!(o.costs.len(), 1);
        assert_eq!(c.lookups_sent, 1);
    }

    #[test]
    fn interference_forces_lookups_until_regrant() {
        let mut srv = server();
        let (mut victim, _) = RpcClient::mount(&mut srv, ClientId(1));
        let (mut interferer, _) = RpcClient::mount(&mut srv, ClientId(2));
        let dir = srv.setup_dir("/d").unwrap();
        victim.create(&mut srv, dir, "v0").result.unwrap();
        assert!(victim.believes_cached(dir));
        // Interferer writes: victim's cap revoked server-side.
        interferer.create(&mut srv, dir, "i0").result.unwrap();
        // Victim's next create succeeds but the reply withdraws the cap.
        let o = victim.create(&mut srv, dir, "v1");
        o.result.unwrap();
        assert!(!victim.believes_cached(dir));
        // Subsequent creates pay the lookup until the server re-grants.
        let before = victim.lookups_sent;
        for i in 2..10 {
            victim
                .create(&mut srv, dir, &format!("v{i}"))
                .result
                .unwrap();
        }
        assert!(victim.lookups_sent > before);
    }

    #[test]
    fn cap_regrant_stops_lookups() {
        let mut srv = server();
        let (mut victim, _) = RpcClient::mount(&mut srv, ClientId(1));
        let (mut interferer, _) = RpcClient::mount(&mut srv, ClientId(2));
        let dir = srv.setup_dir("/d").unwrap();
        victim.create(&mut srv, dir, "v0").result.unwrap();
        interferer.create(&mut srv, dir, "i0").result.unwrap();
        // Victim creates alone until the server re-grants (default 100).
        for i in 0..150 {
            victim
                .create(&mut srv, dir, &format!("w{i}"))
                .result
                .unwrap();
        }
        assert!(victim.believes_cached(dir));
        let lookups = victim.lookups_sent;
        victim.create(&mut srv, dir, "final").result.unwrap();
        assert_eq!(
            victim.lookups_sent, lookups,
            "no more lookups after regrant"
        );
    }

    #[test]
    fn duplicate_create_detected_by_lookup_when_cold() {
        let mut srv = server();
        let (mut a, _) = RpcClient::mount(&mut srv, ClientId(1));
        let (mut b, _) = RpcClient::mount(&mut srv, ClientId(2));
        let dir = srv.setup_dir("/d").unwrap();
        a.create(&mut srv, dir, "same").result.unwrap();
        let o = b.create(&mut srv, dir, "same");
        assert!(matches!(o.result, Err(MdsError::Exists { .. })));
        // Detected by the lookup — only 1 RPC spent.
        assert_eq!(o.costs.len(), 1);
    }

    #[test]
    fn mkdir_is_idempotent_for_existing_dirs() {
        let mut srv = server();
        let (mut c, _) = RpcClient::mount(&mut srv, ClientId(1));
        let root = InodeId::ROOT;
        let d1 = c.mkdir(&mut srv, root, "x").result.unwrap();
        // Cold client rediscovers the dir via lookup.
        let mut c2 = RpcClient::mount(&mut srv, ClientId(2)).0;
        let d2 = c2.mkdir(&mut srv, root, "x").result.unwrap();
        assert_eq!(d1, d2);
    }

    #[test]
    fn mkdir_over_an_existing_name_answers_alike_warm_or_cold() {
        let root = InodeId::ROOT;
        for cold in [false, true] {
            for name in ["x", "f"] {
                let mut srv = server();
                let (mut owner, _) = RpcClient::mount(&mut srv, ClientId(1));
                let dir = owner.mkdir(&mut srv, root, "x").result.unwrap();
                owner.create(&mut srv, root, "f").result.unwrap();
                let mut c = if cold {
                    RpcClient::mount(&mut srv, ClientId(2)).0
                } else {
                    owner
                };
                assert_eq!(c.believes_cached(root), !cold);
                let got = c.mkdir(&mut srv, root, name).result;
                match name {
                    "x" => assert!(matches!(got, Ok(ino) if ino == dir), "cold={cold}: {got:?}"),
                    _ => assert!(
                        matches!(got, Err(MdsError::Exists { .. })),
                        "cold={cold}: mkdir over a file gave {got:?}"
                    ),
                }
            }
        }
    }

    #[test]
    fn dead_mds_times_out_with_bounded_retries() {
        let mut srv = server();
        let (mut c, _) = RpcClient::mount(&mut srv, ClientId(1));
        let reg = std::sync::Arc::new(cudele_obs::Registry::new());
        c.attach_obs(&reg);
        c.set_retry(cudele_faults::RetryPolicy {
            max_retries: 3,
            base_backoff: cudele_sim::Nanos::from_micros(100),
        });
        let dir = srv.setup_dir("/d").unwrap();
        srv.fail();
        let o = c.create(&mut srv, dir, "f");
        assert!(matches!(o.result, Err(MdsError::Timeout)));
        // 1 attempt + 3 retries, each charging the full RPC timeout, with
        // a backoff cost entry between attempts.
        assert_eq!(c.timeouts_seen, 4);
        assert_eq!(c.retries_seen, 3);
        assert_eq!(reg.counter_value("client.rpc.timeouts"), Some(4));
        assert_eq!(reg.counter_value("client.rpc.retries"), Some(3));
        let timeout_costs = o
            .costs
            .iter()
            .filter(|c| c.client_extra >= srv.rpc_timeout())
            .count();
        assert_eq!(timeout_costs, 4);
        let backoffs = o.costs.iter().filter(|c| c.rpcs == 0).count();
        assert_eq!(backoffs, 3);
        // Total client-visible latency includes every timeout + backoff.
        let total: cudele_sim::Nanos = o
            .costs
            .iter()
            .fold(cudele_sim::Nanos::ZERO, |a, c| a + c.client_extra);
        assert!(total >= srv.rpc_timeout() * 4);
    }

    #[test]
    fn recovered_mds_answers_after_timeouts() {
        let mut srv = server();
        let (mut c, _) = RpcClient::mount(&mut srv, ClientId(1));
        let dir = srv.setup_dir("/d").unwrap();
        srv.fail();
        assert!(matches!(
            c.create(&mut srv, dir, "f").result,
            Err(MdsError::Timeout)
        ));
        srv.restart();
        c.create(&mut srv, dir, "f").result.unwrap();
    }

    #[test]
    fn reconnect_reopens_session_and_drops_caps() {
        let mut srv = server();
        let (mut c, _) = RpcClient::mount(&mut srv, ClientId(1));
        let dir = srv.setup_dir_durable("/d").unwrap();
        c.create(&mut srv, dir, "before").result.unwrap();
        assert!(c.believes_cached(dir));
        srv.flush_journal();
        srv.crash_and_recover().unwrap();
        // The recovered server dropped all sessions: a create without
        // reconnect is rejected.
        assert!(matches!(
            c.create(&mut srv, dir, "orphan").result,
            Err(MdsError::NoSession { .. })
        ));
        let o = c.reconnect(&mut srv, &[]);
        o.result.unwrap();
        assert_eq!(c.reconnects, 1);
        assert!(!c.believes_cached(dir), "caps dropped on reconnect");
        c.create(&mut srv, dir, "after").result.unwrap();
    }

    #[test]
    fn reconnect_reasserts_surviving_ranges() {
        let mut srv = server();
        let (mut c, _) = RpcClient::mount(&mut srv, ClientId(1));
        let dir = srv.setup_dir_durable("/d").unwrap();
        let range = srv.alloc_inodes(ClientId(1), 64).result.unwrap();
        srv.flush_journal();
        srv.crash_and_recover().unwrap();
        c.reconnect(&mut srv, &[(range, 3)]).result.unwrap();
        // The reasserted range resumes after its used prefix…
        let ino = c.create(&mut srv, dir, "resumed").result.unwrap();
        assert_eq!(ino, InodeId(range.start.0 + 3));
        // …and fresh grants to other clients never collide with it.
        srv.open_session(ClientId(2));
        let fresh = srv.alloc_inodes(ClientId(2), 64).result.unwrap();
        assert!(fresh.start.0 >= range.end().0);
    }

    #[test]
    fn poll_progress_counts_entries() {
        let mut srv = server();
        let (mut c, _) = RpcClient::mount(&mut srv, ClientId(1));
        let dir = srv.setup_dir("/job").unwrap();
        for i in 0..7 {
            c.create(&mut srv, dir, &format!("part-{i}"))
                .result
                .unwrap();
        }
        let (mut enduser, _) = RpcClient::mount(&mut srv, ClientId(2));
        assert_eq!(enduser.poll_progress(&mut srv, dir).result.unwrap(), 7);
    }
}
