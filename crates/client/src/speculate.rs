//! Speculative execution for RPC-mode clients.
//!
//! An RPC-mode client stalls on every create: the paper's Figure 5 prices
//! that at 17.9x the decoupled journal append. The speculation layer lets
//! the client run *ahead* of the acks — it predicts each op's outcome (the
//! inode number it will be assigned, drawn client-side from its granted
//! range) and issues the next op immediately, while a dependency frontier
//! remembers which speculative results every later op consumed. When an
//! ack arrives the frontier commits the op (and anything that was only
//! waiting on it); when a speculation is invalidated — RPC timeout, fenced
//! epoch, MDS failover, or a fault-injected NACK — the client rolls back
//! the dependent suffix and replays it, op by op and in order, against the
//! (possibly new) primary.
//!
//! Replay is made idempotent by the [`ReplayToken`] stamped on every
//! speculative issue: the server applies the op with exactly the predicted
//! inode, so a replayed op that already applied is recognised by its inode
//! and acknowledged without re-applying. Rollback-then-replay therefore
//! converges on the same namespace as never having speculated.
//!
//! Consistency histories are recorded **here, at commit time**, never by
//! the server: a speculative op's interval runs from its issue (the store
//! mutates then, so the linearization point is inside) to its commit. An
//! op that is rolled back and never commits is never recorded, so the
//! offline checkers only ever see acks the client actually surfaced.

use std::collections::VecDeque;

use cudele_journal::{InodeId, InodeRange};
use cudele_mds::{ClientId, MdsError, MetadataServer, OpCost, ReplayToken, Rpc};
use cudele_obs::history::{HistoryEvent, HistoryOp, HistoryResult, HistoryScope};
use cudele_obs::{Counter, Registry};
use cudele_sim::Nanos;

/// How many inodes a speculative mount preallocates up front. Matches the
/// RPC path's transparent session grant so that, fault-free, speculation
/// on and off assign byte-identical inode numbers (the equivalence
/// property the proptests pin).
pub const SPEC_PREALLOC: u64 = 1 << 16;

/// Lifecycle of one speculative operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecState {
    /// Issued against a predicted outcome; ack not yet delivered.
    InFlight,
    /// Ack delivered, but a dependency is still uncommitted.
    Acked,
    /// Committed: the ack and every dependency's ack stand. Recorded in
    /// the consistency history.
    Committed,
    /// Invalidated by a rollback; awaiting replay.
    Aborted,
}

/// One speculatively issued operation in the window.
#[derive(Debug)]
struct SpecOp {
    seq: u64,
    dir: InodeId,
    name: String,
    predicted_ino: InodeId,
    /// Virtual instant the op was issued (the store mutates here, so this
    /// is the invoke side of the history interval).
    issued_at: Nanos,
    /// The MDS epoch the client believed current at issue. Replays carry
    /// this birth epoch in their token so the server can count
    /// cross-epoch replays.
    epoch: u64,
    /// Seqs of earlier uncommitted ops whose speculative results this op
    /// consumed (same-directory ordering, predicted parent inodes).
    deps: Vec<u64>,
    /// The server's actual reply, known to the simulator at issue time but
    /// "in flight" to the client until the ack is delivered.
    applied: Result<InodeId, MdsError>,
    state: SpecState,
}

/// Outcome of delivering one ack.
#[derive(Debug, PartialEq, Eq)]
pub enum AckOutcome {
    /// Ops newly committed by this ack (0 when a dependency is still
    /// awaiting its own ack).
    Committed(u64),
    /// The speculation was invalidated. The listed seqs — the op itself
    /// plus the dependent closure, in issue order — were rolled back and
    /// must be replayed via [`SpeculativeClient::replay`] (after
    /// [`SpeculativeClient::resume_on`] if the primary changed).
    RolledBack(Vec<u64>),
}

cudele_obs::handles! {
    /// The speculation layer's handles, published under `client.spec.*`
    /// (plus the commit-time history sink).
    #[derive(Debug)]
    pub struct SpecObs(reg: &Registry) {
        /// `client.spec.issued` — ops issued speculatively.
        issued: Counter = reg.counter("client.spec.issued"),
        /// `client.spec.commits` — ops committed (ack + deps stood).
        commits: Counter = reg.counter("client.spec.commits"),
        /// `client.spec.rollbacks` — rollback events (one per invalidation,
        /// however many ops it doomed).
        rollbacks: Counter = reg.counter("client.spec.rollbacks"),
        /// `client.spec.aborted_ops` — ops doomed by rollbacks.
        aborted_ops: Counter = reg.counter("client.spec.aborted_ops"),
        /// `client.spec.replayed` — aborted ops replayed to completion.
        replayed: Counter = reg.counter("client.spec.replayed"),
        /// Commit-time consistency-history sink.
        history: cudele_obs::history::HistoryWriter = reg.history_writer(),
    }
}

/// An RPC-mode client that speculates past acks.
#[derive(Debug)]
pub struct SpeculativeClient {
    /// The client this session belongs to.
    pub id: ClientId,
    /// Granted inode ranges, oldest first, each with its used count. The
    /// newest range feeds predictions; all are reasserted on reconnect.
    ranges: Vec<(InodeRange, u64)>,
    /// The MDS epoch the client believes current (stamped into tokens;
    /// refreshed by [`SpeculativeClient::resume_on`]).
    epoch: u64,
    next_seq: u64,
    /// Uncommitted + recently committed ops, seq order. Committed ops are
    /// drained from the front once nothing can reference them.
    window: VecDeque<SpecOp>,
    /// Total ops committed over the session's lifetime.
    committed: u64,
    /// Deepest speculation window observed (diagnostics).
    pub max_depth_seen: usize,
    /// The client's virtual clock ([`SpeculativeClient::set_now`]): an
    /// op's issue and commit instants, the two ends of its history row.
    now: Nanos,
    obs: Option<SpecObs>,
}

impl SpeculativeClient {
    /// Opens a session and preallocates [`SPEC_PREALLOC`] inodes so the
    /// client can predict outcomes without asking. Returns the client and
    /// the setup RPC costs (session open + range grant).
    pub fn mount(
        server: &mut MetadataServer,
        id: ClientId,
    ) -> (Result<SpeculativeClient, MdsError>, Vec<OpCost>) {
        Self::mount_with_prealloc(server, id, SPEC_PREALLOC)
    }

    /// [`SpeculativeClient::mount`] with an explicit preallocation size.
    pub fn mount_with_prealloc(
        server: &mut MetadataServer,
        id: ClientId,
        prealloc: u64,
    ) -> (Result<SpeculativeClient, MdsError>, Vec<OpCost>) {
        let open = server.open_session(id);
        let mut costs = vec![open.cost];
        if let Err(e) = open.result {
            return (Err(e), costs);
        }
        let Rpc { result, cost } = server.alloc_inodes(id, prealloc);
        costs.push(cost);
        match result {
            Ok(range) => (
                Ok(SpeculativeClient {
                    id,
                    ranges: vec![(range, 0)],
                    epoch: server.epoch().0,
                    next_seq: 0,
                    window: VecDeque::new(),
                    committed: 0,
                    max_depth_seen: 0,
                    now: Nanos::ZERO,
                    obs: None,
                }),
                costs,
            ),
            Err(e) => (Err(e), costs),
        }
    }

    /// Counts the layer's issues, commits and rollbacks, and records its
    /// commit-time history, on `obs`.
    pub fn set_obs(&mut self, obs: SpecObs) {
        self.obs = Some(obs);
    }

    /// Sets the virtual time stamped on subsequent issues and commits.
    pub fn set_now(&mut self, now: Nanos) {
        self.now = now;
    }

    /// Uncommitted ops currently in the window (the speculation depth).
    pub fn depth(&self) -> usize {
        self.window
            .iter()
            .filter(|op| op.state != SpecState::Committed)
            .count()
    }

    /// Ops committed over the session's lifetime.
    pub fn committed(&self) -> u64 {
        self.committed
    }

    /// The epoch the client currently believes (diagnostics).
    pub fn believed_epoch(&self) -> u64 {
        self.epoch
    }

    fn predict_inode(
        &mut self,
        server: &mut MetadataServer,
    ) -> (Result<InodeId, MdsError>, Option<OpCost>) {
        let needs_grant = {
            let (range, used) = self.ranges.last().expect("mounted with a range");
            *used >= range.len
        };
        let mut grant_cost = None;
        if needs_grant {
            let Rpc { result, cost } = server.alloc_inodes(self.id, SPEC_PREALLOC);
            grant_cost = Some(cost);
            match result {
                Ok(r) => self.ranges.push((r, 0)),
                Err(e) => return (Err(e), grant_cost),
            }
        }
        let (range, used) = self.ranges.last_mut().expect("mounted with a range");
        let ino = InodeId(range.start.0 + *used);
        *used += 1;
        (Ok(ino), grant_cost)
    }

    /// Issues a create speculatively: predicts the inode, stamps a replay
    /// token, sends the op, and runs ahead without waiting for the ack.
    /// Returns the op's seq and the costs to charge for the issue (the
    /// send itself plus, rarely, a range regrant). The server's reply is
    /// held in flight until [`SpeculativeClient::deliver_ack`].
    pub fn issue_create(
        &mut self,
        server: &mut MetadataServer,
        dir: InodeId,
        name: &str,
    ) -> (u64, Vec<OpCost>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let mut costs = Vec::with_capacity(1);
        let (predicted, grant_cost) = self.predict_inode(server);
        if let Some(c) = grant_cost {
            costs.push(c);
        }
        let predicted_ino = match predicted {
            Ok(ino) => ino,
            Err(e) => {
                // Could not even predict: surface as an immediately-aborted
                // op so the caller sees the failure through the ack path.
                self.window.push_back(SpecOp {
                    seq,
                    dir,
                    name: name.to_string(),
                    predicted_ino: InodeId(0),
                    issued_at: self.now,
                    epoch: self.epoch,
                    deps: Vec::new(),
                    applied: Err(e),
                    state: SpecState::InFlight,
                });
                return (seq, costs);
            }
        };
        // Dependency frontier: this op consumed (a) the assumed-success
        // acks of every uncommitted op in the same directory (its
        // existence check was skipped on their account), and (b) the
        // prediction of the op that fabricated its parent directory's
        // inode, if that parent is itself speculative.
        let deps: Vec<u64> = self
            .window
            .iter()
            .filter(|op| op.state != SpecState::Committed)
            .filter(|op| op.dir == dir || op.predicted_ino == dir)
            .map(|op| op.seq)
            .collect();
        let token = ReplayToken {
            seq,
            predicted_ino,
            epoch: self.epoch,
        };
        let rpc = server.create_speculative(self.id, dir, name, token);
        costs.push(rpc.cost);
        self.window.push_back(SpecOp {
            seq,
            dir,
            name: name.to_string(),
            predicted_ino,
            issued_at: self.now,
            epoch: self.epoch,
            deps,
            applied: rpc.result.map(|r| r.ino),
            state: SpecState::InFlight,
        });
        if let Some(o) = &self.obs {
            o.issued.inc();
        }
        self.max_depth_seen = self.max_depth_seen.max(self.depth());
        (seq, costs)
    }

    fn op_index(&self, seq: u64) -> Option<usize> {
        self.window.iter().position(|op| op.seq == seq)
    }

    /// Commits every op whose ack arrived and whose dependencies all
    /// committed, recording each into the consistency history with the
    /// interval `[issued_at, now]` — the store mutated at issue, so the
    /// linearization point lies inside. Returns how many committed.
    fn commit_sweep(&mut self) -> u64 {
        let mut newly = 0;
        loop {
            let mut progressed = false;
            for i in 0..self.window.len() {
                if self.window[i].state != SpecState::Acked {
                    continue;
                }
                let ready = self.window[i].deps.iter().all(|&d| {
                    self.op_index(d)
                        .is_none_or(|j| self.window[j].state == SpecState::Committed)
                });
                if !ready {
                    continue;
                }
                self.window[i].state = SpecState::Committed;
                self.committed += 1;
                newly += 1;
                progressed = true;
                let op = &self.window[i];
                if let Some(o) = &self.obs {
                    o.commits.inc();
                    o.history.record(HistoryEvent {
                        client: u64::from(self.id.0),
                        scope: HistoryScope::Global,
                        op: HistoryOp::Create {
                            dir: op.dir.0,
                            name: op.name.clone(),
                        },
                        result: HistoryResult::Ok,
                        ino: op.predicted_ino.0,
                        invoke: op.issued_at,
                        ack: self.now,
                        epoch: op.epoch,
                        trace_id: 0,
                    });
                }
            }
            if !progressed {
                break;
            }
        }
        // Drain the committed prefix: nothing later can depend on an op
        // that already committed in a way that needs its record.
        while matches!(self.window.front(), Some(op) if op.state == SpecState::Committed) {
            self.window.pop_front();
        }
        newly
    }

    /// Delivers the ack for `seq`. `invalidate` injects a NACK (the
    /// fault-plan speculation abort); a server-side error held in flight
    /// (timeout to a dead MDS, fencing) invalidates on its own. A good ack
    /// commits the op and everything that was only waiting on it; an
    /// invalidation rolls back the op plus its dependent closure and
    /// returns the seqs to replay, in order.
    pub fn deliver_ack(&mut self, seq: u64, invalidate: bool) -> AckOutcome {
        let Some(i) = self.op_index(seq) else {
            return AckOutcome::Committed(0);
        };
        let ok = !invalidate && self.window[i].applied.is_ok();
        if ok {
            self.window[i].state = SpecState::Acked;
            return AckOutcome::Committed(self.commit_sweep());
        }
        // Rollback: the op and, transitively, every uncommitted op that
        // consumed its speculative result. The window is seq-ordered and
        // deps only point backwards, so one forward pass closes the set.
        let mut doomed: Vec<u64> = vec![seq];
        for op in self.window.iter() {
            if op.state == SpecState::Committed || op.seq == seq {
                continue;
            }
            if op.deps.iter().any(|d| doomed.contains(d)) {
                doomed.push(op.seq);
            }
        }
        doomed.sort_unstable();
        for op in self.window.iter_mut() {
            if doomed.contains(&op.seq) {
                op.state = SpecState::Aborted;
            }
        }
        if let Some(o) = &self.obs {
            o.rollbacks.inc();
            o.aborted_ops.add(doomed.len() as u64);
        }
        AckOutcome::RolledBack(doomed)
    }

    /// Replays rolled-back ops, in order, against `server` (the current
    /// primary). Each op re-issues with its **original** token — predicted
    /// inode and birth epoch — so an op that already applied before the
    /// invalidation is deduplicated server-side rather than double-applied.
    /// Replay is synchronous (no further speculation): each op acks and
    /// commits before the next is sent. Returns the per-RPC costs.
    pub fn replay(
        &mut self,
        server: &mut MetadataServer,
        seqs: &[u64],
    ) -> (Result<(), MdsError>, Vec<OpCost>) {
        let mut costs = Vec::with_capacity(seqs.len());
        for &seq in seqs {
            let Some(i) = self.op_index(seq) else {
                continue;
            };
            let token = ReplayToken {
                seq,
                predicted_ino: self.window[i].predicted_ino,
                epoch: self.window[i].epoch,
            };
            let (dir, name) = (self.window[i].dir, self.window[i].name.clone());
            let rpc = server.create_speculative(self.id, dir, &name, token);
            costs.push(rpc.cost);
            match rpc.result {
                Ok(reply) => {
                    self.window[i].applied = Ok(reply.ino);
                    self.window[i].state = SpecState::Acked;
                    if let Some(o) = &self.obs {
                        o.replayed.inc();
                    }
                }
                Err(e) => return (Err(e), costs),
            }
        }
        self.commit_sweep();
        (Ok(()), costs)
    }

    /// Resumes the session on a (possibly new) primary after a failover:
    /// reopens the session, reasserts every granted range with its used
    /// count (so replay tokens keep validating against owned ranges and
    /// fresh grants can never collide), and adopts the new primary's
    /// epoch for subsequently minted tokens.
    pub fn resume_on(&mut self, server: &mut MetadataServer) -> (Result<(), MdsError>, OpCost) {
        let Rpc { result, cost } = server.reconnect_session(self.id, &self.ranges);
        if result.is_ok() {
            self.epoch = server.epoch().0;
        }
        (result, cost)
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

    fn mounted(srv: &mut MetadataServer) -> SpeculativeClient {
        SpeculativeClient::mount_with_prealloc(srv, ClientId(1), 256)
            .0
            .unwrap()
    }

    #[test]
    fn pipeline_commits_in_order_and_records_history_at_commit() {
        let mut srv = server();
        let reg = Arc::new(cudele_obs::Registry::new());
        srv.attach_obs(&reg);
        let dir = srv.setup_dir("/spec").unwrap();
        let mut c = mounted(&mut srv);
        c.set_obs(SpecObs::new(&reg));
        // Issue three creates back-to-back without waiting for acks.
        let mut seqs = Vec::new();
        for i in 0..3 {
            c.set_now(Nanos::from_micros(10 * (i + 1)));
            let (seq, _) = c.issue_create(&mut srv, dir, &format!("f{i}"));
            seqs.push(seq);
        }
        assert_eq!(c.depth(), 3);
        assert_eq!(c.max_depth_seen, 3);
        // Acks arrive FIFO; each commits its op.
        for (i, &s) in seqs.iter().enumerate() {
            c.set_now(Nanos::from_millis(1 + i as u64));
            assert_eq!(c.deliver_ack(s, false), AckOutcome::Committed(1));
        }
        assert_eq!(c.committed(), 3);
        assert_eq!(c.depth(), 0);
        assert_eq!(reg.counter_value("client.spec.issued"), Some(3));
        assert_eq!(reg.counter_value("client.spec.commits"), Some(3));
        // History recorded at commit: invoke at issue, ack at commit.
        let h = cudele_obs::history::History::parse(&reg.history_json("rpc")).unwrap();
        assert_eq!(h.events.len(), 3);
        for e in &h.events {
            assert!(e.invoke < e.ack);
        }
        // The namespace holds all three with the predicted inodes.
        for i in 0..3 {
            assert!(srv.store().lookup(dir, &format!("f{i}")).is_ok());
        }
    }

    #[test]
    fn out_of_order_dependency_holds_commit_until_dep_acks() {
        let mut srv = server();
        let dir_a = srv.setup_dir("/a").unwrap();
        let dir_b = srv.setup_dir("/b").unwrap();
        let mut c = mounted(&mut srv);
        let (s0, _) = c.issue_create(&mut srv, dir_a, "x");
        let (s1, _) = c.issue_create(&mut srv, dir_a, "y"); // depends on s0
        let (s2, _) = c.issue_create(&mut srv, dir_b, "z"); // independent
                                                            // s1's ack arrives before s0's: it may not commit yet.
        assert_eq!(c.deliver_ack(s1, false), AckOutcome::Committed(0));
        // s2 is independent of the /a chain and commits alone.
        assert_eq!(c.deliver_ack(s2, false), AckOutcome::Committed(1));
        // s0's ack releases both s0 and the held s1.
        assert_eq!(c.deliver_ack(s0, false), AckOutcome::Committed(2));
        assert_eq!(c.committed(), 3);
    }

    #[test]
    fn nack_rolls_back_dependent_suffix_and_replay_converges() {
        let mut srv = server();
        let reg = Arc::new(cudele_obs::Registry::new());
        let dir_a = srv.setup_dir("/a").unwrap();
        let dir_b = srv.setup_dir("/b").unwrap();
        let mut c = mounted(&mut srv);
        c.set_obs(SpecObs::new(&reg));
        let (s0, _) = c.issue_create(&mut srv, dir_a, "x");
        let (s1, _) = c.issue_create(&mut srv, dir_a, "y");
        let (s2, _) = c.issue_create(&mut srv, dir_b, "z");
        // NACK s0: the /a chain (s0, s1) is doomed; s2 survives.
        let rolled = c.deliver_ack(s0, true);
        assert_eq!(rolled, AckOutcome::RolledBack(vec![s0, s1]));
        assert_eq!(reg.counter_value("client.spec.rollbacks"), Some(1));
        assert_eq!(reg.counter_value("client.spec.aborted_ops"), Some(2));
        assert_eq!(c.deliver_ack(s2, false), AckOutcome::Committed(1));
        // Replay the doomed suffix: server-side dedup acknowledges the
        // already-applied ops without double-applying.
        let (r, costs) = c.replay(&mut srv, &[s0, s1]);
        r.unwrap();
        assert_eq!(costs.len(), 2);
        assert_eq!(c.committed(), 3);
        assert_eq!(reg.counter_value("client.spec.replayed"), Some(2));
        assert_eq!(srv.store().readdir(dir_a).unwrap().len(), 2);
        assert_eq!(srv.store().readdir(dir_b).unwrap().len(), 1);
    }

    #[test]
    fn mkdir_chain_parent_prediction_is_a_dependency() {
        let mut srv = server();
        let root = srv.setup_dir("/tree").unwrap();
        let mut c = mounted(&mut srv);
        let (s0, _) = c.issue_create(&mut srv, root, "d0");
        // Find s0's predicted inode through the window.
        let predicted = c.window[0].predicted_ino;
        // An op whose parent is the *predicted* inode depends on s0 even
        // though the directories differ.
        let (s1, _) = c.issue_create(&mut srv, predicted, "leaf");
        let rolled = c.deliver_ack(s0, true);
        assert_eq!(rolled, AckOutcome::RolledBack(vec![s0, s1]));
    }

    #[test]
    fn speculation_matches_nonspeculative_namespace() {
        // The same workload, speculated and not, lands the same bytes.
        let mut plain = server();
        let dir_p = plain.setup_dir("/w").unwrap();
        let (mut rc, _) = crate::RpcClient::mount(&mut plain, ClientId(1));
        for i in 0..20 {
            rc.create(&mut plain, dir_p, &format!("f{i}"))
                .result
                .unwrap();
        }
        let mut spec = server();
        let dir_s = spec.setup_dir("/w").unwrap();
        let mut sc = SpeculativeClient::mount(&mut spec, ClientId(1)).0.unwrap();
        let mut seqs = Vec::new();
        for i in 0..20 {
            seqs.push(sc.issue_create(&mut spec, dir_s, &format!("f{i}")).0);
        }
        for s in seqs {
            sc.deliver_ack(s, false);
        }
        assert_eq!(plain.store().snapshot(), spec.store().snapshot());
    }

    #[test]
    fn failover_invalidation_resumes_and_replays_on_new_primary() {
        use cudele_rados::Epoch;
        let mut srv = server();
        let dir = srv.setup_dir_durable("/jobs").unwrap();
        let mut c = mounted(&mut srv);
        let (s0, _) = c.issue_create(&mut srv, dir, "a");
        let (s1, _) = c.issue_create(&mut srv, dir, "b");
        srv.flush_journal();
        // The primary dies before the acks arrive; further issues time out.
        srv.fail();
        let (s2, _) = c.issue_create(&mut srv, dir, "c");
        let rolled = c.deliver_ack(s0, true);
        assert_eq!(rolled, AckOutcome::RolledBack(vec![s0, s1, s2]));
        // "Failover": the recovered instance comes back at a bumped epoch
        // with its sessions gone — the client resumes and replays with its
        // original tokens (their birth epoch now stale).
        srv.restart();
        srv.crash_and_recover().unwrap();
        let bumped = Epoch(srv.epoch().0 + 1);
        srv.set_epoch(bumped);
        let (r, _) = c.resume_on(&mut srv);
        r.unwrap();
        assert_eq!(c.believed_epoch(), bumped.0);
        let (r, _) = c.replay(&mut srv, &[s0, s1, s2]);
        r.unwrap();
        assert_eq!(c.committed(), 3);
        // a and b applied pre-crash and were deduplicated; c applied fresh.
        for n in ["a", "b", "c"] {
            assert!(srv.store().lookup(dir, n).is_ok());
        }
    }
}
