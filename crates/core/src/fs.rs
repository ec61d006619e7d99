//! `CudeleFs` — the public facade: one global namespace, many clients,
//! per-subtree programmable consistency and durability.
//!
//! This is the API from the paper's abstract: "a framework and API that
//! lets administrators specify their consistency/durability requirements
//! and dynamically assign them to subtrees in the same namespace". The
//! Figure 1 deployment — POSIX, HDFS, BatchFS, and RAMDisk subtrees
//! coexisting — is expressible directly (see `examples/quickstart.rs`).

use std::collections::HashMap;
use std::sync::Arc;

use cudele_client::{DecoupledClient, DiskError, LocalDisk, RpcClient};
use cudele_journal::InodeId;
use cudele_mds::{ClientId, MdsError, MetadataServer, MetadataStore};
use cudele_rados::InMemoryStore;
use cudele_sim::Nanos;

use crate::executor::{execute_merge, ExecEnv, ExecError, MergeReport};
use crate::monitor::{normalize_path, Monitor};
use crate::policies_file::{parse_policies, policy_to_blob};
use crate::policy::{InterferePolicy, OperationMode, Policy, PolicyParseError};

/// Facade-level errors.
#[derive(Debug)]
pub enum FsError {
    /// A metadata operation failed.
    Mds(MdsError),
    /// A client's local disk failed.
    Disk(DiskError),
    /// A merge composition failed.
    Exec(ExecError),
    /// A policies file or blob failed to parse.
    Policy(PolicyParseError),
    /// The client never mounted.
    NotMounted(ClientId),
    /// The path is not a decoupled subtree for this client.
    NotDecoupled(String),
    /// A path routed to a decoupled subtree owned by a different client
    /// whose interfere policy is `allow`: the caller must go through the
    /// RPC path knowing its updates may be overwritten at merge.
    DecoupledElsewhere(String),
}

impl std::fmt::Display for FsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsError::Mds(e) => write!(f, "{e}"),
            FsError::Disk(e) => write!(f, "{e}"),
            FsError::Exec(e) => write!(f, "{e}"),
            FsError::Policy(e) => write!(f, "{e}"),
            FsError::NotMounted(c) => write!(f, "{c} is not mounted"),
            FsError::NotDecoupled(p) => write!(f, "{p} is not decoupled for this client"),
            FsError::DecoupledElsewhere(p) => {
                write!(f, "{p} is decoupled by another client")
            }
        }
    }
}

impl std::error::Error for FsError {}

impl From<MdsError> for FsError {
    fn from(e: MdsError) -> Self {
        FsError::Mds(e)
    }
}

impl From<DiskError> for FsError {
    fn from(e: DiskError) -> Self {
        FsError::Disk(e)
    }
}

impl From<ExecError> for FsError {
    fn from(e: ExecError) -> Self {
        FsError::Exec(e)
    }
}

impl From<PolicyParseError> for FsError {
    fn from(e: PolicyParseError) -> Self {
        FsError::Policy(e)
    }
}

/// Result alias for facade calls.
pub type FsResult<T> = Result<T, FsError>;

/// One client's mount state.
struct Mount {
    rpc: RpcClient,
    disk: LocalDisk,
    /// Decoupled subtrees this client owns: normalized path -> client.
    decoupled: HashMap<String, DecoupledClient>,
}

/// The Cudele file system: a metadata server, an object store, a monitor,
/// and the mounted clients.
pub struct CudeleFs {
    server: MetadataServer,
    os: Arc<InMemoryStore>,
    monitor: Monitor,
    mounts: HashMap<ClientId, Mount>,
}

impl CudeleFs {
    /// A cluster with the paper's layout: 1 MDS, 3 OSDs, 1 monitor,
    /// Stream journaling on at dispatch size 40.
    pub fn new() -> CudeleFs {
        let os = Arc::new(InMemoryStore::paper_default());
        CudeleFs {
            server: MetadataServer::new(os.clone()),
            os,
            monitor: Monitor::new(),
            mounts: HashMap::new(),
        }
    }

    /// Mounts a client (opens its MDS session).
    pub fn mount(&mut self, client: ClientId) -> FsResult<()> {
        let (rpc, _cost) = RpcClient::mount(&mut self.server, client);
        self.mounts.insert(
            client,
            Mount {
                rpc,
                disk: LocalDisk::new(),
                decoupled: HashMap::new(),
            },
        );
        Ok(())
    }

    /// Administrator mkdir -p (not charged; cluster setup). Journaled, so
    /// the directories survive MDS recovery like any other update.
    pub fn mkdir_p(&mut self, path: &str) -> FsResult<InodeId> {
        Ok(self.server.setup_dir_durable(path)?)
    }

    // ------------------------------------------------------------------
    // The Cudele namespace API
    // ------------------------------------------------------------------

    /// The paper's `(path, policies.yml)` call: decouples `path` under
    /// `policy` for `client`. The monitor versions and distributes the
    /// policy; the MDS stores it on the subtree root's large inode; for
    /// non-RPC modes the client gets its allocated inode range.
    pub fn decouple(&mut self, client: ClientId, path: &str, policy: &Policy) -> FsResult<()> {
        if !self.mounts.contains_key(&client) {
            return Err(FsError::NotMounted(client));
        }
        let norm = normalize_path(path);
        self.monitor.set_policy(&norm, policy.clone());
        // The monitor persists every map change (Ceph MONs quorum-commit
        // theirs; ours writes straight to the object store).
        self.monitor.persist(self.os.as_ref()).map_err(|e| {
            FsError::Mds(MdsError::Io {
                what: format!("monmap persist ({e})"),
            })
        })?;
        let block = policy.interfere == InterferePolicy::Block
            && policy.operation_mode() == OperationMode::Decoupled;
        let rpc = self
            .server
            .set_subtree_policy(client, &norm, policy_to_blob(policy), block);
        rpc.result?;
        if policy.operation_mode() == OperationMode::Decoupled {
            let (dc, _cost) =
                DecoupledClient::decouple(&mut self.server, client, &norm, policy.allocated_inodes);
            let dc = dc?;
            let mount = self.mounts.get_mut(&client).expect("mount checked above");
            mount.decoupled.insert(norm, dc);
        }
        Ok(())
    }

    /// Parses a policies file and decouples — the literal
    /// `(msevilla/mydir, policies.yml)` form.
    pub fn decouple_with_file(
        &mut self,
        client: ClientId,
        path: &str,
        policies_yml: &str,
    ) -> FsResult<()> {
        let policy = parse_policies(policies_yml)?;
        self.decouple(client, path, &policy)
    }

    /// Routes a file create by subtree policy: decoupled subtrees append
    /// to the owner's client journal; everything else goes through RPCs.
    pub fn create(&mut self, client: ClientId, path: &str) -> FsResult<()> {
        let norm = normalize_path(path);
        let (dir_path, name) = split_parent(&norm)?;
        match self.route(client, &norm) {
            Route::Decoupled(subtree) => {
                let mount = self.mounts.get_mut(&client).expect("routed mount");
                let dc = mount.decoupled.get_mut(&subtree).expect("routed subtree");
                let rel = dir_path
                    .strip_prefix(subtree.as_str())
                    .unwrap_or("")
                    .to_string();
                let parent = dc.resolve_local(&rel)?;
                dc.create(parent, name)?;
                Ok(())
            }
            Route::Rpc => {
                let parent = self.server.store().resolve(dir_path)?;
                let mount = self
                    .mounts
                    .get_mut(&client)
                    .ok_or(FsError::NotMounted(client))?;
                let out = mount.rpc.create(&mut self.server, parent, name);
                out.result?;
                Ok(())
            }
        }
    }

    /// Routes a mkdir the same way.
    pub fn mkdir(&mut self, client: ClientId, path: &str) -> FsResult<()> {
        let norm = normalize_path(path);
        let (dir_path, name) = split_parent(&norm)?;
        match self.route(client, &norm) {
            Route::Decoupled(subtree) => {
                let mount = self.mounts.get_mut(&client).expect("routed mount");
                let dc = mount.decoupled.get_mut(&subtree).expect("routed subtree");
                let rel = dir_path
                    .strip_prefix(subtree.as_str())
                    .unwrap_or("")
                    .to_string();
                let parent = dc.resolve_local(&rel)?;
                dc.mkdir(parent, name)?;
                Ok(())
            }
            Route::Rpc => {
                let parent = self.server.store().resolve(dir_path)?;
                let mount = self
                    .mounts
                    .get_mut(&client)
                    .ok_or(FsError::NotMounted(client))?;
                let out = mount.rpc.mkdir(&mut self.server, parent, name);
                out.result?;
                Ok(())
            }
        }
    }

    /// Lists names in a directory of the *global* namespace (what an
    /// end-user checking progress sees: decoupled updates are invisible
    /// until merged/synced). Blocked subtrees return EBUSY for
    /// non-owners.
    pub fn ls(&mut self, client: ClientId, path: &str) -> FsResult<Vec<String>> {
        let ino = self.server.store().resolve(&normalize_path(path))?;
        let rpc = self.server.readdir(client, ino);
        Ok(rpc.result?.iter().map(|(n, _)| n.to_string()).collect())
    }

    /// Reads a path through the *owner's* decoupled view if one exists
    /// (read-your-writes), falling back to the global namespace.
    pub fn exists(&mut self, client: ClientId, path: &str) -> bool {
        let norm = normalize_path(path);
        if let Some(mount) = self.mounts.get_mut(&client) {
            for (subtree, dc) in &mut mount.decoupled {
                if norm == *subtree || norm.starts_with(&format!("{subtree}/")) {
                    let rel = norm.strip_prefix(subtree.as_str()).unwrap_or("");
                    return dc.resolve_local(rel).is_ok();
                }
            }
        }
        self.server.store().resolve(&norm).is_ok()
    }

    /// Merges a decoupled subtree back into the global namespace by
    /// executing its policy's merge composition, then lifts any interfere
    /// block. Returns the merge report (the paper's "create+merge" cost).
    pub fn merge(&mut self, client: ClientId, path: &str) -> FsResult<MergeReport> {
        let norm = normalize_path(path);
        let policy = self
            .monitor
            .policy_at(&norm)
            .cloned()
            .ok_or_else(|| FsError::NotDecoupled(norm.clone()))?;
        let mount = self
            .mounts
            .get_mut(&client)
            .ok_or(FsError::NotMounted(client))?;
        let dc = mount
            .decoupled
            .get_mut(&norm)
            .ok_or_else(|| FsError::NotDecoupled(norm.clone()))?;
        let report = match policy.merge_composition() {
            Some(comp) => execute_merge(
                &comp,
                dc,
                &mut ExecEnv {
                    server: &mut self.server,
                    os: self.os.as_ref(),
                    disk: &mut mount.disk,
                },
            )?,
            None => MergeReport {
                elapsed: Nanos::ZERO,
                per_mechanism: Vec::new(),
                events: dc.event_count(),
            },
        };
        let root = dc.root;
        self.server.release_subtree(root);
        dc.clear_journal();
        Ok(report)
    }

    /// Dynamically transitions a subtree to different semantics (the
    /// paper's future-work #2, implemented): merging first if the subtree
    /// is currently decoupled, then installing the new policy. "No
    /// guarantees while transitioning" — the new cell holds only after
    /// this returns.
    pub fn transition(
        &mut self,
        client: ClientId,
        path: &str,
        new_policy: &Policy,
    ) -> FsResult<Option<MergeReport>> {
        let norm = normalize_path(path);
        let had_decoupled = self
            .mounts
            .get(&client)
            .map(|m| m.decoupled.contains_key(&norm))
            .unwrap_or(false);
        let report = if had_decoupled {
            let r = self.merge(client, &norm)?;
            let mount = self.mounts.get_mut(&client).expect("checked");
            mount.decoupled.remove(&norm);
            Some(r)
        } else {
            None
        };
        self.decouple(client, &norm, new_policy)?;
        Ok(report)
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// The global namespace (server's authoritative view).
    pub fn namespace(&self) -> &MetadataStore {
        self.server.store()
    }

    /// The monitor's subtree policy map.
    pub fn monitor(&self) -> &Monitor {
        &self.monitor
    }

    /// The metadata server (tests and benches).
    pub fn server(&self) -> &MetadataServer {
        &self.server
    }

    /// Mutable server access (failure injection in tests).
    pub fn server_mut(&mut self) -> &mut MetadataServer {
        &mut self.server
    }

    /// The object store backing the cluster.
    pub fn object_store(&self) -> &Arc<InMemoryStore> {
        &self.os
    }

    /// A client's local disk (failure injection in tests).
    pub fn client_disk_mut(&mut self, client: ClientId) -> Option<&mut LocalDisk> {
        self.mounts.get_mut(&client).map(|m| &mut m.disk)
    }

    /// Restarts the whole control plane: the MDS rebuilds its namespace
    /// from the object store (persisted image + mdlog replay) and the
    /// monitor recovers its policy map from the persisted monmap. Client
    /// sessions, capabilities, and un-persisted decoupled journals are
    /// lost — clients must re-mount, exactly as after a real cluster
    /// bounce.
    pub fn restart_cluster(&mut self) -> FsResult<()> {
        self.server.flush_journal();
        self.server.crash_and_recover()?;
        self.monitor = Monitor::recover(self.os.as_ref()).map_err(|e| {
            FsError::Mds(MdsError::Io {
                what: format!("monmap recovery ({e})"),
            })
        })?;
        self.mounts.clear();
        // Re-arm interfere=block registrations from the recovered map: the
        // owners' sessions are gone, so blocks are lifted (a client that
        // wants isolation re-decouples) — matching the "no guarantees
        // while transitioning" stance.
        Ok(())
    }

    /// A client's decoupled handle for a subtree, if any.
    pub fn decoupled_client(&self, client: ClientId, path: &str) -> Option<&DecoupledClient> {
        self.mounts
            .get(&client)?
            .decoupled
            .get(&normalize_path(path))
    }

    fn route(&self, client: ClientId, path: &str) -> Route {
        if let Some(mount) = self.mounts.get(&client) {
            for subtree in mount.decoupled.keys() {
                if path == *subtree || path.starts_with(&format!("{subtree}/")) {
                    return Route::Decoupled(subtree.clone());
                }
            }
        }
        Route::Rpc
    }
}

impl Default for CudeleFs {
    fn default() -> Self {
        CudeleFs::new()
    }
}

enum Route {
    Decoupled(String),
    Rpc,
}

/// Splits `/a/b/name` into (`/a/b`, `name`).
fn split_parent(norm: &str) -> FsResult<(&str, &str)> {
    let idx = norm.rfind('/').expect("normalized paths contain /");
    let (dir, name) = norm.split_at(idx);
    let name = &name[1..];
    if name.is_empty() {
        return Err(FsError::Mds(MdsError::NoEnt {
            what: format!("cannot create at {norm:?}"),
        }));
    }
    Ok((if dir.is_empty() { "/" } else { dir }, name))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Consistency, Durability};

    const ALICE: ClientId = ClientId(1);
    const BOB: ClientId = ClientId(2);

    fn fs() -> CudeleFs {
        let mut fs = CudeleFs::new();
        fs.mount(ALICE).unwrap();
        fs.mount(BOB).unwrap();
        fs.mkdir_p("/home").unwrap();
        fs.mkdir_p("/batch").unwrap();
        fs
    }

    #[test]
    fn rpc_path_by_default() {
        let mut fs = fs();
        fs.create(ALICE, "/home/alice.txt").unwrap();
        // Strong consistency: Bob sees it immediately.
        assert!(fs.exists(BOB, "/home/alice.txt"));
        assert_eq!(fs.ls(BOB, "/home").unwrap(), vec!["alice.txt"]);
    }

    #[test]
    fn decoupled_subtree_is_invisible_until_merge() {
        let mut fs = fs();
        fs.decouple(ALICE, "/batch", &Policy::batchfs()).unwrap();
        for i in 0..10 {
            fs.create(ALICE, &format!("/batch/out{i}")).unwrap();
        }
        // Alice reads her own writes...
        assert!(fs.exists(ALICE, "/batch/out0"));
        // ...but the global namespace has nothing (invisible/weak).
        assert!(fs.ls(BOB, "/batch").unwrap().is_empty());
        assert!(!fs.exists(BOB, "/batch/out0"));

        let report = fs.merge(ALICE, "/batch").unwrap();
        assert_eq!(report.events, 10);
        assert!(report.elapsed > Nanos::ZERO);
        // BatchFS cell: local_persist + volatile_apply.
        assert_eq!(report.per_mechanism.len(), 2);
        assert_eq!(fs.ls(BOB, "/batch").unwrap().len(), 10);
    }

    #[test]
    fn nested_dirs_inside_decoupled_subtree() {
        let mut fs = fs();
        fs.decouple(ALICE, "/batch", &Policy::batchfs()).unwrap();
        fs.mkdir(ALICE, "/batch/job0").unwrap();
        fs.create(ALICE, "/batch/job0/part-0").unwrap();
        fs.create(ALICE, "/batch/job0/part-1").unwrap();
        assert!(fs.exists(ALICE, "/batch/job0/part-1"));
        fs.merge(ALICE, "/batch").unwrap();
        assert_eq!(fs.ls(BOB, "/batch/job0").unwrap().len(), 2);
    }

    #[test]
    fn deltafs_never_merges_into_global() {
        // DeltaFS is invisible/local: merge persists locally but "never
        // merges back into the global namespace".
        let mut fs = fs();
        fs.decouple(ALICE, "/batch", &Policy::deltafs()).unwrap();
        fs.mkdir(ALICE, "/batch/job0").unwrap();
        fs.create(ALICE, "/batch/job0/part-0").unwrap();
        let report = fs.merge(ALICE, "/batch").unwrap();
        // Only local_persist ran.
        assert_eq!(report.per_mechanism.len(), 1);
        assert!(fs.ls(BOB, "/batch").unwrap().is_empty());
        assert!(!fs.exists(BOB, "/batch/job0"));
    }

    #[test]
    fn owner_still_sees_merged_files_it_never_read() {
        // Create-only, then merge: the owner's mirror was never read, so
        // it is first built after the journal has been drained — from what
        // `clear_journal` folded on the way out. DeltaFS never merges into
        // the global namespace, so nothing else could answer.
        let mut fs = fs();
        fs.decouple(ALICE, "/batch", &Policy::deltafs()).unwrap();
        for i in 0..10 {
            fs.create(ALICE, &format!("/batch/out{i}")).unwrap();
        }
        assert_eq!(fs.merge(ALICE, "/batch").unwrap().events, 10);
        fs.create(ALICE, "/batch/after-merge").unwrap();
        assert!(fs.exists(ALICE, "/batch/out3"));
        assert!(fs.exists(ALICE, "/batch/after-merge"));
        assert!(!fs.exists(ALICE, "/batch/never-created"));
        assert!(!fs.exists(BOB, "/batch/out3"));
    }

    #[test]
    fn block_policy_returns_busy_to_interferers() {
        let mut fs = fs();
        let mut p = Policy::batchfs();
        p.interfere = InterferePolicy::Block;
        fs.decouple(ALICE, "/batch", &p).unwrap();
        // Bob is rejected at the server.
        let err = fs.create(BOB, "/batch/intruder").unwrap_err();
        assert!(matches!(err, FsError::Mds(MdsError::Busy { .. })));
        let err = fs.ls(BOB, "/batch").unwrap_err();
        assert!(matches!(err, FsError::Mds(MdsError::Busy { .. })));
        // After the merge the subtree opens up again.
        fs.create(ALICE, "/batch/mine").unwrap();
        fs.merge(ALICE, "/batch").unwrap();
        assert_eq!(fs.ls(BOB, "/batch").unwrap(), vec!["mine"]);
    }

    #[test]
    fn allow_policy_lets_interferers_in() {
        let mut fs = fs();
        fs.decouple(ALICE, "/batch", &Policy::batchfs()).unwrap(); // allow default
        fs.create(BOB, "/batch/bobs-file").unwrap(); // RPC path, accepted
        assert!(fs.exists(BOB, "/batch/bobs-file"));
    }

    #[test]
    fn decoupled_merge_wins_over_interferer() {
        // "metadata from the interfering client will be written and the
        // computation from the decoupled namespace will take priority at
        // merge time".
        let mut fs = fs();
        fs.decouple(ALICE, "/batch", &Policy::batchfs()).unwrap();
        fs.create(ALICE, "/batch/result").unwrap();
        fs.create(BOB, "/batch/result").unwrap(); // same name via RPCs
        fs.merge(ALICE, "/batch").unwrap();
        // Alice's inode won.
        let ino = fs.namespace().resolve("/batch/result").unwrap();
        let dc_range_start = 0x1000; // dynamic range
        assert!(ino.0 >= dc_range_start);
        assert_eq!(fs.ls(BOB, "/batch").unwrap(), vec!["result"]);
    }

    #[test]
    fn policies_file_end_to_end() {
        let mut fs = fs();
        fs.decouple_with_file(
            ALICE,
            "/batch",
            "consistency: weak\ndurability: global\nallocated_inodes: 500\ninterfere: block\n",
        )
        .unwrap();
        for i in 0..5 {
            fs.create(ALICE, &format!("/batch/f{i}")).unwrap();
        }
        let report = fs.merge(ALICE, "/batch").unwrap();
        // weak/global cell: global_persist + volatile_apply.
        assert_eq!(report.per_mechanism.len(), 2);
        assert_eq!(fs.ls(BOB, "/batch").unwrap().len(), 5);
        // Globally persisted: the journal exists in the object store.
        let dc = fs.decoupled_client(ALICE, "/batch").unwrap();
        assert!(cudele_journal::journal_exists(
            fs.object_store().as_ref(),
            dc.journal_id()
        ));
    }

    #[test]
    fn monitor_versions_track_decouples() {
        let mut fs = fs();
        assert_eq!(fs.monitor().version(), 0);
        fs.decouple(ALICE, "/batch", &Policy::batchfs()).unwrap();
        assert_eq!(fs.monitor().version(), 1);
        let (root, p) = fs.monitor().resolve("/batch/deep/file").unwrap();
        assert_eq!(root, "/batch");
        assert_eq!(p.consistency, Consistency::Weak);
    }

    #[test]
    fn transition_weak_to_strong_merges_first() {
        let mut fs = fs();
        fs.decouple(ALICE, "/batch", &Policy::batchfs()).unwrap();
        fs.create(ALICE, "/batch/pre-transition").unwrap();
        let report = fs
            .transition(ALICE, "/batch", &Policy::posix())
            .unwrap()
            .expect("merge ran");
        assert_eq!(report.events, 1);
        // Now strong: creates are RPCs and globally visible at once.
        fs.create(ALICE, "/batch/post-transition").unwrap();
        assert!(fs.exists(BOB, "/batch/pre-transition"));
        assert!(fs.exists(BOB, "/batch/post-transition"));
        assert_eq!(
            fs.monitor().policy_at("/batch").unwrap().durability,
            Durability::Global
        );
    }

    #[test]
    fn cluster_restart_recovers_namespace_and_policies() {
        let mut fs = fs();
        fs.decouple(ALICE, "/batch", &Policy::batchfs()).unwrap();
        fs.create(ALICE, "/batch/pre").unwrap();
        fs.merge(ALICE, "/batch").unwrap();
        fs.create(BOB, "/home/posix-file").unwrap();

        fs.restart_cluster().unwrap();
        // Policies survived via the monmap.
        assert_eq!(
            fs.monitor().policy_at("/batch").map(|p| p.consistency),
            Some(Consistency::Weak)
        );
        // Journaled namespace survived (mkdir_p is journaled; merge is
        // volatile and was lost with the MDS memory — by design).
        assert!(fs.namespace().resolve("/home").is_ok());
        assert!(fs.namespace().resolve("/home/posix-file").is_ok());
        // Clients must re-mount.
        assert!(matches!(
            fs.create(BOB, "/home/after"),
            Err(FsError::NotMounted(_))
        ));
        fs.mount(BOB).unwrap();
        fs.create(BOB, "/home/after").unwrap();
    }

    #[test]
    fn create_without_mount_fails() {
        let mut fs = CudeleFs::new();
        fs.mkdir_p("/d").unwrap();
        assert!(matches!(
            fs.create(ClientId(9), "/d/f"),
            Err(FsError::NotMounted(ClientId(9)))
        ));
    }

    #[test]
    fn split_parent_cases() {
        assert_eq!(split_parent("/a/b/c").unwrap(), ("/a/b", "c"));
        assert_eq!(split_parent("/top").unwrap(), ("/", "top"));
        assert!(split_parent("/").is_err());
    }
}
