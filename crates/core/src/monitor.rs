//! The monitor: cluster-state and policy distribution.
//!
//! "Users control consistency and durability for subtrees by contacting a
//! daemon in the system called a monitor, which manages cluster state
//! changes. Users present a directory path and a policies configuration
//! that gets distributed and versioned by the monitor to all daemons in
//! the system."
//!
//! The monitor holds the authoritative, versioned subtree→policy map.
//! Resolution is longest-prefix: "subtrees without policies inherit the
//! consistency/durability semantics of the parent".

use std::collections::BTreeMap;

use cudele_rados::{ObjectId, ObjectStore, PoolId, RadosError};

use crate::policies_file::{parse_policies, render_policies};
use crate::policy::{Policy, PolicyParseError};

/// A versioned subtree→policy map.
#[derive(Debug, Clone, Default)]
pub struct Monitor {
    /// Normalized path -> (policy, version at which it was set).
    subtrees: BTreeMap<String, (Policy, u64)>,
    version: u64,
}

/// Normalizes a path to `/a/b/c` form (no trailing slash; root is `/`).
pub fn normalize_path(path: &str) -> String {
    let mut out = String::from("/");
    for comp in path.split('/').filter(|c| !c.is_empty()) {
        if out.len() > 1 {
            out.push('/');
        }
        out.push_str(comp);
    }
    out
}

impl Monitor {
    /// An empty monitor at version 0.
    pub fn new() -> Monitor {
        Monitor::default()
    }

    /// The current cluster-map version. Bumped on every policy change so
    /// daemons can detect staleness.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Installs (or replaces) the policy for a subtree. Returns the new
    /// map version.
    pub fn set_policy(&mut self, path: &str, policy: Policy) -> u64 {
        self.version += 1;
        self.subtrees
            .insert(normalize_path(path), (policy, self.version));
        self.version
    }

    /// Removes a subtree's policy (it reverts to inheriting). Returns the
    /// new version if something was removed.
    pub fn clear_policy(&mut self, path: &str) -> Option<u64> {
        if self.subtrees.remove(&normalize_path(path)).is_some() {
            self.version += 1;
            Some(self.version)
        } else {
            None
        }
    }

    /// The policy explicitly set on exactly `path`, if any.
    pub fn policy_at(&self, path: &str) -> Option<&Policy> {
        self.subtrees.get(&normalize_path(path)).map(|(p, _)| p)
    }

    /// Resolves the policy in effect at `path` by longest-prefix match
    /// (inheritance). Returns the owning subtree root and its policy.
    pub fn resolve(&self, path: &str) -> Option<(&str, &Policy)> {
        let path = normalize_path(path);
        let mut best: Option<(&str, &Policy)> = None;
        for (root, (policy, _)) in &self.subtrees {
            let is_prefix = if root == "/" {
                true
            } else {
                path == *root || path.starts_with(&format!("{root}/"))
            };
            if is_prefix {
                match best {
                    Some((b, _)) if b.len() >= root.len() => {}
                    _ => best = Some((root.as_str(), policy)),
                }
            }
        }
        best
    }

    /// All policied subtrees with the versions at which they were set.
    pub fn subtrees(&self) -> impl Iterator<Item = (&str, &Policy, u64)> {
        self.subtrees
            .iter()
            .map(|(path, (policy, v))| (path.as_str(), policy, *v))
    }

    /// Number of policied subtrees.
    pub fn len(&self) -> usize {
        self.subtrees.len()
    }

    /// Whether no subtree carries a policy.
    pub fn is_empty(&self) -> bool {
        self.subtrees.is_empty()
    }

    // ------------------------------------------------------------------
    // Durability (the Ceph MON persists its cluster maps; so do we)
    // ------------------------------------------------------------------

    /// Persists the full policy map to the object store: one `monmap`
    /// object whose omap maps subtree path to `version\n<policies file>`.
    pub fn persist<S: ObjectStore + ?Sized>(&self, os: &S) -> Result<(), RadosError> {
        let obj = monmap_object();
        // Replace wholesale so cleared policies do not linger: `write_full`
        // keeps the omap, so a removal that fails (other than "already
        // gone") must fail the persist.
        match os.remove(&obj) {
            Ok(()) | Err(RadosError::NoEnt(_)) => {}
            Err(e) => return Err(e),
        }
        os.write_full(&obj, self.version.to_le_bytes().as_slice())?;
        for (path, (policy, v)) in &self.subtrees {
            let value = format!("{v}\n{}", render_policies(policy));
            os.omap_set(&obj, path, value.as_bytes())?;
        }
        Ok(())
    }

    /// Restores a monitor from its persisted map. A missing map yields a
    /// fresh monitor (first boot).
    pub fn recover<S: ObjectStore + ?Sized>(os: &S) -> Result<Monitor, MonitorRecoveryError> {
        let obj = monmap_object();
        let version_bytes = match os.read(&obj) {
            Ok(b) => b,
            Err(RadosError::NoEnt(_)) => return Ok(Monitor::new()),
            Err(e) => return Err(MonitorRecoveryError::Rados(e)),
        };
        if version_bytes.len() != 8 {
            return Err(MonitorRecoveryError::Corrupt("bad monmap version".into()));
        }
        let version = u64::from_le_bytes(version_bytes.as_ref().try_into().expect("checked len"));
        let mut subtrees = BTreeMap::new();
        for (path, value) in os.omap_list(&obj).map_err(MonitorRecoveryError::Rados)? {
            let text = std::str::from_utf8(&value)
                .map_err(|_| MonitorRecoveryError::Corrupt(format!("non-utf8 entry {path}")))?;
            let (v, file) = text.split_once('\n').ok_or_else(|| {
                MonitorRecoveryError::Corrupt(format!("unversioned entry {path}"))
            })?;
            let v: u64 = v
                .parse()
                .map_err(|_| MonitorRecoveryError::Corrupt(format!("bad version for {path}")))?;
            let policy = parse_policies(file).map_err(MonitorRecoveryError::Policy)?;
            subtrees.insert(path, (policy, v));
        }
        Ok(Monitor { subtrees, version })
    }
}

fn monmap_object() -> ObjectId {
    ObjectId::new(PoolId::METADATA, "monmap")
}

/// Errors recovering a persisted monitor map.
#[derive(Debug)]
pub enum MonitorRecoveryError {
    /// The object store failed.
    Rados(RadosError),
    /// The monmap object was malformed.
    Corrupt(String),
    /// A stored policy failed to parse.
    Policy(PolicyParseError),
}

impl std::fmt::Display for MonitorRecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MonitorRecoveryError::Rados(e) => write!(f, "object store error: {e}"),
            MonitorRecoveryError::Corrupt(m) => write!(f, "corrupt monmap: {m}"),
            MonitorRecoveryError::Policy(e) => write!(f, "corrupt stored policy: {e}"),
        }
    }
}

impl std::error::Error for MonitorRecoveryError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Consistency, Durability, InterferePolicy};
    use cudele_rados::InMemoryStore;

    #[test]
    fn normalization() {
        assert_eq!(normalize_path(""), "/");
        assert_eq!(normalize_path("/"), "/");
        assert_eq!(normalize_path("a/b"), "/a/b");
        assert_eq!(normalize_path("/a//b/"), "/a/b");
    }

    #[test]
    fn normalization_edge_cases() {
        // Repeated and trailing separators collapse entirely.
        assert_eq!(normalize_path("//a//b/"), "/a/b");
        assert_eq!(normalize_path("///"), "/");
        assert_eq!(normalize_path("a"), "/a");
        assert_eq!(normalize_path("/a/"), "/a");
        // Idempotent on already-normal paths.
        assert_eq!(normalize_path("/a/b"), "/a/b");
        assert_eq!(normalize_path(&normalize_path("//x///y//")), "/x/y");
    }

    #[test]
    fn resolution_normalizes_both_sides() {
        let mut m = Monitor::new();
        // Stored under a messy spelling, looked up under another.
        m.set_policy("//batch///job1/", Policy::deltafs());
        let (root, p) = m.resolve("/batch/job1//output/").unwrap();
        assert_eq!(root, "/batch/job1");
        assert_eq!(p.consistency, Consistency::Invisible);
        // The subtree root itself matches, however spelled.
        assert!(m.resolve("batch/job1").is_some());
        // A sibling does not.
        assert!(m.resolve("/batch").is_none());
    }

    #[test]
    fn root_policy_matches_everything_but_specific_wins() {
        let mut m = Monitor::new();
        m.set_policy("/", Policy::posix());
        m.set_policy("/a/b", Policy::batchfs());
        // Exact root and arbitrary depth fall back to "/".
        assert_eq!(m.resolve("/").unwrap().0, "/");
        assert_eq!(m.resolve("/x/y/z").unwrap().0, "/");
        // The deeper entry shadows the root for its subtree.
        assert_eq!(m.resolve("/a/b").unwrap().0, "/a/b");
        assert_eq!(m.resolve("/a/b/c").unwrap().0, "/a/b");
        // A path sharing only a string prefix with "/a/b" uses the root.
        assert_eq!(m.resolve("/a/bc").unwrap().0, "/");
    }

    #[test]
    fn versions_bump_on_changes() {
        let mut m = Monitor::new();
        assert_eq!(m.version(), 0);
        let v1 = m.set_policy("/batch", Policy::batchfs());
        assert_eq!(v1, 1);
        let v2 = m.set_policy("/home", Policy::posix());
        assert_eq!(v2, 2);
        // Replacing also bumps.
        let v3 = m.set_policy("/batch", Policy::deltafs());
        assert_eq!(v3, 3);
        assert_eq!(m.clear_policy("/batch"), Some(4));
        assert_eq!(m.clear_policy("/batch"), None);
        assert_eq!(m.version(), 4);
    }

    #[test]
    fn longest_prefix_resolution() {
        let mut m = Monitor::new();
        m.set_policy("/", Policy::posix());
        m.set_policy("/batch", Policy::batchfs());
        m.set_policy("/batch/job1", Policy::deltafs());

        let (root, p) = m.resolve("/batch/job1/output/file").unwrap();
        assert_eq!(root, "/batch/job1");
        assert_eq!(p.consistency, Consistency::Invisible);

        let (root, p) = m.resolve("/batch/job2").unwrap();
        assert_eq!(root, "/batch");
        assert_eq!(p.consistency, Consistency::Weak);

        let (root, p) = m.resolve("/home/alice").unwrap();
        assert_eq!(root, "/");
        assert_eq!(p.durability, Durability::Global);
    }

    #[test]
    fn prefix_matching_is_component_wise() {
        let mut m = Monitor::new();
        m.set_policy("/batch", Policy::batchfs());
        // "/batchelor" must NOT match "/batch".
        assert!(m.resolve("/batchelor/file").is_none());
        assert!(m.resolve("/batch/file").is_some());
        assert!(m.resolve("/batch").is_some());
    }

    #[test]
    fn unpolicied_paths_resolve_to_none() {
        let m = Monitor::new();
        assert!(m.resolve("/anything").is_none());
        assert!(m.is_empty());
    }

    #[test]
    fn persist_recover_roundtrip() {
        let os = InMemoryStore::paper_default();
        let mut m = Monitor::new();
        m.set_policy("/batch", Policy::batchfs());
        let mut custom = Policy::hdfs();
        custom.allocated_inodes = 4242;
        custom.interfere = InterferePolicy::Block;
        m.set_policy("/jobs/stage1", custom.clone());
        m.set_policy("/gone", Policy::posix());
        m.clear_policy("/gone");
        m.persist(&os).unwrap();

        let r = Monitor::recover(&os).unwrap();
        assert_eq!(r.version(), m.version());
        assert_eq!(r.len(), 2);
        assert_eq!(r.policy_at("/batch"), m.policy_at("/batch"));
        assert_eq!(r.policy_at("/jobs/stage1"), Some(&custom));
        assert_eq!(r.policy_at("/gone"), None);
        // Resolution behaves identically after recovery.
        assert_eq!(
            r.resolve("/jobs/stage1/part").map(|(p, _)| p),
            m.resolve("/jobs/stage1/part").map(|(p, _)| p)
        );
    }

    #[test]
    fn recover_from_empty_store_is_fresh_monitor() {
        let os = InMemoryStore::paper_default();
        let m = Monitor::recover(&os).unwrap();
        assert_eq!(m.version(), 0);
        assert!(m.is_empty());
    }

    #[test]
    fn repersist_drops_cleared_policies() {
        let os = InMemoryStore::paper_default();
        let mut m = Monitor::new();
        m.set_policy("/a", Policy::batchfs());
        m.persist(&os).unwrap();
        m.clear_policy("/a");
        m.set_policy("/b", Policy::deltafs());
        m.persist(&os).unwrap();
        let r = Monitor::recover(&os).unwrap();
        assert!(r.policy_at("/a").is_none());
        assert!(r.policy_at("/b").is_some());
    }

    #[test]
    fn subtrees_iterates_with_versions() {
        let mut m = Monitor::new();
        m.set_policy("/a", Policy::batchfs());
        m.set_policy("/b", Policy::deltafs());
        let entries: Vec<_> = m.subtrees().collect();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].0, "/a");
        assert_eq!(entries[0].2, 1);
        assert_eq!(entries[1].2, 2);
    }
}
