//! The capability ("caps") protocol that keeps metadata strongly
//! consistent on the RPC path.
//!
//! "To reduce the number of RPCs needed for consistency, clients can obtain
//! capabilities for reading and writing inodes, as well as caching reads
//! [...] If a client has the directory inode cached it can do metadata
//! writes (e.g., create) with a single RPC. If the client is not caching
//! the directory inode then it must do an extra RPC to determine if the
//! file exists."
//!
//! The state machine per directory inode:
//!
//! * The first client to write into a directory is granted the read-caching
//!   cap immediately (it is the sole user).
//! * When a *different* client writes into the directory, the holder's cap
//!   is revoked (false sharing — Figure 3b/3c). Nobody caches until one
//!   client has been the sole writer for `regrant_after` consecutive
//!   operations (see [`CapTable::with_regrant_after`]), at which point it
//!   is re-granted.
//!
//! This reproduces the paper's Figure 3c dynamics: an interferer touching a
//! directory forces the victim back to `lookup() + create()` pairs until
//! the directory quiesces.

use std::collections::HashMap;

use cudele_journal::InodeId;

/// A storage client (one mounted session).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClientId(pub u32);

impl std::fmt::Display for ClientId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "client{}", self.0)
    }
}

/// What happened to capabilities as a result of one directory write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CapOutcome {
    /// Whether the writing client holds the dir read-caching cap *after*
    /// this operation (so its next create needs no lookup).
    pub writer_has_cache: bool,
    /// A cap revocation this operation triggered, if any — the MDS does
    /// extra work and sends a revoke message to this client.
    pub revoked_from: Option<ClientId>,
    /// Whether the cap was (re-)granted to the writer by this operation.
    pub granted: bool,
}

#[derive(Debug, Default, Clone)]
struct DirCaps {
    cache_holder: Option<ClientId>,
    last_writer: Option<ClientId>,
    consecutive_sole: u64,
}

/// Per-directory capability state for one MDS.
#[derive(Debug, Clone)]
pub struct CapTable {
    dirs: HashMap<InodeId, DirCaps>,
    /// Consecutive sole-writer operations before the cache cap is
    /// re-granted after contention.
    regrant_after: u64,
    revocations: u64,
    grants: u64,
}

impl CapTable {
    /// Default contention cool-down before a cap is re-granted.
    pub const DEFAULT_REGRANT_AFTER: u64 = 100;

    /// A table with the default cool-down.
    pub fn new() -> CapTable {
        CapTable::with_regrant_after(Self::DEFAULT_REGRANT_AFTER)
    }

    /// Custom cool-down (tests use small values).
    pub fn with_regrant_after(regrant_after: u64) -> CapTable {
        assert!(regrant_after > 0);
        CapTable {
            dirs: HashMap::new(),
            regrant_after,
            revocations: 0,
            grants: 0,
        }
    }

    /// Whether `client` currently holds the read-caching cap on `dir`.
    pub fn holds_cache(&self, dir: InodeId, client: ClientId) -> bool {
        self.dirs
            .get(&dir)
            .is_some_and(|d| d.cache_holder == Some(client))
    }

    /// Records a write (create/unlink/...) into `dir` by `client` and
    /// updates capability state.
    pub fn on_dir_write(&mut self, dir: InodeId, client: ClientId) -> CapOutcome {
        let state = self.dirs.entry(dir).or_default();
        // Untouched directory: sole user gets the cap immediately.
        if state.cache_holder.is_none() && state.last_writer.is_none() {
            state.cache_holder = Some(client);
            state.last_writer = Some(client);
            state.consecutive_sole = 1;
            self.grants += 1;
            return CapOutcome {
                writer_has_cache: true,
                revoked_from: None,
                granted: true,
            };
        }
        match state.cache_holder {
            Some(holder) if holder == client => {
                state.last_writer = Some(client);
                state.consecutive_sole += 1;
                CapOutcome {
                    writer_has_cache: true,
                    revoked_from: None,
                    granted: false,
                }
            }
            Some(holder) => {
                // False sharing: revoke the holder's cap.
                state.cache_holder = None;
                state.last_writer = Some(client);
                state.consecutive_sole = 1;
                self.revocations += 1;
                CapOutcome {
                    writer_has_cache: false,
                    revoked_from: Some(holder),
                    granted: false,
                }
            }
            None => {
                if state.last_writer == Some(client) {
                    state.consecutive_sole += 1;
                    if state.consecutive_sole >= self.regrant_after {
                        state.cache_holder = Some(client);
                        self.grants += 1;
                        return CapOutcome {
                            writer_has_cache: true,
                            revoked_from: None,
                            granted: true,
                        };
                    }
                } else {
                    state.last_writer = Some(client);
                    state.consecutive_sole = 1;
                }
                CapOutcome {
                    writer_has_cache: false,
                    revoked_from: None,
                    granted: false,
                }
            }
        }
    }

    /// Drops all capability state held by a departing client.
    pub fn drop_client(&mut self, client: ClientId) {
        for state in self.dirs.values_mut() {
            if state.cache_holder == Some(client) {
                state.cache_holder = None;
            }
            if state.last_writer == Some(client) {
                state.last_writer = None;
                state.consecutive_sole = 0;
            }
        }
    }

    /// Total revocations performed (Figure 3c's "metadata servers do more
    /// work").
    pub fn revocations(&self) -> u64 {
        self.revocations
    }

    /// Total cap grants performed.
    pub fn grants(&self) -> u64 {
        self.grants
    }

    /// Number of directories with tracked state.
    pub fn tracked_dirs(&self) -> usize {
        self.dirs.len()
    }
}

impl Default for CapTable {
    fn default() -> Self {
        CapTable::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DIR: InodeId = InodeId(0x1000);
    const C1: ClientId = ClientId(1);
    const C2: ClientId = ClientId(2);

    #[test]
    fn sole_client_gets_cap_immediately() {
        let mut t = CapTable::new();
        let o = t.on_dir_write(DIR, C1);
        assert!(o.writer_has_cache);
        assert!(o.granted);
        assert!(t.holds_cache(DIR, C1));
        // Keeps it on subsequent writes.
        let o = t.on_dir_write(DIR, C1);
        assert!(o.writer_has_cache);
        assert!(!o.granted);
    }

    #[test]
    fn interference_revokes() {
        let mut t = CapTable::new();
        t.on_dir_write(DIR, C1);
        let o = t.on_dir_write(DIR, C2);
        assert_eq!(o.revoked_from, Some(C1));
        assert!(!o.writer_has_cache);
        assert!(!t.holds_cache(DIR, C1));
        assert!(!t.holds_cache(DIR, C2));
        assert_eq!(t.revocations(), 1);
    }

    #[test]
    fn cap_regranted_after_quiescence() {
        let mut t = CapTable::with_regrant_after(5);
        t.on_dir_write(DIR, C1);
        t.on_dir_write(DIR, C2); // revoke
                                 // C1 writes alone; after 5 consecutive ops it gets the cap back.
        let mut granted_at = None;
        for i in 0..10 {
            let o = t.on_dir_write(DIR, C1);
            if o.granted {
                granted_at = Some(i);
                break;
            }
        }
        assert_eq!(granted_at, Some(4)); // 5th consecutive op (0-indexed)
        assert!(t.holds_cache(DIR, C1));
    }

    #[test]
    fn alternating_writers_never_regrant() {
        let mut t = CapTable::with_regrant_after(3);
        t.on_dir_write(DIR, C1);
        t.on_dir_write(DIR, C2);
        for _ in 0..20 {
            assert!(!t.on_dir_write(DIR, C1).writer_has_cache);
            assert!(!t.on_dir_write(DIR, C2).writer_has_cache);
        }
    }

    #[test]
    fn contention_counter_resets_on_writer_change() {
        let mut t = CapTable::with_regrant_after(3);
        t.on_dir_write(DIR, C1);
        t.on_dir_write(DIR, C2); // revoke; C2 sole=1
        t.on_dir_write(DIR, C2); // sole=2
        t.on_dir_write(DIR, C1); // writer change; C1 sole=1
        t.on_dir_write(DIR, C1); // sole=2
        let o = t.on_dir_write(DIR, C1); // sole=3 -> regrant
        assert!(o.granted);
    }

    #[test]
    fn independent_directories() {
        let mut t = CapTable::new();
        t.on_dir_write(InodeId(0x1000), C1);
        t.on_dir_write(InodeId(0x1001), C2);
        assert!(t.holds_cache(InodeId(0x1000), C1));
        assert!(t.holds_cache(InodeId(0x1001), C2));
        assert_eq!(t.revocations(), 0);
        assert_eq!(t.tracked_dirs(), 2);
    }

    #[test]
    fn drop_client_releases_caps() {
        let mut t = CapTable::new();
        t.on_dir_write(DIR, C1);
        t.drop_client(C1);
        assert!(!t.holds_cache(DIR, C1));
        // Next writer is treated as entering a quiesced directory: it must
        // earn the cap back via the cool-down (last_writer was cleared).
        let o = t.on_dir_write(DIR, C2);
        assert!(!o.writer_has_cache || o.granted);
    }
}
