//! The client-local disk used by the Local Persist mechanism.
//!
//! "For Local Persist, clients write serialized log events to a file on
//! local disk." Local durability means "updates will be retained if the
//! client node recovers and reads the updates from local storage" — but if
//! the node *stays* down, they are gone. The failure model here captures
//! exactly that distinction for the durability failure-injection tests.

use std::collections::HashMap;

/// A simulated client-local disk (one per client node).
#[derive(Debug, Clone, Default)]
pub struct LocalDisk {
    files: HashMap<String, Vec<u8>>,
    /// Bytes written over the disk's lifetime (bandwidth accounting).
    bytes_written: u64,
    /// Set when the node is down; reads fail until `recover` is called.
    down: bool,
}

/// Errors for local-disk access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiskError {
    /// The node is down; its disk is unreachable.
    NodeDown,
    /// No such file.
    NotFound(String),
    /// The node was destroyed (stayed down); contents are gone forever.
    Destroyed,
    /// The file is there but does not decode.
    Corrupt {
        /// The file that was read.
        path: String,
        /// The decoder's error, as text.
        detail: String,
    },
}

impl std::fmt::Display for DiskError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiskError::NodeDown => write!(f, "client node is down"),
            DiskError::NotFound(p) => write!(f, "no such local file: {p}"),
            DiskError::Destroyed => write!(f, "client node destroyed; local data lost"),
            DiskError::Corrupt { path, detail } => {
                write!(f, "local file {path} is corrupt: {detail}")
            }
        }
    }
}

impl std::error::Error for DiskError {}

impl LocalDisk {
    /// An empty, healthy disk.
    pub fn new() -> LocalDisk {
        LocalDisk::default()
    }

    /// Writes (replacing) a file.
    pub fn write(&mut self, path: &str, data: &[u8]) -> Result<(), DiskError> {
        if self.down {
            return Err(DiskError::NodeDown);
        }
        self.bytes_written += data.len() as u64;
        self.files.insert(path.to_string(), data.to_vec());
        Ok(())
    }

    /// Appends to a file, creating it if needed.
    pub fn append(&mut self, path: &str, data: &[u8]) -> Result<(), DiskError> {
        if self.down {
            return Err(DiskError::NodeDown);
        }
        self.bytes_written += data.len() as u64;
        self.files
            .entry(path.to_string())
            .or_default()
            .extend_from_slice(data);
        Ok(())
    }

    /// Reads a file.
    pub fn read(&self, path: &str) -> Result<&[u8], DiskError> {
        if self.down {
            return Err(DiskError::NodeDown);
        }
        self.files
            .get(path)
            .map(|v| v.as_slice())
            .ok_or_else(|| DiskError::NotFound(path.to_string()))
    }

    /// Removes a file; true if it existed.
    pub fn remove(&mut self, path: &str) -> bool {
        self.files.remove(path).is_some()
    }

    /// Total bytes written over the disk's lifetime.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// The node crashes. Contents are preserved but unreachable until
    /// [`LocalDisk::recover`].
    pub fn crash(&mut self) {
        self.down = true;
    }

    /// The node comes back; local durability pays off.
    pub fn recover(&mut self) {
        self.down = false;
    }

    /// The node stays down forever; everything on it is lost. ("If the
    /// client fails and stays down then computation must be done again.")
    pub fn destroy(&mut self) {
        self.files.clear();
        self.down = true;
    }

    /// Whether the node is currently down.
    pub fn is_down(&self) -> bool {
        self.down
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_roundtrip() {
        let mut d = LocalDisk::new();
        d.write("journal.bin", b"abc").unwrap();
        assert_eq!(d.read("journal.bin").unwrap(), b"abc");
        assert_eq!(d.bytes_written(), 3);
    }

    #[test]
    fn append_accumulates() {
        let mut d = LocalDisk::new();
        d.append("j", b"ab").unwrap();
        d.append("j", b"cd").unwrap();
        assert_eq!(d.read("j").unwrap(), b"abcd");
    }

    #[test]
    fn crash_blocks_access_recover_restores() {
        let mut d = LocalDisk::new();
        d.write("j", b"x").unwrap();
        d.crash();
        assert!(d.is_down());
        assert_eq!(d.read("j"), Err(DiskError::NodeDown));
        assert_eq!(d.write("k", b"y"), Err(DiskError::NodeDown));
        d.recover();
        assert_eq!(d.read("j").unwrap(), b"x");
    }

    #[test]
    fn destroy_loses_data_permanently() {
        let mut d = LocalDisk::new();
        d.write("j", b"x").unwrap();
        d.destroy();
        d.recover(); // even if the node is replaced...
        assert_eq!(d.read("j"), Err(DiskError::NotFound("j".into())));
    }

    #[test]
    fn missing_file() {
        let d = LocalDisk::new();
        assert!(matches!(d.read("nope"), Err(DiskError::NotFound(_))));
    }
}
