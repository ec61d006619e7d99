//! Differential test of the decoupled client's lazily folded local mirror.
//!
//! A `DecoupledClient` update is one journal append; the mirror behind
//! `local_namespace` / `resolve_local` is caught up from the journal when
//! it is read. The reference is what the mirror used to be: a
//! `MetadataStore` that applies every event the moment it is appended.
//! Over random create / mkdir / unlink / rename / read / `clear_journal`
//! schedules the two must agree at every read point, and a client
//! recovered from its local disk must mirror exactly the journal that was
//! persisted.

use proptest::prelude::*;

use cudele_client::{DecoupledClient, DiskError, LocalDisk};
use cudele_journal::{InodeId, InodeRange};
use cudele_mds::{ClientId, MetadataStore};
use cudele_sim::CostModel;

/// The subtree is the whole namespace, so `snapshot()` (which walks from
/// the root inode) sees everything the client wrote.
const ROOT: InodeId = InodeId::ROOT;
const FIRST: InodeId = InodeId(0x1000);

fn client() -> DecoupledClient {
    DecoupledClient::new(ClientId(3), ROOT, InodeRange::new(FIRST, 4096))
}

/// The eager mirror: one store that has seen every event ever appended
/// (what the owner reads), one that has seen those still in the journal
/// (what a recovery from local disk can rebuild).
struct Reference {
    ever: MetadataStore,
    in_journal: MetadataStore,
}

impl Reference {
    /// Applies the event the client just appended.
    fn appended(&mut self, c: &DecoupledClient) {
        let e = c.events().last().expect("an update appends an event");
        self.ever.apply_blind(e);
        self.in_journal.apply_blind(e);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn lazy_mirror_matches_a_mirror_applied_at_append_time(
        ops in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()), 1..120),
    ) {
        let cm = CostModel::calibrated();
        let mut c = client();
        let mut r = Reference { ever: MetadataStore::new(), in_journal: MetadataStore::new() };
        // Directories the schedule may name as a parent: the subtree root,
        // every mkdir's inode (unlinked or not), and one nobody made.
        let mut dirs = vec![ROOT, InodeId(0xdead)];
        // Inodes consumed by events a `clear_journal` has since drained: a
        // recovery counts only what the persisted journal allocates.
        let mut cleared = 0;
        let fname = |x: u8| format!("f{}", x % 10);
        let dname = |x: u8| format!("d{}", x % 4);
        let any_name = |x: u8| if x.is_multiple_of(3) { dname(x) } else { fname(x) };
        for &(kind, a, b, x) in &ops {
            let parent = dirs[usize::from(a) % dirs.len()];
            match kind % 16 {
                0..=5 => {
                    c.create(parent, &fname(b)).unwrap();
                    r.appended(&c);
                }
                6 | 7 => {
                    dirs.push(c.mkdir(parent, &dname(b)).unwrap());
                    r.appended(&c);
                }
                8 | 9 => {
                    c.unlink(parent, &any_name(b));
                    r.appended(&c);
                }
                10 | 11 => {
                    let dst = dirs[usize::from(x) % dirs.len()];
                    c.rename(parent, &any_name(b), dst, &any_name(x.wrapping_mul(31)));
                    r.appended(&c);
                }
                12 => {
                    prop_assert_eq!(c.local_namespace().snapshot(), r.ever.snapshot());
                }
                13 => {
                    // One name, through the path resolver; the root itself
                    // resolves without a read.
                    let name = any_name(b);
                    prop_assert_eq!(
                        c.resolve_local(&name).ok(),
                        r.ever.lookup(ROOT, &name).ok().map(|d| d.ino)
                    );
                    prop_assert_eq!(c.resolve_local("").ok(), Some(ROOT));
                }
                14 => {
                    // The merge landed: the journal is drained, the owner
                    // still reads everything it wrote.
                    cleared += c.events().iter().filter_map(|e| e.allocates()).count() as u64;
                    c.clear_journal();
                    r.in_journal = MetadataStore::new();
                    prop_assert_eq!(c.event_count(), 0);
                }
                _ => {
                    let mut disk = LocalDisk::new();
                    c.local_persist(&mut disk, &cm).unwrap();
                    disk.crash();
                    disk.recover();
                    let mut back = DecoupledClient::recover_from_local_disk(
                        c.id,
                        c.root,
                        InodeRange::new(FIRST, 4096),
                        &disk,
                    )
                    .unwrap();
                    prop_assert_eq!(back.events(), c.events());
                    prop_assert_eq!(back.inodes_remaining(), c.inodes_remaining() + cleared);
                    prop_assert_eq!(back.local_namespace().snapshot(), r.in_journal.snapshot());
                }
            }
        }
        prop_assert_eq!(c.local_namespace().snapshot(), r.ever.snapshot());
        prop_assert_eq!(c.local_namespace().inode_count(), r.ever.inode_count());
    }
}

/// A locally persisted journal that no longer decodes is reported as
/// corrupt, with the decoder's reason — not as a missing file.
#[test]
fn a_flipped_byte_in_the_local_journal_is_corrupt_not_missing() {
    let mut c = client();
    for i in 0..8 {
        c.create(ROOT, &format!("f{i}")).unwrap();
    }
    let mut disk = LocalDisk::new();
    c.local_persist(&mut disk, &CostModel::calibrated())
        .unwrap();
    let path = format!("client{}-journal.bin", c.id.0);
    let mut blob = disk.read(&path).unwrap().to_vec();
    let middle = blob.len() / 2;
    blob[middle] ^= 0x40;
    disk.write(&path, &blob).unwrap();

    let err =
        DecoupledClient::recover_from_local_disk(c.id, c.root, InodeRange::new(FIRST, 4096), &disk)
            .unwrap_err();
    let DiskError::Corrupt { path: p, detail } = &err else {
        panic!("a journal that fails its CRC came back as {err:?}");
    };
    assert_eq!(p, &path);
    assert!(detail.contains("failed CRC"), "{detail}");
    assert_eq!(
        err.to_string(),
        format!("local file {path} is corrupt: {detail}")
    );
}
