//! Differential test of the RPC client's cap beliefs.
//!
//! `RpcClient` keeps its first directory's belief inline and spills any
//! further directory's to a map. The reference is a plain `HashMap` holding
//! what the client was last told about each directory: a create that
//! reached the server records whether the reply left the client holding the
//! directory's cap (false on any error), and a reconnect forgets every
//! belief. Two clients create into up to five shared directories in a
//! random order — so each interferes with the other's caps — while the
//! server sometimes goes down and comes back; after every step both
//! clients must answer `believes_cached` exactly as the model does for
//! every directory.

use std::collections::HashMap;
use std::sync::Arc;

use proptest::prelude::*;

use cudele_faults::RetryPolicy;
use cudele_journal::InodeId;
use cudele_mds::{ClientId, MetadataServer};
use cudele_rados::InMemoryStore;
use cudele_sim::Nanos;

use cudele_client::RpcClient;

const DIRS: usize = 5;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn beliefs_match_a_hash_map_model(
        regrant in 1u64..6,
        ops in proptest::collection::vec((0u8..16, 0usize..2, 0usize..DIRS, 0u8..6), 1..160),
    ) {
        let mut srv = MetadataServer::new(Arc::new(InMemoryStore::paper_default()));
        srv.set_cap_regrant_after(regrant);
        let dirs: Vec<InodeId> = (0..DIRS)
            .map(|d| srv.setup_dir(&format!("/d{d}")).unwrap())
            .collect();
        let mut clients: Vec<RpcClient> = (1..=2)
            .map(|id| {
                let (mut c, _) = RpcClient::mount(&mut srv, ClientId(id));
                c.set_retry(RetryPolicy { max_retries: 1, base_backoff: Nanos::from_micros(1) });
                c
            })
            .collect();
        let mut model: Vec<HashMap<InodeId, bool>> = vec![HashMap::new(), HashMap::new()];
        for (kind, who, d, name) in ops {
            let dir = dirs[d];
            match kind {
                // A reconnect drops every belief.
                0 => {
                    clients[who].reconnect(&mut srv, &[]).result.ok();
                    model[who].clear();
                }
                1 if srv.is_up() => srv.fail(),
                1 => srv.restart(),
                // A create; a name from a small pool, so some collide.
                _ => {
                    let c = &mut clients[who];
                    let sent = c.creates_sent;
                    let ok = c.create(&mut srv, dir, &format!("f{name}")).result.is_ok();
                    if c.creates_sent > sent {
                        let held = ok && srv.caps().holds_cache(dir, c.id);
                        model[who].insert(dir, held);
                    }
                }
            }
            for (c, m) in clients.iter().zip(&model) {
                for &dir in &dirs {
                    prop_assert_eq!(
                        c.believes_cached(dir),
                        m.get(&dir).copied().unwrap_or(false),
                        "client {} dir {:?}", c.id.0, dir
                    );
                }
            }
        }
    }
}
