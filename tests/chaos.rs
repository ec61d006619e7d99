//! Chaos suite: Table I's durability promise as one table, one row per
//! composition, run fault-free, under 16 deterministic fault seeds
//! (`cudele-faults`) and under 64 hot ones; then the failover matrix, which
//! takes each Figure-4 mechanism's expected class from its row, and the
//! speculation and checkpoint matrices.
//!
//! The contract being checked (paper §"Durability"): global durability
//! survives torn journal writes and OSD outages; local durability survives
//! recoverable node failures only; None loses data on any failure. Fault
//! plans are seeded over virtual time, so every run here is reproducible
//! bit for bit.
//!
//! The `chaos_*` tests are `#[ignore]`d heavier sweeps; CI runs them with
//! `cargo test --release -- --ignored chaos`.

use std::sync::Arc;

use cudele::{
    achieved_durability, execute_merge, execute_merge_at, visible_in_global, Composition,
    Durability, ExecEnv, Mechanism, MergeObs, OperationMode, Policy,
};
use cudele_client::{
    AckOutcome, DecoupledClient, LocalDisk, RpcClient, SpecObs, SpeculativeClient,
};
use cudele_faults::{FaultConfig, FaultyStore};
use cudele_journal::{read_journal, InodeId, JournalId};
use cudele_mds::{
    CheckpointConfig, CheckpointError, CheckpointManager, ClientId, MdLogConfig, MdsCluster,
    MdsError, MetadataServer, BEACON_GRACE, BEACON_INTERVAL,
};
use cudele_rados::{Epoch, FencedStore, FencingAuthority, InMemoryStore, ObjectStore, RadosError};
use cudele_sim::{CostModel, Nanos};

const CLIENT: ClientId = ClientId(1);
const SEEDS: u64 = 16;

/// Runs `f` once per seed across all available cores, returning the
/// per-seed results in seed order (`cudele-par` keeps the output order —
/// and therefore every assertion message and accumulated count — identical
/// to the serial loop). Each seed builds its whole rig inside the worker,
/// so the seeded fault-draw sequences are untouched by the fan-out.
fn sweep_seeds<R: Send>(seeds: u64, f: impl Fn(u64) -> R + Sync) -> Vec<R> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    cudele_par::par_map_deterministic(threads, (0..seeds).collect(), f)
}

/// The background fault mix the mechanism matrix runs under: a few percent
/// transient EAGAINs plus occasional torn stripe appends — both of which a
/// correct stack must absorb without losing acknowledged events.
fn background_faults(seed: u64) -> FaultConfig {
    FaultConfig {
        seed,
        eagain_ppm: 20_000,
        torn_write_ppm: 10_000,
        ..FaultConfig::default()
    }
}

fn faulty_store(config: FaultConfig) -> Arc<FaultyStore<InMemoryStore>> {
    let (store, _) = cudele_faults::wire_faults(
        Arc::new(InMemoryStore::paper_default()),
        config,
        &CostModel::calibrated(),
    );
    store
}

fn small_mdlog() -> MdLogConfig {
    MdLogConfig {
        events_per_segment: 8,
        dispatch_size: 2,
        trim_after_updates: None,
    }
}

struct Rig {
    server: MetadataServer,
    os: Arc<FaultyStore<InMemoryStore>>,
    disk: LocalDisk,
    /// The decoupled client, unless the composition runs over RPCs.
    client: Option<DecoupledClient>,
    /// The directory the creates went to.
    dir: InodeId,
}

/// Composition `comp` run on a store with `config`'s faults: `events`
/// creates in `/job`, over RPCs when `comp` runs `rpcs`, else appended to a
/// client journal decoupled at `/job` and merged by `comp`'s merge-time
/// stages. The server journals through a small mdlog unless `comp` runs
/// `rpcs` without `stream`.
fn rig(comp: &str, events: u64, config: FaultConfig) -> Rig {
    let policy = Policy {
        custom_composition: Some(comp.parse().unwrap()),
        ..Policy::default()
    };
    let rpcs = policy.operation_mode() == OperationMode::Rpcs;
    let mdlog = (!rpcs || policy.composition().contains(Mechanism::Stream)).then(small_mdlog);
    let os = faulty_store(config);
    let mut server = MetadataServer::with_config(os.clone(), CostModel::calibrated(), mdlog);
    let dir = server.setup_dir("/job").unwrap();
    let mut r = Rig {
        server,
        os,
        disk: LocalDisk::new(),
        client: None,
        dir,
    };
    if rpcs {
        let (mut c, _) = RpcClient::mount(&mut r.server, CLIENT);
        for i in 0..events {
            c.create(&mut r.server, dir, &format!("f{i}"))
                .result
                .unwrap();
        }
        return r;
    }
    r.server.open_session(CLIENT);
    let (client, _) = DecoupledClient::decouple(&mut r.server, CLIENT, "/job", events + 10);
    let mut client = client.unwrap();
    for i in 0..events {
        client.create(client.root, &format!("f{i}")).unwrap();
    }
    r.client = Some(client);
    if let Some(comp) = policy.merge_composition() {
        merge(&mut r, &comp);
    }
    r
}

fn merge(r: &mut Rig, comp: &Composition) {
    execute_merge(
        comp,
        r.client.as_mut().unwrap(),
        &mut ExecEnv {
            server: &mut r.server,
            os: r.os.as_ref(),
            disk: &mut r.disk,
        },
    )
    .unwrap();
}

// ---------------------------------------------------------------------
// The durability table: Table I's promise, one row per composition
// ---------------------------------------------------------------------

/// What a composition promises: "None is different than local durability
/// because regardless of the type of failure, metadata will be lost when
/// components die in a None configuration"; local survives recoverable node
/// failures; global survives everything.
struct Row {
    /// The composition the rig runs.
    comp: &'static str,
    /// The class the judge must rate the client's updates at while the
    /// client node's crash is recoverable. An RPC row keeps no client
    /// journal: its class is the MDS journal's, which the crash column
    /// checks.
    durability: Durability,
    /// Whether the names are visible in the global namespace.
    visible: bool,
    /// Whether the names survive an MDS `crash_and_recover`.
    survives_mds_crash: bool,
}

const fn row(
    comp: &'static str,
    durability: Durability,
    visible: bool,
    survives_mds_crash: bool,
) -> Row {
    Row {
        comp,
        durability,
        visible,
        survives_mds_crash,
    }
}

/// Table I's cells, then the compositions beyond it that a test ran. A
/// decoupled row is its merge composition (its Table I cell is
/// `append_client_journal+` it), and a lone Figure-4 mechanism runs in its
/// own row, `stream` beside `rpcs` ([`row_of`]). Table I's strong/local
/// cell, `rpcs+local_persist`, is not a row: over RPCs there is no client
/// journal for `local_persist` to write.
const ROWS: [Row; 10] = [
    row("append_client_journal", Durability::None, false, false),
    row("volatile_apply", Durability::None, true, false),
    row("rpcs", Durability::None, true, false),
    row("local_persist", Durability::Local, false, false),
    row(
        "local_persist+volatile_apply",
        Durability::Local,
        true,
        false,
    ),
    row("global_persist", Durability::Global, false, false),
    row(
        "global_persist+volatile_apply",
        Durability::Global,
        true,
        false,
    ),
    row("rpcs+stream", Durability::Global, true, true),
    row(
        "global_persist||volatile_apply",
        Durability::Global,
        true,
        false,
    ),
    row("nonvolatile_apply", Durability::Global, true, true),
];

/// The row Figure-4 mechanism `mech` runs alone in.
fn row_of(mech: &str) -> &'static Row {
    ROWS.iter()
        .find(|r| r.comp == mech || r.comp == format!("rpcs+{mech}"))
        .unwrap_or_else(|| panic!("no row runs {mech} alone"))
}

/// Runs `row` over `events` creates on a store with `config`'s faults, then
/// three failures in order, and returns the faults the store injected:
/// 1. a recoverable crash of the client node, after which the judge rates
///    the client's updates at the row's promise;
/// 2. the node's loss, after which Local drops to None;
/// 3. an MDS crash after its mdlog's flush, after which the names survive
///    as the row says, and a Global journal the crash dropped merges again.
///
/// The judge and the re-merge read through the inner store, so they move
/// no seeded fault draw.
fn check(row: &Row, events: u64, config: FaultConfig) -> (u64, u64, u64) {
    let at = format!("{} seed {}", row.comp, config.seed);
    let mut r = rig(row.comp, events, config);
    let all_if = |holds: bool| if holds { events } else { 0 };
    let names = |r: &Rig| {
        (0..events)
            .filter(|i| r.server.store().lookup(r.dir, &format!("f{i}")).is_ok())
            .count() as u64
    };
    assert_eq!(names(&r), all_if(row.visible), "{at}: visibility");
    if let Some(client) = &r.client {
        let judge = |disk: &LocalDisk| achieved_durability(client, disk, r.os.inner().as_ref());
        r.disk.crash();
        assert_eq!(judge(&r.disk), row.durability, "{at}: node crash");
        r.disk.destroy();
        let kept = match row.durability {
            Durability::Local => Durability::None,
            d => d,
        };
        assert_eq!(judge(&r.disk), kept, "{at}: node loss");
    }
    r.server.flush_journal();
    r.server.crash_and_recover().unwrap();
    assert_eq!(names(&r), all_if(row.survives_mds_crash), "{at}: MDS crash");
    if let Some(client) = r
        .client
        .as_ref()
        .filter(|_| row.durability == Durability::Global && !row.survives_mds_crash)
    {
        let stored = read_journal(r.os.inner().as_ref(), client.journal_id()).unwrap();
        r.server.open_session(CLIENT);
        r.server.volatile_apply(CLIENT, &stored).result.unwrap();
        assert_eq!(names(&r), events, "{at}: re-merge after the MDS crash");
    }
    r.os.injected()
}

/// The table on a store that injects nothing.
#[test]
fn durability_table_holds_without_faults() {
    for row in &ROWS {
        assert_eq!(check(row, 30, FaultConfig::default()), (0, 0, 0));
    }
}

/// The table under 16 seeds of background faults, which refuse and tear
/// store writes somewhere in the sweep.
#[test]
fn durability_table_holds_across_seeds() {
    let injected = sweep_seeds(SEEDS, |seed| {
        ROWS.iter()
            .map(|row| check(row, 30, background_faults(seed)))
            .fold((0, 0), |(e, t), (eagain, torn, _)| (e + eagain, t + torn))
    });
    let (eagain, torn) = injected
        .iter()
        .fold((0, 0), |(e, t), &(eagain, torn)| (e + eagain, t + torn));
    assert!(eagain > 0 && torn > 0, "{eagain} EAGAINs, {torn} tears");
}

// ---------------------------------------------------------------------
// Headline recovery scenarios
// ---------------------------------------------------------------------

/// Acceptance: a heavy torn-write storm during a `+global` composition
/// loses zero acknowledged events — every torn append is repaired (stripe
/// truncated back to its known-good length) and retried.
#[test]
fn torn_global_persist_loses_no_acknowledged_events() {
    const COMP: &str = "local_persist+global_persist";
    let config = FaultConfig {
        seed: 7,
        eagain_ppm: 20_000,
        torn_write_ppm: 400_000,
        ..FaultConfig::default()
    };
    let mut r = rig(COMP, 200, config);
    // Each persist replaces the stored journal with one append of all 200
    // frames, so a storm is a high tear rate over many persists. A tear can
    // land whole frames ahead of the partial one; the repair takes back both.
    for _ in 1..40 {
        merge(&mut r, &COMP.parse().unwrap());
    }
    let (_, torn, _) = r.os.injected();
    assert!(torn > 5, "storm too quiet to prove anything: {torn} torn");
    let client = r.client.as_ref().unwrap();
    let read = read_journal(r.os.as_ref(), client.journal_id()).unwrap();
    assert_eq!(read, client.events(), "acknowledged events lost");
}

/// A silent bit-flip in a persisted journal stripe is caught by the frame
/// CRC: the strict reader refuses the journal, `scan_journal` flags the
/// damage, and `recover_journal` erases the corrupt region, leaving exactly
/// the longest valid prefix — never a partially-applied suffix.
#[test]
fn bitflipped_journal_recovers_longest_valid_prefix_end_to_end() {
    // Scan seeds for one whose plan actually flips a bit during this run
    // (deterministic: the same seed always flips the same bit).
    let r = (0..64)
        .map(|seed| {
            let config = FaultConfig {
                seed,
                bitflip_ppm: 60_000,
                ..FaultConfig::default()
            };
            rig("global_persist", 60, config)
        })
        .find(|r| r.os.injected().2 > 0)
        .expect("no seed in 0..64 flipped a bit");
    let client = r.client.as_ref().unwrap();
    let id = client.journal_id();

    // The corruption is silent at write time but fatal to the strict read.
    assert!(read_journal(r.os.as_ref(), id).is_err());

    let scan = cudele_journal::scan_journal(r.os.as_ref(), id).unwrap();
    assert!(scan.damage.is_some(), "the scan missed the bit flip");

    let os = r.os.as_ref();
    let mut stripes = cudele_journal::Stripes::default();
    let recovered: Vec<_> = cudele_journal::recover_journal(os, os, id, 0, &mut stripes)
        .unwrap()
        .tail
        .into_iter()
        .map(cudele_journal::EventRef::to_owned)
        .collect();
    assert_eq!(
        recovered.as_slice(),
        &client.events()[..recovered.len()],
        "recovery must yield a prefix of the acknowledged events"
    );
    // The erase+apply healed the journal: strict reads work again and agree.
    let reread = read_journal(r.os.as_ref(), id).unwrap();
    assert_eq!(reread, recovered);
}

/// An OSD outage window during the merge: with replication 2, writes avoid
/// the down OSD and reads come from surviving replicas, so global
/// durability holds right through the window.
#[test]
fn global_persist_survives_osd_outage_window() {
    let inner = Arc::new(InMemoryStore::new(3, 2));
    let (os, _) = cudele_faults::wire_faults(
        inner,
        FaultConfig::parse("seed=3,eagain_ppm=10000,osd_outage=1@0..1s").unwrap(),
        &CostModel::calibrated(),
    );
    let mut server = MetadataServer::new(os.clone());
    server.open_session(CLIENT);
    server.setup_dir("/job").unwrap();
    let (client, _) = DecoupledClient::decouple(&mut server, CLIENT, "/job", 64);
    let mut client = client.unwrap();
    for i in 0..40 {
        client.create(client.root, &format!("f{i}")).unwrap();
    }
    // Merge entirely inside the outage window.
    os.inner().set_now(Nanos::from_millis(10));
    let mut disk = LocalDisk::new();
    let comp: Composition = "global_persist".parse().unwrap();
    execute_merge(
        &comp,
        &mut client,
        &mut ExecEnv {
            server: &mut server,
            os: os.as_ref(),
            disk: &mut disk,
        },
    )
    .unwrap();
    // Readable in full both during the outage and after the OSD revives.
    let during = cudele_journal::read_journal(os.as_ref(), client.journal_id()).unwrap();
    os.inner().set_now(Nanos::from_secs(2));
    let after = cudele_journal::read_journal(os.as_ref(), client.journal_id()).unwrap();
    assert_eq!(during, client.events());
    assert_eq!(after, client.events());
}

// ---------------------------------------------------------------------
// Failover matrix: every mechanism config across an MDS crash + standby
// takeover, with its durability class intact and the run reproducible
// bit for bit
// ---------------------------------------------------------------------

/// The seven Figure-4 mechanism configurations the failover matrix
/// drives: two MDS-side operation modes (journal off / mdlog streaming)
/// plus the five decoupled merge mechanisms.
const FAILOVER_MECHANISMS: [&str; 7] = [
    "rpcs",
    "stream",
    "append_client_journal",
    "local_persist",
    "global_persist",
    "volatile_apply",
    "nonvolatile_apply",
];

/// Everything a failover run produced that must reproduce bit for bit:
/// the epoch, the virtual-clock failover timings, the replay size, the
/// surviving namespace, the loss accounting, the injected-fault tallies,
/// and the serialized consistency history the run recorded.
#[derive(Debug, PartialEq)]
struct FailoverOutcome {
    epoch: u64,
    detection_ns: u64,
    completed_ns: u64,
    replayed: u64,
    survived: Vec<String>,
    lost: u64,
    durability: Option<cudele::Durability>,
    injected: (u64, u64, u64),
    history: String,
}

/// One mechanism configuration through a full failover: workload against
/// the original primary, crash, beacon-grace detection, epoch bump,
/// standby replay, client reconnect, and the durability-class assertions
/// for that mechanism. Returns the comparable outcome.
fn failover_run(mech: &str, seed: u64) -> FailoverOutcome {
    const N: u64 = 30;
    let row = row_of(mech);
    let os = faulty_store(background_faults(seed));
    let mdlog = match mech {
        // Journal off: plain RPCs, and the volatile-apply rig (merged
        // events must gain no durability from an MDS-side mdlog).
        "rpcs" | "volatile_apply" => None,
        _ => Some(small_mdlog()),
    };
    let mut cluster = MdsCluster::new(os.clone(), CostModel::calibrated(), mdlog);
    // Record the run's consistency history so the offline checkers can
    // verify the mechanism's claimed axioms across the failover.
    let reg = Arc::new(cudele_obs::Registry::new());
    cluster.attach_obs(&reg);
    let merge_obs = MergeObs::new(&reg);
    let mds_side = matches!(mech, "rpcs" | "stream");
    let mode = if mds_side { "rpc" } else { "decoupled" };
    let mut disk = LocalDisk::new();
    let dir = cluster.active_mut().setup_dir_durable("/job").unwrap();
    if mdlog.is_none() {
        // Journal off: the setup mkdir has no mdlog to recover from, so
        // persist the image — the crash then measures exactly what the
        // creates themselves lose.
        cudele_mds::flush_store(
            cluster.active_mut().store(),
            os.as_ref(),
            cudele_rados::PoolId::METADATA,
        )
        .unwrap();
    }

    let mut dclient = None;
    if mds_side {
        let (mut c, _) = RpcClient::mount(cluster.active_mut(), CLIENT);
        for i in 0..N {
            c.create(cluster.active_mut(), dir, &format!("f{i}"))
                .result
                .unwrap();
        }
    } else {
        cluster.active_mut().open_session(CLIENT);
        let (dc, _) = DecoupledClient::decouple(cluster.active_mut(), CLIENT, "/job", N + 10);
        let mut client = dc.unwrap();
        client.attach_obs(&reg);
        for i in 0..N {
            client.create(client.root, &format!("f{i}")).unwrap();
        }
        // Merge-time mechanisms run against the original primary, so the
        // crash lands *after* the class was supposedly achieved.
        if mech != "append_client_journal" {
            let comp: Composition = mech.parse().unwrap();
            let merged = execute_merge_at(
                &comp,
                &mut client,
                &mut ExecEnv {
                    server: cluster.active_mut(),
                    os: os.as_ref(),
                    disk: &mut disk,
                },
                Some(&merge_obs),
                CLIENT.0,
                Nanos::ZERO,
            )
            .unwrap();
            assert_eq!(
                visible_in_global(cluster.active(), &client),
                row.visible,
                "{mech} seed {seed}: visibility before the crash"
            );
            // Pre-crash visibility probes: recorded observations at or
            // after the merge's ack, which is what the eventual checker
            // verifies for the apply mechanisms.
            cluster.active_mut().set_now(merged.elapsed);
            for i in 0..5 {
                let _ = cluster.active_mut().lookup(CLIENT, dir, &format!("f{i}"));
            }
        }
        dclient = Some(client);
    }
    let unflushed_at_crash = cluster.active().unflushed_events();

    cluster.advance_to(Nanos::from_millis(5)).unwrap();
    cluster.crash_active();
    cluster.advance_to(Nanos::from_millis(80)).unwrap();
    assert_eq!(
        cluster.reports().len(),
        1,
        "{mech} seed {seed}: crash never detected"
    );
    let r = cluster.reports()[0];
    assert!(
        r.decision.detection_latency() > BEACON_GRACE,
        "{mech} seed {seed}: detection beat the grace"
    );

    let survived: Vec<String> = (0..N)
        .map(|i| format!("f{i}"))
        .filter(|n| cluster.active().store().lookup(dir, n).is_ok())
        .collect();
    let lost = N - survived.len() as u64;
    // The judge reads through the inner store: no seeded fault draw moves.
    let durability = dclient
        .as_ref()
        .map(|c| achieved_durability(c, &disk, os.inner().as_ref()));

    // The row's contract across the failover. A decoupled client's class
    // is the judge's; names that survive lose at most the dispatch window
    // still buffered when the primary died (never an acked and flushed
    // event), and names that do not are all lost.
    if let Some(d) = durability {
        assert_eq!(d, row.durability, "{mech} seed {seed}");
    }
    if row.survives_mds_crash {
        assert!(
            lost <= unflushed_at_crash,
            "{mech} seed {seed}: lost {lost} > unflushed {unflushed_at_crash}"
        );
    } else {
        assert_eq!(lost, N, "{mech} seed {seed}");
    }

    // The new primary serves: clients reconnect/resume, and for
    // client-journal rigs whose events only lived in MDS memory the
    // re-merge restores visibility.
    if let Some(client) = dclient.as_mut() {
        let (res, _) = client.resume_on(cluster.active_mut());
        res.unwrap();
        if mech == "volatile_apply" {
            let comp: Composition = "volatile_apply".parse().unwrap();
            let remerge_at = Nanos::from_millis(80);
            let remerged = execute_merge_at(
                &comp,
                client,
                &mut ExecEnv {
                    server: cluster.active_mut(),
                    os: os.as_ref(),
                    disk: &mut disk,
                },
                Some(&merge_obs),
                CLIENT.0,
                remerge_at,
            )
            .unwrap();
            assert!(
                visible_in_global(cluster.active(), client),
                "{mech} seed {seed}: re-merge onto the new primary failed"
            );
            // Epoch-2 probes: the re-merged names must be visible on the
            // new primary, and the recorded history lets the eventual
            // checker prove it.
            cluster.active_mut().set_now(remerge_at + remerged.elapsed);
            for i in 0..5 {
                let _ = cluster.active_mut().lookup(CLIENT, dir, &format!("f{i}"));
            }
        }
    } else {
        cluster.active_mut().open_session(CLIENT);
    }
    // Post-failover allocation never collides with anything granted
    // before the crash. Probe at the root: a decoupled `/job` is
    // (correctly) detached from the global namespace until its merge.
    let reply = cluster
        .active_mut()
        .create(CLIENT, InodeId::ROOT, "post-failover")
        .result
        .unwrap_or_else(|e| panic!("{mech} seed {seed}: post-failover create: {e}"));
    match dclient.as_ref() {
        // A resumed decoupled client continues its reasserted
        // preallocated range past the used prefix — fresh by
        // construction, even though the range sits below the recovery
        // watermark.
        Some(client) => assert!(
            !client
                .events()
                .iter()
                .filter_map(|e| e.allocates())
                .any(|i| i == reply.ino),
            "{mech} seed {seed}: post-failover inode {:?} collides with a pre-crash event",
            reply.ino
        ),
        // A fresh session allocates at or above the recovered watermark.
        None => assert!(
            reply.ino.0 >= r.takeover.alloc_watermark.0,
            "{mech} seed {seed}: allocation below the recovered watermark"
        ),
    }

    // The recorded history must satisfy the mode's claimed axioms —
    // linearizability for the MDS-side mechanisms, session + eventual
    // visibility for the decoupled ones — right across the failover.
    let history = reg.history_json(mode);
    let report = cudele_check::check_history(
        &cudele_obs::history::History::parse(&history)
            .unwrap_or_else(|e| panic!("{mech} seed {seed}: bad history: {e}")),
    );
    assert!(
        report.clean(),
        "{mech} seed {seed}: consistency violation: {}",
        report.violations[0]
    );
    assert!(
        report.ops_checked > 0,
        "{mech} seed {seed}: checker verified nothing"
    );

    FailoverOutcome {
        epoch: r.takeover.epoch.0,
        detection_ns: r.decision.detection_latency().0,
        completed_ns: r.completed_at.0,
        replayed: r.takeover.replayed_events,
        survived,
        lost,
        durability,
        injected: os.injected(),
        history,
    }
}

/// The matrix itself: every mechanism configuration fails over cleanly at
/// epoch 2 for every seed, with its durability class intact (the class
/// assertions live in [`failover_run`]).
#[test]
fn failover_matrix_holds_durability_classes_across_seeds() {
    for mech in FAILOVER_MECHANISMS {
        let outcomes = sweep_seeds(8, |seed| failover_run(mech, seed));
        for (seed, o) in outcomes.iter().enumerate() {
            assert_eq!(
                o.epoch, 2,
                "{mech} seed {seed} failed over at the wrong epoch"
            );
        }
    }
}

/// Determinism: the same (mechanism, seed) pair reproduces the identical
/// failover — epochs, virtual-clock detection/completion timings, replay
/// size, surviving namespace, and injected-fault tallies.
#[test]
fn failover_reruns_are_identical_per_seed() {
    sweep_seeds(4, |seed| {
        for mech in FAILOVER_MECHANISMS {
            assert_eq!(
                failover_run(mech, seed),
                failover_run(mech, seed),
                "{mech} seed {seed}: failover not reproducible"
            );
        }
    });
}

/// Drives `mech`'s failover while a probe client walks the active MDS on
/// a 1 ms grid, and returns the run's serialized timeline. The probes
/// make the transient legible window by window: fast lookups before
/// `mds.crash`, nothing but full-RPC-timeout probes during the detection
/// gap, and served lookups again once the standby takes over.
fn failover_timeline_run(mech: &str, seed: u64) -> String {
    const N: u64 = 20;
    let os = faulty_store(background_faults(seed));
    let mdlog = match mech {
        "rpcs" | "volatile_apply" => None,
        _ => Some(small_mdlog()),
    };
    let mut cluster = MdsCluster::new(os.clone(), CostModel::calibrated(), mdlog);
    let reg = Arc::new(cudele_obs::Registry::new());
    cluster.attach_obs(&reg);
    let tl = reg.timeline();
    let mut disk = LocalDisk::new();
    let dir = cluster.active_mut().setup_dir_durable("/job").unwrap();

    // The mechanism's own pre-crash workload, as in `failover_run`: what
    // it journals or merges shapes the takeover replay the timeline
    // then shows.
    if matches!(mech, "rpcs" | "stream") {
        let (mut c, _) = RpcClient::mount(cluster.active_mut(), CLIENT);
        for i in 0..N {
            c.create(cluster.active_mut(), dir, &format!("f{i}"))
                .result
                .unwrap();
        }
    } else {
        cluster.active_mut().open_session(CLIENT);
        let (dc, _) = DecoupledClient::decouple(cluster.active_mut(), CLIENT, "/job", N + 10);
        let mut client = dc.unwrap();
        for i in 0..N {
            client.create(client.root, &format!("f{i}")).unwrap();
        }
        if mech != "append_client_journal" {
            let comp: Composition = mech.parse().unwrap();
            execute_merge(
                &comp,
                &mut client,
                &mut ExecEnv {
                    server: cluster.active_mut(),
                    os: os.as_ref(),
                    disk: &mut disk,
                },
            )
            .unwrap();
        }
    }

    // Probe grid around the crash, exactly like the mdbench drill: the
    // down primary times every probe out until the grace expires.
    let step = Nanos::MILLI;
    let probe = |cluster: &mut MdsCluster, at: Nanos| {
        cluster.advance_to(at).unwrap();
        let srv = cluster.active_mut();
        srv.set_now(at);
        match srv.lookup(ClientId(990), InodeId::ROOT, "probe").result {
            Err(MdsError::Timeout) => tl.add("probe.timeouts", at, 1),
            _ => tl.add("probe.ok", at, 1),
        }
    };
    let crash_at = Nanos::from_millis(5).max(cluster.now() + BEACON_INTERVAL);
    let mut pt = cluster.now();
    while pt < crash_at {
        probe(&mut cluster, pt);
        pt += step;
    }
    cluster.advance_to(crash_at).unwrap();
    cluster.crash_active();
    let deadline = crash_at + BEACON_GRACE + BEACON_INTERVAL * 4;
    while pt <= deadline {
        probe(&mut cluster, pt);
        pt += step;
    }
    cluster.advance_to(deadline).unwrap();
    let r = cluster.reports()[0];
    let tail_end = r.completed_at.max(pt) + step * 3;
    while pt <= tail_end {
        probe(&mut cluster, pt);
        pt += step;
    }
    reg.timeline().snapshot().to_json()
}

/// The failover transient — crash marker at T, a zero-throughput
/// detection gap bounded by the beacon grace, probes served again after
/// takeover — is visible in the recorded timeline for every mechanism
/// and seed, and the serialized timeline reproduces byte for byte on
/// rerun.
#[test]
fn failover_transient_is_visible_and_reproducible_in_timelines() {
    use cudele_obs::timeline::TimelineSnapshot;
    for mech in FAILOVER_MECHANISMS {
        let runs = sweep_seeds(3, |seed| failover_timeline_run(mech, seed));
        for (seed, json) in runs.iter().enumerate() {
            let snap = TimelineSnapshot::parse(json)
                .unwrap_or_else(|e| panic!("{mech} seed {seed}: bad timeline: {e}"));
            let at = |name: &str| {
                snap.annotations
                    .iter()
                    .find(|a| a.name == name)
                    .unwrap_or_else(|| panic!("{mech} seed {seed}: no {name} annotation"))
                    .at
            };
            let crash = at("mds.crash");
            let detected = at("mds.failover.detected");
            let takeover = at("mds.failover.takeover");
            assert!(detected > crash, "{mech} seed {seed}");
            // Detection happens on the beacon grid at most one interval
            // past the grace (one extra interval of slack for the slot
            // the crash itself landed in).
            assert!(
                detected - crash <= BEACON_GRACE + BEACON_INTERVAL * 2,
                "{mech} seed {seed}: detection gap {}ns exceeds the grace bound",
                (detected - crash).0
            );
            assert!(takeover >= detected, "{mech} seed {seed}");

            let w = snap.window_ns.max(1);
            let (crash_w, detected_w, takeover_w) = (crash.0 / w, detected.0 / w, takeover.0 / w);
            let ok = snap
                .series("probe.ok")
                .unwrap_or_else(|| panic!("{mech} seed {seed}: no probe.ok series"));
            let timeouts = snap
                .series("probe.timeouts")
                .unwrap_or_else(|| panic!("{mech} seed {seed}: no probe.timeouts series"));
            // Zero throughput inside the gap: every window strictly
            // between the crash and the detection recorded timeouts and
            // no successful probe.
            assert!(
                timeouts
                    .points
                    .iter()
                    .any(|p| p.window > crash_w && p.window < detected_w),
                "{mech} seed {seed}: no timeout spike in the detection gap"
            );
            assert!(
                ok.points
                    .iter()
                    .all(|p| p.window <= crash_w || p.window >= detected_w),
                "{mech} seed {seed}: a probe succeeded against the dead primary"
            );
            // Bounded recovery: the standby serves probes again in the
            // takeover's own window (the recovery tail probes land there).
            assert!(
                ok.points.iter().any(|p| p.window >= takeover_w),
                "{mech} seed {seed}: no served probe after the takeover"
            );
        }
        // Determinism: the same (mechanism, seed) reproduces the same
        // serialized timeline, annotations and windows included.
        assert_eq!(
            failover_timeline_run(mech, 1),
            runs[1],
            "{mech}: timeline not reproducible"
        );
    }
}

/// A fenced old primary that keeps writing after the takeover perturbs
/// nothing: stale dispatches die at the object store, the rejections are
/// counted, and the persisted mdlog (events, byte length, segment count)
/// is identical to a run where the zombie stayed quiet.
#[test]
fn fenced_zombie_leaves_the_journal_byte_identical() {
    let run = |zombie_writes: bool| {
        let os = faulty_store(FaultConfig {
            seed: 11,
            ..FaultConfig::default()
        });
        let reg = std::sync::Arc::new(cudele_obs::Registry::new());
        let mut cluster = MdsCluster::new(os.clone(), CostModel::calibrated(), Some(small_mdlog()));
        cluster.attach_obs(&reg);
        cluster.active_mut().open_session(CLIENT);
        let dir = cluster.active_mut().setup_dir_durable("/z").unwrap();
        for i in 0..20 {
            cluster
                .active_mut()
                .create(CLIENT, dir, &format!("f{i}"))
                .result
                .unwrap();
        }
        cluster.active_mut().flush_journal();
        cluster.crash_active();
        cluster.advance_to(Nanos::from_millis(60)).unwrap();
        assert_eq!(cluster.epoch(), Epoch(2));
        if zombie_writes {
            let zombie = cluster.zombie_mut().unwrap();
            zombie.restart();
            let mut rejected = 0;
            for i in 0..50 {
                if matches!(
                    zombie.create(CLIENT, dir, &format!("stale{i}")).result,
                    Err(MdsError::Fenced { .. })
                ) {
                    rejected += 1;
                }
            }
            if matches!(zombie.try_flush_journal(), Err(MdsError::Fenced { .. })) {
                rejected += 1;
            }
            assert!(rejected > 0, "zombie never hit the fence");
            assert!(
                reg.counter_value("rados.fenced_writes").unwrap_or(0) as u32 >= rejected,
                "fenced writes not counted"
            );
        }
        let id = cudele_journal::JournalId::MDLOG;
        let events = cudele_journal::read_journal(os.as_ref(), id).unwrap();
        let mut stripes = cudele_journal::Stripes::default();
        let clean: Vec<Vec<u8>> = cudele_journal::view_journal(os.as_ref(), id, 0, &mut stripes)
            .unwrap()
            .clean
            .iter()
            .map(|stripe| stripe.to_vec())
            .collect();
        (events, clean)
    };
    assert_eq!(
        run(true),
        run(false),
        "a fenced zombie must not change one byte of the journal"
    );
}

/// Across every seed, an inode allocated after failover never collides
/// with any inode acknowledged before the crash — even when the grant
/// events were still sitting in the lost dispatch window.
#[test]
fn post_failover_allocations_never_collide_across_seeds() {
    sweep_seeds(SEEDS, |seed| {
        let os = faulty_store(background_faults(seed));
        let mut cluster = MdsCluster::new(os.clone(), CostModel::calibrated(), Some(small_mdlog()));
        let dir = cluster.active_mut().setup_dir_durable("/a").unwrap();
        cluster.active_mut().open_session(CLIENT);
        let mut pre = std::collections::BTreeSet::new();
        for i in 0..40 {
            let reply = cluster
                .active_mut()
                .create(CLIENT, dir, &format!("f{i}"))
                .result
                .unwrap();
            pre.insert(reply.ino.0);
        }
        // Crash with part of the journal still buffered.
        cluster.crash_active();
        cluster.advance_to(Nanos::from_millis(60)).unwrap();
        let watermark = cluster.reports()[0].takeover.alloc_watermark;
        cluster.active_mut().open_session(CLIENT);
        for i in 0..40 {
            let ino = cluster
                .active_mut()
                .create(CLIENT, dir, &format!("g{i}"))
                .result
                .unwrap()
                .ino;
            assert!(ino.0 >= watermark.0, "seed {seed}: below watermark");
            assert!(
                !pre.contains(&ino.0),
                "seed {seed}: inode {ino:?} reused after failover"
            );
        }
    });
}

// ---------------------------------------------------------------------
// Speculative clients across failover
// ---------------------------------------------------------------------

/// Everything a speculative failover run produced that must reproduce
/// bit for bit: the epoch, the namespace, the speculation accounting,
/// the injected-fault tallies, and the recorded consistency history.
#[derive(Debug, PartialEq)]
struct SpecFailoverOutcome {
    epoch: u64,
    survived: usize,
    /// Creates lost to the failover — exactly the pre-crash *committed*
    /// ops when the mdlog is off (speculation keeps the journal-off loss
    /// class: commits without an mdlog die with the primary, while the
    /// doomed in-flight window always replays), zero when it is on.
    lost: u64,
    committed: u64,
    rollbacks: u64,
    aborted: u64,
    replayed: u64,
    injected: (u64, u64, u64),
    history: String,
}

/// One speculative client through a full failover: it runs `depth` ops
/// ahead of the acks against the original primary, the primary dies
/// mid-window at op `crash_at_op`, the in-flight ack comes back as an
/// invalidation (dooming the dependent window), the client resumes on
/// the standby and replays with its original tokens, then finishes the
/// workload against the new primary. Every acknowledged-to-the-caller
/// create must exist on the new primary, and the commit-time history
/// must pass the linearizability checker right across the epoch bump.
fn speculation_failover_run(
    mdlog: bool,
    depth: usize,
    crash_at_op: u64,
    seed: u64,
) -> SpecFailoverOutcome {
    const N: u64 = 60;
    assert!(crash_at_op < N && depth >= 1);
    let os = faulty_store(background_faults(seed));
    let mut cluster = MdsCluster::new(
        os.clone(),
        CostModel::calibrated(),
        if mdlog { Some(small_mdlog()) } else { None },
    );
    let reg = Arc::new(cudele_obs::Registry::new());
    cluster.attach_obs(&reg);
    let dir = cluster.active_mut().setup_dir_durable("/spec").unwrap();
    if !mdlog {
        // Journal off: persist the setup image so the takeover has a
        // namespace to start from — the creates themselves live only in
        // primary memory and must come back through the replay tokens.
        cudele_mds::flush_store(
            cluster.active_mut().store(),
            os.as_ref(),
            cudele_rados::PoolId::METADATA,
        )
        .unwrap();
    }
    let (client, _) = SpeculativeClient::mount(cluster.active_mut(), CLIENT);
    let mut client = client.unwrap();
    client.set_obs(SpecObs::new(&reg));

    let step = Nanos::from_micros(100);
    let mut t = Nanos::from_micros(50);
    let mut pending: std::collections::VecDeque<u64> = std::collections::VecDeque::new();
    let mut pre_crash_committed = 0;
    for i in 0..N {
        if i == crash_at_op {
            pre_crash_committed = client.committed();
            // Kill the primary with the window in flight. What the mdlog
            // flushed survives the takeover; everything else only comes
            // back through the replay below.
            if mdlog {
                cluster.active_mut().flush_journal();
            }
            cluster.advance_to(t).unwrap();
            cluster.crash_active();
            let oldest = pending.pop_front().expect("window empty at crash");
            let doomed = match client.deliver_ack(oldest, true) {
                AckOutcome::RolledBack(d) => d,
                other => panic!("seed {seed}: crash must invalidate, got {other:?}"),
            };
            // Same-directory ordering makes every in-flight op a
            // dependent of the invalidated one: the whole window rolls.
            assert_eq!(
                doomed.len(),
                pending.len() + 1,
                "seed {seed}: rollback missed part of the window"
            );
            pending.clear();
            cluster
                .advance_to(cluster.now() + BEACON_GRACE + BEACON_INTERVAL * 4)
                .unwrap();
            assert_eq!(cluster.epoch(), Epoch(2), "seed {seed}: takeover missing");
            t = t.max(cluster.now()) + step;
            client.set_now(t);
            let (r, _) = client.resume_on(cluster.active_mut());
            r.unwrap_or_else(|e| panic!("seed {seed}: resume failed: {e}"));
            let (r, _) = client.replay(cluster.active_mut(), &doomed);
            r.unwrap_or_else(|e| panic!("seed {seed}: replay failed: {e}"));
        }
        client.set_now(t);
        cluster.active_mut().set_now(t);
        let (seq, _) = client.issue_create(cluster.active_mut(), dir, &format!("f{i}"));
        pending.push_back(seq);
        if pending.len() >= depth {
            t += step;
            client.set_now(t);
            let s = pending.pop_front().unwrap();
            assert!(
                matches!(client.deliver_ack(s, false), AckOutcome::Committed(_)),
                "seed {seed}: healthy ack invalidated"
            );
        }
        t += step;
    }
    while let Some(s) = pending.pop_front() {
        t += step;
        client.set_now(t);
        client.deliver_ack(s, false);
    }
    assert_eq!(client.committed(), N, "seed {seed}: ops never committed");

    let survived = (0..N)
        .filter(|i| {
            cluster
                .active()
                .store()
                .lookup(dir, &format!("f{i}"))
                .is_ok()
        })
        .count();
    // The durability class is unchanged by speculation: with the mdlog
    // streaming (and flushed at the crash) nothing is lost; journal-off
    // loses exactly the pre-crash committed ops — the in-flight doomed
    // window always replays, and the post-failover tail always lands.
    let expected_lost = if mdlog { 0 } else { pre_crash_committed };
    assert_eq!(
        survived as u64,
        N - expected_lost,
        "seed {seed}: survived {survived}, expected N - {expected_lost} \
(mdlog={mdlog}, loss class violated)"
    );

    // The commit-time history — pre-crash commits, replayed window,
    // post-failover tail — must satisfy linearizability end to end.
    let history = reg.history_json("rpc");
    let report = cudele_check::check_history(
        &cudele_obs::history::History::parse(&history)
            .unwrap_or_else(|e| panic!("seed {seed}: bad history: {e}")),
    );
    assert!(
        report.clean(),
        "seed {seed}: consistency violation: {}",
        report.violations[0]
    );
    assert!(
        report.ops_checked > 0,
        "seed {seed}: checker verified nothing"
    );

    let counter = |name: &str| reg.counter_value(name).unwrap_or(0);
    SpecFailoverOutcome {
        epoch: cluster.epoch().0,
        survived,
        lost: expected_lost,
        committed: client.committed(),
        rollbacks: counter("client.spec.rollbacks"),
        aborted: counter("client.spec.aborted_ops"),
        replayed: counter("client.spec.replayed"),
        injected: os.injected(),
        history,
    }
}

/// A speculative window dies with the primary and is replayed intact on
/// the standby, for every seed — with the run reproducible bit for bit.
#[test]
fn speculative_window_replays_across_failover_per_seed() {
    let outcomes = sweep_seeds(4, |seed| speculation_failover_run(true, 8, 20, seed));
    for (seed, o) in outcomes.iter().enumerate() {
        assert_eq!(o.epoch, 2, "seed {seed}");
        assert_eq!(o.survived, 60, "seed {seed}");
        assert!(o.rollbacks >= 1, "seed {seed}: crash doomed nothing");
        assert_eq!(o.aborted, o.replayed, "seed {seed}: aborted ops unreplayed");
        assert_eq!(
            &speculation_failover_run(true, 8, 20, seed as u64),
            o,
            "seed {seed}: speculative failover not reproducible"
        );
    }
}

/// Two successive failovers with the client journal still unmerged: each
/// `resume_on` reasserts the session and granted ranges on the next
/// primary without touching one journal byte, and the merge against the
/// *third* primary (epoch 3) lands every event, globally visible and
/// globally durable.
#[test]
fn decoupled_resume_survives_two_successive_failovers() {
    const N: u64 = 40;
    let os = faulty_store(background_faults(5));
    let mut cluster = MdsCluster::new(os.clone(), CostModel::calibrated(), Some(small_mdlog()));
    let mut disk = LocalDisk::new();
    cluster.active_mut().setup_dir_durable("/job").unwrap();
    cluster.active_mut().open_session(CLIENT);
    let (dc, _) = DecoupledClient::decouple(cluster.active_mut(), CLIENT, "/job", N + 10);
    let mut client = dc.unwrap();
    for i in 0..N {
        client.create(client.root, &format!("f{i}")).unwrap();
    }
    let bytes_before = cudele_journal::encode_journal(client.events()).to_vec();

    // First failover: primary dies with the journal unmerged.
    cluster.advance_to(Nanos::from_millis(5)).unwrap();
    cluster.crash_active();
    cluster.advance_to(Nanos::from_millis(80)).unwrap();
    assert_eq!(cluster.epoch(), Epoch(2), "first takeover missing");
    let (r, _) = client.resume_on(cluster.active_mut());
    r.unwrap();
    assert_eq!(
        cudele_journal::encode_journal(client.events()).to_vec(),
        bytes_before,
        "first failover mutated the unmerged journal"
    );

    // The client keeps appending between the failovers — the resumed
    // range keeps allocating fresh inodes.
    for i in N..N + 5 {
        client.create(client.root, &format!("f{i}")).unwrap();
    }
    let bytes_mid = cudele_journal::encode_journal(client.events()).to_vec();

    // Second failover: the replacement primary dies too.
    cluster.advance_to(Nanos::from_millis(85)).unwrap();
    cluster.crash_active();
    cluster.advance_to(Nanos::from_millis(170)).unwrap();
    assert_eq!(cluster.epoch(), Epoch(3), "second takeover missing");
    let (r, _) = client.resume_on(cluster.active_mut());
    r.unwrap();
    assert_eq!(
        cudele_journal::encode_journal(client.events()).to_vec(),
        bytes_mid,
        "second failover mutated the unmerged journal"
    );

    // Merge cleanly against the third primary: every event (including
    // the between-failover tail) visible in global and globally durable.
    let comp: Composition = "global_persist+volatile_apply".parse().unwrap();
    execute_merge(
        &comp,
        &mut client,
        &mut ExecEnv {
            server: cluster.active_mut(),
            os: os.as_ref(),
            disk: &mut disk,
        },
    )
    .unwrap();
    assert!(visible_in_global(cluster.active(), &client));
    let read = cudele_journal::read_journal(os.as_ref(), client.journal_id()).unwrap();
    assert_eq!(
        read,
        client.events(),
        "merge on the third primary lost events"
    );
    let root = client.root;
    for i in 0..N + 5 {
        assert!(
            cluster
                .active()
                .store()
                .lookup(root, &format!("f{i}"))
                .is_ok(),
            "f{i} missing after the double-failover merge"
        );
    }
}

// ---------------------------------------------------------------------
// Checkpointed failover: image manifests under damage
// ---------------------------------------------------------------------

/// Every checkpoint object (manifest HEAD, per-epoch manifest copies,
/// images) with its bytes, in sorted name order — the comparable
/// footprint a fenced zombie must not be able to change.
fn ckpt_objects(os: &dyn ObjectStore) -> Vec<(String, Vec<u8>)> {
    os.list(JournalId::MDLOG.pool, "ckpt.")
        .into_iter()
        .map(|id| {
            let data = os.read(&id).unwrap().to_vec();
            (id.name.clone(), data)
        })
        .collect()
}

/// Flips one byte in the middle of the newest checkpoint object matching
/// the filter, simulating silent media corruption of a checkpoint
/// artifact. Returns whether anything matched.
fn flip_ckpt_object(os: &dyn ObjectStore, pick: impl Fn(&str) -> bool) -> bool {
    let Some(victim) = os
        .list(JournalId::MDLOG.pool, "ckpt.")
        .into_iter()
        .rfind(|o| pick(&o.name))
    else {
        return false;
    };
    let mut data = os.read(&victim).unwrap().to_vec();
    let mid = data.len() / 2;
    data[mid] ^= 0x01;
    os.write_full(&victim, &data).unwrap();
    true
}

/// A damaged image drops the takeover one manifest epoch down the
/// fallback ladder: the replayed journal tail gets longer, but not one
/// flushed event is lost. A damaged manifest HEAD costs a fallback too,
/// but lands on the byte-equal per-epoch copy, so the replay size does
/// not change at all.
#[test]
fn checkpointed_failover_falls_back_under_damage() {
    let run = |damage: Option<&str>| {
        let inner = Arc::new(InMemoryStore::paper_default());
        let mut cluster =
            MdsCluster::new(inner.clone(), CostModel::calibrated(), Some(small_mdlog()));
        cluster
            .enable_checkpoints(CheckpointConfig { interval_events: 4 })
            .unwrap();
        cluster.active_mut().open_session(CLIENT);
        let dir = cluster.active_mut().setup_dir_durable("/ck").unwrap();
        for i in 0..100 {
            cluster
                .active_mut()
                .create(CLIENT, dir, &format!("f{i}"))
                .result
                .unwrap();
        }
        cluster.active_mut().flush_journal();
        match damage {
            Some("image") => {
                assert!(flip_ckpt_object(inner.as_ref(), |n| n.contains(".image.")));
            }
            Some("head") => {
                assert!(flip_ckpt_object(inner.as_ref(), |n| n.ends_with(".manifest")));
            }
            Some(other) => panic!("unknown damage kind {other}"),
            None => {}
        }
        cluster.crash_active();
        cluster.advance_to(Nanos::from_millis(60)).unwrap();
        let r = cluster.reports()[0];
        // Zero global-class loss under every damage kind: all 100 flushed
        // creates survive the takeover.
        for i in 0..100 {
            assert!(
                cluster
                    .active()
                    .store()
                    .lookup(dir, &format!("f{i}"))
                    .is_ok(),
                "damage={damage:?}: f{i} lost across checkpointed failover"
            );
        }
        (
            r.takeover.manifest_epoch,
            r.takeover.manifest_fallbacks,
            r.takeover.replayed_events,
        )
    };
    let (clean_epoch, clean_fb, clean_replay) = run(None);
    assert!(clean_epoch > 0, "workload never published a manifest");
    assert_eq!(clean_fb, 0);

    let (image_epoch, image_fb, image_replay) = run(Some("image"));
    assert!(image_fb >= 1, "damaged image cost no fallback");
    assert!(
        image_epoch < clean_epoch,
        "fallback must land below the damaged epoch: m{image_epoch} vs clean m{clean_epoch}"
    );
    assert!(
        image_replay > clean_replay,
        "one epoch down the ladder must replay a longer tail \
({image_replay} vs {clean_replay})"
    );

    let (head_epoch, head_fb, head_replay) = run(Some("head"));
    assert!(head_fb >= 1, "damaged HEAD cost no fallback");
    assert_eq!(
        head_epoch, clean_epoch,
        "the per-epoch manifest copy is byte-equal to the HEAD"
    );
    assert_eq!(head_replay, clean_replay);
}

/// A fenced zombie can never publish a manifest: its flushes die at the
/// store, a compactor pass driven at a stale epoch is rejected wholesale,
/// and both the journal and every checkpoint object stay byte-identical
/// to what the valid epoch published.
#[test]
fn fenced_zombie_cannot_publish_a_manifest() {
    let base: Arc<dyn ObjectStore> = Arc::new(InMemoryStore::paper_default());
    let authority = Arc::new(FencingAuthority::new());
    let os: Arc<dyn ObjectStore> =
        Arc::new(FencedStore::new(Arc::clone(&base), Arc::clone(&authority)));
    let mut mds = MetadataServer::with_config(os, CostModel::calibrated(), Some(small_mdlog()));
    // A compactor that never fires on its own: the cuts below are explicit,
    // so the uncovered journal tail at fencing time is deterministic.
    mds.enable_checkpoints(CheckpointConfig {
        interval_events: 100_000,
    })
    .unwrap();
    mds.open_session(CLIENT);
    let dir = mds.setup_dir_durable("/z").unwrap();
    for i in 0..40 {
        mds.create(CLIENT, dir, &format!("f{i}")).result.unwrap();
    }
    mds.flush_journal();
    let cut = CheckpointConfig { interval_events: 1 };
    let mut mgr = CheckpointManager::attach(base.as_ref(), JournalId::MDLOG, cut).unwrap();
    assert!(mgr
        .checkpoint(base.as_ref(), Nanos::ZERO, &CostModel::calibrated())
        .unwrap());
    // Leave an uncovered tail past the manifest.
    for i in 0..8 {
        mds.create(CLIENT, dir, &format!("tail{i}")).result.unwrap();
    }
    mds.flush_journal();
    let before = ckpt_objects(base.as_ref());
    assert!(!before.is_empty());
    let journal_before = cudele_journal::read_journal(base.as_ref(), JournalId::MDLOG).unwrap();

    // A new primary takes the epoch; the old one is now a zombie.
    authority.bump();

    // Zombie activity: creates that only touch its memory may "succeed",
    // but the dispatch flush — and with it any checkpoint opportunity —
    // dies at the fence.
    for i in 0..50 {
        let _ = mds.create(CLIENT, dir, &format!("stale{i}"));
    }
    assert!(matches!(
        mds.try_flush_journal(),
        Err(MdsError::Fenced { .. })
    ));

    // Even a compactor pass driven directly at a stale-epoch handle is
    // rejected before a single checkpoint byte lands.
    let stale: Arc<dyn ObjectStore> = Arc::new(FencedStore::with_epoch(
        Arc::clone(&base),
        Arc::clone(&authority),
        Epoch(1),
    ));
    let mut zombie_mgr = CheckpointManager::attach(stale.as_ref(), JournalId::MDLOG, cut).unwrap();
    let err = zombie_mgr.maybe_checkpoint(
        stale.as_ref(),
        u64::MAX,
        Nanos::ZERO,
        &CostModel::calibrated(),
    );
    assert!(
        matches!(err, Err(CheckpointError::Rados(RadosError::Fenced { .. }))),
        "stale-epoch checkpoint must be fenced, got {err:?}"
    );

    assert_eq!(
        ckpt_objects(base.as_ref()),
        before,
        "a fenced zombie changed a checkpoint object"
    );
    assert_eq!(
        cudele_journal::read_journal(base.as_ref(), JournalId::MDLOG).unwrap(),
        journal_before,
        "a fenced zombie changed the journal"
    );
}

// ---------------------------------------------------------------------
// Extended sweeps (CI: cargo test --release -- --ignored chaos)
// ---------------------------------------------------------------------

/// The durability table at 64 hot seeds: heavier fault rates and bigger
/// journals.
#[test]
#[ignore = "heavy sweep; run with --ignored chaos"]
fn chaos_durability_table_hot_sweep() {
    sweep_seeds(64, |seed| {
        let hot = FaultConfig {
            seed,
            eagain_ppm: 50_000,
            torn_write_ppm: 100_000,
            ..FaultConfig::default()
        };
        for row in &ROWS {
            check(row, 150, hot.clone());
        }
    });
}

/// Wider, hotter failover matrix: every mechanism configuration x 16
/// seeds under heavier background faults, rerun for bit-identity. CI runs
/// this via `cargo test --release -- --ignored chaos`.
#[test]
#[ignore = "heavy sweep; run with --ignored chaos_failover"]
fn chaos_failover_wide_matrix() {
    for mech in FAILOVER_MECHANISMS {
        let outcomes = sweep_seeds(16, |seed| failover_run(mech, seed));
        for (seed, o) in outcomes.iter().enumerate() {
            assert_eq!(o.epoch, 2, "{mech} seed {seed}");
        }
        // Bit-identity for a sample of seeds (each run is itself asserted
        // internally, so the sample only has to pin determinism).
        for seed in [0, 7, 15] {
            assert_eq!(
                failover_run(mech, seed),
                outcomes[seed as usize],
                "{mech} seed {seed}: failover not reproducible"
            );
        }
    }
}

/// Checkpointed failover across a wide seed matrix: background faults
/// (transient EAGAINs + torn appends) during the workload, a seed-chosen
/// corruption of one checkpoint artifact before the crash, then the
/// takeover. Every seed must recover every flushed create — the full
/// journal stays the zero-loss bottom of the fallback ladder no matter
/// which tier was damaged — and reproduce bit for bit on a rerun.
/// CI runs this via `cargo test --release -- --ignored chaos`.
#[test]
#[ignore = "heavy sweep; run with --ignored chaos_checkpoint"]
fn chaos_checkpoint_wide_matrix() {
    fn run(seed: u64) -> (u64, u64, u64, usize, bool) {
        const N: u64 = 120;
        let os = faulty_store(background_faults(seed));
        let mut cluster = MdsCluster::new(os.clone(), CostModel::calibrated(), Some(small_mdlog()));
        cluster
            .enable_checkpoints(CheckpointConfig {
                // Vary the image cadence with the seed so the matrix covers
                // one-image lineages and many-epoch ones alike.
                interval_events: 2 + (seed % 4) * 2,
            })
            .unwrap();
        cluster.active_mut().open_session(CLIENT);
        let dir = cluster.active_mut().setup_dir_durable("/cs").unwrap();
        for i in 0..N {
            cluster
                .active_mut()
                .create(CLIENT, dir, &format!("f{i}"))
                .result
                .unwrap();
        }
        cluster.active_mut().flush_journal();
        // Seed-chosen corruption of one checkpoint tier, written through
        // the inner store so the fault-draw sequence is untouched.
        let damaged = match seed % 3 {
            0 => flip_ckpt_object(os.inner().as_ref(), |n| n.contains(".manifest.")),
            1 => flip_ckpt_object(os.inner().as_ref(), |n| n.ends_with(".manifest")),
            _ => flip_ckpt_object(os.inner().as_ref(), |n| n.contains(".image.")),
        };
        cluster.crash_active();
        cluster.advance_to(Nanos::from_millis(80)).unwrap();
        let r = cluster.reports()[0];
        assert_eq!(r.takeover.epoch.0, 2, "seed {seed}");
        let survived = (0..N)
            .filter(|i| {
                cluster
                    .active()
                    .store()
                    .lookup(dir, &format!("f{i}"))
                    .is_ok()
            })
            .count();
        assert_eq!(
            survived, N as usize,
            "seed {seed}: flushed creates lost across checkpointed failover \
(damaged={damaged})"
        );
        if damaged {
            assert!(
                r.takeover.manifest_fallbacks >= 1 || r.takeover.manifest_epoch > 0,
                "seed {seed}: damage neither recovered-through nor fell back"
            );
        }
        (
            r.takeover.manifest_epoch,
            r.takeover.manifest_fallbacks,
            r.takeover.replayed_events,
            survived,
            damaged,
        )
    }
    let outcomes = sweep_seeds(32, run);
    assert!(
        outcomes.iter().any(|o| o.4),
        "no seed ever damaged a checkpoint object"
    );
    assert!(
        outcomes.iter().any(|o| o.1 > 0),
        "no seed ever exercised the fallback ladder"
    );
    // Bit-identity for a sample of seeds.
    for seed in [0, 13, 31] {
        assert_eq!(
            run(seed),
            outcomes[seed as usize],
            "seed {seed}: checkpointed failover not reproducible"
        );
    }
}

/// Wide speculation matrix: (mdlog on/off x window depth) x crash point
/// x seed, every cell a full mid-window failover with rollback, token
/// replay on the standby, zero committed-op loss, a linearizable
/// commit-time history (checked inside [`speculation_failover_run`]),
/// and bit-identity on rerun for a sample of cells.
/// CI runs this via `cargo test --release -- --ignored chaos`.
#[test]
#[ignore = "heavy sweep; run with --ignored chaos_speculation"]
fn chaos_speculation_wide_matrix() {
    const CONFIGS: [(bool, usize); 3] = [(true, 4), (true, 16), (false, 8)];
    const CRASH_AT: [u64; 2] = [15, 45];
    for (mdlog, depth) in CONFIGS {
        for crash_at in CRASH_AT {
            let outcomes = sweep_seeds(8, |seed| {
                speculation_failover_run(mdlog, depth, crash_at, seed)
            });
            for (seed, o) in outcomes.iter().enumerate() {
                assert_eq!(
                    o.epoch, 2,
                    "mdlog={mdlog} depth={depth} crash@{crash_at} seed {seed}"
                );
                // mdlog on: zero loss. mdlog off: the journal-off class —
                // pre-crash commits die with the primary, nothing else.
                if mdlog {
                    assert_eq!(o.lost, 0, "mdlog depth={depth} seed {seed}");
                    assert_eq!(o.survived, 60, "mdlog depth={depth} seed {seed}");
                } else {
                    assert!(
                        o.lost > 0,
                        "depth={depth} crash@{crash_at} seed {seed}: \
journal-off cell never exercised the loss class"
                    );
                }
                assert!(
                    o.rollbacks >= 1 && o.aborted == o.replayed,
                    "mdlog={mdlog} depth={depth} seed {seed}: \
rollbacks {} aborted {} replayed {}",
                    o.rollbacks,
                    o.aborted,
                    o.replayed
                );
            }
            // Bit-identity for a sample of seeds (each cell already
            // asserts its own invariants; the sample pins determinism).
            for seed in [0u64, 7] {
                assert_eq!(
                    speculation_failover_run(mdlog, depth, crash_at, seed),
                    outcomes[seed as usize],
                    "mdlog={mdlog} depth={depth} crash@{crash_at} seed {seed}: \
not reproducible"
                );
            }
        }
    }
}

/// Determinism under chaos: the same seed injects the identical fault
/// sequence, producing identical store-level outcomes.
#[test]
#[ignore = "heavy sweep; run with --ignored chaos"]
fn chaos_same_seed_injects_identical_faults() {
    let run = |seed: u64| {
        let r = rig("local_persist+global_persist", 120, background_faults(seed));
        let id = r.client.as_ref().unwrap().journal_id();
        (r.os.injected(), read_journal(r.os.as_ref(), id).unwrap())
    };
    sweep_seeds(32, |seed| {
        assert_eq!(run(seed), run(seed), "seed {seed} not reproducible");
    });
}
