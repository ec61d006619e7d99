//! `namespace_mix`: an mdtest-style mix of the whole op vocabulary —
//! reads beside writes on the same `mds::server`/`mds::store` code.
//!
//! Four closed-loop clients share 64 directories (zipf 1.0) but each owns
//! the files it touches, so every op succeeds under any interleaving the
//! engine produces and the final namespace is the union of four
//! independently modelled streams. The mix is dealt from a shuffled deck,
//! so its proportions are exact for every seed: lookup 45 %, stat 20 %,
//! create 15 %, rename 8 %, unlink 7 %, mkdir 3 %, readdir 2 % (on
//! directories of at most 64 entries).

use std::cell::{Cell, RefCell};
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use cudele_bench::World;
use cudele_journal::{FileType, InodeId};
use cudele_mds::{ClientId, MdLogConfig};
use cudele_obs::Histogram;
use cudele_sim::{Engine, Nanos, Process, Step};
use cudele_workloads::open_loop::ZipfSelector;

use super::{add_process, new_world, traced_region, Assembled, Outcome, Shape, Workload};
use crate::layers::{Op, Script};
use crate::rng::Rng;
use crate::trace;

/// Closed-loop clients.
pub const CLIENTS: u32 = 4;
/// Shared directories the zipf choice ranges over.
pub const BIG_DIRS: usize = 64;
/// Small directories (readdir targets), 32 entries each.
pub const SMALL_DIRS: usize = 16;
const SMALL_FILES: usize = 32;
/// Files populated per client per shared directory at full size.
const POPULATE_PER_DIR: usize = 125;
/// Timed ops per client at full size.
const OPS_PER_CLIENT: usize = 10_000;
/// The deck: (weight in percent, kind).
const MIX: [(usize, Kind); 7] = [
    (45, Kind::Lookup),
    (20, Kind::Stat),
    (15, Kind::Create),
    (8, Kind::Rename),
    (7, Kind::Unlink),
    (3, Kind::Mkdir),
    (2, Kind::Readdir),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Lookup,
    Stat,
    Create,
    Rename,
    Unlink,
    Mkdir,
    Readdir,
}

/// One generated op. Directories are indices into the shared (`dir`) or
/// small (`small`) directory tables; files are per-client ids that name
/// the file (`c<client>.f<id>`) and index the client's inode table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MixOp {
    Lookup {
        dir: u16,
        file: u32,
    },
    Stat {
        file: u32,
    },
    Create {
        dir: u16,
        file: u32,
    },
    Rename {
        src_dir: u16,
        src: u32,
        dst_dir: u16,
        dst: u32,
    },
    Unlink {
        dir: u16,
        file: u32,
    },
    Mkdir {
        dir: u16,
        sub: u32,
    },
    Readdir {
        small: u16,
    },
}

/// One client's generated inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientPlan {
    /// `(dir, file)` creates that populate the namespace during set-up.
    pub populate: Vec<(u16, u32)>,
    /// `(small dir, file)` creates that fill the readdir targets.
    pub populate_small: Vec<(u16, u32)>,
    /// The timed ops, in issue order (shared with the process that
    /// issues them).
    pub ops: Rc<Vec<MixOp>>,
    /// File ids handed out (the size of the client's inode table).
    pub files: u32,
}

fn big_dir(d: u16) -> String {
    format!("/mix/d{d:02}")
}

fn small_dir(d: u16) -> String {
    format!("/mix/s{d:02}")
}

fn file_name(client: u32, file: u32) -> String {
    format!("c{client}.f{file}")
}

fn sub_name(client: u32, sub: u32) -> String {
    format!("c{client}.m{sub}")
}

/// Generates client `client`'s plan and folds its final files into
/// `model`. A pure function of `(seed, client, scale)`.
pub fn generate(seed: u64, client: u32, scale: u64, model: &mut Shape) -> ClientPlan {
    let mut rng = Rng::new(seed, u64::from(client) + 1);
    let zipf = ZipfSelector::new(BIG_DIRS, 1.0);
    let per_dir = (POPULATE_PER_DIR / scale as usize).max(2);
    let n_ops = OPS_PER_CLIENT / scale as usize;
    let mut next_file = 0u32;
    let mut live: Vec<Vec<u32>> = vec![Vec::new(); BIG_DIRS];
    // Where each live file is, for stat (which needs no directory) and
    // for the model.
    let mut populate = Vec::new();
    for d in 0..BIG_DIRS as u16 {
        for _ in 0..per_dir {
            live[d as usize].push(next_file);
            populate.push((d, next_file));
            next_file += 1;
        }
    }
    let mut populate_small = Vec::new();
    for d in (0..SMALL_DIRS as u16).filter(|d| u32::from(*d) % CLIENTS == client) {
        for _ in 0..SMALL_FILES {
            populate_small.push((d, next_file));
            model.insert(
                format!("{}/{}", small_dir(d), file_name(client, next_file)),
                FileType::File,
            );
            next_file += 1;
        }
    }
    let mut deck: Vec<Kind> = Vec::with_capacity(n_ops);
    for (pct, kind) in MIX {
        deck.extend(std::iter::repeat_n(kind, n_ops * pct / 100));
    }
    deck.resize(n_ops, Kind::Lookup);
    rng.shuffle(&mut deck);

    // A directory that holds one of this client's files, starting the
    // search at the zipf choice.
    let occupied = |live: &[Vec<u32>], start: usize| -> usize {
        (0..BIG_DIRS)
            .map(|k| (start + k) % BIG_DIRS)
            .find(|d| !live[*d].is_empty())
            .expect("a client never unlinks its last file")
    };
    let mut next_sub = 0u32;
    let mut ops = Vec::with_capacity(n_ops);
    for kind in deck {
        let d = zipf.pick(rng.next_f64());
        ops.push(match kind {
            Kind::Lookup => {
                let d = occupied(&live, d);
                let file = live[d][rng.below(live[d].len())];
                MixOp::Lookup {
                    dir: d as u16,
                    file,
                }
            }
            Kind::Stat => {
                let d = occupied(&live, d);
                MixOp::Stat {
                    file: live[d][rng.below(live[d].len())],
                }
            }
            Kind::Create => {
                let file = next_file;
                next_file += 1;
                live[d].push(file);
                MixOp::Create {
                    dir: d as u16,
                    file,
                }
            }
            Kind::Rename => {
                let s = occupied(&live, d);
                let at = rng.below(live[s].len());
                let src = live[s].swap_remove(at);
                let dst_dir = zipf.pick(rng.next_f64());
                let dst = next_file;
                next_file += 1;
                live[dst_dir].push(dst);
                MixOp::Rename {
                    src_dir: s as u16,
                    src,
                    dst_dir: dst_dir as u16,
                    dst,
                }
            }
            Kind::Unlink => {
                let total: usize = live.iter().map(Vec::len).sum();
                if total <= 1 {
                    // Keep one file alive so reads always have a target.
                    let d = occupied(&live, d);
                    MixOp::Stat { file: live[d][0] }
                } else {
                    let d = occupied(&live, d);
                    let at = rng.below(live[d].len());
                    MixOp::Unlink {
                        dir: d as u16,
                        file: live[d].swap_remove(at),
                    }
                }
            }
            Kind::Mkdir => {
                let sub = next_sub;
                next_sub += 1;
                model.insert(
                    format!("{}/{}", big_dir(d as u16), sub_name(client, sub)),
                    FileType::Dir,
                );
                MixOp::Mkdir { dir: d as u16, sub }
            }
            Kind::Readdir => MixOp::Readdir {
                small: rng.below(SMALL_DIRS) as u16,
            },
        });
    }
    for (d, files) in live.iter().enumerate() {
        for f in files {
            model.insert(
                format!("{}/{}", big_dir(d as u16), file_name(client, *f)),
                FileType::File,
            );
        }
    }
    ClientPlan {
        populate,
        populate_small,
        ops: Rc::new(ops),
        files: next_file,
    }
}

/// The directories every plan assumes, as the reference model sees them.
fn model_dirs(model: &mut Shape) {
    model.insert("/mix".to_string(), FileType::Dir);
    for d in 0..BIG_DIRS as u16 {
        model.insert(big_dir(d), FileType::Dir);
    }
    for d in 0..SMALL_DIRS as u16 {
        model.insert(small_dir(d), FileType::Dir);
    }
}

/// The populated world one run consumes.
struct Populated {
    world: World,
    big: Rc<Vec<InodeId>>,
    small: Rc<Vec<InodeId>>,
    /// Per client: inode of each file id (ROOT = not created yet).
    inos: Vec<Vec<InodeId>>,
    /// The populating creates, in issue order.
    populate_ops: Vec<Op>,
    setup_dirs: Vec<String>,
}

/// One closed-loop client issuing its plan through the server's op
/// methods and charging virtual time like `RpcCreateProcess` does.
struct MixProcess {
    idx: u32,
    ops: Rc<Vec<MixOp>>,
    next: usize,
    big: Rc<Vec<InodeId>>,
    small: Rc<Vec<InodeId>>,
    inos: Vec<InodeId>,
    op_lat: Histogram,
    failed: Rc<Cell<u64>>,
    /// Resolved ops in server order, kept only for the per-layer replays.
    log: Option<Rc<RefCell<Vec<Op>>>>,
}

impl MixProcess {
    fn resolve(&self, op: MixOp) -> Op {
        let client = self.idx;
        match op {
            MixOp::Lookup { dir, file } => Op::Lookup {
                client,
                dir: self.big[dir as usize],
                name: file_name(client, file),
                present: true,
            },
            MixOp::Stat { file } => Op::Stat {
                client,
                ino: self.inos[file as usize],
            },
            MixOp::Create { dir, file } => Op::Create {
                client,
                dir: self.big[dir as usize],
                name: file_name(client, file),
            },
            MixOp::Rename {
                src_dir,
                src,
                dst_dir,
                dst,
            } => Op::Rename {
                client,
                src_dir: self.big[src_dir as usize],
                src_name: file_name(client, src),
                dst_dir: self.big[dst_dir as usize],
                dst_name: file_name(client, dst),
            },
            MixOp::Unlink { dir, file } => Op::Unlink {
                client,
                dir: self.big[dir as usize],
                name: file_name(client, file),
            },
            MixOp::Mkdir { dir, sub } => Op::Mkdir {
                client,
                dir: self.big[dir as usize],
                name: sub_name(client, sub),
            },
            MixOp::Readdir { small } => Op::Readdir {
                client,
                dir: self.small[small as usize],
            },
        }
    }
}

impl Process<World> for MixProcess {
    fn step(&mut self, now: Nanos, world: &mut World) -> Step {
        let Some(&mix) = self.ops.get(self.next) else {
            return Step::Done;
        };
        self.next += 1;
        let op = self.resolve(mix);
        let root = world.obs.trace_root(self.idx);
        world.server.set_now(now);
        world.server.set_trace_ctx(Some(root));
        let r = op.issue(&mut world.server);
        world.server.set_trace_ctx(None);
        if !r.ok {
            self.failed.set(self.failed.get() + 1);
        }
        match mix {
            MixOp::Create { file, .. } => {
                self.inos[file as usize] = r.ino.unwrap_or(InodeId::ROOT);
            }
            MixOp::Rename { src, dst, .. } => self.inos[dst as usize] = self.inos[src as usize],
            _ => {}
        }
        let t = world.charge_ctx(root, now, &[r.cost]);
        world
            .obs
            .end_span_args(root, op.name(), "client_op", now, t - now, Vec::new());
        self.op_lat.record((t - now).0);
        world.tl.add("bench.ops", t, 1);
        world
            .tl
            .sample_traced("bench.op_latency.ns", t, (t - now).0, root.trace_id);
        if let Some(log) = &self.log {
            log.borrow_mut().push(op);
        }
        if self.next >= self.ops.len() {
            Step::Done
        } else {
            Step::ResumeAt(t)
        }
    }

    fn name(&self) -> String {
        format!("mix-client{}", self.idx)
    }
}

/// The `namespace_mix` workload.
pub struct NamespaceMix {
    plans: Vec<ClientPlan>,
    expected: Shape,
    generate_ns: u64,
    populated: Option<Populated>,
    last_shape: Option<Shape>,
}

impl NamespaceMix {
    fn mdlog() -> Option<MdLogConfig> {
        Some(MdLogConfig::default())
    }

    fn populate(&self, traced: bool) -> Populated {
        let mut world = new_world(traced, Self::mdlog());
        let mut setup_dirs = Vec::new();
        let mut mk = |world: &mut World, path: String| {
            let ino = world.server.setup_dir(&path).expect("mix directory");
            setup_dirs.push(path);
            ino
        };
        let big: Vec<InodeId> = (0..BIG_DIRS as u16)
            .map(|d| mk(&mut world, big_dir(d)))
            .collect();
        let small: Vec<InodeId> = (0..SMALL_DIRS as u16)
            .map(|d| mk(&mut world, small_dir(d)))
            .collect();
        let mut populate_ops = Vec::new();
        let mut inos = Vec::new();
        for (c, plan) in self.plans.iter().enumerate() {
            let client = c as u32;
            world.server.open_session(ClientId(client));
            let mut table = vec![InodeId::ROOT; plan.files as usize];
            let creates = plan
                .populate
                .iter()
                .map(|(d, f)| (big[*d as usize], *f))
                .chain(
                    plan.populate_small
                        .iter()
                        .map(|(d, f)| (small[*d as usize], *f)),
                );
            for (dir, file) in creates {
                let op = Op::Create {
                    client,
                    dir,
                    name: file_name(client, file),
                };
                let r = op.issue(&mut world.server);
                table[file as usize] = r.ino.expect("populating create succeeds");
                populate_ops.push(op);
            }
            inos.push(table);
        }
        Populated {
            world,
            big: Rc::new(big),
            small: Rc::new(small),
            inos,
            populate_ops,
            setup_dirs,
        }
    }

    /// Runs the timed region on `p`; returns the world and what happened.
    fn execute(
        &self,
        p: Populated,
        traced: bool,
        log: Option<Rc<RefCell<Vec<Op>>>>,
    ) -> (World, Outcome, u64) {
        let failed = Rc::new(Cell::new(0));
        let mut eng = Engine::new(p.world);
        for (c, table) in p.inos.into_iter().enumerate() {
            let proc = MixProcess {
                idx: c as u32,
                ops: Rc::clone(&self.plans[c].ops),
                next: 0,
                big: Rc::clone(&p.big),
                small: Rc::clone(&p.small),
                inos: table,
                op_lat: eng.world().obs.histogram("bench.op_latency.ns"),
                failed: Rc::clone(&failed),
                log: log.clone(),
            };
            add_process(&mut eng, proc, traced);
        }
        let (world, report) = {
            let _e = trace::span(trace::ENGINE);
            eng.run()
        };
        black_box(report.summary_json());
        let attempted: u64 = self.plans.iter().map(|p| p.ops.len() as u64).sum();
        let outcome = Outcome {
            attempted,
            failed: failed.get(),
            virtual_end_ns: report.slowest().0,
            fingerprint: report.summary_json(),
        };
        (world, outcome, report.steps)
    }
}

impl Workload for NamespaceMix {
    const NAME: &'static str = "namespace_mix";
    const HISTORY_MODE: &'static str = "rpc";

    fn prepare(seed: u64, scale: u64) -> NamespaceMix {
        let t = Instant::now();
        let mut expected = Shape::new();
        model_dirs(&mut expected);
        let plans: Vec<ClientPlan> = (0..CLIENTS)
            .map(|c| generate(seed, c, scale, &mut expected))
            .collect();
        let generate_ns = t.elapsed().as_nanos() as u64;
        let mut w = NamespaceMix {
            plans,
            expected,
            generate_ns,
            populated: None,
            last_shape: None,
        };
        w.populated = Some(w.populate(false));
        w
    }

    fn run(&mut self) -> Outcome {
        let p = self.populated.take().expect("one run per prepare");
        let (world, outcome, _) = self.execute(p, false, None);
        self.last_shape = Some(world.server.store().shape());
        outcome
    }

    fn verify(&self) -> Result<(), String> {
        let got = self.last_shape.as_ref().ok_or("no run to verify")?;
        super::check_shape(got, &self.expected)
    }

    fn assemble(&mut self, traced: bool) -> Assembled {
        let p = self.populate(traced);
        let setup_dirs = p.setup_dirs.clone();
        let mut ops = p.populate_ops.clone();
        let timed_from = ops.len();
        let log = Rc::new(RefCell::new(Vec::new()));
        let ((world, outcome, steps), recording) =
            traced_region(traced, || self.execute(p, traced, Some(Rc::clone(&log))));
        ops.append(&mut log.borrow_mut());
        Assembled::from_world(world, outcome, steps, recording, |events| Script {
            setup_dirs,
            sessions: (0..CLIENTS).collect(),
            mdlog: Self::mdlog(),
            ops,
            timed_from,
            via_rpc_client: false,
            events,
            ..Script::default()
        })
    }

    fn expected(&self) -> &Shape {
        &self.expected
    }

    fn generate_ns(&self) -> u64 {
        self.generate_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn plans(seed: u64) -> (Vec<ClientPlan>, Shape) {
        let mut model = Shape::new();
        model_dirs(&mut model);
        let plans = (0..CLIENTS)
            .map(|c| generate(seed, c, 50, &mut model))
            .collect();
        (plans, model)
    }

    #[test]
    fn generator_is_a_pure_function_of_the_seed() {
        assert_eq!(plans(11), plans(11));
        assert_ne!(plans(11).0, plans(12).0);
    }

    #[test]
    fn every_generated_op_succeeds_against_a_reference_model() {
        let (plans, model) = plans(5);
        for (c, plan) in plans.iter().enumerate() {
            // An independent model: which (dir, file) pairs are live.
            let mut live: BTreeSet<(u16, u32)> = plan.populate.iter().copied().collect();
            let mut known: BTreeSet<u32> = live.iter().map(|(_, f)| *f).collect();
            let mut subs = BTreeSet::new();
            for op in plan.ops.iter() {
                match *op {
                    MixOp::Lookup { dir, file } => assert!(live.contains(&(dir, file))),
                    MixOp::Stat { file } => assert!(live.iter().any(|(_, f)| *f == file)),
                    MixOp::Create { dir, file } => {
                        assert!(known.insert(file), "file ids are never reused");
                        assert!(live.insert((dir, file)));
                    }
                    MixOp::Rename {
                        src_dir,
                        src,
                        dst_dir,
                        dst,
                    } => {
                        assert!(live.remove(&(src_dir, src)));
                        assert!(known.insert(dst));
                        assert!(live.insert((dst_dir, dst)));
                    }
                    MixOp::Unlink { dir, file } => assert!(live.remove(&(dir, file))),
                    MixOp::Mkdir { dir, sub } => assert!(subs.insert((dir, sub))),
                    MixOp::Readdir { small } => assert!((small as usize) < SMALL_DIRS),
                }
            }
            // The generator's own model agrees with the independent one.
            for (d, f) in &live {
                let path = format!("{}/{}", big_dir(*d), file_name(c as u32, *f));
                assert_eq!(model.get(&path), Some(&FileType::File), "{path}");
            }
            let mine = model
                .keys()
                .filter(|k| k.contains(&format!("/c{c}.f")) && k.starts_with("/mix/d"))
                .count();
            assert_eq!(mine, live.len());
        }
    }

    #[test]
    fn the_deck_deals_exact_proportions() {
        let (plans, _) = plans(1);
        let n = plans[0].ops.len();
        assert_eq!(n, OPS_PER_CLIENT / 50);
        let creates = plans[0]
            .ops
            .iter()
            .filter(|o| matches!(o, MixOp::Create { .. }))
            .count();
        assert_eq!(creates, n * 15 / 100);
        let readdirs = plans[0]
            .ops
            .iter()
            .filter(|o| matches!(o, MixOp::Readdir { .. }))
            .count();
        assert_eq!(readdirs, n * 2 / 100);
    }

    #[test]
    fn the_real_stack_agrees_with_the_model() {
        let mut w = NamespaceMix::prepare(3, 50);
        let out = w.run();
        assert_eq!(out.failed, 0);
        assert_eq!(
            out.attempted,
            (OPS_PER_CLIENT / 50) as u64 * u64::from(CLIENTS)
        );
        w.verify().expect("final namespace equals the model");
    }
}
