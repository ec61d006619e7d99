//! The three create workloads `mdbench` can express: `rpc_create`,
//! `decoupled_merge` and `open_loop_churn`. Their timed region is
//! `mdbench::run` on a configuration parsed by `mdbench::parse_args` —
//! the program a user runs — and [`Workload::assemble`] rebuilds the same
//! run from the public pieces so it can be wrapped in timers and its
//! final namespace inspected.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use cudele_bench::mdbench::{self, BenchConfig};
use cudele_bench::{DecoupledCreateProcess, OpenLoopProcess, RpcCreateProcess};
use cudele_journal::{FileType, InodeId};
use cudele_mds::{ClientId, MdLogConfig};
use cudele_sim::{Engine, Nanos, RunReport};
use cudele_workloads::open_loop::{tenant_dir, ArrivalSpec};
use cudele_workloads::{client_dir, file_name};

use super::{add_process, new_world, traced_region, Assembled, Outcome, Shape, Workload};
use crate::layers::{DecoupledAppends, Script};
use crate::trace::{self, Timed};

/// A configuration for `mdbench::run`, parsed from an argument vector so
/// new `BenchConfig` fields cannot break the benchmark.
struct MdbenchRun {
    cfg: BenchConfig,
    ops: u64,
}

impl MdbenchRun {
    fn new(args: &[&str], ops: u64) -> MdbenchRun {
        let argv: Vec<String> = std::iter::once("mdbench")
            .chain(args.iter().copied())
            .map(str::to_string)
            .collect();
        let cfg = mdbench::parse_args(&argv).expect("benchmark's own mdbench arguments parse");
        MdbenchRun { cfg, ops }
    }

    /// `clients` closed-loop clients creating `files` files each.
    fn closed_loop(policy: &str, clients: u32, files: u64) -> MdbenchRun {
        MdbenchRun::new(
            &[
                "--clients",
                &clients.to_string(),
                "--files",
                &files.to_string(),
                "--policy",
                policy,
            ],
            u64::from(clients) * files,
        )
    }

    fn run(&self) -> Outcome {
        match mdbench::run(&self.cfg) {
            Ok(out) => outcome(self.ops, out.merge_end, &out.report),
            Err(e) => Outcome {
                attempted: self.ops,
                failed: self.ops,
                virtual_end_ns: 0,
                fingerprint: format!("mdbench::run failed: {e}"),
            },
        }
    }
}

fn outcome(ops: u64, end: Nanos, report: &RunReport) -> Outcome {
    Outcome {
        attempted: ops,
        failed: 0,
        virtual_end_ns: end.0,
        fingerprint: report.summary_json(),
    }
}

/// Adds `path` and every ancestor to `shape` as directories.
fn add_dirs(shape: &mut Shape, path: &str) {
    let mut cur = String::new();
    for comp in path.split('/').filter(|c| !c.is_empty()) {
        cur.push('/');
        cur.push_str(comp);
        shape.insert(cur.clone(), FileType::Dir);
    }
}

/// The model of `clients` private directories holding `files` creates
/// each, named after client `name_offset + c`.
fn private_dirs_model(clients: u32, files: u64, name_offset: u32) -> Shape {
    let mut model = Shape::new();
    for c in 0..clients {
        let dir = client_dir(c);
        add_dirs(&mut model, &dir);
        for i in 0..files {
            model.insert(
                format!("{dir}/{}", file_name(name_offset + c, i)),
                FileType::File,
            );
        }
    }
    model
}

/// Closed loop, 4 clients x 12 500 creates into private directories under
/// `posix` (`rpcs+stream`), default mdlog.
pub struct RpcCreate {
    bench: MdbenchRun,
    clients: u32,
    files: u64,
    expected: Shape,
    generate_ns: u64,
}

impl Workload for RpcCreate {
    const NAME: &'static str = "rpc_create";
    const HISTORY_MODE: &'static str = "rpc";

    fn prepare(_seed: u64, scale: u64) -> RpcCreate {
        let t = Instant::now();
        let (clients, files) = (4u32, 12_500 / scale);
        let expected = private_dirs_model(clients, files, 0);
        let bench = MdbenchRun::closed_loop("posix", clients, files);
        RpcCreate {
            bench,
            clients,
            files,
            expected,
            generate_ns: t.elapsed().as_nanos() as u64,
        }
    }

    fn run(&mut self) -> Outcome {
        self.bench.run()
    }

    fn assemble(&mut self, traced: bool) -> Assembled {
        let mdlog = Some(MdLogConfig::default());
        let ((world, report), recording) = traced_region(traced, || {
            let mut world = new_world(traced, mdlog);
            let dirs = world.setup_private_dirs(self.clients);
            let mut eng = Engine::new(world);
            for c in 0..self.clients {
                let p = RpcCreateProcess::new(eng.world_mut(), c, dirs[c as usize], self.files);
                add_process(&mut eng, p, traced);
            }
            let out = {
                let _e = trace::span(trace::ENGINE);
                eng.run()
            };
            black_box(out.1.summary_json());
            out
        });
        Assembled::from_world(
            world,
            outcome(self.bench.ops, report.slowest(), &report),
            report.steps,
            recording,
            |events| {
                Script::from_create_journal(
                    (0..self.clients).map(client_dir).collect(),
                    (0..self.clients).collect(),
                    mdlog,
                    events,
                )
            },
        )
    }

    fn expected(&self) -> &Shape {
        &self.expected
    }

    fn generate_ns(&self) -> u64 {
        self.generate_ns
    }
}

/// Closed loop, 8 clients x 12 500 creates under `batchfs`: appended to
/// client journals, then merged with Volatile Apply.
pub struct DecoupledMerge {
    bench: MdbenchRun,
    clients: u32,
    files: u64,
    expected: Shape,
    generate_ns: u64,
}

/// mdbench's merge phase re-creates the files under client ids offset by
/// this much; those are the names that reach the global namespace.
const MERGE_CLIENT_OFFSET: u32 = 100;
/// mdbench's post-merge visibility probes per client.
const PROBE_LOOKUPS: u64 = 64;

impl Workload for DecoupledMerge {
    const NAME: &'static str = "decoupled_merge";
    const HISTORY_MODE: &'static str = "decoupled";

    fn prepare(_seed: u64, scale: u64) -> DecoupledMerge {
        let t = Instant::now();
        let (clients, files) = (8u32, 12_500 / scale);
        let expected = private_dirs_model(clients, files, MERGE_CLIENT_OFFSET);
        let bench = MdbenchRun::closed_loop("batchfs", clients, files);
        DecoupledMerge {
            bench,
            clients,
            files,
            expected,
            generate_ns: t.elapsed().as_nanos() as u64,
        }
    }

    fn run(&mut self) -> Outcome {
        self.bench.run()
    }

    fn assemble(&mut self, traced: bool) -> Assembled {
        let mdlog = Some(MdLogConfig::default());
        let mut merged = Vec::new();
        let ((world, report, merge_end), recording) = traced_region(traced, || {
            let mut world = new_world(traced, mdlog);
            let dirs = world.setup_private_dirs(self.clients);
            let mut eng = Engine::new(world);
            for c in 0..self.clients {
                let p = DecoupledCreateProcess::new(eng.world_mut(), c, &client_dir(c), self.files);
                add_process(&mut eng, p, traced);
            }
            let (mut world, report) = {
                let _e = trace::span(trace::ENGINE);
                eng.run()
            };
            let create_end = report.slowest();
            let mut merge_end = create_end;
            for c in 0..self.clients {
                let _m = trace::span("phase.merge");
                let id = MERGE_CLIENT_OFFSET + c;
                let mut p = DecoupledCreateProcess::new(&mut world, id, &client_dir(c), self.files);
                for i in 0..self.files {
                    p.client
                        .create(p.client.root, &file_name(id, i))
                        .expect("decoupled create");
                }
                merge_end = merge_end.max(p.merge_at(&mut world, create_end, self.clients));
                merged.push(p);
            }
            for c in 0..self.clients {
                let _p = trace::span("phase.probe");
                let probe = ClientId(200 + c);
                world.server.set_now(merge_end);
                for i in 0..self.files.min(PROBE_LOOKUPS) {
                    let _ = world.server.lookup(
                        probe,
                        dirs[c as usize],
                        &file_name(MERGE_CLIENT_OFFSET + c, i),
                    );
                }
                let _ = world.server.readdir(probe, dirs[c as usize]);
            }
            black_box(report.summary_json());
            (world, report, merge_end)
        });
        // The server must agree that every merged event landed.
        let failed = self
            .bench
            .ops
            .saturating_sub(world.server.counters().merged_events);
        Assembled::from_world(
            world,
            Outcome {
                failed,
                ..outcome(self.bench.ops, merge_end, &report)
            },
            report.steps,
            recording,
            |_journaled| Script {
                setup_dirs: (0..self.clients).map(client_dir).collect(),
                mdlog,
                events: merged
                    .iter()
                    .flat_map(|p| p.client.events().iter().cloned())
                    .collect(),
                decoupled: (0..self.clients)
                    .map(|c| DecoupledAppends {
                        client: MERGE_CLIENT_OFFSET + c,
                        dir: client_dir(c),
                        names: (0..self.files)
                            .map(|i| file_name(MERGE_CLIENT_OFFSET + c, i))
                            .collect(),
                    })
                    .collect(),
                ..Script::default()
            },
        )
    }

    fn expected(&self) -> &Shape {
        &self.expected
    }

    fn generate_ns(&self) -> u64 {
        self.generate_ns
    }
}

/// Open loop: 25 000 short-lived clients arrive on a Poisson schedule
/// (5 000/s, four tenants, zipf 1.1 over 64 hot directories each) and do
/// one `posix` create in their shared hot directory.
pub struct OpenLoopChurn {
    bench: MdbenchRun,
    spec: String,
    arrivals: u32,
    expected: Shape,
    generate_ns: u64,
}

impl Workload for OpenLoopChurn {
    const NAME: &'static str = "open_loop_churn";
    const HISTORY_MODE: &'static str = "rpc";

    fn prepare(seed: u64, scale: u64) -> OpenLoopChurn {
        let t = Instant::now();
        let arrivals = (25_000 / scale) as u32;
        let spec = format!("poisson:rate=5000,zipf=1.1,tenants=4,seed={seed}");
        let schedule = ArrivalSpec::parse(&spec)
            .expect("benchmark's own arrival spec parses")
            .generate(arrivals as usize);
        let mut expected = Shape::new();
        for (i, a) in schedule.iter().enumerate() {
            let dir = a.dir_path();
            add_dirs(&mut expected, &dir);
            expected.insert(format!("{dir}/{}", file_name(i as u32, 0)), FileType::File);
        }
        let bench = MdbenchRun::new(
            &[
                "--clients",
                &arrivals.to_string(),
                "--files",
                "1",
                "--policy",
                "posix",
                "--arrival",
                &spec,
            ],
            u64::from(arrivals),
        );
        OpenLoopChurn {
            bench,
            spec,
            arrivals,
            expected,
            generate_ns: t.elapsed().as_nanos() as u64,
        }
    }

    fn run(&mut self) -> Outcome {
        self.bench.run()
    }

    fn assemble(&mut self, traced: bool) -> Assembled {
        let mdlog = Some(MdLogConfig::default());
        let mut setup_dirs = Vec::new();
        let ((world, report, sojourn_p99_ns), recording) = traced_region(traced, || {
            let mut world = new_world(traced, mdlog);
            let schedule = {
                let _g = trace::span("workloads.generate");
                ArrivalSpec::parse(&self.spec)
                    .expect("benchmark's own arrival spec parses")
                    .generate(self.arrivals as usize)
            };
            let mut hot: HashMap<(u32, u32), InodeId> = HashMap::new();
            for a in &schedule {
                hot.entry((a.tenant, a.dir)).or_insert_with(|| {
                    let path = tenant_dir(a.tenant, a.dir);
                    let ino = world.server.setup_dir(&path).expect("hot directory");
                    setup_dirs.push(path);
                    ino
                });
            }
            let sojourn = world.obs.histogram("bench.sojourn.ns");
            let mut eng = Engine::new(world);
            let starts: Vec<Nanos> = schedule.iter().map(|a| a.at).collect();
            let procs: Vec<OpenLoopProcess> = schedule
                .iter()
                .enumerate()
                .map(|(i, a)| OpenLoopProcess::Rpc {
                    inner: RpcCreateProcess::new(
                        eng.world_mut(),
                        i as u32,
                        hot[&(a.tenant, a.dir)],
                        1,
                    ),
                    arrival: a.at,
                    finishing: false,
                })
                .collect();
            if traced {
                eng.add_arena(procs.into_iter().map(Timed).collect(), &starts);
            } else {
                eng.add_arena(procs, &starts);
            }
            let (world, report) = {
                let _e = trace::span(trace::ENGINE);
                eng.run()
            };
            black_box(report.summary_json());
            (world, report, sojourn.percentile(99.0) as u64)
        });
        let mut a = Assembled::from_world(
            world,
            outcome(self.bench.ops, report.slowest(), &report),
            report.steps,
            recording,
            |events| {
                Script::from_create_journal(setup_dirs, (0..self.arrivals).collect(), mdlog, events)
            },
        );
        a.sojourn_p99_ns = sojourn_p99_ns;
        a
    }

    fn expected(&self) -> &Shape {
        &self.expected
    }

    fn generate_ns(&self) -> u64 {
        self.generate_ns
    }
}
