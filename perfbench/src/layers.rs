//! The traced replay: the workload's seeded request sequence is sent
//! once more, and each request is timed at every layer boundary by
//! calling that layer's public function from outside —
//! `QueryEngine::run` → `EngineRegistry::batch` / `fetch` → `Server`
//! HTTP → `Router` HTTP — plus `Query::from_json_str`,
//! `QueryResponse::to_json_string`, the snapshot codec and the pinned
//! evaluators. A layer's self time is its boundary minus the one below
//! (see [`crate::trace::self_ns`]).

use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use uxm_core::api::{EvaluatorHint, Query, QueryResponse};
use uxm_core::registry::{BatchQuery, EngineRegistry};
use uxm_core::router::Router;
use uxm_core::server::Server;
use uxm_core::storage::decode_engine_snapshot;
use uxm_core::{Evaluator, QueryEngine};

use crate::http::Conn;
use crate::oracle;
use crate::stats::{geomean, median};
use crate::trace::{self_ns, Tracer};
use crate::workload::{batch_req, server_config, start_router, Catalog, Kind, Req, Setup, Target};

/// Sequence stream of the replay (the clients use streams 1..).
const REPLAY_STREAM: u64 = 0x7ACE;
/// Decodes per snapshot when timing `decode_engine_snapshot`.
const DECODE_REPS: usize = 5;
/// Distinct (engine, query) pairs timed for compile cost.
const COMPILE_PAIRS: usize = 12;
/// Runs of a pair needed before its planner regret is reported.
const REGRET_MIN_RUNS: usize = 3;
/// Cold fetches timed per run, spread evenly over the snapshots.
const FETCH_SAMPLES: usize = 24;
/// `/query` requests per `/batch` sent through the side router, and the
/// most such batches per replay.
const SIDE_BATCH_ITEMS: usize = 8;
const SIDE_SCATTERS: usize = 24;
/// Spans recorded per round, and rounds, when timing the tracer itself.
const OVERHEAD_SPANS: usize = 10_000;
const OVERHEAD_ROUNDS: usize = 9;

/// One measured metric.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// One row of the planner-regret table.
pub struct PlannerRow {
    pub label: String,
    pub runs: usize,
    pub auto_us: f64,
    pub compiled_us: f64,
    pub block_tree_us: f64,
    pub naive_us: f64,
    pub regret: f64,
    pub backend: &'static str,
    pub reason: &'static str,
}

pub struct Replay {
    pub metrics: Vec<Metric>,
    /// The metrics whose layer is not on this workload's request path:
    /// they were measured on a side stack over the same snapshots.
    pub off_path: Vec<&'static str>,
    pub planner: Vec<PlannerRow>,
    /// Requests of the sequence replayed through every layer.
    pub requests: u64,
    /// Every request sent, the side router's warm-up too.
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

/// Per-(engine, query) timings of the engine-level runs, µs.
#[derive(Default)]
struct PairTimes {
    auto: Vec<f64>,
    compiled: Vec<f64>,
    block_tree: Vec<f64>,
    naive: Vec<f64>,
    plan: Option<(Evaluator, &'static str)>,
}

#[derive(Default)]
struct Samples {
    server_self: Vec<f64>,
    router_hop: Vec<f64>,
    router_scatter: Vec<f64>,
    parse: Vec<f64>,
    serialize: Vec<f64>,
    response_bytes: Vec<f64>,
    lookup: Vec<f64>,
    run: Vec<f64>,
    relevant: Vec<f64>,
    rewrite_hits: u64,
    rewrite_lookups: u64,
    program_hits: u64,
    program_lookups: u64,
    auto_compiled: u64,
    auto_runs: u64,
    exec: Vec<f64>,
    tree: Vec<f64>,
    naive: Vec<f64>,
}

/// Checks served answers against the oracle, keeping a few failures.
#[derive(Default)]
struct Checker {
    sent: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Checker {
    fn check(&mut self, req: &Req, outcome: std::io::Result<(u16, String)>) {
        self.sent += 1;
        let why = match outcome {
            Ok((200, body)) if oracle::matches(&req.expected, &body) => return,
            Ok((status, _)) => format!("HTTP {status} or wrong answers"),
            Err(e) => format!("i/o: {e}"),
        };
        self.failed += 1;
        if self.failures.len() < 10 {
            self.failures
                .push(format!("replay {} {}: {why}", req.path, req.label));
        }
    }
}

/// A registry over `dir` with every engine of `names` resident.
fn resident_registry(dir: &Path, names: &[String]) -> Result<Arc<EngineRegistry>, String> {
    let registry = Arc::new(EngineRegistry::new().snapshot_dir(dir));
    for name in names {
        registry
            .fetch(name)
            .map_err(|e| format!("hydrating {name}: {e}"))?;
    }
    Ok(registry)
}

/// Replays up to `requests` requests (stopping early at `budget`),
/// recording spans into `tracer`.
pub fn replay(
    kind: Kind,
    seed: u64,
    catalog: &Catalog,
    setup: &Setup,
    requests: u64,
    budget: Duration,
    tracer: &mut Tracer,
) -> Result<Replay, String> {
    let snapshots: HashMap<String, Vec<u8>> = setup
        .names
        .iter()
        .map(|name| {
            let path = setup.dir.join(format!("{name}.uxm"));
            std::fs::read(&path)
                .map(|bytes| (name.clone(), bytes))
                .map_err(|e| format!("{}: {e}", path.display()))
        })
        .collect::<Result<_, _>>()?;
    let mut decode_us: HashMap<&str, f64> = HashMap::new();
    for (name, bytes) in &snapshots {
        let times: Vec<f64> = (0..DECODE_REPS)
            .map(|_| {
                let t = Instant::now();
                let engine = decode_engine_snapshot(bytes);
                let us = t.elapsed().as_secs_f64() * 1e6;
                engine.map(|_| us)
            })
            .collect::<Result<_, _>>()
            .map_err(|e| format!("decoding {name}: {e}"))?;
        decode_us.insert(name.as_str(), median(&times).expect("DECODE_REPS > 0"));
    }

    // `EngineRegistry::fetch` of a non-resident engine, on a fresh
    // registry over the workload's snapshots, and reading a snapshot
    // file, the part of a hydration before decoding.
    let reps = FETCH_SAMPLES.div_ceil(setup.names.len().max(1));
    let mut fetch_cold = Vec::with_capacity(reps * setup.names.len());
    let mut read = Vec::with_capacity(fetch_cold.capacity());
    for name in &setup.names {
        let path = setup.dir.join(format!("{name}.uxm"));
        for _ in 0..reps {
            let t = Instant::now();
            let bytes = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            read.push(t.elapsed().as_secs_f64() * 1e6);
            std::hint::black_box(bytes);
            let fresh = EngineRegistry::new().snapshot_dir(&setup.dir);
            let t = Instant::now();
            let engine = fresh.fetch(name);
            fetch_cold.push(t.elapsed().as_secs_f64() * 1e6);
            engine.map_err(|e| format!("cold fetch of {name}: {e}"))?;
        }
    }

    // Behind the router the shards own their registries, so the layers
    // below it are replayed on a registry and plain server of our own
    // over the same snapshots, every engine resident like the shards'.
    let own = if kind.routed() {
        let registry = resident_registry(&setup.dir, &setup.names)?;
        let server = Server::bind(Arc::clone(&registry), "127.0.0.1:0", server_config())
            .map_err(|e| format!("replay server: {e}"))?;
        let addr = server.local_addr();
        Some((registry, addr, server.start()))
    } else {
        None
    };
    let (registry, server_addr) = match (&own, &setup.served.registry) {
        (Some((registry, addr, _)), _) => (Arc::clone(registry), *addr),
        (None, Some(registry)) => (Arc::clone(registry), setup.served.addr),
        (None, None) => unreachable!("a plain server always has its registry"),
    };
    // Off the routed workload the router layers are measured on a side
    // router over the same snapshots, with `/batch` requests made of the
    // replayed `/query` requests. A scatter's per-shard batches are
    // timed on a registry with every engine resident, as the shards'.
    let warm_registry = match kind {
        Kind::CorpusColdChurn => resident_registry(&setup.dir, &setup.names)?,
        Kind::D7Paper | Kind::CorpusRouterWarm => Arc::clone(&registry),
    };
    let side = match kind.routed() {
        true => None,
        false => Some(start_router(&setup.dir).map_err(|e| format!("side router: {e}"))?),
    };
    let owners: &Router = match (&setup.served.router, &side) {
        (Some(router), _) | (None, Some((router, _, _))) => router,
        (None, None) => unreachable!("a side router runs when none is served"),
    };
    let router_addr = side
        .as_ref()
        .map_or(setup.served.addr, |(_, addr, _)| *addr);

    let result = replay_requests(
        kind,
        seed,
        catalog,
        &registry,
        &warm_registry,
        owners,
        Addrs {
            server: server_addr,
            router: router_addr,
            side: side.is_some(),
        },
        (requests, budget),
        tracer,
    );
    if let Some((router, _, handle)) = side {
        handle.shutdown();
        router.shutdown();
    }
    if let Some((_, _, handle)) = own {
        handle.shutdown();
    }
    let (s, pairs, checker) = result?;
    let compile = compile_costs(catalog, &snapshots, &pairs)?;

    // What the tracing adds to a replayed request: the spans recorded
    // per request times the cost of recording one span around no work.
    let spans_per_request = tracer.spans().len() as f64 / s.run.len().max(1) as f64;
    let per_span_us: Vec<f64> = (0..OVERHEAD_ROUNDS)
        .map(|_| {
            let mut scratch = Tracer::new();
            let t = Instant::now();
            for i in 0..OVERHEAD_SPANS {
                std::hint::black_box(scratch.time("trace.noop", None, i as u64, || ()));
            }
            t.elapsed().as_secs_f64() * 1e6 / OVERHEAD_SPANS as f64
        })
        .collect();

    let planner = planner_rows(catalog, &pairs);
    let regrets: Vec<f64> = planner.iter().map(|r| r.regret).collect();
    let ratio = |num: u64, den: u64| num as f64 / den.max(1) as f64;
    let med = |name: &str, v: &[f64]| median(v).ok_or_else(|| format!("no {name} sample"));
    let encode = &setup.phases.encode_us;
    let decodes: Vec<f64> = decode_us.values().copied().collect();
    let metrics = vec![
        metric("server.self_us", "us", med("server", &s.server_self)?),
        metric("router.hop_us", "us", med("router hop", &s.router_hop)?),
        metric(
            "router.scatter_us",
            "us",
            med("router scatter", &s.router_scatter)?,
        ),
        metric("api.parse_us", "us", med("parse", &s.parse)?),
        metric("api.serialize_us", "us", med("serialize", &s.serialize)?),
        metric(
            "api.response_bytes",
            "bytes",
            med("response", &s.response_bytes)?,
        ),
        metric("registry.lookup_us", "us", med("lookup", &s.lookup)?),
        metric(
            "registry.fetch_cold_p50_us",
            "us",
            med("cold fetch", &fetch_cold)?,
        ),
        metric(
            "registry.fetch_cold_max_us",
            "us",
            fetch_cold.iter().copied().fold(0.0, f64::max),
        ),
        metric("storage.decode_us", "us", med("decode", &decodes)?),
        metric("storage.read_us", "us", med("read", &read)?),
        metric("storage.encode_us", "us", med("encode", encode)?),
        metric(
            "storage.bytes_per_resident_byte",
            "ratio",
            setup.snapshot_bytes as f64 / setup.resident_bytes as f64,
        ),
        metric("engine.run_us", "us", med("engine run", &s.run)?),
        metric(
            "engine.relevant_mean",
            "count",
            s.relevant.iter().sum::<f64>() / s.relevant.len().max(1) as f64,
        ),
        metric(
            "engine.rewrite_hit_ratio",
            "ratio",
            ratio(s.rewrite_hits, s.rewrite_lookups),
        ),
        metric(
            "planner.regret_geomean",
            "ratio",
            geomean(&regrets).ok_or("no planner-regret row")?,
        ),
        metric(
            "planner.regret_max",
            "ratio",
            regrets.iter().copied().fold(0.0, f64::max),
        ),
        metric(
            "planner.compiled_share",
            "ratio",
            ratio(s.auto_compiled, s.auto_runs),
        ),
        metric("exec.run_us", "us", med("compiled run", &s.exec)?),
        metric("exec.compile_us", "us", med("compile", &compile)?),
        metric(
            "exec.cache_hit_ratio",
            "ratio",
            ratio(s.program_hits, s.program_lookups),
        ),
        metric("ptq_tree.run_us", "us", med("block-tree run", &s.tree)?),
        metric("ptq.run_us", "us", med("naive run", &s.naive)?),
        metric(
            "trace.overhead_us",
            "us",
            spans_per_request * med("span", &per_span_us)?,
        ),
    ];
    let mut off_path = Vec::new();
    if !kind.routed() {
        off_path.extend(["router.hop_us", "router.scatter_us"]);
    }
    if kind != Kind::CorpusColdChurn {
        off_path.extend([
            "registry.fetch_cold_p50_us",
            "registry.fetch_cold_max_us",
            "storage.decode_us",
            "storage.read_us",
        ]);
    }
    Ok(Replay {
        metrics,
        off_path,
        planner,
        requests: s.run.len() as u64,
        attempted: checker.sent,
        failed: checker.failed,
        failures: checker.failures,
    })
}

type Replayed = (Samples, BTreeMap<(String, usize), PairTimes>, Checker);

/// Where the replay sends its HTTP requests.
struct Addrs {
    /// The plain server whose registry the replay times.
    server: SocketAddr,
    router: SocketAddr,
    /// Whether `router` is a side router off the workload's path.
    side: bool,
}

/// The replay loop proper; `limits` is `(requests, budget)`.
#[allow(clippy::too_many_arguments)]
fn replay_requests(
    kind: Kind,
    seed: u64,
    catalog: &Catalog,
    registry: &EngineRegistry,
    warm_registry: &EngineRegistry,
    owners: &Router,
    addrs: Addrs,
    limits: (u64, Duration),
    tracer: &mut Tracer,
) -> Result<Replayed, String> {
    let (requests, budget) = limits;
    let side = addrs.side;
    let connect = |addr| Conn::connect(addr).map_err(|e| format!("replay connect: {e}"));
    let mut server = connect(addrs.server)?;
    let mut router = connect(addrs.router)?;
    let mut shards: HashMap<u64, Conn> = owners
        .shard_addrs()
        .into_iter()
        .map(|(id, addr)| connect(addr).map(|conn| (id, conn)))
        .collect::<Result<_, _>>()?;
    let mut checker = Checker::default();
    if side {
        // Every engine resident behind the side router before timing.
        for req in catalog
            .reqs
            .iter()
            .filter(|r| r.path.starts_with("/query/"))
        {
            checker.check(req, router.post(&req.path, &req.body));
        }
    }

    let mut s = Samples::default();
    let mut pairs: BTreeMap<(String, usize), PairTimes> = BTreeMap::new();
    let mut seq = catalog.sequence(seed, REPLAY_STREAM);
    let deadline = Instant::now() + budget;
    let mut rid = 0u64;
    let mut recent: Vec<usize> = Vec::with_capacity(SIDE_BATCH_ITEMS);
    while rid < requests && Instant::now() < deadline {
        let index = seq.next();
        let req = &catalog.reqs[index];
        match &req.target {
            Target::Query { engine, query } => {
                let cold = kind == Kind::CorpusColdChurn
                    && !registry.resident().iter().any(|(n, _)| n == engine);
                let (handle, get) = if cold {
                    let (handle, id) =
                        tracer.time("registry.fetch", None, rid, || registry.fetch(engine));
                    (handle.map_err(|e| format!("fetch {engine}: {e}"))?, id)
                } else {
                    let (handle, id) =
                        tracer.time("registry.get", None, rid, || registry.get(engine));
                    s.lookup.push(tracer.span(id).dur_us());
                    (
                        handle.ok_or_else(|| format!("{engine} is not resident"))?,
                        id,
                    )
                };
                let (parsed, parse) =
                    tracer.time("api.parse", None, rid, || Query::from_json_str(&req.body));
                let q = parsed.map_err(|e| format!("parsing {}: {e}", req.label))?;
                s.parse.push(tracer.span(parse).dur_us());
                let (resp, run) = tracer.time("engine.run", None, rid, || handle.run(&q));
                let resp = resp.map_err(|e| format!("running {}: {e}", req.label))?;
                s.run.push(tracer.span(run).dur_us());
                s.record_auto(&resp);
                let (json, ser) = tracer.time("api.serialize", None, rid, || resp.to_json_string());
                s.serialize.push(tracer.span(ser).dur_us());
                s.response_bytes.push(json.len() as f64);
                let batch_query = [BatchQuery::new(engine.as_str(), q.clone())];
                let (_, batch) =
                    tracer.time("registry.batch", None, rid, || registry.batch(&batch_query));
                let (outcome, http) = tracer.time("server.http", None, rid, || {
                    server.post(&req.path, &req.body)
                });
                checker.check(req, outcome);
                for (child, parent) in [
                    (get, batch),
                    (run, batch),
                    (parse, http),
                    (ser, http),
                    (batch, http),
                ] {
                    tracer.set_parent(child, parent);
                }
                s.server_self
                    .push(self_ns(tracer.span(http), &[tracer.span(batch)]) as f64 / 1e3);
                // The hop is the router's round trip over that of the
                // shard it forwards to, asked directly.
                let shard = shards
                    .get_mut(&owners.owner(engine))
                    .ok_or_else(|| format!("no shard owns {engine}"))?;
                let (outcome, below) =
                    tracer.time("shard.http", None, rid, || shard.post(&req.path, &req.body));
                checker.check(req, outcome);
                let (outcome, hop) = tracer.time("router.http", None, rid, || {
                    router.post(&req.path, &req.body)
                });
                checker.check(req, outcome);
                tracer.set_parent(below, hop);
                s.router_hop
                    .push(self_ns(tracer.span(hop), &[tracer.span(below)]) as f64 / 1e3);

                let times = pairs.entry((engine.clone(), *query)).or_default();
                times.auto.push(tracer.span(run).dur_us());
                times.plan = Some((resp.stats.backend, resp.stats.plan.reason.wire_name()));
                for (hint, name) in [
                    (EvaluatorHint::Compiled, "exec.run"),
                    (EvaluatorHint::BlockTree, "ptq_tree.run"),
                    (EvaluatorHint::Naive, "ptq.run"),
                ] {
                    let pinned = q.clone().with_evaluator(hint);
                    let (out, id) = tracer.time(name, None, rid, || handle.run(&pinned));
                    let out = out.map_err(|e| format!("{name} of {}: {e}", req.label))?;
                    let us = tracer.span(id).dur_us();
                    let (all, pair) = match hint {
                        EvaluatorHint::Compiled => {
                            s.record_programs(&out);
                            (&mut s.exec, &mut times.compiled)
                        }
                        EvaluatorHint::BlockTree => (&mut s.tree, &mut times.block_tree),
                        _ => (&mut s.naive, &mut times.naive),
                    };
                    all.push(us);
                    pair.push(us);
                }
                if side && s.router_scatter.len() < SIDE_SCATTERS {
                    recent.push(index);
                    if recent.len() == SIDE_BATCH_ITEMS {
                        let batch = batch_req(catalog, &recent);
                        recent.clear();
                        let Target::Scatter { parts } = &batch.target else {
                            unreachable!("a batch scatters")
                        };
                        let (outcome, us) = scatter(
                            catalog,
                            &batch,
                            parts,
                            rid,
                            &mut router,
                            owners,
                            warm_registry,
                            tracer,
                        );
                        checker.check(&batch, outcome);
                        s.router_scatter.push(us);
                    }
                }
            }
            Target::Scatter { parts } => {
                let (outcome, us) = scatter(
                    catalog,
                    req,
                    parts,
                    rid,
                    &mut router,
                    owners,
                    warm_registry,
                    tracer,
                );
                checker.check(req, outcome);
                s.router_scatter.push(us);
            }
        }
        rid += 1;
    }
    Ok((s, pairs, checker))
}

/// Sends a fan-out request through the router and times what each
/// shard runs for it: its engines' parts as one registry batch,
/// concurrently like the router's fan-out. Returns the router's answer
/// and its self time, µs.
#[allow(clippy::too_many_arguments)]
fn scatter(
    catalog: &Catalog,
    req: &Req,
    parts: &[(String, usize)],
    rid: u64,
    router: &mut Conn,
    owners: &Router,
    registry: &EngineRegistry,
    tracer: &mut Tracer,
) -> (std::io::Result<(u16, String)>, f64) {
    let (outcome, hop) = tracer.time("router.http", None, rid, || {
        router.post(&req.path, &req.body)
    });
    let mut by_shard: BTreeMap<u64, Vec<BatchQuery>> = BTreeMap::new();
    for (engine, q) in parts {
        by_shard
            .entry(owners.owner(engine))
            .or_default()
            .push(BatchQuery::new(
                engine.as_str(),
                catalog.queries[*q].1.clone(),
            ));
    }
    let timed: Vec<(Instant, Instant)> = std::thread::scope(|scope| {
        let handles: Vec<_> = by_shard
            .values()
            .map(|batch| {
                scope.spawn(move || {
                    let start = Instant::now();
                    std::hint::black_box(registry.batch(batch));
                    (start, Instant::now())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard replay thread panicked"))
            .collect()
    });
    let children: Vec<usize> = timed
        .into_iter()
        .map(|(start, end)| tracer.push("registry.batch", Some(hop), rid, start, end))
        .collect();
    let children: Vec<_> = children.iter().map(|&c| tracer.span(c)).collect();
    let us = self_ns(tracer.span(hop), &children) as f64 / 1e3;
    (outcome, us)
}

impl Samples {
    /// Program-cache lookups of a run (none unless it ran `Compiled`).
    fn record_programs(&mut self, resp: &QueryResponse) {
        self.program_hits += resp.stats.program_cache_hits;
        self.program_lookups += resp.stats.program_cache_hits + resp.stats.program_cache_misses;
    }

    fn record_auto(&mut self, resp: &QueryResponse) {
        let st = &resp.stats;
        self.relevant.push(st.relevant as f64);
        self.rewrite_hits += st.rewrite_hits;
        self.rewrite_lookups += st.rewrite_hits + st.rewrite_misses;
        self.record_programs(resp);
        self.auto_runs += 1;
        if st.backend == Evaluator::Compiled {
            self.auto_compiled += 1;
        }
    }
}

/// Compile cost per pair: the first `Compiled` run on a freshly decoded
/// engine minus the median of three warm runs after it.
fn compile_costs(
    catalog: &Catalog,
    snapshots: &HashMap<String, Vec<u8>>,
    pairs: &BTreeMap<(String, usize), PairTimes>,
) -> Result<Vec<f64>, String> {
    let mut out = Vec::new();
    for (engine, q) in pairs.keys().take(COMPILE_PAIRS) {
        let fresh: QueryEngine = decode_engine_snapshot(&snapshots[engine])
            .map_err(|e| format!("decoding {engine}: {e}"))?;
        let query = catalog.queries[*q]
            .1
            .clone()
            .with_evaluator(EvaluatorHint::Compiled);
        let time = || {
            let t = Instant::now();
            std::hint::black_box(fresh.run(&query).map(|r| r.answers.len()))
                .map(|_| t.elapsed().as_secs_f64() * 1e6)
                .map_err(|e| format!("compiling on {engine}: {e}"))
        };
        let first = time()?;
        let warm = [time()?, time()?, time()?];
        out.push(first - median(&warm).expect("three warm runs"));
    }
    Ok(out)
}

fn planner_rows(
    catalog: &Catalog,
    pairs: &BTreeMap<(String, usize), PairTimes>,
) -> Vec<PlannerRow> {
    pairs
        .iter()
        .filter(|(_, t)| t.auto.len() >= REGRET_MIN_RUNS)
        .map(|((engine, q), t)| {
            let med = |v: &[f64]| median(v).expect("at least REGRET_MIN_RUNS runs");
            let (auto, compiled, block_tree, naive) = (
                med(&t.auto),
                med(&t.compiled),
                med(&t.block_tree),
                med(&t.naive),
            );
            let (backend, reason) = t.plan.expect("recorded with every auto run");
            PlannerRow {
                label: format!("{} @ {engine}", catalog.queries[*q].0),
                runs: t.auto.len(),
                auto_us: auto,
                compiled_us: compiled,
                block_tree_us: block_tree,
                naive_us: naive,
                regret: auto / compiled.min(block_tree).min(naive),
                backend: backend.wire_name(),
                reason,
            }
        })
        .collect()
}
