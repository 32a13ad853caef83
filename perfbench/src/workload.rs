//! The three workloads: their inputs, the stack that serves them, the
//! answer oracle, and the seeded request sequence.
//!
//! * `d7_paper` — the paper's default setting (D7, |M| = 100, τ = 0.2,
//!   MAX_B = MAX_F = 500, the 3 473-node `Order.xml` stand-in) behind a
//!   plain `Server`. Evaluation, planning and response serialization do
//!   the work; no router, hydration or snapshot code runs per request.
//! * `corpus_router_warm` — 24 power-law corpus documents behind a
//!   2-shard `Router`, every engine resident. Engine work is a few µs,
//!   so the HTTP, routing and JSON layers do the work.
//! * `corpus_cold_churn` — the same snapshots behind a plain `Server`
//!   whose registry budget holds 40 % of the corpus: a steady share of
//!   requests hydrate an engine from its snapshot.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use uxm_core::api::{EvaluatorHint, Query, QueryResponse};
use uxm_core::json::Json;
use uxm_core::registry::{BatchQuery, EngineRegistry, RegistryConfig};
use uxm_core::router::{Router, RouterConfig, TopKAnswer};
use uxm_core::server::{Server, ServerConfig, ServerHandle};
use uxm_core::storage::encode_engine_snapshot;
use uxm_core::{AggFunc, BlockTree, BlockTreeConfig, PossibleMappings, QueryEngine};
use uxm_datagen::corpus::{corpus_document, CorpusConfig};
use uxm_datagen::datasets::{Dataset, DatasetId};
use uxm_datagen::queries::paper_queries;
use uxm_matching::Matcher;
use uxm_twig::TwigPattern;
use uxm_xml::{DocGenConfig, Document, Schema};

use crate::http::Conn;
use crate::oracle::strip_stats;
use crate::rng::{derive, SplitMix64, Zipf};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    D7Paper,
    CorpusRouterWarm,
    CorpusColdChurn,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "d7_paper" => Some(Kind::D7Paper),
            "corpus_router_warm" => Some(Kind::CorpusRouterWarm),
            "corpus_cold_churn" => Some(Kind::CorpusColdChurn),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::D7Paper => "d7_paper",
            Kind::CorpusRouterWarm => "corpus_router_warm",
            Kind::CorpusColdChurn => "corpus_cold_churn",
        }
    }

    pub fn routed(self) -> bool {
        self == Kind::CorpusRouterWarm
    }
}

/// Worker threads of every server the benchmark starts.
pub const SERVER_WORKERS: usize = 2;
/// Shards behind the router of `corpus_router_warm`.
const SHARDS: usize = 2;

// The paper's default D7 setting (§VI-A).
const D7_MAPPINGS: usize = 100;
const D7_TAU: f64 = 0.2;
const D7_MAX: usize = 500;
/// The `Order.xml` stand-in's document seed, as the repro harness uses.
const D7_DOC_SEED: u64 = 0x0D0C;
const D7_TOPK: usize = 10;

// The soak corpus family.
const CORPUS_DOCS: usize = 24;
const CORPUS_NODES: usize = 300_000;
const CORPUS_ALPHA: f64 = 1.0;
const CORPUS_MAPPINGS: usize = 16;
const SOURCE_OUTLINE: &str = "Order(Buyer(Name Contact(EMail)) \
     POLine*(LineNo Quantity UnitPrice) Note*(Text) Attachment*(Uri))";
const TARGET_OUTLINE: &str = "PO(Purchaser(PName PContact(PEMail)) \
     Line(No Qty Amount) Memo(Body) Doc(Ref))";
/// `/query` twigs on the corpus. Each label has a correspondence and
/// each matches one node per document, so answers stay small whatever
/// the document's size.
const CORPUS_QUERIES: [&str; 4] = [
    "//PName",
    "//PContact/PEMail",
    "//PContact[./PEMail]",
    "//PEMail",
];
const CORPUS_TOPK: usize = 5;
/// Items per `/batch` request and distinct batches per run.
const BATCH_ITEMS: usize = 8;
const BATCH_POOL: usize = 64;
/// Shares of the `corpus_router_warm` requests. They follow the split
/// `repro soak` sends: 70 % `/query`, 20 % `/batch`, and 10 % that soak
/// spends on `/stats` probes, which do no query work. Here that 10 % is
/// shared evenly by the fan-out endpoints soak does not send. The fan-out
/// requests cost several times a `/query`, so these shares set `p99_us`.
const ROUTED_QUERY_SHARE: f64 = 0.7;
const ROUTED_BATCH_SHARE: f64 = 0.2;
const ROUTED_TOPK_SHARE: f64 = 0.05;
const ROUTED_AGGREGATE_SHARE: f64 = 0.05;
/// Registry budget of `corpus_cold_churn`, as a share of the corpus's
/// resident bytes.
const CHURN_BUDGET_SHARE: f64 = 0.4;
/// Requests of the seeded sequence that warm `corpus_cold_churn` up to
/// its steady LRU state.
const CHURN_WARMUP: usize = 600;

/// What a request asks of the engines.
#[derive(Clone, Debug)]
pub enum Target {
    /// `/query/<engine>`: one query on one engine.
    Query { engine: String, query: usize },
    /// `/topk`, `/aggregate` or `/batch`: the router splits it into
    /// these (engine, query) parts.
    Scatter { parts: Vec<(String, usize)> },
}

/// One distinct request of a workload.
#[derive(Clone, Debug)]
pub struct Req {
    pub path: String,
    pub body: String,
    /// The oracle's body with every `stats` member removed.
    pub expected: String,
    pub label: String,
    pub target: Target,
}

/// Every distinct request of a workload and the queries they carry.
pub struct Catalog {
    pub queries: Vec<(String, Query)>,
    pub reqs: Vec<Req>,
    mix: Mix,
}

#[derive(Clone)]
enum Mix {
    /// Shuffled rounds over the whole catalog.
    Rounds,
    /// Zipf-popular engines for `/query` (catalog index
    /// `engine * per_engine + query`), then the scatter groups that
    /// follow them in the catalog, each with its share of the requests.
    Corpus {
        zipf: Zipf,
        per_engine: usize,
        query_share: f64,
        groups: Vec<(f64, std::ops::Range<usize>)>,
    },
}

/// A seeded stream of catalog indices.
pub struct Sequence {
    rng: SplitMix64,
    mix: Mix,
    round: Vec<usize>,
    pos: usize,
}

impl Sequence {
    pub fn next(&mut self) -> usize {
        match &self.mix {
            Mix::Rounds => {
                if self.pos == self.round.len() {
                    self.rng.shuffle(&mut self.round);
                    self.pos = 0;
                }
                self.pos += 1;
                self.round[self.pos - 1]
            }
            Mix::Corpus {
                zipf,
                per_engine,
                query_share,
                groups,
            } => {
                let u = self.rng.unit();
                let mut edge = *query_share;
                let scatter = (u >= edge)
                    .then(|| {
                        let mut within = groups.iter().skip_while(|(share, _)| {
                            edge += share;
                            u >= edge
                        });
                        within.next().or(groups.last())
                    })
                    .flatten();
                match scatter {
                    Some((_, g)) => g.start + self.rng.below(g.len()),
                    None => zipf.sample(&mut self.rng) * per_engine + self.rng.below(*per_engine),
                }
            }
        }
    }
}

impl Catalog {
    /// The request stream for `(seed, stream)`.
    pub fn sequence(&self, seed: u64, stream: u64) -> Sequence {
        Sequence {
            rng: SplitMix64::new(derive(seed, stream)),
            mix: self.mix.clone(),
            round: (0..self.reqs.len()).collect(),
            pos: self.reqs.len(),
        }
    }
}

fn query_req(engine: &str, q: usize, queries: &[(String, Query)]) -> Req {
    Req {
        path: format!("/query/{engine}"),
        body: queries[q].1.to_json_string(),
        expected: String::new(),
        label: format!("{} @ {engine}", queries[q].0),
        target: Target::Query {
            engine: engine.to_string(),
            query: q,
        },
    }
}

fn d7_catalog() -> Catalog {
    let papers = paper_queries();
    let mut queries: Vec<(String, Query)> = papers
        .iter()
        .enumerate()
        .map(|(i, p)| (format!("Q{} ptq", i + 1), Query::ptq(p.clone())))
        .collect();
    queries.push((
        format!("Q10 topk k={D7_TOPK}"),
        Query::topk(papers[9].clone(), D7_TOPK),
    ));
    queries.push((
        "Q5 count".into(),
        Query::aggregate(papers[4].clone(), AggFunc::Count),
    ));
    let reqs = (0..queries.len())
        .map(|q| query_req("d7", q, &queries))
        .collect();
    Catalog {
        queries,
        reqs,
        mix: Mix::Rounds,
    }
}

fn corpus_catalog(kind: Kind, seed: u64, names: &[String]) -> Catalog {
    let twig = |s: &str| TwigPattern::parse(s).expect("corpus twig parses");
    let mut queries: Vec<(String, Query)> = CORPUS_QUERIES
        .iter()
        .map(|s| (format!("{s} ptq"), Query::ptq(twig(s))))
        .collect();
    let per_engine = queries.len();
    let mut reqs = Vec::new();
    for name in names {
        for q in 0..per_engine {
            reqs.push(query_req(name, q, &queries));
        }
    }
    let mut groups = Vec::new();
    if kind.routed() {
        let every = |q: usize| names.iter().map(|n| (n.clone(), q)).collect::<Vec<_>>();
        queries.push((
            format!("{} topk k={CORPUS_TOPK}", CORPUS_QUERIES[0]),
            Query::topk(twig(CORPUS_QUERIES[0]), CORPUS_TOPK),
        ));
        let topk = queries.len() - 1;
        groups.push((ROUTED_TOPK_SHARE, reqs.len()..reqs.len() + 1));
        reqs.push(Req {
            path: "/topk".into(),
            body: scatter_body(&queries[topk].1),
            expected: String::new(),
            label: queries[topk].0.clone(),
            target: Target::Scatter { parts: every(topk) },
        });
        queries.push((
            format!("{} count", CORPUS_QUERIES[1]),
            Query::aggregate(twig(CORPUS_QUERIES[1]), AggFunc::Count),
        ));
        let count = queries.len() - 1;
        groups.push((ROUTED_AGGREGATE_SHARE, reqs.len()..reqs.len() + 1));
        reqs.push(Req {
            path: "/aggregate".into(),
            body: scatter_body(&queries[count].1),
            expected: String::new(),
            label: queries[count].0.clone(),
            target: Target::Scatter {
                parts: every(count),
            },
        });
        // A seeded pool of batches, each of Zipf-popular parts.
        let zipf = Zipf::new(names.len(), CORPUS_ALPHA);
        let mut rng = SplitMix64::new(derive(seed, 0xBA7C));
        let start = reqs.len();
        for b in 0..BATCH_POOL {
            let parts: Vec<(String, usize)> = (0..BATCH_ITEMS)
                .map(|_| (names[zipf.sample(&mut rng)].clone(), rng.below(per_engine)))
                .collect();
            let body = Json::Arr(
                parts
                    .iter()
                    .map(|(e, q)| BatchQuery::new(e.as_str(), queries[*q].1.clone()).to_json())
                    .collect(),
            )
            .to_string();
            reqs.push(Req {
                path: "/batch".into(),
                body,
                expected: String::new(),
                label: format!("batch #{b}"),
                target: Target::Scatter { parts },
            });
        }
        groups.push((ROUTED_BATCH_SHARE, start..reqs.len()));
    }
    Catalog {
        queries,
        reqs,
        mix: Mix::Corpus {
            zipf: Zipf::new(names.len(), CORPUS_ALPHA),
            per_engine,
            query_share: if kind.routed() {
                ROUTED_QUERY_SHARE
            } else {
                1.0
            },
            groups,
        },
    }
}

/// A `/topk` or `/aggregate` body over every engine.
fn scatter_body(query: &Query) -> String {
    Json::Obj(vec![("query".into(), query.to_json())]).to_string()
}

// ---------------------------------------------------------------------
// the oracle

/// Expected answers per (engine, query), from Naive-pinned runs.
#[derive(Default)]
struct Expect {
    /// `(engine, query) -> stripped response body`.
    single: HashMap<(String, usize), String>,
    /// Per-query top-k answers of every engine, merged at the end.
    topk: HashMap<usize, Vec<TopKAnswer>>,
    /// Per-query `(engine, marginal, rows)` entries.
    aggregate: HashMap<usize, Vec<(String, Option<f64>, Json)>>,
}

impl Expect {
    /// Records every query of `catalog` that targets `engine`, refusing
    /// a query with no relevant mapping or no answer there.
    fn record(
        &mut self,
        catalog: &Catalog,
        name: &str,
        engine: &QueryEngine,
    ) -> Result<(), String> {
        for (q, (label, query)) in catalog.queries.iter().enumerate() {
            let naive = engine
                .run(&query.clone().with_evaluator(EvaluatorHint::Naive))
                .map_err(|e| format!("oracle run of {label} on {name}: {e}"))?;
            check_valid(label, name, &naive)?;
            // A query's answers feed whichever requests carry it: the
            // engine's own body, and the cross-engine merges.
            if let Query::TopK { .. } = query {
                self.topk
                    .entry(q)
                    .or_default()
                    .extend(naive.answers.iter().map(|a| TopKAnswer {
                        engine: name.to_string(),
                        probability: a.probability,
                        mappings: a.mappings.clone(),
                        matches: a.matches.clone(),
                    }));
            }
            if let Some(agg) = &naive.aggregate {
                self.aggregate.entry(q).or_default().push((
                    name.to_string(),
                    agg.marginal,
                    agg.rows_json(),
                ));
            }
            self.single
                .insert((name.to_string(), q), strip_stats(&naive.to_json_string()));
        }
        Ok(())
    }

    /// Fills every request's expected body.
    fn fill(self, catalog: &mut Catalog) {
        for req in &mut catalog.reqs {
            req.expected = match (&req.target, req.path.as_str()) {
                (Target::Query { engine, query }, _) => {
                    self.single[&(engine.clone(), *query)].clone()
                }
                (Target::Scatter { parts }, "/topk") => {
                    let q = parts[0].1;
                    let Query::TopK { k, .. } = catalog.queries[q].1 else {
                        unreachable!("/topk carries a top-k query")
                    };
                    let mut all = self.topk[&q].clone();
                    // The pinned cross-engine order of the wire format.
                    all.sort_by(|a, b| {
                        b.probability
                            .total_cmp(&a.probability)
                            .then_with(|| a.engine.cmp(&b.engine))
                            .then_with(|| a.mappings.cmp(&b.mappings))
                    });
                    all.truncate(k);
                    Json::Obj(vec![
                        (
                            "answers".into(),
                            Json::Arr(all.iter().map(TopKAnswer::to_json).collect()),
                        ),
                        ("k".into(), Json::uint(k as u64)),
                    ])
                    .to_string()
                }
                (Target::Scatter { parts }, "/aggregate") => {
                    let q = parts[0].1;
                    let Query::Aggregate { func, .. } = catalog.queries[q].1 else {
                        unreachable!("/aggregate carries an aggregate query")
                    };
                    let mut entries = self.aggregate[&q].clone();
                    entries.sort_by(|a, b| a.0.cmp(&b.0));
                    let value = merge_marginals(func, entries.iter().map(|e| e.1));
                    Json::Obj(vec![
                        (
                            "engines".into(),
                            Json::Arr(
                                entries
                                    .into_iter()
                                    .map(|(name, marginal, rows)| {
                                        Json::Obj(vec![
                                            ("engine".into(), Json::str(name)),
                                            ("marginal".into(), num_or_null(marginal)),
                                            ("rows".into(), rows),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ),
                        ("func".into(), Json::str(func.wire_name())),
                        ("value".into(), num_or_null(value)),
                    ])
                    .to_string()
                }
                (Target::Scatter { parts }, _) => format!(
                    "{{\"results\":[{}]}}",
                    parts
                        .iter()
                        .map(|(e, q)| self.single[&(e.clone(), *q)].as_str())
                        .collect::<Vec<_>>()
                        .join(",")
                ),
            };
        }
    }
}

/// The fleet-wide aggregate of the wire format: `count` and `sum` add,
/// `min` and `max` take the extremum, null marginals are skipped.
fn merge_marginals(func: AggFunc, marginals: impl Iterator<Item = Option<f64>>) -> Option<f64> {
    marginals.flatten().reduce(|acc, v| match func {
        AggFunc::Count | AggFunc::Sum => acc + v,
        AggFunc::Min => acc.min(v),
        AggFunc::Max => acc.max(v),
    })
}

fn num_or_null(v: Option<f64>) -> Json {
    v.map_or(Json::Null, Json::Num)
}

/// The query-validity guard: every query must do real work on the
/// engine it targets.
fn check_valid(label: &str, engine: &str, naive: &QueryResponse) -> Result<(), String> {
    let empty = match &naive.aggregate {
        Some(agg) => agg.rows.is_empty(),
        None => naive.answers.is_empty(),
    };
    if naive.stats.relevant == 0 || empty {
        return Err(format!(
            "query-validity guard: {label} on {engine} has {} relevant mappings and {} answers; \
             the benchmark would time empty work",
            naive.stats.relevant,
            naive.answers.len()
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// set-up

/// Seconds spent in each build phase of one set-up.
#[derive(Clone, Debug, Default)]
pub struct Phases {
    pub match_s: f64,
    pub top_h_s: f64,
    pub block_tree_s: f64,
    pub docgen_s: f64,
    /// Per snapshot, µs in `encode_engine_snapshot`.
    pub encode_us: Vec<f64>,
}

/// The running stack the clients talk to.
pub struct Served {
    pub addr: SocketAddr,
    handle: ServerHandle,
    pub router: Option<Arc<Router>>,
    /// The registry behind the plain `Server` (`None` behind the router).
    pub registry: Option<Arc<EngineRegistry>>,
}

impl Served {
    /// Graceful stop of every server thread; returns once all joined.
    pub fn stop(self) {
        self.handle.shutdown();
        if let Some(router) = self.router {
            router.shutdown();
        }
    }
}

/// One completed set-up.
pub struct Setup {
    pub served: Served,
    pub dir: PathBuf,
    pub names: Vec<String>,
    /// Exact on-disk bytes of the served snapshots.
    pub snapshot_bytes: u64,
    /// Sum of `approx_bytes` over the engines as built.
    pub resident_bytes: u64,
    pub phases: Phases,
    /// Set-up wall time, excluding the oracle's own runs.
    pub seconds: f64,
}

/// The served configuration of every `Server` the benchmark starts.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        workers: SERVER_WORKERS,
        ..ServerConfig::default()
    }
}

/// Builds the workload's inputs, writes its snapshots into `dir`, starts
/// the served stack and warms it with `catalog`'s requests. With
/// `record_oracle`, also records the oracle's expected bodies into
/// `catalog` (time not counted in [`Setup::seconds`]).
pub fn setup(
    kind: Kind,
    seed: u64,
    dir: &Path,
    catalog: &mut Catalog,
    record_oracle: bool,
) -> Result<Setup, String> {
    let started = Instant::now();
    let mut excluded = Duration::ZERO;
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut phases = Phases::default();
    let mut names = Vec::new();
    let mut snapshot_bytes = 0u64;
    let mut resident_bytes = 0u64;
    let mut expect = Expect::default();
    let mut save = |name: &str,
                    engine: QueryEngine,
                    phases: &mut Phases,
                    expect: &mut Expect|
     -> Result<(), String> {
        let t = Instant::now();
        let bytes = encode_engine_snapshot(&engine);
        phases.encode_us.push(t.elapsed().as_secs_f64() * 1e6);
        let path = dir.join(format!("{name}.uxm"));
        std::fs::write(&path, &bytes).map_err(|e| format!("{}: {e}", path.display()))?;
        snapshot_bytes += bytes.len() as u64;
        resident_bytes += engine.approx_bytes() as u64;
        names.push(name.to_string());
        if record_oracle {
            let t = Instant::now();
            let result = expect.record(catalog, name, &engine);
            excluded += t.elapsed();
            result?;
        }
        Ok(())
    };

    match kind {
        Kind::D7Paper => {
            // Dataset::load generates both schemas and runs the matcher.
            let t = Instant::now();
            let dataset = Dataset::load(DatasetId::D7);
            phases.match_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let mappings = PossibleMappings::top_h(&dataset.matching, D7_MAPPINGS);
            phases.top_h_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let doc = Document::generate(
                &dataset.matching.source,
                &DocGenConfig::order_xml(),
                D7_DOC_SEED,
            );
            phases.docgen_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let config = BlockTreeConfig {
                tau: D7_TAU,
                max_blocks: D7_MAX,
                max_failures: D7_MAX,
            };
            let tree = BlockTree::build(&dataset.matching.target, &mappings, &config);
            phases.block_tree_s = t.elapsed().as_secs_f64();
            let engine = QueryEngine::new(mappings, doc, tree);
            save("d7", engine, &mut phases, &mut expect)?;
        }
        Kind::CorpusRouterWarm | Kind::CorpusColdChurn => {
            let source = Schema::parse_outline(SOURCE_OUTLINE).expect("source outline");
            let target = Schema::parse_outline(TARGET_OUTLINE).expect("target outline");
            let t = Instant::now();
            let matching = Matcher::context().match_schemas(&source, &target);
            phases.match_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let mappings = PossibleMappings::top_h(&matching, CORPUS_MAPPINGS);
            phases.top_h_s = t.elapsed().as_secs_f64();
            // The tree depends on the schemas and mappings only, so one
            // build serves every document.
            let t = Instant::now();
            let tree = BlockTree::build(&target, &mappings, &BlockTreeConfig::default());
            phases.block_tree_s = t.elapsed().as_secs_f64();
            let corpus = CorpusConfig {
                documents: CORPUS_DOCS,
                total_nodes: CORPUS_NODES,
                alpha: CORPUS_ALPHA,
                seed,
            };
            for (i, &nodes) in corpus.doc_sizes().iter().enumerate() {
                let t = Instant::now();
                let doc = corpus_document(&source, nodes, CORPUS_ALPHA, corpus.doc_seed(i));
                phases.docgen_s += t.elapsed().as_secs_f64();
                let engine = QueryEngine::new(mappings.clone(), doc, tree.clone());
                save(&format!("e{i:04}"), engine, &mut phases, &mut expect)?;
            }
        }
    }
    if record_oracle {
        expect.fill(catalog);
    }

    let served = start(kind, dir, resident_bytes)?;
    if let Err(e) = warm_up(kind, seed, catalog, &served) {
        served.stop();
        return Err(e);
    }
    Ok(Setup {
        served,
        dir: dir.to_path_buf(),
        names,
        snapshot_bytes,
        resident_bytes,
        phases,
        seconds: (started.elapsed() - excluded).as_secs_f64(),
    })
}

/// The request catalog of a workload (expected bodies left empty until
/// [`setup`] records the oracle into it).
pub fn catalog(kind: Kind, seed: u64) -> Catalog {
    match kind {
        Kind::D7Paper => d7_catalog(),
        Kind::CorpusRouterWarm | Kind::CorpusColdChurn => {
            let names: Vec<String> = (0..CORPUS_DOCS).map(|i| format!("e{i:04}")).collect();
            corpus_catalog(kind, seed, &names)
        }
    }
}

fn start(kind: Kind, dir: &Path, resident_bytes: u64) -> Result<Served, String> {
    let fail = |e: uxm_core::UxmError| format!("starting the {} stack: {e}", kind.name());
    match kind {
        Kind::D7Paper | Kind::CorpusColdChurn => {
            let config = if kind == Kind::CorpusColdChurn {
                RegistryConfig {
                    memory_budget: (resident_bytes as f64 * CHURN_BUDGET_SHARE) as usize,
                    // Off, so that every miss hydrates and none is shed.
                    thrash_evictions: 0,
                    ..RegistryConfig::default()
                }
            } else {
                RegistryConfig::default()
            };
            let registry = Arc::new(EngineRegistry::with_config(config).snapshot_dir(dir));
            let server = Server::bind(Arc::clone(&registry), "127.0.0.1:0", server_config())
                .map_err(fail)?;
            Ok(Served {
                addr: server.local_addr(),
                handle: server.start(),
                router: None,
                registry: Some(registry),
            })
        }
        Kind::CorpusRouterWarm => {
            let (router, addr, handle) = start_router(dir).map_err(fail)?;
            Ok(Served {
                addr,
                handle,
                router: Some(router),
                registry: None,
            })
        }
    }
}

/// A `Router` of [`SHARDS`] shards over the snapshots in `dir`, with its
/// front server started on a loopback port.
pub fn start_router(
    dir: &Path,
) -> Result<(Arc<Router>, SocketAddr, ServerHandle), uxm_core::UxmError> {
    let router = Router::start(
        dir,
        RouterConfig {
            shards: SHARDS,
            shard_server: server_config(),
            ..RouterConfig::default()
        },
    )?;
    let front = match router.bind("127.0.0.1:0", server_config()) {
        Ok(front) => front,
        Err(e) => {
            router.shutdown();
            return Err(e);
        }
    };
    Ok((router, front.local_addr(), front.start()))
}

/// A `/batch` request of the `/query` requests at `indices` of `catalog`,
/// with its expected body made of theirs.
pub fn batch_req(catalog: &Catalog, indices: &[usize]) -> Req {
    let parts: Vec<(String, usize)> = indices
        .iter()
        .map(|&i| match &catalog.reqs[i].target {
            Target::Query { engine, query } => (engine.clone(), *query),
            Target::Scatter { .. } => panic!("a batch is made of /query requests"),
        })
        .collect();
    let body = Json::Arr(
        parts
            .iter()
            .map(|(e, q)| BatchQuery::new(e.as_str(), catalog.queries[*q].1.clone()).to_json())
            .collect(),
    )
    .to_string();
    let expected: Vec<&str> = indices
        .iter()
        .map(|&i| catalog.reqs[i].expected.as_str())
        .collect();
    Req {
        path: "/batch".into(),
        body,
        expected: format!("{{\"results\":[{}]}}", expected.join(",")),
        label: format!("batch of {} /query requests", indices.len()),
        target: Target::Scatter { parts },
    }
}

/// Fills the caches the timed requests rely on: every distinct request
/// runs (hydrating every engine), except on `corpus_cold_churn`, which
/// instead runs a seeded prefix of its own traffic to reach its steady
/// eviction state.
fn warm_up(kind: Kind, seed: u64, catalog: &Catalog, served: &Served) -> Result<(), String> {
    let mut conn = Conn::connect(served.addr).map_err(|e| format!("warm-up connect: {e}"))?;
    let mut send = |req: &Req| -> Result<(), String> {
        match conn.post(&req.path, &req.body) {
            Ok((200, _)) => Ok(()),
            Ok((status, body)) => Err(format!("warm-up {}: HTTP {status}: {body}", req.label)),
            Err(e) => Err(format!("warm-up {}: {e}", req.label)),
        }
    };
    if kind == Kind::CorpusColdChurn {
        let mut seq = catalog.sequence(seed, 0x3A7E);
        for _ in 0..CHURN_WARMUP {
            send(&catalog.reqs[seq.next()])?;
        }
    } else {
        let rounds = if kind == Kind::D7Paper { 3 } else { 1 };
        for _ in 0..rounds {
            for req in &catalog.reqs {
                send(req)?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draws(kind: Kind, seed: u64, stream: u64) -> Vec<usize> {
        let catalog = catalog(kind, seed);
        let mut seq = catalog.sequence(seed, stream);
        (0..600).map(|_| seq.next()).collect()
    }

    #[test]
    fn request_sequences_are_seeded() {
        for kind in [Kind::D7Paper, Kind::CorpusRouterWarm, Kind::CorpusColdChurn] {
            assert_eq!(draws(kind, 7, 1), draws(kind, 7, 1), "{kind:?}");
            assert_ne!(draws(kind, 7, 1), draws(kind, 8, 1), "{kind:?}");
            assert_ne!(draws(kind, 7, 1), draws(kind, 7, 2), "{kind:?}");
        }
        let bodies = |seed| -> Vec<String> {
            catalog(Kind::CorpusRouterWarm, seed)
                .reqs
                .into_iter()
                .map(|r| r.body)
                .collect()
        };
        assert_eq!(bodies(3), bodies(3), "the batch pool is seeded");
        assert_ne!(bodies(3), bodies(4));
    }

    #[test]
    fn d7_rounds_send_every_request_once() {
        let seq = draws(Kind::D7Paper, 5, 1);
        for round in seq.chunks(12) {
            let mut sorted = round.to_vec();
            sorted.sort();
            assert_eq!(sorted, (0..12).collect::<Vec<_>>());
        }
    }

    #[test]
    fn corpus_mix_shares() {
        let routed = catalog(Kind::CorpusRouterWarm, 1);
        let queries = CORPUS_DOCS * CORPUS_QUERIES.len();
        let mut seq = routed.sequence(1, 1);
        let n = 20_000;
        let mut by_path: HashMap<&str, usize> = HashMap::new();
        for _ in 0..n {
            let path = routed.reqs[seq.next()].path.as_str();
            let key = if path.starts_with("/query/") {
                "/query"
            } else {
                path
            };
            *by_path.entry(key).or_default() += 1;
        }
        for (path, want) in [
            ("/query", ROUTED_QUERY_SHARE),
            ("/batch", ROUTED_BATCH_SHARE),
            ("/topk", ROUTED_TOPK_SHARE),
            ("/aggregate", ROUTED_AGGREGATE_SHARE),
        ] {
            let share = by_path[path] as f64 / n as f64;
            assert!((share - want).abs() < 0.01, "{path}: {share}");
        }
        let churn = catalog(Kind::CorpusColdChurn, 1);
        let mut seq = churn.sequence(1, 1);
        assert!(
            (0..n).all(|_| seq.next() < queries),
            "churn sends /query only"
        );
    }

    #[test]
    fn a_side_batch_carries_its_queries_and_their_answers() {
        let mut churn = catalog(Kind::CorpusColdChurn, 1);
        for (i, req) in churn.reqs.iter_mut().enumerate() {
            req.expected = format!("{{\"answers\":[{i}]}}");
        }
        let batch = batch_req(&churn, &[5, 0]);
        assert_eq!(batch.path, "/batch");
        assert_eq!(
            batch.expected,
            r#"{"results":[{"answers":[5]},{"answers":[0]}]}"#
        );
        let Target::Scatter { parts } = &batch.target else {
            panic!("a batch scatters")
        };
        let per_engine = CORPUS_QUERIES.len();
        assert_eq!(
            parts,
            &[
                ("e0001".to_string(), 5 - per_engine),
                ("e0000".to_string(), 0)
            ]
        );
        let items = Json::parse(&batch.body).expect("the body is JSON");
        let Json::Arr(items) = items else {
            panic!("a batch body is an array")
        };
        assert_eq!(items.len(), 2);
    }
}
