//! Horizontal scale-out: a [`Router`] over sharded [`EngineRegistry`]
//! instances behind a consistent-hash ring, and the one fan-out path
//! that `/batch`, `/topk` and `/aggregate` take on every server.
//!
//! The single-registry deployment of [`crate::server`] scales
//! vertically: one registry owns every engine, one LRU budget, one
//! thrash gate. This module partitions the collection instead. A
//! [`Router`] holds N **shards** — each its *own* registry, with its
//! own [`RegistryConfig`] memory budget and thrash gate — and fronts
//! them with the same serving shell, routing by a [`Ring`] and calling
//! the owning registry directly:
//!
//! ```text
//!                      clients
//!                         │
//!                 ┌───────▼─────────┐  POST /query/<e>  POST /batch
//!                 │  front Server   │  POST /topk  POST /aggregate
//!                 │ (RouterHandler) │  GET /stats /shards /engines
//!                 └───────┬─────────┘  admission control, once
//!            consistent-hash ring on engine name (direct calls)
//!           ┌─────────────┼─────────────┐
//!     ┌─────▼─────┐ ┌─────▼─────┐ ┌─────▼─────┐
//!     │  shard 0  │ │  shard 1  │ │  shard 2  │   each: its own
//!     │ registry  │ │ registry  │ │ registry  │   registry (budget,
//!     └─────┬─────┘ └─────┬─────┘ └─────┬─────┘   thrash gate)
//!           └─────────────┴─────────────┘
//!              one shared snapshot directory
//! ```
//!
//! * `POST /query/<engine>` runs the plain server's query handler on
//!   the owner's registry.
//! * `POST /batch`, `POST /topk` and `POST /aggregate` take one fan-out
//!   path, shared with the plain server (its one registry is the N=1
//!   case): the named engines are grouped by owner once, each group's
//!   registry work runs (on its own thread when more than one registry
//!   is involved), and the typed results are merged — `/batch` items
//!   spliced back **in request order**; `/topk` answers merged by the
//!   **pinned total order** of [`merge_topk`] (probability descending,
//!   then engine name, then [`MappingId`] list); `/aggregate` entries
//!   in **name-ascending order** with the fleet value folded by
//!   [`merge_marginals`] over that order. Nothing is re-encoded or
//!   re-parsed, so a sharded body is byte-identical to an unsharded
//!   one.
//! * `GET /shards` reports the ring layout plus per-shard footprint,
//!   evictions, and shed hydrations; `GET /stats` adds each shard's
//!   registry section to the front server's own counters.
//!
//! Admission control (queue depth, per-client cap, `Retry-After`)
//! applies once, at the front. A shard's thrash-gate 503s still come
//! from its own registry.
//!
//! Each shard also keeps a plain [`Server`] over its registry on a
//! loopback port ([`Router::shard_addrs`], configured by
//! [`RouterConfig::shard_server`]) for tools that query one shard
//! directly. The router never calls it.
//!
//! # Rebalancing
//!
//! [`Router::add_shard`] / [`Router::remove_shard`] publish a new ring
//! for the new shard set, drop residents from shards that no longer own
//! them, and let the new owner re-hydrate from the **shared snapshot
//! directory** on first touch. Because every shard can hydrate every
//! engine, there is no window where a routed name 404s mid-rebalance:
//! a request racing the ring swap finishes on the registry it was
//! routed to (a removed shard's registry lives until its last request
//! is done), and the next request reads the new ring.

#![deny(missing_docs)]

use crate::aggregate::{merge_marginals, opt_num};
use crate::api::{Query, QueryResponse};
use crate::error::UxmError;
use crate::json::Json;
use crate::mapping::MappingId;
use crate::registry::{BatchQuery, EngineRegistry, RegistryConfig, RegistryStats};
use crate::server::{
    error_body, error_json, handle_query, no_route, registry_json, status_for, Handler, Request,
    Server, ServerConfig, ServerHandle, ServerStats,
};
use crate::sync;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use uxm_twig::TwigMatch;

// ---------------------------------------------------------------------
// the ring

/// FNV-1a (64-bit) with a murmur-style avalanche finalizer: a tiny,
/// dependency-free, stable hash. Both ring point placement and
/// engine-name lookup use it, so ownership is a pure function of
/// (shard ids, vnodes, name) — identical across processes and
/// releases. The finalizer matters: raw FNV-1a of short keys differing
/// only in the last characters (engine names like `e0001`, vnode keys
/// like `shard-0/63`) spans a sliver of the 64-bit space, which skews
/// ring arcs badly; full-width mixing restores a uniform spread.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^= h >> 33;
    h
}

/// A consistent-hash ring: each shard contributes `vnodes` points
/// (hashes of `"shard-<id>/<v>"`), and an engine name is owned by the
/// first point at or clockwise-after the name's hash.
///
/// Virtual nodes smooth the partition (64 per shard keeps the largest
/// shard within a few tens of percent of fair share), and consistent
/// hashing keeps rebalancing minimal: adding a shard moves only the
/// names whose arc the new points claim.
#[derive(Clone, Debug)]
pub struct Ring {
    vnodes: usize,
    /// Sorted `(hash, shard_id)` points.
    points: Vec<(u64, u64)>,
}

impl Ring {
    /// Builds the ring for `shard_ids` with `vnodes` points per shard.
    pub fn build(shard_ids: &[u64], vnodes: usize) -> Ring {
        let mut points: Vec<(u64, u64)> = shard_ids
            .iter()
            .flat_map(|&id| {
                (0..vnodes).map(move |v| (fnv1a(format!("shard-{id}/{v}").as_bytes()), id))
            })
            .collect();
        // Ties (identical hashes) sort by shard id — deterministic.
        points.sort_unstable();
        Ring { vnodes, points }
    }

    /// The shard owning `name`.
    ///
    /// # Panics
    ///
    /// Panics on an empty ring; the router never drops below one shard.
    pub fn owner(&self, name: &str) -> u64 {
        assert!(!self.points.is_empty(), "ring has no shards");
        let h = fnv1a(name.as_bytes());
        let i = self.points.partition_point(|&(p, _)| p < h);
        self.points[if i == self.points.len() { 0 } else { i }].1
    }

    /// Points per shard.
    pub fn vnodes(&self) -> usize {
        self.vnodes
    }

    /// Total points on the ring (`shards × vnodes`).
    pub fn points(&self) -> usize {
        self.points.len()
    }
}

// ---------------------------------------------------------------------
// cross-shard top-k

/// One answer of a cross-engine top-k: an [`crate::api::Answer`]
/// tagged with the engine that produced it.
#[derive(Clone, Debug, PartialEq)]
pub struct TopKAnswer {
    /// The engine this answer came from.
    pub engine: String,
    /// The answer's probability.
    pub probability: f64,
    /// The contributing mappings, ascending.
    pub mappings: Vec<MappingId>,
    /// The matches of the rewritten query on the document.
    pub matches: Vec<TwigMatch>,
}

impl TopKAnswer {
    /// The canonical JSON form (keys alphabetical:
    /// `engine < mappings < matches < probability`).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("engine".into(), Json::str(&self.engine)),
            (
                "mappings".into(),
                Json::Arr(
                    self.mappings
                        .iter()
                        .map(|m| Json::uint(m.0 as u64))
                        .collect(),
                ),
            ),
            (
                "matches".into(),
                Json::Arr(
                    self.matches
                        .iter()
                        .map(|m| {
                            Json::Arr(m.nodes.iter().map(|n| Json::uint(n.0 as u64)).collect())
                        })
                        .collect(),
                ),
            ),
            ("probability".into(), Json::Num(self.probability)),
        ])
    }
}

/// Sorts `answers` by the **pinned cross-engine total order** and keeps
/// the best `k`:
///
/// 1. probability **descending** (IEEE `total_cmp`, so ties are exact);
/// 2. engine name **ascending**;
/// 3. contributing [`MappingId`] list **ascending** (lexicographic).
///
/// The order is total and the selection associative: the top-k of a
/// union equals the top-k of any partition's top-k's, so however the
/// engines are split across shards the merged list is byte-identical
/// to an unsharded evaluation. Documented in `docs/wire-format.md`;
/// changing it is a wire-format break.
pub fn merge_topk(mut answers: Vec<TopKAnswer>, k: usize) -> Vec<TopKAnswer> {
    answers.sort_by(|a, b| {
        b.probability
            .total_cmp(&a.probability)
            .then_with(|| a.engine.cmp(&b.engine))
            .then_with(|| a.mappings.cmp(&b.mappings))
    });
    answers.truncate(k);
    answers
}

// ---------------------------------------------------------------------
// the fan-out path

/// Where engines live: which registry serves a name, and which names
/// exist. A plain server's one registry is the N=1 case; the router's
/// shard set under its ring is the N-registry case.
pub(crate) trait Placement {
    /// The registry serving `name`, with the id of that registry among
    /// the placement's (the shard id; 0 for a lone registry).
    fn owner(&self, name: &str) -> (u64, &EngineRegistry);

    /// Every name the placement can serve (resident anywhere or
    /// snapshotted), sorted and deduplicated.
    fn known_names(&self) -> Vec<String>;
}

impl Placement for EngineRegistry {
    fn owner(&self, _name: &str) -> (u64, &EngineRegistry) {
        (0, self)
    }

    fn known_names(&self) -> Vec<String> {
        let mut names = self.names();
        names.extend(self.snapshot_names());
        names.sort();
        names.dedup();
        names
    }
}

/// The query routes every server answers over its placement:
/// `POST /query/<engine>`, `/batch`, `/topk` and `/aggregate`. `None`
/// when `request` is none of them.
pub(crate) fn route_queries<P: Placement + ?Sized>(
    placement: &P,
    stats: &ServerStats,
    request: &Request,
) -> Option<(u16, String)> {
    let body = &request.body;
    let outcome = match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/batch") => handle_batch(placement, stats, body),
        ("POST", "/topk") => handle_topk(placement, body),
        ("POST", "/aggregate") => handle_aggregate(placement, body),
        ("POST", path) => {
            let name = path.strip_prefix("/query/")?;
            handle_query(placement.owner(name).1, stats, name, body)
        }
        _ => return None,
    };
    Some(match outcome {
        Ok(body) => (200, body),
        Err(e) => (status_for(&e), error_body(&e)),
    })
}

/// Groups the indices of `names` by owning registry (groups in order
/// of first appearance, indices ascending within each), runs `work`
/// once per group — inline when one registry owns every name, on
/// scoped threads otherwise — and returns each group's indices with
/// its result. A panic in `work` resumes on the calling thread, where
/// the server contains it like any handler panic.
fn fan_out<P, R, W>(placement: &P, names: &[&str], work: W) -> Vec<(Vec<usize>, R)>
where
    P: Placement + ?Sized,
    R: Send,
    W: Fn(&EngineRegistry, &[usize]) -> R + Sync,
{
    let mut groups: Vec<(u64, &EngineRegistry, Vec<usize>)> = Vec::new();
    for (i, name) in names.iter().enumerate() {
        let (id, registry) = placement.owner(name);
        match groups.iter_mut().find(|(g, _, _)| *g == id) {
            Some((_, _, idxs)) => idxs.push(i),
            None => groups.push((id, registry, vec![i])),
        }
    }
    if let [(_, registry, idxs)] = groups.as_slice() {
        let result = work(registry, idxs);
        let idxs = groups.pop().expect("one group").2;
        return vec![(idxs, result)];
    }
    let work = &work;
    let results: Vec<R> = std::thread::scope(|scope| {
        let handles: Vec<_> = groups
            .iter()
            .map(|(_, registry, idxs)| scope.spawn(move || work(registry, idxs)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    });
    groups
        .into_iter()
        .map(|(_, _, idxs)| idxs)
        .zip(results)
        .collect()
}

/// `POST /batch`: a JSON array of `{"engine":…,"query":…}` objects in,
/// `{"results":[…]}` out — per entry either a response object or an
/// `{"error":…}` object, in request order. Each owner runs its items as
/// one [`EngineRegistry::batch`], and the results are spliced back.
fn handle_batch<P: Placement + ?Sized>(
    placement: &P,
    stats: &ServerStats,
    body: &str,
) -> Result<String, UxmError> {
    let parsed = Json::parse(body)?;
    let items = parsed
        .as_arr()
        .ok_or_else(|| UxmError::Json("batch body must be a JSON array".into()))?;
    let queries = items
        .iter()
        .map(BatchQuery::from_json)
        .collect::<Result<Vec<_>, _>>()?;
    let names: Vec<&str> = queries.iter().map(|q| q.engine.as_str()).collect();
    let groups = fan_out(placement, &names, |registry, idxs| {
        // A registry owning every item runs the batch as sent.
        if idxs.len() == queries.len() {
            return registry.batch(&queries);
        }
        let part: Vec<BatchQuery> = idxs.iter().map(|&i| queries[i].clone()).collect();
        registry.batch(&part)
    });
    let mut outcomes: Vec<Option<Result<QueryResponse, UxmError>>> =
        (0..queries.len()).map(|_| None).collect();
    for (idxs, results) in groups {
        for (i, outcome) in idxs.into_iter().zip(results) {
            outcomes[i] = Some(outcome);
        }
    }
    let results = queries
        .iter()
        .zip(outcomes)
        .map(|(q, outcome)| {
            let outcome = outcome.expect("every item is answered");
            // Unknown-engine failures stay server-level (see ServerStats).
            if !matches!(outcome, Err(UxmError::UnknownEngine(_))) {
                stats.record(&q.engine, &outcome);
            }
            match outcome {
                Ok(response) => response.to_json(),
                Err(e) => error_json(&e),
            }
        })
        .collect();
    Ok(Json::Obj(vec![("results".into(), Json::Arr(results))]).to_string())
}

/// The body of `POST /topk` and `POST /aggregate`:
/// `{"engines":[…],"query":{…}}` with `engines` optional (default: every
/// known engine). Each endpoint checks the query's kind itself.
struct EnginesRequest {
    /// Explicit engine names, when given.
    engines: Option<Vec<String>>,
    /// The query to run on each engine.
    query: Query,
}

impl EnginesRequest {
    /// Strict parse of the body of `POST /<endpoint>` (unknown members
    /// rejected, like the rest of the wire format).
    fn from_json_str(endpoint: &str, body: &str) -> Result<EnginesRequest, UxmError> {
        let parsed = Json::parse(body)?;
        let Json::Obj(members) = &parsed else {
            return Err(UxmError::Json(format!("{endpoint} body must be an object")));
        };
        let mut engines = None;
        let mut query = None;
        for (key, value) in members {
            match key.as_str() {
                "engines" => {
                    let arr = value.as_arr().ok_or_else(|| {
                        UxmError::Json("engines must be an array of names".into())
                    })?;
                    engines = Some(
                        arr.iter()
                            .map(|v| {
                                v.as_str().map(str::to_string).ok_or_else(|| {
                                    UxmError::Json("engine names must be strings".into())
                                })
                            })
                            .collect::<Result<Vec<String>, _>>()?,
                    );
                }
                "query" => query = Some(Query::from_json(value)?),
                other => {
                    return Err(UxmError::Json(format!(
                        "unknown {endpoint} member {other:?}"
                    )))
                }
            }
        }
        let query =
            query.ok_or_else(|| UxmError::Json(format!("{endpoint} body needs a \"query\"")))?;
        Ok(EnginesRequest { engines, query })
    }

    /// Runs the query on every requested engine — the explicit names
    /// sorted and deduplicated, else every known name — and returns the
    /// names with their responses, in name order. Each owner evaluates
    /// its names in order and stops at its first failure; the error
    /// returned is the first failing name's, the one a single registry
    /// evaluating every name in order would return.
    fn run<P: Placement + ?Sized>(
        &self,
        placement: &P,
    ) -> Result<Vec<(String, QueryResponse)>, UxmError> {
        let names = match &self.engines {
            Some(explicit) => {
                let mut names = explicit.clone();
                names.sort();
                names.dedup();
                names
            }
            None => placement.known_names(),
        };
        let keys: Vec<&str> = names.iter().map(String::as_str).collect();
        let groups = fan_out(placement, &keys, |registry, idxs| {
            idxs.iter()
                .map(|&i| {
                    registry
                        .fetch(keys[i])
                        .and_then(|engine| engine.run(&self.query))
                        .map_err(|e| (i, e))
                })
                .collect::<Result<Vec<_>, _>>()
        });
        let mut responses: Vec<Option<QueryResponse>> = (0..names.len()).map(|_| None).collect();
        let mut first_failure: Option<(usize, UxmError)> = None;
        for (idxs, result) in groups {
            match result {
                Ok(group) => {
                    for (i, response) in idxs.into_iter().zip(group) {
                        responses[i] = Some(response);
                    }
                }
                Err((i, e)) => {
                    if first_failure.as_ref().is_none_or(|(j, _)| i < *j) {
                        first_failure = Some((i, e));
                    }
                }
            }
        }
        if let Some((_, e)) = first_failure {
            return Err(e);
        }
        Ok(names
            .into_iter()
            .zip(responses)
            .map(|(name, r)| (name, r.expect("every name is answered")))
            .collect())
    }
}

/// `POST /topk`: `{"engines":[…],"query":…}` (a top-k query) in,
/// `{"answers":[…],"k":…}` out — the best *k* answers across the named
/// engines, merged by [`merge_topk`].
fn handle_topk<P: Placement + ?Sized>(placement: &P, body: &str) -> Result<String, UxmError> {
    let request = EnginesRequest::from_json_str("topk", body)?;
    let &Query::TopK { k, .. } = &request.query else {
        return Err(UxmError::InvalidQuery(
            "the /topk endpoint needs a top-k query (kind \"topk\")".into(),
        ));
    };
    let answers = request
        .run(placement)?
        .into_iter()
        .flat_map(|(engine, response)| {
            response.answers.into_iter().map(move |a| TopKAnswer {
                engine: engine.clone(),
                probability: a.probability,
                mappings: a.mappings,
                matches: a.matches,
            })
        })
        .collect();
    Ok(Json::Obj(vec![
        (
            "answers".into(),
            Json::Arr(
                merge_topk(answers, k)
                    .iter()
                    .map(TopKAnswer::to_json)
                    .collect(),
            ),
        ),
        ("k".into(), Json::uint(k as u64)),
    ])
    .to_string())
}

/// `POST /aggregate`: `{"engines":[…],"query":…}` (an aggregate query)
/// in, `{"engines":[…],"func":…,"value":…}` out — per-engine rows and
/// marginals in engine-name-ascending order, and the fleet `value`
/// folded from those marginals by [`merge_marginals`] in that same
/// order, so any split of the engines across shards gives the same
/// bytes. Documented in `docs/wire-format.md`.
fn handle_aggregate<P: Placement + ?Sized>(placement: &P, body: &str) -> Result<String, UxmError> {
    let request = EnginesRequest::from_json_str("aggregate", body)?;
    let &Query::Aggregate { func, .. } = &request.query else {
        return Err(UxmError::InvalidQuery(
            "the /aggregate endpoint needs an aggregate query (kind \"aggregate\")".into(),
        ));
    };
    let mut marginals = Vec::new();
    let mut entries = Vec::new();
    for (name, response) in request.run(placement)? {
        let agg = response.aggregate.ok_or_else(|| {
            UxmError::Internal("aggregate query returned no aggregate block".into())
        })?;
        marginals.push(agg.marginal);
        entries.push(Json::Obj(vec![
            ("engine".into(), Json::str(name)),
            ("marginal".into(), opt_num(agg.marginal)),
            ("rows".into(), agg.rows_json()),
        ]));
    }
    Ok(Json::Obj(vec![
        ("engines".into(), Json::Arr(entries)),
        ("func".into(), Json::str(func.wire_name())),
        ("value".into(), opt_num(merge_marginals(func, marginals))),
    ])
    .to_string())
}

// ---------------------------------------------------------------------
// the router

/// Router tuning knobs.
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// How many shards to spawn at start. Must be at least 1.
    pub shards: usize,
    /// Virtual nodes per shard on the [`Ring`]. Default 64.
    pub vnodes: usize,
    /// The per-shard registry configuration — note
    /// [`RegistryConfig::memory_budget`] is **per shard**, so a cluster
    /// budget of B over N shards wants `B / N` here.
    pub registry: RegistryConfig,
    /// The configuration of each shard's direct port: a plain server
    /// over the shard's registry, for tools that query one shard
    /// directly. The router never calls it. `debug_panic_route` is
    /// forced off, whatever this says.
    pub shard_server: ServerConfig,
}

impl Default for RouterConfig {
    fn default() -> RouterConfig {
        RouterConfig {
            shards: 2,
            vnodes: 64,
            registry: RegistryConfig::default(),
            shard_server: ServerConfig {
                workers: 2,
                ..ServerConfig::default()
            },
        }
    }
}

/// One shard: its own registry, plus a plain server over it on a
/// loopback port (the direct port).
struct Shard {
    /// Monotonic, never reused — removed ids stay dead.
    id: u64,
    registry: Arc<EngineRegistry>,
    addr: SocketAddr,
    handle: Mutex<Option<ServerHandle>>,
}

impl Shard {
    /// Shuts the direct port down (graceful); the registry lives on
    /// while any request still holds it.
    fn stop(&self) {
        if let Some(handle) = sync::lock(&self.handle).take() {
            handle.shutdown();
        }
    }
}

/// The shard set and its ring. A rebalance publishes a new one; a
/// request routes by the one it read first.
struct State {
    /// Ascending by id.
    shards: Vec<Arc<Shard>>,
    ring: Ring,
}

impl State {
    fn new(mut shards: Vec<Arc<Shard>>, vnodes: usize) -> State {
        shards.sort_by_key(|s| s.id);
        let ids: Vec<u64> = shards.iter().map(|s| s.id).collect();
        State {
            ring: Ring::build(&ids, vnodes),
            shards,
        }
    }

    /// Evicts residents from shards that no longer own them under this
    /// ring (the re-hydration half of a rebalance is lazy).
    fn drop_misplaced(&self) {
        for shard in &self.shards {
            for name in shard.registry.names() {
                if self.ring.owner(&name) != shard.id {
                    shard.registry.remove(&name);
                }
            }
        }
    }

    /// `GET /shards`: the ring layout plus per-shard ownership and
    /// registry accounting (footprint, evictions, hydrations, shed
    /// hydrations).
    fn shards_body(&self) -> String {
        let known = self.known_names();
        let entries: Vec<Json> = self
            .shards
            .iter()
            .map(|shard| {
                let stats = shard.registry.stats();
                let owned: Vec<Json> = known
                    .iter()
                    .filter(|n| self.ring.owner(n) == shard.id)
                    .map(|n| Json::str(n.as_str()))
                    .collect();
                Json::Obj(vec![
                    ("addr".into(), Json::str(shard.addr.to_string())),
                    ("engines".into(), Json::Arr(owned)),
                    ("evictions".into(), Json::uint(stats.evictions)),
                    (
                        "footprint_bytes".into(),
                        Json::uint(stats.footprint_bytes() as u64),
                    ),
                    ("hydrations".into(), Json::uint(stats.hydrations)),
                    ("id".into(), Json::uint(shard.id)),
                    (
                        "resident_bytes".into(),
                        Json::uint(stats.resident_bytes as u64),
                    ),
                    (
                        "resident_engines".into(),
                        Json::uint(stats.resident_engines as u64),
                    ),
                    ("shed_hydrations".into(), Json::uint(stats.shed_hydrations)),
                    (
                        "unreclaimed_bytes".into(),
                        Json::uint(stats.unreclaimed_bytes as u64),
                    ),
                ])
            })
            .collect();
        Json::Obj(vec![
            (
                "ring".into(),
                Json::Obj(vec![
                    ("points".into(), Json::uint(self.ring.points() as u64)),
                    ("vnodes".into(), Json::uint(self.ring.vnodes() as u64)),
                ]),
            ),
            ("shards".into(), Json::Arr(entries)),
        ])
        .to_string()
    }

    /// The router's `GET /stats`: the front server's per-engine and
    /// server-wide counters (`engines`, `server`) plus each shard's
    /// registry section (`shards: [{id, registry}]`, the plain server's
    /// `registry` section per shard).
    fn stats_body(&self, stats: &ServerStats) -> String {
        let shards = self
            .shards
            .iter()
            .map(|shard| {
                Json::Obj(vec![
                    ("id".into(), Json::uint(shard.id)),
                    ("registry".into(), registry_json(&shard.registry)),
                ])
            })
            .collect();
        let Json::Obj(mut members) = stats.to_json() else {
            unreachable!("ServerStats::to_json is an object");
        };
        // Keys stay alphabetical: engines < server < shards.
        members.push(("shards".into(), Json::Arr(shards)));
        Json::Obj(members).to_string()
    }

    /// The router's `GET /engines`: every known name with its owning
    /// shard and whether the owner has it resident, plus cluster-wide
    /// totals.
    fn engines_body(&self) -> String {
        let entries: Vec<Json> = self
            .known_names()
            .iter()
            .map(|name| {
                let (owner, registry) = self.owner(name);
                Json::Obj(vec![
                    ("name".into(), Json::str(name.as_str())),
                    ("resident".into(), Json::Bool(registry.get(name).is_some())),
                    ("shard".into(), Json::uint(owner)),
                ])
            })
            .collect();
        let mut evictions = 0u64;
        let mut resident_bytes = 0u64;
        let mut unreclaimed = 0u64;
        for shard in &self.shards {
            let stats = shard.registry.stats();
            evictions += stats.evictions;
            resident_bytes += stats.resident_bytes as u64;
            unreclaimed += stats.unreclaimed_bytes as u64;
        }
        Json::Obj(vec![
            ("engines".into(), Json::Arr(entries)),
            ("evictions".into(), Json::uint(evictions)),
            ("resident_bytes".into(), Json::uint(resident_bytes)),
            ("unreclaimed_bytes".into(), Json::uint(unreclaimed)),
        ])
        .to_string()
    }
}

impl Placement for State {
    fn owner(&self, name: &str) -> (u64, &EngineRegistry) {
        let id = self.ring.owner(name);
        let shard = self
            .shards
            .iter()
            .find(|s| s.id == id)
            .expect("ring ids are current shards");
        (id, &shard.registry)
    }

    fn known_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .shards
            .iter()
            .flat_map(|s| s.registry.names())
            .collect();
        if let Some(first) = self.shards.first() {
            names.extend(first.registry.snapshot_names());
        }
        names.sort();
        names.dedup();
        names
    }
}

/// The front over N shard registries. See the module docs for the
/// architecture; construct with [`Router::start`], serve with
/// [`Router::bind`], reshape with [`Router::add_shard`] /
/// [`Router::remove_shard`].
pub struct Router {
    snapshot_dir: PathBuf,
    config: RouterConfig,
    state: RwLock<Arc<State>>,
    next_id: AtomicU64,
}

impl Router {
    /// Starts `config.shards` shards over `snapshot_dir` (every shard
    /// hydrates from the same directory) and builds the ring.
    pub fn start(
        snapshot_dir: impl Into<PathBuf>,
        mut config: RouterConfig,
    ) -> Result<Arc<Router>, UxmError> {
        if config.shards == 0 {
            return Err(UxmError::Usage("a router needs at least 1 shard".into()));
        }
        config.vnodes = config.vnodes.max(1);
        let router = Arc::new(Router {
            snapshot_dir: snapshot_dir.into(),
            state: RwLock::new(Arc::new(State::new(Vec::new(), config.vnodes))),
            config,
            next_id: AtomicU64::new(0),
        });
        let mut shards = Vec::new();
        for _ in 0..router.config.shards {
            shards.push(router.spawn_shard()?);
        }
        *sync::write(&router.state) = Arc::new(State::new(shards, router.config.vnodes));
        Ok(router)
    }

    /// Binds the front server on `addr`.
    pub fn bind(
        self: &Arc<Self>,
        addr: impl std::net::ToSocketAddrs + std::fmt::Display,
        config: ServerConfig,
    ) -> Result<Server, UxmError> {
        Server::bind_handler(
            Arc::new(RouterHandler {
                router: Arc::clone(self),
            }),
            addr,
            config,
        )
    }

    fn spawn_shard(&self) -> Result<Arc<Shard>, UxmError> {
        let id = self.next_id.fetch_add(1, Ordering::SeqCst);
        let registry = Arc::new(
            EngineRegistry::with_config(self.config.registry.clone())
                .snapshot_dir(&self.snapshot_dir),
        );
        let server = Server::bind(
            Arc::clone(&registry),
            "127.0.0.1:0",
            ServerConfig {
                debug_panic_route: false,
                ..self.config.shard_server.clone()
            },
        )?;
        Ok(Arc::new(Shard {
            id,
            registry,
            addr: server.local_addr(),
            handle: Mutex::new(Some(server.start())),
        }))
    }

    /// The current shard set and ring.
    fn state(&self) -> Arc<State> {
        Arc::clone(&sync::read(&self.state))
    }

    /// Current shard ids, ascending.
    pub fn shard_ids(&self) -> Vec<u64> {
        self.state().shards.iter().map(|s| s.id).collect()
    }

    /// Current shard count.
    pub fn shard_count(&self) -> usize {
        self.state().shards.len()
    }

    /// `(id, direct port)` per shard, ascending by id — how tools reach
    /// one shard's plain server directly.
    pub fn shard_addrs(&self) -> Vec<(u64, SocketAddr)> {
        self.state().shards.iter().map(|s| (s.id, s.addr)).collect()
    }

    /// Per-shard registry accounting, ascending by shard id — what the
    /// soak harness samples for per-shard footprint and shed counters.
    pub fn shard_stats(&self) -> Vec<(u64, RegistryStats)> {
        self.state()
            .shards
            .iter()
            .map(|s| (s.id, s.registry.stats()))
            .collect()
    }

    /// The shard currently owning `name`.
    pub fn owner(&self, name: &str) -> u64 {
        self.state().ring.owner(name)
    }

    /// Every name the cluster can serve (resident anywhere or
    /// snapshotted), sorted.
    pub fn known_names(&self) -> Vec<String> {
        self.state().known_names()
    }

    /// Adds one shard: spawns it, publishes the new ring, and drops
    /// now-misplaced residents so the new owners re-hydrate from the
    /// shared snapshot directory on first touch. Returns the new
    /// shard's id.
    pub fn add_shard(&self) -> Result<u64, UxmError> {
        let shard = self.spawn_shard()?;
        let id = shard.id;
        let mut st = sync::write(&self.state);
        let mut shards = st.shards.clone();
        shards.push(shard);
        *st = Arc::new(State::new(shards, self.config.vnodes));
        st.drop_misplaced();
        Ok(id)
    }

    /// Removes shard `id`: publishes the ring without it, drops
    /// misplaced residents, then shuts the shard's direct port down
    /// (gracefully, outside the state lock). Requests already routed to
    /// the removed shard finish on its registry. The last shard cannot
    /// be removed.
    pub fn remove_shard(&self, id: u64) -> Result<(), UxmError> {
        let removed = {
            let mut st = sync::write(&self.state);
            if st.shards.len() <= 1 {
                return Err(UxmError::Usage("cannot remove the last shard".into()));
            }
            let Some(pos) = st.shards.iter().position(|s| s.id == id) else {
                return Err(UxmError::Usage(format!("no shard {id}")));
            };
            let mut shards = st.shards.clone();
            let removed = shards.remove(pos);
            *st = Arc::new(State::new(shards, self.config.vnodes));
            st.drop_misplaced();
            removed
        };
        removed.stop();
        Ok(())
    }

    /// Shuts every shard's direct port down (graceful). The front
    /// server's handle is owned by the caller of [`Router::bind`].
    pub fn shutdown(&self) {
        for shard in &self.state().shards {
            shard.stop();
        }
    }
}

/// The front server's routing over the router's current shard set.
struct RouterHandler {
    router: Arc<Router>,
}

impl Handler for RouterHandler {
    fn handle(&self, stats: &ServerStats, request: &Request) -> (u16, String) {
        let state = self.router.state();
        if let Some(answer) = route_queries(&*state, stats, request) {
            return answer;
        }
        match (request.method.as_str(), request.path.as_str()) {
            ("GET", "/shards") => (200, state.shards_body()),
            ("GET", "/stats") => (200, state.stats_body(stats)),
            ("GET", "/engines") => (200, state.engines_body()),
            _ => no_route(request, "GET /engines|/stats|/shards|/healthz"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_ownership_is_deterministic() {
        let a = Ring::build(&[0, 1, 2], 64);
        let b = Ring::build(&[0, 1, 2], 64);
        for name in ["orders", "po", "e0001", "catalog", ""] {
            assert_eq!(a.owner(name), b.owner(name));
        }
        assert_eq!(a.points(), 3 * 64);
        assert_eq!(a.vnodes(), 64);
    }

    #[test]
    fn ring_spreads_names_across_shards() {
        let ring = Ring::build(&[0, 1, 2, 3], 64);
        let mut per_shard = [0usize; 4];
        for i in 0..1000 {
            per_shard[ring.owner(&format!("e{i:04}")) as usize] += 1;
        }
        for (id, &count) in per_shard.iter().enumerate() {
            assert!(
                count > 50,
                "shard {id} owns only {count}/1000 names: {per_shard:?}"
            );
        }
    }

    #[test]
    fn ring_growth_moves_only_some_names() {
        let before = Ring::build(&[0, 1], 64);
        let after = Ring::build(&[0, 1, 2], 64);
        let names: Vec<String> = (0..1000).map(|i| format!("e{i:04}")).collect();
        let moved = names
            .iter()
            .filter(|n| before.owner(n) != after.owner(n))
            .count();
        // Consistent hashing: only the arcs claimed by the new shard
        // move — roughly 1/3 of names, never anywhere near all of them.
        assert!(moved > 0, "a new shard must claim something");
        assert!(
            moved < 600,
            "{moved}/1000 names moved — ring is not consistent"
        );
        // Names that moved all moved *to* the new shard.
        for name in &names {
            if before.owner(name) != after.owner(name) {
                assert_eq!(after.owner(name), 2, "{name} moved to an old shard");
            }
        }
    }

    #[test]
    fn merge_topk_pins_the_total_order() {
        let answer = |engine: &str, p: f64, mapping: u32| TopKAnswer {
            engine: engine.into(),
            probability: p,
            mappings: vec![MappingId(mapping)],
            matches: vec![],
        };
        let merged = merge_topk(
            vec![
                answer("b", 0.5, 0),
                answer("a", 0.5, 1),
                answer("a", 0.5, 0),
                answer("c", 0.9, 7),
                answer("b", 0.1, 2),
            ],
            4,
        );
        let order: Vec<(String, f64, u32)> = merged
            .iter()
            .map(|a| (a.engine.clone(), a.probability, a.mappings[0].0))
            .collect();
        // Probability desc, then engine asc, then mappings asc; k=4
        // cuts the 0.1 tail.
        assert_eq!(
            order,
            vec![
                ("c".into(), 0.9, 7),
                ("a".into(), 0.5, 0),
                ("a".into(), 0.5, 1),
                ("b".into(), 0.5, 0),
            ]
        );
    }

    #[test]
    fn merge_topk_is_associative() {
        // top-k(union) == top-k(top-k(left) ∪ top-k(right)) — the
        // property the cross-shard merge relies on.
        let mk = |engine: &str, p: f64, m: u32| TopKAnswer {
            engine: engine.into(),
            probability: p,
            mappings: vec![MappingId(m)],
            matches: vec![],
        };
        let left = vec![mk("a", 0.9, 0), mk("a", 0.4, 1), mk("a", 0.2, 2)];
        let right = vec![mk("b", 0.8, 0), mk("b", 0.4, 1), mk("b", 0.1, 2)];
        let k = 3;
        let mut union = left.clone();
        union.extend(right.clone());
        let direct = merge_topk(union, k);
        let mut pre = merge_topk(left, k);
        pre.extend(merge_topk(right, k));
        let nested = merge_topk(pre, k);
        assert_eq!(direct, nested);
    }

    #[test]
    fn engines_request_is_strict() {
        let parse = |body: &str| EnginesRequest::from_json_str("topk", body);
        assert!(parse("[]").is_err());
        assert!(parse("{}").is_err());
        let err = parse("{\"bogus\":1}").err().unwrap();
        assert_eq!(
            err.to_string(),
            UxmError::Json("unknown topk member \"bogus\"".into()).to_string()
        );
        let q = Query::topk(uxm_twig::TwigPattern::parse("A//B").unwrap(), 5);
        let body = Json::Obj(vec![
            ("engines".into(), Json::Arr(vec![Json::str("x")])),
            ("query".into(), q.to_json()),
        ])
        .to_string();
        let parsed = parse(&body).unwrap();
        assert_eq!(parsed.query, q);
        assert_eq!(parsed.engines.as_deref(), Some(&["x".to_string()][..]));
    }

    #[test]
    fn fan_out_endpoints_check_the_query_kind() {
        let registry = EngineRegistry::new();
        let ptq = Query::ptq(uxm_twig::TwigPattern::parse("A//B").unwrap());
        let body = Json::Obj(vec![("query".into(), ptq.to_json())]).to_string();
        assert!(matches!(
            handle_topk(&registry, &body),
            Err(UxmError::InvalidQuery(_))
        ));
        assert!(matches!(
            handle_aggregate(&registry, &body),
            Err(UxmError::InvalidQuery(_))
        ));
    }
}
