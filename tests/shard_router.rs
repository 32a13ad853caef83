//! Router-layer behavior the differential harness can't see: no stall
//! behind a small shard, and rebalancing under live traffic.
//!
//! * **No stall** — the router calls its shard registries directly, so
//!   a shard's own server (its direct port) has no say in how many
//!   front requests run at once. A shard server with one worker used
//!   to stall routed requests for a whole keep-alive timeout while an
//!   idle pooled router connection held that worker.
//! * **Rebalancing** — shard add/remove mid-traffic must keep every
//!   engine reachable through `/query`, `/batch` and `/topk` alike (the
//!   shared snapshot directory means any shard can hydrate any engine,
//!   so there is no 404 window), the fan-out answers must stay correct
//!   across the ring swap, and the router must still match a single
//!   registry at the new ring size.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use uxm::core::api::Query;
use uxm::core::block_tree::BlockTreeConfig;
use uxm::core::engine::QueryEngine;
use uxm::core::json::Json;
use uxm::core::mapping::PossibleMappings;
use uxm::core::registry::{BatchQuery, EngineRegistry};
use uxm::core::router::{Router, RouterConfig};
use uxm::core::server::{Client, Server, ServerConfig};
use uxm::matching::Matcher;
use uxm::twig::TwigPattern;
use uxm::xml::{DocGenConfig, Document, Schema};

/// The small purchase-order fixture engine shared with the serving
/// tests.
fn small_engine(seed: u64) -> QueryEngine {
    let source = Schema::parse_outline(
        "Order(Buyer(Name Contact(EMail)) POLine*(LineNo Quantity UnitPrice))",
    )
    .unwrap();
    let target =
        Schema::parse_outline("PO(Purchaser(PName PContact(PEMail)) Line(No Qty Amount))").unwrap();
    let matching = Matcher::context().match_schemas(&source, &target);
    let pm = PossibleMappings::top_h(&matching, 12);
    let doc = Document::generate(&source, &DocGenConfig::small(), seed);
    QueryEngine::build(pm, doc, &BlockTreeConfig::default())
}

const QUERY_PATTERN: &str = "PO//Qty";

fn ptq() -> Query {
    Query::ptq(TwigPattern::parse(QUERY_PATTERN).unwrap())
}

/// Snapshots `names` (engine `i` built from seed `i`) into a fresh
/// directory tagged `tag`.
fn seed_snapshots(tag: &str, names: &[String]) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("uxm-shard-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let registry = EngineRegistry::new().snapshot_dir(&dir);
    for (i, name) in names.iter().enumerate() {
        registry.insert(name.clone(), small_engine(i as u64));
    }
    registry.save_all().unwrap();
    dir
}

fn start_router(
    dir: &Path,
    config: RouterConfig,
) -> (Arc<Router>, uxm::core::server::ServerHandle) {
    let router = Router::start(dir, config).unwrap();
    let front = router
        .bind(
            "127.0.0.1:0",
            ServerConfig {
                workers: 4,
                ..ServerConfig::default()
            },
        )
        .unwrap()
        .start();
    (router, front)
}

/// The `answers` subtree of a response body, re-rendered canonically.
fn answers(body: &str) -> String {
    Json::parse(body)
        .unwrap()
        .get("answers")
        .map(|a| a.to_string())
        .unwrap_or_default()
}

/// The per-item `answers` subtrees of a `/batch` response body.
fn batch_answers(body: &str) -> Vec<String> {
    Json::parse(body)
        .unwrap()
        .get("results")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|item| {
            item.get("answers")
                .map(|a| a.to_string())
                .unwrap_or_default()
        })
        .collect()
}

/// A 1-shard router whose shard server runs a single worker, under
/// three concurrent keep-alive clients: every request answers 200
/// well inside a 2 s read deadline. Routed requests never queue
/// behind the shard's worker pool — the front calls the registry
/// directly.
#[test]
fn one_worker_shard_serves_concurrent_clients_without_stalling() {
    let names: Vec<String> = (0..4).map(|i| format!("e{i}")).collect();
    let dir = seed_snapshots("stall", &names);
    let (router, front) = start_router(
        &dir,
        RouterConfig {
            shards: 1,
            shard_server: ServerConfig {
                workers: 1,
                ..ServerConfig::default()
            },
            ..RouterConfig::default()
        },
    );
    let addr = front.addr();
    let clients: Vec<_> = (0..3)
        .map(|t| {
            let names = names.clone();
            std::thread::spawn(move || -> Result<(), String> {
                let mut client = Client::connect(addr)
                    .and_then(|c| c.read_timeout(Duration::from_secs(2)))
                    .map_err(|e| e.to_string())?;
                let query = ptq();
                for i in 0..200 {
                    let name = &names[(t + i) % names.len()];
                    let (status, body) = client
                        .query(name, &query)
                        .map_err(|e| format!("request {i} of client {t}: {e}"))?;
                    if status != 200 {
                        return Err(format!("{name} answered {status}: {body}"));
                    }
                }
                Ok(())
            })
        })
        .collect();
    for client in clients {
        client
            .join()
            .unwrap()
            .expect("a routed request stalled or failed");
    }
    front.shutdown();
    router.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Shard add/remove under live `/query`, `/batch` and `/topk` traffic:
/// every engine stays reachable throughout (no 404/503 window — any
/// shard can hydrate any engine from the shared snapshot directory,
/// and a request racing the ring swap finishes on the registry it was
/// routed to), every answer matches a single registry's, and afterwards
/// the router still matches a single registry at the new ring size.
#[test]
fn rebalance_mid_traffic_keeps_every_engine_reachable() {
    let names: Vec<String> = (0..8).map(|i| format!("e{i}")).collect();
    let dir = seed_snapshots("rebal", &names);

    // The reference answers: one registry over the same snapshots.
    let single = Server::bind(
        Arc::new(EngineRegistry::new().snapshot_dir(&dir)),
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .unwrap()
    .start();
    let mut sc = Client::connect(single.addr()).unwrap();
    // Every engine in one batch, so its items span every shard.
    let batch: Vec<BatchQuery> = names
        .iter()
        .map(|n| BatchQuery::new(n.as_str(), ptq()))
        .collect();
    let topk_body = Json::Obj(vec![(
        "query".into(),
        Query::topk(TwigPattern::parse(QUERY_PATTERN).unwrap(), 5).to_json(),
    )])
    .to_string();
    let expected_query: Vec<String> = names
        .iter()
        .map(|n| answers(&sc.query(n, &ptq()).unwrap().1))
        .collect();
    let (status, body) = sc.batch(&batch).unwrap();
    assert_eq!(status, 200, "{body}");
    let expected_batch = batch_answers(&body);
    let (status, expected_topk) = sc.post("/topk", &topk_body).unwrap();
    assert_eq!(status, 200, "{expected_topk}");

    let (router, front) = start_router(
        &dir,
        RouterConfig {
            shards: 2,
            ..RouterConfig::default()
        },
    );
    let addr = front.addr();
    let first_id = router.shard_ids()[0];

    // Hammer every engine from three clients while the ring is
    // reshaped underneath them: mostly `/query` round-robin, with
    // every fourth request a `/batch` over all engines and every
    // fourth a `/topk` over all engines. Any non-200 is a
    // reachability hole; any answer unlike the single registry's is a
    // fan-out that lost or misplaced a part across the swap.
    let stop = Arc::new(AtomicBool::new(false));
    let traffic: Vec<_> = (0..3)
        .map(|t| {
            let stop = Arc::clone(&stop);
            let names = names.clone();
            let batch = batch.clone();
            let topk_body = topk_body.clone();
            let expected_query = expected_query.clone();
            let expected_batch = expected_batch.clone();
            let expected_topk = expected_topk.clone();
            std::thread::spawn(move || -> Result<[u64; 3], String> {
                let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
                let query = ptq();
                let mut served = [0u64; 3];
                let mut i = t; // offset the threads
                while !stop.load(Ordering::Relaxed) {
                    i += 1;
                    let (what, outcome) = match i % 4 {
                        0 => ("batch", client.batch(&batch)),
                        1 => ("topk", client.post("/topk", &topk_body)),
                        _ => ("query", client.query(&names[i % names.len()], &query)),
                    };
                    let (status, body) = outcome.map_err(|e| format!("{what}: {e}"))?;
                    if status != 200 {
                        return Err(format!("{what} answered {status}: {body}"));
                    }
                    let (slot, correct) = match what {
                        "batch" => (0, batch_answers(&body) == expected_batch),
                        "topk" => (1, body == expected_topk),
                        _ => (2, answers(&body) == expected_query[i % names.len()]),
                    };
                    if !correct {
                        return Err(format!("{what} diverged from the single registry: {body}"));
                    }
                    served[slot] += 1;
                }
                Ok(served)
            })
        })
        .collect();

    // Grow to 3 shards, shrink back to 2 (dropping an original shard),
    // with traffic in flight around both reshapes.
    std::thread::sleep(Duration::from_millis(300));
    let added = router.add_shard().expect("add shard");
    assert_eq!(router.shard_count(), 3);
    std::thread::sleep(Duration::from_millis(400));
    router.remove_shard(first_id).expect("remove shard");
    assert_eq!(router.shard_count(), 2);
    assert!(router.shard_ids().contains(&added));
    std::thread::sleep(Duration::from_millis(400));

    stop.store(true, Ordering::Relaxed);
    let mut total = [0u64; 3];
    for t in traffic {
        let served = t.join().unwrap().expect("traffic thread saw a failure");
        for (sum, n) in total.iter_mut().zip(served) {
            *sum += n;
        }
    }
    assert!(
        total.iter().all(|&n| n > 0),
        "every request kind must have run: {total:?} (batch, topk, query)"
    );

    // At the new ring size the router still matches a single registry
    // byte-exactly on the answers subtree.
    let mut rc = Client::connect(addr).unwrap();
    for (name, expected) in names.iter().zip(&expected_query) {
        let (status, body) = rc.query(name, &ptq()).unwrap();
        assert_eq!(status, 200, "{name}");
        assert_eq!(&answers(&body), expected, "{name} diverges post-rebalance");
    }

    single.shutdown();
    front.shutdown();
    router.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
