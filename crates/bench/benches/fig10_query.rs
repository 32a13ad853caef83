//! Criterion benches for Fig 9(f)/10(a)–(d): PTQ evaluation — basic vs
//! block-tree vs top-k — plus the `QueryEngine` session layer on the same
//! workload. The one-shot rows run each query on a fresh engine (built
//! outside the timer, so no session cache is warm), while one warm engine
//! session serves repeated queries from its interned labels, relevance
//! bitsets, and `(query, mapping)` rewrite cache.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use uxm_bench::workload::{d7_workload, default_config};
use uxm_core::api::{EvaluatorHint, Query};
use uxm_datagen::queries::paper_queries;

fn bench_query(c: &mut Criterion) {
    let w = d7_workload(100, &default_config());
    // One shared session for every warm benchmark: caches are keyed by
    // query string, so sharing changes nothing except setup cost.
    let engine = w.engine();
    let queries = paper_queries();
    let run = |engine: &uxm_core::QueryEngine, query: &Query| {
        engine.run(query).expect("valid query").len()
    };

    let mut g = c.benchmark_group("fig10_query");
    g.sample_size(10);

    // Representative queries: Q2 (linear), Q7 (the paper's default), Q10
    // (the sweep query).
    for qi in [2usize, 7, 10] {
        let q = &queries[qi - 1];
        let basic = Query::ptq(q.clone()).with_evaluator(EvaluatorHint::Naive);
        let tree = Query::ptq(q.clone()).with_evaluator(EvaluatorHint::BlockTree);
        g.bench_with_input(
            BenchmarkId::new("basic", format!("Q{qi}")),
            &basic,
            |b, query| {
                b.iter_batched_ref(|| w.engine(), |e| run(e, query), BatchSize::LargeInput);
            },
        );
        g.bench_with_input(
            BenchmarkId::new("block_tree", format!("Q{qi}")),
            &tree,
            |b, query| {
                b.iter_batched_ref(|| w.engine(), |e| run(e, query), BatchSize::LargeInput);
            },
        );
        // Engine, warm session: the repeated-query workload. The call in
        // the setup warms the caches; every timed iteration is then a
        // cache-served evaluation.
        std::hint::black_box(run(&engine, &tree));
        g.bench_with_input(
            BenchmarkId::new("engine_warm", format!("Q{qi}")),
            &tree,
            |b, query| {
                b.iter(|| run(&engine, query));
            },
        );
    }

    // Fig 10(d): top-k at k = 10 on Q10.
    let topk = Query::topk(queries[9].clone(), 10).with_evaluator(EvaluatorHint::BlockTree);
    g.bench_function("topk_k10_Q10", |b| {
        b.iter_batched_ref(|| w.engine(), |e| run(e, &topk), BatchSize::LargeInput);
    });
    std::hint::black_box(run(&engine, &topk));
    g.bench_function("engine_topk_k10_Q10", |b| {
        b.iter(|| run(&engine, &topk));
    });

    // The whole 10-query paper workload served twice over — the
    // repeated-query service scenario the engine targets — by the warm
    // session and by a fresh one.
    let workload: Vec<Query> = queries
        .iter()
        .map(|q| Query::ptq(q.clone()).with_evaluator(EvaluatorHint::BlockTree))
        .collect();
    let twice = |engine: &uxm_core::QueryEngine| {
        let mut n = 0;
        for query in &workload {
            n += run(engine, query);
            n += run(engine, query);
        }
        n
    };
    g.bench_function("engine_session_q1_q10_x2", |b| {
        b.iter(|| twice(&engine));
    });
    g.bench_function("fresh_session_q1_q10_x2", |b| {
        b.iter_batched_ref(|| w.engine(), |e| twice(e), BatchSize::LargeInput);
    });

    g.finish();
}

criterion_group!(benches, bench_query);
criterion_main!(benches);
