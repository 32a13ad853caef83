//! Property-based compiled-execution differential: over *random* twig
//! patterns (not just the paper's workload), the compiled bytecode
//! backend must return answers **and provenance** identical to the
//! recursive evaluators, for every query kind — and a warm replay from
//! the program cache must be indistinguishable from a cold compile.
//!
//! This is the determinism contract of `docs/execution.md`, pinned over
//! the random shape space: kill-bit semantics (a rewrite coming up
//! empty drops the mapping, exactly like a `None` rewrite), shape
//! grouping, and fold order can only ever change performance, never
//! results.

use proptest::prelude::*;
use std::sync::OnceLock;
use uxm::core::api::{Answer, EvaluatorHint, Granularity, Query};
use uxm::core::block_tree::{BlockTree, BlockTreeConfig};
use uxm::core::engine::QueryEngine;
use uxm::core::mapping::PossibleMappings;
use uxm::core::planner::Evaluator;
use uxm::datagen::datasets::{Dataset, DatasetId};
use uxm::twig::{Axis, TwigPattern};
use uxm::xml::{DocGenConfig, Document};

/// One shared session (building an engine per proptest case would drown
/// the suite in matcher work). D4 has repeated labels and enough blocks
/// for every backend to take interesting paths.
fn engine() -> &'static QueryEngine {
    static ENGINE: OnceLock<QueryEngine> = OnceLock::new();
    ENGINE.get_or_init(|| {
        let d = Dataset::load(DatasetId::D4);
        let pm = PossibleMappings::top_h(&d.matching, 24);
        let doc = Document::generate(
            &d.matching.source,
            &DocGenConfig {
                target_nodes: 400,
                max_repeat: 3,
                text_prob: 0.7,
            },
            0xBEEF,
        );
        let tree = BlockTree::build(
            &d.matching.target,
            &pm,
            &BlockTreeConfig {
                tau: 0.2,
                ..BlockTreeConfig::default()
            },
        );
        QueryEngine::new(pm, doc, tree)
    })
}

/// The label pool random twigs draw from: real target labels (so queries
/// are frequently relevant) plus one label that exists nowhere — the
/// latter exercises the compiled `clear-bits` path.
fn label_pool() -> &'static Vec<String> {
    static POOL: OnceLock<Vec<String>> = OnceLock::new();
    POOL.get_or_init(|| {
        let target = &engine().mappings().target;
        let mut pool: Vec<String> = target
            .ids()
            .take(15)
            .map(|id| target.label(id).to_string())
            .collect();
        pool.push("NoSuchLabelAnywhere".to_string());
        pool
    })
}

/// Node `i + 1` attaches under node `parent % (i + 1)` with the given
/// axis; labels index into the pool.
fn twig_from_spec(spec: &[(u8, u8, bool)]) -> TwigPattern {
    let pool = label_pool();
    let (l0, _, d0) = spec.first().copied().unwrap_or((0, 0, true));
    let mut q = TwigPattern::single(
        pool[l0 as usize % pool.len()].clone(),
        if d0 { Axis::Descendant } else { Axis::Child },
    );
    let mut nodes = vec![q.root()];
    for &(label, parent, descendant) in spec.iter().skip(1) {
        let parent = nodes[parent as usize % nodes.len()];
        let id = q.add_child(
            parent,
            pool[label as usize % pool.len()].clone(),
            if descendant {
                Axis::Descendant
            } else {
                Axis::Child
            },
        );
        nodes.push(id);
    }
    q
}

fn answers(query: &Query) -> Vec<Answer> {
    engine().run(query).expect("valid query").answers
}

/// Answer equality in these tests is full structural equality — the
/// [`Answer`] type derives `PartialEq` over probability, mapping ids,
/// *and* match node lists, so provenance divergence fails the property.
fn compiled(base: &Query) -> Vec<Answer> {
    answers(&base.clone().with_evaluator(EvaluatorHint::Compiled))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The compiled differential on random twigs: for every query kind,
    /// the compiled backend's answers and provenance equal the naive
    /// recursive reference, the block tree, and whatever the auto plan
    /// picked — left at its default or pinned to `Auto` explicitly.
    #[test]
    fn compiled_equals_recursive_on_random_twigs(
        spec in proptest::collection::vec((0u8..16, 0u8..8, proptest::prop::bool::ANY), 1..5),
        k in 0usize..30,
    ) {
        let pattern = twig_from_spec(&spec);
        for base in [
            Query::ptq(pattern.clone()),
            Query::ptq_nodes(pattern.clone()),
            Query::topk(pattern.clone(), k),
            Query::ptq(pattern.clone()).with_granularity(Granularity::Distinct),
        ] {
            let naive = answers(&base.clone().with_evaluator(EvaluatorHint::Naive));
            let vm = compiled(&base);
            prop_assert_eq!(&vm, &naive, "{} compiled diverged from naive", &base);
            prop_assert_eq!(&answers(&base), &vm, "{} default plan diverged", &base);
            for hint in [EvaluatorHint::BlockTree, EvaluatorHint::Auto] {
                let pinned = answers(&base.clone().with_evaluator(hint));
                prop_assert_eq!(&pinned, &vm, "{} under {:?} diverged", &base, hint);
            }
        }
    }

    /// Warm replay ≡ cold compile: running one shape repeatedly through
    /// the compiled backend serves later runs from the program cache
    /// (hits reported, no recompilation) with identical answers.
    #[test]
    fn warm_replay_equals_cold_compile(
        spec in proptest::collection::vec((0u8..16, 0u8..8, proptest::prop::bool::ANY), 1..4),
    ) {
        let query = Query::ptq(twig_from_spec(&spec)).with_evaluator(EvaluatorHint::Compiled);
        let cold = engine().run(&query).expect("valid query");
        prop_assert_eq!(cold.stats.backend, Evaluator::Compiled);
        // The shared engine may have compiled this shape in an earlier
        // case; either way the *next* run must be a pure cache hit.
        for _ in 0..2 {
            let warm = engine().run(&query).expect("valid query");
            prop_assert_eq!(warm.stats.program_cache_hits, 1, "warm run replays");
            prop_assert_eq!(warm.stats.program_cache_misses, 0, "warm run never recompiles");
            prop_assert_eq!(warm.stats.backend, Evaluator::Compiled);
            prop_assert_eq!(&warm.answers, &cold.answers);
        }
    }
}
