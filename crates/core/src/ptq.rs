//! The probabilistic twig query's result (Definition 4).
//!
//! A PTQ returns, per relevant mapping `m_i`, the match set `R_i` of the
//! rewritten query on the source document together with `p_i` — the
//! probability that `R_i` is the correct answer. The evaluators —
//! Algorithm 3 (`query_basic`), Algorithm 4 (the block tree) and the
//! compiled backend — live in [`crate::engine`] and [`crate::exec`];
//! [`QueryEngine::run`](crate::engine::QueryEngine::run) shapes their
//! per-mapping [`PtqResult`] into the response's answers.

use crate::mapping::MappingId;
use uxm_twig::TwigMatch;

/// One `(R_i, pr(R_i))` tuple of a PTQ result.
#[derive(Clone, Debug, PartialEq)]
pub struct PtqAnswer {
    /// The mapping this answer was computed under.
    pub mapping: MappingId,
    /// `p_i` — the probability the mapping (and hence this answer) is
    /// correct.
    pub probability: f64,
    /// The matches of the rewritten query on the document (may be empty:
    /// the mapping is relevant but the document has no occurrence).
    pub matches: Vec<TwigMatch>,
}

/// A full PTQ result: one answer per relevant mapping, in mapping order.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct PtqResult {
    /// The per-mapping answers.
    pub answers: Vec<PtqAnswer>,
}

impl PtqResult {
    /// Iterate over answers.
    pub fn iter(&self) -> std::slice::Iter<'_, PtqAnswer> {
        self.answers.iter()
    }

    /// Number of answers (relevant mappings).
    pub fn len(&self) -> usize {
        self.answers.len()
    }

    /// True when no mapping was relevant.
    pub fn is_empty(&self) -> bool {
        self.answers.is_empty()
    }

    /// Total probability mass of the answers.
    pub fn total_probability(&self) -> f64 {
        self.answers.iter().map(|a| a.probability).sum()
    }

    /// Groups identical match sets, summing their probabilities — the
    /// "distinct answers" view of the paper's introduction example
    /// (`{("Cathy", .3), ("Bob", .3), ("Alice", .2)}`). Sorted by
    /// probability descending.
    pub fn aggregate(&self) -> Vec<(Vec<TwigMatch>, f64)> {
        let mut groups: Vec<(Vec<TwigMatch>, f64)> = Vec::new();
        for a in &self.answers {
            match groups.iter_mut().find(|(m, _)| *m == a.matches) {
                Some((_, p)) => *p += a.probability,
                None => groups.push((a.matches.clone(), a.probability)),
            }
        }
        groups.sort_by(|a, b| b.1.total_cmp(&a.1));
        groups
    }

    /// Sorts answers by mapping id (the canonical order for comparisons).
    pub fn normalize(&mut self) {
        self.answers.sort_by_key(|a| a.mapping);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{EvaluatorHint, Query};
    use crate::block_tree::BlockTreeConfig;
    use crate::engine::testing::{pinned, ptq_basic};
    use crate::engine::{anchor_for, QueryEngine, SessionState};
    use crate::mapping::PossibleMappings;
    use uxm_twig::TwigPattern;
    use uxm_xml::{parse_document, Document, Schema, SchemaNodeId};

    /// The paper's introduction example: query //IP//ICN over Fig. 2's
    /// document with three mappings for ICN.
    fn intro_example() -> (PossibleMappings, Document) {
        let source =
            Schema::parse_outline("Order(BP(BOC(BCN) ROC(RCN) OOC(OCN)) SP(SCN))").unwrap();
        let target = Schema::parse_outline("ORDER(IP(ICN))").unwrap();
        let s = |l: &str| source.nodes_with_label(l)[0];
        let t = |l: &str| target.nodes_with_label(l)[0];
        // probabilities .3, .3, .2 (plus .2 of an irrelevant mapping)
        let pm = PossibleMappings::from_pairs(
            source.clone(),
            target.clone(),
            vec![
                (vec![(s("BP"), t("IP")), (s("BCN"), t("ICN"))], 0.3),
                (vec![(s("BP"), t("IP")), (s("RCN"), t("ICN"))], 0.3),
                (vec![(s("BP"), t("IP")), (s("OCN"), t("ICN"))], 0.2),
                (vec![(s("Order"), t("ORDER"))], 0.2),
            ],
        );
        let doc = parse_document(
            "<Order><BP><BOC><BCN>Cathy</BCN></BOC><ROC><RCN>Bob</RCN></ROC>\
             <OOC><OCN>Alice</OCN></OOC></BP><SP><SCN>Dave</SCN></SP></Order>",
        )
        .unwrap();
        (pm, doc)
    }

    #[test]
    fn intro_example_answers() {
        let (pm, doc) = intro_example();
        let q = TwigPattern::parse("//IP//ICN").unwrap();
        let res = ptq_basic(&q, &pm, &doc);
        assert_eq!(res.len(), 3, "irrelevant mapping filtered");
        // Answers carry the mapping probabilities and find one name each.
        let names: Vec<(&str, f64)> = res
            .iter()
            .map(|a| {
                assert_eq!(a.matches.len(), 1);
                let icn_node = a.matches[0].nodes[1];
                (doc.text(icn_node).unwrap(), a.probability)
            })
            .collect();
        assert_eq!(names[0].0, "Cathy");
        assert_eq!(names[1].0, "Bob");
        assert_eq!(names[2].0, "Alice");
        assert!((names[0].1 - 0.3).abs() < 1e-9);
        assert!((names[2].1 - 0.2).abs() < 1e-9);
    }

    #[test]
    fn aggregate_groups_identical_answers() {
        let (pm, doc) = intro_example();
        let q = TwigPattern::parse("//IP").unwrap();
        let res = ptq_basic(&q, &pm, &doc);
        // All three relevant mappings rewrite IP to BP: identical answers.
        let agg = res.aggregate();
        assert_eq!(agg.len(), 1);
        assert!((agg[0].1 - 0.8).abs() < 1e-9);
    }

    #[test]
    fn empty_match_answers_are_kept() {
        let (pm, _) = intro_example();
        let doc = parse_document("<Order><Other/></Order>").unwrap();
        let q = TwigPattern::parse("//IP//ICN").unwrap();
        let res = ptq_basic(&q, &pm, &doc);
        assert_eq!(res.len(), 3);
        assert!(res.iter().all(|a| a.matches.is_empty()));
    }

    #[test]
    fn total_probability_bounded_by_one() {
        let (pm, doc) = intro_example();
        let q = TwigPattern::parse("//IP//ICN").unwrap();
        let res = ptq_basic(&q, &pm, &doc);
        let p = res.total_probability();
        assert!(p > 0.0 && p <= 1.0 + 1e-9);
    }

    #[test]
    fn unknown_query_label_yields_empty_result() {
        let (pm, doc) = intro_example();
        let q = TwigPattern::parse("//IP//MISSING").unwrap();
        assert!(ptq_basic(&q, &pm, &doc).is_empty());
    }

    #[test]
    fn text_predicate_respected_through_rewrite() {
        let (pm, doc) = intro_example();
        let mut q = TwigPattern::parse("//IP//ICN").unwrap();
        q.set_text_eq(uxm_twig::PatternNodeId(1), "Bob");
        let res = ptq_basic(&q, &pm, &doc);
        // only the RCN mapping finds "Bob"
        let non_empty: Vec<_> = res.iter().filter(|a| !a.matches.is_empty()).collect();
        assert_eq!(non_empty.len(), 1);
        assert!((non_empty[0].probability - 0.3).abs() < 1e-9);
    }

    #[test]
    fn schema_node_ids_are_stable_in_pairs() {
        // guard: from_pairs + source_for_target interact correctly
        let (pm, _) = intro_example();
        let t_icn = pm.target.nodes_with_label("ICN")[0];
        let m0 = pm.mapping(MappingId(0));
        assert_eq!(
            m0.source_for_target(t_icn),
            Some(pm.source.nodes_with_label("BCN")[0] as SchemaNodeId)
        );
    }

    // -- Algorithm 4: the block tree (paper §IV-B) ----------------------

    /// Five mappings over a target where `IP` anchors c-blocks (τ = 0.4).
    fn paper_setup() -> QueryEngine {
        let source =
            Schema::parse_outline("Order(BP(BOC(BCN) ROC(RCN) OOC(OCN)) SP(SCN_src))").unwrap();
        let target = Schema::parse_outline("ORDER(IP(ICN) SP2(SCN))").unwrap();
        let s = |l: &str| source.nodes_with_label(l)[0];
        let t = |l: &str| target.nodes_with_label(l)[0];
        let mapping = |ip: &str, icn: &str, scn: &str, w: f64| {
            (
                vec![
                    (s("Order"), t("ORDER")),
                    (s(ip), t("IP")),
                    (s(icn), t("ICN")),
                    (s(scn), t("SCN")),
                ],
                w,
            )
        };
        let pm = PossibleMappings::from_pairs(
            source.clone(),
            target.clone(),
            vec![
                mapping("BP", "BCN", "RCN", 3.0),
                mapping("BP", "BCN", "OCN", 2.5),
                mapping("SP", "RCN", "OCN", 2.0),
                mapping("BP", "RCN", "BCN", 1.5),
                mapping("BP", "OCN", "BCN", 1.0),
            ],
        );
        let doc = parse_document(
            "<Order><BP><BOC><BCN>Cathy</BCN></BOC><ROC><RCN>Bob</RCN></ROC>\
             <OOC><OCN>Alice</OCN></OOC></BP><SP><SCN_src>Dave</SCN_src></SP></Order>",
        )
        .unwrap();
        let cfg = BlockTreeConfig {
            tau: 0.4,
            ..BlockTreeConfig::default()
        };
        QueryEngine::build(pm, doc, &cfg)
    }

    /// Every evaluator gives Algorithm 3's answers on `engine`.
    fn assert_same(q: &str, engine: &QueryEngine) {
        let query = Query::ptq(TwigPattern::parse(q).unwrap());
        let basic = pinned(engine, query.clone(), EvaluatorHint::Naive);
        for hint in [
            EvaluatorHint::BlockTree,
            EvaluatorHint::Compiled,
            EvaluatorHint::Auto,
        ] {
            assert_eq!(pinned(engine, query.clone(), hint), basic, "{q} {hint:?}");
        }
    }

    /// The anchor the block-tree evaluator uses for `q`.
    fn anchor_of(q: &TwigPattern, engine: &QueryEngine) -> Option<SchemaNodeId> {
        let state = SessionState::build(engine.mappings(), engine.document());
        let qsyms = state.query_syms(q);
        anchor_for(q, &qsyms, engine.mappings(), &state, engine.tree())
    }

    #[test]
    fn block_tree_agrees_with_basic_on_paper_example() {
        let engine = paper_setup();
        for q in [
            "//IP//ICN",
            "//ICN",
            "ORDER//ICN",
            "ORDER/IP/ICN",
            "ORDER[./IP/ICN]//SCN",
            "ORDER",
            "//SCN",
        ] {
            assert_same(q, &engine);
        }
    }

    #[test]
    fn block_path_is_taken_for_anchored_query() {
        let engine = paper_setup();
        // //IP//ICN anchors at IP (unique label, has blocks, all labels in
        // subtree).
        let q = TwigPattern::parse("//IP//ICN").unwrap();
        let t_ip = engine.target().nodes_with_label("IP")[0];
        assert_eq!(anchor_of(&q, &engine), Some(t_ip));
        let res = pinned(&engine, Query::ptq(q), EvaluatorHint::BlockTree);
        assert_eq!(res.len(), 5);
    }

    #[test]
    fn anchor_rejected_at_the_blockless_root() {
        let engine = paper_setup();
        let q = TwigPattern::parse("ORDER//ICN").unwrap();
        // ORDER is the root; the root has no blocks -> no anchor.
        assert_eq!(anchor_of(&q, &engine), None);
    }

    #[test]
    fn replication_uses_block_mappings() {
        let engine = paper_setup();
        let q = TwigPattern::parse("//IP//ICN").unwrap();
        let res = pinned(&engine, Query::ptq(q), EvaluatorHint::BlockTree);
        // m1, m2 share (BP~IP, BCN~ICN): identical "Cathy" answers.
        let (a0, a1) = (&res.answers[0], &res.answers[1]);
        assert_eq!(a0.matches, a1.matches);
        assert_eq!(
            engine.document().text(a0.matches[0].nodes[1]),
            Some("Cathy")
        );
    }

    #[test]
    fn block_tree_agrees_on_generated_documents() {
        use uxm_matching::Matcher;
        let source = Schema::parse_outline(
            "Order(Buyer(Name Contact(EMail)) DeliverTo(Address(City Street) Contact(EMail)) \
             POLine*(LineNo Quantity UP))",
        )
        .unwrap();
        let target = Schema::parse_outline(
            "PO(Purchaser(PName PContact(PEMail)) ShipTo(Addr(Town Road)) \
             Line(No Qty UnitPrice))",
        )
        .unwrap();
        let matching = Matcher::context().match_schemas(&source, &target);
        let pm = PossibleMappings::top_h(&matching, 24);
        let doc = uxm_xml::Document::generate(
            &source,
            &uxm_xml::DocGenConfig {
                target_nodes: 200,
                max_repeat: 3,
                text_prob: 0.7,
            },
            5,
        );
        let engine = QueryEngine::build(pm, doc, &BlockTreeConfig::default());
        for q in [
            "PO/Line/Qty",
            "PO//PEMail",
            "PO[./Purchaser/PContact]/Line[./No]/Qty",
            "//Line[./UnitPrice]//No",
            "PO/ShipTo/Addr[./Town]/Road",
            "//Addr/Town",
        ] {
            assert_same(q, &engine);
        }
    }

    // -- top-k PTQ (Definition 5, §IV-C) --------------------------------

    /// Three mappings of probability .5, .33 and .17 for `ICN`.
    fn topk_setup() -> QueryEngine {
        let source = Schema::parse_outline("Order(BP(BCN RCN OCN))").unwrap();
        let target = Schema::parse_outline("ORDER(IP(ICN))").unwrap();
        let s = |l: &str| source.nodes_with_label(l)[0];
        let t = |l: &str| target.nodes_with_label(l)[0];
        let pm = PossibleMappings::from_pairs(
            source.clone(),
            target.clone(),
            vec![
                (vec![(s("BP"), t("IP")), (s("BCN"), t("ICN"))], 3.0),
                (vec![(s("BP"), t("IP")), (s("RCN"), t("ICN"))], 2.0),
                (vec![(s("BP"), t("IP")), (s("OCN"), t("ICN"))], 1.0),
            ],
        );
        let doc = parse_document(
            "<Order><BP><BCN>Cathy</BCN><RCN>Bob</RCN><OCN>Alice</OCN></BP></Order>",
        )
        .unwrap();
        QueryEngine::build(pm, doc, &BlockTreeConfig::default())
    }

    /// Top-k answers under every evaluator (all identical).
    fn topk(engine: &QueryEngine, k: usize) -> PtqResult {
        let query = Query::topk(TwigPattern::parse("//IP//ICN").unwrap(), k);
        let tree = pinned(engine, query.clone(), EvaluatorHint::BlockTree);
        for hint in [
            EvaluatorHint::Naive,
            EvaluatorHint::Compiled,
            EvaluatorHint::Auto,
        ] {
            assert_eq!(pinned(engine, query.clone(), hint), tree, "k={k} {hint:?}");
        }
        tree
    }

    #[test]
    fn topk_returns_k_highest_probability_answers() {
        let res = topk(&topk_setup(), 2);
        assert_eq!(res.len(), 2);
        assert!(res.answers[0].probability >= res.answers[1].probability);
        assert!((res.answers[0].probability - 0.5).abs() < 1e-9);
    }

    #[test]
    fn topk_larger_than_mappings_returns_all() {
        assert_eq!(topk(&topk_setup(), 10).len(), 3);
    }

    #[test]
    fn topk_answers_subset_of_full_ptq() {
        let engine = topk_setup();
        let q = TwigPattern::parse("//IP//ICN").unwrap();
        let full = ptq_basic(&q, engine.mappings(), engine.document());
        for a in topk(&engine, 2).iter() {
            let in_full = full
                .iter()
                .find(|f| f.mapping == a.mapping)
                .expect("top-k answer exists in full result");
            assert_eq!(in_full.matches, a.matches);
        }
    }

    #[test]
    fn topk_zero_is_empty() {
        assert!(topk(&topk_setup(), 0).is_empty());
    }

    #[test]
    fn topk_pruning_happens_before_evaluation() {
        let engine = topk_setup();
        let query = Query::topk(TwigPattern::parse("//IP//ICN").unwrap(), 1)
            .with_evaluator(EvaluatorHint::BlockTree);
        let resp = engine.run(&query).unwrap();
        // Only the highest-probability mapping was evaluated.
        assert_eq!(resp.stats.relevant, 1);
        assert_eq!(resp.answers[0].mappings, vec![MappingId(0)]);
    }
}
