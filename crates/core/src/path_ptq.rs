//! Node-granularity PTQ evaluation.
//!
//! The default [`Query::ptq`](crate::api::Query::ptq) evaluation rewrites
//! a query node's *label*: any source element carrying a rewritten label may
//! match. That is exact when element labels are unique (as in the paper's
//! figures, where the three ContactName elements are labelled BCN/RCN/OCN),
//! but coarser than the mapping itself when labels repeat.
//!
//! This module implements the finer semantics: a mapping sends a query
//! node to specific source *schema nodes*, and only document nodes
//! instantiating those schema nodes (identified by their root label path
//! via [`PathIndex`]) may match. This is the reproduction's main extension
//! beyond the paper's experimental prototype; ask for it with
//! [`Query::ptq_nodes`](crate::api::Query::ptq_nodes). The evaluators
//! live in [`crate::engine`]; a block's answer is valid for precisely its
//! mappings, since node candidates pin query nodes to exact source
//! elements — no label-uniqueness side condition is needed.

use uxm_xml::{DocNodeId, PathIndex, Schema, SchemaNodeId};

/// Maps source schema nodes to the document nodes instantiating them
/// (matched by root label path).
pub fn schema_nodes_to_doc(
    sets: &[Vec<SchemaNodeId>],
    source: &Schema,
    index: &PathIndex,
) -> Vec<Vec<DocNodeId>> {
    sets.iter()
        .map(|nodes| {
            let mut out = Vec::new();
            for &s in nodes {
                out.extend_from_slice(index.nodes(&source.path(s).replace('.', "/")));
            }
            out
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{EvaluatorHint, Query};
    use crate::block_tree::BlockTreeConfig;
    use crate::engine::testing::{pinned, ptq_basic};
    use crate::engine::QueryEngine;
    use crate::mapping::PossibleMappings;
    use crate::ptq::PtqResult;
    use uxm_twig::TwigPattern;
    use uxm_xml::{parse_document, Document};

    /// Node-granularity PTQ of `q` pinned to `hint` on a fresh engine.
    fn ptq_nodes(
        q: &TwigPattern,
        pm: &PossibleMappings,
        doc: &Document,
        config: &BlockTreeConfig,
        hint: EvaluatorHint,
    ) -> PtqResult {
        let engine = QueryEngine::build(pm.clone(), doc.clone(), config);
        pinned(&engine, Query::ptq_nodes(q.clone()), hint)
    }

    /// Shared labels that label-mode cannot tell apart: all three contacts
    /// are `ContactName`.
    fn ambiguous_setup() -> (PossibleMappings, Document, PathIndex) {
        let source =
            Schema::parse_outline("Order(BP(BOC(ContactName) ROC(ContactName) OOC(ContactName)))")
                .unwrap();
        let target = Schema::parse_outline("ORDER(IP(ICN))").unwrap();
        let bp = source.nodes_with_label("BP")[0];
        let cns = source.nodes_with_label("ContactName");
        let t = |l: &str| target.nodes_with_label(l)[0];
        let pm = PossibleMappings::from_pairs(
            source.clone(),
            target.clone(),
            vec![
                (vec![(bp, t("IP")), (cns[0], t("ICN"))], 0.3),
                (vec![(bp, t("IP")), (cns[1], t("ICN"))], 0.3),
                (vec![(bp, t("IP")), (cns[2], t("ICN"))], 0.2),
            ],
        );
        let doc = parse_document(
            "<Order><BP><BOC><ContactName>Cathy</ContactName></BOC>\
             <ROC><ContactName>Bob</ContactName></ROC>\
             <OOC><ContactName>Alice</ContactName></OOC></BP></Order>",
        )
        .unwrap();
        let index = PathIndex::new(&doc);
        (pm, doc, index)
    }

    #[test]
    fn node_mode_disambiguates_shared_labels() {
        let (pm, doc, _) = ambiguous_setup();
        let q = TwigPattern::parse("//IP//ICN").unwrap();
        let res = ptq_nodes(
            &q,
            &pm,
            &doc,
            &BlockTreeConfig::default(),
            EvaluatorHint::Naive,
        );
        assert_eq!(res.len(), 3);
        let names: Vec<&str> = res
            .iter()
            .map(|a| {
                assert_eq!(a.matches.len(), 1, "exactly one contact per mapping");
                doc.text(a.matches[0].nodes[1]).unwrap()
            })
            .collect();
        assert_eq!(names, ["Cathy", "Bob", "Alice"]);
    }

    #[test]
    fn label_mode_merges_shared_labels() {
        // The contrast: label-granularity returns all three contacts for
        // every mapping.
        let (pm, doc, _) = ambiguous_setup();
        let q = TwigPattern::parse("//IP//ICN").unwrap();
        let res = ptq_basic(&q, &pm, &doc);
        assert!(res.iter().all(|a| a.matches.len() == 3));
    }

    #[test]
    fn every_evaluator_agrees_in_node_mode() {
        let (pm, doc, _) = ambiguous_setup();
        let config = BlockTreeConfig {
            tau: 0.4,
            ..BlockTreeConfig::default()
        };
        for qs in ["//IP//ICN", "//ICN", "ORDER//ICN", "ORDER"] {
            let q = TwigPattern::parse(qs).unwrap();
            let basic = ptq_nodes(&q, &pm, &doc, &config, EvaluatorHint::Naive);
            for hint in [
                EvaluatorHint::BlockTree,
                EvaluatorHint::Compiled,
                EvaluatorHint::Auto,
            ] {
                let got = ptq_nodes(&q, &pm, &doc, &config, hint);
                assert_eq!(got, basic, "query {qs} {hint:?}");
            }
        }
    }

    #[test]
    fn node_mode_agrees_with_label_mode_when_labels_unique() {
        // On unique-label schemas the two semantics coincide.
        let source = Schema::parse_outline("Ord(A(X) B(Y))").unwrap();
        let target = Schema::parse_outline("PO(P(Q))").unwrap();
        let s = |l: &str| source.nodes_with_label(l)[0];
        let t = |l: &str| target.nodes_with_label(l)[0];
        let pm = PossibleMappings::from_pairs(
            source.clone(),
            target.clone(),
            vec![
                (vec![(s("A"), t("P")), (s("X"), t("Q"))], 2.0),
                (vec![(s("B"), t("P")), (s("Y"), t("Q"))], 1.0),
            ],
        );
        let doc = parse_document("<Ord><A><X>1</X></A><B><Y>2</Y></B></Ord>").unwrap();
        let q = TwigPattern::parse("PO/P/Q").unwrap();
        let by_label = ptq_basic(&q, &pm, &doc);
        let by_node = ptq_nodes(
            &q,
            &pm,
            &doc,
            &BlockTreeConfig::default(),
            EvaluatorHint::Naive,
        );
        assert_eq!(by_label, by_node);
    }

    #[test]
    fn path_index_resolves_instances() {
        let (_, _doc, index) = ambiguous_setup();
        assert_eq!(index.nodes("Order/BP/BOC/ContactName").len(), 1);
        assert_eq!(index.nodes("Order/BP").len(), 1);
        assert_eq!(index.nodes("Nope").len(), 0);
        assert!(index.len() >= 7);
    }
}
