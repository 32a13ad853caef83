//! The answer oracle: expected response bodies, with every `stats`
//! member removed, recorded at set-up from separately built engines
//! pinned to the `Naive` evaluator (Algorithm 3). The determinism
//! contract makes every backend's `answers` and `aggregate` members
//! byte-identical to Naive's, so a served body must equal the expected
//! one once its `stats` members are removed too.

use uxm_core::json::Json;

/// Removes every `"stats":{…}` member. `stats` objects are flat (no
/// nested objects or braces in strings), so the first `}` closes one.
pub fn strip_stats(body: &str) -> String {
    const KEY: &str = "\"stats\":{";
    let mut out = String::with_capacity(body.len());
    let mut rest = body;
    while let Some(at) = rest.find(KEY) {
        let Some(close) = rest[at..].find('}') else {
            break;
        };
        let end = at + close + 1;
        let head = &rest[..at];
        if let Some(head) = head.strip_suffix(',') {
            out.push_str(head);
            rest = &rest[end..];
        } else {
            out.push_str(head);
            rest = rest[end..].strip_prefix(',').unwrap_or(&rest[end..]);
        }
    }
    out.push_str(rest);
    out
}

/// Whether a served `body` carries exactly the `expected` answers.
/// The fast path compares canonical bytes; a body that differs only in
/// member order or spacing is still accepted by comparing parsed values.
pub fn matches(expected: &str, body: &str) -> bool {
    if strip_stats(body) == expected {
        return true;
    }
    match (Json::parse(body), Json::parse(expected)) {
        (Ok(got), Ok(want)) => normalized(got) == normalized(want),
        _ => false,
    }
}

/// `value` without `stats` members and with object members sorted.
fn normalized(value: Json) -> Json {
    match value {
        Json::Obj(members) => {
            let mut members: Vec<(String, Json)> = members
                .into_iter()
                .filter(|(k, _)| k != "stats")
                .map(|(k, v)| (k, normalized(v)))
                .collect();
            members.sort_by(|a, b| a.0.cmp(&b.0));
            Json::Obj(members)
        }
        Json::Arr(items) => Json::Arr(items.into_iter().map(normalized).collect()),
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uxm_core::api::Query;
    use uxm_core::engine::QueryEngine;
    use uxm_core::{BlockTreeConfig, EvaluatorHint, PossibleMappings};
    use uxm_matching::Matcher;
    use uxm_twig::TwigPattern;
    use uxm_xml::{DocGenConfig, Document, Schema};

    fn engine() -> QueryEngine {
        let source =
            Schema::parse_outline("Order(Buyer(Name) POLine*(LineNo Quantity))").expect("outline");
        let target = Schema::parse_outline("PO(Purchaser(PName) Line(No Qty))").expect("outline");
        let matching = Matcher::context().match_schemas(&source, &target);
        let mappings = PossibleMappings::top_h(&matching, 8);
        let doc = Document::generate(&source, &DocGenConfig::default(), 5);
        QueryEngine::build(mappings, doc, &BlockTreeConfig::default())
    }

    #[test]
    fn strip_removes_every_stats_member() {
        let body = r#"{"results":[{"answers":[],"stats":{"a":1,"b":"x"}},{"error":{"kind":"k"}},{"answers":[1],"stats":{"a":2}}]}"#;
        assert_eq!(
            strip_stats(body),
            r#"{"results":[{"answers":[]},{"error":{"kind":"k"}},{"answers":[1]}]}"#
        );
        assert_eq!(strip_stats(r#"{"stats":{"a":1},"z":2}"#), r#"{"z":2}"#);
        assert_eq!(strip_stats(r#"{"k":2}"#), r#"{"k":2}"#);
    }

    #[test]
    fn every_backend_matches_the_naive_oracle() {
        let engine = engine();
        let q = Query::ptq(TwigPattern::parse("//Line/Qty").expect("twig"));
        let oracle = engine
            .run(&q.clone().with_evaluator(EvaluatorHint::Naive))
            .expect("naive run");
        assert!(!oracle.answers.is_empty(), "the fixture must have answers");
        let expected = strip_stats(&oracle.to_json_string());
        for hint in [
            EvaluatorHint::Auto,
            EvaluatorHint::Compiled,
            EvaluatorHint::BlockTree,
        ] {
            let body = engine
                .run(&q.clone().with_evaluator(hint))
                .expect("run")
                .to_json_string();
            assert!(matches(&expected, &body), "{hint:?}");
        }
    }

    #[test]
    fn one_changed_probability_digit_is_flagged() {
        let engine = engine();
        let q = Query::ptq(TwigPattern::parse("//Line/Qty").expect("twig"));
        let body = engine.run(&q).expect("run").to_json_string();
        let expected = strip_stats(&body);
        assert!(matches(&expected, &body));
        let at =
            body.find("\"probability\":0.").expect("a probability") + "\"probability\":0.".len();
        let digit = body.as_bytes()[at];
        let changed = if digit == b'9' {
            '8'
        } else {
            (digit + 1) as char
        };
        let mut tampered = body.clone();
        tampered.replace_range(at..at + 1, &changed.to_string());
        assert!(!matches(&expected, &tampered));
    }

    #[test]
    fn reordered_members_still_match() {
        let expected = r#"{"answers":[{"p":1}],"k":2}"#;
        assert!(matches(
            expected,
            r#"{"k":2,"stats":{"x":1},"answers":[{"p":1}]}"#
        ));
        assert!(!matches(expected, r#"{"k":3,"answers":[{"p":1}]}"#));
    }
}
