//! The cost-aware query planner behind
//! [`QueryEngine::run`](crate::engine::QueryEngine::run).
//!
//! The paper exposes *two* PTQ evaluation strategies — naive per-mapping
//! rewriting (Algorithm 3) and block-tree sharing (Algorithm 4) — and its
//! experiments (§VI, Fig. 9f/10a–c) show neither dominates: the block
//! tree wins when many mappings share c-blocks, the naive path wins on
//! small relevant sets where the tree's split/join machinery is pure
//! overhead. The engine adds a third strategy on top of the paper's two:
//! a [`crate::exec`] backend that lowers the query into a flat compiled
//! [`Program`](crate::exec::Program) replayed from a per-engine cache.
//! Under the unified [`crate::api::Query`] surface that choice is no
//! longer the caller's problem: the planner picks an [`Evaluator`] from
//! cheap per-query engine statistics ([`PlannerStats`]) unless the query
//! pins one via [`EvaluatorHint`].
//!
//! All evaluators return answers that are **identical by construction**
//! (pinned by `tests/engine_equivalence.rs`, `tests/prop_exec.rs`, and
//! the planner differential suite), so the plan choice is a pure
//! performance decision — it can never change a result.
//!
//! # Examples
//!
//! The planner is a pure function from hint + statistics to a [`Plan`];
//! a query's [`crate::api::ExecStats`] reports what it picked and why:
//!
//! ```
//! use uxm_core::api::EvaluatorHint;
//! use uxm_core::planner::{choose, Evaluator, Plan, PlanReason, PlannerStats};
//!
//! let stats = PlannerStats {
//!     relevant_mappings: 40,
//!     block_count: 12,
//!     avg_block_fanout: 3.5, // block answers replicate across mappings
//!     min_rewrite_postings: 40,   // cheapest per-label candidate stream
//!     total_rewrite_postings: 120, // summed over the query's nodes
//!     value_predicates: 0,
//!     pred_selectivity: 1.0, // no predicates: nothing filters
//!     cache_warm: false,
//! };
//! assert_eq!(
//!     choose(EvaluatorHint::Auto, &stats),
//!     Plan { evaluator: Evaluator::BlockTree, reason: PlanReason::SharedBlocks },
//! );
//!
//! // A tiny relevant set flips the choice: the tree cannot pay for
//! // itself, and the flat compiled program wins outright.
//! let few = PlannerStats { relevant_mappings: 3, ..stats };
//! assert_eq!(choose(EvaluatorHint::Auto, &few).evaluator, Evaluator::Compiled);
//!
//! // So does an empty candidate stream: when some query label can never
//! // match a document node, every evaluation is near-free.
//! let tiny = PlannerStats { min_rewrite_postings: 0, ..stats };
//! assert_eq!(
//!     choose(EvaluatorHint::Auto, &tiny).reason,
//!     PlanReason::TinyPostings,
//! );
//!
//! // A pinned hint always wins.
//! let pinned = choose(EvaluatorHint::Naive, &stats);
//! assert_eq!(
//!     (pinned.evaluator, pinned.reason),
//!     (Evaluator::Naive, PlanReason::Pinned),
//! );
//! ```

use crate::api::EvaluatorHint;
use std::fmt;
use uxm_twig::{PredOp, TwigPattern};

/// How many relevant mappings the per-mapping evaluators handle so
/// cheaply that the block tree's bookkeeping cannot pay for itself.
pub const FEW_MAPPINGS_CUTOFF: usize = 8;

/// Minimum average c-block fan-out (mappings sharing a block) for the
/// tree's answer replication to beat per-mapping evaluation outright.
pub const SHARED_FANOUT_CUTOFF: f64 = 2.0;

/// Posting-list budget under which warm per-mapping evaluation is the
/// winner: with a compiled program cached (and rewrites memoized on the
/// recursive path), match work over candidate streams totalling at most
/// this many document nodes is cheaper than the tree's split/join
/// machinery. Above it, match work dominates and block sharing still
/// pays even when warm.
pub const WARM_POSTINGS_CUTOFF: usize = 1024;

/// Estimated predicate selectivity at or below which the compiled
/// backend wins outright: the predicates prune the candidate stream so
/// hard that block-tree sharing has almost nothing left to share, while
/// the flat program skips the tree's split/join machinery entirely.
pub const SELECTIVE_PRED_CUTOFF: f64 = 0.25;

/// The static selectivity estimate of one value predicate — the classic
/// System R constants, since the engine keeps no value histograms:
/// equality keeps 1 in 10 candidates, substring containment 1 in 4, a
/// one-sided numeric range 1 in 3.
pub fn pred_factor(op: &PredOp) -> f64 {
    match op {
        PredOp::Eq(_) => 0.1,
        PredOp::Contains(_) => 0.25,
        PredOp::Lt(_) | PredOp::Le(_) | PredOp::Gt(_) | PredOp::Ge(_) => 1.0 / 3.0,
    }
}

/// Estimated fraction of label-eligible candidates surviving **all** of
/// the query's value predicates: the product of each predicate's
/// [`pred_factor`], floored at `0.01` (stacked predicates stop paying
/// below a percent), and exactly `1.0` for a predicate-free query.
pub fn estimate_selectivity(q: &TwigPattern) -> f64 {
    let mut sel = 1.0;
    for id in q.ids() {
        for pred in &q.node(id).preds {
            sel *= pred_factor(&pred.op);
        }
    }
    if sel < 1.0 {
        sel.max(0.01)
    } else {
        sel
    }
}

/// A PTQ evaluation strategy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Evaluator {
    /// Algorithm 3: rewrite and evaluate per mapping.
    Naive,
    /// Algorithm 4: share work through the block tree.
    BlockTree,
    /// The [`crate::exec`] backend: the query is lowered to a flat
    /// [`Program`](crate::exec::Program) over the columnar arenas and
    /// replayed from the engine's program cache. Answer-identical to
    /// [`Evaluator::Naive`] by construction.
    Compiled,
}

impl Evaluator {
    /// The kebab-case wire name (`naive` / `block-tree` / `compiled`).
    pub fn wire_name(self) -> &'static str {
        match self {
            Evaluator::Naive => "naive",
            Evaluator::BlockTree => "block-tree",
            Evaluator::Compiled => "compiled",
        }
    }
}

impl fmt::Display for Evaluator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.wire_name())
    }
}

/// Why the planner picked its evaluator (reported in
/// [`crate::api::ExecStats`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlanReason {
    /// The query's [`EvaluatorHint`] pinned the evaluator.
    Pinned,
    /// The session has no c-blocks; the tree cannot share anything.
    NoBlocks,
    /// The relevant mapping set is at most [`FEW_MAPPINGS_CUTOFF`].
    FewMappings,
    /// Some query node's measured candidate stream is empty: no document
    /// node can ever match it, every answer is provably empty, and the
    /// tree's split/join machinery would be pure overhead.
    TinyPostings,
    /// The query carries value predicates whose estimated selectivity is
    /// at most [`SELECTIVE_PRED_CUTOFF`]: most candidates are filtered
    /// before structural matching, so per-mapping work is small and the
    /// flat compiled program wins.
    SelectivePredicate,
    /// Average c-block fan-out ≥ [`SHARED_FANOUT_CUTOFF`]: block answers
    /// replicate across many mappings.
    SharedBlocks,
    /// The session caches already hold this query (a compiled program
    /// and/or memoized rewrites) **and** the measured candidate streams
    /// are small (≤ [`WARM_POSTINGS_CUTOFF`] document nodes in total),
    /// so replaying per-mapping evaluation beats the tree's machinery.
    WarmCache,
    /// Default for large relevant sets with modest sharing.
    ManyMappings,
    /// The query kind has a single evaluator (keyword queries).
    OnlyEvaluator,
}

impl PlanReason {
    /// The kebab-case wire name.
    pub fn wire_name(self) -> &'static str {
        match self {
            PlanReason::Pinned => "pinned",
            PlanReason::NoBlocks => "no-blocks",
            PlanReason::FewMappings => "few-mappings",
            PlanReason::TinyPostings => "tiny-postings",
            PlanReason::SelectivePredicate => "selective-predicate",
            PlanReason::SharedBlocks => "shared-blocks",
            PlanReason::WarmCache => "warm-cache",
            PlanReason::ManyMappings => "many-mappings",
            PlanReason::OnlyEvaluator => "only-evaluator",
        }
    }
}

impl fmt::Display for PlanReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.wire_name())
    }
}

/// The planner's decision: which evaluator, and why.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Plan {
    /// The strategy the engine will run.
    pub evaluator: Evaluator,
    /// Why it was chosen.
    pub reason: PlanReason,
}

impl Plan {
    /// The fixed plan for query kinds with one evaluator.
    pub fn only(evaluator: Evaluator) -> Plan {
        Plan {
            evaluator,
            reason: PlanReason::OnlyEvaluator,
        }
    }
}

/// The per-query engine statistics the planner decides from. All of them
/// are O(1) to read off a [`crate::engine::QueryEngine`] session.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PlannerStats {
    /// `|M_q|` — mappings relevant to this query (after the paper's
    /// `filter_mappings`; for top-k, after the k-pruning too).
    pub relevant_mappings: usize,
    /// Total c-blocks in the session's block tree.
    pub block_count: usize,
    /// Average mappings per c-block — the replication factor block
    /// answers enjoy. `0.0` when there are no blocks.
    pub avg_block_fanout: f64,
    /// The smallest *rewritten-label* posting-list length among the
    /// query's nodes: per query label, the total document postings of
    /// every source label it can rewrite to under any mapping. Zero means
    /// some query node can never match a document node, so every answer
    /// is empty. Measured from the session's posting table.
    pub min_rewrite_postings: usize,
    /// The summed rewritten-label posting-list lengths over all query
    /// nodes — an upper bound on the candidate stream a single twig
    /// evaluation scans.
    pub total_rewrite_postings: usize,
    /// Number of value predicates across the query's nodes.
    pub value_predicates: usize,
    /// Estimated fraction of candidates surviving the query's value
    /// predicates (see [`estimate_selectivity`]); exactly `1.0` for a
    /// predicate-free query.
    pub pred_selectivity: f64,
    /// Whether the session caches already hold this query (its relevant
    /// set, and with it the memoized rewrites or compiled program of a
    /// previous evaluation).
    pub cache_warm: bool,
}

/// Picks the evaluator for one PTQ-shaped query.
///
/// A pinned hint always wins. Under [`EvaluatorHint::Auto`] the rules,
/// in order — every per-mapping outcome routes to the flat
/// [`Evaluator::Compiled`] backend (which replaces the recursive naive
/// walk without changing answers), while block-tree outcomes keep
/// Algorithm 4's cross-mapping sharing:
///
/// 1. no c-blocks → [`Evaluator::Compiled`] (nothing to share);
/// 2. `relevant_mappings ≤ `[`FEW_MAPPINGS_CUTOFF`] → `Compiled` (the
///    tree's split/join overhead exceeds the work it saves);
/// 3. `min_rewrite_postings == 0` → `Compiled` (some query node's
///    measured candidate stream is empty, so every answer is provably
///    empty and there is nothing to share);
/// 4. value predicates with estimated selectivity ≤
///    [`SELECTIVE_PRED_CUTOFF`] → `Compiled` (the predicates prune the
///    candidate stream before structural matching; block sharing has
///    little left to amortize);
/// 5. `avg_block_fanout ≥ `[`SHARED_FANOUT_CUTOFF`] → `BlockTree`
///    (block answers replicate across ≥2 mappings on average);
/// 6. warm caches and `total_rewrite_postings ≤
///    `[`WARM_POSTINGS_CUTOFF`] → `Compiled` (the program is cached and
///    the measured match work is small — most of what the tree would
///    have shared is already free);
/// 7. otherwise → `BlockTree` (large `|M_q|`, let rewrite-group sharing
///    work).
pub fn choose(hint: EvaluatorHint, stats: &PlannerStats) -> Plan {
    let pin = |evaluator| Plan {
        evaluator,
        reason: PlanReason::Pinned,
    };
    let auto = |evaluator, reason| Plan { evaluator, reason };
    match hint {
        EvaluatorHint::Naive => pin(Evaluator::Naive),
        EvaluatorHint::BlockTree => pin(Evaluator::BlockTree),
        EvaluatorHint::Compiled => pin(Evaluator::Compiled),
        EvaluatorHint::Auto => {
            if stats.block_count == 0 {
                auto(Evaluator::Compiled, PlanReason::NoBlocks)
            } else if stats.relevant_mappings <= FEW_MAPPINGS_CUTOFF {
                auto(Evaluator::Compiled, PlanReason::FewMappings)
            } else if stats.min_rewrite_postings == 0 {
                auto(Evaluator::Compiled, PlanReason::TinyPostings)
            } else if stats.value_predicates > 0 && stats.pred_selectivity <= SELECTIVE_PRED_CUTOFF
            {
                auto(Evaluator::Compiled, PlanReason::SelectivePredicate)
            } else if stats.avg_block_fanout >= SHARED_FANOUT_CUTOFF {
                auto(Evaluator::BlockTree, PlanReason::SharedBlocks)
            } else if stats.cache_warm && stats.total_rewrite_postings <= WARM_POSTINGS_CUTOFF {
                auto(Evaluator::Compiled, PlanReason::WarmCache)
            } else {
                auto(Evaluator::BlockTree, PlanReason::ManyMappings)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(relevant: usize, blocks: usize, fanout: f64, warm: bool) -> PlannerStats {
        PlannerStats {
            relevant_mappings: relevant,
            block_count: blocks,
            avg_block_fanout: fanout,
            min_rewrite_postings: 100,
            total_rewrite_postings: 1000,
            value_predicates: 0,
            pred_selectivity: 1.0,
            cache_warm: warm,
        }
    }

    #[test]
    fn pinned_hints_always_win() {
        let s = stats(1000, 0, 0.0, true); // auto would say Compiled
        assert_eq!(
            choose(EvaluatorHint::BlockTree, &s),
            Plan {
                evaluator: Evaluator::BlockTree,
                reason: PlanReason::Pinned
            }
        );
        assert_eq!(
            choose(EvaluatorHint::Naive, &stats(1000, 50, 10.0, false)).evaluator,
            Evaluator::Naive
        );
        assert_eq!(
            choose(EvaluatorHint::Compiled, &stats(1000, 50, 10.0, false)),
            Plan {
                evaluator: Evaluator::Compiled,
                reason: PlanReason::Pinned
            }
        );
    }

    #[test]
    fn auto_rules_in_order() {
        let c = |s: &PlannerStats| choose(EvaluatorHint::Auto, s);
        assert_eq!(c(&stats(100, 0, 0.0, false)).reason, PlanReason::NoBlocks);
        assert_eq!(
            c(&stats(FEW_MAPPINGS_CUTOFF, 40, 10.0, false)).reason,
            PlanReason::FewMappings
        );
        assert_eq!(
            c(&PlannerStats {
                min_rewrite_postings: 0,
                ..stats(100, 40, 10.0, false)
            }),
            Plan {
                evaluator: Evaluator::Compiled,
                reason: PlanReason::TinyPostings
            }
        );
        assert_eq!(
            c(&PlannerStats {
                total_rewrite_postings: WARM_POSTINGS_CUTOFF + 1,
                ..stats(100, 40, 1.2, true)
            })
            .reason,
            PlanReason::ManyMappings,
            "huge streams keep the tree even when warm"
        );
        assert_eq!(
            c(&PlannerStats {
                value_predicates: 1,
                pred_selectivity: 0.1,
                ..stats(100, 40, 10.0, false)
            }),
            Plan {
                evaluator: Evaluator::Compiled,
                reason: PlanReason::SelectivePredicate
            },
            "selective predicates beat block sharing"
        );
        assert_eq!(
            c(&PlannerStats {
                value_predicates: 1,
                pred_selectivity: 1.0 / 3.0,
                ..stats(100, 40, 10.0, false)
            })
            .reason,
            PlanReason::SharedBlocks,
            "a lone range predicate is not selective enough"
        );
        assert_eq!(
            c(&stats(100, 40, 5.0, true)).reason,
            PlanReason::SharedBlocks
        );
        assert_eq!(c(&stats(100, 40, 1.2, true)).reason, PlanReason::WarmCache);
        assert_eq!(
            c(&stats(100, 40, 1.2, false)).reason,
            PlanReason::ManyMappings
        );
    }

    #[test]
    fn selectivity_estimate_multiplies_static_factors() {
        let sel = |q: &str| estimate_selectivity(&TwigPattern::parse(q).unwrap());
        assert_eq!(sel("A/B"), 1.0);
        assert_eq!(sel("A//*"), 1.0, "wildcards filter nothing");
        assert!((sel("A[.='v']/B") - 0.1).abs() < 1e-12);
        assert!((sel("A[contains(@k,'v')]") - 0.25).abs() < 1e-12);
        assert!((sel("A[.<3]") - 1.0 / 3.0).abs() < 1e-12);
        // Stacked predicates multiply, floored at 0.01.
        assert!((sel("A[.='v'][@k='w']/B[.='x']") - 0.01).abs() < 1e-12);
    }

    #[test]
    fn reasons_map_to_evaluators() {
        let c = |s: &PlannerStats| choose(EvaluatorHint::Auto, s);
        assert_eq!(c(&stats(100, 0, 0.0, false)).evaluator, Evaluator::Compiled);
        assert_eq!(c(&stats(2, 40, 10.0, false)).evaluator, Evaluator::Compiled);
        assert_eq!(
            c(&stats(100, 40, 5.0, false)).evaluator,
            Evaluator::BlockTree
        );
        assert_eq!(c(&stats(100, 40, 1.0, true)).evaluator, Evaluator::Compiled);
        assert_eq!(
            c(&stats(100, 40, 1.0, false)).evaluator,
            Evaluator::BlockTree
        );
    }

    #[test]
    fn wire_names_are_kebab_case() {
        assert_eq!(Evaluator::BlockTree.wire_name(), "block-tree");
        assert_eq!(Evaluator::Compiled.wire_name(), "compiled");
        assert_eq!(PlanReason::SharedBlocks.to_string(), "shared-blocks");
        assert_eq!(PlanReason::TinyPostings.to_string(), "tiny-postings");
    }
}
