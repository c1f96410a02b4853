//! Report rendering shared by the `workload explore` CLI subcommand
//! and the `bench_explore` table generator: hand-rolled JSON (the build
//! environment cannot vendor serde) and compact text labels.

use std::fmt::Write as _;

use crate::{ExploreReport, WorstCaseReport, WorstCost};

/// Schema tag for JSON documents composed from these fragments.
pub const JSON_SCHEMA: &str = "exclusion-explore/v2";

/// Escapes a string for embedding in a JSON document — the one copy of
/// the escaping rules shared by every hand-rolled JSON writer downstream
/// of this crate (`exclusion-workload`'s reports delegate here).
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

use json_escape as esc;

/// One exploration verdict as a JSON object.
#[must_use]
pub fn explore_json(r: &ExploreReport) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"algorithm\":\"{}\",\"n\":{},\"passages\":{},\"states\":{},\"edges\":{},\
         \"depth\":{},\"truncated\":{},\"dedup_hits\":{},\"dedup_ratio\":{:.4},\
         \"peak_frontier\":{},\"fingerprinted\":{},\"certified_safe\":{},\
         \"certified_deadlock_free\":{},",
        esc(&r.algorithm),
        r.n,
        r.passages,
        r.states,
        r.edges,
        r.depth,
        r.truncated,
        r.dedup_hits,
        r.dedup_ratio(),
        r.peak_frontier,
        r.fingerprinted,
        r.certified_safe(),
        r.certified_deadlock_free(),
    );
    match &r.violation {
        None => out.push_str("\"violation\":null,"),
        Some(v) => {
            let _ = write!(
                out,
                "\"violation\":{{\"schedule_len\":{},\"culprits\":[{},{}],\"trace\":\"{}\"}},",
                v.schedule.len(),
                v.culprits.0.index(),
                v.culprits.1.index(),
                esc(&v.trace.to_string()),
            );
        }
    }
    match &r.hazard {
        None => out.push_str("\"hazard\":null}"),
        Some(h) => {
            let _ = write!(
                out,
                "\"hazard\":{{\"kind\":\"{}\",\"schedule_len\":{},\"doomed_states\":{}}}}}",
                h.kind,
                h.schedule.len(),
                h.doomed_states,
            );
        }
    }
    out
}

/// One worst-case verdict as a JSON object.
#[must_use]
pub fn worst_json(r: &WorstCaseReport) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"algorithm\":\"{}\",\"model\":\"{}\",\"n\":{},\"passages\":{},\
         \"nodes\":{},\"edges\":{},\"truncated\":{},",
        esc(&r.algorithm),
        r.model,
        r.n,
        r.passages,
        r.nodes,
        r.edges,
        r.truncated,
    );
    match &r.cost {
        WorstCost::Exact { cost, schedule } => {
            let _ = write!(
                out,
                "\"cost\":{cost},\"unbounded\":false,\"schedule_len\":{}}}",
                schedule.len()
            );
        }
        WorstCost::Unbounded { prefix, cycle } => {
            let _ = write!(
                out,
                "\"cost\":null,\"unbounded\":true,\"pump_prefix_len\":{},\"pump_cycle_len\":{}}}",
                prefix.len(),
                cycle.len()
            );
        }
        WorstCost::Unknown => out.push_str("\"cost\":null,\"unbounded\":false}"),
    }
    out
}

/// A compact cost label for text tables: the exact value, `∞` for
/// unbounded, `?` when truncated.
#[must_use]
pub fn cost_label(cost: &WorstCost) -> String {
    match cost {
        WorstCost::Exact { cost, .. } => cost.to_string(),
        WorstCost::Unbounded { .. } => "∞".into(),
        WorstCost::Unknown => "?".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{explore, worst_case, ExploreConfig, Model};
    use exclusion_shmem::testing::{Alternator, NoLock};

    #[test]
    fn json_fragments_are_balanced_and_tagged() {
        let cfg = ExploreConfig::default();
        let good = explore_json(&explore(&Alternator::new(2), &cfg));
        let bad = explore_json(&explore(&NoLock::new(2), &cfg));
        let worst = worst_json(&worst_case(&Alternator::new(2), Model::Sc, &cfg));
        for json in [&good, &bad, &worst] {
            assert_eq!(
                json.matches('{').count(),
                json.matches('}').count(),
                "{json}"
            );
            assert_eq!(
                json.matches('[').count(),
                json.matches(']').count(),
                "{json}"
            );
        }
        assert!(good.contains("\"certified_safe\":true"));
        assert!(good.contains("\"dedup_hits\":"));
        assert!(good.contains("\"dedup_ratio\":"));
        assert!(good.contains("\"peak_frontier\":"));
        assert!(bad.contains("\"violation\":{"));
        assert!(bad.contains("\"culprits\":["));
        assert!(worst.contains("\"model\":\"sc\""));
        assert!(worst.contains("\"unbounded\":false"));
    }

    #[test]
    fn cost_labels_cover_all_verdicts() {
        assert_eq!(
            cost_label(&WorstCost::Exact {
                cost: 7,
                schedule: vec![]
            }),
            "7"
        );
        assert_eq!(
            cost_label(&WorstCost::Unbounded {
                prefix: vec![],
                cycle: vec![]
            }),
            "∞"
        );
        assert_eq!(cost_label(&WorstCost::Unknown), "?");
    }
}
