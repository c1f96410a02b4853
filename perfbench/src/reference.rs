//! Committed reference outputs and the judge that compares a job's
//! facts with them.
//!
//! A reference file holds one section per seed (`seed 7`), or a single
//! `seed any` section for a workload that takes no seed. Each line
//! below a section header is `label.key value`, where the value is the
//! rest of the line. `#` starts a comment line.

use std::collections::BTreeMap;

use crate::workload::OpFacts;

/// Expected facts, keyed `label.key`.
pub type Expected = BTreeMap<String, String>;

/// A parsed reference file.
#[derive(Debug, Default)]
pub struct Reference {
    /// `None` is the `seed any` section.
    sections: Vec<(Option<u64>, Expected)>,
}

impl Reference {
    /// Parses a reference file.
    ///
    /// # Errors
    ///
    /// A message naming the first malformed line.
    pub fn parse(text: &str) -> Result<Reference, String> {
        let mut reference = Reference::default();
        for (no, line) in text.lines().enumerate() {
            let line = line.trim_end();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line
                .split_once(' ')
                .ok_or_else(|| format!("line {}: expected `key value`", no + 1))?;
            if key == "seed" {
                let seed = match value {
                    "any" => None,
                    v => Some(
                        v.parse()
                            .map_err(|_| format!("line {}: bad seed {v:?}", no + 1))?,
                    ),
                };
                reference.sections.push((seed, Expected::new()));
                continue;
            }
            let (_, section) = reference
                .sections
                .last_mut()
                .ok_or_else(|| format!("line {}: fact before any `seed` line", no + 1))?;
            if section.insert(key.to_string(), value.to_string()).is_some() {
                return Err(format!("line {}: duplicate key {key}", no + 1));
            }
        }
        Ok(reference)
    }

    /// The expected facts for `seed`, if the file has them.
    pub fn for_seed(&self, seed: u64) -> Option<&Expected> {
        self.sections
            .iter()
            .find(|(s, _)| s.is_none_or(|s| s == seed))
            .map(|(_, e)| e)
    }

    /// The seeds with a section of their own.
    pub fn seeds(&self) -> Vec<u64> {
        self.sections.iter().filter_map(|(s, _)| *s).collect()
    }
}

/// Renders `facts` as a reference section for `seed` (`None`: any seed).
pub fn render(seed: Option<u64>, facts: &[OpFacts]) -> String {
    let mut out = match seed {
        Some(s) => format!("seed {s}\n"),
        None => "seed any\n".to_string(),
    };
    for op in facts {
        for (k, v) in &op.facts {
            out.push_str(&format!("{}.{k} {v}\n", op.label));
        }
    }
    out
}

/// Compares one job's facts with the expected ones. Returns one
/// message per op label that differs — a missing, extra or changed
/// key — and one for every expected label the job did not produce.
pub fn judge(expected: &Expected, facts: &[OpFacts]) -> Vec<(String, String)> {
    let mut mismatches = Vec::new();
    let mut seen = 0;
    for op in facts {
        let prefix = format!("{}.", op.label);
        let mut wanted: BTreeMap<&str, &str> = expected
            .range(prefix.clone()..)
            .take_while(|(k, _)| k.starts_with(&prefix))
            .map(|(k, v)| (&k[prefix.len()..], v.as_str()))
            .collect();
        seen += wanted.len();
        let mut diffs = Vec::new();
        for (k, v) in &op.facts {
            match wanted.remove(k.as_str()) {
                Some(want) if want == v => {}
                Some(want) => diffs.push(format!("{k} is {v}, reference {want}")),
                None => diffs.push(format!("{k} is not in the reference")),
            }
        }
        diffs.extend(wanted.keys().map(|k| format!("{k} is missing")));
        if !diffs.is_empty() {
            mismatches.push((op.label.clone(), diffs.join("; ")));
        }
    }
    if seen < expected.len() {
        mismatches.push((
            "*".to_string(),
            format!(
                "{} reference facts name ops the job did not run",
                expected.len() - seen
            ),
        ));
    }
    mismatches
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    fn op(label: &str, facts: &[(&str, &str)]) -> OpFacts {
        OpFacts {
            label: label.into(),
            ops: 1,
            facts: facts
                .iter()
                .map(|(k, v)| ((*k).to_string(), (*v).to_string()))
                .collect(),
        }
    }

    fn job() -> Vec<OpFacts> {
        vec![
            op("bakery/sc", &[("states", "376027"), ("worst", "exact:56")]),
            op("broken/sc", &[("verdict", "refuted")]),
        ]
    }

    #[test]
    fn rendered_facts_judge_clean() {
        let reference = Reference::parse(&render(Some(3), &job())).unwrap();
        assert!(reference.for_seed(4).is_none());
        assert!(judge(reference.for_seed(3).unwrap(), &job()).is_empty());
    }

    #[test]
    fn a_perturbed_value_fails_exactly_its_op() {
        let text = render(None, &job()).replace("exact:56", "exact:57");
        let reference = Reference::parse(&text).unwrap();
        let verdict = judge(reference.for_seed(9).unwrap(), &job());
        assert_eq!(verdict.len(), 1, "{verdict:?}");
        assert_eq!(verdict[0].0, "bakery/sc");
        assert!(verdict[0].1.contains("reference exact:57"));
    }

    #[test]
    fn missing_and_extra_keys_fail() {
        let reference = Reference::parse(&render(None, &job())).unwrap();
        let expected = reference.for_seed(0).unwrap();
        let mut fewer = job();
        fewer[0].facts.pop();
        assert_eq!(judge(expected, &fewer)[0].0, "bakery/sc");
        let mut more = job();
        more[1].facts.push(("depth".into(), "28".into()));
        assert_eq!(judge(expected, &more)[0].0, "broken/sc");
        let dropped = vec![job().remove(0)];
        assert_eq!(judge(expected, &dropped)[0].0, "*");
    }

    #[test]
    fn committed_references_parse_and_cover_the_default_and_held_out_seeds() {
        for w in Workload::ALL {
            let reference = Reference::parse(w.reference_text()).unwrap();
            for seed in [crate::DEFAULT_SEED, crate::HELD_OUT_SEED] {
                let expected = reference
                    .for_seed(seed)
                    .unwrap_or_else(|| panic!("{} has no reference for seed {seed}", w.name()));
                assert!(!expected.is_empty());
            }
        }
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(Reference::parse("serve.steps 1\n").is_err());
        assert!(Reference::parse("seed x\n").is_err());
        assert!(Reference::parse("seed 1\nnovalue\n").is_err());
        assert!(Reference::parse("seed 1\na.b 1\na.b 2\n").is_err());
    }
}
