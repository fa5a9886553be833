//! Minimal SARIF 2.1.0 output for CI code-scanning upload.
//!
//! Hand-rolled like the JSON report (no serde): one run, one driver, one
//! result per violation with a physical location. Rule metadata is the
//! deduplicated set of rule ids present in the report.

use std::collections::BTreeSet;

use crate::json_escape_into;
use crate::rules::Violation;

/// Renders a SARIF 2.1.0 document for `violations`.
pub fn to_sarif(violations: &[Violation]) -> String {
    let rules: BTreeSet<&str> = violations.iter().map(|v| v.rule).collect();
    let mut s = String::from(
        "{\"$schema\":\"https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/\
         Schemata/sarif-schema-2.1.0.json\",\"version\":\"2.1.0\",\"runs\":[{\"tool\":\
         {\"driver\":{\"name\":\"ignem-analyze\",\"informationUri\":\
         \"https://example.invalid/ignem\",\"rules\":[",
    );
    for (i, r) in rules.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str("{\"id\":\"");
        s.push_str(r);
        s.push_str("\"}");
    }
    s.push_str("]}},\"results\":[");
    for (i, v) in violations.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str("{\"ruleId\":\"");
        s.push_str(v.rule);
        s.push_str("\",\"level\":\"error\",\"message\":{\"text\":\"");
        json_escape_into(&v.message, &mut s);
        s.push_str("\"},\"locations\":[{\"physicalLocation\":{\"artifactLocation\":{\"uri\":\"");
        json_escape_into(&v.file, &mut s);
        s.push_str("\"},\"region\":{\"startLine\":");
        s.push_str(&v.line.to_string());
        s.push_str("}}}]}");
    }
    s.push_str("]}]}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sarif_shape_is_stable() {
        let v = vec![Violation {
            rule: "D10",
            file: "crates/x/src/a.rs".into(),
            line: 7,
            message: "tainted \"value\"".into(),
        }];
        let s = to_sarif(&v);
        assert!(s.contains("\"version\":\"2.1.0\""));
        assert!(s.contains("\"ruleId\":\"D10\""));
        assert!(s.contains("\"startLine\":7"));
        assert!(s.contains("tainted \\\"value\\\""));
        assert!(s.contains("{\"id\":\"D10\"}"));
    }

    #[test]
    fn empty_report_is_valid_sarif() {
        let s = to_sarif(&[]);
        assert!(s.contains("\"results\":[]"));
    }
}
