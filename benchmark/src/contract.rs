//! Contract test: what the binary emits and what `BENCHMARK.json`
//! promises must be the same set of names, in both directions.

use crate::metrics::{MetricDef, END_TO_END, PER_LAYER, RUN_SECONDS};
use crate::run::{run_traced, run_untraced, Record};
use crate::workloads::SPECS;
use acm::obs::json::{parse, JsonValue};
use std::collections::BTreeSet;

/// Each workload runs for 1/50 of a measuring run (test-only: the binary
/// has no option that shortens a run below what `--seconds` says).
const TEST_SECONDS: f64 = RUN_SECONDS as f64 / 50.0;

fn benchmark_json() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json over 64 KiB");
    parse(&text).expect("BENCHMARK.json parses")
}

fn name_ok(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn strs<'a>(v: &'a JsonValue, key: &str) -> Vec<&'a str> {
    v.get(key)
        .and_then(JsonValue::as_array)
        .unwrap_or_else(|| panic!("{key} is an array"))
        .iter()
        .map(|x| x.as_str().expect("string"))
        .collect()
}

/// The catalogue rows a `BENCHMARK.json` metric list must equal.
fn check_metric_list(doc: &JsonValue, key: &str, defs: &[MetricDef]) {
    let listed = doc.get(key).and_then(JsonValue::as_array).expect(key);
    let listed_names: Vec<&str> = listed
        .iter()
        .map(|m| m.get("name").and_then(JsonValue::as_str).expect("name"))
        .collect();
    let catalogue: Vec<&str> = defs.iter().map(|d| d.name).collect();
    assert_eq!(listed_names, catalogue, "{key}: names differ");
    for (m, def) in listed.iter().zip(defs) {
        let field = |k: &str| m.get(k).and_then(JsonValue::as_str);
        assert_eq!(field("unit"), Some(def.unit), "{}: unit", def.name);
        assert_eq!(
            field("better"),
            Some(def.better.as_str()),
            "{}: better",
            def.name
        );
        assert_eq!(
            m.get("bound").and_then(JsonValue::as_f64),
            def.bound,
            "{}: bound",
            def.name
        );
        assert!(name_ok(def.name), "{}: bad name", def.name);
        assert!(def.unit.len() <= 16, "{}: unit too long", def.name);
    }
}

fn check_record(rec: &Record, defs: &[MetricDef]) {
    let emitted: BTreeSet<&str> = rec.metrics.iter().map(|(d, _)| d.name).collect();
    let wanted: BTreeSet<&str> = defs.iter().map(|d| d.name).collect();
    assert_eq!(emitted, wanted, "{}: metric names", rec.workload);
    for (def, v) in &rec.metrics {
        match v {
            Some(v) => assert!(v.is_finite(), "{} {}: {v}", rec.workload, def.name),
            // The one explicit null: no cores to compare widths on.
            None => assert_eq!(def.name, "exec.width1_ops_ratio"),
        }
    }
    assert!(rec.attempted >= 1);
    assert_eq!(rec.failed, 0, "{} failed: {:?}", rec.workload, rec.failures);

    // The result line: exactly four keys, metrics keyed by name.
    let line = parse(&rec.result_line()).expect("result line parses");
    let JsonValue::Obj(fields) = &line else {
        panic!("result line is an object")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let JsonValue::Obj(metrics) = line.get("metrics").expect("metrics") else {
        panic!("metrics is an object")
    };
    let line_names: BTreeSet<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(line_names, wanted);
    parse(&rec.to_json()).expect("record parses");
}

/// Every span has a parent that encloses it or is a root.
fn check_spans(jsonl: &str) {
    let spans: Vec<JsonValue> = jsonl
        .lines()
        .map(|l| parse(l).expect("span line parses"))
        .collect();
    assert!(!spans.is_empty(), "traced run recorded no spans");
    let bounds = |s: &JsonValue| {
        (
            s.get("start_ns")
                .and_then(JsonValue::as_u64)
                .expect("start"),
            s.get("end_ns").and_then(JsonValue::as_u64).expect("end"),
        )
    };
    for (i, s) in spans.iter().enumerate() {
        assert_eq!(s.get("id").and_then(JsonValue::as_u64), Some(i as u64));
        let (start, end) = bounds(s);
        assert!(start <= end, "span {i} ends before it starts");
        match s.get("parent").expect("parent key") {
            JsonValue::Null => {}
            p => {
                let p = p.as_u64().expect("parent id") as usize;
                assert!(p < i, "span {i}: parent {p} opened later");
                let (ps, pe) = bounds(&spans[p]);
                assert!(ps <= start && end <= pe, "span {i} leaks out of parent {p}");
            }
        }
        assert!(s.get("self_ns").and_then(JsonValue::as_u64).expect("self") <= end - start);
    }
}

/// One test, not one per workload: every run resizes the process-wide
/// exec pool, so they must not overlap.
#[test]
fn emitted_names_equal_benchmark_json() {
    let doc = benchmark_json();
    let JsonValue::Obj(fields) = &doc else {
        panic!("BENCHMARK.json is an object")
    };
    let keys: BTreeSet<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    let want: BTreeSet<&str> = [
        "command",
        "paths",
        "run_seconds",
        "workloads",
        "end_to_end",
        "per_layer",
    ]
    .into();
    assert_eq!(keys, want);
    assert_eq!(strs(&doc, "paths"), ["benchmark"]);
    assert_eq!(
        doc.get("run_seconds").and_then(JsonValue::as_u64),
        Some(RUN_SECONDS)
    );
    let command = strs(&doc, "command");
    assert!(command.contains(&"benchmark/Cargo.toml") && command.ends_with(&["run"]));

    let listed: Vec<(&str, &str)> = doc
        .get("workloads")
        .and_then(JsonValue::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            let field = |k: &str| w.get(k).and_then(JsonValue::as_str).expect("name and why");
            (field("name"), field("why"))
        })
        .collect();
    let specs: Vec<(&str, &str)> = SPECS.iter().map(|s| (s.name, s.why)).collect();
    assert_eq!(listed, specs, "workloads differ from the binary's");
    for (name, why) in &specs {
        assert!(name_ok(name) && why.len() <= 200 && !why.contains('\n'));
    }
    for s in &SPECS {
        // The digest prefix every run executes holds whole cycles.
        assert!(s.digest_ops > 0 && s.digest_ops % s.cycle as u64 == 0);
    }
    check_metric_list(&doc, "end_to_end", &END_TO_END);
    check_metric_list(&doc, "per_layer", &PER_LAYER);
    assert!(END_TO_END
        .iter()
        .any(|d| d.name == "setup_s" && d.unit == "s"));
    let all: BTreeSet<&str> = END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .map(|d| d.name)
        .collect();
    assert_eq!(
        all.len(),
        END_TO_END.len() + PER_LAYER.len(),
        "a name is used twice"
    );

    for spec in &SPECS {
        let untraced = run_untraced(spec, 3, TEST_SECONDS);
        check_record(&untraced, &END_TO_END);
        for (def, v) in &untraced.metrics {
            assert!(v.unwrap() > 0.0, "{} {} is 0", spec.name, def.name);
        }
        let traced = run_traced(spec, 3, TEST_SECONDS);
        check_record(&traced, &PER_LAYER);
        check_spans(
            traced
                .spans_jsonl
                .as_deref()
                .expect("spans of a traced run"),
        );
        if traced.digest_ops == untraced.digest_ops {
            assert_eq!(traced.digest, untraced.digest, "{}: digests", spec.name);
        }
    }
}
