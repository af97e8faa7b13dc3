//! Every workload at the toy size, untraced and traced: the run is
//! correct, and its result line and record carry every metric
//! `BENCHMARK.json` declares for that kind of run, with its unit, plus
//! `ops` and `failed_ops`.

use sadp_benchmark::{Outcome, Run, Size, Workload, END_TO_END, PER_LAYER};
use sadp_serve::json::{parse, Json};
use std::path::PathBuf;

fn dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn benchmark_json() -> Json {
    let path = dir().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark");
    parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of one metric list of `BENCHMARK.json`.
fn declared(key: &str) -> Vec<(String, String)> {
    let Some(Json::Arr(items)) = benchmark_json().get(key).cloned() else {
        panic!("BENCHMARK.json has no `{key}` list");
    };
    items
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

fn pairs(table: &[(&str, &str)]) -> Vec<(String, String)> {
    table
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn benchmark_json_declares_what_the_library_reports() {
    assert_eq!(declared("end_to_end"), pairs(&END_TO_END));
    assert_eq!(declared("per_layer"), pairs(&PER_LAYER));
    let Some(Json::Arr(workloads)) = benchmark_json().get("workloads").cloned() else {
        panic!("BENCHMARK.json has no workloads");
    };
    let names: Vec<&str> = workloads
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);
}

fn assert_metrics(obj: Option<&Json>, want: &[(String, String)], what: &str) {
    let obj = obj.unwrap_or_else(|| panic!("{what}: no metrics"));
    for (name, unit) in want {
        let m = obj
            .get(name)
            .unwrap_or_else(|| panic!("{what}: metric {name} missing"));
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(unit.as_str()),
            "{what}: unit of {name}"
        );
        assert!(
            matches!(m.get("value"), Some(Json::Num(v)) if v.is_finite()),
            "{what}: value of {name}"
        );
    }
}

fn check(workload: Workload, out: &Outcome, run: &Run) {
    let what = format!("{} trace={}", workload.name(), run.trace);
    let failed: Vec<_> = out.checks.iter().filter(|c| !c.ok).collect();
    assert!(failed.is_empty(), "{what}: failed checks {failed:?}");
    assert!(out.ops > 0, "{what}: no operations");
    assert_eq!(out.failed_ops, 0, "{what}: failed operations");

    let key = if run.trace { "per_layer" } else { "end_to_end" };
    let want = declared(key);
    let line = parse(
        &out.result_line(run.trace)
            .expect("declared metrics present"),
    )
    .expect("result line parses");
    assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
    assert_eq!(line.get("attempted").and_then(Json::as_u64), Some(out.ops));
    assert_eq!(line.get("failed").and_then(Json::as_u64), Some(0));
    assert_metrics(line.get("metrics"), &want, &format!("{what} result"));
    if let Some(Json::Obj(m)) = line.get("metrics") {
        assert_eq!(m.len(), want.len(), "{what}: exactly the declared metrics");
    }

    let record = parse(&out.record(workload, run)).expect("record parses");
    assert_eq!(
        record.get("schema").and_then(Json::as_str),
        Some("sadp-bench/v5")
    );
    assert_eq!(record.get("ops").and_then(Json::as_u64), Some(out.ops));
    assert_eq!(record.get("failed_ops").and_then(Json::as_u64), Some(0));
    assert_metrics(record.get("metrics"), &want, &format!("{what} record"));

    if run.trace {
        let tracer = out.tracer.as_ref().expect("traced runs keep spans");
        assert!(!tracer.spans().is_empty(), "{what}: no spans");
        for line in tracer.to_jsonl().lines() {
            parse(line).expect("span line parses");
        }
    } else {
        assert!(out.tracer.is_none(), "{what}: untraced runs keep no spans");
    }
}

fn smoke(workload: Workload) {
    for trace in [false, true] {
        let run = Run {
            seed: 7,
            size: Size::Toy,
            trace,
            dir: dir(),
        };
        let out = workload.run(&run).expect("toy run completes");
        check(workload, &out, &run);
    }
}

#[test]
fn route_toy() {
    smoke(Workload::Route);
}

#[test]
fn eco_toy() {
    smoke(Workload::Eco);
}

#[test]
fn serve_toy() {
    smoke(Workload::Serve);
    let state = dir()
        .join("out")
        .join(format!("serve-state-{}", std::process::id()));
    assert!(!state.exists(), "the daemon state directory is removed");
}
