//! Smoke test at a tiny size: every workload, untraced and traced, prints
//! every metric `BENCHMARK.json` names, with its unit, and fails nothing.

use std::process::Command;

const WORKLOADS: [&str; 4] = [
    "infer-resnet18",
    "infer-mobilenet-int8",
    "fleet",
    "pipeline",
];

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn section(spec: &str, key: &str) -> Vec<(String, String)> {
    let start = spec
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let body = &spec[start..];
    let body = &body[..body.find(']').expect("section ends")];
    let field = |entry: &str, name: &str| -> String {
        let at = entry.find(&format!("\"{name}\"")).expect("field present");
        let rest = &entry[at + name.len() + 2..];
        let open = rest.find('"').expect("value opens") + 1;
        let len = rest[open..].find('"').expect("value closes");
        rest[open..open + len].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

#[test]
fn every_workload_prints_each_metric_with_its_unit_and_no_errors() {
    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the benchmark directory");
    let end_to_end = section(&spec, "end_to_end");
    let per_layer = section(&spec, "per_layer");
    assert!(end_to_end.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    for workload in WORKLOADS {
        for (trace, metrics) in [("0", &end_to_end), ("1", &per_layer)] {
            let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
                .args(["--workload", workload, "--seed", "3", "--seconds", "0.5"])
                .args(["--trace", trace, "--tiny"])
                .output()
                .expect("benchmark runs");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let what = format!("{workload} --trace {trace}");
            assert!(
                out.status.success(),
                "{what}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            assert!(
                stdout.contains("\nerror_rate = 0 ratio"),
                "{what}:\n{stdout}"
            );
            let last = stdout.lines().last().expect("a result line");
            assert!(
                last.starts_with("{\"correct\": true, ") && last.contains("\"failed\": 0, "),
                "{what}: {last}"
            );
            for (name, unit) in metrics.iter() {
                let json = format!("\"{name}\": {{\"value\": ");
                let at = last
                    .find(&json)
                    .unwrap_or_else(|| panic!("{what}: no {name}"));
                let unit_json = format!("\"unit\": \"{unit}\"}}");
                assert!(
                    last[at..].contains(&unit_json),
                    "{what}: {name} lacks unit {unit}"
                );
                let line = format!("\n{name} = ");
                let printed = stdout
                    .find(&line)
                    .unwrap_or_else(|| panic!("{what}: {name}"));
                let printed = stdout[printed + 1..].lines().next().expect("metric line");
                assert!(printed.contains(&format!(" {unit}")), "{what}: {printed}");
            }
            if trace == "0" {
                assert!(
                    !last.contains("\"value\": 0,"),
                    "{what}: a zero metric: {last}"
                );
            }
        }
    }
}
