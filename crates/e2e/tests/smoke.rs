//! Runs the binary in `--smoke` mode (tiny counts) and checks that what
//! it prints, what the library declares and what `BENCHMARK.json`
//! promises are the same set of names.

use std::process::Command;

use qpp_e2e::report::{END_TO_END, PER_LAYER, WORKLOADS};

fn run(args: &[&str]) -> String {
    let scratch = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let out = Command::new(env!("CARGO_BIN_EXE_qpp-e2e"))
        .args(args)
        .current_dir(scratch)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert!(
        out.status.success(),
        "qpp-e2e {args:?} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

/// `workload/metric value unit` lines, as `(workload/metric, unit)`.
fn metric_lines(stdout: &str) -> Vec<(String, String)> {
    stdout
        .lines()
        .filter(|l| !l.starts_with('#') && !l.starts_with('{'))
        .map(|l| {
            let mut parts = l.split_whitespace();
            let name = parts.next().unwrap().to_string();
            let value = parts.next().unwrap();
            assert!(value == "null" || value.parse::<f64>().is_ok(), "{l}");
            (name, parts.next().unwrap().to_string())
        })
        .collect()
}

#[test]
fn smoke_emits_every_workload_and_end_to_end_metric_exactly_once() {
    let stdout = run(&["--smoke"]);
    let lines = metric_lines(&stdout);
    let expected: Vec<(String, String)> = WORKLOADS
        .iter()
        .flat_map(|w| {
            END_TO_END
                .iter()
                .map(move |(m, u)| (format!("{w}/{m}"), u.to_string()))
        })
        .collect();
    assert_eq!(lines, expected);
    // One result object per workload, the last line of all being one.
    let results: Vec<&str> = stdout.lines().filter(|l| l.starts_with('{')).collect();
    assert_eq!(results.len(), WORKLOADS.len());
    assert_eq!(stdout.lines().last(), results.last().copied());
    for result in results {
        assert!(
            result.starts_with("{\"correct\": true, \"attempted\": "),
            "{result}"
        );
        assert!(result.contains("\"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": "));
    }
}

#[test]
fn a_smoke_trace_emits_every_per_layer_metric_exactly_once() {
    let stdout = run(&["--smoke", "--workload", "serve_open", "--trace", "1"]);
    let expected: Vec<(String, String)> = PER_LAYER
        .iter()
        .map(|(m, u)| (format!("serve_open/{m}"), u.to_string()))
        .collect();
    assert_eq!(metric_lines(&stdout), expected);
    assert!(stdout
        .lines()
        .last()
        .unwrap()
        .starts_with("{\"correct\": true"));
}

#[test]
fn the_drivers_calling_convention_is_accepted_and_seconds_changes_no_count() {
    let attempted = |seconds: &str| {
        let stdout = run(&[
            "--smoke",
            "--workload",
            "lib_batch",
            "--seed",
            "3",
            "--seconds",
            seconds,
            "--trace",
            "0",
        ]);
        let result = stdout.lines().last().unwrap().to_string();
        let rest = result
            .strip_prefix("{\"correct\": true, \"attempted\": ")
            .unwrap_or_else(|| panic!("{result}"));
        rest.split(',').next().unwrap().parse::<u64>().unwrap()
    };
    assert_eq!(attempted("22"), attempted("5"));
}

#[test]
fn unknown_arguments_are_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_qpp-e2e"))
        .args(["--workload", "nope"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    // A full run is one workload per process: it must be named.
    let out = Command::new(env!("CARGO_BIN_EXE_qpp-e2e"))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}

/// The `"name"` values of the array under `key` in `BENCHMARK.json`.
fn names_under(json: &str, key: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("{key} missing"));
    let open = start + json[start..].find('[').unwrap();
    let close = open + json[open..].find(']').unwrap();
    json[open..close]
        .split("\"name\"")
        .skip(1)
        .map(|rest| rest.split('"').nth(1).unwrap().to_string())
        .collect()
}

#[test]
fn benchmark_json_names_what_the_binary_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    assert_eq!(names_under(&json, "workloads"), WORKLOADS);
    let names = |list: &[(&str, &str)]| list.iter().map(|m| m.0.to_string()).collect::<Vec<_>>();
    assert_eq!(names_under(&json, "end_to_end"), names(&END_TO_END));
    assert_eq!(names_under(&json, "per_layer"), names(&PER_LAYER));
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(
            json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "{name} should be listed in {unit}"
        );
    }
}
