//! Smoke test of the benchmark itself: every workload at a tiny length
//! reports every metric `BENCHMARK.json` lists, finite and with its unit,
//! and its output checks pass, untraced on one seed and traced on another.

use headroom_perfbench::{run, Length, Options, Report, Workload, END_TO_END, PER_LAYER};

fn listing() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root")
}

fn assert_reports(report: &Report, expected: &[(&str, &str)], what: &str) {
    assert!(report.correct, "{what}: output checks failed\n{}", report.text);
    assert_eq!(report.failed, 0, "{what}");
    assert!(report.attempted > 0, "{what}");
    assert_eq!(report.metrics.len(), expected.len(), "{what}: exactly the listed metrics");
    for &(name, unit) in expected {
        let m = report.metric(name).unwrap_or_else(|| panic!("{what}: {name} missing"));
        assert!(m.value.is_finite(), "{what}: {name} = {}", m.value);
        assert_eq!(m.unit, unit, "{what}: {name}");
    }
    let json = report.json();
    assert!(json.starts_with("{\"correct\": true, \"attempted\": "), "{json}");
    assert!(!json.contains('\n'));
}

#[test]
fn benchmark_json_lists_every_workload_and_metric() {
    let listing = listing();
    for w in Workload::ALL {
        assert!(listing.contains(&format!("\"name\": \"{}\"", w.name())), "{}", w.name());
    }
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(
            listing.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "{name} ({unit}) is not listed"
        );
    }
}

#[test]
fn every_workload_reports_every_metric_and_passes_its_checks() {
    for workload in Workload::ALL {
        for (seed, trace) in [(11, false), (12, true)] {
            let opts = Options { workload, seed, seconds: 0.001, trace, length: Length::Tiny };
            let report = run(&opts);
            let expected: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
            assert_reports(&report, expected, &format!("{} seed {seed}", workload.name()));
            if trace {
                assert!(report.text.contains("waterfall"), "{}", report.text);
                assert!(!report.spans_csv.is_empty());
            }
        }
    }
}
