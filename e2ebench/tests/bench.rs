use std::collections::BTreeSet;
use std::path::PathBuf;

use qsim_e2ebench::bench::{run, Options};
use qsim_e2ebench::check::Tally;
use qsim_e2ebench::measure::{host_factor, HostGauge, GAUGE_NOMINAL_S};
use qsim_e2ebench::report::{json_line, valid_name};
use qsim_e2ebench::trace::{best_self_secs, median, self_times_ns, Span, Tracer};
use qsim_e2ebench::workload::{inputs, set_up, Sizes, TrialInput, Workload};
use qsim_statevec::MeasureOutcome;
use redsim::testkit::vqa_sweep;
use redsim::SimError;

fn tiny(workload: Workload, seed: u64, trace: bool, tag: &str) -> Options {
    Options {
        workload,
        seed,
        seconds: 0.0,
        trace,
        sizes: Sizes::TINY,
        work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("e2ebench-{tag}-{}-{seed}-{trace}", workload.name())),
    }
}

/// Metric names `BENCHMARK.json` declares under `section`, in order.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let start = text.find(&format!("\"{section}\"")).expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\": \"").skip(1).map(|s| s[..s.find('"').unwrap()].to_owned()).collect()
}

#[test]
fn tiny_runs_of_every_workload_pass_and_report_the_declared_metrics() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let outcome = run(&tiny(workload, 3, trace, "smoke")).unwrap();
            let name = workload.name();
            assert_eq!(outcome.tally.failed, 0, "{name}: {:?}", outcome.tally.notes);
            assert!(outcome.tally.notes.is_empty(), "{name}: {:?}", outcome.tally.notes);
            assert!(outcome.tally.attempted > 0);
            let names: Vec<&str> = outcome.metrics.iter().map(|m| m.name).collect();
            let section = if trace { "per_layer" } else { "end_to_end" };
            assert_eq!(names, declared(section), "{name} {section}");
            for metric in &outcome.metrics {
                assert!(valid_name(metric.name), "{}", metric.name);
                assert!(metric.value.is_finite(), "{name}: {} = {}", metric.name, metric.value);
            }
            let unique: BTreeSet<&str> = names.iter().copied().collect();
            assert_eq!(unique.len(), names.len(), "{name}: duplicate metric names");
            let line = json_line(&outcome.tally, &outcome.metrics).unwrap();
            assert!(line.starts_with("{\"correct\": true, "), "{line}");
        }
    }
}

#[test]
fn every_declared_name_is_well_formed_and_unique() {
    let names: Vec<String> =
        ["workloads", "end_to_end", "per_layer"].into_iter().flat_map(declared).collect();
    assert!(names.iter().any(|n| n == "setup_s"));
    for name in &names {
        assert!(valid_name(name), "{name}");
        assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{name}");
    }
    let unique: BTreeSet<&String> = names.iter().collect();
    assert_eq!(unique.len(), names.len());
    assert!(!valid_name("bad name"));
    assert!(!valid_name("exec/reuse"));
    assert!(!valid_name(".leading_dot"));
    assert!(!valid_name(""));
}

fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
    Span { name, start_ns, end_ns, parent, pass: 0 }
}

#[test]
fn self_time_subtracts_the_union_of_nested_and_overlapping_children() {
    let spans = [
        span("root", 0, 100, None),
        // Two overlapping children covering 10..50, and one disjoint.
        span("a", 10, 40, Some(0)),
        span("b", 30, 50, Some(0)),
        span("c", 70, 80, Some(0)),
        // A grandchild inside `a` counts against `a`, not against `root`.
        span("a.inner", 15, 25, Some(1)),
        // A child overhanging its parent is clipped to the parent.
        span("d", 90, 120, Some(0)),
        span("other", 200, 260, None),
    ];
    let self_ns = self_times_ns(&spans);
    assert_eq!(self_ns, vec![100 - 40 - 10 - 10, 30 - 10, 20, 10, 10, 30, 60]);
}

#[test]
fn tracer_links_children_to_parents_and_records_nothing_when_off() {
    let mut tracer = Tracer::new(true);
    tracer.set_pass(4);
    let value = tracer.span("outer", |t| t.span("inner", |_| 7) + t.span("inner", |_| 1));
    assert_eq!(value, 8);
    let spans = tracer.spans();
    assert_eq!(spans.len(), 3);
    assert_eq!(spans[0].parent, None);
    assert_eq!((spans[1].parent, spans[2].parent), (Some(0), Some(0)));
    assert!(spans.iter().all(|s| s.pass == 4 && s.end_ns >= s.start_ns));
    assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);

    let mut off = Tracer::new(false);
    assert_eq!(off.span("outer", |t| t.span("inner", |_| 3)), 3);
    assert!(off.spans().is_empty());
}

#[test]
fn the_same_seed_gives_identical_inputs_and_digests() {
    for workload in Workload::ALL {
        let a = inputs(workload, &Sizes::TINY, 11).unwrap();
        assert_eq!(a, inputs(workload, &Sizes::TINY, 11).unwrap());
        assert_ne!(a, inputs(workload, &Sizes::TINY, 12).unwrap(), "{}", workload.name());
        let first = run(&tiny(workload, 11, false, "digest-a")).unwrap();
        let second = run(&tiny(workload, 11, false, "digest-b")).unwrap();
        assert_eq!(first.digest, second.digest, "{}", workload.name());
    }
}

#[test]
fn vqa_inputs_parse_back_to_the_sweep_circuits() {
    let sizes = Sizes::TINY;
    let given = inputs(Workload::VqaCache, &sizes, 5).unwrap();
    let (_, sweep) =
        vqa_sweep(sizes.vqa_qubits, sizes.vqa_blocks, sizes.vqa_points, sizes.vqa_trials, 5);
    assert_eq!(given.circuits.len(), sweep.len());
    for (input, point) in given.circuits.iter().zip(&sweep) {
        let parsed = qsim_qasm::parse(&input.qasm).unwrap().layered().unwrap();
        assert!(parsed.layers().eq(point.layered.layers()), "{}", point.name);
        assert_eq!(parsed.measurements(), point.layered.measurements());
        assert_eq!(input.trials, TrialInput::Given(point.trials.clone()));
    }
}

#[test]
fn corrupted_outcomes_errors_and_wrong_stats_are_counted_as_failed() {
    let inputs = inputs(Workload::Qv14, &Sizes::TINY, 9).unwrap();
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("e2ebench-corrupt");
    let prepared = set_up(&inputs, &dir, &mut Tracer::new(false)).unwrap();
    let sim = &prepared.cases[0].sim;
    let want = sim.run_reordered().unwrap();
    let n = want.outcomes.len() as u64;
    let width = sim.layered().n_qubits();

    let mut tally = Tally::default();
    tally.compare("same", &Ok(want.clone()), &want, true);
    assert_eq!((tally.attempted, tally.failed), (n, 0));

    let mut corrupted = want.clone();
    let flipped = corrupted.outcomes[3].to_index() ^ 1;
    corrupted.outcomes[3] = MeasureOutcome::from_index(flipped, width);
    tally.compare("one flipped outcome", &Ok(corrupted), &want, true);
    assert_eq!((tally.attempted, tally.failed), (2 * n, 1));

    let mut wrong_stats = want.clone();
    wrong_stats.stats.amplitude_passes += 1;
    tally.compare("stats ignored", &Ok(wrong_stats.clone()), &want, false);
    assert_eq!(tally.failed, 1);
    tally.compare("stats checked", &Ok(wrong_stats), &want, true);
    assert_eq!(tally.failed, 1 + n);

    tally.compare("errored run", &Err(SimError::NoTrials), &want, true);
    assert_eq!((tally.attempted, tally.failed), (5 * n, 1 + 2 * n));
    assert_eq!(tally.notes.len(), 3);
    assert!(json_line(&tally, &[]).unwrap().starts_with("{\"correct\": false, "));
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn each_call_is_minimised_over_passes_and_the_minima_summed() {
    let mut spans = Vec::new();
    // Two calls per pass over three passes; each call's fastest pass counts.
    for (pass, (first, second)) in [(10, 300), (30, 100), (20, 200)].into_iter().enumerate() {
        let base = pass as u64 * 10_000;
        for (offset, len) in [(0, first), (1_000, second)] {
            let start_ns = base + offset;
            spans.push(Span {
                name: "x",
                start_ns,
                end_ns: start_ns + len,
                parent: None,
                pass: pass as u32,
            });
        }
    }
    assert!((best_self_secs(&spans, "x") - 110e-9).abs() < 1e-15);
    assert_eq!(best_self_secs(&spans, "absent"), 0.0);
    assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
    assert_eq!(median(Vec::new()), 0.0);
}

#[test]
fn the_host_factor_is_the_mean_gauge_sample_over_nominal() {
    let nominal = GAUGE_NOMINAL_S;
    assert!((host_factor(&[2.0 * nominal, 4.0 * nominal]) - 3.0).abs() < 1e-12);
    assert_eq!(host_factor(&[]), 1.0);
    let mut gauge = HostGauge::default();
    let secs = gauge.sample();
    assert!(secs > 0.0 && secs < 1.0, "one gauge sample took {secs} s");
}
