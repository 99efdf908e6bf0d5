//! The benchmark's own tests: each workload at a tiny size.
//!
//! ```text
//! cargo test --release --offline --manifest-path pipebench/Cargo.toml
//! ```

use std::path::PathBuf;

use pipebench::bench::{end_to_end, per_layer, Options};
use pipebench::metrics::{Def, Report, END_TO_END, PER_LAYER};
use pipebench::probe::run_traced;
use pipebench::run::{run_pass, SLICES};
use pipebench::workload::{Spec, Workload};

/// A per-test directory under Cargo's scratch area for integration tests.
fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).expect("create test scratch dir");
    dir
}

/// The workload cut down to a short window and two replicas.
fn tiny(w: Workload) -> Spec {
    let hours = match w {
        Workload::Testbed18 => 4.0,
        Workload::Grid1000 => 0.3,
        Workload::Churn300Journal => 1.0,
    };
    w.spec().with_hours(hours).with_replicas(2)
}

fn assert_emits(report: &Report, catalogue: &[Def]) {
    assert_eq!(report.missing(catalogue), Vec::<&str>::new());
    assert_eq!(
        report.values.len(),
        catalogue.len(),
        "no undeclared metrics"
    );
    let json = report.to_json();
    for d in catalogue {
        let v = report.get(d.name).unwrap();
        assert!(v.is_finite(), "{} = {v}", d.name);
        assert!(
            json.contains(&format!("\"{}\": {{\"value\": ", d.name))
                && json.contains(&format!("\"unit\": \"{}\"}}", d.unit)),
            "{} with its unit {} in {json}",
            d.name,
            d.unit
        );
    }
    assert!(
        json.starts_with(&format!(
            "{{\"correct\": {}, \"attempted\": ",
            report.correct
        )),
        "{json}"
    );
}

/// `churn300_journal` is not deterministic on the current library:
/// `CrossBroker::reconcile_rejoined_site` polls a rejoined site's stranded
/// jobs in `HashMap` order, so two runs of one seed can finish a job a few
/// milliseconds apart. Its digest gate therefore may fail; every other
/// check must hold.
fn has_known_defect(w: Workload) -> bool {
    w == Workload::Churn300Journal
}

fn assert_correct(w: Workload, report: &Report) {
    if has_known_defect(w) {
        let other: Vec<&String> = report
            .failures
            .iter()
            .filter(|f| !f.contains(" digest "))
            .collect();
        assert!(other.is_empty(), "{}: {other:?}", w.name());
    } else {
        assert!(report.correct, "{}: {:?}", w.name(), report.failures);
    }
}

#[test]
fn every_workload_emits_every_metric_with_its_unit() {
    for w in Workload::ALL {
        let opts = Options {
            spec: tiny(w),
            seed: 7,
            seconds: 0.0,
            scratch: scratch(&format!("emit-{}", w.name())),
            spans_out: scratch(&format!("emit-{}", w.name())).join("spans.jsonl"),
        };
        let e2e = end_to_end(&opts);
        assert_correct(w, &e2e);
        assert!(e2e.attempted > 0, "{}", w.name());
        assert_emits(&e2e, END_TO_END);

        let layers = per_layer(&opts);
        assert_correct(w, &layers);
        assert_emits(&layers, PER_LAYER);
        let spans = std::fs::read_to_string(&opts.spans_out).expect("spans written");
        assert!(
            spans.starts_with("{\"id\":0,\"name\":\"run\""),
            "{}",
            w.name()
        );
        assert!(spans.contains("\"name\":\"submit\""), "{}", w.name());
    }
}

#[test]
fn digest_repeats_for_a_seed_and_differs_for_another() {
    let spec = tiny(Workload::Testbed18);
    let dir = scratch("digest");
    let a = run_pass(spec, 11, &dir, None);
    let b = run_pass(spec, 11, &dir, None);
    let c = run_pass(spec, 12, &dir, None);
    assert_eq!(a.digest, b.digest);
    assert_ne!(a.digest, c.digest);
    assert_ne!(
        Spec::replica_seed(11, 0),
        Spec::replica_seed(11, 1),
        "replicas are independent"
    );
}

/// Same-seed determinism of `churn300_journal` at its benchmark size. Fails
/// on the current library (see [`has_known_defect`]); run it with
/// `--ignored` once the broker polls stranded jobs in a fixed order.
#[test]
#[ignore = "known library defect: reconcile_rejoined_site polls stranded jobs in HashMap order"]
fn churn_digest_repeats_for_a_seed() {
    let spec = Workload::Churn300Journal.spec();
    let dir = scratch("churn-digest");
    for r in 0..spec.replicas {
        let seed = Spec::replica_seed(1, r);
        let first = run_pass(spec, seed, &dir, None).digest;
        assert_eq!(
            run_pass(spec, seed, &dir, None).digest,
            first,
            "replica {r}"
        );
    }
}

#[test]
fn jobs_are_conserved_on_every_workload() {
    for w in Workload::ALL {
        let pass = run_pass(
            tiny(w),
            3,
            &scratch(&format!("conserve-{}", w.name())),
            None,
        );
        let o = pass.outcomes;
        assert!(o.submitted > 0, "{}", w.name());
        assert_eq!(pass.conservation, Vec::<String>::new(), "{}", w.name());
        assert_eq!(
            o.done + o.failed + o.rejected + o.cancelled + o.nonterminal,
            o.submitted
        );
        assert_eq!(pass.stats.submitted, o.submitted, "{}", w.name());
        assert_eq!(pass.drained.window_s.len() as u64, SLICES);
        assert!(pass.drained.window_terminal <= o.submitted);
        assert!(pass.peak_heap_mb > 0.0, "the pipeline's heap is counted");
    }
}

#[test]
fn traced_probes_leave_the_digest_unchanged() {
    for w in Workload::ALL {
        let dir = scratch(&format!("traced-{}", w.name()));
        let plain = run_pass(tiny(w), 5, &dir, None);
        let traced = run_traced(tiny(w), 5, &dir);
        if !has_known_defect(w) {
            assert_eq!(plain.digest, traced.pass.digest, "{}", w.name());
        }
        let spans = traced.tracer.spans();
        let submits = spans.iter().filter(|s| s.name == "submit").count() as u64;
        assert_eq!(submits, plain.outcomes.submitted, "one submit span per job");
        assert!(
            traced.event_gaps.count() + 1 >= plain.events,
            "{}",
            w.name()
        );
    }
}

#[test]
fn benchmark_json_lists_exactly_the_catalogue() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for d in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!(
            "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
            d.name,
            d.unit,
            d.better.word()
        );
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for w in Workload::ALL {
        assert_eq!(
            json.contains(&format!("{{\"name\": \"{}\", \"why\": ", w.name())),
            Workload::LISTED.contains(&w),
            "{} listed",
            w.name()
        );
    }
    let names = json.matches("\"name\": ").count();
    assert_eq!(
        names,
        Workload::LISTED.len() + END_TO_END.len() + PER_LAYER.len(),
        "no other workloads or metrics"
    );
}
