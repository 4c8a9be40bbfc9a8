//! Full-registry equivalence gate for the event-driven SM loop, run in CI
//! release builds (`--ignored`): every registered experiment's rendered
//! table and structured result must be byte-identical between the
//! event-driven wakeup-wheel loop and the tick-by-tick reference.
//!
//! `scripts/ci.sh` runs it flat and at `DUPLO_L2_SLICES=4`: the base
//! options come from `RunOptions::from_env`, and each run picks its loop
//! with `RunOptions::tick_reference`.

use duplo_sim::experiments::{RunOptions, registry};

#[test]
#[ignore = "full registry x2 — run in release via scripts/ci.sh"]
fn every_experiment_matches_reference_loop() {
    let event = RunOptions {
        sample_ctas: Some(2),
        no_cache: true,
        tick_reference: false,
        ..RunOptions::from_env().expect("valid DUPLO_* environment")
    };
    let reference = RunOptions {
        tick_reference: true,
        ..event.clone()
    };
    for spec in registry() {
        let e = (spec.run)(&event);
        let r = (spec.run)(&reference);
        assert_eq!(
            e.rendered, r.rendered,
            "{}: rendered table diverged",
            spec.name
        );
        assert_eq!(
            e.result.to_json().to_pretty(),
            r.result.to_json().to_pretty(),
            "{}: structured result diverged",
            spec.name
        );
    }
}
