//! Regression test for the `TraceEntry.elapsed_sec` determinism leak.
//!
//! Convergence traces stamp raw host wall-clock, so two *identical* solver
//! runs produce traces that compare unequal (every other field is a pure
//! function of the inputs). `zero_wall_clock`/`zero_elapsed` scrub exactly
//! that field — after scrubbing, identical runs must be identical, which is
//! the same contract the `--deterministic` report path honours for its wall
//! fields.

use nadmm_linalg::gen;
use nadmm_objective::Quadratic;
use nadmm_solver::{NewtonCg, NewtonConfig};

fn problem() -> Quadratic {
    let mut rng = gen::seeded_rng(42);
    let a = gen::spd_with_condition(8, 50.0, &mut rng);
    let b = gen::gaussian_vector(8, &mut rng);
    Quadratic::new(a, b)
}

#[test]
fn newton_traces_are_identical_after_zeroing_wall_clock() {
    let q = problem();
    let solver = NewtonCg::new(NewtonConfig::default());
    let mut a = solver.minimize(&q, &[0.1; 8]);
    let mut b = solver.minimize(&q, &[0.1; 8]);
    assert!(a.iterations > 0, "test needs a non-trivial run");
    a.zero_wall_clock();
    b.zero_wall_clock();
    assert!(
        a.trace.entries().iter().all(|e| e.elapsed_sec == 0.0),
        "zero_wall_clock must zero every elapsed stamp"
    );
    assert_eq!(
        a.trace, b.trace,
        "identical runs must have identical traces once wall clock is scrubbed"
    );
    assert_eq!(a.x, b.x, "iterates are deterministic regardless");
}

#[test]
fn zero_elapsed_touches_only_the_wall_field() {
    let q = problem();
    let solver = NewtonCg::new(NewtonConfig::default());
    let reference = solver.minimize(&q, &[0.1; 8]);
    let mut scrubbed = reference.clone();
    scrubbed.zero_wall_clock();
    assert_eq!(scrubbed.trace.len(), reference.trace.len());
    for (s, r) in scrubbed.trace.entries().iter().zip(reference.trace.entries()) {
        assert_eq!(s.iteration, r.iteration);
        assert_eq!(s.value, r.value);
        assert_eq!(s.grad_norm, r.grad_norm);
        assert_eq!(s.elapsed_sec, 0.0);
    }
}
