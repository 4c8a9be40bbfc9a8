//! Hermetic test infrastructure for the Duplo workspace.
//!
//! The workspace builds and tests fully offline: no crates.io dependency is
//! ever pulled. This crate supplies, in-tree, the three pieces the test
//! suite needs from the outside world:
//!
//! * [`rng`] — a seedable, deterministic PRNG (SplitMix64-seeded
//!   xoshiro256++) with the `gen_range` / `shuffle` / `fill_bytes` surface
//!   the crates use for randomized fixtures,
//! * [`prop`] — a minimal property-testing runner
//!   ([`prop::check`]) with fixed-seed case generation, failure-case
//!   shrinking over the underlying choice tape, and an environment
//!   seed override (`DUPLO_TEST_SEED`),
//! * [`diff`] — byte-precise document comparison for differential tests
//!   (first-divergence location, caret-annotated failure reports).
//!
//! # Determinism
//!
//! Every randomized test in the workspace derives all of its randomness
//! from a single per-property seed, which defaults to a fixed constant and
//! can be overridden with `DUPLO_TEST_SEED=<u64>`. Two runs with the same
//! seed generate the same cases in the same order.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diff;
pub mod prop;
pub mod rng;

pub use rng::Rng;
