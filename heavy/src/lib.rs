//! Umbrella package for the workspace's *network-dependent* test tooling:
//! the proptest property suites (`tests/`).
//!
//! The root workspace carries zero external dependencies so that the
//! tier-1 gate (`cargo build --release && cargo test -q`) runs with no
//! network and an empty registry. This package is excluded from the
//! workspace and gates its one external crate behind a non-default
//! feature:
//!
//! ```text
//! cd heavy && cargo test --features proptest      # property suites
//! ```
//!
//! With the feature off every target in this package compiles to an
//! empty stub, so `cargo check` inside `heavy/` still works offline once
//! a lockfile exists.
