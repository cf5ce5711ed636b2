#![forbid(unsafe_code)]
//! # sws-lint — the workspace invariant linter
//!
//! The correctness story of this workspace rests on invariants the
//! compiler cannot see: bit-identical kernel results depend on every
//! f64 comparison routing through `sws_model::numeric`, the
//! fault-tolerant service runtime depends on panic-free non-test code
//! and poison-recovering mutex acquisition, and the allocation-free
//! kernel contract has no guard at all. `sws-lint` enforces them
//! statically, on every PR, with a hand-rolled tokenizer (the
//! workspace builds offline — no `syn`) and a brace/`#[cfg(test)]`-
//! aware region tracker.
//!
//! Rules:
//!
//! * **panic-policy** — no `unwrap()`/`expect()`/`panic!`/
//!   `unreachable!`/`todo!`/`unimplemented!`/slice indexing in
//!   non-test code of `crates/service`, `crates/simulator`,
//!   `crates/core/src/dispatch.rs` and `crates/dag/src/graph.rs`;
//! * **lock-discipline** — in `crates/service`, every mutex
//!   acquisition goes through the poison-recovering `lock()` helper
//!   (or recovers inline), plus a lock-order graph whose cycles are
//!   flagged as potential deadlocks;
//! * **float-discipline** — no raw f64 comparisons or
//!   `partial_cmp`/`total_cmp` calls in `crates/core`/`crates/listsched`
//!   outside `sws_model::numeric`;
//! * **hot-path-alloc** — no allocation calls inside
//!   `// sws-lint: hot-path` regions.
//!
//! Violations are suppressed, with a mandatory reason, by
//! `// sws-lint: allow(<rule>, reason = "…")` directives; stale or
//! malformed directives are violations themselves. See
//! `docs/STATIC_ANALYSIS.md` for the full catalogue.
//!
//! Run as `cargo run -p sws-lint -- --ci` (exit 0 clean, 1 violations,
//! 2 usage/IO error) or drive [`engine::lint_source`] directly from
//! tests.

pub mod diag;
pub mod directives;
pub mod engine;
pub mod lexer;
pub mod regions;
pub mod rules;

pub use diag::{Diagnostic, Report};
pub use engine::{lint_source, run};
