//! Workspace facade for the UVLLM reproduction.
//!
//! This package carries the `uvllm` binary (`src/bin/uvllm.rs`) and
//! gives the repository-level `examples/`, `benches/` and `tests/` a
//! package to live in; the real functionality is in the `crates/`
//! members (see the root `README.md` for the crate map).

pub use uvllm::*;
