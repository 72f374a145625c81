//! Helpers shared by the integration suites (`mod common;` in each).

pub mod scc;
