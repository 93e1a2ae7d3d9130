//! Workspace umbrella crate: re-exports for examples and integration tests.
//!
//! See the individual crates for the real functionality:
//! `ebbrt-core`, `ebbrt-sim`, `ebbrt-net`, `ebbrt-hosted`,
//! `ebbrt-apps`, `ebbrt-bench`.

pub use ebbrt_apps as apps;
pub use ebbrt_core as core;
pub use ebbrt_hosted as hosted;
pub use ebbrt_net as net;
pub use ebbrt_sim as sim;
