//! Best-effort cache synchronization with source cooperation.
//!
//! A production-grade reproduction of **Olston & Widom, SIGMOD 2002**: in
//! environments where bandwidth cannot keep cached copies exactly
//! synchronized with remote sources, refreshes must be *selected*, and the
//! paper shows how sources and the cache can cooperate to pick them.
//!
//! The library has three layers:
//!
//! * **Priority policies** ([`priority`]) — the paper's refresh priority
//!   function (the weighted area *above* the divergence curve since the
//!   last refresh, §3.3–§4), its Poisson closed forms (§3.4), the naive
//!   weighted-divergence baseline it is validated against (§4.3), and the
//!   divergence-bound variant (§9).
//! * **Runtimes** — per-source state ([`source`]): an in-place indexed
//!   priority heap ([`heap::IndexedMaxHeap`], the priority face of the
//!   workspace-wide `besync_sim::IndexedHeap`), the adaptive local
//!   refresh threshold (§5, [`threshold`]), saturation tracking, and
//!   sampling-based priority monitors (§8); and the cache side
//!   ([`cache`]): positive-feedback targeting and the competitive
//!   bandwidth partitioning of §7.
//! * **Simulations** — [`system::CoopSystem`] wires sources, the shared
//!   cache-side link, and a workload into the full pragmatic algorithm of
//!   §5, and [`ideal::IdealSystem`] implements the omniscient scheduler of
//!   §3.3 that defines "theoretically achievable" divergence in Figures
//!   4–6. Both — plus the §7 [`competitive::CompetitiveSystem`] and the
//!   CGM baselines in `besync_baselines` — are models driven by the one
//!   event loop in [`kernel`]; the systems that send refresh messages
//!   deliver them through [`delivery`].
//!
//! # Quick example
//!
//! ```
//! use besync::config::SystemConfig;
//! use besync::system::CoopSystem;
//! use besync_data::Metric;
//! use besync_workloads::generators::{random_walk_poisson, PoissonWorkloadOptions};
//!
//! let spec = random_walk_poisson(PoissonWorkloadOptions::default(), 42);
//! let cfg = SystemConfig {
//!     metric: Metric::Staleness,
//!     cache_bandwidth_mean: 20.0,
//!     warmup: 50.0,
//!     measure: 200.0,
//!     ..SystemConfig::default()
//! };
//! let report = CoopSystem::new(cfg, spec).run();
//! assert!(report.divergence.mean_unweighted <= 1.0);
//! ```

pub mod cache;
pub mod competitive;
pub mod config;
pub mod delivery;
pub mod fault;
pub mod heap;
pub mod ideal;
pub mod kernel;
pub mod priority;
pub mod report;
pub mod source;
pub mod system;
pub mod threshold;

pub use config::SystemConfig;
pub use fault::{FaultProfile, FaultSummary, RecoveryPolicy};
pub use ideal::IdealSystem;
pub use report::RunReport;
pub use system::CoopSystem;
