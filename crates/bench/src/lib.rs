//! # dcdb-bench
//!
//! The evaluation harness: one experiment module per table/figure of the
//! paper (§6–§7), each with a `run()` returning structured results and a
//! report binary printing the same rows/series the paper plots.  Integration
//! tests assert the *shape* of every result (who wins, by what factor, where
//! crossovers fall).
//!
//! | Paper artefact | Module | Binary |
//! |---|---|---|
//! | Table 1 (production overhead)            | [`experiments::table1`] | `table1` |
//! | Fig. 4 (CORAL-2 weak scaling)            | [`experiments::fig4`]   | `fig4`   |
//! | Fig. 5 (overhead heat maps)              | [`experiments::fig5`]   | `fig5`   |
//! | Fig. 6 (Pusher CPU load / memory)        | [`experiments::fig6`]   | `fig6`   |
//! | Fig. 7 + Eq. 1 (CPU load scaling model)  | [`experiments::fig7`]   | `fig7`   |
//! | Fig. 8 (Collect Agent scalability)       | [`experiments::fig8`]   | `fig8`   |
//! | Fig. 9 (heat-removal case study)         | [`experiments::fig9`]   | `fig9`   |
//! | Fig. 10 (application characterisation)   | [`experiments::fig10`]  | `fig10`  |
//! | Design ablations                         | [`experiments::ablations`] | `ablations` |
//! | Compression study (dcdb-compress)        | [`experiments::compression`] | `compression` |
//! | Query pushdown study (dcdb-query)        | [`experiments::query`] | `query` |
//! | Hot-block cache study (dcdb-store)       | [`experiments::cache`] | `cache` |
//! | Background-maintenance study (dcdb-store) | [`experiments::maintenance`] | `maintenance` |
//! | Observability-overhead study (dcdb-obs)  | [`experiments::obs`] | `obs` |
//! | Alert-engine-overhead study (dcdb-core)  | [`experiments::alerts`] | `alerts` |

pub mod experiments;
pub mod kde;
pub mod report;
