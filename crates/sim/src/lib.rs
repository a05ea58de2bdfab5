//! # dcdb-sim
//!
//! The simulated HPC substrate behind the dcdb-rs evaluation.
//!
//! The paper evaluates DCDB on three production systems at LRZ (SuperMUC-NG,
//! CooLMUC-2, CooLMUC-3), against the HPL and CORAL-2 benchmarks, with data
//! sources ranging from `/proc` files to IPMI BMCs, SNMP agents and the
//! building-management system.  None of that hardware is available here, so
//! this crate implements the closest synthetic equivalents that exercise the
//! same code paths:
//!
//! * [`clock`] — a virtual nanosecond clock with per-node drift and NTP-style
//!   resynchronisation (paper §4.1 synchronises Pushers via NTP),
//! * [`arch`] — parameterised architecture models of the three systems
//!   (Skylake, Haswell, Knights Landing) including per-sensor read costs and
//!   single-thread performance factors,
//! * [`workloads`] — phase-based application models of HPL and the CORAL-2
//!   suite (AMG, LAMMPS, Kripke, Quicksilver) with per-interval instruction
//!   and power traces,
//! * [`devices`] — synthetic data sources that *emit the real formats* the
//!   Pusher plugins parse: `/proc` text files, sysfs value files, perf
//!   counters, IPMI sensor records, an SNMP OID tree, BACnet objects, GPFS
//!   and Omni-Path counters, a REST endpoint and the warm-water cooling
//!   circuit of the CooLMUC-3 case study,
//! * [`overhead`] — the interference model that maps Pusher activity to
//!   application slowdown (compute competition + network interference),
//! * [`node`] — a simulated compute node tying the above together.

pub mod arch;
pub mod clock;
pub mod devices;
pub mod node;
pub mod overhead;
pub mod workloads;

pub use arch::{Arch, ArchSpec};
pub use clock::{NodeClock, SimClock, NS_PER_MS, NS_PER_SEC};
pub use node::SimNode;
pub use workloads::{Workload, WorkloadSpec};
