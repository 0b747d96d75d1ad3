//! The simulated out-of-order x86 core for the nanoBench reproduction.
//!
//! This crate provides the microarchitectural substrate of case study I
//! (§V of the paper): execution ports and per-microarchitecture port
//! assignments ([`port`]), instruction descriptors with µop decomposition
//! and latencies ([`descriptor`]), architectural state ([`state`]),
//! functional execution ([`exec`]), a persistent branch predictor
//! ([`bpred`]), decode-once execution plans ([`plan`]), and the dataflow
//! timing engine ([`engine`]) that ties them together with LFENCE/CPUID
//! serialization semantics (§IV-A1), AVX warm-up, and user-mode interrupt
//! injection. The engine interprets pre-decoded plans so its steady-state
//! loop performs no per-instruction analysis or allocation.
//!
//! The environment (memory, caches, privilege, MSRs) is abstracted by the
//! [`bus::Bus`] trait and implemented by `nanobench-machine`.

#![warn(missing_docs)]

pub mod bpred;
pub mod bus;
pub mod descriptor;
#[cfg(test)]
mod differential;
pub mod engine;
pub mod exec;
pub mod plan;
pub mod port;
pub mod state;

pub use bpred::BranchPredictor;
pub use bus::{Bus, CpuFault, InterruptEvent};
pub use descriptor::{DescriptorTable, InstrDesc, PortClass, UopSpec};
pub use engine::{Engine, RunContext, RunStats};
pub use plan::{verify_plan, DecodedProgram, PlanRule, PlanViolation};
pub use port::{MicroArch, PortConfig, PortSet};
pub use state::CpuState;
