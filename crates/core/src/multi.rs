//! Compatibility alias. Multi-query sets are [`crate::CompiledNetwork`]s
//! built by the `spex-combine` combiner.

// `benchmark/trace` names this type; the next `benchmark` PR drops it.
#[doc(hidden)]
pub type SharedQuerySet = crate::CompiledNetwork;
