//! Set-associative cache models, replacement policies, hardware prefetchers
//! and the three-level cache hierarchy used by the Virtuoso baseline system
//! (Table 4 of the paper: 32 KB L1 I/D, 2 MB L2 with SRRIP and a stream
//! prefetcher, 2 MB/core L3).
//!
//! The cache models are *timing generating*: a lookup returns whether the
//! line hit and at which level, and the hierarchy translates that into an
//! access latency plus the list of cache-line fills that must be fetched
//! from DRAM. Page-table entries can also be cached in the data caches
//! (as real MMUs do), which is what lets the framework capture the
//! "PT data volume in caches" dynamic effect the paper highlights.
//!
//! # Examples
//!
//! ```
//! use cache_sim::{CacheConfig, CacheHierarchy, HierarchyConfig};
//! use vm_types::{AccessType, PhysAddr, Requestor};
//!
//! let mut hierarchy = CacheHierarchy::new(HierarchyConfig::paper_baseline());
//! let result = hierarchy.access(PhysAddr::new(0x1000), AccessType::Read, Requestor::Application);
//! assert!(result.needs_dram()); // cold miss goes to memory
//! let again = hierarchy.access(PhysAddr::new(0x1000), AccessType::Read, Requestor::Application);
//! assert!(!again.needs_dram()); // now it hits
//! ```

#![deny(missing_docs)]

pub mod cache;
pub mod hierarchy;
pub mod prefetch;
pub mod replacement;

pub use cache::{Cache, CacheConfig, CacheStats, LookupResult, MissSlot, Probe};
pub use hierarchy::{
    CacheHierarchy, DramFetchList, HierarchyAccess, HierarchyConfig, HierarchyStats, Level,
    WritebackList,
};
pub use prefetch::{IpStridePrefetcher, PrefetchTargets, Prefetcher, StreamPrefetcher};
pub use replacement::ReplacementPolicy;
