#![warn(missing_docs)]

//! Proxy cache substrate for the summary-cache reproduction.
//!
//! The paper's simulations (Section II) use byte-capacity LRU caches with
//! two policy rules taken from real proxies of the era:
//!
//! * documents larger than 250 KB are not cached;
//! * cache consistency is modelled as perfect — a request that hits a
//!   document whose last-modified time or size has changed counts as a
//!   miss (the cached copy is *stale*).
//!
//! [`WebCache`] is the one store, shared by the simulators and the live
//! proxy: LRU unless built with another [`Policy`] (LFU, SIZE or
//! GreedyDual-Size, for Section III's replacement caveat).

pub mod policy;
pub mod web;

pub use policy::Policy;
pub use web::{DocMeta, Lookup, WebCache, MAX_CACHEABLE_BYTES};

/// [`WebCache`] under its default policy, LRU.
#[cfg(test)]
mod lru {
    mod tests;
}
