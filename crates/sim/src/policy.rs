//! Memory-controller queue policies.
//!
//! Historically every controller channel served strictly FIFO, so a
//! request's completion time was fixed the moment it was admitted and the
//! engine could schedule exact thread wake-ups from the enqueue path — no
//! controller-side events at all. That design wall made arbitration
//! disciplines such as read-over-write priority inexpressible: their
//! service order depends on requests that arrive **later**.
//!
//! This module removes the wall. Under an arbitrated discipline the
//! engine gives every controller its own `(next_tick, mc_id)` wake-ups in
//! the event queue and, each time a service slot opens, calls
//! [`read_first`] to pick the next request among those that have arrived
//! (see `engine.rs` and DESIGN.md §13).
//!
//! FIFO remains the pinned default, and it is special: because its
//! decision can never depend on later arrivals, the engine runs the
//! shared service step at admission instead of from an arbitration event
//! ([`PolicyKind::is_fifo`] is the one switch), so it never picks from a
//! queue at all. Its `SimStats` and probe stream are held bitwise by
//! `tests/policy_differential.rs`.
//!
//! # Determinism contract
//!
//! [`read_first`] is a pure function: a pick depends on the eligible
//! requests and the cap alone — no clocks, no randomness, no state, no
//! memory of earlier picks — so simulations stay bit-reproducible under
//! every policy.

use serde::Serialize;

/// Default starvation cap for reordering policies: a request may be
/// bypassed by younger requests at most this many times before the policy
/// is forced to serve it.
pub const DEFAULT_STARVATION_CAP: u32 = 8;

/// What a queued memory-controller transfer is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReqClass {
    /// A demand load miss: the issuing thread blocks on this line (subject
    /// to its outstanding-miss budget).
    DemandRead,
    /// A store miss's read-for-ownership: drains a TSO store-buffer entry;
    /// the thread blocks only when its buffer is full.
    StoreRfo,
    /// A dirty-line write-back from the L2's eviction buffers: no thread
    /// waits on it — which is exactly why deprioritizing it can pay.
    Writeback,
}

/// One request sitting in a controller's input queue, as a policy sees it.
#[derive(Debug, Clone)]
pub struct MemRequest {
    /// Global admission sequence number: strictly increasing in admission
    /// order across the whole simulation, so `id` order *is* age order.
    pub id: u64,
    /// Cycle the request reached the controller queue.
    pub arrival: u64,
    /// Transfer class.
    pub class: ReqClass,
    /// Issuing thread (`None` for write-backs).
    pub tid: Option<u32>,
    /// L2 bank whose miss buffer (MSHR) this request occupies
    /// (`None` for write-backs).
    pub bank: Option<usize>,
    /// How many times arbitration has served a *younger* request over this
    /// one. Maintained by the engine; policies only read it.
    pub bypassed: u32,
}

impl MemRequest {
    /// Reads use the northbound data channel (demand misses and RFOs);
    /// write-backs use only the southbound channel.
    pub fn is_read(&self) -> bool {
        !matches!(self.class, ReqClass::Writeback)
    }
}

/// Read-over-write priority, the one arbitrated discipline: picks the
/// index (into `eligible`) of the next request to service. Demand reads
/// and RFOs (which threads wait on) bypass queued write-backs (which
/// nothing waits on), oldest first within each class, until the oldest
/// request has been bypassed `cap` times; then it goes first.
///
/// `eligible` is non-empty and holds only requests that have arrived. The
/// engine calls this whenever a controller's southbound channel is free,
/// services the pick, and increments [`MemRequest::bypassed`] on every
/// older request passed over.
pub fn read_first(eligible: &[MemRequest], cap: u32) -> usize {
    // Index of the oldest (minimum-id) request, of all or of the reads.
    let oldest = |reads_only: bool| {
        (0..eligible.len())
            .filter(|&i| !reads_only || eligible[i].is_read())
            .min_by_key(|&i| eligible[i].id)
    };
    let old = oldest(false).expect("read_first needs a non-empty eligible slice");
    if eligible[old].bypassed >= cap {
        return old;
    }
    oldest(true).unwrap_or(old)
}

/// Configuration-level policy selector: which discipline the memory
/// controllers run. Part of [`crate::config::ChipConfig`]; the default is
/// [`PolicyKind::Fifo`], which preserves the pre-policy engine bitwise.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub enum PolicyKind {
    /// Strict arrival order (the calibrated default).
    #[default]
    Fifo,
    /// Reads (demand + RFO) over write-backs, with a starvation cap
    /// ([`read_first`]).
    ReadFirst {
        /// Maximum times a write-back may be bypassed.
        starvation_cap: u32,
    },
}

/// CLI names accepted by [`PolicyKind::parse`] (an optional `:N` suffix
/// overrides the starvation cap, e.g. `read-first:16`).
pub const POLICY_NAMES: &[&str] = &["fifo", "read-first"];

impl PolicyKind {
    /// Whether this is the FIFO discipline, which the engine services at
    /// admission and never arbitrates.
    pub fn is_fifo(&self) -> bool {
        matches!(self, PolicyKind::Fifo)
    }

    /// Canonical name (matches [`POLICY_NAMES`]).
    pub fn name(&self) -> &'static str {
        match self {
            PolicyKind::Fifo => "fifo",
            PolicyKind::ReadFirst { .. } => "read-first",
        }
    }

    /// The starvation cap, where the policy has one.
    pub fn starvation_cap(&self) -> Option<u32> {
        match self {
            PolicyKind::Fifo => None,
            PolicyKind::ReadFirst { starvation_cap } => Some(*starvation_cap),
        }
    }

    /// Parses a CLI spelling: `fifo`, or `read-first` optionally suffixed
    /// `:N` to set the starvation cap. `None` for unknown names or
    /// malformed caps.
    pub fn parse(s: &str) -> Option<PolicyKind> {
        let (name, cap) = match s.split_once(':') {
            Some((n, c)) => (n, Some(c.parse::<u32>().ok()?)),
            None => (s, None),
        };
        match name {
            // FIFO has no cap to configure; reject the suffix.
            "fifo" if cap.is_none() => Some(PolicyKind::Fifo),
            "read-first" => Some(PolicyKind::ReadFirst {
                starvation_cap: cap.unwrap_or(DEFAULT_STARVATION_CAP),
            }),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: u64, class: ReqClass) -> MemRequest {
        MemRequest {
            id,
            arrival: id,
            class,
            tid: None,
            bank: None,
            bypassed: 0,
        }
    }

    #[test]
    fn read_first_bypasses_writebacks_until_the_cap() {
        let mut eligible = vec![req(1, ReqClass::Writeback), req(2, ReqClass::DemandRead)];
        // The younger read goes first...
        assert_eq!(read_first(&eligible, 2), 1);
        // ...until the write-back has been bypassed `cap` times.
        eligible[0].bypassed = 2;
        assert_eq!(read_first(&eligible, 2), 0);
        // Among reads, and with no read to prefer, the oldest goes first.
        let eligible = vec![
            req(5, ReqClass::Writeback),
            req(4, ReqClass::StoreRfo),
            req(2, ReqClass::Writeback),
            req(3, ReqClass::DemandRead),
        ];
        assert_eq!(read_first(&eligible, 8), 3);
        assert_eq!(read_first(&[req(7, ReqClass::Writeback)], 8), 0);
    }

    #[test]
    fn kind_parses() {
        assert_eq!(PolicyKind::parse("fifo"), Some(PolicyKind::Fifo));
        assert_eq!(
            PolicyKind::parse("read-first"),
            Some(PolicyKind::ReadFirst {
                starvation_cap: DEFAULT_STARVATION_CAP
            })
        );
        assert_eq!(
            PolicyKind::parse("read-first:16"),
            Some(PolicyKind::ReadFirst { starvation_cap: 16 })
        );
        for rejected in [
            "fifo:3",
            "lifo",
            "read-first:",
            "read-first:x",
            "read-over-write",
            "fr-fcfs",
            "fr-fcfs:16",
        ] {
            assert_eq!(PolicyKind::parse(rejected), None, "{rejected:?}");
        }
        // Every accepted spelling round-trips: its name part is the
        // kind's canonical name, and name plus cap parses back to it.
        for spelling in ["fifo", "read-first", "read-first:0", "read-first:16"] {
            let kind = PolicyKind::parse(spelling).expect("accepted spelling");
            let name = spelling.split_once(':').map_or(spelling, |(n, _)| n);
            assert_eq!(kind.name(), name);
            let label = match kind.starvation_cap() {
                Some(cap) => format!("{name}:{cap}"),
                None => name.to_string(),
            };
            assert_eq!(PolicyKind::parse(&label), Some(kind));
        }
        for name in POLICY_NAMES {
            let kind = PolicyKind::parse(name).expect("registry name parses");
            assert_eq!(kind.name(), *name);
        }
        assert!(PolicyKind::default().is_fifo());
    }
}
