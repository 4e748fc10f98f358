//! Pluggable memory-controller queue policies.
//!
//! Historically every controller channel served strictly FIFO, so a
//! request's completion time was fixed the moment it was admitted and the
//! engine could schedule exact thread wake-ups from the enqueue path — no
//! controller-side events at all. That design wall made the *interesting*
//! arbitration disciplines — FR-FCFS row-hit reordering, read-over-write
//! priority — inexpressible: their service order depends on requests that
//! arrive **later**.
//!
//! This module is the seam that removes the wall. A [`QueuePolicy`]
//! inspects the controller's pending requests at an arbitration instant
//! and picks the next one to service; the engine gives every controller
//! its own `(next_tick, mc_id)` wake-ups in the event queue and calls the
//! policy each time a service slot opens (see `engine.rs` and DESIGN.md
//! §13).
//!
//! FIFO remains the pinned default, and it is special: because its
//! decision can never depend on later arrivals, the engine runs the
//! shared service step at admission instead of from an arbitration event
//! ([`PolicyKind::is_fifo`] is the one switch). Its `SimStats` and probe
//! stream are held bitwise by `tests/policy_differential.rs`.
//!
//! # Determinism contract
//!
//! Policies must be deterministic functions of the request sequence they
//! observe: no clocks, no randomness, no global state. A policy may keep
//! internal state (FR-FCFS keeps the open DRAM row), but that state must
//! be rebuilt identically by an identical run — simulations stay
//! bit-reproducible under every policy.

use serde::{Deserialize, Serialize};

/// DRAM row size assumed by row-aware policies (FR-FCFS): requests within
/// the same aligned 4 KiB block of one controller's address space count as
/// row hits. The T2's FB-DIMM rows were larger; 4 KiB is the conservative
/// page-sized choice and is what keeps row locality meaningful under the
/// 512 B controller interleave.
pub const DRAM_ROW_BYTES: u64 = 4096;

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
    /// Line address (for row / locality decisions).
    pub addr: u64,
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

    /// The DRAM row this request falls in (see [`DRAM_ROW_BYTES`]).
    pub fn row(&self) -> u64 {
        self.addr / DRAM_ROW_BYTES
    }
}

/// A memory-controller arbitration discipline.
///
/// The engine instantiates one policy object **per controller** (policies
/// may keep per-controller state such as the open row) and calls
/// [`QueuePolicy::select`] whenever the controller's southbound channel is
/// free and at least one admitted request has arrived. The selected
/// request is then serviced, [`QueuePolicy::on_service`] is invoked, and
/// the engine increments [`MemRequest::bypassed`] on every older request
/// that was passed over.
///
/// ## What a policy may observe and mutate
///
/// * Observe: the pending slice (ages, classes, addresses, bypass counts)
///   and the current cycle. Nothing else — no channel timelines, no other
///   controllers, no thread state.
/// * Mutate: only its own internal state, and only from `on_service` /
///   `reset`. `select` takes `&mut self` for bookkeeping but must be
///   deterministic and side-effect-free with respect to the choice it
///   returns.
pub trait QueuePolicy {
    /// Human-readable policy name (CLI/JSON label).
    fn name(&self) -> &'static str;

    /// Picks the index (into `pending`) of the next request to service.
    /// `pending` is non-empty and every element has `arrival <= now`.
    fn select(&mut self, pending: &[MemRequest], now: u64) -> usize;

    /// Informs the policy that `req` was just serviced.
    fn on_service(&mut self, _req: &MemRequest) {}

    /// Clears internal state (fresh controller).
    fn reset(&mut self) {}
}

/// Index of the oldest (minimum-id) request.
fn oldest(pending: &[MemRequest]) -> usize {
    pending
        .iter()
        .enumerate()
        .min_by_key(|(_, r)| r.id)
        .map(|(i, _)| i)
        .expect("select called with a non-empty pending slice")
}

/// First-in first-out: the pinned default, service order = arrival order.
#[derive(Debug, Default, Clone)]
pub struct FifoPolicy;

impl QueuePolicy for FifoPolicy {
    fn name(&self) -> &'static str {
        "fifo"
    }

    fn select(&mut self, pending: &[MemRequest], _now: u64) -> usize {
        oldest(pending)
    }
}

/// Read-over-write priority: demand reads and RFOs (which threads wait on)
/// bypass queued write-backs (which nothing waits on), FIFO within each
/// class, bounded by the starvation cap.
#[derive(Debug, Clone)]
pub struct ReadOverWritePolicy {
    cap: u32,
}

impl ReadOverWritePolicy {
    /// A read-over-write policy with the given starvation cap.
    pub fn new(cap: u32) -> Self {
        ReadOverWritePolicy { cap }
    }
}

impl QueuePolicy for ReadOverWritePolicy {
    fn name(&self) -> &'static str {
        "read-first"
    }

    fn select(&mut self, pending: &[MemRequest], _now: u64) -> usize {
        let old = oldest(pending);
        if pending[old].bypassed >= self.cap {
            return old;
        }
        pending
            .iter()
            .enumerate()
            .filter(|(_, r)| r.is_read())
            .min_by_key(|(_, r)| r.id)
            .map(|(i, _)| i)
            .unwrap_or(old)
    }
}

/// First-ready FCFS: requests hitting the controller's open DRAM row are
/// served before row misses (oldest first within each group), bounded by
/// the starvation cap. The open row tracks the last serviced request.
#[derive(Debug, Clone)]
pub struct FrFcfsPolicy {
    cap: u32,
    open_row: Option<u64>,
}

impl FrFcfsPolicy {
    /// An FR-FCFS policy with the given starvation cap.
    pub fn new(cap: u32) -> Self {
        FrFcfsPolicy {
            cap,
            open_row: None,
        }
    }
}

impl QueuePolicy for FrFcfsPolicy {
    fn name(&self) -> &'static str {
        "fr-fcfs"
    }

    fn select(&mut self, pending: &[MemRequest], _now: u64) -> usize {
        let old = oldest(pending);
        if pending[old].bypassed >= self.cap {
            return old;
        }
        let Some(row) = self.open_row else {
            return old;
        };
        pending
            .iter()
            .enumerate()
            .filter(|(_, r)| r.row() == row)
            .min_by_key(|(_, r)| r.id)
            .map(|(i, _)| i)
            .unwrap_or(old)
    }

    fn on_service(&mut self, req: &MemRequest) {
        self.open_row = Some(req.row());
    }

    fn reset(&mut self) {
        self.open_row = None;
    }
}

/// Configuration-level policy selector: which [`QueuePolicy`] each memory
/// controller runs. Part of [`crate::config::ChipConfig`]; the default is
/// [`PolicyKind::Fifo`], which preserves the pre-policy engine bitwise.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum PolicyKind {
    /// Strict arrival order (the calibrated default).
    #[default]
    Fifo,
    /// Reads (demand + RFO) over write-backs, with a starvation cap.
    ReadFirst {
        /// Maximum times a write-back may be bypassed.
        starvation_cap: u32,
    },
    /// FR-FCFS row-hit-first reordering, with a starvation cap.
    FrFcfs {
        /// Maximum times a row-miss request may be bypassed.
        starvation_cap: u32,
    },
}

/// CLI names accepted by [`PolicyKind::parse`] (an optional `:N` suffix
/// overrides the starvation cap, e.g. `fr-fcfs:16`).
pub const POLICY_NAMES: &[&str] = &["fifo", "read-first", "fr-fcfs"];

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
            PolicyKind::FrFcfs { .. } => "fr-fcfs",
        }
    }

    /// The starvation cap, where the policy has one.
    pub fn starvation_cap(&self) -> Option<u32> {
        match self {
            PolicyKind::Fifo => None,
            PolicyKind::ReadFirst { starvation_cap } | PolicyKind::FrFcfs { starvation_cap } => {
                Some(*starvation_cap)
            }
        }
    }

    /// Parses a CLI spelling: `fifo`, `read-first`, `fr-fcfs`, optionally
    /// suffixed `:N` to set the starvation cap. `None` for unknown names
    /// or malformed caps.
    pub fn parse(s: &str) -> Option<PolicyKind> {
        let (name, cap) = match s.split_once(':') {
            Some((n, c)) => (n, Some(c.parse::<u32>().ok()?)),
            None => (s, None),
        };
        let cap = cap.unwrap_or(DEFAULT_STARVATION_CAP);
        match name {
            "fifo" => {
                if s.contains(':') {
                    // FIFO has no cap to configure; reject the suffix.
                    None
                } else {
                    Some(PolicyKind::Fifo)
                }
            }
            "read-first" | "read-over-write" => Some(PolicyKind::ReadFirst {
                starvation_cap: cap,
            }),
            "fr-fcfs" => Some(PolicyKind::FrFcfs {
                starvation_cap: cap,
            }),
            _ => None,
        }
    }

    /// Builds one policy instance (per-controller state included).
    pub fn build(&self) -> Box<dyn QueuePolicy> {
        match *self {
            PolicyKind::Fifo => Box::new(FifoPolicy),
            PolicyKind::ReadFirst { starvation_cap } => {
                Box::new(ReadOverWritePolicy::new(starvation_cap))
            }
            PolicyKind::FrFcfs { starvation_cap } => Box::new(FrFcfsPolicy::new(starvation_cap)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: u64, class: ReqClass, addr: u64) -> MemRequest {
        MemRequest {
            id,
            arrival: id,
            addr,
            class,
            tid: None,
            bank: None,
            bypassed: 0,
        }
    }

    #[test]
    fn fifo_always_picks_the_oldest() {
        let mut p = FifoPolicy;
        let pending = vec![
            req(5, ReqClass::Writeback, 0),
            req(2, ReqClass::DemandRead, 64),
            req(9, ReqClass::StoreRfo, 128),
        ];
        assert_eq!(p.select(&pending, 100), 1);
    }

    #[test]
    fn read_first_bypasses_writebacks_until_the_cap() {
        let mut p = ReadOverWritePolicy::new(2);
        let mut pending = vec![
            req(1, ReqClass::Writeback, 0),
            req(2, ReqClass::DemandRead, 64),
        ];
        // The younger read goes first...
        assert_eq!(p.select(&pending, 10), 1);
        // ...until the write-back has been bypassed `cap` times.
        pending[0].bypassed = 2;
        assert_eq!(p.select(&pending, 10), 0);
    }

    #[test]
    fn fr_fcfs_prefers_the_open_row() {
        let mut p = FrFcfsPolicy::new(8);
        let pending = vec![
            req(1, ReqClass::DemandRead, 0),              // row 0
            req(2, ReqClass::DemandRead, DRAM_ROW_BYTES), // row 1
        ];
        // No open row yet: oldest wins and opens row 0.
        assert_eq!(p.select(&pending, 0), 0);
        p.on_service(&pending[0]);
        let pending = vec![
            req(3, ReqClass::DemandRead, DRAM_ROW_BYTES),
            req(4, ReqClass::DemandRead, 64), // row 0: the open-row hit
        ];
        assert_eq!(p.select(&pending, 0), 1);
        p.reset();
        assert_eq!(p.select(&pending, 0), 0);
    }

    #[test]
    fn kind_parses_and_builds() {
        assert_eq!(PolicyKind::parse("fifo"), Some(PolicyKind::Fifo));
        assert_eq!(
            PolicyKind::parse("read-first"),
            Some(PolicyKind::ReadFirst {
                starvation_cap: DEFAULT_STARVATION_CAP
            })
        );
        assert_eq!(
            PolicyKind::parse("fr-fcfs:16"),
            Some(PolicyKind::FrFcfs { starvation_cap: 16 })
        );
        assert_eq!(PolicyKind::parse("fifo:3"), None);
        assert_eq!(PolicyKind::parse("lifo"), None);
        for name in POLICY_NAMES {
            let kind = PolicyKind::parse(name).expect("registry name parses");
            assert_eq!(kind.name(), *name);
            assert_eq!(kind.build().name(), *name);
        }
        assert!(PolicyKind::default().is_fifo());
    }
}
