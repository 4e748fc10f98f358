//! Thread placement ("pinning").
//!
//! On the T2, "running more than a single thread per core is therefore
//! mandatory for most applications, and thread placement ('pinning') must be
//! implemented" (§1) — the paper uses Solaris `processor_bind()` or the
//! `SUNW_MP_PROCBIND` environment variable and distributes threads
//! "equidistantly across cores" for the STREAM runs.
//!
//! [`Placement`] expresses that policy abstractly. The host pool applies it
//! best-effort through OS affinity (`core_affinity`); the T2 simulator
//! applies it *exactly* to its 8 simulated cores — which is where it
//! actually matters for reproducing the paper.

/// A policy mapping team-thread indices to core indices.
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize)]
pub enum Placement {
    /// No pinning: leave threads wherever the OS puts them.
    #[default]
    None,
    /// Scatter (the paper's STREAM setup): thread `i` goes to core
    /// `i mod n_cores`, so threads are distributed equidistantly across
    /// cores, filling each core's hardware-thread slots in rounds.
    Scatter {
        /// Number of cores to scatter over.
        n_cores: usize,
    },
    /// Compact: fill core 0's hardware threads first, then core 1, etc.
    /// Thread `i` goes to core `i / threads_per_core`.
    Compact {
        /// Hardware threads per core.
        threads_per_core: usize,
    },
    /// Explicit per-thread core list (thread `i` → `cores[i % cores.len()]`).
    Explicit(
        /// The core index for each thread.
        Vec<usize>,
    ),
}

impl Placement {
    /// The paper's default for the T2: scatter over 8 cores.
    pub fn t2_scatter() -> Self {
        Placement::Scatter { n_cores: 8 }
    }

    /// Core index for team thread `tid`, or `None` when unpinned.
    pub fn core_of(&self, tid: usize) -> Option<usize> {
        match self {
            Placement::None => None,
            Placement::Scatter { n_cores } => Some(tid % n_cores.max(&1)),
            Placement::Compact { threads_per_core } => Some(tid / (*threads_per_core).max(1)),
            Placement::Explicit(cores) => {
                if cores.is_empty() {
                    None
                } else {
                    Some(cores[tid % cores.len()])
                }
            }
        }
    }

    /// How many team threads land on each of `n_cores` cores (unpinned
    /// threads are not counted).
    pub fn occupancy(&self, t: usize, n_cores: usize) -> Vec<usize> {
        let mut occ = vec![0usize; n_cores];
        for tid in 0..t {
            if let Some(c) = self.core_of(tid) {
                occ[c % n_cores] += 1;
            }
        }
        occ
    }
}

/// Pins the calling thread to host core `core` (mod the number of available
/// cores). Best-effort: returns `false` if the platform refuses.
pub fn pin_current_thread(core: usize) -> bool {
    let Some(ids) = core_affinity::get_core_ids() else {
        return false;
    };
    if ids.is_empty() {
        return false;
    }
    core_affinity::set_for_current(ids[core % ids.len()])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scatter_distributes_equidistantly() {
        // 64 threads over 8 cores: each core gets threads i, i+8, ..., i+56.
        let p = Placement::t2_scatter();
        assert_eq!(p.core_of(0), Some(0));
        assert_eq!(p.core_of(7), Some(7));
        assert_eq!(p.core_of(8), Some(0));
        assert_eq!(p.occupancy(64, 8), vec![8; 8]);
        assert_eq!(p.occupancy(16, 8), vec![2; 8]);
    }

    #[test]
    fn compact_fills_cores_in_order() {
        let p = Placement::Compact {
            threads_per_core: 8,
        };
        assert_eq!(p.core_of(0), Some(0));
        assert_eq!(p.core_of(7), Some(0));
        assert_eq!(p.core_of(8), Some(1));
        assert_eq!(p.occupancy(16, 8), vec![8, 8, 0, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn explicit_wraps() {
        let p = Placement::Explicit(vec![3, 1]);
        assert_eq!(p.core_of(0), Some(3));
        assert_eq!(p.core_of(1), Some(1));
        assert_eq!(p.core_of(2), Some(3));
        assert_eq!(Placement::Explicit(vec![]).core_of(0), None);
    }

    #[test]
    fn none_is_unpinned() {
        assert_eq!(Placement::None.core_of(5), None);
        assert_eq!(Placement::None.occupancy(8, 4), vec![0; 4]);
    }

    #[test]
    fn pin_current_thread_is_best_effort() {
        // Must not panic regardless of platform support; on Linux CI it
        // normally succeeds.
        let _ = pin_current_thread(0);
    }
}
