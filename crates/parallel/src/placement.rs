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
        }
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
        assert_eq!(p.core_of(63), Some(7));
    }

    #[test]
    fn none_is_unpinned() {
        assert_eq!(Placement::None.core_of(5), None);
    }

    #[test]
    fn pin_current_thread_is_best_effort() {
        // Must not panic regardless of platform support; on Linux CI it
        // normally succeeds.
        let _ = pin_current_thread(0);
    }
}
