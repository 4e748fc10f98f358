//! First-class chip topology descriptions and the preset registry.
//!
//! The paper's analysis is phrased entirely in terms of one machine — the
//! UltraSPARC T2's bits 8:7 → controller, bit 6 → bank, 512 B super-line —
//! but the *method* (analytic layout advice plus measured offset sweeps)
//! only needs a mapping geometry and a handful of timing figures. A
//! [`ChipSpec`] bundles exactly that: a name, a [`MapPolicy`], and the
//! timing knobs the simulator's calibrated T2 template does not share with
//! other chips. Every layer above core (simulator configuration, autotune
//! grids, telemetry periods, bench CLIs) derives its constants from the
//! spec instead of re-hardcoding 512.
//!
//! Presets are registered by name (see [`ChipSpec::preset`]); the
//! `ultrasparc-t2` preset is the [`Default`] and reproduces the existing
//! behavior bit for bit.

use crate::advisor::LayoutAdvisor;
use crate::mapping::{AddressMap, MapPolicy};
use serde::Serialize;

/// Names of all registered presets, in registry order. The first entry is
/// the default chip.
pub const PRESET_NAMES: [&str; 6] = [
    "ultrasparc-t2",
    "t2-page-interleave",
    "wide-8mc",
    "budget-2mc",
    "2s-numa",
    "4s-numa-wide",
];

/// The socket dimension of a chip: how the controllers (and cores) are
/// grouped into locality domains, and what crossing a domain costs.
///
/// Controllers are grouped *contiguously*: with `S` sockets and `M`
/// controllers, socket `s` owns controllers `[s·M/S, (s+1)·M/S)`, and the
/// cores split the same way. The single-socket instance (`n_sockets == 1`)
/// is the identity — every access is local, the link is never charged —
/// which is how all pre-NUMA presets keep their bitwise behavior.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct SocketTopology {
    /// Number of sockets; controllers and cores divide evenly across them.
    pub n_sockets: usize,
    /// Extra cycles a remote *read* pays on top of the local service path
    /// (directory/coherence hop before the line can be returned).
    pub remote_read_extra: u64,
    /// Extra cycles a remote *write* (write-back or RFO drain) pays before
    /// the remote controller starts servicing it.
    pub remote_write_extra: u64,
    /// Inter-socket link occupancy per 64 B line. The link is modeled as
    /// one shared full-duplex-agnostic resource: every remote line
    /// serializes on it, so its inverse is the remote bandwidth cap.
    pub link_cycles_per_line: u64,
    /// OS page size in bytes — the granularity of first-touch placement.
    pub page_bytes: u64,
}

impl SocketTopology {
    /// The single-socket identity: no remote accesses exist, so the cost
    /// parameters are zero and only `page_bytes` carries a (moot) default.
    pub fn single() -> Self {
        SocketTopology {
            n_sockets: 1,
            remote_read_extra: 0,
            remote_write_extra: 0,
            link_cycles_per_line: 0,
            page_bytes: 4096,
        }
    }

    /// Whether this topology has more than one locality domain.
    pub fn is_numa(&self) -> bool {
        self.n_sockets > 1
    }
}

impl Default for SocketTopology {
    fn default() -> Self {
        SocketTopology::single()
    }
}

/// A chip topology: mapping geometry plus the timing figures that
/// distinguish one interleaved-controller machine from another.
///
/// The spec deliberately stays small — microarchitectural detail that the
/// paper calibrates once for the T2 (store buffers, L2 associativity, queue
/// depths) lives in the simulator's template and is inherited unchanged, so
/// that `ChipSpec` captures only what *varies* across topologies: the
/// address → controller map, the thread capacity, and the per-controller
/// service times.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ChipSpec {
    /// Preset name, recorded in result JSON for reproducibility.
    pub name: String,
    /// Address → controller/bank mapping policy.
    pub map: MapPolicy,
    /// Clock frequency in Hz.
    pub clock_hz: f64,
    /// Number of cores.
    pub n_cores: usize,
    /// Hardware threads per core.
    pub threads_per_core: usize,
    /// Controller occupancy per 64 B read, in cycles.
    pub read_service: u64,
    /// Controller occupancy per 64 B write, in cycles.
    pub write_service: u64,
    /// Socket/locality structure. The single-socket identity
    /// (`SocketTopology::single()`) reproduces pre-NUMA behavior exactly.
    pub sockets: SocketTopology,
}

impl ChipSpec {
    /// The Sun UltraSPARC T2 of the paper: 8 cores × 8 threads at 1.2 GHz,
    /// four controllers selected by bits 8:7, 512 B super-line.
    pub fn ultrasparc_t2() -> Self {
        ChipSpec {
            name: "ultrasparc-t2".into(),
            map: MapPolicy::t2(),
            clock_hz: 1.2e9,
            n_cores: 8,
            threads_per_core: 8,
            read_service: 12,
            write_service: 24,
            sockets: SocketTopology::single(),
        }
    }

    /// The T2 with page-granular controller interleave instead of the
    /// bit-sliced map: controller = (addr / 4096) mod 4, so the layout
    /// period grows to `4096 × 4 = 16384` B and fine offsets below one
    /// page never change controllers.
    pub fn t2_page_interleave() -> Self {
        ChipSpec {
            name: "t2-page-interleave".into(),
            map: MapPolicy::PageInterleave {
                base: AddressMap::ultrasparc_t2(),
                page: 4096,
            },
            ..ChipSpec::ultrasparc_t2()
        }
    }

    /// A hypothetical wide chip: eight controllers (bits 9:7) with a single
    /// L2 bank each, giving a 1024 B super-line, and twice the T2's cores.
    pub fn wide_8mc() -> Self {
        ChipSpec {
            name: "wide-8mc".into(),
            map: MapPolicy::Sliced(AddressMap {
                line_bits: 6,
                mc_lo_bit: 7,
                mc_bits: 3,
                bank_lo_bit: 6,
                bank_bits: 0,
            }),
            clock_hz: 1.2e9,
            n_cores: 16,
            threads_per_core: 8,
            read_service: 12,
            write_service: 24,
            sockets: SocketTopology::single(),
        }
    }

    /// A budget chip: two controllers (bit 7) with two banks each, a 256 B
    /// super-line, four cores, and slower memory service.
    pub fn budget_2mc() -> Self {
        ChipSpec {
            name: "budget-2mc".into(),
            map: MapPolicy::Sliced(AddressMap {
                line_bits: 6,
                mc_lo_bit: 7,
                mc_bits: 1,
                bank_lo_bit: 6,
                bank_bits: 1,
            }),
            clock_hz: 1.2e9,
            n_cores: 4,
            threads_per_core: 8,
            read_service: 16,
            write_service: 32,
            sockets: SocketTopology::single(),
        }
    }

    /// A two-socket NUMA machine: each socket is a T2-like node with four
    /// controllers, so the raw map has eight controllers selected by bits
    /// 9:7 (1 KiB raw period, 512 B per-socket period). Remote lines pay a
    /// coherence hop and serialize on one inter-socket link whose per-line
    /// occupancy caps all-remote traffic well below one socket's local
    /// aggregate (Bergstrom's STREAM gap, arXiv:1103.3225).
    pub fn numa_2s() -> Self {
        ChipSpec {
            name: "2s-numa".into(),
            map: MapPolicy::Sliced(AddressMap {
                line_bits: 6,
                mc_lo_bit: 7,
                mc_bits: 3,
                bank_lo_bit: 6,
                bank_bits: 3,
            }),
            clock_hz: 1.2e9,
            n_cores: 16,
            threads_per_core: 8,
            read_service: 12,
            write_service: 24,
            sockets: SocketTopology {
                n_sockets: 2,
                remote_read_extra: 120,
                remote_write_extra: 60,
                link_cycles_per_line: 8,
                page_bytes: 4096,
            },
        }
    }

    /// A four-socket wide machine: 16 controllers (bits 10:7) over 16 L2
    /// banks in four groups of four, 32 cores. The per-socket period stays
    /// 512 B while the raw map period grows to 2 KiB, so affinity and
    /// in-socket offset tuning compose exactly as on `2s-numa` but with a
    /// deeper wrong-socket penalty (three of four sockets are remote).
    pub fn numa_4s_wide() -> Self {
        ChipSpec {
            name: "4s-numa-wide".into(),
            map: MapPolicy::Sliced(AddressMap {
                line_bits: 6,
                mc_lo_bit: 7,
                mc_bits: 4,
                bank_lo_bit: 6,
                bank_bits: 4,
            }),
            clock_hz: 1.2e9,
            n_cores: 32,
            threads_per_core: 8,
            read_service: 12,
            write_service: 24,
            sockets: SocketTopology {
                n_sockets: 4,
                remote_read_extra: 160,
                remote_write_extra: 80,
                link_cycles_per_line: 10,
                page_bytes: 4096,
            },
        }
    }

    /// Looks up a registered preset by name; `None` for unknown names.
    /// [`PRESET_NAMES`] lists the valid arguments.
    pub fn preset(name: &str) -> Option<Self> {
        match name {
            "ultrasparc-t2" => Some(ChipSpec::ultrasparc_t2()),
            "t2-page-interleave" => Some(ChipSpec::t2_page_interleave()),
            "wide-8mc" => Some(ChipSpec::wide_8mc()),
            "budget-2mc" => Some(ChipSpec::budget_2mc()),
            "2s-numa" => Some(ChipSpec::numa_2s()),
            "4s-numa-wide" => Some(ChipSpec::numa_4s_wide()),
            _ => None,
        }
    }

    /// Geometry of the underlying mapping.
    pub fn geometry(&self) -> &AddressMap {
        self.map.geometry()
    }

    /// Cache line size in bytes.
    pub fn line_size(&self) -> usize {
        self.geometry().line_size() as usize
    }

    /// Geometric super-line in bytes (the bit-field period of the
    /// underlying [`AddressMap`]; 512 on the T2).
    pub fn super_line(&self) -> usize {
        self.geometry().super_line() as usize
    }

    /// The layout-relevant interleave period in bytes — the policy-aware
    /// generalization of the super-line. See
    /// [`MapPolicy::interleave_period`].
    pub fn interleave_period(&self) -> usize {
        self.map.interleave_period() as usize
    }

    /// Number of memory controllers.
    pub fn num_controllers(&self) -> usize {
        self.geometry().num_controllers() as usize
    }

    /// Total hardware-thread capacity.
    pub fn max_threads(&self) -> usize {
        self.n_cores * self.threads_per_core
    }

    /// Number of sockets (1 for every pre-NUMA preset).
    pub fn n_sockets(&self) -> usize {
        self.sockets.n_sockets
    }

    /// Controllers per socket (contiguous grouping; see
    /// [`SocketTopology`]).
    pub fn mcs_per_socket(&self) -> usize {
        let s = self.n_sockets().max(1);
        debug_assert_eq!(self.num_controllers() % s, 0);
        (self.num_controllers() / s).max(1)
    }

    /// The *per-socket* interleave period in bytes: the layout period that
    /// matters once pages are placed socket-locally, because first-touch
    /// placement folds the raw controller index into the home socket's
    /// group. Equal to [`ChipSpec::interleave_period`] on one socket.
    pub fn local_period(&self) -> usize {
        self.interleave_period() / self.n_sockets().max(1)
    }

    /// Cores per socket (contiguous grouping, like the controllers).
    pub fn cores_per_socket(&self) -> usize {
        let s = self.n_sockets().max(1);
        debug_assert_eq!(self.n_cores % s, 0);
        (self.n_cores / s).max(1)
    }

    /// The socket that owns core `core`.
    pub fn socket_of_core(&self, core: usize) -> usize {
        (core / self.cores_per_socket()).min(self.n_sockets() - 1)
    }

    /// The socket that owns controller `mc`.
    pub fn socket_of_controller(&self, mc: usize) -> usize {
        (mc / self.mcs_per_socket()).min(self.n_sockets() - 1)
    }

    /// An analytic [`LayoutAdvisor`] for this chip's mapping and socket
    /// topology, with the link cost normalized by the chip's own read
    /// service (see [`LayoutAdvisor::with_numa`]).
    pub fn advisor(&self) -> LayoutAdvisor {
        LayoutAdvisor::new(self.map).with_numa(self.sockets, self.read_service)
    }
}

impl Default for ChipSpec {
    fn default() -> Self {
        ChipSpec::ultrasparc_t2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::PagePlacement;

    #[test]
    fn registry_resolves_every_name_and_rejects_unknown() {
        for name in PRESET_NAMES {
            let spec = ChipSpec::preset(name).unwrap_or_else(|| panic!("missing preset {name}"));
            assert_eq!(spec.name, name);
        }
        assert!(ChipSpec::preset("pentium-4").is_none());
    }

    #[test]
    fn default_is_the_t2() {
        assert_eq!(ChipSpec::default(), ChipSpec::ultrasparc_t2());
        assert_eq!(PRESET_NAMES[0], "ultrasparc-t2");
    }

    #[test]
    fn t2_derivations_match_paper_constants() {
        let t2 = ChipSpec::ultrasparc_t2();
        assert_eq!(t2.line_size(), 64);
        assert_eq!(t2.super_line(), 512);
        assert_eq!(t2.interleave_period(), 512);
        assert_eq!(t2.num_controllers(), 4);
        assert_eq!(t2.max_threads(), 64);
        assert_eq!(t2.advisor().suggest_shift(), 128);
    }

    #[test]
    fn preset_periods_span_the_design_space() {
        assert_eq!(ChipSpec::wide_8mc().super_line(), 1024);
        assert_eq!(ChipSpec::wide_8mc().num_controllers(), 8);
        assert_eq!(ChipSpec::budget_2mc().super_line(), 256);
        assert_eq!(ChipSpec::budget_2mc().num_controllers(), 2);
        // Page interleave keeps the bit-field geometry but stretches the
        // layout period to page × n_mc.
        let pi = ChipSpec::t2_page_interleave();
        assert_eq!(pi.super_line(), 512);
        assert_eq!(pi.interleave_period(), 4096 * 4);
    }

    #[test]
    fn numa_presets_group_controllers_and_cores_contiguously() {
        let two = ChipSpec::numa_2s();
        assert_eq!(two.num_controllers(), 8);
        assert_eq!(two.n_sockets(), 2);
        assert_eq!(two.mcs_per_socket(), 4);
        assert_eq!(two.interleave_period(), 1024);
        assert_eq!(two.local_period(), 512);
        assert_eq!(two.cores_per_socket(), 8);
        assert_eq!(two.socket_of_controller(3), 0);
        assert_eq!(two.socket_of_controller(4), 1);
        assert_eq!(two.socket_of_core(7), 0);
        assert_eq!(two.socket_of_core(8), 1);

        let four = ChipSpec::numa_4s_wide();
        assert_eq!(four.num_controllers(), 16);
        assert_eq!(four.n_sockets(), 4);
        assert_eq!(four.mcs_per_socket(), 4);
        assert_eq!(four.interleave_period(), 2048);
        assert_eq!(four.local_period(), 512);
        assert_eq!(four.max_threads(), 256);
        assert_eq!(four.socket_of_controller(15), 3);
    }

    #[test]
    fn advisor_normalizes_the_link_by_the_chips_read_service() {
        // 2s-numa, all-remote: local aggregate time 1/8 per line against
        // a link of 8 cycles per line. At a 16-cycle read service the link
        // costs 0.5 service units, so the factor is 0.125 / 0.5.
        let spec = ChipSpec {
            read_service: 16,
            ..ChipSpec::numa_2s()
        };
        let remote = spec.advisor().locality_factor(PagePlacement::Remote);
        assert_eq!(remote, 0.25);
    }

    #[test]
    fn single_socket_presets_stay_on_the_identity_topology() {
        for name in [
            "ultrasparc-t2",
            "t2-page-interleave",
            "wide-8mc",
            "budget-2mc",
        ] {
            let spec = ChipSpec::preset(name).unwrap();
            assert_eq!(spec.sockets, SocketTopology::single(), "{name}");
            assert!(!spec.sockets.is_numa());
            assert_eq!(spec.local_period(), spec.interleave_period());
        }
    }

    #[test]
    fn advisor_offsets_cover_all_local_controllers_for_each_preset() {
        // Under first-touch placement the raw controller folds into the
        // home socket's group, so the advisor's offsets must cover every
        // *local* controller; on one socket that is all controllers.
        for name in PRESET_NAMES {
            let spec = ChipSpec::preset(name).unwrap();
            let n_mc = spec.num_controllers();
            let mps = spec.mcs_per_socket();
            let offs = spec.advisor().suggest_offsets(n_mc);
            let mut mcs: Vec<u32> = offs
                .iter()
                .map(|&o| spec.map.controller(o as u64) % mps as u32)
                .collect();
            mcs.sort_unstable();
            mcs.dedup();
            assert_eq!(
                mcs.len(),
                mps,
                "offsets must spread over all local MCs on {name}"
            );
        }
    }
}
