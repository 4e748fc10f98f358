//! MC-imbalance diagnostics: detecting the runtime signature of mod-512
//! congruence aliasing from a [`Timeline`].
//!
//! The paper's §2.1 convoy — "all threads hit exactly one memory controller
//! at a time… successive controllers are of course used in turn, but not
//! concurrently" — is invisible in run totals (over the whole run every
//! controller moves the same bytes) but obvious per window: each active
//! window has one hot controller, so its *effective parallelism*
//! (Σ busy / max busy) collapses toward 1. [`AliasReport::analyze`] flags
//! exactly that, and names the address streams whose bases share a 512 B
//! congruence class — the static cause of the dynamic signature.

use crate::timeline::Timeline;
use serde::Serialize;
use std::collections::BTreeMap;
use t2opt_core::chip::ChipSpec;

/// Thresholds for [`AliasReport::analyze`].
#[derive(Debug, Clone, Serialize)]
pub struct AliasConfig {
    /// The controller-aliasing period in bytes: stream bases equal modulo
    /// this value follow the same controller sequence. 512 on the T2;
    /// derive it from the chip with [`AliasConfig::for_chip`].
    pub period: u64,
    /// A window is flagged when its effective parallelism (Σ busy cycles
    /// over max per-controller busy cycles) falls below this. The default
    /// of 1.8 is calibrated against the T2 simulator at ~4096-cycle
    /// windows: a fully aliased STREAM triad convoys at ≈ 1.0–1.6 per
    /// window while the advisor's 128 B spread stays ≥ 1.9 (the three
    /// streams rotate through the controllers together, so fine windows
    /// never reach the controller count even when nothing aliases).
    pub parallelism_threshold: f64,
    /// Windows whose busiest controller is busy for less than this fraction
    /// of the window are considered idle and skipped (ramp-up/drain tails).
    pub min_activity: f64,
    /// Number of sockets of the chip under analysis (1 = no NUMA). On a
    /// multi-socket chip the first-touch controller remap folds the raw
    /// socket-selector bits away, so congruence mod the *local* period
    /// (`period / n_sockets`) is what aliases — and streams that look
    /// spread at the full period can still collide within a socket (see
    /// [`AliasReport::wrong_socket_streams`]).
    pub n_sockets: usize,
}

impl AliasConfig {
    /// Default thresholds with the aliasing period taken from a chip spec
    /// instead of the T2 constant.
    pub fn for_chip(spec: &ChipSpec) -> Self {
        AliasConfig {
            period: spec.interleave_period() as u64,
            n_sockets: spec.n_sockets(),
            ..AliasConfig::default()
        }
    }
}

impl Default for AliasConfig {
    fn default() -> Self {
        AliasConfig {
            period: 512, // the T2 super-line, for drop-in compatibility
            parallelism_threshold: 1.8,
            min_activity: 0.05,
            n_sockets: 1,
        }
    }
}

/// One flagged window.
#[derive(Debug, Clone, Serialize)]
pub struct WindowFlag {
    /// Index into `Timeline::windows`.
    pub index: usize,
    /// First cycle of the window.
    pub start_cycle: u64,
    /// The window's effective parallelism.
    pub effective_parallelism: f64,
    /// The window's max/mean busy imbalance.
    pub imbalance: f64,
    /// The hot controller.
    pub hot_mc: usize,
}

/// The outcome of the aliasing analysis; see the module docs.
#[derive(Debug, Clone, Serialize)]
pub struct AliasReport {
    /// The aliasing period (bytes) the analysis grouped stream bases by.
    pub period: u64,
    /// Active (non-idle) windows examined.
    pub windows_considered: usize,
    /// Windows whose effective parallelism fell below the threshold.
    pub windows_flagged: usize,
    /// `windows_flagged / windows_considered` (0 when nothing was active).
    pub flagged_fraction: f64,
    /// Mean effective parallelism over the active windows.
    pub mean_effective_parallelism: f64,
    /// The flagged windows, in time order.
    pub flags: Vec<WindowFlag>,
    /// Groups of stream names whose bases are congruent mod
    /// [`AliasReport::period`] — the named culprits. Only populated when
    /// windows were flagged; each group lists ≥ 2 streams.
    pub aliased_streams: Vec<Vec<String>>,
    /// NUMA only (empty when `n_sockets` = 1): groups congruent mod the
    /// *socket-local* period **and** mod the full period — they collide on
    /// the same controller of the same socket sequence. The classic
    /// wrong-controller aliasing, restated on the folded geometry.
    pub wrong_controller_streams: Vec<Vec<String>>,
    /// NUMA only: groups congruent mod the socket-local period whose bases
    /// *differ* at the raw socket-selector bits. They look spread at the
    /// full period, but first-touch localization folds them onto one
    /// socket-local controller — the spread they appear to have exists
    /// only across sockets, which is exactly what a wrong-socket placement
    /// squanders.
    pub wrong_socket_streams: Vec<Vec<String>>,
}

impl AliasReport {
    /// Analyzes a timeline under the given thresholds.
    pub fn analyze(timeline: &Timeline, cfg: &AliasConfig) -> Self {
        let min_busy = cfg.min_activity * timeline.interval as f64;
        let mut flags = Vec::new();
        let mut considered = 0usize;
        let mut eff_sum = 0.0f64;
        for (index, w) in timeline.windows.iter().enumerate() {
            let max = w.mc_busy.iter().copied().max().unwrap_or(0);
            if (max as f64) < min_busy {
                continue;
            }
            considered += 1;
            let eff = w.effective_parallelism();
            eff_sum += eff;
            if eff < cfg.parallelism_threshold {
                let hot_mc = w
                    .mc_busy
                    .iter()
                    .enumerate()
                    .max_by_key(|&(_, &b)| b)
                    .map(|(i, _)| i)
                    .unwrap_or(0);
                flags.push(WindowFlag {
                    index,
                    start_cycle: w.start_cycle,
                    effective_parallelism: eff,
                    imbalance: w.imbalance(),
                    hot_mc,
                });
            }
        }
        let aliased_streams = if flags.is_empty() {
            Vec::new()
        } else {
            congruent_groups(timeline, cfg.period)
        };
        let (wrong_controller_streams, wrong_socket_streams) =
            if cfg.n_sockets > 1 && !flags.is_empty() {
                socket_split_groups(timeline, cfg.period, cfg.n_sockets)
            } else {
                (Vec::new(), Vec::new())
            };
        AliasReport {
            period: cfg.period,
            windows_considered: considered,
            windows_flagged: flags.len(),
            flagged_fraction: if considered == 0 {
                0.0
            } else {
                flags.len() as f64 / considered as f64
            },
            mean_effective_parallelism: if considered == 0 {
                0.0
            } else {
                eff_sum / considered as f64
            },
            flags,
            aliased_streams,
            wrong_controller_streams,
            wrong_socket_streams,
        }
    }

    /// Whether the run shows the aliasing signature (any window flagged).
    pub fn is_aliased(&self) -> bool {
        self.windows_flagged > 0
    }

    /// A terminal-friendly one-paragraph summary.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "{}/{} active windows flagged ({:.0}%), mean effective parallelism {:.2}",
            self.windows_flagged,
            self.windows_considered,
            self.flagged_fraction * 100.0,
            self.mean_effective_parallelism,
        );
        if self.aliased_streams.is_empty() {
            if self.windows_flagged == 0 {
                s.push_str(" — no MC aliasing signature");
            }
        } else {
            let groups: Vec<String> = self
                .aliased_streams
                .iter()
                .map(|g| format!("{{{}}}", g.join(", ")))
                .collect();
            s.push_str(&format!(
                " — streams congruent mod {} B: {}",
                self.period,
                groups.join(" ")
            ));
        }
        if !self.wrong_socket_streams.is_empty() {
            let groups: Vec<String> = self
                .wrong_socket_streams
                .iter()
                .map(|g| format!("{{{}}}", g.join(", ")))
                .collect();
            s.push_str(&format!(
                "; wrong-socket (spread only across sockets): {}",
                groups.join(" ")
            ));
        }
        s
    }
}

/// NUMA classification of the socket-local congruence classes: groups of
/// ≥ 2 streams congruent mod `period / n_sockets` split into those also
/// congruent mod the full `period` (wrong-controller) and those spanning
/// ≥ 2 raw socket residues (wrong-socket). See the [`AliasReport`] field
/// docs.
fn socket_split_groups(
    timeline: &Timeline,
    period: u64,
    n_sockets: usize,
) -> (Vec<Vec<String>>, Vec<Vec<String>>) {
    let local = (period / n_sockets as u64).max(1);
    let mut classes: BTreeMap<u64, Vec<(u64, String)>> = BTreeMap::new();
    for s in &timeline.streams {
        classes
            .entry(s.base % local)
            .or_default()
            .push((s.base % period, s.name.clone()));
    }
    let mut wrong_controller = Vec::new();
    let mut wrong_socket = Vec::new();
    for members in classes.into_values() {
        if members.len() < 2 {
            continue;
        }
        let mut by_full: BTreeMap<u64, Vec<String>> = BTreeMap::new();
        for (residue, name) in &members {
            by_full.entry(*residue).or_default().push(name.clone());
        }
        for group in by_full.values() {
            if group.len() >= 2 {
                wrong_controller.push(group.clone());
            }
        }
        if by_full.len() >= 2 {
            wrong_socket.push(members.into_iter().map(|(_, n)| n).collect());
        }
    }
    (wrong_controller, wrong_socket)
}

/// Groups the timeline's stream labels by base address mod `period`;
/// groups with ≥ 2 members share a controller sequence.
fn congruent_groups(timeline: &Timeline, period: u64) -> Vec<Vec<String>> {
    let mut classes: BTreeMap<u64, Vec<String>> = BTreeMap::new();
    for s in &timeline.streams {
        classes
            .entry(s.base % period)
            .or_default()
            .push(s.name.clone());
    }
    classes.into_values().filter(|g| g.len() >= 2).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::{StreamLabel, Timeline, Window};

    /// A synthetic 4-MC timeline from per-window busy vectors.
    fn timeline(busy: Vec<[u64; 4]>, streams: Vec<StreamLabel>) -> Timeline {
        let interval = 1000;
        let windows: Vec<Window> = busy
            .iter()
            .enumerate()
            .map(|(i, b)| Window {
                start_cycle: i as u64 * interval,
                mc_busy: b.to_vec(),
                mc_nacks: vec![0; 4],
            })
            .collect();
        Timeline {
            interval,
            n_mcs: 4,
            start_cycle: 0,
            end_cycle: busy.len() as u64 * interval,
            windows,
            streams,
        }
    }

    fn abc(offs: [u64; 3]) -> Vec<StreamLabel> {
        vec![
            StreamLabel::new("A", offs[0]),
            StreamLabel::new("B", (1 << 30) + offs[1]),
            StreamLabel::new("C", (2 << 30) + offs[2]),
        ]
    }

    #[test]
    fn uniform_timeline_raises_no_flags() {
        let t = timeline(vec![[800, 810, 790, 805]; 6], abc([0, 128, 256]));
        let r = AliasReport::analyze(&t, &AliasConfig::default());
        assert_eq!(r.windows_considered, 6);
        assert_eq!(r.windows_flagged, 0);
        assert!(!r.is_aliased());
        assert!(r.aliased_streams.is_empty());
        assert!(r.mean_effective_parallelism > 3.9);
        assert!(r.summary().contains("no MC aliasing signature"));
    }

    #[test]
    fn one_hot_rotation_is_flagged_and_streams_named() {
        // The §2.1 convoy: each window has exactly one busy controller,
        // rotating in turn.
        let busy: Vec<[u64; 4]> = (0..8)
            .map(|i| {
                let mut b = [0u64; 4];
                b[i % 4] = 900;
                b
            })
            .collect();
        let t = timeline(busy, abc([0, 0, 0]));
        let r = AliasReport::analyze(&t, &AliasConfig::default());
        assert_eq!(r.windows_considered, 8);
        assert_eq!(r.windows_flagged, 8);
        assert!((r.flagged_fraction - 1.0).abs() < 1e-12);
        assert!(r.is_aliased());
        assert_eq!(r.aliased_streams, vec![vec!["A", "B", "C"]]);
        assert_eq!(r.flags[2].hot_mc, 2);
        assert!(r.summary().contains("A, B, C"));
    }

    #[test]
    fn idle_windows_are_skipped() {
        let t = timeline(
            vec![[900, 0, 0, 0], [10, 0, 0, 0], [0, 0, 0, 0]],
            abc([0, 0, 0]),
        );
        let r = AliasReport::analyze(&t, &AliasConfig::default());
        assert_eq!(r.windows_considered, 1);
        assert_eq!(r.windows_flagged, 1);
    }

    #[test]
    fn spread_offsets_produce_no_congruent_group() {
        let busy = vec![[900, 0, 0, 0]];
        let t = timeline(busy, abc([0, 128, 256]));
        let r = AliasReport::analyze(&t, &AliasConfig::default());
        // Flagged on activity, but no stream group shares a residue.
        assert!(r.is_aliased());
        assert!(r.aliased_streams.is_empty());
    }

    #[test]
    fn chip_period_changes_the_congruence_classes() {
        // Streams 256 B apart: distinct classes on the T2 (mod 512), but
        // congruent on the 2-MC budget chip whose period is 256 B.
        let busy = vec![[900, 0, 0, 0]];
        let streams = abc([0, 256, 512]);
        let t2 = AliasReport::analyze(
            &timeline(busy.clone(), streams.clone()),
            &AliasConfig::for_chip(&t2opt_core::chip::ChipSpec::ultrasparc_t2()),
        );
        assert_eq!(t2.period, 512);
        assert_eq!(t2.aliased_streams, vec![vec!["A", "C"]]);
        let budget = AliasReport::analyze(
            &timeline(busy, streams),
            &AliasConfig::for_chip(&t2opt_core::chip::ChipSpec::budget_2mc()),
        );
        assert_eq!(budget.period, 256);
        assert_eq!(budget.aliased_streams, vec![vec!["A", "B", "C"]]);
    }

    #[test]
    fn empty_timeline_is_clean() {
        let t = timeline(Vec::new(), Vec::new());
        let r = AliasReport::analyze(&t, &AliasConfig::default());
        assert_eq!(r.windows_considered, 0);
        assert_eq!(r.flagged_fraction, 0.0);
        assert_eq!(r.mean_effective_parallelism, 0.0);
    }

    #[test]
    fn numa_chip_splits_wrong_socket_from_wrong_controller() {
        // 2s-numa: period 1024, local period 512. A and C share a full-period
        // residue (same controller, same socket slot: wrong-controller).
        // B sits 512 past them — spread at the full period but folded onto
        // the same socket-local controller by first touch: wrong-socket.
        let busy = vec![[900, 0, 0, 0]];
        let cfg = AliasConfig::for_chip(&ChipSpec::preset("2s-numa").unwrap());
        assert_eq!(cfg.period, 1024);
        assert_eq!(cfg.n_sockets, 2);
        let r = AliasReport::analyze(&timeline(busy, abc([0, 512, 1024])), &cfg);
        assert!(r.is_aliased());
        assert_eq!(r.aliased_streams, vec![vec!["A", "C"]]);
        assert_eq!(r.wrong_controller_streams, vec![vec!["A", "C"]]);
        assert_eq!(r.wrong_socket_streams, vec![vec!["A", "B", "C"]]);
        assert!(r.summary().contains("wrong-socket"));
        assert!(r.summary().contains("A, B, C"));
    }

    #[test]
    fn numa_streams_spread_within_the_socket_are_clean() {
        // Offsets that differ mod the local period share nothing: no
        // wrong-controller and no wrong-socket group.
        let busy = vec![[900, 0, 0, 0]];
        let cfg = AliasConfig::for_chip(&ChipSpec::preset("2s-numa").unwrap());
        let r = AliasReport::analyze(&timeline(busy, abc([0, 128, 256])), &cfg);
        assert!(r.is_aliased());
        assert!(r.wrong_controller_streams.is_empty());
        assert!(r.wrong_socket_streams.is_empty());
    }

    #[test]
    fn single_socket_chips_report_no_socket_groups() {
        let busy = vec![[900, 0, 0, 0]];
        let cfg = AliasConfig::for_chip(&ChipSpec::ultrasparc_t2());
        assert_eq!(cfg.n_sockets, 1);
        let r = AliasReport::analyze(&timeline(busy, abc([0, 0, 0])), &cfg);
        assert_eq!(r.aliased_streams, vec![vec!["A", "B", "C"]]);
        assert!(r.wrong_controller_streams.is_empty());
        assert!(r.wrong_socket_streams.is_empty());
        assert!(!r.summary().contains("wrong-socket"));
    }
}
