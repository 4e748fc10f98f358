//! Time-resolved simulator telemetry: fixed-width cycle windows of
//! per-MC busy cycles and NACKs, assembled into a [`Timeline`].
//!
//! The [`TimelineRecorder`] implements [`SimProbe`]: the engine calls its
//! hooks as requests are admitted, and the recorder buckets each
//! observation into the window `(cycle - origin) / interval`. The origin
//! follows the measurement window — a `window_reset` (warm-up barrier)
//! discards everything collected before it, mirroring
//! `SimStats::reset_window`.

use crate::probe::SimProbe;

/// A named address stream, used by the alias analysis to report *which*
/// arrays convoy (their congruence class mod 512 B is what matters).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamLabel {
    /// Human-readable stream name (e.g. `"B"` or `"src row 3"`).
    pub name: String,
    /// Byte base address of the stream.
    pub base: u64,
}

impl StreamLabel {
    /// A label for the stream starting at `base`.
    pub fn new(name: impl Into<String>, base: u64) -> Self {
        StreamLabel {
            name: name.into(),
            base,
        }
    }
}

/// Configuration of a traced simulation run.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Window width in cycles. Values near the per-controller convoy dwell
    /// (1–2k cycles on the calibrated T2) resolve the one-hot-MC rotation;
    /// the default is 1024.
    pub interval: u64,
    /// Labels of the address streams the run touches (optional; enables
    /// stream naming in the alias report).
    pub streams: Vec<StreamLabel>,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            interval: 1024,
            streams: Vec::new(),
        }
    }
}

impl TraceConfig {
    /// A config with the given window width and defaults otherwise.
    pub fn with_interval(interval: u64) -> Self {
        TraceConfig {
            interval: interval.max(1),
            ..Default::default()
        }
    }

    /// Sets the stream labels.
    pub fn streams(mut self, streams: Vec<StreamLabel>) -> Self {
        self.streams = streams;
        self
    }
}

/// One fixed-width window of simulator activity.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Window {
    /// First cycle of the window.
    pub start_cycle: u64,
    /// Channel-busy cycles charged per memory controller.
    pub mc_busy: Vec<u64>,
    /// NACKs per memory controller.
    pub mc_nacks: Vec<u64>,
}

impl Window {
    fn new(start_cycle: u64, n_mcs: usize) -> Self {
        Window {
            start_cycle,
            mc_busy: vec![0; n_mcs],
            mc_nacks: vec![0; n_mcs],
        }
    }

    /// Effective memory parallelism of the window: total MC busy cycles
    /// over the busiest controller's (∈ `[1, n_mcs]`; 0 when idle). A
    /// convoyed run sits near 1, a balanced one near the controller count.
    pub fn effective_parallelism(&self) -> f64 {
        let max = self.mc_busy.iter().copied().max().unwrap_or(0);
        if max == 0 {
            return 0.0;
        }
        self.mc_busy.iter().sum::<u64>() as f64 / max as f64
    }

    /// Imbalance of the window: busiest controller over the mean (1.0 =
    /// even, `n_mcs` = one hotspot; 1.0 when idle).
    pub fn imbalance(&self) -> f64 {
        let max = self.mc_busy.iter().copied().max().unwrap_or(0);
        if max == 0 {
            return 1.0;
        }
        let mean = self.mc_busy.iter().sum::<u64>() as f64 / self.mc_busy.len() as f64;
        max as f64 / mean
    }
}

/// The assembled time-resolved record of one simulation run.
#[derive(Debug, Clone)]
pub struct Timeline {
    /// Window width in cycles.
    pub interval: u64,
    /// Memory-controller count.
    pub n_mcs: usize,
    /// First recorded cycle (measurement-window open).
    pub start_cycle: u64,
    /// Last simulated cycle.
    pub end_cycle: u64,
    /// Consecutive windows covering `[start_cycle, end_cycle)`.
    pub windows: Vec<Window>,
    /// Stream labels carried through from the [`TraceConfig`].
    pub streams: Vec<StreamLabel>,
}

impl Timeline {
    /// Recorded duration in cycles.
    pub fn duration(&self) -> u64 {
        self.end_cycle.saturating_sub(self.start_cycle)
    }

    /// Utilization of controller `mc` in window `w` as a fraction of the
    /// window, clamped to `[0, 1]` (busy cycles are attributed to the
    /// admission window, so a tail window can nominally exceed it).
    pub fn utilization(&self, w: usize, mc: usize) -> f64 {
        let busy = self.windows[w].mc_busy[mc];
        (busy as f64 / self.interval as f64).min(1.0)
    }
}

/// A [`SimProbe`] that collects a [`Timeline`]; see the module docs.
pub struct TimelineRecorder {
    interval: u64,
    n_mcs: usize,
    origin: u64,
    windows: Vec<Window>,
    streams: Vec<StreamLabel>,
}

impl TimelineRecorder {
    /// A recorder for a chip with `n_mcs` memory controllers.
    pub fn new(n_mcs: usize, cfg: &TraceConfig) -> Self {
        TimelineRecorder {
            interval: cfg.interval.max(1),
            n_mcs,
            origin: 0,
            windows: Vec::new(),
            streams: cfg.streams.clone(),
        }
    }

    fn window_mut(&mut self, cycle: u64) -> &mut Window {
        let idx = (cycle.saturating_sub(self.origin) / self.interval) as usize;
        while self.windows.len() <= idx {
            let start = self.origin + self.windows.len() as u64 * self.interval;
            self.windows.push(Window::new(start, self.n_mcs));
        }
        &mut self.windows[idx]
    }

    /// Finalizes the record. `end_cycle` is the simulation's last cycle
    /// (`SimStats::end_cycle`); the window list is padded so it covers the
    /// whole measured span even if the tail was idle.
    pub fn finish(mut self, end_cycle: u64) -> Timeline {
        if end_cycle > self.origin {
            self.window_mut(end_cycle - 1);
        }
        Timeline {
            interval: self.interval,
            n_mcs: self.n_mcs,
            start_cycle: self.origin,
            end_cycle: end_cycle.max(self.origin),
            windows: self.windows,
            streams: self.streams,
        }
    }
}

impl SimProbe for TimelineRecorder {
    fn mc_service(
        &mut self,
        mc: usize,
        at_cycle: u64,
        busy_added: u64,
        _queue_len: usize,
        _is_write: bool,
    ) {
        self.window_mut(at_cycle).mc_busy[mc] += busy_added;
    }

    fn nack(&mut self, at_cycle: u64, _tid: u32, mc: usize, _bank: usize, _mc_full: bool) {
        self.window_mut(at_cycle).mc_nacks[mc] += 1;
    }

    fn window_reset(&mut self, at_cycle: u64) {
        self.origin = at_cycle;
        self.windows.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorder() -> TimelineRecorder {
        TimelineRecorder::new(4, &TraceConfig::with_interval(100))
    }

    #[test]
    fn observations_land_in_their_window() {
        let mut r = recorder();
        r.mc_service(1, 50, 12, 3, false);
        r.mc_service(1, 250, 12, 5, false);
        r.nack(260, 0, 3, 7, true);
        let t = r.finish(300);
        assert_eq!(t.windows.len(), 3);
        assert_eq!(t.windows[0].mc_busy[1], 12);
        assert_eq!(t.windows[1].mc_busy[1], 0);
        assert_eq!(t.windows[2].mc_busy[1], 12);
        assert_eq!(t.windows[2].mc_nacks, vec![0, 0, 0, 1]);
        assert_eq!(t.windows[1].start_cycle, 100);
    }

    #[test]
    fn window_reset_discards_warmup_and_rebases() {
        let mut r = recorder();
        r.mc_service(0, 10, 99, 1, false);
        r.nack(5, 0, 0, 0, true);
        r.window_reset(1000);
        r.mc_service(2, 1010, 7, 1, false);
        let t = r.finish(1100);
        assert_eq!(t.start_cycle, 1000);
        assert_eq!(t.windows.len(), 1);
        assert_eq!(t.windows[0].start_cycle, 1000);
        assert_eq!(t.windows[0].mc_busy, vec![0, 0, 7, 0]);
        assert_eq!(t.windows[0].mc_nacks, vec![0; 4]);
    }

    #[test]
    fn effective_parallelism_and_imbalance() {
        let mut w = Window::new(0, 4);
        assert_eq!(w.effective_parallelism(), 0.0);
        assert_eq!(w.imbalance(), 1.0);
        w.mc_busy = vec![100, 100, 100, 100];
        assert!((w.effective_parallelism() - 4.0).abs() < 1e-12);
        assert!((w.imbalance() - 1.0).abs() < 1e-12);
        w.mc_busy = vec![400, 0, 0, 0];
        assert!((w.effective_parallelism() - 1.0).abs() < 1e-12);
        assert!((w.imbalance() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn finish_pads_idle_tail() {
        let mut r = recorder();
        r.mc_service(0, 10, 5, 1, false);
        let t = r.finish(1000);
        assert_eq!(t.windows.len(), 10);
        assert_eq!(t.duration(), 1000);
    }
}
