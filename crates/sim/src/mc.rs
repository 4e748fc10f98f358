//! Memory-controller service model: a dual-channel FB-DIMM link pair.
//!
//! Each of the T2's four memory controllers drives two FB-DIMM channels
//! whose links are *unidirectional*: a wide northbound path returns read
//! data while a narrower southbound path carries commands and write data —
//! that asymmetry is the 42 vs 21 GB/s nominal read:write ratio. Reads and
//! writes therefore do **not** serialize against each other; they contend
//! only through the southbound path, which every read must use for its
//! command before the northbound transfer can start. That coupling is what
//! makes write-heavy kernels (STREAM copy, 1 write per read) trail
//! read-heavy ones (triad, 1 write per 2–3 reads) — the paper's "overhead
//! for bidirectional transfers" (§2.1).
//!
//! Each `service_read`/`service_write` call serves one transfer, in call
//! order, and returns its completion time. Under the FIFO policy the engine
//! calls them at admission, so the completion is known at once and the
//! waiting thread's wake-up is scheduled directly; under an arbitrated
//! policy it calls them from the controller's arbitration event, once the
//! policy has picked the request (see [`crate::policy`]). Per-transfer
//! times carry a deterministic jitter (DRAM row hits/misses, refresh).

use crate::config::MemConfig;

/// One controller's pair of channel timelines.
#[derive(Debug, Clone)]
pub struct MemController {
    read_service: u64,
    write_service: u64,
    command_cycles: u64,
    jitter_permille: u64,
    rng: u64,
    /// The seeded initial PRNG state, so [`MemController::reset`] restores
    /// the jitter stream along with the channel timelines.
    rng_seeded: u64,
    /// Time the northbound (read-data) channel becomes free.
    pub north_busy: u64,
    /// Time the southbound (command + write-data) channel becomes free.
    pub south_busy: u64,
}

/// Outcome of admitting one transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceOutcome {
    /// When the transfer's data movement completes.
    pub completion: u64,
    /// Busy cycles added to the controller (both channels).
    pub busy_added: u64,
}

impl MemController {
    /// A fresh idle controller with the given timing. `seed` decorrelates
    /// the jitter streams of different controllers (use the controller
    /// index).
    pub fn new_seeded(cfg: &MemConfig, seed: u64) -> Self {
        assert!(
            (0.0..1.0).contains(&cfg.service_jitter),
            "service_jitter must be in [0, 1)"
        );
        let rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        MemController {
            read_service: cfg.read_service,
            write_service: cfg.write_service,
            command_cycles: cfg.command_cycles,
            jitter_permille: (cfg.service_jitter * 1000.0) as u64,
            rng,
            rng_seeded: rng,
            north_busy: 0,
            south_busy: 0,
        }
    }

    /// A fresh idle controller with the given timing (seed 0).
    pub fn new(cfg: &MemConfig) -> Self {
        Self::new_seeded(cfg, 0)
    }

    /// Deterministic xorshift64 jitter in ±`jitter_permille` of `service`.
    #[inline]
    fn jitter(&mut self, service: u64) -> i64 {
        if self.jitter_permille == 0 {
            return 0;
        }
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        let span = 2 * self.jitter_permille + 1;
        let draw = (x % span) as i64 - self.jitter_permille as i64;
        (service as i64 * draw) / 1000
    }

    /// Admits one 64 B read arriving at `arrival`: its command goes over
    /// the southbound channel, then the data returns northbound.
    pub fn service_read(&mut self, arrival: u64) -> ServiceOutcome {
        let cmd_start = arrival.max(self.south_busy);
        self.south_busy = cmd_start + self.command_cycles;
        let service = {
            let base = self.read_service;
            (base as i64 + self.jitter(base)).max(1) as u64
        };
        let data_start = (cmd_start + self.command_cycles).max(self.north_busy);
        self.north_busy = data_start + service;
        ServiceOutcome {
            completion: data_start + service,
            busy_added: service + self.command_cycles,
        }
    }

    /// Admits one 64 B write (write-back) arriving at `arrival`: data goes
    /// over the southbound channel.
    pub fn service_write(&mut self, arrival: u64) -> ServiceOutcome {
        let service = {
            let base = self.write_service;
            (base as i64 + self.jitter(base)).max(1) as u64
        };
        let start = arrival.max(self.south_busy);
        self.south_busy = start + service;
        ServiceOutcome {
            completion: start + service,
            busy_added: service,
        }
    }

    /// Resets the controller to its as-constructed state: both channel
    /// timelines *and* the jitter PRNG, which returns to the state
    /// [`MemController::new_seeded`] established. A reset controller is
    /// indistinguishable from a freshly built one, so reusing controllers
    /// across runs stays bit-reproducible.
    pub fn reset(&mut self) {
        self.north_busy = 0;
        self.south_busy = 0;
        self.rng = self.rng_seeded;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ChipConfig;

    fn mc() -> MemController {
        // Deterministic timing for the arithmetic tests: disable jitter.
        let mut cfg = ChipConfig::ultrasparc_t2().mem;
        cfg.service_jitter = 0.0;
        MemController::new(&cfg)
    }

    #[test]
    fn idle_read_costs_command_plus_service() {
        let mut m = mc();
        let cfg = ChipConfig::ultrasparc_t2().mem;
        let out = m.service_read(100);
        assert_eq!(out.completion, 100 + cfg.command_cycles + cfg.read_service);
    }

    #[test]
    fn reads_pipeline_on_the_north_channel() {
        let mut m = mc();
        let cfg = ChipConfig::ultrasparc_t2().mem;
        let a = m.service_read(0);
        let b = m.service_read(0);
        // Commands go back to back; data transfers serialize northbound.
        assert_eq!(a.completion, cfg.command_cycles + cfg.read_service);
        assert_eq!(b.completion, a.completion + cfg.read_service);
    }

    #[test]
    fn reads_and_writes_overlap_across_channels() {
        let mut m = mc();
        let cfg = ChipConfig::ultrasparc_t2().mem;
        let w = m.service_write(0);
        let r = m.service_read(0);
        assert_eq!(w.completion, cfg.write_service);
        // The read's command waits for the write on the south channel, but
        // the data transfer itself runs on the idle north channel.
        assert_eq!(
            r.completion,
            cfg.write_service + cfg.command_cycles + cfg.read_service
        );
        // Crucially, a second write does NOT wait for the read data.
        let w2 = m.service_write(0);
        assert!(w2.completion < r.completion + cfg.write_service);
    }

    #[test]
    fn write_heavy_mix_is_south_bound() {
        // Equal reads and writes: the south channel (write + commands) is
        // the bottleneck — the copy < triad mechanism.
        let mut m = mc();
        let cfg = ChipConfig::ultrasparc_t2().mem;
        let n = 100u64;
        let mut last = 0;
        for _ in 0..n {
            last = last
                .max(m.service_read(0).completion)
                .max(m.service_write(0).completion);
        }
        let south_time = n * (cfg.write_service + cfg.command_cycles);
        assert!(m.south_busy >= south_time);
        assert!(last >= south_time);
    }

    #[test]
    fn late_arrival_finds_idle_channels() {
        let mut m = mc();
        let cfg = ChipConfig::ultrasparc_t2().mem;
        m.service_read(0);
        let out = m.service_read(10_000);
        assert_eq!(
            out.completion,
            10_000 + cfg.command_cycles + cfg.read_service
        );
    }

    #[test]
    fn reset_restores_the_seeded_jitter_stream() {
        // Regression: `reset` used to clear only the channel timelines and
        // leave the PRNG wherever the previous run advanced it, so a reset
        // controller produced a *different* jitter sequence than a fresh
        // one — silently breaking bit-reproducibility for any caller that
        // reuses controllers across runs.
        let mut cfg = ChipConfig::ultrasparc_t2().mem;
        cfg.service_jitter = 0.3;
        let mut reused = MemController::new_seeded(&cfg, 5);
        let fresh_run: Vec<_> = {
            let mut m = MemController::new_seeded(&cfg, 5);
            (0..50).map(|_| m.service_read(0)).collect()
        };
        for _ in 0..17 {
            reused.service_read(0);
            reused.service_write(0);
        }
        reused.reset();
        assert_eq!(reused.north_busy, 0);
        assert_eq!(reused.south_busy, 0);
        let second_run: Vec<_> = (0..50).map(|_| reused.service_read(0)).collect();
        assert_eq!(
            fresh_run, second_run,
            "a reset controller must replay the seeded jitter stream"
        );
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let mut cfg = ChipConfig::ultrasparc_t2().mem;
        cfg.service_jitter = 0.3;
        let mut a = MemController::new_seeded(&cfg, 7);
        let mut b = MemController::new_seeded(&cfg, 7);
        for _ in 0..100 {
            let (x, y) = (a.service_read(0), b.service_read(0));
            assert_eq!(x, y, "same seed, same timing");
        }
        let mut c = MemController::new_seeded(&cfg, 7);
        let mut prev = 0;
        for _ in 0..100 {
            let out = c.service_read(0);
            let service = out.completion - prev.max(cfg.command_cycles);
            let lo = (cfg.read_service as f64 * 0.69) as u64;
            let hi = (cfg.read_service as f64 * 1.31) as u64 + cfg.command_cycles;
            assert!(
                service >= lo && service <= hi + out.completion, // loose sanity
                "service draw out of range"
            );
            prev = out.completion;
        }
    }
}
