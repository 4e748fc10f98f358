//! Shared helpers for kernel trace construction.

use t2opt_parallel::Placement;
use t2opt_sim::trace::Program;
use t2opt_sim::ThreadSpec;

/// A bump allocator for the *virtual* address space handed to the
/// simulator. The paper notes that with ≥ 4 kB pages the distinction
/// between physical and virtual addresses "is of no importance" for the
/// controller mapping (§1), so kernels simply lay their arrays out in a
/// synthetic address space with byte-exact control.
#[derive(Debug, Clone)]
pub struct VirtualAlloc {
    cursor: u64,
}

impl VirtualAlloc {
    /// A fresh address space. Allocation starts away from address 0 so that
    /// "previous allocation" artifacts (malloc headers etc.) can be
    /// emulated explicitly.
    pub fn new() -> Self {
        VirtualAlloc {
            cursor: 0x1000_0000,
        }
    }

    /// Allocates `bytes` aligned to `align` (power of two), then displaced
    /// by `offset` bytes. Returns the (displaced) base address.
    pub fn alloc(&mut self, bytes: u64, align: u64, offset: u64) -> u64 {
        assert!(align.is_power_of_two());
        let aligned = (self.cursor + align - 1) & !(align - 1);
        let base = aligned + offset;
        self.cursor = base + bytes;
        base
    }

    /// Emulates a plain `malloc`: 16-byte alignment with a 16-byte header
    /// preceding the usable region, arrays packed back to back — the
    /// "plain" configuration of Fig. 4 whose base addresses are whatever
    /// they happen to be.
    pub fn malloc(&mut self, bytes: u64) -> u64 {
        self.alloc(bytes + 16, 16, 16)
    }

    /// Current cursor (useful to leave deliberate gaps).
    pub fn cursor(&self) -> u64 {
        self.cursor
    }

    /// Moves the cursor forward by `bytes` (a guard gap).
    pub fn gap(&mut self, bytes: u64) {
        self.cursor += bytes;
    }
}

impl Default for VirtualAlloc {
    fn default() -> Self {
        VirtualAlloc::new()
    }
}

/// Wraps per-thread programs into [`ThreadSpec`]s according to a placement
/// policy over `n_cores` simulated cores.
pub fn place_threads(
    programs: Vec<Program>,
    placement: &Placement,
    n_cores: usize,
) -> Vec<ThreadSpec> {
    programs
        .into_iter()
        .enumerate()
        .map(|(tid, program)| {
            let core = placement.core_of(tid).unwrap_or(tid % n_cores) % n_cores;
            ThreadSpec::new(core, program)
        })
        .collect()
}

/// The shortest of `ntimes + 1` timed calls of `sweep`, in seconds (the
/// STREAM benchmark's best-of-N timing).
pub(crate) fn best_secs(ntimes: usize, mut sweep: impl FnMut()) -> f64 {
    (0..=ntimes)
        .map(|_| {
            let t0 = std::time::Instant::now();
            sweep();
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_respects_alignment_and_offset() {
        let mut va = VirtualAlloc::new();
        let a = va.alloc(1000, 8192, 0);
        assert_eq!(a % 8192, 0);
        let b = va.alloc(1000, 8192, 128);
        assert_eq!(b % 8192, 128);
        assert!(b > a + 1000);
    }

    #[test]
    fn malloc_is_16_byte_aligned_off_16() {
        let mut va = VirtualAlloc::new();
        let a = va.malloc(100);
        assert_eq!(a % 16, 0);
        let b = va.malloc(100);
        // Packed: b starts right after a's 100 bytes + next header.
        assert!(b >= a + 100 + 16);
        assert!(b <= a + 100 + 48);
    }

    #[test]
    fn place_threads_scatter() {
        use t2opt_sim::trace::Op;
        let programs: Vec<Program> = (0..16)
            .map(|_| Box::new(std::iter::once(Op::Delay(1))) as Program)
            .collect();
        let specs = place_threads(programs, &Placement::Scatter { n_cores: 8 }, 8);
        assert_eq!(specs[0].core, 0);
        assert_eq!(specs[7].core, 7);
        assert_eq!(specs[8].core, 0);
    }
}
