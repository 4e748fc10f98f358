//! Aligned raw allocation — the `posix_memalign` equivalent.
//!
//! The paper aligns array bases "to some boundary by allocating memory using
//! the standard `posix_memalign()` libc function" (§2.2). [`AlignedBuf`] is
//! the safe Rust counterpart: a zero-initialized byte buffer whose base
//! address is a multiple of a caller-chosen power-of-two alignment.

use std::alloc::{alloc_zeroed, dealloc, handle_alloc_error, Layout};
use std::ptr::NonNull;

/// A heap allocation of raw bytes with guaranteed base alignment.
///
/// The buffer is zero-initialized. Typed views are carved out of it by
/// [`SegArray`](crate::seg_array::SegArray); it can also be used directly for
/// hand-rolled layouts.
///
/// ```
/// use t2opt_core::alloc::AlignedBuf;
/// let buf = AlignedBuf::new(4096, 8192);
/// assert_eq!(buf.base_addr() % 8192, 0);
/// assert_eq!(buf.len(), 4096);
/// ```
pub struct AlignedBuf {
    ptr: NonNull<u8>,
    len: usize,
    layout: Layout,
}

// SAFETY: AlignedBuf uniquely owns its allocation; sending it to another
// thread transfers that ownership, and shared references only permit reads.
unsafe impl Send for AlignedBuf {}
unsafe impl Sync for AlignedBuf {}

impl AlignedBuf {
    /// Allocates `len` zeroed bytes aligned to `align` (a power of two).
    ///
    /// # Panics
    /// Panics if `align` is not a power of two or if `len` overflows the
    /// allocator's limits. A zero `len` is promoted to one line so the base
    /// address stays meaningful.
    pub fn new(len: usize, align: usize) -> Self {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let len = len.max(1);
        let layout = Layout::from_size_align(len, align).expect("invalid layout");
        // SAFETY: layout has non-zero size.
        let raw = unsafe { alloc_zeroed(layout) };
        let Some(ptr) = NonNull::new(raw) else {
            handle_alloc_error(layout);
        };
        AlignedBuf { ptr, len, layout }
    }

    /// Number of bytes in the buffer.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer is empty (never true: zero-sized requests are
    /// promoted to one byte).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Base address of the allocation as an integer, for mapping analysis.
    #[inline]
    pub fn base_addr(&self) -> usize {
        self.ptr.as_ptr() as usize
    }

    /// Raw base pointer.
    #[inline]
    pub fn as_ptr(&self) -> *const u8 {
        self.ptr.as_ptr()
    }

    /// Raw mutable base pointer.
    #[inline]
    pub fn as_mut_ptr(&mut self) -> *mut u8 {
        self.ptr.as_ptr()
    }

    /// Immutable view of the whole buffer.
    #[inline]
    pub fn bytes(&self) -> &[u8] {
        // SAFETY: ptr is valid for len bytes and we hand out a shared view.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }

    /// Interprets the byte range `[byte_off, byte_off + n * size_of::<T>())`
    /// as a typed slice.
    ///
    /// # Panics
    /// Panics if the range is out of bounds or misaligned for `T`.
    #[inline]
    pub fn typed<T>(&self, byte_off: usize, n: usize) -> &[T] {
        self.check_range::<T>(byte_off, n);
        // SAFETY: range checked; alignment checked; shared borrow of self.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr().add(byte_off) as *const T, n) }
    }

    /// Mutable variant of [`AlignedBuf::typed`].
    #[inline]
    pub fn typed_mut<T>(&mut self, byte_off: usize, n: usize) -> &mut [T] {
        self.check_range::<T>(byte_off, n);
        // SAFETY: range checked; alignment checked; exclusive borrow of self.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr().add(byte_off) as *mut T, n) }
    }

    #[inline]
    fn check_range<T>(&self, byte_off: usize, n: usize) {
        let bytes = n
            .checked_mul(std::mem::size_of::<T>())
            .expect("length overflow");
        assert!(
            byte_off
                .checked_add(bytes)
                .is_some_and(|end| end <= self.len),
            "typed range out of bounds: off={byte_off} n={n} len={}",
            self.len
        );
        assert_eq!(
            (self.base_addr() + byte_off) % std::mem::align_of::<T>(),
            0,
            "typed range misaligned for T"
        );
    }
}

impl Drop for AlignedBuf {
    fn drop(&mut self) {
        // SAFETY: ptr/layout come from alloc_zeroed with the same layout.
        unsafe { dealloc(self.ptr.as_ptr(), self.layout) };
    }
}

impl std::fmt::Debug for AlignedBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AlignedBuf")
            .field("base", &format_args!("{:#x}", self.base_addr()))
            .field("len", &self.len)
            .field("align", &self.layout.align())
            .finish()
    }
}

/// Rounds `x` up to the next multiple of `align` (power of two).
#[inline]
pub const fn align_up(x: usize, align: usize) -> usize {
    debug_assert!(align.is_power_of_two());
    (x + align - 1) & !(align - 1)
}

/// Rounds `x` down to the previous multiple of `align` (power of two).
#[inline]
pub const fn align_down(x: usize, align: usize) -> usize {
    debug_assert!(align.is_power_of_two());
    x & !(align - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alignment_is_respected() {
        for align in [64, 128, 512, 4096, 8192] {
            let buf = AlignedBuf::new(1000, align);
            assert_eq!(buf.base_addr() % align, 0, "align {align}");
        }
    }

    #[test]
    fn zero_initialized() {
        let buf = AlignedBuf::new(4096, 64);
        assert!(buf.bytes().iter().all(|&b| b == 0));
    }

    #[test]
    fn typed_views_round_trip() {
        let mut buf = AlignedBuf::new(1024, 64);
        {
            let xs = buf.typed_mut::<f64>(64, 10);
            for (i, x) in xs.iter_mut().enumerate() {
                *x = i as f64;
            }
        }
        let xs = buf.typed::<f64>(64, 10);
        assert_eq!(xs[9], 9.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn typed_out_of_bounds_panics() {
        let buf = AlignedBuf::new(64, 64);
        let _ = buf.typed::<f64>(0, 9);
    }

    #[test]
    #[should_panic(expected = "misaligned")]
    fn typed_misaligned_panics() {
        let buf = AlignedBuf::new(64, 64);
        let _ = buf.typed::<f64>(4, 1);
    }

    #[test]
    fn zero_len_promoted() {
        let buf = AlignedBuf::new(0, 64);
        assert_eq!(buf.len(), 1);
        assert!(!buf.is_empty());
    }

    #[test]
    fn align_helpers() {
        assert_eq!(align_up(0, 64), 0);
        assert_eq!(align_up(1, 64), 64);
        assert_eq!(align_up(64, 64), 64);
        assert_eq!(align_up(65, 64), 128);
        assert_eq!(align_down(63, 64), 0);
        assert_eq!(align_down(64, 64), 64);
        assert_eq!(align_down(130, 64), 128);
    }
}
