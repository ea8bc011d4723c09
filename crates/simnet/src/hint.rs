//! Cache-prefetch hints: the workspace's one `unsafe` site.
//!
//! Hot loops whose next memory address is known ahead of time (the
//! prober's permutation lookahead, the engine's path-cache home slot,
//! the interner's classify window) issue a prefetch for it so the miss
//! overlaps with useful work instead of stalling the probe that needs
//! it. A prefetch never changes program state: it is a pure hint.

/// Cache-line size the hint steps by.
const LINE: usize = 64;

/// Hints the CPU to pull every cache line `r` occupies into L1.
///
/// A no-op for zero-sized types and on targets other than x86_64.
#[inline(always)]
pub fn prefetch<T>(r: &T) {
    #[cfg(target_arch = "x86_64")]
    {
        let size = std::mem::size_of::<T>();
        let p = (r as *const T).cast::<i8>();
        // One hint per line-sized step plus one at the last byte covers
        // every line the referent touches, however it is aligned; with
        // `size` a constant the loop unrolls to a few instructions.
        let mut off = 0;
        while off < size {
            line(p.wrapping_add(off));
            off += LINE;
        }
        if size > 0 {
            line(p.wrapping_add(size - 1));
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = r;
    }
}

/// Prefetches the cache line holding `p`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn line(p: *const i8) {
    // SAFETY: `prefetcht0` is architecturally a hint: it never faults
    // and never writes, whatever address it is given. `prefetch` only
    // passes addresses of bytes inside its referent anyway.
    #[allow(unsafe_code)]
    unsafe {
        std::arch::x86_64::_mm_prefetch(p, std::arch::x86_64::_MM_HINT_T0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetch_is_a_pure_hint() {
        let straddling = [7u8; 200];
        prefetch(&straddling);
        prefetch(&straddling[63]);
        prefetch(&());
        let v: Vec<u64> = (0..1000).collect();
        prefetch(&v[999]);
        assert_eq!(straddling, [7u8; 200]);
        assert_eq!(v.iter().sum::<u64>(), 999 * 1000 / 2);
    }
}
