//! The engine's inline path cache: `(vantage, dst, flow)` → the probe
//! path's whole resolved fate, stored in the slot itself.
//!
//! A purpose-built open-addressing table. The flow hash is already a
//! uniformly mixed 64-bit word (it incorporates src, dst, ports and
//! label through splitmix rounds), so it serves directly as the bucket
//! hash — a lookup is one masked index plus a linear scan that almost
//! always terminates on the first slot. No SipHash, no generic hasher
//! machinery. A hit hands back everything a probe needs after its flow
//! hash — hop range, destination class, firewall hop, the router owning
//! the destination address — so the only further memory a probe touches
//! is its hop range in the engine's flat hop arena.

use crate::route::DestEntry;
use crate::topology::RouterId;

/// A resolved path as cached: the output of
/// [`route::resolve`](crate::route::resolve) with its hops moved into
/// the engine's hop arena, plus the destination's owning router.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PathFate {
    /// Start of the path's hops in the engine's hop arena.
    pub hops_off: u32,
    /// Number of hops (at least one for every resolved path; zero marks
    /// a free slot).
    pub hops_len: u16,
    /// Index into the hops of the destination AS firewall, if any.
    pub firewall_hop: Option<u8>,
    /// What a probe that out-lives the path reaches.
    pub dest: DestEntry,
    /// Router owning the destination address as an interface
    /// ([`Topology::router_by_iface`](crate::topology::Topology::router_by_iface)),
    /// `NO_ROUTER` when none does.
    dst_router: u32,
}

const NO_ROUTER: u32 = u32::MAX;

impl PathFate {
    /// Packs a resolved path's fate; `dst_router` is the destination's
    /// owning router, looked up once when the slot is filled.
    pub fn new(
        hops_off: u32,
        hops_len: u16,
        firewall_hop: Option<u8>,
        dest: DestEntry,
        dst_router: Option<RouterId>,
    ) -> Self {
        debug_assert!(dst_router.is_none_or(|r| r.0 != NO_ROUTER));
        PathFate {
            hops_off,
            hops_len,
            firewall_hop,
            dest,
            dst_router: dst_router.map_or(NO_ROUTER, |r| r.0),
        }
    }

    /// The router owning the destination address, if it is a router
    /// interface.
    #[inline]
    pub fn dst_router(&self) -> Option<RouterId> {
        (self.dst_router != NO_ROUTER).then_some(RouterId(self.dst_router))
    }

    /// The path's hop range in the engine's hop arena.
    #[inline]
    pub fn hops(&self) -> std::ops::Range<usize> {
        self.hops_off as usize..self.hops_off as usize + self.hops_len as usize
    }
}

/// One cache slot; `fate.hops_len == 0` marks a free slot.
#[derive(Clone, Copy)]
struct Slot {
    dst: u128,
    flow: u64,
    fate: PathFate,
    vidx: u8,
}

// Key (25 bytes) and fate (20 bytes) share one 48-byte slot, so a hit
// touches at most two cache lines.
const _: () = assert!(std::mem::size_of::<Slot>() == 48);

const FREE: Slot = Slot {
    dst: 0,
    flow: 0,
    fate: PathFate {
        hops_off: 0,
        hops_len: 0,
        firewall_hop: None,
        dest: DestEntry::Unrouted {
            responder: RouterId(0),
        },
        dst_router: NO_ROUTER,
    },
    vidx: 0,
};

/// Open-addressed `(vantage, dst, flow) → PathFate` map.
pub struct PathCache {
    slots: Vec<Slot>,
    mask: usize,
    len: usize,
}

impl Default for PathCache {
    fn default() -> Self {
        Self::new()
    }
}

impl PathCache {
    /// An empty cache.
    pub fn new() -> Self {
        let cap = 1024;
        PathCache {
            slots: vec![FREE; cap],
            mask: cap - 1,
            len: 0,
        }
    }

    /// Entries stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entry is stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Looks up the fate cached for `(vidx, dst, flow)`.
    #[inline]
    pub fn get(&self, vidx: u8, dst: u128, flow: u64) -> Option<PathFate> {
        let mut i = flow as usize & self.mask;
        loop {
            let s = &self.slots[i];
            if s.fate.hops_len == 0 {
                return None;
            }
            if s.flow == flow && s.dst == dst && s.vidx == vidx {
                return Some(s.fate);
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Hints the CPU to pull the home slot of `flow` into cache (see
    /// [`crate::hint::prefetch`]); changes nothing.
    #[inline]
    pub fn prefetch(&self, flow: u64) {
        crate::hint::prefetch(&self.slots[flow as usize & self.mask]);
    }

    /// Inserts a new entry (the key must not already be present, and
    /// `fate.hops_len` must be non-zero).
    pub fn insert(&mut self, vidx: u8, dst: u128, flow: u64, fate: PathFate) {
        assert_ne!(fate.hops_len, 0, "a cached path has at least one hop");
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            self.grow();
        }
        Self::insert_slot(
            &mut self.slots,
            self.mask,
            Slot {
                dst,
                flow,
                fate,
                vidx,
            },
        );
        self.len += 1;
    }

    fn insert_slot(slots: &mut [Slot], mask: usize, slot: Slot) {
        let mut i = slot.flow as usize & mask;
        while slots[i].fate.hops_len != 0 {
            i = (i + 1) & mask;
        }
        slots[i] = slot;
    }

    fn grow(&mut self) {
        let cap = self.slots.len() * 2;
        let mask = cap - 1;
        let mut slots = vec![FREE; cap];
        for s in self.slots.iter().filter(|s| s.fate.hops_len != 0) {
            Self::insert_slot(&mut slots, mask, *s);
        }
        self.slots = slots;
        self.mask = mask;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fate(i: u32) -> PathFate {
        PathFate::new(
            i,
            (i % 30) as u16 + 1,
            i.is_multiple_of(3).then_some((i % 7) as u8),
            DestEntry::NoHost {
                responder: RouterId(i / 2),
            },
            i.is_multiple_of(5).then_some(RouterId(i)),
        )
    }

    #[test]
    fn insert_get_roundtrip_with_growth() {
        let mut c = PathCache::new();
        let n = 10_000u32;
        for i in 0..n {
            // Adversarially clustered flows exercise linear probing.
            let flow = (i as u64 / 4).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            c.insert((i % 3) as u8, i as u128 * 7, flow ^ i as u64, fate(i));
        }
        assert_eq!(c.len(), n as usize);
        for i in 0..n {
            let flow = (i as u64 / 4).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            assert_eq!(
                c.get((i % 3) as u8, i as u128 * 7, flow ^ i as u64),
                Some(fate(i))
            );
        }
        assert_eq!(c.get(9, 1, 2), None);
    }

    #[test]
    fn distinguishes_all_key_fields() {
        let mut c = PathCache::new();
        c.insert(1, 100, 7, fate(42));
        assert_eq!(c.get(1, 100, 7), Some(fate(42)));
        assert_eq!(c.get(2, 100, 7), None);
        assert_eq!(c.get(1, 101, 7), None);
        assert_eq!(c.get(1, 100, 8), None);
    }

    #[test]
    fn fate_round_trips_the_destination_router() {
        assert_eq!(fate(10).dst_router(), Some(RouterId(10)));
        assert_eq!(fate(11).dst_router(), None);
        assert_eq!(fate(11).hops(), 11..23);
    }
}
