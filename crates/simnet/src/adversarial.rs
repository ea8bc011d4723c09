//! Virtual-time adversarial injection: hostile responders layered over
//! the deterministic topology.
//!
//! Where [`crate::fault`] models parts of the network *failing*, this
//! module models parts of it *lying*. An [`AdversarialSchedule`]
//! designates routers as hostile for a window of the virtual clock, in
//! one of five classes drawn from the pathologies a real IPv6 campaign
//! meets (bogus quotes, spoofed sources, broken middleboxes):
//!
//! * [`AdversarialClass::LyingTtl`] — the router answers normally but
//!   rewrites the quoted probe's TTL field to a per-(router, target)
//!   pseudo-random lie, teleporting the record to a wrong hop distance;
//! * [`AdversarialClass::SpoofedSource`] — the router's Time Exceeded
//!   errors carry a fabricated source address outside the topology's
//!   address space. An off-path spoofer cannot know the quoted packet's
//!   residual hop limit, so its quotes keep the original value instead
//!   of the exhausted `0` — the inconsistency a hardened decoder
//!   rejects;
//! * [`AdversarialClass::ZombieEcho`] — an in-path middlebox that
//!   intercepts every probe passing beyond it and answers Time Exceeded
//!   with its own address, whatever the probe's TTL — the "answers for
//!   every TTL" zombie, which plants its address at many TTLs of the
//!   same trace;
//! * [`AdversarialClass::DuplicateStorm`] — a stale buffer bug: the
//!   router also answers probes addressed a few TTLs past it
//!   ([`STORM_SPREAD`]), smearing duplicates of its Time Exceeded over
//!   neighboring rows and suppressing the true hops there;
//! * [`AdversarialClass::GarbageBytes`] — the router's responses leave
//!   corrupted: deterministically truncated or bit-flipped, exercising
//!   every branch of a total decoder.
//!
//! The schedule rides on
//! [`TopologyConfig::adversarial`](crate::config::TopologyConfig::adversarial)
//! and is evaluated by [`Engine`](crate::engine::Engine) per probe on
//! the same shifted virtual clock as the fault schedule, charging one
//! of the `adv_*` counters of [`EngineStats`](crate::engine::EngineStats)
//! per hostile action. Everything is pure arithmetic — no wall time, no
//! RNG — so a poisoned campaign replays bit-for-bit, and the default
//! (empty) schedule is a guaranteed no-op on the hot path.

use crate::topology::RouterId;
use serde::{Deserialize, Serialize};

/// How many TTLs past its own depth a [`AdversarialClass::DuplicateStorm`]
/// responder keeps answering for, spraying stale duplicates over the
/// neighboring rows of the trace.
pub const STORM_SPREAD: usize = 2;

/// The hostile behavior a scheduled responder exhibits.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AdversarialClass {
    /// Rewrites the quoted probe TTL to a per-(router, target) lie.
    LyingTtl,
    /// Time Exceeded errors carry a fabricated off-topology source and
    /// an un-exhausted (non-zero) quoted hop limit.
    SpoofedSource,
    /// Intercepts every probe passing beyond it and answers Time
    /// Exceeded with its own address, at any TTL.
    ZombieEcho,
    /// Also answers probes addressed up to [`STORM_SPREAD`] TTLs past
    /// it, shadowing the true hops there with stale duplicates.
    DuplicateStorm,
    /// Emits truncated or bit-flipped response bytes.
    GarbageBytes,
}

impl AdversarialClass {
    /// Bit for the engine's per-router class mask.
    pub(crate) fn bit(self) -> u8 {
        match self {
            AdversarialClass::LyingTtl => 1 << 0,
            AdversarialClass::SpoofedSource => 1 << 1,
            AdversarialClass::ZombieEcho => 1 << 2,
            AdversarialClass::DuplicateStorm => 1 << 3,
            AdversarialClass::GarbageBytes => 1 << 4,
        }
    }

    /// Every class, in declaration order (bench/test fan-out helper).
    pub const ALL: [AdversarialClass; 5] = [
        AdversarialClass::LyingTtl,
        AdversarialClass::SpoofedSource,
        AdversarialClass::ZombieEcho,
        AdversarialClass::DuplicateStorm,
        AdversarialClass::GarbageBytes,
    ];
}

/// One router's hostile window: `router` exhibits `class` for probes
/// whose shifted virtual send time falls in `[from_us, until_us)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct HostileWindow {
    /// The router that misbehaves.
    pub router: RouterId,
    /// What it does while hostile.
    pub class: AdversarialClass,
    /// Window start (inclusive), µs on the virtual clock.
    pub from_us: u64,
    /// Window end (exclusive). `u64::MAX` never ends.
    pub until_us: u64,
}

/// A deterministic, virtual-time schedule of hostile responders.
///
/// Attach one to
/// [`TopologyConfig::adversarial`](crate::config::TopologyConfig::adversarial);
/// the engine evaluates it per probe. The default (empty) schedule is a
/// guaranteed no-op: the hot path pays one cached branch when nothing is
/// scheduled, so clean campaigns stay bit-identical to builds without
/// this module. One router may carry several classes at once — the
/// behaviors compose (a lying zombie both intercepts and mis-quotes).
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AdversarialSchedule {
    /// Scheduled hostile windows, evaluated independently.
    pub hostiles: Vec<HostileWindow>,
}

impl AdversarialSchedule {
    /// No hostile responders at all — the engine skips evaluation.
    pub fn is_empty(&self) -> bool {
        self.hostiles.is_empty()
    }

    /// Adds a hostile window (builder style).
    pub fn with_hostile(
        mut self,
        router: RouterId,
        class: AdversarialClass,
        from_us: u64,
        until_us: u64,
    ) -> Self {
        self.hostiles.push(HostileWindow {
            router,
            class,
            from_us,
            until_us,
        });
        self
    }

    /// Adds a permanently hostile router (builder style): the window is
    /// `[0, u64::MAX)`.
    pub fn with_hostile_always(self, router: RouterId, class: AdversarialClass) -> Self {
        self.with_hostile(router, class, 0, u64::MAX)
    }

    /// Is `router` exhibiting `class` at `now_us`?
    pub fn active(&self, router: RouterId, class: AdversarialClass, now_us: u64) -> bool {
        self.hostiles.iter().any(|h| {
            h.router == router && h.class == class && h.from_us <= now_us && now_us < h.until_us
        })
    }
}

/// A schedule's non-empty windows grouped by router, in CSR form: the
/// engine's per-probe view of an [`AdversarialSchedule`].
///
/// Built in O(routers + windows) by a counting sort over the windows;
/// [`HostileIndex::active`] then scans only the queried router's
/// windows, behind a per-router union of class bits that lets honest
/// routers skip even that. Windows naming a router outside the topology
/// and empty windows (`from_us >= until_us`) are dropped: neither can
/// ever be active for a probe.
#[derive(Clone, Debug, Default)]
pub(crate) struct HostileIndex {
    /// Per-router union of class bits (0 for honest routers).
    mask: Vec<u8>,
    /// `windows[offsets[r]..offsets[r + 1]]` are router `r`'s windows.
    offsets: Vec<u32>,
    /// `(class bit, from_us, until_us)`, grouped by router.
    windows: Vec<(u8, u64, u64)>,
}

impl HostileIndex {
    /// Indexes `sched` for a topology of `routers` routers.
    pub(crate) fn new(sched: &AdversarialSchedule, routers: usize) -> Self {
        // Clean topologies (the common case) allocate nothing.
        if sched.is_empty() {
            return HostileIndex::default();
        }
        let live = |h: &&HostileWindow| (h.router.0 as usize) < routers && h.from_us < h.until_us;
        let mut counts = vec![0u32; routers + 1];
        let mut mask = vec![0u8; routers];
        for h in sched.hostiles.iter().filter(live) {
            counts[h.router.0 as usize + 1] += 1;
            mask[h.router.0 as usize] |= h.class.bit();
        }
        for r in 0..routers {
            counts[r + 1] += counts[r];
        }
        if counts[routers] == 0 {
            return HostileIndex::default();
        }
        let offsets = counts.clone();
        let mut windows = vec![(0u8, 0u64, 0u64); offsets[routers] as usize];
        for h in sched.hostiles.iter().filter(live) {
            let slot = &mut counts[h.router.0 as usize];
            windows[*slot as usize] = (h.class.bit(), h.from_us, h.until_us);
            *slot += 1;
        }
        HostileIndex {
            mask,
            offsets,
            windows,
        }
    }

    /// No window can ever be active: the engine skips evaluation.
    pub(crate) fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Union of the class bits `router` ever exhibits (0 for honest
    /// routers and routers outside the indexed topology).
    #[inline]
    pub(crate) fn mask(&self, router: RouterId) -> u8 {
        self.mask.get(router.0 as usize).copied().unwrap_or(0)
    }

    /// Is `router` exhibiting `class` at `now_us`? Agrees with
    /// [`AdversarialSchedule::active`] for every router of the indexed
    /// topology.
    #[inline]
    pub(crate) fn active(&self, router: RouterId, class: AdversarialClass, now_us: u64) -> bool {
        let bit = class.bit();
        if self.mask(router) & bit == 0 {
            return false;
        }
        let r = router.0 as usize;
        self.windows[self.offsets[r] as usize..self.offsets[r + 1] as usize]
            .iter()
            .any(|&(b, from, until)| b == bit && from <= now_us && now_us < until)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_schedule_is_a_no_op() {
        let s = AdversarialSchedule::default();
        assert!(s.is_empty());
        let idx = HostileIndex::new(&s, 4);
        assert!(idx.is_empty());
        for c in AdversarialClass::ALL {
            assert!(!s.active(RouterId(0), c, 0));
            assert!(!idx.active(RouterId(0), c, 0));
        }
    }

    #[test]
    fn windows_are_half_open_and_per_class() {
        let r = RouterId(5);
        let s =
            AdversarialSchedule::default().with_hostile(r, AdversarialClass::LyingTtl, 100, 200);
        assert!(!s.is_empty());
        assert!(!s.active(r, AdversarialClass::LyingTtl, 99));
        assert!(s.active(r, AdversarialClass::LyingTtl, 100));
        assert!(s.active(r, AdversarialClass::LyingTtl, 199));
        assert!(!s.active(r, AdversarialClass::LyingTtl, 200));
        assert!(
            !s.active(r, AdversarialClass::ZombieEcho, 150),
            "other classes unaffected"
        );
        assert!(
            !s.active(RouterId(6), AdversarialClass::LyingTtl, 150),
            "other routers unaffected"
        );
    }

    #[test]
    fn class_mask_unions_all_windows() {
        let r = RouterId(9);
        let s = AdversarialSchedule::default()
            .with_hostile(r, AdversarialClass::LyingTtl, 0, 100)
            .with_hostile(r, AdversarialClass::GarbageBytes, 500, 600)
            .with_hostile(RouterId(10), AdversarialClass::ZombieEcho, 0, u64::MAX);
        let idx = HostileIndex::new(&s, 11);
        assert_eq!(
            idx.mask(r),
            AdversarialClass::LyingTtl.bit() | AdversarialClass::GarbageBytes.bit()
        );
        assert_eq!(idx.mask(RouterId(10)), AdversarialClass::ZombieEcho.bit());
        assert_eq!(idx.mask(RouterId(8)), 0);
        assert_eq!(idx.mask(RouterId(11)), 0, "outside the topology");
        // A degenerate (empty) window contributes nothing.
        let s = AdversarialSchedule::default().with_hostile(r, AdversarialClass::LyingTtl, 50, 50);
        let idx = HostileIndex::new(&s, 11);
        assert!(idx.is_empty());
        assert!(!idx.active(r, AdversarialClass::LyingTtl, 50));
        assert!(!s.active(r, AdversarialClass::LyingTtl, 50));
    }

    #[test]
    fn always_hostile_never_expires() {
        let r = RouterId(1);
        let s =
            AdversarialSchedule::default().with_hostile_always(r, AdversarialClass::DuplicateStorm);
        assert!(s.active(r, AdversarialClass::DuplicateStorm, 0));
        assert!(s.active(r, AdversarialClass::DuplicateStorm, u64::MAX - 1));
    }

    #[test]
    fn class_bits_are_distinct() {
        let mut seen = 0u8;
        for c in AdversarialClass::ALL {
            assert_eq!(seen & c.bit(), 0, "duplicate bit for {c:?}");
            seen |= c.bit();
        }
        assert_eq!(seen.count_ones(), 5);
    }

    fn class_of(i: u8) -> AdversarialClass {
        AdversarialClass::ALL[i as usize % AdversarialClass::ALL.len()]
    }

    proptest::proptest! {
        /// The per-router index agrees with the schedule's reference
        /// scan on random schedules: overlapping windows of every class
        /// on few routers, empty windows, and routers beyond the
        /// topology (ignored by the index, never a panic).
        #[test]
        fn index_matches_schedule_scan(
            windows in proptest::collection::vec(
                (0u32..12, 0u8..5, (0u64..400, 0u64..400)),
                0..40,
            ),
            routers in 0usize..10,
            probes in proptest::collection::vec((0u32..12, 0u64..450), 1..60),
        ) {
            let mut s = AdversarialSchedule::default();
            for &(r, c, (from, len)) in &windows {
                // About one window in four is empty or inverted.
                let until = if len % 4 == 0 { from.saturating_sub(len) } else { from + len };
                s = s.with_hostile(RouterId(r), class_of(c), from, until);
            }
            let idx = HostileIndex::new(&s, routers);
            let live = windows
                .iter()
                .any(|&(r, _, (_, len))| (r as usize) < routers && len % 4 != 0);
            proptest::prop_assert_eq!(idx.is_empty(), !live);
            for &(r, now) in &probes {
                let router = RouterId(r);
                for c in AdversarialClass::ALL {
                    let want = (r as usize) < routers && s.active(router, c, now);
                    proptest::prop_assert_eq!(idx.active(router, c, now), want);
                }
                if (r as usize) < routers {
                    let mask = s
                        .hostiles
                        .iter()
                        .filter(|h| h.router == router && h.from_us < h.until_us)
                        .fold(0u8, |m, h| m | h.class.bit());
                    proptest::prop_assert_eq!(idx.mask(router), mask);
                } else {
                    proptest::prop_assert_eq!(idx.mask(router), 0);
                }
            }
        }
    }
}
