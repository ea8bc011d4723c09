//! Property tests for the simulator: the engine must be total (no panic
//! on any input bytes), conservative (stats account for every probe),
//! and deterministic.

use proptest::prelude::*;
use simnet::config::TopologyConfig;
use simnet::generate::generate;
use simnet::{Delivery, Engine};
use std::sync::Arc;
use v6packet::probe::{ProbeSpec, Protocol};

fn topo() -> Arc<simnet::Topology> {
    // One shared topology: generation is deterministic, and the tests
    // only need a fixed world.
    Arc::new(generate(TopologyConfig::tiny(7)))
}

proptest! {
    /// Arbitrary bytes never panic the engine and never produce a
    /// response (garbage is not a probe).
    #[test]
    fn garbage_in_nothing_out(bytes in prop::collection::vec(any::<u8>(), 0..200), t: u32) {
        let mut e = Engine::new(topo());
        let out = e.inject(&bytes, t as u64);
        // A response requires a valid vantage source address; random
        // bytes essentially cannot contain one.
        prop_assert!(out.is_none());
        prop_assert_eq!(e.stats.probes, 1);
    }

    /// Well-formed probes to arbitrary destinations never panic, and
    /// every probe lands in exactly one accounting bucket.
    #[test]
    fn probes_always_accounted(
        dst: u128,
        ttl in 1u8..=64,
        proto in 0usize..3,
        vantage in 0u8..3,
        t in 0u64..10_000_000,
    ) {
        let topo = topo();
        let mut e = Engine::new(topo.clone());
        let spec = ProbeSpec {
            src: topo.vantages[vantage as usize].addr,
            target: std::net::Ipv6Addr::from(dst),
            protocol: [Protocol::Icmp6, Protocol::Udp, Protocol::Tcp][proto],
            ttl,
            instance: 1,
            elapsed_us: t as u32,
        };
        let delivery = e.inject(&spec.build(), t);
        let s = e.stats;
        prop_assert_eq!(s.probes, 1);
        let responded = s.responses();
        let suppressed = s.lost + s.rate_limited + s.silent_router + s.dest_silent + s.malformed;
        if delivery.is_some() {
            prop_assert_eq!(responded, 1, "stats: {:?}", s);
        } else {
            prop_assert!(suppressed >= 1, "silent but unaccounted: {:?}", s);
        }
        // Responses arrive strictly after sending.
        if let Some(d) = delivery {
            prop_assert!(d.at_us > t);
            // And they parse as one of the modeled packet types.
            let parses = v6packet::icmp6::parse(&d.bytes).is_some()
                || v6packet::tcp::parse(&d.bytes).is_some()
                || v6packet::frag::parse_fragmented_echo_reply(&d.bytes).is_some();
            prop_assert!(parses, "unparseable response");
        }
    }

    /// The engine is a deterministic function of (probe, time) from a
    /// fresh state.
    #[test]
    fn injection_deterministic(dst: u128, ttl in 1u8..=32, t in 0u64..1_000_000) {
        let topo = topo();
        let spec = ProbeSpec {
            src: topo.vantages[0].addr,
            target: std::net::Ipv6Addr::from(dst),
            protocol: Protocol::Icmp6,
            ttl,
            instance: 1,
            elapsed_us: t as u32,
        };
        let wire = spec.build();
        let mut e1 = Engine::new(topo.clone());
        let mut e2 = Engine::new(topo.clone());
        let a = e1.inject(&wire, t);
        let b = e2.inject(&wire, t);
        match (a, b) {
            (None, None) => {}
            (Some(x), Some(y)) => {
                prop_assert_eq!(x.at_us, y.at_us);
                prop_assert_eq!(x.bytes, y.bytes);
            }
            _ => prop_assert!(false, "nondeterministic delivery"),
        }
    }

    /// `Engine::prefetch` is a pure hint: on arbitrary bytes, on a real
    /// probe and on a truncated one, it leaves the stats and the next
    /// `inject_into` result exactly as an engine that never saw it.
    #[test]
    fn prefetch_is_output_neutral(
        bytes in prop::collection::vec(any::<u8>(), 0..200),
        dst: u128,
        ttl in 1u8..=32,
        proto in 0usize..3,
        vantage in 0u8..3,
        cut in 0usize..80,
        t in 0u64..1_000_000,
    ) {
        let topo = topo();
        let spec = ProbeSpec {
            src: topo.vantages[vantage as usize].addr,
            target: std::net::Ipv6Addr::from(dst),
            protocol: [Protocol::Icmp6, Protocol::Udp, Protocol::Tcp][proto],
            ttl,
            instance: 1,
            elapsed_us: t as u32,
        };
        let wire = spec.build();
        let mut hinted = Engine::new(topo.clone());
        let mut plain = Engine::new(topo.clone());
        // Warm both with the same probe so the hint meets a filled slot.
        let (mut dh, mut dp) = (Delivery::default(), Delivery::default());
        hinted.inject_into(&wire, t, &mut dh);
        plain.inject_into(&wire, t, &mut dp);
        hinted.prefetch(&bytes);
        hinted.prefetch(&wire);
        hinted.prefetch(&wire[..cut.min(wire.len())]);
        prop_assert_eq!(hinted.stats, plain.stats);
        for w in [&bytes[..], &wire[..]] {
            let a = hinted.inject_into(w, t + 1_000, &mut dh);
            let b = plain.inject_into(w, t + 1_000, &mut dp);
            prop_assert_eq!(a, b);
            if a {
                prop_assert_eq!(dh.at_us, dp.at_us);
                prop_assert_eq!(&dh.bytes, &dp.bytes);
            }
            prop_assert_eq!(hinted.stats, plain.stats);
        }
    }
}
