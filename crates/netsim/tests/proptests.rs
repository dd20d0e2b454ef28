//! Property-based tests for the simulator's invariants.

use proptest::prelude::*;

use netsim::geo::{route_inflation, GeoPoint};
use netsim::{AccessProfile, Deployment, Path, SimDuration, SimRng, Site};

fn arb_point() -> impl Strategy<Value = GeoPoint> {
    (-90.0f64..90.0, -180.0f64..180.0).prop_map(|(lat, lon)| GeoPoint::new(lat, lon))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn distance_is_a_metric(a in arb_point(), b in arb_point(), c in arb_point()) {
        let dab = a.distance_km(&b);
        let dba = b.distance_km(&a);
        prop_assert!((dab - dba).abs() < 1e-6, "symmetry");
        prop_assert!(dab >= 0.0, "non-negative");
        prop_assert!(a.distance_km(&a) < 1e-9, "identity");
        // Triangle inequality with numerical slack.
        prop_assert!(dab <= a.distance_km(&c) + c.distance_km(&b) + 1e-6);
        // Bounded by half the circumference.
        prop_assert!(dab <= std::f64::consts::PI * netsim::geo::EARTH_RADIUS_KM + 1.0);
    }

    #[test]
    fn inflation_is_symmetric_and_bounded(a in arb_point(), b in arb_point()) {
        let f = route_inflation(&a, &b);
        prop_assert_eq!(f, route_inflation(&b, &a));
        prop_assert!((1.0..=3.0).contains(&f), "inflation {}", f);
    }

    #[test]
    fn path_samples_are_positive_and_deterministic(
        a in arb_point(),
        b in arb_point(),
        seed in any::<u64>(),
        bytes in 1usize..2000,
    ) {
        let path = Path::between(a, AccessProfile::cloud_vm(), b, AccessProfile::datacenter());
        let mut r1 = SimRng::from_seed(seed);
        let mut r2 = SimRng::from_seed(seed);
        for _ in 0..5 {
            let s1 = path.sample_rtt(bytes, bytes, &mut r1);
            let s2 = path.sample_rtt(bytes, bytes, &mut r2);
            prop_assert_eq!(s1, s2, "determinism");
            if let Some(d) = s1 {
                prop_assert!(d > SimDuration::ZERO);
                // An RTT can never beat light in fiber over the great circle.
                let floor_ms = 2.0 * a.distance_km(&b) / netsim::geo::FIBER_KM_PER_MS;
                prop_assert!(d.as_millis_f64() >= floor_ms * 0.99,
                    "rtt {} below light floor {}", d.as_millis_f64(), floor_ms);
            }
        }
    }

    #[test]
    fn anycast_always_picks_the_minimum_base_delay(
        client in arb_point(),
        sites in proptest::collection::vec(arb_point(), 1..8),
    ) {
        let deployment = Deployment::anycast(
            sites.iter().map(|p| {
                let mut site = Site::datacenter(netsim::geo::cities::FRANKFURT);
                site.city = netsim::City { name: "x", point: *p, region: netsim::Region::Unknown };
                site
            }).collect()
        );
        let host = netsim::Host {
            id: netsim::HostId(0),
            label: "c".into(),
            location: client,
            region: netsim::Region::Unknown,
            access: AccessProfile::cloud_vm(),
        };
        let chosen = deployment.route(&host);
        let chosen_ms = Path::between(client, host.access, sites[chosen], AccessProfile::datacenter()).base_one_way_ms();
        for (i, s) in sites.iter().enumerate() {
            let ms = Path::between(client, host.access, *s, AccessProfile::datacenter()).base_one_way_ms();
            prop_assert!(chosen_ms <= ms + 1e-9, "site {} ({} ms) beats chosen {} ({} ms)", i, ms, chosen, chosen_ms);
        }
    }

    #[test]
    fn rng_streams_never_collide(master in any::<u64>(), a in "[a-z]{1,12}", b in "[a-z]{1,12}") {
        prop_assume!(a != b);
        let mut ra = SimRng::derived(master, &a);
        let mut rb = SimRng::derived(master, &b);
        let va: Vec<u64> = (0..4).map(|_| ra.uniform().to_bits()).collect();
        let vb: Vec<u64> = (0..4).map(|_| rb.uniform().to_bits()).collect();
        prop_assert_ne!(va, vb);
    }

    #[test]
    fn access_profile_samples_positive(seed in any::<u64>()) {
        let mut rng = SimRng::from_seed(seed);
        for profile in [
            AccessProfile::home_cable(),
            AccessProfile::cloud_vm(),
            AccessProfile::datacenter(),
            AccessProfile::small_server(),
        ] {
            for _ in 0..20 {
                prop_assert!(profile.sample_ms(&mut rng) > 0.0);
            }
        }
    }
}
