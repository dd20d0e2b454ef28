//! Property tests for the deterministic M/D/c queueing model and the
//! per-site load tables built on it.
//!
//! The contracts the load subsystem leans on:
//!
//! * **zero at zero**: an idle site adds exactly `0.0` ms — the IEEE
//!   identity that keeps unloaded campaigns byte-identical;
//! * **monotone**: queueing delay and shed probability never decrease as
//!   offered load grows;
//! * **bounded, then shedding**: delay is capped at the admission
//!   ceiling's value (the model never queues unboundedly); past capacity
//!   the excess is shed, with shed probability approaching 1 as the
//!   offered rate grows without bound;
//! * **stable ordering**: per-site load tables list sites in
//!   deployment order regardless of the offered-load values, so two
//!   differently-seeded load vectors yield tables that differ only in
//!   their numbers, never their row order.

use netsim::geo::cities;
use netsim::rng::{derive_seed, splitmix64};
use netsim::{Deployment, IcmpPolicy, Site};
use proptest::prelude::*;
use resolver_sim::{HealthModel, QueueModel, ResolverInstance, ServerProfile};

fn profiles() -> [ServerProfile; 4] {
    [
        ServerProfile::production(),
        ServerProfile::midsize(),
        ServerProfile::hobbyist(),
        ServerProfile::odoh_target(),
    ]
}

proptest! {
    #[test]
    fn delay_is_zero_at_zero_and_monotone_in_load(
        profile_idx in 0usize..4,
        // Two offered rates spanning idle to far past any profile's capacity.
        a in 0.0f64..20_000_000.0,
        b in 0.0f64..20_000_000.0,
    ) {
        let q = profiles()[profile_idx].queue();
        prop_assert_eq!(q.queue_delay_ms(0.0), 0.0, "exact zero at idle");
        prop_assert_eq!(q.shed_probability(0.0), 0.0);

        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(
            q.queue_delay_ms(lo) <= q.queue_delay_ms(hi),
            "delay must be monotone: {} qps -> {} ms, {} qps -> {} ms",
            lo, q.queue_delay_ms(lo), hi, q.queue_delay_ms(hi)
        );
        prop_assert!(
            q.shed_probability(lo) <= q.shed_probability(hi),
            "shed must be monotone"
        );
    }

    #[test]
    fn delay_is_bounded_and_overload_sheds(
        profile_idx in 0usize..4,
        over in 1.0f64..1000.0,
    ) {
        let q = profiles()[profile_idx].queue();
        let capacity = q.capacity_qps();
        prop_assert!(capacity.is_finite() && capacity > 0.0);

        // However far past capacity, delay never exceeds the admission
        // ceiling's value: the model sheds instead of queueing unboundedly.
        let offered = capacity * over;
        prop_assert!(
            q.queue_delay_ms(offered) <= q.max_queue_delay_ms() + 1e-9,
            "delay {} must stay under the cap {}",
            q.queue_delay_ms(offered), q.max_queue_delay_ms()
        );
        prop_assert!(
            q.shed_probability(offered) > 0.0,
            "past capacity the site must shed"
        );
        // Below the admission ceiling nothing sheds.
        prop_assert_eq!(q.shed_probability(capacity * 0.5), 0.0);
    }

    #[test]
    fn shed_probability_approaches_one(over in 10.0f64..1e6) {
        let q = QueueModel::new(4, 1.0);
        let p = q.shed_probability(q.capacity_qps() * over);
        prop_assert!((0.0..1.0).contains(&p));
        // 1 - cap/rho: at 10x overload at least 90% of the cap's
        // complement is shed.
        prop_assert!(p >= 1.0 - 1.0 / over, "shed {} at {}x", p, over);
    }
}

/// Builds a three-site anycast instance for the load-table checks.
fn anycast_instance() -> ResolverInstance {
    ResolverInstance::new(
        "dns.example",
        Deployment::anycast(vec![
            Site::datacenter(cities::ASHBURN_VA),
            Site::datacenter(cities::FRANKFURT),
            Site::datacenter(cities::SEOUL),
        ]),
        ServerProfile::hobbyist(),
        IcmpPolicy::Respond,
        HealthModel::reliable(),
    )
}

/// A deterministic per-site offered-load vector derived from a seed.
fn offered_from_seed(seed: u64, sites: usize, scale: f64) -> Vec<f64> {
    (0..sites)
        .map(|i| {
            let mut state = derive_seed(seed, "offered") ^ (i as u64).wrapping_mul(0x9E37);
            let u = (splitmix64(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
            u * scale
        })
        .collect()
}

#[test]
fn load_tables_keep_site_order_across_seeds() {
    let inst = anycast_instance();
    let capacity = inst.servers[0].profile().queue().capacity_qps();
    for seed in [7u64, 1234] {
        let offered = offered_from_seed(seed, 3, capacity * 3.0);
        let table = inst.site_load_table(&offered);
        // Row order is deployment order, never sorted by load.
        let sites: Vec<usize> = table.iter().map(|row| row.site).collect();
        assert_eq!(sites, vec![0, 1, 2], "seed {seed} permuted the rows");
        assert_eq!(
            (table[0].city, table[1].city, table[2].city),
            ("Ashburn", "Frankfurt", "Seoul"),
            "seed {seed}"
        );
        // And the table is a pure function: same seed, same rows.
        assert_eq!(table, inst.site_load_table(&offered), "seed {seed} rerun");
    }
    // Two seeds agree on structure even though every number differs.
    let a = inst.site_load_table(&offered_from_seed(7, 3, capacity * 3.0));
    let b = inst.site_load_table(&offered_from_seed(1234, 3, capacity * 3.0));
    assert_ne!(a, b, "distinct seeds must produce distinct loads");
    for (ra, rb) in a.iter().zip(&b) {
        assert_eq!((ra.site, ra.city), (rb.site, rb.city));
    }
}

#[test]
fn load_table_rows_are_consistent_with_the_queue_model() {
    let inst = anycast_instance();
    let q = inst.servers[0].profile().queue();
    let capacity = q.capacity_qps();
    let offered = vec![0.0, capacity * 0.5, capacity * 4.0];
    let table = inst.site_load_table(&offered);
    for (row, &qps) in table.iter().zip(&offered) {
        assert_eq!(row.offered_qps, qps);
        assert_eq!(row.utilization, q.utilization(qps));
        assert_eq!(row.queue_delay_ms, q.queue_delay_ms(qps));
        assert_eq!(row.shed_probability, q.shed_probability(qps));
    }
    assert_eq!(table[0].queue_delay_ms, 0.0);
    assert!(table[1].queue_delay_ms > 0.0 && table[1].shed_probability == 0.0);
    assert!(table[2].shed_probability > 0.5);
}
