//! The load model's zero-transparency contract: a campaign configured
//! with `LoadModel::zero()` — or any model whose `is_zero()` holds — must
//! produce **byte-identical** output to the same campaign with no load
//! model at all, across seeds, protocols, fault plans and retry policies.
//!
//! This is the invariant that lets the load subsystem ride along without
//! invalidating any seed golden: a zero model never builds pair load
//! state, so the driver routes every attempt statically. A live model, by
//! contrast, MUST change output (otherwise the sweep measures nothing).
//! That a loaded campaign writes the same bytes in every engine, the
//! fresh-wire reference included, is the equivalence matrix's
//! (`equivalence.rs`).

mod support;

use measure::{CampaignConfig, LoadModel, Protocol};
use proptest::prelude::*;

use support::{campaign, quick, PROTOCOLS};

/// The zero-model campaign must be byte-identical to the no-model
/// campaign: records and JSONL.
fn assert_zero_load_is_transparent(base: CampaignConfig, context: &str) {
    let baseline = campaign(base.clone(), false).run();
    for (label, zero) in [
        ("LoadModel::zero()", LoadModel::zero()),
        (
            "standard().with_multiplier(0.0)",
            LoadModel::standard(base.seed).with_multiplier(0.0),
        ),
    ] {
        let result = campaign(base.clone().with_load(zero), false).run();
        assert_eq!(
            baseline.records, result.records,
            "{label} diverged from no-model run: {context}"
        );
        assert_eq!(
            baseline.to_json_lines(),
            result.to_json_lines(),
            "{label} JSONL bytes diverged: {context}"
        );
    }
}

#[test]
fn zero_load_transparent_for_every_protocol_under_faults() {
    for protocol in PROTOCOLS {
        assert_zero_load_is_transparent(
            quick(23, protocol, true, 1),
            &format!("{protocol:?}, faulted, dig retries"),
        );
    }
}

#[test]
fn live_load_changes_output() {
    let base = quick(11, Protocol::DoH, false, 0);
    let baseline = campaign(base.clone(), false).run();
    let loaded = base.with_load(LoadModel::standard(11).with_multiplier(8.0));
    assert_ne!(
        baseline.records,
        campaign(loaded, false).run().records,
        "a saturating load model must change campaign output"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn zero_load_transparent(
        seed in any::<u64>(),
        proto_idx in 0usize..PROTOCOLS.len(),
        faulted in any::<bool>(),
        retry_idx in 0usize..3,
    ) {
        let protocol = PROTOCOLS[proto_idx];
        assert_zero_load_is_transparent(
            quick(seed, protocol, faulted, retry_idx),
            &format!("seed={seed}, protocol={protocol:?}, faulted={faulted}, retry={retry_idx}"),
        );
    }
}
