//! A live load model must change campaign output (otherwise the sweep
//! measures nothing). No model is no load: `CampaignConfig::load` is
//! `None`, and the seed goldens pin that output. That a loaded campaign
//! writes the same bytes in every engine, the fresh-wire reference
//! included, is the equivalence matrix's (`equivalence.rs`).

mod support;

use measure::{LoadModel, Protocol};

use support::{campaign, quick};

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
