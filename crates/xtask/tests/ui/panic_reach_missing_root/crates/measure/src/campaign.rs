//! A hot-path root that was renamed away must not drop out of the rule
//! silently: `run_pair` still resolves here, the per-probe driver does
//! not, and the measure crate is in the scanned tree.

pub fn run_pair() -> u32 {
    probe_once()
}

pub fn probe_once() -> u32 {
    1
}
