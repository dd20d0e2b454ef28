//! A harness crate: only its own binaries link it.

/// Called from this crate's binary: reachable.
pub fn quick_campaign() -> u32 {
    lib::seeded()
}

/// No binary of this crate calls it: listed.
pub fn full_campaign() -> u32 {
    0
}
