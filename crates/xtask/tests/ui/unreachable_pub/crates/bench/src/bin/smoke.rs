//! A binary of the harness crate.

fn main() {
    let _ = quick_campaign();
}
