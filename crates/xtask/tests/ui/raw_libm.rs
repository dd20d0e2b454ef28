// detlint UI fixture: raw-libm. Not compiled — detlint is lexical.

fn haversine(lat1: f64, lat2: f64, dlat: f64) -> f64 {
    let a = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos();
    2.0 * a.sqrt().asin()
}

fn draws(u: f64, m: f64) -> f64 {
    let t = -u.ln();
    m.exp() + u.powf(1.0 / 1.8) + t
}

fn allowed(x: f64) -> f64 {
    // detlint:allow(raw-libm, a diagnostic printed once, never a simulated value)
    x.exp()
}

fn clean(x: f64, v: &[f64]) -> f64 {
    // Through the module, exact operations, and names that are no call.
    let a = netsim::math::exp(x) + math::ln(x) + x.sqrt() + x.powi(3) + x.abs();
    let exp = v.len() as f64;
    a + exp + v.iter().map(|y| y.exp).sum::<f64>()
}

#[cfg(test)]
mod tests {
    fn oracle(x: f64) -> f64 {
        x.ln() + x.exp()
    }
}
