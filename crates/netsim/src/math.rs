//! The transcendental functions the simulation calls, in one place.
//!
//! `exp`, `ln`, `sin`, `cos`, `asin` and `powf` are not correctly rounded:
//! their last bit is whatever the platform's libm computes. Every call
//! the library makes goes through this module, so that dependence has one
//! address. detlint's `raw-libm` rule refuses a direct `.exp(` (and the
//! rest) anywhere else in library code. Each function here is the `std`
//! method under another name, so moving a call site onto it changes no
//! bit; `rng`'s `sampler_draws_are_pinned` holds the draws built on them
//! to their recorded bits.

/// `e^x`.
#[inline]
pub fn exp(x: f64) -> f64 {
    x.exp()
}

/// The natural logarithm of `x`.
#[inline]
pub fn ln(x: f64) -> f64 {
    x.ln()
}

/// The sine of `x` (radians).
#[inline]
pub fn sin(x: f64) -> f64 {
    x.sin()
}

/// The cosine of `x` (radians).
#[inline]
pub fn cos(x: f64) -> f64 {
    x.cos()
}

/// The arcsine of `x`, in radians.
#[inline]
pub fn asin(x: f64) -> f64 {
    x.asin()
}

/// `x` raised to the power `y`.
#[inline]
pub fn powf(x: f64, y: f64) -> f64 {
    x.powf(y)
}
