//! Bad: one panic site in a library path.

pub fn first(xs: &[f64]) -> f64 {
    *xs.first().unwrap()
}
