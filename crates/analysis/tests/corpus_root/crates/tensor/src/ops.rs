//! Corpus fixture: `panic-in-backward` plus `unguarded-ln` in tensor scope;
//! a missing doc comment is rustc's `missing_docs`, so it stays quiet.

/// Documented op: no finding.
pub fn documented_op(x: f64) -> f64 {
    x + 1.0
}

pub fn undocumented_op(x: f64) -> f64 {
    x * 2.0
}

/// An op whose backward closure panics: `panic-in-backward`.
pub fn bad_backward() -> Box<dyn Fn(f64)> {
    Box::new(|g: f64| {
        if g.is_nan() {
            panic!("nan gradient");
        }
    })
}

/// Panicking outside any backward closure is not this rule's business.
pub fn panic_in_forward(x: f64) -> f64 {
    if x.is_nan() {
        panic!("nan input");
    }
    x
}

/// Unguarded log in tensor code: `unguarded-ln`.
pub fn raw_log(p: f64) -> f64 {
    p.ln()
}

/// A floor on the same statement quiets the rule.
pub fn floored_log(p: f64) -> f64 {
    p.max(1e-12).ln()
}
