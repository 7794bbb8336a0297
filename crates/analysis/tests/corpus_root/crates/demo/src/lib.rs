//! Corpus fixture: one confirmed finding per general-purpose rule, plus the
//! suppression/exclusion cases; unwraps are clippy's, so they stay quiet.

use std::fs;
use std::path::Path;
use std::sync::{Mutex, PoisonError};

pub fn plain_unwrap(x: Option<u32>) -> u32 {
    x.unwrap()
}

pub fn poisoned_lock(m: &Mutex<u32>) -> u32 {
    *m.lock().unwrap()
}

pub fn poison_safe(m: &Mutex<u32>) -> u32 {
    *m.lock().unwrap_or_else(PoisonError::into_inner)
}

pub fn clone_per_iteration(rows: &[Vec<u32>]) -> usize {
    let mut total = 0;
    for row in rows {
        let copy = row.clone();
        total += copy.len();
    }
    total
}

pub fn hoisted_clone(rows: &Vec<u32>) -> usize {
    let copy = rows.clone();
    let mut total = 0;
    for row in &copy {
        total += *row as usize;
    }
    total
}

pub fn exact_float(p: f64) -> bool {
    p == 0.0
}

pub fn tolerant_float(p: f64) -> bool {
    (p - 0.5).abs() < 1e-9
}

pub fn raw_print(x: u32) {
    println!("{x}");
}

pub fn raw_eprint(x: u32) {
    eprintln!("{x}");
}

pub fn torn_write(p: &Path, s: &str) -> std::io::Result<()> {
    fs::write(p, s)
}

pub fn atomic_write(p: &Path, s: &str) -> std::io::Result<()> {
    let tmp = p.with_extension("tmp");
    fs::write(&tmp, s)?;
    fs::rename(&tmp, p)
}

pub fn escaped_float(p: f64) -> bool {
    // pup-lint: allow(float-eq) — corpus: a live escape suppresses.
    p == 1.0
}

pub fn needles_in_prose() -> &'static str {
    // .unwrap() in a comment is prose, not code.
    "x.unwrap(); m.lock().unwrap(); println!(); fs::write(p, s)"
}

// pup-hot: dark-root
pub fn untraced_hot(x: u32) -> u32 {
    x + 1
}

// pup-hot: lit-root
pub fn traced_hot(x: u32) -> u32 {
    let _span = pup_obs::span("hot");
    x + 1
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_is_exempt() {
        let x: Option<u32> = Some(1);
        assert_eq!(x.unwrap(), 1);
        println!("tests may print");
    }
}
