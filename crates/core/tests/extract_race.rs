//! The extraction rewrite's gate: on a duplicate-heavy nested payload the
//! shipped `extract_tokens` returns exactly what the naive quadratic
//! reference returns, and the reference is at least 2× slower (best of 3).

use std::hint::black_box;
use std::time::Instant;

use cc_core::extract::{extract_tokens, Extracted};
use cc_url::percent::{decode_component, encode_component, looks_encoded};
use cc_util::DetRng;

/// The pre-optimization extractor: dedup via a linear `Vec::contains` scan
/// (quadratic in the leaf count) and an eager `decode_component` allocation
/// for every query segment. Semantics are identical to `extract_tokens`;
/// only the costs differ.
mod naive {
    use super::*;

    const MAX_DEPTH: usize = 8;

    pub fn extract_tokens(name: &str, value: &str) -> Vec<Extracted> {
        let mut out = Vec::new();
        walk(name, value, 0, &mut out);
        out
    }

    fn push(out: &mut Vec<Extracted>, name: &str, value: &str) {
        if value.is_empty() {
            return;
        }
        let e = Extracted {
            name: name.to_string(),
            value: value.to_string(),
        };
        if !out.contains(&e) {
            out.push(e);
        }
    }

    fn walk(name: &str, value: &str, depth: usize, out: &mut Vec<Extracted>) {
        if depth >= MAX_DEPTH || value.is_empty() {
            push(out, name, value);
            return;
        }
        if value.starts_with("http://") || value.starts_with("https://") {
            push(out, name, value);
            if let Ok(u) = cc_url::Url::parse(value) {
                for (k, v) in u.query() {
                    walk(k, v, depth + 1, out);
                }
            }
            return;
        }
        let trimmed = value.trim();
        if trimmed.starts_with('{') || trimmed.starts_with('[') {
            if let Ok(json) = serde_json::from_str::<serde_json::Value>(trimmed) {
                walk_json(name, &json, depth + 1, out);
                return;
            }
        }
        if value.contains('=') && is_query_ish(value) {
            for piece in value.split('&').filter(|p| !p.is_empty()) {
                let (k, v) = match piece.split_once('=') {
                    Some((k, v)) => (decode_component(k), decode_component(v)),
                    None => (decode_component(piece), String::new()),
                };
                if v.is_empty() {
                    walk(name, &k, depth + 1, out);
                } else {
                    walk(&k, &v, depth + 1, out);
                }
            }
            return;
        }
        if looks_encoded(value) {
            let decoded = decode_component(value);
            if decoded != value {
                walk(name, &decoded, depth + 1, out);
                return;
            }
        }
        push(out, name, value);
    }

    fn is_query_ish(value: &str) -> bool {
        value.split('&').all(|seg| {
            seg.is_empty()
                || seg
                    .split_once('=')
                    .map(|(k, _)| !k.is_empty() && !k.contains(' '))
                    .unwrap_or(false)
                || !seg.contains('=') && !seg.contains(' ')
        })
    }

    fn walk_json(name: &str, json: &serde_json::Value, depth: usize, out: &mut Vec<Extracted>) {
        match json {
            serde_json::Value::String(s) => walk(name, s, depth, out),
            serde_json::Value::Number(n) => push(out, name, &n.to_string()),
            serde_json::Value::Bool(_) | serde_json::Value::Null => {}
            serde_json::Value::Array(items) => {
                for item in items {
                    walk_json(name, item, depth, out);
                }
            }
            serde_json::Value::Object(map) => {
                for (k, v) in map {
                    walk_json(k, v, depth, out);
                }
            }
        }
    }
}

/// A JSON envelope whose dominant leaf volume is a giant URL-encoded blob
/// cycling through a bounded vocabulary under one repeated parameter name,
/// so nearly every push is a dedup hit that the quadratic reference pays a
/// full scan for: the shape tracker beacon values take (repeated `u=`
/// parameters accumulated across hops).
fn duplicate_heavy_fixture() -> String {
    let mut rng = DetRng::new(0x4071);
    let distinct: Vec<String> = (0..2_000)
        .map(|i| format!("tok{i:04}{:08x}", rng.next() as u32))
        .collect();
    let ids: Vec<String> = (0..1_000)
        .map(|_| format!("\"{}\"", rng.pick(&distinct)))
        .collect();
    let blob: Vec<String> = (0..20_000)
        .map(|_| format!("u={}", rng.pick(&distinct)))
        .collect();
    let encoded = encode_component(&blob[..500].join("&"));
    format!(
        "{{\"ids\":[{}],\"blob\":\"{}\",\"wrapped\":\"{}\"}}",
        ids.join(","),
        blob.join("&"),
        encoded
    )
}

fn best_of_3(f: impl Fn() -> Vec<Extracted>) -> f64 {
    (0..3)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

#[test]
fn shipped_extractor_matches_and_beats_the_quadratic_reference() {
    let fixture = duplicate_heavy_fixture();
    let shipped = extract_tokens("d", &fixture);
    assert!(shipped.len() > 1_000, "the fixture yields too few leaves");
    assert_eq!(shipped, naive::extract_tokens("d", &fixture));

    let naive_secs = best_of_3(|| naive::extract_tokens(black_box("d"), black_box(&fixture)));
    let shipped_secs = best_of_3(|| extract_tokens(black_box("d"), black_box(&fixture)));
    let ratio = naive_secs / shipped_secs;
    println!("extract: naive {naive_secs:.4}s, shipped {shipped_secs:.4}s -> {ratio:.1}x");
    assert!(
        ratio >= 2.0,
        "the shipped extractor must be at least 2x the quadratic reference, got {ratio:.2}x"
    );
}
