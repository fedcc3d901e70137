//! `BENCHMARK.json`, as the tests read it.

use sc_json::Value;

/// The parsed contract at the repository root.
pub fn spec() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Value::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root")).expect("valid JSON")
}

/// The `name` of every entry of the list `key` (`workloads`,
/// `end_to_end`, `per_layer`), in file order.
pub fn names(key: &str) -> Vec<String> {
    let spec = spec();
    let list = spec
        .get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("{key} is an array"));
    list.iter()
        .map(|e| e.get("name").and_then(Value::as_str).expect("name").to_string())
        .collect()
}
