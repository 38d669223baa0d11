//! The `BENCH_hpl.json` reader the CLI tests share. The workspace's
//! serde_json shim only serializes, so the tests address the file by text:
//! [`runs`] cuts it into its run objects, [`json_field`] reads one scalar
//! out of one of them.

/// The run objects of a `BENCH_hpl.json` document, in file order: each
/// slice starts at its run's opening `{` and ends where the next run
/// starts (the last one at the end of the document).
pub fn runs(doc: &str) -> Vec<&str> {
    let starts: Vec<usize> = doc.match_indices("{\"tv\":").map(|(at, _)| at).collect();
    starts
        .iter()
        .enumerate()
        .map(|(k, &at)| &doc[at..starts.get(k + 1).copied().unwrap_or(doc.len())])
        .collect()
}

/// Pulls the string right after the first `"key": ` out of `doc` (a whole
/// file, or one of its [`runs`]) — enough to compare the scalar fields of
/// `BENCH_hpl.json` byte-for-byte.
pub fn json_field<'a>(doc: &'a str, key: &str) -> &'a str {
    let needle = format!("\"{key}\":");
    let at = doc
        .find(&needle)
        .unwrap_or_else(|| panic!("no {key} in JSON"));
    let rest = doc[at + needle.len()..].trim_start();
    let end = rest
        .find([',', '}'])
        .unwrap_or_else(|| panic!("unterminated {key} value"));
    rest[..end].trim().trim_matches('"')
}
